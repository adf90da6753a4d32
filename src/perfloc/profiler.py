"""Statement execution counting and the profiling-based ranking.

A statement's count is the number of times it begins executing, summed over
the whole suite. Every other node inherits the count of its nearest enclosing
statement; a function declaration inherits its body's count. Scores are the
counts normalised by the total over statements, so profiler scores over
statements sum to 1.

Profiling costs one evaluation of the suite, regardless of program size.
"""

from __future__ import annotations

from array import array
from dataclasses import dataclass
from fractions import Fraction
from typing import Sequence

from .lang.ast import Program, STATEMENT_KINDS, KIND_FUNCTION
from .lang.check import static_check
from .runtime.exec import TestCase, baseline_limits
from .runtime.ir import build_ir
from .scores import NodeScore, AnalysisCost, SOURCE_PROFILER


@dataclass(frozen=True)
class ProfileReport:
    counts: dict[int, int]
    node_scores: dict[int, Fraction]
    total: int


def profile(program: Program, suite: Sequence[TestCase]) -> ProfileReport:
    """Raises BaselineDiverged unless the program passes every test."""
    violations = static_check(program)
    if violations:
        raise ValueError(f"program does not compile: {violations[0]}")
    tally = array("q", [0]) * len(program.nodes)
    baseline_limits(build_ir(program), suite, counts=tally)

    nodes, first = program.nodes, program.first
    counts_map = {i: tally[i] for i, n in enumerate(nodes)
                  if n.kind in STATEMENT_KINDS}
    total = sum(counts_map.values())

    node_scores: dict[int, Fraction] = {}

    def spread(i, inherited):
        if nodes[i].kind in STATEMENT_KINDS:
            inherited = Fraction(counts_map[i], total) if total \
                else Fraction(0)
        node_scores[i] = inherited
        for c in range(first[i], first[i] + len(nodes[i].children)):
            spread(c, inherited)

    for k in range(len(program.functions)):  # function k is node k
        body_score = Fraction(counts_map[first[k]], total) if total \
            else Fraction(0)
        node_scores[k] = body_score
        spread(first[k], body_score)

    return ProfileReport(counts_map, node_scores, total)


def inherited_count(program: Program, report: ProfileReport,
                    node_id: int) -> int:
    """Raw count a node inherits (its enclosing statement's; functions take
    their body's)."""
    if program.nodes[node_id].kind == KIND_FUNCTION:
        return report.counts[program.first[node_id]]
    return report.counts[program.enclosing_statement(node_id)]


def profile_scores(program: Program, report: ProfileReport
                   ) -> dict[int, NodeScore]:
    return {
        node_id: NodeScore(node=node_id, value=score, n_reduced=0,
                           n_compiled=0, source=SOURCE_PROFILER)
        for node_id, score in report.node_scores.items()
    }


def profile_cost() -> AnalysisCost:
    return AnalysisCost(variants_generated=0, compiled=0, executed=0,
                        evaluations=1)
