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
from fractions import Fraction
from typing import NamedTuple, Sequence

from .lang.ast import Program, STATEMENT_KINDS, KIND_FUNCTION
from .lang.check import static_check
from .runtime.exec import TestCase, baseline_limits
from .runtime.ir import build_ir
from .scores import NodeScore, AnalysisCost, SOURCE_PROFILER


class ProfileReport(NamedTuple):
    counts: list[int]   # node id -> the count it has or inherits
    total: int          # summed over statements


def profile(program: Program, suite: Sequence[TestCase]) -> ProfileReport:
    """Raises BaselineDiverged unless the program passes every test."""
    violations = static_check(program)
    if violations:
        raise ValueError(f"program does not compile: {violations[0]}")
    tally = array("q", [0]) * len(program.nodes)
    baseline_limits(build_ir(program), suite, counts=[tally] * len(suite))
    # Ids are breadth-first, so a parent's count precedes its children's.
    counts, total = [], 0
    for i, node in enumerate(program.nodes):
        if node.kind in STATEMENT_KINDS:
            counts.append(tally[i])
            total += tally[i]
        elif node.kind == KIND_FUNCTION:
            counts.append(tally[program.first[i]])
        else:
            counts.append(counts[program.parent[i]])
    return ProfileReport(counts, total)


def profile_scores(program: Program, report: ProfileReport
                   ) -> dict[int, NodeScore]:
    total = report.total or 1   # a total of 0 means every count is 0
    return {
        node_id: NodeScore(node=node_id, value=Fraction(count, total),
                           n_reduced=0, n_compiled=0, source=SOURCE_PROFILER)
        for node_id, count in enumerate(report.counts)
    }


def profile_cost() -> AnalysisCost:
    return AnalysisCost(variants_generated=0, compiled=0, executed=0,
                        evaluations=1)
