"""Deletion analysis, exhaustive first-order mutation, the combined
technique, and the seven-way variant classifier.

Scoring model:

- Deletion: each statement, outermost first, is removed (a function body is
  emptied instead, since it cannot be detached); if the remainder compiles,
  the relative cost saving (cost(p) - cost(p-s)) / cost(p), floored at zero,
  is written onto every node of the removed subtree. Deeper statements then
  overwrite their own subtrees, so values accumulate outward. A statement
  whose removal does not compile keeps whatever its nearest scored ancestor
  gave it. Runs that hang or crash carry no usable cost, so such removals
  measure zero; and because removing a statement also removes everything
  below it, every statement's saving is folded up to at least the maximum
  over its descendants, keeping savings cumulative toward the root even
  when a removal degrades the control flow.
- Exhaustive: every node is a target; donors are every other same-category
  subtree occurring in the program (deduplicated structurally, first
  occurrence in id order) plus, for operator slots, every language operator
  of the same arity. A node's value is n_reduced / n_compiled, where
  n_reduced counts compiled variants that cost less than the original.
  Variants that are both fully correct and cheaper are genuine improvements
  rather than hints: they stay in n_compiled but are excluded from n_reduced
  unless ``include_correct`` is set, and are reported separately.
- Combined: exhaustive, except nodes with no compilable variant take their
  deletion value (gap_filled).

Exhaustive variants come from one flat, node-ordered descriptor list.
Each donor is tested once in its target's typed hole (``lang.check.Holes``),
whose verdict is exact where it gives one, and each variant takes one
path by that verdict:

- rejected: never built; its row is ``classify_variant(original, None)``;
- accepted (expressions, operators, and statements of a ``void``
  function where neither statement is a VarDecl): no variant ``Program``
  is built, checked or lowered. ``runtime.ir.splice_patch`` describes it
  as a patch on the original's IR, with the frame slots the hole check
  resolved, and ``runtime.exec.run_patch`` runs that patch on the
  original, prepared once per analysis. It runs only the tests on which
  the original enters the target's nearest enclosing statement: only rows
  reached through that statement differ, and a grown frame only adds
  cells that start at zero, so on every other test the variant's outcome
  is the original's;
- no verdict (other statement and VarDecl name edits whose hole check is
  clean): built, fully checked, lowered and run on the whole suite.

The analysis is one in-process pass: each descriptor is fitted, then
settled, run or built by its verdict, classified and logged in descriptor
order, so every output is byte-identical from run to run.
"""

from __future__ import annotations

from dataclasses import dataclass
from fractions import Fraction
from typing import Optional, Sequence

from .lang.ast import (
    AstNode, Program, CATEGORY,
    CAT_EXPRESSION, CAT_OPERATOR, CAT_STATEMENT,
    KIND_BLOCK, KIND_BINARY, KIND_UNARY, KIND_INCDEC, KIND_OPERATOR,
    BINARY_OPS, UNARY_OPS, INCDEC_OPS,
    structurally_equal,
)
from .lang.check import Holes, static_check
from .lang.edit import (
    statement_ids, delete_statement, empty_function_body, replace_node,
)
from .lang.printer import render_snippet
from .runtime.ir import ProgramIR, splice_patch
from .runtime.exec import (
    Summary, TestCase, baseline_limits, run_suite, compile_program,
    entering_tests, prepare, run_patch, DEFAULT_TIMEOUT_FACTOR,
)
from .scores import (
    NodeScore, AnalysisCost, SOURCE_DELETION, SOURCE_EXHAUSTIVE,
    SOURCE_COMBINED,
)

CLASS_NOT_COMPILABLE = "NotCompilable"
CLASS_INFINITE_LOOP = "InfiniteLoop"
CLASS_RUNTIME_ERROR = "RuntimeErrorDiffers"
CLASS_DEGRADED = "FunctionallyDegraded"
CLASS_MORE_EXPENSIVE = "MoreExpensive"
CLASS_IDENTICAL = "Identical"
CLASS_LESS_EXPENSIVE = "LessExpensive"

ALL_CLASSES = (CLASS_NOT_COMPILABLE, CLASS_INFINITE_LOOP, CLASS_RUNTIME_ERROR,
               CLASS_DEGRADED, CLASS_MORE_EXPENSIVE, CLASS_IDENTICAL,
               CLASS_LESS_EXPENSIVE)

DELETE_LABEL = "<delete>"


@dataclass(frozen=True)
class MutationDescriptor:
    """One replacement: put ``donor``, node ``donor_id`` of the program (-1
    for an operator), where node ``target`` stood."""
    target: int
    donor: AstNode
    donor_id: int
    donor_label: str


@dataclass(frozen=True)
class VariantRecord:
    """One row of the variant log."""
    target: int
    donor_label: str
    classification: str
    cost: Optional[int]
    correctness: Optional[Fraction]
    reduced: bool
    direct_improvement: bool


@dataclass(frozen=True)
class AnalysisResult:
    scores: dict[int, NodeScore]
    variants: tuple[VariantRecord, ...]
    cost: AnalysisCost
    original: Summary


def classify_variant(original: Summary, outcome: Optional[Summary]) -> str:
    """The one class of a variant, from the suite runs of the original and
    of the variant; ``outcome`` is None when the variant did not
    compile."""
    if outcome is None:
        return CLASS_NOT_COMPILABLE
    if outcome.any_timeout:
        return CLASS_INFINITE_LOOP
    if outcome.any_error:
        return CLASS_RUNTIME_ERROR
    if outcome.total_cost < original.total_cost:
        return CLASS_LESS_EXPENSIVE
    if outcome.correctness < original.correctness:
        return CLASS_DEGRADED
    if outcome.total_cost > original.total_cost:
        return CLASS_MORE_EXPENSIVE
    return CLASS_IDENTICAL


# donor inventory ----------------------------------------------------------

def _distinct_structures(program: Program, category: str) -> list[int]:
    """Ids of the first occurrence, in id order, of each distinct structure
    of ``category``; Blocks are never donors."""
    seen: list[int] = []
    by_hash: dict[int, list[AstNode]] = {}
    for i, n in enumerate(program.nodes):
        if CATEGORY[n.kind] != category or n.kind == KIND_BLOCK:
            continue
        bucket = by_hash.setdefault(n.structural_hash(), [])
        if not any(structurally_equal(n, other) for other in bucket):
            bucket.append(n)
            seen.append(i)
    return seen


def _replacements(program, target_id, exprs, stmts, labels):
    target = program.nodes[target_id]
    category = CATEGORY[target.kind]
    out: list[MutationDescriptor] = []
    if category == CAT_OPERATOR:
        parent = program.nodes[program.parent[target_id]]
        if parent.kind == KIND_BINARY:
            symbols = BINARY_OPS
        elif parent.kind == KIND_UNARY:
            symbols = UNARY_OPS
        elif parent.kind == KIND_INCDEC:
            symbols = INCDEC_OPS
        else:
            symbols = ()
        for sym in symbols:
            if sym != target.op:
                donor = AstNode(KIND_OPERATOR, op=sym)
                out.append(MutationDescriptor(target_id, donor, -1, sym))
        return out
    if category == CAT_EXPRESSION:
        pool = exprs
    elif category == CAT_STATEMENT and target.kind != KIND_BLOCK:
        pool = stmts
    else:
        # Function bodies and declarations have no donor pool; their value
        # comes from gap filling.
        return []
    target_hash = target.structural_hash()
    for donor_id in pool:
        donor = program.nodes[donor_id]
        # unequal hashes (cached on each node) mean unequal structures
        if donor.structural_hash() != target_hash \
                or not structurally_equal(donor, target):
            out.append(MutationDescriptor(target_id, donor, donor_id,
                                          labels[donor_id]))
    return out


def exhaustive_descriptors(program: Program) -> list[MutationDescriptor]:
    """Every replacement of every node, in node order."""
    exprs = _distinct_structures(program, CAT_EXPRESSION)
    stmts = _distinct_structures(program, CAT_STATEMENT)
    labels = {i: render_snippet(program.nodes[i]) for i in exprs + stmts}
    return [d for i in range(len(program.nodes))
            for d in _replacements(program, i, exprs, stmts, labels)]


# variant evaluation -------------------------------------------------------

def _evaluate_variant(mutated: Program, suite: Sequence[TestCase],
                      limits: Sequence[int]) -> Optional[Summary]:
    """Check, lower and run one variant on the whole suite; None when the
    variant does not compile."""
    if static_check(mutated):
        return None
    return run_suite(compile_program(mutated), suite, limits)


# deletion -----------------------------------------------------------------

def deletion_analysis(program: Program, suite: Sequence[TestCase],
                      factor: float = DEFAULT_TIMEOUT_FACTOR
                      ) -> AnalysisResult:
    ir = compile_program(program)
    limits, original = baseline_limits(ir, suite, factor)
    total = original.total_cost

    variants: list[VariantRecord] = []
    executed = 0
    savings: dict[int, Fraction] = {}

    stmt_ids = statement_ids(program)
    for sid in stmt_ids:
        if program.nodes[sid].kind == KIND_BLOCK:   # a function body
            mutated = empty_function_body(program, sid)
        else:
            mutated = delete_statement(program, sid)
        outcome = _evaluate_variant(mutated, suite, limits)
        klass = classify_variant(original, outcome)
        if outcome is None:
            variants.append(VariantRecord(sid, DELETE_LABEL, klass, None,
                                          None, False, False))
            continue
        executed += 1
        # hung and crashed runs have no comparable cost to subtract
        saved = Fraction(0)
        if total and klass not in (CLASS_INFINITE_LOOP, CLASS_RUNTIME_ERROR):
            saved = max(Fraction(0),
                        Fraction(total - outcome.total_cost, total))
        savings[sid] = saved
        variants.append(VariantRecord(
            sid, DELETE_LABEL, klass, outcome.total_cost,
            outcome.correctness, outcome.total_cost < total, False))

    # removing a statement removes everything below it, so fold each
    # saving into the nearest measured ancestor, deepest first
    for sid in sorted(savings, reverse=True):
        p = program.parent[sid]
        while p >= 0 and p not in savings:
            p = program.parent[p]
        if p >= 0:
            savings[p] = max(savings[p], savings[sid])

    values = dict.fromkeys(range(len(program.nodes)), Fraction(0))
    for sid in sorted(savings):
        saved = savings[sid]
        for i in program.subtree_ids(sid):
            values[i] = saved
        if program.nodes[sid].kind == KIND_BLOCK:
            values[program.parent[sid]] = saved

    scores = {i: NodeScore(node=i, value=v, n_reduced=0, n_compiled=0,
                           source=SOURCE_DELETION)
              for i, v in values.items()}
    cost = AnalysisCost(variants_generated=len(stmt_ids), compiled=executed,
                        executed=executed, evaluations=executed)
    return AnalysisResult(scores, tuple(variants), cost, original)


# exhaustive ---------------------------------------------------------------

def reaching_tests(program: Program, ir: ProgramIR,
                   suite: Sequence[TestCase], limits: Sequence[int]
                   ) -> list[tuple[int, ...]]:
    """For each node, the numbers of the tests on which the original
    enters the node's nearest enclosing statement, or every test for a
    node outside any statement. A splice at the node runs exactly like
    the original on every other test."""
    entered = entering_tests(ir, suite, limits)
    every = tuple(range(len(suite)))
    return [entered[s] if s >= 0 else every
            for s in map(program.enclosing_statement,
                         range(len(program.nodes)))]


def exhaustive_analysis(program: Program, suite: Sequence[TestCase],
                        factor: float = DEFAULT_TIMEOUT_FACTOR,
                        include_correct: bool = False) -> AnalysisResult:
    ir = compile_program(program)
    limits, original = baseline_limits(ir, suite, factor)
    reach = reaching_tests(program, ir, suite, limits)
    prepared = prepare(ir, suite, limits)

    descriptors = exhaustive_descriptors(program)
    holes = Holes(program)
    n_compiled = [0] * len(program.nodes)
    n_reduced = [0] * len(program.nodes)
    variants: list[VariantRecord] = []
    for d in descriptors:
        accepted, slots = holes.fit(d.target, d.donor, d.donor_id)
        if accepted is False:
            outcome = None
        elif accepted:
            outcome = run_patch(prepared, splice_patch(ir, program, d.target,
                                                       d.donor, d.donor_id,
                                                       slots),
                                reach[d.target])
        else:
            outcome = _evaluate_variant(
                replace_node(program, d.target, d.donor), suite, limits)
        klass = classify_variant(original, outcome)
        cost = correctness = None
        reduced = direct = False
        if outcome is not None:
            cost, correctness = outcome.total_cost, outcome.correctness
            cheaper = cost < original.total_cost
            direct = cheaper and correctness == original.correctness
            reduced = cheaper and (include_correct or not direct)
            n_compiled[d.target] += 1
            n_reduced[d.target] += reduced
        variants.append(VariantRecord(d.target, d.donor_label, klass, cost,
                                      correctness, reduced, direct))

    scores: dict[int, NodeScore] = {}
    for nid, (red, comp) in enumerate(zip(n_reduced, n_compiled)):
        value = Fraction(red, comp) if comp else Fraction(0)
        scores[nid] = NodeScore(node=nid, value=value, n_reduced=red,
                                n_compiled=comp, source=SOURCE_EXHAUSTIVE)
    compiled = sum(n_compiled)
    cost = AnalysisCost(variants_generated=len(descriptors),
                        compiled=compiled, executed=compiled,
                        evaluations=compiled)
    return AnalysisResult(scores, tuple(variants), cost, original)


# combined -----------------------------------------------------------------

def combined_analysis(program: Program, suite: Sequence[TestCase],
                      factor: float = DEFAULT_TIMEOUT_FACTOR,
                      include_correct: bool = False
                      ) -> tuple[AnalysisResult, AnalysisResult,
                                 AnalysisResult]:
    """Returns (combined, exhaustive, deletion); the latter two are the
    ingredient runs, exposed so reports need not recompute them."""
    exhaustive = exhaustive_analysis(program, suite, factor, include_correct)
    deletion = deletion_analysis(program, suite, factor)
    scores: dict[int, NodeScore] = {}
    for nid, score in exhaustive.scores.items():
        if score.n_compiled == 0:
            fill = deletion.scores[nid].value
            scores[nid] = NodeScore(node=nid, value=fill, n_reduced=0,
                                    n_compiled=0, source=SOURCE_COMBINED,
                                    gap_filled=True)
        else:
            scores[nid] = NodeScore(node=nid, value=score.value,
                                    n_reduced=score.n_reduced,
                                    n_compiled=score.n_compiled,
                                    source=SOURCE_COMBINED)
    cost = AnalysisCost(
        variants_generated=(exhaustive.cost.variants_generated
                            + deletion.cost.variants_generated),
        compiled=exhaustive.cost.compiled + deletion.cost.compiled,
        executed=exhaustive.cost.executed + deletion.cost.executed,
        evaluations=(exhaustive.cost.evaluations
                     + deletion.cost.evaluations),
    )
    combined = AnalysisResult(scores,
                              exhaustive.variants + deletion.variants, cost,
                              exhaustive.original)
    return combined, exhaustive, deletion

