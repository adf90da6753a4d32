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

Each analysis reads one ``Baseline`` of the problem, which ``baseline``
makes from one lowering of the original and one counted run of each test:
its IR, the step limits, its ``Summary``, and for each node the tests
that reach it. A combined analysis shares it between its two parts.

Exhaustive variants come from one flat, node-ordered descriptor list.
Every expression and statement node gets a structure id once, the id of
the first node equal to it, so a donor equals its target exactly when it
is the target's structure id. Each donor is tested in its target's typed
hole (``lang.check.Holes``), whose verdict is exact where it gives one.
Targets whose holes record equal calls share a hole class, and the holes
replay each (class, donor) pair once. Each variant takes one path by its
verdict:

- rejected: never built; its row is ``classify_variant(original, None)``;
- accepted (expressions, operators, and statements of a ``void``
  function where neither statement is a VarDecl): no variant ``Program``
  is built, checked or lowered. ``runtime.ir.Splices`` describes it as a
  patch on the original's IR, with the frame slots the hole check
  resolved; it lowers a donor's rows once per (hole class, donor) pair,
  and each splice of the pair shares them and replaces only its target's
  row, so a splice copies nothing.
  ``runtime.exec.run_patch`` runs that patch on the
  original, prepared once per analysis. It runs only the tests that reach
  the target in the ``Baseline``: only rows reached through the target's
  nearest enclosing statement differ, and the variant has the original's
  frames, so on every other test the variant's outcome is the original's;
- no verdict (other statement and VarDecl name edits whose hole check is
  clean): built, fully checked, lowered and run on the whole suite.

The analysis is one in-process pass: each descriptor is fitted, then
settled, run or built by its verdict, classified and logged in descriptor
order, so every output is byte-identical from run to run.
"""

from __future__ import annotations

from array import array
from fractions import Fraction
from typing import NamedTuple, Optional, Sequence

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
from .runtime.ir import ProgramIR, Splices
from .runtime.exec import (
    Summary, TestCase, baseline_limits, run_suite, compile_program,
    prepare, run_patch, DEFAULT_TIMEOUT_FACTOR,
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


class MutationDescriptor(NamedTuple):
    """One replacement: put ``donor``, node ``donor_id`` of the program (-1
    for an operator), where node ``target`` stood."""
    target: int
    donor: AstNode
    donor_id: int
    donor_label: str


class VariantRecord(NamedTuple):
    """One row of the variant log."""
    target: int
    donor_label: str
    classification: str
    cost: Optional[int]
    correctness: Optional[Fraction]
    reduced: bool
    direct_improvement: bool


class AnalysisResult(NamedTuple):
    scores: dict[int, NodeScore]
    variants: tuple[VariantRecord, ...]
    cost: AnalysisCost
    original: Summary


class Baseline(NamedTuple):
    """One problem's original and its runs on its suite."""
    program: Program
    suite: Sequence[TestCase]
    ir: ProgramIR
    limits: list[int]                   # per test: the variants' step limit
    original: Summary
    counts: tuple[array, ...]           # per test: entries of each IR row
    reach: list[tuple[int, ...]]        # per node: the tests that reach it


def baseline(program: Program, suite: Sequence[TestCase],
             factor: float = DEFAULT_TIMEOUT_FACTOR) -> Baseline:
    """Lower ``program`` once and run each test once, counted. Raises
    BaselineDiverged unless it completes and passes every test."""
    ir = compile_program(program)
    counts = tuple(array("q", [0]) * len(ir.kind) for _ in suite)
    limits, original = baseline_limits(ir, suite, factor, counts)
    # The counts come from runs under BOOTSTRAP_LIMIT, not under ``limits``.
    # They are the counts under ``limits`` only because the original
    # completes under both: with a factor >= 1, each limit is at least its
    # test's steps. A node outside any statement is reached by every test.
    every = tuple(range(len(suite)))
    reach = [tuple(k for k in every if counts[k][s]) if s >= 0 else every
             for s in map(program.enclosing_statement,
                          range(len(program.nodes)))]
    return Baseline(program, suite, ir, limits, original, counts, reach)


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

def _structures(program: Program) -> list[int]:
    """For each expression and each statement but a Block, the id of the
    first node, in id order, with an equal structure; -1 for every other
    node. Blocks are never donors."""
    nodes = program.nodes
    structure = [-1] * len(nodes)
    by_hash: dict[int, list[int]] = {}
    for i, n in enumerate(nodes):
        if CATEGORY[n.kind] not in (CAT_EXPRESSION, CAT_STATEMENT) \
                or n.kind == KIND_BLOCK:
            continue
        bucket = by_hash.setdefault(n.structural_hash(), [])
        for j in bucket:
            if structurally_equal(n, nodes[j]):
                structure[i] = j
                break
        else:
            bucket.append(i)
            structure[i] = i
    return structure


def _replacements(program, target_id, exprs, stmts, labels, structure):
    target = program.nodes[target_id]
    category = CATEGORY[target.kind]
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
        return [MutationDescriptor(target_id, AstNode(KIND_OPERATOR, op=sym),
                                   -1, sym)
                for sym in symbols if sym != target.op]
    if category == CAT_EXPRESSION:
        pool = exprs
    elif category == CAT_STATEMENT and target.kind != KIND_BLOCK:
        pool = stmts
    else:
        # Function bodies and declarations have no donor pool; their value
        # comes from gap filling.
        return []
    # every donor is the first of its structure, so it equals the target
    # only when it is the target's first
    same = structure[target_id]
    nodes = program.nodes
    return [MutationDescriptor(target_id, nodes[d], d, labels[d])
            for d in pool if d != same]


def exhaustive_descriptors(program: Program) -> list[MutationDescriptor]:
    """Every replacement of every node, in node order. The donors are the
    first occurrence, in id order, of each distinct structure."""
    structure = _structures(program)
    firsts = [i for i, s in enumerate(structure) if s == i]
    exprs = [i for i in firsts
             if CATEGORY[program.nodes[i].kind] == CAT_EXPRESSION]
    stmts = [i for i in firsts
             if CATEGORY[program.nodes[i].kind] == CAT_STATEMENT]
    labels = {i: render_snippet(program.nodes[i]) for i in firsts}
    return [d for i in range(len(program.nodes))
            for d in _replacements(program, i, exprs, stmts, labels,
                                   structure)]


# variant evaluation -------------------------------------------------------

def _evaluate_variant(mutated: Program, base: Baseline) -> Optional[Summary]:
    """Check, lower and run one variant on the whole suite; None when the
    variant does not compile."""
    if static_check(mutated):
        return None
    return run_suite(compile_program(mutated), base.suite, base.limits)


# deletion -----------------------------------------------------------------

def deletion_analysis(base: Baseline) -> AnalysisResult:
    program, original = base.program, base.original
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
        outcome = _evaluate_variant(mutated, base)
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

def exhaustive_analysis(base: Baseline, include_correct: bool = False
                        ) -> AnalysisResult:
    program, ir, original = base.program, base.ir, base.original
    prepared = prepare(ir, base.suite, base.limits)

    descriptors = exhaustive_descriptors(program)
    holes = Holes(program)
    splices = Splices(ir, holes)
    n_compiled = [0] * len(program.nodes)
    n_reduced = [0] * len(program.nodes)
    variants: list[VariantRecord] = []
    for target, donor, donor_id, label in descriptors:
        accepted, slots = holes.fit(target, donor, donor_id)
        if accepted is False:
            outcome = None
        elif accepted:
            outcome = run_patch(prepared, splices.patch(target, donor,
                                                        donor_id, slots),
                                base.reach[target])
        else:
            outcome = _evaluate_variant(replace_node(program, target, donor),
                                        base)
        klass = classify_variant(original, outcome)
        cost = correctness = None
        reduced = direct = False
        if outcome is not None:
            cost, correctness = outcome.total_cost, outcome.correctness
            cheaper = cost < original.total_cost
            direct = cheaper and correctness == original.correctness
            reduced = cheaper and (include_correct or not direct)
            n_compiled[target] += 1
            n_reduced[target] += reduced
        variants.append(VariantRecord(target, label, klass, cost,
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

def combined_analysis(base: Baseline, include_correct: bool = False
                      ) -> tuple[AnalysisResult, AnalysisResult,
                                 AnalysisResult]:
    """Returns (combined, exhaustive, deletion); the latter two are the
    ingredient runs, exposed so reports need not recompute them."""
    exhaustive = exhaustive_analysis(base, include_correct)
    deletion = deletion_analysis(base)
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

