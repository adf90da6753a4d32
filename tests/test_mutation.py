"""Variant generation, classification, and the three mutation-based analyses.

The double-loop bubble sort (58 nodes) is the workhorse: its deletion costs
and replacement counts were derived once by hand/off-line recomputation and
frozen here. Its original cost on the standard suite is 38560 steps.
"""

from fractions import Fraction

import pytest

from perfloc.lang.ast import CATEGORY, CAT_STATEMENT, structurally_equal
from perfloc.lang.edit import replace_node
from perfloc.lang.parser import parse_program
from perfloc.mutation import (
    ALL_CLASSES, CLASS_DEGRADED, CLASS_IDENTICAL, CLASS_INFINITE_LOOP,
    CLASS_LESS_EXPENSIVE, CLASS_MORE_EXPENSIVE, CLASS_NOT_COMPILABLE,
    CLASS_RUNTIME_ERROR, DELETE_LABEL, classify_variant, combined_analysis,
    deletion_analysis, exhaustive_analysis,
    exhaustive_descriptors,
)
from perfloc.runtime.exec import TestCase as Case
from perfloc.runtime.exec import (
    Summary, baseline_limits, compile_program, run_suite,
)

from conftest import corpus_source
from tree_helpers import subtree

ORIGINAL_COST = 38560


@pytest.fixture(scope="module")
def bl(bubble_loops):
    return bubble_loops


@pytest.fixture(scope="module")
def bl_deletion(bl):
    return deletion_analysis(bl.original, bl.suite)


@pytest.fixture(scope="module")
def bl_exhaustive(bl):
    return exhaustive_analysis(bl.original, bl.suite)


# -- variant generation -------------------------------------------------

def replacements(program, target):
    return [d for d in exhaustive_descriptors(program) if d.target == target]


def test_operator_targets_take_every_other_operator(bl):
    reps = replacements(bl.original, 6)  # the < in h < 2
    labels = {r.donor_label for r in reps}
    assert labels == {"+", "-", "*", "/", "%", "<=", ">", ">=", "==", "!=",
                      "&&", "||"}
    assert len(reps) == 12


def test_expression_donors_are_deduplicated_subtrees(bl):
    reps = replacements(bl.original, 8)  # the literal 2
    labels = [r.donor_label for r in reps]
    assert len(labels) == len(set(labels)) == 16
    # type-blind and cross-scope: j and a[j] are offered for a literal
    for expected in ("j", "a[j]", "0", "1", "length - 1", "h < 2"):
        assert expected in labels
    assert "2" not in labels  # never the target's own structure
    for r in reps:
        assert not structurally_equal(r.donor, bl.original.nodes[8])


def test_statement_donors_exclude_blocks(bl):
    for target in (2, 17):  # the outer loop and the comparison
        reps = replacements(bl.original, target)
        assert len(reps) == 6
        assert all(r.donor.kind != "Block" for r in reps)
        assert all(CATEGORY[r.donor.kind] == CAT_STATEMENT for r in reps)


def test_blocks_and_declarations_get_no_donors(bl):
    assert replacements(bl.original, 0) == []
    assert replacements(bl.original, 1) == []


def test_duplicate_structures_collapse_to_one_donor():
    p = parse_program(
        "void sort(int[] a, int length) { a[0] = 1; a[1] = 1; a[0] = 2; }")
    literal_two = next(i for i, n in enumerate(p.nodes)
                       if n.kind == "IntLiteral" and n.value == 2)
    labels = [r.donor_label
              for r in replacements(p, literal_two)]
    assert labels.count("1") == 1


def test_generation_is_deterministic(bl):
    a = replacements(bl.original, 8)
    b = replacements(bl.original, 8)
    assert [r.donor_label for r in a] == [r.donor_label for r in b]


# -- classification -----------------------------------------------------

def summary(total, correctness, timeout=False, error=False):
    return Summary(total, Fraction(correctness), timeout, error)


ORIGINAL = summary(1000, 1)


@pytest.mark.parametrize("outcome,expected", [
    (None, CLASS_NOT_COMPILABLE),
    (summary(500, 1, timeout=True), CLASS_INFINITE_LOOP),
    (summary(2000, 0, timeout=True, error=True), CLASS_INFINITE_LOOP),
    (summary(400, 0, error=True), CLASS_RUNTIME_ERROR),
    (summary(900, Fraction(1, 2)), CLASS_LESS_EXPENSIVE),
    (summary(900, 1), CLASS_LESS_EXPENSIVE),
    (summary(1000, Fraction(1, 2)), CLASS_DEGRADED),
    (summary(1500, Fraction(1, 2)), CLASS_DEGRADED),
    (summary(1500, 1), CLASS_MORE_EXPENSIVE),
    (summary(1000, 1), CLASS_IDENTICAL),
])
def test_classification_precedence(outcome, expected):
    assert classify_variant(ORIGINAL, outcome) == expected


def test_class_constants_are_distinct():
    assert len(set(ALL_CLASSES)) == 7


# -- deletion analysis --------------------------------------------------

# statement id -> steps left after deleting it, from the frozen run
DELETION_COSTS = {1: 30, 2: 30, 5: 360, 11: 1650, 17: 13860,
                  23: 34540, 24: 36377}


def test_deletion_savings_match_frozen_costs(bl_deletion):
    by_target = {v.target: v for v in bl_deletion.variants}
    assert set(by_target) == {1, 2, 5, 11, 17, 22, 23, 24}
    for target, cost in DELETION_COSTS.items():
        v = by_target[target]
        assert v.cost == cost
        assert v.classification == CLASS_LESS_EXPENSIVE
        assert v.donor_label == DELETE_LABEL
        expected = Fraction(ORIGINAL_COST - cost, ORIGINAL_COST)
        assert bl_deletion.scores[target].value == expected


def test_deleting_the_declaration_is_not_compilable(bl_deletion):
    v = next(x for x in bl_deletion.variants if x.target == 22)
    assert v.classification == CLASS_NOT_COMPILABLE
    assert v.cost is None and v.correctness is None


def test_deletion_savings_spread_over_subtrees(bl_deletion):
    scores = bl_deletion.scores
    # loop headers share their loop's savings
    assert scores[3].value == scores[2].value
    assert scores[4].value == scores[2].value
    # the declaration's deletion does not compile, so its subtree keeps the
    # enclosing if's value
    assert scores[22].value == scores[17].value
    assert scores[31].value == scores[17].value
    # deeper statements overwrite their ancestors' assignment
    assert scores[23].value == Fraction(ORIGINAL_COST - 34540, ORIGINAL_COST)
    # the function declaration takes the body's value
    assert scores[0].value == scores[1].value


def test_deletion_values_never_negative():
    # force a deletion that removes the loop's exit assignment: the variant
    # times out, costs more than the original, and still scores 0, not < 0
    text = ("void sort(int[] a, int length) {"
            " int go = 1;"
            " while (go == 1) { a[0] = 7; go = 0; } }")
    program = parse_program(text)
    suite = [Case((1,), (1,), (7,))]
    result = deletion_analysis(program, suite)
    assign = next(i for i, n in enumerate(program.nodes)
                  if n.kind == "Assign" and "go = 0"
                  in __import__("perfloc.lang.printer",
                                fromlist=["render_snippet"]
                                ).render_snippet(n))
    v = next(x for x in result.variants if x.target == assign)
    assert v.classification == CLASS_INFINITE_LOOP
    assert result.scores[assign].value == 0


def test_deletion_cost_accounting(bl_deletion):
    cost = bl_deletion.cost
    assert cost.variants_generated == 8   # one per statement
    assert cost.executed == 7             # the non-compilable one is free
    assert cost.evaluations == cost.executed


# -- exhaustive analysis ------------------------------------------------

FROZEN_NODE_VALUES = {
    2: Fraction(1, 2),   # outer loop statement
    3: Fraction(3, 4),   # its init literal 0
    5: Fraction(1, 1),   # inner loop statement
    6: Fraction(3, 5),   # the < operator
    7: Fraction(3, 5),   # the counter read h
    8: Fraction(2, 5),   # the bound literal 2
    0: Fraction(0),      # function declaration: nothing to try
}


def test_exhaustive_frozen_values(bl_exhaustive):
    for node_id, value in FROZEN_NODE_VALUES.items():
        assert bl_exhaustive.scores[node_id].value == value, node_id


def test_exhaustive_bookkeeping(bl_exhaustive):
    cost = bl_exhaustive.cost
    assert cost.variants_generated == 794
    assert cost.compiled == 318
    assert cost.executed == 318
    assert len(bl_exhaustive.variants) == 794


def test_quotient_integrity(bl_exhaustive):
    for s in bl_exhaustive.scores.values():
        assert 0 <= s.value <= 1
        assert s.value * s.n_compiled == s.n_reduced
        if s.n_compiled == 0:
            assert s.value == 0


def direct_improvements(result):
    return [v for v in result.variants if v.direct_improvement]


def test_direct_improvements_are_logged_not_counted(bl_exhaustive):
    directs = direct_improvements(bl_exhaustive)
    found = {(v.target, v.donor_label) for v in directs}
    assert (3, "1") in found      # start h at 1: one outer pass
    assert (8, "1") in found      # bound h by 1: same effect
    assert (14, "length - 1") in found  # stop the i scan one short
    assert len(directs) == 7
    for v in directs:
        assert v.correctness == 1
        assert v.cost < ORIGINAL_COST
        assert not v.reduced


def test_hint_include_correct_flips_the_numerator(bl):
    with_hint = exhaustive_analysis(bl.original, bl.suite,
                                    include_correct=True)
    assert with_hint.scores[3].value == 1          # 4 of 4 now count
    assert with_hint.scores[8].value == Fraction(3, 5)
    for v in direct_improvements(with_hint):
        assert v.reduced


def test_self_replacement_classifies_identical(bl):
    ir = compile_program(bl.original)
    limits, original = baseline_limits(ir, bl.suite)
    for node_id in (2, 6, 8, 17, 26):
        variant = replace_node(bl.original, node_id,
                               subtree(bl.original, node_id))
        outcome = run_suite(compile_program(variant), bl.suite, limits)
        assert classify_variant(original, outcome) == CLASS_IDENTICAL


def test_class_counts_partition_the_variants(bl_exhaustive):
    classes = [v.classification for v in bl_exhaustive.variants]
    assert len(classes) == bl_exhaustive.cost.variants_generated
    assert set(classes) <= set(ALL_CLASSES)
    n_compilable = sum(1 for c in classes if c != CLASS_NOT_COMPILABLE)
    assert n_compilable == bl_exhaustive.cost.compiled


# -- combined analysis --------------------------------------------------

def test_combined_gap_fills_with_deletion(bl):
    combined, exhaustive, deletion = combined_analysis(bl.original, bl.suite)
    for node_id, score in combined.scores.items():
        if exhaustive.scores[node_id].n_compiled == 0:
            assert score.gap_filled
            assert score.value == deletion.scores[node_id].value
        else:
            assert not score.gap_filled
            assert score.value == exhaustive.scores[node_id].value
    # the headline gap-fill: nothing compiles in place of the whole
    # condition, so it inherits the loop's deletion savings
    assert combined.scores[4].gap_filled
    assert combined.scores[4].value == deletion.scores[2].value
    assert combined.cost.variants_generated == 794 + 8
    assert combined.cost.executed == 318 + 7


def test_combined_variant_log_holds_both_kinds(bl):
    combined, _, _ = combined_analysis(bl.original, bl.suite)
    labels = {v.donor_label for v in combined.variants}
    assert DELETE_LABEL in labels
    assert len(combined.variants) == 802
