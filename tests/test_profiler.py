"""Profiling tests against hand-computed statement-entry counts.

Oracle for the double-loop bubble sort (outer counter h) on the standard
30-test suite: the body block and the h-loop run once per test (30 each);
the i-loop runs twice per test (60); the j-loop runs 2*size times per test
(2 * 330 summed over sizes 1..10, orderings x3); the comparison runs
2*size*(size-1) times per test (1980 total). Swap-statement counts depend
on the drawn inputs, so only their relations are asserted.
"""

from fractions import Fraction

import pytest

from perfloc.lang.ast import STATEMENT_KINDS
from perfloc.lang.parser import parse_program
from perfloc.profiler import profile, profile_cost, profile_scores
from perfloc.runtime.exec import BaselineDiverged
from perfloc.runtime.exec import TestCase as Case

from conftest import corpus_source


def statement_ids(program):
    return [i for i, node in enumerate(program.nodes)
            if node.kind in STATEMENT_KINDS]


@pytest.fixture(scope="module")
def bl_profile(bubble_loops):
    return bubble_loops.original, profile(bubble_loops.original,
                                          bubble_loops.suite)


def test_statement_counts_match_hand_trace(bl_profile):
    program, report = bl_profile
    assert report.counts[1] == 30    # body block, once per test
    assert report.counts[2] == 30    # outer h loop statement
    assert report.counts[5] == 60    # i loop: twice per test
    assert report.counts[11] == 330  # j loop: 2 * sum of sizes
    assert report.counts[17] == 1980  # comparison: 2 * sum size*(size-1)
    assert statement_ids(program) == [1, 2, 5, 11, 17, 22, 23, 24]
    # the three swap statements always run in lockstep
    assert report.counts[22] == report.counts[23] == report.counts[24]
    assert report.total == sum(report.counts[i]
                               for i in statement_ids(program))


def test_single_reverse_run_counts():
    program = parse_program(corpus_source("bubble_loops"))
    arr = tuple(range(9, -1, -1))
    report = profile(program, [Case(arr, (10,), tuple(range(10)))])
    assert report.counts[1] == 1
    assert report.counts[2] == 1
    assert report.counts[5] == 2
    assert report.counts[11] == 20
    assert report.counts[17] == 180
    # a reverse run swaps once per comparison pair in the first pass: 45
    assert report.counts[22] == 45
    assert report.total == 1 + 1 + 2 + 20 + 180 + 3 * 45


def test_scores_are_counts_over_total(bl_profile):
    program, report = bl_profile
    scores = profile_scores(program, report)
    stmt_share = sum(scores[i].value for i in statement_ids(program))
    assert stmt_share == 1
    assert scores[11].value == Fraction(330, report.total)
    for s in scores.values():
        assert 0 <= s.value <= 1
        assert s.source == "Profiler"


def test_expressions_inherit_their_statement(bl_profile):
    program, report = bl_profile
    scores = profile_scores(program, report)
    # h < 2 sits in the h-loop header; a[j] > a[j+1] in the comparison
    assert scores[4].value == scores[2].value
    assert scores[21].value == scores[17].value
    assert report.counts[4] == report.counts[2]
    # the function declaration takes its body's count and share
    assert report.counts[0] == report.counts[1] == 30
    assert scores[0].value == scores[1].value


def test_profiling_costs_one_evaluation():
    cost = profile_cost()
    assert cost.evaluations == 1
    assert (cost.variants_generated, cost.compiled, cost.executed) == (0, 0, 0)


def test_profile_rejects_incorrect_programs():
    program = parse_program("void sort(int[] a, int length) { }")
    with pytest.raises(BaselineDiverged):
        profile(program, [Case((2, 1), (2,), (1, 2))])


def test_profile_rejects_noncompiling_programs():
    program = parse_program("void sort(int[] a, int length) { a[0] = x; }")
    with pytest.raises(ValueError):
        profile(program, [Case((1,), (1,), (1,))])
