"""Ranking, rank-error, accuracy-band, bootstrap, and summary-table tests."""

import random
from fractions import Fraction

import pytest
from hypothesis import given, settings, strategies as st

from perfloc.evaluation import (
    ACCURACY_BANDS, EmptyAnnotation, EmptyInput, RankErrorReport, Ranking,
    UnknownNode, _quantile, accuracy_band, accuracy_of, accuracy_table,
    bootstrap_diff, fractional_rank, ideal_rank, percent_rank_error,
    summary_table,
)
from perfloc.scores import NodeScore


def scores_of(values: dict[int, object]) -> dict[int, NodeScore]:
    return {nid: NodeScore(node=nid, value=Fraction(v), n_reduced=0,
                           n_compiled=0, source="T")
            for nid, v in values.items()}


# -- fractional ranking -------------------------------------------------

def test_two_way_tie_at_the_top():
    ranking = fractional_rank(scores_of({0: 5, 1: 5}))
    assert ranking.entries == {0: Fraction(3, 2), 1: Fraction(3, 2)}
    assert ranking.n_total == 2


def test_strictly_decreasing_scores_rank_one_to_n():
    ranking = fractional_rank(scores_of({i: 100 - i for i in range(7)}))
    assert [ranking.entries[i] for i in range(7)] == [
        Fraction(k) for k in range(1, 8)]


def test_all_equal_scores_share_the_middle_rank():
    ranking = fractional_rank(scores_of({i: 3 for i in range(5)}))
    assert set(ranking.entries.values()) == {Fraction(3)}


def test_higher_value_means_better_rank():
    ranking = fractional_rank(scores_of({7: 1, 8: 2, 9: 0}))
    assert ranking.entries[8] == 1
    assert ranking.entries[7] == 2
    assert ranking.entries[9] == 3


@given(st.dictionaries(st.integers(0, 40),
                       st.fractions(min_value=0, max_value=1),
                       min_size=1, max_size=25))
@settings(max_examples=80, deadline=None)
def test_rank_sum_conservation(values):
    ranking = fractional_rank(scores_of(values))
    n = ranking.n_total
    assert sum(ranking.entries.values()) == Fraction(n * (n + 1), 2)


# -- ideal rank and rank error ------------------------------------------

def test_ideal_rank_examples():
    assert ideal_rank(1) == 1
    assert ideal_rank(5) == 3
    assert ideal_rank(8) == Fraction(9, 2)
    with pytest.raises(EmptyAnnotation):
        ideal_rank(0)


def test_rank_error_of_the_paper_scale_example():
    # 8 improvement nodes in a 72-node program, one of them ranked 40.5
    entries = {0: Fraction(81, 2)}
    entries.update({i: Fraction(i) for i in range(1, 8)})
    ranking = Ranking(entries=entries, n_total=72)
    report = percent_rank_error(ranking, range(8), "T")
    errors = {e.node: e.error for e in report.per_node}
    assert errors[0] == Fraction(1, 2)
    assert all(e.r_ideal == Fraction(9, 2) for e in report.per_node)


def test_perfect_ranking_has_zero_error():
    k, n = 4, 30
    ranking = Ranking(entries={i: ideal_rank(k) for i in range(k)}, n_total=n)
    report = percent_rank_error(ranking, range(k), "T")
    assert all(e.error == 0 for e in report.per_node)
    assert all(e.upper_half for e in report.per_node)


@pytest.mark.parametrize("n", [2, 10, 72])
def test_worst_case_single_node_error(n):
    ranking = Ranking(entries={0: Fraction(n)}, n_total=n)
    report = percent_rank_error(ranking, [0], "T")
    assert report.per_node[0].error == Fraction(n - 1, n)
    if n > 2:  # at n=2, dead last sits exactly on the 50% line
        assert not report.per_node[0].upper_half


def test_error_negates_when_actual_and_ideal_swap():
    n = 20
    # 5 improvement nodes (ideal 3), the probe actually at 10: error 7/20
    high = Ranking(entries={i: Fraction(3) for i in range(4)} | {4: Fraction(10)},
                   n_total=n)
    e1 = percent_rank_error(high, range(5), "T").per_node[-1]
    # 19 improvement nodes (ideal 10), the probe actually at 3: error -7/20
    low = Ranking(entries={i: Fraction(10) for i in range(18)} | {18: Fraction(3)},
                  n_total=n)
    e2 = percent_rank_error(low, range(19), "T").per_node[-1]
    assert e1.error == Fraction(7, 20)
    assert e2.error == -e1.error


def test_unknown_node_raises():
    ranking = fractional_rank(scores_of({0: 1, 1: 0}))
    with pytest.raises(UnknownNode):
        percent_rank_error(ranking, [5], "T")
    with pytest.raises(EmptyAnnotation):
        percent_rank_error(ranking, [], "T")


@given(st.integers(2, 60), st.data())
@settings(max_examples=60, deadline=None)
def test_raising_a_score_never_worsens_its_error(n, data):
    values = {i: data.draw(st.fractions(min_value=0, max_value=1),
                           label=f"score{i}") for i in range(n)}
    target = data.draw(st.integers(0, n - 1), label="target")
    bump = data.draw(st.fractions(min_value=0, max_value=2), label="bump")
    before = percent_rank_error(fractional_rank(scores_of(values)),
                                [target], "T").per_node[0].error
    values[target] += bump
    after = percent_rank_error(fractional_rank(scores_of(values)),
                               [target], "T").per_node[0].error
    assert after <= before


# -- accuracy percentiles and bands -------------------------------------

def test_accuracy_of_rank_one_is_100():
    assert accuracy_of(Fraction(1), 100) == 100
    assert accuracy_band(accuracy_of(Fraction(1), 100)) == "99-100"


def test_accuracy_upper_half_boundary():
    # N=10: rank 6 sits exactly at the 50% line and still counts as upper
    assert accuracy_of(Fraction(6), 10) == 50
    ranking = Ranking(entries={0: Fraction(6)}, n_total=10)
    e = percent_rank_error(ranking, [0], "T").per_node[0]
    assert e.upper_half
    worse = Ranking(entries={0: Fraction(13, 2)}, n_total=10)
    assert not percent_rank_error(worse, [0], "T").per_node[0].upper_half


@pytest.mark.parametrize("acc,band", [
    (100, "99-100"), (99, "99-100"), (Fraction(989, 10), "90-99"),
    (90, "90-99"), (80, "80-90"), (50, "50-60"), (Fraction(4999, 100),
                                                  "40-50"),
    (10, "10-20"), (Fraction(999, 100), "0-10"), (0, "0-10"),
])
def test_band_edges(acc, band):
    assert accuracy_band(Fraction(acc)) == band


@given(st.integers(1, 400), st.integers(1, 400))
@settings(max_examples=100, deadline=None)
def test_upper_half_iff_band_at_least_50(numer, n):
    rank = Fraction(numer)
    if rank > n:
        rank = Fraction(n)
    ranking = Ranking(entries={0: rank}, n_total=n)
    e = percent_rank_error(ranking, [0], "T").per_node[0]
    in_upper_bands = accuracy_band(e.accuracy) in ACCURACY_BANDS[:6]
    assert e.upper_half == in_upper_bands


def test_accuracy_table_counts_nodes_per_band():
    def report(tech, ranks, n):
        ranking = Ranking(entries={i: Fraction(r) for i, r in
                                   enumerate(ranks)}, n_total=n)
        return percent_rank_error(ranking, range(len(ranks)), tech)

    table = accuracy_table({
        "A": [report("A", [1, 2, 50], 100)],
        "B": [report("B", [100], 100)],
    })
    assert table["99-100"]["A"] == 2
    assert table["50-60"]["A"] == 1
    assert table["0-10"]["B"] == 1
    assert sum(table[band]["A"] for band in ACCURACY_BANDS) == 3
    assert sum(table[band]["B"] for band in ACCURACY_BANDS) == 1


# -- bootstrap ----------------------------------------------------------

def test_bootstrap_self_comparison_is_exactly_zero():
    accs = [Fraction(x) for x in (10, 40, 90, 55)]
    result = bootstrap_diff(accs, accs, seed=1)
    assert result.mean_diff == 0
    assert (result.ci_low, result.ci_high) == (0, 0)


def test_bootstrap_constant_difference():
    a = [Fraction(60), Fraction(30), Fraction(80)]
    b = [x - 5 for x in a]
    result = bootstrap_diff(a, b, seed=3)
    assert result.mean_diff == 5
    assert result.ci_low == result.ci_high == 5


def test_bootstrap_is_seed_deterministic():
    a = [Fraction(x) for x in (90, 10, 70, 30, 50)]
    b = [Fraction(x) for x in (20, 80, 60, 40, 55)]
    r1 = bootstrap_diff(a, b, seed=42)
    r2 = bootstrap_diff(a, b, seed=42)
    assert r1 == r2
    r3 = bootstrap_diff(a, b, seed=43)
    assert r3 != r1
    assert r1.seed == 42 and r3.seed == 43


def test_bootstrap_interval_brackets_the_mean():
    a = [Fraction(x) for x in (90, 10, 70, 30)]
    b = [Fraction(x) for x in (20, 80, 60, 40)]
    r = bootstrap_diff(a, b, seed=9)
    assert r.ci_low <= r.mean_diff <= r.ci_high
    assert r.resamples == 100 and r.sample_size == 100


def test_bootstrap_quantile_override_widens_or_narrows():
    a = [Fraction(x) for x in (90, 10, 70, 30, 20, 60)]
    b = [Fraction(x) for x in (20, 80, 60, 40, 70, 10)]
    narrow = bootstrap_diff(a, b, seed=5,
                            quantiles=(Fraction(2, 5), Fraction(3, 5)))
    wide = bootstrap_diff(a, b, seed=5,
                          quantiles=(Fraction(1, 100), Fraction(99, 100)))
    assert wide.ci_low <= narrow.ci_low
    assert narrow.ci_high <= wide.ci_high


def bootstrap_by_fractions(accs_a, accs_b, seed, inner, outer, quantiles):
    """The bootstrap summed one ``Fraction`` at a time: the oracle for the
    integer sums of ``bootstrap_diff``, drawing the same indices."""
    diffs = [a - b for a, b in zip(accs_a, accs_b)]
    rng = random.Random(seed)
    last = len(diffs) - 1
    means = []
    for _ in range(outer):
        total = Fraction(0)
        for _ in range(inner):
            total += diffs[rng.randint(0, last)]
        means.append(total / inner)
    mean_diff = sum(means, Fraction(0)) / outer
    means.sort()
    lo_q, hi_q = quantiles
    return (mean_diff, _quantile(means, Fraction(lo_q)),
            _quantile(means, Fraction(hi_q)))


paired_accuracies = st.integers(1, 12).flatmap(lambda n: st.tuples(
    *[st.lists(st.fractions(min_value=0, max_value=100, max_denominator=60),
               min_size=n, max_size=n)] * 2))


@given(paired_accuracies, st.integers(0, 2**32), st.integers(1, 40),
       st.integers(1, 40),
       st.tuples(st.fractions(0, 1, max_denominator=200),
                 st.fractions(0, 1, max_denominator=200)))
@settings(max_examples=60, deadline=None, derandomize=True)
def test_integer_bootstrap_equals_the_fraction_sums(pairs, seed, inner,
                                                    outer, quantiles):
    accs_a, accs_b = pairs
    result = bootstrap_diff(accs_a, accs_b, seed, inner, outer, quantiles)
    assert (result.mean_diff, result.ci_low, result.ci_high) == \
        bootstrap_by_fractions(accs_a, accs_b, seed, inner, outer, quantiles)
    assert all(type(x) is Fraction
               for x in (result.mean_diff, result.ci_low, result.ci_high))


def test_bootstrap_rejects_empty_and_mismatched_input():
    with pytest.raises(EmptyInput):
        bootstrap_diff([], [], seed=0)
    with pytest.raises(EmptyInput):
        bootstrap_diff([Fraction(1)], [], seed=0)


# -- summary table ------------------------------------------------------

def make_report(tech: str, ranks: list, n: int) -> RankErrorReport:
    ranking = Ranking(entries={i: Fraction(r) for i, r in enumerate(ranks)},
                      n_total=n)
    return percent_rank_error(ranking, range(len(ranks)), tech)


def test_dominant_technique_wins_every_row():
    per_problem = {
        "p1": {"A": make_report("A", [1, 2], 10),
               "B": make_report("B", [9, 10], 10)},
        "p2": {"A": make_report("A", [1], 8),
               "B": make_report("B", [8], 8)},
    }
    table = summary_table(per_problem)
    assert table["most_accurate_nodes"] == {"A": 3, "B": 0}
    assert table["least_accurate_nodes"] == {"A": 0, "B": 3}
    assert table["upper_half_nodes"] == {"A": 3, "B": 0}
    assert table["lower_half_nodes"] == {"A": 0, "B": 3}
    assert table["problems_all_upper"] == {"A": 2, "B": 0}
    assert table["problems_majority_lower"] == {"A": 0, "B": 2}
    assert table["problems_best_technique"] == {"A": 2, "B": 0}


def test_tied_techniques_are_both_credited():
    per_problem = {
        "p": {"A": make_report("A", [2], 10),
              "B": make_report("B", [2], 10)},
    }
    table = summary_table(per_problem)
    assert table["most_accurate_nodes"] == {"A": 1, "B": 1}
    assert table["least_accurate_nodes"] == {"A": 1, "B": 1}


def test_majority_rows_need_a_strict_majority():
    # 2 of 4 nodes in the lower half is not a majority
    half = make_report("A", [1, 2, 9, 10], 10)
    table = summary_table({"p": {"A": half}})
    assert table["problems_majority_lower"]["A"] == 0
    assert table["problems_all_upper"]["A"] == 0
    # 3 of 4 is
    most = make_report("B", [1, 9, 10, 10], 10)
    table = summary_table({"p": {"B": most}})
    assert table["problems_majority_lower"]["B"] == 1


def test_summary_has_the_seven_rows():
    table = summary_table({"p": {"A": make_report("A", [1], 4)}})
    assert list(table) == [
        "most_accurate_nodes", "least_accurate_nodes", "upper_half_nodes",
        "lower_half_nodes", "problems_all_upper", "problems_majority_lower",
        "problems_best_technique"]
