"""Ranking of node scores against known improvement locations.

Pipeline: scores -> fractional ranking (descending, ties share the mean of
their occupied positions) -> per-improvement-node percentile rank error
against the idealised ranking (all k improvement nodes tied at the top, so
each has ideal rank (k+1)/2) -> accuracy percentile 100*(1 - (R-1)/N),
bucketed into decile bands, plus paired bootstrap comparisons between
techniques and a corpus-level summary.

Everything is exact rational arithmetic end to end; the only randomness is
the seeded bootstrap resampling.
"""

from __future__ import annotations

import math
import random
from dataclasses import dataclass
from fractions import Fraction
from typing import Iterable, Mapping, Sequence

from .scores import NodeScore


class EmptyAnnotation(ValueError):
    pass


class EmptyInput(ValueError):
    pass


class UnknownNode(KeyError):
    pass


@dataclass(frozen=True)
class Ranking:
    entries: dict[int, Fraction]      # node id -> rank, 1 = best
    n_total: int


@dataclass(frozen=True)
class RankError:
    node: int
    r_actual: Fraction
    r_ideal: Fraction
    error: Fraction                   # (r_actual - r_ideal) / n_total
    accuracy: Fraction                # percentile, 100 = top rank
    upper_half: bool


@dataclass(frozen=True)
class RankErrorReport:
    technique: str
    n_total: int
    per_node: tuple[RankError, ...]


@dataclass(frozen=True)
class BootstrapResult:
    mean_diff: Fraction
    ci_low: Fraction
    ci_high: Fraction
    resamples: int
    sample_size: int
    seed: int


def fractional_rank(scores: Mapping[int, NodeScore]) -> Ranking:
    """Rank nodes by score, best first; tied scores all receive the mean of
    the positions they jointly occupy, so ranks always sum to N(N+1)/2."""
    by_value: dict[Fraction, list[int]] = {}
    for node_id, score in scores.items():
        by_value.setdefault(score.value, []).append(node_id)
    entries: dict[int, Fraction] = {}
    position = 0
    for value in sorted(by_value, reverse=True):
        group = by_value[value]
        rank = position + Fraction(len(group) + 1, 2)
        for node_id in group:
            entries[node_id] = rank
        position += len(group)
    return Ranking(entries, position)


def ideal_rank(n_improvement: int) -> Fraction:
    """All improvement nodes share the top positions 1..k, tied."""
    if n_improvement < 1:
        raise EmptyAnnotation("no improvement nodes")
    return Fraction(n_improvement + 1, 2)


def accuracy_of(rank: Fraction, n_total: int) -> Fraction:
    return 100 * (1 - Fraction(rank - 1, n_total))


def percent_rank_error(ranking: Ranking, improvement_nodes: Iterable[int],
                       technique: str) -> RankErrorReport:
    nodes = sorted(set(improvement_nodes))
    if not nodes:
        raise EmptyAnnotation("no improvement nodes")
    r_ideal = ideal_rank(len(nodes))
    n = ranking.n_total
    rows = []
    for node in nodes:
        if node not in ranking.entries:
            raise UnknownNode(node)
        r = ranking.entries[node]
        acc = accuracy_of(r, n)
        rows.append(RankError(node=node, r_actual=r, r_ideal=r_ideal,
                              error=Fraction(r - r_ideal, n), accuracy=acc,
                              upper_half=acc >= 50))
    return RankErrorReport(technique, n, tuple(rows))


# accuracy bands -----------------------------------------------------------

ACCURACY_BANDS = ("99-100", "90-99", "80-90", "70-80", "60-70", "50-60",
                  "40-50", "30-40", "20-30", "10-20", "0-10")

_BAND_FLOORS = (99, 90, 80, 70, 60, 50, 40, 30, 20, 10, 0)


def accuracy_band(accuracy: Fraction) -> str:
    for label, floor in zip(ACCURACY_BANDS, _BAND_FLOORS):
        if accuracy >= floor:
            return label
    return ACCURACY_BANDS[-1]


def accuracy_table(reports_by_technique: Mapping[str, Sequence[RankErrorReport]]
                   ) -> dict[str, dict[str, int]]:
    """Band label -> technique -> count of improvement nodes in the band."""
    table = {band: {tech: 0 for tech in reports_by_technique}
             for band in ACCURACY_BANDS}
    for tech, reports in reports_by_technique.items():
        for report in reports:
            for row in report.per_node:
                table[accuracy_band(row.accuracy)][tech] += 1
    return table


# bootstrap ----------------------------------------------------------------

def _quantile(sorted_values: Sequence[int], q: Fraction) -> Fraction:
    """Linear interpolation between closest ranks."""
    n = len(sorted_values)
    if n == 1:
        return sorted_values[0]
    h = q * (n - 1)
    lo = int(h)
    if lo >= n - 1:
        return sorted_values[-1]
    frac = h - lo
    return sorted_values[lo] + frac * (sorted_values[lo + 1]
                                       - sorted_values[lo])


def bootstrap_diff(accs_a: Sequence[Fraction], accs_b: Sequence[Fraction],
                   seed: int, inner: int = 100, outer: int = 100,
                   quantiles: tuple[Fraction, Fraction] = (Fraction("0.025"),
                                                           Fraction("0.975"))
                   ) -> BootstrapResult:
    """Paired bootstrap over per-node accuracy differences: each repetition
    draws ``inner`` differences with replacement and keeps the mean; the
    estimate is the mean of the repetition means with a quantile interval."""
    if len(accs_a) != len(accs_b) or not accs_a:
        raise EmptyInput("need equal-length, non-empty paired samples")
    diffs = [Fraction(a - b) for a, b in zip(accs_a, accs_b)]
    # Over one common denominator the sums are sums of integers; a
    # repetition's mean is its total / scale, and scale > 0 keeps the order.
    denominator = math.lcm(*(d.denominator for d in diffs))
    numerators = [d.numerator * (denominator // d.denominator) for d in diffs]
    scale = denominator * inner
    # Each draw is ``rng.randint(0, n - 1)``, taken from the same
    # ``getrandbits`` stream without randint's call chain.
    getrandbits = random.Random(seed).getrandbits
    n = len(diffs)
    k = n.bit_length()
    totals = []
    for _ in range(outer):
        total = 0
        for _ in range(inner):
            r = getrandbits(k)
            while r >= n:
                r = getrandbits(k)
            total += numerators[r]
        totals.append(total)
    totals.sort()
    lo_q, hi_q = quantiles
    return BootstrapResult(
        mean_diff=Fraction(sum(totals), scale * outer),
        ci_low=Fraction(_quantile(totals, Fraction(lo_q))) / scale,
        ci_high=Fraction(_quantile(totals, Fraction(hi_q))) / scale,
        resamples=outer, sample_size=inner, seed=seed)


# corpus summary -----------------------------------------------------------

SUMMARY_ROWS = (
    "most_accurate_nodes",
    "least_accurate_nodes",
    "upper_half_nodes",
    "lower_half_nodes",
    "problems_all_upper",
    "problems_majority_lower",
    "problems_best_technique",
)


def summary_table(per_problem: Mapping[str, Mapping[str, RankErrorReport]]
                  ) -> dict[str, dict[str, int]]:
    """per_problem: problem name -> technique -> report. Returns row label ->
    technique -> count. Ties on a node credit every tied technique; the
    problem-level rows need a strict majority of that problem's nodes."""
    techniques: list[str] = []
    for reports in per_problem.values():
        for tech in reports:
            if tech not in techniques:
                techniques.append(tech)
    table = {row: {tech: 0 for tech in techniques} for row in SUMMARY_ROWS}
    best_votes = {p: {t: 0 for t in techniques} for p in per_problem}

    for problem, reports in per_problem.items():
        n_nodes = len(next(iter(reports.values())).per_node)
        lower_counts = {t: 0 for t in techniques}
        for i in range(n_nodes):
            accs = {t: reports[t].per_node[i].accuracy for t in techniques}
            best = max(accs.values())
            worst = min(accs.values())
            for t in techniques:
                if accs[t] == best:
                    table["most_accurate_nodes"][t] += 1
                    best_votes[problem][t] += 1
                if accs[t] == worst:
                    table["least_accurate_nodes"][t] += 1
                if reports[t].per_node[i].upper_half:
                    table["upper_half_nodes"][t] += 1
                else:
                    table["lower_half_nodes"][t] += 1
                    lower_counts[t] += 1
        for t in techniques:
            if lower_counts[t] == 0:
                table["problems_all_upper"][t] += 1
            if 2 * lower_counts[t] > n_nodes:
                table["problems_majority_lower"][t] += 1
            if 2 * best_votes[problem][t] > n_nodes:
                table["problems_best_technique"][t] += 1
    return table
