"""End-to-end acceptance gate.

Every criterion emits exactly one PASS/FAIL line (via conftest.check) in
the terminal summary, then asserts. Criterion 8 is split into one test
per clause so the clauses that hold stay green independently.

Known red: the combined technique does not put every improvement node of
the double-loop bubble sort in the upper half (test_criterion_8_combined
_upper_half). About a third of that program's nodes share the maximum
combined value, the fractional ranking averages that whole tied block to
mid-table, and the outer-loop header nodes land just below the median.
The clause is asserted as stated rather than weakened; see the failure
message for the measured ranks.
"""

import hashlib
import json
import os
import time
from collections import Counter
from fractions import Fraction
from types import SimpleNamespace

import pytest

from perfloc.cli import main as cli_main
from perfloc.cli import write_nodes_csv, write_variants_csv
from perfloc.corpus import problem_dirs
from perfloc.evaluation import (
    ACCURACY_BANDS, SUMMARY_ROWS, bootstrap_diff, fractional_rank,
    ideal_rank, percent_rank_error,
)
from perfloc.lang.ast import (
    KIND_FOR, KIND_FUNCTION, KIND_IF, KIND_BLOCK, AstNode, Program,
)
from perfloc.lang.edit import replace_node, statement_ids
from perfloc.mutation import (
    CLASS_IDENTICAL, CLASS_NOT_COMPILABLE, classify_variant,
    baseline, combined_analysis, deletion_analysis, exhaustive_descriptors,
)
from perfloc.profiler import profile, profile_cost, profile_scores
from perfloc.runtime.exec import baseline_limits, compile_program, run_suite
from perfloc.scores import (
    SOURCE_COMBINED, SOURCE_DELETION, SOURCE_EXHAUSTIVE, SOURCE_PROFILER,
    NodeScore,
)

from conftest import CORPUS_DIR, REPORT_DIGESTS, check
from tree_helpers import programs_equal, subtree

TECHNIQUES = (SOURCE_PROFILER, SOURCE_DELETION, SOURCE_EXHAUSTIVE,
              SOURCE_COMBINED)

EVALUATE_REPORTS = ("rank_errors.csv", "accuracy.csv", "summary.csv",
                    "bootstrap.csv", "cost.csv")


@pytest.fixture(scope="module")
def runs(problems):
    """One full in-process analysis pass over the corpus, timed per phase."""
    data = {}
    for name, prob in sorted(problems.items()):
        t0 = time.perf_counter()
        report = profile(prob.original, prob.suite)
        profiler = profile_scores(prob.original, report)
        t_profile = time.perf_counter() - t0

        t0 = time.perf_counter()
        base = baseline(prob.original, prob.suite)
        t_baseline = time.perf_counter() - t0

        t0 = time.perf_counter()
        deletion = deletion_analysis(base)
        t_deletion = time.perf_counter() - t0 + t_baseline

        t0 = time.perf_counter()
        combined, exhaustive, _ = combined_analysis(base)
        t_combined = time.perf_counter() - t0 + t_baseline

        data[name] = SimpleNamespace(
            problem=prob, profiler=profiler, deletion=deletion,
            exhaustive=exhaustive, combined=combined,
            t_profile=t_profile, t_deletion=t_deletion,
            t_combined=t_combined)
    return data


@pytest.fixture(scope="module")
def rankings(runs):
    """problem -> technique -> RankErrorReport over the improvement nodes."""
    out = {}
    for name, r in runs.items():
        scores = {SOURCE_PROFILER: r.profiler,
                  SOURCE_DELETION: r.deletion.scores,
                  SOURCE_EXHAUSTIVE: r.exhaustive.scores,
                  SOURCE_COMBINED: r.combined.scores}
        out[name] = {
            tag: percent_rank_error(fractional_rank(scores[tag]),
                                    r.problem.annotation, tag)
            for tag in TECHNIQUES}
    return out


@pytest.fixture(scope="module")
def evaluate_outputs(tmp_path_factory):
    """Three full CLI evaluation runs: rerun with the same jobs, and a
    single-process run, for the byte-identity checks."""
    base = tmp_path_factory.mktemp("evaluate")
    dirs = {}
    for label, jobs in (("first", 4), ("rerun", 4), ("serial", 1)):
        out = base / label
        assert cli_main(["evaluate", "--corpus", CORPUS_DIR,
                         "--out", str(out), "--jobs", str(jobs)]) == 0
        dirs[label] = out
    return dirs


def _statement_ids(prob):
    nodes = prob.original.nodes
    fors = {n.loop_var: i for i, n in enumerate(nodes) if n.kind == KIND_FOR}
    if_id = next(i for i, n in enumerate(nodes) if n.kind == KIND_IF)
    return fors, if_id


def _deletion_savings(result):
    base = result.original.total_cost
    out = {}
    for v in result.variants:
        if v.cost is not None:
            out[v.target] = max(Fraction(0), Fraction(base - v.cost, base))
    return out


# -- criterion 1: the motivating double-loop example --------------------

def test_criterion_1_motivating_example(runs):
    r = runs["bubble_loops"]
    fors, if_id = _statement_ids(r.problem)
    outer = r.profiler[fors["h"]].value
    inner = r.profiler[fors["j"]].value
    savings = _deletion_savings(r.deletion)
    ordering = (savings[fors["h"]], savings[fors["i"]], savings[fors["j"]],
                savings[if_id])
    elapsed = r.t_profile + r.t_deletion

    ok = (outer <= Fraction(2, 100)
          and inner >= 10 * outer
          and savings[fors["h"]] >= Fraction(95, 100)
          and ordering == tuple(sorted(ordering, reverse=True))
          and elapsed < 30)
    detail = (f"outer loop holds {float(100 * outer):.2f}% of the "
              f"normalised count, innermost {float(inner / outer):.1f}x "
              f"larger; deletion savings outer "
              f"{float(savings[fors['h']]):.4f}, ordering "
              f"{[f'{float(s):.3f}' for s in ordering]}; {elapsed:.1f}s")
    assert check("criterion-1", ok, detail)


# -- criterion 2: deletion savings grow toward the root -----------------

def test_criterion_2_deletion_cumulativity(runs):
    pairs = 0
    violations = []
    elapsed = sum(r.t_deletion for r in runs.values())
    for name, r in runs.items():
        program = r.problem.original
        compilable = {v.target for v in r.deletion.variants
                      if v.classification != CLASS_NOT_COMPILABLE}
        for target in compilable:
            node = program.parent[target]
            while node != -1:
                if node in compilable:
                    pairs += 1
                    if (r.deletion.scores[node].value
                            < r.deletion.scores[target].value):
                        violations.append((name, node, target))
                node = program.parent[node]
    ok = not violations and pairs > 0 and elapsed < 120
    detail = (f"{pairs} ancestor/descendant pairs over {len(runs)} "
              f"problems, {len(violations)} violations; {elapsed:.1f}s")
    assert check("criterion-2", ok, detail), violations[:5]


# -- criterion 3: replacement-quotient integrity ------------------------

def test_criterion_3_quotient_integrity(runs, tmp_path):
    import csv
    bad = []
    for name, r in runs.items():
        for s in r.exhaustive.scores.values():
            if not (0 <= s.value <= 1
                    and s.value * s.n_compiled == s.n_reduced):
                bad.append((name, s.node))

        written = tmp_path / name / "written"
        rebuilt = tmp_path / name / "rebuilt"
        write_nodes_csv(str(written), r.problem.original,
                        r.exhaustive.scores)
        write_variants_csv(str(written), r.exhaustive.variants)
        # the log carries no baseline cost; re-derive it from scratch
        _, base = baseline_limits(compile_program(r.problem.original),
                                  r.problem.suite)
        reduced: dict[int, int] = {}
        compiled: dict[int, int] = {}
        with open(written / "variants.csv", newline="",
                  encoding="utf-8") as fh:
            rows = list(csv.reader(fh))[1:]
        for target_s, _donor, cls, cost, corr in rows:
            target = int(target_s)
            if cls != CLASS_NOT_COMPILABLE:
                compiled[target] = compiled.get(target, 0) + 1
            if (cost != "" and int(cost) < base.total_cost
                    and float(corr) != 1.0):
                reduced[target] = reduced.get(target, 0) + 1
        recomputed = {}
        for i in range(len(r.problem.original.nodes)):
            n_comp = compiled.get(i, 0)
            n_red = reduced.get(i, 0)
            value = Fraction(n_red, n_comp) if n_comp else Fraction(0)
            recomputed[i] = NodeScore(
                node=i, value=value, n_reduced=n_red,
                n_compiled=n_comp, source=SOURCE_EXHAUSTIVE)
        write_nodes_csv(str(rebuilt), r.problem.original, recomputed)
        if ((written / "nodes.csv").read_bytes()
                != (rebuilt / "nodes.csv").read_bytes()):
            bad.append((name, "csv-mismatch"))
    nodes_checked = sum(len(r.exhaustive.scores) for r in runs.values())
    ok = not bad
    detail = (f"{nodes_checked} nodes exact, node table rebuilt from the "
              f"variant log byte-for-byte for {len(runs)} problems")
    assert check("criterion-3", ok, detail), bad[:5]


# -- criterion 4: classification partition and self-replacements --------

def test_criterion_4_classification_partition(runs):
    bad = []
    replacements = 0
    for name, r in runs.items():
        counts: dict[str, int] = {}
        for v in r.exhaustive.variants:
            counts[v.classification] = counts.get(v.classification, 0) + 1
        if sum(counts.values()) != r.exhaustive.cost.variants_generated:
            bad.append((name, "partition", counts))

        prob = r.problem
        ir = compile_program(prob.original)
        limits, base = baseline_limits(ir, prob.suite)
        for i in range(1, len(prob.original.nodes)):
            try:
                variant = replace_node(prob.original, i,
                                       subtree(prob.original, i))
            except Exception:
                continue
            outcome = run_suite(compile_program(variant), prob.suite,
                                limits)
            replacements += 1
            if classify_variant(base, outcome) != CLASS_IDENTICAL:
                bad.append((name, "self-replacement", i))
    ok = not bad and replacements > 0
    detail = (f"class counts partition the generated totals for "
              f"{len(runs)} problems; {replacements} self-replacements "
              f"all Identical")
    assert check("criterion-4", ok, detail), bad[:5]


# -- criterion 5: ranking laws ------------------------------------------

def test_criterion_5_ranking_laws(runs):
    t0 = time.perf_counter()
    bad = []
    for name, r in runs.items():
        for scores in (r.profiler, r.deletion.scores, r.exhaustive.scores,
                       r.combined.scores):
            ranking = fractional_rank(scores)
            n = ranking.n_total
            if sum(ranking.entries.values()) != Fraction(n * (n + 1), 2):
                bad.append((name, "rank-sum"))

    two_way = fractional_rank({
        0: NodeScore(0, Fraction(1), 0, 0, SOURCE_PROFILER),
        1: NodeScore(1, Fraction(1), 0, 0, SOURCE_PROFILER)})
    if sorted(two_way.entries.values()) != [Fraction(3, 2), Fraction(3, 2)]:
        bad.append(("tie", dict(two_way.entries)))

    n = 10
    perfect = fractional_rank({
        i: NodeScore(i, Fraction(n - i, n), 0, 0, SOURCE_PROFILER)
        for i in range(n)})
    report = percent_rank_error(perfect, [0], SOURCE_PROFILER)
    if report.per_node[0].error != 0:
        bad.append(("perfect", report.per_node[0].error))
    worst = percent_rank_error(perfect, [n - 1], SOURCE_PROFILER)
    if worst.per_node[0].error != Fraction(n - 1, n):
        bad.append(("worst", worst.per_node[0].error))
    assert ideal_rank(1) == 1

    elapsed = time.perf_counter() - t0
    ok = not bad and elapsed < 1
    detail = (f"rank sums exact on {4 * len(runs)} reports, tie 1.5/1.5, "
              f"error 0 best and {n - 1}/{n} worst; {elapsed:.2f}s")
    assert check("criterion-5", ok, detail), bad[:5]


# -- criterion 6: bootstrap sanity --------------------------------------

def test_criterion_6_bootstrap_reproducibility(runs, evaluate_outputs):
    sample = [float(e.accuracy) for e in percent_rank_error(
        fractional_rank(runs["bubble_loops"].deletion.scores),
        runs["bubble_loops"].problem.annotation,
        SOURCE_DELETION).per_node]
    self_cmp = bootstrap_diff(sample, sample, seed=11)
    again = bootstrap_diff(sample, sample, seed=11)

    identical_rerun = all(
        (evaluate_outputs["first"] / n).read_bytes()
        == (evaluate_outputs["rerun"] / n).read_bytes()
        for n in EVALUATE_REPORTS)
    identical_jobs = all(
        (evaluate_outputs["first"] / n).read_bytes()
        == (evaluate_outputs["serial"] / n).read_bytes()
        for n in EVALUATE_REPORTS)

    ok = (self_cmp.mean_diff == 0 and self_cmp.ci_low == 0
          and self_cmp.ci_high == 0 and self_cmp == again
          and identical_rerun and identical_jobs)
    detail = (f"self-comparison mean 0 CI [0,0]; all five reports "
              f"byte-identical on rerun ({identical_rerun}) and across "
              f"--jobs 4 vs 1 ({identical_jobs})")
    assert check("criterion-6", ok, detail)


# -- every report's bytes -----------------------------------------------

def sha256(path) -> str:
    return hashlib.sha256(path.read_bytes()).hexdigest()


def problem_report_digests(out) -> dict[str, str]:
    """Run localize --technique combined and profile on every corpus
    problem into ``out``; the digest of each report, by its table key."""
    found = {}
    for directory in problem_dirs(CORPUS_DIR):
        name = os.path.basename(directory)
        source = os.path.join(directory, "original.mini")
        suite = os.path.join(directory, "suite.json")
        runs = (("localize", ("nodes.csv", "variants.csv"),
                 ["--technique", "combined"]),
                ("profile", ("profile.csv",), []))
        for command, files, flags in runs:
            where = out / command / name
            assert cli_main([command, source, "--tests", suite, *flags,
                             "--out", str(where)]) == 0
            found.update({f"{command}/{name}/{f}": sha256(where / f)
                          for f in files})
    return found


def test_every_report_keeps_its_pinned_bytes(evaluate_outputs, tmp_path):
    with open(REPORT_DIGESTS, encoding="utf-8") as fh:
        pinned = json.load(fh)
    found = problem_report_digests(tmp_path)
    moved = sorted(key for key, digest in found.items()
                   if pinned.get(key) != digest)
    for label, out in evaluate_outputs.items():
        moved += [f"evaluate/{name} ({label})" for name in EVALUATE_REPORTS
                  if pinned.get(f"evaluate/{name}") != sha256(out / name)]
    assert len(pinned) == len(found) + len(EVALUATE_REPORTS)
    assert moved == [], f"reports whose bytes moved: {', '.join(moved)}"


# -- criterion 7: corpus validity ---------------------------------------

def test_criterion_7_corpus_validity(problems):
    bad = []
    pcts = []
    for name, prob in sorted(problems.items()):
        ir = compile_program(prob.original)
        limits, base = baseline_limits(ir, prob.suite)
        improved = run_suite(
            compile_program(prob.improved[prob.designated]), prob.suite,
            limits)
        if improved.correctness != 1:
            bad.append((name, "correctness", improved.correctness))
        if improved.total_cost >= base.total_cost:
            bad.append((name, "cost", improved.total_cost))
        measured = 100 * (base.total_cost - improved.total_cost) \
            / base.total_cost
        pcts.append(f"{name} {measured:.1f}/{prob.improvement_pct}")

    loops = problems["bubble_loops"].original
    plain = problems["bubble"].original
    outer = loops.functions[0].children[0].children[0]
    func = loops.functions[0]
    stripped = Program([AstNode(
        KIND_FUNCTION,
        [AstNode(KIND_BLOCK, outer.children[2:])],
        name=func.name, ret_type=func.ret_type, params=func.params)])
    if not programs_equal(stripped, plain):
        bad.append(("bubble_loops", "outer strip mismatch"))

    ok = not bad
    detail = ("all 11 improved versions correct and cheaper; outer-loop "
              "strip equals the single-loop version; measured/reference "
              "improvement % " + ", ".join(pcts))
    assert check("criterion-7", ok, detail), bad[:5]


# -- criterion 8: directional trends ------------------------------------

def test_criterion_8_deletion_upper_half(rankings):
    report = rankings["bubble_loops"][SOURCE_DELETION]
    ranks = {e.node: float(e.r_actual) for e in report.per_node}
    ok = all(e.upper_half for e in report.per_node)
    detail = (f"deletion puts all {len(ranks)} improvement nodes of the "
              f"double-loop example in the upper half (ranks {ranks} "
              f"of {report.n_total})")
    assert check("criterion-8-deletion", ok, detail)


def test_criterion_8_profiler_deception(rankings, runs):
    prob = runs["bubble_loops"].problem
    fors, _ = _statement_ids(prob)
    program = prob.original
    header = {fors["h"]}
    for child in (program.first[fors["h"]], program.first[fors["h"]] + 1):
        header |= set(program.subtree_ids(child))
    report = rankings["bubble_loops"][SOURCE_PROFILER]
    outer_nodes = [e for e in report.per_node if e.node in header]
    ok = bool(outer_nodes) and all(not e.upper_half for e in outer_nodes)
    detail = (f"profiler ranks the {len(outer_nodes)} outer-loop header "
              f"improvement nodes in the lower half "
              f"({sorted(e.node for e in outer_nodes)})")
    assert check("criterion-8-profiler", ok, detail)


def test_criterion_8_combined_upper_half(rankings):
    report = rankings["bubble_loops"][SOURCE_COMBINED]
    ranks = {e.node: float(e.r_actual) for e in report.per_node}
    below = sorted(e.node for e in report.per_node if not e.upper_half)
    ok = not below
    check("criterion-8-combined", ok,
          f"combined upper-half for every improvement node: ranks {ranks} "
          f"of {report.n_total}, below median: {below}")
    assert ok, (
        f"combined leaves improvement nodes {below} in the lower half "
        f"(ranks {ranks} of {report.n_total}). 19 of the 58 nodes tie at "
        f"the maximum combined value, fractional ranking averages the "
        f"tied block to mid-table, and the outer-loop header lands just "
        f"below the median. Asserted as stated; not weakened.")


def test_criterion_8_report_tables(evaluate_outputs, rankings):
    import csv

    def rows(name):
        with open(evaluate_outputs["first"] / name, newline="",
                  encoding="utf-8") as fh:
            return list(csv.reader(fh))

    accuracy = rows("accuracy.csv")
    summary = rows("summary.csv")
    n_nodes = sum(len(r[SOURCE_DELETION].per_node)
                  for r in rankings.values())
    shape_ok = (accuracy[0] == ["band"] + list(TECHNIQUES)
                and [r[0] for r in accuracy[1:]] == list(ACCURACY_BANDS)
                and summary[0] == ["metric"] + list(TECHNIQUES)
                and [r[0] for r in summary[1:]] == list(SUMMARY_ROWS))
    sums_ok = all(
        sum(int(r[col]) for r in accuracy[1:]) == n_nodes
        for col in range(1, 5))
    upper = dict(zip(TECHNIQUES, (int(v) for v in summary[3][1:])))
    ok = shape_ok and sums_ok
    detail = (f"band and summary tables cover all four techniques, "
              f"columns sum to {n_nodes} improvement nodes; combined "
              f"upper-half count {upper[SOURCE_COMBINED]}/{n_nodes} "
              f"(reported, not asserted)")
    assert check("criterion-8-tables", ok, detail)


# -- criterion 9: analysis-cost accounting ------------------------------

def test_criterion_9_cost_accounting(runs, evaluate_outputs):
    import csv
    bad = []
    assert profile_cost().evaluations == 1
    for name, r in runs.items():
        program = r.problem.original
        stmt_count = len(statement_ids(program))
        if r.deletion.cost.executed > stmt_count:
            bad.append((name, "deletion-executions"))
        per_target = Counter(d.target
                             for d in exhaustive_descriptors(program))
        donor_total = sum(per_target[i] for i in range(len(program.nodes)))
        if r.exhaustive.cost.variants_generated != donor_total:
            bad.append((name, "exhaustive-total",
                        r.exhaustive.cost.variants_generated, donor_total))

    with open(evaluate_outputs["first"] / "cost.csv", newline="",
              encoding="utf-8") as fh:
        rows = list(csv.reader(fh))[1:]
    profiler_rows = [r for r in rows if r[1] == SOURCE_PROFILER]
    csv_ok = (len(rows) == 4 * len(runs)
              and all(r[5] == "1" for r in profiler_rows))

    exhaustive_elapsed = sum(r.t_combined for r in runs.values())
    ok = not bad and csv_ok and exhaustive_elapsed < 1800
    detail = (f"profiler 1 evaluation, deletion executions within "
              f"statement counts, exhaustive totals equal donor sums for "
              f"{len(runs)} problems; cost table has {len(rows)} rows; "
              f"exhaustive pass {exhaustive_elapsed:.0f}s")
    assert check("criterion-9", ok, detail), bad[:5]
