"""Command-line interface.

Exit codes: 0 success, 1 data/analysis failure (invalid corpus, diverging
baseline, unreadable program), 2 usage error. Diagnostics go to stderr;
stdout and the output files carry only data.

Every output is deterministic: the same inputs, seed and flags produce
byte-identical files regardless of --jobs.
"""

from __future__ import annotations

import argparse
import csv
import os
import sys
from concurrent.futures.process import BrokenProcessPool
from contextlib import contextmanager
from fractions import Fraction

from . import __version__
from .corpus import (
    CORPUS_VERSION, CorpusInvalid, DEFAULT_SEED, load_problem, load_program,
    load_suite, problem_dirs, validate_corpus,
)
from .evaluation import (
    ACCURACY_BANDS, SUMMARY_ROWS, accuracy_table, bootstrap_diff,
    fractional_rank, percent_rank_error, summary_table,
)
from .lang.printer import render_snippet
from .mutation import (
    combined_analysis, deletion_analysis, exhaustive_analysis,
)
from .profiler import inherited_count, profile, profile_cost, profile_scores
from .runtime.exec import (
    BaselineDiverged, DEFAULT_TIMEOUT_FACTOR, ENGINE_NAME,
)
from .scores import (
    SOURCE_COMBINED, SOURCE_DELETION, SOURCE_EXHAUSTIVE, SOURCE_PROFILER,
)

TECHNIQUES = ("profile", "deletion", "exhaustive", "combined")
# Column order fixed: it is part of the report-file contract.
TECHNIQUE_TAGS = (SOURCE_PROFILER, SOURCE_DELETION, SOURCE_EXHAUSTIVE,
                  SOURCE_COMBINED)
BOOTSTRAP_PAIRS = ((SOURCE_PROFILER, SOURCE_DELETION),
                   (SOURCE_DELETION, SOURCE_EXHAUSTIVE),
                   (SOURCE_EXHAUSTIVE, SOURCE_COMBINED))


def ratio_text(value) -> str:
    """Exact rationals render as shortest round-trip floats in reports."""
    if value is None:
        return ""
    return repr(float(value))


def _say(msg: str) -> None:
    print(msg, file=sys.stderr)


def _open_csv(directory: str, name: str):
    os.makedirs(directory, exist_ok=True)
    return open(os.path.join(directory, name), "w", encoding="utf-8",
                newline="")


def write_nodes_csv(path_dir: str, program, scores) -> None:
    with _open_csv(path_dir, "nodes.csv") as fh:
        w = csv.writer(fh)
        w.writerow(["node_id", "kind", "source", "value", "n_reduced",
                    "n_compiled", "gap_filled"])
        counted = scores and next(iter(scores.values())).source in (
            SOURCE_EXHAUSTIVE, SOURCE_COMBINED)
        for node in program.nodes:
            s = scores[node.node_id]
            red = s.n_reduced if counted else ""
            comp = s.n_compiled if counted else ""
            w.writerow([node.node_id, node.kind, render_snippet(node),
                        ratio_text(s.value), red, comp,
                        int(s.gap_filled)])


def write_variants_csv(path_dir: str, variants) -> None:
    with _open_csv(path_dir, "variants.csv") as fh:
        w = csv.writer(fh)
        w.writerow(["target", "donor", "class", "cost", "correctness"])
        for v in variants:
            cost = "" if v.cost is None else v.cost
            corr = "" if v.correctness is None else ratio_text(v.correctness)
            w.writerow([v.target, v.donor_label, v.classification, cost,
                        corr])


class CliDataError(Exception):
    """Input data problem: exit code 1, message on stderr."""


@contextmanager
def _workers_of(where: str):
    """A worker process that dies ends the run with exit 1 and one line
    naming ``where`` (the problem or program, and the technique)."""
    try:
        yield
    except BrokenProcessPool:
        raise CliDataError(f"{where}: a worker process died") from None


def cmd_profile(args) -> int:
    program = load_program(args.program)
    suite = load_suite(args.tests, program)
    report = profile(program, suite)
    with _open_csv(args.out, "profile.csv") as fh:
        w = csv.writer(fh)
        w.writerow(["node_id", "kind", "count", "score"])
        for node in program.nodes:
            w.writerow([node.node_id, node.kind,
                        inherited_count(program, report, node.node_id),
                        ratio_text(report.node_scores[node.node_id])])
    _say(f"profiled {len(program.nodes)} nodes over {len(suite)} tests "
         f"(total statement entries: {report.total})")
    return 0


def cmd_localize(args) -> int:
    program = load_program(args.program)
    suite = load_suite(args.tests, program)
    technique = args.technique
    variants = ()
    if technique == "profile":
        scores = profile_scores(program, profile(program, suite))
        cost = profile_cost()
    elif technique == "deletion":
        result = deletion_analysis(program, suite, args.timeout_factor)
        scores, variants, cost = result.scores, result.variants, result.cost
    elif technique == "exhaustive":
        with _workers_of(f"{args.program}: {technique}"):
            result = exhaustive_analysis(program, suite, args.timeout_factor,
                                         args.hint_include_correct,
                                         args.jobs)
        scores, variants, cost = result.scores, result.variants, result.cost
    else:
        with _workers_of(f"{args.program}: {technique}"):
            combined, _, _ = combined_analysis(program, suite,
                                               args.timeout_factor,
                                               args.hint_include_correct,
                                               args.jobs)
        scores, variants, cost = (combined.scores, combined.variants,
                                  combined.cost)
    write_nodes_csv(args.out, program, scores)
    write_variants_csv(args.out, variants)
    _say(f"{technique}: {len(program.nodes)} nodes, "
         f"{cost.variants_generated} variants generated, "
         f"{cost.compiled} compiled, {cost.executed} executed, "
         f"{cost.evaluations} suite evaluations")
    return 0


def _technique_runs(problem, args):
    """All four score maps plus analysis costs for one problem."""
    combined, exhaustive, deletion = combined_analysis(
        problem.original, problem.suite, args.timeout_factor,
        args.hint_include_correct, args.jobs)
    prof = profile_scores(problem.original,
                          profile(problem.original, problem.suite))
    return {
        SOURCE_PROFILER: (prof, profile_cost()),
        SOURCE_DELETION: (deletion.scores, deletion.cost),
        SOURCE_EXHAUSTIVE: (exhaustive.scores, exhaustive.cost),
        SOURCE_COMBINED: (combined.scores, combined.cost),
    }


def cmd_evaluate(args) -> int:
    dirs = problem_dirs(args.corpus)
    if not dirs:
        raise CliDataError(f"no problems under {args.corpus}")
    per_problem: dict[str, dict] = {}
    costs: list[tuple] = []
    reports_by_technique: dict[str, list] = {t: [] for t in TECHNIQUE_TAGS}
    for directory in dirs:
        problem = load_problem(directory)
        if not problem.annotation:
            raise CliDataError(
                f"{directory}: invalid problem, no improvement nodes")
        _say(f"evaluating {problem.name} "
             f"({len(problem.original.nodes)} nodes)")
        with _workers_of(f"{problem.name}: exhaustive"):
            runs = _technique_runs(problem, args)
        per_problem[problem.name] = {}
        for tag in TECHNIQUE_TAGS:
            scores, cost = runs[tag]
            ranking = fractional_rank(scores)
            report = percent_rank_error(ranking, problem.annotation, tag)
            per_problem[problem.name][tag] = report
            reports_by_technique[tag].append(report)
            costs.append((problem.name, tag, cost))

    out = args.out
    with _open_csv(out, "rank_errors.csv") as fh:
        w = csv.writer(fh)
        w.writerow(["problem", "technique", "node_id", "rank", "ideal_rank",
                    "error", "accuracy", "upper_half"])
        for name in sorted(per_problem):
            for tag in TECHNIQUE_TAGS:
                for e in per_problem[name][tag].per_node:
                    w.writerow([name, tag, e.node, ratio_text(e.r_actual),
                                ratio_text(e.r_ideal), ratio_text(e.error),
                                ratio_text(e.accuracy), int(e.upper_half)])

    table = accuracy_table(reports_by_technique)
    with _open_csv(out, "accuracy.csv") as fh:
        w = csv.writer(fh)
        w.writerow(["band"] + list(TECHNIQUE_TAGS))
        for band in ACCURACY_BANDS:
            w.writerow([band] + [table[band][t] for t in TECHNIQUE_TAGS])

    summary = summary_table(per_problem)
    with _open_csv(out, "summary.csv") as fh:
        w = csv.writer(fh)
        w.writerow(["metric"] + list(TECHNIQUE_TAGS))
        for row in SUMMARY_ROWS:
            w.writerow([row] + [summary[row][t] for t in TECHNIQUE_TAGS])

    # Accuracy lists paired by improvement node, in (problem, node) order.
    accs = {tag: [e.accuracy
                  for name in sorted(per_problem)
                  for e in per_problem[name][tag].per_node]
            for tag in TECHNIQUE_TAGS}
    lo, hi = args.ci_quantiles
    with _open_csv(out, "bootstrap.csv") as fh:
        w = csv.writer(fh)
        w.writerow(["technique_a", "technique_b", "mean_diff", "ci_low",
                    "ci_high", "resamples", "sample_size", "seed"])
        for a, b in BOOTSTRAP_PAIRS:
            r = bootstrap_diff(accs[a], accs[b], seed=args.seed,
                               quantiles=(lo, hi))
            w.writerow([a, b, ratio_text(r.mean_diff), ratio_text(r.ci_low),
                        ratio_text(r.ci_high), r.resamples, r.sample_size,
                        r.seed])

    with _open_csv(out, "cost.csv") as fh:
        w = csv.writer(fh)
        w.writerow(["problem", "technique", "variants_generated", "compiled",
                    "executed", "evaluations"])
        for name, tag, cost in costs:
            w.writerow([name, tag, cost.variants_generated, cost.compiled,
                        cost.executed, cost.evaluations])
    _say(f"wrote reports for {len(per_problem)} problems to {out}")
    return 0


def cmd_validate(args) -> int:
    report = validate_corpus(args.corpus)
    for name in sorted(report):
        print(f"{name}: ok")
    return 0


def _seed_default() -> int | None:
    raw = os.environ.get("PERFLOC_SEED")
    if raw is None:
        return None
    try:
        return int(raw)
    except ValueError:
        return -1  # flagged as usage error after parsing


def _parse_quantiles(text: str):
    parts = text.split(",")
    if len(parts) != 2:
        raise argparse.ArgumentTypeError("expected LOW,HIGH")
    try:
        lo, hi = (Fraction(p.strip()) for p in parts)
    except ValueError:
        raise argparse.ArgumentTypeError("quantiles must be numbers")
    if not (0 <= lo < hi <= 1):
        raise argparse.ArgumentTypeError("need 0 <= LOW < HIGH <= 1")
    return lo, hi


def _add_run_flags(sub, jobs=True):
    sub.add_argument("--timeout-factor", type=float,
                     default=DEFAULT_TIMEOUT_FACTOR,
                     help="variant step budget as a multiple of the "
                          "original's per-test cost (must be > 1)")
    if jobs:
        sub.add_argument("--jobs", type=int, default=1,
                         help="worker processes for variant evaluation")
        sub.add_argument("--hint-include-correct", action="store_true",
                         help="count fully-correct cheaper variants as "
                              "cost-reducing instead of only logging them")


def build_parser() -> argparse.ArgumentParser:
    p = argparse.ArgumentParser(
        prog="perfloc",
        description="Rank program nodes by likely performance-improvement "
                    "relevance.")
    p.add_argument("--version", action="version",
                   version=f"perfloc {__version__} (corpus {CORPUS_VERSION}, "
                           f"engine {ENGINE_NAME})")
    subs = p.add_subparsers(dest="command", required=True)

    sp = subs.add_parser("profile", help="statement execution counts")
    sp.add_argument("program")
    sp.add_argument("--tests", required=True)
    sp.add_argument("--out", default=".")
    sp.set_defaults(func=cmd_profile)

    sl = subs.add_parser("localize", help="score nodes with one technique")
    sl.add_argument("program")
    sl.add_argument("--tests", required=True)
    sl.add_argument("--technique", required=True, choices=TECHNIQUES)
    sl.add_argument("--out", default=".")
    _add_run_flags(sl)
    sl.set_defaults(func=cmd_localize)

    se = subs.add_parser("evaluate",
                         help="run all techniques over a corpus and score "
                              "them against the known improvement nodes")
    se.add_argument("--corpus", required=True)
    se.add_argument("--out", required=True)
    se.add_argument("--seed", type=int, default=None,
                    help="bootstrap seed (falls back to PERFLOC_SEED, then "
                         f"{DEFAULT_SEED})")
    se.add_argument("--ci-quantiles", type=_parse_quantiles,
                    default=(Fraction("0.025"), Fraction("0.975")),
                    help="confidence-interval quantiles LOW,HIGH")
    _add_run_flags(se)
    se.set_defaults(func=cmd_evaluate)

    sv = subs.add_parser("validate", help="check every corpus invariant")
    sv.add_argument("--corpus", required=True)
    sv.set_defaults(func=cmd_validate)
    return p


def main(argv=None) -> int:
    parser = build_parser()
    args = parser.parse_args(argv)
    if getattr(args, "timeout_factor", 2.0) <= 1:
        parser.error("--timeout-factor must be > 1")
    if getattr(args, "jobs", 1) < 1:
        parser.error("--jobs must be >= 1")
    if getattr(args, "seed", 0) is None:
        env = _seed_default()
        if env == -1:
            parser.error("PERFLOC_SEED must be an integer")
        args.seed = DEFAULT_SEED if env is None else env
    try:
        return args.func(args)
    except (CliDataError, CorpusInvalid, BaselineDiverged) as exc:
        if isinstance(exc, CorpusInvalid):
            for failure in exc.failures:
                _say(f"invalid: {failure}")
        else:
            _say(f"error: {exc}")
        return 1
    except MemoryError:
        _say("error: out of memory")
        return 1


if __name__ == "__main__":
    sys.exit(main())
