"""Command-line interface.

Exit codes: 0 success, 1 data/analysis failure (invalid corpus, diverging
baseline, unreadable program, unwritable output), 2 usage error.
Diagnostics go to stderr; stdout and the output files carry only data.

Every output is deterministic: the same inputs, seed and flags produce
byte-identical files. Every analysis runs in this one process; evaluate
still accepts --jobs N (N >= 1), which changes nothing.
"""

from __future__ import annotations

import argparse
import csv
import math
import os
import sys
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
    baseline, combined_analysis, deletion_analysis, exhaustive_analysis,
)
from .profiler import profile, profile_cost, profile_scores
from .runtime.exec import (
    BOOTSTRAP_LIMIT, BaselineDiverged, DEFAULT_TIMEOUT_FACTOR, ENGINE_NAME,
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
    return "" if value is None else repr(float(value))


def _say(msg: str) -> None:
    print(msg, file=sys.stderr)


def _cannot_write(path: str, exc: OSError) -> CliDataError:
    return CliDataError(f"cannot write {path} ({exc.filename}: "
                        f"{exc.strerror})")


def _claim_out(directory: str) -> None:
    """Create the output directory; the commands call this before their
    first analysis, so an unusable --out fails at once."""
    try:
        os.makedirs(directory, exist_ok=True)
    except OSError as exc:
        raise _cannot_write(directory, exc) from None


def _open_csv(directory: str, name: str):
    _claim_out(directory)
    path = os.path.join(directory, name)
    try:
        return open(path, "w", encoding="utf-8", newline="")
    except OSError as exc:
        raise _cannot_write(path, exc) from None


def _write_csv(directory: str, name: str, header, rows) -> None:
    """The one way a report is written: a header row, then ``rows``."""
    with _open_csv(directory, name) as fh:
        w = csv.writer(fh)
        w.writerow(header)
        w.writerows(rows)


def write_nodes_csv(path_dir: str, program, scores) -> None:
    counted = scores and next(iter(scores.values())).source in (
        SOURCE_EXHAUSTIVE, SOURCE_COMBINED)
    _write_csv(path_dir, "nodes.csv",
               ["node_id", "kind", "source", "value", "n_reduced",
                "n_compiled", "gap_filled"],
               ([i, node.kind, render_snippet(node), ratio_text(s.value),
                 s.n_reduced if counted else "",
                 s.n_compiled if counted else "", int(s.gap_filled)]
                for i, node in enumerate(program.nodes)
                for s in (scores[i],)))


def write_variants_csv(path_dir: str, variants) -> None:
    _write_csv(path_dir, "variants.csv",
               ["target", "donor", "class", "cost", "correctness"],
               ([v.target, v.donor_label, v.classification,
                 "" if v.cost is None else v.cost,
                 "" if v.correctness is None else ratio_text(v.correctness)]
                for v in variants))


class CliDataError(Exception):
    """Input data problem: exit code 1, message on stderr."""


def cmd_profile(args) -> int:
    program = load_program(args.program)
    suite = load_suite(args.tests, program)
    _claim_out(args.out)
    report = profile(program, suite)
    scores = profile_scores(program, report)
    _write_csv(args.out, "profile.csv", ["node_id", "kind", "count", "score"],
               ([i, node.kind, report.counts[i], ratio_text(scores[i].value)]
                for i, node in enumerate(program.nodes)))
    _say(f"profiled {len(program.nodes)} nodes over {len(suite)} tests "
         f"(total statement entries: {report.total})")
    return 0


def cmd_localize(args) -> int:
    program = load_program(args.program)
    suite = load_suite(args.tests, program)
    _claim_out(args.out)
    technique = args.technique
    variants = ()
    if technique == "profile":
        scores = profile_scores(program, profile(program, suite))
        cost = profile_cost()
    else:
        base = baseline(program, suite, args.timeout_factor)
        if technique == "deletion":
            result = deletion_analysis(base)
        elif technique == "exhaustive":
            result = exhaustive_analysis(base, args.hint_include_correct)
        else:
            result, _, _ = combined_analysis(base, args.hint_include_correct)
        scores, variants, cost = result.scores, result.variants, result.cost
    write_nodes_csv(args.out, program, scores)
    write_variants_csv(args.out, variants)
    _say(f"{technique}: {len(program.nodes)} nodes, "
         f"{cost.variants_generated} variants generated, "
         f"{cost.compiled} compiled, {cost.executed} executed, "
         f"{cost.evaluations} suite evaluations")
    return 0


def _technique_runs(problem, args):
    """(scores, cost) per technique, in TECHNIQUE_TAGS order. The analyses'
    variant logs are freed on return, before the next problem runs."""
    program, suite = problem.original, problem.suite
    combined, exhaustive, deletion = combined_analysis(
        baseline(program, suite, args.timeout_factor),
        args.hint_include_correct)
    profiler = profile_scores(program, profile(program, suite))
    return ((profiler, profile_cost()), (deletion.scores, deletion.cost),
            (exhaustive.scores, exhaustive.cost),
            (combined.scores, combined.cost))


def cmd_evaluate(args) -> int:
    dirs = problem_dirs(args.corpus)
    if not dirs:
        raise CliDataError(f"no problems under {args.corpus}")
    out = args.out
    _claim_out(out)
    # problem name -> technique -> rank-error report, in directory order
    per_problem: dict[str, dict] = {}
    cost_rows: list[list] = []
    for directory in dirs:
        problem = load_problem(directory)
        if not problem.annotation:
            raise CliDataError(
                f"{directory}: invalid problem, no improvement nodes")
        _say(f"evaluating {problem.name} "
             f"({len(problem.original.nodes)} nodes)")
        try:
            runs = _technique_runs(problem, args)
        except BaselineDiverged as exc:
            raise CliDataError(f"{directory}: {exc}") from None
        reports = per_problem[problem.name] = {}
        for tag, (scores, cost) in zip(TECHNIQUE_TAGS, runs):
            reports[tag] = percent_rank_error(fractional_rank(scores),
                                              problem.annotation, tag)
            cost_rows.append([problem.name, tag, cost.variants_generated,
                              cost.compiled, cost.executed, cost.evaluations])

    names = sorted(per_problem)
    _write_csv(out, "rank_errors.csv",
               ["problem", "technique", "node_id", "rank", "ideal_rank",
                "error", "accuracy", "upper_half"],
               ([name, tag, e.node, ratio_text(e.r_actual),
                 ratio_text(e.r_ideal), ratio_text(e.error),
                 ratio_text(e.accuracy), int(e.upper_half)]
                for name in names for tag in TECHNIQUE_TAGS
                for e in per_problem[name][tag].per_node))

    table = accuracy_table({tag: [reports[tag]
                                  for reports in per_problem.values()]
                            for tag in TECHNIQUE_TAGS})
    _write_csv(out, "accuracy.csv", ["band", *TECHNIQUE_TAGS],
               ([band] + [table[band][t] for t in TECHNIQUE_TAGS]
                for band in ACCURACY_BANDS))

    summary = summary_table(per_problem)
    _write_csv(out, "summary.csv", ["metric", *TECHNIQUE_TAGS],
               ([row] + [summary[row][t] for t in TECHNIQUE_TAGS]
                for row in SUMMARY_ROWS))

    # Accuracy lists paired by improvement node, in (problem, node) order.
    accs = {tag: [e.accuracy for name in names
                  for e in per_problem[name][tag].per_node]
            for tag in TECHNIQUE_TAGS}
    _write_csv(out, "bootstrap.csv",
               ["technique_a", "technique_b", "mean_diff", "ci_low",
                "ci_high", "resamples", "sample_size", "seed"],
               ([a, b, ratio_text(r.mean_diff), ratio_text(r.ci_low),
                 ratio_text(r.ci_high), r.resamples, r.sample_size, r.seed]
                for a, b in BOOTSTRAP_PAIRS
                for r in (bootstrap_diff(accs[a], accs[b], seed=args.seed,
                                         quantiles=args.ci_quantiles),)))

    _write_csv(out, "cost.csv",
               ["problem", "technique", "variants_generated", "compiled",
                "executed", "evaluations"], cost_rows)
    _say(f"wrote reports for {len(per_problem)} problems to {out}")
    return 0


def cmd_validate(args) -> int:
    report = validate_corpus(args.corpus)
    for name in sorted(report):
        print(f"{name}: ok")
    return 0


def _timeout_factor(text: str) -> float:
    """A factor > 1 whose step limits, up to ceil(factor x BOOTSTRAP_LIMIT),
    fit the engines' int64 step counter."""
    try:
        factor = float(text)
    except ValueError:
        raise argparse.ArgumentTypeError(f"not a number: {text!r}")
    if not (math.isfinite(factor) and factor > 1):
        raise argparse.ArgumentTypeError("must be a finite number > 1")
    if math.ceil(factor * BOOTSTRAP_LIMIT) >= 2 ** 63:
        raise argparse.ArgumentTypeError(
            "too large: step limits must fit in 64 bits")
    return factor


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


def _add_run_flags(sub):
    sub.add_argument("--timeout-factor", type=_timeout_factor,
                     default=DEFAULT_TIMEOUT_FACTOR,
                     help="variant step budget as a multiple of the "
                          "original's per-test cost (a finite number > 1)")
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
    se.add_argument("--jobs", type=int, default=1,
                    help="accepted for compatibility (N >= 1); evaluate "
                         "always runs in one process")
    _add_run_flags(se)
    se.set_defaults(func=cmd_evaluate)

    sv = subs.add_parser("validate", help="check every corpus invariant")
    sv.add_argument("--corpus", required=True)
    sv.set_defaults(func=cmd_validate)
    return p


def main(argv=None) -> int:
    parser = build_parser()
    args = parser.parse_args(argv)
    if getattr(args, "jobs", 1) < 1:
        parser.error("--jobs must be >= 1")
    if getattr(args, "seed", 0) is None:
        raw = os.environ.get("PERFLOC_SEED")
        try:
            args.seed = DEFAULT_SEED if raw is None else int(raw)
        except ValueError:
            parser.error("PERFLOC_SEED must be an integer")
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
    except RecursionError:
        _say("error: program nested too deeply")
        return 1


if __name__ == "__main__":
    sys.exit(main())
