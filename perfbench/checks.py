"""Output checks for the five ``perfloc evaluate`` reports.

Every check recomputes what it compares from the reports and from the
benchmark's own data; none calls into perfloc. A check returns a list of
problem descriptions, empty when the reports pass.
"""

import csv
import hashlib
import json
import os
from collections import Counter
from fractions import Fraction

REPORTS = ("rank_errors.csv", "accuracy.csv", "summary.csv", "bootstrap.csv",
           "cost.csv")
TECHNIQUES = ("Profiler", "Deletion", "Exhaustive", "Combined")
COST_COLUMNS = ("variants_generated", "compiled", "executed", "evaluations")


def _rows(out_dir, name):
    with open(os.path.join(out_dir, name), encoding="utf-8",
              newline="") as fh:
        return list(csv.DictReader(fh))


def _fmt(value):
    """perfloc writes exact rationals as the shortest round-trip float."""
    return repr(float(value))


def node_counts(problem_dirs, counts_by_dir):
    """Display name (from problem.json) -> node count N of the original."""
    out = {}
    for directory in problem_dirs:
        with open(os.path.join(directory, "problem.json"),
                  encoding="utf-8") as fh:
            name = json.load(fh)["name"]
        out[name] = counts_by_dir[os.path.basename(directory)]
    return out


def check_rank_errors(rows, n_nodes):
    errors = []
    per_group = Counter((r["problem"], r["technique"]) for r in rows)
    for problem in n_nodes:
        for tech in TECHNIQUES:
            if per_group[(problem, tech)] == 0:
                errors.append(f"rank_errors.csv: no rows for {problem}/{tech}")
    for i, row in enumerate(rows, start=2):
        where = f"rank_errors.csv line {i}"
        n = n_nodes.get(row["problem"])
        if n is None:
            errors.append(f"{where}: unknown problem {row['problem']!r}")
            continue
        rank = Fraction(row["rank"])
        if not 1 <= rank <= n:
            errors.append(f"{where}: rank {rank} outside 1..{n}")
            continue
        ideal = Fraction(per_group[(row["problem"], row["technique"])] + 1, 2)
        accuracy = 100 * (1 - (rank - 1) / n)
        expect = {"ideal_rank": _fmt(ideal), "error": _fmt((rank - ideal) / n),
                  "accuracy": _fmt(accuracy),
                  "upper_half": str(int(accuracy >= 50))}
        for column, value in expect.items():
            if row[column] != value:
                errors.append(f"{where}: {column} {row[column]} != {value} "
                              f"recomputed from rank {row['rank']}, N={n}")
    return errors


def check_accuracy(acc_rows, summary_rows, rank_rows):
    errors = []
    summary = {r["metric"]: r for r in summary_rows}
    n_rank_rows = Counter(r["technique"] for r in rank_rows)
    for tech in TECHNIQUES:
        banded = sum(int(r[tech]) for r in acc_rows)
        halves = (int(summary["upper_half_nodes"][tech])
                  + int(summary["lower_half_nodes"][tech]))
        if not banded == halves == n_rank_rows[tech]:
            errors.append(f"{tech}: accuracy.csv counts {banded}, summary.csv "
                          f"halves {halves}, rank_errors.csv rows "
                          f"{n_rank_rows[tech]}")
    return errors


def check_cost(cost_rows):
    """Combined = Exhaustive + Deletion per problem. Returns (errors, sum of
    the Combined rows' variants_generated)."""
    errors = []
    by_problem = {}
    for r in cost_rows:
        by_problem.setdefault(r["problem"], {})[r["technique"]] = r
    variants = 0
    for problem, techs in by_problem.items():
        if set(techs) != set(TECHNIQUES):
            errors.append(f"cost.csv: {problem} has {sorted(techs)}")
            continue
        for column in COST_COLUMNS:
            combined = int(techs["Combined"][column])
            parts = (int(techs["Exhaustive"][column])
                     + int(techs["Deletion"][column]))
            if combined != parts:
                errors.append(f"cost.csv: {problem} {column} Combined "
                              f"{combined} != Exhaustive + Deletion {parts}")
        variants += int(techs["Combined"]["variants_generated"])
    return errors, variants


def check_reports(out_dir, n_nodes):
    """All checks on one report directory. Returns (errors, variants)."""
    missing = [n for n in REPORTS
               if not os.path.isfile(os.path.join(out_dir, n))]
    if missing:
        return [f"missing reports: {', '.join(missing)}"], 0
    try:
        rank_rows = _rows(out_dir, "rank_errors.csv")
        errors = check_rank_errors(rank_rows, n_nodes)
        errors += check_accuracy(_rows(out_dir, "accuracy.csv"),
                                 _rows(out_dir, "summary.csv"), rank_rows)
        cost_errors, variants = check_cost(_rows(out_dir, "cost.csv"))
    except (KeyError, ValueError, ZeroDivisionError) as exc:
        return [f"malformed report: {exc!r}"], 0
    return errors + cost_errors, variants


def digest(out_dir):
    """SHA-256 over the five reports, names included, in a fixed order."""
    h = hashlib.sha256()
    for name in REPORTS:
        h.update(name.encode() + b"\0")
        with open(os.path.join(out_dir, name), "rb") as fh:
            h.update(fh.read())
        h.update(b"\0")
    return h.hexdigest()
