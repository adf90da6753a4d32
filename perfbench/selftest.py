"""Self-test of the benchmark's own generator and output checks.

    python3 perfbench/selftest.py

Exits 1 and names each failure if the seeded generator is not repeatable,
an expected output is not Python's ``sorted``, the checks reject a valid
report, or they accept a report with one tampered rank row. ``run.py``
runs the same test before it measures.
"""

import os
import shutil
import sys

import checks
import workloads

# A hand-computed report for one problem of N = 4 nodes with one
# improvement node (ideal rank 1): rank 2.5 gives error 1.5/4 = 0.375 and
# accuracy 100 * (1 - 1.5/4) = 62.5.
VALID = {
    "rank_errors.csv":
        "problem,technique,node_id,rank,ideal_rank,error,accuracy,upper_half\n"
        "P,Profiler,3,4.0,1.0,0.75,25.0,0\n"
        "P,Deletion,3,1.0,1.0,0.0,100.0,1\n"
        "P,Exhaustive,3,2.5,1.0,0.375,62.5,1\n"
        "P,Combined,3,2.5,1.0,0.375,62.5,1\n",
    "accuracy.csv":
        "band,Profiler,Deletion,Exhaustive,Combined\n"
        "99-100,0,1,0,0\n60-70,0,0,1,1\n20-30,1,0,0,0\n",
    "summary.csv":
        "metric,Profiler,Deletion,Exhaustive,Combined\n"
        "upper_half_nodes,0,1,1,1\nlower_half_nodes,1,0,0,0\n",
    "bootstrap.csv": "technique_a,technique_b,mean_diff\n",
    "cost.csv":
        "problem,technique,variants_generated,compiled,executed,evaluations\n"
        "P,Profiler,0,0,0,1\nP,Deletion,3,2,2,2\n"
        "P,Exhaustive,40,10,10,10\nP,Combined,43,12,12,12\n",
}
TAMPERED_ROW = ("P,Exhaustive,3,2.5,1.0,0.375,62.5,1\n",
                "P,Exhaustive,3,3.5,1.0,0.375,62.5,1\n")


def generator_failures():
    failures = []
    for name, spec in workloads.WORKLOADS.items():
        sizes = spec["sizes"]
        if sizes is None:
            continue
        suite = workloads.generate_suite(7, sizes)
        if suite != workloads.generate_suite(7, sizes):
            failures.append(f"{name}: same seed gave different suites")
        if suite == workloads.generate_suite(8, sizes):
            failures.append(f"{name}: seeds 7 and 8 gave the same suite")
        if [len(t["input"]) for t in suite] != list(sizes):
            failures.append(f"{name}: test sizes differ from {sizes}")
        for test in suite:
            if test["expected"] != sorted(test["input"]):
                failures.append(f"{name}: expected output is not sorted()")
                break
    return failures


def check_failures(reports, directory):
    os.makedirs(directory, exist_ok=True)
    for name, text in reports.items():
        with open(os.path.join(directory, name), "w", encoding="utf-8") as fh:
            fh.write(text)
    return checks.check_reports(directory, {"P": 4})[0]


def run(scratch):
    """All self-test failures; writes its sample reports under scratch."""
    failures = generator_failures()
    valid_errors = check_failures(VALID, os.path.join(scratch, "valid"))
    failures += [f"valid report rejected: {e}" for e in valid_errors]
    tampered = dict(VALID)
    tampered["rank_errors.csv"] = VALID["rank_errors.csv"].replace(
        *TAMPERED_ROW)
    if not check_failures(tampered, os.path.join(scratch, "tampered")):
        failures.append("report with a tampered rank row was accepted")
    return failures


if __name__ == "__main__":
    root = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))
    scratch = os.path.join(root, ".perfbench", f"selftest-{os.getpid()}")
    try:
        problems = run(scratch)
    finally:
        shutil.rmtree(scratch, ignore_errors=True)
    for p in problems:
        print(f"FAIL {p}")
    print("selftest:", "failed" if problems else "ok")
    sys.exit(1 if problems else 0)
