#!/usr/bin/env python3
"""Compare the AST diff with its unpruned oracle on every ordered pair of
distinct corpus programs, and fail on any difference.

Usage: python3 scripts/diff_parity.py [--corpus DIR]

Every ``*.mini`` file of every problem directory, originals and improved
versions alike, is diffed against every other one in both directions:
22 programs make 462 pairs. ``perfloc.corpus.diff_improvement_nodes``,
the branch-and-bound diff, must return exactly the set of
``tests/diff_oracle.py``, which computes every candidate move in full.

Prints the pair count, the mismatch count and the elapsed time, and one
line per mismatch; exits 1 on any mismatch. The oracle dominates the
time, about 15 s; Tier-1 compares a fixed slice of these pairs
(``tests/test_corpus.py``).
"""
import argparse
import glob
import os
import sys
import time

HERE = os.path.dirname(os.path.abspath(__file__))
sys.path.insert(0, os.path.join(HERE, "..", "src"))
sys.path.insert(0, os.path.join(HERE, "..", "tests"))

from perfloc.corpus import diff_improvement_nodes, load_program  # noqa: E402

import diff_oracle  # noqa: E402


def corpus_programs(corpus: str) -> list[tuple[str, object]]:
    """(``problem/file``, program) of every corpus program, sorted."""
    paths = sorted(glob.glob(os.path.join(corpus, "*", "*.mini")))
    return [(os.path.relpath(p, corpus), load_program(p)) for p in paths]


def main():
    ap = argparse.ArgumentParser(description=__doc__)
    ap.add_argument("--corpus", default=os.path.join(HERE, "..", "corpus"))
    args = ap.parse_args()
    programs = corpus_programs(args.corpus)
    start = time.perf_counter()
    pairs = mismatches = 0
    for a_name, a in programs:
        for b_name, b in programs:
            if a is b:
                continue
            pairs += 1
            got = diff_improvement_nodes(a, b)
            want = diff_oracle.diff_improvement_nodes(a, b)
            if got != want:
                mismatches += 1
                print(f"mismatch: {a_name} -> {b_name}: {sorted(got)}, "
                      f"oracle {sorted(want)}")
    print(f"{pairs} pairs, {mismatches} mismatches, "
          f"{time.perf_counter() - start:.1f} s")
    return 1 if mismatches else 0


if __name__ == "__main__":
    sys.exit(main())
