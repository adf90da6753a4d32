#!/usr/bin/env python3
"""Run every compiled exhaustive variant of the corpus originals on both
engines, and fail on any difference.

Usage: python3 scripts/parity.py [--corpus DIR]

A variant its typed hole accepts runs as a splice of the original's IR,
and one the hole gives no verdict on is built, checked and lowered, as in
the exhaustive loop. Each runs on ``engine_py`` and on the compiled engine
with its problem's committed suite, under the original's step limits and
with a statement counter per IR row. The two must agree on every test's
status, steps, error and final array, and on the counts.

Prints the variant count and the elapsed time, and one line per mismatch;
exits 1 on any mismatch, or when the compiled engine cannot be built.
``engine_py`` runs about 1.6 Msteps/s, so a whole run takes a few minutes;
Tier-1 compares a fixed slice of these variants instead
(``tests/test_runtime.py``).
"""
import argparse
import os
import sys
import time
from array import array

sys.path.insert(0, os.path.join(os.path.dirname(__file__), "..", "src"))

from perfloc.corpus import load_problem, problem_dirs
from perfloc.lang.check import Holes, static_check
from perfloc.lang.edit import replace_node
from perfloc.mutation import exhaustive_descriptors
from perfloc.runtime import engine_py
from perfloc.runtime.exec import baseline_limits, compile_program
from perfloc.runtime.ir import splice_ir


def compiled_variants(program):
    """(descriptor, IR) of every exhaustive variant of ``program`` that
    compiles."""
    ir = compile_program(program)
    holes = Holes(program)
    for d in exhaustive_descriptors(program):
        accepted, slots = holes.fit(d.target, d.donor, d.donor_id)
        if accepted:
            yield d, splice_ir(ir, program.parent[d.target], d.target,
                               d.donor, d.donor_id, slots)
        elif accepted is None:
            variant = replace_node(program, d.target, d.donor)
            if not static_check(variant):
                yield d, compile_program(variant)


def run(engine, ir, suite, limits):
    counts = array("q", [0]) * len(ir.kind)
    return engine.run_tests(ir, suite, limits, counts), counts


def main():
    ap = argparse.ArgumentParser(description=__doc__)
    ap.add_argument("--corpus", default=os.path.join(
        os.path.dirname(__file__), "..", "corpus"))
    args = ap.parse_args()
    try:
        from perfloc.runtime import _engine
    except ImportError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 1
    start = time.perf_counter()
    compared = mismatches = 0
    for directory in problem_dirs(args.corpus):
        problem = load_problem(directory)
        program = problem.original
        limits, _ = baseline_limits(compile_program(program), problem.suite)
        for d, ir in compiled_variants(program):
            compared += 1
            if run(engine_py, ir, problem.suite, limits) \
                    != run(_engine, ir, problem.suite, limits):
                mismatches += 1
                print(f"mismatch: {os.path.basename(directory)} node "
                      f"{d.target} <- {d.donor_label}")
    print(f"{compared} variants, {mismatches} mismatches, "
          f"{time.perf_counter() - start:.1f} s")
    return 1 if mismatches else 0


if __name__ == "__main__":
    sys.exit(main())
