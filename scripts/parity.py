#!/usr/bin/env python3
"""Run every compiled exhaustive variant of the corpus originals on both
engines, and fail on any difference.

Usage: python3 scripts/parity.py [--corpus DIR]

A variant its typed hole accepts is a splice patch on the original's IR,
and one the hole gives no verdict on is built, checked and lowered, as in
the exhaustive loop. Each variant's whole IR runs on ``engine_py`` and on
the compiled engine with its problem's committed suite, under the
original's step limits and with a statement counter per IR row and
test. The two must agree on every test's status, steps, error and final
array, and on every test's counts. Each engine's ``run_patch`` summary
must then equal the summary of those full runs: a splice runs as its
patch on the prepared original, on only the tests that reach its target
in the original's ``mutation.Baseline``, as in the exhaustive loop; a
built variant runs as the empty patch on itself, prepared.

Prints the variant count, the mismatch count, how many of the splices'
test runs were left out, and the elapsed time, and one line per mismatch;
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
from perfloc.mutation import baseline, exhaustive_descriptors
from perfloc.runtime import engine_py
from perfloc.runtime.exec import compile_program
from perfloc.runtime.ir import Splices, apply_patch, empty_patch


def compiled_variants(program, ir):
    """(descriptor, patch on ``ir`` or None, whole IR) of every exhaustive
    variant of ``program`` that compiles; ``ir`` is the original's."""
    holes = Holes(program)
    splices = Splices(ir, holes)
    for d in exhaustive_descriptors(program):
        accepted, slots = holes.fit(d.target, d.donor, d.donor_id)
        if accepted:
            patch = splices.patch(d.target, d.donor, d.donor_id, slots)
            yield d, patch, apply_patch(ir, patch)
        elif accepted is None:
            variant = replace_node(program, d.target, d.donor)
            if not static_check(variant):
                yield d, None, compile_program(variant)


def run(engine, ir, suite, limits):
    counts = [array("q", [0]) * len(ir.kind) for _ in suite]
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
    engines = (engine_py, _engine)
    start = time.perf_counter()
    compared = mismatches = test_runs = left_out = 0
    for directory in problem_dirs(args.corpus):
        problem = load_problem(directory)
        program, suite = problem.original, problem.suite
        base = baseline(program, suite)
        ir, limits, reach = base.ir, base.limits, base.reach
        prepared = [engine.prepare(ir, suite, limits) for engine in engines]
        every = tuple(range(len(suite)))
        for d, patch, variant in compiled_variants(program, ir):
            compared += 1
            test_runs += len(suite)
            full = run(engine_py, variant, suite, limits)
            same = full == run(_engine, variant, suite, limits)
            if patch is None:
                summaries = [engine.run_patch(
                                 engine.prepare(variant, suite, limits),
                                 empty_patch(), every)
                             for engine in engines]
            else:
                tests = reach[d.target]
                left_out += len(suite) - len(tests)
                summaries = [engine.run_patch(handle, patch, tests)
                             for engine, handle in zip(engines, prepared)]
            expected = engine_py.summarize(full[0], suite)
            if not same or summaries != [expected, expected]:
                mismatches += 1
                print(f"mismatch: {os.path.basename(directory)} node "
                      f"{d.target} <- {d.donor_label}")
    print(f"{compared} variants, {mismatches} mismatches, {left_out} of "
          f"{test_runs} test runs left out, "
          f"{time.perf_counter() - start:.1f} s")
    return 1 if mismatches else 0


if __name__ == "__main__":
    sys.exit(main())
