"""Execution API over the interpreter engines.

Chooses the compiled engine when it builds and imports (see ``_engine``),
the pure-Python one otherwise; set PERFLOC_ENGINE=py or PERFLOC_ENGINE=c to
force a choice. Every engine runs a suite in one of two ways:

- ``run_tests`` takes a whole ``ProgramIR`` and returns every test's
  status, steps, error and final array, counting each test's statement
  entries into its own array when asked. ``baseline_limits`` runs the
  original this way, in one call, and reads its limits, its divergence
  and any statement counts from these rows; ``run_suite`` summarizes
  them, for deletions and variants built whole.
- ``prepare`` validates an original, packs its suite and runs it once
  (the compiled engine also lowers it once, to linear code);
  ``run_patch`` then runs one ``runtime.ir.Patch`` of it on only the
  tests it is given, counts the original's outcome on every test left
  out, and returns four numbers: total steps, tests passed, and whether
  any test timed out or failed. A patch appends rows and replaces one
  row of the original whole; the compiled engine lowers only the code of
  that row, or of the row above whose code reads it, and links it in
  with one jump. The exhaustive loop runs its splices this way.

Every suite run comes back as a ``Summary`` of those four numbers, its
correctness taken from one ``Fraction(k, n)`` table.
"""

from __future__ import annotations

import math
import os
from fractions import Fraction
from functools import lru_cache
from typing import NamedTuple, Sequence

from .ir import Patch, ProgramIR, build_ir
from . import engine_py

STATUS_NAMES = {engine_py.STATUS_TIMEOUT: "Timeout",
                engine_py.STATUS_ERROR: "RuntimeError"}

DEFAULT_TIMEOUT_FACTOR = 2.5
MIN_STEP_LIMIT = 100
BOOTSTRAP_LIMIT = 10_000_000


def _pick_engine():
    forced = os.environ.get("PERFLOC_ENGINE", "").strip().lower()
    if forced == "py":
        return engine_py, "py"
    try:
        from . import _engine
    except ImportError as exc:
        if forced == "c":
            raise RuntimeError(f"PERFLOC_ENGINE=c: {exc}") from None
        return engine_py, "py"
    return _engine, "c"


_ENGINE, ENGINE_NAME = _pick_engine()


class BaselineDiverged(Exception):
    """The unmutated program itself failed its suite."""


class TestCase(NamedTuple):
    input_array: tuple[int, ...]
    extra_args: tuple[int, ...]
    expected_output: tuple[int, ...]


class Summary(NamedTuple):
    """A suite run: total steps over its tests, the share of them that
    pass, and whether any timed out or stopped on a runtime error."""
    total_cost: int
    correctness: Fraction
    any_timeout: bool
    any_error: bool


@lru_cache(maxsize=None)
def correctness_table(n: int) -> tuple[Fraction, ...]:
    """``Fraction(k, n)`` for k = 0 .. n: the correctness of a run of ``n``
    tests of which k pass. An empty suite is vacuously correct."""
    if not n:
        return (Fraction(1),)
    return tuple(Fraction(k, n) for k in range(n + 1))


compile_program = build_ir


def _summary(runs, suite: Sequence[TestCase]) -> Summary:
    steps, passed, timeout, error = engine_py.summarize(runs, suite)
    return Summary(steps, correctness_table(len(suite))[passed], timeout,
                   error)


def run_suite(ir: ProgramIR, suite: Sequence[TestCase],
              limits: Sequence[int], engine=None) -> Summary:
    """Run every test under its own step limit."""
    return _summary((engine or _ENGINE).run_tests(ir, suite, limits), suite)


class Prepared(NamedTuple):
    engine: object
    handle: object                      # the engine's own
    correctness: tuple[Fraction, ...]   # correctness_table(len(suite))


def prepare(ir: ProgramIR, suite: Sequence[TestCase],
            limits: Sequence[int]) -> Prepared:
    """``ir`` and ``suite``, with one step limit per test, prepared for
    ``run_patch``: the engine validates ``ir`` (ValueError if malformed),
    packs the suite and runs it once."""
    return Prepared(_ENGINE, _ENGINE.prepare(ir, suite, limits),
                    correctness_table(len(suite)))


def run_patch(prepared: Prepared, patch: Patch,
              tests: Sequence[int]) -> Summary:
    """The prepared suite's summary with ``patch`` applied, running only
    the tests numbered ``tests`` (increasing); each test left out counts
    the prepared program's own outcome. The engine validates the patch
    (ValueError if malformed) and undoes it after the run."""
    steps, passed, timeout, error = prepared.engine.run_patch(
        prepared.handle, patch, tests)
    return Summary(steps, prepared.correctness[passed], timeout, error)


def baseline_limits(ir: ProgramIR, suite: Sequence[TestCase],
                    factor: float = DEFAULT_TIMEOUT_FACTOR, counts=None
                    ) -> tuple[list[int], Summary]:
    """Per-test limits of max(100, ceil(factor x original steps)). The
    original must complete and pass every test under a generous cap, in
    one engine call. ``counts``, when given, holds per test an
    ``array('q')``, which tests may share, with a cell per node that gains
    one at every statement entry of the test's run; every engine counts."""
    runs = _ENGINE.run_tests(ir, suite, [BOOTSTRAP_LIMIT] * len(suite),
                             counts)
    for k, (test, (status, _, _, final)) in enumerate(zip(suite, runs)):
        if status != engine_py.STATUS_COMPLETED:
            raise BaselineDiverged(f"original program ends in "
                                   f"{STATUS_NAMES[status]} on case {k}")
        if final != test.expected_output:
            raise BaselineDiverged(
                f"original program is incorrect on case {k}")
    limits = [max(MIN_STEP_LIMIT, math.ceil(factor * steps))
              for _, steps, _, _ in runs]
    return limits, _summary(runs, suite)
