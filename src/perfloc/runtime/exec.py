"""Execution API over the interpreter engines.

Chooses the compiled engine when it builds and imports (see ``_engine``),
the pure-Python one otherwise; set PERFLOC_ENGINE=py or PERFLOC_ENGINE=c to
force a choice. Every engine runs a suite in one of two ways:

- ``run_tests`` takes a whole ``ProgramIR`` and returns every test's
  status, steps, error and final array. ``run_suite`` wraps it, for
  originals (``baseline_limits``, the profile), deletions and variants
  built whole.
- ``prepare`` validates an original and packs its suite once, and runs it
  once; ``run_patch`` then runs one ``runtime.ir.Patch`` of it on only
  the tests it is given, counts the original's outcome on every test left
  out, and returns four numbers: total steps, tests passed, and whether
  any test timed out or failed. The exhaustive loop runs its splices this
  way.

Both take a suite's correctness from one ``Fraction(k, n)`` table.
"""

from __future__ import annotations

import math
import os
from array import array
from dataclasses import dataclass
from fractions import Fraction
from functools import lru_cache
from itertools import compress
from typing import NamedTuple, Optional, Sequence

from .ir import Patch, ProgramIR, build_ir
from . import engine_py

STATUS_NAMES = {0: "Completed", 1: "Timeout", 2: "RuntimeError"}
ERROR_NAMES = {0: None, 1: "IndexOutOfBounds", 2: "DivideByZero",
               3: "StackOverflow"}

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


@dataclass(frozen=True)
class TestCase:
    input_array: tuple[int, ...]
    extra_args: tuple[int, ...]
    expected_output: tuple[int, ...]


class ExecutionOutcome(NamedTuple):
    status: str
    steps: int
    final_array: Optional[tuple[int, ...]]
    error_kind: Optional[str]


@dataclass(frozen=True)
class SuiteResult:
    total_cost: int
    correctness: Fraction
    per_test: tuple[ExecutionOutcome, ...]

    @property
    def any_timeout(self) -> bool:
        return any(o.status == "Timeout" for o in self.per_test)

    @property
    def any_error(self) -> bool:
        return any(o.status == "RuntimeError" for o in self.per_test)


class Summary(NamedTuple):
    """A suite run as ``run_patch`` returns it; a ``SuiteResult`` has the
    same four fields."""
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


def run_suite(ir: ProgramIR, suite: Sequence[TestCase],
              limits: Sequence[int], engine=None,
              counts=None) -> SuiteResult:
    """Run every test under its own step limit. ``counts``, when given,
    is an ``array('q')`` with a cell per node that gains one at every
    statement entry; every engine counts."""
    runs = (engine or _ENGINE).run_tests(ir, suite, limits, counts)
    outcomes = []
    correct = 0
    total = 0
    for test, (status, steps, err, final) in zip(suite, runs):
        outcomes.append(ExecutionOutcome(STATUS_NAMES[status], steps, final,
                                         ERROR_NAMES[err]))
        total += steps
        if final == test.expected_output:
            correct += 1
    return SuiteResult(total, correctness_table(len(suite))[correct],
                       tuple(outcomes))


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


def entering_tests(ir: ProgramIR, suite: Sequence[TestCase],
                   limits: Sequence[int]) -> list[tuple[int, ...]]:
    """For each IR row, the numbers of the tests whose run enters it at
    least once (only statements are entered): one counted run per test."""
    entered: list[list[int]] = [[] for _ in ir.kind]
    for k, (test, limit) in enumerate(zip(suite, limits, strict=True)):
        counts = array("q", [0]) * len(ir.kind)
        _ENGINE.run_tests(ir, (test,), (limit,), counts)
        for i in compress(range(len(counts)), counts):
            entered[i].append(k)
    return [tuple(tests) for tests in entered]


def baseline_limits(ir: ProgramIR, suite: Sequence[TestCase],
                    factor: float = DEFAULT_TIMEOUT_FACTOR, counts=None
                    ) -> tuple[list[int], SuiteResult]:
    """Per-test limits of max(100, ceil(factor x original steps)). The
    original must complete and pass every test under a generous cap."""
    result = run_suite(ir, suite, [BOOTSTRAP_LIMIT] * len(suite),
                       counts=counts)
    for test, outcome in zip(suite, result.per_test):
        if outcome.status != "Completed":
            raise BaselineDiverged(
                f"original program {outcome.status} on test {test}")
        if outcome.final_array != test.expected_output:
            raise BaselineDiverged(
                f"original program is incorrect on test {test}")
    limits = [max(MIN_STEP_LIMIT, math.ceil(factor * o.steps))
              for o in result.per_test]
    return limits, result
