"""Execution API over the interpreter engines.

Chooses the compiled engine when it builds and imports (see ``_engine``),
the pure-Python one otherwise; set PERFLOC_ENGINE=py or PERFLOC_ENGINE=c to
force a choice. Every engine runs a whole suite per call through its
``run_tests``.
"""

from __future__ import annotations

import math
import os
from dataclasses import dataclass
from fractions import Fraction
from typing import NamedTuple, Optional, Sequence

from .ir import ProgramIR, build_ir
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
    correctness = Fraction(correct, len(suite)) if suite else Fraction(1)
    return SuiteResult(total, correctness, tuple(outcomes))


def baseline_limits(ir: ProgramIR, suite: Sequence[TestCase],
                    factor: float = DEFAULT_TIMEOUT_FACTOR,
                    engine=None, counts=None
                    ) -> tuple[list[int], SuiteResult]:
    """Per-test limits of max(100, ceil(factor x original steps)). The
    original must complete and pass every test under a generous cap."""
    result = run_suite(ir, suite, [BOOTSTRAP_LIMIT] * len(suite), engine,
                       counts)
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
