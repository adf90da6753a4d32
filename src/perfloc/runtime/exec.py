"""Execution API over the interpreter engines.

Chooses the compiled engine when it imported cleanly, the pure-Python one
otherwise; set PERFLOC_ENGINE=py or PERFLOC_ENGINE=c to force a choice.
"""

from __future__ import annotations

import math
import os
from dataclasses import dataclass
from fractions import Fraction
from typing import Optional, Sequence

from .ir import ProgramIR, build_ir, pack_array
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
    except ImportError:
        if forced == "c":
            raise RuntimeError(
                "PERFLOC_ENGINE=c but the compiled engine is not built")
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


@dataclass(frozen=True)
class ExecutionOutcome:
    status: str
    steps: int
    final_array: Optional[tuple[int, ...]]
    error_kind: Optional[str]


@dataclass(frozen=True)
class SuiteResult:
    total_cost: int
    correctness: Fraction
    per_test: tuple[ExecutionOutcome, ...]


def execute(ir: ProgramIR, test: TestCase, step_limit: int,
            engine=None, counts=None) -> ExecutionOutcome:
    """Run the entry function on one test. ``counts``, when given, holds a
    cell per node that gains one at every statement entry; only
    ``engine_py`` counts, so it runs those tests whatever ``engine`` is."""
    heap = list(test.input_array)
    args = [pack_array(0, len(heap))] + list(test.extra_args)
    if counts is None:
        status, steps, err = (engine or _ENGINE).run(
            ir, ir.entry, args, heap, step_limit)
    else:
        status, steps, err = engine_py.run(ir, ir.entry, args, heap,
                                           step_limit, counts)
    final = tuple(heap[:len(test.input_array)]) if status == 0 else None
    return ExecutionOutcome(STATUS_NAMES[status], steps, final,
                            ERROR_NAMES[err])


compile_program = build_ir


def run_suite(ir: ProgramIR, suite: Sequence[TestCase],
              limits: Sequence[int], engine=None,
              counts=None) -> SuiteResult:
    outcomes = []
    correct = 0
    total = 0
    for test, limit in zip(suite, limits):
        outcome = execute(ir, test, limit, engine, counts)
        outcomes.append(outcome)
        total += outcome.steps
        if outcome.final_array == test.expected_output:
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
