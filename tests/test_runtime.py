"""Interpreter tests: hand-traced step counts, error paths, int32 semantics,
suite aggregation, and bit-identical behaviour of the two engines.

Each step-count constant below was counted by hand from the cost rules
(+1 per statement entry, +1 per expression-node evaluation, operators and
binding occurrences free) before the first run, then frozen.
"""

import importlib.util
import json
import math
import os
import shutil
import subprocess
import sys
from array import array
from fractions import Fraction
from importlib.machinery import EXTENSION_SUFFIXES
from typing import NamedTuple, Optional

import pytest
from hypothesis import given, settings, strategies as st

import perfloc
from perfloc.lang.ast import KIND_INCDEC, KIND_VARDECL
from perfloc.lang.check import Holes, static_check
from perfloc.lang.edit import replace_node
from perfloc.lang.parser import parse_program
from perfloc.mutation import baseline, exhaustive_descriptors
from perfloc.runtime import engine_py
from perfloc.runtime.exec import (
    BOOTSTRAP_LIMIT, BaselineDiverged, MIN_STEP_LIMIT, Summary,
    baseline_limits, compile_program, run_suite,
)
from perfloc.runtime.exec import TestCase as Case
from perfloc.runtime.ir import HEAP_LIMIT, Splices, apply_patch, build_ir

from conftest import run_tests

STATUS = {engine_py.STATUS_COMPLETED: "Completed",
          engine_py.STATUS_TIMEOUT: "Timeout",
          engine_py.STATUS_ERROR: "RuntimeError"}
ERROR = {engine_py.ERR_NONE: None, engine_py.ERR_INDEX: "IndexOutOfBounds",
         engine_py.ERR_DIV: "DivideByZero",
         engine_py.ERR_STACK: "StackOverflow"}


class Run(NamedTuple):
    """A ``run_tests`` row with its status and error named."""
    status: str
    steps: int
    error_kind: Optional[str]
    final_array: Optional[tuple[int, ...]]


def execute(ir, test, step_limit, engine=None, counts=None):
    """Run the entry function on one test, on ``engine``, by default the
    active one, counting into ``counts`` when given."""
    (status, steps, err, final), = run_tests(
        ir, (test,), (step_limit,), engine,
        None if counts is None else [counts])
    return Run(STATUS[status], steps, ERROR[err], final)


def ir_for(text: str):
    return compile_program(parse_program(text))


def run1(text: str, array, extra=(), limit=BOOTSTRAP_LIMIT, engine=None):
    test = Case(tuple(array), tuple(extra), tuple(sorted(array)))
    return execute(ir_for(text), test, limit, engine=engine)


# Hand-traces: program text, input array, extra args, expected steps,
# expected final array.
TRACES = [
    ("void sort(int[] a, int length) { }", (5,), (1,), 1, (5,)),
    ("void sort(int[] a, int length) { a[0] = 7; }", (5,), (1,), 6, (7,)),
    ("void sort(int[] a, int length) { int x = 3; a[0] = x; }",
     (9,), (1,), 8, (3,)),
    # && evaluates both sides here: 1 if + 1 cond + 3 lhs + 5 rhs + 1 &&.
    ("void sort(int[] a, int length) "
     "{ if (length > 0 && a[0] > 100) { a[0] = 1; } }",
     (50,), (1,), 11, (50,)),
    # short circuit: the right operand costs nothing.
    ("void sort(int[] a, int length) "
     "{ if (length < 0 && a[0] > 100) { a[0] = 1; } }",
     (50,), (1,), 6, (50,)),
    # while: 1 decl+init(2) + while(1) + 3 cond checks x3 + 2 body x2.
    ("void sort(int[] a, int length) { int i = 0;"
     " while (i < length) { i++; } }",
     (4, 3), (2,), 17, (4, 3)),
    # for: block 1, for 1, init 1, cond 3+3, body 5.
    ("void sort(int[] a, int length) "
     "{ for (int i = 0; i < length; i++) { a[0] = i; } }",
     (9,), (1,), 14, (0,)),
    # x++ yields the value before the update.
    ("void sort(int[] a, int length) { int x = 5; a[0] = x++; a[1] = x; }",
     (0, 0), (2,), 13, (5, 6)),
]


@pytest.mark.parametrize("text,arr,extra,steps,final", TRACES)
def test_hand_traced_step_counts(text, arr, extra, steps, final):
    out = run1(text, arr, extra)
    assert out.status == "Completed"
    assert out.steps == steps
    assert out.final_array == final
    assert out.error_kind is None


def test_timeout_steps_equal_the_limit_exactly():
    out = run1("void sort(int[] a, int length) { while (true) { } }",
               (1,), (1,), limit=1000)
    assert out.status == "Timeout"
    assert out.steps == 1000
    assert out.final_array is None


def test_timeout_fires_even_on_the_final_event():
    text = "void sort(int[] a, int length) { }"
    out = run1(text, (1,), (1,), limit=1)
    assert out.status == "Timeout" and out.steps == 1
    assert run1(text, (1,), (1,), limit=2).status == "Completed"


def test_index_out_of_bounds():
    out = run1("void sort(int[] a, int length) { a[length] = 0; }",
               (1,), (1,))
    assert out.status == "RuntimeError"
    assert out.error_kind == "IndexOutOfBounds"
    assert out.steps == 6  # all operands evaluate before the store checks
    assert out.final_array is None
    neg = run1("void sort(int[] a, int length) { a[0 - 1] = 0; }", (1,), (1,))
    assert neg.error_kind == "IndexOutOfBounds"


def test_divide_by_zero_and_modulo():
    out = run1("void sort(int[] a, int length) { a[0] = 1 / 0; }", (1,), (1,))
    assert (out.status, out.error_kind) == ("RuntimeError", "DivideByZero")
    out = run1("void sort(int[] a, int length) { a[0] = 1 % 0; }", (1,), (1,))
    assert out.error_kind == "DivideByZero"


def test_stack_overflow_on_unbounded_recursion():
    out = run1("void sort(int[] a, int length) { sort(a, length); }",
               (1,), (1,))
    assert (out.status, out.error_kind) == ("RuntimeError", "StackOverflow")


@pytest.mark.parametrize("expr,expected", [
    ("2147483647 + 1", -2147483648),
    ("(0 - 2147483647 - 1) - 1", 2147483647),
    ("(0 - 2147483647 - 1) / (0 - 1)", -2147483648),
    ("(0 - 2147483647 - 1) % (0 - 1)", 0),
    ("(0 - 7) / 2", -3),
    ("(0 - 7) % 2", -1),
    ("7 / 2", 3),
    ("7 % 2", 1),
    ("65536 * 65536", 0),
    ("1 + 2 * 3", 7),
])
def test_int32_arithmetic(expr, expected):
    out = run1(f"void sort(int[] a, int length) {{ a[0] = {expr}; }}",
               (0,), (1,))
    assert out.status == "Completed"
    # stored values are themselves int32
    assert out.final_array[0] == expected


def test_new_array_builtin_zero_fills():
    text = ("void sort(int[] a, int length) {"
            " int[] b = newArray(3); b[2] = 9;"
            " a[0] = b[0] + b[2]; }")
    out = run1(text, (1,), (1,))
    assert out.status == "Completed"
    assert out.final_array == (9,)


def test_new_array_negative_size_faults():
    out = run1("void sort(int[] a, int length) "
               "{ int[] b = newArray(0 - 1); a[0] = 0; }", (1,), (1,))
    assert out.error_kind == "IndexOutOfBounds"


def test_call_and_return_value():
    text = ("int twice(int x) { return x + x; }\n"
            "void sort(int[] a, int length) { a[0] = twice(21); }")
    out = run1(text, (0,), (1,))
    assert out.status == "Completed" and out.final_array == (42,)


def test_entry_is_the_sort_function_regardless_of_order():
    text = ("int helper(int x) { return x; }\n"
            "void sort(int[] a, int length) { a[0] = 5; }")
    out = run1(text, (0,), (1,))
    assert out.final_array == (5,)


def summary_of_rows(ir, suite, limits, engine):
    """The ``Summary`` of ``engine``'s own rows of ``suite``."""
    rows = engine.run_tests(ir, suite, limits)
    passed = sum(final == test.expected_output
                 for (_, _, _, final), test in zip(rows, suite))
    return Summary(sum(steps for _, steps, _, _ in rows),
                   Fraction(passed, len(suite)) if suite else Fraction(1),
                   any(row[0] == engine_py.STATUS_TIMEOUT for row in rows),
                   any(row[0] == engine_py.STATUS_ERROR for row in rows))


def test_run_suite_aggregates_partial_costs(engine):
    text = ("void sort(int[] a, int length) "
            "{ if (a[0] > 90) { while (true) { } } a[length] = 0; }")
    suite = [Case((99,), (1,), (99,)), Case((1,), (1,), (1,))]
    ir = ir_for(text)
    result = run_suite(ir, suite, [50, 50], engine)
    assert result == summary_of_rows(ir, suite, [50, 50], engine)
    runs = [execute(ir, test, 50, engine) for test in suite]
    assert [r.status for r in runs] == ["Timeout", "RuntimeError"]
    assert result.total_cost == 50 + runs[1].steps
    assert result.correctness == 0
    assert result.any_timeout and result.any_error


def test_run_suite_identity_program_correctness(engine):
    text = "void sort(int[] a, int length) { }"
    suite = [
        Case((1, 2), (2,), (1, 2)),   # already sorted: passes
        Case((2, 1), (2,), (1, 2)),   # needs work: fails
    ]
    ir = ir_for(text)
    result = run_suite(ir, suite, [100, 100], engine)
    assert result == summary_of_rows(ir, suite, [100, 100], engine)
    assert result.correctness == pytest.approx(0.5)
    assert result.total_cost == 2
    assert not (result.any_timeout or result.any_error)


def test_run_suite_empty_is_vacuously_correct(engine):
    ir = ir_for("void sort(int[] a, int length) { }")
    result = run_suite(ir, [], [], engine)
    assert result == summary_of_rows(ir, [], [], engine)
    assert result.total_cost == 0 and result.correctness == 1
    assert not (result.any_timeout or result.any_error)


def test_baseline_limits_formula():
    # the trace above fixes this program's cost at 14 steps
    text = ("void sort(int[] a, int length) "
            "{ for (int i = 0; i < length; i++) { a[0] = i; } }")
    suite = [Case((9,), (1,), (0,))]
    limits, result = baseline_limits(ir_for(text), suite, 2.5)
    assert limits == [max(MIN_STEP_LIMIT, math.ceil(2.5 * 14))] == [100]
    assert result.total_cost == 14
    limits, _ = baseline_limits(ir_for(text), suite, 10.0)
    assert limits == [140]


def test_baseline_limits_rejects_diverging_original():
    bad = "void sort(int[] a, int length) { while (true) { } }"
    with pytest.raises(BaselineDiverged, match="ends in Timeout on case 0"):
        baseline_limits(ir_for(bad), [Case((1,), (1,), (1,))], 2.5)
    wrong = "void sort(int[] a, int length) { a[0] = 0 - 1; }"
    with pytest.raises(BaselineDiverged, match="incorrect on case 1"):
        baseline_limits(ir_for(wrong), [Case((-1,), (1,), (-1,)),
                                        Case((3,), (1,), (3,))], 2.5)
    crash = "void sort(int[] a, int length) { a[length] = 0; }"
    with pytest.raises(BaselineDiverged,
                       match="ends in RuntimeError on case 0"):
        baseline_limits(ir_for(crash), [Case((1,), (1,), (1,))], 2.5)


ENGINE_CASES = [
    (text, arr, extra) for text, arr, extra, _, _ in TRACES
] + [
    ("void sort(int[] a, int length) { while (true) { } }", (1,), (1,)),
    ("void sort(int[] a, int length) { a[length] = 0; }", (1,), (1,)),
    ("void sort(int[] a, int length) { a[0] = 1 / 0; }", (1,), (1,)),
    ("void sort(int[] a, int length) { sort(a, length); }", (1,), (1,)),
    # a wrapped product compared before any store could truncate it
    ("void sort(int[] a, int length) "
     "{ if (65536 * 65536 < 1) { a[0] = 1; } }", (5,), (1,)),
    # one cell past the heap limit
    ("void sort(int[] a, int length) { int[] b = newArray(1048576); }",
     (1,), (1,)),
]


@pytest.mark.parametrize("text,arr,extra", ENGINE_CASES)
def test_engines_agree_everywhere(text, arr, extra, c_engine):
    ir = ir_for(text)
    test = Case(tuple(arr), tuple(extra), tuple(sorted(arr)))
    for limit in (7, 1000):
        a = execute(ir, test, limit, engine=engine_py)
        b = execute(ir, test, limit, engine=c_engine)
        assert a == b


@given(st.lists(st.integers(0, 99), min_size=1, max_size=10))
@settings(max_examples=40, deadline=None)
def test_engines_agree_on_bubble_sort_runs(c_engine, values):
    from conftest import corpus_source
    ir = ir_for(corpus_source("bubble_loops"))
    test = Case(tuple(values), (len(values),), tuple(sorted(values)))
    a = execute(ir, test, BOOTSTRAP_LIMIT, engine=engine_py)
    b = execute(ir, test, BOOTSTRAP_LIMIT, engine=c_engine)
    assert a == b
    assert a.status == "Completed"
    assert a.final_array == tuple(sorted(values))


def _counted_suites(problems, engine):
    """Per corpus original: the rows of its suite run with counts, run
    without, and each test's counts."""
    for name, problem in sorted(problems.items()):
        ir = compile_program(problem.original)
        limits = [BOOTSTRAP_LIMIT] * len(problem.suite)
        counts = [array("q", [0]) * len(ir.kind) for _ in problem.suite]
        counted = run_tests(ir, problem.suite, limits, engine, counts)
        plain = run_tests(ir, problem.suite, limits, engine)
        yield name, counted, plain, counts


def test_counting_runs_match_plain_runs(problems):
    # Statement counting (the profiler's single evaluation) must not change
    # what a run computes, on whichever engine is active.
    for name, counted, plain, counts in _counted_suites(problems, None):
        assert counted == plain, name
        program = problems[name].original
        body = program.first[program.entry_index()]
        assert [tally[body] for tally in counts] == [1] * len(plain), name


def test_counting_runs_match_compiled_runs(problems, c_engine):
    tallies = {}
    for engine in (engine_py, c_engine):
        for name, counted, plain, counts in _counted_suites(problems, engine):
            assert counted == plain, name
            tallies.setdefault(name, []).append(list(map(list, counts)))
    assert len(tallies) == 11
    for name, (py_counts, c_counts) in tallies.items():
        assert py_counts == c_counts, name


def test_counting_stops_at_the_timeout(c_engine):
    # A statement whose step reaches the limit is not counted as entered;
    # the limits below end the run on statement and expression steps alike.
    ir = ir_for("void sort(int[] a, int length) "
                "{ while (true) { length = length + 1; } }")
    test = Case((1,), (1,), (1,))
    for limit in range(1, 16):
        counts = {}
        for label, engine in (("py", engine_py), ("c", c_engine)):
            counts[label] = array("q", [0]) * len(ir.kind)
            outcome = execute(ir, test, limit, engine, counts[label])
            assert outcome.status == "Timeout"
        assert counts["py"] == counts["c"], limit


# Every opcode of the IR, both kinds of call, a void function that falls
# off its end, a For of each direction, and an If with an empty then-branch
# and one with no else: the compiled engine lowers each to different code.
EVERY_OPCODE = """
int pick(int x, bool up) {
  if (up && x > 0 || !up) { return x * 2; }
  return -x;
}

void idle() { }

void nothing() {
  return;
}

void sort(int[] a, int length) {
  int t;
  int[] b = newArray(length);
  for (int i = 0; i < length; i++) { b[i] = a[i] % 7 + i / 2 - 1; }
  for (int j = length - 1; j >= 0; j--) { t = t + b[j]; }
  int k = 0;
  while (k < length && k <= 5) {
    if (b[k] != t || false) { a[k] = pick(a[k], k >= 1); } else { nothing(); }
    if (b[k] == 0) { } else { k++; }
    if (!(k > 100)) { }
    k--;
    k++;
  }
  idle();
}
"""


def test_every_step_limit_stops_both_engines_alike(c_engine):
    """Both engines give the same run, and the same counts, at every step
    limit from 1 to one past the whole run: every step of every opcode
    lands at the same point. Runs with counts and runs without are
    lowered apart, so both are swept."""
    ir = ir_for(EVERY_OPCODE)
    assert set(ir.kind) == set(range(max(ir.kind) + 1))
    test = Case((5, 3, 9, 1), (4,), (1, 3, 5, 9))
    whole = execute(ir, test, BOOTSTRAP_LIMIT, engine_py)
    assert whole.status == "Completed" and whole.steps == 350
    for limit in range(1, whole.steps + 2):
        runs, tallies = [], []
        for engine in (engine_py, c_engine):
            tally = array("q", [0]) * len(ir.kind)
            runs.append(execute(ir, test, limit, engine, tally))
            tallies.append(tally)
            assert execute(ir, test, limit, engine) == runs[-1], limit
        assert runs[0] == runs[1], limit
        assert tallies[0] == tallies[1], limit
        assert runs[0].status == ("Timeout" if limit <= whole.steps
                                  else "Completed")


FAULTS = [
    # each fault sits inside an expression, after steps of its own
    ("a[0] = a[1 + length * 2] + 1;", "IndexOutOfBounds"),
    ("a[length - 1 + length] = 3 * a[0];", "IndexOutOfBounds"),
    ("a[0] = 1 + a[0] / (length - length);", "DivideByZero"),
    ("a[0] = (a[0] + 1) % (a[0] - a[0]);", "DivideByZero"),
    ("int[] b = newArray(a[0] - 10);", "IndexOutOfBounds"),
    ("int[] b = newArray(1048576 - length + 1);", "IndexOutOfBounds"),
]


@pytest.mark.parametrize("statement,error", FAULTS)
def test_a_fault_lands_on_the_same_step_in_both_engines(statement, error,
                                                       c_engine):
    """At every limit up to the faulting step, and past it, both engines
    stop alike: a step taken after the fault's operation instead of
    before would turn the Timeout at the faulting step into the fault."""
    ir = ir_for("void sort(int[] a, int length) "
                f"{{ int x = length + 1; if (x > 0) {{ {statement} }} }}")
    test = Case((2, 1), (2,), (1, 2))
    fault = execute(ir, test, BOOTSTRAP_LIMIT, engine_py)
    assert (fault.status, fault.error_kind) == ("RuntimeError", error)
    for limit in range(1, fault.steps + 2):
        runs = [execute(ir, test, limit, engine)
                for engine in (engine_py, c_engine)]
        assert runs[0] == runs[1], limit
        assert runs[0].status == ("Timeout" if limit <= fault.steps
                                  else "RuntimeError")


DEPTH = """
int down(int n) {
  if (n == 0) { return 0; }
  return down(n - 1) + 1;
}

void sort(int[] a, int length) { a[0] = down(length); }
"""


def test_recursion_to_the_stack_limit_faults_alike(c_engine):
    # sort runs at depth 0, so down(510) reaches depth 511, the deepest
    # frame there is, and down(511) one more
    ir = ir_for(DEPTH)
    runs = {}
    for n in (510, 511):
        test = Case((7,), (n,), (n,))
        runs[n] = [execute(ir, test, BOOTSTRAP_LIMIT, engine)
                   for engine in (engine_py, c_engine)]
        assert runs[n][0] == runs[n][1], n
    assert runs[510][0].status == "Completed"
    assert runs[510][0].final_array == (510,)
    assert runs[511][0].error_kind == "StackOverflow"
    # the fault comes after the deepest call's argument: 7 steps of sort's
    # before down(511), then 11 in each of down(511) .. down(1)
    assert runs[511][0].steps == 7 + 511 * 11


def test_deep_expressions_in_deep_recursion_keep_off_the_c_stack(c_engine):
    """A call 500 deep, each frame inside an expression 40 levels deep,
    runs in a thread with a 256 KiB C stack: neither the program's calls
    nor its expressions take C stack."""
    nested = "n" + " + (n" * 40 + ")" * 40
    text = ("int deep(int n) { if (n == 0) { return 0; } "
            f"return deep(n - 1) + ({nested}) % 2; }}\n"
            "void sort(int[] a, int length) { a[0] = deep(length); }")
    ir = ir_for(text)
    test = Case((0,), (500,), (0,))
    expected = execute(ir, test, BOOTSTRAP_LIMIT, engine_py)
    assert expected.status == "Completed"
    script = (
        "import sys, threading\n"
        "from perfloc.lang.parser import parse_program\n"
        "from perfloc.runtime import _engine\n"
        "from perfloc.runtime.exec import TestCase, compile_program\n"
        "ir = compile_program(parse_program(sys.stdin.read()))\n"
        "test = TestCase((0,), (500,), (0,))\n"
        "out = []\n"
        "threading.stack_size(256 * 1024)\n"
        "worker = threading.Thread(target=lambda: out.append(\n"
        "    _engine.run_tests(ir, [test], [10 ** 7])))\n"
        "worker.start()\n"
        "worker.join()\n"
        "print(out[0][0][:2])\n")
    env = dict(os.environ, PYTHONPATH=os.pathsep.join(
        [os.path.dirname(os.path.dirname(perfloc.__file__))]
        + sys.path))
    run = subprocess.run([sys.executable, "-c", script], input=text,
                         env=env, capture_output=True, text=True)
    assert run.returncode == 0, run.stderr[-500:]
    assert run.stdout == f"(0, {expected.steps})\n"


@pytest.mark.parametrize("bad", [
    "list", "short", "long", "wrong format", "read-only",
])
def test_the_compiled_engine_refuses_bad_counts(bad, c_engine):
    # each test's array is checked: here the second test's is bad
    from conftest import corpus_source
    ir = ir_for(corpus_source("bubble_loops"))
    n = len(ir.kind)
    counts = {"list": [0] * n, "short": array("q", [0]) * (n - 1),
              "long": array("q", [0]) * (n + 1),
              "wrong format": array("i", [0]) * (2 * n),
              "read-only": bytes(8 * n)}[bad]
    test = Case((3, 1, 2), (3,), (1, 2, 3))
    good = array("q", [0]) * n
    with pytest.raises(TypeError, match="counts"):
        c_engine.run_tests(ir, [test, test], [BOOTSTRAP_LIMIT] * 2,
                           [good, counts])
    # and there must be one per test
    with pytest.raises(TypeError, match="counts"):
        c_engine.run_tests(ir, [test, test], [BOOTSTRAP_LIMIT] * 2, [good])


BIG = (0,) * (HEAP_LIMIT + 1)


@pytest.mark.parametrize("error,message,test", [
    (ValueError, "input_array exceeds the heap", Case(BIG, (1,), BIG)),
    (ValueError, "more arguments than the entry function's frame",
     Case((1,), (1, 2, 3, 4), (1,))),
    (OverflowError, None, Case((2 ** 31,), (1,), (2 ** 31,))),
])
def test_the_compiled_engine_keeps_the_suite_inside_its_memory(
        error, message, test, c_engine):
    """``run_tests`` and ``prepare`` refuse an input past the heap, more
    extra args than the entry frame holds (four cells, twice ``sort``'s two
    slots), and a value outside int32. This holds for the compiled engine
    only: ``engine_py`` has no memory to guard and does not check these
    cases (it runs the first and third, and raises IndexError on the
    second)."""
    ir = ir_for("void sort(int[] a, int length) { }")
    with pytest.raises(error, match=message):
        c_engine.run_tests(ir, [test], [BOOTSTRAP_LIMIT])
    with pytest.raises(error, match=message):
        c_engine.prepare(ir, [test], [BOOTSTRAP_LIMIT])


UNEVEN = "lengths that are negative or do not add up to the values"


@pytest.mark.parametrize("layout,message", [
    ((2, 4, -1, 100), UNEVEN),   # adds up, with a negative length
    ((2, 2, 0, 100), UNEVEN),
    ((2, 2, 2, 100), UNEVEN),
    ((2, 2, 1), "four layout cells per test"),
])
def test_the_compiled_engine_refuses_a_malformed_packed_suite(
        layout, message, c_engine):
    """The raw entry points of ``engine.c`` take the suite as ``_engine``
    packs it: five values here, a two-cell input, its expected output and
    one extra arg. A layout whose lengths are negative or do not add up to
    the values, or that does not hold four cells per test, raises
    ValueError; values that are not an array('i') raise TypeError."""
    ir = ir_for("void sort(int[] a, int length) { }")
    values = array("i", [2, 1, 1, 2, 2])
    packed = array("q", (2, 2, 1, 100))
    assert c_engine._module.run_tests(ir, values, packed) \
        == [(0, 1, 0, (2, 1))]
    for entry in (c_engine._module.run_tests, c_engine._module.prepare):
        with pytest.raises(ValueError, match=f"malformed suite: {message}"):
            entry(ir, values, array("q", layout))
        with pytest.raises(TypeError, match="values must be an array"):
            entry(ir, array("q", values), packed)


def test_the_parity_script_runs_on_a_small_corpus(tmp_path, monkeypatch,
                                                  capsys, c_engine):
    """``scripts/parity.py`` on ``bubble_loops`` with three tests: its
    variants include one built whole, and splices that leave test runs
    out."""
    root = os.path.join(os.path.dirname(__file__), os.pardir)
    problem = tmp_path / "bubble_loops"
    shutil.copytree(os.path.join(root, "corpus", "bubble_loops"), problem)
    suite = [{"input": values, "args": [len(values)],
              "expected": sorted(values)}
             for values in ([3, 1, 2], [2, 1], [5])]
    (problem / "suite.json").write_text(json.dumps(suite))
    spec = importlib.util.spec_from_file_location(
        "parity", os.path.join(root, "scripts", "parity.py"))
    parity = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(parity)
    monkeypatch.setattr(sys, "argv", ["parity.py", "--corpus",
                                      str(tmp_path)])
    assert parity.main() == 0
    assert capsys.readouterr().out.startswith(
        "318 variants, 0 mismatches, 214 of 954 test runs left out, ")


def test_a_failed_build_falls_back_unless_c_is_forced(tmp_path, c_engine):
    # c_engine: this needs a working compiler, as the engine itself does
    shutil.copytree(os.path.dirname(perfloc.__file__), tmp_path / "perfloc",
                    ignore=shutil.ignore_patterns("__pycache__"))
    source = tmp_path / "perfloc" / "runtime" / "engine.c"
    source.write_text(source.read_text() + "\nthis is not C;\n")
    env = dict(os.environ, PYTHONPATH=str(tmp_path), PERFLOC_ENGINE="")
    argv = [sys.executable, "-c",
            "from perfloc.runtime import ENGINE_NAME; print(ENGINE_NAME)"]
    run = subprocess.run(argv, env=env, capture_output=True, text=True)
    assert run.stdout == "py\n"
    env["PERFLOC_ENGINE"] = "c"
    run = subprocess.run(argv, env=env, capture_output=True, text=True)
    assert run.returncode != 0
    last = run.stderr.splitlines()[-1]
    assert "engine.c:" in last and "error" in last, last


def test_a_build_deletes_the_stale_builds_beside_it(tmp_path, c_engine):
    suffix = EXTENSION_SUFFIXES[0]
    stale = tmp_path / f"_engine.00000000{suffix}"
    unrelated = tmp_path / "notes.txt"
    stale.write_bytes(b"an old build")
    unrelated.write_text("kept")
    target = tmp_path / f"_engine.12345678{suffix}"
    c_engine._build(str(target))
    assert sorted(p.name for p in tmp_path.iterdir()) \
        == sorted([target.name, unrelated.name])


# Every PARITY_STRIDE-th exhaustive variant of every corpus problem, in the
# order exhaustive_descriptors lists them: about 3,500 variants, of which
# about 1,000 compile. Fixed before the first comparison ran. The 983 a hole
# accepts also run as splices of the original's IR, which the compiled
# engine must accept (its ``validate`` checks every row) and run alike,
# and as patches on the prepared original, on only the tests that reach
# their target, whose summary must be the full runs'.
PARITY_STRIDE = 7


def test_engines_agree_on_a_slice_of_the_corpus_variants(problems, c_engine):
    compared = spliced = 0
    for name, problem in sorted(problems.items()):
        program, suite = problem.original, problem.suite
        original = baseline(program, suite)
        base, limits = original.ir, original.limits
        prepared = c_engine.prepare(base, suite, limits)
        holes = Holes(program)
        splices = Splices(base, holes)
        descriptors = exhaustive_descriptors(program)
        for d in descriptors[::PARITY_STRIDE]:
            irs = []
            variant = replace_node(program, d.target, d.donor)
            if not static_check(variant):
                irs.append(compile_program(variant))
            accepted, slots = holes.fit(d.target, d.donor, d.donor_id)
            if accepted:
                patch = splices.patch(d.target, d.donor, d.donor_id, slots)
                irs.append(apply_patch(base, patch))
                spliced += 1
            for ir in irs:
                expected = engine_py.run_tests(ir, suite, limits)
                found = c_engine.run_tests(ir, suite, limits)
                assert found == expected, (name, d.target, d.donor_label)
            if accepted:   # ``expected`` holds the splice's runs
                assert c_engine.run_patch(prepared, patch,
                                          original.reach[d.target]) \
                    == engine_py.summarize(expected, suite), \
                    (name, d.target, d.donor_label)
            compared += bool(irs)
    assert compared > 900
    assert spliced == 983


def test_execution_is_deterministic():
    text = ("void sort(int[] a, int length) "
            "{ for (int i = 0; i < length; i++) { a[i] = a[i] * 3 % 7; } }")
    ir = ir_for(text)
    test = Case((5, 6, 2), (3,), (0, 0, 0))
    outs = {execute(ir, test, 10_000) for _ in range(3)}
    assert len(outs) == 1


def test_build_ir_copies_the_checkers_slots():
    program = parse_program(
        "int one() { return 1; }\n"
        "void sort(int[] a, int length) { int x = one(); a[0] = x++; }")
    ir = build_ir(program)  # checks the program on the way
    slots = program.frames.slots
    incdec = next(i for i, n in enumerate(program.nodes)
                  if n.kind == KIND_INCDEC)
    decl = next(i for i, n in enumerate(program.nodes)
                if n.kind == KIND_VARDECL)
    # an IncDec reads its variable's slot from its operand
    assert ir.a[program.first[incdec] + 1] == slots[decl] == 2
    # every frame holds twice the largest function's slots
    assert program.frames.sizes == [0, 3]
    assert ir.n_slots == 6
    assert ir.entry == 1
    # a program with no variables still gets a frame slot
    assert build_ir(parse_program("void sort() { }")).n_slots == 1


def test_build_ir_refuses_a_program_the_checker_rejects():
    program = parse_program("void sort(int[] a, int length) { a[0] = y; }")
    with pytest.raises(ValueError, match="does not compile.*y"):
        build_ir(program)
    static_check(program)
    with pytest.raises(ValueError, match="UndeclaredIdentifier"):
        compile_program(program)
