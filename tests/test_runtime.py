"""Interpreter tests: hand-traced step counts, error paths, int32 semantics,
suite aggregation, and bit-identical behaviour of the two engines.

Each step-count constant below was counted by hand from the cost rules
(+1 per statement entry, +1 per expression-node evaluation, operators and
binding occurrences free) before the first run, then frozen.
"""

import math
import os
import shutil
import subprocess
import sys
from array import array
from importlib.machinery import EXTENSION_SUFFIXES

import pytest
from hypothesis import given, settings, strategies as st

import perfloc
from perfloc.lang.ast import KIND_INCDEC, KIND_VARDECL
from perfloc.lang.check import Holes, static_check
from perfloc.lang.edit import replace_node
from perfloc.lang.parser import parse_program
from perfloc.mutation import exhaustive_descriptors
from perfloc.runtime import engine_py
from perfloc.runtime.exec import (
    BOOTSTRAP_LIMIT, BaselineDiverged, MIN_STEP_LIMIT,
    baseline_limits, compile_program, run_suite,
)
from perfloc.runtime.exec import TestCase as Case
from perfloc.runtime.ir import build_ir, splice_ir


def execute(ir, test, step_limit, engine=None, counts=None):
    """Run the entry function on one test; see ``run_suite``."""
    return run_suite(ir, (test,), (step_limit,), engine, counts).per_test[0]


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


def test_run_suite_aggregates_partial_costs():
    text = ("void sort(int[] a, int length) "
            "{ if (a[0] > 90) { while (true) { } } a[length] = 0; }")
    suite = [Case((99,), (1,), (99,)), Case((1,), (1,), (1,))]
    ir = ir_for(text)
    result = run_suite(ir, suite, [50, 50])
    assert [o.status for o in result.per_test] == ["Timeout", "RuntimeError"]
    assert result.total_cost == 50 + result.per_test[1].steps
    assert result.correctness == 0


def test_run_suite_identity_program_correctness():
    text = "void sort(int[] a, int length) { }"
    suite = [
        Case((1, 2), (2,), (1, 2)),   # already sorted: passes
        Case((2, 1), (2,), (1, 2)),   # needs work: fails
    ]
    result = run_suite(ir_for(text), suite, [100, 100])
    assert result.correctness == pytest.approx(0.5)
    assert result.total_cost == 2


def test_run_suite_empty_is_vacuously_correct():
    result = run_suite(ir_for("void sort(int[] a, int length) { }"), [], [])
    assert result.total_cost == 0 and result.correctness == 1


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
    with pytest.raises(BaselineDiverged):
        baseline_limits(ir_for(bad), [Case((1,), (1,), (1,))], 2.5)
    wrong = "void sort(int[] a, int length) { a[0] = 0 - 1; }"
    with pytest.raises(BaselineDiverged):
        baseline_limits(ir_for(wrong), [Case((3,), (1,), (3,))], 2.5)


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
    """Per corpus original: its suite run with counts, run without, and the
    counts."""
    for name, problem in sorted(problems.items()):
        ir = compile_program(problem.original)
        limits = [BOOTSTRAP_LIMIT] * len(problem.suite)
        counts = array("q", [0]) * len(ir.kind)
        counted = run_suite(ir, problem.suite, limits, engine, counts)
        plain = run_suite(ir, problem.suite, limits, engine)
        yield name, counted, plain, counts


def test_counting_runs_match_plain_runs(problems):
    # Statement counting (the profiler's single evaluation) must not change
    # what a run computes, on whichever engine is active.
    for name, counted, plain, counts in _counted_suites(problems, None):
        assert counted == plain, name
        program = problems[name].original
        body = program.first[program.entry_index()]
        assert counts[body] == len(plain.per_test), name


def test_counting_runs_match_compiled_runs(problems, c_engine):
    tallies = {}
    for engine in (engine_py, c_engine):
        for name, counted, plain, counts in _counted_suites(problems, engine):
            assert counted == plain, name
            tallies.setdefault(name, []).append(list(counts))
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


@pytest.mark.parametrize("bad", [
    "list", "short", "long", "wrong format", "read-only",
])
def test_the_compiled_engine_refuses_bad_counts(bad, c_engine):
    from conftest import corpus_source
    ir = ir_for(corpus_source("bubble_loops"))
    n = len(ir.kind)
    counts = {"list": [0] * n, "short": array("q", [0]) * (n - 1),
              "long": array("q", [0]) * (n + 1),
              "wrong format": array("i", [0]) * (2 * n),
              "read-only": bytes(8 * n)}[bad]
    test = Case((3, 1, 2), (3,), (1, 2, 3))
    with pytest.raises(TypeError, match="counts"):
        c_engine.run_tests(ir, [test], [BOOTSTRAP_LIMIT], counts)


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
# engine must accept (its ``validate`` checks every row) and run alike.
PARITY_STRIDE = 7


def test_engines_agree_on_a_slice_of_the_corpus_variants(problems, c_engine):
    compared = spliced = 0
    for name, problem in sorted(problems.items()):
        program = problem.original
        base = compile_program(program)
        limits, _ = baseline_limits(base, problem.suite)
        holes = Holes(program)
        descriptors = exhaustive_descriptors(program)
        for d in descriptors[::PARITY_STRIDE]:
            irs = []
            variant = replace_node(program, d.target, d.donor)
            if not static_check(variant):
                irs.append(compile_program(variant))
            accepted, slots = holes.fit(d.target, d.donor, d.donor_id)
            if accepted:
                irs.append(splice_ir(base, program, d.target,
                                     d.donor, d.donor_id, slots))
                spliced += 1
            for ir in irs:
                expected = engine_py.run_tests(ir, problem.suite, limits)
                found = c_engine.run_tests(ir, problem.suite, limits)
                assert found == expected, (name, d.target, d.donor_label)
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
    assert ir.a[incdec] == slots[decl] == 2
    # the operand holds the slot too; neither engine reads it
    assert ir.a[program.first[incdec] + 1] == 2
    # a function with no locals still gets a frame slot
    assert [f.n_slots for f in ir.functions] == [1, 3]
    assert program.frames.sizes == [0, 3]
    assert ir.entry == 1


def test_build_ir_refuses_a_program_the_checker_rejects():
    program = parse_program("void sort(int[] a, int length) { a[0] = y; }")
    with pytest.raises(ValueError, match="does not compile.*y"):
        build_ir(program)
    static_check(program)
    with pytest.raises(ValueError, match="UndeclaredIdentifier"):
        compile_program(program)
