"""Benchmark-corpus tests: suite generation, AST-diff annotation, loading,
and the validation gate."""

import gc
import json
import os
import shutil
from fractions import Fraction

import pytest

from perfloc.corpus import (
    CorpusInvalid, DEFAULT_SEED, SuiteInvalid, diff_improvement_nodes,
    generate_tests, load_problem, problem_dirs,
    suite_from_json, suite_to_json, validate_corpus, validate_problem,
)
from perfloc.lang.ast import (
    AstNode, KIND_BLOCK, KIND_FUNCTION, Program,
)
from perfloc.lang.parser import parse_program
from perfloc.runtime.exec import baseline_limits, compile_program, run_suite
from perfloc.runtime.ir import HEAP_LIMIT

from conftest import CORPUS_DIR, corpus_source
from tree_helpers import programs_equal


# -- test-suite generation ----------------------------------------------

def test_thirty_tests_in_fixed_shape():
    suite = generate_tests(DEFAULT_SEED)
    assert len(suite) == 30
    sizes = [len(t.input_array) for t in suite]
    assert sorted(set(sizes)) == list(range(1, 11))
    assert all(sizes.count(k) == 3 for k in range(1, 11))
    for t in suite:
        assert t.extra_args == (len(t.input_array),)
        assert all(0 <= v <= 99 for v in t.input_array)
        assert t.expected_output == tuple(sorted(t.input_array))


def test_orderings_per_size():
    suite = generate_tests(DEFAULT_SEED)
    by_size = {}
    for t in suite:
        by_size.setdefault(len(t.input_array), []).append(t.input_array)
    for size, arrays in by_size.items():
        assert len(arrays) == 3
        asc, desc, rand = arrays
        assert asc == tuple(sorted(asc))
        assert desc == tuple(sorted(desc, reverse=True))
        assert sorted(asc) == sorted(desc)  # same drawn values


def test_generation_is_seed_deterministic():
    assert generate_tests(7) == generate_tests(7)
    assert generate_tests(7) != generate_tests(8)


SORT = parse_program("void sort(int[] a, int length) { }")


def test_suite_json_round_trip(tmp_path):
    suite = generate_tests(3)
    text = suite_to_json(suite)
    assert suite_from_json(text, SORT) == suite


def _case(inp=(2, 1), expected=(1, 2), args=(2,)):
    return {"input": list(inp), "expected": list(expected),
            "args": list(args)}


@pytest.mark.parametrize("rows, message", [
    ({"input": [1]}, "list of cases"),
    ([_case(), [1, 2]], "case 1: not an object"),
    ([_case(args=(False,))], "case 0: 'args' holds false"),
    ([_case(expected=(1, -2147483649))], "case 0: 'expected' holds"),
    ([_case(expected=(1,))], "case 0: 'expected' has 1 values"),
    ([_case(inp=[0] * (HEAP_LIMIT + 1), expected=[0] * (HEAP_LIMIT + 1))],
     "over the heap limit"),
    ([_case(), _case(args=())], "case 1: 'args' has 0 values"),
    ([_case(args=(2, 2))], "case 0: 'args' has 2 values, but 'sort' takes 1"),
    ([], "a suite needs at least one case"),
])
def test_suite_from_json_rejects_malformed_cases(rows, message):
    with pytest.raises(SuiteInvalid, match=message):
        suite_from_json(json.dumps(rows), SORT)


def test_suite_from_json_accepts_the_int32_extremes():
    (case,) = suite_from_json(json.dumps(
        [_case(inp=(2147483647, -2147483648),
               expected=(-2147483648, 2147483647))]), SORT)
    assert case.input_array == (2147483647, -2147483648)


def test_committed_suites_match_the_default_seed():
    expected = suite_to_json(generate_tests(DEFAULT_SEED))
    for directory in problem_dirs(CORPUS_DIR):
        with open(os.path.join(directory, "suite.json"),
                  encoding="utf-8") as fh:
            assert fh.read() == expected, directory


# -- improvement-node diff ----------------------------------------------

def test_identical_programs_diff_empty():
    p = parse_program(corpus_source("bubble"))
    q = parse_program(corpus_source("bubble"))
    assert diff_improvement_nodes(p, q) == set()


def test_single_literal_change_is_that_literal():
    a = parse_program("void sort(int[] a, int length) { a[0] = 2; }")
    b = parse_program("void sort(int[] a, int length) { a[0] = 1; }")
    diff = diff_improvement_nodes(a, b)
    assert diff == {4}
    assert a.nodes[4].kind == "IntLiteral"


def test_operator_change_is_that_operator():
    a = parse_program("void sort(int[] a, int length) "
                      "{ if (length < 2) { a[0] = 1; } }")
    b = parse_program("void sort(int[] a, int length) "
                      "{ if (length <= 2) { a[0] = 1; } }")
    (node,) = diff_improvement_nodes(a, b)
    assert a.nodes[node].kind == "Operator"


def test_inserted_statement_flags_the_enclosing_block():
    a = parse_program("void sort(int[] a, int length) { a[0] = 1; }")
    b = parse_program("void sort(int[] a, int length) "
                      "{ a[0] = 1; a[0] = 2; }")
    diff = diff_improvement_nodes(a, b)
    assert diff == {1}
    assert a.nodes[1].kind == "Block"


def test_deleted_statement_flags_its_nodes():
    a = parse_program("void sort(int[] a, int length) "
                      "{ a[0] = 1; a[1] = 2; }")
    b = parse_program("void sort(int[] a, int length) { a[1] = 2; }")
    diff = diff_improvement_nodes(a, b)
    assert diff == {2, 4, 5, 8, 9}  # the removed assignment's subtree
    assert a.nodes[2].kind == "Assign"


def test_swapped_statements_flag_the_differing_literals():
    a = parse_program("void sort(int[] a, int length) "
                      "{ a[0] = 1; a[1] = 2; }")
    b = parse_program("void sort(int[] a, int length) "
                      "{ a[1] = 2; a[0] = 1; }")
    assert diff_improvement_nodes(a, b) == {5, 7, 9, 11}


def test_a_long_block_flags_only_the_changed_literal():
    # 60 equal statements, the last one's literal changed: node 181 is
    # that literal (function, block, 60 assignments, then 2 children each)
    def one_block(last):
        body = " ".join(["a[0] = 1;"] * 59 + [f"a[0] = {last};"])
        return parse_program(f"void sort(int[] a, int length) {{ {body} }}")

    a, b = one_block(1), one_block(2)
    assert a.nodes[181].kind == "IntLiteral" and a.nodes[181].value == 1
    assert diff_improvement_nodes(a, b) == {181}
    assert diff_improvement_nodes(b, a) == {181}


def test_bubble_loops_annotation_is_the_outer_header_plus_bound():
    prob = load_problem(os.path.join(CORPUS_DIR, "bubble_loops"))
    assert prob.annotation == frozenset({2, 3, 4, 6, 7, 8, 26})
    kinds = {prob.original.nodes[n].kind for n in prob.annotation}
    assert kinds == {"For", "IntLiteral", "Binary", "Operator", "Identifier"}


def test_single_node_annotations():
    for name, kind in (("insertion", "IntLiteral"),
                       ("selection", "Identifier"),
                       ("selection2", "Identifier"),
                       ("bubble", "Identifier"),
                       ("heap", "IntLiteral"),
                       ("quick", "Operator"),
                       ("radix", "IntLiteral")):
        prob = load_problem(os.path.join(CORPUS_DIR, name))
        assert len(prob.annotation) == 1, name
        (node,) = prob.annotation
        assert prob.original.nodes[node].kind == kind


def test_stripping_the_outer_loop_yields_the_plain_bubble_sort():
    loops = parse_program(corpus_source("bubble_loops"))
    plain = parse_program(corpus_source("bubble"))
    outer = loops.functions[0].children[0].children[0]
    inner_statements = outer.children[2:]  # shared: nodes hold no ids
    func = loops.functions[0]
    stripped_fn = AstNode(KIND_FUNCTION,
                          [AstNode(KIND_BLOCK, inner_statements)],
                          name=func.name, ret_type=func.ret_type,
                          params=func.params)
    assert programs_equal(Program([stripped_fn]), plain)


def test_the_diff_leaves_no_cyclic_garbage(problems):
    # Its memos hold thousands of sets; they must die when the diff
    # returns, not wait for a cyclic collection.
    merge = problems["merge"]
    gc.collect()
    gc.disable()
    try:
        flags = diff_improvement_nodes(merge.original,
                                       merge.improved[merge.designated])
        assert gc.collect() == 0
    finally:
        gc.enable()
    assert flags == merge.annotation


# Every problem's annotation, recorded from the diff before any change to
# it; a faster diff must reproduce these sets exactly.
ANNOTATIONS = {
    "bubble": {20},
    "bubble_loops": {2, 3, 4, 6, 7, 8, 26},
    "cocktail": {1, 3, 23, 37, 38, 39},
    "heap": {57},
    "insertion": {3},
    "merge": {5, 6, 8, 21, 22, 23, 24, 25, 27, 28, 29, 59, 60, 61, 62, 63,
              64, 65, 68, 69, 70, 71, 72, 119, 120, 121, 122, 123, 124, 125,
              126},
    "quick": {16},
    "radix": {20},
    "selection": {12},
    "selection2": {17},
    "shell": {35, 37},
}


def test_every_corpus_annotation_is_pinned(problems):
    # load_problem annotates with diff_improvement_nodes
    assert {name: set(p.annotation) for name, p in problems.items()} \
        == ANNOTATIONS


# The diff from each designated improved version back to its original,
# recorded like ANNOTATIONS; node ids are the improved version's.
REVERSE_ANNOTATIONS = {
    "bubble": {20, 31, 33},
    "bubble_loops": {1, 20, 31, 33},
    "cocktail": {3, 7, 8, 12, 14, 15, 16, 25, 26, 32, 38, 39, 40},
    "heap": {57},
    "insertion": {3},
    "merge": {3, 48},
    "quick": {16},
    "radix": {20},
    "selection": {12, 24, 26},
    "selection2": {17, 27, 29},
    "shell": {35, 37},
}


def test_every_reverse_diff_is_pinned(problems):
    assert {name: set(diff_improvement_nodes(p.improved[p.designated],
                                             p.original))
            for name, p in problems.items()} == REVERSE_ANNOTATIONS


# -- loading and validation ---------------------------------------------

def test_problem_dirs_lists_all_eleven():
    names = [os.path.basename(d) for d in problem_dirs(CORPUS_DIR)]
    assert names == sorted(["insertion", "bubble", "bubble_loops",
                            "selection", "selection2", "shell", "radix",
                            "quick", "cocktail", "merge", "heap"])


def test_load_problem_fields():
    prob = load_problem(os.path.join(CORPUS_DIR, "bubble_loops"))
    assert prob.name == "BubbleLoops"
    assert len(prob.improved) == 1 and prob.designated == 0
    assert prob.improvement_pct == pytest.approx(59.9)
    assert prob.notes
    assert len(prob.suite) == 30
    assert prob.annotation


def test_shipped_corpus_validates():
    report = validate_corpus(CORPUS_DIR)
    assert sorted(report) == [os.path.basename(d)
                              for d in problem_dirs(CORPUS_DIR)]
    assert all(failures == [] for failures in report.values())


def test_improvements_are_strictly_cheaper(problems):
    for name, prob in problems.items():
        limits, base = baseline_limits(compile_program(prob.original),
                                       prob.suite)
        improved = compile_program(prob.improved[prob.designated])
        improved_cost = run_suite(improved, prob.suite, limits).total_cost
        assert improved_cost < base.total_cost, name
        assert Fraction(base.total_cost - improved_cost, base.total_cost) > 0


def _copy_problem(tmp_path, name):
    src = os.path.join(CORPUS_DIR, name)
    dst = tmp_path / name
    shutil.copytree(src, dst)
    return dst


def test_slower_improved_version_fails_validation(tmp_path):
    dst = _copy_problem(tmp_path, "bubble")
    shutil.copyfile(dst / "original.mini", dst / "improved-1.mini")
    failures = validate_problem(str(dst))
    assert any("cheaper" in f or "cost" in f for f in failures)
    with pytest.raises(CorpusInvalid) as err:
        validate_corpus(str(tmp_path))
    assert err.value.failures


def test_missing_improved_version_fails_validation(tmp_path):
    dst = _copy_problem(tmp_path, "bubble")
    os.remove(dst / "improved-1.mini")
    with pytest.raises(CorpusInvalid):
        validate_corpus(str(tmp_path))


def test_broken_source_fails_validation(tmp_path):
    dst = _copy_problem(tmp_path, "bubble")
    with open(dst / "original.mini", "a", encoding="utf-8") as fh:
        fh.write("}{")
    failures = validate_problem(str(dst))
    assert failures


def test_incorrect_improved_version_fails_validation(tmp_path):
    dst = _copy_problem(tmp_path, "bubble")
    with open(dst / "improved-1.mini", "w", encoding="utf-8") as fh:
        fh.write("void sort(int[] a, int length) { }\n")
    failures = validate_problem(str(dst))
    assert any("correct" in f for f in failures)


def test_problem_json_is_read_for_the_designated_version(tmp_path):
    dst = _copy_problem(tmp_path, "bubble")
    meta = json.loads((dst / "problem.json").read_text())
    meta["improved"] = "improved-9.mini"
    (dst / "problem.json").write_text(json.dumps(meta))
    with pytest.raises(CorpusInvalid):
        load_problem(str(dst))
