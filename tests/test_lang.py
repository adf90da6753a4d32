"""Parser, printer, static checker and tree-surgery tests."""

import hashlib
import itertools
from collections import namedtuple

import pytest

from perfloc.lang.ast import (
    BINARY_LEVELS, BINARY_OPS, CATEGORY, CAT_DECLARATION, CAT_EXPRESSION, CAT_OPERATOR, CAT_STATEMENT,
    KIND_ASSIGN, KIND_BLOCK, KIND_FOR, KIND_IDENT, KIND_IF, KIND_INT,
    KIND_OPERATOR, KIND_VARDECL, STATEMENT_KINDS,
    Program, structurally_equal,
)
from perfloc.lang.check import static_check
from perfloc.lang.edit import (
    CategoryMismatch, NotAStatement, delete_statement, empty_function_body,
    replace_node, statement_ids,
)
from perfloc.lang.parser import ParseError, parse_program
from perfloc.lang.printer import render_program, render_snippet
from perfloc.mutation import exhaustive_descriptors
from perfloc.runtime.ir import build_ir

from conftest import corpus_source
from tree_helpers import clone, programs_equal, subtree, unshared

PROBLEMS = ("insertion", "bubble", "bubble_loops", "selection", "selection2",
            "shell", "radix", "quick", "cocktail", "merge", "heap")


@pytest.mark.parametrize("name", PROBLEMS)
def test_round_trip_is_a_fixpoint(name):
    src = corpus_source(name)
    once = parse_program(src)
    text = render_program(once)
    twice = parse_program(text)
    assert programs_equal(once, twice)
    assert render_program(twice) == text


def test_bubble_loops_shape():
    p = parse_program(corpus_source("bubble_loops"))
    assert len(p.nodes) == 58
    stmts = statement_ids(p)
    assert stmts == [1, 2, 5, 11, 17, 22, 23, 24]
    assert [p.nodes[s].kind for s in stmts] == [
        "Block", "For", "For", "For", "If", "VarDecl", "Assign", "Assign"]
    assert p.nodes[2].loop_var == "h"
    assert p.nodes[2].loop_step == "++"
    assert p.nodes[17].then_count == 3


@pytest.mark.parametrize("name", PROBLEMS)
def test_ids_are_breadth_first_and_contiguous(name):
    p = parse_program(corpus_source(name))
    assert_dense_index(p)


def test_structural_equality_ignores_position():
    a = parse_program("void sort(int[] a, int length) { a[0] = 1 + 2; }")
    b = parse_program("void  sort ( int[] a , int length )\n"
                      "{ a[0] = 1 + 2; }")
    assert programs_equal(a, b)
    assert a.nodes[0].structural_hash() == b.nodes[0].structural_hash()
    c = parse_program("void sort(int[] a, int length) { a[0] = 1 + 3; }")
    assert not programs_equal(a, c)


def test_structurally_equal_subtrees_within_one_program():
    p = parse_program(corpus_source("bubble"))
    swaps = [n for n in p.nodes if render_snippet(n) == "a[j]"]
    assert len(swaps) >= 2
    assert structurally_equal(swaps[0], swaps[1])


@pytest.mark.parametrize("text", [
    "void sort(int[] a, int length) { a[0] = 1 }",
    "void sort(int[] a, int length) { if a[0] > 1 { } }",
    "void sort(int[] a, int length) { a[0] = ; }",
    "void sort(int[] a, int length) { } trailing",
    "int x = 1;",
    "void sort(int[] a, int length) { for (i = 0; i < 2; i++) { } }",
])
def test_parse_errors(text):
    with pytest.raises(ParseError):
        parse_program(text)


def test_parse_error_carries_position():
    with pytest.raises(ParseError) as err:
        parse_program("void sort(int[] a, int length) {\n  a[0] = 1\n}")
    assert "3:" in str(err.value)


@pytest.mark.parametrize("statement, col", [
    ("a[0] = \u00b2;", 12),       # superscript two: a digit to str.isdigit
    ("int \u00e9 = 1;", 9),       # e acute: a letter to str.isalpha
    ("a[0] = \u0663;", 12),       # Arabic-Indic three: a decimal digit
])
def test_tokens_are_ascii(statement, col):
    with pytest.raises(ParseError) as err:
        parse_program(f"void sort(int[] a, int length) {{\n    {statement}\n}}")
    assert "unexpected character" in str(err.value)
    assert (err.value.line, err.value.col) == (2, col)


def test_end_of_input_is_at_the_end_of_the_text():
    # a trailing comment does not hold the position at its start
    with pytest.raises(ParseError) as err:
        parse_program("void sort(int[] a, int length) {\n// no brace")
    assert str(err.value) == "2:12: expected '}', got 'end of input'"


def test_binary_levels_hold_every_binary_operator_once():
    level_ops = [op for ops, _, _ in BINARY_LEVELS for op in ops]
    assert len(level_ops) == len(set(level_ops)) == len(BINARY_OPS)
    assert set(BINARY_OPS) == set(level_ops)


def _outer_op(statement):
    expr = statement.children[0]
    return (expr.kind, expr.children[0].op)


def test_operators_round_trip_in_every_grouping():
    """Every ordered pair of binary operators, grouped either way, and
    each unary operator over each binary one survives parse, render and
    parse, with the grouping the source's parentheses give."""
    cases = []
    for p, q in itertools.product(BINARY_OPS, repeat=2):
        cases.append((f"(a {p} b) {q} c;", ("Binary", q)))
        cases.append((f"a {p} (b {q} c);", ("Binary", p)))
    for p, u in itertools.product(BINARY_OPS, ("-", "!")):
        cases.append((f"{u}(a {p} b);", ("Unary", u)))
        cases.append((f"{u}a {p} b;", ("Binary", p)))
    text = "void f() {\n%s\n}\n" % "\n".join(c for c, _ in cases)
    once = parse_program(text)
    twice = parse_program(render_program(once))
    body_once = once.functions[0].children[0].children
    body_twice = twice.functions[0].children[0].children
    assert len(body_once) == len(body_twice) == len(cases)
    for (source, outer), a, b in zip(cases, body_once, body_twice):
        assert _outer_op(a) == outer, source
        assert structurally_equal(a, b), (source, render_snippet(b))


@pytest.mark.parametrize("text,code", [
    ("void sort(int[] a, int length) { a[0] = y; }", "UndeclaredIdentifier"),
    ("void sort(int[] a, int length) { int x = true; }", "TypeMismatch"),
    ("void sort(int[] a, int length) { if (length) { } }", "TypeMismatch"),
    ("void sort(int[] a, int length) { int a = 1; int a = 2; }",
     "DuplicateDeclaration"),
    ("void sort(int[] a, int length) { sort(a); }", "ArityMismatch"),
    ("void sort(int[] a, int length) { length[0] = 1; }", "TypeMismatch"),
    ("int pick(int x) { x = 1; }", "MissingReturn"),
])
def test_static_check_rejects(text, code):
    violations = static_check(parse_program(text))
    assert code in [v.code for v in violations]


def test_static_check_accepts_the_corpus():
    for name in PROBLEMS:
        assert static_check(parse_program(corpus_source(name))) == []


def test_scopes_allow_shadowing_across_blocks():
    text = ("void sort(int[] a, int length) {"
            " for (int i = 0; i < length; i++) { a[0] = i; }"
            " for (int i = 0; i < length; i++) { a[0] = i; } }")
    assert static_check(parse_program(text)) == []


# -- frame slots: the checker is the only name resolver ---------------------

def checked(text):
    program = parse_program(text)
    assert static_check(program) == []
    return program, program.frames.slots


def slots_read(program, slots, name):
    """Slots recorded at the identifiers that read ``name``, in id order."""
    return [slots[i] for i, n in enumerate(program.nodes)
            if n.kind == KIND_IDENT and n.name == name
            and program.nodes[program.parent[i]].kind != KIND_VARDECL]


def test_parameters_take_the_first_slots():
    program, slots = checked(
        "int pick(int[] a, int i, bool f) { int x = a[i]; return x; }\n"
        "void sort(int[] a, int length) { a[0] = pick(a, length, true); }")
    decl = next(i for i, n in enumerate(program.nodes)
                if n.kind == KIND_VARDECL)
    assert slots[decl] == 3          # after the three parameters
    assert slots[program.first[decl]] == -1  # the name binds, unread
    assert slots_read(program, slots, "x") == [3]
    assert slots_read(program, slots, "i") == [1]
    assert slots_read(program, slots, "a") == [0, 0, 0]  # pick, sort, sort
    assert slots_read(program, slots, "length") == [1]
    assert program.frames.sizes == [4, 2]


def test_sibling_blocks_reusing_a_name_get_distinct_slots():
    program, slots = checked(
        "void sort(int[] a, int length) {"
        " if (length > 1) { int t = 1; a[0] = t; }"
        " else { int t = 2; a[1] = t; } }")
    decls = [i for i, n in enumerate(program.nodes)
             if n.kind == KIND_VARDECL]
    assert [slots[d] for d in decls] == [2, 3]
    assert slots_read(program, slots, "t") == [2, 3]
    assert program.frames.sizes == [4]


def test_for_counters_get_their_own_slots():
    program, slots = checked(
        "void sort(int[] a, int length) { int n = length;"
        " for (int k = n; k > 0; k--) { a[0] = k; }"
        " for (int k = 0; k < n; k++) { a[k] = n; } }")
    loops = [i for i, n in enumerate(program.nodes) if n.kind == KIND_FOR]
    assert [slots[f] for f in loops] == [3, 4]
    # the first loop's init reads n in the enclosing scope
    assert slots_read(program, slots, "n") == [2, 2, 2]
    assert sorted(slots_read(program, slots, "k")) == [3, 3, 4, 4]


def test_rejected_programs_get_no_frames():
    program = parse_program("void sort(int[] a, int length) { a[0] = y; }")
    assert static_check(program)
    assert program.frames is None


def test_delete_statement_drops_the_subtree():
    p = parse_program(corpus_source("bubble_loops"))
    variant = delete_statement(p, 22)  # int k = a[j];
    assert len(variant.nodes) == 58 - 5
    assert len(p.nodes) == 58  # input untouched
    (branch,) = [n for n in variant.nodes if n.kind == KIND_IF]
    assert branch.then_count == 2
    assert "int k" not in render_program(variant)
    assert "int k" in render_program(p)


def test_delete_statement_refuses_blocks_and_expressions():
    p = parse_program(corpus_source("bubble_loops"))
    with pytest.raises(NotAStatement):
        delete_statement(p, 1)  # the function body Block
    with pytest.raises(NotAStatement):
        delete_statement(p, 3)  # an IntLiteral


def test_empty_function_body():
    p = parse_program(corpus_source("bubble"))
    variant = empty_function_body(p, 1)
    assert len(variant.nodes) == 2
    assert variant.nodes[1].kind == KIND_BLOCK
    assert render_program(variant).split("{")[1].strip() == "}"
    with pytest.raises(NotAStatement):
        empty_function_body(p, 2)  # not a function body


def test_replace_node_swaps_category_peers():
    p = parse_program("void sort(int[] a, int length) { a[0] = length; }")
    donor = subtree(p, 6)  # the IntLiteral 0
    swapped = replace_node(p, 4, donor)  # value: length -> 0
    assert "a[0] = 0;" in render_program(swapped)
    assert "a[0] = length;" in render_program(p)


def test_replace_node_rejects_category_mixing():
    p = parse_program(corpus_source("bubble_loops"))
    expr = subtree(p, 3)
    with pytest.raises(CategoryMismatch):
        replace_node(p, 2, expr)  # expression where a For stood
    with pytest.raises(CategoryMismatch):
        replace_node(p, 6, expr)  # expression where an Operator stood


def _tables(program):
    """Everything an edit must leave alone: the index, and each indexed
    node's fields and children list."""
    return (list(program.parent), list(program.first),
            [(id(n), n.kind, n.payload(), n.line, n.col, list(n.children))
             for n in program.nodes])


def assert_dense_index(program):
    """The tables match a breadth-first walk: functions first, each node's
    children at a contiguous id range that starts where the ids so far
    end, and every child pointing back at its parent."""
    nodes, parent, first = program.nodes, program.parent, program.first
    assert len(parent) == len(first) == len(nodes)
    assert nodes[:len(program.functions)] == program.functions
    assert parent[:len(program.functions)] == [-1] * len(program.functions)
    next_id = len(program.functions)
    for i, node in enumerate(nodes):
        if not node.children:
            assert first[i] == 0
            continue
        assert first[i] == next_id
        for k, child in enumerate(node.children):
            assert nodes[first[i] + k] is child
            assert parent[first[i] + k] == i
        next_id += len(node.children)
    assert next_id == len(nodes)


def assert_shares_off_the_path(variant, original, node_id):
    """Only the path from the root to ``node_id`` was rebuilt: every other
    function, and every subtree hanging off the path, is the very same
    object in ``variant``. Returns the variant's id of the edited node, or
    None when the edit dropped it."""
    path = [node_id]
    while original.parent[path[-1]] >= 0:
        path.append(original.parent[path[-1]])
    path.reverse()
    for k, func in enumerate(original.functions):
        if k != path[0]:
            assert variant.functions[k] is func
    vi = path[0]
    for p, c in zip(path, path[1:]):
        assert variant.nodes[vi] is not original.nodes[p]
        pos = c - original.first[p]
        old = original.nodes[p].children
        new = variant.nodes[vi].children
        dropped = len(new) == len(old) - 1
        assert dropped or len(new) == len(old)
        for k, child in enumerate(old):
            if k != pos:
                assert new[k - (dropped and k > pos)] is child
        if dropped:
            return None
        vi = variant.first[vi] + pos
    return vi


@pytest.mark.parametrize("name", PROBLEMS)
def test_edits_index_afresh_and_leave_the_input_alone(name):
    p = parse_program(corpus_source(name))
    before = _tables(p)
    for i, node in enumerate(p.nodes):
        donor = subtree(p, i)
        variant = replace_node(p, i, donor)
        assert programs_equal(variant, p)
        assert_dense_index(variant)
        assert variant.nodes[assert_shares_off_the_path(variant, p, i)] \
            is donor  # used as given, not copied
        assert _tables(p) == before
    for sid in statement_ids(p):
        kind = p.nodes[sid].kind
        if kind == KIND_BLOCK:   # a function body
            variant = empty_function_body(p, sid)
        else:
            variant = delete_statement(p, sid)
        kept = 1 if kind == KIND_BLOCK else 0  # the emptied body
        assert len(variant.nodes) == \
            len(p.nodes) - len(p.subtree_ids(sid)) + kept
        assert_dense_index(variant)
        edited = assert_shares_off_the_path(variant, p, sid)
        if kind == KIND_BLOCK:
            assert variant.nodes[edited].children == []
        else:
            assert edited is None
        assert _tables(p) == before


def test_a_donor_may_be_a_sibling_of_its_target():
    p = parse_program("void sort(int[] a, int length) { a[0] = length; }")
    index, value = p.first[2], p.first[2] + 1  # the Assign's two children
    variant = replace_node(p, value, p.nodes[index])
    assert render_program(variant).count("a[0] = a[0];") == 1
    assert_dense_index(variant)
    assert variant.nodes[value] is variant.nodes[index] is p.nodes[index]
    assert static_check(variant) == []
    # one node object at two ids: each id gets its own slot entry
    a_reads = [i for i, n in enumerate(variant.nodes)
               if n.kind == KIND_IDENT and n.name == "a"]
    assert len(a_reads) == 2
    assert [variant.frames.slots[i] for i in a_reads] == [0, 0]
    # an edit finds its target by position, so either copy can change
    back = replace_node(variant, value, p.nodes[value])
    assert "a[0] = length;" in render_program(back)
    literal = variant.first[value] + 1  # the second copy's index
    one = replace_node(variant, literal, parse_program(
        "void sort(int[] a, int length) { a[1] = 1; }").nodes[6])
    assert "a[0] = a[1];" in render_program(one)


# Every ORACLE_STRIDE-th exhaustive descriptor of bubble_loops and heap,
# 2,944 variants. The slice, and the digest of its violations, frames and
# IR, were fixed while every edit still copied the whole tree.
ORACLE_STRIDE = 2
ORACLE_DIGEST = \
    "3c3276e914383ff137cc67109aa68512e1f98296dd06aa265b1440f19b19975b"


def _ir_fields(ir):
    return ([(x.typecode, x.tolist())
             for x in (ir.kind, ir.a, ir.b, ir.first, ir.nch)],
            ir.entry, ir.n_slots)


# The function table the IR carried when ORACLE_DIGEST was pinned.
FunctionInfo = namedtuple("FunctionInfo", "name body n_slots n_params")


def _pinned_form(ir, program):
    """``ir`` as ORACLE_DIGEST hashed it: function k's row then held its
    body's id in ``a`` and k in ``b``, and a table repeated each function's
    name, body, frame size and parameter count. All of it comes from
    ``program`` and its frames, which the digest hashes too; every other
    row must be as it was."""
    a, b = ir.a.tolist(), ir.b.tolist()
    table = []
    for k, func in enumerate(program.functions):
        assert a[k] == b[k] == 0
        a[k], b[k] = program.first[k], k
        table.append(FunctionInfo(func.name, program.first[k],
                                  max(program.frames.sizes[k], 1),
                                  len(func.params)))
    return (ir.kind.tolist(), a, b, ir.first.tolist(), ir.nch.tolist(),
            table, ir.entry)


def test_sharing_changes_nothing_observable():
    digest = hashlib.sha256()
    compared = 0
    for name in ("bubble_loops", "heap"):
        program = parse_program(corpus_source(name))
        for d in exhaustive_descriptors(program)[::ORACLE_STRIDE]:
            shared = replace_node(program, d.target, d.donor)
            copy = unshared(shared)
            assert [(n.kind, n.payload()) for n in shared.nodes] \
                == [(n.kind, n.payload()) for n in copy.nodes]
            assert shared.parent == copy.parent
            assert shared.first == copy.first
            violations = static_check(shared)
            assert static_check(copy) == violations
            assert shared.frames == copy.frames
            digest.update(repr((d.target, d.donor_label,
                                [tuple(v) for v in violations])).encode())
            if not violations:
                ir = build_ir(shared)
                assert _ir_fields(build_ir(copy)) == _ir_fields(ir)
                digest.update(repr(shared.frames).encode())
                digest.update(repr(_pinned_form(ir, shared)).encode())
            compared += 1
    assert compared == 2944
    assert digest.hexdigest() == ORACLE_DIGEST


def test_each_edit_indexes_once(monkeypatch):
    p = parse_program(corpus_source("bubble_loops"))
    indexed = []
    index = Program._index

    def counting_index(self):
        indexed.append(self)
        index(self)

    monkeypatch.setattr(Program, "_index", counting_index)
    for edit in (lambda: replace_node(p, 8, subtree(p, 3)),
                 lambda: delete_statement(p, 22),
                 lambda: empty_function_body(p, 1)):
        indexed.clear()
        variant = edit()
        assert indexed == [variant]


def test_categories_partition_all_kinds():
    assert set(CATEGORY.values()) == {CAT_STATEMENT, CAT_EXPRESSION,
                                      CAT_OPERATOR, CAT_DECLARATION}
    assert KIND_BLOCK in STATEMENT_KINDS
    assert CATEGORY[KIND_OPERATOR] == CAT_OPERATOR
    assert CATEGORY[KIND_IDENT] == CAT_EXPRESSION
    assert CATEGORY["FunctionDecl"] == CAT_DECLARATION


def test_render_snippet_forms():
    p = parse_program(corpus_source("bubble_loops"))
    assert render_snippet(p.nodes[6]) == "<"
    assert render_snippet(p.nodes[4]) == "h < 2"
    assert render_snippet(p.nodes[22]) == "int k = a[j];"
    assert render_snippet(p.nodes[17]).startswith("if (a[j] > a[j + 1]) {")


def test_a_literal_of_any_length_round_trips_as_its_value_mod_2_32():
    p = parse_program("void sort(int[] a, int length) "
                      f"{{ a[0] = {'9' * 5000}; a[1] = {2 ** 32 + 7}; }}")
    text = render_program(p)
    assert "a[0] = 4294967295;" in text and "a[1] = 7;" in text
    assert programs_equal(parse_program(text), p)


def test_program_from_functions_reindexes():
    p = parse_program(corpus_source("bubble"))
    rebuilt = Program([clone(p.functions[0])])
    assert programs_equal(p, rebuilt)
    assert rebuilt.parent == p.parent and rebuilt.first == p.first
    assert_dense_index(rebuilt)
