"""Parser, printer, static checker and tree-surgery tests."""

import pytest

from perfloc.lang.ast import (
    CATEGORY, CAT_DECLARATION, CAT_EXPRESSION, CAT_OPERATOR, CAT_STATEMENT,
    KIND_ASSIGN, KIND_BLOCK, KIND_FOR, KIND_IDENT, KIND_IF, KIND_INT,
    KIND_OPERATOR, KIND_VARDECL, STATEMENT_KINDS,
    Program, programs_equal, structurally_equal,
)
from perfloc.lang.check import static_check
from perfloc.lang.edit import (
    CategoryMismatch, NotAStatement, delete_statement, empty_function_body,
    replace_node, statement_nodes, subtree,
)
from perfloc.lang.parser import ParseError, parse_program
from perfloc.lang.printer import render_program, render_snippet

from conftest import corpus_source

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
    stmts = statement_nodes(p)
    assert [s.node_id for s in stmts] == [1, 2, 5, 11, 17, 22, 23, 24]
    assert [s.kind for s in stmts] == [
        "Block", "For", "For", "For", "If", "VarDecl", "Assign", "Assign"]
    assert p.nodes[2].loop_var == "h"
    assert p.nodes[2].loop_step == "++"
    assert p.nodes[17].then_count == 3


@pytest.mark.parametrize("name", PROBLEMS)
def test_ids_are_breadth_first_and_contiguous(name):
    p = parse_program(corpus_source(name))
    assert [n.node_id for n in p.nodes] == list(range(len(p.nodes)))
    for node in p.nodes:
        ids = [c.node_id for c in node.children]
        if ids:
            assert ids == list(range(ids[0], ids[0] + len(ids)))
        for child in node.children:
            assert p.parent(child.node_id) is node


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
    return [slots[n.node_id] for n in program.nodes
            if n.kind == KIND_IDENT and n.name == name
            and program.parent(n.node_id).kind != KIND_VARDECL]


def test_parameters_take_the_first_slots():
    program, slots = checked(
        "int pick(int[] a, int i, bool f) { int x = a[i]; return x; }\n"
        "void sort(int[] a, int length) { a[0] = pick(a, length, true); }")
    decl = next(n for n in program.nodes if n.kind == KIND_VARDECL)
    assert slots[decl.node_id] == 3          # after the three parameters
    assert slots[decl.children[0].node_id] == -1  # the name binds, unread
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
    decls = [n for n in program.nodes if n.kind == KIND_VARDECL]
    assert [slots[d.node_id] for d in decls] == [2, 3]
    assert slots_read(program, slots, "t") == [2, 3]
    assert program.frames.sizes == [4]


def test_for_counters_get_their_own_slots():
    program, slots = checked(
        "void sort(int[] a, int length) { int n = length;"
        " for (int k = n; k > 0; k--) { a[0] = k; }"
        " for (int k = 0; k < n; k++) { a[k] = n; } }")
    loops = [n for n in program.nodes if n.kind == KIND_FOR]
    assert [slots[f.node_id] for f in loops] == [3, 4]
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


def _ids(program):
    return [(n.node_id, n.parent_id) for n in program.nodes]


def assert_fresh_index(variant, original):
    """Ids are 0..n-1, every child points at its parent, and no node is
    shared with the program the variant was made from."""
    assert [n.node_id for n in variant.nodes] == list(range(len(variant)))
    assert all(f.parent_id == -1 for f in variant.functions)
    for node in variant.nodes:
        assert all(c.parent_id == node.node_id for c in node.children)
    assert not {id(n) for n in variant.nodes} & {id(n) for n in original.nodes}


@pytest.mark.parametrize("name", PROBLEMS)
def test_edits_index_afresh_and_leave_the_input_alone(name):
    p = parse_program(corpus_source(name))
    before = _ids(p)
    for node in p.nodes:
        variant = replace_node(p, node.node_id, subtree(p, node.node_id))
        assert programs_equal(variant, p)
        assert_fresh_index(variant, p)
        assert _ids(p) == before
    body_ids = p.body_block_ids()
    for stmt in statement_nodes(p):
        if stmt.kind != KIND_BLOCK:
            variant = delete_statement(p, stmt.node_id)
        elif stmt.node_id in body_ids:
            variant = empty_function_body(p, stmt.node_id)
        else:
            continue
        kept = 1 if stmt.kind == KIND_BLOCK else 0  # the emptied body
        assert len(variant) == len(p) - len(list(stmt.walk())) + kept
        assert_fresh_index(variant, p)
        assert _ids(p) == before


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


def test_program_from_functions_reindexes():
    p = parse_program(corpus_source("bubble"))
    rebuilt = Program([p.functions[0].clone()])
    assert programs_equal(p, rebuilt)
    assert [n.node_id for n in rebuilt.nodes] == list(range(len(p.nodes)))
