"""Splices: a hole-accepted variant runs as a patch on the original's IR.

``runtime.ir.splice_ir`` must give the runs of the built variant. For an
expression or operator donor its IR is the built variant's, up to where
the new rows sit; a statement donor's declarations bind fresh slots past
the original's frame, where lowering the variant numbers them afresh.
"""

from perfloc.lang.ast import AstNode, KIND_IDENT, KIND_OPERATOR
from perfloc.lang.check import Holes, static_check
from perfloc.lang.edit import replace_node
from perfloc.lang.parser import parse_program
from perfloc.lang.printer import render_snippet
from perfloc.mutation import exhaustive_descriptors
from perfloc.runtime.exec import (
    BOOTSTRAP_LIMIT, baseline_limits, compile_program, run_suite,
)
from perfloc.runtime.exec import TestCase as Case
from perfloc.runtime.ir import OP_FUNC, build_ir, splice_ir

import test_holes

# Every hole-accepted exhaustive descriptor of the 11 corpus originals.
# Fixed before the statement splices were timed.
CORPUS_ACCEPTED = 7080

# The same for ``test_holes.SOURCE`` and this module's SOURCE, run on SUITE,
# which reach the return and step rules that no corpus program reaches.
# Fixed with the corpus total.
SOURCE_ACCEPTED = {"holes": 297, "splice": 182}


def differential(program, suite, limits, mismatches, name):
    """How many of ``program``'s exhaustive descriptors its holes accept;
    those whose splice runs unlike the built variant are added to
    ``mismatches``."""
    ir = compile_program(program)
    holes = Holes(program)
    accepted = 0
    for d in exhaustive_descriptors(program):
        verdict, slots = holes.fit(d.target, d.donor, d.donor_id)
        if not verdict:
            continue
        accepted += 1
        spliced = splice_ir(ir, program, d.target, d.donor, d.donor_id,
                            slots)
        built = compile_program(replace_node(program, d.target, d.donor))
        if run_suite(spliced, suite, limits) \
                != run_suite(built, suite, limits):
            mismatches.append((name, d.target, d.donor_label))
    return accepted


def test_splices_run_like_built_variants_on_every_corpus_variant(problems):
    accepted = 0
    mismatches = []
    for name, problem in sorted(problems.items()):
        limits, _ = baseline_limits(compile_program(problem.original),
                                    problem.suite)
        accepted += differential(problem.original, problem.suite, limits,
                                 mismatches, name)
    limits = [BOOTSTRAP_LIMIT] * len(SUITE)
    sources = {name: differential(parse_program(text), SUITE, limits,
                                  mismatches, name)
               for name, text in (("holes", test_holes.SOURCE),
                                  ("splice", SOURCE))}
    assert mismatches == []
    assert accepted == CORPUS_ACCEPTED
    assert sources == SOURCE_ACCEPTED


def tree(ir, i=None):
    """The IR's functions, or node ``i``'s subtree, as nested (kind, a, b,
    children) tuples: everything but where the rows sit."""
    if i is None:
        return [tree(ir, k) for k in range(len(ir.functions))]
    f = ir.first[i]
    a = None if ir.kind[i] == OP_FUNC else ir.a[i]  # a FunctionDecl's body id
    return (ir.kind[i], a, ir.b[i],
            [tree(ir, c) for c in range(f, f + ir.nch[i])])


SOURCE = """
int one() { return 1; }

void sort(int[] a, int length) {
  int n = length;
  bool done = false;
  if (!done && n < length) { a[0] = -n; }
  for (int i = 0; i < length; i++) { a[i] = a[i] + n; n--; }
}
"""

SUITE = (Case((3, 1, 2), (3,), (1, 2, 3)),
         Case((5, -4), (2,), (-4, 5)),
         Case((), (0,), ()))


def find(program, text, nth=0):
    """Id of the ``nth`` node, in id order, that renders as ``text``."""
    return [i for i, n in enumerate(program.nodes)
            if render_snippet(n) == text][nth]


def spliced_and_built(program, target, donor_id, donor=None):
    """(splice, IR of the built variant, the hole's slots) for a donor the
    hole accepts."""
    if donor is None:
        donor = program.nodes[donor_id]
    verdict, slots = Holes(program).fit(target, donor, donor_id)
    assert verdict is True
    spliced = splice_ir(build_ir(program), program, target, donor,
                        donor_id, slots)
    return spliced, build_ir(replace_node(program, target, donor)), slots


def assert_same_program(spliced, built):
    assert tree(spliced) == tree(built)
    assert (spliced.functions, spliced.entry) == (built.functions,
                                                  built.entry)
    limits = [BOOTSTRAP_LIMIT] * len(SUITE)
    assert run_suite(spliced, SUITE, limits) == run_suite(built, SUITE,
                                                          limits)


def changed(spliced, base):
    """Which of the five arrays differ, and at which rows."""
    return {name: [i for i, (x, y) in enumerate(zip(getattr(spliced, name),
                                                   getattr(base, name)))
                   if x != y]
            for name in ("kind", "a", "b", "first", "nch")
            if getattr(spliced, name) != getattr(base, name)}


def operator(program, text):
    """Id of the operator child of the expression that renders as
    ``text``."""
    return program.first[find(program, text)]


def test_a_binary_operator_swap_rewrites_only_the_payload():
    p = parse_program(SOURCE)
    less = operator(p, "n < length")
    spliced, built, _ = spliced_and_built(p, less, -1,
                                          AstNode(KIND_OPERATOR, op="<="))
    assert_same_program(spliced, built)
    assert changed(spliced, build_ir(p)) == {"a": [p.parent[less]]}


def test_an_incdec_operator_swap_rewrites_its_step():
    p = parse_program(SOURCE)
    spliced, built, _ = spliced_and_built(p, operator(p, "n--"), -1,
                                          AstNode(KIND_OPERATOR, op="++"))
    assert_same_program(spliced, built)
    assert changed(spliced, build_ir(p)) == {"b": [find(p, "n--")]}


def test_a_unary_operator_swap_matches_the_lowered_variant():
    # No unary swap type-checks (`-` takes an int, `!` a bool), so the
    # reference is the variant lowered with the original's frames: an
    # operator swap moves no node id.
    p = parse_program(SOURCE)
    negate = operator(p, "-n")
    bang = AstNode(KIND_OPERATOR, op="!")
    assert Holes(p).fit(negate, bang, -1)[0] is False
    base = build_ir(p)
    spliced = splice_ir(base, p, negate, bang, -1, {})
    variant = replace_node(p, negate, bang)
    variant.frames = p.frames
    assert spliced == build_ir(variant)
    assert changed(spliced, base) == {"a": [p.parent[negate]]}


def test_an_incdec_operand_gives_the_incdec_its_slot():
    p = parse_program(SOURCE)
    loop = find(p, "for (int i = 0; i < length; i++) "
                   "{ a[i] = a[i] + n; n--; }")
    n_decrement = find(p, "n--")
    operand = p.first[n_decrement] + 1
    spliced, built, slots = spliced_and_built(p, operand, find(p, "i"))
    assert_same_program(spliced, built)
    assert spliced.a[n_decrement] == slots[find(p, "i")] \
        == p.frames.slots[loop]


def test_a_donor_that_contains_its_target():
    p = parse_program(SOURCE)
    donor = find(p, "a[i] + n")
    target = p.first[donor] + 2   # the `n` inside it
    spliced, built, _ = spliced_and_built(p, target, donor)
    assert_same_program(spliced, built)
    # a row of three, then the donor's five descendants
    assert len(spliced.kind) == len(build_ir(p).kind) + 3 + 5


def test_a_donor_inside_its_target():
    p = parse_program(SOURCE)
    target = find(p, "a[i] + n")
    donor = p.first[target] + 1   # the `a[i]` inside it
    spliced, built, _ = spliced_and_built(p, target, donor)
    assert_same_program(spliced, built)


def test_a_donor_from_another_function_takes_its_holes_slot(problems):
    merge = problems["merge"]
    p = merge.original
    static_check(p)
    sort = 1
    assert p.functions[sort].name == "sort"

    def function_of(i):
        while p.parent[i] >= 0:
            i = p.parent[i]
        return i

    # `c`, first met in `sort`, put for `lo` in msort's `a[lo + c]`
    donor = next(i for i, n in enumerate(p.nodes)
                 if n.kind == KIND_IDENT and n.name == "c"
                 and function_of(i) == sort)
    target = p.first[find(p, "lo + c")] + 1
    assert function_of(target) != sort
    spliced, built, slots = spliced_and_built(p, target, donor)
    assert slots[donor] != p.frames.slots[donor]  # msort's `c`, not sort's
    assert tree(spliced) == tree(built)
    limits, _ = baseline_limits(build_ir(p), merge.suite)
    assert run_suite(spliced, merge.suite, limits) \
        == run_suite(built, merge.suite, limits)


# statement donors --------------------------------------------------------

def assert_same_runs(spliced, built):
    limits = [BOOTSTRAP_LIMIT] * len(SUITE)
    assert run_suite(spliced, SUITE, limits) == run_suite(built, SUITE,
                                                          limits)


def statement_fit(program, target_text, donor_text):
    """(verdict, slots, target, donor id) of the statement that renders as
    ``donor_text`` put for the one that renders as ``target_text``."""
    target, donor = find(program, target_text), find(program, donor_text)
    verdict, slots = Holes(program).fit(target, program.nodes[donor], donor)
    return verdict, slots, target, donor


def test_a_loop_donor_gets_a_counter_slot_past_the_frame():
    p = parse_program(SOURCE)
    loop = "for (int i = 0; i < length; i++) { a[i] = a[i] + n; n--; }"
    spliced, built, slots = spliced_and_built(
        p, find(p, "if (!done && n < length) { a[0] = -n; }"), find(p, loop))
    assert_same_runs(spliced, built)
    # the copy's counter binds a fresh slot, and only `sort` grows
    sort = 1
    counter = slots[find(p, loop)]
    assert p.frames.sizes[sort] <= counter < spliced.functions[sort].n_slots
    assert spliced.functions[0] == build_ir(p).functions[0]


def test_an_if_donor_whose_body_declares():
    p = parse_program("""
void sort(int[] a, int length) {
  int n = length;
  if (n > 1) { int t = a[0]; a[0] = a[1]; a[1] = t; }
  n = 0;
}
""")
    branch = "if (n > 1) { int t = a[0]; a[0] = a[1]; a[1] = t; }"
    spliced, built, slots = spliced_and_built(p, find(p, "n = 0;"),
                                              find(p, branch))
    assert_same_runs(spliced, built)
    # the copy's `t` binds a fresh slot, past every slot of the original
    t = slots[find(p, "int t = a[0];")]
    assert p.frames.sizes[0] <= t < spliced.functions[0].n_slots


def test_a_declaration_donor_or_target_gets_no_verdict():
    p = parse_program(test_holes.SOURCE)
    # `t` is free at `n = 3;`, but the later `int t = 1;` would clash
    verdict, _, target, donor = statement_fit(p, "n = 3;", "int t = 1;")
    assert verdict is None
    assert static_check(replace_node(p, target, p.nodes[donor]))
    # `touch();` checks where `n` was declared, but `n` is then gone
    verdict, _, target, donor = statement_fit(p, "int n = length;",
                                              "touch();")
    assert verdict is None
    assert static_check(replace_node(p, target, p.nodes[donor]))


def test_a_statement_of_a_non_void_function_gets_no_true_verdict():
    p = parse_program(SOURCE)
    assert statement_fit(p, "return 1;", "n--;")[0] is False
    # a clean replay, but `one` could then finish without returning
    p = parse_program("int one() { one(); return 1; }\n"
                      "void sort(int[] a, int length) { }")
    verdict, _, target, donor = statement_fit(p, "return 1;", "one();")
    assert verdict is None
    assert static_check(replace_node(p, target, p.nodes[donor]))
