"""Splices: a hole-accepted variant runs as a patch on the original's IR.

``runtime.ir.Splices`` describes the variant, and the IR
``apply_patch`` builds from it must give the runs of the built variant.
For an expression or operator donor that IR is the built variant's, up to
where the new rows sit; a statement donor's declarations bind fresh slots
past its target function's, where lowering the variant numbers them
afresh. Every splice keeps the original's frame size.

Both engines' ``run_patch`` run a patch on a prepared original, on only
the tests they are given, and must give the summary of the whole IR's
full run, refuse a malformed patch, and leave the original as it was.
"""

import pytest
from hypothesis import given, settings, strategies as st

from perfloc.lang.ast import AstNode, KIND_IDENT, KIND_OPERATOR
from perfloc.lang.check import Holes, static_check
from perfloc.lang.edit import replace_node
from perfloc.lang.parser import parse_program
from perfloc.lang.printer import render_snippet
from perfloc.mutation import exhaustive_descriptors
from perfloc.runtime import engine_py
from perfloc.runtime.exec import (
    BOOTSTRAP_LIMIT, baseline_limits, compile_program,
)
from perfloc.runtime.exec import TestCase as Case
from perfloc.runtime.ir import (
    OP_CALL, OP_FOR, OP_FUNC, OP_IDENT, OP_INTLIT, OP_VARDECL,
    Patch, Splices, apply_patch, build_ir, empty_patch,
)

import test_holes
from conftest import reached_tests, run_tests

# Every hole-accepted exhaustive descriptor of the 11 corpus originals.
# Fixed before the statement splices were timed.
CORPUS_ACCEPTED = 7080

# Of those, the splices whose declarations take slots past their target
# function's frame size, which the program's frame size must cover.
CORPUS_PAST_THE_FUNCTION = 98

# The same for ``test_holes.SOURCE`` and this module's SOURCE, run on SUITE,
# which reach the return and step rules that no corpus program reaches.
# Fixed with the corpus total.
SOURCE_ACCEPTED = {"holes": 297, "splice": 182}


SLOT_OPS = (OP_FOR, OP_VARDECL, OP_IDENT)


def splice_patch(ir, program, target, donor, donor_id, slots):
    """The splice patch of one donor, from a ``Splices`` of its own."""
    return Splices(ir, Holes(program)).patch(target, donor, donor_id, slots)


def largest_slot(ir, rows):
    """The largest frame slot the rows ``rows`` of ``ir`` name, or -1."""
    return max((ir.a[i] for i in rows if ir.kind[i] in SLOT_OPS), default=-1)


def differential(program, suite, limits, mismatches, name):
    """How many of ``program``'s exhaustive descriptors its holes accept,
    and how many of those name a slot past their target function's frame.
    A splice that runs unlike the built variant, changes the frame size or
    names a slot past it is added to ``mismatches``. The patches come as
    the exhaustive loop makes them, each donor's rows lowered once per
    hole class."""
    ir = compile_program(program)
    holes = Holes(program)
    splices = Splices(ir, holes)
    accepted = past = 0
    for d in exhaustive_descriptors(program):
        verdict, slots = holes.fit(d.target, d.donor, d.donor_id)
        if not verdict:
            continue
        accepted += 1
        patch = splices.patch(d.target, d.donor, d.donor_id, slots)
        spliced = apply_patch(ir, patch)
        built = compile_program(replace_node(program, d.target, d.donor))
        # the replaced row holds the donor's own slot
        slot = largest_slot(spliced, [*range(len(ir.kind), len(spliced.kind)),
                                      patch.row])
        size = program.frames.sizes[function_of(program, d.target)]
        past += slot >= max(size, 1)
        if run_tests(spliced, suite, limits) \
                != run_tests(built, suite, limits) \
                or spliced.n_slots != ir.n_slots or slot >= ir.n_slots:
            mismatches.append((name, d.target, d.donor_label))
    return accepted, past


def test_splices_run_like_built_variants_on_every_corpus_variant(problems):
    accepted = past = 0
    mismatches = []
    for name, problem in sorted(problems.items()):
        limits, _ = baseline_limits(compile_program(problem.original),
                                    problem.suite)
        counts = differential(problem.original, problem.suite, limits,
                              mismatches, name)
        accepted, past = accepted + counts[0], past + counts[1]
    limits = [BOOTSTRAP_LIMIT] * len(SUITE)
    sources = {name: differential(parse_program(text), SUITE, limits,
                                  mismatches, name)[0]
               for name, text in (("holes", test_holes.SOURCE),
                                  ("splice", SOURCE))}
    assert mismatches == []
    assert accepted == CORPUS_ACCEPTED
    assert past == CORPUS_PAST_THE_FUNCTION
    assert sources == SOURCE_ACCEPTED


def test_splices_of_one_hole_class_and_donor_share_their_rows():
    # a splice copies nothing: every splice of one (hole class, donor)
    # pair returns the arrays lowered for the first, and replaces only its
    # own target's row
    p = parse_program(SOURCE)
    base, holes = build_ir(p), Holes(p)
    splices = Splices(base, holes)
    first, shared = {}, 0
    for d in exhaustive_descriptors(p):
        verdict, slots = holes.fit(d.target, d.donor, d.donor_id)
        if not verdict or d.donor.kind == KIND_OPERATOR:
            continue
        patch = splices.patch(d.target, d.donor, d.donor_id, slots)
        assert patch.row == d.target
        earlier = first.setdefault((holes.classes[d.target], d.donor_id),
                                   patch)
        if earlier.row != patch.row:
            assert all(x is y for x, y in zip(earlier, patch[:5]))
            assert patch.cells is earlier.cells
            shared += len(patch.kind) > 0
    assert shared > 0


def tree(ir, i=None):
    """The IR's functions, or node ``i``'s subtree, as nested (kind, a, b,
    children) tuples: everything but where the rows sit."""
    if i is None:
        return [tree(ir, k) for k, code in enumerate(ir.kind)
                if code == OP_FUNC]
    f = ir.first[i]
    return (ir.kind[i], ir.a[i], ir.b[i],
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


def function_of(program, i):
    """The function node ``i`` sits in; function k is node k."""
    while program.parent[i] >= 0:
        i = program.parent[i]
    return i


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
    base = build_ir(program)
    spliced = apply_patch(base, splice_patch(base, program, target, donor,
                                             donor_id, slots))
    return spliced, build_ir(replace_node(program, target, donor)), slots


def assert_same_program(spliced, built):
    assert tree(spliced) == tree(built)
    assert (spliced.entry, spliced.n_slots) == (built.entry, built.n_slots)
    limits = [BOOTSTRAP_LIMIT] * len(SUITE)
    assert run_tests(spliced, SUITE, limits) == run_tests(built, SUITE,
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
    spliced = apply_patch(base, splice_patch(base, p, negate, bang, -1, {}))
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
    # the IncDec reads its slot from its operand, the one row replaced
    assert spliced.a[operand] == slots[find(p, "i")] \
        == p.frames.slots[loop]
    assert changed(spliced, build_ir(p)) == {"a": [operand]}


def test_a_donor_that_contains_its_target():
    p = parse_program(SOURCE)
    donor = find(p, "a[i] + n")
    target = p.first[donor] + 2   # the `n` inside it
    spliced, built, _ = spliced_and_built(p, target, donor)
    assert_same_program(spliced, built)
    # the target's row becomes the donor's; its five descendants follow
    assert len(spliced.kind) == len(build_ir(p).kind) + 5


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
    # `c`, first met in `sort`, put for `lo` in msort's `a[lo + c]`
    donor = next(i for i, n in enumerate(p.nodes)
                 if n.kind == KIND_IDENT and n.name == "c"
                 and function_of(p, i) == sort)
    target = p.first[find(p, "lo + c")] + 1
    assert function_of(p, target) != sort
    spliced, built, slots = spliced_and_built(p, target, donor)
    assert slots[donor] != p.frames.slots[donor]  # msort's `c`, not sort's
    assert tree(spliced) == tree(built)
    limits, _ = baseline_limits(build_ir(p), merge.suite)
    assert run_tests(spliced, merge.suite, limits) \
        == run_tests(built, merge.suite, limits)


# statement donors --------------------------------------------------------

def assert_same_runs(spliced, built):
    limits = [BOOTSTRAP_LIMIT] * len(SUITE)
    assert run_tests(spliced, SUITE, limits) == run_tests(built, SUITE,
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
    # the copy's counter binds a fresh slot, inside the original's frames
    sort = 1
    counter = slots[find(p, loop)]
    assert p.frames.sizes[sort] <= counter < spliced.n_slots
    assert spliced.n_slots == build_ir(p).n_slots


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
    # and inside its frames
    t = slots[find(p, "int t = a[0];")]
    assert p.frames.sizes[0] <= t < spliced.n_slots == build_ir(p).n_slots


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


# patches on a prepared original -------------------------------------------

# SOURCE takes at most 59 steps on a test of SUITE; a patch that loops
# stops at this limit, which keeps engine_py quick
LIMITS = [1000] * len(SUITE)
ALL = tuple(range(len(SUITE)))
LOOP = "for (int i = 0; i < length; i++) { a[i] = a[i] + n; n--; }"
BRANCH = "if (!done && n < length) { a[0] = -n; }"


def statement_patch(program, target_text, donor_text, shift=0):
    """The splice patch of the statement that renders as ``donor_text``
    put for the one that renders as ``target_text``, with every fresh slot
    of the donor ``shift`` cells further out."""
    verdict, slots, target, donor = statement_fit(program, target_text,
                                                  donor_text)
    assert verdict is True
    size = program.frames.sizes[function_of(program, target)]
    slots = {i: s + shift if s >= size else s for i, s in slots.items()}
    return splice_patch(build_ir(program), program, target,
                        program.nodes[donor], donor, slots)


def broken_patches(program):
    """Patches of SOURCE that each break one rule the engines validate,
    by name: (the start of the message it raises, the patch)."""
    base = build_ir(program)
    loop = statement_patch(program, BRANCH, LOOP)
    branch = statement_patch(program, "n--;", BRANCH)
    less = splice_patch(base, program, operator(program, "n < length"),
                        AstNode(KIND_OPERATOR, op="<="), -1, {})
    rows = len(base.kind) + len(loop.kind)
    j = [k for k, width in enumerate(loop.nch) if width][0]
    first = loop.first[:]
    first[j] = rows
    store = find(program, "a[0] = -n;")
    decrement = find(program, "n--")

    def replaced(patch, **cells):
        """``patch`` with some of its replaced row's cells changed."""
        new = dict(zip(("kind", "a", "b", "first", "nch"), patch.cells))
        return patch._replace(cells=tuple({**new, **cells}.values()))

    def replacing(row, kind, a):
        """A patch that replaces ``row`` with a childless row."""
        return Patch(*empty_patch()[:5], row, (kind, a, 0, 0, 0))

    return {
        "a new row's children past the rows":
            (f"child range outside the rows at node {len(base.kind) + j}",
             loop._replace(first=first)),
        "the parent's children past the rows":
            (f"child range outside the rows at node {less.row}",
             replaced(less, first=rows)),
        "a slot past the patched frame":
            (f"frame slot at node {loop.row}",
             replaced(loop, a=base.n_slots)),
        "a slot 2000 cells past the frame":
            ("frame slot", statement_patch(program, BRANCH, LOOP, 2000)),
        "a then-branch as long as the If":
            ("then-branch length",
             replaced(branch, a=branch.cells[4])),
        "a replaced function row":
            ("function row at node 0", loop._replace(row=0)),
        "an assignment target replaced by a childless non-identifier":
            (f"assignment target at node {store}",
             replacing(program.first[store], OP_INTLIT, 0)),
        "an increment operand replaced by a non-identifier":
            (f"increment operand at node {decrement}",
             replacing(program.first[decrement] + 1, OP_INTLIT, 0)),
        "an increment operand replaced by a slot outside the frame":
            (f"increment operand at node {decrement}",
             replacing(program.first[decrement] + 1, OP_IDENT, -1)),
    }


@pytest.mark.parametrize("name", [
    "a new row's children past the rows",
    "the parent's children past the rows",
    "a slot past the patched frame",
    "a slot 2000 cells past the frame",
    "a then-branch as long as the If",
    "a replaced function row",
    "an assignment target replaced by a childless non-identifier",
    "an increment operand replaced by a non-identifier",
    "an increment operand replaced by a slot outside the frame"])
def test_a_malformed_patch_raises_value_error(engine, name):
    p = parse_program(SOURCE)
    handle = engine.prepare(build_ir(p), SUITE, LIMITS)
    baseline = engine.run_patch(handle, empty_patch(), ALL)
    message, patch = broken_patches(p)[name]
    with pytest.raises(ValueError, match=f"malformed patch: {message}"):
        engine.run_patch(handle, patch, ALL)
    assert engine.run_patch(handle, empty_patch(), ALL) == baseline


def test_run_tests_refuses_a_malformed_ir(engine):
    # the body Block's one child sits at row -1, which a Python array
    # would read as its last row
    ir = build_ir(parse_program(
        "void sort(int[] a, int length) { a[0] = 1; a[1] = 2; }"))
    first, nch = ir.first[:], ir.nch[:]
    body = ir.first[0]
    first[body], nch[body] = -1, 1
    with pytest.raises(ValueError, match="malformed IR: child range outside "
                                         f"the rows at node {body}"):
        engine.run_tests(ir._replace(first=first, nch=nch), SUITE, LIMITS)


CALLS = """
int one() { return 1; }

void sort(int[] a, int length) { a[0] = one(); }
"""


def broken_irs():
    """IRs of CALLS that each break one rule of function rows or of the
    frame size, by name: (the message it raises, the IR)."""
    ir = build_ir(parse_program(CALLS))
    call = list(ir.kind).index(OP_CALL)
    body = ir.first[0]   # `one`'s body
    callee, one_child, two_children = ir.a[:], ir.nch[:], ir.nch[:]
    callee[call] = body
    one_child[0], two_children[0] = 0, 2
    return {
        "a call of a row that is no function":
            (f"call at node {call}", ir._replace(a=callee)),
        "an entry that is no function":
            ("entry", ir._replace(entry=body)),
        "an entry past the rows":
            ("entry", ir._replace(entry=len(ir.kind))),
        "a function row without a child":
            ("function body at node 0", ir._replace(nch=one_child)),
        "a function row with two children":
            ("function body at node 0", ir._replace(nch=two_children)),
        "a frame of no cells":
            ("frame size", ir._replace(n_slots=0)),
    }


@pytest.mark.parametrize("name", [
    "a call of a row that is no function",
    "an entry that is no function",
    "an entry past the rows",
    "a function row without a child",
    "a function row with two children",
    "a frame of no cells"])
def test_a_malformed_function_row_or_frame_size_is_refused(engine, name):
    message, ir = broken_irs()[name]
    for entry in (engine.run_tests, engine.prepare):
        with pytest.raises(ValueError, match=f"malformed IR: {message}"):
            entry(ir, SUITE, LIMITS)


WIDEST = """
void work() {
  if (true) {
    int x = 1;
    int y = x;
    for (int i = 0; i < 3; i++) { y = y + i; }
    while (y < 20) { y = y + x; x++; }
  }
  return;
}

void sort(int[] a, int length) { work(); a[0] = length; }
"""


def test_a_donor_with_every_declaration_of_the_widest_function(engine):
    # `work` has the largest frame, and its `if` holds all of its
    # declarations: put for `return;`, the copy's take the last cells of
    # every frame, which holds twice `work`'s slots
    p = parse_program(WIDEST)
    base = build_ir(p)
    donor = p.first[p.first[0]]   # `work`'s first statement
    target = find(p, "return;")
    patch = statement_patch(p, "return;", render_snippet(p.nodes[donor]))
    spliced = apply_patch(base, patch)
    assert p.frames.sizes == [3, 2]
    assert largest_slot(patch, range(len(patch.kind))) \
        == spliced.n_slots - 1 == 5
    built = build_ir(replace_node(p, target, p.nodes[donor]))
    limits = [BOOTSTRAP_LIMIT] * len(SUITE)
    full = engine.run_tests(built, SUITE, limits)
    assert engine.run_tests(spliced, SUITE, limits) == full
    handle = engine.prepare(base, SUITE, limits)
    assert engine.run_patch(handle, patch, ALL) \
        == engine_py.summarize(full, SUITE)


def source_patches():
    """Every accepted splice patch of SOURCE, then the broken ones."""
    p = parse_program(SOURCE)
    base, holes = build_ir(p), Holes(p)
    patches = []
    for d in exhaustive_descriptors(p):
        verdict, slots = holes.fit(d.target, d.donor, d.donor_id)
        if verdict:
            patches.append(splice_patch(base, p, d.target, d.donor,
                                        d.donor_id, slots))
    return p, base, patches + [patch for _, patch
                               in broken_patches(p).values()]


def test_each_patch_in_turn_on_one_handle_runs_like_its_whole_ir(engine):
    # run_patch restores the whole replaced row: a row left changed would
    # corrupt a later patch that lowers it
    p, base, patches = source_patches()
    handle = engine.prepare(base, SUITE, LIMITS)
    for patch in patches:
        try:
            found = engine.run_patch(handle, patch, ALL)
        except ValueError:
            continue
        full = engine.run_tests(apply_patch(base, patch), SUITE, LIMITS)
        assert found == engine_py.summarize(full, SUITE), patch.row


@given(st.lists(st.tuples(st.integers(0, 10 ** 6),
                          st.sets(st.sampled_from(ALL))), max_size=6))
@settings(max_examples=25, deadline=None)
def test_an_empty_patch_after_any_patches_gives_the_baseline(engine, runs):
    p, base, patches = source_patches()
    handle = engine.prepare(base, SUITE, LIMITS)
    for pick, tests in runs:
        patch = patches[pick % len(patches)]
        tests = sorted(tests)
        try:
            found = engine.run_patch(handle, patch, tests)
        except ValueError:
            continue
        full = engine.run_tests(apply_patch(base, patch), SUITE, LIMITS)
        if tests == list(ALL):
            assert found == engine_py.summarize(full, SUITE)
    baseline = engine_py.summarize(engine.run_tests(base, SUITE, LIMITS),
                                   SUITE)
    assert engine.run_patch(handle, empty_patch(), ALL) == baseline


GUARDED = """
void sort(int[] a, int length) {
  int n = length;
  if (length > 100) { a[0] = n; }
  n = n + 1;
}
"""


def test_a_target_no_test_reaches_is_left_out_on_every_test(engine):
    p = parse_program(GUARDED)
    base = build_ir(p)
    target = find(p, "a[0] = n;")
    # GUARDED fails SUITE, so it has no Baseline: its own counted runs
    reach = reached_tests(p, base, SUITE, LIMITS)
    assert reach[target] == reach[p.first[target] + 1] == ()
    assert reach[find(p, "n = n + 1;")] == ALL
    patch = statement_patch(p, "a[0] = n;", "n = n + 1;")
    handle = engine.prepare(base, SUITE, LIMITS)
    full = engine.run_tests(apply_patch(base, patch), SUITE, LIMITS)
    assert engine.run_patch(handle, patch, reach[target]) \
        == engine.run_patch(handle, patch, ALL) \
        == engine_py.summarize(full, SUITE)
