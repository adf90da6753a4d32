"""Typed holes: the checker's verdict on a donor in an expression,
operator, statement or declaration-name hole, without building the
variant.

Wherever ``Holes.fit`` gives a verdict it must equal the full check of
the built variant, in both directions: the exhaustive loop never builds a
variant the hole rejects, and runs one it accepts as a splice, unchecked.
"""

from perfloc.lang.ast import AstNode, KIND_OPERATOR
from perfloc.lang.check import BAD_TARGET, DUPLICATE, TYPE_ERR, UNDECLARED, \
    Holes, static_check
from perfloc.lang.edit import replace_node
from perfloc.lang.parser import parse_program
from perfloc.lang.printer import render_snippet
from perfloc.mutation import exhaustive_descriptors

import test_splice

# The corpus-wide totals: every exhaustive descriptor of the 11 originals
# and 11 improved programs, those a hole answers, and those it proves
# non-compilable. Fixed before the statement holes were timed.
CORPUS_DESCRIPTORS = 46875
CORPUS_ANSWERED = 46255
CORPUS_PROVEN = 32000

# The same totals for this module's SOURCE and ``test_splice.SOURCE``,
# which reach the return and step rules that no corpus program reaches.
# Fixed with the corpus totals.
SOURCE_TOTALS = {"holes": (897, 864, 567), "splice": (587, 579, 397)}


def differential(program, mismatches, name):
    """(descriptors, answered, proven) of ``program``'s exhaustive
    descriptors; those whose hole verdict differs from the full check of
    the built variant are added to ``mismatches``."""
    holes = Holes(program)
    total = answered = proven = 0
    for d in exhaustive_descriptors(program):
        verdict = holes.fit(d.target, d.donor, d.donor_id)[0]
        total += 1
        if verdict is None:
            continue
        answered += 1
        proven += verdict is False
        accepted = not static_check(replace_node(program, d.target, d.donor))
        if verdict != accepted:
            mismatches.append((name, d.target, d.donor_label))
    return total, answered, proven


def test_holes_agree_with_the_full_check_on_every_corpus_variant(problems):
    totals = [0, 0, 0]
    mismatches = []
    for name, problem in sorted(problems.items()):
        for program in (problem.original, *problem.improved):
            for k, n in enumerate(differential(program, mismatches, name)):
                totals[k] += n
    sources = {name: differential(parse_program(text), mismatches, name)
               for name, text in (("holes", SOURCE),
                                  ("splice", test_splice.SOURCE))}
    assert mismatches == []
    assert tuple(totals) \
        == (CORPUS_DESCRIPTORS, CORPUS_ANSWERED, CORPUS_PROVEN)
    assert sources == SOURCE_TOTALS


SOURCE = """
void touch() { }

void sort(int[] a, int length) {
  bool done = false;
  int n = length;
  n = 3;
  if (n < length) { int t = 1; a[0] = t; } else { a[1] = 2; }
  if (a[0] == n) { n++; }
  if (!done) { touch(); }
  for (int i = 0; i < length; i++) { a[i] = i; }
}
"""


def find(program, text, nth=0):
    """Id of the ``nth`` node, in id order, that renders as ``text``."""
    return [i for i, n in enumerate(program.nodes)
            if render_snippet(n) == text][nth]


def child(program, node_id, k):
    return program.first[node_id] + k


def verdicts(program, target, donor_id, donor=None):
    """(hole verdict, violation codes of the built variant)."""
    if donor is None:
        donor = program.nodes[donor_id]
    verdict = Holes(program).fit(target, donor, donor_id)[0]
    variant = replace_node(program, target, donor)
    return verdict, [v.code for v in static_check(variant)]


def test_a_declaration_name_slot_is_tested_as_its_rebuilt_declaration():
    p = parse_program(SOURCE)
    name_slot = child(p, find(p, "int n = length;"), 0)
    verdict, codes = verdicts(p, name_slot, find(p, "length"))
    assert verdict is False
    assert codes[0] == DUPLICATE  # `length` is already declared
    # `t` is free there (only a sibling `if` scope declares it), but the
    # new name hides `n` from the statements after it: no verdict
    verdict, codes = verdicts(p, name_slot, find(p, "t"))
    assert verdict is None
    assert UNDECLARED in codes


def test_a_bool_variable_cannot_take_an_int_assignment():
    p = parse_program(SOURCE)
    target = child(p, find(p, "n = 3;"), 0)
    assert verdicts(p, target, find(p, "done", 1)) == (False, [TYPE_ERR])
    assert verdicts(p, target, find(p, "n", 1)) == (True, [])


def test_a_bool_cannot_be_compared_with_an_int_peer():
    p = parse_program(SOURCE)
    left = child(p, find(p, "a[0] == n"), 1)
    assert verdicts(p, left, find(p, "done", 1)) == (False, [TYPE_ERR])
    assert verdicts(p, left, find(p, "length")) == (True, [])


def test_a_void_call_is_a_statement_but_not_a_value():
    p = parse_program(SOURCE)
    call = find(p, "touch()")
    statement = child(p, find(p, "n++;"), 0)
    assert verdicts(p, statement, call) == (True, [])
    value = child(p, find(p, "n = 3;"), 1)
    assert verdicts(p, value, call) == (False, [TYPE_ERR])


def test_an_operator_is_tested_as_its_rebuilt_parent():
    p = parse_program(SOURCE)
    less = child(p, find(p, "n < length"), 0)
    plus = AstNode(KIND_OPERATOR, op="+")
    assert verdicts(p, less, -1, plus) == (False, [TYPE_ERR])
    at_most = AstNode(KIND_OPERATOR, op="<=")
    assert verdicts(p, less, -1, at_most) == (True, [])


def test_an_element_cannot_be_incremented():
    p = parse_program(SOURCE)
    operand = child(p, find(p, "n++"), 1)
    assert verdicts(p, operand, find(p, "a[0]")) == (False, [BAD_TARGET])


def test_a_sibling_scope_variable_is_not_visible():
    p = parse_program(SOURCE)
    two = find(p, "2")
    t = child(p, find(p, "a[0] = t;"), 1)
    assert verdicts(p, two, t) == (False, [UNDECLARED])


def test_the_loop_counter_is_visible_in_the_condition_only():
    p = parse_program(SOURCE)
    loop = find(p, "for (int i = 0; i < length; i++) { a[i] = i; }")
    i = find(p, "i")
    bound = child(p, child(p, loop, 1), 2)  # `length` in `i < length`
    assert verdicts(p, bound, i) == (True, [])
    init = child(p, loop, 0)
    assert verdicts(p, init, i) == (False, [UNDECLARED])
