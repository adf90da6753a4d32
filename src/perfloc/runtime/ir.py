"""Flat intermediate form both interpreter engines execute.

The AST is lowered to parallel arrays indexed by the ``Program``'s node ids.
Breadth-first id assignment makes every node's children a contiguous id
range, so child links are just (first_child, n_children), and ``first`` is a
copy of the ``Program``'s own first-child table. Names are resolved once, by
the checker (``lang.check``), which records a frame slot for every
declaration and every identifier it reads; lowering copies those slots, and
the engines never see names.

A variant that differs from an accepted program in one expression,
operator or statement, and that ``lang.check.Holes`` accepts, is not
lowered afresh: ``Splices`` describes it as a ``Patch`` on the
original's IR, with no new opcode and no new step event. The patch holds
only what changes: rows appended after the original's last row, and one
row of the original replaced whole. For an expression or statement
donor that row is the target's own: it takes the donor's cells, and its
``first`` points at the appended rows, the donor's descendants. For an
operator it is the parent's, whose payload holds the new operator. One
analysis lowers each donor's rows once per hole class, and every splice
of that class and donor shares them; a splice copies nothing. Every
frame of a program has the same ``n_slots`` cells, which every splice's
fresh slots fit (see ``build_ir``), so a patch never changes a frame. The
engines' ``run_patch`` apply a patch to a prepared original in place and
undo it after the run; ``apply_patch`` builds the whole variant IR, for
runs of one variant and for the differentials. ``operator_code`` is the
payload rule lowering and splicing share. The run statuses both engines
return, and ``summarize``, which folds the rows of a ``run_tests`` into
the four numbers a ``run_patch`` returns, live here too, so that
``runtime.exec`` imports ``engine_py`` only to run it.

Function k is row k, and its one child is its body. A Call's ``a`` names
its callee's row.

Per-node payload fields ``a`` and ``b``:

    VarDecl       a = slot                 b = 1 if it has an initialiser
    If            a = then-branch length
    For           a = counter slot         b = +1 or -1 (update direction)
    Return                                 b = 1 if it carries a value
    Binary        a = operator code
    Unary         a = 0 (negate) / 1 (not)
    IncDec                                 b = +1 or -1
    Call          a = callee's row, or -1 for newArray
                                           b = argument count
    Identifier    a = slot; -1 for a VarDecl's name. An IncDec reads
                  its variable's slot here, in its operand, as an
                  Assign reads its identifier target's.
    IntLiteral    a = value (int32)
    BoolLiteral   a = 0 / 1

Array values live in a per-execution int32 heap; a frame slot holds either an
int/bool or a packed array reference (offset << 21 | length). Static types
decide which interpretation applies, so no runtime tags are needed.
"""

from __future__ import annotations

from array import array
from typing import NamedTuple

from ..lang.ast import (
    AstNode, Program,
    KIND_FUNCTION, KIND_BLOCK, KIND_VARDECL, KIND_ASSIGN, KIND_IF, KIND_FOR,
    KIND_WHILE, KIND_RETURN, KIND_EXPRSTMT, KIND_BINARY, KIND_UNARY,
    KIND_INCDEC, KIND_CALL, KIND_INDEX, KIND_IDENT, KIND_INT, KIND_BOOL,
    KIND_OPERATOR,
)
from ..lang.check import BUILTIN_NEWARRAY, static_check

OP_FUNC = 0
OP_BLOCK = 1
OP_VARDECL = 2
OP_ASSIGN = 3
OP_IF = 4
OP_FOR = 5
OP_WHILE = 6
OP_RETURN = 7
OP_EXPRSTMT = 8
OP_BINARY = 9
OP_UNARY = 10
OP_INCDEC = 11
OP_CALL = 12
OP_INDEX = 13
OP_IDENT = 14
OP_INTLIT = 15
OP_BOOLLIT = 16
OP_OPER = 17

KIND_CODE = {
    KIND_FUNCTION: OP_FUNC, KIND_BLOCK: OP_BLOCK, KIND_VARDECL: OP_VARDECL,
    KIND_ASSIGN: OP_ASSIGN, KIND_IF: OP_IF, KIND_FOR: OP_FOR,
    KIND_WHILE: OP_WHILE, KIND_RETURN: OP_RETURN, KIND_EXPRSTMT: OP_EXPRSTMT,
    KIND_BINARY: OP_BINARY, KIND_UNARY: OP_UNARY, KIND_INCDEC: OP_INCDEC,
    KIND_CALL: OP_CALL, KIND_INDEX: OP_INDEX, KIND_IDENT: OP_IDENT,
    KIND_INT: OP_INTLIT, KIND_BOOL: OP_BOOLLIT, KIND_OPERATOR: OP_OPER,
}

BOP_ADD, BOP_SUB, BOP_MUL, BOP_DIV, BOP_MOD = 0, 1, 2, 3, 4
BOP_LT, BOP_LE, BOP_GT, BOP_GE, BOP_EQ, BOP_NE = 5, 6, 7, 8, 9, 10
BOP_AND, BOP_OR = 11, 12

BINARY_CODE = {"+": BOP_ADD, "-": BOP_SUB, "*": BOP_MUL, "/": BOP_DIV,
               "%": BOP_MOD, "<": BOP_LT, "<=": BOP_LE, ">": BOP_GT,
               ">=": BOP_GE, "==": BOP_EQ, "!=": BOP_NE, "&&": BOP_AND,
               "||": BOP_OR}

HEAP_LIMIT = 1 << 20
ARRAY_SHIFT = 21
LEN_MASK = (1 << ARRAY_SHIFT) - 1

STACK_LIMIT = 512

INT_MIN = -(1 << 31)

# A test's run ends in one of these (``engine.c`` numbers them alike).
STATUS_COMPLETED = 0
STATUS_TIMEOUT = 1
STATUS_ERROR = 2


def wrap32(v: int) -> int:
    """``v`` wrapped to int32, two's complement."""
    return ((v + 0x80000000) & 0xFFFFFFFF) - 0x80000000


def operator_code(code: int, op: str) -> int:
    """The payload operator ``op`` gives its parent of opcode ``code``: a
    Binary's or a Unary's ``a``, an IncDec's ``b``."""
    if code == OP_BINARY:
        return BINARY_CODE[op]
    if code == OP_UNARY:
        return 0 if op == "-" else 1
    return 1 if op == "++" else -1


class ProgramIR(NamedTuple):
    kind: array
    a: array
    b: array
    first: array
    nch: array
    entry: int      # row of the function under test
    n_slots: int    # every frame's size, at least 1


def build_ir(program: Program) -> ProgramIR:
    """Lower a program in one pass over its node table, taking frame slots
    from ``program.frames``. A program not yet checked is checked here; one
    the checker rejects raises ValueError. Every frame gets twice the
    largest function's slots: a statement donor declares at most as many
    variables as its own function, and ``Holes.fit`` numbers them from its
    target function's size, so every splice fits."""
    if program.frames is None:
        violations = static_check(program)
        if violations:
            raise ValueError(f"cannot lower a program that does not "
                             f"compile: {violations[0]}")
    slots, sizes = program.frames
    n = len(program.nodes)
    kind = array("i", [0] * n)
    a = array("q", [0] * n)
    b = array("i", [0] * n)
    first = program.first
    nch = array("i", [0] * n)
    # functions take ids 0..F-1, in declaration order
    func_index = {f.name: i for i, f in enumerate(program.functions)}

    for i, node in enumerate(program.nodes):
        k = node.kind
        children = node.children
        code = KIND_CODE[k]
        kind[i] = code
        if children:
            nch[i] = len(children)
        if k == KIND_IDENT:
            a[i] = slots[i]
        elif k == KIND_INT:
            # Literals are int32 like everything else; oversized source
            # literals wrap here so both engines see the same value.
            a[i] = wrap32(node.value)
        elif k == KIND_BINARY or k == KIND_UNARY:
            a[i] = operator_code(code, children[0].op)
        elif k == KIND_INCDEC:
            b[i] = operator_code(code, children[0].op)
        elif k == KIND_CALL:
            a[i] = -1 if node.name == BUILTIN_NEWARRAY \
                else func_index[node.name]
            b[i] = len(children)
        elif k == KIND_BOOL:
            a[i] = 1 if node.value else 0
        elif k == KIND_VARDECL:
            a[i] = slots[i]
            b[i] = 1 if len(children) > 1 else 0
        elif k == KIND_FOR:
            a[i] = slots[i]
            b[i] = 1 if node.loop_step == "++" else -1
        elif k == KIND_IF:
            a[i] = node.then_count
        elif k == KIND_RETURN:
            b[i] = 1 if children else 0

    return ProgramIR(kind, a, b, array("i", first), nch,
                     program.entry_index(), max(1, 2 * max(sizes, default=0)))


class Patch(NamedTuple):
    """A variant as a change to a ``ProgramIR``: rows appended after its
    last row, and at most one of its rows replaced whole. The engines'
    ``run_patch`` apply it in place and undo it."""
    kind: array     # the appended rows, numbered from len(ir.kind) on
    a: array
    b: array
    first: array
    nch: array
    row: int        # the row replaced, or -1
    cells: tuple    # its new (kind, a, b, first, nch)


def empty_patch() -> Patch:
    """The patch that changes nothing."""
    return Patch(array("i"), array("q"), array("i"), array("i"), array("i"),
                 -1, ())


class Splices:
    """The splice patches of one analysis: variants of the program of
    ``holes``, a ``lang.check.Holes``, as patches on ``ir``, its lowered
    form. A donor's rows depend only on the donor and on the slots its
    hole check resolved, which are one per (hole class, donor), so they
    are lowered once per pair, and every splice of the pair returns the
    same arrays."""

    def __init__(self, ir: ProgramIR, holes):
        self.ir = ir
        self.program = holes.program
        self.classes = holes.classes
        self.rows: dict[tuple[int, int], tuple] = {}
        self.no_rows = empty_patch()[:5]

    def patch(self, target: int, donor: AstNode, donor_id: int,
              slots) -> Patch:
        """The patch that puts ``donor`` in place of node ``target``. Only
        for a donor that ``lang.check.Holes`` accepted there: the variant
        then checks, and every variable it shares with the original keeps
        its slot. ``slots`` are the slots that hole check resolved, keyed
        by the program's node ids.

        An operator only replaces its parent's row, with the new operator
        in its payload. Any other donor replaces the target's row with its
        own, whose ``first`` points at its descendants, appended
        breadth-first. A statement donor's VarDecls and For loops bind the
        fresh slots the hole check gave them, past the slots of the
        target's function and inside ``ir.n_slots``. Neither ``ir`` nor a
        row of it is copied."""
        if donor.kind == KIND_OPERATOR:
            parent = self.program.parent[target]
            cells = [column[parent] for column in self.ir[:5]]
            code = cells[0]
            cells[1 + (code == OP_INCDEC)] = operator_code(code, donor.op)
            return Patch(*self.no_rows, parent, tuple(cells))
        key = (self.classes[target], donor_id)
        rows = self.rows.get(key)
        if rows is None:
            rows = self.rows[key] = _donor_rows(self.ir, donor_id, slots)
        return Patch(*rows[0], target, rows[1])


def _donor_rows(ir: ProgramIR, donor_id: int, slots) -> tuple:
    """Node ``donor_id``'s subtree as a splice lays it out after ``ir``'s
    rows: its descendants' rows breadth-first, as five arrays numbered
    from ``len(ir.kind)`` on, and the donor's own row, as its (kind, a, b,
    first, nch) cells, each with ``first`` remapped. VarDecls, For loops
    and identifiers take their ``slots``; an identifier the check gave no
    slot is a VarDecl's name, and keeps the -1 it has in ``ir``."""
    kind, a, b, first, nch = ir[:5]
    # the loop visits what it appends
    order = [donor_id]
    for i in order:
        order.extend(range(first[i], first[i] + nch[i]))
    new_a = [slots.get(i, a[i]) for i in order]
    new_first = [first[i] for i in order]
    child = len(kind)   # new id of the next row's first child
    for j, i in enumerate(order):
        if nch[i]:
            new_first[j] = child
            child += nch[i]
    below = order[1:]
    return ((array("i", [kind[i] for i in below]), array("q", new_a[1:]),
             array("i", [b[i] for i in below]), array("i", new_first[1:]),
             array("i", [nch[i] for i in below])),
            (kind[donor_id], new_a[0], b[donor_id], new_first[0],
             nch[donor_id]))


def apply_patch(ir: ProgramIR, patch: Patch) -> ProgramIR:
    """The whole IR ``patch`` describes on ``ir``, in new arrays. The patch
    is not validated; the engines' ``run_patch`` do that."""
    columns = [column + rows for column, rows in zip(ir[:5], patch[:5])]
    if patch.row >= 0:
        for column, cell in zip(columns, patch.cells):
            column[patch.row] = cell
    return ProgramIR(*columns, ir.entry, ir.n_slots)


def pack_array(offset: int, length: int) -> int:
    return (offset << ARRAY_SHIFT) | length


def summarize(runs, tests):
    """The (total_steps, n_correct, any_timeout, any_error) of an engine's
    ``run_tests`` rows of ``tests``: what its ``run_patch`` returns."""
    return (sum(steps for _, steps, _, _ in runs),
            sum(final == tuple(test.expected_output)
                for (_, _, _, final), test in zip(runs, tests)),
            any(status == STATUS_TIMEOUT for status, _, _, _ in runs),
            any(status == STATUS_ERROR for status, _, _, _ in runs))
