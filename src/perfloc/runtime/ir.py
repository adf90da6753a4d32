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
lowered afresh: ``splice_ir`` patches the original's IR, appending new
rows at the end of the arrays, with no new opcode and no new step event.
A statement donor's declarations bind fresh slots past the original
frame, which grows to hold them; both engines zero a frame at every
call, so where a variable sits does not change a run. ``frame_slot`` and
``operator_code`` are the payload rules both share.

Per-node payload fields ``a`` and ``b``:

    FunctionDecl  a = body block id        b = function index
    VarDecl       a = slot                 b = 1 if it has an initialiser
    If            a = then-branch length
    For           a = counter slot         b = +1 or -1 (update direction)
    Return                                 b = 1 if it carries a value
    Binary        a = operator code
    Unary         a = 0 (negate) / 1 (not)
    IncDec        a = variable slot        b = +1 or -1
    Call          a = callee function index, or -1 for newArray
                                           b = argument count
    Identifier    a = slot; -1 for a VarDecl's name. An IncDec operand
                  holds its variable's slot, which neither engine reads
                  (both take it from the IncDec).
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


def frame_slot(code: int, i: int, first, slots) -> int:
    """The frame slot row ``i``, an Identifier or an IncDec (opcode
    ``code``), carries in ``a``: an Identifier its own, an IncDec its
    operand's. ``first`` and ``slots`` are keyed by the same node ids."""
    return slots[i] if code == OP_IDENT else slots[first[i] + 1]


def operator_code(code: int, op: str) -> int:
    """The payload operator ``op`` gives its parent of opcode ``code``: a
    Binary's or a Unary's ``a``, an IncDec's ``b``."""
    if code == OP_BINARY:
        return BINARY_CODE[op]
    if code == OP_UNARY:
        return 0 if op == "-" else 1
    return 1 if op == "++" else -1


class FunctionInfo(NamedTuple):
    name: str
    body: int       # id of the body Block
    n_slots: int    # frame size, at least 1
    n_params: int


class ProgramIR(NamedTuple):
    kind: array
    a: array
    b: array
    first: array
    nch: array
    functions: list[FunctionInfo]
    entry: int      # index of the function under test


def build_ir(program: Program) -> ProgramIR:
    """Lower a program in one pass over its node table, taking frame slots
    from ``program.frames``. A program not yet checked is checked here; one
    the checker rejects raises ValueError."""
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
    func_index = {f.name: i for i, f in enumerate(program.functions)}

    for i, node in enumerate(program.nodes):
        k = node.kind
        children = node.children
        code = KIND_CODE[k]
        kind[i] = code
        if children:
            nch[i] = len(children)
        if k == KIND_IDENT:
            a[i] = frame_slot(code, i, first, slots)
        elif k == KIND_INT:
            # Literals are int32 like everything else; oversized source
            # literals wrap here so both engines see the same value.
            a[i] = ((node.value + 0x80000000) & 0xFFFFFFFF) - 0x80000000
        elif k == KIND_BINARY or k == KIND_UNARY:
            a[i] = operator_code(code, children[0].op)
        elif k == KIND_INCDEC:
            a[i] = frame_slot(code, i, first, slots)
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
        elif k == KIND_FUNCTION:
            a[i] = first[i]
            b[i] = i  # functions take ids 0..F-1, in declaration order

    functions = [FunctionInfo(func.name, first[k], max(sizes[k], 1),
                              len(func.params))
                 for k, func in enumerate(program.functions)]
    return ProgramIR(kind, a, b, array("i", first), nch, functions,
                     program.entry_index())


def splice_ir(ir: ProgramIR, program: Program, target: int, donor: AstNode,
              donor_id: int, slots) -> ProgramIR:
    """The IR of ``program``, which ``ir`` was lowered from, with ``donor``
    (node ``donor_id`` of ``program``, -1 for an operator) in place of node
    ``target``. Only for a donor that ``lang.check.Holes`` accepted there:
    the variant then checks, and every variable it shares with the
    original keeps its slot. ``slots`` are the slots that hole check
    resolved, keyed by ``program``'s node ids.

    An operator only changes its parent's payload. Any other donor gets new
    rows at the end: a copy of the parent's child row with the donor in
    the target's place, then the donor's descendants breadth-first, whose
    ``first`` is remapped; the parent's ``first`` then points at the new
    row. A statement donor's VarDecls and For loops bind the fresh slots
    the hole check gave them, past the original's frame, and the frame of
    the target's function grows to hold them; ``entry`` is shared. Arrays
    the splice does not change are shared with ``ir``."""
    kind, a, b, first, nch = ir.kind, ir.a, ir.b, ir.first, ir.nch
    parent = program.parent[target]
    code = kind[parent]
    if donor.kind == KIND_OPERATOR:
        field = "b" if code == OP_INCDEC else "a"
        payload = getattr(ir, field)[:]
        payload[parent] = operator_code(code, donor.op)
        return ir._replace(**{field: payload})

    row, width = first[parent], nch[parent]
    at = target - row   # the target's place in its parent's child row
    # the donor's subtree, breadth-first: the loop visits what it appends
    order = [donor_id]
    for i in order:
        order.extend(range(first[i], first[i] + nch[i]))
    src = list(range(row, row + width))
    src[at] = donor_id
    src += order[1:]
    new_a = [a[i] for i in src]
    new_first = [first[i] for i in src]
    n = len(kind)
    child = n + width   # new id of the next donor row's first child
    n_slots = 0         # the frame size the donor's declarations need
    for p, i in enumerate(order):
        j = width - 1 + p if p else at
        if nch[i]:
            new_first[j] = child
            child += nch[i]
        k = kind[i]
        if k == OP_VARDECL or k == OP_FOR:
            new_a[j] = slots[i]
            n_slots = max(n_slots, slots[i] + 1)
        elif k == OP_INCDEC or (k == OP_IDENT and i in slots):
            # an identifier the check gave no slot is a VarDecl's name,
            # and keeps the -1 it has in ``ir``
            new_a[j] = frame_slot(k, i, first, slots)
    a = a + array("q", new_a)
    first = first + array("i", new_first)
    first[parent] = n
    if code == OP_INCDEC:
        # the donor is the operand, whose slot the IncDec carries
        a[parent] = new_a[at]
    functions = ir.functions
    if n_slots:
        f = parent
        while program.parent[f] >= 0:   # function k is node k
            f = program.parent[f]
        functions = list(functions)
        functions[f] = functions[f]._replace(
            n_slots=max(n_slots, functions[f].n_slots))
    return ir._replace(kind=kind + array("i", [kind[i] for i in src]), a=a,
                       b=b + array("i", [b[i] for i in src]), first=first,
                       nch=nch + array("i", [nch[i] for i in src]),
                       functions=functions)


def pack_array(offset: int, length: int) -> int:
    return (offset << ARRAY_SHIFT) | length
