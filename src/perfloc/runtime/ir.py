"""Flat intermediate form both interpreter engines execute.

The AST is lowered to parallel arrays indexed by node id. Breadth-first id
assignment makes every node's children a contiguous id range, so child links
are just (first_child, n_children). Identifier references are resolved to
frame slot numbers statically; the engines never see names.

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
    Identifier    a = slot (-1 for binding occurrences, never executed)
    IntLiteral    a = value (int32)
    BoolLiteral   a = 0 / 1

Array values live in a per-execution int32 heap; a frame slot holds either an
int/bool or a packed array reference (offset << 21 | length). Static types
decide which interpretation applies, so no runtime tags are needed.
"""

from __future__ import annotations

from array import array

from ..lang.ast import (
    Program,
    KIND_FUNCTION, KIND_BLOCK, KIND_VARDECL, KIND_ASSIGN, KIND_IF, KIND_FOR,
    KIND_WHILE, KIND_RETURN, KIND_EXPRSTMT, KIND_BINARY, KIND_UNARY,
    KIND_INCDEC, KIND_CALL, KIND_INDEX, KIND_IDENT, KIND_INT, KIND_BOOL,
    KIND_OPERATOR,
    TYPE_ARRAY,
)
from ..lang.check import BUILTIN_NEWARRAY

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


class FunctionInfo:
    __slots__ = ("name", "body", "n_slots", "n_params", "param_is_array",
                 "returns_value")

    def __init__(self, name, body, n_slots, n_params, param_is_array,
                 returns_value):
        self.name = name
        self.body = body
        self.n_slots = n_slots
        self.n_params = n_params
        self.param_is_array = param_is_array
        self.returns_value = returns_value


class ProgramIR:
    __slots__ = ("kind", "a", "b", "first", "nch", "functions", "entry")

    def __init__(self, kind, a, b, first, nch, functions, entry):
        self.kind = kind
        self.a = a
        self.b = b
        self.first = first
        self.nch = nch
        self.functions = functions
        self.entry = entry


class _Resolver:
    """Static name resolution: one slot per declaration, lexical lookup for
    every identifier read. Mirrors the checker's scope discipline, which has
    already accepted the program."""

    def __init__(self):
        self.scopes: list[dict[str, int]] = []
        self.n_slots = 0
        self.slot_of_node: dict[int, int] = {}

    def push(self):
        self.scopes.append({})

    def pop(self):
        self.scopes.pop()

    def declare(self, name: str) -> int:
        slot = self.n_slots
        self.n_slots += 1
        self.scopes[-1][name] = slot
        return slot

    def lookup(self, name: str) -> int:
        for scope in reversed(self.scopes):
            if name in scope:
                return scope[name]
        raise KeyError(name)

    def resolve_function(self, func):
        self.push()
        for _, pname in func.params or []:
            self.declare(pname)
        self.resolve_statements(func.children[0].children)
        self.pop()

    def resolve_statements(self, stmts):
        self.push()
        for s in stmts:
            self.resolve_statement(s)
        self.pop()

    def resolve_statement(self, node):
        kind = node.kind
        if kind == KIND_BLOCK:
            self.resolve_statements(node.children)
        elif kind == KIND_VARDECL:
            if len(node.children) > 1:
                self.resolve_expr(node.children[1])
            self.slot_of_node[node.node_id] = self.declare(
                node.children[0].name)
        elif kind == KIND_IF:
            self.resolve_expr(node.children[0])
            k = node.then_count
            self.resolve_statements(node.children[1:1 + k])
            self.resolve_statements(node.children[1 + k:])
        elif kind == KIND_FOR:
            # The init expression cannot see the counter it initialises.
            self.resolve_expr(node.children[0])
            self.push()
            self.slot_of_node[node.node_id] = self.declare(node.loop_var)
            self.resolve_expr(node.children[1])
            for s in node.children[2:]:
                self.resolve_statement(s)
            self.pop()
        elif kind == KIND_WHILE:
            self.resolve_expr(node.children[0])
            self.resolve_statements(node.children[1:])
        elif kind == KIND_RETURN:
            if node.children:
                self.resolve_expr(node.children[0])
        elif kind == KIND_EXPRSTMT:
            self.resolve_expr(node.children[0])
        elif kind == KIND_ASSIGN:
            target, value = node.children
            if target.kind == KIND_IDENT:
                self.slot_of_node[target.node_id] = self.lookup(target.name)
            else:
                self.resolve_expr(target)
            self.resolve_expr(value)

    def resolve_expr(self, node):
        kind = node.kind
        if kind == KIND_IDENT:
            self.slot_of_node[node.node_id] = self.lookup(node.name)
        elif kind == KIND_INCDEC:
            self.slot_of_node[node.node_id] = self.lookup(
                node.children[1].name)
        elif kind in (KIND_BINARY, KIND_UNARY):
            for c in node.children[1:]:
                self.resolve_expr(c)
        elif kind in (KIND_CALL, KIND_INDEX):
            for c in node.children:
                self.resolve_expr(c)


def build_ir(program: Program) -> ProgramIR:
    """Lower a statically valid program. Precondition: zero violations from
    the checker (undefined names would raise KeyError here)."""
    n = len(program.nodes)
    kind = array("i", [0] * n)
    a = array("q", [0] * n)
    b = array("i", [0] * n)
    first = array("i", [0] * n)
    nch = array("i", [0] * n)

    func_index = {f.name: i for i, f in enumerate(program.functions)}
    functions = []

    for idx, func in enumerate(program.functions):
        resolver = _Resolver()
        resolver.resolve_function(func)
        slots = resolver.slot_of_node
        for node in func.walk():
            i = node.node_id
            k = node.kind
            kind[i] = KIND_CODE[k]
            if node.children:
                first[i] = node.children[0].node_id
            nch[i] = len(node.children)
            if k == KIND_FUNCTION:
                a[i] = node.children[0].node_id
                b[i] = idx
            elif k == KIND_VARDECL:
                a[i] = slots[i]
                b[i] = 1 if len(node.children) > 1 else 0
            elif k == KIND_IF:
                a[i] = node.then_count
            elif k == KIND_FOR:
                a[i] = slots[i]
                b[i] = 1 if node.loop_step == "++" else -1
            elif k == KIND_RETURN:
                b[i] = 1 if node.children else 0
            elif k == KIND_BINARY:
                a[i] = BINARY_CODE[node.children[0].op]
            elif k == KIND_UNARY:
                a[i] = 0 if node.children[0].op == "-" else 1
            elif k == KIND_INCDEC:
                a[i] = slots[i]
                b[i] = 1 if node.children[0].op == "++" else -1
            elif k == KIND_CALL:
                a[i] = -1 if node.name == BUILTIN_NEWARRAY \
                    else func_index[node.name]
                b[i] = len(node.children)
            elif k == KIND_IDENT:
                a[i] = slots.get(i, -1)
            elif k == KIND_INT:
                # Literals are int32 like everything else; oversized source
                # literals wrap here so both engines see the same value.
                a[i] = ((node.value + 0x80000000) & 0xFFFFFFFF) - 0x80000000
            elif k == KIND_BOOL:
                a[i] = 1 if node.value else 0
        params = func.params or []
        functions.append(FunctionInfo(
            name=func.name,
            body=func.children[0].node_id,
            n_slots=max(resolver.n_slots, 1),
            n_params=len(params),
            param_is_array=[t == TYPE_ARRAY for t, _ in params],
            returns_value=func.ret_type != "void",
        ))

    return ProgramIR(kind, a, b, first, nch, functions,
                     {f.name: i for i, f in enumerate(program.functions)})


def pack_array(offset: int, length: int) -> int:
    return (offset << ARRAY_SHIFT) | length
