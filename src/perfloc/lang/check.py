"""Static checks. A program is compilable iff this module reports nothing.

Violation codes:

- UndeclaredIdentifier: a name that resolves to no visible variable, or a
  call to no known function.
- TypeMismatch: operand, argument, condition, index, assignment or return
  value of the wrong type; also using a void call where a value is needed.
- DuplicateDeclaration: declaring a name that is already visible (params,
  enclosing locals, function names, the builtin ``newArray``). Sibling scopes
  may reuse names freely.
- ArityMismatch: call with the wrong number of arguments.
- BadAssignTarget: assigning to something that is neither a variable nor an
  array element, or ++/-- applied to a non-variable.
- MissingReturn: a non-void function whose body can finish without returning.

Scoping: one scope per function (params), per control body, and per for-loop
(the header counter lives in the loop scope; its init expression is checked in
the enclosing scope). No shadowing anywhere. Function names are not values.

Frame slots: this is the only place names are resolved. Each declaration gets
the next slot of its function's frame, in the order the walk meets them, so
parameters hold slots 0..n-1 and sibling scopes never share a slot. A program
the checker accepts gets ``Program.frames``: the slot each VarDecl and For
counter binds and each identifier read or assigned, and every function's
frame size. ``runtime.ir.build_ir`` reads those instead of resolving again.

Violations come back sorted by node id.
"""

from __future__ import annotations

from typing import NamedTuple, Optional

from .ast import (
    AstNode, Program,
    KIND_BLOCK, KIND_VARDECL, KIND_ASSIGN, KIND_IF, KIND_FOR,
    KIND_WHILE, KIND_RETURN, KIND_EXPRSTMT, KIND_BINARY, KIND_UNARY,
    KIND_INCDEC, KIND_CALL, KIND_INDEX, KIND_IDENT, KIND_INT, KIND_BOOL,
    KIND_OPERATOR,
    TYPE_INT, TYPE_BOOL, TYPE_ARRAY, TYPE_VOID,
)

UNDECLARED = "UndeclaredIdentifier"
TYPE_ERR = "TypeMismatch"
DUPLICATE = "DuplicateDeclaration"
ARITY = "ArityMismatch"
BAD_TARGET = "BadAssignTarget"
NO_RETURN = "MissingReturn"

BUILTIN_NEWARRAY = "newArray"

ARITH_OPS = ("+", "-", "*", "/", "%")
REL_OPS = ("<", "<=", ">", ">=")
EQ_OPS = ("==", "!=")
LOGIC_OPS = ("&&", "||")


class Violation(NamedTuple):
    code: str
    node_id: int
    message: str


class Frames(NamedTuple):
    """Frame layout of an accepted program. ``slots[node_id]`` is the slot a
    VarDecl or For binds, or an identifier reads or assigns; -1 elsewhere.
    ``sizes[i]`` is the number of slots function i declares."""
    slots: list[int]
    sizes: list[int]


class Checker:
    def __init__(self, program: Program):
        self.program = program
        self.violations: list[Violation] = []
        self.signatures: dict[str, tuple[str, list[str]]] = {}
        self.scopes: list[dict[str, tuple[str, int]]] = []  # name: type, slot
        self.slots = [-1] * len(program.nodes)
        self.sizes: list[int] = []
        self.n_slots = 0

    def report(self, code: str, node: AstNode, message: str) -> None:
        self.violations.append(Violation(code, node.node_id, message))

    # scope helpers --------------------------------------------------------

    def resolve(self, ident: AstNode) -> Optional[str]:
        """Type of the variable an identifier names, recording its slot;
        None (reported) when no such variable is visible."""
        name = ident.name
        for scope in reversed(self.scopes):
            if name in scope:
                var_type, slot = scope[name]
                self.slots[ident.node_id] = slot
                return var_type
        self.report(UNDECLARED, ident, f"{name!r} is not declared")
        return None

    def visible(self, name: str) -> bool:
        return (any(name in scope for scope in self.scopes)
                or name in self.signatures or name == BUILTIN_NEWARRAY)

    def declare(self, node: AstNode, name: str, var_type: str) -> int:
        """Bind ``name`` to the function's next frame slot and return it;
        -1 (reported) when the name is already visible."""
        if self.visible(name):
            self.report(DUPLICATE, node, f"{name!r} is already declared")
            return -1
        slot = self.n_slots
        self.n_slots += 1
        self.scopes[-1][name] = (var_type, slot)
        return slot

    # entry point ----------------------------------------------------------

    def run(self) -> list[Violation]:
        for func in self.program.functions:
            if func.name == BUILTIN_NEWARRAY or func.name in self.signatures:
                self.report(DUPLICATE, func,
                            f"function {func.name!r} is already declared")
            else:
                self.signatures[func.name] = (
                    func.ret_type, [t for t, _ in (func.params or [])])
        for func in self.program.functions:
            self.check_function(func)
        self.violations.sort(key=lambda v: (v.node_id, v.code, v.message))
        self.program.frames = None if self.violations \
            else Frames(self.slots, self.sizes)
        return self.violations

    def check_function(self, func: AstNode) -> None:
        self.scopes = [{}]
        self.n_slots = 0
        for ptype, pname in func.params or []:
            self.declare(func, pname, ptype)
        body = func.children[0]
        self.check_statements(body.children, func)
        self.sizes.append(self.n_slots)
        if func.ret_type != TYPE_VOID and not _definitely_returns(body.children):
            self.report(NO_RETURN, func,
                        f"{func.name!r} can finish without returning "
                        f"{func.ret_type}")

    # statements -----------------------------------------------------------

    def check_statements(self, stmts, func: AstNode) -> None:
        self.scopes.append({})
        for s in stmts:
            self.check_statement(s, func)
        self.scopes.pop()

    def check_statement(self, node: AstNode, func: AstNode) -> None:
        kind = node.kind
        if kind == KIND_BLOCK:
            self.check_statements(node.children, func)
        elif kind == KIND_VARDECL:
            if len(node.children) > 1:
                self.check_typed(node.children[1], node.decl_type)
            # Mutation can plant an arbitrary expression in the name slot.
            if node.children[0].kind != KIND_IDENT:
                self.report(BAD_TARGET, node,
                            "declaration needs a plain variable name")
            else:
                self.slots[node.node_id] = self.declare(
                    node, node.children[0].name, node.decl_type)
        elif kind == KIND_ASSIGN:
            self.check_assign(node)
        elif kind == KIND_IF:
            self.check_typed(node.children[0], TYPE_BOOL)
            k = node.then_count
            self.check_statements(node.children[1:1 + k], func)
            self.check_statements(node.children[1 + k:], func)
        elif kind == KIND_FOR:
            self.check_typed(node.children[0], TYPE_INT)
            self.scopes.append({})
            self.slots[node.node_id] = self.declare(node, node.loop_var,
                                                    TYPE_INT)
            self.check_typed(node.children[1], TYPE_BOOL)
            for s in node.children[2:]:
                self.check_statement(s, func)
            self.scopes.pop()
        elif kind == KIND_WHILE:
            self.check_typed(node.children[0], TYPE_BOOL)
            self.check_statements(node.children[1:], func)
        elif kind == KIND_RETURN:
            self.check_return(node, func)
        elif kind == KIND_EXPRSTMT:
            self.type_of(node.children[0])
        else:
            # An expression stranded in statement position never parses, but
            # guard the walk anyway so odd trees are diagnosed, not crashed.
            self.report(TYPE_ERR, node, f"{kind} is not a statement")

    def check_assign(self, node: AstNode) -> None:
        target, value = node.children
        if target.kind == KIND_IDENT:
            var_type = self.resolve(target)
            if var_type is None:
                self.type_of(value)
            else:
                self.check_typed(value, var_type)
        elif target.kind == KIND_INDEX:
            self.type_of(target)
            self.check_typed(value, TYPE_INT)
        else:
            self.report(BAD_TARGET, node,
                        f"cannot assign to a {target.kind}")
            self.type_of(value)

    def check_return(self, node: AstNode, func: AstNode) -> None:
        if func.ret_type == TYPE_VOID:
            if node.children:
                self.report(TYPE_ERR, node.children[0],
                            f"{func.name!r} returns no value")
                self.type_of(node.children[0])
        elif not node.children:
            self.report(TYPE_ERR, node, f"return needs a {func.ret_type}")
        else:
            self.check_typed(node.children[0], func.ret_type)

    # expressions ----------------------------------------------------------

    def check_typed(self, node: AstNode, expected: str) -> None:
        actual = self.type_of(node)
        if actual is not None and actual != expected:
            self.report(TYPE_ERR, node, f"expected {expected}, got {actual}")

    def type_of(self, node: AstNode) -> Optional[str]:
        """Type of an expression, or None when it cannot be determined
        because of an error already reported deeper down."""
        kind = node.kind
        if kind == KIND_INT:
            return TYPE_INT
        if kind == KIND_BOOL:
            return TYPE_BOOL
        if kind == KIND_IDENT:
            return self.resolve(node)
        if kind == KIND_INDEX:
            base, index = node.children
            self.check_typed(base, TYPE_ARRAY)
            self.check_typed(index, TYPE_INT)
            return TYPE_INT
        if kind == KIND_INCDEC:
            target = node.children[1]
            if target.kind != KIND_IDENT:
                self.report(BAD_TARGET, node,
                            f"{node.children[0].op} needs a plain variable")
                self.type_of(target)
            else:
                self.check_typed(target, TYPE_INT)
            return TYPE_INT
        if kind == KIND_UNARY:
            op = node.children[0].op
            operand_type = TYPE_INT if op == "-" else TYPE_BOOL
            self.check_typed(node.children[1], operand_type)
            return operand_type
        if kind == KIND_BINARY:
            return self.type_of_binary(node)
        if kind == KIND_CALL:
            return self.type_of_call(node)
        if kind == KIND_OPERATOR:
            self.report(TYPE_ERR, node, "operator used as a value")
            return None
        self.report(TYPE_ERR, node, f"{kind} is not an expression")
        return None

    def type_of_binary(self, node: AstNode) -> Optional[str]:
        op = node.children[0].op
        left, right = node.children[1], node.children[2]
        if op in ARITH_OPS:
            self.check_typed(left, TYPE_INT)
            self.check_typed(right, TYPE_INT)
            return TYPE_INT
        if op in REL_OPS:
            self.check_typed(left, TYPE_INT)
            self.check_typed(right, TYPE_INT)
            return TYPE_BOOL
        if op in LOGIC_OPS:
            self.check_typed(left, TYPE_BOOL)
            self.check_typed(right, TYPE_BOOL)
            return TYPE_BOOL
        if op in EQ_OPS:
            lt = self.type_of(left)
            rt = self.type_of(right)
            for side, t in ((left, lt), (right, rt)):
                if t == TYPE_ARRAY or t == TYPE_VOID:
                    self.report(TYPE_ERR, side, f"cannot compare {t} values")
            if (lt in (TYPE_INT, TYPE_BOOL) and rt in (TYPE_INT, TYPE_BOOL)
                    and lt != rt):
                self.report(TYPE_ERR, right, f"expected {lt}, got {rt}")
            return TYPE_BOOL
        self.report(TYPE_ERR, node.children[0], f"unknown operator {op!r}")
        return None

    def type_of_call(self, node: AstNode) -> Optional[str]:
        if node.name == BUILTIN_NEWARRAY:
            if len(node.children) != 1:
                self.report(ARITY, node,
                            f"newArray takes 1 argument, got "
                            f"{len(node.children)}")
                for a in node.children:
                    self.type_of(a)
            else:
                self.check_typed(node.children[0], TYPE_INT)
            return TYPE_ARRAY
        sig = self.signatures.get(node.name)
        if sig is None:
            self.report(UNDECLARED, node,
                        f"function {node.name!r} is not declared")
            for a in node.children:
                self.type_of(a)
            return None
        ret_type, param_types = sig
        if len(node.children) != len(param_types):
            self.report(ARITY, node,
                        f"{node.name!r} takes {len(param_types)} arguments, "
                        f"got {len(node.children)}")
            for a in node.children:
                self.type_of(a)
        else:
            for arg, ptype in zip(node.children, param_types):
                self.check_typed(arg, ptype)
        return ret_type


def _definitely_returns(stmts) -> bool:
    for s in stmts:
        if s.kind == KIND_RETURN:
            return True
        if s.kind == KIND_BLOCK and _definitely_returns(s.children):
            return True
        if s.kind == KIND_IF:
            k = s.then_count
            has_else = len(s.children) > 1 + k
            if (has_else and _definitely_returns(s.children[1:1 + k])
                    and _definitely_returns(s.children[1 + k:])):
                return True
    return False


def static_check(program: Program) -> list[Violation]:
    """The program's violations; when there are none, its ``frames`` are
    set as well."""
    return Checker(program).run()
