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

Operator typing: a binary operator's operand and result types are its
level's in ``ast.BINARY_LEVELS``; ``-`` takes and gives an int, ``!`` a
bool.

Scoping: one scope per function (params), per control body, and per for-loop
(the header counter lives in the loop scope; its init expression is checked in
the enclosing scope). No shadowing anywhere. Function names are not values.

Frame slots: this is the only place names are resolved. Each declaration gets
the next slot of its function's frame, in the order the walk meets them, so
parameters hold slots 0..n-1 and sibling scopes never share a slot. A program
the checker accepts gets ``Program.frames``: the slot each VarDecl and For
counter binds and each identifier read or assigned, and every function's
frame size. ``runtime.ir.build_ir`` reads those instead of resolving again.

Nodes carry no id, so the walk carries each node's id beside it (child k of
node i is ``program.first[i] + k``); slots and violations are keyed by those
ids. Violations come back sorted by node id.

Typed holes: ``Holes`` answers whether a donor, put at a position of an
accepted program, would pass this check, without building the variant.
One recording walk notes, at each expression and statement position, the
first rule call that reaches it (``check_typed``, ``type_of``,
``check_assign``, ``check_step``, ``check_comparable`` or
``check_statement``) and the variables visible there; a donor is checked
by replaying that call with the donor in the position's place, which
resolves its names in the hole's scope. ``check_assign`` notes only its
target: the value's first call is the ``check_typed`` inside it, which
does not resolve the target again. Positions whose recorded calls are
equal share a hole class, and each donor is replayed once per class. An
operator and a VarDecl's name, which no rule call reaches, are tested as
their parent rebuilt with the donor, on every fit. There are three
verdicts:

- False: the replay reports a violation, which the full check reports too;
- True: no violation, and the edit leaves every later scope as it was, so
  the rest of the program checks as before (every expression and operator
  edit; a statement edit in a ``void`` function where neither statement
  is a VarDecl);
- None: no violation, but the edit may change the scopes that follow or
  whether a non-void function returns.

The exhaustive loop never builds a variant a hole rejects, and runs one it
accepts as a patch on the original's IR (``runtime.ir.Splices``)
with the slots that replay resolved, so ``static_check`` decides only
the variants the holes give no verdict on.
"""

from __future__ import annotations

from typing import NamedTuple, Optional

from .ast import (
    AstNode, Program, BINARY_LEVELS,
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

# operator: (operand type or None, result type), from ``BINARY_LEVELS``
BINARY_TYPES = {op: (operand, result) for ops, operand, result in BINARY_LEVELS
                for op in ops}


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
        # No shadowing, so every visible variable has one entry in
        # ``variables`` (name: type, slot); each open scope lists the names
        # it declared, to drop them when it closes.
        self.variables: dict[str, tuple[str, int]] = {}
        self.scopes: list[list[str]] = []
        self.first = program.first
        self.slots = [-1] * len(program.nodes)
        self.sizes: list[int] = []
        self.n_slots = 0

    def report(self, code: str, node_id: int, message: str) -> None:
        self.violations.append(Violation(code, node_id, message))

    # scope helpers --------------------------------------------------------

    def resolve(self, ident: AstNode, nid: int) -> Optional[str]:
        """Type of the variable identifier ``nid`` names, recording its
        slot; None (reported) when no such variable is visible."""
        entry = self.variables.get(ident.name)
        if entry is None:
            self.report(UNDECLARED, nid, f"{ident.name!r} is not declared")
            return None
        var_type, slot = entry
        self.slots[nid] = slot
        return var_type

    def visible(self, name: str) -> bool:
        return (name in self.variables or name in self.signatures
                or name == BUILTIN_NEWARRAY)

    def open_scope(self) -> None:
        self.scopes.append([])

    def close_scope(self) -> None:
        for name in self.scopes.pop():
            del self.variables[name]

    def declare(self, nid: int, name: str, var_type: str) -> int:
        """Bind ``name``, declared by node ``nid``, to the function's next
        frame slot and return it; -1 (reported) when the name is already
        visible."""
        if self.visible(name):
            self.report(DUPLICATE, nid, f"{name!r} is already declared")
            return -1
        slot = self.n_slots
        self.n_slots += 1
        self.variables[name] = (var_type, slot)
        self.scopes[-1].append(name)
        return slot

    # entry point ----------------------------------------------------------

    def run(self) -> list[Violation]:
        self.walk()
        self.violations.sort(key=lambda v: (v.node_id, v.code, v.message))
        self.program.frames = None if self.violations \
            else Frames(self.slots, self.sizes)
        return self.violations

    def walk(self) -> None:
        """Record every function's signature, then check each function."""
        # function k is node k
        for k, func in enumerate(self.program.functions):
            if func.name == BUILTIN_NEWARRAY or func.name in self.signatures:
                self.report(DUPLICATE, k,
                            f"function {func.name!r} is already declared")
            else:
                self.signatures[func.name] = (
                    func.ret_type, [t for t, _ in (func.params or [])])
        for k, func in enumerate(self.program.functions):
            self.check_function(func, k)

    def check_function(self, func: AstNode, fid: int) -> None:
        self.variables = {}
        self.scopes = [[]]
        self.n_slots = 0
        for ptype, pname in func.params or []:
            self.declare(fid, pname, ptype)
        body = func.children[0]
        self.check_statements(body.children, self.first[self.first[fid]],
                              func)
        self.sizes.append(self.n_slots)
        if func.ret_type != TYPE_VOID and not _definitely_returns(body.children):
            self.report(NO_RETURN, fid,
                        f"{func.name!r} can finish without returning "
                        f"{func.ret_type}")

    # statements -----------------------------------------------------------

    def check_statements(self, stmts, start: int, func: AstNode) -> None:
        """Check ``stmts``, sibling nodes with ids from ``start``, in a
        scope of their own."""
        self.open_scope()
        for nid, s in enumerate(stmts, start):
            self.check_statement(s, nid, func)
        self.close_scope()

    def check_statement(self, node: AstNode, nid: int,
                        func: AstNode) -> None:
        kind = node.kind
        children = node.children
        f = self.first[nid]
        if kind == KIND_BLOCK:
            self.check_statements(children, f, func)
        elif kind == KIND_VARDECL:
            if len(children) > 1:
                self.check_typed(children[1], f + 1, node.decl_type)
            # Mutation can plant an arbitrary expression in the name slot.
            if children[0].kind != KIND_IDENT:
                self.report(BAD_TARGET, nid,
                            "declaration needs a plain variable name")
            else:
                self.slots[nid] = self.declare(nid, children[0].name,
                                               node.decl_type)
        elif kind == KIND_ASSIGN:
            self.check_assign(children[0], f, children[1], f + 1, nid)
        elif kind == KIND_IF:
            self.check_typed(children[0], f, TYPE_BOOL)
            k = node.then_count
            self.check_statements(children[1:1 + k], f + 1, func)
            self.check_statements(children[1 + k:], f + 1 + k, func)
        elif kind == KIND_FOR:
            self.check_typed(children[0], f, TYPE_INT)
            self.open_scope()
            self.slots[nid] = self.declare(nid, node.loop_var, TYPE_INT)
            self.check_typed(children[1], f + 1, TYPE_BOOL)
            for sid, s in enumerate(children[2:], f + 2):
                self.check_statement(s, sid, func)
            self.close_scope()
        elif kind == KIND_WHILE:
            self.check_typed(children[0], f, TYPE_BOOL)
            self.check_statements(children[1:], f + 1, func)
        elif kind == KIND_RETURN:
            self.check_return(node, nid, f, func)
        elif kind == KIND_EXPRSTMT:
            self.type_of(children[0], f)
        else:
            # An expression stranded in statement position never parses, but
            # guard the walk anyway so odd trees are diagnosed, not crashed.
            self.report(TYPE_ERR, nid, f"{kind} is not a statement")

    def check_assign(self, target: AstNode, tid: int, value: AstNode,
                     vid: int, nid: int) -> None:
        """Check assignment ``nid`` of ``value`` (id ``vid``) to ``target``
        (id ``tid``)."""
        if target.kind == KIND_IDENT:
            var_type = self.resolve(target, tid)
            if var_type is None:
                self.type_of(value, vid)
            else:
                self.check_typed(value, vid, var_type)
        elif target.kind == KIND_INDEX:
            self.type_of(target, tid)
            self.check_typed(value, vid, TYPE_INT)
        else:
            self.report(BAD_TARGET, nid,
                        f"cannot assign to a {target.kind}")
            self.type_of(value, vid)

    def check_return(self, node: AstNode, nid: int, f: int,
                     func: AstNode) -> None:
        if func.ret_type == TYPE_VOID:
            if node.children:
                self.report(TYPE_ERR, f, f"{func.name!r} returns no value")
                self.type_of(node.children[0], f)
        elif not node.children:
            self.report(TYPE_ERR, nid, f"return needs a {func.ret_type}")
        else:
            self.check_typed(node.children[0], f, func.ret_type)

    # expressions ----------------------------------------------------------

    def check_typed(self, node: AstNode, nid: int, expected: str) -> None:
        actual = self.type_of(node, nid)
        if actual is not None and actual != expected:
            self.report(TYPE_ERR, nid, f"expected {expected}, got {actual}")

    def type_of(self, node: AstNode, nid: int) -> Optional[str]:
        """Type of expression ``nid``, or None when it cannot be determined
        because of an error already reported deeper down."""
        kind = node.kind
        if kind == KIND_INT:
            return TYPE_INT
        if kind == KIND_BOOL:
            return TYPE_BOOL
        if kind == KIND_IDENT:
            return self.resolve(node, nid)
        f = self.first[nid]
        if kind == KIND_INDEX:
            base, index = node.children
            self.check_typed(base, f, TYPE_ARRAY)
            self.check_typed(index, f + 1, TYPE_INT)
            return TYPE_INT
        if kind == KIND_INCDEC:
            self.check_step(node.children[0].op, node.children[1], f + 1,
                            nid)
            return TYPE_INT
        if kind == KIND_UNARY:
            op = node.children[0].op
            operand_type = TYPE_INT if op == "-" else TYPE_BOOL
            self.check_typed(node.children[1], f + 1, operand_type)
            return operand_type
        if kind == KIND_BINARY:
            return self.type_of_binary(node, f)
        if kind == KIND_CALL:
            return self.type_of_call(node, nid, f)
        if kind == KIND_OPERATOR:
            self.report(TYPE_ERR, nid, "operator used as a value")
            return None
        self.report(TYPE_ERR, nid, f"{kind} is not an expression")
        return None

    def type_of_binary(self, node: AstNode, f: int) -> Optional[str]:
        """Type of a Binary whose children start at id ``f``."""
        op, left, right = node.children
        rule = BINARY_TYPES.get(op.op)
        if rule is None:
            self.report(TYPE_ERR, f, f"unknown operator {op.op!r}")
            return None
        operand, result = rule
        if operand is None:
            self.check_comparable(left, f + 1, right, f + 2)
        else:
            self.check_typed(left, f + 1, operand)
            self.check_typed(right, f + 2, operand)
        return result

    def check_step(self, op: str, target: AstNode, tid: int,
                   nid: int) -> None:
        """Check the operand ``target`` (id ``tid``) of ``++``/``--``
        expression ``nid``."""
        if target.kind != KIND_IDENT:
            self.report(BAD_TARGET, nid, f"{op} needs a plain variable")
            self.type_of(target, tid)
        else:
            self.check_typed(target, tid, TYPE_INT)

    def check_comparable(self, left: AstNode, lid: int, right: AstNode,
                         rid: int) -> None:
        """Check the operands of an ``==`` or ``!=``."""
        lt = self.type_of(left, lid)
        rt = self.type_of(right, rid)
        for side, t in ((lid, lt), (rid, rt)):
            if t == TYPE_ARRAY or t == TYPE_VOID:
                self.report(TYPE_ERR, side, f"cannot compare {t} values")
        if (lt in (TYPE_INT, TYPE_BOOL) and rt in (TYPE_INT, TYPE_BOOL)
                and lt != rt):
            self.report(TYPE_ERR, rid, f"expected {lt}, got {rt}")

    def type_of_call(self, node: AstNode, nid: int,
                     f: int) -> Optional[str]:
        args = node.children
        if node.name == BUILTIN_NEWARRAY:
            if len(args) != 1:
                self.report(ARITY, nid,
                            f"newArray takes 1 argument, got {len(args)}")
                for aid, a in enumerate(args, f):
                    self.type_of(a, aid)
            else:
                self.check_typed(args[0], f, TYPE_INT)
            return TYPE_ARRAY
        sig = self.signatures.get(node.name)
        if sig is None:
            self.report(UNDECLARED, nid,
                        f"function {node.name!r} is not declared")
            for aid, a in enumerate(args, f):
                self.type_of(a, aid)
            return None
        ret_type, param_types = sig
        if len(args) != len(param_types):
            self.report(ARITY, nid,
                        f"{node.name!r} takes {len(param_types)} arguments, "
                        f"got {len(args)}")
            for aid, a in enumerate(args, f):
                self.type_of(a, aid)
        else:
            for aid, (arg, ptype) in enumerate(zip(args, param_types), f):
                self.check_typed(arg, aid, ptype)
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


# typed holes ---------------------------------------------------------------

def _hole(rule, *positions: int):
    """An override of the ``Checker`` rule ``rule`` that, before running
    it, notes the call at each (node, id) pair of its arguments that
    starts at one of ``positions`` and that no earlier call reached."""
    def recording(self, *args):
        calls = self.calls
        variables = None
        for at in positions:
            if calls[args[at + 1]] is None:
                if variables is None:
                    variables = dict(self.variables)
                calls[args[at + 1]] = (rule, args[:at], args[at + 2:],
                                       variables)
        return rule(self, *args)
    return recording


class _Recorder(Checker):
    """A checker that notes, at every expression and statement position,
    the first rule call that reaches it: the unbound ``Checker`` rule, its
    arguments before and after the position's (node, id) pair, and the
    variables visible there."""

    def __init__(self, program: Program):
        super().__init__(program)
        self.calls: list[Optional[tuple]] = [None] * len(program.nodes)

    check_typed = _hole(Checker.check_typed, 0)
    type_of = _hole(Checker.type_of, 0)
    check_assign = _hole(Checker.check_assign, 0)
    check_step = _hole(Checker.check_step, 1)
    check_comparable = _hole(Checker.check_comparable, 0, 2)
    check_statement = _hole(Checker.check_statement, 0)


class Holes:
    """The holes of an accepted program, after Omar et al.'s typed holes
    ("Hazelnut", POPL 2017). One recording walk notes, for every
    expression and statement position, the first checker rule call that
    reaches it and the variables visible there. ``fit`` replays that call
    on a plain checker with a donor in the hole, so no variant is built
    and the checker alone decides which rule governs a position; the slots
    the replay resolves are the donor's frame slots in the variant.

    Positions whose recorded calls are equal share a hole class
    (``classes``, -1 where no call is recorded): the same rule, the same
    arguments besides the position's own (node, id) pair, nodes compared
    by identity, and equal visible variables, slots included. A replay
    reads nothing else, so its violations and slots are one per (class,
    donor), and ``fit`` replays each pair once.

    An expression edit declares nothing and leaves its parent's type as it
    was (a parent's type depends only on its operator or callee), so the
    rest of the program checks as before: the verdict is exact. A
    statement replay runs in a scope of its own, closed afterwards, and
    numbers the donor's declarations from the function's frame size, so
    each gets a slot no other variable holds. A donor declares at most as
    many variables as its own function, so these slots stay below twice
    the largest function's size, the frame ``runtime.ir.build_ir`` gives
    every function. A violation there is exact,
    since the full walk meets the donor in the same state. Without one,
    the verdict is exact only when neither statement is a VarDecl, which
    alone changes the scopes that follow, and the function is ``void``,
    where no ``MissingReturn`` can arise; elsewhere there is none."""

    def __init__(self, program: Program):
        recorder = _Recorder(program)
        recorder.walk()
        self.program = program
        self.calls = [None] * len(program.nodes) if recorder.violations \
            else recorder.calls
        self.sizes = dict(zip(program.functions, recorder.sizes))
        self.checker = Checker(program)
        self.checker.signatures = recorder.signatures
        # a call's rule, its other arguments and its visible variables;
        # AstNode keeps object's ==, so a node argument compares by
        # identity
        ids: dict[tuple, int] = {}
        self.classes = [
            -1 if call is None
            else ids.setdefault((*call[:3], frozenset(call[3].items())),
                                len(ids))
            for call in self.calls]
        # (class, donor id): (whether the replay reports a violation, the
        # slots it resolved)
        self.replays: dict[tuple[int, int], tuple[bool, dict[int, int]]] = {}

    def fit(self, target: int, donor: AstNode,
            donor_id: int) -> tuple[Optional[bool], dict[int, int]]:
        """Whether ``static_check`` accepts the program with ``donor``, node
        ``donor_id`` of this program (-1 for an operator), in place of node
        ``target`` (None where the hole gives no verdict), and the frame
        slots this check resolved, keyed by node id: those of the donor's
        identifiers, VarDecls and For loops among them. The slots are
        shared by every fit of the donor in the target's hole class, and
        must not be changed. A position no rule call reaches (an operator,
        a VarDecl's name) is tested as its parent, rebuilt with the donor
        in its place, in the parent's hole; that replay is not kept."""
        cls = self.classes[target]
        if cls >= 0:
            call = self.calls[target]
            replay = self.replays.get((cls, donor_id))
            if replay is None:
                replay = self.replays[cls, donor_id] = \
                    self._replay(call, donor, donor_id)
        else:
            program = self.program
            parent = program.parent[target]
            old = program.nodes[parent]
            children = list(old.children)
            children[target - program.first[parent]] = donor
            target = parent
            donor = old.copy_with(children)
            call = self.calls[target]
            if call is None:
                return None, {}
            replay = self._replay(call, donor, target)
        violated, slots = replay
        if violated:
            return False, slots
        rule, _, after, _ = call
        if rule is Checker.check_statement \
                and (after[0].ret_type != TYPE_VOID
                     or donor.kind == KIND_VARDECL
                     or self.program.nodes[target].kind == KIND_VARDECL):
            return None, slots
        return True, slots

    def _replay(self, call: tuple, donor: AstNode,
                donor_id: int) -> tuple[bool, dict[int, int]]:
        """Replay the recorded ``call`` with ``donor``, node ``donor_id``,
        in its hole: whether it reports a violation, and the slots it
        resolved."""
        rule, before, after, variables = call
        checker = self.checker
        checker.violations = []
        checker.slots = {}
        checker.variables = variables
        if rule is Checker.check_statement:
            checker.n_slots = self.sizes[after[0]]
        checker.open_scope()
        rule(checker, *before, donor, donor_id, *after)
        checker.close_scope()
        return bool(checker.violations), checker.slots

