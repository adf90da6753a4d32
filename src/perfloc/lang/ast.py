"""AST for the small imperative language the tool analyses.

One node class covers every construct; ``kind`` discriminates. Nodes carry no
position: they are never written after parsing (apart from the cached
structural hash), so programs share subtrees freely, and one node object may
stand at several places. Node identifiers belong to a ``Program``: dense
integers assigned in breadth-first order over the whole program (first
function first, then level by level), so a node's children always get a
contiguous id range and statements enumerate outer-before-inner.

Shape conventions, fixed here and relied on everywhere else:

- A function body is a Block. Control-flow bodies are NOT blocks: If, For and
  While hold their body statements directly as children.
- If children = [cond, then_0..then_{k-1}, else_0..]; ``then_count`` = k.
- For children = [init_expr, cond_expr, body...]; the loop variable (always an
  int) and the update direction live on the node as ``loop_var``/``loop_step``.
  The header declares the variable; the update is ``var++`` or ``var--``.
- Binary/Unary/IncDec keep their operator as a separate Operator child node
  (first child). Operator nodes carry the symbol and nothing else.
- VarDecl children = [name Identifier] or [name Identifier, init_expr]; the
  name child is a binding occurrence, not an expression.
- Index children = [base_expr, index_expr]. Call stores the callee name on the
  node; children are the arguments.
"""

from __future__ import annotations

from typing import Optional

KIND_FUNCTION = "FunctionDecl"
KIND_BLOCK = "Block"
KIND_VARDECL = "VarDecl"
KIND_ASSIGN = "Assign"
KIND_IF = "If"
KIND_FOR = "For"
KIND_WHILE = "While"
KIND_RETURN = "Return"
KIND_EXPRSTMT = "ExprStmt"
KIND_BINARY = "Binary"
KIND_UNARY = "Unary"
KIND_INCDEC = "IncDec"
KIND_CALL = "Call"
KIND_INDEX = "Index"
KIND_IDENT = "Identifier"
KIND_INT = "IntLiteral"
KIND_BOOL = "BoolLiteral"
KIND_OPERATOR = "Operator"

CAT_STATEMENT = "Statement"
CAT_EXPRESSION = "Expression"
CAT_OPERATOR = "Operator"
CAT_DECLARATION = "Declaration"

CATEGORY = {
    KIND_FUNCTION: CAT_DECLARATION,
    KIND_BLOCK: CAT_STATEMENT,
    KIND_VARDECL: CAT_STATEMENT,
    KIND_ASSIGN: CAT_STATEMENT,
    KIND_IF: CAT_STATEMENT,
    KIND_FOR: CAT_STATEMENT,
    KIND_WHILE: CAT_STATEMENT,
    KIND_RETURN: CAT_STATEMENT,
    KIND_EXPRSTMT: CAT_STATEMENT,
    KIND_BINARY: CAT_EXPRESSION,
    KIND_UNARY: CAT_EXPRESSION,
    KIND_INCDEC: CAT_EXPRESSION,
    KIND_CALL: CAT_EXPRESSION,
    KIND_INDEX: CAT_EXPRESSION,
    KIND_IDENT: CAT_EXPRESSION,
    KIND_INT: CAT_EXPRESSION,
    KIND_BOOL: CAT_EXPRESSION,
    KIND_OPERATOR: CAT_OPERATOR,
}

STATEMENT_KINDS = frozenset(k for k, c in CATEGORY.items() if c == CAT_STATEMENT)

TYPE_INT = "int"
TYPE_BOOL = "bool"
TYPE_ARRAY = "int[]"
TYPE_VOID = "void"

# The order fixes the operator mutations and so the rows of variants.csv.
BINARY_OPS = ("+", "-", "*", "/", "%", "<", "<=", ">", ">=", "==", "!=", "&&", "||")
UNARY_OPS = ("-", "!")
INCDEC_OPS = ("++", "--")

# The binary operators' precedence levels, loosest first, each with the
# type both operands must have and the result's type. The operands of
# ``==`` and ``!=`` (None) may be any two ints or any two bools. The
# parser, the printer and the checker all read this table.
BINARY_LEVELS = (
    (("||",), TYPE_BOOL, TYPE_BOOL),
    (("&&",), TYPE_BOOL, TYPE_BOOL),
    (("==", "!="), None, TYPE_BOOL),
    (("<", "<=", ">", ">="), TYPE_INT, TYPE_BOOL),
    (("+", "-"), TYPE_INT, TYPE_INT),
    (("*", "/", "%"), TYPE_INT, TYPE_INT),
)

ENTRY_NAME = "sort"


class AstNode:
    __slots__ = (
        "kind", "children", "name", "value", "op", "decl_type", "ret_type",
        "params", "then_count", "loop_var", "loop_step", "line", "col",
        "_hash",
    )

    def __init__(self, kind: str, children: Optional[list["AstNode"]] = None, *,
                 name: Optional[str] = None, value=None, op: Optional[str] = None,
                 decl_type: Optional[str] = None, ret_type: Optional[str] = None,
                 params: Optional[list[tuple[str, str]]] = None,
                 then_count: int = 0, loop_var: Optional[str] = None,
                 loop_step: Optional[str] = None,
                 line: int = 0, col: int = 0):
        self.kind = kind
        self.children = children if children is not None else []
        self.name = name
        self.value = value
        self.op = op
        self.decl_type = decl_type
        self.ret_type = ret_type
        self.params = params
        self.then_count = then_count
        self.loop_var = loop_var
        self.loop_step = loop_step
        self.line = line
        self.col = col
        self._hash = None

    def payload(self) -> tuple:
        """Everything that distinguishes two nodes of the same kind besides
        their children. Ids and source spans are deliberately excluded."""
        if self.kind == KIND_FUNCTION:
            return (self.name, self.ret_type, tuple(self.params or ()))
        if self.kind == KIND_VARDECL:
            return (self.decl_type,)
        if self.kind == KIND_IF:
            return (self.then_count,)
        if self.kind == KIND_FOR:
            return (self.loop_var, self.loop_step)
        if self.kind in (KIND_IDENT, KIND_CALL):
            return (self.name,)
        if self.kind in (KIND_INT, KIND_BOOL):
            return (self.value,)
        if self.kind == KIND_OPERATOR:
            return (self.op,)
        return ()

    def structural_hash(self) -> int:
        h = self._hash
        if h is None:
            h = hash((self.kind, self.payload(),
                      tuple(c.structural_hash() for c in self.children)))
            self._hash = h
        return h

    def copy_with(self, children: list["AstNode"]) -> "AstNode":
        """This node's payload and source span over ``children``. Sets the
        slots directly: it is the inner loop of every tree edit."""
        n = object.__new__(AstNode)
        n.kind = self.kind
        n.children = children
        n.name = self.name
        n.value = self.value
        n.op = self.op
        n.decl_type = self.decl_type
        n.ret_type = self.ret_type
        n.params = list(self.params) if self.params is not None else None
        n.then_count = self.then_count
        n.loop_var = self.loop_var
        n.loop_step = self.loop_step
        n.line = self.line
        n.col = self.col
        n._hash = None
        return n

    def __repr__(self):
        bits = [self.kind]
        p = self.payload()
        if p:
            bits.append(repr(p))
        return f"<{' '.join(bits)}>"


def structurally_equal(a: AstNode, b: AstNode) -> bool:
    if a.kind != b.kind or a.payload() != b.payload():
        return False
    if len(a.children) != len(b.children):
        return False
    return all(structurally_equal(x, y) for x, y in zip(a.children, b.children))


class Program:
    """An ordered list of function declarations plus the node table.

    Constructing one indexes it once: ``nodes[i]`` is node i, ``parent[i]``
    its parent's id (-1 for a function) and ``first[i]`` its first child's
    id (0 for a leaf), so child k of node i is ``first[i] + k``. Function k
    is node k. The tables are the only record of where a node stands, so
    the functions may share nodes with other programs. ``frames`` is the
    frame layout ``lang.check.static_check`` records when it accepts the
    program, and None until then."""

    def __init__(self, functions: list[AstNode]):
        self.functions = functions
        self.frames = None
        self._index()

    def _index(self) -> None:
        nodes = list(self.functions)
        parent = [-1] * len(nodes)
        first = []
        # breadth-first: the loop visits the children it appends
        for i, node in enumerate(nodes):
            children = node.children
            if children:
                first.append(len(nodes))
                nodes += children
                parent += [i] * len(children)
            else:
                first.append(0)
        self.nodes: list[AstNode] = nodes
        self.parent: list[int] = parent
        self.first: list[int] = first

    def subtree_ids(self, node_id: int) -> list[int]:
        """Ids of the subtree rooted at ``node_id``, breadth-first."""
        ids = [node_id]
        for i in ids:
            f = self.first[i]
            ids.extend(range(f, f + len(self.nodes[i].children)))
        return ids

    def enclosing_statement(self, node_id: int) -> int:
        """Id of the nearest self-or-ancestor node whose kind is a
        statement, or -1 when there is none."""
        nodes, parent = self.nodes, self.parent
        while node_id >= 0 and nodes[node_id].kind not in STATEMENT_KINDS:
            node_id = parent[node_id]
        return node_id

    def entry_index(self) -> int:
        """The function under test: ``sort`` when present, else the first."""
        for i, f in enumerate(self.functions):
            if f.name == ENTRY_NAME:
                return i
        return 0
