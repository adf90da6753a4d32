"""Canonical source rendering.

``render_program(parse_program(text))`` is a fixed point: rendering, parsing
and rendering again yields byte-identical text. Layout rules: four-space
indent, one statement per line, ``} else {`` cuddled, one blank line between
functions, a single trailing newline. Parentheses are emitted only where
precedence (``ast.BINARY_LEVELS``) requires them, so ``a[j] > a[j + 1]``
stays flat while ``(a + b) * c`` keeps its grouping.
"""

from __future__ import annotations

from .ast import (
    AstNode, Program, BINARY_LEVELS, STATEMENT_KINDS,
    KIND_FUNCTION, KIND_BLOCK, KIND_VARDECL, KIND_ASSIGN, KIND_IF, KIND_FOR,
    KIND_WHILE, KIND_RETURN, KIND_EXPRSTMT, KIND_BINARY, KIND_UNARY,
    KIND_INCDEC, KIND_CALL, KIND_INDEX, KIND_IDENT, KIND_INT, KIND_BOOL,
    KIND_OPERATOR,
)

# A binary operator binds as tightly as its level in ``BINARY_LEVELS``,
# counted from 1; unary, postfix and atomic forms bind tighter still.
PRECEDENCE = {op: level for level, (ops, _, _) in enumerate(BINARY_LEVELS, 1)
              for op in ops}
UNARY_PRECEDENCE = len(BINARY_LEVELS) + 1
POSTFIX_PRECEDENCE = UNARY_PRECEDENCE + 1
ATOM_PRECEDENCE = POSTFIX_PRECEDENCE + 1

INDENT = "    "


def render_expr(node: AstNode) -> str:
    text, _ = _expr(node)
    return text


def _expr(node: AstNode) -> tuple[str, int]:
    """Return (text, precedence of the outermost construct)."""
    kind = node.kind
    if kind == KIND_INT:
        return str(node.value), ATOM_PRECEDENCE
    if kind == KIND_BOOL:
        return ("true" if node.value else "false"), ATOM_PRECEDENCE
    if kind == KIND_IDENT:
        return node.name, ATOM_PRECEDENCE
    if kind == KIND_CALL:
        args = ", ".join(render_expr(a) for a in node.children)
        return f"{node.name}({args})", POSTFIX_PRECEDENCE
    if kind == KIND_INDEX:
        base, bprec = _expr(node.children[0])
        if bprec < POSTFIX_PRECEDENCE:
            base = f"({base})"
        return f"{base}[{render_expr(node.children[1])}]", POSTFIX_PRECEDENCE
    if kind == KIND_INCDEC:
        op = node.children[0].op
        target, tprec = _expr(node.children[1])
        if tprec < POSTFIX_PRECEDENCE:
            target = f"({target})"
        return f"{target}{op}", POSTFIX_PRECEDENCE
    if kind == KIND_UNARY:
        op = node.children[0].op
        operand, oprec = _expr(node.children[1])
        if oprec < UNARY_PRECEDENCE:
            operand = f"({operand})"
        return f"{op}{operand}", UNARY_PRECEDENCE
    if kind == KIND_BINARY:
        op = node.children[0].op
        prec = PRECEDENCE[op]
        left, lprec = _expr(node.children[1])
        right, rprec = _expr(node.children[2])
        if lprec < prec:
            left = f"({left})"
        if rprec <= prec:
            right = f"({right})"
        return f"{left} {op} {right}", prec
    if kind == KIND_OPERATOR:
        return node.op, ATOM_PRECEDENCE
    raise ValueError(f"not an expression kind: {kind}")


def _statements(stmts, depth, out):
    for s in stmts:
        _statement(s, depth, out)


def _statement(node: AstNode, depth: int, out: list) -> None:
    pad = INDENT * depth
    kind = node.kind
    if kind == KIND_BLOCK:
        out.append(pad + "{")
        _statements(node.children, depth + 1, out)
        out.append(pad + "}")
    elif kind == KIND_VARDECL:
        name = node.children[0].name
        if len(node.children) > 1:
            init = render_expr(node.children[1])
            out.append(f"{pad}{node.decl_type} {name} = {init};")
        else:
            out.append(f"{pad}{node.decl_type} {name};")
    elif kind == KIND_ASSIGN:
        target = render_expr(node.children[0])
        value = render_expr(node.children[1])
        out.append(f"{pad}{target} = {value};")
    elif kind == KIND_IF:
        cond = render_expr(node.children[0])
        k = node.then_count
        out.append(f"{pad}if ({cond}) {{")
        _statements(node.children[1:1 + k], depth + 1, out)
        if len(node.children) > 1 + k:
            out.append(pad + "} else {")
            _statements(node.children[1 + k:], depth + 1, out)
        out.append(pad + "}")
    elif kind == KIND_FOR:
        init = render_expr(node.children[0])
        cond = render_expr(node.children[1])
        head = (f"for (int {node.loop_var} = {init}; {cond}; "
                f"{node.loop_var}{node.loop_step})")
        out.append(f"{pad}{head} {{")
        _statements(node.children[2:], depth + 1, out)
        out.append(pad + "}")
    elif kind == KIND_WHILE:
        cond = render_expr(node.children[0])
        out.append(f"{pad}while ({cond}) {{")
        _statements(node.children[1:], depth + 1, out)
        out.append(pad + "}")
    elif kind == KIND_RETURN:
        if node.children:
            out.append(f"{pad}return {render_expr(node.children[0])};")
        else:
            out.append(pad + "return;")
    elif kind == KIND_EXPRSTMT:
        out.append(f"{pad}{render_expr(node.children[0])};")
    else:
        raise ValueError(f"not a statement kind: {kind}")


def render_function(func: AstNode) -> str:
    params = ", ".join(f"{t} {n}" for t, n in (func.params or []))
    out = [f"{func.ret_type} {func.name}({params}) {{"]
    _statements(func.children[0].children, 1, out)
    out.append("}")
    return "\n".join(out) + "\n"


def render_program(program: Program) -> str:
    """The program's source text. The tool never prints a whole program;
    the tests use this for the round trip and to read variants."""
    return "\n".join(render_function(f) for f in program.functions)


def render_snippet(node: AstNode) -> str:
    """One-line rendering for reports: statements keep their braces but all
    layout collapses to single spaces."""
    kind = node.kind
    if kind == KIND_OPERATOR:
        return node.op
    if kind == KIND_FUNCTION:
        return " ".join(render_function(node).split())
    if kind in STATEMENT_KINDS:
        out: list = []
        _statement(node, 0, out)
        return " ".join(" ".join(out).split())
    return render_expr(node)
