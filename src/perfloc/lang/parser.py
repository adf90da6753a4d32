"""Lexer and recursive-descent parser.

Grammar (braces are mandatory on every control body; the for-header declares
its own int counter and the update must be ``v++`` or ``v--`` on that same
counter):

    program    : function+
    function   : type IDENT "(" [param ("," param)*] ")" block
    param      : type IDENT
    type       : "int" ["[]"] | "bool" | "void"
    block      : "{" statement* "}"
    statement  : type IDENT ["=" expr] ";"
               | "if" "(" expr ")" block ["else" block]
               | "for" "(" "int" IDENT "=" expr ";" expr ";" IDENT INCDEC ")"
                     block
               | "while" "(" expr ")" block
               | "return" [expr] ";"
               | expr "=" expr ";"
               | expr ";"
    expr       : binary(0)
    binary(k)  : binary(k + 1) (OP(k) binary(k + 1))*, for each level k
                 of ``ast.BINARY_LEVELS``; past the last level, unary
    unary      : UNARY unary | postfix
    postfix    : primary ("[" expr "]")* | IDENT INCDEC
    primary    : INT | "true" | "false" | IDENT ["(" [expr ("," expr)*] ")"]
               | "(" expr ")"

``UNARY`` and ``INCDEC`` are ``ast.UNARY_OPS`` and ``ast.INCDEC_OPS``. A
function's body is a Block node; a control body's statements are the
control node's own children.

Tokens are ASCII: ``INT`` is ``[0-9]+``, ``IDENT`` is
``[A-Za-z_][A-Za-z0-9_]*`` but not a keyword, and spaces, tabs, carriage
returns, newlines and ``//`` line comments separate them. An ``INT``
literal keeps its value modulo 2^32, of any length; lowering wraps it to
int32.
"""

from __future__ import annotations

import re
from collections import deque

from .ast import (
    AstNode, Program, BINARY_LEVELS, BINARY_OPS, UNARY_OPS, INCDEC_OPS,
    KIND_FUNCTION, KIND_BLOCK, KIND_VARDECL, KIND_ASSIGN, KIND_IF, KIND_FOR,
    KIND_WHILE, KIND_RETURN, KIND_EXPRSTMT, KIND_BINARY, KIND_UNARY,
    KIND_INCDEC, KIND_CALL, KIND_INDEX, KIND_IDENT, KIND_INT, KIND_BOOL,
    KIND_OPERATOR,
    TYPE_INT, TYPE_BOOL, TYPE_ARRAY, TYPE_VOID,
)

KEYWORDS = {"int", "bool", "void", "if", "else", "for", "while", "return",
            "true", "false"}

# two-character symbols first, so "<=" is never read as "<" then "="
PUNCTUATION = sorted({*BINARY_OPS, *UNARY_OPS, *INCDEC_OPS, *"=(){}[],;"},
                     key=lambda p: (-len(p), p))

# One pattern per token class, tried in this order; "bad" takes whatever
# character no other class starts with.
TOKEN = re.compile("|".join(f"(?P<{kind}>{pattern})" for kind, pattern in (
    ("comment", r"//[^\n]*"),
    ("int", r"[0-9]+"),
    ("ident", r"[A-Za-z_][A-Za-z0-9_]*"),
    ("punct", "|".join(map(re.escape, PUNCTUATION))),
    ("newline", r"\n"),
    ("space", r"[ \t\r]+"),
    ("bad", r"."),
)))


class ParseError(SyntaxError):
    def __init__(self, message, line, col):
        super().__init__(f"{line}:{col}: {message}")
        self.line = line
        self.col = col


def tokenize(text):
    """Return a deque of (kind, text, line, col) tuples; kind is one of
    'ident', 'keyword', 'int', 'punct', 'eof'."""
    tokens = deque()
    line, line_start = 1, 0
    for m in TOKEN.finditer(text):
        kind = m.lastgroup
        if kind == "newline":
            line += 1
            line_start = m.end()
        elif kind != "space" and kind != "comment":
            tok = m.group()
            col = m.start() - line_start + 1
            if kind == "bad":
                raise ParseError(f"unexpected character {tok!r}", line, col)
            if kind == "ident" and tok in KEYWORDS:
                kind = "keyword"
            tokens.append((kind, tok, line, col))
    tokens.append(("eof", "", line, len(text) - line_start + 1))
    return tokens


class Parser:
    def __init__(self, text):
        self.tokens = tokenize(text)

    def peek(self, ahead=0):
        return self.tokens[ahead]

    def next(self):
        return self.tokens.popleft()

    def expect(self, text):
        kind, tok, line, col = self.tokens[0]
        if tok != text or kind == "eof":
            got = tok if kind != "eof" else "end of input"
            raise ParseError(f"expected {text!r}, got {got!r}", line, col)
        return self.next()

    def at(self, text):
        return self.tokens[0][1] == text and self.tokens[0][0] != "eof"

    def error(self, message):
        _, _, line, col = self.tokens[0]
        raise ParseError(message, line, col)

    # types ----------------------------------------------------------------

    def at_type(self):
        return self.tokens[0][0] == "keyword" and self.tokens[0][1] in (
            "int", "bool", "void")

    def parse_type(self):
        kind, tok, line, col = self.next()
        if tok == "int":
            if self.at("["):
                k2, t2, _, _ = self.peek(1)
                if t2 == "]":
                    self.next()
                    self.next()
                    return TYPE_ARRAY
            return TYPE_INT
        if tok == "bool":
            return TYPE_BOOL
        if tok == "void":
            return TYPE_VOID
        raise ParseError(f"expected a type, got {tok!r}", line, col)

    # declarations ---------------------------------------------------------

    def parse_program(self):
        functions = []
        while self.tokens[0][0] != "eof":
            functions.append(self.parse_function())
        if not functions:
            self.error("empty program")
        return Program(functions)

    def parse_function(self):
        _, _, line, col = self.peek()
        ret_type = self.parse_type()
        name = self.parse_ident_text()
        params = self.parse_list(
            lambda: (self.parse_type(), self.parse_ident_text()))
        _, _, bline, bcol = self.peek()
        body = AstNode(KIND_BLOCK, self.parse_body(), line=bline, col=bcol)
        return AstNode(KIND_FUNCTION, [body], name=name, ret_type=ret_type,
                       params=params, line=line, col=col)

    def parse_list(self, item):
        """``"(" [item ("," item)*] ")"``: the items ``item()`` parses."""
        self.expect("(")
        items = []
        if not self.at(")"):
            items.append(item())
            while self.at(","):
                self.next()
                items.append(item())
        self.expect(")")
        return items

    def parse_ident_text(self):
        kind, tok, line, col = self.next()
        if kind != "ident":
            raise ParseError(f"expected an identifier, got {tok!r}", line, col)
        return tok

    def parse_body(self):
        """``"{" statement* "}"``: the statements."""
        self.expect("{")
        stmts = []
        while not self.at("}") and self.tokens[0][0] != "eof":
            stmts.append(self.parse_statement())
        self.expect("}")
        return stmts

    # statements -----------------------------------------------------------

    def parse_statement(self):
        kind, tok, line, col = self.peek()
        if self.at_type():
            return self.parse_vardecl()
        if kind == "keyword" and tok in ("if", "for", "while", "return"):
            return getattr(self, f"parse_{tok}")()
        expr = self.parse_expr()
        if self.at("="):
            self.next()
            value = self.parse_expr()
            self.expect(";")
            return AstNode(KIND_ASSIGN, [expr, value], line=line, col=col)
        self.expect(";")
        return AstNode(KIND_EXPRSTMT, [expr], line=line, col=col)

    def parse_vardecl(self):
        _, _, line, col = self.peek()
        decl_type = self.parse_type()
        if decl_type == TYPE_VOID:
            raise ParseError("cannot declare a void variable", line, col)
        _, _, nline, ncol = self.peek()
        name = self.parse_ident_text()
        name_node = AstNode(KIND_IDENT, name=name, line=nline, col=ncol)
        children = [name_node]
        if self.at("="):
            self.next()
            children.append(self.parse_expr())
        self.expect(";")
        return AstNode(KIND_VARDECL, children, decl_type=decl_type,
                       line=line, col=col)

    def parse_if(self):
        _, _, line, col = self.next()
        self.expect("(")
        cond = self.parse_expr()
        self.expect(")")
        then_stmts = self.parse_body()
        else_stmts = []
        if self.at("else"):
            self.next()
            else_stmts = self.parse_body()
        return AstNode(KIND_IF, [cond] + then_stmts + else_stmts,
                       then_count=len(then_stmts), line=line, col=col)

    def parse_for(self):
        _, _, line, col = self.next()
        self.expect("(")
        if not (self.at("int") and self.peek()[0] == "keyword"):
            self.error("for-header must declare an int counter")
        self.next()
        loop_var = self.parse_ident_text()
        self.expect("=")
        init = self.parse_expr()
        self.expect(";")
        cond = self.parse_expr()
        self.expect(";")
        _, uname, uline, ucol = self.peek()
        update_var = self.parse_ident_text()
        if update_var != loop_var:
            raise ParseError(
                f"for-update must step the counter {loop_var!r}", uline, ucol)
        _, step, sline, scol = self.next()
        if step not in INCDEC_OPS:
            raise ParseError("for-update must be ++ or --", sline, scol)
        self.expect(")")
        body = self.parse_body()
        return AstNode(KIND_FOR, [init, cond] + body, loop_var=loop_var,
                       loop_step=step, line=line, col=col)

    def parse_while(self):
        _, _, line, col = self.next()
        self.expect("(")
        cond = self.parse_expr()
        self.expect(")")
        body = self.parse_body()
        return AstNode(KIND_WHILE, [cond] + body, line=line, col=col)

    def parse_return(self):
        _, _, line, col = self.next()
        children = []
        if not self.at(";"):
            children.append(self.parse_expr())
        self.expect(";")
        return AstNode(KIND_RETURN, children, line=line, col=col)

    # expressions ----------------------------------------------------------

    def parse_expr(self):
        return self.parse_binary_level(0)

    LEVELS = tuple(ops for ops, _, _ in BINARY_LEVELS)

    def parse_binary_level(self, level):
        if level == len(self.LEVELS):
            return self.parse_unary()
        ops = self.LEVELS[level]
        left = self.parse_binary_level(level + 1)
        while self.tokens[0][0] == "punct" and self.tokens[0][1] in ops:
            _, op, line, col = self.next()
            right = self.parse_binary_level(level + 1)
            opnode = AstNode(KIND_OPERATOR, op=op, line=line, col=col)
            left = AstNode(KIND_BINARY, [opnode, left, right],
                           line=left.line, col=left.col)
        return left

    def parse_unary(self):
        kind, tok, line, col = self.peek()
        if kind == "punct" and tok in UNARY_OPS:
            self.next()
            opnode = AstNode(KIND_OPERATOR, op=tok, line=line, col=col)
            operand = self.parse_unary()
            return AstNode(KIND_UNARY, [opnode, operand], line=line, col=col)
        return self.parse_postfix()

    def parse_postfix(self):
        expr = self.parse_primary()
        while True:
            kind, tok, line, col = self.peek()
            if kind == "punct" and tok == "[":
                self.next()
                index = self.parse_expr()
                self.expect("]")
                expr = AstNode(KIND_INDEX, [expr, index],
                               line=expr.line, col=expr.col)
                continue
            if kind == "punct" and tok in INCDEC_OPS:
                if expr.kind != KIND_IDENT:
                    raise ParseError(f"{tok} needs a plain variable", line, col)
                self.next()
                opnode = AstNode(KIND_OPERATOR, op=tok, line=line, col=col)
                expr = AstNode(KIND_INCDEC, [opnode, expr],
                               line=expr.line, col=expr.col)
                continue
            return expr

    def parse_primary(self):
        kind, tok, line, col = self.peek()
        if kind == "int":
            self.next()
            return AstNode(KIND_INT, value=literal_value(tok), line=line,
                           col=col)
        if kind == "keyword" and tok in ("true", "false"):
            self.next()
            return AstNode(KIND_BOOL, value=(tok == "true"), line=line, col=col)
        if kind == "ident":
            self.next()
            if self.at("("):
                return AstNode(KIND_CALL, self.parse_list(self.parse_expr),
                               name=tok, line=line, col=col)
            return AstNode(KIND_IDENT, name=tok, line=line, col=col)
        if kind == "punct" and tok == "(":
            self.next()
            expr = self.parse_expr()
            self.expect(")")
            return expr
        got = tok if kind != "eof" else "end of input"
        self.error(f"expected an expression, got {got!r}")


def literal_value(digits: str) -> int:
    """The decimal ``digits`` modulo 2^32, read nine at a time: ``int``
    refuses a string of more than 4,300 digits."""
    value = 0
    for k in range(0, len(digits), 9):
        chunk = digits[k:k + 9]
        value = (value * 10 ** len(chunk) + int(chunk)) % (1 << 32)
    return value


def parse_program(text: str) -> Program:
    return Parser(text).parse_program()
