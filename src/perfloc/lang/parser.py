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
               | "if" "(" expr ")" "{" statement* "}" ["else" "{" statement* "}"]
               | "for" "(" "int" IDENT "=" expr ";" expr ";" IDENT ("++"|"--") ")"
                     "{" statement* "}"
               | "while" "(" expr ")" "{" statement* "}"
               | "return" [expr] ";"
               | expr "=" expr ";"
               | expr ";"
    expr       : orexpr
    orexpr     : andexpr ("||" andexpr)*
    andexpr    : eqexpr ("&&" eqexpr)*
    eqexpr     : relexpr (("==" | "!=") relexpr)*
    relexpr    : addexpr (("<" | "<=" | ">" | ">=") addexpr)*
    addexpr    : mulexpr (("+" | "-") mulexpr)*
    mulexpr    : unary (("*" | "/" | "%") unary)*
    unary      : ("-" | "!") unary | postfix
    postfix    : primary ("[" expr "]")* | IDENT ("++" | "--")
    primary    : INT | "true" | "false" | IDENT ["(" [expr ("," expr)*] ")"]
               | "(" expr ")"

Line comments start with ``//``.
"""

from __future__ import annotations

from collections import deque

from .ast import (
    AstNode, Program,
    KIND_FUNCTION, KIND_BLOCK, KIND_VARDECL, KIND_ASSIGN, KIND_IF, KIND_FOR,
    KIND_WHILE, KIND_RETURN, KIND_EXPRSTMT, KIND_BINARY, KIND_UNARY,
    KIND_INCDEC, KIND_CALL, KIND_INDEX, KIND_IDENT, KIND_INT, KIND_BOOL,
    KIND_OPERATOR,
    TYPE_INT, TYPE_BOOL, TYPE_ARRAY, TYPE_VOID,
)

KEYWORDS = {"int", "bool", "void", "if", "else", "for", "while", "return",
            "true", "false"}

TWO_CHAR = ("<=", ">=", "==", "!=", "&&", "||", "++", "--")
ONE_CHAR = "+-*/%<>=!(){}[],;"


class ParseError(SyntaxError):
    def __init__(self, message, line, col):
        super().__init__(f"{line}:{col}: {message}")
        self.line = line
        self.col = col


def tokenize(text):
    """Return a deque of (kind, text, line, col) tuples; kind is one of
    'ident', 'keyword', 'int', 'punct', 'eof'."""
    tokens = deque()
    i = 0
    line = 1
    col = 1
    n = len(text)
    while i < n:
        c = text[i]
        if c == "\n":
            i += 1
            line += 1
            col = 1
            continue
        if c in " \t\r":
            i += 1
            col += 1
            continue
        if c == "/" and i + 1 < n and text[i + 1] == "/":
            while i < n and text[i] != "\n":
                i += 1
            continue
        start_col = col
        if c.isdigit():
            j = i
            while j < n and text[j].isdigit():
                j += 1
            tokens.append(("int", text[i:j], line, start_col))
            col += j - i
            i = j
            continue
        if c.isalpha() or c == "_":
            j = i
            while j < n and (text[j].isalnum() or text[j] == "_"):
                j += 1
            word = text[i:j]
            kind = "keyword" if word in KEYWORDS else "ident"
            tokens.append((kind, word, line, start_col))
            col += j - i
            i = j
            continue
        pair = text[i:i + 2]
        if pair in TWO_CHAR:
            tokens.append(("punct", pair, line, start_col))
            i += 2
            col += 2
            continue
        if c in ONE_CHAR:
            tokens.append(("punct", c, line, start_col))
            i += 1
            col += 1
            continue
        raise ParseError(f"unexpected character {c!r}", line, col)
    tokens.append(("eof", "", line, col))
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
        self.expect("(")
        params = []
        if not self.at(")"):
            while True:
                ptype = self.parse_type()
                pname = self.parse_ident_text()
                params.append((ptype, pname))
                if self.at(","):
                    self.next()
                else:
                    break
        self.expect(")")
        body = self.parse_block()
        return AstNode(KIND_FUNCTION, [body], name=name, ret_type=ret_type,
                       params=params, line=line, col=col)

    def parse_ident_text(self):
        kind, tok, line, col = self.next()
        if kind != "ident":
            raise ParseError(f"expected an identifier, got {tok!r}", line, col)
        return tok

    def parse_block(self):
        _, _, line, col = self.peek()
        self.expect("{")
        stmts = self.parse_statements()
        self.expect("}")
        return AstNode(KIND_BLOCK, stmts, line=line, col=col)

    def parse_statements(self):
        stmts = []
        while not self.at("}") and self.tokens[0][0] != "eof":
            stmts.append(self.parse_statement())
        return stmts

    # statements -----------------------------------------------------------

    def parse_statement(self):
        kind, tok, line, col = self.peek()
        if self.at_type():
            return self.parse_vardecl()
        if tok == "if" and kind == "keyword":
            return self.parse_if()
        if tok == "for" and kind == "keyword":
            return self.parse_for()
        if tok == "while" and kind == "keyword":
            return self.parse_while()
        if tok == "return" and kind == "keyword":
            return self.parse_return()
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
        self.expect("{")
        then_stmts = self.parse_statements()
        self.expect("}")
        else_stmts = []
        if self.at("else"):
            self.next()
            self.expect("{")
            else_stmts = self.parse_statements()
            self.expect("}")
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
        if step not in ("++", "--"):
            raise ParseError("for-update must be ++ or --", sline, scol)
        self.expect(")")
        self.expect("{")
        body = self.parse_statements()
        self.expect("}")
        return AstNode(KIND_FOR, [init, cond] + body, loop_var=loop_var,
                       loop_step=step, line=line, col=col)

    def parse_while(self):
        _, _, line, col = self.next()
        self.expect("(")
        cond = self.parse_expr()
        self.expect(")")
        self.expect("{")
        body = self.parse_statements()
        self.expect("}")
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

    LEVELS = (("||",), ("&&",), ("==", "!="), ("<", "<=", ">", ">="),
              ("+", "-"), ("*", "/", "%"))

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
        if kind == "punct" and tok in ("-", "!"):
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
            if kind == "punct" and tok in ("++", "--"):
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
            return AstNode(KIND_INT, value=int(tok), line=line, col=col)
        if kind == "keyword" and tok in ("true", "false"):
            self.next()
            return AstNode(KIND_BOOL, value=(tok == "true"), line=line, col=col)
        if kind == "ident":
            self.next()
            if self.at("("):
                self.next()
                args = []
                if not self.at(")"):
                    while True:
                        args.append(self.parse_expr())
                        if self.at(","):
                            self.next()
                        else:
                            break
                self.expect(")")
                return AstNode(KIND_CALL, args, name=tok, line=line, col=col)
            return AstNode(KIND_IDENT, name=tok, line=line, col=col)
        if kind == "punct" and tok == "(":
            self.next()
            expr = self.parse_expr()
            self.expect(")")
            return expr
        got = tok if kind != "eof" else "end of input"
        self.error(f"expected an expression, got {got!r}")


def parse_program(text: str) -> Program:
    return Parser(text).parse_program()
