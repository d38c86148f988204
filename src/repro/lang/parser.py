"""Recursive-descent parser for MiniC.

Builds the AST consumed by the IR builder and interpreter.  The grammar
is a practical C subset: struct/enum/typedef declarations, globals with
brace initializers (the struct mapping tables of Figure 4), functions,
and the usual statement/expression forms including ``switch`` and the
``if/else if/else`` ladders that SPEX mines for range constraints.
"""

from __future__ import annotations

from repro.lang import types as ct
from repro.lang.ast_nodes import (
    Assign,
    Binary,
    Block,
    BoolLiteral,
    Break,
    Call,
    CallIndirect,
    Cast,
    CharLiteral,
    Conditional,
    Continue,
    DoWhile,
    EnumDecl,
    Expr,
    ExprStmt,
    FloatLiteral,
    For,
    FunctionDef,
    Identifier,
    If,
    IncDec,
    Index,
    InitList,
    IntLiteral,
    Member,
    NullLiteral,
    Param,
    Return,
    SizeOf,
    SourceAst,
    Stmt,
    StringLiteral,
    StructDecl,
    Switch,
    SwitchCase,
    TypedefDecl,
    Unary,
    VarDecl,
    While,
)
from repro.lang.errors import ParseError
from repro.lang.lexer import Lexer
from repro.lang.source import SourceFile
from repro.lang.tokens import Token, TokenKind

_TYPE_KEYWORDS = {
    TokenKind.KW_VOID,
    TokenKind.KW_BOOL,
    TokenKind.KW_CHAR,
    TokenKind.KW_SHORT,
    TokenKind.KW_INT,
    TokenKind.KW_LONG,
    TokenKind.KW_FLOAT,
    TokenKind.KW_DOUBLE,
    TokenKind.KW_UNSIGNED,
    TokenKind.KW_SIGNED,
    TokenKind.KW_STRUCT,
    TokenKind.KW_ENUM,
    TokenKind.KW_CONST,
}

_ASSIGN_OPS = {
    TokenKind.ASSIGN: "=",
    TokenKind.PLUS_ASSIGN: "+=",
    TokenKind.MINUS_ASSIGN: "-=",
    TokenKind.STAR_ASSIGN: "*=",
    TokenKind.SLASH_ASSIGN: "/=",
    TokenKind.PERCENT_ASSIGN: "%=",
    TokenKind.AMP_ASSIGN: "&=",
    TokenKind.PIPE_ASSIGN: "|=",
    TokenKind.CARET_ASSIGN: "^=",
    TokenKind.SHL_ASSIGN: "<<=",
    TokenKind.SHR_ASSIGN: ">>=",
}

# Binary operator precedence: larger binds tighter.
_BINARY_PRECEDENCE: dict[TokenKind, tuple[int, str]] = {
    TokenKind.STAR: (10, "*"),
    TokenKind.SLASH: (10, "/"),
    TokenKind.PERCENT: (10, "%"),
    TokenKind.PLUS: (9, "+"),
    TokenKind.MINUS: (9, "-"),
    TokenKind.SHL: (8, "<<"),
    TokenKind.SHR: (8, ">>"),
    TokenKind.LT: (7, "<"),
    TokenKind.GT: (7, ">"),
    TokenKind.LE: (7, "<="),
    TokenKind.GE: (7, ">="),
    TokenKind.EQ: (6, "=="),
    TokenKind.NE: (6, "!="),
    TokenKind.AMP: (5, "&"),
    TokenKind.CARET: (4, "^"),
    TokenKind.PIPE: (3, "|"),
    TokenKind.AND_AND: (2, "&&"),
    TokenKind.OR_OR: (1, "||"),
}


class Parser:
    """Parses one source file; typedef/enum scopes may be shared."""

    def __init__(
        self,
        source: SourceFile,
        typedefs: dict[str, ct.CType] | None = None,
        enum_constants: dict[str, int] | None = None,
    ):
        self.source = source
        self.tokens = Lexer(source).tokens()
        self.pos = 0
        # Shared (mutable) environments so a Program can parse many
        # files as one translation unit.
        self.typedefs = typedefs if typedefs is not None else {}
        self.enum_constants = enum_constants if enum_constants is not None else {}

    # -- token helpers ------------------------------------------------

    def _peek(self, offset: int = 0) -> Token:
        idx = min(self.pos + offset, len(self.tokens) - 1)
        return self.tokens[idx]

    def _at(self, kind: TokenKind) -> bool:
        return self._peek().kind is kind

    def _advance(self) -> Token:
        tok = self.tokens[self.pos]
        if tok.kind is not TokenKind.EOF:
            self.pos += 1
        return tok

    def _expect(self, kind: TokenKind) -> Token:
        tok = self._peek()
        if tok.kind is not kind:
            raise ParseError(
                f"expected {kind.value!r}, found {tok.text!r}", tok.location
            )
        return self._advance()

    def _accept(self, kind: TokenKind) -> Token | None:
        if self._at(kind):
            return self._advance()
        return None

    # -- type parsing ---------------------------------------------------

    def _at_type_start(self, offset: int = 0) -> bool:
        tok = self._peek(offset)
        if tok.kind in _TYPE_KEYWORDS:
            return True
        return tok.kind is TokenKind.IDENT and tok.text in self.typedefs

    def _parse_base_type(self) -> ct.CType:
        """Parse the type specifier without pointer declarators."""
        while self._accept(TokenKind.KW_CONST):
            pass
        tok = self._peek()
        if tok.kind is TokenKind.KW_STRUCT:
            self._advance()
            name = self._expect(TokenKind.IDENT).text
            return ct.StructType(name)
        if tok.kind is TokenKind.KW_ENUM:
            self._advance()
            self._expect(TokenKind.IDENT)
            return ct.INT
        if tok.kind is TokenKind.KW_UNSIGNED or tok.kind is TokenKind.KW_SIGNED:
            signed = tok.kind is TokenKind.KW_SIGNED
            self._advance()
            nxt = self._peek()
            base_bits = 32
            if nxt.kind is TokenKind.KW_CHAR:
                base_bits = 8
                self._advance()
            elif nxt.kind is TokenKind.KW_SHORT:
                base_bits = 16
                self._advance()
            elif nxt.kind is TokenKind.KW_INT:
                self._advance()
            elif nxt.kind is TokenKind.KW_LONG:
                base_bits = 64
                self._advance()
                self._accept(TokenKind.KW_INT)
                self._accept(TokenKind.KW_LONG)
            return ct.IntType(base_bits, signed=signed)
        simple = {
            TokenKind.KW_VOID: ct.VOID,
            TokenKind.KW_BOOL: ct.BOOL,
            TokenKind.KW_CHAR: ct.CHAR,
            TokenKind.KW_SHORT: ct.SHORT,
            TokenKind.KW_INT: ct.INT,
            TokenKind.KW_FLOAT: ct.FLOAT,
            TokenKind.KW_DOUBLE: ct.DOUBLE,
        }
        if tok.kind in simple:
            self._advance()
            return simple[tok.kind]
        if tok.kind is TokenKind.KW_LONG:
            self._advance()
            self._accept(TokenKind.KW_LONG)
            self._accept(TokenKind.KW_INT)
            return ct.LONG
        if tok.kind is TokenKind.IDENT and tok.text in self.typedefs:
            self._advance()
            return self.typedefs[tok.text]
        raise ParseError(f"expected type, found {tok.text!r}", tok.location)

    def _parse_type(self) -> ct.CType:
        """Parse a full type: base specifier plus pointer stars."""
        base = self._parse_base_type()
        while True:
            if self._accept(TokenKind.STAR):
                base = ct.PointerType(base)
            elif self._accept(TokenKind.KW_CONST):
                pass
            else:
                return base

    # -- expressions -----------------------------------------------------

    def parse_expression(self) -> Expr:
        return self._parse_assignment()

    def _parse_assignment(self) -> Expr:
        left = self._parse_conditional()
        tok = self._peek()
        if tok.kind in _ASSIGN_OPS:
            self._advance()
            value = self._parse_assignment()
            return Assign(_ASSIGN_OPS[tok.kind], left, value, tok.location)
        return left

    def _parse_conditional(self) -> Expr:
        cond = self._parse_binary(0)
        if self._at(TokenKind.QUESTION):
            loc = self._advance().location
            then = self.parse_expression()
            self._expect(TokenKind.COLON)
            other = self._parse_conditional()
            return Conditional(cond, then, other, loc)
        return cond

    def _parse_binary(self, min_prec: int) -> Expr:
        left = self._parse_unary()
        while True:
            tok = self._peek()
            entry = _BINARY_PRECEDENCE.get(tok.kind)
            if entry is None or entry[0] < min_prec:
                return left
            prec, op = entry
            self._advance()
            right = self._parse_binary(prec + 1)
            left = Binary(op, left, right, tok.location)

    def _parse_unary(self) -> Expr:
        tok = self._peek()
        if tok.kind is TokenKind.PLUS_PLUS or tok.kind is TokenKind.MINUS_MINUS:
            self._advance()
            operand = self._parse_unary()
            op = "++" if tok.kind is TokenKind.PLUS_PLUS else "--"
            return IncDec(op, operand, prefix=True, location=tok.location)
        unary_ops = {
            TokenKind.NOT: "!",
            TokenKind.MINUS: "-",
            TokenKind.PLUS: "+",
            TokenKind.TILDE: "~",
            TokenKind.STAR: "*",
            TokenKind.AMP: "&",
        }
        if tok.kind in unary_ops:
            self._advance()
            operand = self._parse_unary()
            op = unary_ops[tok.kind]
            if op == "+":
                return operand
            return Unary(op, operand, tok.location)
        if tok.kind is TokenKind.KW_SIZEOF:
            self._advance()
            self._expect(TokenKind.LPAREN)
            if self._at_type_start():
                typ = self._parse_type()
            else:
                self.parse_expression()
                typ = ct.LONG
            self._expect(TokenKind.RPAREN)
            return SizeOf(typ, tok.location)
        # Cast: '(' type ')' unary
        if tok.kind is TokenKind.LPAREN and self._at_type_start(1):
            self._advance()
            typ = self._parse_type()
            self._expect(TokenKind.RPAREN)
            operand = self._parse_unary()
            return Cast(typ, operand, tok.location)
        return self._parse_postfix()

    def _parse_postfix(self) -> Expr:
        expr = self._parse_primary()
        while True:
            tok = self._peek()
            if tok.kind is TokenKind.LPAREN:
                self._advance()
                args: list[Expr] = []
                if not self._at(TokenKind.RPAREN):
                    args.append(self.parse_expression())
                    while self._accept(TokenKind.COMMA):
                        args.append(self.parse_expression())
                self._expect(TokenKind.RPAREN)
                if isinstance(expr, Identifier):
                    expr = Call(expr.name, args, expr.location)
                else:
                    expr = CallIndirect(expr, args, tok.location)
            elif tok.kind is TokenKind.LBRACKET:
                self._advance()
                index = self.parse_expression()
                self._expect(TokenKind.RBRACKET)
                expr = Index(expr, index, tok.location)
            elif tok.kind is TokenKind.DOT:
                self._advance()
                name = self._expect(TokenKind.IDENT).text
                expr = Member(expr, name, arrow=False, location=tok.location)
            elif tok.kind is TokenKind.ARROW:
                self._advance()
                name = self._expect(TokenKind.IDENT).text
                expr = Member(expr, name, arrow=True, location=tok.location)
            elif tok.kind is TokenKind.PLUS_PLUS or tok.kind is TokenKind.MINUS_MINUS:
                self._advance()
                op = "++" if tok.kind is TokenKind.PLUS_PLUS else "--"
                expr = IncDec(op, expr, prefix=False, location=tok.location)
            else:
                return expr

    def _parse_primary(self) -> Expr:
        tok = self._peek()
        if tok.kind is TokenKind.INT_LIT:
            self._advance()
            return IntLiteral(int(tok.value), tok.location)
        if tok.kind is TokenKind.FLOAT_LIT:
            self._advance()
            return FloatLiteral(float(tok.value), tok.location)
        if tok.kind is TokenKind.STRING_LIT:
            self._advance()
            # Adjacent string literals concatenate, as in C.
            value = str(tok.value)
            while self._at(TokenKind.STRING_LIT):
                value += str(self._advance().value)
            return StringLiteral(value, tok.location)
        if tok.kind is TokenKind.CHAR_LIT:
            self._advance()
            return CharLiteral(int(tok.value), tok.location)
        if tok.kind is TokenKind.KW_TRUE:
            self._advance()
            return BoolLiteral(True, tok.location)
        if tok.kind is TokenKind.KW_FALSE:
            self._advance()
            return BoolLiteral(False, tok.location)
        if tok.kind is TokenKind.KW_NULL:
            self._advance()
            return NullLiteral(tok.location)
        if tok.kind is TokenKind.IDENT:
            self._advance()
            if tok.text in self.enum_constants:
                return IntLiteral(self.enum_constants[tok.text], tok.location)
            return Identifier(tok.text, tok.location)
        if tok.kind is TokenKind.LPAREN:
            self._advance()
            expr = self.parse_expression()
            self._expect(TokenKind.RPAREN)
            return expr
        if tok.kind is TokenKind.LBRACE:
            return self._parse_init_list()
        raise ParseError(f"unexpected token {tok.text!r}", tok.location)

    def _parse_init_list(self) -> InitList:
        loc = self._expect(TokenKind.LBRACE).location
        items: list[Expr] = []
        if not self._at(TokenKind.RBRACE):
            items.append(self._parse_initializer())
            while self._accept(TokenKind.COMMA):
                if self._at(TokenKind.RBRACE):
                    break  # trailing comma
                items.append(self._parse_initializer())
        self._expect(TokenKind.RBRACE)
        return InitList(items, loc)

    def _parse_initializer(self) -> Expr:
        if self._at(TokenKind.LBRACE):
            return self._parse_init_list()
        return self.parse_expression()

    # -- statements -------------------------------------------------------

    def parse_statement(self) -> Stmt:
        tok = self._peek()
        kind = tok.kind
        if kind is TokenKind.LBRACE:
            return self._parse_block()
        if kind is TokenKind.KW_IF:
            return self._parse_if()
        if kind is TokenKind.KW_WHILE:
            return self._parse_while()
        if kind is TokenKind.KW_DO:
            return self._parse_do_while()
        if kind is TokenKind.KW_FOR:
            return self._parse_for()
        if kind is TokenKind.KW_SWITCH:
            return self._parse_switch()
        if kind is TokenKind.KW_BREAK:
            self._advance()
            self._expect(TokenKind.SEMI)
            return Break(tok.location)
        if kind is TokenKind.KW_CONTINUE:
            self._advance()
            self._expect(TokenKind.SEMI)
            return Continue(tok.location)
        if kind is TokenKind.KW_RETURN:
            self._advance()
            value = None
            if not self._at(TokenKind.SEMI):
                value = self.parse_expression()
            self._expect(TokenKind.SEMI)
            return Return(value, tok.location)
        if kind is TokenKind.SEMI:
            self._advance()
            return Block([], tok.location)
        if kind is TokenKind.KW_STATIC or self._at_type_start():
            return self._parse_var_decl_stmt()
        expr = self.parse_expression()
        self._expect(TokenKind.SEMI)
        return ExprStmt(expr, tok.location)

    def _parse_block(self) -> Block:
        loc = self._expect(TokenKind.LBRACE).location
        statements: list[Stmt] = []
        while not self._at(TokenKind.RBRACE):
            if self._at(TokenKind.EOF):
                raise ParseError("unterminated block", loc)
            statements.append(self.parse_statement())
        self._expect(TokenKind.RBRACE)
        return Block(statements, loc)

    def _parse_if(self) -> If:
        loc = self._expect(TokenKind.KW_IF).location
        self._expect(TokenKind.LPAREN)
        cond = self.parse_expression()
        self._expect(TokenKind.RPAREN)
        then = self.parse_statement()
        other = None
        if self._accept(TokenKind.KW_ELSE):
            other = self.parse_statement()
        return If(cond, then, other, loc)

    def _parse_while(self) -> While:
        loc = self._expect(TokenKind.KW_WHILE).location
        self._expect(TokenKind.LPAREN)
        cond = self.parse_expression()
        self._expect(TokenKind.RPAREN)
        body = self.parse_statement()
        return While(cond, body, loc)

    def _parse_do_while(self) -> DoWhile:
        loc = self._expect(TokenKind.KW_DO).location
        body = self.parse_statement()
        self._expect(TokenKind.KW_WHILE)
        self._expect(TokenKind.LPAREN)
        cond = self.parse_expression()
        self._expect(TokenKind.RPAREN)
        self._expect(TokenKind.SEMI)
        return DoWhile(body, cond, loc)

    def _parse_for(self) -> For:
        loc = self._expect(TokenKind.KW_FOR).location
        self._expect(TokenKind.LPAREN)
        init: Stmt | None = None
        if not self._at(TokenKind.SEMI):
            if self._at_type_start():
                init = self._parse_var_decl_stmt()
            else:
                expr = self.parse_expression()
                self._expect(TokenKind.SEMI)
                init = ExprStmt(expr, expr.location)
        else:
            self._advance()
        cond = None
        if not self._at(TokenKind.SEMI):
            cond = self.parse_expression()
        self._expect(TokenKind.SEMI)
        step = None
        if not self._at(TokenKind.RPAREN):
            step = self.parse_expression()
        self._expect(TokenKind.RPAREN)
        body = self.parse_statement()
        return For(init, cond, step, body, loc)

    def _parse_switch(self) -> Switch:
        loc = self._expect(TokenKind.KW_SWITCH).location
        self._expect(TokenKind.LPAREN)
        subject = self.parse_expression()
        self._expect(TokenKind.RPAREN)
        self._expect(TokenKind.LBRACE)
        cases: list[SwitchCase] = []
        while not self._at(TokenKind.RBRACE):
            tok = self._peek()
            if self._accept(TokenKind.KW_CASE):
                value = self.parse_expression()
                self._expect(TokenKind.COLON)
                body = self._parse_case_body()
                cases.append(SwitchCase(value, body, tok.location))
            elif self._accept(TokenKind.KW_DEFAULT):
                self._expect(TokenKind.COLON)
                body = self._parse_case_body()
                cases.append(SwitchCase(None, body, tok.location))
            else:
                raise ParseError(
                    f"expected 'case' or 'default', found {tok.text!r}",
                    tok.location,
                )
        self._expect(TokenKind.RBRACE)
        return Switch(subject, cases, loc)

    def _parse_case_body(self) -> list[Stmt]:
        body: list[Stmt] = []
        while not (
            self._at(TokenKind.KW_CASE)
            or self._at(TokenKind.KW_DEFAULT)
            or self._at(TokenKind.RBRACE)
        ):
            body.append(self.parse_statement())
        return body

    def _parse_var_decl_stmt(self) -> Stmt:
        """Parse one or more comma-separated declarators as a statement."""
        is_static = bool(self._accept(TokenKind.KW_STATIC))
        base = self._parse_base_type()
        decls: list[Stmt] = []
        while True:
            typ = base
            while self._accept(TokenKind.STAR):
                typ = ct.PointerType(typ)
            name_tok = self._expect(TokenKind.IDENT)
            typ = self._parse_array_suffix(typ)
            init = None
            if self._accept(TokenKind.ASSIGN):
                init = self._parse_initializer()
            decls.append(
                VarDecl(name_tok.text, typ, init, name_tok.location, is_static)
            )
            if not self._accept(TokenKind.COMMA):
                break
        self._expect(TokenKind.SEMI)
        if len(decls) == 1:
            return decls[0]
        return Block(decls, decls[0].location)

    def _parse_array_suffix(self, typ: ct.CType) -> ct.CType:
        dims: list[int | None] = []
        while self._accept(TokenKind.LBRACKET):
            if self._at(TokenKind.RBRACKET):
                dims.append(None)
            else:
                size = self.parse_expression()
                if isinstance(size, IntLiteral):
                    dims.append(size.value)
                else:
                    dims.append(None)
            self._expect(TokenKind.RBRACKET)
        for dim in reversed(dims):
            typ = ct.ArrayType(typ, dim)
        return typ

    # -- top level ----------------------------------------------------------

    def parse_file(self) -> SourceAst:
        out = SourceAst(self.source.name)
        while not self._at(TokenKind.EOF):
            out.declarations.append(self._parse_top_level())
        return out

    def _parse_top_level(self):
        tok = self._peek()
        if tok.kind is TokenKind.KW_TYPEDEF:
            return self._parse_typedef()
        if tok.kind is TokenKind.KW_STRUCT and self._peek(2).kind is TokenKind.LBRACE:
            return self._parse_struct_decl()
        if tok.kind is TokenKind.KW_ENUM and (
            self._peek(1).kind is TokenKind.LBRACE
            or self._peek(2).kind is TokenKind.LBRACE
        ):
            return self._parse_enum_decl()

        is_extern = bool(self._accept(TokenKind.KW_EXTERN))
        is_static = bool(self._accept(TokenKind.KW_STATIC))
        base = self._parse_base_type()
        typ = base
        while self._accept(TokenKind.STAR):
            typ = ct.PointerType(typ)
        name_tok = self._expect(TokenKind.IDENT)
        if self._at(TokenKind.LPAREN):
            return self._parse_function(typ, name_tok, is_static, is_extern)
        return self._parse_global_var(base, typ, name_tok, is_static)

    def _parse_typedef(self) -> TypedefDecl:
        loc = self._expect(TokenKind.KW_TYPEDEF).location
        if self._at(TokenKind.KW_STRUCT) and self._peek(2).kind is TokenKind.LBRACE:
            struct = self._parse_struct_decl(consume_semi=False)
            alias = self._expect(TokenKind.IDENT).text
            self._expect(TokenKind.SEMI)
            typ = ct.StructType(struct.name)
            self.typedefs[alias] = typ
            return TypedefDecl(alias, typ, loc)
        typ = self._parse_type()
        alias = self._expect(TokenKind.IDENT).text
        self._expect(TokenKind.SEMI)
        self.typedefs[alias] = typ
        return TypedefDecl(alias, typ, loc)

    def _parse_struct_decl(self, consume_semi: bool = True) -> StructDecl:
        loc = self._expect(TokenKind.KW_STRUCT).location
        name = self._expect(TokenKind.IDENT).text
        self._expect(TokenKind.LBRACE)
        fields: list[Param] = []
        while not self._at(TokenKind.RBRACE):
            base = self._parse_base_type()
            while True:
                typ = base
                while self._accept(TokenKind.STAR):
                    typ = ct.PointerType(typ)
                fname = self._expect(TokenKind.IDENT)
                typ = self._parse_array_suffix(typ)
                fields.append(Param(fname.text, typ, fname.location))
                if not self._accept(TokenKind.COMMA):
                    break
            self._expect(TokenKind.SEMI)
        self._expect(TokenKind.RBRACE)
        if consume_semi:
            self._expect(TokenKind.SEMI)
        return StructDecl(name, fields, loc)

    def _parse_enum_decl(self) -> EnumDecl:
        loc = self._expect(TokenKind.KW_ENUM).location
        name = None
        if self._at(TokenKind.IDENT):
            name = self._advance().text
        self._expect(TokenKind.LBRACE)
        members: list[tuple[str, int]] = []
        next_value = 0
        while not self._at(TokenKind.RBRACE):
            member = self._expect(TokenKind.IDENT).text
            if self._accept(TokenKind.ASSIGN):
                value_expr = self._parse_conditional()
                value = _const_int(value_expr)
                next_value = value
            members.append((member, next_value))
            self.enum_constants[member] = next_value
            next_value += 1
            if not self._accept(TokenKind.COMMA):
                break
        self._expect(TokenKind.RBRACE)
        self._expect(TokenKind.SEMI)
        return EnumDecl(name, members, loc)

    def _parse_function(
        self,
        return_type: ct.CType,
        name_tok: Token,
        is_static: bool,
        is_extern: bool,
    ) -> FunctionDef:
        self._expect(TokenKind.LPAREN)
        params: list[Param] = []
        variadic = False
        if not self._at(TokenKind.RPAREN):
            if self._at(TokenKind.KW_VOID) and self._peek(1).kind is TokenKind.RPAREN:
                self._advance()
            else:
                while True:
                    if self._accept(TokenKind.ELLIPSIS):
                        variadic = True
                        break
                    ptype = self._parse_type()
                    pname = ""
                    ploc = self._peek().location
                    if self._at(TokenKind.IDENT):
                        ptok = self._advance()
                        pname = ptok.text
                        ploc = ptok.location
                        ptype = self._parse_array_suffix(ptype)
                    params.append(Param(pname, ptype, ploc))
                    if not self._accept(TokenKind.COMMA):
                        break
        self._expect(TokenKind.RPAREN)
        body = None
        if self._at(TokenKind.LBRACE):
            body = self._parse_block()
        else:
            self._expect(TokenKind.SEMI)
        _ = is_extern  # extern only affects linkage, which we don't model
        return FunctionDef(
            name_tok.text,
            return_type,
            params,
            body,
            name_tok.location,
            variadic=variadic,
            is_static=is_static,
        )

    def _parse_global_var(
        self,
        base: ct.CType,
        typ: ct.CType,
        name_tok: Token,
        is_static: bool,
    ) -> VarDecl | Block:
        decls: list[VarDecl] = []
        while True:
            typ = self._parse_array_suffix(typ)
            init = None
            if self._accept(TokenKind.ASSIGN):
                init = self._parse_initializer()
            decls.append(VarDecl(name_tok.text, typ, init, name_tok.location, is_static))
            if not self._accept(TokenKind.COMMA):
                break
            typ = base
            while self._accept(TokenKind.STAR):
                typ = ct.PointerType(typ)
            name_tok = self._expect(TokenKind.IDENT)
        self._expect(TokenKind.SEMI)
        if len(decls) == 1:
            return decls[0]
        return Block(decls, decls[0].location)


def _const_int(expr: Expr) -> int:
    """Evaluate a constant integer expression (enum values)."""
    if isinstance(expr, IntLiteral):
        return expr.value
    if isinstance(expr, Unary) and expr.op == "-":
        return -_const_int(expr.operand)
    if isinstance(expr, Binary):
        left = _const_int(expr.left)
        right = _const_int(expr.right)
        ops = {
            "+": lambda: left + right,
            "-": lambda: left - right,
            "*": lambda: left * right,
            "<<": lambda: left << right,
            ">>": lambda: left >> right,
            "|": lambda: left | right,
            "&": lambda: left & right,
        }
        if expr.op in ops:
            return ops[expr.op]()
    raise ParseError("expected constant integer expression", expr.location)


def parse_source(text: str) -> SourceAst:
    """Parse one MiniC source string (named ``<string>`` in locations)
    into a :class:`SourceAst`."""
    return Parser(SourceFile("<string>", text)).parse_file()
