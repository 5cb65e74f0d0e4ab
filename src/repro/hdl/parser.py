"""Recursive-descent parser for the supported Verilog subset."""

from __future__ import annotations

from typing import Dict, List, Optional, Tuple

from repro.hdl.ast import (
    AlwaysBlock,
    Binary,
    BlockingAssign,
    Concat,
    ContinuousAssign,
    Expr,
    Identifier,
    IfStatement,
    ModuleDecl,
    NetDecl,
    NonBlockingAssign,
    Number,
    Parameter,
    Port,
    Replicate,
    Select,
    SourceFile,
    Statement,
    Ternary,
    Unary,
)
from repro.hdl.lexer import Token, parse_sized_number, tokenize

__all__ = ["ParseError", "parse_verilog", "parse_module"]


class ParseError(ValueError):
    """Raised on a syntax error in the Verilog source."""


class _Parser:
    def __init__(self, tokens: List[Token], source: str) -> None:
        self.tokens = tokens
        self.position = 0
        self.source = source
        # Constant environment for evaluating widths (parameters/localparams).
        self.constants: Dict[str, int] = {}

    # ------------------------------------------------------------------ #
    # Token helpers
    # ------------------------------------------------------------------ #
    def peek(self, offset: int = 0) -> Optional[Token]:
        index = self.position + offset
        return self.tokens[index] if index < len(self.tokens) else None

    def at_end(self) -> bool:
        return self.position >= len(self.tokens)

    def advance(self) -> Token:
        token = self.peek()
        if token is None:
            raise ParseError("unexpected end of input")
        self.position += 1
        return token

    def check(self, kind: str, text: Optional[str] = None) -> bool:
        token = self.peek()
        if token is None or token.kind != kind:
            return False
        return text is None or token.text == text

    def accept(self, kind: str, text: Optional[str] = None) -> Optional[Token]:
        if self.check(kind, text):
            return self.advance()
        return None

    def expect(self, kind: str, text: Optional[str] = None) -> Token:
        token = self.peek()
        if not self.check(kind, text):
            where = f"line {token.line}: got {token.kind} {token.text!r}" if token else "end of input"
            raise ParseError(f"expected {text or kind}, {where}")
        return self.advance()

    # ------------------------------------------------------------------ #
    # Top level
    # ------------------------------------------------------------------ #
    def parse_source(self) -> SourceFile:
        source = SourceFile()
        while not self.at_end():
            if self.check("keyword", "module"):
                source.modules.append(self.parse_module())
            else:
                token = self.advance()
                raise ParseError(f"line {token.line}: unexpected {token.text!r} at top level")
        return source

    def parse_module(self) -> ModuleDecl:
        self.expect("keyword", "module")
        name = self.expect("id").text
        module = ModuleDecl(name=name)
        module.source_lines = _count_source_lines(self.source)
        self.constants = {}

        if self.accept("symbol", "#"):
            self.expect("symbol", "(")
            self._parse_parameter_list(module)
            self.expect("symbol", ")")

        if self.accept("symbol", "("):
            self._parse_port_list(module)
            self.expect("symbol", ")")
        self.expect("symbol", ";")

        while not self.check("keyword", "endmodule"):
            self._parse_module_item(module)
        self.expect("keyword", "endmodule")
        return module

    # ------------------------------------------------------------------ #
    # Header pieces
    # ------------------------------------------------------------------ #
    def _parse_parameter_list(self, module: ModuleDecl) -> None:
        while True:
            self.expect("keyword", "parameter")
            self._parse_range_opt()
            while True:
                pname = self.expect("id").text
                self.expect("symbol", "=")
                default = self._const_expr()
                module.parameters.append(Parameter(pname, default))
                self.constants[pname] = default
                if not self.accept("symbol", ","):
                    return
                if self.check("keyword", "parameter"):
                    break

    def _parse_range_opt(self) -> int:
        """Parse an optional ``[hi:lo]`` range, returning the width (default 1)."""
        if not self.accept("symbol", "["):
            return 1
        high = self._const_expr()
        self.expect("symbol", ":")
        low = self._const_expr()
        self.expect("symbol", "]")
        return abs(high - low) + 1

    def _parse_port_list(self, module: ModuleDecl) -> None:
        direction = None
        is_reg = False
        is_signed = False
        width = 1
        while True:
            if self.check("symbol", ")"):
                return
            if self.check("keyword") and self.peek().text in ("input", "output", "inout"):
                direction = self.advance().text
                is_reg = bool(self.accept("keyword", "reg"))
                self.accept("keyword", "wire")
                is_signed = bool(self.accept("keyword", "signed"))
                width = self._parse_range_opt()
            if direction is None:
                raise ParseError("port list without a direction keyword")
            port_name = self.expect("id").text
            module.ports.append(Port(port_name, direction, width, is_reg, is_signed))
            if not self.accept("symbol", ","):
                return

    # ------------------------------------------------------------------ #
    # Module items
    # ------------------------------------------------------------------ #
    def _parse_module_item(self, module: ModuleDecl) -> None:
        token = self.peek()
        if token is None:
            raise ParseError("unexpected end of input inside module")
        if self.check("keyword", "parameter") or self.check("keyword", "localparam"):
            self.advance()
            self._parse_range_opt()
            while True:
                pname = self.expect("id").text
                self.expect("symbol", "=")
                value = self._const_expr()
                module.parameters.append(Parameter(pname, value))
                self.constants[pname] = value
                if not self.accept("symbol", ","):
                    break
            self.expect("symbol", ";")
            return
        if self.check("keyword", "wire") or self.check("keyword", "reg") or \
                self.check("keyword", "integer"):
            kind = self.advance().text
            if kind == "integer":
                kind, width, is_signed = "reg", 32, True
            else:
                is_signed = bool(self.accept("keyword", "signed"))
                width = self._parse_range_opt()
            while True:
                net_name = self.expect("id").text
                init: Optional[Expr] = None
                if self.accept("symbol", "="):
                    init = self.parse_expression()
                module.nets.append(NetDecl(kind, net_name, width, init, is_signed))
                if not self.accept("symbol", ","):
                    break
            self.expect("symbol", ";")
            return
        if self.check("keyword", "input") or self.check("keyword", "output"):
            # Non-ANSI port declaration in the body.
            direction = self.advance().text
            is_reg = bool(self.accept("keyword", "reg"))
            is_signed = bool(self.accept("keyword", "signed"))
            width = self._parse_range_opt()
            while True:
                port_name = self.expect("id").text
                replaced = False
                for index, existing in enumerate(module.ports):
                    if existing.name == port_name:
                        module.ports[index] = Port(port_name, direction, width, is_reg, is_signed)
                        replaced = True
                if not replaced:
                    module.ports.append(Port(port_name, direction, width, is_reg, is_signed))
                if not self.accept("symbol", ","):
                    break
            self.expect("symbol", ";")
            return
        if self.check("keyword", "assign"):
            self.advance()
            target = self.expect("id").text
            high = low = None
            if self.accept("symbol", "["):
                high = self._const_expr()
                if self.accept("symbol", ":"):
                    low = self._const_expr()
                else:
                    low = high
                self.expect("symbol", "]")
            self.expect("symbol", "=")
            value = self.parse_expression()
            self.expect("symbol", ";")
            module.assigns.append(ContinuousAssign(target, value, high, low))
            return
        if self.check("keyword", "always"):
            self.advance()
            self.expect("symbol", "@")
            self.expect("symbol", "(")
            self.expect("keyword", "posedge")
            clock = self.expect("id").text
            self.expect("symbol", ")")
            body = self._parse_statement_block()
            module.always_blocks.append(AlwaysBlock(clock, tuple(body)))
            return
        raise ParseError(f"line {token.line}: unsupported module item starting with {token.text!r}")

    # ------------------------------------------------------------------ #
    # Statements
    # ------------------------------------------------------------------ #
    def _parse_statement_block(self) -> List[Statement]:
        if self.accept("keyword", "begin"):
            statements: List[Statement] = []
            while not self.check("keyword", "end"):
                statements.append(self._parse_statement())
            self.expect("keyword", "end")
            return statements
        return [self._parse_statement()]

    def _parse_statement(self) -> Statement:
        if self.check("keyword", "if"):
            self.advance()
            self.expect("symbol", "(")
            condition = self.parse_expression()
            self.expect("symbol", ")")
            then_body = self._parse_statement_block()
            else_body: List[Statement] = []
            if self.accept("keyword", "else"):
                else_body = self._parse_statement_block()
            return IfStatement(condition, tuple(then_body), tuple(else_body))
        target = self.expect("id").text
        if self.accept("symbol", "<="):
            value = self.parse_expression()
            self.expect("symbol", ";")
            return NonBlockingAssign(target, value)
        self.expect("symbol", "=")
        value = self.parse_expression()
        self.expect("symbol", ";")
        return BlockingAssign(target, value)

    # ------------------------------------------------------------------ #
    # Expressions (precedence climbing)
    # ------------------------------------------------------------------ #
    def parse_expression(self) -> Expr:
        return self._ternary()

    def _ternary(self) -> Expr:
        condition = self._logical_or()
        if self.accept("symbol", "?"):
            if_true = self._ternary()
            self.expect("symbol", ":")
            if_false = self._ternary()
            return Ternary(condition, if_true, if_false)
        return condition

    def _binary_level(self, operators: Tuple[str, ...], next_level) -> Expr:
        left = next_level()
        while True:
            token = self.peek()
            if token is None or token.kind != "symbol" or token.text not in operators:
                return left
            op = self.advance().text
            right = next_level()
            left = Binary(op, left, right)

    def _logical_or(self) -> Expr:
        return self._binary_level(("||",), self._logical_and)

    def _logical_and(self) -> Expr:
        return self._binary_level(("&&",), self._bitor)

    def _bitor(self) -> Expr:
        return self._binary_level(("|",), self._bitxor)

    def _bitxor(self) -> Expr:
        return self._binary_level(("^", "~^", "^~"), self._bitand)

    def _bitand(self) -> Expr:
        return self._binary_level(("&",), self._equality)

    def _equality(self) -> Expr:
        return self._binary_level(("==", "!="), self._relational)

    def _relational(self) -> Expr:
        return self._binary_level(("<", "<=", ">", ">="), self._shift)

    def _shift(self) -> Expr:
        return self._binary_level(("<<", ">>", ">>>"), self._additive)

    def _additive(self) -> Expr:
        return self._binary_level(("+", "-"), self._multiplicative)

    def _multiplicative(self) -> Expr:
        return self._binary_level(("*", "/", "%"), self._unary)

    def _unary(self) -> Expr:
        token = self.peek()
        if token is not None and token.kind == "symbol" and token.text in ("~", "-", "!", "&", "|", "^", "+"):
            op = self.advance().text
            operand = self._unary()
            if op == "+":
                return operand
            return Unary(op, operand)
        return self._postfix()

    def _postfix(self) -> Expr:
        expr = self._primary()
        while self.check("symbol", "["):
            self.advance()
            high = self.parse_expression()
            if self.accept("symbol", ":"):
                low = self.parse_expression()
            else:
                low = high
            self.expect("symbol", "]")
            expr = Select(expr, high, low)
        return expr

    def _primary(self) -> Expr:
        token = self.peek()
        if token is None:
            raise ParseError("unexpected end of input in expression")
        if token.kind == "sized_number":
            self.advance()
            value, width = parse_sized_number(token.text)
            return Number(value, width)
        if token.kind == "number":
            self.advance()
            return Number(int(token.text.replace("_", "")), None)
        if token.kind == "string":
            # Strings become bitvectors (8 bits per character), matching the
            # paper's "strings should be converted to bitvectors" adjustment.
            self.advance()
            value = 0
            for char in token.text:
                value = (value << 8) | ord(char)
            return Number(value, max(8 * len(token.text), 1))
        if token.kind == "id":
            self.advance()
            return Identifier(token.text)
        if self.accept("symbol", "("):
            inner = self.parse_expression()
            self.expect("symbol", ")")
            return inner
        if self.accept("symbol", "{"):
            first = self.parse_expression()
            # Replication: {N{expr}}
            if self.check("symbol", "{"):
                count = self._expr_to_const(first)
                self.advance()
                operand = self.parse_expression()
                self.expect("symbol", "}")
                self.expect("symbol", "}")
                return Replicate(count, operand)
            parts = [first]
            while self.accept("symbol", ","):
                parts.append(self.parse_expression())
            self.expect("symbol", "}")
            return Concat(tuple(parts))
        raise ParseError(f"line {token.line}: unexpected token {token.text!r} in expression")

    # ------------------------------------------------------------------ #
    # Constant expressions (for widths and parameters)
    # ------------------------------------------------------------------ #
    def _const_expr(self) -> int:
        return self._expr_to_const(self.parse_expression())

    def _expr_to_const(self, expr: Expr) -> int:
        if isinstance(expr, Number):
            return expr.value
        if isinstance(expr, Identifier):
            if expr.name in self.constants:
                return self.constants[expr.name]
            raise ParseError(f"cannot evaluate identifier {expr.name!r} as a constant")
        if isinstance(expr, Unary):
            value = self._expr_to_const(expr.operand)
            return {"-": -value, "~": ~value, "!": int(not value)}[expr.op]
        if isinstance(expr, Binary):
            left = self._expr_to_const(expr.left)
            right = self._expr_to_const(expr.right)
            operations = {
                "+": left + right, "-": left - right, "*": left * right,
                "/": left // right if right else 0, "%": left % right if right else 0,
                "<<": left << right, ">>": left >> right,
                "==": int(left == right), "!=": int(left != right),
                "<": int(left < right), ">": int(left > right),
                "<=": int(left <= right), ">=": int(left >= right),
                "&": left & right, "|": left | right, "^": left ^ right,
            }
            return operations[expr.op]
        if isinstance(expr, Ternary):
            return (self._expr_to_const(expr.if_true)
                    if self._expr_to_const(expr.condition)
                    else self._expr_to_const(expr.if_false))
        raise ParseError(f"expression {expr!r} is not constant")


def _count_source_lines(source: str) -> int:
    """Source lines of code excluding comments and blank lines (Table 1)."""
    count = 0
    in_block_comment = False
    for raw_line in source.splitlines():
        line = raw_line.strip()
        if in_block_comment:
            if "*/" in line:
                in_block_comment = False
                line = line.split("*/", 1)[1].strip()
            else:
                continue
        if line.startswith("/*"):
            if "*/" not in line:
                in_block_comment = True
            continue
        if not line or line.startswith("//"):
            continue
        count += 1
    return count


def parse_verilog(source: str) -> SourceFile:
    """Parse Verilog source text into a :class:`SourceFile`."""
    tokens = tokenize(source)
    return _Parser(tokens, source).parse_source()


def parse_module(source: str, name: Optional[str] = None) -> ModuleDecl:
    """Parse source text and return one module (the only one, or by name)."""
    parsed = parse_verilog(source)
    if not parsed.modules:
        raise ParseError("no modules found in source")
    if name is None:
        if len(parsed.modules) > 1:
            raise ParseError("multiple modules found; specify a name")
        return parsed.modules[0]
    try:
        return parsed.module(name)
    except KeyError as exc:
        raise ParseError(exc.args[0]) from None
