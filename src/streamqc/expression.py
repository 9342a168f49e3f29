"""A small, closed expression language for predicates and tuple checks.

Grammar (precedence low to high):

    or_expr   := and_expr ( "or" and_expr )*
    and_expr  := not_expr ( "and" not_expr )*
    not_expr  := "not" not_expr | comparison
    comparison:= additive ( ("<"|"<="|"="|"=="|"!="|">="|">") additive )?
    additive  := multiplicative ( ("+"|"-") multiplicative )*
    multiplicative := unary ( ("*"|"/") unary )*
    unary     := "-" unary | atom
    atom      := NUMBER | STRING | "true" | "false" | "null"
               | IDENT "(" args ")" | IDENT | "(" or_expr ")"

Comparisons are non-associative: "a < b < c" is a parse error. Strings are
single-quoted with '' escaping a quote. Identifiers name stream fields unless
they match a builtin or a binding supplied at evaluation time (bindings win).

Evaluation is total and three-valued: Null absorbs through strict operators,
and/or/not follow Kleene logic, division by zero yields Null, and type
confusion yields Null rather than an error.
"""

from __future__ import annotations

import re
from dataclasses import dataclass, field
from datetime import datetime
from typing import Any, Callable, Iterator

from .model import StreamElement, Value, threshold_holds

__all__ = [
    "ExpressionError", "Expr", "Literal", "Name", "Unary", "Binary", "Call",
    "parse", "to_text", "evaluate", "BUILTINS",
]


class ExpressionError(ValueError):
    """Parse or validation failure, carrying the byte offset of the problem."""

    def __init__(self, message: str, offset: int, expected: tuple[str, ...] = ()):
        hint = f" (expected {' or '.join(expected)})" if expected else ""
        super().__init__(f"at offset {offset}: {message}{hint}")
        self.offset = offset
        self.expected = expected


# ---------------------------------------------------------------------------
# AST


class Expr:
    """Base class for expression nodes."""

    def evaluate(self, element: StreamElement | None,
                 bindings: dict[str, Value] | None = None) -> Value:
        return evaluate(self, element, bindings)

    def free_names(self) -> set[str]:
        """Identifiers that resolve to fields or bindings (builtins excluded)."""
        out: set[str] = set()
        _collect_names(self, out)
        return out


@dataclass(frozen=True)
class Literal(Expr):
    value: Value


@dataclass(frozen=True)
class Name(Expr):
    ident: str


@dataclass(frozen=True)
class Unary(Expr):
    op: str  # "-" or "not"
    operand: Expr


@dataclass(frozen=True)
class Binary(Expr):
    op: str  # or and < <= = != >= > + - * /
    left: Expr
    right: Expr


@dataclass(frozen=True)
class Call(Expr):
    name: str
    args: tuple[Expr, ...]
    # matches() compiles its pattern once at parse time.
    pattern: Any = field(default=None, compare=False, repr=False)


def _collect_names(node: Expr, out: set[str]) -> None:
    if isinstance(node, Name):
        out.add(node.ident)
    elif isinstance(node, Unary):
        _collect_names(node.operand, out)
    elif isinstance(node, Binary):
        _collect_names(node.left, out)
        _collect_names(node.right, out)
    elif isinstance(node, Call):
        for arg in node.args:
            _collect_names(arg, out)


# ---------------------------------------------------------------------------
# Tokenizer

_TOKEN_RE = re.compile(
    r"""
    (?P<ws>\s+)
  | (?P<num>\d+(?:\.\d+)?(?:[eE][+-]?\d+)?)
  | (?P<ident>[A-Za-z_][A-Za-z_0-9]*)
  | (?P<op><=|>=|!=|==|<|>|=|\+|-|\*|/|\(|\)|,)
    """,
    re.VERBOSE,
)

_KEYWORDS = {"and", "or", "not", "true", "false", "null"}


@dataclass(frozen=True)
class _Token:
    kind: str  # num ident str op kw eof
    text: str
    offset: int
    value: Value = None


def _tokenize(source: str) -> Iterator[_Token]:
    pos = 0
    n = len(source)
    while pos < n:
        ch = source[pos]
        if ch == "'":
            # Single-quoted string; '' escapes a quote.
            out = []
            i = pos + 1
            while True:
                if i >= n:
                    raise ExpressionError("unterminated string", pos)
                if source[i] == "'":
                    if i + 1 < n and source[i + 1] == "'":
                        out.append("'")
                        i += 2
                        continue
                    break
                out.append(source[i])
                i += 1
            yield _Token("str", source[pos:i + 1], pos, "".join(out))
            pos = i + 1
            continue
        m = _TOKEN_RE.match(source, pos)
        if m is None:
            raise ExpressionError(f"unexpected character {ch!r}", pos)
        if m.lastgroup == "ws":
            pos = m.end()
            continue
        text = m.group()
        if m.lastgroup == "num":
            if re.search(r"[.eE]", text):
                value: Value = float(text)
            else:
                value = int(text)
            yield _Token("num", text, pos, value)
        elif m.lastgroup == "ident":
            kind = "kw" if text in _KEYWORDS else "ident"
            yield _Token(kind, text, pos)
        else:
            yield _Token("op", "=" if text == "==" else text, pos)
        pos = m.end()
    yield _Token("eof", "", n)


# ---------------------------------------------------------------------------
# Builtins

_RE_BACKREF = re.compile(r"\\[1-9]|\(\?P=")

# name -> arity
BUILTINS: dict[str, int] = {
    "is_null": 1,
    "length": 1,
    "matches": 2,
    "abs": 1,
    "min": 2,
    "max": 2,
    "hour_of": 1,
    "non_empty": 1,
    "positive": 1,
    "coords_valid": 2,
}


def _compile_pattern(text: str, offset: int) -> re.Pattern:
    if _RE_BACKREF.search(text):
        raise ExpressionError("backreferences are not supported in patterns", offset)
    try:
        return re.compile(text)
    except re.error as exc:
        raise ExpressionError(f"invalid pattern: {exc}", offset) from None


# ---------------------------------------------------------------------------
# Parser (recursive descent)


class _Parser:
    def __init__(self, source: str):
        self.source = source
        self.tokens = list(_tokenize(source))
        self.pos = 0

    @property
    def cur(self) -> _Token:
        return self.tokens[self.pos]

    def advance(self) -> _Token:
        tok = self.cur
        self.pos += 1
        return tok

    def expect_op(self, text: str) -> None:
        if self.cur.kind == "op" and self.cur.text == text:
            self.advance()
            return
        raise ExpressionError(f"got {self.cur.text or 'end of input'!r}",
                              self.cur.offset, (repr(text),))

    def parse(self) -> Expr:
        node = self.or_expr()
        if self.cur.kind != "eof":
            raise ExpressionError(f"unexpected trailing input {self.cur.text!r}",
                                  self.cur.offset)
        return node

    def or_expr(self) -> Expr:
        node = self.and_expr()
        while self.cur.kind == "kw" and self.cur.text == "or":
            self.advance()
            node = Binary("or", node, self.and_expr())
        return node

    def and_expr(self) -> Expr:
        node = self.not_expr()
        while self.cur.kind == "kw" and self.cur.text == "and":
            self.advance()
            node = Binary("and", node, self.not_expr())
        return node

    def not_expr(self) -> Expr:
        if self.cur.kind == "kw" and self.cur.text == "not":
            self.advance()
            return Unary("not", self.not_expr())
        return self.comparison()

    def comparison(self) -> Expr:
        node = self.additive()
        if self.cur.kind == "op" and self.cur.text in ("<", "<=", "=", "!=", ">=", ">"):
            op = self.advance().text
            node = Binary(op, node, self.additive())
            if self.cur.kind == "op" and self.cur.text in ("<", "<=", "=", "!=", ">=", ">"):
                raise ExpressionError("comparisons are non-associative; parenthesize",
                                      self.cur.offset)
        return node

    def additive(self) -> Expr:
        node = self.multiplicative()
        while self.cur.kind == "op" and self.cur.text in ("+", "-"):
            op = self.advance().text
            node = Binary(op, node, self.multiplicative())
        return node

    def multiplicative(self) -> Expr:
        node = self.unary()
        while self.cur.kind == "op" and self.cur.text in ("*", "/"):
            op = self.advance().text
            node = Binary(op, node, self.unary())
        return node

    def unary(self) -> Expr:
        if self.cur.kind == "op" and self.cur.text == "-":
            tok = self.advance()
            return Unary("-", self.unary())
        return self.atom()

    def atom(self) -> Expr:
        tok = self.cur
        if tok.kind == "num" or tok.kind == "str":
            self.advance()
            return Literal(tok.value)
        if tok.kind == "kw":
            if tok.text == "true":
                self.advance()
                return Literal(True)
            if tok.text == "false":
                self.advance()
                return Literal(False)
            if tok.text == "null":
                self.advance()
                return Literal(None)
            raise ExpressionError(f"unexpected keyword {tok.text!r}", tok.offset,
                                  ("a value", "an identifier", "'('"))
        if tok.kind == "ident":
            self.advance()
            if self.cur.kind == "op" and self.cur.text == "(":
                return self.call(tok)
            return Name(tok.text)
        if tok.kind == "op" and tok.text == "(":
            self.advance()
            node = self.or_expr()
            self.expect_op(")")
            return node
        raise ExpressionError(f"got {tok.text or 'end of input'!r}", tok.offset,
                              ("a value", "an identifier", "'('"))

    def call(self, name_tok: _Token) -> Expr:
        name = name_tok.text
        if name not in BUILTINS:
            raise ExpressionError(f"unknown function {name!r}", name_tok.offset)
        self.expect_op("(")
        args: list[Expr] = []
        if not (self.cur.kind == "op" and self.cur.text == ")"):
            args.append(self.or_expr())
            while self.cur.kind == "op" and self.cur.text == ",":
                self.advance()
                args.append(self.or_expr())
        close = self.cur
        self.expect_op(")")
        if len(args) != BUILTINS[name]:
            raise ExpressionError(
                f"{name} takes {BUILTINS[name]} argument(s), got {len(args)}",
                name_tok.offset)
        pattern = None
        if name == "matches":
            pat = args[1]
            if not (isinstance(pat, Literal) and isinstance(pat.value, str)):
                raise ExpressionError("matches() needs a string literal pattern",
                                      close.offset)
            pattern = _compile_pattern(pat.value, close.offset)
        return Call(name, tuple(args), pattern)


def parse(source: str) -> Expr:
    """Parse an expression; raises ExpressionError with a byte offset on failure."""
    return _Parser(source).parse()


# ---------------------------------------------------------------------------
# Printing (parse(to_text(e)) == e)

_PREC = {"or": 1, "and": 2, "not": 3, "cmp": 4, "add": 5, "mul": 6, "neg": 7}


def _prec(node: Expr) -> int:
    if isinstance(node, Binary):
        if node.op in ("or", "and"):
            return _PREC[node.op]
        if node.op in ("<", "<=", "=", "!=", ">=", ">"):
            return _PREC["cmp"]
        if node.op in ("+", "-"):
            return _PREC["add"]
        return _PREC["mul"]
    if isinstance(node, Unary):
        return _PREC["not"] if node.op == "not" else _PREC["neg"]
    return 99


def to_text(node: Expr) -> str:
    """Render an expression; round-trips through parse to an equal tree."""
    if isinstance(node, Literal):
        v = node.value
        if v is None:
            return "null"
        if isinstance(v, bool):
            return "true" if v else "false"
        if isinstance(v, str):
            return "'" + v.replace("'", "''") + "'"
        return repr(v)
    if isinstance(node, Name):
        return node.ident
    if isinstance(node, Unary):
        inner = to_text(node.operand)
        if _prec(node.operand) < _prec(node):
            inner = f"({inner})"
        if node.op == "not":
            return f"not {inner}"
        # "--x" would not re-tokenize as two negations.
        if isinstance(node.operand, Unary) and node.operand.op == "-":
            inner = f"({inner})"
        return f"-{inner}"
    if isinstance(node, Binary):
        me = _prec(node)
        left = to_text(node.left)
        right = to_text(node.right)
        # Left-associative chains keep the left child unparenthesized at equal
        # precedence; comparisons are non-associative so both sides bind tighter.
        if _prec(node.left) < me or (me == _PREC["cmp"] and _prec(node.left) == me):
            left = f"({left})"
        if _prec(node.right) <= me:
            right = f"({right})"
        return f"{left} {node.op} {right}"
    if isinstance(node, Call):
        return f"{node.name}({', '.join(to_text(a) for a in node.args)})"
    raise TypeError(f"not an expression node: {node!r}")


# ---------------------------------------------------------------------------
# Evaluation

_NUM = (int, float)


def _is_num(v: Value) -> bool:
    return isinstance(v, _NUM) and not isinstance(v, bool)


def _kleene_and(a: Value, b_thunk: Callable[[], Value]) -> Value:
    a = _as_bool(a)
    if a is False:
        return False
    b = _as_bool(b_thunk())
    if b is False:
        return False
    if a is None or b is None:
        return None
    return True


def _kleene_or(a: Value, b_thunk: Callable[[], Value]) -> Value:
    a = _as_bool(a)
    if a is True:
        return True
    b = _as_bool(b_thunk())
    if b is True:
        return True
    if a is None or b is None:
        return None
    return False


def _as_bool(v: Value) -> bool | None:
    # Non-boolean operands of logic operators absorb to Null.
    if isinstance(v, bool):
        return v
    return None


def evaluate(node: Expr, element: StreamElement | None,
             bindings: dict[str, Value] | None = None) -> Value:
    """Evaluate an expression; total over the value domain, never raises.

    Name resolution order: bindings, then element attributes, then Null.
    """
    if isinstance(node, Literal):
        return node.value
    if isinstance(node, Name):
        if bindings is not None and node.ident in bindings:
            return bindings[node.ident]
        if element is not None:
            return element.attrs.get(node.ident)
        return None
    if isinstance(node, Unary):
        if node.op == "not":
            v = _as_bool(evaluate(node.operand, element, bindings))
            return None if v is None else not v
        v = evaluate(node.operand, element, bindings)
        return -v if _is_num(v) else None
    if isinstance(node, Binary):
        op = node.op
        if op == "and":
            return _kleene_and(evaluate(node.left, element, bindings),
                               lambda: evaluate(node.right, element, bindings))
        if op == "or":
            return _kleene_or(evaluate(node.left, element, bindings),
                              lambda: evaluate(node.right, element, bindings))
        left = evaluate(node.left, element, bindings)
        right = evaluate(node.right, element, bindings)
        if op in ("<", "<=", "=", "!=", ">=", ">"):
            return threshold_holds(left, op, right)
        return _arith(op, left, right)
    if isinstance(node, Call):
        return _call(node, element, bindings)
    return None


def _arith(op: str, left: Value, right: Value) -> Value:
    if not (_is_num(left) and _is_num(right)):
        return None
    try:
        if op == "+":
            return left + right
        if op == "-":
            return left - right
        if op == "*":
            return left * right
        if right == 0:
            return None
        return left / right
    except OverflowError:
        return None


def _call(node: Call, element: StreamElement | None,
          bindings: dict[str, Value] | None) -> Value:
    args = [evaluate(a, element, bindings) for a in node.args]
    name = node.name
    if name == "is_null":
        return args[0] is None
    if name == "length":
        return len(args[0]) if isinstance(args[0], str) else None
    if name == "matches":
        if not isinstance(args[0], str):
            return None
        return node.pattern.fullmatch(args[0]) is not None
    if name == "abs":
        return abs(args[0]) if _is_num(args[0]) else None
    if name in ("min", "max"):
        a, b = args
        if not (_is_num(a) and _is_num(b)):
            if isinstance(a, datetime) and isinstance(b, datetime):
                return (min if name == "min" else max)(a, b)
            return None
        return (min if name == "min" else max)(a, b)
    if name == "hour_of":
        return args[0].hour if isinstance(args[0], datetime) else None
    if name == "non_empty":
        if args[0] is None:
            return False
        return len(args[0]) > 0 if isinstance(args[0], str) else None
    if name == "positive":
        return args[0] > 0 if _is_num(args[0]) else None
    if name == "coords_valid":
        lat, lon = args
        if not (_is_num(lat) and _is_num(lon)):
            return None
        return -90.0 <= lat <= 90.0 and -180.0 <= lon <= 180.0
    return None
