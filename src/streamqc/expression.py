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
single-quoted with '' escaping a quote. An identifier followed by "(" names a
builtin; any other identifier is a name looked up when the expression is
evaluated.

A parsed expression is compiled once (compile) into nested closures, a
function of one name table: an element's attributes for `conforms`, the
measured value and its bindings for a constraint predicate, or the window
bounds for a reference key. A name the table lacks is Null. Evaluation is
total and three-valued: Null absorbs through strict operators, and/or/not
follow Kleene logic, and division by zero, type confusion and a NaN result
yield Null rather than an error.
"""

from __future__ import annotations

import operator
import re
from dataclasses import dataclass, field
from datetime import datetime
from typing import Any, Callable, Iterator, Mapping

from .model import Value, comparator, is_number

__all__ = [
    "ExpressionError", "Expr", "Literal", "Name", "Unary", "Binary", "Call",
    "parse", "compile", "compile_pattern", "BUILTINS",
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


def _min_max(pick: Callable[[Any, Any], Any]) -> Callable[[Value, Value], Value]:
    # Numbers widen; timestamps pick among timestamps.
    def choose(a: Value, b: Value) -> Value:
        if is_number(a) and is_number(b) or isinstance(a, datetime) and isinstance(b, datetime):
            return pick(a, b)
        return None
    return choose


def _coords_valid(lat: Value, lon: Value) -> bool | None:
    if not (is_number(lat) and is_number(lon)):
        return None
    return -90.0 <= lat <= 90.0 and -180.0 <= lon <= 180.0


# name -> (arity, function of the argument values). matches() receives its
# pattern compiled at parse time in place of the pattern text.
_BUILTINS: dict[str, tuple[int, Callable[..., Value]]] = {
    "is_null": (1, lambda v: v is None),
    "length": (1, lambda v: len(v) if isinstance(v, str) else None),
    "matches": (2, lambda v, pattern: (pattern.fullmatch(v) is not None
                                       if isinstance(v, str) else None)),
    "abs": (1, lambda v: abs(v) if is_number(v) else None),
    "min": (2, _min_max(min)),
    "max": (2, _min_max(max)),
    "hour_of": (1, lambda v: v.hour if isinstance(v, datetime) else None),
    "non_empty": (1, lambda v: False if v is None else len(v) > 0 if isinstance(v, str) else None),
    "positive": (1, lambda v: v > 0 if is_number(v) else None),
    "coords_valid": (2, _coords_valid),
}

# name -> arity
BUILTINS: dict[str, int] = {name: arity for name, (arity, _) in _BUILTINS.items()}


def compile_pattern(text: str, offset: int) -> re.Pattern:
    """A regular expression without backreferences; offset places an error."""
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
            pattern = compile_pattern(pat.value, close.offset)
        return Call(name, tuple(args), pattern)


def parse(source: str) -> Expr:
    """Parse an expression; raises ExpressionError with a byte offset on failure."""
    return _Parser(source).parse()


# ---------------------------------------------------------------------------
# Compilation

Names = Mapping[str, Value]
Compiled = Callable[[Names], Value]

_ARITH = {"+": operator.add, "-": operator.sub, "*": operator.mul, "/": operator.truediv}


def compile(node: Expr) -> Compiled:
    """The expression as nested closures over one name table, built once.

    Operators and builtins are resolved here, so evaluating is a call per
    node and no dispatch. A subtree that reads no name is evaluated here,
    once, into its value, and a comparison holds such a value on its right
    side directly. It never raises, and its arithmetic and builtins never
    return NaN.
    """
    return _compile(node)[0]


_VARIES = object()  # the value of a subtree that reads a name: none until evaluated


def _compile(node: Expr) -> tuple[Compiled, Any]:
    """The node's closure, and its value when it reads no name (else _VARIES)."""
    if isinstance(node, Literal):
        return _constant(node.value)
    if isinstance(node, Name):
        ident = node.ident
        return (lambda names: names.get(ident)), _VARIES
    if isinstance(node, Call):
        args = [_compile(arg) for arg in node.args]
        compiled = _call(node, [fn for fn, _ in args])
        values = [value for _, value in args]
    elif isinstance(node, Unary):
        operand, value = _compile(node.operand)
        compiled = _unary(node.op, operand)
        values = [value]
    elif isinstance(node, Binary):
        (left, lvalue), (right, rvalue) = _compile(node.left), _compile(node.right)
        compiled = _binary(node.op, left, right, rvalue)
        values = [lvalue, rvalue]
    else:
        raise TypeError(f"not an expression node: {node!r}")
    if _VARIES in values:
        return compiled, _VARIES
    return _constant(compiled({}))


def _constant(value: Value) -> tuple[Compiled, Value]:
    return (lambda names: value), value


def _unary(op: str, operand: Compiled) -> Compiled:
    if op == "not":
        # Non-boolean operands of logic operators absorb to Null.
        return lambda names: not v if (v := operand(names)) is True or v is False else None
    return lambda names: -v if is_number(v := operand(names)) else None


def _binary(op: str, left: Compiled, right: Compiled, rvalue: Any) -> Compiled:
    # rvalue is the right side's value when it reads no name, else _VARIES.
    if op in _ARITH:
        return _arith(_ARITH[op], left, right)
    if op not in ("and", "or"):
        compare = comparator(op)
        if rvalue is not _VARIES:
            return lambda names: compare(left(names), rvalue)
        return lambda names: compare(left(names), right(names))
    # Kleene logic: the deciding value (False for and, True for or) wins,
    # then Null; the right side is skipped when the left decides.
    decides = op == "or"
    other = not decides

    def logic(names: Names) -> Value:
        a = left(names)
        if a is decides:
            return decides
        b = right(names)
        if b is decides:
            return decides
        return other if a is other and b is other else None
    return logic


def _arith(apply: Callable[[Any, Any], Any], left: Compiled, right: Compiled) -> Compiled:
    # Division by zero, overflow and a NaN result (inf - inf, inf * 0) are Null.
    def arithmetic(names: Names) -> Value:
        a = left(names)
        b = right(names)
        if not (is_number(a) and is_number(b)):
            return None
        try:
            r = apply(a, b)
        except ArithmeticError:
            return None
        return None if r != r else r
    return arithmetic


def _call(node: Call, args: list[Compiled]) -> Compiled:
    # A NaN result (min or max of a NaN) is Null.
    function = _BUILTINS[node.name][1]
    if node.pattern is not None:
        pattern = node.pattern
        args[1] = lambda names: pattern
    if len(args) == 1:
        (only,) = args
        return lambda names: None if (r := function(only(names))) != r else r
    first, second = args
    return lambda names: None if (r := function(first(names), second(names))) != r else r
