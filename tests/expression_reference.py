"""A plain tree-walking interpreter of the expression language.

It is the reference the compiled form (`streamqc.expression.compile`) is
tested against, written straight from the documented semantics and sharing
no evaluation code with the package: Null absorbs through strict operators,
and/or/not follow Kleene logic over booleans, Int and Float widen, Text and
Bool only compare for equality, and division by zero, overflow, type
confusion and a NaN result are Null. It also prints a tree as text
(to_text) that parses back to an equal tree.
"""

from __future__ import annotations

import math
from datetime import datetime

from streamqc.expression import Binary, Call, Expr, Literal, Name, Unary


def evaluate(node, names: dict):
    if isinstance(node, Literal):
        return node.value
    if isinstance(node, Name):
        return names.get(node.ident)
    if isinstance(node, Unary):
        v = evaluate(node.operand, names)
        if node.op == "not":
            return (not v) if isinstance(v, bool) else None
        return -v if _number(v) else None
    if isinstance(node, Call):
        return _no_nan(_builtin(node, [evaluate(arg, names) for arg in node.args]))
    assert isinstance(node, Binary), node
    a = evaluate(node.left, names)
    b = evaluate(node.right, names)
    if node.op in ("and", "or"):
        a = a if isinstance(a, bool) else None
        b = b if isinstance(b, bool) else None
        if node.op == "and":
            if a is False or b is False:
                return False
            return None if a is None or b is None else True
        if a is True or b is True:
            return True
        return None if a is None or b is None else False
    if node.op in ("+", "-", "*", "/"):
        if not (_number(a) and _number(b)):
            return None
        try:
            if node.op == "+":
                return _no_nan(a + b)
            if node.op == "-":
                return _no_nan(a - b)
            if node.op == "*":
                return _no_nan(a * b)
            return _no_nan(a / b)
        except (OverflowError, ZeroDivisionError):
            return None
    return _compare(node.op, a, b)


def _number(v) -> bool:
    return isinstance(v, (int, float)) and not isinstance(v, bool)


def _no_nan(v):
    return None if isinstance(v, float) and math.isnan(v) else v


def _compare(op: str, a, b):
    if a is None or b is None:
        return None
    if _number(a) and _number(b) or isinstance(a, datetime) and isinstance(b, datetime):
        ordered = True
    elif (isinstance(a, bool) and isinstance(b, bool)
          or isinstance(a, str) and isinstance(b, str)):
        ordered = False
    else:
        return None
    if op == "=":
        return a == b
    if op == "!=":
        return a != b
    if not ordered:
        return None
    if op == "<":
        return a < b
    if op == "<=":
        return a <= b
    if op == ">=":
        return a >= b
    return a > b


def _builtin(node: Call, args: list):
    name = node.name
    v = args[0]
    if name == "is_null":
        return v is None
    if name == "length":
        return len(v) if isinstance(v, str) else None
    if name == "matches":
        return node.pattern.fullmatch(v) is not None if isinstance(v, str) else None
    if name == "abs":
        return abs(v) if _number(v) else None
    if name in ("min", "max"):
        w = args[1]
        if _number(v) and _number(w) or isinstance(v, datetime) and isinstance(w, datetime):
            return min(v, w) if name == "min" else max(v, w)
        return None
    if name == "hour_of":
        return v.hour if isinstance(v, datetime) else None
    if name == "non_empty":
        if v is None:
            return False
        return len(v) > 0 if isinstance(v, str) else None
    if name == "positive":
        return v > 0 if _number(v) else None
    assert name == "coords_valid", name
    lat, lon = args
    if not (_number(lat) and _number(lon)):
        return None
    return -90.0 <= lat <= 90.0 and -180.0 <= lon <= 180.0


# ---------------------------------------------------------------------------
# Printing (parse(to_text(e)) == e): the tests print trees with it

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
