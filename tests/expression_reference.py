"""A plain tree-walking interpreter of the expression language.

It is the reference the compiled form (`streamqc.expression.compile`) is
tested against, written straight from the documented semantics and sharing
no evaluation code with the package: Null absorbs through strict operators,
and/or/not follow Kleene logic over booleans, Int and Float widen, Text and
Bool only compare for equality, and division by zero, overflow, type
confusion and a NaN result are Null.
"""

from __future__ import annotations

import math
from datetime import datetime

from streamqc.expression import Binary, Call, Literal, Name, Unary


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
