"""Parser, printer, and three-valued evaluation of the predicate language."""

import math
import random
import re
from pathlib import Path

import pytest
from hypothesis import given, settings, strategies as st

from streamqc.expression import (
    BUILTINS, Binary, Call, ExpressionError, Literal, Name, Unary, compile, parse, to_text,
)
from streamqc.model import ts

import expression_reference
from helpers import at, elem


def ev(text, element=None, **names):
    """Evaluate text over one name table: the element's attrs, or the names."""
    return compile(parse(text))(element.attrs if element is not None else names)


# ---------------------------------------------------------------------------
# Arithmetic and precedence


@pytest.mark.parametrize("text,expected", [
    ("1 + 2 * 3", 7),
    ("(1 + 2) * 3", 9),
    ("-2 * 3", -6),
    ("2 - -3", 5),
    ("7 / 2", 3.5),
    ("2 * 3 + 4 * 5", 26),
    ("10 - 2 - 3", 5),          # left associative
    ("100 / 10 / 5", 2.0),
    ("1.5e2 + 1", 151.0),
])
def test_arithmetic(text, expected):
    got = ev(text)
    assert got == expected and type(got) is type(expected)


def test_int_arithmetic_stays_int():
    assert type(ev("2 + 3")) is int
    assert type(ev("2 * 3")) is int
    assert type(ev("7 / 2")) is float  # division always yields a float


def test_division_by_zero_is_null():
    assert ev("1 / 0") is None
    assert ev("0.0 / 0") is None


@pytest.mark.parametrize("x", [math.inf, -math.inf])
def test_nan_never_comes_out_of_an_expression(x):
    # inf - inf, inf * 0 and inf / inf are NaN in IEEE arithmetic; here they
    # are Null, so no comparison or builtin downstream sees a NaN.
    for text in ("x - x", "x * 0", "x / x", "(x - x) <= 1", "(x - x) >= 1",
                 "min(x - x, 1)", "max(1, x * 0)", "abs(x / x)"):
        assert ev(text, x=x) is None, text
    assert ev("x + x", x=x) == 2 * x
    assert ev("min(x, 1)", x=x) == min(x, 1)


def test_a_nan_handed_in_does_not_come_out_of_a_builtin():
    assert ev("min(x, 1)", x=math.nan) is None
    assert ev("abs(x)", x=math.nan) is None


def test_null_absorbs_arithmetic():
    assert ev("null + 1") is None
    assert ev("2 * null") is None
    assert ev("-null") is None
    assert ev("abs(null)") is None


# ---------------------------------------------------------------------------
# Comparisons and logic


def test_comparison_chain_is_rejected():
    with pytest.raises(ExpressionError):
        parse("1 < 2 < 3")


def test_double_equals_is_normalized():
    assert parse("a == 1") == parse("a = 1")


def test_kleene_truth_tables():
    t, f, n = "true", "false", "null"
    and_table = {
        (t, t): True, (t, f): False, (t, n): None,
        (f, t): False, (f, f): False, (f, n): False,
        (n, t): None, (n, f): False, (n, n): None,
    }
    or_table = {
        (t, t): True, (t, f): True, (t, n): True,
        (f, t): True, (f, f): False, (f, n): None,
        (n, t): True, (n, f): None, (n, n): None,
    }
    for (a, b), expected in and_table.items():
        assert ev(f"{a} and {b}") is expected, f"{a} and {b}"
    for (a, b), expected in or_table.items():
        assert ev(f"{a} or {b}") is expected, f"{a} or {b}"
    assert ev("not true") is False
    assert ev("not false") is True
    assert ev("not null") is None


def test_non_bool_logic_operand_is_null():
    assert ev("1 and true") is None
    assert ev("'x' or false") is None


def test_null_comparisons_are_null():
    assert ev("null < 3") is None
    assert ev("null = null") is None
    assert ev("x = 3") is None  # unbound name is Null


def test_incomparable_types_are_null():
    assert ev("'a' < 3") is None
    assert ev("true < false") is None
    assert ev("'a' = 3") is None


def test_numeric_widening_in_comparison():
    assert ev("1 = 1.0") is True
    assert ev("3 > 2.5") is True


def test_documented_mixed_example():
    # abs(9 - 8) = 1; 3 * 0.5 = 1.5; 1 > 1.5 is false.
    assert ev("abs(9 - 8) > 3 * 0.5") is False


def test_precedence_or_and_not_compare():
    # not binds tighter than and, and tighter than or
    assert ev("true or false and false") is True
    assert ev("not false and true") is True
    assert ev("not (1 > 2)") is True


# ---------------------------------------------------------------------------
# Strings and builtins


def test_string_quote_escape():
    assert ev("'it''s'") == "it's"
    assert ev("length('it''s')") == 4


def test_matches_fullmatch_semantics():
    assert ev("matches('abc', 'a.c')") is True
    assert ev("matches('abcd', 'a.c')") is False  # must span the whole string
    assert ev("matches(x, '[0-9]+')", x=None) is None


def test_matches_pattern_must_be_literal():
    with pytest.raises(ExpressionError):
        parse("matches(x, y)")


def test_matches_rejects_backreferences():
    with pytest.raises(ExpressionError):
        parse(r"matches(x, '(a)\1')")


def test_matches_rejects_bad_regex():
    with pytest.raises(ExpressionError):
        parse("matches(x, '[')")


def test_builtins():
    assert ev("is_null(x)", x=None) is True
    assert ev("is_null(0)") is False
    assert ev("length('héllo')") == 5  # code points, not bytes
    assert ev("length(x)", x=None) is None
    assert ev("abs(-2.5)") == 2.5
    assert ev("min(3, 2)") == 2
    assert ev("max(3, 2.5)") == 3
    assert ev("min(a, b)", a=ts(2020, 1, 1), b=ts(2019, 1, 1)) == ts(2019, 1, 1)
    assert ev("hour_of(t)", t=ts(2015, 5, 7, 11, 35)) == 11
    assert ev("non_empty('')") is False
    assert ev("non_empty(' ')") is True
    assert ev("non_empty(x)", x=None) is False
    assert ev("positive(0)") is False
    assert ev("positive(0.1)") is True
    assert ev("coords_valid(45.0, 90.0)") is True
    assert ev("coords_valid(91, 0)") is False
    assert ev("coords_valid(0, 181)") is False


def test_unknown_function_and_arity_errors():
    with pytest.raises(ExpressionError):
        parse("frobnicate(1)")
    with pytest.raises(ExpressionError):
        parse("abs(1, 2)")


# ---------------------------------------------------------------------------
# Names, bindings, elements


def test_free_names():
    assert parse("fare > mu_H and is_null(tip)").free_names() == \
        {"fare", "mu_H", "tip"}
    assert parse("1 + 2").free_names() == set()


def test_element_attribute_lookup():
    e = elem(at(0), 0, fare=12.5, zone="A")
    assert ev("fare > 10", element=e) is True
    assert ev("zone = 'A'", element=e) is True
    assert ev("tip > 0", element=e) is None  # absent attribute is Null


def test_a_name_reads_the_one_table_it_is_given():
    value = compile(parse("value"))
    assert value({"value": 99}) == 99
    assert value(elem(at(0), 0, value=1).attrs) == 1
    assert value({}) is None


def test_a_literal_only_subtree_is_evaluated_once_when_compiled(monkeypatch):
    """`-20` is negated (one _is_num call) when the expression is compiled,
    not once per element; the folded rules are the evaluated ones."""
    from streamqc import expression

    calls = []
    is_num = expression._is_num
    monkeypatch.setattr(expression, "_is_num", lambda v: calls.append(v) or is_num(v))
    conforms = compile(parse("temp > -20 and temp < 60 and status != 'fail'"))
    assert calls == [20]
    rows = [{"temp": t, "status": s} for t in (-25.0, -20, 0.5, None, math.nan)
            for s in ("ok", "fail", None)]
    verdicts = [conforms(row) for row in rows]
    assert calls == [20]
    assert verdicts == [expression_reference.evaluate(
        parse("temp > -20 and temp < 60 and status != 'fail'"), row) for row in rows]
    # Folded Nulls and NaN-free arithmetic keep their rules.
    assert compile(parse("1 / 0 > x"))({"x": 1}) is None
    assert compile(parse("x = null"))({"x": None}) is None
    assert compile(parse("-(1 + 2) * 2 < x"))({"x": -5}) is True
    assert compile(parse("not (1 < 2) or x"))({"x": None}) is None
    assert compile(parse("matches('SN-12', 'SN-[0-9]+') and x"))({"x": True}) is True


# ---------------------------------------------------------------------------
# Errors carry byte offsets


def test_error_offsets():
    with pytest.raises(ExpressionError) as exc:
        parse("1 +")
    assert exc.value.offset == 3
    with pytest.raises(ExpressionError) as exc:
        parse("@")
    assert exc.value.offset == 0
    with pytest.raises(ExpressionError) as exc:
        parse("(1 + 2")
    assert "offset" in str(exc.value)


# ---------------------------------------------------------------------------
# Printer fixpoint


FIXPOINT_CASES = [
    "1 + 2 * 3",
    "(1 + 2) * 3",
    "-(-x)",
    "not a and b or c",
    "a < b",
    "fare >= 0 and fare <= 100.0",
    "matches(plate, 'TX-[0-9]+')",
    "min(a, max(b, 1)) + length('it''s')",
    "value > 1.5 * mu_H or is_null(value)",
    "a - (b - c)",
    "a / (b * c)",
    "-(a + b)",
]


@pytest.mark.parametrize("text", FIXPOINT_CASES)
def test_print_parse_fixpoint(text):
    tree = parse(text)
    assert parse(to_text(tree)) == tree


def _random_expr(rng: random.Random, depth: int) -> str:
    """Well-formed expression text over a tiny vocabulary."""
    if depth == 0:
        return rng.choice(["1", "2.5", "x", "y", "'s'", "true", "null"])
    pick = rng.randrange(7)
    a = _random_expr(rng, depth - 1)
    b = _random_expr(rng, depth - 1)
    if pick == 0:
        return f"({a} {rng.choice(['+', '-', '*', '/'])} {b})"
    if pick == 1:
        return f"({a} {rng.choice(['<', '<=', '=', '!=', '>=', '>'])} {b})"
    if pick == 2:
        return f"({a} {rng.choice(['and', 'or'])} {b})"
    if pick == 3:
        return f"(not {a})"
    if pick == 4:
        return f"(-{a})"
    if pick == 5:
        return f"min({a}, {b})"
    return f"is_null({a})"


def test_print_parse_fixpoint_random():
    rng = random.Random(2024)
    for _ in range(300):
        tree = parse(_random_expr(rng, rng.randint(1, 4)))
        printed = to_text(tree)
        assert parse(printed) == tree, printed


def test_readme_builtin_list_matches_the_registry():
    readme = (Path(__file__).resolve().parents[1] / "README.md").read_text(encoding="utf-8")
    section = readme.split("## Expression language", 1)[1].split("\n## ", 1)[0]
    sentence = " ".join(section.split()).split("the builtins ", 1)[1].split(". ", 1)[0]
    listed = [re.match(r"\w+", item).group() for item in re.findall(r"`([^`]+)`", sentence)]
    assert listed == list(BUILTINS), sentence


# ---------------------------------------------------------------------------
# Compiled against the reference interpreter (tests/expression_reference.py)

_NAMES = ("x", "y", "s", "t", "b")

_values = st.one_of(
    st.none(), st.booleans(),
    st.sampled_from([math.inf, -math.inf]),
    st.integers(min_value=-5, max_value=5) | st.just(10 ** 400),
    st.sampled_from([0.0, -0.0, 0.5, -2.5, 89.5, 1e308]) | st.floats(allow_nan=False),
    st.sampled_from(["", "a", "R12", "it's"]),
    st.sampled_from([ts(2015, 5, 7, 11, 35), ts(2015, 5, 7, 23, 0), ts(1970, 1, 1)]),
)

_PATTERNS = ("a.*", "R[0-9]+", "")


def _calls(children):
    out = []
    for name, arity in BUILTINS.items():
        if name == "matches":
            out.append(st.builds(lambda arg, p: Call("matches", (arg, Literal(p)), re.compile(p)),
                                 children, st.sampled_from(_PATTERNS)))
        else:
            out.append(st.builds(lambda *args, name=name: Call(name, args),
                                 *[children] * arity))
    return out


def _operators(ops, operands):
    return st.builds(Binary, st.sampled_from(ops), operands, operands)


# A third of the leaves is arithmetic over infinities and zeros, so that
# NaN-producing forms (inf - inf, inf * 0, inf / inf) are common.
_edges = st.builds(Literal, st.sampled_from([math.inf, -math.inf, 0, 0.0]))

_trees = st.recursive(
    st.one_of(st.builds(Literal, _values), st.builds(Name, st.sampled_from(_NAMES + ("absent",))),
              _operators(["+", "-", "*", "/"], _edges)),
    lambda children: st.one_of(
        st.builds(Unary, st.sampled_from(["-", "not"]), children),
        _operators(["and", "or"], children),
        _operators(["<", "<=", "=", "!=", ">=", ">"], children),
        _operators(["+", "-", "*", "/"], children),
        st.one_of(*_calls(children))),
    max_leaves=12)


@settings(max_examples=1000, deadline=None)
@given(_trees, st.fixed_dictionaries({name: _values for name in _NAMES}))
def test_compiled_matches_the_reference_interpreter(tree, names):
    got = compile(tree)(names)
    want = expression_reference.evaluate(tree, names)
    assert (type(got), repr(got)) == (type(want), repr(want)), to_text(tree)


def test_builtin_registry_shape():
    # Arity map the validator depends on.
    assert BUILTINS["matches"] == 2
    assert BUILTINS["is_null"] == 1
    assert set(BUILTINS) == {
        "is_null", "length", "matches", "abs", "min", "max",
        "hour_of", "non_empty", "positive", "coords_valid"}
