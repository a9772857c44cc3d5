"""Expression engine verification.

Covers, in order:

 1. Parsing: literal forms, precedence, associativity, unary minus,
    error offsets and expected-token sets.
 2. Evaluation: a corpus of 60 expressions with independently computed
    reference values, plus the evaluation error taxonomy.
 3. Differentiation: exact rule checks, central-difference agreement on
    1000 random (expression, point) pairs, mixed-partial symmetry, and
    a property against the uncached algorithm as oracle: the same tree,
    signed zeros included, by every variable and by an absent one.
 4. Simplification: the required identities, semantic preservation on
    random bindings, idempotence (one call reaches normal form), and
    refusal to fold outside the finite real domain; on shared DAGs,
    work linear in the distinct nodes, and none at all on an already
    simplified tree.  Structural
    equality of shared DAGs, likewise linear.
 5. Compilation: generated functions agree with the tree walker bit for
    bit and raise exactly where it raises, and deduplicate common
    subexpressions; a property over generated function bodies (shared
    subtrees, statements of their own, branches, failing points) holds
    the function with single-use temporaries written inline to its
    straight lines: the same floats or the same first exception, and
    the same syntax tree once those temporaries are substituted; a
    single-use chain 1000 deep compiles.
 6. Printing: `str` against a recursive reference layout, and the
    clipped text of `repr` and `DomainError`, which renders only the
    clipped prefix, so that it stays cheap on a shared DAG whose full
    text is astronomically long.
 7. Interval enclosure, as properties over random trees and boxes: the
    float value at any point of the box lies inside the enclosure, a
    point where evaluation fails is flagged, the exact rational value
    lies inside it too (which needs the outward rounding), and a
    square encloses to a nonnegative interval, [0, w^2] around 0.
    The bisection prover on top of it: its cell order, witness, cell
    budget and undecided cells.  Alongside, as properties over the same
    trees: `simplify` keeps values, and `str` -> `parse` keeps the text
    and the value.
"""

import ast
import math
import os
import random
import re
import subprocess
import sys
import textwrap
from fractions import Fraction

import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from proxysafe import expr as E
from proxysafe.expr import (
    Add, Call, Const, Div, DomainError, Emitter, Mul, Neg, ParseError, Pow,
    Sub, UnboundVariableError, Var,
)

SRC = os.path.join(os.path.dirname(os.path.dirname(os.path.abspath(__file__))),
                   "src")
SEED = 20260822
FD_STEP = 1e-6
N_DERIV_PAIRS = 1000
N_CLAIRAUT = 300
N_SIMPLIFY_BINDINGS = 1000


# ═══════════════════════════════════════════════════════════════════════════
# random expression generator (shared by the property groups)
# ═══════════════════════════════════════════════════════════════════════════

_POW_EXPONENTS = (2.0, 3.0, 0.5, -1.0, -2.0)


def random_expr(rng, names, depth):
    """Random tree over the full grammar, mildly range-limited so that
    finite differences stay meaningful (constants in [-3, 3], exponents
    from a fixed menu, exp arguments kept shallow)."""
    if depth <= 0 or rng.random() < 0.25:
        if rng.random() < 0.6:
            return Var(rng.choice(names))
        return Const(round(rng.uniform(-3.0, 3.0), 3))
    roll = rng.random()
    if roll < 0.40:
        kind = rng.choice((Add, Sub, Mul))
        return kind(random_expr(rng, names, depth - 1),
                    random_expr(rng, names, depth - 1))
    if roll < 0.52:
        return Div(random_expr(rng, names, depth - 1),
                   random_expr(rng, names, depth - 1))
    if roll < 0.64:
        return Pow(random_expr(rng, names, depth - 1),
                   Const(rng.choice(_POW_EXPONENTS)))
    if roll < 0.75:
        return Neg(random_expr(rng, names, depth - 1))
    fn = rng.choice(E.FUNCTIONS)
    sub_depth = min(depth - 1, 2) if fn == "exp" else depth - 1
    return Call(fn, random_expr(rng, names, sub_depth))


def random_point(rng, names):
    """Magnitudes in [0.3, 2.0], random sign; avoids parking variables on
    domain boundaries like 0."""
    return {n: (1 if rng.random() < 0.5 else -1) * (0.3 + 1.7 * rng.random())
            for n in names}


def try_eval(e, binding):
    try:
        v = E.evaluate(e, binding)
    except E.EvalError:
        return None
    return v if math.isfinite(v) else None


def central_diff(e, var, binding, h=FD_STEP):
    up = dict(binding)
    dn = dict(binding)
    up[var] += h
    dn[var] -= h
    hi = try_eval(e, up)
    lo = try_eval(e, dn)
    if hi is None or lo is None:
        return None
    return (hi - lo) / (2.0 * h)


# ═══════════════════════════════════════════════════════════════════════════
# 1. parsing
# ═══════════════════════════════════════════════════════════════════════════

def test_parse_spec_examples():
    """The three canonical parse examples."""
    assert E.evaluate(E.parse("x^2 + sin(t)"), {"x": 2, "t": 0}) == 4.0
    assert E.evaluate(E.parse("-(3)"), {}) == -3.0
    got = E.evaluate(E.parse("(pi^2)/81"), {})
    assert got == math.pow(math.pi, 2) / 81
    assert abs(got - 0.1218469679) < 1e-9


def test_parse_power_right_associative():
    """2^3^2 must read 2^(3^2), not (2^3)^2."""
    assert E.evaluate(E.parse("2^3^2"), {}) == 512.0
    assert E.evaluate(E.parse("(2^3)^2"), {}) == 64.0


def test_parse_unary_minus_binding():
    """Unary minus sits between the multiplicative tier and ^."""
    assert E.evaluate(E.parse("-2^2"), {}) == -4.0
    assert E.evaluate(E.parse("(-2)^2"), {}) == 4.0
    assert E.evaluate(E.parse("2*-3"), {}) == -6.0
    assert E.evaluate(E.parse("-x*y"), {"x": 2, "y": 3}) == -6.0
    assert E.evaluate(E.parse("--3"), {}) == 3.0


def test_parse_left_associativity():
    """Subtraction and division chain to the left."""
    assert E.evaluate(E.parse("2-3-4"), {}) == -5.0
    assert E.evaluate(E.parse("100/10/2"), {}) == 5.0


def test_parse_pi_is_builtin():
    """pi is a constant, never a free variable."""
    e = E.parse("pi + x")
    assert e.variables() == frozenset({"x"})
    assert E.evaluate(e, {"x": 0.0}) == math.pi


def test_parse_error_offsets():
    """Errors carry the character offset of the offending token."""
    cases = [
        ("x +", 3),        # dangling operator
        ("(x", 2),         # unclosed paren
        ("3 @ 4", 2),      # stray character
        ("x y", 2),        # juxtaposition
        (")", 0),          # orphan close paren
        ("", 0),           # empty input
    ]
    for src, offset in cases:
        with pytest.raises(ParseError) as info:
            E.parse(src)
        assert info.value.offset == offset, f"{src!r}: offset {info.value.offset}"


@pytest.mark.parametrize("src, offset", [
    ("1e400", 0), ("x + 1e999", 4), ("2 * (1e309 - x)", 5)])
def test_parse_rejects_a_number_out_of_range(src, offset):
    """A literal past the float range is a parse error at its offset, not
    the ValueError of a non-finite constant."""
    with pytest.raises(ParseError,
                       match=f"^number out of range at offset {offset}$"):
        E.parse(src)


def test_parse_error_expected_sets():
    """The expected-token set names what could have appeared."""
    with pytest.raises(ParseError) as info:
        E.parse("x + ")
    assert "'('" in info.value.expected and "number" in info.value.expected
    with pytest.raises(ParseError) as info:
        E.parse("(x + y")
    assert info.value.expected == ("')'",)


def test_parse_unknown_function():
    with pytest.raises(ParseError) as info:
        E.parse("foo(3)")
    assert "foo" in str(info.value)
    assert info.value.offset == 0
    assert set(E.FUNCTIONS) <= set(info.value.expected)


def test_parse_number_forms():
    assert E.evaluate(E.parse(".5"), {}) == 0.5
    assert E.evaluate(E.parse("2."), {}) == 2.0
    assert E.evaluate(E.parse("1e3"), {}) == 1000.0
    assert E.evaluate(E.parse("2.5e-2"), {}) == 0.025
    assert E.evaluate(E.parse("1E+2"), {}) == 100.0


def test_parse_roundtrip_through_str():
    """Printing and reparsing preserves meaning (not necessarily shape)."""
    rng = random.Random(SEED + 1)
    names = ["x", "y", "z"]
    checked = 0
    while checked < 200:
        e = random_expr(rng, names, 4)
        p = random_point(rng, names)
        v = try_eval(e, p)
        if v is None or abs(v) > 1e8:
            continue
        v2 = E.evaluate(E.parse(str(e)), p)
        assert v2 == v, f"str round-trip changed value for {e}"
        checked += 1


# ═══════════════════════════════════════════════════════════════════════════
# 2. evaluation
# ═══════════════════════════════════════════════════════════════════════════

_XI = math.pow(math.pi, 2) / 81

# (source, binding, independently computed reference)
EVAL_CORPUS = [
    ("0", {}, 0.0),
    ("3.5", {}, 3.5),
    (".5", {}, 0.5),
    ("2.", {}, 2.0),
    ("1e3", {}, 1000.0),
    ("2.5e-2", {}, 0.025),
    ("1E2", {}, 100.0),
    ("pi", {}, math.pi),
    ("x", {"x": 1.25}, 1.25),
    ("long_name_1", {"long_name_1": -2.0}, -2.0),
    ("_under", {"_under": 3.0}, 3.0),
    ("1+2", {}, 3.0),
    ("1 - 2", {}, -1.0),
    ("2*3", {}, 6.0),
    ("7/2", {}, 3.5),
    ("2^10", {}, 1024.0),
    ("1+2*3", {}, 7.0),
    ("(1+2)*3", {}, 9.0),
    ("2-3-4", {}, -5.0),
    ("100/10/2", {}, 5.0),
    ("2^3^2", {}, 512.0),
    ("(2^3)^2", {}, 64.0),
    ("-3", {}, -3.0),
    ("-(3)", {}, -3.0),
    ("--3", {}, 3.0),
    ("-2^2", {}, -4.0),
    ("(-2)^2", {}, 4.0),
    ("2*-3", {}, -6.0),
    ("-x + y", {"x": 1.0, "y": 5.0}, 4.0),
    ("x - -y", {"x": 1.0, "y": 2.0}, 3.0),
    ("sin(0)", {}, 0.0),
    ("cos(0)", {}, 1.0),
    ("exp(0)", {}, 1.0),
    ("exp(1)", {}, math.e),
    ("log(1)", {}, 0.0),
    ("sqrt(4)", {}, 2.0),
    ("sqrt(2)", {}, math.sqrt(2.0)),
    ("sin(pi/6)", {}, math.sin(math.pi / 6)),
    ("cos(pi)", {}, -1.0),
    ("sin(x)^2 + cos(x)^2", {"x": 0.777},
     math.pow(math.sin(0.777), 2) + math.pow(math.cos(0.777), 2)),
    ("log(exp(3))", {}, math.log(math.exp(3.0))),
    ("x^2 + sin(t)", {"x": 2.0, "t": 0.0}, 4.0),
    ("(pi^2)/81", {}, math.pow(math.pi, 2) / 81),
    ("exp(log(5))", {}, math.exp(math.log(5.0))),
    ("2^-1", {}, 0.5),
    ("x/y + y/x", {"x": 2.0, "y": 4.0}, 2.5),
    ("(x+y)*(x-y)", {"x": 3.0, "y": 2.0}, 5.0),
    ("x*x*x", {"x": 1.5}, 1.5 * 1.5 * 1.5),
    ("3 * sin(x) * cos(y)", {"x": 1.0, "y": 0.5},
     3 * math.sin(1.0) * math.cos(0.5)),
    ("sqrt(x^2+y^2)", {"x": 3.0, "y": 4.0}, 5.0),
    ("exp(-x^2/2)", {"x": 1.3}, math.exp(-math.pow(1.3, 2) / 2)),
    ("1/(1+exp(-x))", {"x": 0.3}, 1 / (1 + math.exp(-0.3))),
    ("log(x)/log(10)", {"x": 1000.0}, math.log(1000.0) / math.log(10.0)),
    ("a + b*c - d/e_", {"a": 1.0, "b": 2.0, "c": 3.0, "d": 8.0, "e_": 4.0}, 5.0),
    ("sin(cos(exp(x)))", {"x": 0.2}, math.sin(math.cos(math.exp(0.2)))),
    ("x^0.5", {"x": 9.0}, 3.0),
    ("(1+2)^(2+1)", {}, 27.0),
    ("pi*pi", {}, math.pi * math.pi),
    ("0.1+0.2", {}, 0.1 + 0.2),
    ("mu1*y1/xi - y1^2/(2*beta1*xi^2) + lam1*y0 - (beta1/2)*rho^2",
     {"mu1": 0.1, "y1": 0.5, "xi": _XI, "beta1": 20.0, "lam1": 6.0,
      "y0": 0.3, "rho": 0.02},
     0.1 * 0.5 / _XI - math.pow(0.5, 2) / (2 * 20.0 * math.pow(_XI, 2))
     + 6.0 * 0.3 - (20.0 / 2) * math.pow(0.02, 2)),
]


def test_eval_corpus():
    """Every corpus entry evaluates to its independently computed value."""
    assert len(EVAL_CORPUS) >= 50
    for src, binding, want in EVAL_CORPUS:
        got = E.evaluate(E.parse(src), binding)
        assert got == want, f"{src!r}: got {got!r}, want {want!r}"


def test_eval_unbound_variable_is_named():
    with pytest.raises(UnboundVariableError) as info:
        E.evaluate(E.parse("x + y_missing"), {"x": 1.0})
    assert info.value.name == "y_missing"
    assert "y_missing" in str(info.value)


def test_eval_division_by_zero_names_subexpression():
    with pytest.raises(DomainError) as info:
        E.evaluate(E.parse("1 + x/(y-2)"), {"x": 1.0, "y": 2.0})
    assert "x / (y - 2.0)" in str(info.value)


def test_eval_domain_errors():
    for src, binding in [
        ("log(x)", {"x": 0.0}),
        ("log(x)", {"x": -1.0}),
        ("sqrt(x)", {"x": -4.0}),
        ("x^0.5", {"x": -1.0}),
        ("x^-1", {"x": 0.0}),
    ]:
        with pytest.raises(DomainError):
            E.evaluate(E.parse(src), binding)


def test_eval_is_pure():
    """Evaluation never mutates the tree; repeated calls agree exactly."""
    e = E.parse("sin(x)*x^2 - log(x)")
    first = E.evaluate(e, {"x": 1.7})
    for _ in range(3):
        assert E.evaluate(e, {"x": 1.7}) == first


# ═══════════════════════════════════════════════════════════════════════════
# 3. differentiation
# ═══════════════════════════════════════════════════════════════════════════

def test_diff_product_rule_trivial():
    """d/dx (x*y) is y."""
    assert E.differentiate(E.parse("x*y"), "x") == Var("y")


def test_diff_chain_rule_trivial():
    """d/dx sin(x^2) is 2x cos(x^2)."""
    d = E.differentiate(E.parse("sin(x^2)"), "x")
    for p in (0.0, 0.5, -1.2, 2.0, 0.777):
        want = math.cos(math.pow(p, 2)) * (2.0 * p)
        assert abs(E.evaluate(d, {"x": p}) - want) <= 1e-15 * (1 + abs(want))


def test_diff_absent_variable_is_zero():
    assert E.differentiate(E.parse("sin(y) + 3"), "x") == Const(0.0)


def test_diff_power_rule_shape():
    assert E.differentiate(E.parse("x^2"), "x") == Mul(Const(2.0), Var("x"))


def test_diff_log_and_sqrt():
    dlog = E.differentiate(E.parse("log(x)"), "x")
    dsqrt = E.differentiate(E.parse("sqrt(x)"), "x")
    for p in (0.3, 1.0, 4.0):
        assert abs(E.evaluate(dlog, {"x": p}) - 1.0 / p) < 1e-15
        want = 0.5 / math.sqrt(p)
        assert abs(E.evaluate(dsqrt, {"x": p}) - want) <= 1e-15 * (1 + want)


def test_diff_general_power_rules():
    """x^x and 2^x need the log-augmented rules."""
    dxx = E.differentiate(E.parse("x^x"), "x")
    for p in (0.5, 1.5, 2.0):
        want = math.pow(p, p) * (math.log(p) + 1.0)
        assert abs(E.evaluate(dxx, {"x": p}) - want) <= 1e-12 * (1 + abs(want))
    d2x = E.differentiate(E.parse("2^x"), "x")
    for p in (-1.0, 0.0, 2.5):
        want = math.pow(2.0, p) * math.log(2.0)
        assert abs(E.evaluate(d2x, {"x": p}) - want) <= 1e-12 * (1 + abs(want))


def test_diff_matches_finite_differences():
    """1000 random (expression, point) pairs: symbolic vs central diff."""
    rng = random.Random(SEED)
    names = ["x", "y", "t"]
    checked = 0
    attempts = 0
    worst = 0.0
    while checked < N_DERIV_PAIRS:
        attempts += 1
        assert attempts < 40 * N_DERIV_PAIRS, "generator rejecting too much"
        e = random_expr(rng, names, 4)
        var = rng.choice(names)
        deriv = E.differentiate(e, var)
        ok = False
        for _ in range(30):
            p = random_point(rng, names)
            v = try_eval(e, p)
            if v is None or abs(v) > 1e4:
                continue
            fd = central_diff(e, var, p)
            if fd is None or abs(fd) > 1e4:
                continue
            sym = try_eval(deriv, p)
            if sym is None:
                continue
            err = abs(sym - fd)
            bound = 1e-5 * (1.0 + abs(sym))
            assert err <= bound, (
                f"derivative mismatch d/d{var} of {e} at {p}: "
                f"sym={sym!r} fd={fd!r} err={err:.3e}")
            worst = max(worst, err / bound)
            ok = True
            break
        if ok:
            checked += 1
    print(f"\n  derivative vs FD: {checked} pairs, worst err/bound = {worst:.3e}")


def test_diff_mixed_partials_commute():
    """d2/dxdy equals d2/dydx under evaluation."""
    rng = random.Random(SEED + 2)
    names = ["x", "y"]
    checked = 0
    while checked < N_CLAIRAUT:
        e = random_expr(rng, names, 4)
        if not {"x", "y"} <= e.variables():
            continue
        dxy = E.differentiate(E.differentiate(e, "x"), "y")
        dyx = E.differentiate(E.differentiate(e, "y"), "x")
        hits = 0
        for _ in range(20):
            p = random_point(rng, names)
            a = try_eval(dxy, p)
            b = try_eval(dyx, p)
            if a is None or b is None or max(abs(a), abs(b)) > 1e6:
                continue
            assert abs(a - b) <= 1e-9 * (1.0 + max(abs(a), abs(b))), (
                f"mixed partials differ for {e} at {p}: {a!r} vs {b!r}")
            hits += 1
            if hits == 2:
                break
        if hits:
            checked += 1


def oracle_differentiate(e, var):
    """``expr.differentiate`` as it was before it cached the derivative of
    variable-free nodes: every node is differentiated by ``var`` afresh,
    and the whole result is simplified at the end."""
    if not E._NAME_RE.match(var):
        raise ValueError(f"invalid variable name {var!r}")
    memo: dict[int, E.Expr] = {}

    def d(node):
        out = memo.get(id(node))
        if out is None:
            out = node._diff(d, var)
            memo[id(node)] = out
        return out

    return E.simplify(d(e))


def exact(e):
    """The tree as nested tuples, constants by repr: unlike ``==`` this
    tells 0.0 from -0.0."""
    if isinstance(e, Const):
        return repr(e.value)
    if isinstance(e, Var):
        return e.name
    return (type(e).__name__, e._payload(),
            *(exact(k) for k in e.children()))


ORACLE_NAMES = ("x", "y", "t")
ORACLE_ABSENT = "w"
# 0.0, -0.0 and -1.0 leave unfoldable leftovers: c / 0.0, log(-1.0),
# sqrt(-1.0), (-1.0)^0.5, 0.0^-1.0
_oracle_leaf = st.one_of(
    st.sampled_from((0.0, -0.0, -1.0, 1.0, 0.5, 2.0, 3.0)).map(Const),
    st.sampled_from(ORACLE_NAMES).map(Var))
_UNARY_KINDS = (Neg, *E.FUNCTIONS)
_BINARY_KINDS = (Add, Sub, Mul, Div, Pow)


@st.composite
def oracle_dags(draw):
    """A random expression over every node kind and every function, whose
    operands are fresh leaves or earlier nodes, so subtrees are shared."""
    nodes = [draw(_oracle_leaf)]
    for _ in range(draw(st.integers(1, 14))):
        def operand():
            if draw(st.booleans()):
                return draw(_oracle_leaf)
            return nodes[draw(st.integers(0, len(nodes) - 1))]
        kind = draw(st.sampled_from(_UNARY_KINDS + _BINARY_KINDS))
        if kind is Neg:
            node = Neg(operand())
        elif kind in E.FUNCTIONS:
            node = Call(kind, operand())
        else:
            node = kind(operand(), operand())
        nodes.append(node)
    return nodes[-1]


@settings(max_examples=600, deadline=None, derandomize=True, database=None)
@given(oracle_dags())
@example(Call("cos", Var("y")))                  # d/dx is -0.0
@example(Mul(Var("x"), Div(Var("y"), Const(0.0))))
@example(Add(Var("x"), Call("log", Const(-1.0))))
def test_diff_matches_the_uncached_oracle(e):
    """Caching the derivative of variable-free nodes changes no result,
    signed zeros and unfoldable leftovers included."""
    for var in (*sorted(e.variables()), ORACLE_ABSENT):
        want = oracle_differentiate(e, var)
        got = E.differentiate(e, var)
        assert repr(got) == repr(want)
        assert exact(got) == exact(want), (e, var)


# ═══════════════════════════════════════════════════════════════════════════
# 4. simplification
# ═══════════════════════════════════════════════════════════════════════════

def test_simplify_spec_examples():
    assert E.simplify(E.parse("(x*0)+(y*1)")) == Var("y")
    assert E.simplify(E.parse("2+3*4")) == Const(14.0)
    assert E.simplify(E.parse("((x+0)^1)*1")) == Var("x")


def test_simplify_identity_rules():
    x = Var("x")
    cases = [
        ("x+0", x), ("0+x", x), ("x-0", x), ("x*1", x), ("1*x", x),
        ("x*0", Const(0.0)), ("0*x", Const(0.0)), ("x/1", x),
        ("x^1", x), ("x^0", Const(1.0)), ("0/x", Const(0.0)),
        ("x-x", Const(0.0)), ("-(-x)", x), ("0-x", Neg(x)),
    ]
    for src, want in cases:
        got = E.simplify(E.parse(src))
        assert got == want, f"simplify({src!r}) gave {got}"


def test_simplify_preserves_semantics():
    """Random bindings: simplified trees evaluate identically (1e-12 rel)."""
    rng = random.Random(SEED + 3)
    names = ["x", "y", "z", "t"]
    checked = 0
    while checked < N_SIMPLIFY_BINDINGS:
        e = random_expr(rng, names, 4)
        s = E.simplify(e)
        for _ in range(5):
            p = random_point(rng, names)
            v = try_eval(e, p)
            if v is None or abs(v) > 1e8:
                continue
            w = E.evaluate(s, p)
            assert abs(w - v) <= 1e-12 * (1.0 + abs(v)), (
                f"simplify changed value of {e} at {p}: {v!r} -> {w!r}")
            checked += 1


def test_simplify_is_idempotent():
    rng = random.Random(SEED + 4)
    names = ["x", "y"]
    for _ in range(200):
        s = E.simplify(random_expr(rng, names, 4))
        assert E.simplify(s) == s


def test_simplify_never_folds_outside_domain():
    """1/0 and exp(1000) stay symbolic rather than becoming inf/NaN."""
    assert isinstance(E.simplify(E.parse("1/0")), Div)
    assert isinstance(E.simplify(E.parse("exp(1000)")), Call)
    assert isinstance(E.simplify(E.parse("log(0)")), Call)
    assert isinstance(E.simplify(E.parse("(-1)^0.5")), Pow)


def test_simplify_combines_nested_constant_products():
    got = E.simplify(Mul(Const(2.0), Mul(Const(3.0), Var("x"))))
    assert got == Mul(Const(6.0), Var("x"))


DAG_DEPTH = 20


def shared_dag(depth, leaf="x"):
    """e <- (e * 1) + e, `depth` times: 2^depth paths, 3 new nodes a level.
    Differentiation results share subtrees the same way."""
    e = Var(leaf)
    for _ in range(depth):
        e = Add(Mul(e, Const(1.0)), e)
    return e


def tree_copy(node):
    """The same expression with no interior node shared."""
    return node._with_children(tuple(tree_copy(k) for k in node.children()))


def count_calls(monkeypatch, owner, name, cap):
    """Count calls of owner.name; fail fast past `cap` so that a slide
    back to exponential work fails instead of running for hours."""
    calls = [0]
    inner = getattr(owner, name)

    def counting(*args):
        calls[0] += 1
        if calls[0] > cap:
            raise AssertionError(f"{name} called more than {cap} times")
        return inner(*args)

    monkeypatch.setattr(owner, name, counting)
    return calls


def test_simplify_walks_a_shared_dag_once(monkeypatch):
    """Each pass visits a shared subtree once: the rewrite count grows
    with the depth of the DAG, not with its 2^depth paths."""
    calls = count_calls(monkeypatch, E, "_rewrite", cap=100 * DAG_DEPTH)
    got = E.simplify(shared_dag(DAG_DEPTH))
    assert calls[0] <= 4 * DAG_DEPTH
    want = Var("x")
    for _ in range(DAG_DEPTH):
        want = Add(want, want)
    assert got == want


def test_simplify_dag_matches_its_tree_copy():
    dag = shared_dag(10)
    assert E.simplify(dag) == E.simplify(tree_copy(dag))


def test_simplify_returns_a_simplified_tree_untouched(monkeypatch):
    rng = random.Random(SEED + 6)
    done = [E.simplify(shared_dag(DAG_DEPTH))]
    done += [E.simplify(random_expr(rng, ["x", "y"], 4)) for _ in range(50)]
    calls = count_calls(monkeypatch, E, "_rewrite", cap=0)
    for s in done:
        assert E.simplify(s) is s
    assert calls[0] == 0


def test_equality_compares_shared_dags_once(monkeypatch):
    """Two separately built equal DAGs of depth 40 (2^40 paths) compare
    equal after one visit per node pair; a difference at the leaf is
    still found."""
    a, b = shared_dag(40), shared_dag(40)
    assert a is not b
    calls = count_calls(monkeypatch, E.Add, "_payload", cap=10_000)
    assert a == b
    assert calls[0] <= 2 * 40   # one Add and one Mul pair a level
    assert a != shared_dag(40, leaf="y")
    assert shared_dag(40) != Add(Mul(shared_dag(39), Const(2.0)),
                                 shared_dag(39))


# ═══════════════════════════════════════════════════════════════════════════
# 5. compilation
# ═══════════════════════════════════════════════════════════════════════════

def test_compile_matches_evaluate():
    """Bit for bit, and the compiled function raises exactly where the
    tree walker does."""
    rng = random.Random(SEED + 5)
    names = ["x", "y", "t"]
    seen = {"value": 0, "raised": 0}
    for _ in range(5000):
        e = random_expr(rng, names, 5)
        f = E.compile_expr(e, names)
        p = random_point(rng, names)
        try:
            want = E.evaluate(e, p).hex()
        except E.EvalError:
            want = "raised"
        try:
            got = f(p["x"], p["y"], p["t"]).hex()
        except (ArithmeticError, ValueError):
            got = "raised"
        assert got == want, f"compiled {e} at {p}"
        seen["value" if want != "raised" else "raised"] += 1
    assert min(seen.values()) > 500, seen


def test_compile_many_returns_tuple_in_order():
    f = E.compile_exprs([E.parse("x+y"), E.parse("x*y"), E.parse("x-y")],
                        ["x", "y"])
    assert f(3.0, 2.0) == (5.0, 6.0, 1.0)


def test_compile_deduplicates_common_subexpressions():
    f = E.compile_exprs([E.parse("sin(x) + sin(x)*sin(x)")], ["x"])
    assert f._source.count("_sin(x)") == 1


def test_compile_unbound_variable():
    with pytest.raises(UnboundVariableError):
        E.compile_expr(E.parse("x + q"), ["x"])


def test_compile_rejects_bad_parameter_names():
    with pytest.raises(ValueError):
        E.compile_expr(E.parse("x"), ["x", "x"])
    with pytest.raises(ValueError):
        E.compile_expr(E.parse("x"), ["_x"])


def test_compile_domain_errors_are_raw():
    f = E.compile_expr(E.parse("1/x"), ["x"])
    with pytest.raises(ZeroDivisionError):
        f(0.0)


# -- generated functions: single-use temporaries written inline -------------

_NS = {"_sin": math.sin, "_cos": math.cos, "_exp": math.exp,
       "_log": math.log, "_sqrt": math.sqrt, "_pow": math.pow,
       "__builtins__": {}}
_TEMP_NAME = re.compile(r"_t\d+")


@st.composite
def oracle_trees(draw, leaf=_oracle_leaf):
    """A random tree of up to 16 nodes, none shared: every interior node
    is read once, so whole trees are written inline."""
    def tree(size):
        if size <= 1:
            return draw(leaf)
        kind = draw(st.sampled_from(_UNARY_KINDS + _BINARY_KINDS))
        if kind is Neg:
            return Neg(tree(size - 1))
        if kind in E.FUNCTIONS:
            return Call(kind, tree(size - 1))
        left = draw(st.integers(1, size - 2)) if size > 2 else 1
        return kind(tree(left), tree(max(1, size - 1 - left)))

    return tree(draw(st.integers(1, 16)))


# expressions that raise different errors at different points
_RAISING = ("log(x)", "1 / y", "sqrt(t)", "log(y - x)", "x / t",
            "exp(t * 800)")


@st.composite
def emitter_programs(draw):
    """An Emitter holding a function body over x, y, t: expressions with
    and without shared subtrees, and with domain errors, interleaved with
    statements of the caller's own that read the atoms once, twice or
    never, in emission order or not, that can raise, and `if` bodies
    written through `branch()`, whose atoms may leak out of the branch
    (reading one there fails on the path that skipped the branch)."""
    em = Emitter({n: n for n in ORACLE_NAMES})
    count = [0]

    def block(em, pool, depth):
        mine = []                       # caller variables of this scope
        for _ in range(draw(st.integers(1, 6))):
            kind = draw(st.sampled_from(("emit", "emit", "use", "pair",
                                         "raise", "branch")))
            if kind == "emit":
                pool.append(em.emit(draw(st.one_of(oracle_dags(),
                                                   oracle_trees()))))
                continue
            v = f"_v{count[0]}"
            count[0] += 1
            if kind == "use" and pool:
                a, b = draw(st.sampled_from(pool)), draw(st.sampled_from(pool))
                op = draw(st.sampled_from(("+", "*", "/")))
                em.line(f"{v} = {a} {op} {b}")
            elif kind == "pair":
                # two atoms that raise differently, read in emission order
                # or reversed
                pair = draw(st.lists(st.sampled_from(_RAISING), min_size=2,
                                     max_size=2, unique=True))
                a, b = (em.emit(E.parse(text)) for text in pair)
                if draw(st.booleans()):
                    a, b = b, a
                em.line(f"{v} = {a} - {b}")
            elif kind == "branch" and depth < 2:
                # the branch is the if or the else body, and may end on
                # an emitted atom that only code after it reads
                first = draw(st.booleans())
                em.line("if y > 0.0:")
                if not first:
                    em.line(f"    {v} = 0.0")
                    em.line("else:")
                inner = em.branch()
                before = len(em.lines)
                block(inner, pool if draw(st.booleans()) else list(pool),
                      depth + 1)
                if len(em.lines) == before or draw(st.booleans()):
                    inner.line(f"{v} = 1.0")
                if first:
                    em.line("else:")
                    em.line(f"    {v} = 0.0")
            else:
                em.line(f"{v} = 1.0 / y")
            pool.append(v)
            mine.append(v)
        return mine

    pool = []
    mine = block(em, pool, 0)
    returned = mine + draw(st.lists(st.sampled_from(pool), max_size=3)
                           if pool else st.just([]))
    em.line("return [" + ", ".join(returned) + "]")
    return em


_point_value = st.one_of(
    st.sampled_from((0.0, -0.0, 1.0, -1.0, 0.5, 2.0, -2.5)),
    st.floats(-4.0, 4.0, allow_nan=False))


def outcome(fn, point):
    """Bit patterns of the returned floats, or the exception raised."""
    try:
        return [v.hex() for v in fn(*point)]
    except (ArithmeticError, ValueError, NameError) as exc:
        return f"{type(exc).__name__}: {exc}"


def straight_line(em):
    """The emitted lines, one assignment per temporary, as a function."""
    ns = dict(_NS)
    exec("def _f(x, y, t):\n" + "\n".join(em.lines), ns)
    return ns["_f"]


def inlined_by_hand(source, kept):
    """The syntax tree of `source` with each temporary not in `kept`
    substituted at the one place that reads it, its assignment dropped."""
    defs = {}

    class Inline(ast.NodeTransformer):
        def visit_Name(self, node):
            return defs.pop(node.id, node)

        def visit_Assign(self, node):
            self.generic_visit(node)
            (target,) = node.targets
            if isinstance(target, ast.Name) and \
                    _TEMP_NAME.fullmatch(target.id) and target.id not in kept:
                defs[target.id] = node.value
                return None
            return node

    tree = Inline().visit(ast.parse(source))
    assert not defs, defs
    return tree


@settings(max_examples=300, deadline=None, derandomize=True, database=None)
@given(emitter_programs(), st.lists(st.tuples(_point_value, _point_value,
                                              _point_value),
                                    min_size=4, max_size=4))
def test_inlined_function_matches_its_lines(em, points):
    """`Emitter.function` writes single-use temporaries inline.  At every
    point it returns the floats the straight-line lines return, or raises
    the exception they raise first, with the same message; and its syntax
    tree is theirs with exactly the temporaries it no longer assigns
    substituted where they were read."""
    fn = em.function("_f", "x, y, t")
    raw = straight_line(em)
    for point in points:
        assert outcome(fn, point) == outcome(raw, point), point
    kept = set(re.findall(r"^\s*(_t\d+) = ", fn._source, re.M))
    want = inlined_by_hand("def _f(x, y, t):\n" + "\n".join(em.lines), kept)
    assert ast.dump(ast.parse(fn._source)) == ast.dump(want)


def test_inlining_writes_a_shared_subexpression_once():
    em = Emitter({"x": "x"})
    shared = em.emit(E.parse("sin(x) + 1"))
    em.line(f"return [{em.emit(E.parse('exp(x) * 2'))}, {shared}, {shared}]")
    src = em.function("_f", "x")._source
    assert src.splitlines()[1:] == [
        f"    {shared} = _sin(x) + 1.0",
        f"    return [(_exp(x) * 2.0), {shared}, {shared}]"]


def test_a_branch_writes_out_what_still_waits_at_its_end():
    # the else body ends on an emitted atom that only the return after
    # the branch reads: it stays in the body, as in the straight lines
    em = Emitter({"x": "x", "y": "y", "t": "t"})
    em.line("if y > 0.0:")
    em.line("    _v = 0.0")
    em.line("else:")
    inner = em.branch()
    a = inner.emit(E.parse("log(x) + 1"))
    b = em.emit(E.parse("sin(y) * 2"))
    em.line(f"return [{a}, {b}]")
    fn, raw = em.function("_f", "x, y, t"), straight_line(em)
    assert fn._source.splitlines()[3:5] == ["    else:",
                                            f"        {a} = _log(x) + 1.0"]
    for point in [(1.5, -1.0, 0.0), (1.5, 1.0, 0.0)]:
        assert outcome(fn, point) == outcome(raw, point)
    assert outcome(fn, (1.5, 1.0, 0.0)).startswith("UnboundLocalError")


def test_single_use_chain_a_thousand_deep():
    """Every level is read once, so all of them are inlined, in statements
    nested at most _INLINE_DEPTH deep: CPython refuses deeper source."""
    e = Var("x")
    for i in range(1000):
        e = Call("sin", e) if i % 2 else Sub(Var("y"), e)
    limit = sys.getrecursionlimit()
    sys.setrecursionlimit(10_000)   # the emitter and evaluate recurse per level
    try:
        f = E.compile_expr(e, ["x", "y"])
        want = E.evaluate(e, {"x": 0.3, "y": 0.7})
    finally:
        sys.setrecursionlimit(limit)
    assert f(0.3, 0.7).hex() == want.hex()
    assert len(f._source.splitlines()) <= 2 + 1000 // E._INLINE_DEPTH


# ═══════════════════════════════════════════════════════════════════════════
# 6. printing
# ═══════════════════════════════════════════════════════════════════════════

def reference_str(e):
    """The printed layout, written as the plain recursion over the tree."""
    if isinstance(e, (Const, Var)):
        return repr(e.value) if isinstance(e, Const) else e.name
    if isinstance(e, Neg):
        a = reference_str(e.a)
        return f"-{a}" if e.a.prec >= e.prec else f"-({a})"
    if isinstance(e, Call):
        return f"{e.fn}({reference_str(e.arg)})"
    a, b = reference_str(e.a), reference_str(e.b)
    if isinstance(e, Pow):
        left = a if e.a.prec > e.prec else f"({a})"
        right = b if e.b.prec >= e.prec else f"({b})"
        return f"{left}^{right}"
    left = a if e.a.prec >= e.prec else f"({a})"
    right = b if e.b.prec > e.prec else f"({b})"
    return f"{left} {e.op} {right}"


def printed_exprs():
    rng = random.Random(SEED + 6)
    names = ["x", "y", "t"]
    small = [random_expr(rng, names, 3) for _ in range(300)]
    mid = [random_expr(rng, names, 8) for _ in range(60)]
    return small + mid + [shared_dag(8), E.parse("-(-x)^-2 - -3"),
                          Neg(Const(-2.0)), Pow(Const(-2.0), Const(-0.5))]


def test_str_matches_the_recursive_layout():
    for e in printed_exprs():
        assert str(e) == reference_str(e)


def test_clipped_text_matches_clipping_the_full_text():
    exprs = printed_exprs()
    # around the limit: a name of n letters prints as n characters
    exprs += [Var("a" * n) for n in (1, 117, 119, 120, 121, 122, 300)]
    exprs += [Add(Var("a" * n), Var("b")) for n in (114, 116, 117, 118)]
    lengths = {len(str(e)) for e in exprs}
    assert {120, 121}.issubset(lengths) and max(lengths) > 1000
    for e in exprs:
        assert E._clip_expr(e) == E._clip(str(e))
        assert repr(e) == f"{type(e).__name__}({E._clip(str(e))})"
        for limit in (3, 10, 40):
            assert E._clip_expr(e, limit) == E._clip(str(e), limit)


def shared_zero(depth):
    """e <- e + e from x - x, `depth` times: zero, and 2^depth copies of
    x - x in print."""
    e = Sub(Var("x"), Var("x"))
    for _ in range(depth):
        e = Add(e, e)
    return e


def test_domain_error_text_is_clipped_like_the_full_text():
    for depth in (0, 3, 8):
        bad = Call("log", shared_zero(depth))
        with pytest.raises(DomainError) as info:
            E.evaluate(bad, {"x": 1.5})
        assert info.value.subexpr is bad
        assert str(info.value) == \
            f"log of a non-positive value in '{E._clip(str(bad))}'"


def test_clipped_text_of_a_deep_shared_dag_is_cheap():
    """300 levels of sharing: 2^300 copies of x - x in print.  repr and
    a DomainError must render only the clipped prefix.  Run in a child
    limited to 10 s and 1 GB, so that rendering the whole text fails
    there instead of taking the machine's memory."""
    code = textwrap.dedent("""
        import resource, time
        resource.setrlimit(resource.RLIMIT_AS, (1 << 30, 1 << 30))
        from proxysafe import expr as E
        small = E.Call("log", E.Sub(E.Var("x"), E.Var("x")))
        deep = small.arg
        for depth in range(300):
            deep = E.Add(deep, deep)
            if depth == 8:
                small = E.Call("log", deep)
        start = time.perf_counter()
        text = repr(deep)
        try:
            E.evaluate(E.Call("log", deep), {"x": 1.5})
        except E.DomainError as exc:
            message = str(exc)
        took = time.perf_counter() - start
        assert text == "Add(" + E._clip(str(small.arg)) + ")", text
        assert message == "log of a non-positive value in '" + \
            E._clip(str(small)) + "'", message
        print(f"{took:.6f}")
    """)
    done = subprocess.run([sys.executable, "-c", code], capture_output=True,
                          text=True, timeout=10,
                          env=dict(os.environ, PYTHONPATH=SRC))
    assert done.returncode == 0, done.stderr[-2000:]
    assert float(done.stdout) < 0.5


# ═══════════════════════════════════════════════════════════════════════════
# 7. interval enclosure, and properties of simplify and printing
# ═══════════════════════════════════════════════════════════════════════════

# one-variable leaves; 0.1 and 3.0 make sums and products round
_x_leaf = st.one_of(
    st.sampled_from((0.0, -0.0, -1.0, 1.0, 0.5, 2.0, 3.0, 0.1)).map(Const),
    st.just(Var("x")))


@st.composite
def boxes(draw):
    """An interval [lo, hi] of x, often around 0, and points in it: both
    ends, the midpoint and three more."""
    lo = draw(st.one_of(st.sampled_from((-1.0, -0.5, -0.1, 0.0, 0.3)),
                        st.floats(-4.0, 4.0, allow_nan=False)))
    width = draw(st.sampled_from((0.0, 1e-9, 0.01, 0.3, 1.0, 2.5, 7.0)))
    hi = lo + width
    inner = draw(st.lists(st.floats(0.0, 1.0), min_size=3, max_size=3))
    return lo, hi, [lo, hi, 0.5 * lo + 0.5 * hi,
                    *(min(hi, lo + f * width) for f in inner)]


@settings(max_examples=800, deadline=None, derandomize=True, database=None)
@given(oracle_trees(_x_leaf), boxes())
@example(Pow(Var("x"), Const(2.0)), (-1.0, 2.0, [-1.0, 0.0, 2.0]))
@example(Call("sqrt", Var("x")), (-1.0, 1.0, [-1.0, 0.0, 1.0]))
def test_interval_encloses_evaluate(e, box):
    """Wherever evaluate returns a value it lies in the enclosure, and
    wherever it raises DomainError the enclosure is flagged.  A flagged
    enclosure is the whole line, or it is empty and evaluate raises at
    every point."""
    lo, hi, points = box
    low, high, bad = E.interval(e, "x", lo, hi)
    if bad is not None:
        assert (low, high) in ((-math.inf, math.inf), (math.inf, -math.inf))
    for p in points:
        try:
            v = E.evaluate(e, {"x": p})
        except DomainError:
            assert bad is not None, (e, lo, hi, p)
            continue
        assert low <= high, (e, lo, hi, p)     # an empty one has no value
        if bad is None:
            assert low <= v <= high, (e, lo, hi, p, v, low, high)


_RATIONAL_KINDS = (Neg, Pow, Add, Sub, Mul, Div)


@st.composite
def rational_trees(draw):
    """A random tree whose exact value is rational wherever it is
    defined: + - * /, negation and integer powers over x."""
    def tree(size):
        if size <= 1:
            return draw(_x_leaf)
        kind = draw(st.sampled_from(_RATIONAL_KINDS))
        if kind is Neg:
            return Neg(tree(size - 1))
        if kind is Pow:
            n = draw(st.sampled_from((2.0, 3.0, -1.0, -2.0)))
            return Pow(tree(size - 1), Const(n))
        left = draw(st.integers(1, size - 2)) if size > 2 else 1
        return kind(tree(left), tree(max(1, size - 1 - left)))

    return tree(draw(st.integers(1, 14)))


def exact_value(e, x: Fraction) -> Fraction:
    """The value of a rational tree in exact arithmetic; ZeroDivisionError
    where it is undefined."""
    if isinstance(e, Const):
        return Fraction(e.value)
    if isinstance(e, Var):
        return x
    if isinstance(e, Neg):
        return -exact_value(e.a, x)
    a = exact_value(e.a, x)
    if isinstance(e, Pow):
        return a ** int(e.b.value)
    b = exact_value(e.b, x)
    return {Add: a + b, Sub: a - b, Mul: a * b}[type(e)] \
        if not isinstance(e, Div) else a / b


@settings(max_examples=800, deadline=None, derandomize=True, database=None)
@given(rational_trees(), boxes())
@example(Mul(Var("x"), Const(0.1)), (0.3, 0.3, [0.3]))
def test_interval_encloses_the_exact_value(e, box):
    """The bounds hold for the real expression, not only for its float
    evaluation: an enclosure not rounded outward fails here, where the
    float value at an end of the box is the bound itself."""
    lo, hi, points = box
    low, high, bad = E.interval(e, "x", lo, hi)
    if bad is not None:
        return
    for p in points:
        v = exact_value(e, Fraction(p))     # defined: the box is not flagged
        assert Fraction(low) <= v <= Fraction(high), (e, lo, hi, p)


@settings(max_examples=400, deadline=None, derandomize=True, database=None)
@given(oracle_trees(_x_leaf), boxes())
def test_interval_of_a_square_is_nonnegative(e, box):
    """x^2 and a*a (both factors one node) enclose to [0, w^2] over an
    interval around 0, where a product of two independent enclosures of
    a would reach below 0."""
    lo, hi, _ = box
    base_lo, base_hi, _ = E.interval(e, "x", lo, hi)
    for square in (Pow(e, Const(2.0)), Mul(e, e)):
        low, _, bad = E.interval(square, "x", lo, hi)
        if bad is None:
            assert low >= 0.0, (square, lo, hi)
            if base_lo <= 0.0 <= base_hi:
                assert low == 0.0, (square, lo, hi)


def test_interval_examples():
    x = Var("x")
    low, high, bad = E.interval(Pow(x, Const(2.0)), "x", -1.0, 2.0)
    assert bad is None and low == 0.0 and 4.0 < high <= 4.0 + 1e-14
    low, high, bad = E.interval(x * x - x, "x", -1.0, 2.0)
    # x repeats: wider than the range [-0.25, 2], and exact
    assert bad is None and (low, high) == (-2.0, 5.0)
    # 2 - 1 and 1 - 1 are exact: nothing rounds outward
    assert E.interval(x - Const(1.0), "x", 1.0, 2.0) == (0.0, 1.0, None)
    # 3 * 0.1 is not: one step each way
    assert E.interval(x * Const(0.1), "x", 3.0, 3.0)[:2] == (
        math.nextafter(3.0 * 0.1, 0.0), math.nextafter(3.0 * 0.1, 1.0))
    assert E.interval(Call("sin", x), "x", 0.0, 3.0)[1] == 1.0
    assert E.interval(Call("cos", x), "x", 3.0, 4.0)[0] == -1.0
    assert E.interval(Const(1.0) / x, "x", -1.0, 1.0)[2] == Const(1.0) / x
    sqrt = Call("sqrt", x - Const(1.0))
    assert E.interval(sqrt + x, "x", 0.0, 2.0)[2] is not None
    assert E.interval(sqrt + x, "x", 1.0, 2.0)[2] is None
    assert E.interval(Call("exp", x), "x", 0.0, 800.0)[2] is not None
    # undefined on the whole interval: the empty enclosure
    assert E.interval(sqrt + x, "x", -1.0, 0.5) == (math.inf, -math.inf, sqrt)
    log = Call("log", x)
    assert E.interval(log * x, "x", -2.0, 0.0) == (math.inf, -math.inf, log)
    assert E.interval(log, "x", -2.0, 1e-300)[:2] == (-math.inf, math.inf)
    root = Pow(x, Const(0.5))
    assert E.interval(root, "x", -2.0, -1.0) == (math.inf, -math.inf, root)
    assert E.interval(Pow(x, Const(3.0)), "x", -2.0, -1.0)[2] is None
    assert E.interval(Pow(Const(-2.0), x), "x", 1.0, 3.0)[:2] == (
        -math.inf, math.inf)     # x = 2 is defined there
    with pytest.raises(UnboundVariableError):
        E.interval(Var("y"), "x", 0.0, 1.0)
    with pytest.raises(ValueError):
        E.interval(x, "x", 0.0, math.inf)
    with pytest.raises(ValueError):
        E.interval(x, "x", 1.0, 0.0)


def test_prove_bisects_depth_first_lower_half_first(monkeypatch):
    seen = []

    def rule(lo, hi, mid):
        seen.append((lo, hi))
        return hi <= 0.25 or lo >= 0.5     # [0.25, 0.5] is never decided

    proof = E.prove(rule, 0.0, 1.0)
    assert seen[:4] == [(0.0, 1.0), (0.0, 0.5), (0.0, 0.25), (0.25, 0.5)]
    assert proof.verdict == "inconclusive-pass"
    assert proof.cells == E.CELL_BUDGET and proof.witness is None
    # the budget ran out within [0.25, 0.5], before [0.5, 1] was taken:
    # the undecided cells tile [0.25, 1]
    cells = sorted(proof.undecided)
    assert cells[0][0] == 0.25 and cells[-1][1] == 1.0
    assert all(a[1] == b[0] for a, b in zip(cells, cells[1:]))
    assert proof.width == 0.75
    # a witness ends the proof where it is found
    proof = E.prove(lambda lo, hi, mid: mid if hi - lo < 0.3 else False,
                    0.0, 1.0)
    assert proof[:4] == ("falsified", 3, 2, 0.125)
    # a cell that cannot be halved is undecided; a point has width 0
    assert E.prove(lambda *cell: False, 1.0, math.nextafter(1.0, 2.0))[:3] \
        == ("inconclusive-pass", 1, 0)
    assert E.prove(lambda *cell: False, 1.0, 1.0)[:3] == ("pass", 1, 0)
    monkeypatch.setattr(E, "CELL_BUDGET", 1)
    assert E.prove(lambda *cell: False, 0.0, 1.0).undecided == [
        (0.5, 1.0), (0.0, 0.5)]


def value_or_error(e, binding):
    try:
        return E.evaluate(e, binding).hex()
    except DomainError:
        return "DomainError"


_oracle_point = st.tuples(_point_value, _point_value, _point_value)


@settings(max_examples=600, deadline=None, derandomize=True, database=None)
@given(oracle_trees(), _oracle_point)
def test_simplify_preserves_values_property(e, point):
    """Where the tree evaluates to a finite value the simplified tree
    evaluates too, to the same value up to the rounding of constants
    folded together."""
    binding = dict(zip(ORACLE_NAMES, point))
    try:
        v = E.evaluate(e, binding)
    except DomainError:
        return
    if not math.isfinite(v):
        return
    w = E.evaluate(E.simplify(e), binding)
    assert abs(w - v) <= 1e-12 * (1.0 + abs(v)), (e, binding, v, w)


@settings(max_examples=600, deadline=None, derandomize=True, database=None)
@given(oracle_trees())
def test_one_simplify_call_reaches_normal_form(e):
    """One call leaves the root marked as in normal form, so a second
    call returns the very same tree."""
    once = E.simplify(e)
    assert once._simple
    assert E.simplify(once) is once


@settings(max_examples=600, deadline=None, derandomize=True, database=None)
@given(oracle_trees(), _oracle_point)
def test_str_parse_round_trip_property(e, point):
    """Printing and parsing back keeps the text and the value, bit for
    bit, or the failure."""
    back = E.parse(str(e))
    assert str(back) == str(e)
    binding = dict(zip(ORACLE_NAMES, point))
    assert value_or_error(back, binding) == value_or_error(e, binding), e
