"""Symbolic scalar expressions: parse, differentiate, simplify, evaluate, compile.

This is the small expression language in which every dynamics function,
barrier, and control law of the toolkit is written.  Surface syntax:

    literals     1   2.5   .5   1e-3   pi
    variables    [A-Za-z_][A-Za-z0-9_]*
    operators    + - * / ^          (^ is right-associative)
    functions    sin cos exp log sqrt
    grouping     ( ... )

Unary minus binds tighter than binary + and - but looser than ^, so
"-x^2" reads as -(x^2) while "-x*y" reads as (-x)*y.  The name "pi" is a
built-in constant, not a variable.

Expression trees are immutable; all operations return new trees and it is
safe to share subtrees freely.  Differentiation, evaluation, simplification
and compilation memoize on node identity, so each visits a shared subtree
once, and structural equality compares a pair of nodes once; only ``str``
writes a shared subtree out once per occurrence.  Differentiation is exact
and symbolic, and walks only the nodes that mention the variable: each
node keeps its derivative by the variables it does not mention.
Simplification applies a fixed rewrite list to a fixpoint in one
bottom-up pass and marks the nodes it leaves in normal form; it is
deliberately not a canonicalizer.
``interval`` encloses an expression of one variable over an interval of
it, with each bound rounded outward unless its operation was exact, so
a bound it proves holds for the real expression, not only for its
floating-point evaluation; ``prove`` bisects an interval with it.
For inner loops, ``compile_exprs`` turns a batch of trees into one
generated Python function with common subexpressions evaluated once:
a shared subexpression is bound to a local once, and one read only once
is written inline where it is read.  ``Emitter``, the code generator
behind it, also writes larger generated functions that mix expressions
with statements of their own.
"""

from __future__ import annotations

import math
import operator
import re
from collections import Counter
from itertools import chain
from typing import Callable, Mapping, NamedTuple, Sequence

__all__ = [
    "Expr", "Const", "Var", "Neg", "Add", "Sub", "Mul", "Div", "Pow", "Call",
    "ExprError", "ParseError", "EvalError", "UnboundVariableError", "DomainError",
    "FUNCTIONS", "parse", "differentiate", "simplify", "evaluate",
    "interval", "CELL_BUDGET", "Proof", "prove", "compile_expr",
    "compile_exprs", "Emitter",
]

FUNCTIONS = ("sin", "cos", "exp", "log", "sqrt")

_FUNC_IMPL = {
    "sin": math.sin,
    "cos": math.cos,
    "exp": math.exp,
    "log": math.log,
    "sqrt": math.sqrt,
}

_NAME_RE = re.compile(r"[A-Za-z_][A-Za-z0-9_]*\Z")


def _clip(text: str, limit: int = 120) -> str:
    return text if len(text) <= limit else text[: limit - 3] + "..."


def _clip_expr(e: "Expr", limit: int = 120) -> str:
    """_clip(str(e), limit), rendering no more than limit + 1 characters
    of str(e): a shared subtree prints once per occurrence, so the whole
    text can be far larger than the expression."""
    out, size = [], 0
    stack = [e]
    while stack and size <= limit:
        item = stack.pop()
        if type(item) is str:
            out.append(item)
            size += len(item)
        else:
            stack.extend(reversed(item._parts()))
    return _clip("".join(out), limit)


# ---------------------------------------------------------------------------
# errors
# ---------------------------------------------------------------------------

class ExprError(Exception):
    """Base class for all expression-layer failures."""


class ParseError(ExprError):
    """Malformed source text.  Carries the character offset and, when the
    parser knows what it was looking for, the set of expected tokens."""

    def __init__(self, message: str, offset: int, expected: Sequence[str] = ()):
        self.offset = offset
        self.expected = tuple(expected)
        detail = f"{message} at offset {offset}"
        if self.expected:
            detail += " (expected " + " or ".join(self.expected) + ")"
        super().__init__(detail)


class EvalError(ExprError):
    """Base class for evaluation failures."""


class UnboundVariableError(EvalError):
    def __init__(self, name: str):
        self.name = name
        super().__init__(f"unbound variable '{name}'")


class DomainError(EvalError):
    """An operation was applied outside its real domain.  The offending
    sub-expression is kept on the exception for diagnostics."""

    def __init__(self, message: str, subexpr: "Expr"):
        self.subexpr = subexpr
        super().__init__(f"{message} in '{_clip_expr(subexpr)}'")


# ---------------------------------------------------------------------------
# node classes
# ---------------------------------------------------------------------------

class Expr:
    """Immutable symbolic expression over named real variables.

    Nodes overload the arithmetic operators so trees compose naturally,
    e.g. ``Var("x") * 2 + Call("sin", Var("t"))``; plain numbers are
    coerced to constants.  Equality and hashing are structural.  Whether
    two expressions mean the same thing should always be settled by
    evaluation, never by comparing shapes.
    """

    # _vars, _simple and _dzero are caches, outside hash and eq: the free
    # variables, whether simplify leaves this node unchanged, and the
    # simplified derivative by any variable the node does not mention
    __slots__ = ("_hash", "_vars", "_simple", "_dzero")

    prec = 100  # printing precedence; overridden per node kind

    def children(self) -> tuple:
        return ()

    def _payload(self):
        return None

    def _with_children(self, kids: tuple) -> "Expr":
        return self

    def variables(self) -> frozenset:
        """Free variables of this expression (cached)."""
        v = self._vars
        if v is None:
            v = frozenset().union(*[k.variables() for k in self.children()])
            self._vars = v
        return v

    # -- structural identity ------------------------------------------------

    def __hash__(self):
        return self._hash

    def __eq__(self, other):
        if self is other:
            return True
        if not isinstance(other, Expr):
            return NotImplemented
        # pairs already compared are skipped, so shared subtrees on both
        # sides are compared once, not once per path
        stack = [(self, other)]
        seen = set()
        while stack:
            p, q = stack.pop()
            if p is q:
                continue
            pair = (id(p), id(q))
            if pair in seen:
                continue
            seen.add(pair)
            if type(p) is not type(q) or p._hash != q._hash:
                return False
            if p._payload() != q._payload():
                return False
            stack.extend(zip(p.children(), q.children()))
        return True

    # -- operator sugar: + - * / ** and reflections come from `_operators` --

    def __neg__(self):
        return Neg(self)

    def _parts(self) -> tuple:
        """The printed layout: literal text and child nodes, in order."""
        raise NotImplementedError

    def __str__(self):
        """The text of each distinct node is built once, from the texts of
        its children, without recursion."""
        done: dict = {}
        stack = [self]
        while stack:
            node = stack[-1]
            if id(node) in done:
                stack.pop()
                continue
            parts = node._parts()
            todo = [p for p in parts if type(p) is not str and id(p) not in done]
            if todo:
                stack.extend(todo)
                continue
            stack.pop()
            done[id(node)] = "".join(p if type(p) is str else done[id(p)]
                                     for p in parts)
        return done[id(self)]

    def __repr__(self):
        return f"{type(self).__name__}({_clip_expr(self)})"


def _coerce_opt(value):
    if isinstance(value, Expr):
        return value
    if isinstance(value, (int, float)) and not isinstance(value, bool):
        return Const(value)
    return None


def _coerce(value) -> Expr:
    e = _coerce_opt(value)
    if e is None:
        raise TypeError(f"cannot interpret {value!r} as an expression")
    return e


class Const(Expr):
    __slots__ = ("value",)

    def __init__(self, value: float):
        value = float(value)
        if not math.isfinite(value):
            raise ValueError(f"constant must be a finite real, got {value!r}")
        self.value = value
        self._hash = hash(("const", value))
        self._vars = frozenset()
        self._simple = True
        self._dzero = None

    @property
    def prec(self):
        # negative literals, -0.0 too, print like a unary minus application
        return 100 if math.copysign(1.0, self.value) > 0 else 25

    def _payload(self):
        return self.value

    def _diff(self, d, var):
        return _ZERO

    def _eval(self, ev, binding):
        return self.value

    def _enclose(self, iv, box):
        return self.value, self.value

    def _parts(self):
        return (repr(self.value),)


class Var(Expr):
    __slots__ = ("name",)

    def __init__(self, name: str):
        if not _NAME_RE.match(name):
            raise ValueError(f"invalid variable name {name!r}")
        self.name = name
        self._hash = hash(("var", name))
        self._vars = frozenset((name,))
        self._simple = True
        self._dzero = None

    def _payload(self):
        return self.name

    def _diff(self, d, var):
        return _ONE if self.name == var else _ZERO

    def _eval(self, ev, binding):
        try:
            return float(binding[self.name])
        except KeyError:
            raise UnboundVariableError(self.name) from None

    def _enclose(self, iv, box):
        try:
            return box[self.name]
        except KeyError:
            raise UnboundVariableError(self.name) from None

    def _parts(self):
        return (self.name,)


class Neg(Expr):
    __slots__ = ("a",)

    prec = 25

    def __init__(self, a):
        self.a = a if isinstance(a, Expr) else _coerce(a)
        self._hash = hash(("neg", self.a._hash))
        self._vars = None
        self._simple = False
        self._dzero = None

    def children(self):
        return (self.a,)

    def _with_children(self, kids):
        return Neg(kids[0])

    def _diff(self, d, var):
        return Neg(d(self.a))

    def _eval(self, ev, binding):
        return -ev(self.a)

    def _enclose(self, iv, box):
        lo, hi = iv(self.a)
        return -hi, -lo

    def _parts(self):
        a = self.a
        return ("-", a) if a.prec >= self.prec else ("-(", a, ")")


class _Binary(Expr):
    __slots__ = ("a", "b")

    op = "?"
    _domain_msg = "arithmetic error"

    def __init__(self, a, b):
        self.a = a if isinstance(a, Expr) else _coerce(a)
        self.b = b if isinstance(b, Expr) else _coerce(b)
        self._hash = hash((self.op, self.a._hash, self.b._hash))
        self._vars = None
        self._simple = False
        self._dzero = None

    def children(self):
        return (self.a, self.b)

    def _with_children(self, kids):
        return type(self)(kids[0], kids[1])

    def _eval(self, ev, binding):
        x = ev(self.a)
        y = ev(self.b)
        try:
            return self._apply(x, y)
        except (ArithmeticError, ValueError):
            raise DomainError(self._domain_msg, self) from None

    def _parts(self):
        # left-associative layout; the right operand needs parens unless
        # it binds strictly tighter
        a, b = self.a, self.b
        left = (a,) if a.prec >= self.prec else ("(", a, ")")
        right = (b,) if b.prec > self.prec else ("(", b, ")")
        return (*left, f" {self.op} ", *right)


class Add(_Binary):
    __slots__ = ()
    op = "+"
    prec = 10
    _apply = staticmethod(operator.add)

    @staticmethod
    def _ratio(a, b, c, d):
        return a * d + c * b, b * d

    def _diff(self, d, var):
        return Add(d(self.a), d(self.b))

    def _enclose(self, iv, box):
        (a, b), (c, d) = iv(self.a), iv(self.b)
        return _hull(Add, ((a, c), (b, d)))


class Sub(_Binary):
    __slots__ = ()
    op = "-"
    prec = 10
    _apply = staticmethod(operator.sub)

    @staticmethod
    def _ratio(a, b, c, d):
        return a * d - c * b, b * d

    def _diff(self, d, var):
        return Sub(d(self.a), d(self.b))

    def _enclose(self, iv, box):
        (a, b), (c, d) = iv(self.a), iv(self.b)
        return _hull(Sub, ((a, d), (b, c)))


class Mul(_Binary):
    __slots__ = ()
    op = "*"
    prec = 20
    _apply = staticmethod(operator.mul)

    @staticmethod
    def _ratio(a, b, c, d):
        return a * c, b * d

    def _diff(self, d, var):
        return Add(Mul(d(self.a), self.b), Mul(self.a, d(self.b)))

    def _enclose(self, iv, box):
        if self.a is self.b:
            lo, hi = iv(self.a)
            low, high = _hull(Mul, ((lo, lo), (hi, hi)))
            return (0.0 if lo <= 0.0 <= hi else max(0.0, low)), high
        (a, b), (c, d) = iv(self.a), iv(self.b)
        return _hull(Mul, ((a, c), (a, d), (b, c), (b, d)))


class Div(_Binary):
    __slots__ = ()
    op = "/"
    prec = 20
    _domain_msg = "division by zero"
    _apply = staticmethod(operator.truediv)

    @staticmethod
    def _ratio(a, b, c, d):
        return a * d, b * c

    def _diff(self, d, var):
        num = Sub(Mul(d(self.a), self.b), Mul(self.a, d(self.b)))
        return Div(num, Mul(self.b, self.b))

    def _enclose(self, iv, box):
        (a, b), (c, d) = iv(self.a), iv(self.b)
        if c <= 0.0 <= d:
            return None
        return _hull(Div, ((a, c), (a, d), (b, c), (b, d)))


class Pow(_Binary):
    __slots__ = ()
    op = "^"
    prec = 30
    _domain_msg = ("invalid power (negative base with fractional exponent, "
                   "zero with negative exponent, or overflow)")
    _apply = staticmethod(math.pow)

    def _diff(self, d, var):
        base, expo = self.a, self.b
        if var not in expo.variables():
            if var not in base.variables():
                return _ZERO
            # plain power rule; valid wherever the power itself is smooth
            return Mul(Mul(expo, Pow(base, Sub(expo, _ONE))), d(base))
        if var not in base.variables():
            return Mul(Mul(self, Call("log", base)), d(expo))
        return Mul(self, Add(Mul(d(expo), Call("log", base)),
                             Div(Mul(expo, d(base)), base)))

    def _enclose(self, iv, box):
        (lo, hi), (c, d) = iv(self.a), iv(self.b)
        try:
            if c == d and c == int(c):
                # an integer power: |x|^c for even c, monotone on each
                # side of 0 otherwise
                if c < 0.0 and lo <= 0.0 <= hi:
                    return None
                ends = (math.pow(lo, c), math.pow(hi, c))
                if c % 2.0 == 0.0:
                    return _even_power(lo, hi, *ends)
                return _down(_down(min(ends))), _up(_up(max(ends)))
            if hi < 0.0 and math.floor(d) < math.ceil(c):
                return _NOWHERE     # a negative base, no integer exponent
            if lo < 0.0 or lo == 0.0 and c <= 0.0:
                return None
            # monotone in the base and in the exponent: the corners bound it
            p = (math.pow(lo, c), math.pow(lo, d), math.pow(hi, c),
                 math.pow(hi, d))
        except (ArithmeticError, ValueError):
            return None
        return max(0.0, _down(_down(min(p)))), _up(_up(max(p)))

    def _parts(self):
        # right-associative: x^y^z prints without parens on the right
        a, b = self.a, self.b
        left = (a,) if a.prec > self.prec else ("(", a, ")")
        right = (b,) if b.prec >= self.prec else ("(", b, ")")
        return (*left, "^", *right)


class Call(Expr):
    __slots__ = ("fn", "arg")

    def __init__(self, fn: str, arg):
        if fn not in _FUNC_IMPL:
            raise ValueError(f"unknown function {fn!r}; supported: {', '.join(FUNCTIONS)}")
        self.fn = fn
        self.arg = arg if isinstance(arg, Expr) else _coerce(arg)
        self._hash = hash(("call", fn, self.arg._hash))
        self._vars = None
        self._simple = False
        self._dzero = None

    def children(self):
        return (self.arg,)

    def _payload(self):
        return self.fn

    def _with_children(self, kids):
        return Call(self.fn, kids[0])

    def _diff(self, d, var):
        u = self.arg
        du = d(u)
        if self.fn == "sin":
            return Mul(Call("cos", u), du)
        if self.fn == "cos":
            return Neg(Mul(Call("sin", u), du))
        if self.fn == "exp":
            return Mul(self, du)
        if self.fn == "log":
            return Div(du, u)
        # sqrt
        return Div(du, Mul(Const(2.0), self))

    def _eval(self, ev, binding):
        v = ev(self.arg)
        if self.fn == "log" and v <= 0.0:
            raise DomainError("log of a non-positive value", self)
        if self.fn == "sqrt" and v < 0.0:
            raise DomainError("sqrt of a negative value", self)
        try:
            return _FUNC_IMPL[self.fn](v)
        except (ArithmeticError, ValueError):
            raise DomainError(f"domain error in {self.fn}", self) from None

    def _enclose(self, iv, box):
        lo, hi = iv(self.arg)
        fn = self.fn
        if fn == "sin":
            return _trig(math.sin, lo, hi, 0.5 * math.pi)
        if fn == "cos":
            return _trig(math.cos, lo, hi, 0.0)
        if fn == "sqrt" and hi < 0.0 or fn == "log" and hi <= 0.0:
            return _NOWHERE     # no point of the box in the domain
        # exp, log and sqrt increase; an end outside the domain raises
        try:
            low, high = _FUNC_IMPL[fn](lo), _FUNC_IMPL[fn](hi)
        except (ArithmeticError, ValueError):
            return None
        low = _down(_down(low))
        return (low if fn == "log" else max(0.0, low)), _up(_up(high))

    def _parts(self):
        return (f"{self.fn}(", self.arg, ")")


_ZERO = Const(0.0)
_ONE = Const(1.0)


def _operators(name: str, kind) -> None:
    """Give Expr the operator ``__name__`` that builds a ``kind`` node, and
    its reflection; a plain number is coerced to a constant, anything
    else is NotImplemented."""
    def op(self, other):
        other = _coerce_opt(other)
        return NotImplemented if other is None else kind(self, other)

    def rop(self, other):
        other = _coerce_opt(other)
        return NotImplemented if other is None else kind(other, self)
    setattr(Expr, f"__{name}__", op)
    setattr(Expr, f"__r{name}__", rop)


for _name, _kind in (("add", Add), ("sub", Sub), ("mul", Mul),
                     ("truediv", Div), ("pow", Pow)):
    _operators(_name, _kind)


# ---------------------------------------------------------------------------
# parsing
# ---------------------------------------------------------------------------

_NUM_RE = re.compile(r"(?:\d+\.?\d*|\.\d+)(?:[eE][+-]?\d+)?")
_IDENT_RE = re.compile(r"[A-Za-z_][A-Za-z0-9_]*")

_BIN_PREC = {"+": 10, "-": 10, "*": 20, "/": 20, "^": 30}
_UNARY_BP = 25  # tighter than + - * /, looser than ^
_BIN_NODE = {"+": Add, "-": Sub, "*": Mul, "/": Div, "^": Pow}


def _tokenize(source: str):
    i, n = 0, len(source)
    while i < n:
        ch = source[i]
        if ch.isspace():
            i += 1
            continue
        m = _NUM_RE.match(source, i)
        if m:
            yield ("num", m.group(), i)
            i = m.end()
            continue
        m = _IDENT_RE.match(source, i)
        if m:
            yield ("name", m.group(), i)
            i = m.end()
            continue
        if ch in "+-*/^()":
            yield (ch, ch, i)
            i += 1
            continue
        raise ParseError(f"unexpected character {ch!r}", i,
                         expected=("number", "identifier", "operator", "'('"))
    yield ("end", "", n)


def _describe(tok) -> str:
    return "end of input" if tok[0] == "end" else f"'{tok[1]}'"


class _Parser:
    """Pratt parser over the token stream."""

    def __init__(self, source: str):
        self._tokens = list(_tokenize(source))
        self._pos = 0

    def _peek(self):
        return self._tokens[self._pos]

    def _next(self):
        tok = self._tokens[self._pos]
        self._pos += 1
        return tok

    def _expect(self, kind: str):
        tok = self._next()
        if tok[0] != kind:
            raise ParseError(f"unexpected {_describe(tok)}", tok[2],
                             expected=(f"'{kind}'",))

    def parse_expr(self, min_bp: int) -> Expr:
        left = self._parse_prefix()
        while True:
            kind = self._peek()[0]
            bp = _BIN_PREC.get(kind, -1)
            if bp <= min_bp:
                return left
            self._next()
            # right-associative ^ re-enters at bp - 1 so a following ^ binds
            right = self.parse_expr(bp - 1 if kind == "^" else bp)
            left = _BIN_NODE[kind](left, right)

    def _parse_prefix(self) -> Expr:
        kind, text, off = self._next()
        if kind == "num":
            if math.isinf(float(text)):
                raise ParseError("number out of range", off)
            return Const(float(text))
        if kind == "name":
            if self._peek()[0] == "(":
                if text not in _FUNC_IMPL:
                    raise ParseError(f"unknown function '{text}'", off,
                                     expected=FUNCTIONS)
                self._next()
                arg = self.parse_expr(0)
                self._expect(")")
                return Call(text, arg)
            if text == "pi":
                return Const(math.pi)
            return Var(text)
        if kind == "(":
            inner = self.parse_expr(0)
            self._expect(")")
            return inner
        if kind == "-":
            return Neg(self.parse_expr(_UNARY_BP))
        raise ParseError(f"unexpected {_describe((kind, text, off))}", off,
                         expected=("number", "identifier", "'('", "'-'"))


def parse(source: str) -> Expr:
    """Parse infix source text into an expression tree."""
    p = _Parser(source)
    e = p.parse_expr(0)
    tok = p._peek()
    if tok[0] != "end":
        raise ParseError(f"unexpected {_describe(tok)}", tok[2],
                         expected=("operator", "end of input"))
    return e


# ---------------------------------------------------------------------------
# differentiation and evaluation
# ---------------------------------------------------------------------------

def differentiate(e: Expr, var: str) -> Expr:
    """Exact symbolic partial derivative of ``e`` with respect to ``var``.

    Differentiating by a variable the expression never mentions yields
    zero: the constant 0.0, or -0.0, or an unfoldable leftover such as
    ``0.0 / 0.0``, exactly as the node rules and simplification produce
    it.  The result is simplified.

    The cost is proportional to the nodes that mention ``var``.  Every
    other node's derivative is the same for all the variables it does not
    mention; it is built and simplified once per node, then kept on it.
    """
    if not _NAME_RE.match(var):
        raise ValueError(f"invalid variable name {var!r}")
    memo: dict[int, Expr] = {}

    def d(node: Expr) -> Expr:
        if var not in node.variables():
            return _dzero(node)
        out = memo.get(id(node))
        if out is None:
            out = node._diff(d, var)
            memo[id(node)] = out
        return out

    return simplify(d(e))


def _dzero(node: Expr) -> Expr:
    """The simplified derivative of ``node`` by a variable it does not
    mention, cached on the node.  No node mentions the empty name."""
    out = node._dzero
    if out is None:
        out = node._dzero = simplify(node._diff(_dzero, ""))
    return out


def evaluate(e: Expr, binding: Mapping[str, float]) -> float:
    """Evaluate ``e`` with every free variable bound, in IEEE doubles.

    Additions and products may overflow to infinity silently, matching
    hardware semantics; divisions, powers, and the library functions raise
    DomainError outside their real domain, and unbound variables raise
    UnboundVariableError naming the variable.
    """
    memo: dict[int, float] = {}

    def ev(node: Expr) -> float:
        out = memo.get(id(node))
        if out is None:
            out = node._eval(ev, binding)
            memo[id(node)] = out
        return out

    return ev(e)


# ---------------------------------------------------------------------------
# interval enclosure
# ---------------------------------------------------------------------------

def _down(v: float) -> float:
    return math.nextafter(v, -math.inf)


def _up(v: float) -> float:
    return math.nextafter(v, math.inf)


def _hull(kind, pairs) -> tuple:
    """The least and the greatest of ``kind._apply(x, y)`` over the (x, y)
    pairs, each rounded outward one step unless every pair that gives
    that float gives it exactly: ``kind._ratio`` is the operation on the
    numerators and denominators of x and y, exact in integers."""
    values = [kind._apply(x, y) for x, y in pairs]
    low, high = min(values), max(values)

    def exact(v):
        if not math.isfinite(v):
            return False
        p, q = v.as_integer_ratio()
        for (x, y), w in zip(pairs, values):
            if w == v:
                n, d = kind._ratio(*x.as_integer_ratio(),
                                   *y.as_integer_ratio())
                if n * q != p * d:
                    return False
        return True

    return (low if exact(low) else _down(low)), \
        (high if exact(high) else _up(high))


def _even_power(lo: float, hi: float, at_lo: float, at_hi: float) -> tuple:
    """Enclosure of an even power of [lo, hi] from its values at the ends,
    each within one ulp: 0 is its least value when lo <= 0 <= hi."""
    low = 0.0 if lo <= 0.0 <= hi else _down(_down(min(at_lo, at_hi)))
    return max(0.0, low), _up(_up(max(at_lo, at_hi)))


def _trig(fn, lo: float, hi: float, peak: float) -> tuple:
    """sin or cos over [lo, hi]: ``fn`` is 1 at peak + 2k pi, -1 at
    peak + (2k+1) pi, and monotone between.  An extremum near an end
    counts as inside, so rounding in locating it only widens the result."""
    if hi - lo >= 2.0 * math.pi or max(-lo, hi) > 1e6:
        return -1.0, 1.0
    ends = (fn(lo), fn(hi))
    low = max(-1.0, _down(_down(min(ends))))
    high = min(1.0, _up(_up(max(ends))))
    first = math.ceil((lo - peak) / math.pi - 1e-9)
    last = math.floor((hi - peak) / math.pi + 1e-9)
    for k in range(first, last + 1):
        if k % 2:
            low = -1.0
        else:
            high = 1.0
    return low, high


# what `_enclose` returns where its node is undefined on the whole box
_NOWHERE = (math.inf, -math.inf)


class _Flagged(Exception):
    def __init__(self, node: Expr, bounds: tuple):
        self.node, self.bounds = node, bounds


def interval(e: Expr, var: str, lo: float, hi: float) -> tuple:
    """Enclose ``e`` for ``var`` anywhere in [lo, hi]: (low, high, bad).

    The value of the real expression at each point of the interval, and
    the value ``evaluate`` gives there, lie in [low, high].  Each bound
    is rounded outward with ``math.nextafter``: one step after ``+ - *
    /`` unless integer arithmetic shows the float result is exact, two
    after a power or a library function (which is within one ulp).  So
    a bound an exact operation reaches, such as 0 at the domain edge of
    ``sqrt(x - 1)`` at x = 1, stays where it is.  A square, ``x^2`` or
    ``a*a`` with both factors one node, encloses to [0, w^2] over an
    interval around 0; any other node is enclosed from its children's
    enclosures alone, so an expression that repeats its variable may
    enclose wider than its range.

    ``bad`` is None, or the first subexpression whose enclosure may
    leave its real domain or the finite range: a division by an
    interval holding 0, log of one reaching 0, sqrt of one reaching
    below 0, a power that may raise or overflow, a bound that is not
    finite.  Then low and high are -inf and inf, or inf and -inf, the
    empty enclosure, where ``bad`` leaves its domain on the whole
    interval: sqrt of an enclosure below 0, log of one at or below 0,
    a negative base to an exponent enclosure holding no integer.  Then
    ``e`` is undefined there too, since ``evaluate`` evaluates every
    subexpression.  Wherever ``evaluate`` raises DomainError at a point
    of the interval the enclosure is flagged; it may also be flagged
    where no point fails.  Nothing is raised for a domain; another
    variable raises UnboundVariableError.
    """
    lo, hi = float(lo), float(hi)
    if not (math.isfinite(lo) and math.isfinite(hi) and lo <= hi):
        raise ValueError(f"interval needs finite bounds lo <= hi, "
                         f"got [{lo!r}, {hi!r}]")
    box = {var: (lo, hi)}
    memo: dict[int, tuple] = {}
    finite = math.isfinite

    def iv(node: Expr) -> tuple:
        out = memo.get(id(node))
        if out is None:
            out = node._enclose(iv, box)
            if out is None or not (finite(out[0]) and finite(out[1])):
                raise _Flagged(node, _NOWHERE if out is _NOWHERE
                               else (-math.inf, math.inf))
            memo[id(node)] = out
        return out

    try:
        low, high = iv(e)
    except _Flagged as flag:
        return (*flag.bounds, flag.node)
    return low, high, None


CELL_BUDGET = 4000      # cells one `prove` call may visit


class Proof(NamedTuple):
    """`prove`'s verdict, cells visited, deepest level, the rule's
    witness, and the (lo, hi) cells left undecided with their width."""
    verdict: str            # pass | falsified | inconclusive-pass
    cells: int
    depth: int
    witness: object = None
    undecided: list | tuple = ()
    width: float = 0.0


def prove(rule: Callable, lo: float, hi: float) -> Proof:
    """Decide a claim over [lo, hi] by bisection (Moore, Kearfott & Cloud,
    *Introduction to Interval Analysis*, SIAM 2009).  ``rule(lo, hi,
    mid)`` judges a cell, typically from ``interval`` enclosures: True
    discharges it, False halves it at ``mid``, and any other value is a
    witness that falsifies the claim.  Cells go depth first, lower half
    first, until CELL_BUDGET were visited; one too narrow to halve and
    those left then are undecided."""
    cells = [(float(lo), float(hi), 0)]
    visited = depth = 0
    undecided = []
    while cells and visited < CELL_BUDGET:
        lo, hi, level = cells.pop()
        visited += 1
        depth = max(depth, level)
        mid = 0.5 * lo + 0.5 * hi
        judged = rule(lo, hi, mid)
        if judged is True:
            continue
        if judged is not False:
            return Proof("falsified", visited, depth, judged)
        if lo < mid < hi:
            cells += [(mid, hi, level + 1), (lo, mid, level + 1)]
        else:
            undecided.append((lo, hi))
    undecided += [(lo, hi) for lo, hi, _ in cells]
    width = sum((hi - lo for lo, hi in undecided), 0.0)
    return Proof("inconclusive-pass" if width else "pass", visited, depth,
                 None, undecided, width)


# ---------------------------------------------------------------------------
# simplification
# ---------------------------------------------------------------------------

def _fold_to_const(value) -> Expr | None:
    return Const(value) if math.isfinite(value) else None


def _rewrite(node: Expr) -> Expr | None:
    """One local rewrite step, or None when no rule applies.

    The rule list is fixed: constant folding (skipped when it would leave
    the real domain or the finite range), the unit and absorbing elements
    of each operator, double negation, and folding of constants through
    nested products.  Every rule shrinks the tree, so iteration
    terminates.  The rules of each node kind are one function, found by
    the node's type; a leaf has none.
    """
    rule = _RULES.get(type(node))
    return None if rule is None else rule(node)


def _fold(node: _Binary, a: Const, b: Const) -> Expr | None:
    try:
        return _fold_to_const(node._apply(a.value, b.value))
    except (ArithmeticError, ValueError):
        return None


def _rewrite_neg(node: Neg) -> Expr | None:
    a = node.a
    if type(a) is Const:
        return Const(-a.value)
    if type(a) is Neg:
        return a.a
    return None


def _rewrite_call(node: Call) -> Expr | None:
    a = node.arg
    if type(a) is Const:
        try:
            return _fold_to_const(_FUNC_IMPL[node.fn](a.value))
        except (ArithmeticError, ValueError):
            return None
    return None


def _rewrite_add(node: Add) -> Expr | None:
    a, b = node.a, node.b
    if type(a) is Const:
        if type(b) is Const:
            return _fold(node, a, b)
        return b if a.value == 0.0 else None
    if type(b) is Const and b.value == 0.0:
        return a
    return None


def _rewrite_sub(node: Sub) -> Expr | None:
    a, b = node.a, node.b
    if type(b) is Const:
        if type(a) is Const:
            return _fold(node, a, b)
        if b.value == 0.0:
            return a
    elif type(a) is Const and a.value == 0.0:
        return Neg(b)
    return Const(0.0) if a == b else None


def _rewrite_mul(node: Mul) -> Expr | None:
    a, b = node.a, node.b
    if type(a) is Const:
        if type(b) is Const:
            return _fold(node, a, b)
        c, rest = a.value, b
    elif type(b) is Const:
        c, rest = b.value, a
    else:
        return None
    if c == 0.0:
        return Const(0.0)
    if c == 1.0:
        return rest
    if c == -1.0:
        return Neg(rest)
    # pull constants together through nested products
    if type(rest) is Mul:
        if type(rest.a) is Const:
            return _combine_product(c, rest.a.value, rest.b)
        if type(rest.b) is Const:
            return _combine_product(c, rest.b.value, rest.a)
    return None


def _rewrite_div(node: Div) -> Expr | None:
    a, b = node.a, node.b
    if type(a) is Const:
        if type(b) is Const:
            return _fold(node, a, b)
        return Const(0.0) if a.value == 0.0 else None
    if type(b) is Const and b.value == 1.0:
        return a
    return None


def _rewrite_pow(node: Pow) -> Expr | None:
    a, b = node.a, node.b
    if type(b) is Const:
        if type(a) is Const:
            return _fold(node, a, b)
        if b.value == 1.0:
            return a
        return Const(1.0) if b.value == 0.0 else None
    if type(a) is Const and a.value == 1.0:
        return Const(1.0)
    return None


_RULES = {Neg: _rewrite_neg, Call: _rewrite_call, Add: _rewrite_add,
          Sub: _rewrite_sub, Mul: _rewrite_mul, Div: _rewrite_div,
          Pow: _rewrite_pow}


def _combine_product(c1: float, c2: float, rest: Expr) -> Expr | None:
    prod = c1 * c2
    return Mul(Const(prod), rest) if math.isfinite(prod) else None


def _local_fixpoint(node: Expr) -> Expr:
    """Rewrite ``node``, whose children are in normal form, until no rule
    fires, and mark the result as in normal form.  Every rule shrinks the
    tree and builds only over those children and constants, so the loop
    ends and every child of the result is in normal form too."""
    while (new := _rewrite(node)) is not None:
        node = new
    node._simple = True
    return node


def simplify(e: Expr) -> Expr:
    """Rewrite ``e`` bottom-up until no rule fires, in one pass.

    Evaluation of the result agrees with evaluation of the input on every
    binding where the input is defined; dropped subtrees (x*0 and friends)
    may widen the domain, never narrow it.

    The pass visits a shared subtree once, and marks every node it leaves
    as in normal form, so that no later call walks it again: simplifying
    a tree built from simplified pieces costs only the nodes added on top
    of them, and a simplified tree comes back unchanged at once.
    """
    # keyed by the input node, so each shared subtree is walked once
    memo: dict[int, Expr] = {}

    def walk(node: Expr) -> Expr:
        if node._simple:
            return node
        out = memo.get(id(node))
        if out is not None:
            return out
        kids = node.children()
        new_kids = [k if k._simple else walk(k) for k in kids]
        rebuilt = node
        for nk, k in zip(new_kids, kids):
            if nk is not k:
                rebuilt = node._with_children(new_kids)
                break
        out = _local_fixpoint(rebuilt)
        memo[id(node)] = out
        return out

    return walk(e)


# ---------------------------------------------------------------------------
# compilation
# ---------------------------------------------------------------------------

class Emitter:
    """Straight-line Python source for expression trees.

    ``emit`` returns an atom for a tree (a literal, a bound variable's
    name, or a temporary ``_t<n>``) and appends the assignments of the
    subexpressions not bound yet; structurally equal subexpressions are
    bound once.  ``line`` appends a statement of the caller's own, so
    generated code can interleave expressions with control flow.

    A temporary exists only on the paths that ran its assignment, so the
    body of an ``if`` is emitted through ``branch()``: a scope that reuses
    every temporary bound before it and keeps the ones it binds to itself.

    ``lines`` keeps one assignment per temporary.  ``function`` compiles
    them with a shared subexpression bound once and a single-use one
    written inline in the statement that reads it, in parentheses where
    Python's precedence needs them; the float operations and the order
    Python evaluates them in stay the same.  A statement of the caller's
    own that reads a temporary therefore reads it unconditionally (no
    ``and``, ``or`` or conditional expression around it), after nothing
    of its own that can raise.
    """

    def __init__(self, names: Mapping[str, str], indent: str = "    "):
        self.names = dict(names)        # variable name -> Python name
        self.indent = indent
        self.lines: list[str] = []
        # line -> (indent, temporary, shape, atoms read) of each
        # assignment `_emit` wrote, the shape as `_form` gives it
        self._assignments: dict[str, tuple] = {}
        self._count = [0]
        self._by_structure: dict[tuple, str] = {}
        self._by_id: dict[int, str] = {}
        self._roots: list[Expr] = []    # keeps node ids unique while in use

    def bind(self, name: str, atom: str) -> None:
        """Read variable ``name`` from ``atom`` in what is emitted next."""
        self.names[name] = atom
        self._by_id.clear()             # node -> atom held under old names

    def line(self, text: str) -> None:
        self.lines.append(self.indent + text)

    def branch(self) -> "Emitter":
        child = Emitter(self.names, self.indent + "    ")
        child.lines, child._assignments, child._count, child._roots = \
            self.lines, self._assignments, self._count, self._roots
        child._by_structure = dict(self._by_structure)
        child._by_id = dict(self._by_id)
        return child

    def emit(self, node: Expr) -> str:
        self._roots.append(node)
        return self._emit(node)

    def _emit(self, node: Expr) -> str:
        atom = self._by_id.get(id(node))
        if atom is not None:
            return atom
        if isinstance(node, Const):
            text = repr(node.value)     # -2.0 ** 2 would be -(2.0 ** 2)
            atom = f"({text})" if node.value < 0 else text
        elif isinstance(node, Var):
            atom = self.names.get(node.name)
            if atom is None:
                raise UnboundVariableError(node.name)
        else:
            kids = tuple([self._emit(k) for k in node.children()])
            key = (type(node).__name__, node._payload(), kids)
            atom = self._by_structure.get(key)
            if atom is None:
                atom = f"_t{self._count[0]}"
                self._count[0] += 1
                shape, reads = _form(node, kids)
                line = f"{self.indent}{atom} = {shape[0] % reads}"
                self.lines.append(line)
                self._assignments[line] = (self.indent, atom, shape, reads)
                self._by_structure[key] = atom
        self._by_id[id(node)] = atom
        return atom

    def function(self, name: str, params: str,
                 namespace: Mapping | None = None) -> Callable:
        """Define ``def name(params):`` with the emitted lines as its body,
        each single-use temporary written inline (see ``_inline``).

        The body sees the math functions the rendered expressions call,
        plus ``namespace``, and no builtins.
        """
        body = _inline(self.lines, self._assignments)
        src = "\n".join([f"def {name}({params}):", *body])
        ns = {
            **{f"_{fn}": impl for fn, impl in _FUNC_IMPL.items()},
            "_pow": math.pow,
            **(namespace or {}),
            "__builtins__": {},
        }
        exec(compile(src, "<proxysafe.expr>", "exec"), ns)
        fn = ns[name]
        fn._source = src
        return fn


_TEMP_RE = re.compile(r"(_t(?<!\w_t)\d+)(?!\w)")
# inlined subexpressions nest at most this deep in one statement: CPython
# refuses source nested more than 200 parentheses deep, and its compiler
# recurses once per level of an expression
_INLINE_DEPTH = 32


def _inline(lines: list, assignments: dict) -> list:
    """``lines`` with each temporary that is read exactly once written
    inline in the statement that reads it.

    Evaluation order is kept.  Single-use temporaries wait in the order
    they were defined, and a statement takes in the most recent ones only
    when its text reads them in that same order.  Everything still
    waiting is written out before a statement that does not wait itself,
    before one that reads waiting temporaries in another order, and at a
    change of indentation (a branch scope).  A statement that would nest
    inlined subexpressions more than ``_INLINE_DEPTH`` deep is written
    out too.

    An assignment ``_emit`` wrote is written again from its ``_form``,
    with an inlined value in parentheses only where the precedence of its
    place needs them, so the syntax tree is the one of the fully
    parenthesized text.  A statement of the caller's own is scanned for
    temporaries and takes each one in parentheses.
    """
    made = [assignments.get(line) for line in lines]
    reads_of = [m[3] if m else _TEMP_RE.findall(line)
                for line, m in zip(lines, made)]
    uses = Counter(chain.from_iterable(reads_of))
    out: list[str] = []
    stack: list[str] = []       # the waiting temporaries, oldest first
    waiting: dict = {}          # name -> (text, precedence, depth)
    take = waiting.pop

    def write_out():
        out.extend([f"{indent}{name} = {waiting[name][0]}"
                    for name in stack])
        stack.clear()
        waiting.clear()

    indent = None
    for line, m, reads in zip(lines, made, reads_of):
        here = m[0] if m else line[:len(line) - len(line.lstrip())]
        if here != indent:
            if stack:
                write_out()
            indent = here
        depth = 0
        atoms = reads
        if waiting and not waiting.keys().isdisjoint(reads):
            taken = [a for a in reads if a in waiting]
            k = len(stack) - len(taken)
            if taken == stack[k:]:
                del stack[k:]
                if m:
                    atoms = []
                    for a, least in zip(reads, m[2][2]):
                        entry = take(a, None)
                        if entry is None:
                            atoms.append(a)
                            continue
                        text, prec, d = entry
                        atoms.append(text if prec >= least else f"({text})")
                        if d > depth:
                            depth = d
                    atoms = tuple(atoms)
                else:
                    parts = _TEMP_RE.split(line)
                    parts[1::2] = [f"({take(a)[0]})" if a in waiting else a
                                   for a in reads]
                    line = "".join(parts)
            else:
                write_out()
        if m:
            name, (form, prec, _) = m[1], m[2]
            if uses[name] == 1 and depth < _INLINE_DEPTH:
                stack.append(name)
                waiting[name] = (form % atoms, prec, depth + 1)
                continue
            if atoms is not reads:
                line = f"{here}{name} = {form % atoms}"
        if stack:
            write_out()
        out.append(line)
    write_out()
    return out


def _compile(exprs: Sequence[Expr], params: Sequence[str], scalar: bool) -> Callable:
    params = list(params)
    seen = set()
    for p in params:
        if not _NAME_RE.match(p) or p.startswith("_"):
            raise ValueError(f"invalid parameter name {p!r}")
        if p in seen:
            raise ValueError(f"duplicate parameter name {p!r}")
        seen.add(p)

    em = Emitter({p: p for p in params})
    outs = [em.emit(e) for e in exprs]
    if scalar:
        em.line(f"return {outs[0]}")
    else:
        em.line("return (" + ", ".join(outs) + ("," if len(outs) == 1 else "") + ")")
    return em.function("_compiled", ", ".join(params))


# Python's precedence levels of the forms below, loosest first.  Each
# shape is (%-format, precedence of what it writes, least precedence each
# of its places takes without parentheses).
_SUM, _TERM, _FACTOR, _POWER, _ATOM = range(5)
_SHAPES = {
    Neg: ("-%s", _FACTOR, (_FACTOR,)),
    Add: ("%s + %s", _SUM, (_SUM, _TERM)),
    Sub: ("%s - %s", _SUM, (_SUM, _TERM)),
    Mul: ("%s * %s", _TERM, (_TERM, _FACTOR)),
    Div: ("%s / %s", _TERM, (_TERM, _FACTOR)),
}
_CALL_SHAPES = {fn: (f"_{fn}(%s)", _ATOM, (_SUM,)) for fn in FUNCTIONS}
_POW_SHAPE = ("_pow(%s, %s)", _ATOM, (_SUM, _SUM))


def _form(node: Expr, kids: tuple) -> tuple:
    """The right-hand side of a temporary's assignment: its shape and the
    atoms it reads, in order (a square reads its base twice)."""
    if isinstance(node, Call):
        return _CALL_SHAPES[node.fn], kids
    if isinstance(node, Pow):
        expo = node.b
        if isinstance(expo, Const) and expo.value == int(expo.value) \
                and abs(expo.value) <= 64:
            n = int(expo.value)
            if n == 2:
                return _SHAPES[Mul], (kids[0], kids[0])
            return (f"%s ** {n}", _POWER, (_ATOM,)), kids[:1]
        return _POW_SHAPE, kids
    return _SHAPES[type(node)], kids


def compile_exprs(exprs: Sequence[Expr], params: Sequence[str]) -> Callable[..., tuple]:
    """Compile a batch of expressions into one generated positional function.

    The function takes the parameter values in the given order and returns
    a tuple with one float per input expression; common subexpressions
    across the whole batch are computed once.  Semantics match
    ``evaluate`` except that integer powers use the hardware power
    operator, which may differ in the last ulp, and domain violations
    surface as the raw ZeroDivisionError / ValueError / OverflowError.
    Intended for simulation inner loops.
    """
    return _compile(exprs, params, scalar=False)


def compile_expr(e: Expr, params: Sequence[str]) -> Callable[..., float]:
    """Compile a single expression; the result returns a bare float."""
    return _compile([e], params, scalar=True)
