"""Symbolic barrier stack for the proxy subsystem.

Given a scalar proxy model (state x with dynamics dx/dt = f0(x) +
g0(x) mu_1, an integrator chain mu_1..mu_m of length m driven by the
filtered input nu) and a safe-set function h(x), this module builds,
once and symbolically, the chain of barrier functions

    b_0 = y_0
    b_i = M_i (f0 + g0 mu_1) - (M_i g0)^2 / (2 beta_i)
          - (beta_i/2) rho(t)^2 + lambda_i b_{i-1}
          + d b_{i-1} / dt + sum_{j<i} (d b_{i-1} / d mu_j) mu_{j+1}

with the scalar

    M_i = (1/xi) sum_{j=0}^{i-1} (d b_{i-1} / d y_j) (dh/dx) y_{j+1}
          + d b_{i-1} / d x

together with the affine constraint data psi0, psi1 whose half-line
{nu : psi0 + psi1 nu >= 0} the safety filter projects onto.  The y_j are
kept as formal variables during construction; at evaluation time they are
bound to derivatives of the switch function chi at h(x)/xi, which is what
makes the chain degenerate gracefully deep inside the safe set.

In plain mode (usable when the gradient of h along g0 never vanishes on
the safe set) y_0 is replaced by h itself and all higher y_j by zero
before construction, and the two global conditions below are skipped.

The module also checks the three conditions under which the barrier
constraint is guaranteed feasible: (i) wherever the g0-gradient of h
vanishes on the safe set, h must already exceed xi (proved over the
check box by `expr.prove`, the bisection the plot's safe bounds share,
or falsified by a point, or left inconclusive on the width its cell
budget did not decide); (ii) an analytic budget comparing iterated
(d/dt + lambda) applications on rho^2 against the product of the
lambdas; (iii) positivity of y_0 and every b_i at the initial state,
by evaluating the trees there.
"""

from __future__ import annotations

import math
from collections import namedtuple
from functools import cached_property

from proxysafe.expr import (
    Call, Const, Div, Expr, Sub, Var, compile_expr, compile_exprs,
    differentiate, evaluate, interval, prove, simplify,
)

__all__ = [
    "RhoSpec", "ProxySpec", "BarrierStack", "ConditionCheck",
    "ConditionReport", "chi", "chi_expr", "CHI_SATURATE",
    "build_barrier_stack", "check_conditions",
]

EPS_GRAD = 1e-8       # |L_g0 h| below this counts as vanishing
H_SLACK = 1e-9        # tolerance on h >= xi at vanishing-gradient points
_CHI_MAX_ORDER = 12
CHI_SATURATE = 1.0 - 1e-12   # chi and its derivatives saturate from here


# ---------------------------------------------------------------------------
# the switch function chi
# ---------------------------------------------------------------------------

_chi_exprs: list = []
_chi_fns: dict = {}


def _check_order(k: int) -> None:
    if not 0 <= k <= _CHI_MAX_ORDER:
        raise ValueError(f"derivative order {k} outside 0..{_CHI_MAX_ORDER}")


def chi_expr(k: int) -> Expr:
    """The k-th derivative of chi's closed form below the switch point, as
    an expression in tau (what ``chi`` evaluates there)."""
    _check_order(k)
    while len(_chi_exprs) <= k:
        if not _chi_exprs:
            tau = Var("tau")
            _chi_exprs.append(
                Const(1.0) - Call("exp", Div(tau, Sub(tau, Const(1.0)))))
        else:
            _chi_exprs.append(differentiate(_chi_exprs[-1], "tau"))
    return _chi_exprs[k]


def chi(tau: float, k: int = 0) -> float:
    """k-th derivative of the switch function at tau.

    Closed form 1 - exp(tau/(tau-1)) below 1 and identically 1 above, so
    chi(0) = 0, chi saturates at 1, and every derivative vanishes on the
    saturated branch.  The function is infinitely differentiable; the
    derivative expressions are generated symbolically and compiled on
    first use.  Within 1e-12 of the switch point the saturated values are
    exact to double precision and are returned directly, which also keeps
    the derivative denominators (tau-1)^2k away from underflow.
    """
    _check_order(k)
    if tau >= CHI_SATURATE:
        return 1.0 if k == 0 else 0.0
    fn = _chi_fns.get(k)
    if fn is None:
        fn = _chi_fns[k] = compile_expr(chi_expr(k), ["tau"])
    return fn(float(tau))


# ---------------------------------------------------------------------------
# specifications
# ---------------------------------------------------------------------------

class RhoSpec(namedtuple("RhoSpec", "rho0 rho_inf decay")):
    """Error funnel rho(t) = (rho0 - rho_inf) exp(-decay t) + rho_inf."""

    __slots__ = ()

    def __new__(cls, rho0: float, rho_inf: float, decay: float = 0.0):
        if not (rho0 >= rho_inf > 0.0):
            raise ValueError("need rho0 >= rho_inf > 0")
        if decay < 0.0:
            raise ValueError("decay must be nonnegative")
        return super().__new__(cls, rho0, rho_inf, decay)

    def value(self, t: float) -> float:
        return (self.rho0 - self.rho_inf) * math.exp(-self.decay * t) + self.rho_inf

    def expr(self) -> Expr:
        t = Var("t")
        e = Const(self.rho0 - self.rho_inf) * Call("exp", Const(-self.decay) * t) \
            + Const(self.rho_inf)
        return simplify(e)


class ProxySpec(namedtuple("ProxySpec",
                           "m f0 g0 h xi lambdas betas mode")):
    """Proxy subsystem data: dynamics, safe set, and chain constants.

    The proxy is scalar: f0, g0 and h are expressions in the one state
    variable x, and h is nonnegative exactly on the safe set.  lambdas
    holds lambda_1..lambda_{m+1} and betas holds beta_1..beta_m.  mode is
    "switched" (default construction through chi) or "plain".
    """

    __slots__ = ()

    def __new__(cls, m: int, f0: Expr, g0: Expr, h: Expr, xi: float,
                lambdas: tuple, betas: tuple, mode: str = "switched"):
        if m < 1:
            raise ValueError("chain length m must be >= 1")
        if mode not in ("switched", "plain"):
            raise ValueError(f"unknown mode {mode!r}")
        if xi <= 0.0:
            raise ValueError("xi must be positive")
        if len(lambdas) != m + 1 or any(v <= 0 for v in lambdas):
            raise ValueError(f"need {m + 1} positive lambdas")
        if len(betas) != m or any(v <= 0 for v in betas):
            raise ValueError(f"need {m} positive betas")
        lambdas = tuple(float(v) for v in lambdas)
        betas = tuple(float(v) for v in betas)
        for name, e in (("h", h), ("f0", f0), ("g0", g0)):
            extra = e.variables() - {"x"}
            if extra:
                raise ValueError(f"{name} uses undeclared variables {sorted(extra)}")
        return super().__new__(cls, m, f0, g0, h, xi, lambdas, betas, mode)


# ---------------------------------------------------------------------------
# construction
# ---------------------------------------------------------------------------

class BarrierStack:
    """Symbolically constructed barrier chain for one proxy subsystem.

    Holds the expressions b_0..b_m, the scalars M_1..M_{m+1}, and the
    constraint pair (psi0, psi1); all immutable.  The row one past the
    chain (M_{m+1}, psi0 and psi1, most of the symbolic work) is built
    on first use, since the feasibility checks read only b and h.
    The evaluation helpers take the scalar state x, the m virtual-state
    values mu and the time t, return floats, and bind the y variables to
    chi derivatives of h(x)/xi automatically ("switched") or skip them
    entirely ("plain"); `h_value(x)` is h compiled.
    """

    def __init__(self, proxy: ProxySpec, rho: RhoSpec, b, M, constraint):
        """M holds M_1..M_m; constraint() builds (M_{m+1}, psi0, psi1)."""
        self.proxy = proxy
        self.rho = rho
        self.b = tuple(b)
        self._chain_M = tuple(M)
        self._constraint = constraint
        self.mu_vars = [f"mu{i}" for i in range(1, proxy.m + 1)]
        self.y_count = proxy.m + 2 if proxy.mode == "switched" else 0
        self.y_vars = [f"y{j}" for j in range(self.y_count)]
        self._params = ["x", *self.mu_vars, *self.y_vars, "t"]
        self.h_value = compile_expr(proxy.h, ["x"])
        self._qp_fn = None
        self._b_fn = None

    @cached_property
    def _row(self) -> tuple:
        return self._constraint()

    @property
    def M(self) -> tuple:
        return (*self._chain_M, self._row[0])

    @property
    def psi0(self) -> Expr:
        return self._row[1]

    @property
    def psi1(self) -> Expr:
        return self._row[2]

    # -- evaluation ---------------------------------------------------------

    def y_values(self, h_val: float) -> list:
        """Values bound to y0..y_{m+1} at a given h(x)."""
        if self.proxy.mode != "switched":
            return []
        tau = h_val / self.proxy.xi
        return [chi(tau, k) for k in range(self.y_count)]

    def _args(self, x, mu, t):
        """x is the state, mu the m virtual-state values."""
        if len(mu) != self.proxy.m:
            raise ValueError(f"expected {self.proxy.m} virtual-state values, "
                             f"got {len(mu)}")
        x = float(x)
        ys = self.y_values(self.h_value(x))
        return [x, *(float(v) for v in mu), *ys, float(t)]

    def eval_constraint(self, x, mu, t) -> tuple:
        """Numeric (psi0, psi1) at a state, virtual chain, and time."""
        if self._qp_fn is None:
            self._qp_fn = compile_exprs([self.psi0, self.psi1], self._params)
        return self._qp_fn(*self._args(x, mu, t))

    def eval_barriers(self, x, mu, t) -> list:
        """Numeric b_0..b_m at a state, virtual chain, and time."""
        if self._b_fn is None:
            self._b_fn = compile_exprs(list(self.b), self._params)
        return list(self._b_fn(*self._args(x, mu, t)))


def build_barrier_stack(proxy: ProxySpec, rho: RhoSpec) -> BarrierStack:
    """Run the barrier recursion symbolically and package the results."""
    m = proxy.m
    mus = [Var(f"mu{i}") for i in range(1, m + 1)]
    xi = Const(proxy.xi)
    rho_expr = rho.expr()
    rho_sq = simplify(rho_expr * rho_expr)

    switched = proxy.mode == "switched"
    if switched:
        y: list = [Var(f"y{j}") for j in range(m + 2)]
    else:
        y = [proxy.h] + [Const(0.0)] * (m + 1)

    h_grad = differentiate(proxy.h, "x")
    drift = simplify(proxy.f0 + proxy.g0 * mus[0])

    def m_row(b_prev: Expr, level: int) -> Expr:
        """M_level built from b_{level-1}."""
        term = differentiate(b_prev, "x")
        if switched:
            acc = Const(0.0)
            for j in range(level):
                dby = differentiate(b_prev, f"y{j}")
                acc = acc + dby * h_grad * y[j + 1]
            term = term + acc / xi
        return simplify(term)

    def chained(acc: Expr, b_prev: Expr, level: int) -> Expr:
        """acc + sum_{j<level} (d b_prev / d mu_j) mu_{j+1}."""
        for j in range(1, level):
            acc = acc + differentiate(b_prev, f"mu{j}") * mus[j]
        return acc

    b_list = [y[0]]
    m_rows = []
    for i in range(1, m + 1):
        b_prev = b_list[i - 1]
        M_i = m_row(b_prev, i)
        m_rows.append(M_i)
        mg = M_i * proxy.g0
        beta = Const(proxy.betas[i - 1])
        b_i = M_i * drift - mg * mg / (Const(2.0) * beta) \
            - beta / Const(2.0) * rho_sq \
            + Const(proxy.lambdas[i - 1]) * b_prev \
            + differentiate(b_prev, "t")
        b_list.append(simplify(chained(b_i, b_prev, i)))

    def constraint() -> tuple:
        """The extra row for the constraint, one past the chain."""
        b_m = b_list[m]
        M_i = m_row(b_m, m + 1)
        mg = M_i * proxy.g0
        psi0 = differentiate(b_m, "t") + M_i * drift \
            + Const(proxy.lambdas[m]) * b_m \
            - Call("sqrt", mg * mg) * rho_expr
        psi0 = simplify(chained(psi0, b_m, m))
        return M_i, psi0, differentiate(b_m, f"mu{m}")

    return BarrierStack(proxy, rho, b_list, m_rows, constraint)


# ---------------------------------------------------------------------------
# feasibility conditions
# ---------------------------------------------------------------------------

class ConditionCheck:
    """One condition's verdict (pass, fail, falsified, inconclusive-pass
    or skipped), its detail line and its data."""

    def __init__(self, verdict: str, detail: str, data: dict | None = None):
        self.verdict = verdict
        self.detail = detail
        self.data = {} if data is None else data

    @property
    def ok(self) -> bool:
        return self.verdict in ("pass", "inconclusive-pass", "skipped")


class ConditionReport:
    """The checks of one barrier stack: a vanishing g0-gradient implies
    h >= xi, the iterated funnel derivative budget, and positivity at
    the initial state."""

    def __init__(self, grad_check: ConditionCheck,
                 budget_check: ConditionCheck, init_check: ConditionCheck):
        self.grad_check = grad_check
        self.budget_check = budget_check
        self.init_check = init_check

    @property
    def ok(self) -> bool:
        return self.grad_check.ok and self.budget_check.ok and self.init_check.ok

    def lines(self) -> list:
        return [f"[{check.verdict:>18}] {label}: {check.detail}"
                for label, check in [
                    ("vanishing-gradient implication", self.grad_check),
                    ("funnel derivative budget", self.budget_check),
                    ("initial positivity", self.init_check)]]


def rho_budget(proxy: ProxySpec, rho: RhoSpec) -> dict:
    """Supremum over t >= 0 of the iterated funnel budget, analytically.

    rho(t)^2 for this funnel family is A e^{-2at} + B e^{-at} + C, and
    each (d/dt + lambda) application maps e^{-kt} to (lambda - k) e^{-kt},
    so the whole sum stays in that family; the supremum is bounded
    term-wise (nonnegative coefficients peak at t=0, negative ones vanish
    at infinity).  The bound is exact whenever all coefficients share a
    sign, which covers constant funnels.
    """
    m = proxy.m
    a = rho.decay
    diff0 = rho.rho0 - rho.rho_inf
    A, B, C = diff0 * diff0, 2.0 * diff0 * rho.rho_inf, rho.rho_inf * rho.rho_inf
    P = Q = R = 0.0
    for j in range(2, m + 2):
        pp = qq = rr = proxy.betas[j - 2] / 2.0
        pp, qq, rr = pp * A, qq * B, rr * C
        for l in range(j, m + 2):
            lam = proxy.lambdas[l - 1]
            pp *= lam - 2.0 * a
            qq *= lam - a
            rr *= lam
        P += pp
        Q += qq
        R += rr
    product = math.prod(proxy.lambdas)
    sup = R + max(P, 0.0) + max(Q, 0.0)
    return {"value": sup, "bound": product, "margin": product - sup}


def _grad_condition(stack: BarrierStack, box) -> ConditionCheck:
    """Condition (i) over the box, by `expr.prove`.  A cell is discharged
    when the interval enclosures prove it outside the safe set (h < 0),
    at or above xi (h >= xi - H_SLACK), or free of a vanishing gradient
    ((L_g0 h)^2 > EPS_GRAD^2); a flagged enclosure proves nothing.  An
    undischarged cell's midpoint is a witness when the condition fails
    there; otherwise the cell is halved."""
    proxy = stack.proxy
    if box is None:
        raise ValueError("condition check needs one (lo, hi) interval")
    # squared h-gradient pushed through g0
    mg = simplify(differentiate(proxy.h, "x") * proxy.g0)
    n2 = simplify(mg * mg)
    h, floor, eps2 = proxy.h, proxy.xi - H_SLACK, EPS_GRAD * EPS_GRAD

    def rule(lo, hi, x):
        h_lo, h_hi, h_bad = interval(h, "x", lo, hi)
        if h_bad is None and (h_hi < 0.0 or h_lo >= floor):
            return True
        n_lo, _, n_bad = interval(n2, "x", lo, hi)
        if n_bad is None and n_lo > eps2:
            return True
        h_x = evaluate(h, {"x": x})
        if 0.0 <= h_x < floor and evaluate(n2, {"x": x}) <= eps2:
            return x, h_x
        return False

    proof = prove(rule, *box)
    data = {"cells": proof.cells, "depth": proof.depth}
    if proof.verdict == "falsified":
        x, h_x = proof.witness
        return ConditionCheck(
            "falsified", f"gradient vanishes at {[x]} but "
            f"h={h_x:.6g} < xi={proxy.xi:.6g}",
            {"witness": [x], "h": h_x, **data})
    detail = (f"undecided on width {proof.width:.3g} of the box after "
              f"{proof.cells} cells" if proof.width else
              f"proven on the box (cells: {proof.cells}, "
              f"depth: {proof.depth})")
    return ConditionCheck(proof.verdict, detail,
                          {**data, "undecided_width": proof.width})


def check_conditions(stack: BarrierStack, x0, z1_0, box=None) -> ConditionReport:
    """Check the three feasibility conditions for one barrier stack.

    x0 is the initial proxy state; z1_0 the initial first plant block,
    which seeds the first virtual state (remaining virtual states start
    at zero).  box, one finite (lo, hi) interval of x, is where the
    vanishing-gradient condition is proved; it is required in switched
    mode.  Its verdict is proven, not sampled, by the bisection of
    `expr.prove`: ``pass`` when every cell is discharged (``data`` holds
    the cell count, the depth and an undecided width of 0),
    ``falsified`` with a witness point, or ``inconclusive-pass`` with
    the width of the cells the budget left undecided.

    Every evaluation, h at x0 first, walks the trees, so a failure raises
    a DomainError naming the subexpression.  Nothing is compiled.
    """
    proxy = stack.proxy
    plain = proxy.mode == "plain"
    h0 = evaluate(proxy.h, {"x": float(x0)})

    if plain:
        grad = ConditionCheck("skipped", "plain mode assumes a nonvanishing gradient")
        budget = ConditionCheck("skipped", "plain mode has no funnel budget")
    else:
        grad = _grad_condition(stack, box)
        bd = rho_budget(stack.proxy, stack.rho)
        value, bound = bd["value"], bd["bound"]
        detail = (f"sup budget {value:.6g} vs bound {bound:.6g} "
                  f"(margin {bd['margin']:.6g})")
        # a value that overflowed, or a bound that underflowed, decides
        # nothing: inf <= inf and 0 <= 0 hold where the reals may not
        verdict = "pass" if value <= bound else "fail"
        if not math.isfinite(value):
            verdict, detail = "fail", f"{detail}: the budget overflows"
        elif bound == 0.0:
            verdict, detail = "fail", f"{detail}: the bound underflows to 0"
        budget = ConditionCheck(verdict, detail, bd)

    mu0 = [float(z1_0)] + [0.0] * (proxy.m - 1)
    binding = {"x": float(x0), "t": 0.0, **dict(zip(stack.mu_vars, mu0))}
    tau = h0 / proxy.xi
    for j, y in enumerate(stack.y_vars):
        binding[y] = float(j == 0) if tau >= CHI_SATURATE \
            else evaluate(chi_expr(j), {"tau": tau})
    bvals = [evaluate(b, binding) for b in stack.b]
    y0 = bvals[0]       # b_0 = y_0: chi(h/xi), or h in plain mode
    bad = [f"b_{i}(0)={v:.6g}" for i, v in enumerate(bvals) if i >= 1 and v <= 0.0]
    if y0 <= 0.0:
        bad.insert(0, f"y0(0)={y0:.6g}")
    if bad:
        init = ConditionCheck("fail", "nonpositive at start: " + ", ".join(bad),
                              {"y0": y0, "b": bvals})
    else:
        init = ConditionCheck(
            "pass", f"y0(0)={y0:.6g}, " +
            ", ".join(f"b_{i}(0)={v:.6g}" for i, v in enumerate(bvals) if i >= 1),
            {"y0": y0, "b": bvals})
    return ConditionReport(grad, budget, init)
