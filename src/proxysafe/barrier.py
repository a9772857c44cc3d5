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
vanishes on the safe set, h must already exceed xi (sample-falsified with
local refinement, honestly reported as inconclusive when no vanishing
point is found); (ii) an analytic budget comparing iterated
(d/dt + lambda) applications on rho^2 against the product of the lambdas;
(iii) positivity of y_0 and every b_i at the initial state.
"""

from __future__ import annotations

import math
import random
from dataclasses import dataclass, field
from typing import Sequence

from proxysafe.expr import (
    Call, Const, Div, Expr, Sub, Var, compile_expr, compile_exprs,
    differentiate, simplify,
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

_chi_fns: list = []


def _chi_fn(k: int):
    while len(_chi_fns) <= k:
        if not _chi_fns:
            tau = Var("tau")
            core = Const(1.0) - Call("exp", Div(tau, Sub(tau, Const(1.0))))
            _chi_fns.append((core, compile_expr(core, ["tau"])))
        else:
            prev_expr, _ = _chi_fns[-1]
            d = differentiate(prev_expr, "tau")
            _chi_fns.append((d, compile_expr(d, ["tau"])))
    return _chi_fns[k][1]


def _check_order(k: int) -> None:
    if not 0 <= k <= _CHI_MAX_ORDER:
        raise ValueError(f"derivative order {k} outside 0..{_CHI_MAX_ORDER}")


def chi_expr(k: int) -> Expr:
    """The k-th derivative of chi's closed form below the switch point, as
    an expression in tau (what ``chi`` evaluates there)."""
    _check_order(k)
    _chi_fn(k)
    return _chi_fns[k][0]


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
    return _chi_fn(k)(float(tau))


# ---------------------------------------------------------------------------
# specifications
# ---------------------------------------------------------------------------

@dataclass(frozen=True)
class RhoSpec:
    """Error funnel rho(t) = (rho0 - rho_inf) exp(-decay t) + rho_inf."""

    rho0: float
    rho_inf: float
    decay: float = 0.0

    def __post_init__(self):
        if not (self.rho0 >= self.rho_inf > 0.0):
            raise ValueError("need rho0 >= rho_inf > 0")
        if self.decay < 0.0:
            raise ValueError("decay must be nonnegative")

    @property
    def is_constant(self) -> bool:
        return self.decay == 0.0 or self.rho0 == self.rho_inf

    def value(self, t: float) -> float:
        return (self.rho0 - self.rho_inf) * math.exp(-self.decay * t) + self.rho_inf

    def derivative(self, t: float) -> float:
        return -self.decay * (self.rho0 - self.rho_inf) * math.exp(-self.decay * t)

    def expr(self) -> Expr:
        t = Var("t")
        e = Const(self.rho0 - self.rho_inf) * Call("exp", Const(-self.decay) * t) \
            + Const(self.rho_inf)
        return simplify(e)


@dataclass(frozen=True)
class ProxySpec:
    """Proxy subsystem data: dynamics, safe set, and chain constants.

    The proxy is scalar: f0, g0 and h are expressions in the one state
    variable x, and h is nonnegative exactly on the safe set.  lambdas
    holds lambda_1..lambda_{m+1} and betas holds beta_1..beta_m.  mode is
    "switched" (default construction through chi) or "plain".
    """

    m: int
    f0: Expr
    g0: Expr
    h: Expr
    xi: float
    lambdas: tuple
    betas: tuple
    mode: str = "switched"

    def __post_init__(self):
        if self.m < 1:
            raise ValueError("chain length m must be >= 1")
        if self.mode not in ("switched", "plain"):
            raise ValueError(f"unknown mode {self.mode!r}")
        if self.xi <= 0.0:
            raise ValueError("xi must be positive")
        if len(self.lambdas) != self.m + 1 or any(v <= 0 for v in self.lambdas):
            raise ValueError(f"need {self.m + 1} positive lambdas")
        if len(self.betas) != self.m or any(v <= 0 for v in self.betas):
            raise ValueError(f"need {self.m} positive betas")
        object.__setattr__(self, "lambdas", tuple(float(v) for v in self.lambdas))
        object.__setattr__(self, "betas", tuple(float(v) for v in self.betas))
        for name in ("h", "f0", "g0"):
            extra = getattr(self, name).variables() - {"x"}
            if extra:
                raise ValueError(f"{name} uses undeclared variables {sorted(extra)}")


# ---------------------------------------------------------------------------
# construction
# ---------------------------------------------------------------------------

class BarrierStack:
    """Symbolically constructed barrier chain for one proxy subsystem.

    Holds the expressions b_0..b_m, the scalars M_1..M_{m+1}, and the
    constraint pair (psi0, psi1); all immutable after construction.
    Evaluation helpers bind the y variables to chi derivatives of
    h(x)/xi automatically ("switched") or skip them entirely ("plain").
    """

    def __init__(self, proxy: ProxySpec, rho: RhoSpec, b, M, psi0, psi1):
        self.proxy = proxy
        self.rho = rho
        self.b = tuple(b)
        self.M = tuple(M)
        self.psi0 = psi0
        self.psi1 = psi1
        self.x_vars = ["x"]
        self.mu_vars = [f"mu{i}" for i in range(1, proxy.m + 1)]
        self.y_count = proxy.m + 2 if proxy.mode == "switched" else 0
        self.y_vars = [f"y{j}" for j in range(self.y_count)]
        self._params = [*self.x_vars, *self.mu_vars, *self.y_vars, "t"]
        self._h_fn = compile_expr(proxy.h, self.x_vars)
        self._qp_fn = None
        self._b_fn = None

    # -- evaluation ---------------------------------------------------------

    def h_value(self, x: Sequence[float]) -> float:
        return self._h_fn(*x)

    def y_values(self, h_val: float) -> list:
        """Values bound to y0..y_{m+1} at a given h(x)."""
        if self.proxy.mode != "switched":
            return []
        tau = h_val / self.proxy.xi
        return [chi(tau, k) for k in range(self.y_count)]

    def _args(self, x, mu, t):
        """x is a one-element sequence, mu the m virtual-state values."""
        if len(x) != 1:
            raise ValueError(f"expected one state value, got {len(x)}")
        if len(mu) != self.proxy.m:
            raise ValueError(f"expected {self.proxy.m} virtual-state values, "
                             f"got {len(mu)}")
        x = float(x[0])
        ys = self.y_values(self._h_fn(x))
        return [x, *(float(v) for v in mu), *ys, float(t)]

    def eval_constraint(self, x, mu, t):
        """Numeric (psi0, [psi1]) at a state, virtual chain, and time."""
        if self._qp_fn is None:
            self._qp_fn = compile_exprs([self.psi0, self.psi1], self._params)
        psi0, psi1 = self._qp_fn(*self._args(x, mu, t))
        return psi0, [psi1]

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

    # the extra row for the constraint, one past the chain
    M_i = m_row(b_list[m], m + 1)
    m_rows.append(M_i)
    mg = M_i * proxy.g0
    b_m = b_list[m]
    psi0 = differentiate(b_m, "t") + M_i * drift \
        + Const(proxy.lambdas[m]) * b_m \
        - Call("sqrt", mg * mg) * rho_expr
    psi0 = simplify(chained(psi0, b_m, m))
    psi1 = differentiate(b_m, f"mu{m}")

    return BarrierStack(proxy, rho, b_list, m_rows, psi0, psi1)


# ---------------------------------------------------------------------------
# feasibility conditions
# ---------------------------------------------------------------------------

@dataclass
class ConditionCheck:
    verdict: str          # pass | fail | falsified | inconclusive-pass | skipped
    detail: str
    data: dict = field(default_factory=dict)

    @property
    def ok(self) -> bool:
        return self.verdict in ("pass", "inconclusive-pass", "skipped")


@dataclass
class ConditionReport:
    grad_check: ConditionCheck      # vanishing g0-gradient implies h >= xi
    budget_check: ConditionCheck    # iterated funnel derivative budget
    init_check: ConditionCheck      # positivity at the initial state

    @property
    def ok(self) -> bool:
        return self.grad_check.ok and self.budget_check.ok and self.init_check.ok

    def lines(self) -> list:
        out = []
        for label, check in [
            ("vanishing-gradient implication", self.grad_check),
            ("funnel derivative budget", self.budget_check),
            ("initial positivity", self.init_check),
        ]:
            out.append(f"[{check.verdict:>18}] {label}: {check.detail}")
        return out


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


def _grad_condition(stack: BarrierStack, box, samples: int, seed: int) -> ConditionCheck:
    proxy = stack.proxy
    if box is None or len(box) != 1:
        raise ValueError("condition check needs one (lo, hi) interval")
    # squared h-gradient pushed through g0
    mg = simplify(differentiate(proxy.h, "x") * proxy.g0)
    norm2_fn = compile_expr(simplify(mg * mg), ["x"])
    h_fn = stack._h_fn

    rng = random.Random(seed)
    lo, hi = (float(v) for v in box[0])

    def draw(center=None, width=None):
        if center is None:
            return rng.uniform(lo, hi)
        return min(hi, max(lo, center + width * (rng.random() - 0.5)))

    best_x, best_n2 = None, math.inf
    in_set = 0
    for _ in range(samples):
        x = draw()
        if h_fn(x) < 0.0:
            continue
        in_set += 1
        n2 = norm2_fn(x)
        if n2 <= EPS_GRAD * EPS_GRAD and h_fn(x) < proxy.xi - H_SLACK:
            return ConditionCheck("falsified",
                                  f"gradient vanishes at {[x]} but h={h_fn(x):.6g} < xi",
                                  {"witness": [x], "h": h_fn(x)})
        if n2 < best_n2:
            best_x, best_n2 = x, n2
    if best_x is None:
        return ConditionCheck("inconclusive-pass",
                              "no safe-set samples inside the box",
                              {"samples_in_set": 0})

    # shrink a local window around the incumbent to chase the gradient
    # toward zero; only a genuinely vanishing point can falsify or
    # positively confirm the implication
    width = hi - lo
    for _ in range(90):
        width = width * 0.75
        for _ in range(120):
            x = draw(best_x, width)
            if h_fn(x) < 0.0:
                continue
            n2 = norm2_fn(x)
            if n2 < best_n2:
                best_x, best_n2 = x, n2
    h_best = h_fn(best_x)
    data = {"min_grad_norm": math.sqrt(best_n2), "witness": [best_x],
            "h_at_witness": h_best, "samples_in_set": in_set}
    if best_n2 <= EPS_GRAD * EPS_GRAD:
        if h_best >= proxy.xi - H_SLACK:
            return ConditionCheck(
                "pass", f"gradient vanishes near {[best_x]} with "
                f"h={h_best:.6g} >= xi={proxy.xi:.6g}", data)
        return ConditionCheck(
            "falsified", f"gradient vanishes at {[best_x]} but "
            f"h={h_best:.6g} < xi={proxy.xi:.6g}", data)
    return ConditionCheck(
        "inconclusive-pass",
        f"no vanishing gradient found (min norm {math.sqrt(best_n2):.3g}); "
        "implication vacuous on sampled box", data)


def check_conditions(stack: BarrierStack, x0, z1_0, box=None,
                     samples: int = 4000, seed: int = 0) -> ConditionReport:
    """Check the three feasibility conditions for one barrier stack.

    x0 is the initial proxy state; z1_0 the initial first plant block,
    which seeds the first virtual state (remaining virtual states start
    at zero).  box bounds the sampling domain for the vanishing-gradient
    check; it is required in switched mode.
    """
    proxy = stack.proxy
    plain = proxy.mode == "plain"

    if plain:
        grad = ConditionCheck("skipped", "plain mode assumes a nonvanishing gradient")
        budget = ConditionCheck("skipped", "plain mode has no funnel budget")
    else:
        grad = _grad_condition(stack, box, samples, seed)
        bd = rho_budget(stack.proxy, stack.rho)
        verdict = "pass" if bd["value"] <= bd["bound"] else "fail"
        budget = ConditionCheck(
            verdict,
            f"sup budget {bd['value']:.6g} vs bound {bd['bound']:.6g} "
            f"(margin {bd['margin']:.6g})", bd)

    x0 = [float(v) for v in x0]
    if not isinstance(z1_0, (int, float)):
        if len(z1_0) != 1:
            raise ValueError("expected one initial value for the first block")
        (z1_0,) = z1_0
    mu0 = [float(z1_0)] + [0.0] * (proxy.m - 1)
    h0 = stack.h_value(x0)
    y0 = chi(h0 / proxy.xi, 0) if not plain else h0
    bvals = stack.eval_barriers(x0, mu0, 0.0)
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
