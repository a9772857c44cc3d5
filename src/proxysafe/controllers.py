"""The four control laws: nominal backstepping for the proxy chain, an
approximation-free funnel controller, a Nussbaum-gain adaptive law, and
observer-based backstepping for disturbed chains.

The two backstepping laws are built symbolically once per scenario: the
recursions differentiate their own intermediate expressions, so building
them through the expression engine makes every partial exact rather than
approximated.  Evaluation then compiles the final expressions once and
runs them per step.  Both builders assume scalar channels (one-dimensional
proxy state and plant levels); the funnel and Nussbaum laws are plain
numeric recursions and need no symbolic work.  Every numeric law takes
its states as floats and flat lists and keeps nothing between calls;
the funnel law's intermediate widths are such run state too, sized from
the initial state by `initialize_funnels`.  A built law of more than
NODE_CAP expression nodes raises `SymbolicSizeError`, a ValueError: an
input the toolkit cannot build, reported like any other bad input.
"""

from __future__ import annotations

import math
from collections import namedtuple

from proxysafe.barrier import ProxySpec, RhoSpec
from proxysafe.dob import DobSpec
from proxysafe.expr import (
    Const, Expr, Var, compile_expr, compile_exprs, differentiate, simplify,
)

__all__ = [
    "BarrierBreach", "FunnelBreach", "SingularGain", "SymbolicSizeError",
    "NominalGains", "NominalController", "build_nominal",
    "PpcGains", "initialize_funnels", "ppc_control",
    "NussbaumGains", "nussbaum_gain", "nussbaum_control",
    "DobBackstepGains", "DobBackstepController", "build_dob_backstepping",
    "eval_dob_backstepping",
]

GAIN_EPS = 1e-12          # scalar control gains below this are singular
NODE_CAP = 2_000_000      # symbolic blow-up guard for built controllers


class BarrierBreach(Exception):
    """The tracking error left the funnel: ||e|| >= rho(t)."""

    def __init__(self, e: float, rho: float, t: float):
        super().__init__(f"|e|={abs(e):.6g} >= rho={rho:.6g} at t={t:.6g}")
        self.e, self.rho, self.t = e, rho, t


class FunnelBreach(Exception):
    """A normalized funnel coordinate left (-1, 1)."""

    def __init__(self, level: int, xi: float, t: float):
        super().__init__(f"|xi_{level}|={abs(xi):.6g} >= 1 at t={t:.6g}")
        self.level, self.xi, self.t = level, xi, t


class SingularGain(Exception):
    """A control gain to invert is numerically zero."""


class SymbolicSizeError(ValueError):
    """A built controller exceeded the expression node cap NODE_CAP; an
    input error, as a scenario whose expressions nest too deeply is."""


def _node_count(exprs) -> int:
    seen = set()

    def walk(e):
        if id(e) in seen:
            return
        seen.add(id(e))
        for c in e.children():
            walk(c)

    for e in exprs:
        walk(e)
    return len(seen)


# ---------------------------------------------------------------------------
# nominal proxy backstepping
# ---------------------------------------------------------------------------

class NominalGains(namedtuple("NominalGains", "ks cs x_d")):
    """Gains k_0..k_m, c_0..c_m and the reference trajectory x_d(t)."""

    __slots__ = ()

    def __new__(cls, ks: tuple, cs: tuple, x_d: Expr):
        ks = tuple(float(v) for v in ks)
        cs = tuple(float(v) for v in cs)
        if not ks or len(ks) != len(cs):
            raise ValueError("need matching nonempty k and c gain tuples")
        if any(v <= 0.0 for v in ks + cs):
            raise ValueError("gains must be positive")
        extra = x_d.variables() - {"t"}
        if extra:
            raise ValueError(f"reference may only depend on t, found {sorted(extra)}")
        return super().__new__(cls, ks, cs, x_d)


class NominalController:
    """Symbolic tracking law for the proxy chain.

    alphas[i] is the stage-(i+1) virtual control; the last one is the
    nominal input handed to the safety filter.  partials maps
    (stage, variable) to the exact derivative expression the recursion
    consumed, kept for derivative-consistency checks.
    """

    def __init__(self, proxy, gains, alphas, partials, params):
        self.proxy = proxy
        self.gains = gains
        self.alphas = tuple(alphas)
        self.nu_d = self.alphas[-1]
        self.partials = dict(partials)
        self.params = tuple(params)
        self._fn = None

    def control(self, x, mu, t) -> float:
        """Numeric nominal input at one state; the law and g0 compile on
        the first call."""
        if self._fn is None:
            self._g0_fn = compile_expr(self.proxy.g0, ["x"])
            self._fn = compile_expr(self.nu_d, list(self.params))
        x = float(x)
        g0 = self._g0_fn(x)
        if abs(g0) < GAIN_EPS:
            raise SingularGain(f"g0={g0:.3g} at x={x:.6g}")
        mu = [float(v) for v in mu]
        return self._fn(x, *mu, float(t))


def build_nominal(proxy: ProxySpec, gains: NominalGains) -> NominalController:
    """Run the tracking-law recursion symbolically.

    Stage one inverts the state equation toward the reference; each later
    stage differentiates its predecessor along the chain flow, damps the
    gradient-squared term, and cancels the previous stage's error.
    """
    m = proxy.m
    if len(gains.ks) != m + 1:
        raise ValueError(f"need {m + 1} gains k_0..k_m for chain length {m}")
    x = Var("x")
    mus = [Var(f"mu{i}") for i in range(1, m + 1)]
    f0, g0 = proxy.f0, proxy.g0
    drift = simplify(f0 + g0 * mus[0])
    xd = gains.x_d
    xd_dot = differentiate(xd, "t")
    ks, cs = gains.ks, gains.cs

    eps0 = simplify(x - xd)
    alpha1 = simplify(-(Const(ks[0]) * eps0 + f0 - xd_dot) / g0
                      - g0 * eps0 / Const(2.0 * cs[0]))
    alphas = [alpha1]
    eps = [eps0, simplify(mus[0] - alpha1)]
    partials = {}
    for i in range(2, m + 2):
        prev = alphas[-1]
        dt_ = differentiate(prev, "t")
        dx_ = differentiate(prev, "x")
        partials[(i - 1, "t")] = dt_
        partials[(i - 1, "x")] = dx_
        grad_sq = simplify((dx_ * g0) * (dx_ * g0))
        a = dt_ + dx_ * drift \
            - eps[i - 1] / Const(2.0 * cs[i - 1]) * grad_sq \
            - Const(ks[i - 1]) * eps[i - 1]
        if i == 2:
            a = a - g0 * eps0
        else:
            a = a - eps[i - 2]
            for j in range(1, i - 1):
                dmu = differentiate(prev, f"mu{j}")
                partials[(i - 1, f"mu{j}")] = dmu
                a = a + dmu * mus[j]
        alphas.append(simplify(a))
        if i <= m:
            eps.append(simplify(mus[i - 1] - alphas[-1]))
    ctrl = NominalController(proxy, gains, alphas, partials,
                             ["x", *[f"mu{i}" for i in range(1, m + 1)], "t"])
    if _node_count(ctrl.alphas) > NODE_CAP:
        raise SymbolicSizeError(f"nominal law exceeded {NODE_CAP} nodes")
    return ctrl


# ---------------------------------------------------------------------------
# approximation-free funnel control
# ---------------------------------------------------------------------------

class PpcGains(namedtuple("PpcGains", "ks margin floor")):
    """Per-level gains and the parameters that size the intermediate
    funnels from the initial state (see initialize_funnels)."""

    __slots__ = ()

    def __new__(cls, ks: tuple, margin: float = 1.5, floor: float = 0.1):
        ks = tuple(float(v) for v in ks)
        if not ks or any(v <= 0.0 for v in ks):
            raise ValueError("need positive funnel gains")
        if margin <= 1.0 or floor <= 0.0:
            raise ValueError("margin must exceed 1 and floor must be positive")
        return super().__new__(cls, ks, margin, floor)


def _eta(k: float, xi: float, sign: float, level: int, t: float) -> float:
    if abs(xi) >= 1.0:
        raise FunnelBreach(level, xi, t)
    return -k * sign * math.log((1.0 + xi) / (1.0 - xi))


def ppc_control(gains: PpcGains, funnels, signs, z, mu1: float,
                rho: RhoSpec, t: float):
    """u, normalized coordinates, and per-level outputs at one state.

    The first coordinate normalizes the tracking error by the main
    funnel; each later level chases the previous level's output inside
    its own funnel, of the width `funnels` holds.  The declared
    control-direction signs multiply the log-ratio outputs.
    """
    n = len(gains.ks)
    z = [float(v) for v in z]
    if len(z) != n or len(signs) != n or len(funnels) != n - 1:
        raise ValueError(f"need {n} plant levels and signs and "
                         f"{n - 1} intermediate funnels")
    xis, etas = [], []
    target = float(mu1)
    for i in range(1, n + 1):
        width = rho.value(t) if i == 1 else funnels[i - 2]
        xi = (z[i - 1] - target) / width
        xis.append(xi)
        target = _eta(gains.ks[i - 1], xi, float(signs[i - 1]), i, t)
        etas.append(target)
    return etas[-1], xis, etas


def initialize_funnels(gains: PpcGains, signs, z0, mu1_0: float,
                       rho: RhoSpec) -> tuple:
    """The constant widths rho_2..rho_n of the intermediate funnels,
    sized from the initial state: each is margin times the initial gap
    |z_i - eta_{i-1}| plus the floor, which strictly satisfies the
    required initialization inequality."""
    n = len(gains.ks)
    z0 = [float(v) for v in z0]
    funnels = []
    target = float(mu1_0)
    for i in range(1, n + 1):
        if i == 1:
            width = rho.value(0.0)
        else:
            width = gains.margin * abs(z0[i - 1] - target) + gains.floor
            funnels.append(width)
        xi = (z0[i - 1] - target) / width
        target = _eta(gains.ks[i - 1], xi, float(signs[i - 1]), i, 0.0)
    return tuple(funnels)


# ---------------------------------------------------------------------------
# Nussbaum-gain adaptive control
# ---------------------------------------------------------------------------

class NussbaumGains(namedtuple("NussbaumGains", "gamma1 gamma2 k")):
    __slots__ = ()

    def __new__(cls, gamma1: float, gamma2: float, k: float):
        if gamma1 <= 0.0 or gamma2 < 0.0 or k <= 0.0:
            raise ValueError("need gamma1, k > 0 and gamma2 >= 0")
        return super().__new__(cls, gamma1, gamma2, k)


def nussbaum_gain(zeta: float) -> float:
    """zeta^2 cos(zeta): sign-indefinite with unbounded running averages."""
    return zeta * zeta * math.cos(zeta)


def nussbaum_control(gains: NussbaumGains, zeta: float, theta_hat, e: float,
                     nu: float, rho_t: float, phi, t: float = 0.0):
    """u and the derivatives of the sweep variable zeta and the parameter
    estimate theta_hat (one entry per regressor in phi) at one state.

    The pre-gain input combines error feedback, the safety filter's
    output, and the current parameter-estimate correction; the Nussbaum
    gain modulates it to cope with an unknown control direction.  The
    quadratic barrier weighting 1/(rho^2 - e^2) grows as the error nears
    the funnel and drives both adaptive laws.
    """
    if abs(e) >= rho_t:
        raise BarrierBreach(e, rho_t, t)
    phi = [float(v) for v in phi]
    if len(phi) != len(theta_hat):
        raise ValueError("regressor and estimate lengths differ")
    alpha = gains.k * e - nu + sum(th * p for th, p in zip(theta_hat, phi))
    weight = e / (rho_t * rho_t - e * e)
    u = nussbaum_gain(zeta) * alpha
    dzeta = weight * alpha
    dtheta = [weight * p / gains.gamma1 - gains.gamma2 * th
              for th, p in zip(theta_hat, phi)]
    return u, dzeta, dtheta


# ---------------------------------------------------------------------------
# observer-based backstepping
# ---------------------------------------------------------------------------

class DobBackstepGains(namedtuple("DobBackstepGains", "ks gamma_fs sigmas")):
    """Feedback gains k_i, filter-energy gains, and damping margins.

    sigmas[i] must sit below gamma_fs[i] for i < n; the last sigma must
    sit below the final observer margin kappa_n, which is checked at
    build time when the observer spec is known.
    """

    __slots__ = ()

    def __new__(cls, ks: tuple, gamma_fs: tuple, sigmas: tuple):
        ks = tuple(float(v) for v in ks)
        gfs = tuple(float(v) for v in gamma_fs)
        sigmas = tuple(float(v) for v in sigmas)
        n = len(ks)
        if n < 2:
            raise ValueError("observer backstepping needs at least two levels")
        if len(gfs) != n - 1 or len(sigmas) != n:
            raise ValueError(f"need {n - 1} filter gains and {n} sigmas")
        if any(v <= 0.0 for v in ks + gfs + sigmas):
            raise ValueError("gains must be positive")
        for i, (s, g) in enumerate(zip(sigmas, gfs), start=1):
            if s >= g:
                raise ValueError(f"sigma_{i}={s} must stay below gamma_f_{i}={g}")
        return super().__new__(cls, ks, gfs, sigmas)


class DobBackstepController:
    """Symbolic observer-backstepping law over the full plant chain."""

    def __init__(self, n, taus, u_expr, eps_exprs, partials, params, rho):
        self.n = n
        self.taus = tuple(taus)
        self.u_expr = u_expr
        self.eps_exprs = tuple(eps_exprs)
        self.partials = dict(partials)
        self.params = tuple(params)
        self.rho = rho
        self._fn = None

    def _compiled(self):
        if self._fn is None:
            self._fn = compile_exprs([self.u_expr, *self.eps_exprs],
                                     list(self.params))
        return self._fn


def build_dob_backstepping(fs, gs, proxy: ProxySpec, dob: DobSpec,
                           gains: DobBackstepGains,
                           rho: RhoSpec) -> DobBackstepController:
    """Run the observer-backstepping recursion symbolically.

    fs and gs are the plant level dynamics f_1..f_n, g_1..g_n over the
    variables x, z1..zn.  The first stage shapes the tracking error
    inside the funnel and cancels the deepest filtered estimate; each
    later stage differentiates its predecessor along everything it
    depends on (state, chain, filter stages, time), compensating the
    filter-stage motion exactly and the estimation error by damping.
    A law past NODE_CAP expression nodes raises SymbolicSizeError.
    """
    n = dob.n
    if proxy.m != n:
        raise ValueError(f"chain length m={proxy.m} must equal plant depth n={n}")
    if len(fs) != n or len(gs) != n or len(gains.ks) != n:
        raise ValueError(f"need {n} plant levels and gains")
    if gains.sigmas[-1] >= dob.kappa(n):
        raise ValueError(f"sigma_{n}={gains.sigmas[-1]} must stay below "
                         f"kappa_{n}={dob.kappa(n)}")
    zs = [Var(f"z{i}") for i in range(1, n + 1)]
    mus = [Var(f"mu{i}") for i in range(1, n + 1)]
    allowed = set()
    for i, (f, g) in enumerate(zip(fs, gs), start=1):
        allowed |= {"x"} | {f"z{j}" for j in range(1, i + 1)}
        extra = (f.variables() | g.variables()) - allowed
        if extra:
            raise ValueError(f"level {i} dynamics use {sorted(extra)}")

    def df_var(i, j):
        # stage 0 is the raw estimate feeding level i's filter
        return Var(f"dhat{i}") if j == 0 else Var(f"df{i}_{j}")

    rho_expr = rho.expr()
    rho_sq = simplify(rho_expr * rho_expr)
    rho_dot = differentiate(rho_expr, "t")
    e = simplify(zs[0] - mus[0])
    gap = simplify(rho_sq - e * e)

    eps = [e]
    ks, gfs, sigmas = gains.ks, gains.gamma_fs, gains.sigmas
    tau1 = (rho_dot / rho_expr * e - Const(ks[0]) * e - df_var(1, n - 1)
            - Const(float(n)) * e / (Const(4.0 * (gfs[0] - sigmas[0])) * gap)
            - fs[0] + mus[1]) / gs[0]
    taus = [simplify(tau1)]
    partials = {}

    def stage_core(i):
        """Shared structure of every stage past the first: the filtered-
        estimate feedthrough, damping, and the chain-rule terms."""
        prev = taus[i - 2]
        eps_i = eps[i - 1]
        acc = Const(0.0)
        for j in range(1, i):
            dz = differentiate(prev, f"z{j}")
            partials[(i - 1, f"z{j}")] = dz
            acc = acc + dz * df_var(j, n - j) \
                - Const((n - j + 1) / (4.0 * gfs[j - 1])) * eps_i * dz * dz
        dt_ = differentiate(prev, "t")
        dx_ = differentiate(prev, "x")
        partials[(i - 1, "t")] = dt_
        partials[(i - 1, "x")] = dx_
        nterm = dt_ + dx_ * (proxy.f0 + proxy.g0 * zs[0])
        for j in range(1, i):
            dz = partials[(i - 1, f"z{j}")]
            nterm = nterm + dz * (fs[j - 1] + gs[j - 1] * zs[j])
        for j in range(1, i + 1):
            dmu = differentiate(prev, f"mu{j}")
            partials[(i - 1, f"mu{j}")] = dmu
            nxt = Var("nu") if j == n else mus[j]
            nterm = nterm + dmu * nxt
        for j in range(1, i):
            for mm in range(j, i):
                dfp = differentiate(prev, f"df{j}_{n - mm}")
                partials[(i - 1, f"df{j}_{n - mm}")] = dfp
                nterm = nterm - dfp * Const(dob.time_constants[j - 1][n - mm - 1]) \
                    * (df_var(j, n - mm) - df_var(j, n - mm - 1))
        return acc, nterm, eps_i

    # stage n is the control u: its damping margin is the observer's
    # kappa_n, and df_var(n, 0) is the raw estimate dhat_n
    for i in range(2, n + 1):
        eps.append(simplify(zs[i - 1] - taus[i - 2]))
        acc, nterm, eps_i = stage_core(i)
        l_i = eps[i - 2] if i >= 3 else e / gap
        margin = gfs[i - 1] if i < n else dob.kappa(n)
        tau_i = (acc - df_var(i, n - i) - fs[i - 1]
                 - Const((n - i + 1) / (4.0 * (margin - sigmas[i - 1]))) * eps_i
                 - Const(ks[i - 1]) * eps_i - gs[i - 2] * l_i + nterm) / gs[i - 1]
        taus.append(simplify(tau_i))
        if i < n and _node_count(taus) > NODE_CAP:
            raise SymbolicSizeError(f"observer-backstepping stage {i} "
                                    f"exceeded {NODE_CAP} nodes")
    u = taus.pop()

    params = ["x", *[f"z{i}" for i in range(1, n + 1)],
              *[f"mu{i}" for i in range(1, n + 1)], "nu",
              *[f"dhat{i}" for i in range(1, n + 1)],
              *[f"df{i}_{j}" for i in range(1, n) for j in range(1, n - i + 1)],
              "t"]
    ctrl = DobBackstepController(n, taus, u, eps, partials, params, rho)
    if _node_count([u, *taus]) > NODE_CAP:
        raise SymbolicSizeError(
            f"observer-backstepping law exceeded {NODE_CAP} nodes")
    return ctrl


def eval_dob_backstepping(ctrl: DobBackstepController, x, z, mu, nu: float,
                          d_hat, d_f, t: float):
    """Numeric (u, [eps_1..eps_n]) at one full closed-loop state; d_f
    holds the filter stages in the order of `filter_derivative`."""
    n = ctrl.n
    z = [float(v) for v in z]
    mu = [float(v) for v in mu]
    if len(z) != n or len(mu) != n:
        raise ValueError(f"need {n} plant levels and chain states")
    e = z[0] - mu[0]
    rho_t = ctrl.rho.value(t)
    if abs(e) >= rho_t:
        raise BarrierBreach(e, rho_t, t)
    out = ctrl._compiled()(float(x), *z, *mu, float(nu),
                           *d_hat, *d_f, float(t))
    return out[0], list(out[1:])
