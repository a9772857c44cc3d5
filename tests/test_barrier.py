"""Barrier-stack tests.

Covers, in order:

1. the switch function chi: fixed values, saturation, monotonicity,
   continuity at the switch point, and agreement of each derivative
   order with finite differences of the previous one;
2. validation and evaluation of RhoSpec and ProxySpec;
3. closed-form oracles for the constructed chain: the hand-expanded
   b_1 and psi1 for a scalar quadratic-h model, a fully hand-expanded
   psi0 for m=1, and the plain-mode m=1 chain;
4. structural identities for m=2: the time-only part of each b_i is
   independent of state and virtual chain and matches an iterated
   (d/dt + lambda) application computed analytically in the test, and
   the y0-coefficient equals the product of the lambdas;
5. the three feasibility condition checks, including the exact budget
   margin, a budget that never passes on an overflowed value or an
   underflowed bound, the vanishing-gradient condition proven by
   bisection (at the root cell and near a vanishing point), falsified at
   a witness, and left inconclusive past the cell budget, and
   initial-state failures;
6. evaluation plumbing: y binding, saturation deep inside the safe
   set, argument validation.

Oracles are hand-derived in this file; the only module code they share
with the implementation under test is chi itself, whose values are
pinned independently in group 1.
"""

import math
import random

import pytest

from proxysafe import expr as expr_mod
from proxysafe.barrier import (
    BarrierStack, ConditionReport, ProxySpec, RhoSpec, build_barrier_stack,
    check_conditions, chi, rho_budget,
)
from proxysafe.expr import Const, DomainError, compile_expr, differentiate, parse

SEED = 20260822

XI_SHIP = math.pi ** 2 / 81


def ship_proxy(mode="switched"):
    return ProxySpec(
        m=1, f0=Const(0.0), g0=Const(1.0),
        h=parse("pi^2/81 - x^2"), xi=XI_SHIP,
        lambdas=(6.0, 1.0), betas=(20.0,), mode=mode)


def chain_proxy(m=2, h="x + 0.5", xi=0.1, lambdas=(10.0, 10.0, 15.0),
                betas=(0.05, 0.05), mode="switched"):
    return ProxySpec(m=m, f0=Const(0.0), g0=Const(1.0),
                     h=parse(h), xi=xi, lambdas=lambdas, betas=betas, mode=mode)


# ═══════════════════════════════════════════════════════════════════
# 1. the switch function
# ═══════════════════════════════════════════════════════════════════

def test_chi_fixed_values():
    assert chi(0.0) == 0.0
    assert chi(1.0) == 1.0
    assert chi(1.5) == 1.0
    assert chi(25.0) == 1.0
    assert abs(chi(0.5) - (1.0 - math.exp(-1.0))) <= 1e-15
    # first derivative: exp(tau/(tau-1)) / (tau-1)^2 at tau = 0.5
    assert abs(chi(0.5, 1) - math.exp(-1.0) / 0.25) <= 1e-15
    for k in range(1, 6):
        assert chi(1.0, k) == 0.0
        assert chi(2.0, k) == 0.0


def test_chi_monotone_below_one():
    # strictness is checked only up to the point where 1 - exp(...) is
    # still distinguishable from 1 in doubles (tau around 0.97)
    grid = [-3.0 + 3.97 * i / 9999 for i in range(10000)]
    vals = [chi(t) for t in grid]
    for a, b in zip(vals, vals[1:]):
        assert b > a
    assert all(chi(t, 1) > 0.0 for t in grid)
    for i in range(100):
        tau = 0.97 + 0.03 * i / 99
        assert chi(tau) <= 1.0 and chi(tau) >= vals[-1]


def test_chi_continuous_at_switch():
    assert abs(chi(1.0 - 1e-6) - 1.0) <= 1e-9
    for k in range(5):
        low = chi(1.0 - 1e-9, k)
        high = chi(1.0 + 1e-9, k)
        assert abs(low - high) <= 1e-9


def test_chi_saturation_guard():
    # inside the guard band the saturated branch is returned verbatim
    assert chi(1.0 - 1e-13) == 1.0
    assert chi(1.0 - 1e-13, 3) == 0.0
    # just outside it, values are finite and already pinned to the branch
    v = chi(1.0 - 1e-11, 4)
    assert math.isfinite(v) and abs(v) <= 1e-9


def test_chi_derivatives_match_finite_differences():
    rng = random.Random(SEED)
    step = 1e-6
    for k in range(1, 5):
        for _ in range(200):
            tau = rng.uniform(-2.0, 0.9)
            fd = (chi(tau + step, k - 1) - chi(tau - step, k - 1)) / (2 * step)
            sym = chi(tau, k)
            assert abs(fd - sym) <= 1e-5 * (1.0 + abs(sym))


def test_chi_rejects_bad_order():
    with pytest.raises(ValueError):
        chi(0.5, -1)
    with pytest.raises(ValueError):
        chi(0.5, 13)


# ═══════════════════════════════════════════════════════════════════
# 2. specification objects
# ═══════════════════════════════════════════════════════════════════

def test_rho_spec_validation():
    with pytest.raises(ValueError):
        RhoSpec(0.1, 0.2, 1.0)          # rho0 < rho_inf
    with pytest.raises(ValueError):
        RhoSpec(0.1, 0.0, 1.0)          # rho_inf must stay positive
    with pytest.raises(ValueError):
        RhoSpec(0.1, 0.05, -1.0)


def rho_dot(rho, t):
    """d rho/dt of the exponential funnel, by hand."""
    return -rho.decay * (rho.rho0 - rho.rho_inf) * math.exp(-rho.decay * t)


def test_rho_spec_value_derivative_expr_agree():
    """value, expr and the symbolic derivative of expr, which the
    builders consume, agree with each other, with finite differences and
    with rho_dot, for a decaying and two constant funnels."""
    for rho in (RhoSpec(0.85, 0.05, 10.0), RhoSpec(0.02, 0.02),
                RhoSpec(0.8, 0.8, 3.0)):
        fn = compile_expr(rho.expr(), ["t"])
        dfn = compile_expr(differentiate(rho.expr(), "t"), ["t"])
        for i in range(200):
            t = 3.0 * i / 199
            assert abs(fn(t) - rho.value(t)) <= 1e-15
            fd = (rho.value(t + 1e-7) - rho.value(t - 1e-7)) / 2e-7
            assert abs(fd - dfn(t)) <= 1e-6 * (1.0 + abs(fd))
            assert abs(dfn(t) - rho_dot(rho, t)) <= \
                1e-15 * (1.0 + abs(dfn(t)))


def test_proxy_spec_validation():
    good = dict(m=1, f0=Const(0.0), g0=Const(1.0),
                h=parse("1 - x^2"), xi=0.5, lambdas=(1.0, 1.0), betas=(1.0,))
    ProxySpec(**good)
    with pytest.raises(ValueError):
        ProxySpec(**{**good, "lambdas": (1.0,)})
    with pytest.raises(ValueError):
        ProxySpec(**{**good, "betas": (-1.0,)})
    with pytest.raises(ValueError):
        ProxySpec(**{**good, "xi": 0.0})
    with pytest.raises(ValueError):
        ProxySpec(**{**good, "mode": "auto"})
    with pytest.raises(ValueError):
        ProxySpec(**{**good, "h": parse("1 - q^2")})
    with pytest.raises(ValueError):
        ProxySpec(**{**good, "f0": parse("mu1")})


# ═══════════════════════════════════════════════════════════════════
# 3. closed-form oracles for the constructed chain
# ═══════════════════════════════════════════════════════════════════

def hand_b1_ship(x, mu1, t, rho):
    """b_1 for the quadratic-h scalar model, expanded by hand.

    With f0 = 0 and g0 = 1 the drift term reduces to the h-gradient
    times mu1 scaled by y1/xi, the quadratic correction carries the
    squared gradient, and the remainder is lambda1 y0 minus the funnel
    term.
    """
    lg = -2.0 * x
    tau = (math.pi ** 2 / 81 - x * x) / XI_SHIP
    y0, y1 = chi(tau), chi(tau, 1)
    return (lg * mu1) * y1 / XI_SHIP \
        - lg * lg * y1 * y1 / (2.0 * 20.0 * XI_SHIP ** 2) \
        + 6.0 * y0 - 10.0 * rho.value(t) ** 2


def test_b1_matches_hand_expansion():
    rho = RhoSpec(0.02, 0.02)
    stack = build_barrier_stack(ship_proxy(), rho)
    rng = random.Random(SEED)
    worst = 0.0
    for _ in range(100):
        x = rng.uniform(-0.34, 0.34)
        mu1 = rng.uniform(-2.0, 2.0)
        t = rng.uniform(0.0, 10.0)
        got = stack.eval_barriers(x, [mu1], t)[1]
        want = hand_b1_ship(x, mu1, t, rho)
        worst = max(worst, abs(got - want))
    print(f"\n  b1 closed-form worst abs error: {worst:.3e}")
    assert worst <= 1e-12


def test_psi1_identity_scalar_quadratic_h():
    # psi1 must equal (y1/xi) * (dh/dx) g0 for any chain length
    stack = build_barrier_stack(ship_proxy(), RhoSpec(0.02, 0.02))
    rng = random.Random(SEED + 1)
    worst = 0.0
    for _ in range(1000):
        x = rng.uniform(-0.349, 0.349)
        mu1 = rng.uniform(-2.0, 2.0)
        t = rng.uniform(0.0, 10.0)
        _, psi1 = stack.eval_constraint(x, [mu1], t)
        tau = (math.pi ** 2 / 81 - x * x) / XI_SHIP
        want = chi(tau, 1) / XI_SHIP * (-2.0 * x)
        worst = max(worst, abs(psi1 - want))
    print(f"\n  psi1 identity worst abs error: {worst:.3e}")
    assert worst <= 1e-12


def test_psi1_identity_two_level_chain():
    stack = build_barrier_stack(chain_proxy(), RhoSpec(0.85, 0.05, 10.0))
    rng = random.Random(SEED + 2)
    worst = 0.0
    for _ in range(1000):
        x = rng.uniform(-0.49, 0.6)
        mu = [rng.uniform(-2.0, 2.0), rng.uniform(-2.0, 2.0)]
        t = rng.uniform(0.0, 3.0)
        _, psi1 = stack.eval_constraint(x, mu, t)
        want = chi((x + 0.5) / 0.1, 1) / 0.1
        worst = max(worst, abs(psi1 - want))
    assert worst <= 1e-12


def hand_constraint_ship_m1(x, mu1, t, rho, beta=20.0, lam1=6.0, lam2=1.0):
    """(psi0, psi1) for the m=1 quadratic-h model, expanded by hand.

    Derived by differentiating the hand b_1 directly: the extra row is
    (1/xi)[(db1/dy0) lg y1 + (db1/dy1) lg y2] + db1/dx, and psi0 stacks
    the time derivative, that row times the drift, lambda2 b1, and the
    funnel back-off.
    """
    xi = XI_SHIP
    lg = -2.0 * x
    tau = (math.pi ** 2 / 81 - x * x) / xi
    y0, y1, y2 = chi(tau), chi(tau, 1), chi(tau, 2)
    rho_t, drho_t = rho.value(t), rho_dot(rho, t)
    b1 = (lg * mu1) * y1 / xi - lg * lg * y1 * y1 / (2 * beta * xi * xi) \
        + lam1 * y0 - (beta / 2) * rho_t ** 2
    db1_dy1 = lg * mu1 / xi - lg * lg * y1 / (beta * xi * xi)
    db1_dx = -2.0 * mu1 * y1 / xi - 8.0 * x * y1 * y1 / (2 * beta * xi * xi)
    m2 = (lam1 * lg * y1 + db1_dy1 * lg * y2) / xi + db1_dx
    db1_dt = -beta * rho_t * drho_t
    psi0 = db1_dt + m2 * mu1 + lam2 * b1 - abs(m2) * rho_t
    psi1 = lg * y1 / xi
    return psi0, psi1


@pytest.mark.parametrize("rho", [RhoSpec(0.02, 0.02), RhoSpec(0.1, 0.02, 3.0)])
def test_constraint_matches_hand_expansion(rho):
    stack = build_barrier_stack(ship_proxy(), rho)
    rng = random.Random(SEED + 3)
    pts = [(0.1, 0.05, 0.0)] + [
        (rng.uniform(-0.34, 0.34), rng.uniform(-2.0, 2.0), rng.uniform(0.0, 5.0))
        for _ in range(100)]
    for x, mu1, t in pts:
        p0, p1 = stack.eval_constraint(x, [mu1], t)
        w0, w1 = hand_constraint_ship_m1(x, mu1, t, rho)
        assert abs(p0 - w0) <= 1e-9 * (1.0 + abs(w0))
        assert abs(p1 - w1) <= 1e-12


def test_plain_mode_linear_h():
    # linear h with unit slope and constant g0: everything collapses
    proxy = chain_proxy(m=1, h="x + 0.5", xi=0.1, lambdas=(4.0, 2.0),
                        betas=(0.5,), mode="plain")
    rho = RhoSpec(0.3, 0.3)
    stack = build_barrier_stack(proxy, rho)
    assert stack.y_vars == []
    rng = random.Random(SEED + 4)
    for _ in range(100):
        x = rng.uniform(-0.4, 1.0)
        mu1 = rng.uniform(-2.0, 2.0)
        t = rng.uniform(0.0, 5.0)
        b1 = mu1 - 1.0 / (2 * 0.5) - (0.5 / 2) * 0.09 + 4.0 * (x + 0.5)
        got = stack.eval_barriers(x, [mu1], t)
        assert got[0] == pytest.approx(x + 0.5, abs=1e-12)
        assert abs(got[1] - b1) <= 1e-12
        p0, p1 = stack.eval_constraint(x, [mu1], t)
        # the extra row is db1/dx = lambda1; no time dependence
        w0 = 4.0 * mu1 + 2.0 * b1 - 4.0 * 0.3
        assert abs(p0 - w0) <= 1e-12
        assert p1 == 1.0


# ═══════════════════════════════════════════════════════════════════
# 4. structural identities along the chain
# ═══════════════════════════════════════════════════════════════════

def applied_funnel_budget(rho, lambdas, betas, t):
    """sum_j (beta_{j-1}/2) (d/dt+lam_j)...(d/dt+lam_top) rho^2 at t.

    Computed on the exponential coefficient triple (A, B, C) of rho^2,
    on which d/dt acts diagonally; independent of the module's budget
    code, which only ever evaluates the supremum.
    """
    a = rho.decay
    d0 = rho.rho0 - rho.rho_inf
    total = 0.0
    top = len(lambdas)
    for j in range(2, top + 1):
        A, B, C = d0 * d0, 2.0 * d0 * rho.rho_inf, rho.rho_inf ** 2
        A, B, C = (v * betas[j - 2] / 2.0 for v in (A, B, C))
        for l in range(j, top + 1):
            lam = lambdas[l - 1]
            A, B, C = A * (lam - 2 * a), B * (lam - a), C * lam
        total += A * math.exp(-2 * a * t) + B * math.exp(-a * t) + C
    return total


def test_time_only_part_is_state_independent():
    lambdas, betas = (10.0, 10.0, 15.0), (0.05, 0.05)
    rho = RhoSpec(0.85, 0.05, 10.0)
    stack = build_barrier_stack(chain_proxy(), rho)
    from proxysafe.expr import compile_exprs
    fn = compile_exprs(list(stack.b), ["x", *stack.mu_vars, *stack.y_vars,
                                      "t"])
    rng = random.Random(SEED + 5)
    for t in (0.0, 0.37, 1.2, 4.0):
        per_level = [[] for _ in stack.b]
        for _ in range(50):
            x = rng.uniform(-5.0, 5.0)
            mu = [rng.uniform(-5.0, 5.0) for _ in range(2)]
            vals = fn(x, *mu, 0.0, 0.0, 0.0, 0.0, t)
            for lvl, v in enumerate(vals):
                per_level[lvl].append(v)
        for lvl, vals in enumerate(per_level):
            assert max(vals) - min(vals) <= 1e-12
        # each level's constant is its own funnel term plus the
        # truncated iterated budget from the levels below it
        for i in (1, 2):
            want = -(betas[i - 1] / 2.0) * rho.value(t) ** 2 \
                - applied_funnel_budget(rho, lambdas[:i], betas[:i], t)
            assert abs(per_level[i][0] - want) <= 1e-10 * (1.0 + abs(want))


def test_y0_coefficient_is_lambda_product():
    stack = build_barrier_stack(chain_proxy(), RhoSpec(0.85, 0.05, 10.0))
    from proxysafe.expr import compile_exprs
    fn = compile_exprs(list(stack.b), ["x", *stack.mu_vars, *stack.y_vars,
                                      "t"])
    base = fn(0.3, 0.1, -0.2, 0.0, 0.0, 0.0, 0.0, 0.5)
    lifted = fn(0.3, 0.1, -0.2, 1.0, 0.0, 0.0, 0.0, 0.5)
    assert abs((lifted[1] - base[1]) - 10.0) <= 1e-12
    assert abs((lifted[2] - base[2]) - 100.0) <= 1e-12


def test_b0_is_the_switched_margin():
    stack = build_barrier_stack(ship_proxy(), RhoSpec(0.02, 0.02))
    vals = stack.eval_barriers(0.2, [0.0], 0.0)
    tau = (math.pi ** 2 / 81 - 0.04) / XI_SHIP
    assert vals[0] == pytest.approx(chi(tau), abs=1e-15)


# ═══════════════════════════════════════════════════════════════════
# 5. feasibility condition checks
# ═══════════════════════════════════════════════════════════════════

SHIP_BOX = (-0.3490, 0.3490)


def test_budget_margin_exact():
    bd = rho_budget(ship_proxy(), RhoSpec(0.02, 0.02))
    assert abs(bd["value"] - 0.004) <= 1e-15
    assert abs(bd["bound"] - 6.0) <= 1e-15
    assert abs(bd["margin"] - 5.996) <= 1e-12


def test_budget_rejects_wide_constant_funnel():
    stack = build_barrier_stack(ship_proxy(), RhoSpec(10.0, 10.0))
    rep = check_conditions(stack, 0.0, 0.0, box=SHIP_BOX)
    assert rep.budget_check.verdict == "fail"
    assert abs(rep.budget_check.data["value"] - 1000.0) <= 1e-9
    assert not rep.ok


def test_budget_decaying_funnel():
    # hand evaluation of the three-lambda budget for the decaying funnel:
    # A=0.64, B=0.08, C=0.0025, a=10 gives 0.8 + 0 + 0.009375 at j=2 and
    # -0.08 (clipped), 0.01, 0.0009375 at j=3, so the bound is 0.7403125
    bd = rho_budget(chain_proxy(), RhoSpec(0.85, 0.05, 10.0))
    assert abs(bd["value"] - 0.7403125) <= 1e-12
    assert abs(bd["bound"] - 1500.0) <= 1e-12


@pytest.mark.parametrize("lambdas, betas, verdict, cause", [
    # about 1e320 against 1e310 in exact arithmetic: both overflow to inf
    ((1e10, 1e300), (5e23,), "fail", ": the budget overflows"),
    # 4e-203 against 1e-400, which underflows to 0
    ((1e-200, 1e-200), (20.0,), "fail", ": the bound underflows to 0"),
    # 4e197 stays finite under a bound of 1e400, which overflows
    ((1e200, 1e200), (20.0,), "pass", ""),
], ids=["value overflow", "bound underflow", "bound overflow"])
def test_budget_never_passes_on_an_overflow(lambdas, betas, verdict, cause):
    proxy = ProxySpec(m=1, f0=Const(0.0), g0=Const(1.0),
                      h=parse("pi^2/81 - x^2"), xi=XI_SHIP,
                      lambdas=lambdas, betas=betas)
    stack = build_barrier_stack(proxy, RhoSpec(0.02, 0.02))
    check = check_conditions(stack, 0.0, 0.0, box=SHIP_BOX).budget_check
    bd = check.data
    assert check.verdict == verdict
    assert check.detail == (f"sup budget {bd['value']:.6g} vs bound "
                            f"{bd['bound']:.6g} (margin {bd['margin']:.6g})"
                            + cause)


def test_gradient_condition_proven_near_the_vanishing_point():
    # the gradient of pi^2/81 - x^2 vanishes at 0, where h = xi exactly:
    # only cells narrow enough for h >= xi - H_SLACK discharge there
    stack = build_barrier_stack(ship_proxy(), RhoSpec(0.02, 0.02))
    rep = check_conditions(stack, 0.0, 0.0, box=SHIP_BOX)
    data = rep.grad_check.data
    assert rep.grad_check.verdict == "pass"
    assert data["undecided_width"] == 0.0
    # halving 0.349 to below sqrt(H_SLACK) takes 14 levels
    assert data["depth"] >= 14 and 1 < data["cells"] <= 100
    assert rep.ok


def test_gradient_condition_proven_up_to_a_domain_edge():
    # x + 0.5 is exactly 0 at the left end of the box: that bound is not
    # rounded below 0, so sqrt is not flagged and the cells at the edge,
    # outside the safe set, discharge
    proxy = chain_proxy(m=1, h="sqrt(x + 0.5) - 0.1", xi=0.3,
                        lambdas=(1.0, 1.0), betas=(1.0,))
    stack = build_barrier_stack(proxy, RhoSpec(0.1, 0.1))
    rep = check_conditions(stack, 0.0, 0.0, box=(-0.5, 0.3))
    assert rep.grad_check.verdict == "pass"
    assert rep.grad_check.data["undecided_width"] == 0.0


def test_gradient_condition_falsified():
    # h = 0.5 + sin(x): gradient vanishes at pi/2 where h = 1.5 < xi = 2
    proxy = chain_proxy(m=1, h="0.5 + sin(x)", xi=2.0, lambdas=(1.0, 1.0),
                        betas=(1.0,))
    stack = build_barrier_stack(proxy, RhoSpec(0.1, 0.1))
    rep = check_conditions(stack, 0.0, 0.0, box=(0.0, 3.0))
    assert rep.grad_check.verdict == "falsified"
    assert abs(rep.grad_check.data["witness"][0] - math.pi / 2) <= 1e-3
    assert not rep.ok


def test_gradient_condition_proven_at_the_root_when_nonvanishing():
    # L_g0 h = 1 everywhere: the whole box discharges in one cell
    stack = build_barrier_stack(chain_proxy(), RhoSpec(0.85, 0.05, 10.0))
    rep = check_conditions(stack, 0.0, 0.0, box=(-0.49, 1.0))
    assert rep.grad_check.verdict == "pass"
    assert rep.grad_check.data == {"cells": 1, "depth": 0,
                                   "undecided_width": 0.0}
    assert rep.grad_check.ok and rep.ok


def test_gradient_condition_inconclusive_past_the_cell_budget(monkeypatch):
    monkeypatch.setattr(expr_mod, "CELL_BUDGET", 5)
    stack = build_barrier_stack(ship_proxy(), RhoSpec(0.02, 0.02))
    rep = check_conditions(stack, 0.0, 0.0, box=SHIP_BOX)
    data = rep.grad_check.data
    assert rep.grad_check.verdict == "inconclusive-pass"
    assert data["cells"] == 5
    # what is left undecided lies around the vanishing point at 0
    assert 0.0 < data["undecided_width"] < 2 * SHIP_BOX[1]
    assert rep.grad_check.ok


def test_gradient_condition_finds_a_witness_on_a_vanishing_g0():
    # g0 = x: L_g0 h vanishes at 0, where h = 0.5 < xi = 1
    proxy = ProxySpec(m=1, f0=Const(0.0), g0=parse("x"), h=parse("x + 0.5"),
                      xi=1.0, lambdas=(1.0, 1.0), betas=(1.0,))
    stack = build_barrier_stack(proxy, RhoSpec(0.1, 0.1))
    rep = check_conditions(stack, 0.0, 0.0, box=(-0.25, 0.25))
    assert rep.grad_check.verdict == "falsified"
    assert rep.grad_check.data["witness"] == [0.0]
    assert rep.grad_check.data["h"] == 0.5


def test_gradient_condition_names_a_failing_subexpression():
    # sqrt(x) - 1 is undefined on the negative half of the box: the
    # enclosure is flagged, and a midpoint there fails to evaluate
    proxy = chain_proxy(m=1, h="sqrt(x) - 1", xi=0.5, lambdas=(1.0, 1.0),
                        betas=(1.0,))
    stack = build_barrier_stack(proxy, RhoSpec(0.1, 0.1))
    with pytest.raises(DomainError, match=r"sqrt of a negative value in "
                                          r"'sqrt\(x\)'"):
        check_conditions(stack, 1.0, 0.0, box=(-1.0, 1.0))


def test_initial_positivity_cases():
    stack = build_barrier_stack(ship_proxy(), RhoSpec(0.02, 0.02))
    good = check_conditions(stack, 0.0, 0.0, box=SHIP_BOX)
    assert good.init_check.verdict == "pass"
    assert good.init_check.data["y0"] == 1.0
    assert abs(good.init_check.data["b"][1] - 5.996) <= 1e-12

    # inside the safe set but so close to its edge that the chain dips
    near_edge = check_conditions(stack, 0.34, 0.0, box=SHIP_BOX)
    assert near_edge.init_check.verdict == "fail"
    assert near_edge.init_check.data["y0"] > 0.0
    assert near_edge.init_check.data["b"][1] < 0.0
    assert not near_edge.ok

    # outside the safe set entirely: the switched margin itself goes bad
    outside = check_conditions(stack, 0.36, 0.0, box=SHIP_BOX)
    assert outside.init_check.verdict == "fail"
    assert outside.init_check.data["y0"] < 0.0


def test_plain_mode_skips_global_checks():
    proxy = chain_proxy(m=1, h="x + 0.5", xi=0.1, lambdas=(4.0, 2.0),
                        betas=(0.5,), mode="plain")
    stack = build_barrier_stack(proxy, RhoSpec(0.3, 0.3))
    rep = check_conditions(stack, 0.5, 0.0)
    assert rep.grad_check.verdict == "skipped"
    assert rep.budget_check.verdict == "skipped"
    assert rep.init_check.verdict == "pass"
    assert rep.ok


def test_switched_mode_requires_box():
    stack = build_barrier_stack(ship_proxy(), RhoSpec(0.02, 0.02))
    with pytest.raises(ValueError):
        check_conditions(stack, 0.0, 0.0, box=None)


def test_report_lines_are_printable():
    stack = build_barrier_stack(ship_proxy(), RhoSpec(0.02, 0.02))
    rep = check_conditions(stack, 0.0, 0.0, box=SHIP_BOX)
    lines = rep.lines()
    assert len(lines) == 3
    assert all(isinstance(ln, str) and ln for ln in lines)


# ═══════════════════════════════════════════════════════════════════
# 6. evaluation plumbing
# ═══════════════════════════════════════════════════════════════════

def test_constraint_saturates_at_safe_center():
    stack = build_barrier_stack(ship_proxy(), RhoSpec(0.02, 0.02))
    p0, p1 = stack.eval_constraint(0.0, [0.0], 0.0)
    assert p1 == 0.0
    assert abs(p0 - 5.996) <= 1e-12


def test_constraint_saturates_deep_inside():
    stack = build_barrier_stack(chain_proxy(), RhoSpec(0.85, 0.05, 10.0))
    p0, p1 = stack.eval_constraint(0.2, [0.0, 0.0], 0.0)
    assert p1 == 0.0
    assert p0 > 0.0


def test_mu_argument_forms():
    stack = build_barrier_stack(chain_proxy(), RhoSpec(0.85, 0.05, 10.0))
    psi0, psi1 = stack.eval_constraint(0.1, [0.3, -0.2], 1.0)
    assert isinstance(psi0, float) and isinstance(psi1, float)
    with pytest.raises(ValueError):
        stack.eval_constraint(0.1, [0.3], 1.0)
