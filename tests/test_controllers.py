"""Tests for the four control laws.

The symbolic controllers are checked against fully hand-expanded
transcriptions of the same recursions, written independently of the
builders, plus central finite differences for every partial derivative
the recursions consume.
"""

import math
import random

import pytest

from proxysafe import controllers as controllers_mod
from proxysafe.barrier import ProxySpec, RhoSpec
from proxysafe.controllers import (
    BarrierBreach, DobBackstepGains, FunnelBreach, NominalGains,
    NussbaumGains, PpcGains, SingularGain, SymbolicSizeError,
    build_dob_backstepping, build_nominal, eval_dob_backstepping,
    initialize_funnels, nussbaum_control, nussbaum_gain,
    ppc_control,
)
from proxysafe.dob import DobSpec
from proxysafe.expr import compile_expr, parse

SEED = 20260822

# vessel heading chain: scalar proxy, one integrator, sinusoidal reference
SHIP_AMP = math.pi / 6
SHIP_FREQ = 0.02

# motor-driven mechanism parameters (placeholder values, documented in the
# scenario): inertia, damping, gravity torque, inductance, resistance, emf
M0, B0, N0 = 0.0640, 0.0160, 0.0400
LM, RM, KB = 0.0250, 5.0000, 0.9000


def ship_proxy():
    return ProxySpec(m=1, f0=parse("0"), g0=parse("1"),
                     h=parse("pi^2/81 - x^2"), xi=math.pi ** 2 / 81,
                     lambdas=(6.0, 1.0), betas=(20.0,), mode="switched")


def ship_gains():
    return NominalGains(ks=(1.0, 1.0), cs=(1.0, 1.0),
                        x_d=parse("(pi/6) * sin(0.02 * t)"))


def motor_parts():
    proxy = ProxySpec(m=2, f0=parse("0"), g0=parse("1"),
                      h=parse("x + 0.5"), xi=0.1,
                      lambdas=(10.0, 10.0, 15.0), betas=(0.05, 0.05),
                      mode="switched")
    fs = [parse(f"-( {B0} * z1 + {N0} * sin(x) ) / {M0}"),
          parse(f"-( {KB} * z1 + {RM} * z2 ) / {LM}")]
    gs = [parse(f"1 / {M0}"), parse(f"1 / {LM}")]
    dob = DobSpec(alphas=(30.0, 30.0), nus=(1.0, 1.0),
                  time_constants=((100.0,),))
    gains = DobBackstepGains(ks=(10.0, 10.0), gamma_fs=(50.0,),
                             sigmas=(15.0, 15.0))
    rho = RhoSpec(0.85, 0.05, 10.0)
    return proxy, fs, gs, dob, gains, rho


def fd_partial(fn, args, idx, h=None):
    """Central finite difference of compiled fn in argument idx."""
    v = args[idx]
    step = h if h is not None else 1e-6 * (1.0 + abs(v))
    hi = list(args)
    lo = list(args)
    hi[idx] = v + step
    lo[idx] = v - step
    return (fn(*hi) - fn(*lo)) / (2.0 * step)


# ---------------------------------------------------------------------------
# gain validation
# ---------------------------------------------------------------------------

def test_nominal_gains_validation():
    xd = parse("sin(t)")
    with pytest.raises(ValueError):
        NominalGains(ks=(0.0, 1.0), cs=(1.0, 1.0), x_d=xd)
    with pytest.raises(ValueError):
        NominalGains(ks=(1.0,), cs=(1.0, 1.0), x_d=xd)
    with pytest.raises(ValueError):
        NominalGains(ks=(), cs=(), x_d=xd)
    with pytest.raises(ValueError):
        NominalGains(ks=(1.0,), cs=(1.0,), x_d=parse("x + t"))


def test_nominal_build_rejects_wrong_gain_count():
    with pytest.raises(ValueError):
        build_nominal(ship_proxy(), NominalGains(ks=(1.0,), cs=(1.0,),
                                                 x_d=parse("0")))


def test_ppc_gains_validation():
    with pytest.raises(ValueError):
        PpcGains(ks=())
    with pytest.raises(ValueError):
        PpcGains(ks=(1.0, -1.0))
    with pytest.raises(ValueError):
        PpcGains(ks=(1.0,), margin=1.0)
    with pytest.raises(ValueError):
        PpcGains(ks=(1.0,), floor=0.0)


def test_nussbaum_gains_validation():
    with pytest.raises(ValueError):
        NussbaumGains(gamma1=0.0, gamma2=2.0, k=2.0)
    with pytest.raises(ValueError):
        NussbaumGains(gamma1=10.0, gamma2=-1.0, k=2.0)
    with pytest.raises(ValueError):
        NussbaumGains(gamma1=10.0, gamma2=2.0, k=0.0)


def test_dob_gains_validation():
    with pytest.raises(ValueError):
        DobBackstepGains(ks=(1.0,), gamma_fs=(), sigmas=(0.5,))
    with pytest.raises(ValueError):
        DobBackstepGains(ks=(1.0, 1.0), gamma_fs=(2.0,), sigmas=(3.0, 0.5))
    with pytest.raises(ValueError):
        DobBackstepGains(ks=(1.0, 1.0), gamma_fs=(2.0, 2.0), sigmas=(0.5, 0.5))
    with pytest.raises(ValueError):
        DobBackstepGains(ks=(1.0, -1.0), gamma_fs=(2.0,), sigmas=(0.5, 0.5))


def test_dob_build_rejects_bad_setups():
    proxy, fs, gs, dob, gains, rho = motor_parts()
    # last damping margin must stay below the final observer margin
    bad = DobBackstepGains(ks=(10.0, 10.0), gamma_fs=(50.0,),
                           sigmas=(15.0, 29.5))
    with pytest.raises(ValueError, match="kappa"):
        build_dob_backstepping(fs, gs, proxy, dob, bad, rho)
    # chain length must match plant depth
    short = ProxySpec(m=1, f0=parse("0"), g0=parse("1"),
                      h=parse("x + 0.5"), xi=0.1,
                      lambdas=(10.0, 15.0), betas=(0.05,), mode="switched")
    with pytest.raises(ValueError, match="depth"):
        build_dob_backstepping(fs, gs, short, dob, gains, rho)
    # level dynamics may only see the state up to their own depth
    with pytest.raises(ValueError, match="level 1"):
        build_dob_backstepping([parse("z2"), fs[1]], gs, proxy, dob, gains, rho)


# ---------------------------------------------------------------------------
# nominal tracking law
# ---------------------------------------------------------------------------

def test_nominal_first_stage_vanishes_on_reference():
    proxy = ship_proxy()
    gains = NominalGains(ks=(1.0, 1.0), cs=(1.0, 1.0), x_d=parse("0.2"))
    ctrl = build_nominal(proxy, gains)
    alpha1 = compile_expr(ctrl.alphas[0], ["x", "t"])
    assert alpha1(0.2, 3.7) == 0.0


def test_nominal_ship_example_point():
    ctrl = build_nominal(ship_proxy(), ship_gains())
    alpha1 = compile_expr(ctrl.alphas[0], ["x", "t"])
    assert abs(alpha1(0.0, 0.0) - math.pi / 300) <= 1e-15
    got = ctrl.control(0.0, [0.0], 0.0)
    assert abs(got - 29 * math.pi / 2400) <= 1e-15


def hand_ship_nu(x, mu1, t):
    """Hand expansion of the two-stage recursion for the vessel chain
    (zero drift, unit gain, k = c = 1)."""
    xd = SHIP_AMP * math.sin(SHIP_FREQ * t)
    xd_d = SHIP_AMP * SHIP_FREQ * math.cos(SHIP_FREQ * t)
    xd_dd = -SHIP_AMP * SHIP_FREQ ** 2 * math.sin(SHIP_FREQ * t)
    eps0 = x - xd
    alpha1 = xd_d - 1.5 * eps0
    eps1 = mu1 - alpha1
    da1_dt = xd_dd + 1.5 * xd_d
    da1_dx = -1.5
    return (da1_dt + da1_dx * mu1
            - 0.5 * eps1 * da1_dx ** 2 - eps1 - eps0)


def test_nominal_matches_hand_recursion():
    ctrl = build_nominal(ship_proxy(), ship_gains())
    rng = random.Random(SEED)
    for _ in range(100):
        x = rng.uniform(-0.34, 0.34)
        mu1 = rng.uniform(-0.5, 0.5)
        t = rng.uniform(0.0, 400.0)
        got = ctrl.control(x, [mu1], t)
        want = hand_ship_nu(x, mu1, t)
        assert abs(got - want) <= 1e-12 * max(1.0, abs(want))


def test_nominal_partials_match_finite_differences():
    ctrl = build_nominal(ship_proxy(), ship_gains())
    params = ["x", "mu1", "t"]
    parent = compile_expr(ctrl.alphas[0], params)
    rng = random.Random(SEED + 1)
    for (stage, var), dexpr in ctrl.partials.items():
        assert stage == 1
        dfn = compile_expr(dexpr, params)
        idx = params.index(var)
        for _ in range(100):
            args = (rng.uniform(-0.34, 0.34), rng.uniform(-0.5, 0.5),
                    rng.uniform(0.0, 400.0))
            sym = dfn(*args)
            fd = fd_partial(parent, args, idx)
            assert abs(fd - sym) <= 1e-6 * max(1.0, abs(sym))


def test_nominal_tracks_reference_into_tiny_ball():
    # closed proxy loop: state follows chain head, chain head follows the
    # built law; from anywhere in the operating box the tracking error
    # falls below the frozen radius by half-time and stays there
    ctrl = build_nominal(ship_proxy(), ship_gains())
    radius = 1e-10
    t_half, t_end, dt = 150.0, 300.0, 0.02
    rng = random.Random(SEED + 2)
    for _ in range(2):
        x, mu1 = rng.uniform(-0.349, 0.349), 0.0
        assert abs(x - 0.0) > 1e6 * radius
        t = 0.0
        worst = 0.0
        for _ in range(int(round(t_end / dt))):
            def deriv(xv, mv, tv):
                return mv, ctrl.control(xv, [mv], tv)
            k1 = deriv(x, mu1, t)
            k2 = deriv(x + 0.5 * dt * k1[0], mu1 + 0.5 * dt * k1[1],
                       t + 0.5 * dt)
            k3 = deriv(x + 0.5 * dt * k2[0], mu1 + 0.5 * dt * k2[1],
                       t + 0.5 * dt)
            k4 = deriv(x + dt * k3[0], mu1 + dt * k3[1], t + dt)
            x += dt / 6.0 * (k1[0] + 2 * k2[0] + 2 * k3[0] + k4[0])
            mu1 += dt / 6.0 * (k1[1] + 2 * k2[1] + 2 * k3[1] + k4[1])
            t += dt
            if t >= t_half:
                worst = max(worst, abs(x - SHIP_AMP * math.sin(SHIP_FREQ * t)))
        assert worst <= radius


def test_nominal_singular_gain_raises():
    proxy = ProxySpec(m=1, f0=parse("0"), g0=parse("x"),
                      h=parse("1 - x^2"), xi=1.0,
                      lambdas=(1.0, 1.0), betas=(1.0,), mode="switched")
    ctrl = build_nominal(proxy, NominalGains(ks=(1.0, 1.0), cs=(1.0, 1.0),
                                             x_d=parse("0")))
    with pytest.raises(SingularGain):
        ctrl.control(0.0, [0.1], 0.0)


# ---------------------------------------------------------------------------
# funnel control
# ---------------------------------------------------------------------------

def test_ppc_log_ratio_values():
    rho = RhoSpec(1.0, 1.0)
    g = PpcGains(ks=(1.0,))
    u, xis, etas = ppc_control(g, (), (1.0,), [0.0], 0.0, rho, 0.0)
    assert u == 0.0 and xis == [0.0] and etas == [0.0]
    u, xis, _ = ppc_control(g, (), (1.0,), [0.5], 0.0, rho, 0.0)
    assert xis == [0.5]
    assert abs(u - (-math.log(3.0))) <= 1e-12
    u, _, _ = ppc_control(g, (), (1.0,), [0.99], 0.0, rho, 0.0)
    assert abs(u - (-math.log(199.0))) <= 1e-12
    assert abs(u - (-5.2933)) <= 1e-4


def test_ppc_sign_flips_output():
    rho = RhoSpec(1.0, 1.0)
    g = PpcGains(ks=(1.0,))
    u_pos, _, _ = ppc_control(g, (), (1.0,), [0.5], 0.0, rho, 0.0)
    u_neg, _, _ = ppc_control(g, (), (-1.0,), [0.5], 0.0, rho, 0.0)
    assert u_neg == -u_pos


def test_ppc_two_level_chain():
    rho = RhoSpec(0.85, 0.05, 10.0)
    g = PpcGains(ks=(10.0, 10.0))
    u, xis, etas = ppc_control(g, (0.4,), (1.0, 1.0), [0.3, -0.2], 0.3,
                               rho, 0.0)
    assert xis[0] == 0.0 and etas[0] == 0.0
    assert xis[1] == -0.2 / 0.4
    want = -10.0 * math.log((1.0 - 0.5) / (1.0 + 0.5))
    assert abs(u - want) <= 1e-12
    assert etas[1] == u


def test_ppc_funnel_breach():
    rho = RhoSpec(0.1, 0.1)
    g = PpcGains(ks=(1.0, 1.0))
    with pytest.raises(FunnelBreach) as info:
        ppc_control(g, (0.2,), (1.0, 1.0), [0.15, 0.0], 0.0, rho, 0.0)
    assert info.value.level == 1 and abs(info.value.xi) >= 1.0
    with pytest.raises(FunnelBreach) as info:
        ppc_control(g, (0.2,), (1.0, 1.0), [0.0, 0.5], 0.0, rho, 0.0)
    assert info.value.level == 2


def test_ppc_funnel_auto_initialization():
    rho = RhoSpec(0.85, 0.05, 10.0)
    funnels = initialize_funnels(PpcGains(ks=(10.0, 10.0)), (1.0, 1.0),
                                 [0.3, -0.2], 0.3, rho)
    assert len(funnels) == 1
    f = funnels[0]
    # z1(0) = mu1(0) so the first-level output is zero and the gap is 0.2
    assert type(f) is float and f == 1.5 * 0.2 + 0.1
    assert f > abs(-0.2 - 0.0)
    # strict inequality must hold even for a zero initial gap
    funnels = initialize_funnels(PpcGains(ks=(1.0, 1.0)), (1.0, 1.0),
                                 [0.0, 0.0], 0.0, rho)
    assert funnels == (0.1,)


def test_ppc_rejects_bad_calls():
    rho = RhoSpec(1.0, 1.0)
    two = PpcGains(ks=(1.0, 1.0))
    assert ppc_control(two, (0.5,), (1.0, 1.0), [0.1, 0.2], 0.1, rho,
                       0.0)[1] == [0.0, 0.4]
    for funnels in [(), (0.5, 0.5)]:    # one width per level past the first
        with pytest.raises(ValueError, match="1 intermediate funnels"):
            ppc_control(two, funnels, (1.0, 1.0), [0.1, 0.2], 0.1, rho, 0.0)
    with pytest.raises(ValueError):
        ppc_control(PpcGains(ks=(1.0,)), (), (1.0,), [0.1, 0.2], 0.0, rho,
                    0.0)


# ---------------------------------------------------------------------------
# adaptive law with unknown control direction
# ---------------------------------------------------------------------------

def test_nussbaum_zero_sweep_gives_zero_input():
    gains = NussbaumGains(gamma1=10.0, gamma2=2.0, k=2.0)
    u, dz, dth = nussbaum_control(gains, 0.0, [3.0, -1.0], 0.01, 5.0, 0.02,
                                  [1.0, 2.0])
    assert u == 0.0
    assert dz != 0.0  # the sweep still moves


def test_nussbaum_pure_leakage_at_zero_error():
    gains = NussbaumGains(gamma1=10.0, gamma2=2.0, k=2.0)
    u, dz, dth = nussbaum_control(gains, 1.3, [0.5, -0.3], 0.0, 1.0, 0.02,
                                  [0.7, 0.343])
    assert dz == 0.0
    assert dth == [-2.0 * 0.5, -2.0 * -0.3]


def test_nussbaum_gain_shape():
    assert nussbaum_gain(0.0) == 0.0
    assert nussbaum_gain(math.pi) == -(math.pi * math.pi)
    assert abs(nussbaum_gain(math.pi) - (-9.8696)) <= 1e-4
    assert nussbaum_gain(2.0 * math.pi) > 0.0


def test_nussbaum_adaptive_laws_match_hand_form():
    gains = NussbaumGains(gamma1=10.0, gamma2=2.0, k=2.0)
    rng = random.Random(SEED + 3)
    for _ in range(50):
        rho_t = rng.uniform(0.01, 0.1)
        e = rng.uniform(-0.9, 0.9) * rho_t
        zeta = rng.uniform(-10.0, 10.0)
        th = [rng.uniform(-2.0, 2.0), rng.uniform(-2.0, 2.0)]
        phi = [rng.uniform(-1.0, 1.0), rng.uniform(-1.0, 1.0)]
        nu = rng.uniform(-5.0, 5.0)
        u, dz, dth = nussbaum_control(gains, zeta, list(th), e, nu, rho_t, phi)
        gap = rho_t * rho_t - e * e
        alpha = 2.0 * e - nu + th[0] * phi[0] + th[1] * phi[1]
        assert abs(u - zeta * zeta * math.cos(zeta) * alpha) <= 1e-14 * max(1.0, abs(u))
        assert abs(dz - e * alpha / gap) <= 1e-12 * max(1.0, abs(dz))
        for j in range(2):
            want = e * phi[j] / (10.0 * gap) - 2.0 * th[j]
            assert abs(dth[j] - want) <= 1e-12 * max(1.0, abs(want))


def test_nussbaum_breach_raises():
    gains = NussbaumGains(gamma1=10.0, gamma2=2.0, k=2.0)
    with pytest.raises(BarrierBreach) as info:
        nussbaum_control(gains, 0.0, [], 0.02, 0.0, 0.02, [], t=4.0)
    assert info.value.rho == 0.02 and info.value.t == 4.0


def test_nussbaum_rejects_mismatched_regressor():
    gains = NussbaumGains(gamma1=10.0, gamma2=2.0, k=2.0)
    with pytest.raises(ValueError):
        nussbaum_control(gains, 0.0, [1.0], 0.0, 0.0, 1.0, [1.0, 2.0])


# ---------------------------------------------------------------------------
# observer-based backstepping
# ---------------------------------------------------------------------------

def hand_motor_u(x, z1, z2, mu1, mu2, nu, dh1, dh2, df11, t,
                 k1=10.0, k2=10.0, gf1=50.0, s1=15.0, s2=15.0,
                 kap2=29.5, t11=100.0):
    """Independent transcription of the two-level recursion for the
    motor-driven mechanism, with every partial derivative of the first
    stage expanded by hand."""
    rho_t = 0.05 + 0.8 * math.exp(-10.0 * t)
    rd = -8.0 * math.exp(-10.0 * t)
    rdd = 80.0 * math.exp(-10.0 * t)
    e = z1 - mu1
    gap = rho_t * rho_t - e * e
    f1 = -(B0 * z1 + N0 * math.sin(x)) / M0
    f2 = -(KB * z1 + RM * z2) / LM
    g1v, g2v = 1.0 / M0, 1.0 / LM

    tau1 = (rd / rho_t * e - k1 * e - df11
            - 2.0 * e / (4.0 * (gf1 - s1) * gap) - f1 + mu2) / g1v

    core = rd / rho_t - k1 - (gap + 2.0 * e * e) / (2.0 * (gf1 - s1) * gap ** 2)
    dt1_z1 = M0 * (core + B0 / M0)
    dt1_x = N0 * math.cos(x)
    dt1_mu1 = -M0 * core
    dt1_mu2 = M0
    dt1_df11 = -M0
    dt1_t = M0 * ((rdd * rho_t - rd * rd) / rho_t ** 2 * e
                  + 2.0 * e * 2.0 * rho_t * rd
                  / (4.0 * (gf1 - s1) * gap ** 2))

    eps2 = z2 - tau1
    l2 = e / gap
    n2 = (dt1_t + dt1_z1 * (f1 + g1v * z2) + dt1_mu1 * mu2 + dt1_mu2 * nu
          - dt1_df11 * t11 * (df11 - dh1) + dt1_x * z1)
    u = (dt1_z1 * df11 - 2.0 / (4.0 * gf1) * eps2 * dt1_z1 ** 2
         - dh2 - f2 - eps2 / (4.0 * (kap2 - s2))
         - k2 * eps2 - g1v * l2 + n2) / g2v
    return u, e, eps2


def random_motor_state(rng, rho):
    t = rng.uniform(0.0, 3.0)
    rho_t = rho.value(t)
    mu1 = rng.uniform(-0.3, 0.3)
    e = rng.uniform(-0.8, 0.8) * rho_t
    return {
        "x": rng.uniform(-0.45, 0.25), "z1": mu1 + e,
        "z2": rng.uniform(-2.0, 2.0), "mu1": mu1,
        "mu2": rng.uniform(-1.0, 1.0), "nu": rng.uniform(-5.0, 5.0),
        "dhat1": rng.uniform(-1.0, 1.0), "dhat2": rng.uniform(-1.0, 1.0),
        "df1_1": rng.uniform(-1.0, 1.0), "t": t,
    }


def test_dob_backstep_matches_hand_transcription():
    proxy, fs, gs, dob, gains, rho = motor_parts()
    ctrl = build_dob_backstepping(fs, gs, proxy, dob, gains, rho)
    rng = random.Random(SEED + 4)
    for _ in range(100):
        s = random_motor_state(rng, rho)
        got_u, eps = eval_dob_backstepping(
            ctrl, s["x"], [s["z1"], s["z2"]], [s["mu1"], s["mu2"]],
            s["nu"], [s["dhat1"], s["dhat2"]], [s["df1_1"]], s["t"])
        want_u, want_e, want_eps2 = hand_motor_u(
            s["x"], s["z1"], s["z2"], s["mu1"], s["mu2"], s["nu"],
            s["dhat1"], s["dhat2"], s["df1_1"], s["t"])
        assert abs(got_u - want_u) <= 1e-9 * max(1.0, abs(want_u))
        assert abs(eps[0] - want_e) <= 1e-12
        assert abs(eps[1] - want_eps2) <= 1e-12 * max(1.0, abs(want_eps2))


def test_dob_backstep_trivial_first_stage():
    proxy, _, _, dob, gains, _ = motor_parts()
    ctrl = build_dob_backstepping([parse("0"), parse("0")],
                                  [parse("2"), parse("1")],
                                  proxy, dob, gains, RhoSpec(0.5, 0.5))
    tau1 = compile_expr(ctrl.taus[0], list(ctrl.params))
    # zero error, zero estimates: only the next chain state drives it
    args = dict.fromkeys(ctrl.params, 0.0)
    args.update(z1=0.3, mu1=0.3, mu2=0.8, t=1.0)
    assert tau1(*[args[p] for p in ctrl.params]) == 0.8 / 2.0


def test_dob_backstep_partials_match_finite_differences():
    proxy, fs, gs, dob, gains, rho = motor_parts()
    ctrl = build_dob_backstepping(fs, gs, proxy, dob, gains, rho)
    params = list(ctrl.params)
    parent = compile_expr(ctrl.taus[0], params)
    rng = random.Random(SEED + 5)
    assert set(ctrl.partials) == {(1, v) for v in
                                  ("z1", "x", "t", "mu1", "mu2", "df1_1")}
    for (stage, var), dexpr in ctrl.partials.items():
        dfn = compile_expr(dexpr, params)
        idx = params.index(var)
        for _ in range(100):
            s = random_motor_state(rng, rho)
            args = [s[p] for p in params]
            sym = dfn(*args)
            fd = fd_partial(parent, args, idx)
            assert abs(fd - sym) <= 1e-6 * max(1.0, abs(sym))


def test_dob_backstep_initial_state_input_is_zero():
    proxy, fs, gs, dob, gains, rho = motor_parts()
    ctrl = build_dob_backstepping(fs, gs, proxy, dob, gains, rho)
    u, eps = eval_dob_backstepping(ctrl, 0.0, [0.0, 0.0], [0.0, 0.0],
                                   0.0, [0.0, 0.0], [0.0], 0.0)
    assert math.isfinite(u) and abs(u) <= 1e-12
    assert eps == [0.0, 0.0]


def test_dob_backstep_gain_pushes_against_error():
    # at a quiet state (no disturbance estimates, resting chain), raising
    # the first-stage gain must push the input against the sign of e
    proxy, fs, gs, dob, _, _ = motor_parts()
    rho = RhoSpec(0.5, 0.5)

    def u_at(k1, e):
        g = DobBackstepGains(ks=(k1, 10.0), gamma_fs=(50.0,),
                             sigmas=(15.0, 15.0))
        c = build_dob_backstepping(fs, gs, proxy, dob, g, rho)
        u, _ = eval_dob_backstepping(c, 0.0, [e, 0.0], [0.0, 0.0],
                                     0.0, [0.0, 0.0], [0.0], 0.0)
        return u

    for e in (0.1, -0.1):
        u10, u20, u40 = u_at(10.0, e), u_at(20.0, e), u_at(40.0, e)
        assert (u20 - u10) * e < 0.0
        assert (u40 - u20) * e < 0.0


def test_dob_backstep_breach_raises():
    proxy, fs, gs, dob, gains, rho = motor_parts()
    ctrl = build_dob_backstepping(fs, gs, proxy, dob, gains, rho)
    t = 1.0
    e = rho.value(t) * 1.01
    with pytest.raises(BarrierBreach) as info:
        eval_dob_backstepping(ctrl, 0.0, [e, 0.0], [0.0, 0.0], 0.0,
                              [0.0, 0.0], [0.0], t)
    assert info.value.t == t and abs(info.value.e) >= info.value.rho


def test_dob_backstep_node_cap(monkeypatch):
    proxy, fs, gs, dob, gains, rho = motor_parts()
    monkeypatch.setattr(controllers_mod, "NODE_CAP", 10)
    with pytest.raises(SymbolicSizeError, match="exceeded 10 nodes"):
        build_dob_backstepping(fs, gs, proxy, dob, gains, rho)


def test_dob_backstep_rejects_wrong_call_shapes():
    proxy, fs, gs, dob, gains, rho = motor_parts()
    ctrl = build_dob_backstepping(fs, gs, proxy, dob, gains, rho)
    d_hat, d_f = [0.0, 0.0], [0.0]
    with pytest.raises(ValueError):
        eval_dob_backstepping(ctrl, 0.0, [0.0], [0.0, 0.0], 0.0, d_hat, d_f,
                              0.0)
    with pytest.raises(ValueError):
        eval_dob_backstepping(ctrl, 0.0, [0.0, 0.0], [0.0], 0.0, d_hat, d_f,
                              0.0)
