"""Closed-loop simulation tests.

Covers, in order:

1. the bare RK4 stepper against analytic solutions;
2. runtime-model mechanics: state layout, adaptive-state seeding, the
   stage-recompute step, exact integration of the virtual chain, and a
   full-pipeline equilibrium that must hold bit-exactly;
3. whole-scenario runs of both built-ins: verdicts, monitor/trace
   agreement, first-step properties, determinism, step-halving
   stability, and the documented abort paths with partial traces;
4. feasibility gating: failing condition reports block a run unless
   forced, and the override is recorded;
5. CSV export and re-import, which must round-trip bit-exactly.

Scenario variants are built by editing the mapping of a built-in and
reloading it, so every variant passes schema validation first.
"""

import math

import pytest
import yaml

from proxysafe.scenario import ScenarioError, load_builtin, loads_scenario
from proxysafe.sim import CheckFailed, RuntimeModel, SimTrace, rk4_step, simulate


def variant(name, **edits):
    """Reload a built-in scenario with dotted-path overrides applied."""
    mapping = load_builtin(name).to_mapping()
    for path, value in edits.items():
        node = mapping
        keys = path.split("__")
        for key in keys[:-1]:
            node = node[key]
        node[keys[-1]] = value
    return loads_scenario(yaml.safe_dump(mapping))


# ═══════════════════════════════════════════════════════════════════
# 1. RK4 stepper
# ═══════════════════════════════════════════════════════════════════

def test_rk4_exponential_decay():
    # dx/dt = -x from 1: x(1) = e^{-1}; classical RK4 at dt=0.01 carries
    # a local error ~dt^5, so 1e-9 is a comfortable global bound
    state = [1.0]
    for k in range(100):
        state = rk4_step(lambda s, t: [-s[0]], state, k * 0.01, 0.01)
    err = abs(state[0] - math.exp(-1.0))
    print(f"\n  rk4 e^-1 error: {err:.3e}")
    assert err <= 1e-9


def test_rk4_polynomial_exactness():
    # dx/dt = 3t^2 integrates t^3 exactly: RK4 is exact through degree 4
    state = [0.0]
    for k in range(10):
        state = rk4_step(lambda s, t: [3.0 * t * t], state, k * 0.1, 0.1)
    assert abs(state[0] - 1.0) <= 1e-15


def test_rk4_coupled_rotation():
    # harmonic oscillator one period: amplitude error is fourth order
    state = [1.0, 0.0]
    dt = 2.0 * math.pi / 1000
    for k in range(1000):
        state = rk4_step(lambda s, t: [s[1], -s[0]], state, k * dt, dt)
    assert abs(state[0] - 1.0) <= 1e-9
    assert abs(state[1]) <= 1e-9


# ═══════════════════════════════════════════════════════════════════
# 2. runtime-model mechanics
# ═══════════════════════════════════════════════════════════════════

def test_initial_state_layout_ship():
    model = RuntimeModel(load_builtin("ship"))
    state = model.initial_state()
    # x, z1, mu1, zeta, theta1, theta2 -- mu1 copies z1(0), the adaptive
    # gain state starts where the scenario seeds it
    assert len(state) == 6
    assert state[0] == 0.0 and state[1] == 0.0 and state[2] == state[1]
    assert state[3] == 8.8
    assert state[4] == state[5] == 0.0
    x, z, mu = model._split(state)
    assert (x, z, mu) == (0.0, [0.0], [0.0])


def test_initial_state_layout_electromech():
    model = RuntimeModel(load_builtin("electromech"))
    state = model.initial_state()
    # x, z1, z2, mu1, mu2, then observer and filter states
    assert len(state) == 8
    assert state[0] == -0.08
    assert state[3] == state[1]          # mu1(0) = z1(0)
    assert state[4] == 0.0               # deeper chain starts at rest
    cols = model.trace_columns()
    assert cols[0] == "t"
    for name in ("x", "z1", "z2", "mu1", "mu2", "e", "rho", "x_d", "h1",
                 "h2", "psi0_1", "psi1_2", "margin1", "nu_d", "nu", "u",
                 "d1", "dhat2", "df1_1", "eps1"):
        assert name in cols


def test_step_matches_bare_rk4():
    # with no held controls the model step is exactly the bare stepper
    # applied to the model derivative (controls recomputed per stage)
    model = RuntimeModel(load_builtin("ship"))
    state = model.initial_state()
    via_model = model.step(state, 0.0, 0.01)
    via_rk4 = rk4_step(lambda s, t: model.deriv(s, t), state, 0.0, 0.01)
    assert via_model == via_rk4


def test_virtual_chain_integrates_exactly():
    # a proxy-only model with the filter output pinned to zero is a pure
    # integrator chain: mu1 grows linearly, x quadratically -- degrees
    # RK4 reproduces exactly
    spec = variant("electromech", plant__disturbances=[],
                   controller="nominal", controllers={"nominal": {}})
    model = RuntimeModel(spec)
    from proxysafe.sim import _Controls
    state = [0.0, 0.0, 1.0]              # x, mu1, mu2(0)=1
    pinned = _Controls(nu_d=0.0, nu=0.0)
    t = 0.0
    for _ in range(100):
        state = model.step(state, t, 0.01, held=pinned)
        t += 0.01
    assert abs(state[1] - 1.0) <= 1e-15          # mu1 = t
    assert abs(state[2] - 1.0) <= 1e-15          # mu2 constant
    assert abs(state[0] - 0.5) <= 1e-12          # x = t^2/2


def equilibrium_spec():
    """A resting plant with a zero reference: nothing should move."""
    text = """
name: rest
plant:
  n: 1
  levels:
    - {f: "0", g: "1"}
  known: [true]
proxy:
  - {m: 1, h: "1 - x^2", xi: 1, lambdas: [1, 1], betas: [1]}
rho: {initial: 0.5}
controller: nussbaum
controllers:
  nussbaum:
    gains: {gamma1: 1, gamma2: 1, k: 1}
    phi: ["z1"]
nominal: {ks: [1, 1], cs: [1, 1], x_d: "0"}
initial: {x: [0], z: [0]}
horizon: 0.5
dt: 0.01
check_box: [[-1, 1]]
"""
    return loads_scenario(text)


def test_equilibrium_is_stationary():
    tr = simulate(equilibrium_spec())
    assert tr.verdict == "SAFE"
    for name in ("x", "z1", "mu1", "nu", "u", "zeta", "theta1"):
        vals = tr.column(name)
        assert vals == [0.0] * len(vals), name


def test_hold_dt_below_dt_rejected():
    with pytest.raises(ScenarioError):
        RuntimeModel(load_builtin("ship"), hold_dt=0.001)


# ═══════════════════════════════════════════════════════════════════
# 3. whole-scenario runs
# ═══════════════════════════════════════════════════════════════════

def test_ship_first_step():
    # mu1(0) = z1(0) makes the tracking error start at exactly zero, and
    # one step keeps it well inside the funnel
    tr = simulate(load_builtin("ship"), horizon=0.01)
    es = tr.column("e")
    assert es[0] == 0.0
    assert abs(es[1]) < 0.02


def test_ship_run_is_safe():
    tr = simulate(load_builtin("ship"), horizon=120.0)
    assert tr.verdict == "SAFE"
    assert tr.reason is None
    # monitors must agree with the logged columns they summarize
    assert tr.monitors["min_h"] == min(tr.column("h1"))
    excess = [abs(e) - r for e, r in zip(tr.column("e"), tr.column("rho"))]
    assert tr.monitors["max_e_excess"] == max(excess)
    assert tr.monitors["steps"] == len(tr.rows) - 1
    # funnel invariance: the error never reaches the rim
    assert tr.monitors["max_e_excess"] < 0.0
    ts = tr.column("t")
    assert all(b > a for a, b in zip(ts, ts[1:]))
    assert all(math.isfinite(v) for row in tr.rows for v in row)


def test_electromech_both_controllers_safe():
    spec = load_builtin("electromech")
    for name in ("dob_backstepping", "ppc"):
        tr = simulate(spec, controller=name, horizon=5.0)
        assert tr.verdict == "SAFE", name
        assert min(tr.column("h1")) >= -1e-6
        assert min(tr.column("h2")) >= -1e-6
        assert tr.monitors["max_e_excess"] <= 1e-9


def test_determinism_bit_identical():
    a = simulate(load_builtin("ship"), horizon=5.0)
    b = simulate(load_builtin("ship"), horizon=5.0)
    assert a.rows == b.rows
    assert a.monitors == b.monitors


def test_step_halving_stable_ship():
    # the first barrier ride sets the running minimum, so a short
    # horizon reproduces the full-run value; halving dt must not move it
    hs = [simulate(load_builtin("ship"), dt=dt, horizon=60.0).monitors["min_h"]
          for dt in (0.01, 0.005)]
    delta = abs(hs[0] - hs[1])
    print(f"\n  ship min_h shift under halving: {delta:.3e}")
    assert delta <= 1e-4


def test_step_halving_stable_electromech():
    hs = [simulate(load_builtin("electromech"), dt=dt,
                   horizon=5.0).monitors["min_h"]
          for dt in (1e-3, 5e-4)]
    delta = abs(hs[0] - hs[1])
    print(f"\n  electromech min_h shift under halving: {delta:.3e}")
    assert delta <= 1e-4


def test_adaptive_race_aborts_with_partial_trace():
    # seeding the gain search at zero forces it across a destabilizing
    # gain interval faster than the fixed step resolves; the run must
    # abort at the funnel with the trace up to the breach retained
    spec = variant("ship", controllers__nussbaum__initial={"zeta": 0.0})
    tr = simulate(spec)
    assert tr.verdict == "ABORTED"
    assert "BarrierBreach" in tr.reason
    assert len(tr.rows) > 100
    assert tr.rows[-1][0] < 1.2
    assert tr.monitors["max_e_excess"] < 0.0     # grid points stayed inside


def test_funnel_breach_aborts_ppc():
    # an intermediate funnel too narrow for the chain's initial lag
    # breaches at the very first half step
    spec = variant("electromech", controllers__ppc__gains__floor=0.01,
                   controllers__ppc__gains__ks=[2, 2])
    tr = simulate(spec, controller="ppc", horizon=5.0)
    assert tr.verdict == "ABORTED"
    assert "FunnelBreach" in tr.reason
    assert len(tr.rows) == 1                      # only the initial point


def test_hold_mode_runs_and_degrades_honestly():
    # zero-order hold disables the per-stage safety recomputation; the
    # scheme is not claimed to survive it, and on this scenario it does
    # not at this hold interval -- the run must end in a clean abort, not
    # a crash
    tr = simulate(load_builtin("ship"), hold_dt=0.5, horizon=120.0)
    assert tr.verdict == "ABORTED"
    assert "BarrierBreach" in tr.reason
    assert len(tr.rows) > 100


def test_hold_mode_refreshes_held_outputs():
    # every hold time evaluates the controls afresh and holds them: the
    # logged input is constant inside each hold interval and moves from
    # one interval to the next
    hold = 0.05
    tr = simulate(load_builtin("ship"), hold_dt=hold, horizon=5.0)
    assert tr.verdict == "SAFE"
    per_interval = {}
    for t, u in zip(tr.column("t"), tr.column("u")):
        per_interval.setdefault(math.floor(t / hold + 1e-9), set()).add(u)
    assert len(per_interval) == 101
    assert all(len(us) == 1 for us in per_interval.values())
    held = [us.pop() for _, us in sorted(per_interval.items())]
    assert all(a != b for a, b in zip(held, held[1:]))


# ═══════════════════════════════════════════════════════════════════
# 4. feasibility gating
# ═══════════════════════════════════════════════════════════════════

def test_failed_budget_check_blocks_run():
    spec = variant("ship", rho={"initial": 10})
    with pytest.raises(CheckFailed) as exc:
        simulate(spec, horizon=1.0)
    assert any("budget" in line for line in exc.value.lines)


def test_failed_initial_check_blocks_run():
    spec = variant("ship", initial__x=[0.34])
    with pytest.raises(CheckFailed) as exc:
        simulate(spec, horizon=1.0)
    assert any("initial positivity" in line for line in exc.value.lines)


def test_force_overrides_and_is_recorded():
    spec = variant("ship", initial__x=[0.34])
    tr = simulate(spec, horizon=1.0, force=True)
    assert tr.monitors["check_forced"] == 1.0
    assert tr.verdict in ("SAFE", "UNSAFE", "ABORTED")


# ═══════════════════════════════════════════════════════════════════
# 5. CSV round-trip
# ═══════════════════════════════════════════════════════════════════

def test_csv_round_trip_exact(tmp_path):
    tr = simulate(load_builtin("ship"), horizon=2.0)
    path = tmp_path / "trace.csv"
    tr.to_csv(path)
    back = SimTrace.from_csv(path)
    assert back.columns == tr.columns
    assert back.rows == tr.rows                   # 17 digits round-trip


def test_csv_keeps_seventeen_digit_format(tmp_path):
    # the bytes every trace has been written with, signed zero and
    # non-finite values included
    rows = [[0.1, -0.0, 1e300], [math.pi, math.inf, math.nan]]
    tr = SimTrace(scenario="s", controller="c", columns=["a", "b", "c"],
                  rows=rows, verdict="SAFE")
    path = tmp_path / "trace.csv"
    tr.to_csv(path)
    assert path.read_text() == "a,b,c\n" + "".join(
        ",".join(f"{v:.17g}" for v in row) + "\n" for row in rows)


def test_csv_rejects_malformed(tmp_path):
    empty = tmp_path / "empty.csv"
    empty.write_text("")
    with pytest.raises(ValueError):
        SimTrace.from_csv(empty)
    ragged = tmp_path / "ragged.csv"
    ragged.write_text("t,x\n0.0,1.0\n0.1\n")
    with pytest.raises(ValueError):
        SimTrace.from_csv(ragged)


def test_column_lookup_names_missing(tmp_path):
    tr = simulate(load_builtin("ship"), horizon=0.1)
    with pytest.raises(KeyError):
        tr.column("no_such_column")
