"""Closed-loop simulation tests.

Covers, in order:

1. the bare RK4 stepper against analytic solutions;
2. runtime-model mechanics: state layout, adaptive-state seeding, the
   stage-recompute step, exact integration of the virtual chain, and a
   full-pipeline equilibrium that must hold bit-exactly;
3. whole-scenario runs of both built-ins: verdicts, monitor/trace
   agreement, first-step properties, determinism, step-halving
   stability, and the documented abort paths with partial traces; the
   monitors' running extremes over hand-built non-finite rows, the
   verdict on a NaN barrier value or funnel excess, both also across a
   batch edge, in memory and streamed; the 8 bytes a trace keeps per
   value, a monitor fold that copies no column, and a fold over any
   split of the rows into batches that equals one fold over all;
4. feasibility gating: failing condition reports block a run unless
   forced, and the override is recorded;
5. CSV export and re-import, which must round-trip bit-exactly, an
   import that parses only the columns asked for, and the export of
   such a trace refused before any file is opened.

Scenario variants are built by editing the mapping of a built-in and
reloading it, so every variant passes schema validation first.
"""

import functools
import gc
import itertools
import math
import tracemalloc
from array import array

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from proxysafe import loop, stream
from proxysafe.loop import ClosedLoop
from proxysafe.scenario import ScenarioError, load_builtin, loads_scenario
from proxysafe.sim import CheckFailed, RuntimeModel, SimTrace, rk4_step, simulate
from scenario_variants import variant


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
    assert model.state_names == ["x", "z1", "z2", "mu1", "mu2", "s1", "s2",
                                 "df1_1"]
    cols = ClosedLoop(model).columns
    assert cols[0] == "t"
    for name in ("x", "z1", "z2", "mu1", "mu2", "e", "rho", "x_d", "h1",
                 "h2", "psi0_1", "psi1_2", "margin1", "nu_d", "nu", "u",
                 "d1", "dhat2", "df1_1", "eps1"):
        assert name in cols


def test_step_grid_is_validated_where_the_model_is_built():
    """A step longer than the horizon, and a grid of more than the
    2,000,000 steps one run may take, are rejected by RuntimeModel for
    file values and overrides alike, before any run starts."""
    ship = load_builtin("ship")
    with pytest.raises(ScenarioError, match="exceeds the horizon"):
        RuntimeModel(ship, dt=5.0, horizon=0.2)
    with pytest.raises(ScenarioError, match="exceeds the horizon"):
        RuntimeModel(variant("ship", dt=5.0, horizon=0.2))
    with pytest.raises(ScenarioError, match="exceeds the cap"):
        RuntimeModel(variant("ship", dt=1e-300))
    with pytest.raises(ScenarioError, match="exceeds the cap"):
        RuntimeModel(ship, dt=0.5, horizon=1e6 + 0.5)
    assert RuntimeModel(ship, dt=0.5, horizon=1e6).horizon == 1e6
    assert RuntimeModel(ship, dt=0.2, horizon=0.2).dt == 0.2


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
    state = [0.0, 0.0, 1.0]              # x, mu1, mu2(0)=1
    pinned = (0.0, 0.0, None, 0.0, ())  # (nu_d, nu, u, dzeta, dtheta)
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
        assert list(vals) == [0.0] * len(vals), name


def test_hold_dt_below_dt_rejected():
    # the scenario's hold_dt: loads at dt and is rejected under a longer --dt
    with pytest.raises(ScenarioError, match="hold_dt must be at least dt"):
        RuntimeModel(variant("ship", hold_dt=0.01), dt=0.02)


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
    assert tr.monitors["max_e_over_rho"] == max(
        abs(e) / r for e, r in zip(tr.column("e"), tr.column("rho")))
    assert tr.monitors["steps"] == tr.n_rows - 1
    # funnel invariance: the error never reaches the rim
    assert tr.monitors["max_e_excess"] < 0.0
    ts = tr.column("t")
    assert all(b > a for a, b in zip(ts, ts[1:]))
    assert all(math.isfinite(v) for v in tr.data)


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
    assert a.data == b.data
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
    assert tr.n_rows > 100
    assert tr.column("t")[-1] < 1.2
    assert tr.monitors["max_e_excess"] < 0.0     # grid points stayed inside


def test_funnel_breach_aborts_ppc():
    # an intermediate funnel too narrow for the chain's initial lag
    # breaches at the very first half step
    spec = variant("electromech", controllers__ppc__gains__floor=0.01,
                   controllers__ppc__gains__ks=[2, 2])
    tr = simulate(spec, controller="ppc", horizon=5.0)
    assert tr.verdict == "ABORTED"
    assert "FunnelBreach" in tr.reason
    assert tr.n_rows == 1                         # only the initial point


def test_hold_mode_runs_and_degrades_honestly():
    # zero-order hold disables the per-stage safety recomputation; the
    # scheme is not claimed to survive it, and on this scenario it does
    # not at this hold interval -- the run must end in a clean abort, not
    # a crash
    tr = simulate(variant("ship", hold_dt=0.5), horizon=120.0)
    assert tr.verdict == "ABORTED"
    assert "BarrierBreach" in tr.reason
    assert tr.n_rows > 100


def test_hold_mode_refreshes_held_outputs():
    # every hold time evaluates the controls afresh and holds them: the
    # logged input is constant inside each hold interval and moves from
    # one interval to the next
    hold = 0.05
    tr = simulate(variant("ship", hold_dt=hold), horizon=5.0)
    assert tr.verdict == "SAFE"
    per_interval = {}
    for t, u in zip(tr.column("t"), tr.column("u")):
        per_interval.setdefault(math.floor(t / hold + 1e-9), set()).add(u)
    assert len(per_interval) == 101
    assert all(len(us) == 1 for us in per_interval.values())
    held = [us.pop() for _, us in sorted(per_interval.items())]
    assert all(a != b for a, b in zip(held, held[1:]))


def test_hold_refreshes_stay_on_the_hold_grid():
    # the j-th hold time is j * hold_dt: summed up one interval at a
    # time, its rounding error outgrew the slack after about 3,100
    # refreshes, and every refresh from row 15,511 on fell a row late
    tr = simulate(variant("ship", hold_dt=0.05), horizon=160.0)
    assert tr.verdict == "SAFE" and tr.n_rows == 16001
    changed = set()
    for name in ("nu", "u"):
        values = tr.column(name)
        changed.update(k for k in range(1, len(values))
                       if values[k] != values[k - 1])
    assert len(changed) > 3000
    assert [k for k in sorted(changed) if k % 5] == []


def hand_built_trace(monkeypatch, edits, out=None):
    """simulate() on ship with a loop that logs hand-built rows: every
    value 1.0, t on the grid and e = 0.1, then `edits`, a list of
    {column: value} per row, applied in order; with `out`, the rows
    stream to that file.  Returns the columns, the rows and the trace."""
    spec = load_builtin("ship")
    columns = ClosedLoop(RuntimeModel(spec)).columns
    rows = []
    for k, edit in enumerate(edits):
        row = dict.fromkeys(columns, 1.0)
        row.update(t=k * spec.dt, e=0.1)
        row.update(edit)
        rows.append([row[name] for name in columns])

    class HandBuilt:
        def __init__(self, model):
            self.columns, self.rows = columns, iter(rows)

        def stage(self, s, t):
            return [0.0] * len(s)

        def point(self, s, t, held):
            return [0.0] * len(s), next(self.rows), None

    monkeypatch.setattr(loop, "ClosedLoop", HandBuilt)
    monkeypatch.setattr(stream, "_check_start", lambda model, loop: None)
    tr = simulate(spec, horizon=(len(rows) - 1) * spec.dt, out=out)
    assert tr.reason is None and tr.monitors["steps"] == len(rows) - 1
    if out is not None:
        tr.to_csv(out)
    return columns, rows, tr


# a batch edge at rows 255 | 256 and more than two batches of rows, for
# the tests that run the hand-built rows in memory and streamed
EDGE = stream._BATCH_ROWS - 1
N_PADDED = 2 * stream._BATCH_ROWS + 88
STREAMED = pytest.mark.parametrize("streamed", [False, True],
                                   ids=["in memory", "streamed"])


def across_batches(monkeypatch, tmp_path, edits, streamed):
    """`hand_built_trace` of `edits` placed from row 255 on, among plain
    rows, in memory or streamed."""
    padding = N_PADDED - EDGE - len(edits)
    return hand_built_trace(monkeypatch, [{}] * EDGE + edits + [{}] * padding,
                            out=tmp_path / "t.csv" if streamed else None)


def running(better, start, values):
    """A running extreme in the order given: `start`, or the first value
    when `start` is None, replaced by each value `better` than it."""
    values = iter(values)
    best = next(values) if start is None else start
    for v in values:
        if better(v, best):
            best = v
    return best


NAN, INF = math.nan, math.inf
NONFINITE_ROWS = {
    "nan first": [
        {"h1": NAN, "margin1": NAN, "b1_0": NAN, "b1_1": INF, "e": NAN},
        {"h1": 0.3, "margin1": INF, "b1_1": -0.2, "e": -0.4},
        {"h1": NAN, "margin1": -INF, "b1_0": NAN, "rho": NAN},
        {"h1": INF, "margin1": 0.7, "b1_0": -INF, "e": 0.5},
        {"h1": -0.1, "margin1": NAN, "b1_1": NAN, "rho": INF},
    ],
    "nan later": [
        {"h1": INF, "margin1": -INF, "b1_1": INF},
        {"h1": NAN, "margin1": NAN, "b1_0": NAN, "e": NAN},
        {"h1": -INF, "margin1": 0.2, "b1_1": -0.3, "e": -0.8},
        {"h1": 0.4, "margin1": NAN, "b1_0": NAN, "rho": NAN},
    ],
}


def assert_row_wise_nan_rule(columns, rows, monitors):
    """Every monitor is the running min/max over `rows` in order."""
    def values(*names):
        idx = [columns.index(n) for n in names]
        return [row[i] for row in rows for i in idx]

    lt, gt = (lambda a, b: a < b), (lambda a, b: a > b)
    e_rho = list(zip(values("e"), values("rho")))
    want = {
        "min_h": running(lt, INF, values("h1")),
        "min_qp_margin": running(lt, INF, values("margin1")),
        "min_b": running(lt, INF, values("b1_0", "b1_1")),
        "max_e_excess": running(gt, -INF, [abs(e) - r for e, r in e_rho]),
        "max_e_over_rho": running(gt, None, [abs(e) / r for e, r in e_rho]),
    }
    assert {k: monitors[k].hex() for k in want} == \
        {k: v.hex() for k, v in want.items()}


@pytest.mark.parametrize("name", list(NONFINITE_ROWS))
def test_monitors_keep_the_row_wise_nan_rule(monkeypatch, name):
    # every monitor is the running min/max over the rows in order; a
    # NaN never replaces a running extreme, so only a NaN in the first
    # row reaches max_e_over_rho, which starts from that row
    columns, rows, tr = hand_built_trace(monkeypatch, NONFINITE_ROWS[name])
    monitors = tr.monitors
    assert_row_wise_nan_rule(columns, rows, monitors)
    if name == "nan first":
        assert math.isnan(monitors["max_e_over_rho"])
        assert monitors["min_h"] == -0.1 and monitors["min_b"] == -INF
    else:
        assert monitors["max_e_over_rho"] == 0.8
        assert monitors["min_h"] == -INF and monitors["min_qp_margin"] == -INF
        assert monitors["min_b"] == -0.3


@STREAMED
@pytest.mark.parametrize("name", list(NONFINITE_ROWS))
def test_the_row_wise_nan_rule_holds_across_batches(monkeypatch, tmp_path,
                                                   name, streamed):
    # the non-finite rows from row 255 on straddle the first batch edge;
    # folded batch by batch, in memory or streamed, the monitors are
    # still the running extremes over all rows in order
    columns, rows, tr = across_batches(monkeypatch, tmp_path,
                                       NONFINITE_ROWS[name], streamed)
    assert tr.n_rows == N_PADDED
    assert_row_wise_nan_rule(columns, rows, tr.monitors)
    assert tr.verdict == "UNSAFE"


NAN_ROWS = pytest.mark.parametrize("edit, verdict", [
    ({}, "SAFE"),
    ({"h1": NAN}, "UNSAFE"),
    ({"e": NAN}, "UNSAFE"),
    ({"rho": NAN}, "UNSAFE"),
], ids=["no nan", "nan h1", "nan e", "nan rho"])


@NAN_ROWS
def test_a_nan_barrier_value_or_funnel_excess_fails_the_verdict(
        monkeypatch, edit, verdict):
    # every value is safe but the one NaN in the middle row; the
    # monitors still skip it, and the verdict does not
    _, _, tr = hand_built_trace(monkeypatch, [{}, edit, {}])
    assert tr.verdict == verdict
    assert tr.monitors["min_h"] == 1.0
    assert tr.monitors["max_e_excess"] == 0.1 - 1.0


@STREAMED
@NAN_ROWS
def test_a_nan_in_a_later_batch_fails_the_verdict(monkeypatch, tmp_path,
                                                  edit, verdict, streamed):
    # the one NaN is in row 256, the first row of the second batch
    _, _, tr = across_batches(monkeypatch, tmp_path, [{}, edit, {}],
                              streamed)
    assert tr.verdict == verdict
    assert tr.monitors["min_h"] == 1.0
    assert tr.monitors["max_e_excess"] == 0.1 - 1.0


def test_trace_keeps_eight_bytes_a_value():
    # the values of a run are raw doubles: what a trace holds past the
    # run is 8 bytes per column and grid row, plus a small fixed slack
    spec = load_builtin("ship")
    simulate(spec, horizon=0.1)     # compiled and cached pieces built
    gc.collect()
    tracemalloc.start()
    try:
        before = tracemalloc.get_traced_memory()[0]
        tr = simulate(spec, horizon=5.0)
        gc.collect()
        kept = tracemalloc.get_traced_memory()[0] - before
    finally:
        tracemalloc.stop()
    n_rows = int(tr.monitors["steps"]) + 1
    assert n_rows == 501
    assert kept <= 8 * len(tr.columns) * n_rows + 32 * 1024


@functools.cache
def ship_fold_layout():
    model = RuntimeModel(load_builtin("ship"))
    return model, ClosedLoop(model).columns


def test_monitors_copy_no_column():
    # the fold of the monitors and the verdict reads strided views of the
    # row-major values: over 60,001 ship-wide rows it allocates a small
    # fixed amount, where one copied column alone takes 480 KB; and no
    # view outlives the call, so the values can still grow
    model, columns = ship_fold_layout()
    width, n_rows = len(columns), 60_001
    assert width == 19
    data = array("d", [1.0]) * (width * n_rows)
    data[columns.index("e")::width] = array("d", [0.1]) * n_rows
    fold = stream._Fold(model, columns)
    gc.collect()
    tracemalloc.start()
    try:
        fold.add(data)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert fold.verdict(None) == "SAFE" and fold.rows == n_rows
    assert fold.monitors()["max_e_excess"] == 0.1 - 1.0
    print(f"\n  fold peak over {n_rows} rows: {peak} B")
    assert peak <= 64 * 1024
    data.append(0.0)    # BufferError while any view of it is alive


_VALUE = st.one_of(st.sampled_from([NAN, INF, -INF, 0.0, -0.0]),
                   st.floats(-10.0, 10.0))
# rho is never zero, which would end abs(e) / rho in ZeroDivisionError
_RHO = st.one_of(st.sampled_from([NAN, INF, -INF]), st.floats(0.01, 10.0))


@settings(max_examples=100, deadline=None)
@given(st.data())
def test_fold_over_any_batches_is_one_fold(data):
    # the monitors and the NaN scan folded batch by batch, over any split
    # of the rows, are those of one fold over all rows, bit for bit
    model, columns = ship_fold_layout()
    rows = data.draw(st.lists(st.tuples(*[
        _RHO if name == "rho" else _VALUE for name in columns]),
        max_size=20))
    cuts = sorted(data.draw(st.lists(st.integers(0, len(rows)),
                                     max_size=6)))
    whole, split = stream._Fold(model, columns), stream._Fold(model, columns)
    whole.add(array("d", itertools.chain.from_iterable(rows)))
    for lo, hi in zip([0, *cuts], [*cuts, len(rows)]):
        split.add(array("d", itertools.chain.from_iterable(rows[lo:hi])))
    assert split.rows == whole.rows == len(rows)
    assert {k: v.hex() for k, v in split.monitors().items()} == \
        {k: v.hex() for k, v in whole.monitors().items()}
    assert split.nan == whole.nan
    assert split.verdict(None) == whole.verdict(None)


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
    for name in tr.columns:                       # 17 digits round-trip
        assert back.column(name) == tr.column(name)


def test_csv_keeps_seventeen_digit_format(tmp_path):
    # the bytes every trace has been written with, signed zero and
    # non-finite values included
    rows = [[0.1, -0.0, 1e300], [math.pi, math.inf, math.nan]]
    tr = SimTrace(scenario="s", controller="c", columns=["a", "b", "c"],
                  data=array("d", [v for row in rows for v in row]),
                  verdict="SAFE")
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


def test_csv_parses_only_the_columns_asked_for(tmp_path):
    tr = simulate(load_builtin("ship"), horizon=0.5)
    path = tmp_path / "trace.csv"
    tr.to_csv(path)
    asked = []

    def columns(header):
        asked.append(list(header))
        return ["x", "t"]

    back = SimTrace.from_csv(path, columns=columns)
    assert asked == [tr.columns] and back.columns == tr.columns
    assert back.column("t") == tr.column("t")
    assert back.column("x") == tr.column("x")
    assert set(back.column("u")) == {None}


def test_csv_of_a_partly_parsed_trace_is_refused(tmp_path):
    # the rows of a parsed trace are in the file it was read from, all
    # columns parsed or some: to_csv raises before it opens anything,
    # the source file included
    tr = simulate(load_builtin("ship"), horizon=0.5)
    path, other = tmp_path / "trace.csv", tmp_path / "other.csv"
    tr.to_csv(path)
    other.write_text("t,x\n0,0\n")
    before = path.read_bytes(), other.read_bytes()
    for columns in (lambda header: ["t", "x"], None):
        back = SimTrace.from_csv(path, columns=columns)
        for target in (path, other):
            with pytest.raises(ValueError, match="rows are not in memory"):
                back.to_csv(target)
    assert (path.read_bytes(), other.read_bytes()) == before


def test_csv_with_columns_still_checks_every_line(tmp_path):
    ragged = tmp_path / "ragged.csv"
    ragged.write_text("t,x,u\n0.0,1.0,2.0\n0.1,1.0\n")
    with pytest.raises(ValueError, match=r"ragged.csv:3: expected 3 fields, "
                                         r"got 2"):
        SimTrace.from_csv(ragged, columns=lambda header: ["t"])


def test_column_lookup_names_missing(tmp_path):
    tr = simulate(load_builtin("ship"), horizon=0.1)
    with pytest.raises(KeyError):
        tr.column("no_such_column")
