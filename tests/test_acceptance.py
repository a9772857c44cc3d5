"""End-to-end acceptance gate for the packaged toolkit.

One test per criterion, numbered, so `pytest -v` prints exactly one
pass/fail line for each.  Every test also prints a one-line verdict
with its measured margins (visible with -s or on failure):

   1. ship run stays safe inside the heading band, on time;
   2. ship tracking against the frozen baseline samples;
   3. electromech runs stay safe for both controllers, on time;
   4. input total-variation ordering between the two controllers;
   5. safety-filter closed form against the brute-force grid oracle;
   6. constructed barrier chain against hand-expanded closed forms;
   7. funnel derivative budget margin arithmetic;
   8. symbolic controller partials against central finite differences;
   9. observer and filter analytic transients plus the frozen
      estimation-error envelope;
  10. barrier chain nonnegativity and the per-step descent inequality.

Baselines live in tests/data/ and are regenerated by
tools/make_baselines.py; the scalar expectations here (tolerances,
caps, the 1.5 variation factor) are fixed acceptance constants, not
tuned to the baselines.
"""

import json
import math
import os
import random
import time

import numpy as np
import pytest
import yaml

from proxysafe import scenario as scenario_mod
from proxysafe import sim as sim_mod
from proxysafe.barrier import RhoSpec, build_barrier_stack, chi
from proxysafe.expr import compile_expr
from proxysafe.filter import project_halfspace

import test_barrier
import test_controllers
import test_dob
import test_filter

DATA_DIR = os.path.join(os.path.dirname(__file__), "data")

with open(os.path.join(DATA_DIR, "baselines.json"), encoding="utf-8") as _fh:
    BASELINES = json.load(_fh)

H_TOL = 1e-6


def _read_samples(name):
    path = os.path.join(DATA_DIR, name)
    with open(path, encoding="utf-8") as fh:
        fh.readline()
        rows = [line.strip().split(",") for line in fh if line.strip()]
    return [(int(i), float(t), float(v)) for i, t, v in rows]


def _report(num, checks):
    ok = all(flag for flag, _ in checks)
    details = "; ".join(text for _, text in checks)
    line = f"criterion {num}: {'PASS' if ok else 'FAIL'} -- {details}"
    print("\n" + line)
    assert ok, line


# ═══════════════════════════════════════════════════════════════════
# shared full-horizon runs
# ═══════════════════════════════════════════════════════════════════

@pytest.fixture(scope="module")
def ship_run():
    spec = scenario_mod.load_builtin("ship")
    start = time.perf_counter()
    trace = sim_mod.simulate(spec)
    return spec, trace, time.perf_counter() - start


@pytest.fixture(scope="module")
def em_runs():
    spec = scenario_mod.load_builtin("electromech")
    out = {}
    for ctrl in ("dob_backstepping", "ppc"):
        start = time.perf_counter()
        out[ctrl] = (sim_mod.simulate(spec, controller=ctrl),
                     time.perf_counter() - start)
    return spec, out


def test_criterion_01_ship_safety(ship_run):
    spec, trace, wall = ship_run
    min_h = trace.monitors["min_h"]
    max_e = max(abs(v) for v in trace.column("e"))
    _report(1, [
        (trace.verdict == "SAFE", f"verdict {trace.verdict}"),
        (min_h >= -H_TOL, f"min h {min_h:.3e} >= {-H_TOL:.0e}"),
        (max_e <= 0.02, f"max |e| {max_e:.3e} <= 0.02"),
        (wall <= 10.0, f"wall {wall:.1f}s <= 10s"),
    ])


def test_criterion_02_ship_tracking_regression(ship_run):
    spec, trace, _ = ship_run
    ts, xs, xd = trace.column("t"), trace.column("x"), trace.column("x_d")
    stride = BASELINES["ship_tracking"]["stride"]
    mask = math.radians(BASELINES["ship_tracking"]["mask_deg"]) + 1e-12
    expected_rows = sum(1 for i in range(0, len(ts), stride)
                        if abs(xd[i]) <= mask)
    samples = _read_samples("ship_tracking.csv")
    worst = 0.0
    aligned = True
    for i, t_base, err_base in samples:
        aligned = aligned and abs(ts[i] - t_base) <= 1e-12 \
            and abs(xd[i]) <= mask
        worst = max(worst, abs(abs(xs[i] - xd[i]) - err_base))
    _report(2, [
        (len(samples) == expected_rows > 0,
         f"{len(samples)} baseline samples cover the <=15 deg intervals"),
        (aligned, "sample grid aligned"),
        (worst <= 1e-9, f"worst tracking deviation {worst:.3e} <= 1e-9"),
    ])


def test_criterion_03_electromech_safety(em_runs):
    _, runs = em_runs
    checks = []
    for ctrl, (trace, wall) in runs.items():
        xs = trace.column("x")
        excess = trace.monitors["max_e_excess"]
        checks += [
            (trace.verdict == "SAFE", f"{ctrl}: verdict {trace.verdict}"),
            (min(xs) >= -0.5 - H_TOL and max(xs) <= 0.3 + H_TOL,
             f"x in [{min(xs):.4f}, {max(xs):.4f}]"),
            (excess <= 1e-9, f"funnel excess {excess:.1e} <= 1e-9"),
            (wall <= 30.0, f"wall {wall:.1f}s <= 30s"),
        ]
    _report(3, checks)


def test_criterion_04_input_oscillation_ordering(em_runs):
    _, runs = em_runs
    lo, hi = BASELINES["tv"]["window"]
    tvs = {}
    for ctrl, (trace, _) in runs.items():
        ts, us = trace.column("t"), trace.column("u")
        tvs[ctrl] = sum(abs(us[i] - us[i - 1]) for i in range(1, len(ts))
                        if lo - 1e-9 <= ts[i - 1] and ts[i] <= hi + 1e-9)
    factor = tvs["ppc"] / tvs["dob_backstepping"]
    drift = max(abs(tvs[c] - BASELINES["tv"][c])
                / max(1.0, BASELINES["tv"][c])
                for c in ("dob_backstepping", "ppc"))
    _report(4, [
        (factor >= BASELINES["tv"]["min_factor"],
         f"TV ratio {factor:.3f} >= {BASELINES['tv']['min_factor']}"),
        (drift <= 1e-9, f"TV drift from baseline {drift:.1e} <= 1e-9"),
    ])


def test_criterion_05_qp_oracle():
    rng = np.random.default_rng(test_filter.SEED)
    instances = test_filter.random_instances(rng, 1000)
    start = time.perf_counter()
    worst_coord = worst_obj = 0.0
    for nu_d, psi0, psi1 in instances:
        nu = np.asarray([project_halfspace(nu_d, psi0, psi1)])
        brute = test_filter.projected_grid((nu_d,), psi0, (psi1,))
        worst_coord = max(worst_coord, float(np.max(np.abs(nu - brute))))
        obj = float(((nu - nu_d) ** 2).sum())
        obj_brute = float(((brute - nu_d) ** 2).sum())
        worst_obj = max(worst_obj, abs(obj - obj_brute))
    wall = time.perf_counter() - start
    _report(5, [
        (worst_coord <= 1e-4, f"worst coordinate gap {worst_coord:.2e}"),
        (worst_obj <= 1e-6, f"worst objective gap {worst_obj:.2e}"),
        (wall <= 5.0, f"wall {wall:.1f}s <= 5s"),
    ])


def test_criterion_06_barrier_recursion_oracle():
    rho = RhoSpec(0.02, 0.02)
    stack = build_barrier_stack(test_barrier.ship_proxy(), rho)
    rng = random.Random(test_barrier.SEED)
    worst_b1 = worst_psi1 = 0.0
    for _ in range(100):
        x = rng.uniform(-0.34, 0.34)
        mu1 = rng.uniform(-2.0, 2.0)
        t = rng.uniform(0.0, 10.0)
        got = stack.eval_barriers(x, [mu1], t)[1]
        worst_b1 = max(worst_b1,
                       abs(got - test_barrier.hand_b1_ship(x, mu1, t, rho)))
        _, psi1 = stack.eval_constraint(x, [mu1], t)
        tau = (math.pi ** 2 / 81 - x * x) / test_barrier.XI_SHIP
        want = chi(tau, 1) / test_barrier.XI_SHIP * (-2.0 * x)
        worst_psi1 = max(worst_psi1, abs(psi1 - want))
    _report(6, [
        (worst_b1 <= 1e-12, f"b1 closed-form gap {worst_b1:.2e} <= 1e-12"),
        (worst_psi1 <= 1e-12,
         f"psi1 identity gap {worst_psi1:.2e} <= 1e-12"),
    ])


def test_criterion_07_budget_margin():
    ship = scenario_mod.load_builtin("ship")
    report = sim_mod.RuntimeModel(ship).run_checks()[0]
    margin = report.budget_check.data["margin"]
    mapping = ship.to_mapping()
    mapping["rho"] = {"initial": 10.0}
    wide = scenario_mod.loads_scenario(yaml.safe_dump(mapping))
    wide_report = sim_mod.RuntimeModel(wide).run_checks()[0]
    _report(7, [
        (report.budget_check.ok, "default funnel budget passes"),
        (abs(margin - 5.996) <= 1e-12,
         f"margin {margin!r} equals 5.996 to 1e-12"),
        (not wide_report.budget_check.ok, "widened funnel budget fails"),
    ])


def test_criterion_08_partials_vs_fd():
    from proxysafe.controllers import build_dob_backstepping, build_nominal
    start = time.perf_counter()
    worst = 0.0

    ctrl = build_nominal(test_controllers.ship_proxy(),
                         test_controllers.ship_gains())
    params = ["x", "mu1", "t"]
    parent = compile_expr(ctrl.alphas[0], params)
    rng = random.Random(test_controllers.SEED + 1)
    for (_, var), dexpr in ctrl.partials.items():
        dfn = compile_expr(dexpr, params)
        idx = params.index(var)
        for _ in range(100):
            args = (rng.uniform(-0.34, 0.34), rng.uniform(-0.5, 0.5),
                    rng.uniform(0.0, 400.0))
            sym = dfn(*args)
            fd = test_controllers.fd_partial(parent, args, idx)
            worst = max(worst, abs(fd - sym) / max(1.0, abs(sym)))

    proxy, fs, gs, dob, gains, rho = test_controllers.motor_parts()
    ctrl = build_dob_backstepping(fs, gs, proxy, dob, gains, rho)
    params = list(ctrl.params)
    parent = compile_expr(ctrl.taus[0], params)
    rng = random.Random(test_controllers.SEED + 5)
    for (_, var), dexpr in ctrl.partials.items():
        dfn = compile_expr(dexpr, params)
        idx = params.index(var)
        for _ in range(100):
            s = test_controllers.random_motor_state(rng, rho)
            args = [s[p] for p in params]
            sym = dfn(*args)
            fd = test_controllers.fd_partial(parent, args, idx)
            worst = max(worst, abs(fd - sym) / max(1.0, abs(sym)))
    wall = time.perf_counter() - start
    _report(8, [
        (worst <= 1e-6, f"worst relative FD gap {worst:.2e} <= 1e-6"),
        (wall <= 30.0, f"wall {wall:.1f}s <= 30s"),
    ])


def test_criterion_09_dob_filter_analytics(em_runs):
    rec = []
    test_dob.observe_scalar(30.0, lambda t: 1.0, 0.2, 1e-3, record=rec)
    worst_dob = max(abs(dh - (1.0 - math.exp(-30.0 * t))) for t, dh in rec)

    from proxysafe.dob import DobSpec
    spec_f = DobSpec(alphas=(30.0, 30.0), time_constants=((100.0,),))
    trace_f = test_dob.frozen_filter_run(spec_f, 1.0, 0.05, 1e-5)
    worst_filter = max(abs(y[0] - (1.0 - math.exp(-100.0 * t)))
                       for t, y in trace_f)

    _, runs = em_runs
    trace, _ = runs["dob_backstepping"]
    ts = trace.column("t")
    deltas = [abs(a - b) for a, b in
              zip(trace.column("d1"), trace.column("dhat1"))]
    samples = _read_samples("delta1_envelope.csv")
    worst_env = max(abs(deltas[i] - base) for i, _, base in samples)
    mid = ts[-1] / 2
    late = max(v for t, v in zip(ts, deltas) if t >= mid)
    early = max(v for t, v in zip(ts, deltas) if t < mid)
    _report(9, [
        (worst_dob <= 1e-8,
         f"constant-disturbance decay gap {worst_dob:.2e} <= 1e-8"),
        (worst_filter <= 1e-8,
         f"filter step-response gap {worst_filter:.2e} <= 1e-8"),
        (worst_env <= 1e-9,
         f"estimation-error envelope drift {worst_env:.2e} <= 1e-9"),
        (late <= early, f"non-divergent: late max {late:.3e} <= "
                        f"early max {early:.3e}"),
    ])


def test_criterion_10_barrier_chain(ship_run):
    spec, trace, _ = ship_run
    b0 = trace.column("b1_0")
    b1 = trace.column("b1_1")
    dt = spec.dt
    lam1 = spec.proxies[0].lambdas[0]
    scale = max(1.0, max(abs(v) for v in b0), max(abs(v) for v in b1))
    worst = math.inf
    for i in range(len(b0) - 1):
        fd = (b0[i + 1] - b0[i]) / dt
        worst = min(worst, fd + lam1 * b0[i] - b1[i])
    _report(10, [
        (min(b0) >= -H_TOL, f"min b0 {min(b0):.3e} >= {-H_TOL:.0e}"),
        (min(b1) >= -H_TOL, f"min b1 {min(b1):.3e} >= {-H_TOL:.0e}"),
        (worst >= -1e-3 * scale,
         f"descent slack {worst:.3e} >= {-1e-3 * scale:.3e}"),
    ])
