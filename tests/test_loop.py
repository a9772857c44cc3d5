"""The generated closed loop against the reference composition.

`loop.ClosedLoop` must compute, bit for bit, what `sim.RuntimeModel`
computes call by call.  Covers, in order:

1. stage and grid point at seeded sampled states, for every controller
   kind on ship and electromech, a plain-mode barrier and three Nussbaum
   regressors: chi saturated and not, the filter active and not, and
   states where the reference aborts (the same exception with the same
   message);
2. hold mode: the derivative under held outputs and the grid point that
   logs them;
3. the two-barrier pair fallback: the same calls and the same count;
   a derivative that fails alone at a grid point, which keeps the row
   and names the failing scenario expression;
4. whole runs of `simulate` against the loop that drove the reference
   composition, hold mode and aborts included;
5. the run-start check, which must raise on any mismatch.

Values are compared as bit patterns, so -0.0 and 0.0 differ and NaN
equals NaN.
"""

import math
import random

import pytest
import yaml

from proxysafe import filter as filter_mod
from proxysafe import sim as sim_mod
from proxysafe.barrier import CHI_SATURATE
from proxysafe.controllers import BarrierBreach, FunnelBreach, SingularGain
from proxysafe.expr import EvalError
from proxysafe.filter import Infeasible
from proxysafe.loop import ClosedLoop
from proxysafe.scenario import load_builtin, loads_scenario
from proxysafe.sim import (LoopMismatch, RunDomainError, RuntimeModel,
                           _Controls, simulate)

ABORTS = (Infeasible, BarrierBreach, FunnelBreach, SingularGain, EvalError,
          ValueError, ArithmeticError)
SAMPLES = 400


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


def plain_one_barrier():
    """electromech's lower barrier alone, built in plain mode (no chi)."""
    mapping = load_builtin("electromech").to_mapping()
    mapping["proxy"] = [dict(mapping["proxy"][0], mode="plain")]
    mapping["controller"] = "ppc"
    return loads_scenario(yaml.safe_dump(mapping))


NOMINAL = {"controller": "nominal", "controllers": {"nominal": {}}}
SPECS = {
    "ship/nussbaum": lambda: load_builtin("ship"),
    "ship/nussbaum, three regressors": lambda: variant(
        "ship", controllers__nussbaum__phi=["z1", "z1^3", "sin(z1)"],
        controllers__nussbaum__initial={"zeta": 8.8,
                                        "theta": [0.1, -0.2, 0.3]}),
    "ship/nominal": lambda: variant("ship", **NOMINAL),
    "electromech/ppc, plain, one barrier": plain_one_barrier,
    "electromech/dob_backstepping": lambda: load_builtin("electromech"),
    "electromech/ppc": lambda: variant("electromech", controller="ppc"),
    "electromech/nominal": lambda: variant(
        "electromech", plant__disturbances=[], **NOMINAL),
}


def bits(value):
    if value is None:
        return None
    if isinstance(value, (list, tuple)):
        return [bits(v) for v in value]
    return float(value).hex()


def outcome(model, fn):
    """Bit patterns of what fn returns, or the abort it raises, and the
    pair fallbacks it counted."""
    model.qp_fallbacks = 0
    try:
        got = bits(fn())
    except ABORTS as exc:
        exc = exc.raw if isinstance(exc, RunDomainError) else exc
        got = f"{type(exc).__name__}: {exc}"
    return got, model.qp_fallbacks


def outputs(c):
    """A reference _Controls as the generated loop's control outputs."""
    return (c.nu_d, c.nu, c.u, c.dzeta, tuple(c.dtheta))


def reference_point(model, state, t, held=None):
    """Derivative, row and control outputs at a grid point, the way
    simulate composed them before the loop was generated."""
    c = model.controls(state, t)
    if held is not None:
        c = _Controls(nu_d=held.nu_d, nu=held.nu, u=held.u,
                      dzeta=held.dzeta, dtheta=held.dtheta,
                      eps=c.eps, xis=c.xis)
    row = model.trace_row(state, t, c)
    return model.deriv(state, t, c), row, outputs(c)


def sample_state(model, rng):
    """A closed-loop state near the scenario's operating range: the head
    state over the check box (or exactly 0, deep inside the ship's safe
    set), tracking errors mostly inside the funnel."""
    spec = model.spec
    t = rng.uniform(0.0, spec.horizon)
    lo, hi = spec.check_box[0]
    x = 0.0 if rng.random() < 0.15 else rng.uniform(lo, hi)
    mu = [rng.uniform(-2.0, 2.0)] + [rng.uniform(-20.0, 20.0)
                                     for _ in range(model.m - 1)]
    state = [x]
    if model.has_plant:
        z = [mu[0] + rng.uniform(-1.1, 1.1) * spec.rho.value(t)] + \
            [rng.uniform(-3.0, 3.0) for _ in range(model.n - 1)]
        state += z
    state += mu
    if model.kind == "nussbaum":
        state += [rng.uniform(0.0, 20.0)] + \
            [rng.uniform(-1.0, 1.0) for _ in range(model.extra_dim - 1)]
    elif model.kind == "dob_backstepping":
        state += [rng.uniform(-50.0, 50.0) for _ in range(model.extra_dim)]
    return state, t


@pytest.mark.parametrize("name", sorted(SPECS))
def test_stage_and_point_match_reference(name):
    model = RuntimeModel(SPECS[name]())
    loop = ClosedLoop(model)
    rng = random.Random(f"stage/{name}")
    switched = [st for st in model.stacks if st.proxy.mode == "switched"]
    seen = {"active": 0, "inactive": 0}
    if switched:
        seen.update(saturated=0, unsaturated=0)
    for _ in range(SAMPLES):
        state, t = sample_state(model, rng)
        want = outcome(model, lambda: reference_point(model, state, t))
        assert outcome(model, lambda: loop.point(state, t, None)) == want, \
            (state, t)
        assert outcome(model, lambda: loop.stage(state, t)) == \
            outcome(model, lambda: model.deriv(state, t)), (state, t)
        for stack in switched:
            tau = stack.h_value([state[0]]) / stack.proxy.xi
            seen["saturated" if tau >= CHI_SATURATE else "unsaturated"] += 1
        if not isinstance(want[0], str):
            nu_d, nu = model.safe_input(state[0], state[model.i_mu:
                                                        model.i_extra], t)[:2]
            seen["active" if nu != nu_d else "inactive"] += 1
    if switched:        # the plain barrier projects at every sampled state
        assert all(seen.values()), seen


@pytest.mark.parametrize("name", sorted(SPECS))
def test_held_outputs_match_reference(name):
    model = RuntimeModel(SPECS[name]())
    loop = ClosedLoop(model)
    rng = random.Random(f"held/{name}")
    compared = 0
    while compared < SAMPLES // 4:
        state, t = sample_state(model, rng)
        try:
            held = model.controls(*sample_state(model, rng))
        except ABORTS:
            continue
        compared += 1
        assert outcome(model, lambda: loop.stage_held(
            state, t, outputs(held))) == \
            outcome(model, lambda: model.deriv(state, t, held)), (state, t)
        assert outcome(model, lambda: loop.point(state, t, outputs(held))) \
            == outcome(model, lambda: reference_point(model, state, t, held))


def test_pair_fallback_same_calls_and_count(monkeypatch):
    # the two-barrier corner case stays a call; a stand-in solver records
    # its arguments and always succeeds, so every fallback is counted
    calls = {"reference": [], "generated": []}

    def recorder(side):
        def solve(nu_d, psi0_a, psi1_a, psi0_b, psi1_b):
            calls[side].append(bits([nu_d, psi0_a, psi1_a, psi0_b, psi1_b]))
            return nu_d + 1e-3 * psi0_a - 1e-3 * psi0_b
        return solve

    monkeypatch.setattr(filter_mod, "solve_cbf_qp_pair",
                        recorder("generated"))
    monkeypatch.setattr(sim_mod, "solve_cbf_qp_pair", recorder("reference"))
    model = RuntimeModel(load_builtin("electromech"), controller="ppc")
    loop = ClosedLoop(model)
    rng = random.Random("pair")
    fallbacks = 0
    for _ in range(SAMPLES):
        state, t = sample_state(model, rng)
        want = outcome(model, lambda: reference_point(model, state, t))
        assert outcome(model, lambda: loop.point(state, t, None)) == want
        assert outcome(model, lambda: loop.stage(state, t)) == \
            outcome(model, lambda: model.deriv(state, t))
        fallbacks += want[1]
    assert fallbacks > 0
    assert calls["generated"] == calls["reference"]


def test_failing_derivative_keeps_the_grid_row():
    # a plant term the funnel law never reads fails in the derivative
    # only: the row is still logged, as the composition logged it before
    # the next step failed, and the failure is located at its expression
    mapping = load_builtin("electromech").to_mapping()
    mapping["plant"]["levels"][0]["f"] += " + log(z1 + 10)"
    model = RuntimeModel(loads_scenario(yaml.safe_dump(mapping)),
                         controller="ppc")
    loop = ClosedLoop(model)
    state = model.initial_state()
    state[1] = state[3] = -20.0                  # z1 = mu1, no tracking error
    c = model.controls(state, 0.5)
    k1, row, ctrl = loop.point(state, 0.5, None)
    assert k1 is None
    assert bits(row) == bits(model.trace_row(state, 0.5, c))
    with pytest.raises(ValueError):
        model.deriv(state, 0.5, c)
    with pytest.raises(RunDomainError, match=r"at t=0\.5 in plant\.levels"
                       r"\[0\]\.f: log of a non-positive value"):
        loop.stage_held(state, 0.5, ctrl)


# ═══════════════════════════════════════════════════════════════════
# whole runs
# ═══════════════════════════════════════════════════════════════════

def reference_run(model):
    """Rows and abort reason of the loop that integrated the reference
    composition: controls per stage, trace_row per grid point, and under
    hold the outputs evaluated at each hold time kept, with fresh
    diagnostics, until the next hold time."""
    dt = model.dt
    rows, reason = [], None
    held, next_hold = None, 0.0
    refresh = model.hold_dt is not None
    state = model.initial_state()
    try:
        c = model.controls(state, 0.0)
        rows.append(model.trace_row(state, 0.0, c))
        for k in range(1, max(1, int(round(model.horizon / dt))) + 1):
            t_prev = (k - 1) * dt
            if refresh:
                held = c
                next_hold += model.hold_dt
            state = model.step(state, t_prev, dt, held=held, c1=c)
            t = k * dt
            if not all(math.isfinite(v) for v in state):
                return rows, f"non-finite state at t={t:.6g}"
            c = model.controls(state, t)
            refresh = model.hold_dt is not None and t >= next_hold - 1e-12
            if held is not None and not refresh:
                c = _Controls(nu_d=held.nu_d, nu=held.nu, u=held.u,
                              dzeta=held.dzeta, dtheta=held.dtheta,
                              eps=c.eps, xis=c.xis)
            rows.append(model.trace_row(state, t, c))
    except ABORTS as exc:
        reason = f"{type(exc).__name__}: {exc}"
    return rows, reason


RUNS = {
    "ship": (lambda: load_builtin("ship"), {"horizon": 2.0}),
    "ship hold": (lambda: load_builtin("ship"),
                  {"horizon": 2.0, "hold_dt": 0.05}),
    "ship stall": (lambda: variant(
        "ship", controllers__nussbaum__initial={"zeta": 0.0}),
        {"horizon": 2.0}),
    "ship nominal": (SPECS["ship/nominal"], {"horizon": 2.0}),
    "electromech dob": (lambda: load_builtin("electromech"),
                        {"horizon": 0.2}),
    "electromech dob hold": (lambda: load_builtin("electromech"),
                             {"horizon": 0.2, "hold_dt": 0.005}),
    "electromech ppc": (lambda: load_builtin("electromech"),
                        {"horizon": 0.2, "controller": "ppc"}),
    "electromech ppc breach": (lambda: variant(
        "electromech", controllers__ppc__gains__floor=0.01,
        controllers__ppc__gains__ks=[2, 2]),
        {"horizon": 0.2, "controller": "ppc"}),
    "electromech nominal": (SPECS["electromech/nominal"], {"horizon": 0.2}),
}


@pytest.mark.parametrize("name", sorted(RUNS))
def test_simulate_matches_reference_run(name):
    make, kwargs = RUNS[name]
    spec = make()
    tr = simulate(spec, **kwargs)
    model = RuntimeModel(spec, **kwargs)
    rows, reason = reference_run(model)
    assert bits(tr.rows) == bits(rows)
    assert tr.reason == reason
    assert tr.monitors["qp_fallbacks"] == model.qp_fallbacks


def test_run_start_mismatch_raises(monkeypatch):
    trace_row = RuntimeModel.trace_row

    def one_ulp_off(self, state, t, c):
        row = trace_row(self, state, t, c)
        row[1] = math.nextafter(row[1], math.inf)
        return row

    monkeypatch.setattr(RuntimeModel, "trace_row", one_ulp_off)
    with pytest.raises(LoopMismatch, match="t=0 row"):
        simulate(load_builtin("ship"), horizon=0.1)
