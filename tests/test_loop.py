"""The generated closed loop against the reference composition.

`loop.ClosedLoop` must compute, bit for bit, what `sim.RuntimeModel`
computes call by call.  Covers, in order:

1. stage and grid point at seeded sampled states, for every controller
   kind on ship and electromech, a plain-mode barrier and three Nussbaum
   regressors: chi saturated and not, the filter active and not, and
   states where the reference aborts (the same exception with the same
   message);
2. hold mode: the derivative under held outputs and the grid point that
   logs them; every trace column, at sampled states, against its own
   per-module law;
3. the fallback clamp into every barrier row: the same calls and the
   same count; with three barriers, every row met wherever the filter
   returns an input; a derivative that fails alone at a grid point,
   which keeps the row and names the failing scenario expression; the
   number of locals the generated functions bind; the generated
   sources, pinned by digest;
4. whole runs of `simulate` against the loop that drove the reference
   composition, hold mode and aborts included, and a full three-barrier
   run;
5. the run-start check, which must raise on any mismatch.

Values are compared as bit patterns, so -0.0 and 0.0 differ and NaN
equals NaN.
"""

import hashlib
import math
import random

import pytest
import yaml

from proxysafe import filter as filter_mod
from proxysafe import sim as sim_mod
from proxysafe.barrier import CHI_SATURATE
from proxysafe.controllers import (
    BarrierBreach, FunnelBreach, SingularGain, eval_dob_backstepping,
    nussbaum_control, ppc_control,
)
from proxysafe.dob import dob_outputs
from proxysafe.expr import EvalError, evaluate
from proxysafe.filter import FEAS_TOL, Infeasible
from proxysafe.loop import ClosedLoop
from proxysafe.scenario import load_builtin, loads_scenario
from proxysafe.sim import LoopMismatch, RunDomainError, RuntimeModel, simulate
from scenario_variants import three_barriers, variant

ABORTS = (Infeasible, BarrierBreach, FunnelBreach, SingularGain, EvalError,
          ValueError, ArithmeticError)
SAMPLES = 400


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
    "electromech/ppc, three barriers": three_barriers,
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


def reference_point(model, state, t, held=None):
    """Derivative, row and control outputs at a grid point, the way
    simulate composed them before the loop was generated."""
    outputs, internals = model.controls(state, t)
    if held is not None:
        outputs = held
    row = model.trace_row(state, t, outputs, internals)
    return model.deriv(state, t, outputs), row, outputs


def sample_state(model, rng):
    """A closed-loop state near the scenario's operating range: the head
    state over the check box (or exactly 0, deep inside the ship's safe
    set), tracking errors mostly inside the funnel."""
    spec = model.spec
    t = rng.uniform(0.0, spec.horizon)
    lo, hi = spec.check_box
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
            [rng.uniform(-1.0, 1.0)
             for _ in range(model.dim - model.i_extra - 1)]
    elif model.kind == "dob_backstepping":
        state += [rng.uniform(-50.0, 50.0)
                  for _ in range(model.dim - model.i_extra)]
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
            tau = stack.h_value(state[0]) / stack.proxy.xi
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
            held = model.controls(*sample_state(model, rng))[0]
        except ABORTS:
            continue
        compared += 1
        assert outcome(model, lambda: loop.stage_held(state, t, held)) == \
            outcome(model, lambda: model.deriv(state, t, held)), (state, t)
        assert outcome(model, lambda: loop.point(state, t, held)) \
            == outcome(model, lambda: reference_point(model, state, t, held))


def own_values(model, state, t):
    """Each trace column's value at (state, t), by column name, from its
    own per-module law: the state entries as they are (the observer
    states s_i are logged as the estimates dhat_i), the scenario
    expressions under `evaluate`, the barrier evaluators, the filter and
    the tracking laws."""
    spec = model.spec
    x, z, mu = state[0], state[1:model.i_mu], state[model.i_mu:model.i_extra]
    want = dict(zip(model.state_names, state), t=t)
    for i in range(1, model.n + 1):
        want.pop(f"s{i}", None)
    want["e"] = z[0] - mu[0] if model.has_plant else 0.0
    want["rho"] = spec.rho.value(t)
    want["x_d"] = evaluate(spec.nominal.x_d, {"t": t})
    nu_d, nu, _ = model.safe_input(x, mu, t)
    want.update(nu_d=nu_d, nu=nu)
    for k, stack in enumerate(model.stacks, start=1):
        want[f"h{k}"] = stack.h_value(x)
        want.update((f"b{k}_{i}", b)
                    for i, b in enumerate(stack.eval_barriers(x, mu, t)))
        psi0, psi1 = stack.eval_constraint(x, mu, t)
        want.update({f"psi0_{k}": psi0, f"psi1_{k}": psi1,
                     f"margin{k}": psi0 + psi1 * nu})
    want.update((f"d{i}", evaluate(d, {"t": t}))
                for i, d in enumerate(spec.plant.disturbances, start=1))
    if model.kind == "ppc":
        want["u"], xis, _ = ppc_control(model.ppc_gains, model.ppc_funnels,
                                        model.ppc_signs, z, mu[0], spec.rho,
                                        t)
        want.update((f"xi{i}", xi) for i, xi in enumerate(xis, start=1))
    elif model.kind == "nussbaum":
        phis = [evaluate(p, {"z1": z[0]}) for p in model.phis]
        want["u"] = nussbaum_control(
            model.nuss_gains, state[model.i_extra], state[model.i_extra + 1:],
            want["e"], nu, spec.rho.value(t), phis, t)[0]
    elif model.kind == "dob_backstepping":
        mid = model.i_extra + model.n
        d_hat = dob_outputs(model.dob, state[model.i_extra:mid], z)
        want["u"], eps = eval_dob_backstepping(model.dob_ctrl, x, z, mu, nu,
                                               d_hat, state[mid:], t)
        want.update((f"dhat{i}", v) for i, v in enumerate(d_hat, start=1))
        want.update((f"eps{i}", v) for i, v in enumerate(eps, start=1))
    return want


@pytest.mark.parametrize("name", sorted(SPECS))
def test_each_column_carries_its_own_value(name):
    # the generated row names each value where it writes it; a column
    # named for another quantity, or a quantity left unnamed, fails here
    model = RuntimeModel(SPECS[name]())
    loop = ClosedLoop(model)
    columns = loop.columns
    assert len(set(columns)) == len(columns)
    rng = random.Random(f"columns/{name}")
    compared = 0
    for _ in range(SAMPLES // 4):
        state, t = sample_state(model, rng)
        try:
            row = loop.point(state, t, None)[1]
        except ABORTS:
            continue
        compared += 1
        assert len(row) == len(columns)
        want = {c: bits(v) for c, v in own_values(model, state, t).items()}
        assert dict(zip(columns, bits(row))) == want, (state, t)
    assert compared >= SAMPLES // 20


def test_generated_functions_bind_few_locals():
    # a subexpression read once is written inline, not bound to a local:
    # electromech's observer-backstepping stage had 455 locals and its
    # grid point 460 while every subexpression was bound
    loop = ClosedLoop(RuntimeModel(load_builtin("electromech")))
    assert loop.stage.__code__.co_nlocals <= 200
    assert loop.point.__code__.co_nlocals <= 200


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


def test_three_barriers_meet_every_row():
    # the rows are projected onto one after another and the clamp takes
    # over when a row before the last is still violated, so every row
    # before the last is met within FEAS_TOL; the last one is met by its
    # own projection, up to that projection's rounding, which at |psi0|
    # near 1e9 is 1 ulp of psi0, above FEAS_TOL
    model = RuntimeModel(three_barriers())
    loop = ClosedLoop(model)
    rng = random.Random("pair")
    fallbacks = 0
    for _ in range(SAMPLES):
        state, t = sample_state(model, rng)
        want = outcome(model, lambda: reference_point(model, state, t))
        assert outcome(model, lambda: loop.point(state, t, None)) == want
        x, mu = state[0], state[model.i_mu:model.i_extra]
        try:
            nu, rows = model.safe_input(x, mu, t)[1:]
        except Infeasible as exc:
            assert want[0] == f"Infeasible: {exc}"
            continue
        fallbacks += want[1]
        *before, (a, b) = rows
        for psi0, psi1 in before:
            assert psi0 + psi1 * nu >= -FEAS_TOL, (state, t)
        assert a + b * nu >= -FEAS_TOL - 4 * math.ulp(a), (state, t)
    assert fallbacks > 0


# (scenario, controller) -> sha256 of the generated stage, point and
# stage_held sources, joined in that order
PINNED_SOURCES = {
    ("electromech", "dob_backstepping"):
        "17c83f25b51bba374343c329c288507ed97fed9beb677f046c960ae5c11fe86a",
    ("electromech", "ppc"):
        "fe01286f899bc68822a47b32d0fe87ad00c5badbba18f7395fd142847937726a",
    ("ship", "nussbaum"):
        "b729e3a7f191467f293e91a48152cbe016cdd913640ec82bcf61c9db33c0a8d5",
}


@pytest.mark.parametrize("name, controller", sorted(PINNED_SOURCES))
def test_generated_sources_are_pinned(name, controller):
    """The built-in scenarios' generated closed loop is the source it was
    when the multi-row fallback replaced the two-barrier one, which left
    the two-barrier source as it was.  Retake a digest only for a
    deliberate change of the generated code, recorded as such."""
    loop = ClosedLoop(RuntimeModel(load_builtin(name), controller=controller))
    source = "".join(f._source for f in
                     (loop.stage, loop.point, loop.stage_held))
    assert hashlib.sha256(source.encode()).hexdigest() == \
        PINNED_SOURCES[name, controller], source


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
    outputs, internals = model.controls(state, 0.5)
    k1, row, ctrl = loop.point(state, 0.5, None)
    assert k1 is None
    assert bits(row) == bits(model.trace_row(state, 0.5, outputs, internals))
    with pytest.raises(ValueError):
        model.deriv(state, 0.5, outputs)
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
    held, n_holds = None, 0
    refresh = model.hold_dt is not None
    state = model.initial_state()
    try:
        outputs, internals = model.controls(state, 0.0)
        rows.append(model.trace_row(state, 0.0, outputs, internals))
        for k in range(1, max(1, int(round(model.horizon / dt))) + 1):
            t_prev = (k - 1) * dt
            if refresh:
                held = outputs
                n_holds += 1
            state = model.step(state, t_prev, dt, held=held, c1=outputs)
            t = k * dt
            if not all(math.isfinite(v) for v in state):
                return rows, f"non-finite state at t={t:.6g}"
            outputs, internals = model.controls(state, t)
            refresh = model.hold_dt is not None and \
                t >= n_holds * model.hold_dt * (1.0 - 1e-12)
            if held is not None and not refresh:
                outputs = held
            rows.append(model.trace_row(state, t, outputs, internals))
    except ABORTS as exc:
        reason = f"{type(exc).__name__}: {exc}"
    return rows, reason


RUNS = {
    "ship": (lambda: load_builtin("ship"), {"horizon": 2.0}),
    "ship hold": (lambda: variant("ship", hold_dt=0.05), {"horizon": 2.0}),
    "ship stall": (lambda: variant(
        "ship", controllers__nussbaum__initial={"zeta": 0.0}),
        {"horizon": 2.0}),
    "ship nominal": (SPECS["ship/nominal"], {"horizon": 2.0}),
    "electromech dob": (lambda: load_builtin("electromech"),
                        {"horizon": 0.2}),
    "electromech dob hold": (lambda: variant("electromech", hold_dt=0.005),
                             {"horizon": 0.2}),
    "electromech ppc": (lambda: load_builtin("electromech"),
                        {"horizon": 0.2, "controller": "ppc"}),
    "electromech ppc breach": (lambda: variant(
        "electromech", controllers__ppc__gains__floor=0.01,
        controllers__ppc__gains__ks=[2, 2]),
        {"horizon": 0.2, "controller": "ppc"}),
    "electromech nominal": (SPECS["electromech/nominal"], {"horizon": 0.2}),
    "electromech ppc three barriers": (three_barriers, {"horizon": 0.2}),
}


@pytest.mark.parametrize("name", sorted(RUNS))
def test_simulate_matches_reference_run(name):
    make, kwargs = RUNS[name]
    spec = make()
    tr = simulate(spec, **kwargs)
    model = RuntimeModel(spec, **kwargs)
    rows, reason = reference_run(model)
    assert bits(list(tr.data)) == bits([v for row in rows for v in row])
    assert tr.reason == reason
    assert tr.monitors["qp_fallbacks"] == model.qp_fallbacks


def test_three_barrier_run_is_safe():
    # the fallback is never taken: the run is what the projections
    # alone give, and every margin is at most rounding below zero
    tr = simulate(three_barriers())
    assert tr.verdict == "SAFE"
    assert len(tr.column("t")) == 20001
    assert tr.monitors["qp_fallbacks"] == 0
    for k in (1, 2, 3):
        assert min(tr.column(f"margin{k}")) >= -FEAS_TOL


def test_run_start_mismatch_raises(monkeypatch):
    trace_row = RuntimeModel.trace_row

    def one_ulp_off(self, state, t, outputs, internals):
        row = trace_row(self, state, t, outputs, internals)
        row[1] = math.nextafter(row[1], math.inf)
        return row

    monkeypatch.setattr(RuntimeModel, "trace_row", one_ulp_off)
    with pytest.raises(LoopMismatch, match="t=0 row"):
        simulate(load_builtin("ship"), horizon=0.1)
