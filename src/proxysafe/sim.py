"""Fixed-step closed-loop simulation.

One run integrates, as a single ODE, the true plant chain, the virtual
proxy chain that the safety filter steers, and whatever extra states the
selected tracking controller carries (adaptive estimates, observer and
filter-chain states).  The integrator is classical fixed-step RK4 with
every control signal recomputed at every stage, matching a
continuous-time analysis; an optional hold interval freezes the control
outputs between updates for robustness studies.

`RuntimeModel` is the reference composition of the per-module laws:
`controls`, `safe_input`, `deriv`, `step` and `trace_row` call the
nominal law, the barrier constraint, the projection, the tracking law
and the plant and observer derivatives one by one.  `simulate` runs the
loop on the functions `loop.ClosedLoop` generates from the same
symbolic pieces for the run's scenario and controller; a grid row comes
from the same evaluation that supplies the next step's first RK4 stage.
At the start of every run the first step and the t=0 row are computed
both ways and must agree bit for bit, or the run raises `LoopMismatch`.

Each grid point is logged with the barrier values, the filter constraint
row and its margin, the funnel, and the controller internals, and the
run ends with a verdict: SAFE when every barrier stayed above -1e-6 and
the tracking error stayed inside the funnel (within 1e-9), UNSAFE when
either failed, ABORTED (with the reason and the partial trace) when the
loop broke down before the horizon.  A compiled expression that leaves
its real domain aborts the run as a `RunDomainError` naming the
scenario expression that fails at that stage.
"""

from __future__ import annotations

import functools
import itertools
import math
from dataclasses import dataclass, field

from proxysafe.barrier import build_barrier_stack, check_conditions
from proxysafe.controllers import (
    BarrierBreach, FunnelBreach, NussbaumState, SingularGain,
    build_dob_backstepping, build_nominal, eval_dob_backstepping,
    initialize_funnels, nussbaum_control, ppc_control,
)
from proxysafe.dob import DobChainState, dob_derivative, filter_derivative
from proxysafe.expr import DomainError, EvalError, compile_expr, evaluate
from proxysafe.filter import FEAS_TOL, Infeasible, project_halfspace, \
    solve_cbf_qp_pair
from proxysafe.loop import ClosedLoop
from proxysafe.scenario import ScenarioError, ScenarioSpec

__all__ = ["CheckFailed", "LoopMismatch", "RunDomainError", "SimTrace",
           "RuntimeModel", "rk4_step", "simulate"]

H_TOL = 1e-6     # verdict slack on the barrier values
E_TOL = 1e-9     # verdict slack on the funnel bound

_ABORTS = (Infeasible, BarrierBreach, FunnelBreach, SingularGain, EvalError)
_RAW = (ValueError, ArithmeticError)     # what compiled code raises itself


class CheckFailed(Exception):
    """The feasibility checks rejected the scenario and no override was
    given; the report lines ride along for display."""

    def __init__(self, lines):
        self.lines = list(lines)
        super().__init__("feasibility checks failed:\n" + "\n".join(self.lines))


class LoopMismatch(RuntimeError):
    """The generated closed loop disagreed with the reference composition
    at the start of a run."""


class RunDomainError(EvalError):
    """Compiled code raised a raw arithmetic error at a stage of the run.

    Carries the raw error, the stage time and, when one of the scenario's
    own expressions fails there under `expr.evaluate`, its key path and
    the DomainError naming the failing subexpression.
    """

    def __init__(self, raw: Exception, t: float, label=None,
                 cause: DomainError | None = None):
        text = f"{type(raw).__name__} ({raw}) at t={t:.6g}"
        if cause is not None:
            text += f" in {label}: {cause}"
        super().__init__(text)
        self.raw, self.t, self.label, self.cause = raw, t, label, cause


def rk4_step(deriv, state, t: float, dt: float, k1=None) -> list:
    """One classical RK4 step of d(state)/dt = deriv(state, t); k1, when
    given, is deriv(state, t) already evaluated."""
    if k1 is None:
        k1 = deriv(state, t)
    half, sixth = 0.5 * dt, dt / 6.0
    k2 = deriv([v + half * d for v, d in zip(state, k1)], t + half)
    k3 = deriv([v + half * d for v, d in zip(state, k2)], t + half)
    k4 = deriv([v + dt * d for v, d in zip(state, k3)], t + dt)
    return [v + sixth * (a + 2.0 * b + 2.0 * c + d)
            for v, a, b, c, d in zip(state, k1, k2, k3, k4)]


@dataclass
class SimTrace:
    """Uniform-grid run log plus the verdict and summary monitors."""

    scenario: str
    controller: str
    columns: list
    rows: list
    verdict: str
    reason: str | None = None
    monitors: dict = field(default_factory=dict)

    def column(self, name: str) -> list:
        try:
            idx = self.columns.index(name)
        except ValueError:
            raise KeyError(f"trace has no column {name!r} "
                           f"(columns: {', '.join(self.columns)})") from None
        return [row[idx] for row in self.rows]

    def to_csv(self, path) -> None:
        line = ",".join(["%.17g"] * len(self.columns)) + "\n"
        with open(path, "w", encoding="utf-8", newline="") as fh:
            fh.write(",".join(self.columns) + "\n")
            for row in self.rows:
                fh.write(line % tuple(row))

    @classmethod
    def from_csv(cls, path, scenario: str = "", controller: str = ""):
        with open(path, "r", encoding="utf-8") as fh:
            header = fh.readline().strip()
            if not header:
                raise ValueError(f"{path}: empty trace file")
            columns = header.split(",")
            rows = []
            for line_no, line in enumerate(fh, start=2):
                line = line.strip()
                if not line:
                    continue
                parts = line.split(",")
                if len(parts) != len(columns):
                    raise ValueError(f"{path}:{line_no}: expected "
                                     f"{len(columns)} fields, got {len(parts)}")
                rows.append([float(v) for v in parts])
        return cls(scenario=scenario, controller=controller, columns=columns,
                   rows=rows, verdict="LOADED")


@dataclass
class _Controls:
    """Controller outputs applied over one step (or stage)."""

    nu_d: float
    nu: float
    u: float | None = None
    dzeta: float = 0.0
    dtheta: tuple = ()
    eps: tuple = ()
    xis: tuple = ()


class RuntimeModel:
    """A scenario compiled into callables, ready to integrate."""

    def __init__(self, spec: ScenarioSpec, controller: str | None = None,
                 dt: float | None = None, horizon: float | None = None,
                 hold_dt: float | None = None):
        self.spec = spec
        self.kind, block = spec.controller_block(controller)
        self.dt = float(dt) if dt is not None else spec.dt
        self.horizon = float(horizon) if horizon is not None else spec.horizon
        self.hold_dt = hold_dt if hold_dt is not None else spec.hold_dt
        if self.dt <= 0.0 or self.horizon <= 0.0:
            raise ScenarioError("dt and horizon must be positive")
        if self.hold_dt is not None and self.hold_dt < self.dt:
            raise ScenarioError("hold_dt must be at least dt")
        plant = spec.plant
        if plant.disturbances and self.kind in ("nominal", "nussbaum"):
            raise ScenarioError(
                f"controller '{self.kind}' cannot reject the declared "
                "additive disturbances")

        self.n = plant.n
        self.m = spec.m
        self.rho = spec.rho
        self.has_plant = self.kind != "nominal"

        zs = [f"z{i}" for i in range(1, self.n + 1)]
        self.f0_fn = compile_expr(plant.f0, ["x"])
        self.g0_fn = compile_expr(plant.g0, ["x"])
        self.f_fns = [compile_expr(f, ["x", *zs[:i + 1]])
                      for i, f in enumerate(plant.fs)]
        self.g_fns = [compile_expr(g, ["x", *zs[:i + 1]])
                      for i, g in enumerate(plant.gs)]
        self.d_fns = [compile_expr(d, ["t"]) for d in plant.disturbances]
        self.stacks = [build_barrier_stack(proxy, spec.rho)
                       for proxy in spec.proxies]
        self.nominal = build_nominal(spec.proxies[0], spec.nominal)
        self.xd_fn = compile_expr(spec.nominal.x_d, ["t"])

        self.dob = None
        self.dob_ctrl = None
        self.ppc_gains = None
        self.ppc_signs = None
        self.nuss_gains = None
        self.phis = ()
        self.phi_fns = []
        if self.kind == "dob_backstepping":
            self.dob = block["observer"]
            self.dob_ctrl = build_dob_backstepping(
                list(plant.fs), list(plant.gs), spec.proxies[0], self.dob,
                block["gains"], spec.rho)
        elif self.kind == "ppc":
            self.ppc_signs = block["signs"]
            self.ppc_gains = initialize_funnels(
                block["gains"], self.ppc_signs, list(spec.initial_z),
                spec.initial_z[0], spec.rho)
        elif self.kind == "nussbaum":
            self.nuss_gains = block["gains"]
            self.phis = block["phi"]
            self.phi_fns = [compile_expr(p, ["z1"]) for p in self.phis]
            self.nuss_init = (block["zeta0"], *block["theta0"])

        # state layout: x, then plant levels, then the virtual chain,
        # then controller-owned states
        self.i_z = 1 if self.has_plant else None
        self.i_mu = 1 + (self.n if self.has_plant else 0)
        self.i_extra = self.i_mu + self.m
        if self.kind == "nussbaum":
            self.extra_dim = 1 + len(self.phi_fns)
        elif self.kind == "dob_backstepping":
            self.extra_dim = self.n + self.n * (self.n - 1) // 2
        else:
            self.extra_dim = 0
        self.dim = self.i_extra + self.extra_dim
        self.qp_fallbacks = 0

    # -- state helpers ------------------------------------------------------

    def initial_state(self) -> list:
        spec = self.spec
        state = [spec.initial_x[0]]
        if self.has_plant:
            state.extend(spec.initial_z)
        state.append(spec.initial_z[0])       # first virtual state
        state.extend([0.0] * (self.m - 1))    # deeper chain starts at rest
        if self.kind == "nussbaum":
            state.extend(self.nuss_init)
        elif self.kind == "dob_backstepping":
            init = DobChainState.initial(self.dob, list(spec.initial_z))
            state.extend(init.s)
            for row in init.d_f:
                state.extend(row)
        return state

    def _split(self, state):
        x = state[0]
        z = state[self.i_z:self.i_z + self.n] if self.has_plant else []
        mu = state[self.i_mu:self.i_mu + self.m]
        return x, z, mu

    def _dob_state(self, state, z) -> DobChainState:
        base = self.i_extra
        s = state[base:base + self.n]
        d_f = []
        pos = base + self.n
        for i in range(1, self.n):
            width = self.n - i
            d_f.append(list(state[pos:pos + width]))
            pos += width
        dstate = DobChainState(s=list(s), d_hat=[0.0] * self.n, d_f=d_f)
        dstate.refresh_outputs(self.dob, list(z))
        return dstate

    # -- control evaluation -------------------------------------------------

    def safe_input(self, x: float, mu, t: float):
        """Nominal virtual input projected through every barrier filter."""
        nu_d = self.nominal.control([x], mu, t)
        nu = [nu_d]
        rows = []
        for stack in self.stacks:
            psi0, psi1 = stack.eval_constraint([x], mu, t)
            rows.append((psi0, psi1[0]))
            nu = project_halfspace(nu, psi0, psi1)
        if len(rows) == 2:
            psi0, psi1 = rows[0]
            if psi0 + psi1 * nu[0] < -FEAS_TOL:
                nu = [solve_cbf_qp_pair(nu_d, *rows[0], *rows[1])]
                self.qp_fallbacks += 1
        return nu_d, nu[0], rows

    def controls(self, state, t: float) -> _Controls:
        x, z, mu = self._split(state)
        nu_d, nu, _ = self.safe_input(x, mu, t)
        if self.kind == "nominal":
            return _Controls(nu_d=nu_d, nu=nu)
        if self.kind == "ppc":
            u, xis, _ = ppc_control(self.ppc_gains, self.ppc_signs, z,
                                    mu[0], self.rho, t)
            return _Controls(nu_d=nu_d, nu=nu, u=u, xis=tuple(xis))
        if self.kind == "nussbaum":
            e = z[0] - mu[0]
            zeta = state[self.i_extra]
            theta = list(state[self.i_extra + 1:self.i_extra + self.extra_dim])
            nstate = NussbaumState(zeta=zeta, theta_hat=theta)
            phis = [fn(z[0]) for fn in self.phi_fns]
            u, dzeta, dtheta = nussbaum_control(
                self.nuss_gains, nstate, e, nu, self.rho.value(t), phis, t)
            return _Controls(nu_d=nu_d, nu=nu, u=u, dzeta=dzeta,
                             dtheta=tuple(dtheta))
        dstate = self._dob_state(state, z)
        u, eps = eval_dob_backstepping(self.dob_ctrl, [x], z, mu, nu,
                                       dstate, t)
        return _Controls(nu_d=nu_d, nu=nu, u=u, eps=tuple(eps))

    # -- dynamics -----------------------------------------------------------

    def deriv(self, state, t: float, c: _Controls | None = None) -> list:
        if c is None:
            c = self.controls(state, t)
        x, z, mu = self._split(state)
        out = [0.0] * self.dim
        if self.has_plant:
            out[0] = self.f0_fn(x) + self.g0_fn(x) * z[0]
            fv = [fn(x, *z[:i + 1]) for i, fn in enumerate(self.f_fns)]
            gv = [fn(x, *z[:i + 1]) for i, fn in enumerate(self.g_fns)]
            dv = [fn(t) for fn in self.d_fns] or [0.0] * self.n
            for i in range(self.n - 1):
                out[self.i_z + i] = fv[i] + gv[i] * z[i + 1] + dv[i]
            out[self.i_z + self.n - 1] = fv[-1] + gv[-1] * c.u + dv[-1]
        else:
            out[0] = self.f0_fn(x) + self.g0_fn(x) * mu[0]
        for i in range(self.m - 1):
            out[self.i_mu + i] = mu[i + 1]
        out[self.i_mu + self.m - 1] = c.nu
        if self.kind == "nussbaum":
            out[self.i_extra] = c.dzeta
            for j, d in enumerate(c.dtheta):
                out[self.i_extra + 1 + j] = d
        elif self.kind == "dob_backstepping":
            dstate = self._dob_state(state, z)
            sdot = dob_derivative(self.dob, dstate, fv, gv, list(z), c.u)
            fdot = filter_derivative(self.dob, dstate)
            pos = self.i_extra
            for v in sdot:
                out[pos] = v
                pos += 1
            for row in fdot:
                for v in row:
                    out[pos] = v
                    pos += 1
        return out

    def step(self, state, t: float, dt: float,
             held: _Controls | None = None, c1: _Controls | None = None):
        """One RK4 step; controls recomputed per stage unless held."""
        k1 = self.deriv(state, t, held if held is not None else c1)
        return rk4_step(lambda s, tt: self.deriv(s, tt, held), state, t, dt,
                        k1)

    def domain_error(self, exc: Exception, state, t: float) -> RunDomainError:
        """The raw error `exc` that compiled code raised at (state, t), with
        the first scenario expression that fails there under evaluate."""
        x, z, _ = self._split(state)
        binding = {"x": x, "t": t}
        binding.update((f"z{i}", v) for i, v in enumerate(z, start=1))
        spec, plant = self.spec, self.spec.plant
        exprs = [("nominal.x_d", spec.nominal.x_d), ("plant.f0", plant.f0),
                 ("plant.g0", plant.g0)]
        exprs += [(f"proxy[{k}].h", p.h) for k, p in enumerate(spec.proxies)]
        if self.has_plant:
            for i, (f, g) in enumerate(zip(plant.fs, plant.gs)):
                exprs += [(f"plant.levels[{i}].f", f),
                          (f"plant.levels[{i}].g", g)]
            exprs += [(f"plant.disturbances[{i}]", d)
                      for i, d in enumerate(plant.disturbances)]
        exprs += [(f"controllers.nussbaum.phi[{j}]", p)
                  for j, p in enumerate(self.phis)]
        for label, e in exprs:
            try:
                evaluate(e, binding)
            except DomainError as cause:
                return RunDomainError(exc, t, label, cause)
        return RunDomainError(exc, t)

    # -- checks and logging -------------------------------------------------

    def run_checks(self):
        spec = self.spec
        box = spec.check_box if spec.check_box else None
        reports = []
        for stack in self.stacks:
            reports.append(check_conditions(
                stack, list(spec.initial_x), spec.initial_z[0], box=box,
                seed=spec.seed))
        return reports

    def trace_columns(self) -> list:
        cols = ["t", "x"]
        if self.has_plant:
            cols += [f"z{i}" for i in range(1, self.n + 1)]
        cols += [f"mu{i}" for i in range(1, self.m + 1)]
        cols += ["e", "rho", "x_d"]
        for k in range(1, len(self.stacks) + 1):
            cols += [f"h{k}"]
            cols += [f"b{k}_{i}" for i in range(self.m + 1)]
            cols += [f"psi0_{k}", f"psi1_{k}", f"margin{k}"]
        cols += ["nu_d", "nu"]
        if self.has_plant:
            cols.append("u")
            if self.d_fns:
                cols += [f"d{i}" for i in range(1, self.n + 1)]
        if self.kind == "dob_backstepping":
            cols += [f"dhat{i}" for i in range(1, self.n + 1)]
            cols += [f"df{i}_{j}" for i in range(1, self.n)
                     for j in range(1, self.n - i + 1)]
            cols += [f"eps{i}" for i in range(1, self.n + 1)]
        elif self.kind == "nussbaum":
            cols += ["zeta"] + [f"theta{j}"
                                for j in range(1, len(self.phi_fns) + 1)]
        elif self.kind == "ppc":
            cols += [f"xi{i}" for i in range(1, self.n + 1)]
        return cols

    def trace_row(self, state, t: float, c: _Controls) -> list:
        x, z, mu = self._split(state)
        e = (z[0] - mu[0]) if self.has_plant else 0.0
        row = [t, x, *z, *mu, e, self.rho.value(t), self.xd_fn(t)]
        for stack in self.stacks:
            h = stack.h_value([x])
            bs = stack.eval_barriers([x], mu, t)
            psi0, psi1 = stack.eval_constraint([x], mu, t)
            row += [h, *bs, psi0, psi1[0], psi0 + psi1[0] * c.nu]
        row += [c.nu_d, c.nu]
        if self.has_plant:
            row.append(c.u)
            if self.d_fns:
                row += [fn(t) for fn in self.d_fns]
        if self.kind == "dob_backstepping":
            dstate = self._dob_state(state, z)
            row += dstate.d_hat
            for frow in dstate.d_f:
                row += frow
            row += list(c.eps)
        elif self.kind == "nussbaum":
            row += state[self.i_extra:self.i_extra + self.extra_dim]
        elif self.kind == "ppc":
            row += list(c.xis)
        return row


def _first_step(model: RuntimeModel, steps) -> dict:
    """The t=0 row and the state one step later that `steps` yields, as
    bit patterns, up to an abort; the abort's raw reason; and the pair
    fallbacks counted on the way."""
    model.qp_fallbacks = 0
    out: dict = {"t=0 row": None, "first step": None, "abort": None}
    try:
        for key, values in zip(["t=0 row", "first step"], steps):
            out[key] = [float(v).hex() for v in values]
    except _ABORTS + _RAW as exc:
        exc = exc.raw if isinstance(exc, RunDomainError) else exc
        out["abort"] = f"{type(exc).__name__}: {exc}"
    out["qp_fallbacks"] = model.qp_fallbacks
    return out


def _check_start(model: RuntimeModel, loop: ClosedLoop) -> None:
    """Compute the t=0 row and the first step through the reference
    composition and through the generated loop; raise LoopMismatch
    unless they agree bit for bit, abort reason and fallbacks included."""
    hold, dt = model.hold_dt is not None, model.dt

    def reference():
        state = model.initial_state()
        c = model.controls(state, 0.0)
        yield model.trace_row(state, 0.0, c)
        yield model.step(state, 0.0, dt, held=c if hold else None, c1=c)

    def generated():
        state = model.initial_state()
        k1, row, ctrl = loop.point(state, 0.0, None)
        yield row
        if k1 is None:
            k1 = loop.stage_held(state, 0.0, ctrl)
        stage = functools.partial(loop.stage_held, held=ctrl) if hold \
            else loop.stage
        yield rk4_step(stage, state, 0.0, dt, k1)

    want = _first_step(model, reference())
    got = _first_step(model, generated())
    for key in want:
        if got[key] != want[key]:
            raise LoopMismatch(
                f"generated closed loop of {model.spec.name}/{model.kind} "
                f"disagrees with the reference composition ({key}): "
                f"reference {want[key]!r}, generated {got[key]!r}")


def simulate(spec: ScenarioSpec, controller: str | None = None,
             dt: float | None = None, horizon: float | None = None,
             hold_dt: float | None = None, force: bool = False,
             check: bool = True) -> SimTrace:
    """Run one scenario to its horizon (or to breakdown).

    The feasibility checks run first and a failing report stops the run
    unless force is set, in which case the override is recorded in the
    trace monitors.  The loop runs on the generated closed loop, checked
    against the reference composition over its first step.
    """
    model = RuntimeModel(spec, controller=controller, dt=dt, horizon=horizon,
                         hold_dt=hold_dt)
    monitors: dict = {}
    if check:
        try:
            reports = model.run_checks()
        except ValueError as exc:
            raise CheckFailed([str(exc)]) from None
        bad = [line for rep in reports if not rep.ok for line in rep.lines()]
        if bad and not force:
            raise CheckFailed(bad)
        if bad:
            monitors["check_forced"] = 1.0

    loop = ClosedLoop(model)
    _check_start(model, loop)

    model.qp_fallbacks = 0
    rows: list = []
    state = model.initial_state()
    n_steps = max(1, int(round(model.horizon / model.dt)))
    reason = None
    aborted = False
    stage = loop.stage
    held = None
    next_hold = 0.0
    refresh = model.hold_dt is not None     # t=0 is the first hold time
    try:
        k1, row, ctrl = loop.point(state, 0.0, None)
        rows.append(row)
        for k in range(1, n_steps + 1):
            t_prev = (k - 1) * model.dt
            if refresh:     # ctrl holds fresh outputs of the hold time t_prev
                held = ctrl
                next_hold += model.hold_dt
                stage = functools.partial(loop.stage_held, held=held)
            if k1 is None:      # the derivative failed where the row did not
                k1 = loop.stage_held(state, t_prev, ctrl)
            state = rk4_step(stage, state, t_prev, model.dt, k1)
            t = k * model.dt
            if not all(math.isfinite(v) for v in state):
                reason = f"non-finite state at t={t:.6g}"
                aborted = True
                break
            refresh = model.hold_dt is not None and t >= next_hold - 1e-12
            k1, row, ctrl = loop.point(state, t, None if refresh else held)
            rows.append(row)
    except _ABORTS as exc:
        reason = f"{type(exc).__name__}: {exc}"
        aborted = True

    columns = model.trace_columns()
    stacks = range(1, len(model.stacks) + 1)

    def lowest(names):
        # a running minimum from +inf over the rows in order, NaN included
        idx = [columns.index(name) for name in names]
        return min(itertools.chain([math.inf],
                                   (row[i] for row in rows for i in idx)))

    i_e, i_rho = columns.index("e"), columns.index("rho")
    monitors.update(
        min_h=lowest(f"h{k}" for k in stacks),
        max_e_excess=max(itertools.chain(
            [-math.inf], (abs(row[i_e]) - row[i_rho] for row in rows))),
        min_qp_margin=lowest(f"margin{k}" for k in stacks),
        min_b=lowest(f"b{k}_{i}" for k in stacks for i in range(model.m + 1)),
        qp_fallbacks=float(model.qp_fallbacks),
        steps=float(len(rows) - 1),
    )
    if aborted:
        verdict = "ABORTED"
    elif monitors["min_h"] >= -H_TOL and monitors["max_e_excess"] <= E_TOL:
        verdict = "SAFE"
    else:
        verdict = "UNSAFE"
    return SimTrace(scenario=spec.name, controller=model.kind,
                    columns=columns, rows=rows, verdict=verdict,
                    reason=reason, monitors=monitors)
