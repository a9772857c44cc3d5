"""Fixed-step closed-loop simulation.

One run integrates, as a single ODE, the true plant chain, the virtual
proxy chain that the safety filter steers, and whatever extra states the
selected tracking controller carries (adaptive estimates, observer and
filter-chain states).  The integrator is classical fixed-step RK4 with
every control signal recomputed at every stage, matching a
continuous-time analysis; an optional hold interval, the scenario's
`hold_dt:`, freezes the control outputs between updates for robustness
studies.

`RuntimeModel` is the reference composition of the per-module laws:
`controls`, `safe_input`, `deriv`, `step` and `trace_row` call the
nominal law, the barrier constraint, the projection, the tracking law
and the plant and observer derivatives one by one, passing the control
outputs as the generated loop does; `state_names` is the state layout.
`simulate` checks the scenario's feasibility conditions and hands the
run to `stream`, imported then: the loop runs on what `loop.ClosedLoop`
generates from the same symbolic pieces, once its t=0 row and first
step agree bit for bit with the reference composition (else
`LoopMismatch`), and its rows stream into memory or to a trace CSV.  A
grid row comes from the same evaluation that supplies the next step's
first RK4 stage, and the RK4 step itself is generated once per state
length as straight-line code.  A process that only checks or plots
compiles neither module.

Each grid point is logged with the barrier values, the filter constraint
row and its margin, the funnel, and the controller internals, and the
run ends with a verdict: SAFE when every barrier stayed above -1e-6 and
the tracking error stayed inside the funnel (within 1e-9), UNSAFE when
either failed or either was NaN on a grid row, ABORTED (with the
reason and the partial trace) when the loop broke down before the
horizon.  A compiled expression that leaves its real domain aborts the
run as a `RunDomainError` naming the scenario expression that fails at
that stage.

`SimTrace.from_csv` is the one trace reader; it parses through
`traceread`, which a run never loads; `SimTrace.to_csv` writes
through `stream`.
"""

from __future__ import annotations

import contextlib
import functools
import itertools
import os
from array import array

from proxysafe.barrier import build_barrier_stack, check_conditions
from proxysafe.controllers import (
    build_dob_backstepping, build_nominal, eval_dob_backstepping,
    initialize_funnels, nussbaum_control, ppc_control,
)
from proxysafe.dob import dob_derivative, dob_outputs, filter_derivative
from proxysafe.expr import DomainError, EvalError, compile_expr, evaluate
from proxysafe.filter import FEAS_TOL, project_halfspace, solve_cbf_qp_pair
from proxysafe.scenario import ScenarioError, ScenarioSpec

__all__ = ["CheckFailed", "LoopMismatch", "RunDomainError", "SimTrace",
           "RuntimeModel", "rk4_step", "simulate"]

# step cap of one run: without an output file every grid row stays in
# memory, 8 bytes a value (about 300 MB at the cap for ship's 19 columns);
# a run written to a file holds one batch of them
MAX_STEPS = 2_000_000

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


@functools.cache
def _rk4_body(dim: int):
    """`rk4_step` for states of length dim, written out as straight-line
    code: the same float operations in the same order, without the
    per-step zips and list comprehensions."""
    def vec(entry):     # a list display, `entry` written out for i < dim
        return "[" + ", ".join(entry.format(i=i) for i in range(dim)) + "]"

    src = "\n    ".join([
        "def rk4_step(deriv, state, t, dt, k1=None):",
        "if k1 is None:",
        "    k1 = deriv(state, t)",
        "half, sixth = 0.5 * dt, dt / 6.0",
        f"{vec('s{i}')} = state",
        f"{vec('a{i}')} = k1",
        f"{vec('b{i}')} = deriv({vec('s{i} + half * a{i}')}, t + half)",
        f"{vec('c{i}')} = deriv({vec('s{i} + half * b{i}')}, t + half)",
        f"{vec('d{i}')} = deriv({vec('s{i} + dt * c{i}')}, t + dt)",
        "return " + vec("s{i} + sixth * "
                        "(a{i} + 2.0 * b{i} + 2.0 * c{i} + d{i})"),
    ]) + "\n"
    namespace: dict = {}
    exec(compile(src, f"<rk4_step dim={dim}>", "exec"), namespace)
    return namespace["rk4_step"]


def rk4_step(deriv, state, t: float, dt: float, k1=None) -> list:
    """One classical RK4 step of d(state)/dt = deriv(state, t); k1, when
    given, is deriv(state, t) already evaluated.  deriv returns one value
    per state entry.  The step body is generated once per state length."""
    return _rk4_body(len(state))(deriv, state, t, dt, k1)


def _identity(path) -> tuple:
    """What tells the file at `path` apart and shows that it changed: its
    device, inode, size and modification time."""
    st = os.stat(path)
    return st.st_dev, st.st_ino, st.st_size, st.st_mtime_ns


class SimTrace:
    """Uniform-grid run log plus the verdict and summary monitors.

    Where its rows live is fixed when the trace is made.  A run kept in
    memory holds them in `data`, one `array('d')`, row after row,
    `len(columns)` values a row (8 bytes a value); `column(name)` copies
    one out as a strided slice.  A trace read by `from_csv` holds only the
    columns it parsed, one `array('d')` each.  A trace that
    `simulate(..., out=path)` wrote out holds no rows, only the verdict,
    the reason, the monitors, the columns and `n_rows`;
    `SimTrace.from_csv(path)` reads them.  `column` and `to_csv` serve
    only the rows a trace holds, and raise ValueError for the others.
    """

    def __init__(self, scenario: str, controller: str, columns: list,
                 data: array, verdict: str, reason: str | None = None,
                 monitors: dict | None = None):
        self.scenario = scenario
        self.controller = controller
        self.columns = columns
        self.data = data
        self.verdict = verdict
        self.reason = reason
        self.monitors = {} if monitors is None else monitors
        # (row count, column name -> values) of a trace whose rows are
        # not in `data`: the columns from_csv parsed, or None for a
        # written-out trace
        self._parsed = None
        # (path, `_identity`) of the file simulate wrote the rows to
        self._file = None

    @property
    def n_rows(self) -> int:
        """The number of grid rows."""
        if self._parsed is not None:
            return self._parsed[0]
        return len(self.data) // len(self.columns)

    def column(self, name: str):
        """The values of column `name`, one per grid row, as an
        `array('d')`; a column that `from_csv` did not parse reads as a
        list of None.  A written-out trace raises ValueError."""
        try:
            idx = self.columns.index(name)
        except ValueError:
            raise KeyError(f"trace has no column {name!r} "
                           f"(columns: {', '.join(self.columns)})") from None
        if self._parsed is None:
            return self.data[idx::len(self.columns)]
        n_rows, parsed = self._parsed
        if parsed is None:
            path = os.fspath(self._file[0])
            raise ValueError(f"the rows of this trace are in {path}: read "
                             f"them with SimTrace.from_csv({path!r})")
        return parsed[name] if name in parsed else [None] * n_rows

    def to_csv(self, path) -> None:
        """Write the rows in `data` as CSV, every value as `%.17g`, through
        `stream._write_csv`: a write that fails or is interrupted leaves no
        regular file at `path`.

        A trace whose rows are not in `data`, parsed or written out,
        raises ValueError before `path` is opened; but `path` being the
        file `simulate(..., out=...)` wrote this trace to, unchanged
        since, writes nothing.
        """
        if self._file is not None:
            with contextlib.suppress(OSError):
                if _identity(path) == self._file[1]:
                    return
        if self._parsed is not None:
            raise ValueError("cannot write a trace whose rows are not in "
                             "memory: they are in the file it came from")
        from proxysafe import stream    # only a run or a write loads it
        stream._write_csv(path, self.columns,
                          [stream._row_tuples(self.data, len(self.columns))])

    @classmethod
    def from_csv(cls, path, columns=None):
        """Read a trace CSV; every line must have a field per column.

        `columns`, when given, maps the file's column names to the ones
        to parse: only those fields become floats, and the others read
        as None.  `columns` of the trace is always the whole header.

        The parse is `traceread.read_csv`'s: on two cores for a large
        regular file, with the serial parse's columns, bit for bit, and
        its errors, the first bad line in file order as `path:line`.
        """
        from proxysafe.traceread import read_csv    # only a reader loads it
        names, n_rows, parsed = read_csv(path, columns)
        trace = cls(scenario="", controller="", columns=names,
                    data=array("d"), verdict="LOADED")
        trace._parsed = (n_rows, parsed)
        return trace


def _leave_parent_cpu() -> None:
    """Keep this forked child off the CPU its parent runs on, where /proc
    tells that CPU and others are allowed: the scheduler does not always
    move a child off its parent's CPU while another CPU idles."""
    if not hasattr(os, "sched_setaffinity"):
        return
    try:
        with open(f"/proc/{os.getppid()}/stat", "rb") as fh:
            cpu = int(fh.read().rsplit(b")", 1)[1].split()[36])
    except (OSError, ValueError, IndexError):
        return
    others = os.sched_getaffinity(0) - {cpu}
    if others:
        os.sched_setaffinity(0, others)


class RuntimeModel:
    """A scenario compiled into callables, ready to integrate."""

    def __init__(self, spec: ScenarioSpec, controller: str | None = None,
                 dt: float | None = None, horizon: float | None = None):
        self.spec = spec
        self.kind, block = spec.controller_block(controller)
        self.dt = float(dt) if dt is not None else spec.dt
        self.horizon = float(horizon) if horizon is not None else spec.horizon
        self.hold_dt = spec.hold_dt
        if self.dt <= 0.0 or self.horizon <= 0.0:
            raise ScenarioError("dt and horizon must be positive")
        if self.dt > self.horizon:
            raise ScenarioError(f"dt={self.dt:g} exceeds the horizon "
                                f"{self.horizon:g}")
        if self.horizon / self.dt > MAX_STEPS:
            raise ScenarioError(
                f"horizon/dt = {self.horizon / self.dt:.3g} steps exceeds "
                f"the cap of {MAX_STEPS:,} steps per run")
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

        self.stacks = [build_barrier_stack(proxy, spec.rho)
                       for proxy in spec.proxies]
        self.nominal = build_nominal(spec.proxies[0], spec.nominal)

        self.dob = None
        self.dob_ctrl = None
        self.ppc_gains = None
        self.ppc_funnels = None
        self.ppc_signs = None
        self.nuss_gains = None
        self.phis = ()
        if self.kind == "dob_backstepping":
            self.dob = block["observer"]
            self.dob_ctrl = build_dob_backstepping(
                list(plant.fs), list(plant.gs), spec.proxies[0], self.dob,
                block["gains"], spec.rho)
        elif self.kind == "ppc":
            self.ppc_gains, self.ppc_signs = block["gains"], block["signs"]
            self.ppc_funnels = initialize_funnels(
                self.ppc_gains, self.ppc_signs, list(spec.initial_z),
                spec.initial_z[0], spec.rho)
        elif self.kind == "nussbaum":
            self.nuss_gains = block["gains"]
            self.phis = block["phi"]
            self.nuss_init = (block["zeta0"], *block["theta0"])

        # state layout: x, the plant levels, the virtual chain, then the
        # controller's own states; the offsets and dim follow from it
        names = ["x"]
        if self.has_plant:
            names += [f"z{i}" for i in range(1, self.n + 1)]
        names += [f"mu{i}" for i in range(1, self.m + 1)]
        if self.kind == "nussbaum":
            names += ["zeta"] + [f"theta{j}"
                                 for j in range(1, len(self.phis) + 1)]
        elif self.kind == "dob_backstepping":
            names += [f"s{i}" for i in range(1, self.n + 1)]
            names += [f"df{i}_{j}" for i in range(1, self.n)
                      for j in range(1, self.n - i + 1)]
        self.state_names = names
        self.dim = len(names)
        self.i_z = 1 if self.has_plant else None
        self.i_mu = names.index("mu1")
        self.i_extra = self.i_mu + self.m
        self.qp_fallbacks = 0

    # -- compiled model functions -------------------------------------------
    # The reference composition (`controls`, `deriv`, `trace_row`) is all
    # that calls these, so each compiles on first use: `check` needs none.

    @functools.cached_property
    def f0_fn(self):
        return compile_expr(self.spec.plant.f0, ["x"])

    @functools.cached_property
    def g0_fn(self):
        return compile_expr(self.spec.plant.g0, ["x"])

    def _level_fns(self, exprs) -> list:
        zs = [f"z{i}" for i in range(1, self.n + 1)]
        return [compile_expr(e, ["x", *zs[:i + 1]])
                for i, e in enumerate(exprs)]

    @functools.cached_property
    def f_fns(self):
        return self._level_fns(self.spec.plant.fs)

    @functools.cached_property
    def g_fns(self):
        return self._level_fns(self.spec.plant.gs)

    @functools.cached_property
    def d_fns(self):
        return [compile_expr(d, ["t"]) for d in self.spec.plant.disturbances]

    @functools.cached_property
    def xd_fn(self):
        return compile_expr(self.spec.nominal.x_d, ["t"])

    @functools.cached_property
    def phi_fns(self):
        return [compile_expr(p, ["z1"]) for p in self.phis]

    # -- state helpers ------------------------------------------------------

    def initial_state(self) -> list:
        spec = self.spec
        state = [spec.initial_x]
        if self.has_plant:
            state.extend(spec.initial_z)
        state.append(spec.initial_z[0])       # first virtual state
        state.extend([0.0] * (self.m - 1))    # deeper chain starts at rest
        if self.kind == "nussbaum":
            state.extend(self.nuss_init)
        elif self.kind == "dob_backstepping":
            # s = -alpha z0 starts every estimate at zero; filters at rest
            state.extend(-a * z for a, z in
                         zip(self.dob.alphas, spec.initial_z))
            state.extend([0.0] * (self.dim - len(state)))
        return state

    def _split(self, state):
        """x, the plant levels (none without a plant) and the chain."""
        return state[0], state[1:self.i_mu], state[self.i_mu:self.i_extra]

    def _dob_state(self, state, z):
        """The observer estimates d_hat and the filter stages of state."""
        mid = self.i_extra + self.n
        return (dob_outputs(self.dob, state[self.i_extra:mid], z),
                state[mid:])

    # -- control evaluation -------------------------------------------------

    def safe_input(self, x: float, mu, t: float):
        """Nominal virtual input projected through every barrier filter
        in turn, then clamped into all the rows at once when one before
        the last is still violated beyond FEAS_TOL."""
        nu = nu_d = self.nominal.control(x, mu, t)
        rows = []
        for stack in self.stacks:
            psi0, psi1 = stack.eval_constraint(x, mu, t)
            rows.append((psi0, psi1))
            nu = project_halfspace(nu, psi0, psi1)
        if any(psi0 + psi1 * nu < -FEAS_TOL for psi0, psi1 in rows[:-1]):
            nu = solve_cbf_qp_pair(nu_d, *itertools.chain(*rows))
            self.qp_fallbacks += 1
        return nu_d, nu, rows

    def controls(self, state, t: float) -> tuple:
        """The control outputs (nu_d, nu, u, dzeta, dtheta) at (state, t),
        as the generated loop passes them, and the logged internals: the
        funnel law's xi or the observer law's eps."""
        x, z, mu = self._split(state)
        nu_d, nu, _ = self.safe_input(x, mu, t)
        if self.kind == "nominal":
            return (nu_d, nu, None, 0.0, ()), ()
        if self.kind == "ppc":
            u, xis, _ = ppc_control(self.ppc_gains, self.ppc_funnels,
                                    self.ppc_signs, z, mu[0], self.rho, t)
            return (nu_d, nu, u, 0.0, ()), xis
        if self.kind == "nussbaum":
            e = z[0] - mu[0]
            phis = [fn(z[0]) for fn in self.phi_fns]
            u, dzeta, dtheta = nussbaum_control(
                self.nuss_gains, state[self.i_extra],
                state[self.i_extra + 1:], e, nu, self.rho.value(t),
                phis, t)
            return (nu_d, nu, u, dzeta, tuple(dtheta)), ()
        u, eps = eval_dob_backstepping(self.dob_ctrl, x, z, mu, nu,
                                       *self._dob_state(state, z), t)
        return (nu_d, nu, u, 0.0, ()), eps

    # -- dynamics -----------------------------------------------------------

    def deriv(self, state, t: float, outputs=None) -> list:
        """d(state)/dt under the control outputs, evaluated at (state, t)
        unless given."""
        if outputs is None:
            outputs = self.controls(state, t)[0]
        _, nu, u, dzeta, dtheta = outputs
        x, z, mu = self._split(state)
        out = [0.0] * self.dim
        if self.has_plant:
            out[0] = self.f0_fn(x) + self.g0_fn(x) * z[0]
            fv = [fn(x, *z[:i + 1]) for i, fn in enumerate(self.f_fns)]
            gv = [fn(x, *z[:i + 1]) for i, fn in enumerate(self.g_fns)]
            dv = [fn(t) for fn in self.d_fns] or [0.0] * self.n
            for i in range(self.n - 1):
                out[self.i_z + i] = fv[i] + gv[i] * z[i + 1] + dv[i]
            out[self.i_z + self.n - 1] = fv[-1] + gv[-1] * u + dv[-1]
        else:
            out[0] = self.f0_fn(x) + self.g0_fn(x) * mu[0]
        for i in range(self.m - 1):
            out[self.i_mu + i] = mu[i + 1]
        out[self.i_mu + self.m - 1] = nu
        if self.kind == "nussbaum":
            out[self.i_extra:] = [dzeta, *dtheta]
        elif self.kind == "dob_backstepping":
            d_hat, d_f = self._dob_state(state, z)
            out[self.i_extra:] = [
                *dob_derivative(self.dob, d_hat, fv, gv, z, u),
                *filter_derivative(self.dob, d_hat, d_f)]
        return out

    def step(self, state, t: float, dt: float, held=None, c1=None):
        """One RK4 step; controls recomputed per stage unless `held`
        outputs are given.  c1, when given, are the outputs at (state, t)
        already evaluated."""
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
        """The feasibility report of every barrier stack.  A check that
        cannot be evaluated is an input error: a ScenarioError naming the
        stack's proxy and the raw error or the DomainError."""
        spec, reports = self.spec, []
        for k, stack in enumerate(self.stacks):
            try:
                reports.append(check_conditions(
                    stack, spec.initial_x, spec.initial_z[0],
                    box=spec.check_box))
            except _RAW + (DomainError,) as exc:
                raise ScenarioError(
                    f"proxy[{k}]: feasibility checks cannot be evaluated: "
                    f"{type(exc).__name__}: {exc}") from None
        return reports

    def trace_row(self, state, t: float, outputs, internals) -> list:
        """The grid row at (state, t) under the control outputs and
        internals of `controls`; `loop.ClosedLoop.columns` names it."""
        nu_d, nu, u, _, _ = outputs
        x, z, mu = self._split(state)
        e = (z[0] - mu[0]) if self.has_plant else 0.0
        row = [t, x, *z, *mu, e, self.rho.value(t), self.xd_fn(t)]
        for stack in self.stacks:
            h = stack.h_value(x)
            bs = stack.eval_barriers(x, mu, t)
            psi0, psi1 = stack.eval_constraint(x, mu, t)
            row += [h, *bs, psi0, psi1, psi0 + psi1 * nu]
        row += [nu_d, nu]
        if self.has_plant:
            row.append(u)
            row += [fn(t) for fn in self.d_fns]
        if self.kind == "dob_backstepping":
            d_hat, d_f = self._dob_state(state, z)
            row += [*d_hat, *d_f]
        elif self.kind == "nussbaum":
            row += state[self.i_extra:]
        return row + list(internals)


def simulate(spec: ScenarioSpec, controller: str | None = None,
             dt: float | None = None, horizon: float | None = None,
             force: bool = False, out=None) -> SimTrace:
    """Run one scenario to its horizon (or to breakdown).

    The feasibility checks run first and a failing report stops the run
    unless force is set, in which case the override is recorded in the
    trace monitors; a check that cannot be evaluated raises the
    ScenarioError of `RuntimeModel.run_checks` either way.  The loop runs
    on the generated closed loop, checked against the reference
    composition over its first step.  `stream` and `loop.ClosedLoop` are
    imported here, so a process that only checks loads neither.

    With `out`, a path, the trace CSV there is written while the run
    integrates, by a forked child that the rows stream to, and in process
    where `os.fork` does not exist; either way the run holds one batch of
    rows.  `simulate` returns once the file is complete, with a trace that
    holds no rows: `SimTrace.from_csv(out)` reads them, and
    `trace.to_csv(out)` writes nothing.  An output error, or a writer that
    dies, stops the run at the next batch it sends and raises its OSError
    from `simulate`.  A run that raises leaves no child behind.  A failed
    check, `LoopMismatch` or a failed fork raises before the file is
    opened, so a file already at `out` is untouched.  Once it is open, an
    exception or an interrupt mid-run, an output error and a writer that
    dies each leave no regular file at `out`: neither the partial trace
    nor the file that was there before.  A device or a FIFO is never
    removed.
    """
    model = RuntimeModel(spec, controller=controller, dt=dt, horizon=horizon)
    monitors: dict = {}
    reports = model.run_checks()
    bad = [line for rep in reports if not rep.ok for line in rep.lines()]
    if bad and not force:
        raise CheckFailed(bad)
    if bad:
        monitors["check_forced"] = 1.0

    from proxysafe import stream    # so `check` and `plot` never load it
    return stream.run(model, out, monitors)
