"""Per-layer metrics derived from the span dumps that spans.py writes.

Each metric names the spans it is computed from and the workloads the
benchmark maps it to: the workloads whose end-to-end figures it should
explain.  A metric reads 0 on a workload that never reaches its spans.
Times per call (`_us`) are inclusive of child spans.  Every time is
corrected for tracing: spans.py calibrates what one span costs the code
around it, and that cost times the number of spans nested inside a
measured interval is subtracted (`trace.span_cost_us`).

Ratio bases: `filter.active_frac` is over `sim.stages` (evaluations of
the safety filter, one per controls() call); `*_per_step` metrics are
over `sim.steps` (grid steps integrated).  Failures are counted over
repetitions in the result's `failed` and `attempted`.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Callable

RUN = ("ship_nussbaum", "electromech")
ALL = (*RUN, "deep_chain_check")
SHIP = ("ship_nussbaum",)
ELECTROMECH = ("electromech",)


def merge(dumps: list) -> dict:
    """One dump for several traced processes of a repetition (electromech
    runs both of its controllers).  Each process calibrated its own span
    cost, so times are corrected before they are summed; the merged dump
    then carries no nested counts and the mean span cost."""
    if len(dumps) == 1:
        return dumps[0]
    out = {"stats": {}, "modules": {}, "groups": {}, "counters": {},
           "span_cost_s": sum(d["span_cost_s"] for d in dumps) / len(dumps)}
    for d in dumps:
        cost = d["span_cost_s"]
        for name, (calls, incl, self_t, n_incl, n_self) in d["stats"].items():
            rec = out["stats"].setdefault(name, [0, 0.0, 0.0, 0, 0])
            rec[0] += calls
            rec[1] += incl - n_incl * cost
            rec[2] += self_t - n_self * cost
        for key in ("modules", "groups"):
            for name, (total, nested) in d[key].items():
                rec = out[key].setdefault(name, [0.0, 0])
                rec[0] += total - nested * cost
        for name, n in d["counters"].items():
            out["counters"][name] = out["counters"].get(name, 0) + n
    return out


class Dumps:
    """The span dumps of one traced repetition: the workload's commands
    (merged), plus the plot that follows the run on ship.  `extra` holds what the runner
    measured outside the spans: the trace size and the untraced and
    traced wall times."""

    def __init__(self, main: dict, plot: dict | None = None,
                 extra: dict | None = None):
        self.main = main
        self.plot = plot or {"stats": {}, "modules": {}, "groups": {},
                             "counters": {}, "span_cost_s": 0.0}
        self.extra = extra or {}

    _EMPTY = [0, 0.0, 0.0, 0, 0]

    def calls(self, name: str, dump: dict | None = None) -> int:
        return (dump or self.main)["stats"].get(name, self._EMPTY)[0]

    # Times below subtract the calibrated cost of the spans nested inside
    # (or, for self time, directly beneath) the measured ones.

    def incl(self, name: str, dump: dict | None = None) -> float:
        dump = dump or self.main
        rec = dump["stats"].get(name, self._EMPTY)
        return rec[1] - rec[3] * dump["span_cost_s"]

    def self_s(self, name: str) -> float:
        rec = self.main["stats"].get(name, self._EMPTY)
        return rec[2] - rec[4] * self.main["span_cost_s"]

    def module(self, name: str) -> float:
        total, nested = self.main["modules"].get(name, (0.0, 0))
        return total - nested * self.main["span_cost_s"]

    def group(self, name: str) -> float:
        total, nested = self.main["groups"][name]
        return total - nested * self.main["span_cost_s"]

    def counter(self, name: str) -> int:
        return self.main["counters"].get(name, 0)

    def per_call_us(self, name: str) -> float:
        n = self.calls(name)
        return self.incl(name) / n * 1e6 if n else 0.0

    @property
    def steps(self) -> int:
        return self.counter("sim.steps")

    @property
    def stages(self) -> int:
        return self.calls("sim.RuntimeModel.safe_input")

    def per_step(self, name: str) -> float:
        return self.calls(name) / self.steps if self.steps else 0.0


@dataclass(frozen=True)
class Metric:
    name: str
    unit: str
    spans: tuple              # spans that must record a call where mapped
    workloads: tuple          # workloads the metric is mapped to
    value: Callable[[Dumps], float]


def _per_call(name, unit, span, workloads):
    return Metric(name, unit, (span,), workloads,
                  lambda d: d.per_call_us(span))


def _incl(name, span, workloads):
    return Metric(name, "s", (span,), workloads, lambda d: d.incl(span))


_GLUE = tuple(f"sim.RuntimeModel.{m}" for m in
              ("controls", "deriv", "step", "safe_input", "trace_row"))


def _stage_us(d: Dumps) -> float:
    n = d.calls("sim.RuntimeModel.deriv")
    return d.group("sim.stage") / n * 1e6 if n else 0.0


def _cli_self(d: Dumps) -> float:
    # the command's wall minus the time spent inside the sim layer, which
    # is simulate and to_csv for a run, model build and checks for check
    return d.incl("cli.main") - d.module("sim")


def _active_frac(d: Dumps) -> float:
    return d.counter("filter.active_stages") / d.stages if d.stages else 0.0


METRICS = [
    Metric("scenario.load_s", "s", ("scenario.load_scenario",), ALL,
           lambda d: d.module("scenario")),
    _incl("expr.simplify_s", "expr.simplify", ALL),
    _incl("expr.differentiate_s", "expr.differentiate", ALL),
    Metric("expr.compile_s", "s", ("expr.compile_expr",), ALL,
           lambda d: d.group("expr.compile")),
    Metric("expr.compile_calls", "count", ("expr.compile_expr",), ALL,
           lambda d: d.calls("expr.compile_expr")
           + d.calls("expr.compile_exprs")),
    _incl("barrier.build_s", "barrier.build_barrier_stack", ALL),
    Metric("controllers.build_s", "s", ("controllers.build_nominal",), ALL,
           lambda d: d.group("controllers.build")),
    _incl("sim.build_s", "sim.RuntimeModel.__init__", ALL),
    _incl("barrier.checks_s", "barrier.check_conditions", ALL),
    _per_call("barrier.eval_constraint_us", "us",
              "barrier.BarrierStack.eval_constraint", RUN),
    Metric("barrier.eval_constraint_per_step", "1/step",
           ("barrier.BarrierStack.eval_constraint",), RUN,
           lambda d: d.per_step("barrier.BarrierStack.eval_constraint")),
    _per_call("barrier.eval_barriers_us", "us",
              "barrier.BarrierStack.eval_barriers", RUN),
    _per_call("barrier.chi_us", "us", "barrier.chi", RUN),
    Metric("barrier.chi_per_step", "1/step", ("barrier.chi",), RUN,
           lambda d: d.per_step("barrier.chi")),
    _per_call("filter.project_us", "us", "filter.project_halfspace", RUN),
    Metric("filter.active_frac", "ratio", ("sim.RuntimeModel.safe_input",),
           RUN, _active_frac),
    # the two-barrier corner case: a count of fallbacks, legitimately 0
    Metric("filter.pair_calls", "count", (), (),
           lambda d: d.calls("filter.solve_cbf_qp_pair")),
    _per_call("controllers.nominal_us", "us",
              "controllers.NominalController.control", RUN),
    _per_call("controllers.nussbaum_us", "us",
              "controllers.nussbaum_control", SHIP),
    _per_call("controllers.ppc_us", "us", "controllers.ppc_control",
              ELECTROMECH),
    _per_call("controllers.dob_backstepping_us", "us",
              "controllers.eval_dob_backstepping", ELECTROMECH),
    _per_call("dob.derivative_us", "us", "dob.dob_derivative", ELECTROMECH),
    _per_call("dob.filter_derivative_us", "us", "dob.filter_derivative",
              ELECTROMECH),
    Metric("sim.stage_us", "us", ("sim.RuntimeModel.deriv",), RUN, _stage_us),
    Metric("sim.glue_self_s", "s", _GLUE, RUN,
           lambda d: sum(d.self_s(n) for n in _GLUE)),
    _per_call("sim.controls_us", "us", "sim.RuntimeModel.controls", RUN),
    _per_call("sim.trace_row_us", "us", "sim.RuntimeModel.trace_row", RUN),
    # aborted runs: a count of outcomes, legitimately 0
    Metric("sim.aborts", "count", (), (),
           lambda d: d.counter("sim.aborts")),
    _incl("sim.to_csv_s", "sim.SimTrace.to_csv", RUN),
    Metric("sim.from_csv_s", "s", ("sim.SimTrace.from_csv",), SHIP,
           lambda d: d.incl("sim.SimTrace.from_csv", d.plot)),
    Metric("plots.render_s", "s", ("plots.plot_trace",), SHIP,
           lambda d: d.incl("plots.plot_trace", d.plot)),
    Metric("cli.self_s", "s", ("cli.main",), ALL, _cli_self),
    Metric("sim.steps", "count", ("sim.simulate",), RUN,
           lambda d: d.steps),
    Metric("sim.stages", "count", ("sim.RuntimeModel.safe_input",), RUN,
           lambda d: d.stages),
    Metric("barrier.stacks", "count", ("barrier.build_barrier_stack",), ALL,
           lambda d: d.calls("barrier.build_barrier_stack")),
    Metric("sim.csv_bytes", "B", ("sim.SimTrace.to_csv",), RUN,
           lambda d: d.extra.get("csv_bytes", 0)),
    # untraced: grid steps over simulate's own wall time, and the plot wall
    Metric("sim.steps_per_s", "1/s", ("sim.simulate",), RUN,
           lambda d: d.extra.get("steps_per_s", 0.0)),
    Metric("cli.plot_s", "s", ("plots.plot_trace",), SHIP,
           lambda d: d.extra.get("plot_s", 0.0)),
    Metric("trace.span_cost_us", "us", (), ALL,
           lambda d: d.main["span_cost_s"] * 1e6),
    Metric("trace.untraced_wall_s", "s", (), ALL,
           lambda d: d.extra["untraced_wall_s"]),
    Metric("trace.traced_wall_s", "s", (), ALL,
           lambda d: d.extra["traced_wall_s"]),
    Metric("trace.overhead_s", "s", (), ALL,
           lambda d: d.extra["traced_wall_s"] - d.extra["untraced_wall_s"]),
    Metric("trace.overhead_frac", "ratio", (), ALL,
           lambda d: d.extra["traced_wall_s"] / d.extra["untraced_wall_s"]
           - 1.0),
]


def spans_seen(dumps: Dumps, metric: Metric) -> bool:
    """Whether every span the metric reads recorded at least one call."""
    plot_side = metric.name in ("sim.from_csv_s", "plots.render_s",
                                "cli.plot_s")
    dump = dumps.plot if plot_side else dumps.main
    return all(dumps.calls(name, dump) > 0 for name in metric.spans)


def compute(dumps: Dumps) -> dict:
    return {m.name: (float(m.value(dumps)), m.unit) for m in METRICS}


def roadmap_rows(dumps: Dumps) -> list:
    """The ROADMAP "Baseline measurements" quantities, from the traced run.

    The raw compiled psi function is not a span (it is generated at run
    time), so that half of the eval_constraint row is not reproduced.
    """
    d = dumps
    ms = 1e3
    load = d.module("scenario")
    rows = [
        ("full simulate (steps)",
         f"{d.incl('sim.simulate'):.2f} s ({d.steps})"),
        ("load / build / checks",
         f"{load * ms:.0f} / {d.incl('sim.RuntimeModel.__init__') * ms:.0f}"
         f" / {d.incl('sim.RuntimeModel.run_checks') * ms:.0f} ms"),
        ("controls() per call",
         f"{d.per_call_us('sim.RuntimeModel.controls'):.1f} us"),
        ("trace_row() per call",
         f"{d.per_call_us('sim.RuntimeModel.trace_row'):.1f} us"),
        ("eval_constraint per call",
         f"{d.per_call_us('barrier.BarrierStack.eval_constraint'):.1f} us "
         "(raw compiled psi fn: not traced)"),
    ]
    if d.plot["stats"]:
        rows.append(("to_csv / from_csv",
                     f"{d.incl('sim.SimTrace.to_csv'):.2f} / "
                     f"{d.incl('sim.SimTrace.from_csv', d.plot):.2f} s"))
    return rows
