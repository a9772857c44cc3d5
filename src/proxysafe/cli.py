"""Command-line front end for scenario checking, simulation, and plots.

    proxysafe scenarios
    proxysafe check ship
    proxysafe run ship --out ship.csv
    proxysafe run electromech --controller ppc --horizon 5
    proxysafe run --batch scenarios/ --out results/
    proxysafe plot ship.csv --scenario ship

`check` evaluates the feasibility conditions and prints one verdict
line per condition; `run` simulates and writes the trace CSV plus a
JSON summary; `plot` renders the standard SVG panels from a trace;
`scenarios` lists the built-ins.  A positional scenario is either a
built-in name or a path to a scenario file (an existing file wins when
both match).

A process loads what its command runs: the plots module and the trace
reader only for `plot`, `json` only where JSON is printed, and `glob`
and the process pool only for `run --batch`.  Only `run` loads the run
engine `stream` and the closed-loop generator `loop` (`sim.simulate`
imports both), so `check` and `plot` compile neither.

The `proxysafe` console script and `python -m proxysafe.cli` both call
`entry`: `main`, then `gc.freeze()`, so that the collections of the
interpreter's shutdown skip every object still alive.  `main` freezes
nothing, since tests and library code call it in process.

Exit codes: 0 success, 1 usage or input error (a condition check that
cannot be evaluated included), 2 condition check failed, 3 run finished
UNSAFE, 4 run ABORTED.
"""

from __future__ import annotations

import argparse
import gc
import math
import os
import sys
import time

# sim before scenario: sim loads expr, the largest module, before yaml,
# so a process with no bytecode cache compiles expr while its heap is
# small, for a peak RSS about 1 MB lower than in the other order
from . import sim as sim_mod
from . import scenario as scenario_mod
from .scenario import ScenarioError
from .sim import CheckFailed

__all__ = ["main", "entry", "build_parser",
           "EXIT_OK", "EXIT_USAGE", "EXIT_CHECK", "EXIT_UNSAFE",
           "EXIT_ABORTED"]

EXIT_OK = 0
EXIT_USAGE = 1
EXIT_CHECK = 2
EXIT_UNSAFE = 3
EXIT_ABORTED = 4

_VERDICT_CODE = {"SAFE": EXIT_OK, "UNSAFE": EXIT_UNSAFE,
                 "ABORTED": EXIT_ABORTED}

# what a RecursionError in the barrier or controller build means
_TOO_DEEP = "a scenario expression nests too deeply to build"


class _Parser(argparse.ArgumentParser):
    """argparse reserves status 2 for usage errors; this CLI uses 1."""

    def error(self, message):
        self.print_usage(sys.stderr)
        print(f"{self.prog}: error: {message}", file=sys.stderr)
        raise SystemExit(EXIT_USAGE)


def _positive(text: str) -> float:
    try:
        value = float(text)
    except ValueError:
        raise argparse.ArgumentTypeError(f"not a number: {text!r}") from None
    if not value > 0.0:
        raise argparse.ArgumentTypeError("must be positive")
    return value


def build_parser() -> argparse.ArgumentParser:
    parser = _Parser(prog="proxysafe",
                     description="Safety-filtered tracking simulator: "
                                 "check scenario conditions, run traces, "
                                 "render plots.")
    sub = parser.add_subparsers(dest="command", required=True,
                                metavar="{check,run,plot,scenarios}")

    p_check = sub.add_parser(
        "check", help="evaluate the feasibility conditions of a scenario")
    p_check.add_argument("scenario", help="built-in name or scenario file")
    p_check.add_argument("--seed", type=int, default=None,
                         help="unused: the conditions are proven, not "
                              "sampled (accepted for old scripts)")
    p_check.add_argument("--json", action="store_true",
                         help="emit the report as JSON instead of text")
    p_check.set_defaults(func=cmd_check)

    p_run = sub.add_parser(
        "run", help="simulate a scenario and write trace CSV + summary")
    p_run.add_argument("scenario", nargs="?",
                       help="built-in name or scenario file")
    p_run.add_argument("--controller", default=None,
                       help="controller to use (default: scenario selection)")
    p_run.add_argument("--dt", type=_positive, default=None,
                       help="override the integration step")
    p_run.add_argument("--horizon", type=_positive, default=None,
                       help="override the simulation horizon [s]")
    p_run.add_argument("--out", default=None,
                       help="trace CSV path (batch: output directory)")
    p_run.add_argument("--force", action="store_true",
                       help="run even if the condition checks fail")
    p_run.add_argument("--seed", type=int, default=None,
                       help="unused: the conditions are proven, not "
                            "sampled (accepted for old scripts)")
    p_run.add_argument("--batch", metavar="DIR", default=None,
                       help="run every scenario file in DIR concurrently")
    p_run.set_defaults(func=cmd_run)

    p_plot = sub.add_parser(
        "plot", help="render the standard SVG panels from a trace CSV")
    p_plot.add_argument("trace", help="trace CSV written by `run`")
    p_plot.add_argument("--out", default=None,
                        help="output base path (default: trace path stem)")
    p_plot.add_argument("--scenario", default=None,
                        help="scenario for boundary lines and angle units")
    p_plot.set_defaults(func=cmd_plot)

    p_list = sub.add_parser("scenarios", help="list the built-in scenarios")
    p_list.set_defaults(func=cmd_scenarios)
    return parser


def _load_spec(target: str):
    if os.path.exists(target) and not os.path.isdir(target):
        return scenario_mod.load_scenario(target)
    if target in scenario_mod.builtin_names():
        return scenario_mod.load_builtin(target)
    raise ScenarioError(f"no scenario file or built-in named '{target}'")


def __getattr__(name):
    """`PlotError`, `plot_trace` and `plotted_columns` of the plots
    module, which loads when one of them is first read."""
    if name in ("PlotError", "plot_trace", "plotted_columns"):
        from . import plots
        return getattr(plots, name)
    raise AttributeError(f"module {__name__!r} has no attribute {name!r}")


def _print_json(doc, **options) -> None:
    import json     # `check` without --json prints none
    print(json.dumps(doc, indent=2, **options))


def _num(value):
    """`value` with every non-finite float in it, also inside lists and
    dicts, written as its repr string: strict JSON has no inf or nan."""
    if isinstance(value, dict):
        return {key: _num(v) for key, v in value.items()}
    if isinstance(value, (list, tuple)):
        return [_num(v) for v in value]
    if isinstance(value, float) and not math.isfinite(value):
        return repr(value)
    return value


def cmd_check(args) -> int:
    spec = _load_spec(args.scenario)
    reports = sim_mod.RuntimeModel(spec).run_checks()
    all_ok = all(rep.ok for rep in reports)
    if args.json:
        doc = []
        for k, rep in enumerate(reports, start=1):
            for label, check in [("gradient", rep.grad_check),
                                 ("budget", rep.budget_check),
                                 ("initial", rep.init_check)]:
                doc.append({"barrier": k, "condition": label,
                            "verdict": check.verdict, "detail": check.detail,
                            "data": check.data})
        _print_json(_num(doc), default=repr)
    else:
        for k, rep in enumerate(reports, start=1):
            if len(reports) > 1:
                print(f"barrier {k}:")
            for line in rep.lines():
                print(line)
        print(f"result: {'pass' if all_ok else 'fail'}")
    return EXIT_OK if all_ok else EXIT_CHECK


def _default_trace(spec, controller, out_dir) -> str:
    """The trace path of a run given no --out path: `{name}_{kind}.csv`."""
    kind, _ = spec.controller_block(controller)
    return os.path.join(out_dir or "", f"{spec.name}_{kind}.csv")


def _run_one(spec, controller, dt, horizon, force, out_path, out_dir):
    if out_path is None:
        out_path = _default_trace(spec, controller, out_dir)
    start = time.perf_counter()
    trace = sim_mod.simulate(spec, controller=controller, dt=dt,
                             horizon=horizon, force=force, out=out_path)
    wall = time.perf_counter() - start
    # simulate finished the file, so this writes nothing; it stays for
    # perfbench, whose `sim.to_csv_s` metric reads the span of this call
    trace.to_csv(out_path)
    summary = {
        "scenario": spec.name,
        "controller": trace.controller,
        "verdict": trace.verdict,
        "min_h": _num(trace.monitors["min_h"]),
        "max_e_over_rho": _num(trace.monitors["max_e_over_rho"]),
        "qp_fallbacks": int(trace.monitors["qp_fallbacks"]),
        "steps": int(trace.monitors["steps"]),
        "wall_time_s": round(wall, 3),
        "trace": out_path,
    }
    if trace.reason:
        summary["reason"] = trace.reason
    return summary, _VERDICT_CODE.get(trace.verdict, EXIT_ABORTED)


def _batch_worker(path, controller, dt, horizon, force, out_dir):
    """Top-level so the process pool can pickle it; returns (summary, code)."""
    try:
        spec = scenario_mod.load_scenario(path)
        return _run_one(spec, controller, dt, horizon, force,
                        out_path=None, out_dir=out_dir)
    except CheckFailed as exc:
        return {"scenario": path, "verdict": "CHECK_FAILED",
                "conditions": exc.lines}, EXIT_CHECK
    except (ScenarioError, ValueError, OSError) as exc:
        return {"scenario": path, "verdict": "ERROR",
                "reason": str(exc)}, EXIT_USAGE
    except RecursionError:
        return {"scenario": path, "verdict": "ERROR",
                "reason": _TOO_DEEP}, EXIT_USAGE


def _run_batch(args) -> int:
    import glob
    files = sorted(glob.glob(os.path.join(args.batch, "*.yaml"))
                   + glob.glob(os.path.join(args.batch, "*.yml")))
    if not files:
        raise ScenarioError(f"no scenario files in '{args.batch}'")
    out_dir = args.out or "."
    writers: dict = {}      # trace path -> the file whose run writes it
    for path in files:
        try:
            out_path = _default_trace(scenario_mod.load_scenario(path),
                                      args.controller, out_dir)
        except (ScenarioError, ValueError, OSError, RecursionError):
            continue    # its worker reports it in an ERROR entry
        if out_path in writers:
            raise ScenarioError(f"{writers[out_path]} and {path} would both "
                                f"write the trace {out_path}")
        writers[out_path] = path
    os.makedirs(out_dir, exist_ok=True)
    workers = min(len(files), os.cpu_count() or 1)
    jobs = [(path, args.controller, args.dt, args.horizon, args.force,
             out_dir) for path in files]
    # only --batch needs the pool: its import is left out of every other run
    from concurrent.futures import ProcessPoolExecutor
    with ProcessPoolExecutor(max_workers=workers) as pool:
        results = list(pool.map(_batch_worker, *zip(*jobs)))
    _print_json([summary for summary, _ in results])
    return max(code for _, code in results)


def cmd_run(args) -> int:
    if args.batch is not None:
        if args.scenario is not None:
            raise ScenarioError("give either a scenario or --batch, not both")
        return _run_batch(args)
    if args.scenario is None:
        raise ScenarioError("run needs a scenario (or --batch DIR)")
    spec = _load_spec(args.scenario)
    summary, code = _run_one(spec, args.controller, args.dt, args.horizon,
                             args.force, args.out, out_dir=None)
    _print_json(summary)
    return code


def cmd_plot(args) -> int:
    from . import plots     # only `plot` draws
    trace = sim_mod.SimTrace.from_csv(args.trace,
                                      columns=plots.plotted_columns)
    spec = _load_spec(args.scenario) if args.scenario else None
    base = args.out
    if base is None:
        stem, ext = os.path.splitext(args.trace)
        base = stem if ext.lower() == ".csv" else args.trace
    try:
        paths = plots.plot_trace(trace, base, spec=spec)
    except plots.PlotError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return EXIT_USAGE
    for path in paths:
        print(path)
    return EXIT_OK


def cmd_scenarios(args) -> int:
    for name in scenario_mod.builtin_names():
        spec = scenario_mod.load_builtin(name)
        ctrls = ", ".join(sorted(spec.controllers))
        print(f"{name:<14} controllers: {ctrls}; "
              f"T={spec.horizon:g} dt={spec.dt:g}")
    return EXIT_OK


def main(argv=None) -> int:
    parser = build_parser()
    try:
        args = parser.parse_args(argv)
    except SystemExit as exc:
        return exc.code if isinstance(exc.code, int) else EXIT_USAGE
    try:
        return args.func(args)
    except CheckFailed as exc:
        for line in exc.lines:
            print(line, file=sys.stderr)
        print("condition check failed (use --force to run anyway)",
              file=sys.stderr)
        return EXIT_CHECK
    except (ScenarioError, OSError, ValueError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return EXIT_USAGE
    except RecursionError:
        print(f"error: {_TOO_DEEP}", file=sys.stderr)
        return EXIT_USAGE


def entry() -> int:
    """`main()` of the command line, then the heap frozen for the exit."""
    try:
        return main()
    finally:
        gc.freeze()


if __name__ == "__main__":
    sys.exit(entry())
