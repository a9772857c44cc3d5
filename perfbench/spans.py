"""Span tracing of the proxysafe layers, installed from outside the package.

    python3 perfbench/spans.py OUT.json -- <proxysafe CLI arguments>

runs the `proxysafe` command in this interpreter with every public
function and method of the package wrapped in a span.  A span records its
name (`module.qualname`), start, end and parent.  Aggregates are kept
exactly for every span; the raw span list keeps the first SPAN_CAP spans
of each name, because a ship run opens several million spans.  Everything
stays in memory and is written to OUT.json when the command returns.

Per name the tracer keeps the call count, the inclusive time of the
outermost calls (a recursive call is not counted twice) and the self
time, which is the span's duration minus the time its child spans cover.
Per module it keeps the time spent in spans entered from another module,
and per group in GROUPS the inclusive time of the group's outermost calls.
Each of these also counts the spans nested inside it, so that a reader
can subtract the calibrated cost of a span (`span_cost_s`) from it.
HOOKS count outcomes that only the return value shows.
"""

from __future__ import annotations

import functools
import importlib
import inspect
import json
import statistics
import sys
import time

MODULES = ("expr", "scenario", "barrier", "filter", "dob", "controllers",
           "sim", "plots", "cli")
# expr's classes are the expression nodes themselves; a span per node
# method would trace the data structure, not a layer
NO_METHODS = ("expr",)
SPAN_CAP = 1000

GROUPS = {
    "sim.stage": ("sim.RuntimeModel.controls", "sim.RuntimeModel.deriv"),
    "controllers.build": ("controllers.build_nominal",
                          "controllers.build_dob_backstepping",
                          "controllers.initialize_funnels"),
    "expr.compile": ("expr.compile_expr", "expr.compile_exprs"),
}


def _filter_active(counters, result):
    nu_d, nu, _ = result
    if nu != nu_d:
        counters["filter.active_stages"] = \
            counters.get("filter.active_stages", 0) + 1


def _simulated(counters, trace):
    counters["sim.steps"] = counters.get("sim.steps", 0) + \
        int(trace.monitors["steps"])
    if trace.verdict == "ABORTED":
        counters["sim.aborts"] = counters.get("sim.aborts", 0) + 1


HOOKS = {
    "sim.RuntimeModel.safe_input": _filter_active,
    "sim.simulate": _simulated,
}


class Tracer:
    def __init__(self):
        self.stack = []        # open spans, see wrap()
        # name -> [calls, outermost inclusive, self, spans nested in the
        # outermost calls, direct child spans of all calls]
        self.stats = {}
        self.modules = {}      # module -> [time entered from outside, nested]
        self.groups = {name: [0.0, 0] for name in GROUPS}
        self.counters = {}
        self.spans = []        # (id, name, start, end, parent id)
        self.ids = [0]
        self.wrapped = {}      # id(original) -> wrapper
        self.costs = []        # calibration rounds, seconds per span
        self.span_cost = 0.0

    def wrap(self, name: str, module: str, fn):
        stack, spans, counters, ids = \
            self.stack, self.spans, self.counters, self.ids
        rec = self.stats.setdefault(name, [0, 0.0, 0.0, 0, 0])
        entry = self.modules.setdefault(module, [0.0, 0])
        in_groups = [(self.groups[g], [0]) for g, names in GROUPS.items()
                     if name in names]
        hook = HOOKS.get(name)
        depth = [0]
        clock = time.perf_counter

        @functools.wraps(fn)
        def traced(*args, **kwargs):
            # [child time, module, id, direct children, nested spans]
            frame = [0.0, module, ids[0], 0, 0]
            ids[0] += 1
            parent = stack[-1] if stack else None
            stack.append(frame)
            depth[0] += 1
            for _, gdepth in in_groups:
                gdepth[0] += 1
            start = clock()
            try:
                result = fn(*args, **kwargs)
            finally:
                end = clock()
                dt = end - start
                stack.pop()
                depth[0] -= 1
                rec[0] += 1
                rec[2] += dt - frame[0]
                rec[4] += frame[3]
                if depth[0] == 0:
                    rec[1] += dt
                    rec[3] += frame[4]
                for total, gdepth in in_groups:
                    gdepth[0] -= 1
                    if gdepth[0] == 0:
                        total[0] += dt
                        total[1] += frame[4]
                if parent is None or parent[1] != module:
                    entry[0] += dt
                    entry[1] += frame[4]
                if parent is not None:
                    parent[0] += dt
                    parent[3] += 1
                    parent[4] += 1 + frame[4]
                if rec[0] <= SPAN_CAP:
                    spans.append((frame[2], name, start, end,
                                  parent[2] if parent else None))
            if hook is not None:
                hook(counters, result)
            return result

        return traced

    def calibrate(self, rounds: int = 7, calls: int = 4000) -> float:
        """Time what one nested span costs the span around it: a traced
        parent calls a leaf that does nothing, once traced and once not.
        The machine's speed drifts, so this runs before and after the
        command and the median over all rounds is kept."""
        def leaf(a, b, c):
            return None

        def loop(fn):
            for _ in range(calls):
                fn(1.0, 2.0, 3.0)

        traced_leaf = self.wrap("calibration.leaf", "calibration", leaf)
        parent = self.wrap("calibration.loop", "calibration", loop)
        clock = time.perf_counter
        for _ in range(rounds):
            t0 = clock()
            parent(traced_leaf)
            t1 = clock()
            parent(leaf)
            t2 = clock()
            self.costs.append(((t1 - t0) - (t2 - t1)) / calls)
        for name in ("calibration.leaf", "calibration.loop"):
            del self.stats[name]
        del self.modules["calibration"]
        self.spans[:] = [sp for sp in self.spans
                         if not sp[1].startswith("calibration.")]
        self.span_cost = max(statistics.median(self.costs), 0.0)
        return self.span_cost

    def install(self):
        """Wrap the package's public functions and methods, then rebind
        every by-name import of a wrapped function to its wrapper."""
        mods = {m: importlib.import_module(f"proxysafe.{m}") for m in MODULES}
        for short, mod in mods.items():
            for attr, obj in list(vars(mod).items()):
                if attr.startswith("_") or getattr(obj, "__module__", None) \
                        != mod.__name__:
                    continue
                if inspect.isfunction(obj):
                    wrapper = self.wrap(f"{short}.{attr}", short, obj)
                    self.wrapped[id(obj)] = wrapper
                    setattr(mod, attr, wrapper)
                elif inspect.isclass(obj) and short not in NO_METHODS \
                        and not issubclass(obj, BaseException):
                    self._wrap_methods(short, obj)
        # `from proxysafe.filter import project_halfspace` and friends bound
        # the original function in the importing module's namespace
        for mod in [*mods.values(), importlib.import_module("proxysafe")]:
            for attr, obj in list(vars(mod).items()):
                wrapper = self.wrapped.get(id(obj))
                if wrapper is not None and inspect.isfunction(obj):
                    setattr(mod, attr, wrapper)

    def _wrap_methods(self, short: str, cls):
        own_init = "__init__" in vars(cls) and \
            "__dataclass_fields__" not in vars(cls)
        for attr, raw in list(vars(cls).items()):
            if attr.startswith("_") and not (attr == "__init__" and own_init):
                continue
            name = f"{short}.{cls.__name__}.{attr}"
            if isinstance(raw, classmethod):
                setattr(cls, attr,
                        classmethod(self.wrap(name, short, raw.__func__)))
            elif isinstance(raw, staticmethod):
                setattr(cls, attr,
                        staticmethod(self.wrap(name, short, raw.__func__)))
            elif inspect.isfunction(raw):
                setattr(cls, attr, self.wrap(name, short, raw))

    def dump(self, path: str, argv, wall: float, code) -> None:
        doc = {"argv": list(argv), "exit_code": code, "wall_s": wall,
               "span_cost_s": self.span_cost, "stats": self.stats,
               "modules": self.modules, "groups": self.groups,
               "counters": self.counters,
               "span_fields": ["id", "name", "start", "end", "parent"],
               "spans": self.spans}
        with open(path, "w", encoding="utf-8") as fh:
            json.dump(doc, fh)


def main(argv) -> int:
    if len(argv) < 2 or argv[1] != "--":
        print("usage: spans.py OUT.json -- <proxysafe CLI arguments>",
              file=sys.stderr)
        return 1
    out, cli_args = argv[0], argv[2:]
    tracer = Tracer()
    tracer.calibrate()
    tracer.install()
    cli = importlib.import_module("proxysafe.cli")
    start = time.perf_counter()
    code = None
    try:
        code = cli.main(cli_args)
    finally:
        wall = time.perf_counter() - start
        tracer.calibrate()
        tracer.dump(out, cli_args, wall, code)
    return code


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
