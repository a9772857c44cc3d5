"""proxysafe benchmark: end-to-end and per-layer costs of the `proxysafe` CLI.

    python3 perfbench/run.py --workload NAME --seed N --seconds S --trace 0|1

Run from the root of a source checkout; the program under test is
imported from ./src.  Traffic is a closed loop with one client: every
repetition is a fresh single-threaded interpreter, and the next one
starts only after the last has exited, so at most one process runs at a
time and module-level caches start cold, as they do for a user.

--trace 0 measures the end-to-end metrics with tracing off:
  wall_s       median wall time of the workload's CLI commands in fresh
               interpreters: one `run` per controller (plus `plot` on
               ship_nussbaum), or `check`; import and trace CSV write
               included;
  setup_s      median wall time of one-grid-step `run`s in fresh
               interpreters, one per controller: import, load, symbolic
               build, compiles and feasibility checks up to the first
               integrated step.  On deep_chain_check it is the `check`
               wall time itself;
  peak_rss_mb  median over repetitions of the largest peak RSS among the
               workload's processes.
A run takes S seconds: set-up is measured SETUP_REPS times, then
repetitions follow while the next one would end no more than half a
repetition past S.

--trace 1 makes one untraced and one traced repetition and reports the
per-layer metrics of layers.py from the traced one (spans.py), together
with the tracing overhead, and prints the ROADMAP baseline rows.

Every repetition passes the correctness gate of gate.py or counts in
`failed`; the last stdout line is the result JSON.
"""

from __future__ import annotations

import argparse
import json
import os
import shutil
import statistics
import subprocess
import sys
import tempfile
import threading
import time

import yaml

HERE = os.path.dirname(os.path.abspath(__file__))
sys.path.insert(0, HERE)

import gate as gate_mod  # noqa: E402
import layers  # noqa: E402
from workloads import WORKLOADS, scenario_text  # noqa: E402

SETUP_REPS = 5
MIN_CHECK_REPS = 3      # deep_chain_check takes its set-up from these
PROC_TIMEOUT = 150.0    # seconds; one repetition takes about 15 at most
WORK_DIR = ".perfbench_work"
END_TO_END = [("wall_s", "s"), ("setup_s", "s"), ("peak_rss_mb", "MB")]


class Proc:
    """One finished child process: exit code, stdout, wall and peak RSS."""

    def __init__(self, returncode, stdout, wall, rss_mb):
        self.returncode = returncode
        self.stdout = stdout
        self.wall = wall
        self.rss_mb = rss_mb


def launch(cmd, cwd, env, log_stem) -> Proc:
    """Run cmd to completion; the wall clock spans fork to reap."""
    out_path, err_path = log_stem + ".out", log_stem + ".err"
    with open(out_path, "w") as out, open(err_path, "w") as err:
        start = time.perf_counter()
        proc = subprocess.Popen(cmd, cwd=cwd, env=env, stdout=out,
                                stderr=err)
        timer = threading.Timer(PROC_TIMEOUT, proc.kill)
        timer.start()
        try:
            _, status, usage = os.wait4(proc.pid, 0)
        except BaseException:
            proc.kill()
            proc.wait()
            raise
        finally:
            timer.cancel()
            timer.join()
        wall = time.perf_counter() - start
    proc.returncode = os.waitstatus_to_exitcode(status)
    with open(out_path) as fh:
        stdout = fh.read()
    if proc.returncode != 0:
        with open(err_path) as fh:
            sys.stderr.write(fh.read()[-2000:])
    # ru_maxrss is in KiB on Linux
    return Proc(proc.returncode, stdout, wall, usage.ru_maxrss / 1024.0)


def _part(controller) -> str:
    return "run" if controller is None else f"run {controller}"


class Bench:
    """One benchmark invocation: a workload, a seed and a work directory."""

    def __init__(self, root, workload, seed, work, horizon=None):
        self.w = workload
        self.seed = seed
        self.work = work
        self.horizon = horizon        # shortened runs, for the tests only
        self.env = dict(os.environ, PYTHONPATH=os.path.join(root, "src"))
        self.gate = gate_mod.Gate(root, workload.scenario, seed,
                                  full_horizon=horizon is None)
        self.scenario_path = os.path.join(work, f"{workload.name}.yaml")
        text = scenario_text(workload, seed, root)
        with open(self.scenario_path, "w", encoding="utf-8") as fh:
            fh.write(text)
        data = yaml.safe_load(text)
        self.dt = float(data["dt"])
        self.steps = max(1, int(round(
            (horizon if horizon is not None else data["horizon"]) / self.dt)))
        self.n = 0

    def _cli(self, args, traced_to=None):
        self.n += 1
        stem = os.path.join(self.work, f"p{self.n}")
        if traced_to is None:
            cmd = [sys.executable, "-m", "proxysafe.cli", *args]
        else:
            cmd = [sys.executable, os.path.join(HERE, "spans.py"), traced_to,
                   "--", *args]
        return launch(cmd, self.work, self.env, stem)

    def _run_args(self, controller, csv_path, horizon):
        args = ["run", self.scenario_path, "--out", csv_path]
        if controller:
            args += ["--controller", controller]
        if horizon is not None:
            args += ["--horizon", repr(horizon)]
        return args

    def _csv(self, stem, controller):
        return os.path.join(self.work, f"{stem}{self.n}-{controller}.csv")

    # -- repetitions -------------------------------------------------------

    def setup_rep(self, label):
        """One-step runs, one per controller.  Returns their processes
        and traces."""
        procs, csvs = [], []
        for controller in self.w.controllers:
            csv_path = self._csv("setup", controller)
            proc = self._cli(self._run_args(controller, csv_path, self.dt))
            self.gate.run(f"{label} {controller}", proc, csv_path, 1,
                          controller, kind="setup")
            procs.append(proc)
            csvs.append(csv_path)
        return procs, csvs

    def workload_rep(self, label, traced=False):
        """One repetition of the workload.  Returns its processes by part,
        the traces on run workloads, and the span dumps when traced."""
        parts, csvs, spans = {}, [], {}

        def cli(part, args):
            path = None
            if traced:
                path = spans[part] = os.path.join(self.work,
                                                  f"spans{self.n}.json")
            parts[part] = proc = self._cli(args, path)
            return proc

        if self.w.command == "check":
            proc = cli("check", ["check", self.scenario_path])
            self.gate.check(label, proc)
            return parts, csvs, spans
        for controller in self.w.controllers:
            csv_path = self._csv("trace", controller)
            proc = cli(_part(controller),
                       self._run_args(controller, csv_path, self.horizon))
            self.gate.run(f"{label} {controller}", proc, csv_path,
                          self.steps, controller)
            csvs.append(csv_path)
        if self.w.plot:
            plot = cli("plot", ["plot", csvs[0], "--scenario",
                                self.scenario_path, "--out",
                                os.path.join(self.work, f"plot{self.n}")])
            self.gate.plot(label + " plot", plot)
        return parts, csvs, spans

    # -- modes -------------------------------------------------------------

    def end_to_end(self, seconds):
        """Set-ups, then repetitions while the next one, at the median
        length so far, would end no more than half a repetition past
        `seconds` from the start."""
        deadline = time.perf_counter() + seconds
        setups = []
        setup_csvs = []
        if self.w.command == "run":
            for k in range(SETUP_REPS):
                procs, setup_csvs = self.setup_rep(f"setup {k}")
                setups.append(sum(p.wall for p in procs))
        walls, rss = [], []
        while True:
            parts, csvs, _ = self.workload_rep(f"rep {len(walls)}")
            if not walls:
                for short, full in zip(setup_csvs, csvs):
                    self.gate.prefix("setup vs rep 0", short, full)
            for path in csvs:
                if os.path.exists(path):
                    os.remove(path)
            walls.append(sum(p.wall for p in parts.values()))
            rss.append(max(p.rss_mb for p in parts.values()))
            left = deadline - time.perf_counter()
            if left < statistics.median(walls) / 2 and (
                    self.w.command == "run" or len(walls) >= MIN_CHECK_REPS):
                break
        if self.w.command == "check":
            setups = walls
        values = {"wall_s": statistics.median(walls),
                  "setup_s": statistics.median(setups),
                  "peak_rss_mb": statistics.median(rss)}
        print(f"{self.w.name} seed {self.seed}: {len(walls)} repetitions, "
              f"{len(setups)} set-ups; walls "
              + " ".join(f"{v:.3f}" for v in walls) + " s; set-ups "
              + " ".join(f"{v:.3f}" for v in setups) + " s")
        return {name: {"value": values[name], "unit": unit}
                for name, unit in END_TO_END}

    def per_layer(self):
        plain, csvs_plain, _ = self.workload_rep("untraced")
        traced, csvs_traced, spans = self.workload_rep("traced", traced=True)
        extra = {"untraced_wall_s": sum(p.wall for p in plain.values()),
                 "traced_wall_s": sum(p.wall for p in traced.values())}
        if csvs_plain and self.gate.failed == 0:
            summaries = [json.loads(plain[_part(c)].stdout)
                         for c in self.w.controllers]
            extra["steps_per_s"] = sum(s["steps"] for s in summaries) \
                / sum(s["wall_time_s"] for s in summaries)
            extra["csv_bytes"] = sum(os.path.getsize(p) for p in csvs_traced)
            if self.w.plot:
                extra["plot_s"] = plain["plot"].wall
        dumps = {}
        for part, path in spans.items():
            with open(path, encoding="utf-8") as fh:
                dumps[part] = json.load(fh)
        plot = dumps.pop("plot", None)
        print(f"{self.w.name} seed {self.seed}: ROADMAP baseline rows "
              "(traced run, less the calibrated span cost)")
        for part, dump in dumps.items():
            for label, text in layers.roadmap_rows(layers.Dumps(dump, plot)):
                print(f"  {part:<22} {label:<26} {text}")
        result = layers.Dumps(layers.merge(list(dumps.values())), plot, extra)
        values = layers.compute(result)
        print(f"  ratio bases: {result.steps} steps, {result.stages} stages, "
              f"{values['barrier.stacks'][0]:.0f} barrier stacks; "
              f"tracing overhead {values['trace.overhead_frac'][0]:.0%}")
        return result, {name: {"value": v, "unit": unit}
                        for name, (v, unit) in values.items()}


def preflight(root) -> str | None:
    for rel in (os.path.join("src", "proxysafe", "cli.py"),
                os.path.join(gate_mod.DATA_DIR, "baselines.json"),
                os.path.join(gate_mod.DATA_DIR, "ship_tracking.csv")):
        if not os.path.isfile(os.path.join(root, rel)):
            return f"not a proxysafe checkout: {rel} is missing"
    return None


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True, choices=sorted(WORKLOADS))
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)
    root = os.getcwd()
    problem = preflight(root)
    if problem:
        print(f"error: {problem}", file=sys.stderr)
        return 2
    os.makedirs(os.path.join(root, WORK_DIR), exist_ok=True)
    work = tempfile.mkdtemp(prefix="run-", dir=os.path.join(root, WORK_DIR))
    try:
        bench = Bench(root, WORKLOADS[args.workload], args.seed, work)
        if args.trace:
            _, metrics = bench.per_layer()
        else:
            metrics = bench.end_to_end(args.seconds)
        g = bench.gate
    finally:
        shutil.rmtree(work, ignore_errors=True)
        try:
            os.rmdir(os.path.join(root, WORK_DIR))
        except OSError:
            pass    # another run is using it
    for failure in g.failures:
        print(f"FAILED {failure}")
    print(f"failed_frac {g.failed}/{g.attempted} repetitions")
    print(json.dumps({"correct": g.failed == 0, "attempted": g.attempted,
                      "failed": g.failed, "metrics": metrics}))
    return 0


if __name__ == "__main__":
    sys.exit(main())
