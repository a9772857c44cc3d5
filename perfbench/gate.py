"""Correctness gate applied to every repetition the benchmark makes.

Every run must exit 0 with verdict SAFE over the expected number of grid
steps, and every check must exit 0 with `result: pass`.  Repetitions of
one seed must write byte-identical traces (and print identical check
reports).  At seed 0, the shipped input, the outputs must also match the
frozen baselines in tests/data, which are only ever read here: ship
tracking within 1e-9 of ship_tracking.csv and electromech min_h within
1e-9 of baselines.json.
"""

from __future__ import annotations

import hashlib
import json
import math
import os

DATA_DIR = os.path.join("tests", "data")
BASELINE_TOL = 1e-9
TIME_TOL = 1e-12
PLOT_PANELS = 4


def load_baselines(root: str) -> dict:
    with open(os.path.join(root, DATA_DIR, "baselines.json"),
              encoding="utf-8") as fh:
        doc = json.load(fh)
    samples = []
    with open(os.path.join(root, DATA_DIR, "ship_tracking.csv"),
              encoding="utf-8") as fh:
        fh.readline()
        for line in fh:
            if line.strip():
                i, t, err = line.strip().split(",")
                samples.append((int(i), float(t), float(err)))
    doc["ship_tracking_samples"] = samples
    return doc


def ship_tracking_errors(csv_path: str, samples) -> list:
    """Problems with |x - x_d| at the baseline sample rows of a ship trace."""
    wanted = {i: (t, err) for i, t, err in samples}
    last = max(wanted)
    problems = []
    with open(csv_path, encoding="utf-8") as fh:
        columns = fh.readline().strip().split(",")
        i_t, i_x, i_xd = (columns.index(c) for c in ("t", "x", "x_d"))
        for row, line in enumerate(fh):
            if row > last:
                break
            if row not in wanted:
                continue
            vals = line.split(",")
            t, x, xd = float(vals[i_t]), float(vals[i_x]), float(vals[i_xd])
            t_base, err_base = wanted.pop(row)
            if abs(t - t_base) > TIME_TOL:
                problems.append(f"row {row}: t={t!r}, baseline {t_base!r}")
            drift = abs(abs(x - xd) - err_base)
            if not drift <= BASELINE_TOL:
                problems.append(f"row {row}: tracking error off the "
                                f"baseline by {drift:.3g}")
    if wanted:
        problems.append(f"trace ends before baseline row {min(wanted)}")
    return problems


def _digest(path: str) -> str:
    h = hashlib.sha256()
    with open(path, "rb") as fh:
        for block in iter(lambda: fh.read(1 << 20), b""):
            h.update(block)
    return h.hexdigest()


class Gate:
    """Counts the repetitions of one benchmark run and those that fail."""

    def __init__(self, root: str, scenario: str, seed: int,
                 full_horizon: bool = True):
        self.scenario = scenario
        # the frozen baselines hold for the shipped input at full horizon
        self.baselines = load_baselines(root) \
            if seed == 0 and full_horizon else None
        self.digests: dict = {}
        self.attempted = 0
        self.failures: list = []

    @property
    def failed(self) -> int:
        return len(self.failures)

    def _same(self, kind: str, digest: str, problems: list) -> None:
        first = self.digests.setdefault(kind, digest)
        if digest != first:
            problems.append(f"{kind} output differs from the first "
                            "repetition of this seed")

    def _record(self, label: str, problems: list) -> bool:
        self.attempted += 1
        if problems:
            self.failures.append(f"{label}: " + "; ".join(problems))
        return not problems

    def run(self, label: str, proc, csv_path: str, steps: int,
            controller: str | None = None, kind: str = "trace") -> bool:
        """Gate one `proxysafe run` of `controller` (None: the scenario's
        own); its summary JSON is proc.stdout."""
        problems = []
        summary = {}
        if proc.returncode != 0:
            problems.append(f"exit code {proc.returncode}")
        try:
            summary = json.loads(proc.stdout)
        except ValueError:
            problems.append("no summary JSON on stdout")
        if summary:
            if summary.get("verdict") != "SAFE":
                problems.append(f"verdict {summary.get('verdict')} "
                                f"({summary.get('reason', '')})")
            if summary.get("steps") != steps:
                problems.append(f"{summary.get('steps')} steps, "
                                f"expected {steps}")
        if not problems:
            try:
                self._same(f"{kind} {controller}", _digest(csv_path),
                           problems)
            except OSError as exc:
                problems.append(f"trace not readable: {exc}")
        if not problems and self.baselines is not None and kind == "trace":
            if self.scenario == "ship":
                problems += ship_tracking_errors(
                    csv_path, self.baselines["ship_tracking_samples"])
            else:
                expected = self.baselines[self.scenario][controller]
                drift = abs(float(summary["min_h"]) - expected["min_h"])
                if not (math.isfinite(drift) and drift <= BASELINE_TOL):
                    problems.append(f"min_h off the baseline by {drift:.3g}")
        return self._record(label, problems)

    def prefix(self, label: str, short_csv: str, full_csv: str) -> bool:
        """A one-step trace must open the full trace byte for byte."""
        try:
            with open(short_csv, "rb") as fh:
                short = fh.read()
            with open(full_csv, "rb") as fh:
                head = fh.read(len(short))
        except OSError as exc:
            return self._record(label, [f"trace not readable: {exc}"])
        problems = [] if head == short else \
            ["one-step trace is not a prefix of the full trace"]
        return self._record(label, problems)

    def check(self, label: str, proc) -> bool:
        """Gate one `proxysafe check`."""
        problems = []
        if proc.returncode != 0:
            problems.append(f"exit code {proc.returncode}")
        lines = proc.stdout.strip().splitlines()
        if not lines or lines[-1] != "result: pass":
            problems.append("report does not end in 'result: pass'")
        if not problems:
            self._same("check",
                       hashlib.sha256(proc.stdout.encode()).hexdigest(),
                       problems)
        return self._record(label, problems)

    def plot(self, label: str, proc) -> bool:
        """Gate one `proxysafe plot`: it prints the panel paths it wrote."""
        problems = []
        if proc.returncode != 0:
            problems.append(f"exit code {proc.returncode}")
        paths = proc.stdout.split()
        if len(paths) != PLOT_PANELS:
            problems.append(f"{len(paths)} panels, expected {PLOT_PANELS}")
        for path in paths:
            if not (os.path.isfile(path) and os.path.getsize(path) > 0):
                problems.append(f"panel {path} missing or empty")
        return self._record(label, problems)
