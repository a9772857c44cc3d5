"""Tests of the benchmark itself: its correctness gate, its span wrappers,
its seeded inputs and its agreement with BENCHMARK.json.

    PYTHONPATH=src python -m pytest -q perfbench
"""

import json
import os
import subprocess
import sys

import pytest

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
sys.path.insert(0, HERE)

import gate as gate_mod  # noqa: E402
import layers  # noqa: E402
import run  # noqa: E402
from workloads import WORKLOADS, scenario_text  # noqa: E402


def _summary(steps, **extra):
    doc = {"verdict": "SAFE", "steps": steps, "min_h": 0.1}
    doc.update(extra)
    return json.dumps(doc)


def _ship_trace(path, perturb_row=None):
    """A trace whose tracking error matches the baseline samples exactly."""
    samples = gate_mod.load_baselines(ROOT)["ship_tracking_samples"]
    by_row = {i: (t, err) for i, t, err in samples}
    with open(path, "w", encoding="utf-8") as fh:
        fh.write("t,x,x_d\n")
        for row in range(max(by_row) + 1):
            t, err = by_row.get(row, (row * 0.01, 0.0))
            if row == perturb_row:
                err += 1e-6
            fh.write(f"{t!r},{err!r},0.0\n")


def test_gate_counts_a_perturbed_ship_trace_as_failed(tmp_path):
    gate = gate_mod.Gate(ROOT, "ship", seed=0)
    good = tmp_path / "good.csv"
    _ship_trace(good)
    ok = run.Proc(0, _summary(60000), 1.0, 1.0)
    assert gate.run("exact", ok, str(good), 60000)
    assert gate.failed == 0

    bad = tmp_path / "bad.csv"
    _ship_trace(bad, perturb_row=50)
    fresh = gate_mod.Gate(ROOT, "ship", seed=0)
    assert not fresh.run("perturbed", ok, str(bad), 60000)
    assert (fresh.failed, fresh.attempted) == (1, 1)
    assert "row 50" in fresh.failures[0]


def test_gate_counts_min_h_drift_and_nondeterminism(tmp_path):
    trace = tmp_path / "trace.csv"
    trace.write_text("t,x\n0,0\n")
    baselines = gate_mod.load_baselines(ROOT)["electromech"]
    expected = baselines["ppc"]["min_h"]
    gate = gate_mod.Gate(ROOT, "electromech", seed=0)
    exact = run.Proc(0, _summary(20000, min_h=expected), 1.0, 1.0)
    off = run.Proc(0, _summary(20000, min_h=expected + 1e-6), 1.0, 1.0)
    assert gate.run("exact", exact, str(trace), 20000, "ppc")
    assert not gate.run("drift", off, str(trace), 20000, "ppc")
    trace.write_text("t,x\n0,1\n")
    assert not gate.run("changed bytes", exact, str(trace), 20000, "ppc")
    unsafe = run.Proc(3, _summary(20000, verdict="UNSAFE"), 1.0, 1.0)
    assert not gate.run("unsafe", unsafe, str(trace), 20000, "ppc")
    # each controller's traces are compared with its own first trace
    dob = run.Proc(0, _summary(20000, min_h=baselines["dob_backstepping"][
        "min_h"]), 1.0, 1.0)
    assert gate.run("other controller", dob, str(trace), 20000,
                    "dob_backstepping")
    assert (gate.failed, gate.attempted) == (3, 5)


def test_span_wrappers_rebind_by_name_imports():
    names = {
        "sim": ["project_halfspace", "solve_cbf_qp_pair", "ppc_control",
                "nussbaum_control", "eval_dob_backstepping",
                "dob_derivative", "filter_derivative", "compile_expr",
                "build_barrier_stack", "check_conditions"],
        "barrier": ["compile_expr", "compile_exprs", "differentiate",
                    "simplify", "chi"],
        "controllers": ["compile_expr", "compile_exprs", "differentiate",
                        "simplify"],
        "cli": ["plot_trace"],
    }
    probe = (
        "import sys, importlib, spans\n"
        "spans.Tracer().install()\n"
        f"names = {names!r}\n"
        "bad = [f'{m}.{n}' for m, ns in names.items() for n in ns\n"
        "       if not hasattr(getattr(importlib.import_module("
        "'proxysafe.' + m), n), '__wrapped__')]\n"
        "print(bad)\n")
    env = dict(os.environ, PYTHONPATH=os.path.join(ROOT, "src"))
    out = subprocess.run([sys.executable, "-c", probe], cwd=HERE, env=env,
                         capture_output=True, text=True, timeout=60)
    assert out.returncode == 0, out.stderr
    assert out.stdout.strip() == "[]"


@pytest.mark.parametrize("name", sorted(WORKLOADS))
def test_every_mapped_layer_metric_records_calls(name, tmp_path):
    workload = WORKLOADS[name]
    horizon = None if workload.command == "check" else 0.05
    bench = run.Bench(ROOT, workload, 1, str(tmp_path), horizon=horizon)
    dumps, metrics = bench.per_layer()
    assert bench.gate.failures == []
    assert set(metrics) == {m.name for m in layers.METRICS}
    silent = [m.name for m in layers.METRICS
              if name in m.workloads and not layers.spans_seen(dumps, m)]
    assert silent == []
    assert metrics["trace.traced_wall_s"]["value"] > 0.0


def test_merged_dumps_add_corrected_times():
    def dump(cost, calls, incl, nested):
        return {"span_cost_s": cost, "counters": {"sim.steps": calls},
                "stats": {"a": [calls, incl, incl / 2, nested, nested]},
                "modules": {"m": [incl, nested]},
                "groups": {"g": [incl, nested]}}
    one, two = dump(1e-6, 3, 1.0, 100), dump(3e-6, 5, 2.0, 200)
    merged = layers.Dumps(layers.merge([one, two]))
    want = (1.0 - 100 * 1e-6) + (2.0 - 200 * 3e-6)
    assert merged.calls("a") == 8
    assert merged.incl("a") == pytest.approx(want)
    assert merged.self_s("a") == pytest.approx(want - 1.5)
    assert merged.module("m") == pytest.approx(want)
    assert merged.group("g") == pytest.approx(want)
    assert merged.steps == 8
    assert layers.merge([one]) is one


def test_seeded_inputs():
    for workload in WORKLOADS.values():
        assert scenario_text(workload, 3, ROOT) == \
            scenario_text(workload, 3, ROOT)
        assert scenario_text(workload, 3, ROOT) != \
            scenario_text(workload, 4, ROOT)
    with open(os.path.join(ROOT, "src", "proxysafe", "scenarios",
                           "ship.yaml"), encoding="utf-8") as fh:
        assert scenario_text(WORKLOADS["ship_nussbaum"], 0, ROOT) == fh.read()


def test_benchmark_json_matches_the_code():
    with open(os.path.join(ROOT, "BENCHMARK.json"), encoding="utf-8") as fh:
        doc = json.load(fh)
    assert [(w["name"], w["why"]) for w in doc["workloads"]] == \
        [(w.name, w.why) for w in WORKLOADS.values()]
    assert [(m["name"], m["unit"]) for m in doc["end_to_end"]] == \
        run.END_TO_END
    assert [(m["name"], m["unit"]) for m in doc["per_layer"]] == \
        [(m.name, m.unit) for m in layers.METRICS]


def test_refuses_to_run_outside_a_checkout(tmp_path, monkeypatch, capsys):
    monkeypatch.chdir(tmp_path)
    assert run.main(["--workload", "ship_nussbaum", "--seed", "0",
                     "--seconds", "1"]) != 0
    assert capsys.readouterr().out == ""
