"""Command-line interface tests.

Coverage:
  1. `scenarios` listing
  2. `check`: pass/fail output, three barriers, margins, JSON mode
     (strict JSON also past an overflow), exit codes, a directory named
     like a built-in, and a check that cannot be evaluated or a
     controller past the node cap, each an input error for `check`,
     `run`, `run --force` and `--batch` alike
  3. `run`: summary block, trace file, overrides, default naming,
     forced runs, aborted runs, output errors, a grid past the step
     cap, exit codes
  4. `plot`: panel files, only the plotted columns parsed, errors for
     bad inputs (a missing file's text pinned), an input at the double
     limits drawn in four panels
  5. `--batch`: concurrent directory runs with isolated outputs, a
     broken or too deeply nested file reported in its own entry, two
     files that would write one trace path refused before any run
  6. usage errors exit with code 1, and a file that is not YAML gives
     the pure-Python parser's error text, with libyaml or without;
     importing the CLI leaves the process pool of `--batch` out, `check`
     loads no run engine, closed-loop generator, plots, trace reader or
     json, `plot` no run engine, and `run` no plots or trace reader; the
     console script and `python -m` call one entry function, which
     freezes the heap before the exit where `main` in process does not,
     and a `python -m` process exits with each of the codes 0-4
  7. `check` output pinned byte for byte: ship, electromech and the m=4
     chain, text and `--json`
"""

import ast
import gc
import hashlib
import json
import os
import resource
import subprocess
import sys
import tomllib

import pytest
import yaml

from proxysafe import cli as cli_mod
from proxysafe import controllers as controllers_mod
from proxysafe import scenario as scenario_mod
from proxysafe.cli import (EXIT_ABORTED, EXIT_CHECK, EXIT_OK, EXIT_UNSAFE,
                           EXIT_USAGE, main)
from proxysafe.plots import plot_trace
from proxysafe.sim import SimTrace
from scenario_variants import three_barriers
from test_symbolic_build import chain_scenario

SRC = os.path.join(os.path.dirname(os.path.dirname(os.path.abspath(__file__))),
                   "src")


def _write_variant(path, name, mutate):
    """A builtin scenario, mutated, saved to a file; returns the path."""
    mapping = scenario_mod.load_builtin(name).to_mapping()
    mutate(mapping)
    with open(path, "w", encoding="utf-8") as fh:
        yaml.safe_dump(mapping, fh, sort_keys=False)
    return str(path)


@pytest.fixture
def bad_init_ship(tmp_path):
    def mutate(m):
        m["name"] = "ship_bad_init"
        m["initial"]["x"] = [0.34]
        m["horizon"] = 1.0
    return _write_variant(tmp_path / "ship_bad_init.yaml", "ship", mutate)


# ═══════════════════════════════════════════════════════════════════
# 1. scenarios
# ═══════════════════════════════════════════════════════════════════

def test_scenarios_lists_builtins(capsys):
    assert main(["scenarios"]) == EXIT_OK
    out = capsys.readouterr().out
    assert "electromech" in out and "ship" in out
    assert "nussbaum" in out and "dob_backstepping" in out


# ═══════════════════════════════════════════════════════════════════
# 2. check
# ═══════════════════════════════════════════════════════════════════

def test_check_ship_passes_with_margin(capsys):
    assert main(["check", "ship"]) == EXIT_OK
    out = capsys.readouterr().out
    assert "result: pass" in out
    assert "margin 5.996" in out
    verdict_lines = [ln for ln in out.splitlines() if ln.startswith("[")]
    assert len(verdict_lines) == 3  # one per condition


def test_check_electromech_passes(capsys):
    assert main(["check", "electromech"]) == EXIT_OK
    out = capsys.readouterr().out
    assert "result: pass" in out
    assert "barrier 1:" in out and "barrier 2:" in out


def test_check_three_barriers_passes(tmp_path, capsys):
    path = str(tmp_path / "three.yaml")
    scenario_mod.save_scenario(three_barriers(), path)
    assert main(["check", path]) == EXIT_OK
    out = capsys.readouterr().out
    assert [ln for ln in out.splitlines() if ln.startswith("barrier")] == \
        ["barrier 1:", "barrier 2:", "barrier 3:"]
    assert out.endswith("result: pass\n")


def test_check_wide_funnel_fails_budget(tmp_path, capsys):
    path = _write_variant(tmp_path / "wide.yaml", "ship",
                          lambda m: m.update(rho={"initial": 10}))
    assert main(["check", path]) == EXIT_CHECK
    out = capsys.readouterr().out
    assert "funnel derivative budget" in out
    assert "margin -994" in out
    assert "result: fail" in out


def test_check_bad_initial_state_fails(bad_init_ship, capsys):
    assert main(["check", bad_init_ship]) == EXIT_CHECK
    out = capsys.readouterr().out
    assert "initial positivity" in out and "fail" in out


def test_check_json_mode(capsys):
    assert main(["check", "ship", "--json"]) == EXIT_OK
    doc = json.loads(capsys.readouterr().out)
    assert len(doc) == 3
    assert {item["condition"] for item in doc} == {
        "gradient", "budget", "initial"}
    assert all(item["barrier"] == 1 for item in doc)
    budget = next(i for i in doc if i["condition"] == "budget")
    assert budget["verdict"] == "pass"


@pytest.mark.parametrize("lambdas, betas, verdict", [
    ([1e10, 1e300], [5e23], "fail"),    # budget inf, bound inf, margin nan
    ([1e200, 1e200], [20], "pass"),     # bound inf, margin inf
], ids=["value overflow", "bound overflow"])
def test_check_json_is_strict_json_past_overflow(lambdas, betas, verdict,
                                                 tmp_path, capsys):
    def mutate(m):
        m["proxy"][0].update(lambdas=lambdas, betas=betas)

    path = _write_variant(tmp_path / "big.yaml", "ship", mutate)
    code = main(["check", path, "--json"])
    assert code == (EXIT_OK if verdict == "pass" else EXIT_CHECK)

    def reject(token):
        raise ValueError(f"not strict JSON: {token}")

    doc = json.loads(capsys.readouterr().out, parse_constant=reject)
    budget = next(i for i in doc if i["condition"] == "budget")
    assert budget["verdict"] == verdict
    assert budget["data"]["bound"] == "inf"


def test_check_unknown_name_is_usage_error(capsys):
    assert main(["check", "no_such_scenario"]) == EXIT_USAGE
    assert "no scenario file or built-in" in capsys.readouterr().err


def test_a_directory_does_not_shadow_a_builtin(tmp_path, monkeypatch,
                                               capsys):
    # a path wins over a built-in name only when it is a file
    monkeypatch.chdir(tmp_path)
    (tmp_path / "ship").mkdir()
    (tmp_path / "nowhere").mkdir()
    assert main(["check", "ship"]) == EXIT_OK
    assert capsys.readouterr().out.endswith("result: pass\n")
    assert main(["check", "nowhere"]) == EXIT_USAGE
    assert capsys.readouterr().err == \
        "error: no scenario file or built-in named 'nowhere'\n"


def test_check_too_deep_to_build_is_usage_error(tmp_path, monkeypatch,
                                                capsys):
    # a sum one tree level deeper per term, loaded under a raised
    # recursion limit, overflows the stack in the barrier build
    def mutate(m):
        m["proxy"][0]["h"] += " + 0.0001*sin(x)" * 1500
    path = _write_variant(tmp_path / "deep.yaml", "ship", mutate)
    limit = sys.getrecursionlimit()
    sys.setrecursionlimit(10 * limit)
    try:
        spec = scenario_mod.load_scenario(path)
    finally:
        sys.setrecursionlimit(limit)
    monkeypatch.setattr(cli_mod, "_load_spec", lambda target: spec)
    assert main(["check", path]) == EXIT_USAGE
    assert capsys.readouterr().err == \
        "error: a scenario expression nests too deeply to build\n"


# ship barriers whose feasibility checks raise: a division by zero at
# x0 = 0, and a sqrt that leaves its domain in the check box
UNEVALUABLE_H = {
    "division": ("pi^2/81 - x^2 + 0.001/(x - 0)",
                 "DomainError: division by zero in '0.001 / (x - 0.0)'"),
    "domain": ("sqrt(x) - 1",
               "DomainError: sqrt of a negative value in 'sqrt(x)'"),
}


@pytest.mark.parametrize("command", [["check"], ["run"], ["run", "--force"]],
                         ids=["check", "run", "run-force"])
@pytest.mark.parametrize("kind", sorted(UNEVALUABLE_H))
def test_check_that_cannot_be_evaluated_is_an_input_error(kind, command,
                                                          tmp_path, capsys):
    h, raw = UNEVALUABLE_H[kind]
    path = _write_variant(tmp_path / f"{kind}.yaml", "ship",
                          lambda m: m["proxy"][0].update(h=h))
    out_csv = tmp_path / "trace.csv"
    argv = [command[0], path, *command[1:]]
    if command[0] == "run":
        argv += ["--out", str(out_csv)]
    assert main(argv) == EXIT_USAGE
    captured = capsys.readouterr()
    assert captured.out == ""
    assert captured.err == \
        f"error: proxy[0]: feasibility checks cannot be evaluated: {raw}\n"
    assert not out_csv.exists()


def test_batch_reports_a_check_that_cannot_be_evaluated(tmp_path, capsys):
    batch = tmp_path / "batch"
    batch.mkdir()
    for kind, (h, _) in UNEVALUABLE_H.items():
        # a name each, as two files that write one trace path are refused
        _write_variant(batch / f"{kind}.yaml", "ship",
                       lambda m: (m.update(name=f"ship_{kind}"),
                                  m["proxy"][0].update(h=h)))
    out_dir = tmp_path / "results"
    code = main(["run", "--batch", str(batch), "--force",
                 "--out", str(out_dir)])
    assert code == EXIT_USAGE
    doc = json.loads(capsys.readouterr().out)
    assert [(item["verdict"], item["reason"]) for item in doc] == [
        ("ERROR", "proxy[0]: feasibility checks cannot be evaluated: "
                  + UNEVALUABLE_H[kind][1]) for kind in sorted(UNEVALUABLE_H)]
    assert os.listdir(out_dir) == []


# electromech's nominal law has 83 nodes, its observer-backstepping law 165
SMALL_NODE_CAP = 100
TOO_LARGE = "observer-backstepping law exceeded 100 nodes"


@pytest.mark.parametrize("command", [["check"], ["run"], ["run", "--force"]],
                         ids=["check", "run", "run-force"])
def test_a_controller_past_the_node_cap_is_an_input_error(command, tmp_path,
                                                          monkeypatch,
                                                          capsys):
    monkeypatch.setattr(controllers_mod, "NODE_CAP", SMALL_NODE_CAP)
    out_csv = tmp_path / "trace.csv"
    argv = [command[0], "electromech", *command[1:]]
    if command[0] == "run":
        argv += ["--out", str(out_csv)]
    assert main(argv) == EXIT_USAGE
    assert capsys.readouterr() == ("", f"error: {TOO_LARGE}\n")
    assert not out_csv.exists()


def test_batch_reports_a_controller_past_the_node_cap(tmp_path, monkeypatch,
                                                      capsys):
    # the pool's workers fork from this process, the lowered cap included
    monkeypatch.setattr(controllers_mod, "NODE_CAP", SMALL_NODE_CAP)
    batch = tmp_path / "batch"
    batch.mkdir()
    _write_variant(batch / "em.yaml", "electromech", lambda m: None)
    code = main(["run", "--batch", str(batch), "--out", str(tmp_path)])
    assert code == EXIT_USAGE
    doc = json.loads(capsys.readouterr().out)
    assert [(item["verdict"], item["reason"]) for item in doc] == [
        ("ERROR", TOO_LARGE)]


# ═══════════════════════════════════════════════════════════════════
# 3. run
# ═══════════════════════════════════════════════════════════════════

def test_run_writes_trace_and_summary(tmp_path, capsys):
    out_csv = tmp_path / "em.csv"
    code = main(["run", "electromech", "--horizon", "1",
                 "--out", str(out_csv)])
    assert code == EXIT_OK
    summary = json.loads(capsys.readouterr().out)
    assert summary["scenario"] == "electromech"
    assert summary["controller"] == "dob_backstepping"
    assert summary["verdict"] == "SAFE"
    assert summary["steps"] == 1000
    assert summary["max_e_over_rho"] < 1.0
    assert summary["min_h"] > 0.0
    assert summary["trace"] == str(out_csv)
    assert out_csv.exists()
    header = out_csv.read_text().splitlines()[0]
    assert header.startswith("t,x,")


def test_run_controller_override(tmp_path, capsys):
    code = main(["run", "electromech", "--controller", "ppc",
                 "--horizon", "1", "--out", str(tmp_path / "ppc.csv")])
    assert code == EXIT_OK
    summary = json.loads(capsys.readouterr().out)
    assert summary["controller"] == "ppc"
    assert summary["verdict"] == "SAFE"


def test_run_default_output_name(tmp_path, capsys, monkeypatch):
    monkeypatch.chdir(tmp_path)
    assert main(["run", "ship", "--horizon", "1"]) == EXIT_OK
    summary = json.loads(capsys.readouterr().out)
    assert summary["trace"] == "ship_nussbaum.csv"
    assert (tmp_path / "ship_nussbaum.csv").exists()


def test_run_aborted_keeps_partial_trace(tmp_path, capsys):
    path = _write_variant(
        tmp_path / "stall.yaml", "ship",
        lambda m: (m["controllers"]["nussbaum"]["initial"].update(zeta=0.0),
                   m.update(name="stall", horizon=5.0)))
    out_csv = tmp_path / "stall.csv"
    assert main(["run", path, "--out", str(out_csv)]) == EXIT_ABORTED
    summary = json.loads(capsys.readouterr().out)
    assert summary["verdict"] == "ABORTED"
    assert "BarrierBreach" in summary["reason"]
    assert out_csv.exists()
    # header plus the t=0 row plus one row per completed step
    assert len(out_csv.read_text().splitlines()) == summary["steps"] + 2


def test_run_domain_error_aborts_with_partial_trace(tmp_path, capsys):
    # log(1.5 - t) leaves its domain at t = 1.5: the run must end ABORTED
    # with the trace up to there and a reason naming the expression, not
    # crash on the raw ValueError of the compiled code
    path = _write_variant(
        tmp_path / "log.yaml", "electromech",
        lambda m: m["plant"].update(disturbances=["log(1.5 - t)"] * 2))
    out_csv = tmp_path / "log.csv"
    code = main(["run", path, "--controller", "ppc", "--horizon", "2",
                 "--out", str(out_csv)])
    summary = json.loads(capsys.readouterr().out)
    assert code == EXIT_ABORTED
    assert summary["verdict"] == "ABORTED"
    assert summary["steps"] == 1499
    assert "at t=1.5" in summary["reason"]
    assert "plant.disturbances[0]" in summary["reason"]
    assert "'log(1.5 - t)'" in summary["reason"]
    assert len(out_csv.read_text().splitlines()) == summary["steps"] + 2


def test_run_check_failure_blocks_without_force(bad_init_ship, tmp_path,
                                               capsys):
    assert main(["run", bad_init_ship,
                 "--out", str(tmp_path / "no.csv")]) == EXIT_CHECK
    err = capsys.readouterr().err
    assert "initial positivity" in err
    assert "--force" in err
    assert not (tmp_path / "no.csv").exists()


def test_run_force_overrides_check_failure(bad_init_ship, tmp_path, capsys):
    out_csv = tmp_path / "forced.csv"
    code = main(["run", bad_init_ship, "--force", "--out", str(out_csv)])
    summary = json.loads(capsys.readouterr().out)
    assert code in (EXIT_OK, EXIT_UNSAFE, EXIT_ABORTED)
    assert out_csv.exists()
    assert summary["verdict"] in ("SAFE", "UNSAFE", "ABORTED")


def test_run_dt_and_horizon_overrides(tmp_path, capsys):
    code = main(["run", "ship", "--dt", "0.02", "--horizon", "2",
                 "--out", str(tmp_path / "s.csv")])
    assert code == EXIT_OK
    summary = json.loads(capsys.readouterr().out)
    assert summary["steps"] == 100


def test_run_into_a_missing_directory_is_an_error(tmp_path, capsys):
    out_csv = tmp_path / "missing" / "x.csv"
    code = main(["run", "ship", "--horizon", "1", "--out", str(out_csv)])
    captured = capsys.readouterr()
    assert code == EXIT_USAGE
    assert captured.err.startswith("error: ")
    assert "No such file or directory" in captured.err
    assert captured.out == ""
    assert not out_csv.exists() and not out_csv.parent.exists()


def test_run_past_the_step_cap_is_an_error(tmp_path, capsys):
    out_csv = tmp_path / "x.csv"
    code = main(["run", "ship", "--horizon", "30000", "--out", str(out_csv)])
    captured = capsys.readouterr()
    assert code == EXIT_USAGE
    assert captured.err == ("error: horizon/dt = 3e+06 steps exceeds the cap "
                            "of 2,000,000 steps per run\n")
    assert captured.out == ""
    assert not out_csv.exists()


@pytest.mark.skipif(not os.path.exists("/dev/full"),
                    reason="needs /dev/full")
def test_run_onto_a_full_device_is_an_error(capsys):
    code = main(["run", "ship", "--horizon", "1", "--out", "/dev/full"])
    captured = capsys.readouterr()
    assert code == EXIT_USAGE
    assert captured.err.startswith("error: ")
    assert "No space left on device" in captured.err
    assert captured.out == ""


# ═══════════════════════════════════════════════════════════════════
# 4. plot
# ═══════════════════════════════════════════════════════════════════

@pytest.fixture(scope="module")
def ship_csv(tmp_path_factory):
    path = tmp_path_factory.mktemp("trace") / "ship.csv"
    code = main(["run", "ship", "--horizon", "5", "--out", str(path)])
    assert code == EXIT_OK
    return str(path)


def test_plot_writes_panels(ship_csv, tmp_path, capsys):
    base = tmp_path / "panels"
    code = main(["plot", ship_csv, "--scenario", "ship",
                 "--out", str(base)])
    assert code == EXIT_OK
    out = capsys.readouterr().out.splitlines()
    assert len(out) == 4
    for suffix in ("state", "funnel", "input", "barrier"):
        assert (tmp_path / f"panels_{suffix}.svg").exists()


def test_plot_defaults_to_trace_stem(ship_csv, capsys):
    code = main(["plot", ship_csv])
    assert code == EXIT_OK
    base = ship_csv[:-4]
    for suffix in ("state", "funnel", "input", "barrier"):
        assert os.path.exists(f"{base}_{suffix}.svg")


def test_plot_parses_only_the_plotted_columns(ship_csv, tmp_path, capsys,
                                              monkeypatch):
    # the panels are those of the fully parsed trace, byte for byte
    want = tmp_path / "full"
    plot_trace(SimTrace.from_csv(ship_csv), want,
               spec=scenario_mod.load_builtin("ship"))
    parsed = []
    from_csv = SimTrace.from_csv.__func__

    def recording(cls, path, *args, **kwargs):
        trace = from_csv(cls, path, *args, **kwargs)
        parsed.append(trace)
        return trace

    monkeypatch.setattr(SimTrace, "from_csv", classmethod(recording))
    assert main(["plot", ship_csv, "--scenario", "ship",
                 "--out", str(tmp_path / "part")]) == EXIT_OK
    capsys.readouterr()
    for suffix in ("state", "funnel", "input", "barrier"):
        assert (tmp_path / f"part_{suffix}.svg").read_bytes() == \
            (tmp_path / f"full_{suffix}.svg").read_bytes()
    (trace,) = parsed
    kept = {c for c in trace.columns if trace.column(c)[0] is not None}
    assert kept == {"t", "x", "x_d", "e", "rho", "u", "h1"}


def test_plot_missing_column_lists_the_header(ship_csv, tmp_path, capsys):
    with open(ship_csv) as fh:
        lines = fh.read().splitlines()
    header = lines[0].split(",")
    drop = header.index("x_d")
    short = tmp_path / "short.csv"
    short.write_text("".join(
        ",".join(f for i, f in enumerate(line.split(",")) if i != drop) + "\n"
        for line in lines))
    assert main(["plot", str(short), "--out", str(tmp_path / "p")]) == \
        EXIT_USAGE
    kept = [c for c in header if c != "x_d"]
    assert capsys.readouterr().err == (
        "error: trace is missing column 'x_d' (has: "
        + ", ".join(kept) + ")\n")


def test_plot_bad_number_names_its_line(ship_csv, tmp_path, capsys):
    # a plotted field that is no number is named by file and line, as a
    # line with the wrong field count is
    with open(ship_csv) as fh:
        lines = fh.read().splitlines()
    fields = lines[2].split(",")
    fields[lines[0].split(",").index("x")] = "abc"
    lines[2] = ",".join(fields)
    bad = tmp_path / "bad.csv"
    bad.write_text("\n".join(lines) + "\n")
    assert main(["plot", str(bad), "--out", str(tmp_path / "p")]) == \
        EXIT_USAGE
    assert capsys.readouterr() == (
        "", f"error: {bad}:3: could not convert string to float: 'abc'\n")
    assert not list(tmp_path.glob("p*.svg"))


@pytest.mark.parametrize("value", ["inf", "nan"])
@pytest.mark.parametrize("row", [1, 2])
def test_plot_of_a_nonfinite_state_names_its_panel(ship_csv, tmp_path,
                                                   capsys, value, row):
    # the safe bounds are sought on a finite axis before the panel
    # rejects the series: no traceback, the panel named
    with open(ship_csv) as fh:
        lines = fh.read().splitlines()
    fields = lines[row].split(",")
    fields[lines[0].split(",").index("x")] = value
    lines[row] = ",".join(fields)
    bad = tmp_path / "bad.csv"
    bad.write_text("\n".join(lines) + "\n")
    assert main(["plot", str(bad), "--scenario", "ship",
                 "--out", str(tmp_path / "p")]) == EXIT_USAGE
    assert capsys.readouterr() == (
        "", "error: panel 'head state and reference': series contain "
            "non-finite values\n")


def test_plot_missing_file_is_usage_error(capsys):
    assert main(["plot", "/no/such/trace.csv"]) == EXIT_USAGE
    assert "error:" in capsys.readouterr().err


def test_plot_missing_file_keeps_its_error_text(capsys):
    assert main(["plot", "/no/such/trace.csv"]) == EXIT_USAGE
    assert capsys.readouterr() == (
        "", "error: [Errno 2] No such file or directory: "
            "'/no/such/trace.csv'\n")


@pytest.mark.parametrize("lo,hi", [(-1e308, 1e308), (0.0, 5e-324),
                                   (1e16, 1e16 + 4)])
def test_plot_draws_an_input_at_the_double_limits(tmp_path, lo, hi):
    # u spanning more than the largest double, a subnormal, or less
    # than a few ulps: four panels, exit 0, finite coordinates; in a
    # child with a time limit and capped memory, so a ladder that never
    # ends fails here instead of hanging the tests
    path = tmp_path / "trace.csv"
    rows = [(k * 0.1, 0.01 * k, 0.0, 0.01 * k, 0.5, (lo, hi)[k % 2],
             0.3 - 0.01 * k) for k in range(11)]
    path.write_text("t,x,x_d,e,rho,u,h1\n" + "".join(
        ",".join(repr(v) for v in row) + "\n" for row in rows))

    def cap():
        resource.setrlimit(resource.RLIMIT_AS, (512 << 20, 512 << 20))

    done = subprocess.run(
        [sys.executable, "-m", "proxysafe.cli", "plot", str(path), "--out",
         str(tmp_path / "p")], capture_output=True, text=True, timeout=20,
        preexec_fn=cap, env=dict(os.environ, PYTHONPATH=SRC))
    assert (done.returncode, done.stderr) == (EXIT_OK, "")
    assert len(done.stdout.splitlines()) == 4
    for suffix in ("state", "funnel", "input", "barrier"):
        text = (tmp_path / f"p_{suffix}.svg").read_text()
        assert "inf" not in text and "nan" not in text


def test_plot_empty_trace_writes_nothing(ship_csv, tmp_path, capsys):
    header_only = tmp_path / "empty.csv"
    with open(ship_csv) as fh:
        header_only.write_text(fh.readline())
    assert main(["plot", str(header_only),
                 "--out", str(tmp_path / "none")]) == EXIT_USAGE
    assert "no rows" in capsys.readouterr().err
    assert not list(tmp_path.glob("none*.svg"))


# ═══════════════════════════════════════════════════════════════════
# 5. batch
# ═══════════════════════════════════════════════════════════════════

def test_batch_runs_directory_concurrently(tmp_path, capsys):
    batch = tmp_path / "batch"
    batch.mkdir()
    _write_variant(batch / "a.yaml", "electromech",
                   lambda m: m.update(name="em_a", horizon=0.5))
    _write_variant(batch / "b.yaml", "ship",
                   lambda m: m.update(name="ship_b", horizon=1.0))
    out_dir = tmp_path / "results"
    code = main(["run", "--batch", str(batch), "--out", str(out_dir)])
    assert code == EXIT_OK
    doc = json.loads(capsys.readouterr().out)
    assert [item["scenario"] for item in doc] == ["em_a", "ship_b"]
    assert all(item["verdict"] == "SAFE" for item in doc)
    assert (out_dir / "em_a_dob_backstepping.csv").exists()
    assert (out_dir / "ship_b_nussbaum.csv").exists()


def test_batch_worst_exit_code_wins(tmp_path, capsys):
    batch = tmp_path / "batch"
    batch.mkdir()
    _write_variant(batch / "good.yaml", "ship",
                   lambda m: m.update(name="good", horizon=1.0))
    _write_variant(
        batch / "stall.yaml", "ship",
        lambda m: (m["controllers"]["nussbaum"]["initial"].update(zeta=0.0),
                   m.update(name="stall", horizon=5.0)))
    code = main(["run", "--batch", str(batch),
                 "--out", str(tmp_path / "results")])
    assert code == EXIT_ABORTED
    doc = json.loads(capsys.readouterr().out)
    verdicts = {item["scenario"]: item["verdict"] for item in doc}
    assert verdicts == {"good": "SAFE", "stall": "ABORTED"}


def test_batch_reports_broken_files(tmp_path, capsys):
    batch = tmp_path / "batch"
    batch.mkdir()
    (batch / "broken.yaml").write_text("not: [a, scenario\n")
    code = main(["run", "--batch", str(batch),
                 "--out", str(tmp_path / "results")])
    assert code == EXIT_USAGE
    doc = json.loads(capsys.readouterr().out)
    assert doc[0]["verdict"] == "ERROR"


def test_batch_writes_nothing_outside_its_out_directory(tmp_path, capsys):
    # a scenario name that is a path, relative or absolute, is an input
    # error: no trace is written outside --out, and the others still run
    for sub in ("batch", "work/out", "work/victim", "abs"):
        (tmp_path / sub).mkdir(parents=True)
    names = {"up": "../victim/ship", "abs": str(tmp_path / "abs" / "ship"),
             "good": "good"}
    for stem, name in names.items():
        _write_variant(tmp_path / "batch" / f"{stem}.yaml", "ship",
                       lambda m: m.update(name=name, horizon=0.5))
    before = sorted(tmp_path.rglob("*"))
    code = main(["run", "--batch", str(tmp_path / "batch"),
                 "--out", str(tmp_path / "work" / "out")])
    assert sorted(tmp_path.rglob("*")) == sorted(
        before + [tmp_path / "work" / "out" / "good_nussbaum.csv"])
    assert code == EXIT_USAGE
    doc = json.loads(capsys.readouterr().out)
    assert [(item["verdict"], item.get("reason", "")[:5]) for item in doc] \
        == [("ERROR", "name:"), ("SAFE", ""), ("ERROR", "name:")]


def test_batch_reports_a_file_too_deep_to_build(tmp_path):
    """ship with 480 extra terms in its barrier loads, then overflows the
    stack in the barrier build inside the worker: that file gets its own
    ERROR entry and the other one its summary.  The window of term counts
    that load but fail to build is about 30 wide and moves with the stack
    depth of the caller, so this runs the command in a fresh interpreter,
    as a user would."""
    batch = tmp_path / "batch"
    batch.mkdir()
    _write_variant(batch / "a.yaml", "ship", lambda m: None)
    _write_variant(
        batch / "b.yaml", "ship",
        lambda m: m.update(name="deep") or m["proxy"][0].update(
            h=m["proxy"][0]["h"] + " + 0.0001*sin(x)" * 480))
    code = ("import sys; from proxysafe.cli import main; "
            "sys.exit(main(sys.argv[1:]))")
    done = subprocess.run(
        [sys.executable, "-c", code, "run", "--batch", str(batch),
         "--horizon", "1", "--out", str(tmp_path / "results")],
        capture_output=True, text=True, timeout=120,
        env=dict(os.environ, PYTHONPATH=SRC))
    assert done.returncode == EXIT_USAGE, done.stderr[-2000:]
    doc = json.loads(done.stdout)
    assert [item["verdict"] for item in doc] == ["SAFE", "ERROR"]
    assert doc[1]["reason"] == \
        "a scenario expression nests too deeply to build"


def test_batch_refuses_two_files_that_write_one_trace(tmp_path, capsys):
    # one name and controller give both runs one trace path: the batch is
    # an input error before any run, and no file is written; a file that
    # does not load, read first, is left to its worker
    batch = tmp_path / "batch"
    batch.mkdir()
    for stem, horizon in (("a", 3.0), ("b", 2.0)):
        _write_variant(batch / f"{stem}.yaml", "ship",
                       lambda m: m.update(horizon=horizon))
    (batch / "0broken.yaml").write_text("not: [a, scenario\n")
    out_dir = tmp_path / "results"
    code = main(["run", "--batch", str(batch), "--out", str(out_dir)])
    assert code == EXIT_USAGE
    trace = os.path.join(str(out_dir), "ship_nussbaum.csv")
    assert capsys.readouterr() == ("", f"error: {batch / 'a.yaml'} and "
                                   f"{batch / 'b.yaml'} would both write "
                                   f"the trace {trace}\n")
    assert not out_dir.exists()


def test_batch_empty_directory_is_usage_error(tmp_path, capsys):
    empty = tmp_path / "empty"
    empty.mkdir()
    assert main(["run", "--batch", str(empty)]) == EXIT_USAGE
    assert "no scenario files" in capsys.readouterr().err


# ═══════════════════════════════════════════════════════════════════
# 6. usage errors
# ═══════════════════════════════════════════════════════════════════

@pytest.mark.parametrize("argv", [
    [],
    ["frobnicate"],
    ["run"],
    ["run", "ship", "--dt", "-1"],
    ["run", "ship", "--dt", "abc"],
    ["run", "ship", "--batch", "somewhere"],
    ["check"],
])
def test_usage_errors_exit_one(argv, capsys):
    assert main(argv) == EXIT_USAGE
    capsys.readouterr()


def test_help_exits_zero(capsys):
    assert main(["--help"]) == EXIT_OK
    assert "check" in capsys.readouterr().out


NOT_YAML_ERROR = """\
error: not valid YAML: while parsing a flow sequence
  in "<unicode string>", line 1, column 6:
    not: [a, scenario
         ^
expected ',' or ']', but got '<stream end>'
  in "<unicode string>", line 2, column 1:
    \n    ^
"""


@pytest.mark.parametrize("libyaml", [True, False],
                         ids=["libyaml", "pure-python"])
def test_a_file_that_is_not_yaml_keeps_its_error_text(libyaml, tmp_path,
                                                      capsys, monkeypatch):
    if libyaml and not hasattr(yaml, "CSafeLoader"):
        pytest.skip("PyYAML was built without libyaml")
    if not libyaml:
        monkeypatch.delattr(yaml, "CSafeLoader", raising=False)
    path = tmp_path / "broken.yaml"
    path.write_text("not: [a, scenario\n")
    assert main(["check", str(path)]) == EXIT_USAGE
    assert capsys.readouterr().err == NOT_YAML_ERROR


def loaded_modules(argv, cwd):
    """The modules `python -m proxysafe.cli argv` imports, as -X importtime
    names them."""
    done = subprocess.run(
        [sys.executable, "-X", "importtime", "-m", "proxysafe.cli", *argv],
        capture_output=True, text=True, cwd=cwd,
        env=dict(os.environ, PYTHONPATH=SRC), timeout=120)
    assert done.returncode == EXIT_OK, done.stderr
    return {line.rsplit("|", 1)[1].strip()
            for line in done.stderr.splitlines()
            if line.startswith("import time:")}


def test_a_command_loads_only_what_it_runs(tmp_path):
    # no command builds its value classes with `dataclasses`, which
    # loads `inspect`: both cost a fresh process several milliseconds
    machinery = {"dataclasses", "inspect"}
    checked = loaded_modules(["check", "ship"], tmp_path)
    assert "proxysafe.sim" in checked
    assert not checked & {"proxysafe.stream", "proxysafe.loop",
                          "proxysafe.plots", "json", "proxysafe.traceread",
                          *machinery}
    ran = loaded_modules(["run", "ship", "--horizon", "0.05",
                          "--out", "x.csv"], tmp_path)
    assert {"proxysafe.stream", "proxysafe.loop"} <= ran
    assert not ran & {"proxysafe.plots", "proxysafe.traceread", *machinery}
    plotted = loaded_modules(["plot", "x.csv", "--scenario", "ship"],
                             tmp_path)
    assert "proxysafe.plots" in plotted
    assert not plotted & {"proxysafe.stream", "proxysafe.loop", *machinery}


def test_the_script_and_python_m_call_one_entry():
    # `proxysafe = "proxysafe.cli:entry"` and `sys.exit(entry())`
    root = os.path.dirname(SRC)
    with open(os.path.join(root, "pyproject.toml"), "rb") as fh:
        target = tomllib.load(fh)["project"]["scripts"]["proxysafe"]
    module, func = target.split(":")
    assert module == "proxysafe.cli"
    with open(cli_mod.__file__, encoding="utf-8") as fh:
        tree = ast.parse(fh.read())
    [block] = [node for node in tree.body if isinstance(node, ast.If)
               and ast.unparse(node.test) == "__name__ == '__main__'"]
    assert ast.unparse(block) == \
        f"if __name__ == '__main__':\n    sys.exit({func}())"
    assert callable(getattr(cli_mod, func))


def test_python_m_freezes_the_heap_before_the_exit(tmp_path):
    # the entry freezes the heap once main returns, so the collections
    # of the interpreter's shutdown skip every object alive then
    code = ("import gc, runpy, sys\n"
            "sys.argv = ['proxysafe', 'check', 'ship']\n"
            "try:\n"
            "    runpy.run_module('proxysafe.cli', run_name='__main__')\n"
            "except SystemExit as exc:\n"
            "    print('exit', exc.code, gc.get_freeze_count() > 0)\n")
    done = subprocess.run([sys.executable, "-c", code], capture_output=True,
                          text=True, cwd=tmp_path, timeout=120,
                          env=dict(os.environ, PYTHONPATH=SRC))
    assert done.returncode == 0, done.stderr
    assert done.stdout.splitlines()[-1] == "exit 0 True"


def test_main_in_process_leaves_the_collector_as_it_was(capsys):
    before = gc.isenabled(), gc.get_freeze_count()
    assert main(["check", "ship"]) == EXIT_OK
    assert main(["scenarios"]) == EXIT_OK
    assert (gc.isenabled(), gc.get_freeze_count()) == before


@pytest.mark.parametrize("argv, want", [
    (["scenarios"], EXIT_OK),
    (["check"], EXIT_USAGE),
    (["check", "ship_bad_init.yaml"], EXIT_CHECK),
    (["run", "outside.yaml", "--force", "--out", "t.csv"], EXIT_UNSAFE),
    (["run", "stall.yaml", "--out", "t.csv"], EXIT_ABORTED),
], ids=["ok", "usage", "check", "unsafe", "aborted"])
def test_python_m_exits_with_the_command_code(argv, want, bad_init_ship,
                                              tmp_path):
    # a start well outside the barrier ends UNSAFE; a Nussbaum gain
    # started at zero stalls and ABORTS
    _write_variant(tmp_path / "outside.yaml", "ship",
                   lambda m: m.update(initial={"x": [0.5], "z": [0.0]},
                                      horizon=1.0))
    _write_variant(
        tmp_path / "stall.yaml", "ship",
        lambda m: (m["controllers"]["nussbaum"]["initial"].update(zeta=0.0),
                   m.update(name="stall", horizon=5.0)))
    done = subprocess.run([sys.executable, "-m", "proxysafe.cli", *argv],
                          capture_output=True, text=True, cwd=tmp_path,
                          env=dict(os.environ, PYTHONPATH=SRC), timeout=120)
    assert done.returncode == want, done.stderr


def test_import_leaves_the_process_pool_out():
    # only --batch needs concurrent.futures.process
    code = ("import sys, proxysafe.cli; "
            "print('concurrent.futures.process' in sys.modules)")
    done = subprocess.run([sys.executable, "-c", code], capture_output=True,
                          text=True, env=dict(os.environ, PYTHONPATH=SRC),
                          timeout=60)
    assert done.returncode == 0, done.stderr
    assert done.stdout.strip() == "False"


# ═══════════════════════════════════════════════════════════════════
# 7. pinned check output
# ═══════════════════════════════════════════════════════════════════

# (scenario, output format) -> (exit code, sha256 of stdout)
PINNED_CHECK = {
    ("ship", "text"): (EXIT_OK,
        "5e9356593edd0bd7b196ef2417499f0d6c48553a96c5b1b827f70a3b8d84cc61"),
    ("ship", "json"): (EXIT_OK,
        "264a94980bff1d5a8161f437f1d67fc6185cc3a0841be4bfd8228208b7cb60b1"),
    ("electromech", "text"): (EXIT_OK,
        "65c1ab37bb1d5638faa757d0a3dbd6de67444a434fccb99beff89dd65cefa2f3"),
    ("electromech", "json"): (EXIT_OK,
        "fc301d039d5c9b3c6339140ed34f33aa8ec5a985ce3adeb1513e3fdf624c9390"),
    ("chain", "text"): (EXIT_OK,
        "51fad08621e8e9eea741a83923dc683bf17107fbef6a176aef59d462728271b1"),
    ("chain", "json"): (EXIT_OK,
        "d8c49a92a4d157d5d5f29e500049b477ec2736b1386eef71757f96ec80e28028"),
}


@pytest.mark.parametrize("name, fmt", sorted(PINNED_CHECK))
def test_check_output_is_pinned(name, fmt, tmp_path, capsys):
    """`check` prints byte for byte what it printed when the
    vanishing-gradient condition became an interval proof.

    The digests were first taken at commit eddc663, before the numeric
    interfaces of the barrier layer became scalar, and taken again only
    when that condition's verdicts went from sampled to proven (its
    detail and data changed; the other lines did not), so a refactor of
    the check path cannot change a byte of the output unnoticed.
    Regenerate them only for a deliberate change of the output,
    recorded as such.
    """
    target = name
    if name == "chain":
        target = str(tmp_path / "chain.yaml")
        scenario_mod.save_scenario(chain_scenario(), target)
    code = main(["check", target] + (["--json"] if fmt == "json" else []))
    out = capsys.readouterr().out
    assert (code, hashlib.sha256(out.encode()).hexdigest()) == \
        PINNED_CHECK[name, fmt], out
