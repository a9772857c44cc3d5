"""SVG panel rendering tests.

Coverage:
  1. axis tick ladder: round steps, in-range, ordered; the same ticks
     as the plain ladder (kept here as the reference) for ordinary
     ranges; over the whole double range, subnormals included, a short
     ladder of finite distinct ticks and a panel with finite coordinates;
     a span below one ulp's ladder step, run in a capped child
  2. series construction and length validation
  3. render_panel output: well-formed XML, titles, dash patterns,
     legend dedup, point thinning; series on one shared array and on
     equal distinct arrays give the same bytes
  4. safe-set boundary roots isolated by `expr.prove`: the built-in
     scenarios, a narrow unsafe interval, ship over a wide state range,
     a barrier undefined on part of the axis, a multiple root, a
     property against a dense numpy oracle, and the undecided stretches
     drawn at a cell budget
  5. plot_trace end to end: four panels, degree conversion, derived
     series at 8 bytes a value, empty trace and missing column errors,
     the same bytes from a trace read on two cores and one read serially
"""

import gc
import itertools
import math
import operator
import os
import pathlib
import resource
import subprocess
import sys
import tracemalloc
import types
import xml.etree.ElementTree as ET
from array import array

import numpy as np
import pytest
from hypothesis import assume, given, settings
from hypothesis import strategies as st

from proxysafe import expr as expr_mod
from proxysafe import plots as plots_mod
from proxysafe import scenario as scenario_mod
from proxysafe import sim as sim_mod
from proxysafe import traceread
from proxysafe.expr import evaluate, parse
from proxysafe.plots import (MARGIN_L, MARGIN_R, POINT_BUDGET, WIDTH,
                             PlotError, Series, _pad, _roots, _safe_bounds,
                             _ticks, plot_trace, plotted_columns,
                             render_panel)

SRC = os.path.join(os.path.dirname(os.path.dirname(os.path.abspath(__file__))),
                   "src")
MEMORY_CAP = 512 << 20      # bytes of address space for a capped child


def _svg(path):
    root = ET.parse(path).getroot()
    polys = [el for el in root.iter() if el.tag.endswith("polyline")]
    texts = [el.text for el in root.iter()
             if el.tag.endswith("text") and el.text]
    return root, polys, texts


# ═══════════════════════════════════════════════════════════════════
# 1. tick ladder
# ═══════════════════════════════════════════════════════════════════

@pytest.mark.parametrize("lo,hi", [
    (0.0, 10.0), (-1.0, 1.0), (0.0, 0.02), (-0.35, 0.35),
    (3.0, 603.0), (1e-6, 5e-6), (-1234.0, 987.0),
])
def test_ticks_cover_range_with_round_steps(lo, hi):
    ticks = _ticks(lo, hi)
    assert 2 <= len(ticks) <= 7
    assert all(lo - 1e-9 <= t <= hi + 1e-9 * (hi - lo) for t in ticks)
    assert ticks == sorted(ticks)
    # uniform spacing from the 1-2-5 ladder
    steps = {round(b - a, 12) for a, b in zip(ticks, ticks[1:])}
    assert len(steps) == 1
    step = steps.pop()
    mantissa = step / 10.0 ** math.floor(math.log10(step))
    assert min(abs(mantissa - m) for m in (1.0, 2.0, 5.0, 10.0)) < 1e-9


def plain_ticks(lo, hi, target=6):
    """The ladder as it was before ranges near the double limits were
    handled: the reference for ordinary ranges."""
    span = hi - lo
    raw = span / max(target - 1, 1)
    mag = 10.0 ** math.floor(math.log10(raw))
    for mult in (1.0, 2.0, 5.0, 10.0):
        step = mult * mag
        if span / step <= target - 1:
            break
    ticks = []
    value = math.ceil(lo / step) * step
    while value <= hi + 1e-9 * span:
        ticks.append(0.0 if abs(value) < 1e-12 * span else value)
        value += step
    return ticks


def plain_pad(lo, hi):
    if lo == hi:
        slack = abs(lo) * 0.1 or 1.0
        return lo - slack, hi + slack
    slack = (hi - lo) * 0.05
    return lo - slack, hi + slack


ORDINARY = st.floats(-1e12, 1e12)
FINITE = st.floats(allow_nan=False, allow_infinity=False)   # subnormals too


@settings(max_examples=300, deadline=None, derandomize=True)
@given(ORDINARY, ORDINARY)
def test_ordinary_ranges_keep_their_ticks(a, b):
    # ordinary: a span of at least 1e-290 and 1e-9 of the magnitude
    lo, hi = sorted((a, b))
    if abs(lo) >= 1e-290 or lo == 0.0:
        assert _pad(lo, lo) == plain_pad(lo, lo)
        assert _ticks(*_pad(lo, lo)) == plain_ticks(*plain_pad(lo, lo))
    assume(hi - lo >= max(1e-290, 1e-9 * max(abs(lo), abs(hi))))
    assert _pad(lo, hi) == plain_pad(lo, hi)
    assert _ticks(*_pad(lo, hi)) == plain_ticks(*plain_pad(lo, hi))


@settings(max_examples=300, deadline=None, derandomize=True)
@given(FINITE, FINITE, FINITE, FINITE)
def test_every_finite_range_has_a_short_finite_ladder(tmp_path_factory,
                                                      a, b, c, d):
    lo, hi = sorted((a, b))
    axis = _pad(lo, hi)
    assert all(map(math.isfinite, axis))
    assert axis[0] <= lo <= hi <= axis[1]
    ticks = _ticks(*axis)
    assert 2 <= len(ticks) <= 7
    assert all(map(math.isfinite, ticks))
    assert ticks == sorted(set(ticks))
    # a panel over both ranges: every coordinate is finite
    path = tmp_path_factory.mktemp("range") / "panel.svg"
    render_panel(path, "t", "x", "y",
                 [Series("u", sorted((c, d)) * 2, [lo, hi, hi, lo])])
    text = path.read_text()
    assert "inf" not in text and "nan" not in text
    _svg(path)


def capped_python(args, timeout=10.0):
    """`python args` in a child whose address space is capped at
    MEMORY_CAP, so a ladder that never ends fails there within seconds
    instead of hanging the tests."""
    def cap():
        resource.setrlimit(resource.RLIMIT_AS, (MEMORY_CAP, MEMORY_CAP))

    return subprocess.run([sys.executable, *args], capture_output=True,
                          text=True, timeout=timeout, preexec_fn=cap,
                          env=dict(os.environ, PYTHONPATH=SRC))


def test_a_step_below_one_ulp_ends():
    # 1e16 + 1 rounds to 1e16: a step of 1 never moved the ladder on
    done = capped_python(["-c", "from proxysafe.plots import _pad, _ticks; "
                                "print(_ticks(*_pad(1e16, 1e16 + 4)))"])
    assert done.returncode == 0, done.stderr
    ticks = eval(done.stdout)
    assert 2 <= len(ticks) <= 7 and ticks == sorted(set(ticks))


# ═══════════════════════════════════════════════════════════════════
# 2. series validation
# ═══════════════════════════════════════════════════════════════════

def test_series_length_mismatch_rejected():
    with pytest.raises(PlotError, match="2 x values vs 3"):
        Series("bad", [0.0, 1.0], [0.0, 1.0, 2.0])


# ═══════════════════════════════════════════════════════════════════
# 3. render_panel
# ═══════════════════════════════════════════════════════════════════

def test_render_panel_basic_svg(tmp_path):
    path = tmp_path / "panel.svg"
    ts = [i * 0.1 for i in range(101)]
    render_panel(path, "a title", "time", "value",
                 [Series("wave", ts, [math.sin(t) for t in ts]),
                  Series("limit", ts, [1.0] * len(ts), dashed=True)])
    root, polys, texts = _svg(path)
    assert root.tag.endswith("svg")
    assert len(polys) == 2
    assert "a title" in texts and "time" in texts and "value" in texts
    dashes = [p.get("stroke-dasharray") for p in polys]
    assert dashes[0] is None and dashes[1] is not None


def test_render_panel_legend_dedupes_repeated_labels(tmp_path):
    path = tmp_path / "panel.svg"
    render_panel(path, "t", "x", "y",
                 [Series("same", [0, 1], [0, 1]),
                  Series("same", [0, 1], [1, 0]),
                  Series("other", [0, 1], [2, 2])])
    _, polys, texts = _svg(path)
    assert len(polys) == 3
    assert texts.count("same") == 1 and texts.count("other") == 1


def test_render_panel_thins_long_series(tmp_path):
    path = tmp_path / "panel.svg"
    n = 3 * POINT_BUDGET + 1    # the stride does not land on the last
    ts = [i / n for i in range(n + 1)]
    render_panel(path, "t", "x", "y", [Series("long", ts, ts)])
    _, polys, _ = _svg(path)
    points = polys[0].get("points").split()
    assert len(points) <= POINT_BUDGET + 2
    # the final sample survives thinning: it is drawn at the right edge
    last_x = float(points[-1].split(",")[0])
    assert last_x == WIDTH - MARGIN_R
    first_x = float(points[0].split(",")[0])
    assert last_x > first_x


def test_shared_and_distinct_arrays_draw_the_same_bytes(tmp_path):
    # extremes are kept by the id of the values, with the values: one
    # array shared by three series, equal copies, and arrays made after
    # an earlier panel's were dropped, against a dict that still holds
    # that panel's entries, all draw the same bytes
    ts = array("d", [k * 0.01 for k in range(5000)])
    ys = array("d", [math.sin(t) for t in ts])
    zs = array("d", [math.cos(t) for t in ts])

    def panel(name, series, extents=None):
        render_panel(tmp_path / name, "t", "x", "y", series, extents)
        return (tmp_path / name).read_bytes()

    shared = panel("shared.svg", [Series("a", ts, ys), Series("b", ts, zs),
                                  Series("c", ts, ys)])
    copies = panel("copies.svg",
                   [Series(label, array("d", ts), array("d", values))
                    for label, values in (("a", ys), ("b", zs), ("c", ys))])
    assert shared == copies
    extents = {}
    panel("before.svg", [Series("a", array("d", [5.0] * 9),
                                array("d", [-1e3] * 9))], extents)
    gc.collect()
    later = [Series(label, array("d", ts), array("d", values))
             for label, values in (("a", ys), ("b", zs), ("c", ys))]
    assert panel("later.svg", later, extents) == shared


def test_render_panel_flat_series_padded(tmp_path):
    path = tmp_path / "flat.svg"
    render_panel(path, "t", "x", "y", [Series("c", [0, 1, 2], [5.0] * 3)])
    assert os.path.getsize(path) > 0


def test_render_panel_nonfinite_rejected(tmp_path):
    with pytest.raises(PlotError, match="non-finite"):
        render_panel(tmp_path / "bad.svg", "t", "x", "y",
                     [Series("nan", [0, 1], [0.0, math.nan])])


def test_render_panel_nothing_to_draw(tmp_path):
    with pytest.raises(PlotError, match="nothing to draw"):
        render_panel(tmp_path / "none.svg", "t", "x", "y", [])


# ═══════════════════════════════════════════════════════════════════
# 4. safe-set boundary roots
# ═══════════════════════════════════════════════════════════════════

def test_ship_boundary_roots():
    spec = scenario_mod.load_builtin("ship")
    roots, undecided = _safe_bounds(spec, -0.1, 0.1)
    edge = math.pi / 9.0
    assert len(roots) == 2 and undecided == []
    assert abs(roots[0] + edge) < 1e-9
    assert abs(roots[1] - edge) < 1e-9


def test_electromech_boundary_roots():
    spec = scenario_mod.load_builtin("electromech")
    roots, undecided = _safe_bounds(spec, -0.1, 0.1)
    assert len(roots) == 2 and undecided == []
    assert abs(roots[0] + 0.5) < 1e-9
    assert abs(roots[1] - 0.3) < 1e-9


def _spec(h, check_box=None):
    """A scenario of one barrier `h` and the check box, none by default."""
    proxy = types.SimpleNamespace(h=parse(h))
    return types.SimpleNamespace(proxies=[proxy], check_box=check_box)


def test_a_narrow_unsafe_interval_has_both_bounds():
    # unsafe on a stretch 2e-4 wide: 2,048 samples of [-0.6, 0.6] step
    # over it, root isolation does not
    roots, undecided = _safe_bounds(_spec("(x - 0.1234)^2 - 1e-8"), -0.5, 0.5)
    assert undecided == []
    assert roots == pytest.approx([0.1233, 0.1235], abs=1e-12)


def test_ship_bounds_over_a_wide_state_range():
    # a trace whose x reaches 5000 pads the axis to about [-500, 5500]
    roots, undecided = _safe_bounds(scenario_mod.load_builtin("ship"),
                                    -0.1, 5000.0)
    assert undecided == []
    assert roots == pytest.approx([-math.pi / 9.0, math.pi / 9.0], abs=1e-15)


def test_a_barrier_undefined_on_part_of_the_axis_has_its_root():
    # sqrt(x + 0.5) is undefined below -0.5, on the first twelfth of
    # the axis [-0.58, 0.38]: the empty enclosure discharges those cells
    roots, undecided = _safe_bounds(
        _spec("sqrt(x + 0.5) - 0.1", check_box=(-0.5, 0.3)), -0.1, 0.1)
    assert roots == pytest.approx([-0.49], abs=1e-12)
    assert undecided == [] or undecided[0] <= -0.5 <= undecided[1] and \
        undecided[1] - undecided[0] < 0.96 / (WIDTH - MARGIN_L - MARGIN_R)


def test_a_multiple_root_stops_below_a_pixel(monkeypatch):
    # h and dh/dx both vanish at 0, so no enclosure decides the cells
    # around it; they are left undecided a fraction of a pixel wide
    # instead of being halved about 1,075 times down to subnormal widths
    proofs = []

    def spy(rule, lo, hi):
        proofs.append(expr_mod.prove(rule, lo, hi))
        return proofs[-1]

    monkeypatch.setattr(plots_mod, "prove", spy)
    found, undecided = _roots(parse("2.659*x^3 - 4.289*x^4"), -2.0, 2.0)
    assert proofs[0].cells <= 100
    assert [root for root, _, _ in found] == pytest.approx([2.659 / 4.289])
    assert min(a for a, _ in undecided) <= 0.0 <= max(b for _, b in undecided)


ROOT_TOL = 1e-9     # |h| at a reported root

_coef = st.floats(-5.0, 5.0).map(lambda c: round(c, 3))
_polys = st.lists(_coef, min_size=2, max_size=6).map(
    lambda cs: " + ".join([f"({cs[0]})", f"({cs[1]})*x",
                           *(f"({c})*x^{k}" for k, c in enumerate(cs)
                             if k > 1)]))
_trigs = st.tuples(st.floats(0.1, 3.0), st.floats(0.5, 20.0),
                   st.floats(-3.0, 3.0), st.floats(-2.0, 2.0)).map(
    lambda p: "({})*sin(({})*x + ({})) + ({})".format(
        *(round(v, 3) for v in p)))


@settings(max_examples=60, deadline=None, derandomize=True, database=None)
@given(st.one_of(_polys, _trigs))
def test_every_sign_change_is_a_root_or_undecided(text):
    lo, hi = -2.0, 2.0
    found, undecided = _roots(parse(text), lo, hi)
    cells = [(a, b) for _, a, b in found] + undecided
    for root, a, b in found:
        assert a <= root <= b
        assert abs(evaluate(parse(text), {"x": root})) <= ROOT_TOL
    xs = np.linspace(lo, hi, 20001)
    ys = eval(text.replace("^", "**"), {"x": xs, "sin": np.sin})
    ys = np.broadcast_to(ys, xs.shape)
    nonzero = np.flatnonzero(ys)
    for i, j in zip(nonzero, nonzero[1:]):
        if (ys[i] < 0) != (ys[j] < 0):
            assert any(a <= xs[j] and xs[i] <= b for a, b in cells), \
                (text, xs[i], xs[j])


def test_cells_left_at_the_budget_are_drawn_as_undecided(tmp_path,
                                                          monkeypatch,
                                                          ship_trace):
    # ship's two roots take 7 cells; at 3, part of the axis is undecided
    # and drawn as dashed lines at the two ends of its stretch
    spec, trace = ship_trace
    monkeypatch.setattr(expr_mod, "CELL_BUDGET", 3)
    roots, undecided = _safe_bounds(spec, -0.1, 0.1)
    assert roots == pytest.approx([-math.pi / 9.0], abs=1e-15)
    assert undecided[0] < math.pi / 9.0 < undecided[1]
    plot_trace(trace, tmp_path / "ship", spec=spec)
    _, polys, texts = _svg(tmp_path / "ship_state.svg")
    dashed = [p for p in polys if p.get("stroke") == "#ff7f0e"]
    assert len(dashed) == 2 and "undecided" in texts
    ys = sorted(float(p.get("points").split()[0].split(",")[1])
                for p in dashed)
    assert ys[0] < ys[1]


# ═══════════════════════════════════════════════════════════════════
# 5. plot_trace end to end
# ═══════════════════════════════════════════════════════════════════

@pytest.fixture(scope="module")
def ship_trace():
    spec = scenario_mod.load_builtin("ship")
    return spec, sim_mod.simulate(spec, horizon=20.0)


def test_plot_trace_writes_four_panels(tmp_path, ship_trace):
    spec, trace = ship_trace
    paths = plot_trace(trace, tmp_path / "ship", spec=spec)
    assert [os.path.basename(p) for p in paths] == [
        "ship_state.svg", "ship_funnel.svg", "ship_input.svg",
        "ship_barrier.svg"]
    for path in paths:
        _svg(path)  # well-formed


def test_plot_trace_degree_conversion(tmp_path, ship_trace):
    spec, trace = ship_trace
    plot_trace(trace, tmp_path / "ship", spec=spec)
    _, polys, texts = _svg(tmp_path / "ship_state.svg")
    assert "x [deg]" in texts
    # x, reference, and two boundary lines
    assert len(polys) == 4
    # the 20-degree tick exists on the y axis only if bounds are in degrees
    assert any(t == "20" for t in texts)


def test_plot_trace_without_scenario_has_no_bounds(tmp_path, ship_trace):
    _, trace = ship_trace
    plot_trace(trace, tmp_path / "plain", spec=None)
    _, polys, texts = _svg(tmp_path / "plain_state.svg")
    assert len(polys) == 2
    assert "x" in texts and "x [deg]" not in texts


def test_plot_trace_derives_series_at_eight_bytes_a_value(tmp_path):
    # what `proxysafe plot` draws: a 60,001-row trace read back by
    # from_csv, in degrees; the three series plot_trace derives (x and
    # x_d scaled, and -rho) hold 8 bytes a value each, and rendering
    # adds a bounded slack on top of the parsed columns
    spec = scenario_mod.load_builtin("ship")
    n_rows = 60_001
    ts = [k * spec.dt for k in range(n_rows)]
    xs = [0.3 * math.sin(t) for t in ts]
    xd = [0.3 * math.sin(t + 0.1) for t in ts]
    values = zip(ts, xs, xd, map(operator.sub, xs, xd),
                 [0.05 + math.exp(-t) for t in ts],
                 [math.cos(t) for t in ts], [0.35 - abs(x) for x in xs])
    columns = ["t", "x", "x_d", "e", "rho", "u", "h1"]
    sim_mod.SimTrace("ship", "nussbaum", columns,
                     array("d", itertools.chain.from_iterable(values)),
                     "SAFE").to_csv(tmp_path / "ship.csv")
    trace = sim_mod.SimTrace.from_csv(tmp_path / "ship.csv",
                                      columns=plotted_columns)
    del ts, xs, xd
    gc.collect()
    tracemalloc.start()
    try:
        plot_trace(trace, tmp_path / "ship", spec=spec)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    print(f"\n  plot_trace peak over {n_rows} rows: {peak} B")
    assert peak <= 3 * 8 * n_rows + 512 * 1024


def test_plot_trace_empty_trace_writes_nothing(tmp_path):
    trace = sim_mod.SimTrace("s", "c", ["t", "x"], array("d"), "SAFE")
    with pytest.raises(PlotError, match="no rows"):
        plot_trace(trace, tmp_path / "void")
    assert list(tmp_path.iterdir()) == []


def test_plot_trace_missing_column_named(tmp_path):
    trace = sim_mod.SimTrace("s", "c", ["t", "x"],
                             array("d", [0.0, 0.0, 0.1, 0.0]), "SAFE")
    with pytest.raises(PlotError, match="missing column 'x_d'"):
        plot_trace(trace, tmp_path / "short")


def test_a_trace_read_on_two_cores_draws_the_same_panels(tmp_path,
                                                         monkeypatch,
                                                         ship_trace):
    spec, trace = ship_trace
    trace.to_csv(tmp_path / "ship.csv")
    split = []
    real = traceread._read_split

    def spy(*args):
        split.append(real(*args))
        return split[-1]

    monkeypatch.setattr(traceread, "_read_split", spy)
    drawn = {}
    for name, floor in (("serial", math.inf), ("split", 0)):
        monkeypatch.setattr(traceread, "_SPLIT_BYTES", floor)
        read = sim_mod.SimTrace.from_csv(tmp_path / "ship.csv",
                                         columns=plotted_columns)
        drawn[name] = [pathlib.Path(path).read_bytes() for path in
                       plot_trace(read, tmp_path / name, spec=spec)]
    assert split == [None, trace.n_rows]
    assert drawn["split"] == drawn["serial"]
