"""Static SVG panels rendered from a simulation trace.

Four panels cover the run: the head state against its reference with
the safe-set boundaries dashed, the tracking error inside its funnel,
the control input, and the barrier values.  The markup is emitted
directly -- a fixed viewport, a 1-2-5 tick ladder per axis, polyline
series with an optional dash pattern, and a small legend -- so plotting
needs no dependency beyond the file system.  The boundaries are the
roots of each barrier that `expr.prove` isolates (`_roots`); a stretch
left undecided, at the cell budget or in cells narrower than a pixel,
is dashed at both ends.

A series longer than POINT_BUDGET is drawn through every k-th sample
and the last (`_thin`), so a peak between two kept samples is not drawn
while the axis still spans it (ROADMAP item 15).  A series is a list or
an `array('d')`: `plot_trace` builds each derived series (the head state
and its reference in degrees, and -rho) as an `array('d')`.  Each
distinct array is scanned once per `plot_trace` call for its
finiteness, min and max (`_extent`).

Any finite data range gets an axis: `_pad` and `_fit` keep the range
inside the finite doubles and at least a few ulps and 1e-300 wide, and
a span past the largest double is mapped in halves (`_unit`), so the
tick ladder ends and every coordinate is finite.
"""

from __future__ import annotations

import itertools
import math
import sys
from array import array

from .expr import differentiate, evaluate, interval, prove

__all__ = ["PlotError", "Series", "render_panel", "plot_trace",
           "plotted_columns"]

PALETTE = ("#1f77b4", "#d62728", "#2ca02c", "#9467bd", "#ff7f0e", "#8c564b")
DASH = "7 5"
WIDTH, HEIGHT = 720, 405
MARGIN_L, MARGIN_R, MARGIN_T, MARGIN_B = 64, 18, 36, 48
POINT_BUDGET = 4000
MIN_CELL = 2.0 ** -5    # narrowest cell `_roots` halves, in pixel columns
DERIVE_CHUNK = 4096     # values a derived series converts per list
_MAX = sys.float_info.max
_MIN_SPAN = 1e-300      # an axis narrower has no ladder of normal doubles


class PlotError(Exception):
    """The trace cannot be plotted; the message names what is missing."""


class Series:
    """One labeled line: x/y samples, each a list or an `array('d')`,
    plus its drawing style."""

    def __init__(self, label: str, xs: list | array, ys: list | array,
                 dashed: bool = False, color: str | None = None):
        if len(xs) != len(ys):
            raise PlotError(f"series '{label}': "
                            f"{len(xs)} x values vs {len(ys)} y")
        self.label, self.xs, self.ys = label, xs, ys
        self.dashed, self.color = dashed, color


def _thin(values):
    """`values` strided down to at most POINT_BUDGET + 1 samples, the last
    one always kept; slices of `values`, not a list copy of them."""
    if len(values) <= POINT_BUDGET:
        return values
    stride = -(-len(values) // POINT_BUDGET)
    if (len(values) - 1) % stride:
        return itertools.chain(values[::stride], values[-1:])
    return values[::stride]


def _points(xs, ys):
    """The points text of a polyline through the pixel positions `xs`,
    `ys`, a few hundred points a piece, so no whole-series text is
    built."""
    pairs = map("{:.2f},{:.2f}".format, xs, ys)
    sep = ""
    while piece := " ".join(itertools.islice(pairs, 512)):
        yield sep + piece
        sep = " "


def _fmt(value: float) -> str:
    text = f"{value:.10g}"
    return "0" if text == "-0" else text


def _ticks(lo: float, hi: float, target: int = 6) -> list:
    """A 1-2-5 ladder of at most `target`-ish round ticks over [lo, hi],
    a range `_pad` or `_fit` made.  A span past the largest double is
    taken in halves (`_unit`)."""
    unit = _unit(lo, hi)
    span_u = hi * unit - lo * unit      # the span times `unit`
    raw = span_u / max(target - 1, 1) / unit
    mag = 10.0 ** math.floor(math.log10(raw))
    for mult in (1.0, 2.0, 5.0, 10.0):
        step = mult * mag
        if span_u / step / unit <= target - 1:
            break
    first = math.ceil(lo / step) * step
    ticks = []
    value = first
    while value <= min(hi + 1e-9 * span_u / unit, _MAX):
        ticks.append(0.0 if abs(value) < 1e-12 * span_u / unit else value)
        value += step
    return ticks


def _unit(lo: float, hi: float) -> float:
    """1.0, or 0.5 where `hi - lo` overflows: the axis arithmetic then
    runs on halved values, which are exact and keep the span finite."""
    return 0.5 if math.isinf(hi - lo) else 1.0


def _fit(lo: float, hi: float):
    """[lo, hi] within the finite doubles and widened about its middle to
    at least `_MIN_SPAN` and 16 ulps: the ladder's step then stays a
    normal double wider than an ulp, so its ticks are finite, distinct
    and few, and so are the pixel positions."""
    lo, hi = max(lo, -_MAX), min(hi, _MAX)
    need = max(_MIN_SPAN, 16 * math.ulp(max(abs(lo), abs(hi))))
    if hi - lo < need:
        mid = lo * 0.5 + hi * 0.5
        lo, hi = max(mid - need / 2, -_MAX), min(mid + need / 2, _MAX)
    return lo, hi


def _pad(lo: float, hi: float):
    """The axis range of data within [lo, hi]: 5 % of the span beyond
    each end, or 10 % of a flat value (1.0 at zero), then `_fit`."""
    if lo == hi:
        slack = abs(lo) * 0.1 or 1.0
    else:
        slack = (hi - lo) * 0.05
        if math.isinf(slack):
            slack = (hi * 0.5 - lo * 0.5) * 0.1
    return _fit(lo - slack, hi + slack)


def _extent(values, extents: dict) -> tuple:
    """Whether every value of `values` is finite, and their min and max
    (None when empty): scanned once per distinct object, which `extents`
    holds by its id, with the object, for as long as it is shared."""
    entry = extents.get(id(values))
    if entry is None:
        entry = extents[id(values)] = (
            values, all(map(math.isfinite, values)),
            min(values, default=None), max(values, default=None))
    return entry[1:]


def render_panel(path, title: str, xlabel: str, ylabel: str, series,
                 extents: dict | None = None) -> str:
    """Write one SVG panel; returns the path written.

    `extents` holds each series' finiteness, min and max by the id of its
    values (`_extent`); `plot_trace` passes one dict to all four panels,
    so values that several series share are scanned once.
    """
    series = list(series)
    extents = {} if extents is None else extents
    if not series or not any(s.xs for s in series):
        raise PlotError(f"panel '{title}': nothing to draw")
    x_ext = [_extent(s.xs, extents) for s in series]
    y_ext = [_extent(s.ys, extents) for s in series]
    if not all(finite for finite, _, _ in x_ext + y_ext):
        raise PlotError(f"panel '{title}': series contain non-finite values")
    drawn = [i for i, s in enumerate(series) if s.xs]
    x_lo = min(x_ext[i][1] for i in drawn)
    x_hi = max(x_ext[i][2] for i in drawn)
    x_lo, x_hi = _pad(x_lo, x_hi) if x_lo == x_hi else _fit(x_lo, x_hi)
    y_lo, y_hi = _pad(min(y_ext[i][1] for i in drawn),
                      max(y_ext[i][2] for i in drawn))

    plot_w = WIDTH - MARGIN_L - MARGIN_R
    plot_h = HEIGHT - MARGIN_T - MARGIN_B

    # the positions within [lo, hi]; see `_unit`
    xu, yu = _unit(x_lo, x_hi), _unit(y_lo, y_hi)
    x_lo_u, x_span_u = x_lo * xu, x_hi * xu - x_lo * xu
    y_hi_u, y_span_u = y_hi * yu, y_hi * yu - y_lo * yu

    def px(x):
        return MARGIN_L + (x * xu - x_lo_u) / x_span_u * plot_w

    def py(y):
        return MARGIN_T + (y_hi_u - y * yu) / y_span_u * plot_h

    parts = [
        f'<svg xmlns="http://www.w3.org/2000/svg" width="{WIDTH}" '
        f'height="{HEIGHT}" viewBox="0 0 {WIDTH} {HEIGHT}" '
        f'font-family="DejaVu Sans, Helvetica, sans-serif">',
        f'<rect width="{WIDTH}" height="{HEIGHT}" fill="white"/>',
        f'<clipPath id="plot"><rect x="{MARGIN_L}" y="{MARGIN_T}" '
        f'width="{plot_w}" height="{plot_h}"/></clipPath>',
        f'<text x="{WIDTH / 2:.1f}" y="{MARGIN_T - 12}" font-size="15" '
        f'text-anchor="middle">{title}</text>',
    ]
    for tick in _ticks(x_lo, x_hi):
        x = px(tick)
        parts.append(f'<line x1="{x:.2f}" y1="{MARGIN_T}" x2="{x:.2f}" '
                     f'y2="{MARGIN_T + plot_h}" stroke="#dddddd"/>')
        parts.append(f'<text x="{x:.2f}" y="{MARGIN_T + plot_h + 18}" '
                     f'font-size="11" text-anchor="middle">{_fmt(tick)}</text>')
    for tick in _ticks(y_lo, y_hi):
        y = py(tick)
        parts.append(f'<line x1="{MARGIN_L}" y1="{y:.2f}" '
                     f'x2="{MARGIN_L + plot_w}" y2="{y:.2f}" '
                     f'stroke="#dddddd"/>')
        parts.append(f'<text x="{MARGIN_L - 8}" y="{y + 4:.2f}" '
                     f'font-size="11" text-anchor="end">{_fmt(tick)}</text>')
    parts.append(f'<rect x="{MARGIN_L}" y="{MARGIN_T}" width="{plot_w}" '
                 f'height="{plot_h}" fill="none" stroke="#444444"/>')
    parts.append(f'<text x="{MARGIN_L + plot_w / 2:.1f}" y="{HEIGHT - 10}" '
                 f'font-size="13" text-anchor="middle">{xlabel}</text>')
    parts.append(f'<text x="18" y="{MARGIN_T + plot_h / 2:.1f}" '
                 f'font-size="13" text-anchor="middle" transform="rotate(-90 '
                 f'18 {MARGIN_T + plot_h / 2:.1f})">{ylabel}</text>')

    styles = [(s.color or PALETTE[idx % len(PALETTE)],
               f' stroke-dasharray="{DASH}"' if s.dashed else "")
              for idx, s in enumerate(series)]
    legend = []
    seen = set()
    for s, (color, dash) in zip(series, styles):
        if s.label in seen:
            continue
        seen.add(s.label)
        y = MARGIN_T + 14 + 16 * (len(seen) - 1)
        x = MARGIN_L + plot_w - 130
        legend.append(f'<line x1="{x}" y1="{y - 4}" x2="{x + 26}" '
                      f'y2="{y - 4}" stroke="{color}" stroke-width="1.4"'
                      f'{dash}/>')
        legend.append(f'<text x="{x + 32}" y="{y}" font-size="11">'
                      f'{s.label}</text>')
    legend.append("</svg>")
    with open(path, "w", encoding="utf-8") as fh:
        fh.write("\n".join(parts) + "\n")
        for s, (color, dash) in zip(series, styles):
            fh.write('<polyline points="')
            fh.writelines(_points(map(px, _thin(s.xs)),
                                  map(py, _thin(s.ys))))
            fh.write(f'" fill="none" stroke="{color}" stroke-width="1.4"'
                     f'{dash} clip-path="url(#plot)"/>\n')
        fh.write("\n".join(legend) + "\n")
    return str(path)


def _barrier_columns(columns) -> list:
    """h1, h2, ... for as long as `columns` has them."""
    names = []
    while f"h{len(names) + 1}" in columns:
        names.append(f"h{len(names) + 1}")
    return names


def plotted_columns(columns) -> list:
    """The names among a trace's `columns` that `plot_trace` reads."""
    wanted = {"t", "x", "x_d", "e", "rho", "u", *_barrier_columns(columns)}
    return [name for name in columns if name in wanted]


def _derived(values, derive):
    """A derived series as an `array('d')`, 8 bytes a value: the lists
    `derive` makes of `values` DERIVE_CHUNK values at a time, joined.  A
    list comprehension per chunk fills the array faster than appending
    it value by value."""
    out = array("d")
    for i in range(0, len(values), DERIVE_CHUNK):
        out.fromlist(derive(values[i:i + DERIVE_CHUNK]))
    return out


def _column(trace, name):
    try:
        return trace.column(name)
    except KeyError:
        raise PlotError(f"trace is missing column '{name}' "
                        f"(has: {', '.join(trace.columns)})") from None


def _roots(h, lo: float, hi: float) -> tuple:
    """The roots of h on [lo, hi] as (root, cell lo, cell hi), and the
    (lo, hi) cells left undecided.  A cell holds no root where the
    enclosure of h excludes 0, the empty one of a cell where h is
    undefined included.  Where that of dh/dx does, h is monotone and
    evaluates on the whole cell: one root, bisected to adjacent doubles,
    if h has opposite signs at the ends, else none.  An undischarged
    cell narrower than MIN_CELL pixel columns of a panel spanning
    [lo, hi] is left undecided rather than halved, as are those `prove`
    leaves at its budget: two roots that close draw as one line, and a
    root of dh/dx too (a multiple root) would be halved to subnormal
    widths.  Roots a tenth of a column apart are still told apart."""
    dh = differentiate(h, "x")
    columns = WIDTH - MARGIN_L - MARGIN_R
    narrow = (hi / columns - lo / columns) * MIN_CELL   # (hi - lo) may overflow
    found, undecided = [], []

    def rule(lo, hi, mid):
        h_lo, h_hi, bad = interval(h, "x", lo, hi)
        if h_lo > 0.0 or h_hi < 0.0:
            return True
        d_lo, d_hi, d_bad = interval(dh, "x", lo, hi)
        if bad is not None or d_bad is not None or d_lo <= 0.0 <= d_hi:
            if hi - lo >= narrow:
                return False
            undecided.append((lo, hi))
            return True
        below = evaluate(h, {"x": lo}) < 0.0
        if below == (evaluate(h, {"x": hi}) < 0.0):
            return True
        a, b = lo, hi
        while a < mid < b:
            h_mid = evaluate(h, {"x": mid})
            # a keeps the sign h has at lo; an exact 0 moves b
            if h_mid != 0.0 and (h_mid < 0.0) == below:
                a = mid
            else:
                b = mid
            mid = 0.5 * a + 0.5 * b
        found.append((mid, lo, hi))
        return True

    left = prove(rule, lo, hi).undecided
    return found, undecided + left


def _safe_bounds(spec, x_lo: float, x_hi: float) -> tuple:
    """The roots of every barrier on a state axis, in order, and the ends
    of the stretch holding every cell left undecided (none, or two).  The
    axis spans the state range and check box, a tenth more on each side,
    within the finite doubles (an inf or NaN end is the largest)."""
    lo, hi = x_lo, x_hi
    if spec.check_box is not None:
        lo, hi = min(lo, spec.check_box[0]), max(hi, spec.check_box[1])
    slack = (hi - lo) * 0.1 or 1.0
    # max and min keep their first argument against a NaN
    lo, hi = max(-_MAX, lo - slack), min(_MAX, hi + slack)
    roots, cells = [], []
    for proxy in spec.proxies:
        found, undecided = _roots(proxy.h, lo, hi)
        roots += [root for root, _, _ in found]
        cells += undecided
    ends = [min(a for a, _ in cells), max(b for _, b in cells)] if cells else []
    return sorted(roots), ends


def plot_trace(trace, out_base, spec=None) -> list:
    """Write the four standard panels next to `out_base`.

    With a scenario given, the head-state panel draws its box bounds as
    dashed lines and, for degree-unit scenarios, shows the angles in
    degrees.  Returns the written paths.
    """
    if not trace.n_rows:
        raise PlotError("trace has no rows")
    ts = _column(trace, "t")
    scale = 1.0
    state_label = "x"
    if spec is not None and spec.angle_unit == "degree":
        scale = 180.0 / math.pi
        state_label = "x [deg]"

    def scaled(chunk):
        return [v * scale for v in chunk]

    raw_x = _column(trace, "x")
    xs = _derived(raw_x, scaled)
    xd = _derived(_column(trace, "x_d"), scaled)
    state = [Series("x", ts, xs), Series("reference", ts, xd, dashed=True)]
    if spec is not None:
        roots, undecided = _safe_bounds(spec, min(raw_x), max(raw_x))
        lines = [("safe bound", "#d62728", root) for root in roots]
        lines += [("undecided", "#ff7f0e", end) for end in undecided]
        state += [Series(label, [ts[0], ts[-1]], [value * scale] * 2,
                         dashed=True, color=color)
                  for label, color, value in lines]

    es = _column(trace, "e")
    rho = _column(trace, "rho")
    funnel = [Series("e", ts, es),
              Series("+rho", ts, rho, dashed=True, color="#d62728"),
              Series("-rho", ts, _derived(rho, lambda c: [-v for v in c]),
                     dashed=True, color="#d62728")]

    inputs = [Series("u", ts, _column(trace, "u"))]

    barriers = [Series(name, ts, _column(trace, name))
                for name in _barrier_columns(trace.columns)]
    barriers.append(Series("boundary", [ts[0], ts[-1]], [0.0, 0.0],
                           dashed=True, color="#d62728"))

    base = str(out_base)
    jobs = [
        (f"{base}_state.svg", "head state and reference", state_label, state),
        (f"{base}_funnel.svg", "tracking error and funnel", "e", funnel),
        (f"{base}_input.svg", "control input", "u", inputs),
        (f"{base}_barrier.svg", "barrier values", "h", barriers),
    ]
    extents: dict = {}      # `t` is the x of every long series
    return [render_panel(path, title, "t [s]", ylabel, series, extents)
            for path, title, ylabel, series in jobs]
