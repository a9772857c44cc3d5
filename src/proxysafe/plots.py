"""Static SVG panels rendered from a simulation trace.

Four panels cover the run: the head state against its reference with
the safe-set boundaries dashed, the tracking error inside its funnel,
the control input, and the barrier values.  The markup is emitted
directly -- a fixed viewport, a 1-2-5 tick ladder per axis, polyline
series with an optional dash pattern, and a small legend -- so plotting
needs no dependency beyond the file system.

Long traces are thinned to a fixed point budget per series before
rendering; the thinning always keeps the first and last samples, so
boundary-touching extremes stay visible at the resolution of the plot.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

from .expr import compile_expr

__all__ = ["PlotError", "Series", "render_panel", "plot_trace"]

PALETTE = ("#1f77b4", "#d62728", "#2ca02c", "#9467bd", "#ff7f0e", "#8c564b")
DASH = "7 5"
WIDTH, HEIGHT = 720, 405
MARGIN_L, MARGIN_R, MARGIN_T, MARGIN_B = 64, 18, 36, 48
POINT_BUDGET = 4000


class PlotError(Exception):
    """The trace cannot be plotted; the message names what is missing."""


@dataclass
class Series:
    """One labeled line: x/y samples plus its drawing style."""

    label: str
    xs: list
    ys: list
    dashed: bool = False
    color: str | None = None

    def __post_init__(self):
        if len(self.xs) != len(self.ys):
            raise PlotError(f"series '{self.label}': "
                            f"{len(self.xs)} x values vs {len(self.ys)} y")


def _thin(values):
    if len(values) <= POINT_BUDGET:
        return list(values)
    stride = -(-len(values) // POINT_BUDGET)
    out = list(values[::stride])
    if (len(values) - 1) % stride:
        out.append(values[-1])
    return out


def _fmt(value: float) -> str:
    text = f"{value:.10g}"
    return "0" if text == "-0" else text


def _ticks(lo: float, hi: float, target: int = 6) -> list:
    """A 1-2-5 ladder of at most `target`-ish round ticks over [lo, hi]."""
    span = hi - lo
    raw = span / max(target - 1, 1)
    mag = 10.0 ** math.floor(math.log10(raw))
    for mult in (1.0, 2.0, 5.0, 10.0):
        step = mult * mag
        if span / step <= target - 1:
            break
    first = math.ceil(lo / step) * step
    ticks = []
    value = first
    while value <= hi + 1e-9 * span:
        ticks.append(0.0 if abs(value) < 1e-12 * span else value)
        value += step
    return ticks


def _pad(lo: float, hi: float):
    if lo == hi:
        slack = abs(lo) * 0.1 or 1.0
        return lo - slack, hi + slack
    slack = (hi - lo) * 0.05
    return lo - slack, hi + slack


def render_panel(path, title: str, xlabel: str, ylabel: str, series) -> str:
    """Write one SVG panel; returns the path written."""
    series = list(series)
    if not series or not any(s.xs for s in series):
        raise PlotError(f"panel '{title}': nothing to draw")
    xs_all = [v for s in series for v in s.xs]
    ys_all = [v for s in series for v in s.ys]
    if not all(map(math.isfinite, xs_all + ys_all)):
        raise PlotError(f"panel '{title}': series contain non-finite values")
    x_lo, x_hi = min(xs_all), max(xs_all)
    if x_lo == x_hi:
        x_lo, x_hi = _pad(x_lo, x_hi)
    y_lo, y_hi = _pad(min(ys_all), max(ys_all))

    plot_w = WIDTH - MARGIN_L - MARGIN_R
    plot_h = HEIGHT - MARGIN_T - MARGIN_B

    def px(x):
        return MARGIN_L + (x - x_lo) / (x_hi - x_lo) * plot_w

    def py(y):
        return MARGIN_T + (y_hi - y) / (y_hi - y_lo) * plot_h

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

    for idx, s in enumerate(series):
        color = s.color or PALETTE[idx % len(PALETTE)]
        xs, ys = _thin(s.xs), _thin(s.ys)
        points = " ".join(f"{px(x):.2f},{py(y):.2f}" for x, y in zip(xs, ys))
        dash = f' stroke-dasharray="{DASH}"' if s.dashed else ""
        parts.append(f'<polyline points="{points}" fill="none" '
                     f'stroke="{color}" stroke-width="1.4"{dash} '
                     f'clip-path="url(#plot)"/>')
    seen = set()
    for idx, s in enumerate(series):
        if s.label in seen:
            continue
        seen.add(s.label)
        color = s.color or PALETTE[idx % len(PALETTE)]
        y = MARGIN_T + 14 + 16 * (len(seen) - 1)
        x = MARGIN_L + plot_w - 130
        dash = f' stroke-dasharray="{DASH}"' if s.dashed else ""
        parts.append(f'<line x1="{x}" y1="{y - 4}" x2="{x + 26}" '
                     f'y2="{y - 4}" stroke="{color}" stroke-width="1.4"'
                     f'{dash}/>')
        parts.append(f'<text x="{x + 32}" y="{y}" font-size="11">'
                     f'{s.label}</text>')
    parts.append("</svg>")
    with open(path, "w", encoding="utf-8") as fh:
        fh.write("\n".join(parts) + "\n")
    return str(path)


def _column(trace, name):
    try:
        return trace.column(name)
    except KeyError:
        raise PlotError(f"trace is missing column '{name}' "
                        f"(has: {', '.join(trace.columns)})") from None


def _safe_bounds(spec, x_lo: float, x_hi: float) -> list:
    """Zero crossings of each barrier along a scalar state axis.

    Scans a padded interval around the observed state range (and the
    scenario's declared box, when present) for sign changes of h, then
    bisects each bracket.
    """
    lo, hi = x_lo, x_hi
    for box_lo, box_hi in spec.check_box:
        lo, hi = min(lo, box_lo), max(hi, box_hi)
    slack = (hi - lo) * 0.1 or 1.0
    lo, hi = lo - slack, hi + slack
    grid = 2048
    roots = []
    for proxy in spec.proxies:
        h_fn = compile_expr(proxy.h, ["x"])

        def h(x):
            try:
                value = h_fn(x)
            except (ArithmeticError, ValueError):
                return None
            return value if math.isfinite(value) else None

        prev_x, prev_h = lo, h(lo)
        for i in range(1, grid + 1):
            x = lo + (hi - lo) * i / grid
            cur = h(x)
            if prev_h is not None and cur is not None and prev_h * cur <= 0.0 \
                    and (prev_h != 0.0 or cur != 0.0):
                a, fa, b = prev_x, prev_h, x
                for _ in range(80):
                    mid = 0.5 * (a + b)
                    fm = h(mid)
                    if fm is None:
                        break
                    if fa * fm <= 0.0:
                        b = mid
                    else:
                        a, fa = mid, fm
                roots.append(0.5 * (a + b))
            prev_x, prev_h = x, cur
    return sorted(roots)


def plot_trace(trace, out_base, spec=None) -> list:
    """Write the four standard panels next to `out_base`.

    With a scenario given, the head-state panel draws its box bounds as
    dashed lines and, for degree-unit scenarios, shows the angles in
    degrees.  Returns the written paths.
    """
    if not trace.rows:
        raise PlotError("trace has no rows")
    ts = _column(trace, "t")
    scale = 1.0
    state_label = "x"
    if spec is not None and spec.angle_unit == "degree":
        scale = 180.0 / math.pi
        state_label = "x [deg]"

    raw_x = _column(trace, "x")
    xs = [v * scale for v in raw_x]
    xd = [v * scale for v in _column(trace, "x_d")]
    state = [Series("x", ts, xs), Series("reference", ts, xd, dashed=True)]
    if spec is not None:
        for root in _safe_bounds(spec, min(raw_x), max(raw_x)):
            state.append(Series("safe bound", [ts[0], ts[-1]],
                                [root * scale] * 2, dashed=True,
                                color="#d62728"))

    es = _column(trace, "e")
    rho = _column(trace, "rho")
    funnel = [Series("e", ts, es),
              Series("+rho", ts, rho, dashed=True, color="#d62728"),
              Series("-rho", ts, [-v for v in rho], dashed=True,
                     color="#d62728")]

    inputs = [Series("u", ts, _column(trace, "u"))]

    barriers = []
    k = 1
    while f"h{k}" in trace.columns:
        barriers.append(Series(f"h{k}", ts, _column(trace, f"h{k}")))
        k += 1
    barriers.append(Series("boundary", [ts[0], ts[-1]], [0.0, 0.0],
                           dashed=True, color="#d62728"))

    base = str(out_base)
    jobs = [
        (f"{base}_state.svg", "head state and reference", state_label, state),
        (f"{base}_funnel.svg", "tracking error and funnel", "e", funnel),
        (f"{base}_input.svg", "control input", "u", inputs),
        (f"{base}_barrier.svg", "barrier values", "h", barriers),
    ]
    return [render_panel(path, title, "t [s]", ylabel, series)
            for path, title, ylabel, series in jobs]
