"""CSV, SVG, verdict, and manifest emission, plus channel comparison.

CSV cells carry 17 significant digits so doubles round-trip exactly and
reruns can be compared byte-for-byte.  SVG charts are generated natively
as polyline plots; no plotting dependency.
"""

import math
from dataclasses import dataclass
from pathlib import Path

import numpy as np


def format_float(x: float) -> str:
    return format(float(x), ".17g")


def write_csv(path, times, channels: dict) -> Path:
    """Time-series CSV: first column t, one column per named channel."""
    for name, col in channels.items():
        if col.shape != times.shape:
            raise ValueError(f"channel {name!r} does not align with the time grid")
    return write_table_csv(path, ["t", *channels], zip(times, *channels.values()))


def write_table_csv(path, header, rows) -> Path:
    """Tabular CSV: one line per row; float cells (numpy's included) carry 17
    significant digits, other cells their str().  A column keeps the kind of
    cell its first row holds: each row is one `%` with a pattern built from
    the first row, `%.17g` (format_float's digits) for a float, else `%s`."""
    path = Path(path)
    lines = [",".join(header)]
    rows = iter(rows)
    first = next(rows, None)
    if first is not None:
        pattern = ",".join("%.17g" if isinstance(c, float) else "%s" for c in first)
        lines.append(pattern % tuple(first))
        lines.extend(pattern % tuple(row) for row in rows)
    path.write_text("\n".join(lines) + "\n")
    return path


@dataclass
class Verdict:
    assertion_id: str
    passed: bool
    measured: float
    tolerance: float

    def line(self) -> str:
        return "\t".join([self.assertion_id, "pass" if self.passed else "fail",
                          format_float(self.measured), format_float(self.tolerance)])


def write_verdicts(path, verdicts) -> Path:
    path = Path(path)
    path.write_text("\n".join(v.line() for v in verdicts) + "\n")
    return path


def write_manifest(path, config, wall_time: float, version: str) -> Path:
    lines = [f"experiment = {config.kind}",
             f"version = {version}"]
    for key in sorted(config.params):
        lines.append(f"{key} = {config.params[key]}")
    lines.append(f"wall_time_s = {wall_time:.3f}")
    path = Path(path)
    path.write_text("\n".join(lines) + "\n")
    return path


def compare_channels(assertion_id: str, times, a, b, tolerance: float,
                     window=None) -> Verdict:
    """The verdict `assertion_id` on series a against the reference series b:
    it measures the max relative deviation |a - b| / |b| and passes when that
    is strictly below `tolerance`.  window is an optional (t_lo, t_hi)
    restriction; a window that holds no sample makes np.max raise ValueError.
    """
    if a.shape != times.shape or b.shape != times.shape:
        raise ValueError("series do not share the time grid")
    mask = np.ones(times.shape, dtype=bool)
    if window is not None:
        lo, hi = window
        mask = (times >= lo) & (times <= hi)
    dev = np.abs(a - b)[mask] / np.abs(b)[mask]
    max_dev = float(np.max(dev))
    return Verdict(assertion_id, bool(max_dev < tolerance), max_dev, tolerance)


# ---------------------------------------------------------------------------
# native SVG polyline charts

_COLORS = ("#1f77b4", "#d62728", "#2ca02c", "#ff7f0e", "#9467bd", "#8c564b",
           "#17becf", "#7f7f7f", "#bcbd22", "#e377c2", "#4b0082", "#a0522d")
_W, _H = 640, 420
_ML, _MR, _MT, _MB = 64, 16, 36, 44


def _nice_ticks(lo: float, hi: float, n: int = 5):
    if not math.isfinite(lo) or not math.isfinite(hi):
        return [0.0, 1.0]
    span = hi - lo
    raw = span / max(n, 1)
    mag = 10.0 ** math.floor(math.log10(raw)) if raw > 0.0 else 0.0
    if not mag > 0.0:  # a subnormal span: raw or its power of ten underflows to 0
        return [lo, hi]
    for mult in (1.0, 2.0, 2.5, 5.0, 10.0):
        if raw <= mult * mag:
            step = mult * mag
            break
    start = math.ceil(lo / step) * step
    ticks = []
    value = start
    while value <= hi + 1e-9 * span:
        ticks.append(0.0 if abs(value) < 1e-12 * span else value)
        if value + step == value:  # a span under the values' resolution: step adds nothing
            return [lo, hi]
        value += step
    return ticks or [lo, hi]


def _fmt_tick(v: float) -> str:
    if v == 0:
        return "0"
    if abs(v) >= 1e4 or abs(v) < 1e-3:
        return format(v, ".2e")
    return format(v, ".6g")


def _widen(lo: float, hi: float):
    """An axis range of nonzero width: a single value v spans [v, v + |v|],
    or [0, 1] at zero."""
    if hi == lo:
        hi = lo + (abs(lo) if lo != 0 else 1.0)
    return lo, hi


def _polyline_points(x, y, px, py) -> str:
    """A polyline's points attribute for the series (x, y), at most about
    2000 of its points, with each point whose y is not finite left out:
    "px,py" pairs of 2 decimals, with px and py mapping an array of data
    coordinates to the plot's, entry by entry."""
    step = max(1, x.size // 2000)  # cap polyline length
    x, y = x[::step], y[::step]
    finite = np.isfinite(y)
    return " ".join("%.2f,%.2f" % point
                    for point in zip(px(x[finite]).tolist(), py(y[finite]).tolist()))


def write_svg(path, title: str, series, ylabel: str = "") -> Path:
    """Polyline chart; series is a list of (name, x array, y array)."""
    path = Path(path)
    xs = np.concatenate([s[1] for s in series])
    ys = np.concatenate([s[2] for s in series])
    finite = ys[np.isfinite(ys)]
    x_lo, x_hi = _widen(float(xs.min()), float(xs.max()))
    # a series with no finite value still gets a (unit) y-range and an empty polyline
    y_lo, y_hi = _widen(float(finite.min()), float(finite.max())) if finite.size else (0.0, 1.0)
    pad = 0.05 * (y_hi - y_lo)
    y_lo, y_hi = y_lo - pad, y_hi + pad

    plot_w = _W - _ML - _MR
    plot_h = _H - _MT - _MB

    def px(x):
        return _ML + (x - x_lo) / (x_hi - x_lo) * plot_w

    def py(y):
        return _MT + (y_hi - y) / (y_hi - y_lo) * plot_h

    parts = [
        f'<svg xmlns="http://www.w3.org/2000/svg" viewBox="0 0 {_W} {_H}" '
        f'font-family="sans-serif" font-size="11">',
        f'<rect width="{_W}" height="{_H}" fill="white"/>',
        f'<text x="{_W / 2:.1f}" y="20" text-anchor="middle" font-size="13">{title}</text>',
        f'<rect x="{_ML}" y="{_MT}" width="{plot_w}" height="{plot_h}" '
        f'fill="none" stroke="#333" stroke-width="1"/>',
    ]
    for tick in _nice_ticks(x_lo, x_hi):
        if tick < x_lo - 1e-12 or tick > x_hi + 1e-12:
            continue
        x = px(tick)
        parts.append(f'<line x1="{x:.2f}" y1="{_MT + plot_h}" x2="{x:.2f}" '
                     f'y2="{_MT + plot_h + 4}" stroke="#333"/>')
        parts.append(f'<text x="{x:.2f}" y="{_MT + plot_h + 16}" '
                     f'text-anchor="middle">{_fmt_tick(tick)}</text>')
    for tick in _nice_ticks(y_lo, y_hi):
        if tick < y_lo - 1e-12 or tick > y_hi + 1e-12:
            continue
        y = py(tick)
        parts.append(f'<line x1="{_ML - 4}" y1="{y:.2f}" x2="{_ML}" y2="{y:.2f}" stroke="#333"/>')
        parts.append(f'<text x="{_ML - 7}" y="{y + 3.5:.2f}" text-anchor="end">{_fmt_tick(tick)}</text>')
    parts.append(f'<text x="{_ML + plot_w / 2:.1f}" y="{_H - 8}" '
                 'text-anchor="middle">t</text>')
    if ylabel:
        parts.append(f'<text x="14" y="{_MT + plot_h / 2:.1f}" text-anchor="middle" '
                     f'transform="rotate(-90 14 {_MT + plot_h / 2:.1f})">{ylabel}</text>')

    for i, (name, x, y) in enumerate(series):
        color = _COLORS[i % len(_COLORS)]
        parts.append(f'<polyline points="{_polyline_points(x, y, px, py)}" fill="none" '
                     f'stroke="{color}" stroke-width="1.3"/>')
        ly = _MT + 14 + 14 * i
        parts.append(f'<line x1="{_ML + plot_w - 130}" y1="{ly - 4}" '
                     f'x2="{_ML + plot_w - 110}" y2="{ly - 4}" stroke="{color}" stroke-width="2"/>')
        parts.append(f'<text x="{_ML + plot_w - 105}" y="{ly}">{name}</text>')
    parts.append("</svg>")
    path.write_text("\n".join(parts) + "\n")
    return path
