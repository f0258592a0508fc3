"""Minimal static SVG line charts (no plotting dependency).

Charts are built from polylines with auto-scaled axes and a small legend;
floats are formatted with a fixed precision so identical inputs produce
byte-identical files.
"""
from __future__ import annotations

import math
from dataclasses import dataclass

__all__ = ["Series", "stacked_chart", "trajectory_chart"]

_COLORS = ("#1f77b4", "#d62728", "#2ca02c", "#9467bd", "#ff7f0e", "#8c564b")


@dataclass(frozen=True)
class Series:
    label: str
    xs: list
    ys: list


def _fmt(v: float) -> str:
    return f"{v:.6g}"


def _ticks(lo: float, hi: float, n: int = 5) -> list[float]:
    if hi <= lo:
        hi = lo + 1.0
    span = hi - lo
    step = 10.0 ** math.floor(math.log10(span / n))
    for mult in (1.0, 2.0, 5.0, 10.0):
        if span / (step * mult) <= n:
            step *= mult
            break
    first = math.ceil(lo / step) * step
    out = []
    t = first
    while t <= hi + 1e-12 * span:
        out.append(0.0 if abs(t) < 1e-12 * span else t)
        t += step
    return out


def _panel(series: list[Series], x0: float, y0: float, w: float, h: float,
           title: str, xlabel: str, ylabel: str) -> list[str]:
    xs_all = [x for s in series for x in s.xs]
    ys_all = [y for s in series for y in s.ys]
    xmin, xmax = min(xs_all), max(xs_all)
    ymin, ymax = min(ys_all), max(ys_all)
    if xmax <= xmin:
        xmax = xmin + 1.0
    if ymax <= ymin:
        ymax = ymin + 1.0
    pad = 0.05 * (ymax - ymin)
    ymin -= pad
    ymax += pad

    def sx(x: float) -> float:
        return x0 + (x - xmin) / (xmax - xmin) * w

    def sy(y: float) -> float:
        return y0 + h - (y - ymin) / (ymax - ymin) * h

    parts = [f'<rect x="{_fmt(x0)}" y="{_fmt(y0)}" width="{_fmt(w)}" '
             f'height="{_fmt(h)}" fill="none" stroke="#333"/>']
    parts.append(f'<text x="{_fmt(x0 + w / 2)}" y="{_fmt(y0 - 8)}" '
                 f'text-anchor="middle" font-size="13">{title}</text>')
    for tx in _ticks(xmin, xmax):
        parts.append(f'<line x1="{_fmt(sx(tx))}" y1="{_fmt(y0 + h)}" '
                     f'x2="{_fmt(sx(tx))}" y2="{_fmt(y0 + h + 4)}" stroke="#333"/>')
        parts.append(f'<text x="{_fmt(sx(tx))}" y="{_fmt(y0 + h + 16)}" '
                     f'text-anchor="middle" font-size="10">{_fmt(tx)}</text>')
    for ty in _ticks(ymin, ymax):
        parts.append(f'<line x1="{_fmt(x0 - 4)}" y1="{_fmt(sy(ty))}" '
                     f'x2="{_fmt(x0)}" y2="{_fmt(sy(ty))}" stroke="#333"/>')
        parts.append(f'<text x="{_fmt(x0 - 6)}" y="{_fmt(sy(ty) + 3)}" '
                     f'text-anchor="end" font-size="10">{_fmt(ty)}</text>')
    parts.append(f'<text x="{_fmt(x0 + w / 2)}" y="{_fmt(y0 + h + 32)}" '
                 f'text-anchor="middle" font-size="11">{xlabel}</text>')
    parts.append(f'<text x="{_fmt(x0 - 40)}" y="{_fmt(y0 + h / 2)}" '
                 f'text-anchor="middle" font-size="11" '
                 f'transform="rotate(-90 {_fmt(x0 - 40)} {_fmt(y0 + h / 2)})">'
                 f'{ylabel}</text>')
    for i, s in enumerate(series):
        color = _COLORS[i % len(_COLORS)]
        pts = " ".join(f"{_fmt(sx(x))},{_fmt(sy(y))}" for x, y in zip(s.xs, s.ys))
        parts.append(f'<polyline points="{pts}" fill="none" stroke="{color}" '
                     f'stroke-width="1.2"/>')
        lx = x0 + w - 110
        ly = y0 + 14 + 14 * i
        parts.append(f'<line x1="{_fmt(lx)}" y1="{_fmt(ly - 4)}" '
                     f'x2="{_fmt(lx + 18)}" y2="{_fmt(ly - 4)}" stroke="{color}" '
                     f'stroke-width="2"/>')
        parts.append(f'<text x="{_fmt(lx + 22)}" y="{_fmt(ly)}" '
                     f'font-size="10">{s.label}</text>')
    return parts


def stacked_chart(panels, path, width: int = 720, panel_height: int = 260) -> None:
    """Write one SVG with vertically stacked panels.

    ``panels`` is a list of (series_list, title, xlabel, ylabel) tuples.
    """
    margin_l, margin_r, margin_t, gap = 70, 20, 30, 55
    total_h = margin_t + len(panels) * (panel_height + gap)
    parts = [f'<svg xmlns="http://www.w3.org/2000/svg" width="{width}" '
             f'height="{total_h}" font-family="sans-serif">',
             '<rect width="100%" height="100%" fill="white"/>']
    y = margin_t
    for series, title, xlabel, ylabel in panels:
        parts.extend(_panel(series, margin_l, y, width - margin_l - margin_r,
                            panel_height, title, xlabel, ylabel))
        y += panel_height + gap
    parts.append("</svg>")
    with open(path, "w") as fh:
        fh.write("\n".join(parts) + "\n")


# two points per pixel column of the plot area of stacked_chart's default
# width: 720 px less its 70 and 20 px margins
_TRAJECTORY_POINTS = 2 * (720 - 70 - 20)


def trajectory_chart(model, traj, path, stride: float) -> None:
    """Write the chart of a trajectory: x, y and yj, then tau(y).

    Samples the run at evenly spaced times over exactly [0, traj.t_end]:
    as many as :func:`preydelay.engine.export_csv` writes rows at
    ``stride`` (not counting its extra row at t_end), but at least 2 and
    at most two per pixel column of the plot area, so the chart's size
    does not grow with the horizon.
    """
    import numpy as np

    if stride <= 0.0:
        raise ValueError("stride must be positive")
    n = min(max(int(traj.t_end / stride + 1e-9) + 1, 2), _TRAJECTORY_POINTS)
    ts = np.linspace(0.0, traj.t_end, n)
    x, y, yj = traj.sample(ts).T.tolist()
    ts = ts.tolist()
    taus = [model.delay.tau(max(v, 0.0)) for v in y]
    stacked_chart(
        [([Series("x", ts, x), Series("y", ts, y), Series("yj", ts, yj)],
          "population densities", "t", "density"),
         ([Series("tau(y)", ts, taus)],
          "maturation delay along the run", "t", "tau")],
        path)
