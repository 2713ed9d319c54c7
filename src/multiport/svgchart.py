"""Minimal self-contained SVG line charts.

Renders one or more (x, y) series with error bars into a single SVG
string: axes, 1-2-5 tick grids, round markers, and a legend.  No
plotting dependency; output text is deterministic for identical input.
The CSV files remain the quantitative record -- these charts are for
eyeballing sweeps.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

__all__ = ["save_chart", "sweep_chart"]

_PALETTE = ("#1f77b4", "#d62728", "#2ca02c", "#9467bd", "#ff7f0e", "#8c564b")
_WIDTH = 720
_HEIGHT = 480
_TICKS = 5  # ticks per axis to aim for


@dataclass(frozen=True)
class Series:
    """One plotted line: ``label``, x/y points and symmetric y errors.

    A zero error draws no bar.
    """

    label: str
    x: tuple[float, ...]
    y: tuple[float, ...]
    y_err: tuple[float, ...]

    def __post_init__(self) -> None:
        x = tuple(float(v) for v in self.x)
        y = tuple(float(v) for v in self.y)
        err = tuple(float(e) for e in self.y_err)
        object.__setattr__(self, "x", x)
        object.__setattr__(self, "y", y)
        object.__setattr__(self, "y_err", err)
        if len(x) != len(y):
            raise ValueError(f"x and y lengths differ: {len(x)} vs {len(y)}")
        if not x:
            raise ValueError("series must contain at least one point")
        if not all(math.isfinite(v) for v in x + y):
            raise ValueError("series contains non-finite values")
        if len(err) != len(y):
            raise ValueError("y_err length does not match y")
        if not all(math.isfinite(e) and e >= 0 for e in err):
            raise ValueError("y_err must be finite and non-negative")


def _widened(lo: float, hi: float) -> tuple[float, float]:
    """``(lo, hi)``, or ``(lo - 1, hi + 1)`` if floats cannot resolve the span.

    A span of a few ulps of its ends (or none) leaves no room for distinct
    ticks or pixel positions inside it.
    """
    if hi - lo <= 16 * math.ulp(max(abs(lo), abs(hi))):
        return lo - 1.0, hi + 1.0
    return lo, hi


def _nice_ticks(lo: float, hi: float) -> list[float]:
    """Round tick positions covering [lo, hi] with a 1-2-5 step."""
    lo, hi = _widened(lo, hi)
    raw = (hi - lo) / _TICKS
    mag = 10.0 ** math.floor(math.log10(raw))
    for mult in (1.0, 2.0, 5.0, 10.0):
        step = mult * mag
        if raw <= step:
            break
    first = math.ceil(lo / step) * step
    ticks = []
    # step >= raw, so at most _TICKS + 1 ticks fit; two more cover rounding
    for k in range(_TICKS + 3):
        t = first + k * step
        if t > hi + 0.5 * step:
            break
        ticks.append(0.0 if abs(t) < 1e-12 * step else t)
    return ticks


def _fmt_tick(v: float) -> str:
    return format(v, ".6g")


def _escape(text: str) -> str:
    """``text`` with the characters XML reserves in element content escaped.

    The same as ``xml.sax.saxutils.escape``, whose import pulls in
    ``urllib.request`` and ``ssl`` (about 6 MB of resident memory).
    """
    return text.replace("&", "&amp;").replace("<", "&lt;").replace(">", "&gt;")


def _fmt_px(v: float) -> str:
    return format(v, ".2f")


def line_chart(
    series,
    x_label: str,
    y_label: str,
    title: str,
) -> str:
    """Render the series into an SVG document string.

    The title, axis labels and series labels are plain text; characters
    that XML reserves (``<``, ``&``, ``>``) are escaped.
    """
    series = list(series)
    if not series:
        raise ValueError("at least one series is required")
    for s in series:
        if not isinstance(s, Series):
            raise TypeError(f"expected Series, got {type(s).__name__}")

    xs = np.concatenate([np.asarray(s.x) for s in series])
    lo_y, hi_y = [], []
    for s in series:
        y = np.asarray(s.y)
        err = np.asarray(s.y_err)
        lo_y.append((y - err).min())
        hi_y.append((y + err).max())
    x_lo, x_hi = _widened(float(xs.min()), float(xs.max()))
    y_lo, y_hi = _widened(float(min(lo_y)), float(max(hi_y)))
    pad_x = 0.05 * (x_hi - x_lo)
    pad_y = 0.05 * (y_hi - y_lo)
    x_lo, x_hi = x_lo - pad_x, x_hi + pad_x
    y_lo, y_hi = y_lo - pad_y, y_hi + pad_y

    left, right, top, bottom = 72, 24, 40, 56
    plot_w = _WIDTH - left - right
    plot_h = _HEIGHT - top - bottom

    def px(x: float) -> float:
        return left + (x - x_lo) / (x_hi - x_lo) * plot_w

    def py(y: float) -> float:
        return top + (y_hi - y) / (y_hi - y_lo) * plot_h

    out = []
    out.append(
        f'<svg xmlns="http://www.w3.org/2000/svg" width="{_WIDTH}" '
        f'height="{_HEIGHT}" viewBox="0 0 {_WIDTH} {_HEIGHT}">'
    )
    out.append(f'<rect width="{_WIDTH}" height="{_HEIGHT}" fill="white"/>')
    out.append(
        f'<text x="{_WIDTH / 2:.0f}" y="24" text-anchor="middle" '
        f'font-family="sans-serif" font-size="16">{_escape(title)}</text>'
    )

    for t in _nice_ticks(x_lo + pad_x, x_hi - pad_x):
        x = px(t)
        out.append(
            f'<line x1="{_fmt_px(x)}" y1="{top}" x2="{_fmt_px(x)}" '
            f'y2="{top + plot_h}" stroke="#dddddd" stroke-width="1"/>'
        )
        out.append(
            f'<text x="{_fmt_px(x)}" y="{top + plot_h + 18}" text-anchor="middle" '
            f'font-family="sans-serif" font-size="11">{_fmt_tick(t)}</text>'
        )
    for t in _nice_ticks(y_lo + pad_y, y_hi - pad_y):
        y = py(t)
        out.append(
            f'<line x1="{left}" y1="{_fmt_px(y)}" x2="{left + plot_w}" '
            f'y2="{_fmt_px(y)}" stroke="#dddddd" stroke-width="1"/>'
        )
        out.append(
            f'<text x="{left - 8}" y="{_fmt_px(y + 4)}" text-anchor="end" '
            f'font-family="sans-serif" font-size="11">{_fmt_tick(t)}</text>'
        )

    # axes on top of the grid
    out.append(
        f'<rect x="{left}" y="{top}" width="{plot_w}" height="{plot_h}" '
        f'fill="none" stroke="#333333" stroke-width="1"/>'
    )
    out.append(
        f'<text x="{left + plot_w / 2:.0f}" y="{_HEIGHT - 12}" text-anchor="middle" '
        f'font-family="sans-serif" font-size="13">{_escape(x_label)}</text>'
    )
    out.append(
        f'<text x="16" y="{top + plot_h / 2:.0f}" text-anchor="middle" '
        f'font-family="sans-serif" font-size="13" '
        f'transform="rotate(-90 16 {top + plot_h / 2:.0f})">{_escape(y_label)}</text>'
    )

    for idx, s in enumerate(series):
        color = _PALETTE[idx % len(_PALETTE)]
        pts = " ".join(
            f"{_fmt_px(px(x))},{_fmt_px(py(y))}" for x, y in zip(s.x, s.y)
        )
        for x, y, e in zip(s.x, s.y, s.y_err):
            if e == 0:
                continue
            cx, y0, y1 = px(x), py(y - e), py(y + e)
            out.append(
                f'<line x1="{_fmt_px(cx)}" y1="{_fmt_px(y0)}" '
                f'x2="{_fmt_px(cx)}" y2="{_fmt_px(y1)}" '
                f'stroke="{color}" stroke-width="1"/>'
            )
            for yy in (y0, y1):
                out.append(
                    f'<line x1="{_fmt_px(cx - 3)}" y1="{_fmt_px(yy)}" '
                    f'x2="{_fmt_px(cx + 3)}" y2="{_fmt_px(yy)}" '
                    f'stroke="{color}" stroke-width="1"/>'
                )
        out.append(
            f'<polyline fill="none" stroke="{color}" stroke-width="1.5" '
            f'points="{pts}"/>'
        )
        for x, y in zip(s.x, s.y):
            out.append(
                f'<circle cx="{_fmt_px(px(x))}" cy="{_fmt_px(py(y))}" r="2.5" '
                f'fill="{color}"/>'
            )

    legend_x = left + plot_w - 150
    legend_y = top + 10
    for idx, s in enumerate(series):
        color = _PALETTE[idx % len(_PALETTE)]
        y = legend_y + 16 * idx
        out.append(
            f'<line x1="{legend_x}" y1="{y}" x2="{legend_x + 22}" y2="{y}" '
            f'stroke="{color}" stroke-width="2"/>'
        )
        out.append(
            f'<text x="{legend_x + 28}" y="{y + 4}" font-family="sans-serif" '
            f'font-size="12">{_escape(s.label)}</text>'
        )

    out.append("</svg>")
    return "\n".join(out) + "\n"


def sweep_chart(
    results, x, x_label: str, title: str, y_label: str = "mean matrix fidelity"
) -> str:
    """Chart sweep cells' matrix fidelity, one line per block size ``m``.

    ``x`` maps a cell to its abscissa; each line's points are sorted by it
    and plot ``fu.mean`` with ``fu.std_error`` as the error bar.
    """
    series = []
    for m in sorted({r.m for r in results}):
        cells = sorted((r for r in results if r.m == m), key=x)
        series.append(
            Series(
                label=f"m = {m}",
                x=tuple(map(x, cells)),
                y=tuple(r.fu.mean for r in cells),
                y_err=tuple(r.fu.std_error for r in cells),
            )
        )
    return line_chart(series, x_label=x_label, y_label=y_label, title=title)


def save_chart(path, svg_text: str) -> None:
    with open(path, "w", encoding="utf-8") as fh:
        fh.write(svg_text)
