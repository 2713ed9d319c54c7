"""Minimal self-contained SVG line charts of sweep results.

Renders the matrix fidelity of sweep cells, one line with error bars per
block size, into a single SVG string: axes, 1-2-5 tick grids, round
markers, and a legend.  No plotting dependency; output text is
deterministic for identical input.  The CSV files remain the quantitative
record -- these charts are for eyeballing sweeps.
"""

from __future__ import annotations

import math

__all__ = ["save_chart", "sweep_chart"]

_PALETTE = ("#1f77b4", "#d62728", "#2ca02c", "#9467bd", "#ff7f0e", "#8c564b")
_WIDTH = 720
_HEIGHT = 480
_TICKS = 5  # ticks per axis to aim for


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


def sweep_chart(results, x, x_label: str, title: str) -> str:
    """Chart sweep cells' matrix fidelity, one line per block size ``m``.

    ``x`` maps a cell to its abscissa, which must be finite; each line's
    points are sorted by it and plot ``fu.mean`` with ``fu.std_error`` as
    the error bar (none where it is zero).  The title, axis labels and
    line labels are plain text; characters that XML reserves (``<``,
    ``&``, ``>``) are escaped.
    """
    lines = []
    for m in sorted({r.m for r in results}):
        cells = sorted((r for r in results if r.m == m), key=x)
        lines.append((f"m = {m}", [(float(x(r)), r.fu.mean, r.fu.std_error) for r in cells]))
    points = [point for _, line in lines for point in line]
    if not points:
        raise ValueError("at least one sweep result is required")
    if not all(math.isfinite(u) for u, _, _ in points):
        raise ValueError("chart abscissas must be finite")
    x_lo, x_hi = _widened(min(u for u, _, _ in points), max(u for u, _, _ in points))
    y_lo, y_hi = _widened(min(v - e for _, v, e in points), max(v + e for _, v, e in points))
    pad_x = 0.05 * (x_hi - x_lo)
    pad_y = 0.05 * (y_hi - y_lo)
    x_lo, x_hi = x_lo - pad_x, x_hi + pad_x
    y_lo, y_hi = y_lo - pad_y, y_hi + pad_y

    left, right, top, bottom = 72, 24, 40, 56
    plot_w = _WIDTH - left - right
    plot_h = _HEIGHT - top - bottom

    def px(u: float) -> float:
        return left + (u - x_lo) / (x_hi - x_lo) * plot_w

    def py(v: float) -> float:
        return top + (y_hi - v) / (y_hi - y_lo) * plot_h

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
        at = px(t)
        out.append(
            f'<line x1="{_fmt_px(at)}" y1="{top}" x2="{_fmt_px(at)}" '
            f'y2="{top + plot_h}" stroke="#dddddd" stroke-width="1"/>'
        )
        out.append(
            f'<text x="{_fmt_px(at)}" y="{top + plot_h + 18}" text-anchor="middle" '
            f'font-family="sans-serif" font-size="11">{_fmt_tick(t)}</text>'
        )
    for t in _nice_ticks(y_lo + pad_y, y_hi - pad_y):
        at = py(t)
        out.append(
            f'<line x1="{left}" y1="{_fmt_px(at)}" x2="{left + plot_w}" '
            f'y2="{_fmt_px(at)}" stroke="#dddddd" stroke-width="1"/>'
        )
        out.append(
            f'<text x="{left - 8}" y="{_fmt_px(at + 4)}" text-anchor="end" '
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
        f'transform="rotate(-90 16 {top + plot_h / 2:.0f})">mean matrix fidelity</text>'
    )

    for idx, (_, line) in enumerate(lines):
        color = _PALETTE[idx % len(_PALETTE)]
        pts = " ".join(f"{_fmt_px(px(u))},{_fmt_px(py(v))}" for u, v, _ in line)
        for u, v, e in line:
            if e == 0:
                continue
            cx, y0, y1 = px(u), py(v - e), py(v + e)
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
        for u, v, _ in line:
            out.append(
                f'<circle cx="{_fmt_px(px(u))}" cy="{_fmt_px(py(v))}" r="2.5" '
                f'fill="{color}"/>'
            )

    legend_x = left + plot_w - 150
    legend_y = top + 10
    for idx, (label, _) in enumerate(lines):
        color = _PALETTE[idx % len(_PALETTE)]
        y = legend_y + 16 * idx
        out.append(
            f'<line x1="{legend_x}" y1="{y}" x2="{legend_x + 22}" y2="{y}" '
            f'stroke="{color}" stroke-width="2"/>'
        )
        out.append(
            f'<text x="{legend_x + 28}" y="{y + 4}" font-family="sans-serif" '
            f'font-size="12">{_escape(label)}</text>'
        )

    out.append("</svg>")
    return "\n".join(out) + "\n"


def save_chart(path, svg_text: str) -> None:
    with open(path, "w", encoding="utf-8") as fh:
        fh.write(svg_text)
