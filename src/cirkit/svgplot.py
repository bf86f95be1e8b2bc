"""Self-contained SVG emission for PDP comparison plots.

Hand-rolled polylines and axes instead of a plotting framework so the
artifact bytes are reproducible and the package carries no plotting
dependency.
"""

from __future__ import annotations

import numpy as np

from . import io
from .analysis import _FLOOR_DB, PowerDelayProfile, _clamped_db
from .errors import ValidationError

_WIDTH, _HEIGHT = 720, 420
_MARGIN_L, _MARGIN_R, _MARGIN_T, _MARGIN_B = 64, 24, 28, 48
_COLORS = ("#1f77b4", "#d62728")


def _ticks(lo: float, hi: float, count: int = 6) -> list[float]:
    if hi <= lo:
        hi = lo + 1.0
    return np.linspace(lo, hi, count).tolist()


def write_pdp_comparison_svg(path, profiles: list[tuple[str, PowerDelayProfile]]) -> None:
    """Render labelled PDPs as dB-versus-microseconds polylines."""
    if not profiles:
        raise ValidationError("nothing to plot")
    x_max = max(float(p.delays_s[-1]) * 1e6 for _, p in profiles)
    x_max = max(x_max, 1e-3)
    y_lo, y_hi = _FLOOR_DB, 0.0

    plot_w = _WIDTH - _MARGIN_L - _MARGIN_R
    plot_h = _HEIGHT - _MARGIN_T - _MARGIN_B

    # sx and sy map a number or, element by element, an array
    def sx(us):
        return _MARGIN_L + plot_w * us / x_max

    def sy(db):
        return _MARGIN_T + plot_h * (y_hi - db) / (y_hi - y_lo)

    parts = [
        f'<svg xmlns="http://www.w3.org/2000/svg" width="{_WIDTH}" height="{_HEIGHT}" '
        f'viewBox="0 0 {_WIDTH} {_HEIGHT}">',
        f'<rect width="{_WIDTH}" height="{_HEIGHT}" fill="white"/>',
        f'<text x="{_WIDTH / 2:.1f}" y="18" text-anchor="middle" '
        f'font-family="sans-serif" font-size="13">Measured vs simulated PDP</text>',
    ]
    # frame and grid
    parts.append(
        f'<rect x="{_MARGIN_L}" y="{_MARGIN_T}" width="{plot_w}" height="{plot_h}" '
        f'fill="none" stroke="black" stroke-width="1"/>'
    )
    for tick in _ticks(0.0, x_max):
        x = sx(tick)
        parts.append(
            f'<line x1="{x:.2f}" y1="{_MARGIN_T + plot_h}" x2="{x:.2f}" '
            f'y2="{_MARGIN_T + plot_h + 5}" stroke="black"/>'
        )
        parts.append(
            f'<text x="{x:.2f}" y="{_MARGIN_T + plot_h + 18}" text-anchor="middle" '
            f'font-family="sans-serif" font-size="10">{tick:.2f}</text>'
        )
    for tick in _ticks(y_lo, y_hi, 7):
        y = sy(tick)
        parts.append(
            f'<line x1="{_MARGIN_L - 5}" y1="{y:.2f}" x2="{_MARGIN_L}" y2="{y:.2f}" stroke="black"/>'
        )
        parts.append(
            f'<text x="{_MARGIN_L - 8}" y="{y + 3:.2f}" text-anchor="end" '
            f'font-family="sans-serif" font-size="10">{tick:.0f}</text>'
        )
    parts.append(
        f'<text x="{_MARGIN_L + plot_w / 2:.1f}" y="{_HEIGHT - 12}" text-anchor="middle" '
        f'font-family="sans-serif" font-size="11">delay [us]</text>'
    )
    parts.append(
        f'<text x="16" y="{_MARGIN_T + plot_h / 2:.1f}" text-anchor="middle" '
        f'font-family="sans-serif" font-size="11" '
        f'transform="rotate(-90 16 {_MARGIN_T + plot_h / 2:.1f})">power [dB]</text>'
    )
    # polylines and legend
    for i, (label, pdp) in enumerate(profiles):
        color = _COLORS[i % len(_COLORS)]
        # the points interleaved into one list of Python floats, which format
        # faster than numpy scalars, to the same text, and all in one call
        xy = np.stack([sx(pdp.delays_s * 1e6), sy(_clamped_db(pdp.powers_linear))], axis=1)
        points = " ".join(["%.2f,%.2f"] * len(xy)) % tuple(xy.ravel().tolist())
        parts.append(
            f'<polyline points="{points}" fill="none" stroke="{color}" stroke-width="1.5"/>'
        )
        ly = _MARGIN_T + 14 + 16 * i
        lx = _MARGIN_L + plot_w - 150
        parts.append(
            f'<line x1="{lx}" y1="{ly - 4}" x2="{lx + 24}" y2="{ly - 4}" '
            f'stroke="{color}" stroke-width="1.5"/>'
        )
        parts.append(
            f'<text x="{lx + 30}" y="{ly}" font-family="sans-serif" font-size="11">{label}</text>'
        )
    parts.append("</svg>")
    io._write_text(path, "\n".join(parts) + "\n")
