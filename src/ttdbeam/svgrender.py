"""Static SVG figures for configs and evaluation summaries.

Emits plain SVG markup with fixed formatting so identical inputs produce
identical bytes; no plotting library involved.
"""

from __future__ import annotations

import numpy as np

from .core import ArrayConfig, SystemConfig, _freqs, _pattern, _precoder_columns, direction_grid

__all__ = ["render_config_heatmap", "render_summary_charts"]

_W, _H = 860, 560
_ML, _MT, _MR, _MB = 70, 40, 30, 50
_PSI_ROWS, _MAX_COLS = 201, 150  # heatmap directions, and its subcarrier column limit


def _header(title: str) -> list[str]:
    return [
        f'<svg xmlns="http://www.w3.org/2000/svg" width="{_W}" height="{_H}" '
        f'viewBox="0 0 {_W} {_H}">',
        f'<rect width="{_W}" height="{_H}" fill="#ffffff"/>',
        f'<text x="{_W / 2:.1f}" y="24" text-anchor="middle" '
        f'font-family="sans-serif" font-size="15">{title}</text>',
    ]


def render_config_heatmap(phi: ArrayConfig, cfg: SystemConfig) -> str:
    """Gain-magnitude heatmap: direction vertical, subcarrier horizontal.

    Linear magnitude maps to grayscale, white at the full array gain.
    Rows are 201 uniform directions; subcarriers are subsampled to at most
    150 columns, each evaluated at its true frequency; only their weights
    are formed, whatever M.  ValueError when a gain is not finite.
    """
    cols = np.unique(
        np.linspace(0, cfg.n_subcarriers - 1, min(_MAX_COLS, cfg.n_subcarriers)).astype(int)
    )
    psi = direction_grid(_PSI_ROWS)
    v = _precoder_columns(phi, cfg, cols)
    gains = _pattern(v[::-1], psi[:, None], _freqs(cfg, cols + 1.0), cfg.carrier_freq)
    level = np.clip(np.abs(gains) / np.sqrt(cfg.n_antennas), 0.0, 1.0)
    if not np.isfinite(level).all():
        raise ValueError("gain levels must be finite")

    plot_w = _W - _ML - _MR
    plot_h = _H - _MT - _MB
    cell_w = plot_w / cols.size
    cell_h = plot_h / _PSI_ROWS
    out = _header(f"gain magnitude, N={cfg.n_antennas}, M={cfg.n_subcarriers}")
    out.append('<g shape-rendering="crispEdges">')
    for r in range(_PSI_ROWS):
        # row r drawn top-down: top row is psi = +1
        y = _MT + r * cell_h
        greys = (255.0 * level[_PSI_ROWS - 1 - r]).round().astype(int)
        c = 0
        while c < cols.size:
            run = c
            while run + 1 < cols.size and greys[run + 1] == greys[c]:
                run += 1
            g = greys[c]
            out.append(
                f'<rect x="{_ML + c * cell_w:.2f}" y="{y:.2f}" '
                f'width="{(run - c + 1) * cell_w:.2f}" height="{cell_h + 0.5:.2f}" '
                f'fill="#{g:02x}{g:02x}{g:02x}"/>'
            )
            c = run + 1
    out.append("</g>")
    out.append(
        f'<text x="16" y="{_MT + plot_h / 2:.1f}" font-family="sans-serif" font-size="12" '
        f'transform="rotate(-90 16 {_MT + plot_h / 2:.1f})" text-anchor="middle">direction (sine space)</text>'
    )
    out.append(
        f'<text x="{_ML + plot_w / 2:.1f}" y="{_H - 14}" text-anchor="middle" '
        f'font-family="sans-serif" font-size="12">subcarrier</text>'
    )
    for psi, label in ((1.0, "+1"), (0.0, "0"), (-1.0, "-1")):
        y = _MT + (1.0 - psi) / 2.0 * plot_h
        out.append(
            f'<text x="{_ML - 8}" y="{y + 4:.1f}" text-anchor="end" '
            f'font-family="sans-serif" font-size="11">{label}</text>'
        )
    out.append("</svg>")
    return "\n".join(out) + "\n"


def render_summary_charts(summary: dict) -> str:
    """Per-subband ASE bars plus the SE distribution polyline from a summary; ValueError if malformed."""
    ase = [float(v) for v in summary["ase_per_subband"]]
    curve = [float(v) for v in summary["ecdf_curve"]]
    bound = float(summary["upper_bound"])
    finite = np.isfinite(ase + curve + [bound]).all()
    # an ASE is a mean of log2(1 + x) >= 0; a negative one would draw a bar of negative height
    if not (ase and min(ase) >= 0.0 and len(curve) >= 2 and bound > 0.0 and finite):
        raise ValueError("a summary needs a non-empty, non-negative ase_per_subband, an ecdf_curve of "
                         "at least 2 points and a positive upper_bound, all finite")
    out = _header(
        f'{summary.get("synthesizer", "?")} summary, {summary.get("n_trials", "?")} trials'
    )

    # left panel: ASE bars against the upper bound
    panel_w = (_W - _ML - _MR) / 2 - 30
    panel_h = _H - _MT - _MB - 30
    x0, y0 = _ML, _MT + 30
    top = max(bound, max(ase)) * 1.05
    heights = [val / top * panel_h for val in ase]
    lo, hi = min(curve), max(max(curve), bound)
    span = (hi - lo) or 1.0
    if not np.isfinite([top, span, *heights]).all():
        raise ValueError("a bar height or the SE span of the summary overflows float64")
    bar_w = panel_w / (len(ase) * 1.5 + 0.5)
    for i, (val, h) in enumerate(zip(ase, heights)):
        x = x0 + (0.5 + 1.5 * i) * bar_w
        out.append(
            f'<rect x="{x:.2f}" y="{y0 + panel_h - h:.2f}" width="{bar_w:.2f}" '
            f'height="{h:.2f}" fill="#4878a8"/>'
        )
        out.append(
            f'<text x="{x + bar_w / 2:.2f}" y="{y0 + panel_h + 16:.1f}" text-anchor="middle" '
            f'font-family="sans-serif" font-size="11">{i + 1}</text>'
        )
        out.append(
            f'<text x="{x + bar_w / 2:.2f}" y="{y0 + panel_h - h - 6:.2f}" text-anchor="middle" '
            f'font-family="sans-serif" font-size="10">{val:.2f}</text>'
        )
    yb = y0 + panel_h - bound / top * panel_h
    out.append(
        f'<line x1="{x0}" y1="{yb:.2f}" x2="{x0 + panel_w:.2f}" y2="{yb:.2f}" '
        f'stroke="#c04040" stroke-dasharray="6 3"/>'
    )
    out.append(
        f'<text x="{x0}" y="{yb - 6:.2f}" font-family="sans-serif" font-size="10" '
        f'fill="#c04040">upper bound {bound:.2f}</text>'
    )
    out.append(
        f'<text x="{x0 + panel_w / 2:.1f}" y="{_H - 14}" text-anchor="middle" '
        f'font-family="sans-serif" font-size="12">ASE per subband (bps/Hz)</text>'
    )

    # right panel: ECDF polyline
    x1 = _ML + panel_w + 60
    pts = []
    for i, val in enumerate(curve):
        q = i / (len(curve) - 1)
        px = x1 + (val - lo) / span * panel_w
        py = y0 + panel_h - q * panel_h
        pts.append(f"{px:.2f},{py:.2f}")
    out.append(
        f'<polyline points="{" ".join(pts)}" fill="none" stroke="#2a7a2a" stroke-width="1.5"/>'
    )
    out.append(
        f'<rect x="{x1:.2f}" y="{y0:.2f}" width="{panel_w:.2f}" height="{panel_h:.2f}" '
        f'fill="none" stroke="#888888"/>'
    )
    out.append(
        f'<text x="{x1 + panel_w / 2:.1f}" y="{_H - 14}" text-anchor="middle" '
        f'font-family="sans-serif" font-size="12">SE distribution: {lo:.2f} to {hi:.2f} bps/Hz</text>'
    )
    out.append("</svg>")
    return "\n".join(out) + "\n"
