"""Static SVG figures for configs and evaluation summaries.

Emits plain SVG markup with fixed formatting so identical inputs produce
identical bytes; no plotting library involved.  Every element comes from
one writer, which XML-escapes its text.
"""

from __future__ import annotations

import re

import numpy as np

from .core import ArrayConfig, SystemConfig, _column_patterns, _is_json_number, _require_antennas, direction_grid

__all__ = ["render_config_heatmap", "render_summary_charts"]

_W, _H = 860, 560
_ML, _MT, _MR, _MB = 70, 40, 30, 50
_PSI_ROWS, _MAX_COLS = 201, 150  # heatmap directions, and its subcarrier column limit
_NOT_XML = re.compile("[^\t\n\r\x20-\ud7ff\ue000-\ufffd\U00010000-\U0010ffff]")  # not an XML 1.0 Char


def _el(tag: str, text=None, **attrs) -> str:
    """One element: attributes in the order given, ``a_b`` written ``a-b``; the text XML-escaped.

    ValueError when the text holds a character that XML 1.0 has no form for, escaped or not.
    """
    head = " ".join([tag, *(f'{k.replace("_", "-")}="{v}"' for k, v in attrs.items())])
    if text is None:
        return f"<{head}/>"
    text = str(text)
    if _NOT_XML.search(text):
        raise ValueError(f"text {text!r} holds a character XML cannot carry")
    # the escapes of xml.sax.saxutils.escape, "&" first; importing it would pull in urllib
    return f"<{head}>{text.replace('&', '&amp;').replace('<', '&lt;').replace('>', '&gt;')}</{tag}>"


def _label(x, y, text, size: int, anchor: str = "middle") -> str:
    return _el("text", text, x=x, y=y, text_anchor=anchor, font_family="sans-serif", font_size=size)


def _header(title: str) -> list[str]:
    return [
        f'<svg xmlns="http://www.w3.org/2000/svg" width="{_W}" height="{_H}" viewBox="0 0 {_W} {_H}">',
        _el("rect", width=_W, height=_H, fill="#ffffff"),
        _label(f"{_W / 2:.1f}", 24, title, 15),
    ]


def render_config_heatmap(phi: ArrayConfig, cfg: SystemConfig) -> str:
    """Gain-magnitude heatmap: direction vertical, subcarrier horizontal.

    Linear magnitude maps to grayscale, white at the full array gain.
    Rows are 201 uniform directions; subcarriers are subsampled to at most
    150 columns, each evaluated at its true frequency; only their weights
    are formed, whatever M.  ValueError when a gain is not finite.
    """
    _require_antennas(phi, cfg)
    cols = np.unique(
        np.linspace(0, cfg.n_subcarriers - 1, min(_MAX_COLS, cfg.n_subcarriers)).astype(int)
    )
    gains = _column_patterns(phi.delays, phi.phases, cols, direction_grid(_PSI_ROWS), cfg)
    level = np.clip(np.abs(gains.T) / np.sqrt(cfg.n_antennas), 0.0, 1.0)
    if not np.isfinite(level).all():
        raise ValueError("gain levels must be finite")

    plot_w = _W - _ML - _MR
    plot_h = _H - _MT - _MB
    cell_w = plot_w / cols.size
    cell_h = plot_h / _PSI_ROWS
    out = _header(f"gain magnitude, N={cfg.n_antennas}, M={cfg.n_subcarriers}")
    out.append('<g shape-rendering="crispEdges">')
    # up to 30 150 cells share one _el template; an _el call per cell would double the render time
    cell = _el("rect", x="{0:.2f}", y="{1:.2f}", width="{2:.2f}", height=f"{cell_h + 0.5:.2f}",
               fill="#{3:02x}{3:02x}{3:02x}")
    # rows drawn top-down from psi = +1, one rect per run of equal greys
    for r, greys in enumerate((255.0 * level[::-1]).round().astype(int).tolist()):
        edges = np.flatnonzero(np.diff(greys, prepend=-1, append=-1)).tolist()
        out += [cell.format(_ML + c * cell_w, _MT + r * cell_h, (end - c) * cell_w, greys[c])
                for c, end in zip(edges, edges[1:])]
    out.append("</g>")
    mid = f"{_MT + plot_h / 2:.1f}"
    out.append(_el("text", "direction (sine space)", x=16, y=mid, font_family="sans-serif", font_size=12,
                   transform=f"rotate(-90 16 {mid})", text_anchor="middle"))
    out.append(_label(f"{_ML + plot_w / 2:.1f}", _H - 14, "subcarrier", 12))
    for psi, label in ((1.0, "+1"), (0.0, "0"), (-1.0, "-1")):
        out.append(_label(_ML - 8, f"{_MT + (1.0 - psi) / 2.0 * plot_h + 4:.1f}", label, 11, "end"))
    out.append("</svg>")
    return "\n".join(out) + "\n"


def render_summary_charts(summary: dict) -> str:
    """Per-subband ASE bars plus the SE distribution polyline from a summary; ValueError if malformed."""
    ase, curve, bound = (summary[key] for key in ("ase_per_subband", "ecdf_curve", "upper_bound"))
    if not (isinstance(ase, list) and isinstance(curve, list) and all(map(_is_json_number, [*ase, *curve, bound]))):
        raise ValueError("ase_per_subband and ecdf_curve must be lists of numbers, and upper_bound a number")
    ase, curve, bound = [float(v) for v in ase], [float(v) for v in curve], float(bound)
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
        out += [
            _el("rect", x=f"{x:.2f}", y=f"{y0 + panel_h - h:.2f}", width=f"{bar_w:.2f}", height=f"{h:.2f}",
                fill="#4878a8"),
            _label(f"{x + bar_w / 2:.2f}", f"{y0 + panel_h + 16:.1f}", i + 1, 11),
            _label(f"{x + bar_w / 2:.2f}", f"{y0 + panel_h - h - 6:.2f}", f"{val:.2f}", 10),
        ]
    yb = y0 + panel_h - bound / top * panel_h
    out.append(_el("line", x1=x0, y1=f"{yb:.2f}", x2=f"{x0 + panel_w:.2f}", y2=f"{yb:.2f}", stroke="#c04040",
                   stroke_dasharray="6 3"))
    out.append(_el("text", f"upper bound {bound:.2f}", x=x0, y=f"{yb - 6:.2f}", font_family="sans-serif",
                   font_size=10, fill="#c04040"))
    out.append(_label(f"{x0 + panel_w / 2:.1f}", _H - 14, "ASE per subband (bps/Hz)", 12))

    # right panel: ECDF polyline
    x1 = _ML + panel_w + 60
    pts = " ".join(f"{x1 + (val - lo) / span * panel_w:.2f},{y0 + panel_h - i / (len(curve) - 1) * panel_h:.2f}"
                   for i, val in enumerate(curve))
    out.append(_el("polyline", points=pts, fill="none", stroke="#2a7a2a", stroke_width=1.5))
    out.append(_el("rect", x=f"{x1:.2f}", y=f"{y0:.2f}", width=f"{panel_w:.2f}", height=f"{panel_h:.2f}",
                   fill="none", stroke="#888888"))
    out.append(_label(f"{x1 + panel_w / 2:.1f}", _H - 14, f"SE distribution: {lo:.2f} to {hi:.2f} bps/Hz", 12))
    out.append("</svg>")
    return "\n".join(out) + "\n"
