import re
import tracemalloc

import numpy as np
import pytest

from ttdbeam.core import ArrayConfig, PsiGrid, SystemConfig, beampattern_of_precoder, precoder_matrix, zero_config
from ttdbeam.hdb import synthesize
from ttdbeam.splitbeam import DirectionMap
from ttdbeam.svgrender import render_config_heatmap, render_summary_charts


def test_heatmap_deterministic(cfg_small):
    a = render_config_heatmap(zero_config(16), cfg_small)
    b = render_config_heatmap(zero_config(16), cfg_small)
    assert a == b


def test_heatmap_grey_levels_match_beampattern(rng):
    # the paper's M = 1200, so the renderer's 150-column limit subsamples
    cfg = SystemConfig(16, 1200, 28e9, 3e9)
    phi = ArrayConfig(rng.uniform(-2e-10, 2e-10, 16), rng.uniform(-np.pi, np.pi, 16))
    svg = render_config_heatmap(phi, cfg)
    rows, cols = 201, np.unique(np.linspace(0, 1199, 150).astype(int))
    gains = beampattern_of_precoder(precoder_matrix(phi, cfg), cfg, PsiGrid.uniform(rows)).gains[:, cols]
    expected = (255.0 * np.clip(np.abs(gains) / np.sqrt(16), 0.0, 1.0)).round().astype(int)
    # expand the run-length rects of the 760-px-wide plot, drawn row by row from psi = +1 down
    plot = svg[svg.index('<g shape-rendering="crispEdges">') : svg.index("</g>")]
    greys = []
    for width, grey in re.findall(r'width="([0-9.]+)" height="[0-9.]+" fill="#([0-9a-f]{2})', plot):
        greys += [int(grey, 16)] * round(float(width) / (760 / cols.size))
    drawn = np.array(greys).reshape(rows, cols.size)[::-1]
    np.testing.assert_array_equal(drawn, expected)


def test_heatmap_memory_does_not_grow_with_the_subcarrier_count():
    # only the drawn columns are formed: the 2**22-column precoder alone would take 64 MiB
    cfg = SystemConfig(1, 2**22, 28e9, 3e9)
    tracemalloc.start()
    try:
        svg = render_config_heatmap(zero_config(1), cfg)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert svg.startswith("<svg") and peak < 8 * 2**20


def test_heatmap_rejects_gains_that_are_not_finite(cfg_small):
    # 2*pi*f*t overflows, so every gain is NaN
    phi = ArrayConfig(np.full(16, 1e300), np.zeros(16))
    with pytest.raises(ValueError, match="gain levels must be finite"):
        with np.errstate(over="ignore", invalid="ignore"):
            render_config_heatmap(phi, cfg_small)


def test_split_config_shows_distinct_bright_rows(small_dict, cfg_dict):
    phi = synthesize(DirectionMap(np.array([-0.5, 0.0, 0.5])), small_dict, cfg_dict)
    svg = render_config_heatmap(phi, cfg_dict)
    # collect near-white cells and bucket their rows; a three-way split
    # pattern must light up at least three well-separated row groups
    ys = set()
    for m in re.finditer(r'y="([0-9.]+)" width="[0-9.]+" height="[0-9.]+" fill="#(f[0-9a-f])\2\2"', svg):
        ys.add(round(float(m.group(1))))
    ys = sorted(ys)
    groups = 1
    for prev, cur in zip(ys, ys[1:]):
        if cur - prev > 20:
            groups += 1
    assert groups >= 3


def test_summary_charts_render():
    summary = {
        "synthesizer": "hdb",
        "n_trials": 10,
        "upper_bound": 7.33,
        "ase_per_subband": [6.5, 6.4, 6.6],
        "ecdf_curve": list(np.linspace(4.0, 7.3, 101)),
    }
    svg = render_summary_charts(summary)
    assert svg.startswith("<svg")
    assert svg == render_summary_charts(dict(summary))
    assert "polyline" in svg
    assert svg.count("<rect") >= 4  # three bars plus frame
