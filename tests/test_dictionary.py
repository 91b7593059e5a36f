import errno
import os
import struct
import subprocess
import sys
import tempfile
from fractions import Fraction
from pathlib import Path

import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st
from hypothesis.extra import numpy as hnp

from ttdbeam import dictionary as dictionary_module
from ttdbeam import solvers as solvers_module
from ttdbeam.core import (
    ArrayConfig,
    SystemConfig,
    _gain_profile,
    _pattern,
    direction_grid,
    precoder_matrix,
    subcarrier_freqs,
    zero_config,
)
from ttdbeam.dictionary import (
    DictionaryFormatError,
    GeneratorDictionary,
    _build_one,
    _entry_diagnostics,
    _two_subband_fit,
    build_dictionary,
    load,
    offset_grid,
    postprocess_center,
    save,
)
from ttdbeam.hdb import scale_shift
from ttdbeam.solvers import (
    SolverParams,
    default_max_delay,
    delay_grid,
    fold_delay_periods,
    jpta_approx,
)
from ttdbeam.splitbeam import _steering_precoder


def _two_subband_target(delta, cfg):
    """The N x M target a dictionary entry fits: lower half-band steered at 0, upper at delta."""
    return _steering_precoder(np.repeat([0.0, delta], cfg.n_subcarriers // 2), cfg)


class TestOffsetGrid:
    @pytest.mark.parametrize("grid", [direction_grid, offset_grid])
    @pytest.mark.parametrize("size", [1, 0])
    def test_needs_two_directions(self, grid, size):
        with pytest.raises(ValueError, match="direction grid needs at least 2 points"):
            grid(size)

    def test_count_is_2a_minus_1(self):
        assert offset_grid(499).size == 997
        assert offset_grid(2).size == 3

    def test_symmetric_increasing_span(self):
        g = offset_grid(41)
        np.testing.assert_array_equal(g, -g[::-1])
        assert np.all(np.diff(g) > 0)
        assert g[0] == -2.0 and g[-1] == 2.0

    def test_contains_all_pairwise_differences(self):
        a = 11
        dirs = -1.0 + 2.0 * np.arange(a) / (a - 1)
        grid = offset_grid(a)
        for i in range(a):
            for j in range(a):
                assert np.min(np.abs(grid - (dirs[i] - dirs[j]))) < 1e-12


class TestBuild:
    def test_shape_and_zero_entry(self, small_dict, cfg_dict):
        assert small_dict.n_entries == 2 * 41 - 1
        assert small_dict.meta == cfg_dict
        zero_idx = int(np.argmin(np.abs(small_dict.offsets)))
        assert small_dict.offsets[zero_idx] == 0.0
        np.testing.assert_array_equal(small_dict.delays[zero_idx], np.zeros(16))
        np.testing.assert_array_equal(small_dict.phases[zero_idx], np.zeros(16))

    def test_entries_hit_their_targets(self, small_dict, cfg_dict):
        # every within-range entry should beam at 0 and its offset with
        # healthy gain in the corresponding half band
        half = cfg_dict.n_subcarriers // 2
        for i, delta in enumerate(small_dict.offsets):
            if abs(delta) > 1.0 or delta == 0.0:
                continue
            phi = small_dict.config(i)
            g_lo = _gain_profile(phi, 0.0, cfg_dict)[:half]
            g_hi = _gain_profile(phi, float(delta), cfg_dict)[half:]
            assert g_lo.mean() > 0.7 * 4.0
            assert g_hi.mean() > 0.7 * 4.0

    def test_build_determinism_across_workers(self, cfg_dict):
        params = SolverParams(max_delay=default_max_delay(cfg_dict), n_iterations=2, delay_grid_size=8192)
        one = build_dictionary(cfg_dict, 7, params, workers=1)
        two = build_dictionary(cfg_dict, 7, params, workers=2)
        assert one == two
        assert one.build_warnings == two.build_warnings
        assert one.degenerate == two.degenerate

    @given(
        n=st.integers(1, 8),
        m=st.integers(1, 12).map(lambda h: 2 * h),
        a=st.integers(5, 9),  # A > 4 offsets >= 0, so two workers take the process pool
        fc_over_bw=st.sampled_from([0.75, 1.5, 28.0 / 3.0, 25.0]),
    )
    @settings(max_examples=8, deadline=None)
    def test_worker_count_independence_property(self, n, m, a, fc_over_bw):
        cfg = SystemConfig(n, m, fc_over_bw * 3e9, 3e9)
        params = SolverParams(max_delay=default_max_delay(cfg), delay_grid_size=4096)
        one = build_dictionary(cfg, a, params, workers=1)
        two = build_dictionary(cfg, a, params, workers=2)
        assert one == two
        assert one.build_warnings == two.build_warnings
        assert one.degenerate == two.degenerate

    def test_odd_subcarrier_count_rejected(self):
        cfg = SystemConfig(4, 9, 1e9, 1e8)
        with pytest.raises(ValueError):
            build_dictionary(cfg, 5, SolverParams(max_delay=9e-9, n_iterations=1, delay_grid_size=16))


def _wrapped(x):
    return np.abs(np.angle(np.exp(1j * x)))


class TestMirror:
    @pytest.fixture(scope="class", params=[2, 3, 5, 9])
    def built(self, request, cfg_dict):
        params = SolverParams(max_delay=default_max_delay(cfg_dict), delay_grid_size=4096)
        return build_dictionary(cfg_dict, request.param, params, workers=1), params

    def test_rows_negate_bitwise(self, built):
        d, _ = built
        zero = d.direction_grid_size - 1
        for rows in (d.delays, d.phases):
            assert rows[:zero].tobytes() == (-rows[:zero:-1]).tobytes()
            assert rows[zero].tobytes() == np.zeros(16).tobytes()

    @given(
        n=st.integers(1, 4),
        m=st.integers(2, 12).map(lambda h: 2 * h),
        a=st.integers(2, 9),
        fc_over_bw=st.sampled_from([0.75, 1.5, 28.0 / 3.0, 25.0]),
        grid=st.integers(2, 1024),
    )
    @settings(max_examples=100, deadline=None)
    def test_rows_negate_bitwise_property(self, n, m, a, fc_over_bw, grid):
        cfg = SystemConfig(n, m, fc_over_bw * 3e9, 3e9)
        params = SolverParams(max_delay=default_max_delay(cfg), delay_grid_size=grid)
        d = build_dictionary(cfg, a, params, workers=1)
        zero = a - 1
        for rows in (d.delays, d.phases):
            assert rows[:zero].tobytes() == (-rows[:zero:-1]).tobytes()
            assert rows[zero].tobytes() == np.zeros(n).tobytes()

    def test_nonnegative_rows_are_build_one_configs(self, built, cfg_dict):
        d, params = built
        a = d.direction_grid_size
        for i in range(a - 1, 2 * a - 1):
            phi = _build_one(float(d.offsets[i]), cfg_dict, params, a)[0]
            assert d.delays[i].tobytes() == phi.delays.tobytes()
            assert d.phases[i].tobytes() == phi.phases.tobytes()

    def test_warnings_are_per_offset_diagnostics_in_offset_order(self, small_dict, cfg_dict):
        a = small_dict.direction_grid_size
        expected = tuple(
            w
            for i, delta in enumerate(small_dict.offsets)
            if delta != 0.0 and i not in small_dict.degenerate
            for w in _entry_diagnostics(float(delta), small_dict.config(i), cfg_dict, a)[1]
        )
        assert len({w.split(":")[0] for w in expected}) >= 4  # two or more +/- pairs warn
        assert small_dict.build_warnings == expected

    @pytest.mark.parametrize("delta", [0.35, 1.0, 1.55])
    def test_mirrored_row_matches_a_direct_fit(self, small_dict, cfg_dict, delta):
        # fit, fold and re-centre for -delta from scratch, with small_dict's solver
        params = SolverParams(max_delay=default_max_delay(cfg_dict), delay_grid_size=65536)
        i = int(np.argmin(np.abs(small_dict.offsets + delta)))
        neg = float(small_dict.offsets[i])
        assert neg < 0.0
        phi = fold_delay_periods(jpta_approx(_two_subband_target(neg, cfg_dict), params, cfg_dict), cfg_dict)
        direct = postprocess_center(phi, neg, cfg_dict)
        assert np.max(np.abs(direct.delays - small_dict.delays[i])) <= 1e-21
        assert np.max(_wrapped(direct.phases - small_dict.phases[i])) <= 1e-9

    def test_degenerate_offset_flags_both_signs(self, cfg_dict, monkeypatch):
        params = SolverParams(max_delay=default_max_delay(cfg_dict), delay_grid_size=4096)
        normal = build_dictionary(cfg_dict, 9, params, workers=1)
        real = dictionary_module.postprocess_center
        monkeypatch.setattr(
            dictionary_module,
            "postprocess_center",
            lambda phi, delta, cfg: phi if delta == 0.5 else real(phi, delta, cfg),
        )
        built = build_dictionary(cfg_dict, 9, params, workers=1)
        assert built.offsets[6] == -0.5 and built.offsets[10] == 0.5
        assert built.degenerate == (6, 10)
        assert built.delays[6].tobytes() == (-built.delays[10]).tobytes()
        assert built.build_warnings == normal.build_warnings
        assert [w.split(":")[0] for w in built.build_warnings] == [
            "offset -1.000000",
            "offset +1.000000",
        ]

    @pytest.mark.parametrize("delta", [0.05, 0.5, 1.0, 1.9])
    def test_reused_minima_give_fresh_mirror_diagnostics(self, small_dict, cfg_dict, delta):
        # small_dict warns at +-1.0 (peak) and +-1.9 (gain dip), not at 0.05 or 0.5
        params = SolverParams(max_delay=default_max_delay(cfg_dict), delay_grid_size=65536)
        a = small_dict.direction_grid_size
        out, degenerate, mirror_warnings, _ = _build_one(delta, cfg_dict, params, a)
        mirror = ArrayConfig(-out.delays, -out.phases)
        assert not degenerate
        assert mirror_warnings == _entry_diagnostics(-delta, mirror, cfg_dict, a)[1]
        expected = {1.0: ["offset -1.000000: subband 2 peak at"],
                    1.9: ["offset -1.900000: subband 1 gain dips to"]}.get(delta, [])
        assert [w[: len(e)] for w, e in zip(mirror_warnings, expected)] == expected
        assert len(mirror_warnings) == len(expected)


def _random_config(rng, n, cfg):
    period = cfg.n_subcarriers / cfg.bandwidth
    return ArrayConfig(rng.uniform(-period, period, n), rng.uniform(-2 * np.pi, 2 * np.pi, n))


# hashes _gain_profile on fixed configs and a small serial build; run under
# different OPENBLAS_NUM_THREADS, it must print the same digest
_BLAS_HASH_SCRIPT = """
import hashlib
import numpy as np
from ttdbeam.core import ArrayConfig, SystemConfig, _gain_profile
from ttdbeam.dictionary import build_dictionary
from ttdbeam.solvers import SolverParams, default_max_delay

h = hashlib.sha256()
rng = np.random.default_rng(12)
for m in (1200, 120):
    cfg = SystemConfig(16, m, 28e9, 3e9)
    period = m / cfg.bandwidth
    for _ in range(4):
        phi = ArrayConfig(rng.uniform(-period, period, 16), rng.uniform(-2 * np.pi, 2 * np.pi, 16))
        h.update(_gain_profile(phi, rng.uniform(-2.0, 2.0, (3, 1)), cfg).tobytes())
cfg = SystemConfig(16, 120, 28e9, 3e9)
d = build_dictionary(cfg, 9, SolverParams(max_delay=default_max_delay(cfg)), workers=1)
h.update(d.delays.tobytes() + d.phases.tobytes())
h.update(repr((d.build_warnings, d.degenerate)).encode())
print(h.hexdigest())
"""


class TestGainProfile:
    @given(
        n=st.integers(1, 16),
        # Q = 30 by P = 40, Q = 10 by P = 12, and combs whose largest divisor up to sqrt(M) is 2 or 1
        m=st.sampled_from([1200, 120, 14, 13]),
        seed=st.integers(0, 2**32 - 1),
    )
    @settings(max_examples=60, deadline=None)
    def test_matches_the_horner_sum(self, n, m, seed):
        cfg = SystemConfig(n, m, 28e9, 3e9)
        rng = np.random.default_rng(seed)
        phi = _random_config(rng, n, cfg)
        f = subcarrier_freqs(cfg)
        # as in test_full_scale_comb_matches_the_direct_sum: delays reach +-M/BW
        max_phase = 2.0 * np.pi * f.max() * np.abs(phi.delays).max()
        tol = 8.0 * np.finfo(np.float64).eps * (1.0 + max_phase)
        # offsets reach +-2, beyond the visible range
        for psi in (float(rng.uniform(-2.0, 2.0)), rng.uniform(-2.0, 2.0, (3, 1))):
            expected = np.abs(_pattern(precoder_matrix(phi, cfg)[::-1], psi, f, cfg.carrier_freq))
            got = _gain_profile(phi, psi, cfg)
            assert got.shape == expected.shape
            assert np.max(np.abs(got - expected)) <= 4.0 * tol

    @given(
        n=st.integers(1, 16),
        m=st.sampled_from([1200, 120, 14, 13]),
        seed=st.integers(0, 2**32 - 1),
    )
    @settings(max_examples=30, deadline=None)
    def test_negated_config_toward_negated_psi_is_bitwise_equal(self, n, m, seed):
        # _build_one reuses an entry's band minima for its mirror entry
        cfg = SystemConfig(n, m, 28e9, 3e9)
        rng = np.random.default_rng(seed)
        phi = _random_config(rng, n, cfg)
        psi = rng.uniform(-2.0, 2.0, (3, 1))
        mirror = ArrayConfig(-phi.delays, -phi.phases)
        assert _gain_profile(mirror, -psi, cfg).tobytes() == _gain_profile(phi, psi, cfg).tobytes()

    def test_bits_do_not_depend_on_blas_threads(self):
        src = str(Path(__file__).resolve().parents[1] / "src")
        path = os.pathsep.join(filter(None, [src, os.environ.get("PYTHONPATH")]))
        digests = []
        for threads in ("1", "2"):
            env = {**os.environ, "OPENBLAS_NUM_THREADS": threads, "PYTHONPATH": path}
            run = subprocess.run([sys.executable, "-c", _BLAS_HASH_SCRIPT], env=env,
                                 capture_output=True, text=True, check=True)
            digests.append(run.stdout)
        assert len(digests[0]) == 65
        assert digests[0] == digests[1]


def _differs_from_line_search(delta, params, cfg):
    """Antennas where the closed-form fit and ``jpta_approx`` of the target pick different delays.

    Every other antenna's phase agrees within 1e-9 rad.  A differing antenna
    must be an exact tie broken by rounding: its correlation with the target
    has the same magnitude, within 1e-12, at both grid delays.  The reference
    sums reduce every phase to exact turns: at grid delay k subcarrier m
    turns m*k*periods/K times, and with periods = p/q (the range in
    correlation periods M/BW, a ratio of small integers here) that is
    (m*k*p mod K*q)/(K*q) in integers, so two aliases of one delay sum to
    the same bits.  The line search's own direct sum rounds its large
    phases, which can part an exact tie by more than 1e-12.
    """
    v = _two_subband_target(delta, cfg)
    ref = jpta_approx(v, params, cfg)
    got = _two_subband_fit(delta, params, cfg)
    differs = got.delays != ref.delays
    assert np.max(_wrapped(got.phases - ref.phases)[~differs], initial=0.0) <= 1e-9
    if differs.any():
        t_grid = delay_grid(params.max_delay, params.delay_grid_size)
        picked = np.stack([got.delays[differs], ref.delays[differs]])
        k = np.searchsorted(t_grid, picked)
        assert t_grid[k].tobytes() == picked.tobytes()
        periods = params.max_delay * cfg.bandwidth / cfg.n_subcarriers
        p, q = Fraction(periods).limit_denominator(100).as_integer_ratio()
        whole = params.delay_grid_size * q
        turns = (np.arange(1, cfg.n_subcarriers + 1) * k[..., None] * p % whole) / whole
        scores = np.abs(np.sum(v[differs] * np.exp(2j * np.pi * turns), axis=-1))
        np.testing.assert_allclose(scores[0], scores[1], rtol=1e-12)
    return differs


class TestClosedFormFit:
    @given(
        n=st.integers(min_value=1, max_value=16),
        half=st.integers(min_value=2, max_value=160),
        log_k=st.integers(min_value=4, max_value=13),
        ratio=st.floats(min_value=1.05, max_value=40.0, exclude_min=True, exclude_max=True),
        a=st.integers(min_value=2, max_value=60),
        j=st.integers(min_value=0, max_value=59),
        # the delay range in correlation periods M/BW; 1.0 is the default range
        periods=st.sampled_from([0.25, 0.5, 0.9, 1.0, 1.5, 2.0, 3.7]),
    )
    # M = 16, K = 32, fc = 1.5*BW/2, delta = 1.5: antenna 10's correlation has equal
    # magnitude at k = 0 and k = 12, and rounding decides which delay wins
    @example(n=16, half=8, log_k=5, ratio=1.5, a=5, j=3, periods=1.0)
    # two whole periods: every peak is on the grid twice, and rounding picks the alias
    @example(n=16, half=60, log_k=12, ratio=56.0 / 3.0, a=5, j=3, periods=2.0)
    # antenna 1's aliases tie exactly, but the line search's direct sum parts them by 1.7e-12
    @example(n=2, half=78, log_k=4, ratio=33.0, a=3, j=1, periods=2.0)
    @settings(max_examples=150, deadline=None)
    def test_matches_line_search(self, n, half, log_k, ratio, a, j, periods):
        # only fc/BW enters the fit: BW fixes the time scale alone
        cfg = SystemConfig(n, 2 * half, ratio * 0.5e9, 1e9)
        delta = float(offset_grid(a)[a - 1 + j % a])  # an offset >= 0
        params = SolverParams(max_delay=periods * default_max_delay(cfg), delay_grid_size=2**log_k)
        _differs_from_line_search(delta, params, cfg)

    def test_coarse_grid_evaluated_whole(self, cfg_dict):
        # K = 64 < 2M: the grid cannot resolve the main lobes
        params = SolverParams(max_delay=default_max_delay(cfg_dict), delay_grid_size=64)
        for delta in offset_grid(41)[40:]:
            assert not _differs_from_line_search(float(delta), params, cfg_dict).any()

    def test_whole_turn_reduced(self, cfg_dict):
        # antenna 15 has theta + s_n one rounding step off 2*pi here
        params = SolverParams(max_delay=default_max_delay(cfg_dict), delay_grid_size=1024)
        assert not _differs_from_line_search(7.0 / 6.0, params, cfg_dict).any()

    def test_full_scale_offsets(self):
        cfg = SystemConfig(16, 1200, 28e9, 3e9)
        params = SolverParams(max_delay=default_max_delay(cfg), delay_grid_size=65536)
        for delta in offset_grid(499)[498::25]:
            assert not _differs_from_line_search(float(delta), params, cfg).any()

    def test_ties_keep_the_smaller_delay(self, cfg_dict, monkeypatch):
        # flat series: every candidate of an antenna ties, including those left of k = 0 (mod K)
        monkeypatch.setattr(dictionary_module, "_geometric_sum", lambda phi, first, count: np.ones(phi.shape))
        params = SolverParams(max_delay=default_max_delay(cfg_dict), delay_grid_size=65536)
        assert _two_subband_fit(0.5, params, cfg_dict).delays.tobytes() == np.zeros(16).tobytes()

    @pytest.mark.parametrize("periods", [0.5, 1.0, 1.5])
    def test_build_skips_the_line_search(self, cfg_dict, monkeypatch, periods):
        params = SolverParams(max_delay=periods * default_max_delay(cfg_dict), delay_grid_size=4096)
        monkeypatch.setattr(dictionary_module, "jpta_approx", None)
        monkeypatch.setattr(solvers_module, "_correlation_scores", None)
        assert build_dictionary(cfg_dict, 5, params, workers=1).n_entries == 9

    @pytest.mark.parametrize("periods", [0.5, 0.9, 1.5, 3.7])
    def test_other_delay_ranges_match_the_line_search(self, cfg_dict, periods):
        params = SolverParams(max_delay=periods * default_max_delay(cfg_dict), delay_grid_size=4096)
        built = build_dictionary(cfg_dict, 5, params, workers=1)
        for i in range(5, 9):  # offsets 0.5, 1.0, 1.5, 2.0
            delta = float(built.offsets[i])
            fit = fold_delay_periods(jpta_approx(_two_subband_target(delta, cfg_dict), params, cfg_dict), cfg_dict)
            row = postprocess_center(fit, delta, cfg_dict)
            assert built.delays[i].tobytes() == row.delays.tobytes()
            assert np.max(_wrapped(built.phases[i] - row.phases)) <= 1e-9


class TestPostprocessCenter:
    def test_centered_input_near_identity(self, small_dict, cfg_dict):
        # processed entries already have maxima at the subband centers, so a
        # second pass changes nearly nothing
        idx = int(np.argmin(np.abs(small_dict.offsets - 0.5)))
        phi = small_dict.config(idx)
        again = postprocess_center(phi, float(small_dict.offsets[idx]), cfg_dict)
        assert np.max(np.abs(again.delays - phi.delays)) < 0.2 * np.max(np.abs(phi.delays))

    def test_quarter_band_distance_doubles_bandwidth(self, small_dict, cfg_dict):
        # squeeze a centered entry onto half the band: maxima land M/4 apart,
        # and re-centering must then double the bandwidth (halve the delays)
        idx = int(np.argmin(np.abs(small_dict.offsets - 0.5)))
        delta = float(small_dict.offsets[idx])
        phi = small_dict.config(idx)
        squeezed = scale_shift(phi, cfg_dict.carrier_freq, cfg_dict.bandwidth / 2.0, cfg_dict)
        m1 = int(np.argmax(_gain_profile(squeezed, 0.0, cfg_dict)))
        m2 = int(np.argmax(_gain_profile(squeezed, delta, cfg_dict)))
        assert abs(abs(m2 - m1) - cfg_dict.n_subcarriers // 4) <= 2
        recentered = postprocess_center(squeezed, delta, cfg_dict)
        np.testing.assert_allclose(recentered.delays, squeezed.delays / 2.0, rtol=1e-12)

    def test_maxima_at_subband_centers(self, small_dict, cfg_dict):
        m_count = cfg_dict.n_subcarriers
        idx = int(np.argmin(np.abs(small_dict.offsets - 0.7)))
        delta = float(small_dict.offsets[idx])
        phi = small_dict.config(idx)
        m1 = int(np.argmax(_gain_profile(phi, 0.0, cfg_dict))) + 1
        m2 = int(np.argmax(_gain_profile(phi, delta, cfg_dict))) + 1
        assert abs(m1 - m_count // 4) <= 2
        assert abs(m2 - 3 * m_count // 4) <= 2

    def test_degenerate_returned_unchanged(self):
        cfg = SystemConfig(1, 4, 1e9, 1e8)
        phi = zero_config(1)
        out = postprocess_center(phi, 0.5, cfg)
        np.testing.assert_array_equal(out.delays, phi.delays)
        np.testing.assert_array_equal(out.phases, phi.phases)


class TestLookup:
    def test_exact_hit(self, small_dict):
        delta = float(small_dict.offsets[13])
        phi = small_dict.lookup(delta)
        np.testing.assert_array_equal(phi.delays, small_dict.delays[13])

    def test_zero_maps_to_zero_config(self, small_dict):
        phi = small_dict.lookup(0.0)
        np.testing.assert_array_equal(phi.delays, np.zeros(16))

    def test_midpoint_tie_takes_lower(self, cfg_dict):
        # offset_grid(5) steps by 0.5, so 0.25 is an exact tie between 0.0 and 0.5
        handmade = GeneratorDictionary(
            offsets=offset_grid(5),
            delays=np.zeros((9, 16)),
            phases=np.arange(9 * 16, dtype=float).reshape(9, 16),
            meta=cfg_dict,
            direction_grid_size=5,
        )
        assert handmade.offsets[4] == 0.0 and handmade.offsets[5] == 0.5
        phi = handmade.lookup(0.25)
        np.testing.assert_array_equal(phi.phases, handmade.phases[4])

    def test_range_validation(self, small_dict):
        with pytest.raises(ValueError):
            small_dict.lookup(2.5)

    @pytest.mark.parametrize("source", ["file", "build"])
    def test_entries_are_read_only_views_of_the_table(self, small_dict, tmp_path, source):
        if source == "file":
            save(small_dict, tmp_path / "gen.ttdd")
            table = load(tmp_path / "gen.ttdd")
        else:
            table = small_dict
        for i, delta in enumerate(table.offsets.tolist()):
            for phi in (table.config(i), table.lookup(delta)):
                for got, rows in ((phi.delays, table.delays), (phi.phases, table.phases)):
                    assert np.shares_memory(got, rows)
                    with pytest.raises(ValueError, match="read-only"):
                        got[0] = 1.0
                copied = ArrayConfig(table.delays[i], table.phases[i])
                assert phi.delays.tobytes() == copied.delays.tobytes()
                assert phi.phases.tobytes() == copied.phases.tobytes()
                assert phi.delays.dtype == copied.delays.dtype and phi.n_antennas == copied.n_antennas

    @pytest.mark.parametrize("a", [2, 3, 5, 41, 61, 499])
    def test_index_is_the_argmin(self, a):
        # row i holds phase i, so a served row names its index
        d = 2 * a - 1
        rows = np.arange(d, dtype=float)[:, None]
        table = GeneratorDictionary(offset_grid(a), np.zeros((d, 1)), rows, SystemConfig(1, 4, 28e9, 3e9), a)
        offsets = table.offsets
        mids = (offsets[:-1] + offsets[1:]) / 2.0
        probes = np.concatenate([
            offsets,
            mids,
            np.nextafter(mids, -np.inf),
            np.nextafter(mids, np.inf),
            [-2.0, 2.0],
            np.random.default_rng(a).uniform(-2.0, 2.0, 2000),
        ])
        for delta in probes.tolist():
            expected = int(np.argmin(np.abs(offsets - delta)))
            assert table.index(delta) == expected, delta
            assert table.lookup(delta).phases.tobytes() == rows[expected].tobytes()

    @pytest.mark.parametrize("delta", [np.nan, np.inf, -np.inf, 2.0000001, -2.5])
    def test_index_rejects_out_of_range(self, small_dict, delta):
        with pytest.raises(ValueError, match=r"offset must lie in \[-2, 2\]"):
            small_dict.index(delta)
        with pytest.raises(ValueError, match=r"offset must lie in \[-2, 2\]"):
            small_dict.lookup(delta)


class TestPersistence:
    def test_round_trip_bitwise(self, small_dict, tmp_path):
        path = tmp_path / "gen.ttdd"
        save(small_dict, path)
        loaded = load(path)
        assert loaded == small_dict
        assert loaded.offsets.tobytes() == small_dict.offsets.tobytes()
        assert loaded.delays.tobytes() == small_dict.delays.tobytes()
        assert loaded.phases.tobytes() == small_dict.phases.tobytes()

    def test_unequal_to_a_non_dictionary(self, small_dict):
        assert small_dict != object()

    def test_sidecar_written(self, small_dict, tmp_path):
        import json

        path = tmp_path / "gen.ttdd"
        save(small_dict, path)
        doc = json.loads((tmp_path / "gen.ttdd.json").read_text())
        assert doc["magic"] == "TTDD"
        assert doc["d"] == small_dict.n_entries
        assert doc["n"] == 16

    def test_file_size(self, small_dict, tmp_path):
        path = tmp_path / "gen.ttdd"
        save(small_dict, path)
        d = small_dict.n_entries
        assert path.stat().st_size == 40 + d * 8 + d * 2 * 16 * 8

    def test_truncated_rejected(self, small_dict, tmp_path):
        path = tmp_path / "gen.ttdd"
        save(small_dict, path)
        blob = path.read_bytes()
        path.write_bytes(blob[:-17])
        with pytest.raises(DictionaryFormatError):
            load(path)

    def test_bad_magic_rejected(self, small_dict, tmp_path):
        path = tmp_path / "gen.ttdd"
        save(small_dict, path)
        blob = bytearray(path.read_bytes())
        blob[:4] = b"NOPE"
        path.write_bytes(bytes(blob))
        with pytest.raises(DictionaryFormatError):
            load(path)

    def test_bad_version_rejected(self, small_dict, tmp_path):
        path = tmp_path / "gen.ttdd"
        save(small_dict, path)
        blob = bytearray(path.read_bytes())
        blob[4] = 99
        path.write_bytes(bytes(blob))
        with pytest.raises(DictionaryFormatError):
            load(path)

    def test_short_file_rejected(self, tmp_path):
        path = tmp_path / "gen.ttdd"
        path.write_bytes(b"TTDD")
        with pytest.raises(DictionaryFormatError):
            load(path)

    @pytest.mark.parametrize(
        "pos, fmt, value",
        [
            (40, "<d", float("nan")),  # NaN first offset
            (40 + 8 * 40, "<d", 1e-300),  # zero offset off the grid by a hair
            (12, "<i", 42),  # A no longer matches D = 2A - 1
            (24, "<d", 1e9),  # fc < BW/2: no valid system
            (40 + 8 * 81 + 8 * 5, "<d", float("inf")),  # non-finite delay in row 0
        ],
        ids=["nan_offset", "off_grid_offset", "entry_count", "invalid_system", "nonfinite_row"],
    )
    def test_inconsistent_content_rejected(self, small_dict, tmp_path, pos, fmt, value):
        path = tmp_path / "gen.ttdd"
        save(small_dict, path)
        blob = bytearray(path.read_bytes())
        struct.pack_into(fmt, blob, pos, value)
        path.write_bytes(bytes(blob))
        with pytest.raises(DictionaryFormatError):
            load(path)

    @pytest.mark.parametrize("failing", ["gen.ttdd", "gen.ttdd.json"])
    def test_failed_write_keeps_previous_files(self, small_dict, cfg_dict, tmp_path, monkeypatch, failing):
        path = tmp_path / "gen.ttdd"
        previous = GeneratorDictionary(
            offsets=offset_grid(2), delays=np.zeros((3, 16)), phases=np.zeros((3, 16)),
            meta=cfg_dict, direction_grid_size=2,
        )
        save(previous, path)
        assert sorted(p.name for p in tmp_path.iterdir()) == ["gen.ttdd", "gen.ttdd.json"]
        before = {p.name: p.read_bytes() for p in tmp_path.iterdir()}

        class DiskFull:
            """A file that takes half of the first write, then runs out of space."""

            def __init__(self, fh):
                self.fh = fh

            def write(self, data):
                self.fh.write(data[: len(data) // 2])
                raise OSError(errno.ENOSPC, "No space left on device")

            def __enter__(self):
                return self

            def __exit__(self, *exc):
                self.fh.close()

        def open_failing(file, mode="r", *args, **kwargs):
            fh = open(file, mode, *args, **kwargs)
            # the write of ``failing``, whatever temporary name it goes through
            target = os.path.basename(file)
            if target != failing:
                target = target.rsplit(".", 2)[0]
            return DiskFull(fh) if target == failing else fh

        monkeypatch.setattr(dictionary_module, "open", open_failing, raising=False)
        with pytest.raises(OSError):
            save(small_dict, path)
        assert {p.name: p.read_bytes() for p in tmp_path.iterdir()} == before

    @given(
        a=st.integers(min_value=2, max_value=12),
        n=st.integers(min_value=1, max_value=4),
        data=st.data(),
    )
    @settings(max_examples=60, deadline=None)
    def test_save_load_identity(self, a, n, data):
        # the constructor takes phases of at most 2**42 rad, and delays whose phase is at most
        # 2**42 rad, 23.7 s at this carrier
        elements = (st.floats(-23.0, 23.0), st.floats(-(2.0**42), 2.0**42))
        rows = [data.draw(hnp.arrays(np.float64, (2 * a - 1, n), elements=e)) for e in elements]
        built = GeneratorDictionary(offset_grid(a), *rows, SystemConfig(n, 8, 28e9, 3e9), a)
        with tempfile.TemporaryDirectory() as tmp:
            path = os.path.join(tmp, "gen.ttdd")
            save(built, path)
            loaded = load(path)
        assert loaded == built
        for name in ("offsets", "delays", "phases"):
            assert getattr(loaded, name).tobytes() == getattr(built, name).tobytes()

    def test_rerun_same_bytes(self, cfg_dict, tmp_path):
        params = SolverParams(max_delay=default_max_delay(cfg_dict), n_iterations=2, delay_grid_size=4096)
        p1, p2 = tmp_path / "a.ttdd", tmp_path / "b.ttdd"
        save(build_dictionary(cfg_dict, 5, params), p1)
        save(build_dictionary(cfg_dict, 5, params), p2)
        assert p1.read_bytes() == p2.read_bytes()


class TestValidation:
    @staticmethod
    def _make(cfg, a=2, offsets=None, delays=None, phases=None):
        offsets = offset_grid(a) if offsets is None else offsets
        delays = np.zeros((offsets.size, 16)) if delays is None else delays
        phases = np.zeros(delays.shape) if phases is None else phases
        return GeneratorDictionary(offsets=offsets, delays=delays, phases=phases, meta=cfg, direction_grid_size=a)

    def test_monotone_offsets_required(self, cfg_dict):
        swapped = offset_grid(2)[[1, 0, 2]]
        with pytest.raises(ValueError, match="offset grid"):
            self._make(cfg_dict, offsets=swapped)

    @pytest.mark.parametrize("field", ["offsets", "delays"])
    def test_non_finite_values_rejected(self, cfg_dict, field):
        arrays = {"offsets": offset_grid(2), "delays": np.zeros((3, 16))}
        arrays[field][0] = np.nan
        reason = "offset grid" if field == "offsets" else "finite"
        with pytest.raises(ValueError, match=reason):
            self._make(cfg_dict, **arrays)

    @pytest.mark.parametrize("scale, ok", [(0.999, True), (-0.999, True), (1.001, False), (-1.001, False)])
    def test_delay_phase_bound(self, cfg_dict, tmp_path, scale, ok):
        # the bound of config JSON: a delay phase 2*pi*(fc + BW/2)*max|t| of at most 2**42 rad
        delays = np.zeros((3, 16))
        delays[2, 5] = scale * 2**42 / (2.0 * np.pi * (cfg_dict.carrier_freq + cfg_dict.bandwidth / 2.0))
        if ok:
            path = tmp_path / "gen.ttdd"
            save(self._make(cfg_dict, delays=delays), path)
            assert load(path).delays.tobytes() == delays.tobytes()
            return
        with pytest.raises(ValueError, match=r"beyond the bound of 2\*\*42 rad"):
            self._make(cfg_dict, delays=delays)
        path = tmp_path / "gen.ttdd"
        save(self._make(cfg_dict), path)
        blob = bytearray(path.read_bytes())
        row = 40 + 3 * 8 + 2 * 32 * 8  # header, 3 offsets, then row 2 of (16 delays, 16 phases)
        blob[row + 5 * 8 : row + 6 * 8] = delays[2, 5:6].astype("<f8").tobytes()
        path.write_bytes(bytes(blob))
        with pytest.raises(DictionaryFormatError, match="beyond the bound"):
            load(path)

    @pytest.mark.parametrize("phase, ok", [(2.0**42, True), (-(2.0**42), True), (np.nextafter(2.0**42, 0.0), True),
                                           (np.nextafter(2.0**42, np.inf), False), (-1e308, False)])
    def test_row_phase_bound(self, cfg_dict, tmp_path, phase, ok):
        # rows within 2**42 rad: a rescaled row then stays within 3 * 2**42 rad, and no generator sum overflows
        phases = np.zeros((3, 16))
        phases[1, 7] = phase
        path = tmp_path / "gen.ttdd"
        if ok:
            save(self._make(cfg_dict, phases=phases), path)
            assert load(path).phases.tobytes() == phases.tobytes()
            return
        with pytest.raises(ValueError, match=r"row phases reach .* beyond the bound of 2\*\*42 rad"):
            self._make(cfg_dict, phases=phases)
        save(self._make(cfg_dict), path)
        blob = bytearray(path.read_bytes())
        row = 40 + 3 * 8 + 1 * 32 * 8  # header, 3 offsets, then row 1 of (16 delays, 16 phases)
        blob[row + (16 + 7) * 8 : row + (16 + 8) * 8] = phases[1, 7:8].astype("<f8").tobytes()
        path.write_bytes(bytes(blob))
        with pytest.raises(DictionaryFormatError, match="row phases reach"):
            load(path)

    def test_config_shape_checked(self, cfg_dict):
        with pytest.raises(ValueError, match="config arrays"):
            self._make(cfg_dict, delays=np.zeros((3, 3)))

    @pytest.mark.parametrize(
        "a, offsets",
        [
            (2, np.array([0.0, 0.5])),  # increasing, but D != 2A - 1
            (2, np.array([-1.0, 0.0, 1.0])),  # D = 2A - 1, but not the grid
            (2, offset_grid(3)),  # the grid of another A
            (3, np.nextafter(offset_grid(3), 3.0)),  # one ulp off
            (2, np.array([-2.0, -0.0, 2.0])),  # -0.0 is not bitwise the grid
            (2**40, offset_grid(2)),  # refused before the 2**41-point grid is built
        ],
        ids=["entry_count", "off_grid", "other_grid", "one_ulp", "negative_zero", "huge_a"],
    )
    def test_offsets_must_be_the_grid(self, cfg_dict, a, offsets):
        with pytest.raises(ValueError, match="offset grid"):
            self._make(cfg_dict, a=a, offsets=offsets)
