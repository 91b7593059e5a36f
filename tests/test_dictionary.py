import errno
import os
import struct

import numpy as np
import pytest

from ttdbeam import dictionary as dictionary_module
from ttdbeam.core import SystemConfig, zero_config
from ttdbeam.dictionary import (
    DictionaryFormatError,
    GeneratorDictionary,
    _gain_profile,
    build_dictionary,
    load,
    offset_grid,
    postprocess_center,
    save,
)
from ttdbeam.hdb import scale_shift
from ttdbeam.solvers import SolverParams, default_max_delay


class TestOffsetGrid:
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

    def test_odd_subcarrier_count_rejected(self):
        cfg = SystemConfig(4, 9, 1e9, 1e8)
        with pytest.raises(ValueError):
            build_dictionary(cfg, 5, SolverParams(max_delay=9e-9, n_iterations=1, delay_grid_size=16))


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
        # exactly representable offsets so the midpoint is a true tie
        handmade = GeneratorDictionary(
            offsets=np.array([0.0, 0.25, 0.75]),
            delays=np.arange(3 * 16, dtype=float).reshape(3, 16),
            phases=np.zeros((3, 16)),
            meta=cfg_dict,
            direction_grid_size=2,
        )
        phi = handmade.lookup(0.5)
        np.testing.assert_array_equal(phi.delays, handmade.delays[1])

    def test_range_validation(self, small_dict):
        with pytest.raises(ValueError):
            small_dict.lookup(2.5)


class TestPersistence:
    def test_round_trip_bitwise(self, small_dict, tmp_path):
        path = tmp_path / "gen.ttdd"
        save(small_dict, path)
        loaded = load(path)
        assert loaded == small_dict
        assert loaded.offsets.tobytes() == small_dict.offsets.tobytes()
        assert loaded.delays.tobytes() == small_dict.delays.tobytes()
        assert loaded.phases.tobytes() == small_dict.phases.tobytes()

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

    def test_rerun_same_bytes(self, cfg_dict, tmp_path):
        params = SolverParams(max_delay=default_max_delay(cfg_dict), n_iterations=2, delay_grid_size=4096)
        p1, p2 = tmp_path / "a.ttdd", tmp_path / "b.ttdd"
        save(build_dictionary(cfg_dict, 5, params), p1)
        save(build_dictionary(cfg_dict, 5, params), p2)
        assert p1.read_bytes() == p2.read_bytes()


class TestValidation:
    def test_monotone_offsets_required(self, cfg_dict):
        with pytest.raises(ValueError):
            GeneratorDictionary(
                offsets=np.array([0.1, 0.1]),
                delays=np.zeros((2, 16)),
                phases=np.zeros((2, 16)),
                meta=cfg_dict,
                direction_grid_size=2,
            )

    @pytest.mark.parametrize("field", ["offsets", "delays"])
    def test_non_finite_values_rejected(self, cfg_dict, field):
        arrays = {"offsets": np.array([0.0, 0.5]), "delays": np.zeros((2, 16))}
        arrays[field][0] = np.nan
        with pytest.raises(ValueError):
            GeneratorDictionary(phases=np.zeros((2, 16)), meta=cfg_dict, direction_grid_size=2, **arrays)

    def test_config_shape_checked(self, cfg_dict):
        with pytest.raises(ValueError):
            GeneratorDictionary(
                offsets=np.array([0.0, 0.5]),
                delays=np.zeros((2, 3)),
                phases=np.zeros((2, 3)),
                meta=cfg_dict,
                direction_grid_size=2,
            )
