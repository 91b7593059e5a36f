import hashlib
import json
import math
import os
import re
import resource
import struct
import subprocess
import sys
import tempfile
import warnings
from pathlib import Path

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from ttdbeam import cli
from ttdbeam.cli import main
from ttdbeam.core import SystemConfig, config_from_json_dict
from ttdbeam.dictionary import build_dictionary, load, offset_grid
from ttdbeam.solvers import SolverParams, constant_direction_config, default_max_delay


def _write_ttdd(path, n, m, fc, bw, a, phase):
    """A version-1 ``.ttdd`` written byte by byte, past the checks of ``save``: zero delays, phases ``phase``."""
    d = 2 * a - 1
    rows = np.hstack([np.zeros((d, n)), np.full((d, n), phase)])
    header = struct.pack("<4siiiiidd", b"TTDD", 1, n, a, d, m, fc, bw)
    path.write_bytes(header + offset_grid(a).astype("<f8").tobytes() + rows.astype("<f8").tobytes())


def _svg_numbers(text):
    """Every token of the SVG's attribute values and text that float() reads, nan and inf included."""
    tokens = []
    for chunk in re.findall(r'="([^"]*)"', text) + re.findall(r">([^<]*)<", text):
        tokens += re.split(r"[\s,():]+", chunk)
    numbers = []
    for token in tokens:
        try:
            numbers.append(float(token))
        except ValueError:
            pass
    return numbers


@pytest.fixture(scope="module")
def built_dict(tmp_path_factory):
    path = tmp_path_factory.mktemp("cli") / "small.ttdd"
    rc = main(
        [
            "dict-build",
            "--n", "16", "--fc", "28e9", "--bw", "3e9", "--m", "48",
            "--grid", "9", "--delay-grid", "8192",
            "--out", str(path),
        ]
    )
    assert rc == 0
    return path


class TestDictBuild:
    def test_entry_count_and_sidecar(self, built_dict, capsys):
        doc = json.loads((built_dict.parent / (built_dict.name + ".json")).read_text())
        assert doc["d"] == 2 * 9 - 1
        assert doc["m"] == 48

    def test_rerun_identical_hash(self, built_dict, tmp_path):
        other = tmp_path / "again.ttdd"
        rc = main(
            [
                "dict-build",
                "--n", "16", "--fc", "28e9", "--bw", "3e9", "--m", "48",
                "--grid", "9", "--delay-grid", "8192",
                "--out", str(other),
            ]
        )
        assert rc == 0
        h1 = hashlib.sha256(built_dict.read_bytes()).hexdigest()
        h2 = hashlib.sha256(other.read_bytes()).hexdigest()
        assert h1 == h2

    def test_minimal_grid(self, tmp_path):
        out = tmp_path / "min.ttdd"
        rc = main(
            [
                "dict-build",
                "--n", "4", "--fc", "28e9", "--bw", "3e9", "--m", "8",
                "--grid", "2", "--delay-grid", "512",
                "--out", str(out),
            ]
        )
        assert rc == 0
        doc = json.loads((tmp_path / "min.ttdd.json").read_text())
        assert doc["d"] == 3

    def test_other_delay_range_matches_the_library_build(self, tmp_path):
        cfg = SystemConfig(16, 48, 28e9, 3e9)
        params = SolverParams(max_delay=0.9 * default_max_delay(cfg), delay_grid_size=8192)
        out = tmp_path / "range.ttdd"
        rc = main(
            [
                "dict-build",
                "--n", "16", "--fc", "28e9", "--bw", "3e9", "--m", "48",
                "--grid", "9", "--delay-grid", "8192", "--tmax-s", repr(params.max_delay),
                "--out", str(out),
            ]
        )
        assert rc == 0
        assert load(out) == build_dictionary(cfg, 9, params)

    def test_reports_degenerate_entries(self, tmp_path, capsys):
        # a 64-point delay search at N=2 leaves entries 3 and 5, at offsets -0.5 and +0.5, degenerate
        rc = main(["dict-build", "--n", "2", "--m", "120", "--fc", "28e9", "--bw", "3e9",
                   "--grid", "5", "--delay-grid", "64", "--out", str(tmp_path / "d.ttdd")])
        assert rc == 0
        out = capsys.readouterr().out
        assert "degenerate entries: 2\n" in out and "fidelity warnings: 6\n" in out


class TestSynth:
    def test_emits_config_json(self, built_dict, tmp_path, capsys):
        out = tmp_path / "cfg.json"
        rc = main(["synth", "--dict", str(built_dict), "--dirs", "-0.4,0.4,-0.1", "--out", str(out)])
        assert rc == 0
        doc = json.loads(out.read_text())
        assert len(doc["delays_s"]) == 16
        assert len(doc["phases_rad"]) == 16
        captured = capsys.readouterr()
        assert "subband 1" in captured.out

    @pytest.mark.parametrize("dirs, error", [("0,-0.6", 0.1), ("0,-0.5", 0.0)])
    def test_reports_snap_error(self, built_dict, tmp_path, capsys, dirs, error):
        # the A = 9 dictionary's offsets are multiples of 0.25: -0.6 snaps to -0.5
        assert main(["synth", "--dict", str(built_dict), "--dirs", dirs, "--out", str(tmp_path / "c.json")]) == 0
        out = capsys.readouterr().out
        assert "generator 1: offset +0.000000, closed form (exact)" in out
        line = next(ln for ln in out.splitlines() if ln.startswith("generator 2:"))
        assert "snapped to -0.500000" in line
        printed = float(line.rsplit("error ", 1)[1])
        assert printed == pytest.approx(error, abs=1e-12) and (printed == 0.0) == (error == 0.0)

    def test_broadside_is_closed_form(self, built_dict, tmp_path):
        out = tmp_path / "cfg0.json"
        assert main(["synth", "--dict", str(built_dict), "--dirs", "0", "--out", str(out)]) == 0
        phi, cfg = config_from_json_dict(json.loads(out.read_text()))
        ref = constant_direction_config(0.0, cfg)
        np.testing.assert_array_equal(phi.delays, ref.delays)

    def test_malformed_dirs_usage_error(self, built_dict, tmp_path):
        with pytest.raises(SystemExit) as exc:
            main(["synth", "--dict", str(built_dict), "--dirs", "0.1,oops", "--out", str(tmp_path / "x.json")])
        assert exc.value.code == 2

    def test_nan_dirs_usage_error(self, built_dict, tmp_path, capsys):
        with pytest.raises(SystemExit) as exc:
            main(["synth", "--dict", str(built_dict), "--dirs", "0.2,nan", "--out", str(tmp_path / "x.json")])
        assert exc.value.code == 2
        assert "directions must lie in [-1, 1]" in capsys.readouterr().err

    def test_empty_dirs_usage_error(self, built_dict, tmp_path, capsys):
        with pytest.raises(SystemExit) as exc:
            main(["synth", "--dict", str(built_dict), "--dirs", ",", "--out", str(tmp_path / "x.json")])
        assert exc.value.code == 2
        assert "direction list is empty" in capsys.readouterr().err

    def test_out_of_range_dirs_usage_error(self, built_dict, tmp_path):
        with pytest.raises(SystemExit) as exc:
            main(["synth", "--dict", str(built_dict), "--dirs", "1.5", "--out", str(tmp_path / "x.json")])
        assert exc.value.code == 2


class TestEval:
    def test_reproducible_bytes(self, built_dict, tmp_path):
        args = [
            "eval", "--dict", str(built_dict), "--ues", "3", "--trials", "5",
            "--seed", "42", "--snr-db", "10",
        ]
        assert main(args + ["--out-prefix", str(tmp_path / "a")]) == 0
        assert main(args + ["--out-prefix", str(tmp_path / "b")]) == 0
        assert (tmp_path / "a.csv").read_bytes() == (tmp_path / "b.csv").read_bytes()
        assert (tmp_path / "a.summary.json").read_bytes() == (tmp_path / "b.summary.json").read_bytes()

    def test_summary_upper_bound(self, built_dict, tmp_path):
        assert (
            main(
                [
                    "eval", "--dict", str(built_dict), "--ues", "2", "--trials", "3",
                    "--seed", "1", "--snr-db", "10", "--out-prefix", str(tmp_path / "u"),
                ]
            )
            == 0
        )
        doc = json.loads((tmp_path / "u.summary.json").read_text())
        assert doc["upper_bound"] == pytest.approx(7.33092, abs=1e-4)
        assert doc["config"]["snr_linear"] == pytest.approx(10.0)

    def test_jpta_synth_choice(self, built_dict, tmp_path):
        rc = main(
            [
                "eval", "--dict", str(built_dict), "--ues", "2", "--trials", "2",
                "--seed", "3", "--synth", "jpta", "--delay-grid", "2048",
                "--out-prefix", str(tmp_path / "j"),
            ]
        )
        assert rc == 0
        doc = json.loads((tmp_path / "j.summary.json").read_text())
        assert doc["synthesizer"] == "jpta"

    def test_hdb_ignores_solver_flags(self, built_dict, tmp_path):
        # hdb never runs the solver, so an invalid jpta grid size does not concern it
        args = ["eval", "--dict", str(built_dict), "--ues", "2", "--trials", "2", "--delay-grid", "1"]
        assert main(args + ["--synth", "hdb", "--out-prefix", str(tmp_path / "h")]) == 0
        assert (tmp_path / "h.csv").read_text().startswith("trial,m,subband,direction,se_bps_hz")
        assert main(args + ["--synth", "jpta", "--out-prefix", str(tmp_path / "j")]) == 2
        assert not (tmp_path / "j.csv").exists()

    def test_iters_flag_removed(self, built_dict, tmp_path):
        with pytest.raises(SystemExit) as exc:
            main(["eval", "--dict", str(built_dict), "--ues", "2", "--iters", "2",
                  "--out-prefix", str(tmp_path / "i")])
        assert exc.value.code == 2


class TestRender:
    def test_config_heatmap_deterministic(self, built_dict, tmp_path):
        cfg_path = tmp_path / "c.json"
        assert main(["synth", "--dict", str(built_dict), "--dirs", "0", "--out", str(cfg_path)]) == 0
        s1, s2 = tmp_path / "one.svg", tmp_path / "two.svg"
        assert main(["render", "--config", str(cfg_path), "--out", str(s1)]) == 0
        assert main(["render", "--config", str(cfg_path), "--out", str(s2)]) == 0
        assert s1.read_bytes() == s2.read_bytes()
        assert s1.read_text().startswith("<svg")

    def test_broadside_bright_band_at_zero(self, built_dict, tmp_path):
        cfg_path = tmp_path / "c.json"
        main(["synth", "--dict", str(built_dict), "--dirs", "0", "--out", str(cfg_path)])
        svg_path = tmp_path / "h.svg"
        main(["render", "--config", str(cfg_path), "--out", str(svg_path)])
        # brightest rects (pure white) should cluster at the vertical middle
        text = svg_path.read_text()
        ys = [float(m.group(1)) for m in re.finditer(r'y="([0-9.]+)" width="[0-9.]+" height="[0-9.]+" fill="#ffffff"', text)]
        assert ys, "no fully-bright cells found"
        heights = [float(m.group(1)) for m in re.finditer(r'<svg[^>]*height="(\d+)"', text)]
        mid = (40 + (heights[0] - 50)) / 2  # plot area midpoint
        assert np.allclose(np.mean(ys), mid, atol=30)

    def test_summary_charts(self, built_dict, tmp_path):
        prefix = tmp_path / "r"
        main(
            [
                "eval", "--dict", str(built_dict), "--ues", "3", "--trials", "4",
                "--seed", "9", "--out-prefix", str(prefix),
            ]
        )
        out = tmp_path / "summary.svg"
        assert main(["render", "--summary", f"{prefix}.summary.json", "--out", str(out)]) == 0
        text = out.read_text()
        assert "polyline" in text and "upper bound" in text

    def test_unparseable_input_exit_5(self, tmp_path):
        bad = tmp_path / "bad.json"
        bad.write_text("{not json")
        assert main(["render", "--summary", str(bad), "--out", str(tmp_path / "x.svg")]) == 5

    def test_wrong_schema_exit_5(self, tmp_path):
        good = {"ase_per_subband": [1.0, 2.0], "ecdf_curve": [0.5, 1.0, 2.0], "upper_bound": 8.0}
        bad_docs = [
            {"unrelated": 1},
            {**good, "ecdf_curve": [1.0]},
            {**good, "ecdf_curve": [0.5, float("nan"), 2.0]},
            {**good, "ase_per_subband": []},
            {**good, "ase_per_subband": [1.0, float("nan")]},
            {**good, "ase_per_subband": [-1.0, 2.0]},  # used to draw height="-52.38"
            {**good, "upper_bound": float("inf")},
            {**good, "upper_bound": float("nan")},
            {**good, "upper_bound": 0.0},
        ]
        out = tmp_path / "x.svg"
        for doc in [good, *bad_docs]:
            path = tmp_path / "bad2.json"
            path.write_text(json.dumps(doc))  # NaN and Infinity as Python's json writes them
            rc = main(["render", "--summary", str(path), "--out", str(out)])
            assert (rc, out.exists()) == ((0, True) if doc is good else (5, False)), doc
            out.unlink(missing_ok=True)

    def test_config_with_a_huge_subcarrier_count(self, tmp_path):
        # m comes from the config file; the heatmap draws 150 of its 10**12 columns
        doc = {"n": 4, "m": 10**12, "fc_hz": 28e9, "bw_hz": 3e9, "delays_s": [0.0, 1e-10, 2e-10, 3e-10],
               "phases_rad": [0.0, 0.1, 0.2, 0.3]}
        path, out = tmp_path / "c.json", tmp_path / "x.svg"
        path.write_text(json.dumps(doc))
        assert main(["render", "--config", str(path), "--out", str(out)]) == 0
        text = out.read_text()
        assert "M=1000000000000" in text and all(math.isfinite(x) for x in _svg_numbers(text))
        fills = re.findall(r'fill="([^"]*)"', text)
        assert len(fills) > 201 and all(re.fullmatch(r"#[0-9a-f]{6}", f) for f in fills)

    def test_unusable_config_exit_5(self, tmp_path):
        good = {"n": 4, "m": 8, "fc_hz": 28e9, "bw_hz": 3e9, "delays_s": [0.0] * 4, "phases_rad": [0.0] * 4}
        path, out = tmp_path / "c.json", tmp_path / "x.svg"
        # fields written as raw JSON numbers; 1e400 parses as an infinite float
        for key, raw in [(None, None), ("fc_hz", "1e400"), ("m", "5.5"), ("n", "4.9"), ("m", "1e400")]:
            text = json.dumps(good) if key is None else json.dumps({**good, key: "RAW"}).replace('"RAW"', raw)
            path.write_text(text)
            rc = main(["render", "--config", str(path), "--out", str(out)])
            assert (rc, out.exists()) == ((0, True) if key is None else (5, False)), text
            out.unlink(missing_ok=True)


    @pytest.mark.parametrize(
        "key, value",
        [("n", "4"), ("m", "8"), ("fc_hz", "28e9"), ("bw_hz", "3e9"), ("m", True), ("delays_s", [1e300] * 4),
         ("delays_s", ["1e-10", 0, True, 0]), ("phases_rad", [0, False, 0, 0]),
         pytest.param("fc_hz", 10**400, id="fc_hz-huge-int"),
         pytest.param("delays_s", [10**400, 0, 0, 0], id="delays_s-huge-int"),
         pytest.param("phases_rad", [0.0] * 3, id="phases_rad-short"),
         pytest.param("n", 3, id="n-disagrees")],
    )
    def test_config_field_exit_5(self, tmp_path, capsys, key, value):
        # counts, frequencies, delays and phases given as strings, bools or ints no float64 holds,
        # a delay whose phase overflows, and vector lengths that disagree with each other or with n
        good = {"n": 4, "m": 8, "fc_hz": 28e9, "bw_hz": 3e9, "delays_s": [0.0] * 4, "phases_rad": [0.0] * 4}
        path, out = tmp_path / "c.json", tmp_path / "x.svg"
        path.write_text(json.dumps({**good, key: value}))
        assert main(["render", "--config", str(path), "--out", str(out)]) == 5
        assert not out.exists()
        err = capsys.readouterr().err
        assert err.startswith(f"error: unusable input {path}") and "Traceback" not in err


class TestRenderSummaryContract:
    @given(
        ase=st.lists(st.floats(allow_nan=False, allow_infinity=False), max_size=4),
        curve=st.lists(st.floats(allow_nan=False, allow_infinity=False), max_size=5),
        bound=st.one_of(st.floats(allow_nan=False, allow_infinity=False), st.sampled_from([1e308, 5e-324])),
    )
    @settings(max_examples=150, deadline=None)
    def test_exit_0_only_with_finite_numbers(self, ase, curve, bound):
        # extreme but finite summaries: [-1e308, 1e308] used to give a polyline point "nan,70.00"
        doc = {"ase_per_subband": ase, "ecdf_curve": curve, "upper_bound": bound}
        with tempfile.TemporaryDirectory() as tmp:
            path, out = Path(tmp) / "s.json", Path(tmp) / "s.svg"
            path.write_text(json.dumps(doc))
            rc = main(["render", "--summary", str(path), "--out", str(out)])
            assert rc in (0, 5)
            assert out.exists() == (rc == 0)
            if rc == 0:
                text = out.read_text()
                numbers = _svg_numbers(text)
                assert numbers and all(map(math.isfinite, numbers))
                # SVG makes a negative rect width or height an error
                rects = " ".join(re.findall(r"<rect [^>]*>", text))
                sizes = [float(v) for v in re.findall(r'\s(?:width|height)="([^"]*)"', rects)]
                assert sizes and min(sizes) >= 0.0

    def test_overflowing_span_exit_5(self, tmp_path, capsys):
        path, out = tmp_path / "s.json", tmp_path / "s.svg"
        doc = {"ase_per_subband": [1.0], "ecdf_curve": [-1e308, 1e308], "upper_bound": 8.0}
        path.write_text(json.dumps(doc))
        assert main(["render", "--summary", str(path), "--out", str(out)]) == 5
        assert "overflows float64" in capsys.readouterr().err
        assert not out.exists()


class TestExitCodes:
    def test_missing_dict_file_io_error(self, tmp_path):
        rc = main(["synth", "--dict", str(tmp_path / "absent.ttdd"), "--dirs", "0", "--out", str(tmp_path / "o.json")])
        assert rc == 3

    def test_corrupt_dict_parse_error(self, built_dict, tmp_path):
        bad = tmp_path / "corrupt.ttdd"
        bad.write_bytes(built_dict.read_bytes()[:-9])
        rc = main(["synth", "--dict", str(bad), "--dirs", "0", "--out", str(tmp_path / "o.json")])
        assert rc == 5

    def test_nan_offset_dict_parse_error(self, built_dict, tmp_path):
        bad = tmp_path / "nan.ttdd"
        blob = bytearray(built_dict.read_bytes())
        blob[40:48] = np.array([np.nan], dtype="<f8").tobytes()  # first offset
        bad.write_bytes(bytes(blob))
        rc = main(["synth", "--dict", str(bad), "--dirs", "-0.4,0.4,-0.1", "--out", str(tmp_path / "o.json")])
        assert rc == 5
        assert not (tmp_path / "o.json").exists()

    def test_infinite_fc_dict_parse_error(self, built_dict, tmp_path):
        bad = tmp_path / "inf.ttdd"
        blob = bytearray(built_dict.read_bytes())
        blob[24:32] = np.array([np.inf], dtype="<f8").tobytes()  # header fc
        bad.write_bytes(bytes(blob))
        rc = main(["synth", "--dict", str(bad), "--dirs", "0", "--out", str(tmp_path / "o.json")])
        assert rc == 5
        assert not (tmp_path / "o.json").exists()

    @pytest.mark.parametrize("command", ["synth", "eval"])
    def test_huge_delay_dict_parse_error(self, built_dict, tmp_path, capsys, command):
        # a finite delay whose phase is beyond the bound of config JSON: 1e200 s
        bad = tmp_path / "huge.ttdd"
        blob = bytearray(built_dict.read_bytes())
        first_row = 40 + 17 * 8  # header, then 17 offsets
        blob[first_row : first_row + 8] = np.array([1e200], dtype="<f8").tobytes()
        bad.write_bytes(bytes(blob))
        if command == "synth":
            extra = ["--dirs", "-0.4,0.4,-0.1", "--out", str(tmp_path / "o.json")]
        else:
            extra = ["--ues", "2", "--trials", "2", "--out-prefix", str(tmp_path / "x")]
        assert main([command, "--dict", str(bad), *extra]) == 5
        err = capsys.readouterr().err
        assert err.startswith("error:") and "beyond the bound of 2**42 rad" in err
        assert list(tmp_path.iterdir()) == [bad]

    @pytest.mark.parametrize(
        "fc, bw, phase, message",
        [(28e9, 3e9, 1e308, "row phases reach"),  # finite rows whose generator sum overflows
         (1e20, 1.0, 0.0, "subcarrier spacing")],  # float64 cannot resolve BW/M at fc + BW/2
        ids=["overflowing_phases", "unresolved_spacing"],
    )
    @pytest.mark.parametrize("command", ["synth", "eval"])
    def test_unusable_dict_parse_error(self, tmp_path, capsys, command, fc, bw, phase, message):
        bad = tmp_path / "bad.ttdd"
        _write_ttdd(bad, n=4, m=24, fc=fc, bw=bw, a=5, phase=phase)
        if command == "synth":
            extra = ["--dirs", "0,0.5,-0.5", "--out", str(tmp_path / "o.json")]
        else:
            extra = ["--ues", "3", "--trials", "2", "--out-prefix", str(tmp_path / "x")]
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            assert main([command, "--dict", str(bad), *extra]) == 5
        err = capsys.readouterr().err
        assert err.startswith("error:") and message in err
        assert list(tmp_path.iterdir()) == [bad]

    def test_zero_antenna_header_parse_error(self, tmp_path, capsys):
        bad = tmp_path / "n0.ttdd"
        _write_ttdd(bad, n=0, m=24, fc=28e9, bw=3e9, a=5, phase=0.0)
        assert main(["synth", "--dict", str(bad), "--dirs", "0,0.5", "--out", str(tmp_path / "o.json")]) == 5
        assert "implausible header counts" in capsys.readouterr().err
        assert list(tmp_path.iterdir()) == [bad]

    def test_unresolved_spacing_dict_build_usage_error(self, tmp_path, capsys, monkeypatch):
        def no_build(*args, **kwargs):
            raise AssertionError("the build ran")

        monkeypatch.setattr(cli, "build_dictionary", no_build)
        rc = main(["dict-build", "--n", "4", "--fc", "1e20", "--bw", "1", "--m", "24",
                   "--grid", "5", "--out", str(tmp_path / "d.ttdd")])
        assert rc == 2
        assert "subcarrier spacing" in capsys.readouterr().err
        assert list(tmp_path.iterdir()) == []

    def test_indivisible_ues_usage_error(self, built_dict, tmp_path):
        rc = main(
            [
                "eval", "--dict", str(built_dict), "--ues", "7", "--trials", "2",
                "--seed", "1", "--out-prefix", str(tmp_path / "x"),
            ]
        )
        assert rc == 2

    @pytest.mark.parametrize("command, ues", [("eval", "0"), ("eval", "-1"), ("bench", "0")])
    def test_nonpositive_ues_usage_error(self, built_dict, tmp_path, capsys, command, ues):
        if command == "eval":
            extra = ["--trials", "2", "--out-prefix", str(tmp_path / "x")]
        else:
            extra = ["--hdb-calls", "2", "--jpta-calls", "1"]
        assert main([command, "--dict", str(built_dict), "--ues", ues, *extra]) == 2
        assert "at least one subband" in capsys.readouterr().err
        assert list(tmp_path.iterdir()) == []

    @pytest.mark.parametrize("command", ["eval", "bench"])
    def test_negative_seed_usage_error(self, built_dict, tmp_path, capsys, command):
        if command == "eval":
            extra = ["--trials", "2", "--out-prefix", str(tmp_path / "x")]
        else:
            extra = ["--hdb-calls", "2", "--jpta-calls", "1"]
        assert main([command, "--dict", str(built_dict), "--ues", "2", "--seed", "-1", *extra]) == 2
        err = capsys.readouterr().err
        assert err.startswith("error:") and "master_seed must be non-negative" in err
        assert list(tmp_path.iterdir()) == []

    def test_zero_trials_usage_error(self, built_dict, tmp_path, capsys):
        rc = main(["eval", "--dict", str(built_dict), "--ues", "2", "--trials", "0",
                   "--out-prefix", str(tmp_path / "x")])
        assert rc == 2
        assert capsys.readouterr().err == "error: need at least one trial\n"
        assert list(tmp_path.iterdir()) == []

    @pytest.mark.parametrize("snr_db, message", [("inf", "positive and finite"), ("1e10", "overflows")])
    def test_unusable_snr_usage_error(self, built_dict, tmp_path, capsys, snr_db, message):
        rc = main(["eval", "--dict", str(built_dict), "--ues", "2", "--trials", "2",
                   "--snr-db", snr_db, "--out-prefix", str(tmp_path / "x")])
        assert rc == 2
        err = capsys.readouterr().err
        assert err.startswith("error:") and message in err
        assert list(tmp_path.iterdir()) == []

    def test_infinite_tmax_dict_build_usage_error(self, tmp_path, capsys, monkeypatch):
        def no_build(*args, **kwargs):
            raise AssertionError("the build ran")

        monkeypatch.setattr(cli, "build_dictionary", no_build)
        rc = main(["dict-build", "--n", "4", "--fc", "28e9", "--bw", "3e9", "--m", "8",
                   "--grid", "3", "--tmax-s", "inf", "--out", str(tmp_path / "d.ttdd")])
        assert rc == 2
        assert "max_delay must be positive and finite" in capsys.readouterr().err
        assert list(tmp_path.iterdir()) == []

    def test_infinite_fc_dict_build_usage_error(self, tmp_path, capsys, monkeypatch):
        def no_build(*args, **kwargs):
            raise AssertionError("the build ran")

        monkeypatch.setattr(cli, "build_dictionary", no_build)
        rc = main(["dict-build", "--n", "4", "--fc", "inf", "--bw", "3e9", "--m", "8",
                   "--grid", "3", "--out", str(tmp_path / "d.ttdd")])
        assert rc == 2
        assert "require finite carrier_freq" in capsys.readouterr().err
        assert list(tmp_path.iterdir()) == []

    @pytest.mark.parametrize("command", ["dict-build", "eval", "bench"])
    def test_huge_tmax_usage_error(self, built_dict, tmp_path, capsys, monkeypatch, command):
        # finite, but the search's delay phase would pass 2**42 rad: refused before any fit runs
        def not_run(*args, **kwargs):
            raise AssertionError("the build or the trials ran")

        for name in ("build_dictionary", "monte_carlo", "runtime_bench"):
            monkeypatch.setattr(cli, name, not_run)
        extra = {
            "dict-build": ["--n", "4", "--fc", "28e9", "--bw", "3e9", "--m", "8", "--grid", "3",
                           "--out", str(tmp_path / "d.ttdd")],
            "eval": ["--dict", str(built_dict), "--ues", "2", "--synth", "jpta", "--trials", "2",
                     "--out-prefix", str(tmp_path / "x")],
            "bench": ["--dict", str(built_dict), "--ues", "2", "--hdb-calls", "2", "--jpta-calls", "1"],
        }[command]
        assert main([command, "--tmax-s", "1e300", *extra]) == 2
        err = capsys.readouterr().err
        assert err.startswith("error:") and "beyond the bound of 2**42 rad" in err
        assert list(tmp_path.iterdir()) == []

    @pytest.mark.parametrize("command", ["eval", "bench"])
    def test_infinite_tmax_jpta_usage_error(self, built_dict, tmp_path, capsys, monkeypatch, command):
        def no_trials(*args, **kwargs):
            raise AssertionError("the trials ran")

        monkeypatch.setattr(cli, "monte_carlo", no_trials)
        monkeypatch.setattr(cli, "runtime_bench", no_trials)
        if command == "eval":
            extra = ["--synth", "jpta", "--trials", "2", "--out-prefix", str(tmp_path / "x")]
        else:
            extra = ["--hdb-calls", "2", "--jpta-calls", "1"]
        assert main([command, "--dict", str(built_dict), "--ues", "2", "--tmax-s", "inf", *extra]) == 2
        assert "max_delay must be positive and finite" in capsys.readouterr().err
        assert list(tmp_path.iterdir()) == []

    def test_help_exits_zero(self):
        for sub in ("dict-build", "synth", "eval", "bench", "render"):
            with pytest.raises(SystemExit) as exc:
                main([sub, "--help"])
            assert exc.value.code == 0

    def test_unknown_flag_rejected(self, built_dict):
        with pytest.raises(SystemExit) as exc:
            main(["synth", "--dict", str(built_dict), "--dirs", "0", "--frobnicate", "1"])
        assert exc.value.code == 2


def _limit_address_space():
    resource.setrlimit(resource.RLIMIT_AS, (1 << 30, 1 << 30))


class TestOutOfMemory:
    @pytest.mark.parametrize(
        "args",
        [["eval", "--ues", "1", "--trials", "2", "--out-prefix", "x"],
         ["synth", "--dirs", "0.5", "--out", "o.json"],
         ["dict-build", "--n", "4", "--m", "24", "--fc", "28e9", "--bw", "3e9", "--grid", "100000000",
          "--out", "d.ttdd"],
         ["dict-build", "--n", "4", "--m", "24", "--fc", "28e9", "--bw", "3e9", "--grid", "9",
          "--delay-grid", "1000000000000", "--out", "d.ttdd"]],
        ids=["eval_huge_m", "synth_huge_m", "huge_grid", "huge_delay_grid"],
    )
    def test_allocation_failure_exit_6(self, tmp_path, args):
        # the command runs in a child process capped at 1 GiB of address space;
        # the .ttdd header declares M = 2**31 - 1 subcarriers over a 256-byte file
        huge = tmp_path / "huge.ttdd"
        _write_ttdd(huge, n=4, m=2**31 - 1, fc=28e9, bw=3e9, a=2, phase=0.0)
        if args[0] != "dict-build":
            args = [args[0], "--dict", str(huge), *args[1:]]
        src = str(Path(cli.__file__).resolve().parents[1])
        env = {**os.environ, "PYTHONPATH": os.pathsep.join(filter(None, [src, os.environ.get("PYTHONPATH")]))}
        run = subprocess.run([sys.executable, "-m", "ttdbeam.cli", *args], cwd=tmp_path, env=env,
                             capture_output=True, text=True, timeout=60, preexec_fn=_limit_address_space)
        assert run.returncode == 6, run.stderr
        assert run.stderr.splitlines()[-1].startswith("error: out of memory:") and "Traceback" not in run.stderr
        assert list(tmp_path.iterdir()) == [huge]


class TestBench:
    def test_bench_smoke(self, built_dict, capsys):
        rc = main(
            [
                "bench", "--dict", str(built_dict), "--ues", "3", "--seed", "1",
                "--hdb-calls", "20", "--jpta-calls", "2", "--delay-grid", "2048",
            ]
        )
        assert rc == 0
        out = capsys.readouterr().out
        assert "hdb:" in out and "jpta:" in out and "speedup" in out
