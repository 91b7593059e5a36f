import hashlib
import json

import numpy as np
import pytest

from ttdbeam.cli import main
from ttdbeam.core import config_from_json_dict
from ttdbeam.solvers import constant_direction_config


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
        import re

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
        bad = tmp_path / "bad2.json"
        bad.write_text('{"unrelated": 1}')
        assert main(["render", "--summary", str(bad), "--out", str(tmp_path / "x.svg")]) == 5


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

    def test_indivisible_ues_usage_error(self, built_dict, tmp_path):
        rc = main(
            [
                "eval", "--dict", str(built_dict), "--ues", "7", "--trials", "2",
                "--seed", "1", "--out-prefix", str(tmp_path / "x"),
            ]
        )
        assert rc == 2

    def test_help_exits_zero(self):
        for sub in ("dict-build", "synth", "eval", "bench", "render"):
            with pytest.raises(SystemExit) as exc:
                main([sub, "--help"])
            assert exc.value.code == 0

    def test_unknown_flag_rejected(self, built_dict):
        with pytest.raises(SystemExit) as exc:
            main(["synth", "--dict", str(built_dict), "--dirs", "0", "--frobnicate", "1"])
        assert exc.value.code == 2


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
