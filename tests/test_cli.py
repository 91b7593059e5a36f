import contextlib
import errno
import hashlib
import io
import json
import math
import os
import re
import resource
import struct
import subprocess
import sys
import tempfile
import threading
import time
import warnings
from pathlib import Path
from xml.etree import ElementTree

import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from ttdbeam import cli
from ttdbeam import dictionary as dict_io
from ttdbeam.cli import main
from ttdbeam.core import SystemConfig, config_from_json_dict
from ttdbeam.dictionary import DictionaryFormatError, build_dictionary, load, offset_grid
from ttdbeam.solvers import SolverParams, constant_direction_config, default_max_delay


def _render(kind, path, out):
    """Exit code of ``render --<kind> path --out out``; an SVG written with exit 0 must parse as XML."""
    rc = main(["render", f"--{kind}", str(path), "--out", str(out)])
    if rc == 0:
        ElementTree.parse(out)
    return rc


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


# --dirs fields that are not a number in [-1, 1]
_JUNK_DIRS = ("", " ", "nan", "inf", "1.5", "1e", "0x1p-1")


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

    def test_out_that_is_a_directory_leaves_no_file(self, tmp_path, capsys):
        (tmp_path / "d.ttdd").mkdir()
        rc = main(["dict-build", "--n", "4", "--fc", "28e9", "--bw", "3e9", "--m", "8", "--grid", "5",
                   "--out", str(tmp_path / "d.ttdd")])
        assert rc == 3
        assert "Is a directory" in capsys.readouterr().err
        assert [p.name for p in tmp_path.iterdir()] == ["d.ttdd"]  # no sidecar, no temporary file
        assert list((tmp_path / "d.ttdd").iterdir()) == []


# flag values outside any valid range: none may end in a traceback or a partial output
_BAD_VALUES = ("0", "-1", str(2**31), "nan", "inf", "-inf")


def _flag(valid):
    """A drawn value of one dict-build flag: a desk-scale valid one or one of ``_BAD_VALUES``."""
    return st.one_of(st.sampled_from(valid), st.sampled_from(_BAD_VALUES))


class TestDictBuildContract:
    @given(
        n=_flag(["1", "2", "4"]),
        m=_flag(["2", "8", "24", "9"]),  # an odd M is refused by the build itself
        grid=_flag(["2", "5", "9"]),
        fc=_flag(["28e9", "4e9"]),
        bw=_flag(["3e9", "1e8"]),
        tmax=st.one_of(st.none(), _flag(["2e-9", "1e-8"])),  # None: the flag is left out
        delay_grid=st.one_of(st.none(), _flag(["2", "64", "512"])),
    )
    @example(n="4", m="24", grid="9", fc="28e9", bw="3e9", tmax=None, delay_grid=None)
    @example(n="4", m="24", grid="9", fc="28e9", bw="3e9", tmax="1e-8", delay_grid="512")
    @settings(max_examples=150, deadline=None)
    def test_exit_0_only_with_a_dictionary_that_loads(self, n, m, grid, fc, bw, tmax, delay_grid):
        flags = ["--n", n, "--m", m, "--grid", grid, "--fc", fc, "--bw", bw]
        flags += ["--tmax-s", tmax] * (tmax is not None) + ["--delay-grid", delay_grid] * (delay_grid is not None)
        with tempfile.TemporaryDirectory() as tmp:
            out = Path(tmp) / "d.ttdd"
            try:
                with contextlib.redirect_stdout(io.StringIO()), contextlib.redirect_stderr(io.StringIO()):
                    rc = main(["dict-build", *flags, "--out", str(out)])
            except SystemExit as exc:  # argparse refuses a value that is not a number of the flag's type
                rc = exc.code
            assert rc in (0, 2, 3, 5, 6)
            if rc == 0:
                assert sorted(os.listdir(tmp)) == ["d.ttdd", "d.ttdd.json"]
                built = load(out)
                side = json.loads((Path(tmp) / "d.ttdd.json").read_text())
                assert (side["n"], side["m"], side["a"]) == (int(n), int(m), int(grid))
                assert side["d"] == built.n_entries == 2 * int(grid) - 1
            else:
                assert os.listdir(tmp) == []


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

    @pytest.mark.parametrize("dirs", [",", "", " ", "0.5,,-0.5", "0.5,", ",0.5"],
                             ids=["comma", "empty", "blank", "inner", "trailing", "leading"])
    def test_empty_dirs_usage_error(self, built_dict, tmp_path, capsys, dirs):
        with pytest.raises(SystemExit) as exc:
            main(["synth", "--dict", str(built_dict), "--dirs", dirs, "--out", str(tmp_path / "x.json")])
        assert exc.value.code == 2
        assert "not a comma-separated list of numbers" in capsys.readouterr().err
        assert list(tmp_path.iterdir()) == []

    @given(tokens=st.lists(st.one_of(st.floats(-1.0, 1.0).map(repr), st.sampled_from(_JUNK_DIRS)),
                           min_size=1, max_size=8))
    @example(tokens=["-0.4", "0.4", "-0.1"])
    @example(tokens=["0.5", "", "-0.5", ""])
    @settings(max_examples=40, deadline=None)
    def test_dirs_grammar(self, built_dict, tokens):
        # exit 0 exactly when every field is a number in [-1, 1] and the field count divides M = 48
        valid = not set(tokens) & set(_JUNK_DIRS) and 48 % len(tokens) == 0
        with tempfile.TemporaryDirectory() as tmp:
            out, stdout = Path(tmp) / "c.json", io.StringIO()
            try:
                with contextlib.redirect_stdout(stdout), contextlib.redirect_stderr(io.StringIO()):
                    rc = main(["synth", "--dict", str(built_dict), "--dirs", ",".join(tokens), "--out", str(out)])
            except SystemExit as exc:
                rc = exc.code
            if valid:
                assert rc == 0
                config_from_json_dict(json.loads(out.read_text()))
                lines = stdout.getvalue().splitlines()
                assert sum(line.startswith("subband ") for line in lines) == len(tokens)
            else:
                assert rc == 2
                assert os.listdir(tmp) == []

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

    def test_every_synth_checks_solver_flags(self, built_dict, tmp_path, capsys):
        # hdb never runs the solver, but a bad flag is refused whichever synthesizer is chosen
        bad = {("--delay-grid", "1"): "delay_grid_size must be >= 2, got 1",
               ("--tmax-s", "-5"): "max_delay must be positive and finite",
               ("--tmax-s", "inf"): "max_delay must be positive and finite",
               ("--tmax-s", "1e300"): "beyond the bound of 2**42 rad"}
        for synth in ("hdb", "jpta"):
            for flag, message in bad.items():
                rc = main(["eval", "--dict", str(built_dict), "--ues", "2", "--trials", "2", "--synth", synth,
                           *flag, "--out-prefix", str(tmp_path / "x")])
                err = capsys.readouterr().err
                assert rc == 2, (synth, flag)
                assert err.startswith("error:") and message in err and err.count("\n") == 1, (synth, flag)
                assert list(tmp_path.iterdir()) == [], (synth, flag)

    @pytest.mark.parametrize("earlier", [False, True])
    @pytest.mark.parametrize("at", ["write", "flush"])
    @pytest.mark.parametrize("failing", [".csv", ".summary.json"])
    def test_failed_write_leaves_outputs_untouched(self, built_dict, tmp_path, capsys, monkeypatch, failing, at, earlier):
        class FullDisk:
            """A file on a full disk: its fourth write stores half its data and fails,
            or (``at="flush"``) its writes are held back and fail when flushed, as on close."""

            def __init__(self, fh):
                self.fh = fh
                self.writes = 0
                self.held = []

            def __enter__(self):
                return self

            def __exit__(self, *exc):
                try:
                    self.flush()
                finally:
                    self.fh.close()

            def write(self, data):
                self.writes += 1
                if at == "flush":
                    self.held.append(data)
                    return len(data)
                if self.writes < 4:
                    return self.fh.write(data)
                self.fh.write(data[: len(data) // 2])
                raise OSError(errno.ENOSPC, "No space left on device")

            def flush(self):
                if self.held:
                    self.held.clear()
                    raise OSError(errno.ENOSPC, "No space left on device")
                self.fh.flush()

        def full_disk_open(file, mode="r", *args, **kwargs):
            fh = real_open(file, mode, *args, **kwargs)
            # the write of ``failing``, whatever temporary name it goes through
            hit = set(mode) & set("wxa") and os.path.basename(file).startswith(f"e{failing}")
            return FullDisk(fh) if hit else fh

        before = {"e.csv": b"earlier csv\n", "e.summary.json": b"{}\n"} if earlier else {}
        for name, data in before.items():
            (tmp_path / name).write_bytes(data)
        real_open = open
        with monkeypatch.context() as patch:
            patch.setattr("builtins.open", full_disk_open)
            rc = main(["eval", "--dict", str(built_dict), "--ues", "2", "--trials", "3",
                       "--out-prefix", str(tmp_path / "e")])
        assert rc == 3
        assert "No space left on device" in capsys.readouterr().err
        assert {p.name: p.read_bytes() for p in tmp_path.iterdir()} == before

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
        assert _render("config", cfg_path, s1) == 0
        assert _render("config", cfg_path, s2) == 0
        assert s1.read_bytes() == s2.read_bytes()
        assert s1.read_text().startswith("<svg")

    def test_broadside_bright_band_at_zero(self, built_dict, tmp_path):
        cfg_path = tmp_path / "c.json"
        main(["synth", "--dict", str(built_dict), "--dirs", "0", "--out", str(cfg_path)])
        svg_path = tmp_path / "h.svg"
        _render("config", cfg_path, svg_path)
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
        assert _render("summary", f"{prefix}.summary.json", out) == 0
        text = out.read_text()
        assert "polyline" in text and "upper bound" in text

    @pytest.mark.parametrize("earlier", [None, b"<svg>earlier</svg>\n"])
    def test_failed_write_leaves_out_untouched(self, tmp_path, capsys, monkeypatch, earlier):
        class FullDisk:
            """A file whose writes store half their data and then fail, as on a full disk."""

            def __init__(self, fh):
                self.fh = fh

            def __enter__(self):
                return self

            def __exit__(self, *exc):
                self.fh.close()

            def write(self, data):
                self.fh.write(data[: len(data) // 2])
                raise OSError(errno.ENOSPC, "No space left on device")

        def full_disk_open(file, mode="r", *args, **kwargs):
            fh = real_open(file, mode, *args, **kwargs)
            return FullDisk(fh) if set(mode) & set("wxa") else fh

        summary = tmp_path / "s.json"
        summary.write_text(json.dumps({"ase_per_subband": [1.0, 2.0], "ecdf_curve": [0.5, 1.0, 2.0],
                                       "upper_bound": 8.0}))
        out = tmp_path / "s.svg"
        if earlier is not None:
            out.write_bytes(earlier)
        real_open = open
        with monkeypatch.context() as patch:
            patch.setattr("builtins.open", full_disk_open)
            rc = main(["render", "--summary", str(summary), "--out", str(out)])
        assert rc == 3
        assert "No space left on device" in capsys.readouterr().err
        assert (out.read_bytes() if out.exists() else None) == earlier
        assert sorted(p.name for p in tmp_path.iterdir()) == sorted(["s.json"] + ["s.svg"] * (earlier is not None))

    @pytest.mark.parametrize("command, kind", [  # render's cases keep their bare ids
        pytest.param("render", "symlink", id="symlink"),
        pytest.param("render", "fifo", id="fifo"),
        *(pytest.param(c, k, id=f"{c}-{k}") for c in ("dict-build", "synth", "eval") for k in ("symlink", "fifo")),
    ])
    def test_non_regular_out_is_written_through(self, built_dict, tmp_path, command, kind):
        summary = tmp_path / "s.json"
        summary.write_text(json.dumps({"ase_per_subband": [1.0, 2.0], "ecdf_curve": [0.5, 1.0, 2.0],
                                       "upper_bound": 8.0}))
        # argv writing into a directory, the output made non-regular, the command's other outputs
        argv, name, others = {
            "render": (lambda d: ["render", "--summary", str(summary), "--out", str(d / "s.svg")], "s.svg", []),
            "dict-build": (lambda d: ["dict-build", "--n", "4", "--fc", "28e9", "--bw", "3e9", "--m", "8",
                                      "--grid", "5", "--out", str(d / "d.ttdd")], "d.ttdd", ["d.ttdd.json"]),
            "synth": (lambda d: ["synth", "--dict", str(built_dict), "--dirs", "0", "--out", str(d / "c.json")],
                      "c.json", []),
            "eval": (lambda d: ["eval", "--dict", str(built_dict), "--ues", "2", "--trials", "2",
                                "--out-prefix", str(d / "e")], "e.csv", ["e.summary.json"]),
        }[command]
        plain, work = tmp_path / "plain", tmp_path / "work"
        plain.mkdir()
        work.mkdir()
        assert main(argv(plain)) == 0
        out = work / name
        received = []
        if kind == "symlink":
            (work / "target").write_bytes(b"")
            out.symlink_to("target")
            rc = main(argv(work))
            received.append((work / "target").read_bytes())
            assert out.is_symlink()
        else:  # as a shell's /dev/stdout or a pipe
            os.mkfifo(out)
            reader = threading.Thread(target=lambda: received.append(out.read_bytes()), daemon=True)
            reader.start()
            rc = main(argv(work))
            reader.join(timeout=10)
            assert out.is_fifo()
        assert rc == 0
        assert received == [(plain / name).read_bytes()]
        assert sorted(p.name for p in work.iterdir()) == sorted([name, *others] + ["target"] * (kind == "symlink"))
        for other in others:
            assert (work / other).read_bytes() == (plain / other).read_bytes()

    def test_unparseable_input_exit_5(self, tmp_path):
        bad = tmp_path / "bad.json"
        bad.write_text("{not json")
        assert _render("summary", bad, tmp_path / "x.svg") == 5

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
            rc = _render("summary", path, out)
            assert (rc, out.exists()) == ((0, True) if doc is good else (5, False)), doc
            out.unlink(missing_ok=True)

    def test_config_with_a_huge_subcarrier_count(self, tmp_path):
        # m comes from the config file; the heatmap draws 150 of its 10**12 columns
        doc = {"n": 4, "m": 10**12, "fc_hz": 28e9, "bw_hz": 3e9, "delays_s": [0.0, 1e-10, 2e-10, 3e-10],
               "phases_rad": [0.0, 0.1, 0.2, 0.3]}
        path, out = tmp_path / "c.json", tmp_path / "x.svg"
        path.write_text(json.dumps(doc))
        assert _render("config", path, out) == 0
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
            rc = _render("config", path, out)
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
        assert _render("config", path, out) == 5
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
            rc = _render("summary", path, out)
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
        assert _render("summary", path, out) == 5
        assert "overflows float64" in capsys.readouterr().err
        assert not out.exists()

    @pytest.mark.parametrize(
        "key, value",
        [("ase_per_subband", "12"), ("ase_per_subband", [1.0, True]), ("ase_per_subband", 2.0),
         ("ecdf_curve", [0.5, "1.0", 2.0]), ("ecdf_curve", {"0.5": 1, "2.0": 2}), ("upper_bound", True),
         ("upper_bound", "8"),
         pytest.param("upper_bound", 10**400, id="upper_bound-huge-int"),
         pytest.param("ecdf_curve", [0.5, 10**400], id="ecdf_curve-huge-int")],
    )
    def test_summary_field_exit_5(self, tmp_path, capsys, key, value):
        # lists and bounds given as strings, bools or ints no float64 holds: "12" used to draw bars 1
        # and 2, True a bar of 1.0, and a 400-digit upper_bound ended in an OverflowError traceback
        good = {"ase_per_subband": [1.0, 2.0], "ecdf_curve": [0.5, 1.0, 2.0], "upper_bound": 8.0}
        path, out = tmp_path / "s.json", tmp_path / "x.svg"
        path.write_text(json.dumps({**good, key: value}))
        assert _render("summary", path, out) == 5
        assert not out.exists()
        err = capsys.readouterr().err
        assert err.startswith(f"error: unusable input {path}") and "Traceback" not in err

    @given(
        name=st.text(st.characters(exclude_categories=("Cc", "Cs", "Cn"))),
        trials=st.one_of(st.integers(), st.text(st.characters(exclude_categories=("Cc", "Cs", "Cn")))),
    )
    @example(name="a</text><script>x</script>&", trials='"1" & <2>')
    @settings(max_examples=100, deadline=None)
    def test_title_text_is_escaped(self, name, trials):
        # printable synthesizer and n_trials text: exit 0 writes XML whose title reads back as written
        doc = {"synthesizer": name, "n_trials": trials, "ase_per_subband": [1.0, 2.0], "ecdf_curve": [0.5, 2.0],
               "upper_bound": 8.0}
        with tempfile.TemporaryDirectory() as tmp:
            path, out = Path(tmp) / "s.json", Path(tmp) / "s.svg"
            path.write_text(json.dumps(doc))
            assert _render("summary", path, out) == 0
            title = ElementTree.parse(out).getroot().find("{http://www.w3.org/2000/svg}text")
            assert title.text == f"{name} summary, {trials} trials"

    @pytest.mark.parametrize("key, value", [("synthesizer", "hdb\x01"), ("n_trials", "\x1f"),
                                            ("synthesizer", "\ufffe"), ("synthesizer", "\ud800")])
    def test_title_text_xml_cannot_carry_exit_5(self, tmp_path, capsys, key, value):
        # a control character used to exit 0 with an SVG no XML parser reads, and a lone surrogate
        # to exit 2 with an empty SVG left behind
        doc = {"ase_per_subband": [1.0, 2.0], "ecdf_curve": [0.5, 2.0], "upper_bound": 8.0, key: value}
        path, out = tmp_path / "s.json", tmp_path / "x.svg"
        path.write_text(json.dumps(doc))
        assert _render("summary", path, out) == 5
        assert not out.exists()
        assert "holds a character XML cannot carry" in capsys.readouterr().err


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


def _run_capped(args, cwd):
    """``python -m ttdbeam.cli args`` in a child process capped at 1 GiB of address space, and its wall time."""
    src = str(Path(cli.__file__).resolve().parents[1])
    env = {**os.environ, "PYTHONPATH": os.pathsep.join(filter(None, [src, os.environ.get("PYTHONPATH")]))}
    start = time.perf_counter()
    run = subprocess.run([sys.executable, "-m", "ttdbeam.cli", *args], cwd=cwd, env=env,
                         capture_output=True, text=True, timeout=60, preexec_fn=_limit_address_space)
    return run, time.perf_counter() - start


class TestOutOfMemory:
    @pytest.mark.parametrize(
        "args",
        [["eval", "--ues", "1", "--trials", "32", "--out-prefix", "x"]],
        ids=["eval_huge_m"],
    )
    def test_allocation_failure_exit_6(self, tmp_path, args):
        # the .ttdd header declares M = 2**23 subcarriers, the most a build makes, over a 256-byte
        # file; 32 trials are within the SE bound, but their 2 GiB SE array is past the child's 1 GiB
        huge = tmp_path / "huge.ttdd"
        _write_ttdd(huge, n=4, m=2**23, fc=28e9, bw=3e9, a=2, phase=0.0)
        run, _ = _run_capped([args[0], "--dict", str(huge), *args[1:]], tmp_path)
        assert run.returncode == 6, run.stderr
        assert run.stderr.splitlines()[-1].startswith("error: out of memory:") and "Traceback" not in run.stderr
        assert list(tmp_path.iterdir()) == [huge]


class TestHeaderBound:
    @pytest.mark.parametrize(
        "args",
        [["eval", "--ues", "1", "--trials", "2", "--out-prefix", "x"],
         ["synth", "--dirs", "0.5", "--out", "o.json"]],
        ids=["eval_huge_m", "synth_huge_m"],
    )
    def test_huge_m_exit_5_before_allocating(self, tmp_path, args):
        # M = 2**31 - 1 over a 256-byte file: eval's SE array would take 32 GiB and synth's gains 16 GiB;
        # load refuses the header at once, in a child process capped at 1 GiB of address space
        huge = tmp_path / "huge.ttdd"
        _write_ttdd(huge, n=4, m=2**31 - 1, fc=28e9, bw=3e9, a=2, phase=0.0)
        run, elapsed = _run_capped([args[0], "--dict", str(huge), *args[1:]], tmp_path)
        assert elapsed < 5.0
        assert run.returncode == 5, run.stderr
        assert run.stderr.splitlines() == [
            "error: header M = 2147483647 is beyond any build: its two |gain| profiles hold 2M values, "
            "and the bound is 16777216 (2**24)"]
        assert list(tmp_path.iterdir()) == [huge]

    def test_bound_is_the_build_bound(self, tmp_path):
        # one constant: the M a dict-build admits is the M a .ttdd may declare
        assert cli.MAX_BUILD_VALUES is dict_io.MAX_BUILD_VALUES
        for m, code in ((2**23, 0), (2**23 + 2, 5)):
            path = tmp_path / f"m{m}.ttdd"
            _write_ttdd(path, n=2, m=m, fc=28e9, bw=3e9, a=2, phase=0.0)
            if code == 0:
                assert load(path).meta.n_subcarriers == m
            else:
                with pytest.raises(DictionaryFormatError, match=f"header M = {m} is beyond any build"):
                    load(path)


class TestTrialBound:
    def test_too_many_trials_exit_2_before_any_draw(self, tmp_path):
        # 3e7 trials at M = 1200 is 3.6e10 SE values: refused at once, in a child process
        # capped at 1 GiB of address space, before the draws or the SE array
        small = tmp_path / "a9.ttdd"
        _write_ttdd(small, n=4, m=1200, fc=28e9, bw=3e9, a=9, phase=0.0)
        args = ["eval", "--dict", str(small), "--ues", "3", "--trials", "30000000", "--out-prefix", "x"]
        run, elapsed = _run_capped(args, tmp_path)
        assert elapsed < 5.0
        assert run.returncode == 2, run.stderr
        assert run.stderr.splitlines() == [
            "error: --trials 30000000 at M = 1200 asks for 36000000000 SE values; "
            "the bound is 268435456 (2**28), so at most 223696 trials"]
        assert list(tmp_path.iterdir()) == [small]

    def test_bound_is_trials_times_m(self, built_dict, tmp_path, monkeypatch):
        m_count = load(built_dict).meta.n_subcarriers
        monkeypatch.setattr(cli, "MAX_SE_VALUES", 3 * m_count)
        args = ["eval", "--dict", str(built_dict), "--ues", "2"]
        assert main(args + ["--trials", "3", "--out-prefix", str(tmp_path / "ok")]) == 0
        assert main(args + ["--trials", "4", "--out-prefix", str(tmp_path / "over")]) == 2
        assert not (tmp_path / "over.csv").exists()


class TestBuildBound:
    @pytest.mark.parametrize("flags, message", [
        (["--m", "24", "--grid", "100000000"],
         "error: --grid 100000000 at N = 4 asks for 1599999992 table values; the bound is 16777216 (2**24)"),
        (["--m", "24", "--grid", "9", "--delay-grid", "1000000000000"],
         "error: --delay-grid 1000000000000 at N = 4, M = 24 asks for 1333333333368 fit points per offset; "
         "the bound is 16777216 (2**24)"),
        (["--m", "1000000000", "--grid", "9"],
         "error: --m 1000000000 and --grid 9 ask for 2000000000 profile and 36 pattern values per offset; "
         "the bound is 16777216 (2**24)"),
    ], ids=["grid", "delay-grid", "m"])
    def test_oversized_build_exits_2_before_allocating(self, tmp_path, flags, message):
        # a 1.49 GiB offset grid, 745 GiB of window indices and a 7.45 GiB subcarrier axis: refused
        # at once, in a child process capped at 1 GiB of address space, before any of them
        args = ["dict-build", "--n", "4", "--fc", "28e9", "--bw", "3e9", *flags, "--out", "d.ttdd"]
        run, elapsed = _run_capped(args, tmp_path)
        assert elapsed < 5.0
        assert run.returncode == 2, run.stderr
        assert run.stderr.splitlines() == [message]
        assert list(tmp_path.iterdir()) == []

    @pytest.mark.parametrize("m, delay_grid, largest, flag", [
        # lobe windows of reach 5463, 21 854 points a row: 4 * 21 854 fit points against 17 * 8 table values
        ("24", "65536", 87416, "--delay-grid"),
        # reach 7: 4 * 30 = 120 fit points, 48 profile and 36 pattern values, so the 136 table values are the largest
        ("24", "64", 136, "--grid"),
        # the whole grid of 64 points: 4 * 64 fit points against the 2M profile values
        ("200000", "64", 400000, "--m"),
    ], ids=["fit", "table", "profiles"])
    def test_bound_is_the_larger_of_table_and_fit(self, tmp_path, monkeypatch, m, delay_grid, largest, flag, capsys):
        args = ["dict-build", "--n", "4", "--m", m, "--fc", "28e9", "--bw", "3e9", "--grid", "9",
                "--delay-grid", delay_grid]
        monkeypatch.setattr(cli, "MAX_BUILD_VALUES", largest)
        assert main(args + ["--out", str(tmp_path / "ok.ttdd")]) == 0
        monkeypatch.setattr(cli, "MAX_BUILD_VALUES", largest - 1)
        capsys.readouterr()
        assert main(args + ["--out", str(tmp_path / "over.ttdd")]) == 2
        assert capsys.readouterr().err.startswith(f"error: {flag} ")
        assert not (tmp_path / "over.ttdd").exists()


class TestSearchBound:
    @pytest.mark.parametrize("args", [
        ["eval", "--synth", "jpta", "--ues", "3", "--trials", "2", "--out-prefix", "x"],
        ["eval", "--ues", "3", "--trials", "2", "--out-prefix", "x"],
        ["bench", "--hdb-calls", "1", "--jpta-calls", "1"],
    ], ids=["eval_jpta", "eval_hdb", "bench"])
    @pytest.mark.parametrize("tmax, values", [([], 100000000), (["--tmax-s", "3.6e-7"], 400000000)],
                             ids=["one-period", "other-range"])
    def test_oversized_search_exits_2_before_allocating(self, tmp_path, args, tmax, values):
        # 10**8 delays at N = 4: a one-row block takes 1.49 GiB and the whole correlation matrix 5.96 GiB;
        # refused at once, in a child process capped at 1 GiB of address space, before the delay grid
        small = tmp_path / "a9.ttdd"
        _write_ttdd(small, n=4, m=1200, fc=28e9, bw=3e9, a=9, phase=0.0)
        run, elapsed = _run_capped([args[0], "--dict", str(small), *args[1:], *tmax, "--delay-grid", "100000000"],
                                   tmp_path)
        assert elapsed < 5.0
        assert run.returncode == 2, run.stderr
        assert run.stderr.splitlines() == [
            f"error: --delay-grid 100000000 at N = 4, M = 1200 asks for {values} line-search values at once; "
            "the bound is 16777216 (2**24)"]
        assert list(tmp_path.iterdir()) == [small]

    @pytest.mark.parametrize("flags, largest", [
        # one period: 2**17 // 8192 = 16 rows a block, so all N = 16 antennas in one
        (["--delay-grid", "8192"], 16 * 8192),
        # one period: blocks of 2 rows of the 65 536-point grid
        (["--delay-grid", "65536"], 2 * 65536),
        # 0.9 periods: a chunk of 2**17 // 48 = 2730 delays' exponentials against the 16 x 4096 matrix
        (["--tmax-s", "1.44e-8", "--delay-grid", "4096"], 2730 * 48),
        # 0.9 periods: the 16 x 65 536 matrix against the same chunk
        (["--tmax-s", "1.44e-8", "--delay-grid", "65536"], 16 * 65536),
    ], ids=["one-block", "blocks", "exponentials", "matrix"])
    def test_bound_is_the_largest_search_array(self, built_dict, tmp_path, monkeypatch, capsys, flags, largest):
        args = ["eval", "--dict", str(built_dict), "--synth", "jpta", "--ues", "2", "--trials", "1", *flags]
        monkeypatch.setattr(cli, "MAX_BUILD_VALUES", largest)
        assert main(args + ["--out-prefix", str(tmp_path / "ok")]) == 0
        monkeypatch.setattr(cli, "MAX_BUILD_VALUES", largest - 1)
        capsys.readouterr()
        assert main(args + ["--out-prefix", str(tmp_path / "over")]) == 2
        assert capsys.readouterr().err.startswith("error: --delay-grid ")
        assert not (tmp_path / "over.csv").exists()


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


def test_import_leaves_out_multiprocessing():
    # no command loads the process pool, not even a dict-build that maps its chunks over threads
    gone = ["multiprocessing", "concurrent.futures.process"]
    code = (
        "import sys, ttdbeam.cli\n"
        f"print([m for m in {gone!r} if m in sys.modules])\n"
        "from ttdbeam.core import SystemConfig\n"
        "from ttdbeam.dictionary import _POOL_OFFSETS, build_dictionary\n"
        "from ttdbeam.solvers import SolverParams, default_max_delay\n"
        "cfg = SystemConfig(16, 120, 28e9, 3e9)\n"
        "build_dictionary(cfg, _POOL_OFFSETS, SolverParams(max_delay=default_max_delay(cfg)), workers=2)\n"
        "assert 'concurrent.futures.thread' in sys.modules  # the build took the pool\n"
        f"print([m for m in {gone!r} if m in sys.modules])\n"
    )
    src = str(Path(cli.__file__).resolve().parents[1])
    env = {**os.environ, "PYTHONPATH": os.pathsep.join(filter(None, [src, os.environ.get("PYTHONPATH")]))}
    run = subprocess.run([sys.executable, "-c", code], capture_output=True, text=True, check=True, env=env)
    assert run.stdout.split() == ["[]", "[]"]
