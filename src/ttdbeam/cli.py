"""Command-line interface: dictionary builds, synthesis, evaluation, benchmarks, plots.

Exit codes: 0 success, 2 usage, 3 I/O failure, 5 unparseable input, 6 out of memory.
TTDBEAM_THREADS caps the dictionary build's worker count (0 = auto);
evaluation runs its trials on the calling thread.
"""

from __future__ import annotations

import argparse
import json
import os
import sys
import time
import warnings

import numpy as np

from . import dictionary as dict_io
from .core import SystemConfig, _check_delay_phase, config_from_json_dict, config_to_json_dict, gain_at_directions
from .dictionary import DictionaryFormatError, build_dictionary
from .evaluation import (
    EvalScenario,
    monte_carlo,
    report_csv_lines,
    runtime_bench,
    summary_dict,
)
from .hdb import generator_set, make_hdb_synthesizer, synthesize
from .solvers import (
    SolverParams,
    default_max_delay,
    make_jpta_synthesizer,
)
from .splitbeam import DirectionMap, expand_directions, subband_width
from .svgrender import render_config_heatmap, render_summary_charts

EXIT_OK = 0
EXIT_USAGE = 2
EXIT_IO = 3
EXIT_PARSE = 5
EXIT_MEMORY = 6


def _directions_arg(raw: str) -> np.ndarray:
    try:
        values = np.array([float(tok) for tok in raw.split(",") if tok.strip() != ""])
    except ValueError:
        raise argparse.ArgumentTypeError(f"not a comma-separated list of numbers: {raw!r}")
    if values.size == 0:
        raise argparse.ArgumentTypeError("direction list is empty")
    if not (np.abs(values) <= 1.0).all():
        raise argparse.ArgumentTypeError("directions must lie in [-1, 1]")
    return values


def _solver_params(args: argparse.Namespace, cfg: SystemConfig) -> SolverParams:
    t_max = args.tmax_s if args.tmax_s is not None else default_max_delay(cfg)
    params = SolverParams(max_delay=t_max, delay_grid_size=args.delay_grid)
    _check_delay_phase(t_max, cfg)  # the search's delays reach t_max
    return params


def _add_solver_flags(p: argparse.ArgumentParser) -> None:
    p.add_argument(
        "--tmax-s", type=float, default=None,
        help="delay search range in seconds (default M/BW)",
    )
    p.add_argument(
        "--delay-grid", type=int, default=SolverParams.delay_grid_size,
        help="delay search grid size (default %(default)s)",
    )


def _cmd_dict_build(args: argparse.Namespace) -> int:
    cfg = SystemConfig(args.n, args.m, args.fc, args.bw)
    params = _solver_params(args, cfg)
    start = time.perf_counter()
    built = build_dictionary(cfg, args.grid, params)
    elapsed = time.perf_counter() - start
    dict_io.save(built, args.out)
    size = os.path.getsize(args.out)
    print(f"entries: {built.n_entries}")
    print(f"file: {args.out} ({size} bytes)")
    print(f"build time: {elapsed:.1f} s")
    if built.degenerate:
        print(f"degenerate entries: {len(built.degenerate)}")
    if built.build_warnings:
        print(f"fidelity warnings: {len(built.build_warnings)}")
    return EXIT_OK


def _cmd_synth(args: argparse.Namespace) -> int:
    built = dict_io.load(args.dict)
    cfg = built.meta
    dmap = DirectionMap(args.dirs)
    phi = synthesize(dmap, built, cfg)
    with warnings.catch_warnings(record=True) as caught:
        warnings.simplefilter("always")
        doc = config_to_json_dict(phi, cfg)
    for w in caught:
        print(f"note: {w.message}", file=sys.stderr)
    gains = np.abs(gain_at_directions(phi, expand_directions(dmap, cfg), cfg))  # before --out is written
    with open(args.out, "w", encoding="utf-8") as fh:
        json.dump(doc, fh, indent=2, sort_keys=True)
        fh.write("\n")
    deltas = generator_set(dmap).tolist()
    print(f"generator 1: offset {deltas[0]:+.6f}, closed form (exact)")
    for g, delta in enumerate(deltas[1:], start=2):
        snapped = float(built.offsets[built.index(delta)])
        print(f"generator {g}: offset {delta:+.6f} snapped to {snapped:+.6f}, "
              f"error {abs(snapped - delta):.3g}")
    block = subband_width(dmap.n_subbands, cfg.n_subcarriers)
    peak = np.sqrt(cfg.n_antennas)
    for b in range(dmap.n_subbands):
        band = gains[b * block : (b + 1) * block]
        print(
            f"subband {b + 1} @ {dmap.directions[b]:+.4f}: "
            f"gain mean {band.mean():.3f}, min {band.min():.3f} (max possible {peak:.3f})"
        )
    print(f"wrote {args.out}")
    return EXIT_OK


def _cmd_eval(args: argparse.Namespace) -> int:
    built = dict_io.load(args.dict)
    synth = (make_hdb_synthesizer(built) if args.synth == "hdb"
             else make_jpta_synthesizer(_solver_params(args, built.meta)))
    try:
        snr_linear = 10.0 ** (args.snr_db / 10.0)
    except OverflowError:
        raise ValueError(f"--snr-db {args.snr_db} overflows the linear SNR") from None
    scenario = EvalScenario(
        cfg=built.meta,
        n_subbands=args.ues,
        snr_linear=snr_linear,
        direction_grid_size=built.direction_grid_size,
        n_trials=args.trials,
        master_seed=args.seed,
    )
    report = monte_carlo(scenario, synth)
    csv_path = f"{args.out_prefix}.csv"
    with open(csv_path, "w", encoding="utf-8", newline="\n") as fh:
        for line in report_csv_lines(report, scenario):
            fh.write(line)
            fh.write("\n")
    summary_path = f"{args.out_prefix}.summary.json"
    with open(summary_path, "w", encoding="utf-8", newline="\n") as fh:
        json.dump(summary_dict(report, scenario), fh, indent=2, sort_keys=True)
        fh.write("\n")
    ratios = report.ase_per_subband / report.upper_bound
    print(f"trials: {report.n_trials} ({len(report.failures)} failed)")
    print(f"upper bound: {report.upper_bound:.4f} bps/Hz")
    print("ASE/bound per subband: " + ", ".join(f"{r:.4f}" for r in ratios))
    print(f"wrote {csv_path} and {summary_path}")
    return EXIT_OK


def _cmd_bench(args: argparse.Namespace) -> int:
    built = dict_io.load(args.dict)
    scenario = EvalScenario(
        cfg=built.meta,
        n_subbands=args.ues,
        snr_linear=10.0,
        direction_grid_size=built.direction_grid_size,
        n_trials=1,
        master_seed=args.seed,
    )
    calls = {"hdb": args.hdb_calls, "jpta": args.jpta_calls}
    synths = {"hdb": make_hdb_synthesizer(built), "jpta": make_jpta_synthesizer(_solver_params(args, built.meta))}
    means = runtime_bench(scenario, synths, calls)
    for name in ("hdb", "jpta"):
        print(f"{name}: {means[name]:.3e} s/call over {calls[name]} calls")
    print(f"speedup: {means['jpta'] / means['hdb']:.1f}x")
    return EXIT_OK


def _cmd_render(args: argparse.Namespace) -> int:
    path = args.config if args.config is not None else args.summary
    try:
        with open(path, "r", encoding="utf-8") as fh:
            doc = json.load(fh)
    except json.JSONDecodeError as exc:
        print(f"error: cannot parse {path}: {exc}", file=sys.stderr)
        return EXIT_PARSE
    try:
        if args.config is not None:
            phi, cfg = config_from_json_dict(doc)
            svg = render_config_heatmap(phi, cfg)
        else:
            svg = render_summary_charts(doc)
    except (KeyError, TypeError, ValueError) as exc:
        print(f"error: unusable input {path}: {exc}", file=sys.stderr)
        return EXIT_PARSE
    with open(args.out, "w", encoding="utf-8", newline="\n") as fh:
        fh.write(svg)
    print(f"wrote {args.out}")
    return EXIT_OK


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="ttdbeam",
        description="True-time-delay array split-beam synthesis toolkit",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    p = sub.add_parser("dict-build", help="precompute the generator dictionary")
    p.add_argument("--n", type=int, required=True, help="antenna count")
    p.add_argument("--fc", type=float, required=True, help="carrier frequency, Hz")
    p.add_argument("--bw", type=float, required=True, help="bandwidth, Hz")
    p.add_argument("--m", type=int, required=True, help="subcarrier count")
    p.add_argument("--grid", type=int, required=True, help="direction grid size")
    _add_solver_flags(p)
    p.add_argument("--out", required=True, help="output dictionary file")
    p.set_defaults(func=_cmd_dict_build)

    p = sub.add_parser("synth", help="synthesize a config for target directions")
    p.add_argument("--dict", required=True, help="dictionary file")
    p.add_argument(
        "--dirs", type=_directions_arg, required=True,
        help="comma-separated sine-space directions, one per subband",
    )
    p.add_argument("--out", required=True, help="output config JSON")
    p.set_defaults(func=_cmd_synth)

    p = sub.add_parser("eval", help="Monte-Carlo spectral-efficiency evaluation")
    p.add_argument("--dict", required=True)
    p.add_argument("--ues", type=int, required=True, help="subband/user count")
    p.add_argument("--trials", type=int, default=200)
    p.add_argument("--seed", type=int, default=0)
    p.add_argument("--snr-db", type=float, default=10.0)
    p.add_argument("--synth", choices=("hdb", "jpta"), default="hdb")
    _add_solver_flags(p)
    p.add_argument("--out-prefix", required=True)
    p.set_defaults(func=_cmd_eval)

    p = sub.add_parser("bench", help="synthesis runtime comparison")
    p.add_argument("--dict", required=True)
    p.add_argument("--ues", type=int, default=3)
    p.add_argument("--seed", type=int, default=0)
    p.add_argument("--hdb-calls", type=int, default=1000)
    p.add_argument("--jpta-calls", type=int, default=10)
    _add_solver_flags(p)
    p.set_defaults(func=_cmd_bench)

    p = sub.add_parser("render", help="emit an SVG figure for a config or summary")
    group = p.add_mutually_exclusive_group(required=True)
    group.add_argument("--config", help="config JSON from synth")
    group.add_argument("--summary", help="summary JSON from eval")
    p.add_argument("--out", required=True, help="output SVG path")
    p.set_defaults(func=_cmd_render)

    return parser


def _join_dirs_value(argv: list[str]) -> list[str]:
    # let --dirs accept values that begin with a minus sign
    out: list[str] = []
    i = 0
    while i < len(argv):
        if argv[i] == "--dirs" and i + 1 < len(argv):
            out.append(f"--dirs={argv[i + 1]}")
            i += 2
        else:
            out.append(argv[i])
            i += 1
    return out


def main(argv: list[str] | None = None) -> int:
    parser = build_parser()
    if argv is None:
        argv = sys.argv[1:]
    args = parser.parse_args(_join_dirs_value(list(argv)))
    try:
        return args.func(args)
    except DictionaryFormatError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return EXIT_PARSE
    except OSError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return EXIT_IO
    except ValueError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return EXIT_USAGE
    except MemoryError as exc:
        print(f"error: out of memory: {exc}", file=sys.stderr)
        return EXIT_MEMORY


if __name__ == "__main__":
    sys.exit(main())
