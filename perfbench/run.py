#!/usr/bin/env python3
"""Benchmark of ttdbeam's user paths: dictionary build, HDB synthesis,
direct (jpta) synthesis and Monte-Carlo evaluation.

    python3 perfbench/run.py --workload {paper,serve} --seed N --seconds S --trace {0,1}

Run from the root of a checkout.  The last line of standard output is one
JSON object: ``correct``, ``attempted``, ``failed`` and ``metrics``.  With
``--trace 0`` the metrics are the end-to-end metrics of BENCHMARK.json, with
``--trace 1`` its per-layer metrics.  The line before it records the run:
worker count, nproc, versions, rounds.  README.md explains the schedule,
the estimator and every metric.
"""

from __future__ import annotations

import argparse
import hashlib
import json
import math
import os
import platform
import resource
import statistics
import subprocess
import sys
import time
from contextlib import nullcontext
from pathlib import Path

import numpy as np

HERE = Path(__file__).resolve().parent
MIN_CYCLES = 3
MAX_CYCLES = 500
SETUP_PROBES = 15  # set-up probes per measured run, spread over its length
PERSIST_REPS = 5  # save/load repetitions in the traced run
DIRECT_SAMPLES = 4096  # sampled grid delays per direct config in the solver check
RESPONSE_SAMPLE = 100  # synthesized configs whose response is recomputed
WORKERS = min(2, os.cpu_count() or 1)  # build processes and eval threads; recorded with every run


def parse_args(argv):
    p = argparse.ArgumentParser(description=__doc__, formatter_class=argparse.RawDescriptionHelpFormatter)
    p.add_argument("--workload", required=True, choices=("paper", "serve"))
    p.add_argument("--seed", type=int, required=True)
    p.add_argument("--seconds", type=float, required=True, help="length of the timed part of the run")
    p.add_argument("--trace", type=int, choices=(0, 1), default=0)
    return p.parse_args(argv)


def probe_setup(workload: str, seed: int) -> float:
    """Seconds to import ttdbeam and generate the inputs, in a fresh process."""
    out = subprocess.run([sys.executable, str(HERE / "probe.py"), workload, str(seed)],
                         check=True, capture_output=True, text=True, timeout=120)
    return float(out.stdout.strip().splitlines()[-1])


def estimate(round_times):
    """Estimator over rounds: the mean, i.e. the run's total time per round (README.md says why)."""
    return statistics.fmean(round_times)


class Bench:
    """One run: timed rounds of each phase, then output checks and metrics."""

    def __init__(self, wl, seed: int, inputs, workers: int, out_dir: Path) -> None:
        from ttdbeam import dictionary, evaluation, hdb, solvers

        self.dictionary, self.evaluation, self.hdb, self.solvers = dictionary, evaluation, hdb, solvers
        self.wl = wl
        self.seed = seed
        self.inp = inputs
        self.workers = workers
        self.out = out_dir
        self.attempted = 0
        self.failed = 0
        self.checks: list[tuple[str, bool, str]] = []
        self.rounds: dict[str, list[float]] = {}
        self.setup: list[float] = []  # set-up probe times, seconds
        self.ref: dict = {}  # round-0 outputs every later round is compared with
        self.dict = None  # the first dictionary built
        self.snap_err = float("nan")  # set by the synthesis check

    # -- bookkeeping ----------------------------------------------------------

    def check(self, name: str, ok: bool, detail: str) -> None:
        self.attempted += 1
        ok = bool(ok)
        if not ok:
            self.failed += 1
            print(f"CHECK FAILED {name}: {detail}", file=sys.stderr)
        self.checks.append((name, ok, detail))

    def record(self, phase: str, value: float) -> None:
        self.rounds.setdefault(phase, []).append(value)

    def same_as_first(self, key: str, value, equal) -> None:
        if key not in self.ref:
            self.ref[key] = value
        else:
            self.check(f"repeat.{key}", equal(self.ref[key], value), f"{key} output equals round 0")

    # -- phases ---------------------------------------------------------------

    def build(self, workers: int, tracer=None):
        from workloads import SOLVER, SYSTEM

        with _span(tracer, "phase.build"):
            start = time.perf_counter()
            built = self.dictionary.build_dictionary(SYSTEM, self.wl.grid, SOLVER, workers=workers)
            seconds = time.perf_counter() - start
        self.attempted += built.n_entries
        self.same_as_first("build", built, lambda a, b: a == b)
        if self.dict is None:
            self.dict = built
        return seconds

    def synth_round(self, tracer=None):
        from workloads import SYSTEM

        stream, built = self.inp.stream, self.dict
        out = []
        with _span(tracer, "phase.synth"):
            synthesize = self.hdb.synthesize
            start = time.perf_counter()
            for dmap in stream:
                try:
                    out.append(synthesize(dmap, built, SYSTEM))
                except Exception as exc:  # counted as a failed synthesis call
                    self.failed += 1
                    out.append(exc)
            seconds = time.perf_counter() - start
        self.attempted += len(stream)
        self.same_as_first("synth", out, _same_configs)
        return seconds / len(stream)

    def direct_round(self, tracer=None):
        from workloads import SOLVER, SYSTEM

        targets = self.inp.direct
        out = []
        with _span(tracer, "phase.direct"):
            synth = self.solvers.make_jpta_synthesizer(SOLVER)
            start = time.perf_counter()
            for dmap in targets:
                try:
                    out.append(synth(dmap, SYSTEM))
                except Exception as exc:  # counted as a failed direct call
                    self.failed += 1
                    out.append(exc)
            seconds = time.perf_counter() - start
        self.attempted += len(targets)
        self.same_as_first("direct", out, _same_configs)
        return seconds / len(targets)

    def eval_round(self, workers: int, tracer=None):
        """What ``ttdbeam eval`` does: monte_carlo, then the CSV and the summary JSON."""
        ev = self.evaluation
        scenario = self.inp.scenario
        csv_path, summary_path = self.out / "eval.csv", self.out / "eval.summary.json"
        with _span(tracer, "phase.eval"):
            start = time.perf_counter()
            with _span(tracer, "evaluation.monte_carlo"):
                report = ev.monte_carlo(scenario, self.hdb.make_hdb_synthesizer(self.dict), workers=workers)
            mc_end = time.perf_counter()
            with _span(tracer, "evaluation.csv"):
                with open(csv_path, "w", encoding="utf-8", newline="\n") as fh:
                    for line in ev.report_csv_lines(report, scenario):
                        fh.write(line)
                        fh.write("\n")
            with _span(tracer, "evaluation.summary"):
                with open(summary_path, "w", encoding="utf-8", newline="\n") as fh:
                    json.dump(ev.summary_dict(report, scenario), fh, indent=2, sort_keys=True)
                    fh.write("\n")
            seconds = time.perf_counter() - start
        self.attempted += scenario.n_trials
        self.failed += len(report.failures)
        self.same_as_first("eval", (_digest(csv_path), _digest(summary_path)), lambda a, b: a == b)
        self.report = report
        return seconds, mc_end - start

    def persist(self):
        """Save the dictionary, load it back; returns (save seconds, load seconds)."""
        path = self.out / "dictionary.ttdd"
        t0 = time.perf_counter()
        self.dictionary.save(self.dict, path)
        t1 = time.perf_counter()
        loaded = self.dictionary.load(path)
        t2 = time.perf_counter()
        self.check("dict.load_save_identity", loaded == self.dict, "load(save(d)) == d")
        return t1 - t0, t2 - t1

    # -- schedules ------------------------------------------------------------

    def probe_until(self, count: int) -> None:
        while len(self.setup) < count:
            self.setup.append(probe_setup(self.wl.name, self.seed))

    def run_measured(self, seconds: float) -> None:
        """Cycles of interleaved rounds while another cycle fits in ``seconds`` (at least MIN_CYCLES).

        After each cycle the run makes set-up probes until it has made one per
        ``seconds / SETUP_PROBES`` elapsed, and after the last it makes the rest.
        """
        begin = time.perf_counter()
        for cycle in range(MAX_CYCLES):
            cycle_start = time.perf_counter()
            if cycle == 0 or self.wl.rebuild:
                self.record("build", self.build(self.workers))
            if cycle == 0:
                self.persist()
            self.record("synth", self.synth_round())
            self.record("direct", self.direct_round())
            total, _ = self.eval_round(self.workers)
            self.record("eval", total)
            if cycle + 1 == MIN_CYCLES:  # every run has done the same work here
                self.rss_mb = peak_rss_mb()
            self.probe_until(min(SETUP_PROBES, math.ceil(SETUP_PROBES * (time.perf_counter() - begin) / seconds)))
            if cycle + 1 >= MIN_CYCLES and _next_overruns(begin, cycle_start, seconds):
                break
        self.probe_until(SETUP_PROBES)

    def run_traced(self, seconds: float, tracer) -> None:
        """Each phase untraced, then traced with one worker, round after round."""
        begin = time.perf_counter()
        self.record("build_w", self.build(self.workers))
        if self.wl.rebuild:  # cheap enough to also time one untraced one-worker build
            self.record("build_1", self.build(1))
        with tracer.installed():
            self.record("build_traced", self.build(1, tracer))
        self.save_s, self.load_s = [], []
        for _ in range(PERSIST_REPS):
            s, l = self.persist()
            self.save_s.append(s)
            self.load_s.append(l)
        for cycle in range(MAX_CYCLES):
            cycle_start = time.perf_counter()
            self.record("synth", self.synth_round())
            with tracer.installed():
                self.synth_round(tracer)
            self.record("direct", self.direct_round())
            with tracer.installed():
                self.direct_round(tracer)
            self.record("eval_mc_w", self.eval_round(self.workers)[1])
            total, mc = self.eval_round(1)
            self.record("eval_1", total)
            self.record("eval_mc_1", mc)
            with tracer.installed():
                self.eval_round(1, tracer)
            if cycle + 1 >= MIN_CYCLES and _next_overruns(begin, cycle_start, seconds):
                break

    # -- output checks --------------------------------------------------------

    def check_outputs(self) -> dict:
        """Checks on the round-0 outputs; returns the quality figures of the eval output."""
        import checks
        from workloads import SOLVER, SNR_LINEAR, SYSTEM

        from ttdbeam.core import gain_at_directions
        from ttdbeam.splitbeam import DirectionMap, expand_directions

        sys_cfg = (SYSTEM.n_antennas, SYSTEM.n_subcarriers, SYSTEM.carrier_freq, SYSTEM.bandwidth)
        built = self.dict
        step = 2.0 / (self.wl.grid - 1)

        # dictionary file and contents
        blob = (self.out / "dictionary.ttdd").read_bytes()
        self.dict_bytes = len(blob)
        for name, ok, detail in checks.check_ttdd_file(
                blob, built.offsets, built.delays, built.phases, self.wl.grid, sys_cfg):
            self.check(name, ok, detail)

        # synthesized configs: every call succeeded, a sample's response, each config
        # rebuilt from the table's nearest-offset rows, the shift property
        stream = self.inp.stream
        configs = self.ref["synth"]
        good = all(not isinstance(c, Exception) for c in configs)
        self.check("synth.all_succeeded", good, f"{len(configs)} synthesis calls")
        if good:
            pairs = [(c.delays, c.phases) for c in configs]
            sample = range(0, len(stream), max(1, len(stream) // RESPONSE_SAMPLE))
            self.check("synth.response", *checks.check_response(
                [pairs[i] for i in sample], [stream[i].directions for i in sample],
                [gain_at_directions(configs[i], expand_directions(stream[i], SYSTEM), SYSTEM) for i in sample],
                sys_cfg))
            table = checks.read_ttdd(blob)
            ok, detail, self.snap_err = checks.check_synthesis(
                pairs, [d.directions for d in stream], table["delays"], table["phases"], self.wl.grid, sys_cfg)
            self.check("synth.from_table", ok, detail)
            shifted, shift_psi = [], []
            for dmap, k in zip(stream, self.inp.shifts):
                phi = self.hdb.synthesize(DirectionMap(dmap.directions + k * step), built, SYSTEM)
                shifted.append((phi.delays, phi.phases))
                shift_psi.append(k * step)
            self.check("synth.shift_property", *checks.check_shift(pairs, shifted, shift_psi, sys_cfg))

        # direct solver
        direct = self.ref["direct"]
        good = all(not isinstance(c, Exception) for c in direct)
        self.check("direct.all_succeeded", good, f"{len(direct)} direct calls")
        if good:
            self.check("direct.grid_optimum", *checks.check_direct(
                [(c.delays, c.phases) for c in direct], [d.directions for d in self.inp.direct],
                sys_cfg, SOLVER.max_delay, SOLVER.delay_grid_size, DIRECT_SAMPLES, seed=len(direct)))

        # evaluation output
        scenario = self.inp.scenario
        summary = json.loads((self.out / "eval.summary.json").read_text(encoding="utf-8"))
        ok, detail, se, dirs = checks.check_eval_csv(
            (self.out / "eval.csv").read_bytes(), self.report.n_trials, scenario.n_subbands,
            SYSTEM.n_subcarriers)
        self.check("eval.csv_layout", ok, detail)
        if se is None:
            return dict.fromkeys(("ase_min_ratio", "ase_sc_spread", "se_p5_bps_hz"), float("nan"))
        bound = float(np.log2(1.0 + SYSTEM.n_antennas * SNR_LINEAR))
        self.check("eval.summary", *checks.check_eval_summary(
            se, summary, scenario.n_trials, scenario.n_subbands, bound))
        synth = self.hdb.make_hdb_synthesizer(built)
        trial_configs = [synth(DirectionMap(row), SYSTEM) for row in dirs]
        self.check("eval.se", *checks.check_eval_se(
            se, dirs, [(c.delays, c.phases) for c in trial_configs], sys_cfg, SNR_LINEAR))
        q = checks.quality(se, scenario.n_subbands, bound)
        if self.wl.claims:
            for name, ok, detail in checks.check_claims(q):
                self.check(name, ok, detail)
        return q


def _span(tracer, name: str):
    return tracer.span(name) if tracer else nullcontext()


def _next_overruns(begin: float, cycle_start: float, seconds: float) -> bool:
    """True when one more cycle as long as the last would end past ``seconds``."""
    now = time.perf_counter()
    return now + (now - cycle_start) - begin > seconds


def _same_configs(a, b) -> bool:
    return len(a) == len(b) and all(
        not isinstance(x, Exception) and not isinstance(y, Exception)
        and np.array_equal(x.delays, y.delays) and np.array_equal(x.phases, y.phases)
        for x, y in zip(a, b))


def _digest(path: Path) -> str:
    h = hashlib.sha256()
    with open(path, "rb") as fh:
        for chunk in iter(lambda: fh.read(1 << 20), b""):
            h.update(chunk)
    return h.hexdigest()


def peak_rss_mb() -> float:
    """Peak RSS so far of this process plus the largest peak among its reaped workers, in 10^6 bytes."""
    own = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss
    workers = resource.getrusage(resource.RUSAGE_CHILDREN).ru_maxrss
    return (own + workers) * 1024 / 1e6


def end_to_end(bench: Bench, q: dict) -> dict[str, float]:
    wl = bench.wl
    return {
        "setup_s": statistics.median(bench.setup),
        "build_s": estimate(bench.rounds["build"]),
        "dict_bytes": bench.dict_bytes,
        "synth_us": estimate(bench.rounds["synth"]) * 1e6,
        "direct_synth_ms": estimate(bench.rounds["direct"]) * 1e3,
        "eval_trials_per_s": wl.eval_trials / estimate(bench.rounds["eval"]),
        "ase_min_ratio": q["ase_min_ratio"],
        "ase_sc_spread": q["ase_sc_spread"],
        "se_p5_bps_hz": q["se_p5_bps_hz"],
        "peak_rss_mb": bench.rss_mb,
    }


def per_layer(bench: Bench, tracer, span_cost_ns: float) -> dict[str, float]:
    from tracer import EXPECTED, SpanTable

    from workloads import SOLVER, SYSTEM

    t = SpanTable(tracer.spans)
    w = bench.workers
    us, ms = 1e-3, 1e-6  # ns -> us, ns -> ms
    entries = t.count("build", "dictionary.entry")
    entry_ns = t.total_ns("build", "dictionary.entry")
    build_ns = t.total_ns("build", "phase.build")
    synth_calls = t.count("synth", "hdb.synthesize")
    synth_rounds = t.count("synth", "phase.synth")
    gens_per_round = sum(d.n_subbands for d in bench.inp.stream)
    synth_durs = sorted(t.durations_ns("synth", "hdb.synthesize"))
    eval_rounds = t.count("eval", "phase.eval")
    mc_ns = t.total_ns("eval", "evaluation.monte_carlo")
    trials = bench.report.n_trials * eval_rounds

    # tracing cost per phase: traced time over untraced time of the same rounds
    if "build_1" in bench.rounds:
        build_overhead = build_ns * 1e-9 / bench.rounds["build_1"][0]
    else:  # the untraced one-worker build is not repeated; charge each span its measured cost
        spans_in_build = sum(t.count("build", n) for n in EXPECTED["build"])
        build_overhead = build_ns / (build_ns - spans_in_build * span_cost_ns)

    def traced(phase):
        return estimate(t.durations_ns(phase, f"phase.{phase}")) * 1e-9

    overhead = {
        "build": build_overhead,
        "synth": traced("synth") / (estimate(bench.rounds["synth"]) * len(bench.inp.stream)),
        "direct": traced("direct") / (estimate(bench.rounds["direct"]) * len(bench.inp.direct)),
        "eval": traced("eval") / estimate(bench.rounds["eval_1"]),
    }
    gaps = [abs(t.self_sum_gap_ns(p)) for p in EXPECTED]
    bench.check("trace.self_times_sum", max(gaps) == 0 and t.overlapping == 0,
                f"self times add up to each phase's traced time (gaps {gaps} ns, "
                f"{t.overlapping} spans with negative self time)")
    dead = t.dead()
    if dead:
        print(f"TRACE: wrappers that recorded no span (the program no longer calls them): {dead}",
              file=sys.stderr)
    return {
        "solvers.fit_calls": t.count("build", "solvers.fit"),
        "solvers.fit_ms": t.mean_ns("build", "solvers.fit") * ms,
        "solvers.direct_fit_ms": t.mean_ns("direct", "solvers.direct_fit") * ms,
        "solvers.fold_us": t.mean_ns("build", "solvers.fold") * us,
        "splitbeam.target_ms": t.mean_ns("direct", "splitbeam.target") * ms,
        "splitbeam.expand_us": t.mean_ns("eval", "splitbeam.expand") * us,
        "dictionary.entries": entries,
        "dictionary.entry_ms": entry_ns / entries * ms if entries else 0.0,
        "dictionary.rescale_us": t.mean_ns("build", "rescale") * us,
        "dictionary.diag_s": (build_ns - entry_ns) * 1e-9,
        "dictionary.degenerate": len(bench.dict.degenerate),
        "dictionary.warnings": len(bench.dict.build_warnings),
        "dictionary.save_ms": statistics.median(bench.save_s) * 1e3,
        "dictionary.load_ms": statistics.median(bench.load_s) * 1e3,
        "dictionary.corr_mb": SOLVER.delay_grid_size * SYSTEM.n_antennas * 16 / 1e6,
        "parallel.workers": w,
        "parallel.build_efficiency": entry_ns * 1e-9 / (bench.rounds["build_w"][0] * w),
        "parallel.eval_efficiency": estimate(bench.rounds["eval_mc_1"])
        / (estimate(bench.rounds["eval_mc_w"]) * w),
        "hdb.calls": synth_calls // synth_rounds if synth_rounds else 0,
        "hdb.generators": gens_per_round,
        "hdb.plan_us": t.mean_ns("synth", "hdb.plan") * us,
        "hdb.const_us": t.mean_ns("synth", "hdb.const") * us,
        "hdb.lookup_us": t.mean_ns("synth", "hdb.lookup") * us,
        "hdb.rescale_us": t.mean_ns("synth", "rescale") * us,
        "hdb.sum_us": t.mean_ns("synth", "hdb.sum") * us,
        "hdb.self_us": t.mean_self_ns("synth", "hdb.synthesize") * us,
        "hdb.us_per_generator": t.total_ns("synth", "hdb.synthesize") * us / (gens_per_round * synth_rounds)
        if synth_rounds else 0.0,
        "hdb.p99_us": synth_durs[min(len(synth_durs) - 1, int(0.99 * len(synth_durs)))] * us
        if synth_durs else 0.0,
        "hdb.snap_err_max": bench.snap_err,
        "core.gain_us": t.mean_ns("eval", "core.gain") * us,
        "evaluation.trials": bench.report.n_trials,
        "evaluation.trial_us": mc_ns / trials * us if trials else 0.0,
        "evaluation.synth_share": t.total_ns("eval", "hdb.synthesize") / mc_ns if mc_ns else 0.0,
        "evaluation.csv_ms": t.mean_ns("eval", "evaluation.csv") * ms,
        "evaluation.csv_bytes": (bench.out / "eval.csv").stat().st_size,
        "evaluation.summary_ms": t.mean_ns("eval", "evaluation.summary") * ms,
        "evaluation.failures": len(bench.report.failures),
        "trace.overhead": max(overhead.values()),
        "trace.overhead.build": overhead["build"],
        "trace.overhead.synth": overhead["synth"],
        "trace.overhead.direct": overhead["direct"],
        "trace.overhead.eval": overhead["eval"],
        "trace.span_cost_us": span_cost_ns * us,
        "trace.spans": len(tracer.spans),
        "trace.dead_wrappers": len(dead),
    }


def span_cost_ns(tracer_cls, calls: int = 20000) -> float:
    """Measured cost of one traced call: a wrapped no-op against the bare no-op."""

    def noop():
        return None

    wrapped = tracer_cls().wrap("calibration", noop)
    timings = []
    for fn in (noop, wrapped, noop, wrapped):
        start = time.perf_counter_ns()
        for _ in range(calls):
            fn()
        timings.append(time.perf_counter_ns() - start)
    return max(0.0, (min(timings[1], timings[3]) - min(timings[0], timings[2])) / calls)


def main(argv=None) -> int:
    args = parse_args(argv)
    bench_file = HERE.parent / "BENCHMARK.json"
    spec = json.loads(bench_file.read_text(encoding="utf-8"))
    sys.path.insert(0, str(HERE))
    import workloads  # exits with a message when the checkout has no program source

    wl = workloads.WORKLOADS[args.workload]
    inputs = workloads.make_inputs(wl, args.seed)
    out_dir = HERE / "out" / f"{wl.name}{'-trace' if args.trace else ''}"
    out_dir.mkdir(parents=True, exist_ok=True)
    bench = Bench(wl, args.seed, inputs, WORKERS, out_dir)

    if args.trace:
        from tracer import Tracer

        tracer = Tracer()
        cost = span_cost_ns(Tracer)
        bench.run_traced(args.seconds, tracer)
        bench.check_outputs()
        values = per_layer(bench, tracer, cost)
        tracer.write(out_dir / "spans.csv")
        listed = spec["per_layer"]
    else:
        bench.run_measured(args.seconds)
        q = bench.check_outputs()
        values = end_to_end(bench, q)
        listed = spec["end_to_end"]

    missing = {m["name"] for m in listed} ^ set(values)
    if missing:
        raise SystemExit(f"perfbench: metrics and BENCHMARK.json disagree on {sorted(missing)}")
    correct = all(ok for _, ok, _ in bench.checks) and all(np.isfinite(v) for v in values.values())
    info = {
        "workload": wl.name, "seed": args.seed, "seconds": args.seconds, "trace": args.trace,
        "workers": WORKERS, "nproc": os.cpu_count(), "python": platform.python_version(),
        "numpy": np.__version__, "rounds": {k: len(v) for k, v in bench.rounds.items()},
        "setup_samples_s": bench.setup, "round_s": bench.rounds,
        "checks": [[n, ok, d] for n, ok, d in bench.checks],
    }
    (out_dir / "run.json").write_text(json.dumps(info, indent=1) + "\n", encoding="utf-8")
    print(json.dumps({"run": {k: v for k, v in info.items() if k not in ("checks", "round_s")}}))
    print(json.dumps({
        "correct": correct,
        "attempted": bench.attempted,
        "failed": bench.failed,
        "metrics": {m["name"]: {"value": values[m["name"]], "unit": m["unit"]} for m in listed},
    }))
    return 0


if __name__ == "__main__":
    sys.exit(main())
