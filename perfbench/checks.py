"""Output checks computed apart from ttdbeam.

Every function here takes program outputs (arrays, files, configs) and
judges them against this module's own formulas or against properties the
method must have.  Nothing here imports ttdbeam: where a check needs the
program to act (synthesize a shifted target), the caller passes the
program's output in.  Each check returns ``(ok, detail)``.

Conventions (the README of ttdbeam states them too): subcarrier m = 1..M
sits at f_m = fc + m*BW/M - BW/2, and the steering exponent toward sine-space
direction psi at frequency f is -j*n*pi*psi*f/fc.
"""

from __future__ import annotations

import struct

import numpy as np

TTDD_HEADER = struct.Struct("<4siiiiidd")  # magic, version, N, A, D, M, fc, bw
CSV_HEADER = "trial,m,subband,direction,se_bps_hz"

# Tolerances, stated in README.md with the deviations seen on intact output.
GAIN_TOL = 1e-9  # own array response vs the program's gains
SE_TOL = 1e-9  # own spectral efficiency vs the CSV, bps/Hz
MIRROR_DELAY_TOL = 1e-18  # s; a delay-grid step is about 6e-12 s
MIRROR_PHASE_TOL = 1e-8  # rad
SHIFT_DELAY_TOL = 1e-21  # s
SHIFT_PHASE_TOL = 1e-12  # rad
TABLE_DELAY_TOL = 1e-21  # s; own rebuild of a synthesized config from the table rows
TABLE_PHASE_TOL = 1e-9  # rad
DIRECT_PHASE_TOL = 1e-8  # rad
DIRECT_MAG_RTOL = 1e-9


def freqs(n_subcarriers: int, fc: float, bw: float) -> np.ndarray:
    m = np.arange(1, n_subcarriers + 1, dtype=np.float64)
    return fc + m * bw / n_subcarriers - bw / 2.0


def response(delays, phases, psi, n_subcarriers: int, fc: float, bw: float) -> np.ndarray:
    """Array gain at subcarrier m toward direction psi[m], for every m.

    g_m = N^-1/2 * sum_n exp(j*(phase_n - 2*pi*f_m*t_n)) * exp(-j*n*pi*psi_m*f_m/fc),
    evaluated antenna by antenna.
    """
    f = freqs(n_subcarriers, fc, bw)
    psi = np.broadcast_to(np.asarray(psi, dtype=np.float64), f.shape)
    delays = np.asarray(delays, dtype=np.float64)
    phases = np.asarray(phases, dtype=np.float64)
    acc = np.zeros(f.shape, dtype=np.complex128)
    for n in range(delays.size):
        weight = np.exp(1j * (phases[n] - 2.0 * np.pi * f * delays[n]))
        steer = np.exp(-1j * np.pi * n * psi * f / fc)
        acc += weight * steer
    return acc / np.sqrt(delays.size)


def spectral_efficiency(gains: np.ndarray, snr_linear: float) -> np.ndarray:
    return np.log2(1.0 + np.abs(gains) ** 2 * snr_linear)


def per_subcarrier_directions(directions, n_subcarriers: int) -> np.ndarray:
    directions = np.asarray(directions, dtype=np.float64)
    return np.repeat(directions, n_subcarriers // directions.size)


def wrap_angle(x):
    return (np.asarray(x) + np.pi) % (2.0 * np.pi) - np.pi


# -- synthesized configs ------------------------------------------------------


def check_response(configs, direction_sets, program_gains, sys_cfg) -> tuple[bool, str]:
    """Own response toward each subband's direction equals the program's gains, |g| <= sqrt(N)."""
    n, m, fc, bw = sys_cfg
    worst = 0.0
    peak = 0.0
    for (delays, phases), dirs, gains in zip(configs, direction_sets, program_gains):
        own = response(delays, phases, per_subcarrier_directions(dirs, m), m, fc, bw)
        worst = max(worst, float(np.max(np.abs(own - gains))))
        peak = max(peak, float(np.max(np.abs(own))))
    ok = worst <= GAIN_TOL and peak <= np.sqrt(n) * (1.0 + 1e-12)
    return ok, f"{len(configs)} configs: max |own - program| gain {worst:.2e}, max |g| {peak:.4f} (sqrt(N)={np.sqrt(n):.4f})"


def check_shift(base, shifted, shifts_psi, sys_cfg) -> tuple[bool, str]:
    """HDB homomorphism: shifting every direction by c keeps phases and moves delays by -c*n/(2fc)."""
    n, _, fc, _ = sys_cfg
    ant = np.arange(n, dtype=np.float64)
    worst_t = 0.0
    worst_p = 0.0
    for (d0, p0), (d1, p1), c in zip(base, shifted, shifts_psi):
        worst_t = max(worst_t, float(np.max(np.abs((d1 - d0) - (-c * ant / (2.0 * fc))))))
        worst_p = max(worst_p, float(np.max(np.abs(wrap_angle(p1 - p0)))))
    ok = worst_t <= SHIFT_DELAY_TOL and worst_p <= SHIFT_PHASE_TOL
    moved = int(np.count_nonzero(np.asarray(shifts_psi)))
    return ok, f"{len(base)} targets ({moved} shifted): max delay error {worst_t:.2e} s, max phase change {worst_p:.2e} rad"


def nearest_offset_index(delta: float, grid_size: int) -> int:
    """Index of the offset 2k/(A-1) nearest delta; a tie takes the smaller offset."""
    pos = (delta + 2.0) * (grid_size - 1) / 2.0
    lo = int(np.floor(pos))
    return lo + 1 if pos - lo > 0.5 else lo


def synthesize_from_table(directions, table_delays, table_phases, grid_size: int, sys_cfg):
    """HDB synthesis rebuilt from the dictionary's rows; returns (delays, phases, largest snap).

    The constant-direction config of the first direction (t_n = -psi_1*n/(2fc),
    zero phases), plus for each later subband g the table row of the offset
    nearest psi_g - psi_(g-1), rescaled onto the band of centre
    fc - BW/2 + (g-1)*BW/G and width 2*BW*(G-1)/G: delays divide by
    alpha = width/BW, phases gain (2*pi*centre/alpha - 2*pi*fc) * delay.
    """
    n, _, fc, bw = sys_cfg
    dirs = np.asarray(directions, dtype=np.float64)
    g_count = dirs.size
    step = 2.0 / (grid_size - 1)
    delays = -dirs[0] * np.arange(n, dtype=np.float64) / (2.0 * fc)
    phases = np.zeros(n)
    snap = 0.0
    for g in range(2, g_count + 1):
        delta = dirs[g - 1] - dirs[g - 2]
        idx = nearest_offset_index(delta, grid_size)
        snap = max(snap, abs(delta - (-2.0 + idx * step)))
        t, p = table_delays[idx], table_phases[idx]
        centre = fc - bw / 2.0 + (g - 1) * bw / g_count
        alpha = 2.0 * (g_count - 1) / g_count
        delays = delays + t / alpha
        phases = phases + (p - 2.0 * np.pi * fc * t + (2.0 * np.pi * centre / alpha) * t)
    return delays, phases, snap


def check_synthesis(configs, direction_sets, table_delays, table_phases, grid_size: int,
                    sys_cfg) -> tuple[bool, str, float]:
    """Each synthesized config equals the one rebuilt from the table; returns the largest snap error."""
    step = 2.0 / (grid_size - 1)
    worst_t = 0.0
    worst_p = 0.0
    worst_snap = 0.0
    for (delays, phases), dirs in zip(configs, direction_sets):
        t, p, snap = synthesize_from_table(dirs, table_delays, table_phases, grid_size, sys_cfg)
        worst_t = max(worst_t, float(np.max(np.abs(delays - t))))
        worst_p = max(worst_p, float(np.max(np.abs(wrap_angle(phases - p)))))
        worst_snap = max(worst_snap, snap)
    ok = worst_t <= TABLE_DELAY_TOL and worst_p <= TABLE_PHASE_TOL and worst_snap <= step / 2.0 + 1e-12
    return ok, (f"{len(configs)} configs rebuilt from nearest-offset rows: max delay error {worst_t:.1e} s, "
                f"max phase error {worst_p:.1e} rad, max snap {worst_snap:.3e}"), worst_snap


# -- dictionary ---------------------------------------------------------------


def read_ttdd(blob: bytes):
    """Parse the documented .ttdd layout: header, D offsets, D rows of N delays then N phases."""
    magic, version, n, a, d, m, fc, bw = TTDD_HEADER.unpack_from(blob)
    offsets = np.frombuffer(blob, dtype="<f8", count=d, offset=TTDD_HEADER.size)
    rows = np.frombuffer(blob, dtype="<f8", count=d * 2 * n, offset=TTDD_HEADER.size + 8 * d)
    rows = rows.reshape(d, 2 * n)
    return {"magic": magic, "version": version, "n": n, "a": a, "d": d, "m": m, "fc": fc,
            "bw": bw, "offsets": offsets, "delays": rows[:, :n], "phases": rows[:, n:]}


def check_ttdd_file(blob: bytes, offsets, delays, phases, grid_size: int, sys_cfg) -> list[tuple[str, bool, str]]:
    """File size, header, offsets 2k/(A-1), the zero entry, mirror symmetry, and file == memory."""
    n, m, fc, bw = sys_cfg
    d = 2 * grid_size - 1
    out = []
    size = 40 + 8 * d + 16 * n * d
    out.append(("dict.size", len(blob) == size, f"{len(blob)} bytes, expected 40 + 8D + 16ND = {size}"))
    if len(blob) != size:
        return out
    f = read_ttdd(blob)
    header_ok = (f["magic"], f["version"], f["n"], f["a"], f["d"], f["m"], f["fc"], f["bw"]) == (
        b"TTDD", 1, n, grid_size, d, m, fc, bw)
    out.append(("dict.header", header_ok, f"header {f['magic']!r} v{f['version']} N={f['n']} A={f['a']} D={f['d']} M={f['m']}"))
    k = np.arange(-(grid_size - 1), grid_size, dtype=np.float64)
    expected = 2.0 * k / (grid_size - 1)
    off_err = float(np.max(np.abs(f["offsets"] - expected)))
    out.append(("dict.offsets", off_err <= 4e-16, f"max |offset - 2k/(A-1)| {off_err:.1e}"))
    same = (np.array_equal(f["offsets"], offsets) and np.array_equal(f["delays"], delays)
            and np.array_equal(f["phases"], phases))
    out.append(("dict.file_matches_memory", same, "file payload equals the built dictionary bit for bit"))
    mid = grid_size - 1
    zero = not np.any(f["delays"][mid]) and not np.any(f["phases"][mid])
    out.append(("dict.zero_entry", zero, f"entry {mid} (offset {f['offsets'][mid]:+.1f}) is the zero config"))
    dt = float(np.max(np.abs(f["delays"] + f["delays"][::-1])))
    dp = float(np.max(np.abs(wrap_angle(f["phases"] + f["phases"][::-1]))))
    ok = dt <= MIRROR_DELAY_TOL and dp <= MIRROR_PHASE_TOL
    out.append(("dict.mirror", ok, f"+delta/-delta entries: delays negate to {dt:.1e} s, phases to {dp:.1e} rad"))
    return out


# -- direct solver ------------------------------------------------------------


def target_correlation(directions, delays, sys_cfg) -> np.ndarray:
    """c_n(t) = sum_m v[n,m] exp(j*2*pi*f_m*t) for the ideal split target v[n,m] = exp(j*pi*n*psi_m*f_m/fc)/sqrt(N).

    ``delays`` is either (K,), the same K delays for every antenna, or (K, N),
    K delays per antenna.  Returns (K, N).
    """
    n, m, fc, bw = sys_cfg
    f = freqs(m, fc, bw)
    psi = per_subcarrier_directions(directions, m)
    v = np.exp(1j * np.pi * np.outer(np.arange(n), psi * f / fc)) / np.sqrt(n)  # (N, M)
    t = np.asarray(delays, dtype=np.float64)
    if t.ndim == 1:
        return np.exp(2j * np.pi * np.outer(t, f)) @ v.T
    out = np.empty(t.shape, dtype=np.complex128)
    for start in range(0, t.shape[0], 16):
        e = np.exp(2j * np.pi * t[start:start + 16, :, None] * f[None, None, :])  # (k, N, M)
        out[start:start + 16] = np.einsum("knm,nm->kn", e, v)
    return out


def check_direct(configs, direction_sets, sys_cfg, max_delay: float, grid_size: int,
                 samples: int, seed: int) -> tuple[bool, str]:
    """Each antenna's phase is the angle of the target correlation at its delay, a grid maximum."""
    n = sys_cfg[0]
    step = max_delay / grid_size
    rng = np.random.default_rng(seed)
    worst_phase = 0.0
    worst_excess = 0.0
    off_grid = 0
    for (delays, phases), dirs in zip(configs, direction_sets):
        k_star = np.round(delays / step)
        off_grid += int(np.count_nonzero(np.abs(delays / step - k_star) > 1e-6)
                        + np.count_nonzero((k_star < 0) | (k_star >= grid_size)))
        c_star = target_correlation(dirs, delays[None, :], sys_cfg)[0]
        worst_phase = max(worst_phase, float(np.max(np.abs(wrap_angle(phases - np.angle(c_star))))))
        shared = target_correlation(dirs, rng.integers(0, grid_size, size=samples) * step, sys_cfg)
        near = target_correlation(dirs, ((k_star + np.arange(-3, 4)[:, None]) % grid_size) * step, sys_cfg)
        excess = np.abs(np.vstack([shared, near])) / np.abs(c_star)[None, :] - 1.0
        worst_excess = max(worst_excess, float(np.max(excess)))
    ok = off_grid == 0 and worst_phase <= DIRECT_PHASE_TOL and worst_excess <= DIRECT_MAG_RTOL
    return ok, (f"{len(configs)} direct configs: {off_grid} delays off the grid, max phase error "
                f"{worst_phase:.1e} rad, best sampled |c| exceeds the chosen one by {worst_excess:.1e}")


# -- evaluation output --------------------------------------------------------


def read_eval_csv(blob: bytes):
    """Rows of the eval CSV as an array, or None with a reason when the layout is wrong."""
    text = blob.decode("ascii")
    lines = text.split("\n")
    if lines[-1] != "":
        return None, "CSV does not end with a newline"
    lines.pop()
    if not lines or lines[0] != CSV_HEADER:
        return None, f"header is {lines[0]!r} not {CSV_HEADER!r}"
    if len(lines) == 1:
        return np.empty((0, 5)), "no rows"
    return np.loadtxt(lines[1:], delimiter=",", dtype=np.float64, ndmin=2), f"{len(lines)} lines"


def check_eval_csv(blob: bytes, trials_completed: int, n_subbands: int, n_subcarriers: int):
    """Line count 1 + trials*M, the documented header, and the row layout; returns the SE matrix."""
    data, why = read_eval_csv(blob)
    expected_lines = 1 + trials_completed * n_subcarriers
    if data is None:
        return False, why, None, None
    if data.shape != (trials_completed * n_subcarriers, 5):
        return False, f"{data.shape[0] + 1} lines, expected 1 + trials*M = {expected_lines}", None, None
    t = np.repeat(np.arange(1, trials_completed + 1), n_subcarriers)
    m = np.tile(np.arange(1, n_subcarriers + 1), trials_completed)
    band = (m - 1) // (n_subcarriers // n_subbands) + 1
    layout = (np.array_equal(data[:, 0], t) and np.array_equal(data[:, 1], m)
              and np.array_equal(data[:, 2], band))
    se = data[:, 4].reshape(trials_completed, n_subcarriers)
    dirs = data[:, 3].reshape(trials_completed, n_subcarriers)
    block = n_subcarriers // n_subbands
    per_band = dirs[:, ::block]
    constant = np.array_equal(dirs, np.repeat(per_band, block, axis=1))
    ok = layout and constant
    return ok, f"{expected_lines} lines, layout {'ok' if layout else 'wrong'}, directions block-constant {constant}", se, per_band


def check_eval_summary(se: np.ndarray, summary: dict, trials_attempted: int, n_subbands: int,
                       upper_bound: float) -> tuple[bool, str]:
    """Per-subband ASE from the CSV matches the summary; completed + failed = attempted."""
    q = quality(se, n_subbands, upper_bound)
    reported = np.asarray(summary["ase_per_subband"], dtype=np.float64)
    ase = q["ase_per_subband"]
    err = float(np.max(np.abs(ase - reported) / reported)) if reported.shape == ase.shape else np.inf
    counted = summary["n_trials"] + len(summary["failures"])
    ok = (err <= 1e-12 and summary["n_trials"] == se.shape[0] and counted == trials_attempted
          and summary["upper_bound"] == upper_bound
          and summary["ecdf_quantiles_pct"]["5"] == q["se_p5_bps_hz"])
    return ok, (f"ASE per subband from CSV vs summary rel. error {err:.1e}; "
                f"{summary['n_trials']} completed + {len(summary['failures'])} failed of {trials_attempted}")


def check_eval_se(se: np.ndarray, per_band_dirs: np.ndarray, configs, sys_cfg, snr_linear: float):
    """Own SE from the trial's config and directions equals the CSV; every SE <= log2(1 + N*SNR)."""
    n, m, fc, bw = sys_cfg
    bound = float(np.log2(1.0 + n * snr_linear))
    worst = 0.0
    for t, (delays, phases) in enumerate(configs):
        own = spectral_efficiency(
            response(delays, phases, per_subcarrier_directions(per_band_dirs[t], m), m, fc, bw), snr_linear)
        worst = max(worst, float(np.max(np.abs(own - se[t]))))
    top = float(se.max())
    ok = worst <= SE_TOL and top <= bound + 1e-12
    return ok, f"{len(configs)} trials: max |own SE - CSV SE| {worst:.1e}, max SE {top:.4f} <= bound {bound:.4f}"


def quality(se: np.ndarray, n_subbands: int, upper_bound: float) -> dict[str, float]:
    """The three quality metrics and the criterion-7 fraction, from the SE matrix."""
    trials, m = se.shape
    ase_band = se.reshape(trials, n_subbands, m // n_subbands).mean(axis=(0, 2))
    ase_sc = se.mean(axis=0)
    flat = np.sort(se.ravel())
    return {
        "ase_per_subband": ase_band,
        "ratios": ase_band / upper_bound,
        "ase_min_ratio": float(ase_band.min() / upper_bound),
        "ase_sc_spread": float((ase_sc.max() - ase_sc.min()) / ase_sc.min()),
        "se_p5_bps_hz": float(flat[max(0, int(np.ceil(0.05 * flat.size)) - 1)]),
        "frac_below_6": float(np.searchsorted(flat, 6.0, side="left") / flat.size),
    }


def check_claims(q: dict) -> list[tuple[str, bool, str]]:
    """The paper's claims as criteria 5-7 of the acceptance suite bound them."""
    r = q["ratios"]
    return [
        ("claim.ase_per_subband", bool(np.all(r >= 0.82) and np.all(r <= 0.97) and r.max() - r.min() <= 0.05),
         f"ASE/bound per subband {np.round(r, 4).tolist()} in [0.82, 0.97], max-min {r.max() - r.min():.4f} <= 0.05"),
        ("claim.subcarrier_spread", q["ase_sc_spread"] <= 0.15,
         f"subcarrier ASE spread {q['ase_sc_spread']:.4f} <= 0.15"),
        ("claim.low_se_fraction", q["frac_below_6"] <= 0.05,
         f"fraction of SE below 6 bps/Hz {q['frac_below_6']:.4f} <= 0.05"),
    ]
