"""Generator dictionary: precomputed two-subband split-beam configs per direction offset.

Entries are indexed by the direction offset between the two subbands.  The
offset grid is the full set of pairwise differences of an A-point uniform
direction grid on [-1, 1] (2A-1 values spanning [-2, 2]), so any difference
of two on-grid directions is itself an offset with its own entry; the
constructor rejects any other offsets.  Offsets beyond [-1, 1] are kept
unwrapped on purpose: a mod-2 direction shift is exact only at the carrier,
so fitting the true (aliased) target keeps the composed beam on target at
every subcarrier instead of drifting with the beam squint at the band edges.

Only the offsets delta >= 0 are fitted.  Entry -delta is entry delta with
delays and phases negated (no phase wrapping), so the table is exactly
mirror-symmetric.  A direct fit for -delta gives the same config up to
rounding and whole turns of phase: the target for -delta is the complex
conjugate of the target for delta, and every later step is odd in (delays,
phases).  Conjugating target and precoder leaves the fit objective unchanged
and the default one-period delay grid is symmetric modulo its period; the
fold maps a negated delay to the negated folded one; the re-centring reads
|gain| profiles, equal for a config toward psi and its negation toward -psi,
and applies the linear ``hdb.scale_shift``.

The fit itself has a closed form for every delay range: each antenna's
correlation with the two-subband target is a sum of two geometric series in
the delay, so it is evaluated in Dirichlet form on the delay grid, and its
maximum is the grid optimum the line search of ``jpta_approx`` would find on
the built N x M target.  On the default grid, which spans one correlation
period M/BW, only the grid points of the two main lobes are evaluated.

Binary layout (little-endian): 40-byte header (magic "TTDD", version,
N, A, D, M as int32, fc and bw as float64), then D offsets as float64, then
D rows of 2N float64 (N delays followed by N phases).  A JSON sidecar
mirroring the header is written next to the file for inspection.
"""

from __future__ import annotations

import json
import math
import os
import struct
from concurrent.futures import ProcessPoolExecutor
from dataclasses import dataclass, field
from itertools import repeat

import numpy as np

from . import hdb
from .core import (
    ArrayConfig,
    SystemConfig,
    _comb_factors,
    _pattern,
    _readonly,
    _weights,
    direction_grid,
    subcarrier_freqs,
    zero_config,
)
from .parallel import worker_count
from .solvers import (  # noqa: F401  jpta_approx is unused here; perfbench/tracer.py wraps this name
    SolverParams,
    _spans_one_period,
    _winning_config,
    fold_delay_periods,
    jpta_approx,
)

__all__ = [
    "GeneratorDictionary",
    "DictionaryFormatError",
    "offset_grid",
    "build_dictionary",
    "postprocess_center",
    "save",
    "load",
]

_MAGIC = b"TTDD"
_VERSION = 1
_HEADER = struct.Struct("<4siiiiidd")
_GAIN_THRESHOLD = 0.5  # build warning when a subband's gain dips below this fraction of sqrt(N)


class DictionaryFormatError(Exception):
    """Raised when a dictionary file is corrupt or has an unknown format."""


@dataclass(frozen=True, eq=False)
class GeneratorDictionary:
    """Immutable two-subband configs, one per offset; ``offsets`` is bitwise ``offset_grid(A)``."""

    offsets: np.ndarray
    delays: np.ndarray
    phases: np.ndarray
    meta: SystemConfig
    direction_grid_size: int
    degenerate: tuple[int, ...] = field(default=())
    build_warnings: tuple[str, ...] = field(default=())

    def __post_init__(self) -> None:
        for name in ("offsets", "delays", "phases"):
            object.__setattr__(self, name, _readonly(getattr(self, name)))
        a = self.direction_grid_size
        d = 2 * a - 1
        # the size test first, so a huge A is refused before its grid is built
        if self.offsets.shape != (d,) or self.offsets.tobytes() != offset_grid(a).tobytes():
            raise ValueError(f"offsets must be the {d}-point offset grid of a {a}-point direction grid")
        n = self.meta.n_antennas
        if self.delays.shape != (d, n) or self.phases.shape != (d, n):
            raise ValueError(
                f"config arrays must be ({d}, {n}), got {self.delays.shape} and {self.phases.shape}"
            )
        if not (np.isfinite(self.delays).all() and np.isfinite(self.phases).all()):
            raise ValueError("config rows must be finite")

    @property
    def n_entries(self) -> int:
        return self.offsets.size

    def config(self, index: int) -> ArrayConfig:
        return ArrayConfig(self.delays[index], self.phases[index])

    def index(self, delta: float) -> int:
        """Row of the nearest offset to delta; ties take the smaller offset.

        Bitwise ``argmin(abs(offsets - delta))`` in O(1): the grid formula
        offsets[i] = 2(i - (A-1))/(A-1) names the candidate row, and the
        first minimum of abs(offsets[j] - delta) over its neighbours decides.
        """
        if not -2.0 <= delta <= 2.0:
            raise ValueError(f"offset must lie in [-2, 2], got {delta}")
        denom = self.direction_grid_size - 1
        guess = min(max(round(delta * denom / 2.0) + denom, 1), 2 * denom - 1)
        below, at, above = self.offsets[guess - 1 : guess + 2].tolist()
        errors = (abs(below - delta), abs(at - delta), abs(above - delta))
        return guess - 1 + errors.index(min(errors))

    def indices(self, deltas: np.ndarray) -> np.ndarray:
        """:meth:`index` of every offset in an array, elementwise and bitwise the same rows."""
        deltas = np.asarray(deltas, dtype=np.float64)
        outside = ~(np.abs(deltas) <= 2.0)
        if outside.any():
            raise ValueError(f"offset must lie in [-2, 2], got {deltas[outside][0]}")
        denom = self.direction_grid_size - 1
        guess = np.clip(np.rint(deltas * denom / 2.0).astype(np.intp) + denom, 1, 2 * denom - 1)
        errors = np.abs(self.offsets[guess[..., None] + np.arange(-1, 2)] - deltas[..., None])
        return guess - 1 + np.argmin(errors, axis=-1)  # argmin keeps the first of equal errors

    def lookup(self, delta: float) -> ArrayConfig:
        """Nearest-neighbor entry for a direction offset; ties take the smaller offset."""
        return self.config(self.index(delta))

    def __eq__(self, other: object) -> bool:
        if not isinstance(other, GeneratorDictionary):
            return NotImplemented
        return (
            self.meta == other.meta
            and self.direction_grid_size == other.direction_grid_size
            and self.delays.tobytes() == other.delays.tobytes()
            and self.phases.tobytes() == other.phases.tobytes()
        )


def offset_grid(direction_grid_size: int) -> np.ndarray:
    """All pairwise differences of the A-point direction grid: 2A-1 values in [-2, 2]."""
    if direction_grid_size < 2:
        raise ValueError("direction grid needs at least 2 points")
    denom = direction_grid_size - 1
    k = np.arange(-denom, denom + 1, dtype=np.float64)
    return 2.0 * k / denom


def _geometric_sum(phi: np.ndarray, first: int, count: int) -> np.ndarray:
    """sum_{m=first}^{first+count-1} exp(j*m*phi) in Dirichlet form, elementwise.

    phi is first reduced to [-pi, pi]: near a whole turn sin(phi/2) would
    otherwise be a rounding residue (about 1e-16 at 2*pi) instead of 0.
    """
    phi = phi - 2.0 * np.pi * np.round(phi / (2.0 * np.pi))
    den = np.sin(phi / 2.0)
    ratio = np.divide(np.sin(count * phi / 2.0), den, out=np.full(phi.shape, float(count)),
                      where=den != 0.0)
    return np.exp(1j * (first + (count - 1) / 2.0) * phi) * ratio


def _two_subband_fit(delta: float, solver: SolverParams, cfg: SystemConfig) -> ArrayConfig:
    """The config ``jpta_approx`` fits to the ideal [0, delta] two-subband target, in closed form.

    At grid delay t_k = k*max_delay/K, antenna n's baseband correlation with
    the target is two geometric series in theta = 2*pi*BW*t_k/M,

        c_n(theta) = (sum_{m=1..H} e^{j*m*theta}
                      + e^{j*pi*n*delta*f0/fc} * sum_{m=H+1..M} e^{j*m*(theta + s_n)}) / sqrt(N),

    with H = M/2, f0 = fc - BW/2 and s_n = pi*n*delta*BW/(M*fc).  On a grid
    spanning one correlation period (max_delay = M/BW) the grid maximum lies
    in the main lobe of one series, around k = 0 or around k = -s_n*K/(2*pi)
    (mod K); a lobe reaches 2K/M steps either side.  Only those two windows
    are evaluated, in ascending k so that ties keep the smaller delay as in
    ``jpta_approx``.  Any other range, a grid too coarse to resolve the lobes
    (K < 2M), or one the windows cover anyway, is evaluated whole.  The
    delays are the line search's except where two grid points tie exactly
    (rational fc/BW, delta and K can place both lobe peaks on the grid; a
    range of whole periods meets each peak more than once): rounding then
    picks the winner, and may pick the other optimum.
    """
    n_count, m_count, size = cfg.n_antennas, cfg.n_subcarriers, solver.delay_grid_size
    one_period = _spans_one_period(solver.max_delay, cfg)
    periods = 1.0 if one_period else solver.max_delay * cfg.bandwidth / m_count  # range in periods M/BW
    half = m_count // 2
    n = np.arange(n_count)
    s = np.pi * n * delta * cfg.bandwidth / (m_count * cfg.carrier_freq)
    reach = -(-2 * size // m_count) + 1
    if not one_period or size < 2 * m_count or 2 * (2 * reach + 1) >= size:
        k = np.broadcast_to(np.arange(size), (n_count, size))
    else:
        steps = np.arange(-reach, reach + 1)
        centers = np.rint(-s * size / (2.0 * np.pi)).astype(np.int64)
        k = np.sort(np.hstack([np.broadcast_to(steps, (n_count, steps.size)),
                               centers[:, None] + steps]) % size, axis=1)
    theta = 2.0 * np.pi * k * periods / size
    jump = np.exp(1j * np.pi * n * delta * (cfg.carrier_freq - cfg.bandwidth / 2.0) / cfg.carrier_freq)
    # the common 1/sqrt(N) moves neither the argmax nor the phase and is left out
    c = _geometric_sum(theta, 1, half) + jump[:, None] * _geometric_sum(theta + s[:, None], half + 1, half)
    best = np.argmax(np.abs(c), axis=1)  # first max: smaller delay wins ties
    t_best = k[n, best] * (solver.max_delay / size)
    return _winning_config(t_best, c[n, best], cfg)


def _gain_profile(phi: ArrayConfig, psi, cfg: SystemConfig) -> np.ndarray:
    """|gain| toward a (possibly out-of-range) direction at every subcarrier.

    ``psi`` is one direction, or a column of them for one profile per row.
    Steering toward a constant psi is adding a constant-direction config:
    the gain at f_m is sum_n exp(j*(phi_n - 2*pi*f_m*(t_n + n*psi/(2*fc)))) / sqrt(N),
    the broadside response of phi with its delays shifted by n*psi/(2*fc).
    So a profile is sum_n coarse[n, p] * fine[n, q] over the
    ``_comb_factors`` of the shifted delays, one (P x N) @ (N x Q) product
    per row.
    """
    psi = np.asarray(psi, dtype=np.float64)
    shift = np.arange(cfg.n_antennas) * (psi.reshape(-1, 1) / (2.0 * cfg.carrier_freq))
    coarse, fine = _comb_factors(phi.delays + shift, phi.phases, cfg)
    gains = np.matmul(np.swapaxes(coarse, 1, 2), fine)
    return np.abs(gains).reshape(psi.shape[:-1] + (cfg.n_subcarriers,))


def postprocess_center(phi: ArrayConfig, delta: float, cfg: SystemConfig) -> ArrayConfig:
    """Re-center a two-subband config so its gain maxima sit at the subband centers.

    The band is rescaled so the two maxima land half the band apart and
    shifted so their frequency midpoint maps to the carrier.  Degenerate
    inputs (both maxima on one subcarrier) are returned unchanged.
    """
    m1, m2 = np.argmax(_gain_profile(phi, np.array([[0.0], [delta]]), cfg), axis=1).tolist()
    if m1 == m2:
        return phi
    alpha = cfg.n_subcarriers / (2.0 * abs(m2 - m1))
    f = subcarrier_freqs(cfg)
    fc_new = cfg.carrier_freq - ((f[m1] + f[m2]) / 2.0 - cfg.carrier_freq) * alpha
    return hdb.scale_shift(phi, fc_new, cfg.bandwidth * alpha, cfg)


def _build_one(
    delta: float, cfg: SystemConfig, solver: SolverParams, direction_grid_size: int
) -> tuple[ArrayConfig, bool, list[str], list[str]]:
    """Build the entry for an offset delta >= 0 and check it and its mirror at -delta.

    Returns (config, degenerate, warnings for -delta, warnings for +delta);
    the -delta entry is the config negated, degenerate exactly when it is.
    """
    if delta == 0.0:
        return zero_config(cfg.n_antennas), False, [], []
    phi = fold_delay_periods(_two_subband_fit(delta, solver, cfg), cfg)
    out = postprocess_center(phi, delta, cfg)
    if out is phi:
        return phi, True, [], []
    return (out, False, *_entry_diagnostics(delta, out, cfg, direction_grid_size))


def _entry_diagnostics(
    delta: float, phi: ArrayConfig, cfg: SystemConfig, direction_grid_size: int
) -> tuple[list[str], list[str]]:
    """Fidelity checks, peak placement and minimum gain, for a non-degenerate entry and its mirror.

    Returns (warnings for the config negated at -delta, warnings for the
    config at delta).  Both use the smallest |gain| of each half band toward
    its own direction (0, then delta) for this entry: the negated config
    toward -delta has bitwise the same |gain| profiles.  Peaks are read at
    each subband's centre subcarrier, for both configs in one elementwise
    Horner evaluation.
    """
    half = cfg.n_subcarriers // 2
    low, high = _gain_profile(phi, np.array([[0.0], [delta]]), cfg)
    band_minima = (float(low[:half].min()), float(high[half:].min()))
    points = direction_grid(direction_grid_size)
    step = points[1] - points[0]
    floor = _GAIN_THRESHOLD * np.sqrt(cfg.n_antennas)
    f_c = subcarrier_freqs(cfg)[[half // 2, half + half // 2]]  # subband-centre frequencies
    sign = np.array([[-1.0], [1.0]])  # the mirror, then the entry
    v = _weights(sign * phi.delays, sign * phi.phases, f_c) / np.sqrt(cfg.n_antennas)
    # one row of directions per (config, subband), so each Horner step runs along the grid
    f = np.tile(f_c, (2, 1))[..., None]
    gains = _pattern(np.moveaxis(v, 1, 0)[..., None], points, f, cfg.carrier_freq)
    found: tuple[list[str], list[str]] = ([], [])
    for offset, peaks, warnings in zip((-delta, delta), points[np.argmax(np.abs(gains), axis=-1)], found):
        for band, (target, f_m, peak, low) in enumerate(zip((0.0, offset), f_c, peaks, band_minima), start=1):
            if low < floor:
                warnings.append(
                    f"offset {offset:+.6f}: subband {band} gain dips to {low:.3f} (< {floor:.3f})"
                )
            # the visible peak of direction d at frequency f_m is its alias
            # d - 2k*fc/f_m brought into [-1, 1]
            k = round(target * f_m / (2.0 * cfg.carrier_freq))
            expected = target - 2.0 * k * cfg.carrier_freq / f_m
            if abs(peak - expected) > 2.0 * step + 1e-12:
                warnings.append(
                    f"offset {offset:+.6f}: subband {band} peak at {peak:+.6f}, "
                    f"{abs(peak - expected) / step:.1f} grid steps from expected {expected:+.6f}"
                )
    return found


def build_dictionary(
    cfg: SystemConfig, direction_grid_size: int, solver: SolverParams, *, workers: int | None = None
) -> GeneratorDictionary:
    """Build the offset-indexed config table for a system.

    Each offset delta >= 0 gets the two-subband config fitted against the
    ideal [0, delta] target, delay-folded, then re-centered; the zero offset
    is the zero config by construction.  The fit is the closed form of
    :func:`_two_subband_fit` for every ``solver.max_delay``; no target is
    built.  Entry -delta is entry delta negated: target(-delta) =
    conj(target(delta)) and every later step is odd in (delays, phases) (see
    the module docstring).  The A fitted entries are independent and may
    build in parallel; the result is identical regardless of worker count.
    Fidelity diagnostics for delta and -delta run in the workers, right
    after the entry is built.  Their findings are attached as
    ``build_warnings`` and degenerate entries listed in ``degenerate``, both
    in ascending offset order; neither affects equality or persistence.
    """
    if cfg.n_subcarriers % 2 != 0:
        raise ValueError("dictionary construction needs an even subcarrier count")
    offsets = offset_grid(direction_grid_size)
    zero = direction_grid_size - 1  # index of offset 0; offsets[zero + k] = -offsets[zero - k]
    deltas = offsets[zero:].tolist()
    args = (deltas, repeat(cfg), repeat(solver), repeat(direction_grid_size))

    n_workers = worker_count(workers)
    if n_workers > 1 and len(deltas) > 4:
        with ProcessPoolExecutor(max_workers=n_workers) as pool:
            built = list(pool.map(_build_one, *args, chunksize=math.ceil(len(deltas) / n_workers)))
    else:
        built = list(map(_build_one, *args))

    configs, degenerate, mirror_warnings, warnings = zip(*built)
    delays = np.array([phi.delays for phi in configs])
    phases = np.array([phi.phases for phi in configs])
    flagged = [k for k, bad in enumerate(degenerate) if bad]
    return GeneratorDictionary(
        offsets=offsets,
        delays=np.concatenate([-delays[:0:-1], delays]),
        phases=np.concatenate([-phases[:0:-1], phases]),
        meta=cfg,
        direction_grid_size=direction_grid_size,
        degenerate=tuple([zero - k for k in reversed(flagged)] + [zero + k for k in flagged]),
        build_warnings=tuple(w for found in (*mirror_warnings[::-1], *warnings) for w in found),
    )


def _write_temp(path: str, data: bytes) -> str:
    """Write ``data`` to a new file next to ``path`` and return its name; removed if the write fails."""
    tmp = f"{path}.{os.urandom(8).hex()}.tmp"
    fh = open(tmp, "xb")
    try:
        with fh:
            fh.write(data)
    except BaseException:
        os.unlink(tmp)
        raise
    return tmp


def save(dictionary: GeneratorDictionary, path: str | os.PathLike) -> None:
    """Write the binary dictionary plus a JSON sidecar mirroring the header.

    Both files are first written in full to temporary files in the target
    directory and only then moved over their targets with ``os.replace``, so
    a write that fails leaves any previous dictionary and sidecar untouched.
    """
    cfg = dictionary.meta
    sidecar = {  # header fields in header order; json.dumps sorts the keys
        "magic": _MAGIC.decode("ascii"),
        "version": _VERSION,
        "n": cfg.n_antennas,
        "a": dictionary.direction_grid_size,
        "d": dictionary.n_entries,
        "m": cfg.n_subcarriers,
        "fc_hz": cfg.carrier_freq,
        "bw_hz": cfg.bandwidth,
    }
    header = _HEADER.pack(_MAGIC, *list(sidecar.values())[1:])
    rows = np.hstack([dictionary.delays, dictionary.phases]).astype("<f8")
    binary = header + dictionary.offsets.astype("<f8").tobytes() + rows.tobytes()
    text = (json.dumps(sidecar, indent=2, sort_keys=True) + "\n").encode("utf-8")

    path = os.fspath(path)
    binary_tmp = _write_temp(path, binary)
    try:
        sidecar_tmp = _write_temp(f"{path}.json", text)
    except BaseException:
        os.unlink(binary_tmp)
        raise
    os.replace(binary_tmp, path)
    os.replace(sidecar_tmp, f"{path}.json")


def load(path: str | os.PathLike) -> GeneratorDictionary:
    """Read a dictionary written by :func:`save`; rejects corrupt files whole.

    Beyond magic, version and payload length, the file must pass the
    constructor's checks: offsets bitwise the A-point offset grid (so the
    entry count is 2A-1), finite rows and a header that is a valid system.
    """
    with open(path, "rb") as fh:
        blob = fh.read()
    if len(blob) < _HEADER.size:
        raise DictionaryFormatError("file shorter than header")
    magic, version, n, a, d, m, fc, bw = _HEADER.unpack_from(blob)
    if magic != _MAGIC:
        raise DictionaryFormatError(f"bad magic {magic!r}")
    if version != _VERSION:
        raise DictionaryFormatError(f"unsupported version {version}")
    if n < 1 or d < 1 or m < 1 or a < 2:
        raise DictionaryFormatError("implausible header counts")
    expected = _HEADER.size + d * 8 + d * 2 * n * 8
    if len(blob) != expected:
        raise DictionaryFormatError(
            f"payload length {len(blob)} does not match header (expected {expected})"
        )
    # read-only views of the blob; the constructor copies them
    offsets = np.frombuffer(blob, dtype="<f8", count=d, offset=_HEADER.size)
    rows = np.frombuffer(blob, dtype="<f8", count=d * 2 * n, offset=_HEADER.size + d * 8).reshape(d, 2 * n)
    try:
        return GeneratorDictionary(
            offsets=offsets,
            delays=rows[:, :n],
            phases=rows[:, n:],
            meta=SystemConfig(n, m, fc, bw),
            direction_grid_size=a,
        )
    except ValueError as exc:
        raise DictionaryFormatError(str(exc)) from None
