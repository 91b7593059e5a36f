"""Generator dictionary: precomputed two-subband split-beam configs per direction offset.

Entries are indexed by the direction offset between the two subbands.  The
offset grid is the full set of pairwise differences of an A-point uniform
direction grid on [-1, 1] (2A-1 values spanning [-2, 2]), so any difference
of two on-grid directions is itself an offset with its own entry; the
constructor rejects any other offsets.  Offsets beyond [-1, 1] are kept
unwrapped on purpose: a mod-2 direction shift is exact only at the carrier,
so fitting the true (aliased) target keeps the composed beam on target at
every subcarrier instead of drifting with the beam squint at the band edges.

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
    PsiGrid,
    SystemConfig,
    _readonly,
    _response,
    subcarrier_freqs,
    zero_config,
)
from .parallel import worker_count
from .solvers import SolverParams, fold_delay_periods, jpta_approx
from .splitbeam import _steering_precoder

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

    def lookup(self, delta: float) -> ArrayConfig:
        """Nearest-neighbor entry for a direction offset; ties take the smaller offset."""
        if not -2.0 <= delta <= 2.0:
            raise ValueError(f"offset must lie in [-2, 2], got {delta}")
        idx = int(np.argmin(np.abs(self.offsets - delta)))
        return self.config(idx)

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


def _two_subband_target(delta: float, cfg: SystemConfig) -> np.ndarray:
    """Ideal precoder steering the lower half-band at 0 and the upper at delta.

    Unlike user-facing direction maps, delta may exceed the visible range
    [-1, 1]: the steering formula extends smoothly and the out-of-range
    direction appears in-range through the pattern's aliasing.
    """
    return _steering_precoder(np.repeat([0.0, delta], cfg.n_subcarriers // 2), cfg)


def _gain_profile(phi: ArrayConfig, psi: float, cfg: SystemConfig) -> np.ndarray:
    """|gain| toward one (possibly out-of-range) direction at every subcarrier."""
    return np.abs(_response(phi.delays, phi.phases, psi, subcarrier_freqs(cfg), cfg))


def _center_params(phi: ArrayConfig, delta: float, cfg: SystemConfig) -> tuple[float, float] | None:
    """Bandwidth and center frequency that put both gain maxima at subband centers.

    Returns None in the degenerate case where both maxima fall on the same
    subcarrier.
    """
    m_count = cfg.n_subcarriers
    m1 = int(np.argmax(_gain_profile(phi, 0.0, cfg))) + 1
    m2 = int(np.argmax(_gain_profile(phi, delta, cfg))) + 1
    if m1 == m2:
        return None
    alpha = m_count / (2.0 * abs(m2 - m1))
    bw_new = cfg.bandwidth * alpha
    f1 = cfg.carrier_freq + m1 * cfg.bandwidth / m_count - cfg.bandwidth / 2.0
    f2 = cfg.carrier_freq + m2 * cfg.bandwidth / m_count - cfg.bandwidth / 2.0
    fc_new = cfg.carrier_freq - ((f1 + f2) / 2.0 - cfg.carrier_freq) * alpha
    return fc_new, bw_new


def postprocess_center(phi: ArrayConfig, delta: float, cfg: SystemConfig) -> ArrayConfig:
    """Re-center a two-subband config so its gain maxima sit at the subband centers.

    The band is rescaled so the two maxima land half the band apart and
    shifted so their frequency midpoint maps to the carrier.  Degenerate
    inputs (both maxima on one subcarrier) are returned unchanged.
    """
    params = _center_params(phi, delta, cfg)
    if params is None:
        return phi
    fc_new, bw_new = params
    return hdb.scale_shift(phi, fc_new, bw_new, cfg)


def _build_one(
    delta: float, cfg: SystemConfig, solver: SolverParams, direction_grid_size: int
) -> tuple[ArrayConfig, bool, list[str]]:
    """Build and check a single offset entry; returns (config, degenerate, warnings)."""
    if delta == 0.0:
        return zero_config(cfg.n_antennas), False, []
    phi = fold_delay_periods(jpta_approx(_two_subband_target(delta, cfg), solver, cfg), cfg)
    out = postprocess_center(phi, delta, cfg)
    if out is phi:
        return phi, True, []
    return out, False, _entry_diagnostics(delta, out, cfg, direction_grid_size)


def _entry_diagnostics(
    dictionary_delta: float, phi: ArrayConfig, cfg: SystemConfig, direction_grid_size: int
) -> list[str]:
    """Fidelity checks for one non-degenerate entry: peak placement and minimum gain."""
    warnings: list[str] = []
    m_count = cfg.n_subcarriers
    half = m_count // 2
    targets = (0.0, dictionary_delta)
    floor = _GAIN_THRESHOLD * np.sqrt(cfg.n_antennas)
    grid = PsiGrid.uniform(direction_grid_size)
    step = grid.step
    centers = (half // 2, half + half // 2)  # 0-based subband-center subcarriers
    f = subcarrier_freqs(cfg)
    for band, (target, center_m) in enumerate(zip(targets, centers), start=1):
        band_gains = _gain_profile(phi, target, cfg)[(band - 1) * half : band * half]
        if band_gains.min() < floor:
            warnings.append(
                f"offset {dictionary_delta:+.6f}: subband {band} gain dips to "
                f"{band_gains.min():.3f} (< {floor:.3f})"
            )
        f_m = f[center_m]
        column = _response(phi.delays, phi.phases, grid.points, f_m, cfg)
        peak = grid.points[int(np.argmax(np.abs(column)))]
        # the visible peak of direction d at frequency f_m is its alias
        # d - 2k*fc/f_m brought into [-1, 1]
        k = round(target * f_m / (2.0 * cfg.carrier_freq))
        expected = target - 2.0 * k * cfg.carrier_freq / f_m
        if abs(peak - expected) > 2.0 * step + 1e-12:
            warnings.append(
                f"offset {dictionary_delta:+.6f}: subband {band} peak at {peak:+.6f}, "
                f"{abs(peak - expected) / step:.1f} grid steps from expected {expected:+.6f}"
            )
    return warnings


def build_dictionary(
    cfg: SystemConfig, direction_grid_size: int, solver: SolverParams, *, workers: int | None = None
) -> GeneratorDictionary:
    """Build the offset-indexed config table for a system.

    Each offset gets the two-subband config fitted against the ideal
    [0, offset] target, delay-folded, then re-centered; the zero offset is
    the zero config by construction.  Entries are independent and may build
    in parallel; the result is identical regardless of worker count.
    Fidelity diagnostics run per entry, in the workers, right after the
    entry is built.  Their findings are attached as ``build_warnings`` and
    degenerate entries listed in ``degenerate``; neither affects equality or
    persistence.
    """
    if cfg.n_subcarriers % 2 != 0:
        raise ValueError("dictionary construction needs an even subcarrier count")
    offsets = offset_grid(direction_grid_size)
    deltas = offsets.tolist()
    args = (deltas, repeat(cfg), repeat(solver), repeat(direction_grid_size))

    n_workers = worker_count(workers)
    if n_workers > 1 and len(deltas) > 4:
        with ProcessPoolExecutor(max_workers=n_workers) as pool:
            built = list(pool.map(_build_one, *args, chunksize=math.ceil(len(deltas) / n_workers)))
    else:
        built = list(map(_build_one, *args))

    return GeneratorDictionary(
        offsets=offsets,
        delays=np.array([phi.delays for phi, _, _ in built]),
        phases=np.array([phi.phases for phi, _, _ in built]),
        meta=cfg,
        direction_grid_size=direction_grid_size,
        degenerate=tuple(i for i, (_, flagged, _) in enumerate(built) if flagged),
        build_warnings=tuple(w for _, _, found in built for w in found),
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
    offsets = np.frombuffer(blob, dtype="<f8", count=d, offset=_HEADER.size).copy()
    rows = (
        np.frombuffer(blob, dtype="<f8", count=d * 2 * n, offset=_HEADER.size + d * 8)
        .copy()
        .reshape(d, 2 * n)
    )
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
