"""Array model for a true-time-delay ULA: configs, precoders, beampatterns.

A uniform linear array with half-wavelength spacing at the carrier is driven
through one time delay and one phase shifter per antenna.  Everything here is
a pure function of its inputs; the value types are immutable and safe to
share across threads.

Sine-space convention: a direction is psi = sin(theta) in [-1, 1], and the
steering exponent at subcarrier frequency f is ``-j * n * pi * psi * f / fc``
(standard half-wavelength ULA referenced to the carrier).
"""

from __future__ import annotations

import math
import sys
import warnings
from dataclasses import dataclass

import numpy as np

__all__ = [
    "SystemConfig",
    "ArrayConfig",
    "PsiGrid",
    "direction_grid",
    "Beampattern",
    "subcarrier_freqs",
    "precoder_matrix",
    "beampattern_of_precoder",
    "gain_at_directions",
    "argmax_directions",
    "wrap_sine",
    "zero_config",
    "config_to_json_dict",
    "config_from_json_dict",
]


def _readonly(a: np.ndarray, dtype=np.float64) -> np.ndarray:
    out = np.array(a, dtype=dtype, copy=True)
    out.setflags(write=False)
    return out


def wrap_sine(x: float) -> float:
    """Wrap a sine-space value into (-1, 1] by shifting multiples of 2."""
    return float(x - 2.0 * math.ceil((x - 1.0) / 2.0))


@dataclass(frozen=True)
class SystemConfig:
    """OFDM system: N antennas, M subcarriers over bandwidth centered at fc."""

    n_antennas: int
    n_subcarriers: int
    carrier_freq: float
    bandwidth: float

    def __post_init__(self) -> None:
        if self.n_antennas < 1:
            raise ValueError(f"n_antennas must be >= 1, got {self.n_antennas}")
        if self.n_subcarriers < 1:
            raise ValueError(f"n_subcarriers must be >= 1, got {self.n_subcarriers}")
        # a finite carrier bounds the bandwidth too
        if not (math.isfinite(self.carrier_freq) and self.carrier_freq > self.bandwidth / 2.0 > 0.0):
            raise ValueError(
                "require finite carrier_freq > bandwidth/2 > 0, got "
                f"fc={self.carrier_freq}, bw={self.bandwidth}"
            )
        # then the generators' band boundaries, BW/G >= BW/M apart and under 3 ulp off, stay distinct
        if not self.bandwidth / self.n_subcarriers >= 4.0 * math.ulp(self.carrier_freq + self.bandwidth / 2.0):
            raise ValueError(f"subcarrier spacing bw/m = {self.bandwidth / self.n_subcarriers:.3e} Hz "
                             f"is below 4 ulp of fc + bw/2, got fc={self.carrier_freq}")


def _freqs(cfg: SystemConfig, m: np.ndarray) -> np.ndarray:
    """Frequencies f_m = fc + m*BW/M - BW/2 at float64 1-based subcarrier indices ``m``, in Hz."""
    return cfg.carrier_freq + m * (cfg.bandwidth / cfg.n_subcarriers) - cfg.bandwidth / 2.0


def subcarrier_freqs(cfg: SystemConfig) -> np.ndarray:
    """Frequencies f_m for m = 1..M, in Hz."""
    return _freqs(cfg, np.arange(1, cfg.n_subcarriers + 1, dtype=np.float64))


@dataclass(frozen=True)
class ArrayConfig:
    """Per-antenna time delays (seconds) and phase shifts (radians).

    Adding two configs adds both vectors elementwise.  Negative delays are
    permitted; they are only flagged against a hardware range at export time
    (shifting them out would alter the frequency dependence of the pattern).
    """

    delays: np.ndarray
    phases: np.ndarray

    def __post_init__(self) -> None:
        object.__setattr__(self, "delays", _readonly(self.delays))
        object.__setattr__(self, "phases", _readonly(self.phases))
        if self.delays.ndim != 1 or self.phases.ndim != 1:
            raise ValueError("delays and phases must be 1-D vectors")
        if self.delays.shape != self.phases.shape:
            raise ValueError(
                f"delay/phase length mismatch: {self.delays.shape} vs {self.phases.shape}"
            )
        # count_nonzero is cheaper than .all() on short vectors, and every config passes here
        for x in (self.delays, self.phases):
            if np.count_nonzero(np.isfinite(x)) != x.size:
                raise ValueError("delays and phases must be finite")

    @classmethod
    def _of_rows(cls, delays: np.ndarray, phases: np.ndarray) -> "ArrayConfig":
        """Config over two rows as they are: no copy and no checks.

        For callers that have already made, frozen and checked both rows:
        :class:`~ttdbeam.dictionary.GeneratorDictionary` (its table's rows)
        and :func:`~ttdbeam.hdb.synthesize` (the sums it made).  The rows
        must be read-only, finite float64 vectors of one length.
        """
        phi = object.__new__(cls)
        object.__setattr__(phi, "delays", delays)
        object.__setattr__(phi, "phases", phases)
        return phi

    @property
    def n_antennas(self) -> int:
        return self.delays.shape[0]

    def __add__(self, other: "ArrayConfig") -> "ArrayConfig":
        if not isinstance(other, ArrayConfig):
            return NotImplemented
        if other.n_antennas != self.n_antennas:
            raise ValueError(
                f"cannot add configs with {self.n_antennas} and {other.n_antennas} antennas"
            )
        return ArrayConfig(self.delays + other.delays, self.phases + other.phases)


def zero_config(n_antennas: int) -> ArrayConfig:
    """All-zero config: broadside steering, identity under composition."""
    z = np.zeros(n_antennas)
    return ArrayConfig(z, z)


def direction_grid(size: int) -> np.ndarray:
    """Uniform sine-space grid: point a is -1 + 2a/(size-1), endpoints exactly +-1."""
    if size < 2:
        raise ValueError("direction grid needs at least 2 points")
    return -1.0 + 2.0 * np.arange(size, dtype=np.float64) / (size - 1)


@dataclass(frozen=True)
class PsiGrid:
    """Strictly increasing sample points in sine space, within [-1, 1]."""

    points: np.ndarray

    def __post_init__(self) -> None:
        object.__setattr__(self, "points", _readonly(self.points))
        if self.points.ndim != 1 or self.points.size < 2:
            raise ValueError("grid needs at least 2 points")
        if np.any(np.diff(self.points) <= 0):
            raise ValueError("grid points must be strictly increasing")
        if self.points[0] < -1.0 or self.points[-1] > 1.0:
            raise ValueError("grid points must lie in [-1, 1]")

    @classmethod
    def uniform(cls, n_points: int = 1001) -> "PsiGrid":
        return cls(direction_grid(n_points))

    @property
    def step(self) -> float:
        return float(self.points[1] - self.points[0])

    def __len__(self) -> int:
        return self.points.size


@dataclass(frozen=True)
class Beampattern:
    """Complex gains sampled on a PsiGrid (rows) per subcarrier (columns)."""

    gains: np.ndarray
    grid: PsiGrid

    def __post_init__(self) -> None:
        object.__setattr__(self, "gains", _readonly(self.gains, np.complex128))
        if self.gains.ndim != 2 or self.gains.shape[0] != len(self.grid):
            raise ValueError(
                f"gains shape {self.gains.shape} inconsistent with grid of {len(self.grid)} points"
            )


def _weights(delays: np.ndarray, phases, f: np.ndarray) -> np.ndarray:
    """Unnormalized weights exp(j*(phases_n - 2*pi*f*t_n)), antennas by frequencies.

    Delays (..., N) give (..., N, F); phases broadcast and may be a scalar.
    """
    return np.exp(1j * (np.asarray(phases)[..., None] - 2.0 * np.pi * (delays[..., None] * f)))


def _comb_factors(delays: np.ndarray, phases, cfg: SystemConfig, cols=None) -> tuple[np.ndarray, np.ndarray]:
    """Coarse (..., N, P) and fine (..., N, Q) factors of the normalized weights.

    With Q the largest divisor of M up to sqrt(M) and m = 1 + Q*p + q,
    f_m = f_{1+Q*p} + q*BW/M, so weight (n, m) is coarse[n, p] * fine[n, q]:
    N*(P+Q) exponentials instead of N*M.  Fine carries the 1/sqrt(N).
    Given 0-based subcarriers ``cols``, both factors are taken at those
    subcarriers instead: weight (n, cols[k]) is coarse[n, k] * fine[n, k].
    """
    m_count = cfg.n_subcarriers
    q = max(d for d in range(1, math.isqrt(m_count) + 1) if m_count % d == 0)
    starts, offsets = (np.arange(0, m_count, q), np.arange(q)) if cols is None else (cols // q * q, cols % q)
    coarse = _weights(delays, phases, _freqs(cfg, starts + 1.0))
    fine = _weights(delays, 0.0, offsets * (cfg.bandwidth / m_count)) / np.sqrt(cfg.n_antennas)
    return coarse, fine


def _gain_profile(phi: ArrayConfig, psi, cfg: SystemConfig) -> np.ndarray:
    """|gain| toward a (possibly out-of-range) direction at every subcarrier.

    ``psi`` is one direction, or a column of them for one profile per row.
    Steering toward a constant psi is adding a constant-direction config:
    the gain at f_m is sum_n exp(j*(phi_n - 2*pi*f_m*(t_n + n*psi/(2*fc)))) / sqrt(N),
    the broadside response of phi with its delays shifted by n*psi/(2*fc).
    So a profile is sum_n coarse[n, p] * fine[n, q] over the
    :func:`_comb_factors` of the shifted delays, one (P x N) @ (N x Q)
    product per row.
    """
    psi = np.asarray(psi, dtype=np.float64)
    shift = np.arange(cfg.n_antennas) * (psi.reshape(-1, 1) / (2.0 * cfg.carrier_freq))
    coarse, fine = _comb_factors(phi.delays + shift, phi.phases, cfg)
    gains = np.matmul(np.swapaxes(coarse, 1, 2), fine)
    return np.abs(gains).reshape(psi.shape[:-1] + (cfg.n_subcarriers,))


def _comb_product(coarse: np.ndarray, fine: np.ndarray) -> np.ndarray:
    """Weights (..., M) of comb factors (..., P) and (..., Q): column Q*p + q is coarse[p] * fine[q]."""
    product = coarse[..., :, None] * fine[..., None, :]
    return product.reshape(*coarse.shape[:-1], product.shape[-2] * product.shape[-1])


def precoder_matrix(phi: ArrayConfig, cfg: SystemConfig) -> np.ndarray:
    """N x M per-subcarrier beamforming weights realized by the hardware.

    Entry (n, m) is ``exp(j*(-2*pi*f_m*t_n + phi_n)) / sqrt(N)``; every entry
    has magnitude 1/sqrt(N); the :func:`_comb_product` of its :func:`_comb_factors`.
    """
    _require_antennas(phi, cfg)
    return _comb_product(*_comb_factors(phi.delays, phi.phases, cfg))


def _precoder_columns(phi: ArrayConfig, cfg: SystemConfig, cols: np.ndarray) -> np.ndarray:
    """Columns ``cols`` (0-based ints) of :func:`precoder_matrix`, bitwise, in O(N * len(cols))."""
    _require_antennas(phi, cfg)
    return np.multiply(*_comb_factors(phi.delays, phi.phases, cfg, cols))


def _require_antennas(phi: ArrayConfig, cfg: SystemConfig) -> None:
    if phi.n_antennas != cfg.n_antennas:
        raise ValueError(f"config has {phi.n_antennas} antennas, system expects {cfg.n_antennas}")


def beampattern_of_precoder(v: np.ndarray, cfg: SystemConfig, grid: PsiGrid) -> Beampattern:
    """Array response P(psi, m) = sum_n v[n,m] * exp(-j*n*pi*psi*f_m/fc).

    Evaluated for every grid point and subcarrier.  Linear in v.
    """
    v = np.asarray(v, dtype=np.complex128)
    if v.ndim != 2 or v.shape != (cfg.n_antennas, cfg.n_subcarriers):
        raise ValueError(
            f"precoder shape {v.shape} does not match (N, M)="
            f"({cfg.n_antennas}, {cfg.n_subcarriers})"
        )
    return Beampattern(_pattern(v[::-1], grid.points[:, None], subcarrier_freqs(cfg), cfg.carrier_freq), grid)


def _pattern(rows, psi, f, fc: float) -> np.ndarray:
    """Array response sum_n v[n] * exp(-j*n*pi*psi*f/fc) of precoder columns ``v``.

    ``rows`` yields v[N-1], ..., v[0], last antenna first, the order Horner
    adds them in: ``v[::-1]`` of an array, or a generator making each row
    as it is added.  ``psi`` broadcasts against ``f``: ``psi[:, None]`` gives
    a (psi, column) grid.  Horner evaluation in z = exp(-j*pi*psi*f/fc),
    elementwise and in a fixed order, so results do not depend on BLAS
    threading.  No range checks: directions outside [-1, 1] are evaluated
    as their aliases.
    """
    z = np.exp(-1j * np.pi * (psi * (f / fc)))
    rows = iter(rows)
    acc = np.broadcast_to(next(rows), z.shape).astype(np.complex128)
    for row in rows:
        acc = acc * z  # not in place: numpy rounds a lone 1-element ``*=`` unlike its vector loop
        acc += row
    return acc


def gain_at_directions(phi: ArrayConfig, per_subcarrier_psi: np.ndarray, cfg: SystemConfig) -> np.ndarray:
    """Pattern value at subcarrier m evaluated in direction psi_m, for all m.

    No full grid is formed; the gain at one point (psi, m) is entry m - 1 of
    ``gain_at_directions(phi, np.full(M, psi), cfg)``.
    """
    psi = np.asarray(per_subcarrier_psi, dtype=np.float64)
    if psi.shape != (cfg.n_subcarriers,):
        raise ValueError(f"need one direction per subcarrier, got shape {psi.shape}")
    if not (np.abs(psi) <= 1.0).all():
        raise ValueError("directions must lie in [-1, 1]")
    _require_antennas(phi, cfg)
    return _gains_at_directions(phi.delays, phi.phases, psi, cfg)


def _gains_at_directions(
    delays: np.ndarray, phases: np.ndarray, psi: np.ndarray, cfg: SystemConfig
) -> np.ndarray:
    """:func:`gain_at_directions` over leading batch axes: configs (..., N), directions (..., M).

    Unchecked.  Each config's gains are bitwise those it gets alone: every
    step is elementwise, in the same order.  The (..., M)
    antenna rows are made one at a time, as :func:`_pattern` adds them.
    """
    coarse, fine = _comb_factors(np.moveaxis(delays, -1, 0), np.moveaxis(phases, -1, 0), cfg)
    return _pattern(map(_comb_product, coarse[::-1], fine[::-1]), psi, subcarrier_freqs(cfg), cfg.carrier_freq)


def argmax_directions(pattern: Beampattern) -> np.ndarray:
    """Grid direction of the magnitude peak in each subcarrier column."""
    idx = np.argmax(np.abs(pattern.gains), axis=0)
    return pattern.grid.points[idx]


def config_to_json_dict(phi: ArrayConfig, cfg: SystemConfig) -> dict:
    """JSON-exportable form of a config, with the system it was built for.

    Warns when a delay is negative; the config itself is exported unchanged.
    """
    lo, hi = float(np.min(phi.delays)), float(np.max(phi.delays))
    if lo < 0.0:
        warnings.warn(f"delays span [{lo:.3e}, {hi:.3e}] s, outside hardware range [0, inf)", stacklevel=2)
    return {
        "n": phi.n_antennas,
        "delays_s": [float(x) for x in phi.delays],
        "phases_rad": [float(x) for x in phi.phases],
        "fc_hz": cfg.carrier_freq,
        "bw_hz": cfg.bandwidth,
        "m": cfg.n_subcarriers,
    }


_MAX_DELAY_PHASE = 2.0**42  # rad: float64 resolves it to 2**-10 rad; the jpta search reaches about 7.4e4


def _check_delay_phase(max_abs_delay: float, cfg: SystemConfig) -> None:
    """ValueError when the largest delay phase ``2*pi*(fc + BW/2)*max|t|`` exceeds 2**42 rad."""
    phase = 2.0 * math.pi * (cfg.carrier_freq + cfg.bandwidth / 2.0) * max_abs_delay
    if not phase <= _MAX_DELAY_PHASE:
        raise ValueError(f"delays reach a phase of {phase:.3e} rad, beyond the bound of 2**42 rad")


def _is_json_number(x) -> bool:
    """Whether a JSON value is a number float64 holds: not a string, a bool or an int beyond its range."""
    return isinstance(x, float) or (type(x) is int and abs(x) <= sys.float_info.max)


def config_from_json_dict(d: dict) -> tuple[ArrayConfig, SystemConfig]:
    """Inverse of :func:`config_to_json_dict`.

    ValueError on a count, frequency, delay or phase that is not
    :func:`_is_json_number`, a count that is not a whole number, or delays
    beyond the bound of :func:`_check_delay_phase`.
    """
    for key in ("delays_s", "phases_rad"):
        if not (isinstance(d[key], list) and all(map(_is_json_number, d[key]))):
            raise ValueError(f"{key} must be a list of numbers")
    phi = ArrayConfig(np.asarray(d["delays_s"], dtype=np.float64),
                      np.asarray(d["phases_rad"], dtype=np.float64))
    for key in ("n", "m", "fc_hz", "bw_hz"):
        if not _is_json_number(d[key]):
            raise ValueError(f"{key} must be a number, got {d[key]!r}")
    for key in ("n", "m"):
        if isinstance(d[key], float) and not d[key].is_integer():
            raise ValueError(f"count {key} must be a whole number, got {d[key]}")
    n, m = int(d["n"]), int(d["m"])
    if phi.n_antennas != n:
        raise ValueError("antenna count field disagrees with vector lengths")
    cfg = SystemConfig(n, m, float(d["fc_hz"]), float(d["bw_hz"]))
    _check_delay_phase(float(np.abs(phi.delays).max()), cfg)
    return phi, cfg
