"""Baseline synthesis: closed-form steering and a per-antenna delay grid search.

The fitting problem minimized here is the squared Frobenius distance between
the hardware-realizable precoder and an arbitrary complex target, summed over
antennas and subcarriers.  That objective separates across antennas, so each
antenna can be solved independently: for a fixed delay the optimal phase has
a closed form, and the delay is found by search over a uniform grid.

`jpta_approx` is the direct synthesis baseline.  The dictionary build does
not call it: its two-subband targets have a closed-form correlation for
every delay range (see ``dictionary``), which finds the same grid optimum.
The exhaustive oracle exists only to validate the search at desk scale.
"""

from __future__ import annotations

from collections.abc import Callable
from dataclasses import dataclass

import numpy as np

from .core import ArrayConfig, SystemConfig, precoder_matrix, subcarrier_freqs
from .splitbeam import DirectionMap, ideal_split_precoder

__all__ = [
    "SolverParams",
    "default_max_delay",
    "delay_grid",
    "constant_direction_delays",
    "constant_direction_config",
    "objective",
    "jpta_approx",
    "exhaustive_oracle",
    "fold_delay_periods",
    "make_jpta_synthesizer",
    "SynthesisFn",
]

# A synthesizer may also carry a ``batch(directions[B, G], cfg) -> (delays[B, N],
# phases[B, N])`` attribute, which ``evaluation.monte_carlo`` uses when present.
SynthesisFn = Callable[[DirectionMap, SystemConfig], ArrayConfig]

_ORACLE_MAX_ANTENNAS = 6
_ORACLE_MAX_EVALS = 4_000_000


@dataclass(frozen=True)
class SolverParams:
    """Delay grid of the :func:`jpta_approx` search and the dictionary's closed-form fit.

    ``n_iterations`` is validated but has no effect: one search reaches the
    grid optimum.
    """

    max_delay: float
    n_iterations: int = 30
    delay_grid_size: int = 65536

    def __post_init__(self) -> None:
        if not 0.0 < self.max_delay < np.inf:
            raise ValueError(f"max_delay must be positive and finite, got {self.max_delay}")
        if self.n_iterations < 1:
            raise ValueError(f"n_iterations must be >= 1, got {self.n_iterations}")
        if self.delay_grid_size < 2:
            raise ValueError(f"delay_grid_size must be >= 2, got {self.delay_grid_size}")


def default_max_delay(cfg: SystemConfig) -> float:
    """One period of the per-antenna correlation in delay: M/BW seconds.

    The correlation against any target is periodic in the delay with this
    period (subcarrier spacing BW/M), so a larger search range only revisits
    aliases.
    """
    return cfg.n_subcarriers / cfg.bandwidth


def delay_grid(max_delay: float, size: int) -> np.ndarray:
    """Uniform candidate delays: ``size`` points spaced max_delay/size from 0."""
    if not max_delay > 0.0:
        raise ValueError("max_delay must be positive")
    if size < 2:
        raise ValueError("grid needs at least 2 points")
    return np.arange(size, dtype=np.float64) * (max_delay / size)


def constant_direction_delays(delta: float, cfg: SystemConfig) -> np.ndarray:
    """Delays ``t_n = -delta*n/(2*fc)`` of :func:`constant_direction_config`, as a new array."""
    if not -1.0 <= delta <= 1.0:
        raise ValueError(f"direction must lie in [-1, 1], got {delta}")
    n = np.arange(cfg.n_antennas, dtype=np.float64)
    return -delta * n / (2.0 * cfg.carrier_freq)


def constant_direction_config(delta: float, cfg: SystemConfig) -> ArrayConfig:
    """Closed-form config steering every subcarrier at direction delta.

    Delays grow linearly along the array, ``t_n = -delta*n/(2*fc)``; phases
    are zero.  The frequency-proportional phase ``-2*pi*f*t_n`` then matches
    the steering exponent at every subcarrier, so the beam does not squint.
    Accepts the closed interval [-1, 1]: -1 and +1 are distinct configs
    (their patterns coincide only at the carrier).
    """
    return ArrayConfig(constant_direction_delays(delta, cfg), np.zeros(cfg.n_antennas))


def objective(phi: ArrayConfig, v_target: np.ndarray, cfg: SystemConfig) -> float:
    """Squared Frobenius distance between the realized precoder and the target."""
    v_target = np.asarray(v_target, dtype=np.complex128)
    expected = (cfg.n_antennas, cfg.n_subcarriers)
    if v_target.shape != expected:
        raise ValueError(f"target shape {v_target.shape} does not match {expected}")
    d = precoder_matrix(phi, cfg) - v_target
    return float(np.sum(d.real**2 + d.imag**2))


def _spans_one_period(max_delay: float, cfg: SystemConfig) -> bool:
    """Whether a delay grid over [0, max_delay) spans exactly one correlation period, M/BW."""
    return abs(max_delay * cfg.bandwidth / cfg.n_subcarriers - 1.0) < 1e-12


def _winning_config(t_best: np.ndarray, best: np.ndarray, cfg: SystemConfig) -> ArrayConfig:
    """Config from each antenna's winning delay and baseband correlation there.

    The phase is the argument of the correlation once the carrier factor
    exp(j*2*pi*(fc - BW/2)*t) is put back.
    """
    best = best * np.exp(1j * 2.0 * np.pi * (cfg.carrier_freq - cfg.bandwidth / 2.0) * t_best)
    return ArrayConfig(t_best, np.angle(best))


def _correlation_scores(v_target: np.ndarray, cfg: SystemConfig, t_grid: np.ndarray,
                        max_delay: float) -> np.ndarray:
    """Baseband correlation c[n, k] = sum_m v_target[n, m] * exp(j*2*pi*(f_m - f0)*t_k).

    f0 = fc - BW/2 is the band edge, so f_m - f0 = m*BW/M.  The carrier
    factor exp(j*2*pi*f0*t_k) has unit modulus and cannot move a row's
    argmax; :func:`jpta_approx` applies it to the winning delays only.
    One contiguous row per antenna.  When the grid spans exactly one
    correlation period (max_delay = M/BW with grid spacing max_delay/size),
    the sum over m is a DFT and is evaluated by an in-place FFT along each
    row; otherwise by direct (chunked) evaluation.
    """
    size = t_grid.size
    m_count = cfg.n_subcarriers
    if _spans_one_period(max_delay, cfg):
        # exponent 2*pi*m*BW*t_k/M == 2*pi*m*k/size: fold m onto m mod size
        scores = np.zeros((v_target.shape[0], size), dtype=np.complex128)
        np.add.at(scores, (slice(None), np.arange(1, m_count + 1) % size), v_target)
        # unnormalized inverse DFT: the "forward" norm puts the 1/size on the forward transform
        np.fft.ifft(scores, axis=1, norm="forward", out=scores)
        return scores
    f = subcarrier_freqs(cfg) - (cfg.carrier_freq - cfg.bandwidth / 2.0)
    scores = np.empty((v_target.shape[0], size), dtype=np.complex128)
    chunk = max(1, min(size, 8 * 1024 * 1024 // max(m_count, 1)))
    vt = v_target.T
    for start in range(0, size, chunk):
        stop = min(start + chunk, size)
        e = np.exp(1j * 2.0 * np.pi * np.outer(t_grid[start:stop], f))
        scores[:, start:stop] = (e @ vt).T
    return scores


def jpta_approx(v_target: np.ndarray, params: SolverParams, cfg: SystemConfig) -> ArrayConfig:
    """Fit a delay/phase config to an arbitrary target precoder by grid search.

    Each antenna independently searches its delay over a uniform grid in
    [0, max_delay), pairing every candidate with its closed-form optimal
    phase (the argument of the target correlation at that delay), and keeps
    the best pair.  Ties break toward the smaller delay.  The search runs on
    the baseband correlation; the carrier phase 2*pi*(fc - BW/2)*t is added
    to the N winning correlations only.

    The objective separates across antennas, so this one search is the grid
    optimum of the whole fit; ``params.n_iterations`` has no effect.
    Deterministic given (v_target, params).
    """
    v_target = np.asarray(v_target, dtype=np.complex128)
    expected = (cfg.n_antennas, cfg.n_subcarriers)
    if v_target.shape != expected:
        raise ValueError(f"target shape {v_target.shape} does not match {expected}")
    t_grid = delay_grid(params.max_delay, params.delay_grid_size)
    scores = _correlation_scores(v_target, cfg, t_grid, params.max_delay)
    best_k = np.argmax(np.abs(scores), axis=1)  # first max: smaller delay wins ties
    return _winning_config(t_grid[best_k], scores[np.arange(cfg.n_antennas), best_k], cfg)


def fold_delay_periods(phi: ArrayConfig, cfg: SystemConfig) -> ArrayConfig:
    """Minimal-delay representative of a config, subcarrier response unchanged.

    The per-antenna response on the subcarrier comb is periodic in the delay
    with period M/BW (the comb spacing is BW/M), so delays found by a line
    search over [0, M/BW) may be comb-aliases of small negative delays.  On
    the comb both representatives are identical, but between comb frequencies
    a near-period delay oscillates wildly, which ruins any later band
    remapping.  Folding each delay into [-M/(2*BW), M/(2*BW)] and
    compensating the phase (mod 2*pi) picks the smooth representative.
    """
    period = cfg.n_subcarriers / cfg.bandwidth
    k = np.round(phi.delays / period)
    comp = k * (2.0 * np.pi * (cfg.carrier_freq - cfg.bandwidth / 2.0) * period)
    return ArrayConfig(
        phi.delays - k * period, np.mod(phi.phases - comp, 2.0 * np.pi)
    )


def exhaustive_oracle(
    v_target: np.ndarray,
    cfg: SystemConfig,
    delay_candidates: np.ndarray,
    phase_candidates: np.ndarray,
) -> ArrayConfig:
    """Exact per-antenna minimizer over a Cartesian delay x phase grid.

    Desk-scale only: the objective separates across antennas, so the exact
    grid optimum is found antenna by antenna.  Refuses problem sizes beyond
    the cap; ties break toward the smaller delay, then the smaller phase.
    """
    v_target = np.asarray(v_target, dtype=np.complex128)
    expected = (cfg.n_antennas, cfg.n_subcarriers)
    if v_target.shape != expected:
        raise ValueError(f"target shape {v_target.shape} does not match {expected}")
    d = np.asarray(delay_candidates, dtype=np.float64)
    p = np.asarray(phase_candidates, dtype=np.float64)
    if cfg.n_antennas > _ORACLE_MAX_ANTENNAS:
        raise ValueError(f"oracle capped at N <= {_ORACLE_MAX_ANTENNAS}")
    if d.size * p.size * cfg.n_antennas > _ORACLE_MAX_EVALS:
        raise ValueError("oracle grid too large; reduce delay/phase resolution")

    f = subcarrier_freqs(cfg)
    corr = np.exp(1j * 2.0 * np.pi * np.outer(d, f)) @ v_target.T  # (D, N)
    rot = np.exp(-1j * p)  # (P,)
    delays = np.empty(cfg.n_antennas)
    phases = np.empty(cfg.n_antennas)
    for n in range(cfg.n_antennas):
        gain = np.real(corr[:, n, None] * rot[None, :])  # maximize <=> minimize objective
        flat = int(np.argmax(gain))
        di, pi = divmod(flat, p.size)
        delays[n] = d[di]
        phases[n] = p[pi]
    return ArrayConfig(delays, phases)


def make_jpta_synthesizer(params: SolverParams) -> SynthesisFn:
    """Direct grid-search synthesis of a split-beam target."""

    def jpta(dmap: DirectionMap, cfg: SystemConfig) -> ArrayConfig:
        return jpta_approx(ideal_split_precoder(dmap, cfg), params, cfg)

    return jpta
