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
_SEARCH_VALUES = 2**17  # the line search's working set: one block of correlations, or one chunk of exponentials


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


def constant_direction_delays(delta, cfg: SystemConfig) -> np.ndarray:
    """Unchecked new delays ``t_n = -delta*n/(2*fc)``; a (B, 1) column of directions gives (B, N)."""
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
    if not -1.0 <= delta <= 1.0:
        raise ValueError(f"direction must lie in [-1, 1], got {delta}")
    return ArrayConfig(constant_direction_delays(delta, cfg), np.zeros(cfg.n_antennas))


def _as_target(v_target, cfg: SystemConfig) -> np.ndarray:
    """``v_target`` as a complex128 array; ValueError unless it is (N, M)."""
    v_target = np.asarray(v_target, dtype=np.complex128)
    expected = (cfg.n_antennas, cfg.n_subcarriers)
    if v_target.shape != expected:
        raise ValueError(f"target shape {v_target.shape} does not match {expected}")
    return v_target


def objective(phi: ArrayConfig, v_target: np.ndarray, cfg: SystemConfig) -> float:
    """Squared Frobenius distance between the realized precoder and the target."""
    v_target = _as_target(v_target, cfg)
    d = precoder_matrix(phi, cfg) - v_target
    return float(np.sum(d.real**2 + d.imag**2))


def _spans_one_period(max_delay: float, cfg: SystemConfig) -> bool:
    """Whether a delay grid over [0, max_delay) spans exactly one correlation period, M/BW."""
    return abs(max_delay * cfg.bandwidth / cfg.n_subcarriers - 1.0) < 1e-12


def _winning_phases(t_best: np.ndarray, best: np.ndarray, cfg: SystemConfig) -> np.ndarray:
    """Phases, elementwise, from winning delays and the baseband correlations there.

    The phase is the argument of the correlation once the carrier factor
    exp(j*2*pi*(fc - BW/2)*t) is put back.
    """
    return np.angle(best * np.exp(1j * 2.0 * np.pi * (cfg.carrier_freq - cfg.bandwidth / 2.0) * t_best))


def _block_rows(n_count: int, size: int) -> int:
    """Antennas per block of the one-period line search: _SEARCH_VALUES values of a K = ``size`` grid, at least one."""
    return min(n_count, max(1, _SEARCH_VALUES // size))


def _delay_chunk(size: int, m_count: int) -> int:
    """Delays per chunk of the direct correlation off one period: _SEARCH_VALUES exponentials, or one delay's M."""
    return max(1, min(size, _SEARCH_VALUES // max(m_count, 1)))


def _search_size(params: SolverParams, cfg: SystemConfig) -> int:
    """Values in the largest array one :func:`jpta_approx` call makes; the CLI's bound reads it.

    On one correlation period that is a block buffer, rows x K, or the
    folded subcarriers, N x min(K, M + 1); on any other range the whole
    (N, K) correlation matrix or one chunk's (chunk, M) exponentials.
    """
    size, n_count, m_count = params.delay_grid_size, cfg.n_antennas, cfg.n_subcarriers
    if _spans_one_period(params.max_delay, cfg):
        return max(_block_rows(n_count, size) * size, n_count * min(size, m_count + 1))
    return max(n_count * size, _delay_chunk(size, m_count) * m_count)


def _folded_subcarriers(v_target: np.ndarray, size: int) -> np.ndarray:
    """Each row's M subcarriers folded onto m mod K, K = ``size``: an (N, min(K, M + 1)) array.

    On a grid spanning one correlation period the exponent 2*pi*m*BW*t_k/M
    equals 2*pi*m*k/K, so the correlation is the unnormalized inverse DFT of
    these rows zero-padded to K: ``np.fft.ifft(folded, n=K, norm="forward")``,
    the "forward" norm putting the 1/K on the forward transform.
    """
    m_count = v_target.shape[1]
    folded = np.zeros((v_target.shape[0], min(size, m_count + 1)), dtype=np.complex128)
    np.add.at(folded, (slice(None), np.arange(1, m_count + 1) % size), v_target)
    return folded


def _correlation_scores(v_target: np.ndarray, cfg: SystemConfig, t_grid: np.ndarray,
                        max_delay: float) -> np.ndarray:
    """Baseband correlation c[n, k] = sum_m v_target[n, m] * exp(j*2*pi*(f_m - f0)*t_k), the whole (N, K) matrix.

    f0 = fc - BW/2 is the band edge, so f_m - f0 = m*BW/M.  The carrier
    factor exp(j*2*pi*f0*t_k) has unit modulus and cannot move a row's
    argmax; :func:`jpta_approx` applies it to the winning delays only.
    One contiguous row per antenna.  When the grid spans exactly one
    correlation period (max_delay = M/BW with grid spacing max_delay/size),
    the sum over m is a DFT and is evaluated by an FFT along each row;
    otherwise by direct evaluation, ``_delay_chunk`` delays at a time.
    """
    size = t_grid.size
    m_count = cfg.n_subcarriers
    if _spans_one_period(max_delay, cfg):
        return np.fft.ifft(_folded_subcarriers(v_target, size), n=size, axis=1, norm="forward")
    f = subcarrier_freqs(cfg) - (cfg.carrier_freq - cfg.bandwidth / 2.0)
    scores = np.empty((v_target.shape[0], size), dtype=np.complex128)
    chunk = _delay_chunk(size, m_count)
    vt = v_target.T
    for start in range(0, size, chunk):
        stop = min(start + chunk, size)
        e = np.exp(1j * 2.0 * np.pi * np.outer(t_grid[start:stop], f))
        scores[:, start:stop] = (e @ vt).T
    return scores


def _best_correlations(v_target: np.ndarray, cfg: SystemConfig, t_grid: np.ndarray,
                       max_delay: float) -> tuple[np.ndarray, np.ndarray]:
    """Each antenna's first grid index of largest |c[n, k]| (of :func:`_correlation_scores`) and c[n, k] there.

    On one correlation period the folded rows go through the FFT in blocks
    of ``_block_rows``, so a call holds one block, not the whole (N, K)
    matrix.  Every block reuses one complex and one float buffer, which share
    one allocation: fresh buffers would fault in their pages again each
    block, and under glibc the one larger chunk, once freed, lifts the heap's
    trim threshold above what a call frees, so the next call reuses those
    pages (71 page faults a full-scale call, against 1367 with two
    allocations).  Any other range searches the whole matrix.
    """
    n_count, size = v_target.shape[0], t_grid.size
    if not _spans_one_period(max_delay, cfg):
        scores = _correlation_scores(v_target, cfg, t_grid, max_delay)
        best_k = np.argmax(np.abs(scores), axis=1)
        return best_k, scores[np.arange(n_count), best_k]
    folded = _folded_subcarriers(v_target, size)
    rows = _block_rows(n_count, size)
    work = np.empty(3 * rows * size)
    block = work[: 2 * rows * size].view(np.complex128).reshape(rows, size)
    magnitude = work[2 * rows * size :].reshape(rows, size)
    best_k = np.empty(n_count, dtype=np.intp)
    best = np.empty(n_count, dtype=np.complex128)
    for start in range(0, n_count, rows):
        stop = min(start + rows, n_count)
        scores = np.fft.ifft(folded[start:stop], n=size, axis=1, norm="forward", out=block[: stop - start])
        k = np.argmax(np.abs(scores, out=magnitude[: stop - start]), axis=1)
        best_k[start:stop] = k
        best[start:stop] = scores[np.arange(stop - start), k]
    return best_k, best


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
    v_target = _as_target(v_target, cfg)
    t_grid = delay_grid(params.max_delay, params.delay_grid_size)
    best_k, best = _best_correlations(v_target, cfg, t_grid, params.max_delay)
    t_best = t_grid[best_k]
    return ArrayConfig(t_best, _winning_phases(t_best, best, cfg))


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
    return ArrayConfig(*_fold(phi.delays, phi.phases, cfg))


def _fold(delays: np.ndarray, phases: np.ndarray, cfg: SystemConfig) -> tuple[np.ndarray, np.ndarray]:
    """:func:`fold_delay_periods` of (delays, phases) of any shape, elementwise."""
    period = cfg.n_subcarriers / cfg.bandwidth
    k = np.round(delays / period)
    comp = k * (2.0 * np.pi * (cfg.carrier_freq - cfg.bandwidth / 2.0) * period)
    return delays - k * period, np.mod(phases - comp, 2.0 * np.pi)


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
    v_target = _as_target(v_target, cfg)
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
