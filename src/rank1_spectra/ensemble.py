"""Sampling and Monte Carlo for symmetric matrices with variance profile sigma_i*sigma_j.

Entries are a_ij / sqrt(n) with independent zero-mean a_ij, Var a_ij =
sigma_i*sigma_j and |a_ij| <= K surely.  Three entry laws are provided:

* ``rademacher``  — a = +-sqrt(sigma_i sigma_j), the tightest bounded law
  (K = sigma_max suffices); the default everywhere.
* ``uniform``     — a = sqrt(3 sigma_i sigma_j) * U[-1, 1].
* ``truncated_gaussian`` — a centered gaussian conditioned to [-K, K], with
  the pre-truncation variance chosen so the conditioned variance is exactly
  sigma_i*sigma_j (requires K^2 > 3 sigma_i sigma_j).  Only this law needs
  scipy (``ndtr``/``ndtri``), and only its sites import it.

Everything that depends only on the configuration (sigma, the bound K, the
upper-triangle mask and the law's per-entry coefficients) is computed once
per campaign and cached; a trial only draws.  Per-trial generators are derived
from the base seed by one splitmix64 round over seed XOR trial_index, so
trials are order-independent and a campaign is reproducible bit for bit.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from functools import lru_cache
from typing import Optional, Tuple

import numpy as np

from .sigma_model import SigmaSpec, sigma_values

__all__ = [
    "EnsembleConfig",
    "SpectralSample",
    "MonteCarloResult",
    "Histogram",
    "derive_trial_seed",
    "sample_matrix",
    "eigenvalues",
    "empirical_moments",
    "esd_histogram",
    "spectral_sample",
    "monte_carlo",
]

DISTRIBUTIONS = ("rademacher", "uniform", "truncated_gaussian")

_MASK64 = (1 << 64) - 1


def derive_trial_seed(seed: int, trial_index: int) -> int:
    """splitmix64 finalizer applied to seed XOR trial_index."""
    z = ((seed ^ trial_index) + 0x9E3779B97F4A7C15) & _MASK64
    z = ((z ^ (z >> 30)) * 0xBF58476D1CE4E5B9) & _MASK64
    z = ((z ^ (z >> 27)) * 0x94D049BB133111EB) & _MASK64
    return z ^ (z >> 31)


@dataclass(frozen=True)
class EnsembleConfig:
    """Matrix dimension, entry law, almost-sure bound K, seed, and sigma profile.

    ``K=None`` picks the smallest feasible bound for the law (sigma_max for
    rademacher, sqrt(3)*sigma_max for uniform, 3*sigma_max for the truncated
    gaussian, where mild truncation keeps the law close to gaussian).
    """

    n: int
    sigma: SigmaSpec
    distribution: str = "rademacher"
    K: Optional[float] = None
    seed: int = 0

    def __post_init__(self):
        if self.n < 1:
            raise ValueError(f"n must be >= 1, got {self.n}")
        if self.distribution not in DISTRIBUTIONS:
            raise ValueError(f"unknown distribution {self.distribution!r}")
        if not 0 <= self.seed <= _MASK64:
            raise ValueError("seed must fit in 64 bits")
        if self.K is not None and not (math.isfinite(self.K) and self.K > 0):
            raise ValueError(f"K must be finite and > 0, got {self.K}")


@dataclass(frozen=True)
class SpectralSample:
    """Eigenvalues of one realization, ascending, plus provenance."""

    eigenvalues: np.ndarray
    radius: float
    trial_index: int
    seed_used: int


@dataclass(frozen=True)
class Histogram:
    """Half-open bins (last bin closed), counts summing to the sample size
    whenever the range covers the data."""

    bin_edges: np.ndarray
    counts: np.ndarray

    @property
    def total(self) -> int:
        return int(self.counts.sum())


def _resolve_bound(distribution: str, sigma_max: float, K: Optional[float]) -> float:
    if K is None:
        if distribution == "rademacher":
            return sigma_max
        if distribution == "uniform":
            return math.sqrt(3.0) * sigma_max
        return 3.0 * sigma_max
    return float(K)


def _check_bound(distribution: str, sigma_max: float, K: float) -> None:
    if distribution == "rademacher" and K < sigma_max * (1 - 1e-12):
        raise ValueError(f"rademacher needs K >= sigma_max ({sigma_max}), got K={K}")
    if distribution == "uniform" and K < math.sqrt(3.0) * sigma_max * (1 - 1e-12):
        raise ValueError(f"uniform needs K >= sqrt(3)*sigma_max ({math.sqrt(3)*sigma_max}), got K={K}")
    if distribution == "truncated_gaussian" and K * K <= 3.0 * sigma_max * sigma_max:
        raise ValueError(
            f"truncated gaussian needs K > sqrt(3)*sigma_max ({math.sqrt(3)*sigma_max}), got K={K}"
        )


def _truncnorm_halfwidth(rho: np.ndarray) -> np.ndarray:
    """Solve Var[N(0,1) | |z| <= c] / c^2 = rho for c (vectorized bisection).

    The left side decreases from 1/3 (c -> 0) to 0 (c -> inf), so a solution
    exists exactly when rho < 1/3, and it lies below 1/sqrt(rho) because the
    conditioned variance is below 1.  Below the smallest normal float, where
    the bisection's c^2 would overflow, that variance is 1 to machine
    precision and c = 1/sqrt(rho) in closed form (infinite at rho = 0).
    """
    # scipy.special costs about 0.3 s of start-up that only this law needs,
    # so the truncated-gaussian sites import it where they use it.
    from scipy.special import ndtr

    c = np.empty_like(rho)
    tiny = rho < np.finfo(np.float64).tiny
    with np.errstate(divide="ignore"):
        c[tiny] = 1.0 / np.sqrt(rho[tiny])
    rho = rho[~tiny]
    lo = np.full_like(rho, 1e-8)
    hi = np.maximum(80.0, 1.0 / np.sqrt(rho))
    for _ in range(64):
        mid = 0.5 * (lo + hi)
        phi = np.exp(-0.5 * mid * mid) / math.sqrt(2.0 * math.pi)
        mass = 2.0 * ndtr(mid) - 1.0
        val = (1.0 - 2.0 * mid * phi / mass) / (mid * mid)
        too_big = val > rho
        lo = np.where(too_big, mid, lo)
        hi = np.where(too_big, hi, mid)
    c[~tiny] = 0.5 * (lo + hi)
    return c


@lru_cache(maxsize=1)
def _plan(config: EnsembleConfig):
    """The per-campaign data of ``config``: the upper-triangle mask and the
    law's per-entry coefficients, in the mask's row-major order, read-only.

    Coefficients: sqrt(sigma_i sigma_j) for rademacher, sqrt(3 sigma_i sigma_j)
    for uniform, and (tail, 1 - 2*tail, K/c) for the truncated gaussian, where
    c is the half-width and tail = P(Z < -c).
    """
    n = config.n
    sigma = sigma_values(config.sigma, n)
    smax = float(sigma.max())
    K = _resolve_bound(config.distribution, smax, config.K)
    _check_bound(config.distribution, smax, K)

    mask = np.triu(np.ones((n, n), dtype=bool))
    prod = np.outer(sigma, sigma)[mask]
    if config.distribution == "rademacher":
        coeffs = (np.sqrt(prod),)
    elif config.distribution == "uniform":
        coeffs = (np.sqrt(3.0 * prod),)
    else:
        from scipy.special import ndtr

        c = _truncnorm_halfwidth(prod / (K * K))
        tail = ndtr(-c)
        coeffs = (tail, 1.0 - 2.0 * tail, K / c)
    for array in (mask, *coeffs):
        array.flags.writeable = False
    return mask, coeffs


def sample_matrix(config: EnsembleConfig, trial_index: int = 0) -> np.ndarray:
    """One symmetric realization A = [a_ij / sqrt(n)].

    The diagonal and upper triangle are drawn as a single flat row-major
    block, so a (seed, trial_index) pair fixes the matrix exactly.
    """
    n = config.n
    mask, coeffs = _plan(config)
    rng = np.random.Generator(np.random.PCG64(derive_trial_seed(config.seed, trial_index)))
    m = coeffs[0].size

    if config.distribution == "rademacher":
        signs = rng.integers(0, 2, size=m).astype(np.float64) * 2.0 - 1.0
        a = signs * coeffs[0]
    elif config.distribution == "uniform":
        a = coeffs[0] * rng.uniform(-1.0, 1.0, size=m)
    else:
        from scipy.special import ndtri

        tail, span, scale = coeffs
        a = scale * ndtri(tail + rng.random(m) * span)

    A = np.zeros((n, n))
    A[mask] = a
    A = A + A.T - np.diag(np.diag(A))
    A /= math.sqrt(n)
    return A


def eigenvalues(matrix: np.ndarray) -> np.ndarray:
    """Full spectrum of a symmetric matrix, ascending.

    The residual contract (||A v - lambda v|| <= n * 1e-9 * ||A|| for each
    returned eigenvalue) is spot-checked by the test suite, not per call.
    """
    A = np.asarray(matrix, dtype=np.float64)
    if A.ndim != 2 or A.shape[0] != A.shape[1]:
        raise ValueError(f"expected a square matrix, got shape {A.shape}")
    asym = float(np.max(np.abs(A - A.T))) if A.size else 0.0
    if asym > 1e-12:
        raise ValueError(f"matrix is not symmetric (max asymmetry {asym:.3e})")
    try:
        return np.linalg.eigvalsh(A)
    except np.linalg.LinAlgError as exc:
        raise RuntimeError(f"symmetric eigensolver did not converge: {exc}") from exc


def spectral_sample(config: EnsembleConfig, trial_index: int = 0) -> SpectralSample:
    lam = eigenvalues(sample_matrix(config, trial_index))
    radius = max(abs(float(lam[0])), abs(float(lam[-1]))) if lam.size else 0.0
    return SpectralSample(
        eigenvalues=lam,
        radius=radius,
        trial_index=trial_index,
        seed_used=derive_trial_seed(config.seed, trial_index),
    )


def empirical_moments(sample: SpectralSample, k_max: int) -> np.ndarray:
    """Power-sum moments (1/n) sum lambda_i^k for k = 1..k_max."""
    if k_max < 1:
        raise ValueError(f"k_max must be >= 1, got {k_max}")
    lam = sample.eigenvalues
    out = np.empty(k_max)
    p = lam.copy()
    for k in range(k_max):
        out[k] = float(p.mean())
        if k + 1 < k_max:
            p *= lam
    return out


def esd_histogram(
    sample: SpectralSample, bins: int, value_range: Optional[Tuple[float, float]] = None
) -> Histogram:
    """Histogram of the eigenvalues with deterministic half-open binning.

    The default range is [min, max] widened by 1e-9 on both sides; counts sum
    to n whenever the range covers the spectrum (eigenvalues outside an
    explicit narrower range are dropped, as usual for histograms).
    """
    return _histogram(sample.eigenvalues, bins, value_range)


def _histogram(values: np.ndarray, bins: int, value_range) -> Histogram:
    if bins < 1:
        raise ValueError(f"bins must be >= 1, got {bins}")
    if value_range is None:
        lo = float(values.min()) - 1e-9
        hi = float(values.max()) + 1e-9
    else:
        lo, hi = float(value_range[0]), float(value_range[1])
    if lo >= hi:
        raise ValueError(f"histogram range must satisfy lo < hi, got [{lo}, {hi}]")
    counts, edges = np.histogram(values, bins=bins, range=(lo, hi))
    return Histogram(bin_edges=edges, counts=counts)


@dataclass(frozen=True)
class MonteCarloResult:
    """Per-order moment statistics and radius statistics over a trial campaign.

    ``moment_means[k-1]`` estimates E{(1/n) trace(A^k)}; ``moment_stderrs``
    is None for a single trial.  ``per_trial_moments`` has shape
    (trials, k_max) and is ordered by trial index.
    """

    config: EnsembleConfig
    trials: int
    k_max: int
    moment_means: np.ndarray
    moment_stderrs: Optional[np.ndarray]
    per_trial_moments: np.ndarray
    radii: np.ndarray
    radius_mean: float
    radius_stderr: Optional[float]
    radius_min: float
    radius_max: float
    seeds: Tuple[int, ...]
    pooled_eigenvalues: Optional[np.ndarray] = None


def monte_carlo(
    config: EnsembleConfig,
    trials: int,
    k_max: int,
    collect_eigenvalues: bool = False,
) -> MonteCarloResult:
    """Run a reproducible campaign of independent trials, one after another.

    The per-campaign plan (the mask and the law's coefficients, from sigma and
    K) is built by the first trial and reused by the rest; every trial owns a
    generator seeded from (seed, trial_index), so a campaign is reproducible
    bit for bit. Standard errors need trials >= 2 and are None otherwise.
    """
    if trials < 1:
        raise ValueError(f"trials must be >= 1, got {trials}")
    if k_max < 1:
        raise ValueError(f"k_max must be >= 1, got {k_max}")

    per_trial = np.empty((trials, k_max))
    radii = np.empty(trials)
    pooled = [None] * trials if collect_eigenvalues else None

    for t in range(trials):
        s = spectral_sample(config, t)
        per_trial[t] = empirical_moments(s, k_max)
        radii[t] = s.radius
        if pooled is not None:
            pooled[t] = s.eigenvalues

    means = per_trial.mean(axis=0)
    if trials >= 2:
        stderrs = per_trial.std(axis=0, ddof=1) / math.sqrt(trials)
        radius_stderr = float(radii.std(ddof=1) / math.sqrt(trials))
    else:
        stderrs = None
        radius_stderr = None
    return MonteCarloResult(
        config=config,
        trials=trials,
        k_max=k_max,
        moment_means=means,
        moment_stderrs=stderrs,
        per_trial_moments=per_trial,
        radii=radii,
        radius_mean=float(radii.mean()),
        radius_stderr=radius_stderr,
        radius_min=float(radii.min()),
        radius_max=float(radii.max()),
        seeds=tuple(derive_trial_seed(config.seed, t) for t in range(trials)),
        pooled_eigenvalues=np.concatenate(pooled) if pooled is not None else None,
    )
