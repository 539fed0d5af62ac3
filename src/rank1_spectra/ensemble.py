"""Sampling and Monte Carlo for symmetric matrices with variance profile sigma_i*sigma_j.

Entries are a_ij / sqrt(n) with independent zero-mean a_ij, Var a_ij =
sigma_i*sigma_j and |a_ij| <= K surely.  Three entry laws are provided:

* ``rademacher``  — a = +-sqrt(sigma_i sigma_j), the tightest bounded law
  (K = sigma_max suffices); the default everywhere.
* ``uniform``     — a = sqrt(3 sigma_i sigma_j) * U[-1, 1].
* ``truncated_gaussian`` — a centered gaussian conditioned to [-K, K], with
  the pre-truncation variance chosen so the conditioned variance is exactly
  sigma_i*sigma_j (requires K^2 > 3 sigma_i sigma_j).  The half-width comes
  from a safeguarded Newton solve that needs only ``math.erf``, and the draws
  from exact rejection (Robert 1995), so no law needs scipy.

Everything that depends only on the configuration (sigma, the bound K, the
upper-triangle mask and the law's per-entry coefficients) is computed once
per campaign and cached; a trial only draws.  The truncated gaussian's
half-width is solved once per distinct rho = sigma_i sigma_j / K^2 and
scattered to the entries, so a constant sigma is one solve however large n.
Per-trial generators are seeded with splitmix64(splitmix64(seed) +
trial_index), so trials are order-independent, a campaign is reproducible bit
for bit, and campaigns at different seeds draw unrelated trials.

A campaign runs in contiguous blocks of trials, each drawn into one stack
of matrices at least large enough for numpy to solve it without the GIL,
and larger only where that would make many small stacks (`_schedule`).  The
calling thread and, when BLAS is pinned to one thread, plain ``threading``
workers pull the blocks from one iterator (see ``monte_carlo``); a thread
pool would import ``concurrent.futures`` and with it ``logging``.  Every
trial statistic comes from the campaign: ``empirical_moments`` is the block's
moment step, a campaign always returns its pooled spectra, and
``_histogram`` bins them into numpy's (counts, edges) pair.  One trial on
its own is ``eigenvalues(sample_matrix(config, t))``, bit for bit the
campaign's trial t.
"""

from __future__ import annotations

import math
import os
import threading
from dataclasses import dataclass
from functools import lru_cache
from typing import List, Optional, Tuple

import numpy as np

from . import _DISTRIBUTIONS as DISTRIBUTIONS  # the entry laws
from . import _blas_is_pinned
from .sigma_model import SigmaSpec, sigma_values

__all__ = [
    "EnsembleConfig",
    "MonteCarloResult",
    "derive_trial_seed",
    "sample_matrix",
    "eigenvalues",
    "empirical_moments",
    "monte_carlo",
]

_MASK64 = (1 << 64) - 1


def _splitmix64(x: int) -> int:
    """One splitmix64 output from state x: the golden-ratio step, then the finalizer."""
    z = (x + 0x9E3779B97F4A7C15) & _MASK64
    z = ((z ^ (z >> 30)) * 0xBF58476D1CE4E5B9) & _MASK64
    z = ((z ^ (z >> 27)) * 0x94D049BB133111EB) & _MASK64
    return z ^ (z >> 31)


def derive_trial_seed(seed: int, trial_index: int) -> int:
    """splitmix64(splitmix64(seed) + trial_index), in 0..2^64 - 1.  The seed
    is mixed before the index is added, so seeds that differ only in their
    low bits still draw unrelated trials."""
    return _splitmix64((_splitmix64(seed) + trial_index) & _MASK64)


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


def _bound(distribution: str, sigma_max: float, K: Optional[float]) -> float:
    """The checked bound of a campaign: ``K``, or by default the law's of
    EnsembleConfig.  Raises ValueError where sigma_max^2, or the square the
    law scales by (3 sigma_max^2 for uniform, K^2 for the truncated
    gaussian), is no finite normal float64, as the products sigma_i sigma_j
    would flush to 0 or overflow there; and where ``K`` is too small for
    the law.  A tiny sigma_i sigma_j below sigma_max^2 may underflow."""
    root3 = math.sqrt(3.0) * sigma_max
    if K is None:
        K = {"rademacher": sigma_max, "uniform": root3}.get(distribution, 3.0 * sigma_max)
    K = float(K)
    squares = {"sigma_max^2": sigma_max * sigma_max}
    if distribution == "uniform":
        squares["3 sigma_max^2"] = 3.0 * sigma_max * sigma_max
    elif distribution == "truncated_gaussian":
        squares["K^2"] = K * K
    for name, square in squares.items():
        if not _NORMAL_MIN <= square <= _FLOAT_MAX:
            raise ValueError(f"{distribution} cannot sample sigma_max = {sigma_max!r} with "
                             f"K = {K!r}: {name} = {square!r} is no finite normal float64")
    if distribution == "rademacher" and K < sigma_max * (1 - 1e-12):
        raise ValueError(f"rademacher needs K >= sigma_max ({sigma_max}), got K={K}")
    if distribution == "uniform" and K < root3 * (1 - 1e-12):
        raise ValueError(f"uniform needs K >= sqrt(3)*sigma_max ({root3}), got K={K}")
    if distribution == "truncated_gaussian" and K * K <= 3.0 * sigma_max * sigma_max:
        raise ValueError(f"truncated gaussian needs K > sqrt(3)*sigma_max ({root3}), got K={K}")
    return K


# float64's smallest normal and largest finite values
_NORMAL_MIN, _FLOAT_MAX = np.finfo(np.float64).tiny, np.finfo(np.float64).max
# Entries per block of the half-width solve, so its temporaries stay small.
_BLOCK = 1 << 16
# A Newton gap this small relative to 1/rho is rounding error.
_ROUNDING = 4 * np.finfo(np.float64).eps
# Terms of the series for S below c = 2; the first one left out is below
# 1e-18 S there.
_SERIES_TERMS = 25
# Past this half-width erf(c/sqrt(2)) rounds to 1 in float64.
_ERF_SATURATES = 9.0
_erf = np.frompyfunc(math.erf, 1, 1)
# Half-width at which the two rejection proposals accept equally often.
_WIDE = math.sqrt(0.5 * math.pi)


def _truncnorm_halfwidth(rho: np.ndarray) -> np.ndarray:
    """Solve Var[N(0,1) | |z| <= c] / c^2 = rho for c, elementwise.

    The conditioned variance V(c) = 1 - 2c phi(c)/erf(c/sqrt(2)) over c^2
    decreases from 1/3 (c -> 0) to 0 (c -> inf), so a solution exists exactly
    when rho < 1/3, and it lies below 1/sqrt(rho) because V < 1.  Newton's
    method runs in u = c^2 on u/V(sqrt(u)) - 1/rho, which is close to linear
    in u at both ends (3 + 2u/5 as u -> 0, u as u -> inf).  It starts at
    u = 1/rho and keeps the bracket [lo, hi] that the signs seen so far
    prove; a step that leaves it is replaced by the bracket's midpoint.  An
    entry stops when its step or bracket is within 2e-15 u, or its gap is
    rounding error, and after 64 rounds in any case; 6 rounds suffice for
    every rho tried.  Below the smallest normal float, where 1/rho would
    overflow, V is 1 to machine precision and c = 1/sqrt(rho) in closed form
    (infinite at rho = 0).  Blocks of ``_BLOCK`` entries keep the temporaries
    small.
    """
    c = np.empty_like(rho)
    for start in range(0, rho.size, _BLOCK):
        c[start:start + _BLOCK] = _halfwidth_block(rho[start:start + _BLOCK])
    return c


def _halfwidth_block(rho: np.ndarray) -> np.ndarray:
    with np.errstate(divide="ignore"):
        c = 1.0 / np.sqrt(rho)
    idx = np.flatnonzero(rho >= np.finfo(np.float64).tiny)
    r = rho[idx]
    u = 1.0 / r
    lo, hi = np.zeros_like(u), u
    for _ in range(64):
        if not idx.size:
            break
        x = np.sqrt(u)
        v, dv = _conditioned_variance(x)
        gap = u / v - 1.0 / r
        below = gap < 0  # V(x)/x^2 > rho: the root lies above u
        lo = np.where(below, u, lo)
        hi = np.where(below, hi, u)
        with np.errstate(divide="ignore", invalid="ignore"):
            new = u - gap * v / (1.0 - x * dv / (2.0 * v))
        new = np.where((new >= lo) & (new <= hi), new, 0.5 * (lo + hi))
        c[idx] = np.sqrt(new)
        todo = (
            (np.abs(new - u) > 2e-15 * new)
            & (hi - lo > 2e-15 * new)
            & (np.abs(gap) > _ROUNDING / r)
        )
        idx, r, u, lo, hi = idx[todo], r[todo], new[todo], lo[todo], hi[todo]
    return c


def _conditioned_variance(x: np.ndarray) -> Tuple[np.ndarray, np.ndarray]:
    """V(x) = Var[Z | |Z| <= x] for Z ~ N(0,1), and dV/dx, elementwise.

    With S(x) = erf(x/sqrt(2)) / (2 phi(x)) = x + x^3/3 + x^5/(3*5) + ...,
    V = 1 - x/S and V' = (x^2 - V)/S.  Below x = 2 the series tail S - x
    gives V = (S - x)/S without the cancellation of 1 - x/S; above, 1/S is
    computed from ``math.erf``, taken as 1 past x = 9.
    """
    inv_s = np.empty_like(x)
    v = np.empty_like(x)
    small = x < 2.0
    xs = x[small]
    u = xs * xs
    series = np.ones_like(u)
    for j in range(_SERIES_TERMS, 1, -1):
        series = 1.0 + series * u / (2 * j + 1)
    tail = xs * u * series / 3.0
    inv_s[small] = 1.0 / (xs + tail)
    v[small] = tail * inv_s[small]
    xb = x[~small]
    mass = np.ones_like(xb)
    inner = xb < _ERF_SATURATES
    mass[inner] = _erf(xb[inner] / math.sqrt(2.0)).astype(np.float64)
    inv_s[~small] = 2.0 * np.exp(-0.5 * xb * xb) / math.sqrt(2.0 * math.pi) / mass
    v[~small] = 1.0 - xb * inv_s[~small]
    return v, (x * x - v) * inv_s


def _truncated_normal(rng: np.random.Generator, c: np.ndarray) -> np.ndarray:
    """Z ~ N(0,1) conditioned on |Z| <= c, elementwise, by exact rejection.

    For c >= sqrt(pi/2) a standard normal is accepted when |z| <= c; below,
    a uniform z on [-c, c] is accepted with probability exp(-z^2/2).  Either
    way at least 79% of proposals are accepted, and each round redraws only
    the rejected entries.  When every c is wide, the first round draws
    straight into z, with the generator calls the general path makes.
    """
    z = np.empty_like(c)
    wide = c >= _WIDE
    if wide.all():
        rng.standard_normal(out=z)
        todo = np.flatnonzero(np.abs(z) > c)
    else:
        todo = np.flatnonzero(wide)
    while todo.size:
        x = rng.standard_normal(todo.size)
        ok = np.abs(x) <= c[todo]
        z[todo[ok]] = x[ok]
        todo = todo[~ok]
    todo = np.flatnonzero(~wide)
    while todo.size:
        x = c[todo] * rng.uniform(-1.0, 1.0, todo.size)
        ok = rng.random(todo.size) < np.exp(-0.5 * x * x)
        z[todo[ok]] = x[ok]
        todo = todo[~ok]
    return z


@lru_cache(maxsize=1)
def _plan(config: EnsembleConfig):
    """The per-campaign data of ``config``: the upper-triangle mask and the
    law's per-entry coefficients, in the mask's row-major order, read-only.

    Coefficients: sqrt(sigma_i sigma_j) for rademacher, sqrt(3 sigma_i sigma_j)
    for uniform, and (c, K/c) for the truncated gaussian, where c is the
    half-width from ``_truncnorm_halfwidth``, solved on the distinct values
    of rho = sigma_i sigma_j / K^2 only: the entry is (K/c) Z with Z a
    standard normal conditioned on |Z| <= c.
    """
    n = config.n
    sigma = np.array(sigma_values(config.sigma, n))
    smax = float(sigma.max())
    K = _bound(config.distribution, smax, config.K)

    mask = np.triu(np.ones((n, n), dtype=bool))
    prod = np.outer(sigma, sigma)[mask]
    if config.distribution == "rademacher":
        coeffs = (np.sqrt(prod),)
    elif config.distribution == "uniform":
        coeffs = (np.sqrt(3.0 * prod),)
    else:
        # each entry's solve is independent of the others, so solving the
        # distinct values and scattering them gives the same bits
        rho, entry = np.unique(prod / (K * K), return_inverse=True)
        c = _truncnorm_halfwidth(rho)[entry]
        coeffs = (c, K / c)
    for array in (mask, *coeffs):
        array.flags.writeable = False
    return mask, coeffs


def sample_matrix(
    config: EnsembleConfig, trial_index: int = 0, out: Optional[np.ndarray] = None
) -> np.ndarray:
    """One symmetric realization A = [a_ij / sqrt(n)], written into ``out``
    (a C-contiguous float64 n x n array, such as one member of a stack) when
    given, and returned.

    The diagonal and upper triangle are drawn as a single flat row-major
    block, so a (seed, trial_index) pair fixes the matrix exactly; the block
    is placed through the mask and again through the mask of the transpose,
    which together cover every entry.
    """
    n = config.n
    mask, coeffs = _plan(config)
    rng = np.random.Generator(np.random.PCG64(derive_trial_seed(config.seed, trial_index)))
    m = coeffs[0].size

    if config.distribution == "rademacher":
        a = rng.integers(0, 2, size=m).astype(np.float64) * 2.0 - 1.0
        a *= coeffs[0]
    elif config.distribution == "uniform":
        a = rng.uniform(-1.0, 1.0, size=m)
        a *= coeffs[0]
    else:
        c, scale = coeffs
        a = _truncated_normal(rng, c)
        a *= scale
    a /= math.sqrt(n)

    if out is None:
        out = np.empty((n, n))
    elif out.shape != (n, n) or out.dtype != np.float64 or not out.flags.c_contiguous:
        raise ValueError(f"out must be a C-contiguous float64 array of shape {(n, n)}")
    out[mask] = a
    out.T[mask] = a
    return out


def eigenvalues(matrix: np.ndarray) -> np.ndarray:
    """Full spectrum of a symmetric matrix, or of each matrix of a stack of
    shape (..., n, n), ascending along the last axis.

    A stack is solved by one call, which gives the same bits as a solve per
    matrix.  The residual contract (||A v - lambda v|| <= n * 1e-9 * ||A|| for
    each returned eigenvalue) is spot-checked by the test suite, not per call.
    """
    A = np.asarray(matrix, dtype=np.float64)
    if A.ndim < 2 or A.shape[-1] != A.shape[-2]:
        raise ValueError(f"expected a square matrix or a stack of them, got shape {A.shape}")
    At = A.swapaxes(-1, -2)
    # sample_matrix mirrors its triangles exactly; only other matrices pay
    # for the two temporaries of the asymmetry
    if not np.array_equal(A, At):
        asym = float(np.max(np.abs(A - At)))
        if asym > 1e-12:
            raise ValueError(f"matrix is not symmetric (max asymmetry {asym:.3e})")
    try:
        return np.linalg.eigvalsh(A)
    except np.linalg.LinAlgError as exc:
        raise RuntimeError(f"symmetric eigensolver did not converge: {exc}") from exc


def _radius(lam: np.ndarray) -> np.ndarray:
    """max |lambda| of ascending spectra, along the last axis."""
    return np.maximum(np.abs(lam[..., 0]), np.abs(lam[..., -1]))


def empirical_moments(eigenvalues: np.ndarray, k_max: int) -> np.ndarray:
    """Power-sum moments (1/n) sum lambda_i^k for k = 1..k_max of a spectrum,
    or of each spectrum of a stack along the last axis, in a new last axis.
    Each spectrum's moments take the same bits as that spectrum's alone."""
    if k_max < 1:
        raise ValueError(f"k_max must be >= 1, got {k_max}")
    out = np.empty(eigenvalues.shape[:-1] + (k_max,))
    p = eigenvalues.copy()
    for k in range(k_max):
        out[..., k] = p.mean(axis=-1)
        if k + 1 < k_max:
            p *= eigenvalues
    return out


def _histogram(values: np.ndarray, bins: int) -> Tuple[np.ndarray, np.ndarray]:
    """numpy's (counts, edges) of ``values``: half-open bins, the last closed.

    The range is [min, max] widened on both sides by 1e-9 times the larger
    of |min| and |max|, and by at least the smallest normal float, so the
    bins scale with the values, an all-zero array still gets a range, and
    the counts sum to the number of values.
    """
    if bins < 1:
        raise ValueError(f"bins must be >= 1, got {bins}")
    lo, hi = float(values.min()), float(values.max())
    pad = max(1e-9 * max(abs(lo), abs(hi)), np.finfo(np.float64).tiny)
    return np.histogram(values, bins=bins, range=(lo - pad, hi + pad))


@dataclass(frozen=True)
class MonteCarloResult:
    """Per-order moment statistics and radius statistics over a trial campaign.

    ``moment_means[k-1]`` estimates E{(1/n) trace(A^k)}; ``moment_stderrs``
    is None for a single trial.  ``per_trial_moments`` has shape
    (trials, k_max) and ``pooled_eigenvalues`` shape (trials * n,), both
    ordered by trial index.
    """

    moment_means: np.ndarray
    moment_stderrs: Optional[np.ndarray]
    per_trial_moments: np.ndarray
    radii: np.ndarray
    radius_mean: float
    radius_stderr: Optional[float]
    radius_min: float
    radius_max: float
    pooled_eigenvalues: np.ndarray
    workers: int = 1


# Bytes that the workers may hold at once: each holds its block's stack, and
# a draw and LAPACK's copy of one matrix.
_POOL_BYTES = 1 << 28
# numpy releases the GIL in a stacked eigvalsh only when stack size * n
# exceeds this (a lone 300 x 300 solve holds it; 2 x 300 and 1 x 600 release
# it).
_GIL_FREE_SIZE = 500
# Blocks per CPU past which a block grows, up to _BLOCK_BYTES of stack: a
# faster thread can still take more of them, and tiny matrices are not split
# into hundreds of small stacks (`validation`'s walk-oracle campaign, 20000
# trials at n = 3, is 12 blocks on 2 CPUs).
_BLOCKS_PER_CPU = 6
_BLOCK_BYTES = 1 << 20


def _cpu_count() -> int:
    if hasattr(os, "sched_getaffinity"):
        return len(os.sched_getaffinity(0))
    return os.cpu_count() or 1


def _schedule(trials: int, n: int, cpus: int) -> Tuple[List[Tuple[int, int]], int]:
    """Near-equal contiguous (start, stop) blocks of trial indices, and the
    number of threads to run them on.

    A block is at least the smallest stack numpy solves without the GIL, b =
    ``_GIL_FREE_SIZE // n + 1`` trials, so there are at most trials // b.
    Past ``_BLOCKS_PER_CPU`` blocks a CPU they grow instead, while a stack
    stays within ``_BLOCK_BYTES``.  The threads are the fewest of ``cpus``,
    the blocks and what ``_POOL_BYTES`` allows at the largest block's
    matrices and 2 more a thread (2 at n = 2000).
    """
    per_block = _GIL_FREE_SIZE // n + 1
    most = max(per_block, _BLOCK_BYTES // (8 * n * n))
    count = max(1, min(trials // per_block, max(_BLOCKS_PER_CPU * cpus, -(-trials // most))))
    blocks = [(trials * i // count, trials * (i + 1) // count) for i in range(count)]
    largest = -(-trials // count)
    room = max(1, _POOL_BYTES // ((largest + 2) * 8 * n * n))
    return blocks, min(cpus, count, room)


def monte_carlo(config: EnsembleConfig, trials: int, k_max: int) -> MonteCarloResult:
    """Run a reproducible campaign of independent trials, in blocks.

    The per-campaign plan (the mask and the law's coefficients, from sigma
    and K) is built once, before any block runs.  A block of trials draws
    each trial's matrix into one (b, n, n) stack with the module-level
    ``sample_matrix``, from the trial's own generator seeded from (seed,
    trial_index), solves the stack with one ``eigenvalues`` call and takes
    every spectrum's moments with one ``empirical_moments`` call; these are
    the only per-trial statistics.  Every spectrum is kept in
    ``pooled_eigenvalues`` (8 * trials * n bytes), which the CLI bins with
    ``_histogram``.  numpy releases the GIL in each block's eigensolve (see
    ``_schedule``), so the calling thread and, when BLAS was pinned to one
    thread before numpy loaded (``cli`` does this), one more thread per
    further CPU pull blocks from one lock-guarded iterator, and a faster
    thread takes more of them.  No block is handed out after the first
    error, which is re-raised on the calling thread once all threads have
    finished.  At large n a block is one trial and each thread holds about
    three n x n arrays (its matrix, the draw and LAPACK's copy).  Results
    are written by trial index, so a campaign is reproducible bit for bit
    whatever the thread count; ``workers`` records it.  A trial moment that
    is not finite, or may underflow (a trial's radius^k below the smallest
    normal float), raises ArithmeticError naming its order.  The
    radius is one more per-trial column beside the moments.  Each column's
    mean is ``math.fsum`` of its trials over their count, correctly rounded
    but for the division (numpy would sum the strided column naively,
    losing digits linearly in the trial count), and its standard error
    comes from the fsum of the squared deviations about that mean, both
    taken at the power of two of the column's largest magnitude, which
    keeps them in range and, being exact, keeps their bits.  Standard
    errors need trials >= 2 and are None otherwise.
    """
    if trials < 1:
        raise ValueError(f"trials must be >= 1, got {trials}")
    if k_max < 1:
        raise ValueError(f"k_max must be >= 1, got {k_max}")

    n = config.n
    _plan(config)  # built, and its errors raised, here rather than in a worker
    cpus = _cpu_count() if _blas_is_pinned() else 1
    blocks, workers = _schedule(trials, n, cpus)

    # a trial's moments m_1..m_{k_max} and, in the last column, its radius
    per_trial = np.empty((trials, k_max + 1))
    pooled = np.empty((trials, n))
    todo = iter(blocks)
    lock = threading.Lock()
    errors: List[BaseException] = []

    def run(start: int, stop: int) -> None:
        stack = np.empty((stop - start, n, n))
        for t in range(start, stop):
            sample_matrix(config, t, out=stack[t - start])
        lam = eigenvalues(stack)
        with np.errstate(over="ignore", invalid="ignore"):  # checked below
            per_trial[start:stop, :k_max] = empirical_moments(lam, k_max)
        per_trial[start:stop, k_max] = _radius(lam)
        pooled[start:stop] = lam

    def work() -> None:
        while True:
            with lock:
                block = None if errors else next(todo, None)
            if block is None:
                return
            try:
                run(*block)
            except BaseException as exc:  # re-raised on the calling thread
                errors.append(exc)

    threads = [threading.Thread(target=work) for _ in range(workers - 1)]
    for thread in threads:
        thread.start()
    work()
    for thread in threads:
        thread.join()
    if errors:
        raise errors[0]

    # a trial's radius^k bounds its |m_k|: below the smallest normal, that
    # m_k is subnormal or 0
    bad = ~np.isfinite(per_trial[:, :k_max]).all(axis=0)
    r = float(per_trial[:, k_max].min())
    bad |= [r < 1 and r ** k < _NORMAL_MIN for k in range(1, k_max + 1)]
    if bad.any():
        raise ArithmeticError(f"m_{int(bad.argmax()) + 1} of a trial leaves float64's range")
    exps = np.frexp(np.abs(per_trial).max(axis=0))[1]
    scaled = np.ldexp(per_trial, -exps)
    means = np.array([math.fsum(column) / trials for column in scaled.T.tolist()])
    stderrs = None
    if trials >= 2:
        squares = ((scaled - means) ** 2).T.tolist()
        variances = [math.fsum(column) / (trials - 1) for column in squares]
        stderrs = np.ldexp(np.sqrt(variances) / math.sqrt(trials), exps)
    means = np.ldexp(means, exps)
    radii = per_trial[:, k_max]
    return MonteCarloResult(
        moment_means=means[:k_max],
        moment_stderrs=None if stderrs is None else stderrs[:k_max],
        per_trial_moments=per_trial[:, :k_max],
        radii=radii,
        radius_mean=float(means[k_max]),
        radius_stderr=None if stderrs is None else float(stderrs[k_max]),
        radius_min=float(radii.min()),
        radius_max=float(radii.max()),
        pooled_eigenvalues=pooled.reshape(-1),
        workers=workers,
    )
