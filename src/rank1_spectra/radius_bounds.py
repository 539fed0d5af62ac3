"""Spectral-radius bounds: the finite-n moment sandwich and the Hankel-pencil SDP.

Two families of bounds are computed.  For finite n, the expected operator
norm is sandwiched by power roots of expected-moment bounds:

    m_lower^{1/2s}  <=  E||A||  <=  (n * m_upper)^{1/2s},

where m_lower comes from `moments.moment_lower_bound` and m_upper =
(1 + theta*s) * m_limit.  The same sandwich evaluated at m_lower on both
sides is also exposed: it is not a proven upper bound, but it is the
finite-n companion value usually quoted next to the lower bound, and it is
reported with that caveat.

Asymptotically, given the even limiting moments nu_s = m_{2s}, the support
supremum of the squared-eigenvalue distribution is lower-bounded by the
one-variable semidefinite program

    beta = min { x > 0 : H0 * x - H1 >= 0 },

over the two Hankel moment matrices H0[i][j] = nu_{i+j}, H1[i][j] =
nu_{i+j+1}; then sqrt(beta) lower-bounds the limiting spectral radius.  The
minimum is the largest eigenvalue of the pencil (H1, H0): with H0 = L L^T,
L^{-1} H1 L^{-T} is the Jacobi matrix of the moments and beta its largest
Gauss node (Golub-Welsch 1969).  One 60-digit Cholesky factor gives L^{-1}
and that matrix; float64 `eigh` of it seeds the top eigenvector, one
60-digit residual step refines it, and beta is its 60-digit Rayleigh
quotient.  beta is certified in the same arithmetic by two Cholesky tests:
H0 (beta + tol) - H1 factors and H0 (beta - tol) - H1 does not.
`validation.bisect_beta` is the oracle.  cond(H0) is lambda_max(H0) times
lambda_max(L^{-T} L^{-1}), each a refined float64 eigenvector's Rayleigh
quotient.

All 60-digit work runs on the sequence nu_s 2^{-ks} with k = round(log2
nu_1).  A power-of-two scaling is exact, so it changes no digit of beta
(scaled back by 2^k) but keeps Cholesky's absolute pivot test (s < eps)
from rejecting valid moment sequences of small sigma, whose H0 pivots
fall below 1e-60 unscaled.  cond(H0) is reported for the unscaled matrix.

H0 carries a relative diagonal ridge (`RIDGE_SCALE`) because the moments
come from float64 averages: on smooth profiles cond(H0) ~ 1e22 at s_bar = 14,
and without the ridge their rounding noise makes H0 indefinite by s_bar = 25
and can push beta above its true value; with it beta is a loose but valid
lower bound.  The ridge can go once the averages are computed beyond double
precision.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import Optional, Sequence, Tuple

import numpy as np
from mpmath import mp, mpf

from .moments import moment_lower_bound, theta_factor

__all__ = [
    "HankelPencil",
    "RadiusBound",
    "SdpResult",
    "InvalidMomentSequenceError",
    "build_pencil",
    "sdp_lower_bound",
    "radius_lower_bound",
    "radius_upper_bound",
    "moment_sandwich",
    "RIDGE_SCALE",
    "DEFAULT_TOL",
    "DEFAULT_SBAR",
]

# Relative ridge added to the diagonal of the Hankel moment matrix before any
# factorization: H0 -> H0 + RIDGE_SCALE * diag(H0).  Scaling the ridge by the
# matrix's own diagonal (rather than a global norm) keeps the regularized
# pencil exactly equivariant under nu_s -> c^{2s} nu_s and keeps beta
# monotone in s_bar, since leading principal submatrices inherit the same
# regularization.
RIDGE_SCALE = 1e-14
DEFAULT_TOL = 1e-10
DEFAULT_SBAR = 14
_DPS = 60


class InvalidMomentSequenceError(ValueError):
    """The Hankel matrix H0 is not positive definite even after the ridge."""


@dataclass(frozen=True)
class HankelPencil:
    """The two Hankel matrices of a truncated moment sequence.

    ``nu`` holds (nu_0, ..., nu_{2 s_bar + 1}) with nu_0 = 1 and nu_s equal
    to the even moment m_{2s}.  H0 is stored without the ridge; every
    factorization, and the positive-definiteness check at construction,
    uses H0 + RIDGE_SCALE * diag(H0).
    """

    s_bar: int
    nu: Tuple[float, ...]
    H0: np.ndarray
    H1: np.ndarray


@dataclass(frozen=True)
class RadiusBound:
    """A one-sided bound with its vacuity flag.

    For lower bounds ``vacuous`` means the bounded quantity was non-positive
    (value is NaN); for upper bounds it means overflow (value is +inf).
    """

    value: float
    vacuous: bool


@dataclass(frozen=True)
class SdpResult:
    """``beta`` is certified within ``tol`` of the ridge pencil's minimum;
    ``method_agreement`` is that half-width (= tol), ``ridge_scale`` is
    RIDGE_SCALE and ``condition_estimate`` is cond(H0) with the ridge."""

    beta: float
    sqrt_beta: float
    method_agreement: float
    s_bar: int
    tol: float
    condition_estimate: float
    ridge_scale: float


def build_pencil(moments: Sequence[float], s_bar: int) -> HankelPencil:
    """Assemble the pencil from even moments m_2, m_4, ..., m_{2(2 s_bar + 1)}.

    ``moments[t-1]`` must hold m_{2t}.  Raises InvalidMomentSequenceError if
    the ridge-regularized H0 fails Cholesky (e.g. nu_2 < nu_1^2).
    """
    if s_bar < 1:
        raise ValueError(f"s_bar must be >= 1, got {s_bar}")
    needed = 2 * s_bar + 1
    if len(moments) < needed:
        raise ValueError(f"need m_2..m_{2 * needed}, got {len(moments)} moments")
    nu = (1.0,) + tuple(float(m) for m in moments[:needed])
    if any(not math.isfinite(v) for v in nu):
        raise ValueError("moment sequence contains non-finite entries")
    hankel = np.add.outer(np.arange(s_bar + 1), np.arange(s_bar + 1))
    pencil = HankelPencil(
        s_bar=s_bar, nu=nu, H0=np.array(nu)[hankel], H1=np.array(nu)[hankel + 1]
    )
    with mp.workdps(_DPS):
        if _cholesky(_scaled_pencil(pencil)[1]) is None:
            raise InvalidMomentSequenceError(
                "H0 is not positive definite: not a valid moment sequence "
                f"(nu = {nu[:4]}...)"
            )
    return pencil


def _scaled_pencil(pencil: HankelPencil) -> Tuple[int, list, list]:
    """(k, H0r, H1) for the sequence nu_s 2^{-ks}, k = round(log2 nu_1), as
    rows of 60-digit numbers; H0r carries the ridge.  Call inside
    ``mp.workdps(_DPS)``.

    Scaling by a power of two is exact, so every sum below scales exactly
    and only Cholesky's absolute pivot test (``s < eps``) sees k: with
    nu_1 ~ 1 it no longer rejects valid small-sigma sequences.  The pencil's
    eigenvalues scale by 2^{-k}.
    """
    nu1 = abs(pencil.nu[1])
    k = round(math.log2(nu1)) if nu1 > 0 else 0
    nu = [mp.ldexp(mpf(v), -k * s) for s, v in enumerate(pencil.nu)]
    ridge = 1 + mpf(RIDGE_SCALE)
    m = pencil.s_bar + 1
    H0r = [[nu[i + j] * ridge if i == j else nu[i + j] for j in range(m)] for i in range(m)]
    H1 = [[nu[i + j + 1] for j in range(m)] for i in range(m)]
    return k, H0r, H1


def _cholesky(A: list) -> Optional[list]:
    """``mp.cholesky`` on a list of rows: the lower factor as rows L[i] of
    length i + 1, or None where mp.cholesky raises "not positive-definite".

    The same sums run in the same order, with the same pivot test and the
    same second write of L[j][j] (mp.cholesky stores sqrt(s), then
    overwrites it with (A[j][j] - L_j . L_j) / sqrt(s) and divides the
    column by that), so both accept the same matrices and give the same
    factor.
    """
    n = len(A)
    eps = +mp.eps
    L = [[] for _ in range(n)]
    for j in range(n):
        row = L[j]
        s = A[j][j] - mp.fsum(row, absolute=True, squared=True)
        if s < eps:
            return None
        pivot = (A[j][j] - mp.fdot(row, row)) / mp.sqrt(s)
        for i in range(j + 1, n):
            L[i].append((A[i][j] - mp.fdot(L[i], row)) / pivot)
        row.append(pivot)
    return L


def _shifted(H0r: list, H1: list, x) -> list:
    """H0r x - H1, entry by entry as mp.matrix computes it."""
    return [[a * x - b for a, b in zip(r0, r1)] for r0, r1 in zip(H0r, H1)]


def _lower_inverse(L: list) -> list:
    """L^{-1} by forward substitution, as rows W[i] of length i + 1."""
    W = []
    for i, Li in enumerate(L):
        d = Li[i]
        W.append(
            [-mp.fdot(Li[j:i], [W[t][j] for t in range(j, i)]) / d for j in range(i)]
            + [1 / d]
        )
    return W


def _floats(rows: list) -> np.ndarray:
    """Float64 copy of a square matrix given by its rows (lower-triangular
    rows are padded with zeros)."""
    out = np.zeros((len(rows), len(rows)))
    for i, row in enumerate(rows):
        out[i, : len(row)] = [float(v) for v in row]
    return out


def _times(M: list):
    """x -> M x for a square matrix given by its rows."""
    return lambda x: [mp.fdot(row, x) for row in M]


def _top_eigenvalue(apply, lam: np.ndarray, V: np.ndarray) -> mpf:
    """Largest eigenvalue of a symmetric 60-digit operator ``apply`` (x ->
    M x on lists) from a float64 eigendecomposition of M (``lam`` ascending,
    eigenvectors in V's columns).

    The float top eigenvector x is off by e ~ eps/gap (eps the float64
    rounding, gap the relative distance to the next eigenvalue) and its
    Rayleigh quotient theta by e^2.  One residual step through the other
    float eigenpairs, x += sum_k V_k (V_k . r) / (theta - lam_k) with
    r = M x - theta x, leaves an error near e^2 and a quotient error near
    e^4, far below float64 rounding.  Every Rayleigh quotient is a lower
    bound on the top eigenvalue, so the larger of the two is kept, and a
    step that is not finite changes nothing.
    """

    def rayleigh(x):
        y = apply(x)
        return mp.fdot(x, y) / mp.fdot(x, x), y

    x = [mpf(float(c)) for c in V[:, -1]]
    theta, y = rayleigh(x)
    r = np.array([float(yi - theta * xi) for xi, yi in zip(x, y)])
    with np.errstate(all="ignore"):
        coef = (V[:, :-1].T @ r) / (float(theta) - lam[:-1])
        step = V[:, :-1] @ coef
    refined, _ = rayleigh([xi + float(d) for xi, d in zip(x, step)])
    return refined if refined > theta else theta


def sdp_lower_bound(pencil: HankelPencil, tol: float = DEFAULT_TOL) -> SdpResult:
    """Solve min{x > 0 : H0 x - H1 >= 0} as the pencil's largest eigenvalue.

    One Cholesky factor H0r = L L^T of the rescaled pencil gives W = L^{-1}
    and the Jacobi matrix B = W H1 W^T, all in 60 digits; beta is B's top
    eigenvalue (`_top_eigenvalue`), and cond(H0r) of the unscaled pencil is
    lambda_max(H0r) * lambda_max(W^T W), each found the same way.

    Raises ArithmeticError when the certificate fails (H0 (beta + tol) - H1
    does not factor or H0 (beta - tol) - H1 does): 60 digits cannot resolve
    beta to tol, as for a support near 1e60 at tol 1e-8.
    """
    if not (math.isfinite(tol) and tol > 0):
        raise ValueError(f"tol must be finite and > 0, got {tol}")
    with mp.workdps(_DPS):
        k, H0r, H1 = _scaled_pencil(pencil)
        W = _lower_inverse(_cholesky(H0r))
        m = len(W)
        # B = W H1 W^T: fdot's zip stops at the shorter row, which is W's
        # triangle; B is symmetric, so only its lower triangle is summed
        C = [[mp.fdot(Wi, H1[c]) for c in range(m)] for Wi in W]
        B = [[mp.fdot(W[j], C[i]) for j in range(i + 1)] for i in range(m)]
        B = [[B[i][j] if j <= i else B[j][i] for j in range(m)] for i in range(m)]
        scaled = _top_eigenvalue(_times(B), *np.linalg.eigh(_floats(B)))
        half = mp.ldexp(mpf(tol), -k)
        if _cholesky(_shifted(H0r, H1, scaled + half)) is None or _cholesky(
            _shifted(H0r, H1, scaled - half)
        ) is not None:
            raise ArithmeticError(
                f"beta = {mp.nstr(mp.ldexp(scaled, k), 17)} is not certified to within "
                f"tol = {tol}: {_DPS}-digit Cholesky cannot separate beta - tol from beta + tol"
            )
        beta = mp.ldexp(scaled, k)
        # cond of the unscaled H0r = D^{-1} H0r D^{-1}, D = diag(2^{-ki}),
        # whose inverse factor is W D
        H0u = [[mp.ldexp(v, k * (i + j)) for j, v in enumerate(row)] for i, row in enumerate(H0r)]
        Wu = [[mp.ldexp(v, -k * j) for j, v in enumerate(row)] for row in W]

        def gram(x):  # W^T W x
            z = [mp.fdot(row, x) for row in Wu]
            return [mp.fdot([Wu[i][j] for i in range(j, m)], z[j:]) for j in range(m)]

        _, sv, Vt = np.linalg.svd(_floats(Wu))
        with np.errstate(over="ignore"):
            lam_gram = sv[::-1] ** 2
        lam_max = _top_eigenvalue(_times(H0u), *np.linalg.eigh(_floats(H0u)))
        condition = float(lam_max * _top_eigenvalue(gram, lam_gram, Vt[::-1].T))

    return SdpResult(
        beta=float(beta),
        sqrt_beta=math.sqrt(max(float(beta), 0.0)),
        method_agreement=tol,
        s_bar=pencil.s_bar,
        tol=tol,
        condition_estimate=condition,
        ridge_scale=RIDGE_SCALE,
    )


def radius_lower_bound(values: Sequence[float], s: int) -> RadiusBound:
    """Lower bound m_lower^{1/2s} on the expected spectral radius at finite n.

    Vacuous (NaN value) when the bounded moment quantity is non-positive,
    which genuinely happens at small n.
    """
    return _root_bound(moment_lower_bound(values, s), s)


def _root_bound(m_low: float, s: int) -> RadiusBound:
    """m_low^{1/2s}, vacuous (NaN value) when m_low <= 0."""
    if m_low <= 0:
        return RadiusBound(value=math.nan, vacuous=True)
    return RadiusBound(value=m_low ** (1.0 / (2 * s)), vacuous=False)


def radius_upper_bound(
    n: int,
    s: int,
    K: float,
    sigma_max: float,
    sigma_min: float,
    m_limit: float,
) -> RadiusBound:
    """Upper bound (n (1 + theta s) m_{2s})^{1/2s} on the expected spectral radius.

    Finite for any valid inputs unless theta overflows (then +inf, flagged).
    For strongly varying sigma the theta term makes this enormous at
    moderate s; `moment_sandwich` gives the companion value usually reported.
    """
    if n <= s:
        raise ValueError(f"need n > s, got n={n}, s={s}")
    th = theta_factor(n, s, K, sigma_max, sigma_min)
    if math.isinf(th):
        return RadiusBound(value=math.inf, vacuous=True)
    return RadiusBound(
        value=(n * (1.0 + th * s) * m_limit) ** (1.0 / (2 * s)), vacuous=False
    )


def moment_sandwich(n: int, s: int, moment_value: float) -> Tuple[float, float]:
    """The plain power-root sandwich (m^{1/2s}, (n m)^{1/2s}) at a moment value.

    Applied to the true expected moment these are two-sided bounds on
    E||A||; applied to a lower bound on the moment, the first entry is still
    a valid lower bound while the second is only the customary companion
    estimate.
    """
    if moment_value <= 0:
        raise ValueError(f"moment_value must be > 0, got {moment_value}")
    root = 1.0 / (2 * s)
    return moment_value ** root, (n * moment_value) ** root


@dataclass(frozen=True)
class RadiusOrderRow:
    """Finite-n radius bounds at one order s."""

    s: int
    n: int
    lower: RadiusBound            # moment_lower^{1/2s}
    upper: RadiusBound            # (n (1 + theta s) m_{2s})^{1/2s}
    upper_companion: Optional[float]  # (n * moment_lower)^{1/2s}, see moment_sandwich


@dataclass(frozen=True)
class RadiusBoundsReport:
    """Radius bounds per order plus the SDP result and optional empirical stats.

    ``asymptotic_root`` is m_{2s}^{1/2s} at the largest computed order: the
    numeric surrogate for the limiting-root upper estimate (it increases
    toward the support edge, so at finite order it is an underestimate).
    """

    rows: Tuple[RadiusOrderRow, ...]
    sdp: Optional[SdpResult] = None
    asymptotic_root: Optional[float] = None
    empirical: Optional[dict] = None
    notes: Tuple[str, ...] = ()
