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
Gauss node (Golub-Welsch 1969).  It is computed once in 60-digit arithmetic
and certified there by two Cholesky tests: H0 (beta + tol) - H1 factors and
H0 (beta - tol) - H1 does not.  `validation.bisect_beta` is the oracle.

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
        if not _chol_succeeds(_regularized_h0(pencil)):
            raise InvalidMomentSequenceError(
                "H0 is not positive definite: not a valid moment sequence "
                f"(nu = {nu[:4]}...)"
            )
    return pencil


def _to_mp(M: np.ndarray) -> "mp.matrix":
    return mp.matrix(M.tolist())


def _regularized_h0(pencil: HankelPencil) -> "mp.matrix":
    H0 = _to_mp(pencil.H0)
    for i in range(H0.rows):
        H0[i, i] = H0[i, i] * (1 + mpf(RIDGE_SCALE))
    return H0


def _chol_succeeds(M: "mp.matrix") -> bool:
    try:
        mp.cholesky(M)
        return True
    except ValueError:
        return False


def _generalized_max_eig(H1: "mp.matrix", H0reg: "mp.matrix") -> mpf:
    """Largest eigenvalue of the pencil (H1, H0reg) via L^{-1} H1 L^{-T}."""
    Li = mp.inverse(mp.cholesky(H0reg))
    B = Li * H1 * Li.T
    eigs = mp.eigsy((B + B.T) / 2, eigvals_only=True)
    return max(eigs)


def sdp_lower_bound(pencil: HankelPencil, tol: float = DEFAULT_TOL) -> SdpResult:
    """Solve min{x > 0 : H0 x - H1 >= 0} as the pencil's largest eigenvalue.

    Raises ArithmeticError when the certificate fails (H0 (beta + tol) - H1
    does not factor or H0 (beta - tol) - H1 does): 60 digits cannot resolve
    beta to tol, as for a support near 1e60 at tol 1e-8.
    """
    if not (math.isfinite(tol) and tol > 0):
        raise ValueError(f"tol must be finite and > 0, got {tol}")
    with mp.workdps(_DPS):
        H0r = _regularized_h0(pencil)
        H1 = _to_mp(pencil.H1)
        beta = _generalized_max_eig(H1, H0r)
        half = mpf(tol)
        if not _chol_succeeds(H0r * (beta + half) - H1) or _chol_succeeds(
            H0r * (beta - half) - H1
        ):
            raise ArithmeticError(
                f"beta = {mp.nstr(beta, 17)} is not certified to within tol = {tol}: "
                f"{_DPS}-digit Cholesky cannot separate beta - tol from beta + tol"
            )
        eigs = mp.eigsy(H0r, eigvals_only=True)
        condition = float(max(eigs) / min(eigs))

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
    m_low = moment_lower_bound(values, s)
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
