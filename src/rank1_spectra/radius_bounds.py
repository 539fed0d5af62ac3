"""Spectral-radius bounds: the finite-n moment sandwich and the Hankel-pencil SDP.

Two families of bounds are computed.  For finite n, power roots of
expected-moment bounds bracket the norm:

    m_lower^{1/2s}  <=  (E||A||^{2s})^{1/2s},    E||A||  <=  (n * m_upper)^{1/2s}.

x -> x^{1/2s} is concave, so the lower root bounds (E||A||^{2s})^{1/2s},
which is at least E||A||, and not E||A|| itself.  m_lower and m_upper =
(1 + theta*s) * m_limit are the moment bounds of `moments`
(``moment_lower_bound``, ``moment_upper_bound``; theta is computed there
only).  m_upper assumes |a_ij| <= sigma_max and is not proven (see
``moment_upper_bound``), so neither is the upper root.
``reports.radius_table`` forms the roots with ``_root_bound`` from the
builder that fills the moment table's rows; a row holds them as floats and
reads its flags off them, as a moment row does.  It also reports
(n m_lower)^{1/2s}: not a bound, but the companion value usually quoted
next to the lower bound.

Asymptotically, given the even limiting moments nu_s = m_{2s}, the support
supremum of the squared-eigenvalue law is lower-bounded by the SDP

    beta = min { x > 0 : H0 * x - H1 >= 0 },  H0 = (nu_{i+j}), H1 = (nu_{i+j+1}),

and sqrt(beta) lower-bounds the limiting spectral radius.  beta is the top
eigenvalue of the moments' Jacobi matrix J (Golub-Welsch 1969), whose
recurrence (a_k, b_k) Gautschi's Chebyshev algorithm gives in O(s_bar^2)
operations.  J - xI is congruent to H1 - x H0, so the Sturm count of J at x
counts the pencil's eigenvalues below x.  One bisection on that count, in
Decimal at the recurrence's digits, finds beta, and the counts at beta -/+ tol
certify it (`validation.certifies` checks that claim with an LDL^T of the
dense H0 x - H1).  cond(H0) grows about 10^1.8 per order, so the
recurrence and the counts run at max(60, 2 s_bar + 10) digits on moments
that carry 2 s_bar + 10 (`reports.radius_table`), each with
`sigma_model._GUARD_DIGITS` more.  Nothing regularises them: a b_k that
vanishes to their precision ends the recurrence (finite support, or spent
digits), and a clearly negative one means they are no moment sequence.
All of it runs on the stdlib's C ``decimal`` in `sigma_model._context`;
mpmath is only an oracle of the tests.
"""

from __future__ import annotations

import math
import numbers
from decimal import Decimal, getcontext, localcontext
from typing import NamedTuple, Optional, Sequence, Tuple

from . import _DEFAULT_SBAR as DEFAULT_SBAR
from . import _DEFAULT_TOL as DEFAULT_TOL
from .moments import _scaled
from .sigma_model import _GUARD_DIGITS, _context

__all__ = [
    "HankelPencil",
    "RadiusBoundsReport",
    "RadiusOrderRow",
    "SdpResult",
    "InvalidMomentSequenceError",
    "build_pencil",
    "sdp_lower_bound",
    "DEFAULT_TOL",
    "DEFAULT_SBAR",
]

# sigma_{k,k} within this many rounding units of the magnitude that cancels in
# it is zero to the moments' precision
_NOISE = 16


def _digits(s_bar: int) -> int:
    """Working precision of the recurrence and the Sturm counts at truncation s_bar."""
    return max(60, 2 * s_bar + 10)


class InvalidMomentSequenceError(ValueError):
    """The moments are not those of a positive measure: some b_k < 0."""


class HankelPencil(NamedTuple):
    """``nu`` = (1, m_2, m_4, .., m_{2(2 s_bar + 1)}) in Decimal, the entries of
    the Hankel matrices, and the recurrence p_{k+1} = (x - a_k) p_k -
    b_k p_{k-1} (b[0] = 0) of its orthogonal polynomials, shorter than
    s_bar + 1 for a finite support.  ``condition`` is the largest factor by
    which the recurrence amplified the moments' relative error."""

    s_bar: int
    nu: Tuple[Decimal, ...]
    a: Tuple[Decimal, ...]
    b: Tuple[Decimal, ...]
    condition: float


class SdpResult(NamedTuple):
    """``beta`` is certified within ``tol`` of the pencil's minimum, an
    absolute half-width: beta scales as sigma^2, so at sigma = 1e-5, where
    beta is 3.96e-10, the default tol of 1e-10 pins it to about 25%.
    ``method_agreement`` is that half-width (= tol).  ``condition_estimate``
    is the pencil's ``condition`` and ``ridge_scale`` is 0: no
    regularisation is added.  ``order`` is the truncation beta belongs to,
    len(pencil.a) - 1: ``s_bar`` unless the recurrence ended early."""

    beta: float
    sqrt_beta: float
    method_agreement: float
    s_bar: int
    tol: float
    condition_estimate: float
    ridge_scale: float
    order: Optional[int] = None


def build_pencil(moments: Sequence, s_bar: int, eps=None) -> HankelPencil:
    """Assemble the pencil and its Jacobi recurrence from m_2, m_4, ..., m_{2(2 s_bar + 1)}.

    ``moments[t-1]`` must hold m_{2t}: floats, rationals or Decimals, each
    rounded once to the recurrence's digits.  ``eps`` is their relative
    error; by default 2^-53 when any is a float, else the unit 10^(1 - D)
    of the current decimal context's D digits.  Raises
    InvalidMomentSequenceError where the recurrence finds some b_k < 0
    (e.g. nu_2 < nu_1^2).
    """
    if s_bar < 1:
        raise ValueError(f"s_bar must be >= 1, got {s_bar}")
    needed = 2 * s_bar + 1
    if len(moments) < needed:
        raise ValueError(f"need m_2..m_{2 * needed}, got {len(moments)} moments")
    if eps is None:
        eps = (2.0 ** -53 if any(isinstance(m, float) for m in moments[:needed])
               else Decimal(1).scaleb(1 - getcontext().prec))
    eps = Decimal(eps)
    with localcontext(_context(_digits(s_bar) + _GUARD_DIGITS)) as ctx:
        nu = (Decimal(1),) + tuple(
            ctx.divide(m.numerator, m.denominator) if isinstance(m, numbers.Rational)
            else ctx.create_decimal(m) for m in moments[:needed])
        if not all(v.is_finite() for v in nu):
            raise ValueError("moment sequence contains non-finite entries")
        a, b, condition = _chebyshev(nu, eps)
    return HankelPencil(s_bar, nu, a, b, condition)


def _chebyshev(nu: tuple, eps: Decimal) -> Tuple[tuple, tuple, float]:
    """(a, b, condition) from nu_0..nu_{2m-1} by Gautschi's Chebyshev algorithm.

    Row k holds sigma_{k,l} = int p_k x^l dmu, l = k..2m-k-1:
        sigma_{k,l} = sigma_{k-1,l+1} - a_{k-1} sigma_{k-1,l} - b_{k-1} sigma_{k-2,l},
        a_k = sigma_{k,k+1} / sigma_{k,k} - sigma_{k-1,k} / sigma_{k-1,k-1},
        b_k = sigma_{k,k} / sigma_{k-1,k-1}.
    The same recurrence on absolute values bounds what a relative input
    error eps can move sigma_{k,k} by, over eps.  A sigma_{k,k} within
    _NOISE such moves of zero ends the recurrence, a negative one beyond
    them raises, and ``condition`` is the largest bound / sigma_{k,k}.
    """
    m = len(nu) // 2
    zeros = [0] * len(nu)
    prev, row, prev_mag, row_mag = zeros, list(nu), zeros, [abs(v) for v in nu]
    a, b, condition = [nu[1] / nu[0]], [Decimal(0)], Decimal(1)
    for k in range(1, m):
        new, mag = list(zeros), list(zeros)
        for l in range(k, 2 * m - k):
            new[l] = row[l + 1] - a[-1] * row[l] - b[-1] * prev[l]
            mag[l] = row_mag[l + 1] + abs(a[-1]) * row_mag[l] + b[-1] * prev_mag[l]
        if abs(new[k]) <= _NOISE * eps * mag[k]:
            break
        if new[k] < 0:
            raise InvalidMomentSequenceError(
                f"not a valid moment sequence: the Jacobi recurrence has b_{k} = "
                f"{new[k] / row[k - 1]:.3g} < 0"
            )
        a.append(new[k + 1] / new[k] - row[k] / row[k - 1])
        b.append(new[k] / row[k - 1])
        condition = max(condition, mag[k] / new[k])
        prev, row, prev_mag, row_mag = row, new, row_mag, mag
    return tuple(a), tuple(b), float(condition)


def _count_below(a: tuple, b: tuple, x) -> int:
    """Eigenvalues of the Jacobi matrix below x: the negative pivots of
    J - xI (Sturm), in the current decimal context of D digits.  A pivot
    that is exactly 0 moves 10^(1 - D) (|a_k| + |x|) above 0."""
    count, q = 0, 1
    for ak, bk in zip(a, b):
        q = ak - x - bk / q
        q = q or Decimal(1).scaleb(1 - getcontext().prec) * (abs(ak) + abs(x))
        count += q < 0
    return count


def sdp_lower_bound(pencil: HankelPencil, tol: float = DEFAULT_TOL) -> SdpResult:
    """min{x > 0 : H0 x - H1 >= 0}, the top eigenvalue of the pencil's Jacobi
    matrix, by bisecting [max a_k, Gershgorin's bound] on its Decimal Sturm count
    until the bracket is below tol and 2^-64 of its upper end; beta is the
    midpoint, and sqrt_beta its Decimal square root, each rounded once to a
    float, so sqrt_beta keeps its digits where beta is a subnormal float or
    reads 0.  Raises ArithmeticError when the counts at beta -/+ tol do not
    certify it: the digits cannot resolve beta to tol, as for a support
    near 1e60 at 1e-8."""
    if not (math.isfinite(tol) and tol > 0):
        raise ValueError(f"tol must be finite and > 0, got {tol}")
    a, b, m = pencil.a, pencil.b, len(pencil.a)
    digits = _digits(pencil.s_bar)
    with localcontext(_context(digits + _GUARD_DIGITS)):
        root = [v.sqrt() for v in b[1:]] + [0]
        lo = max(a)
        hi = max(ak + rk + rl for ak, rk, rl in zip(a, [0] + root, root))
        half = Decimal(tol)
        while hi - lo > min(half, abs(hi) * Decimal(2) ** -64):
            mid = (lo + hi) / 2
            if mid in (lo, hi):
                break
            if _count_below(a, b, mid) == m:
                hi = mid
            else:
                lo = mid
        beta = (lo + hi) / 2
        if _count_below(a, b, beta + half) != m or _count_below(a, b, beta - half) == m:
            raise ArithmeticError(
                f"beta = {beta:.17g} is not certified to within tol = {tol}: "
                f"{digits}-digit Sturm counts cannot separate beta - tol from beta + tol"
            )
        root = max(beta, Decimal(0)).sqrt()
    return SdpResult(
        beta=float(beta),
        sqrt_beta=float(root),
        method_agreement=tol,
        s_bar=pencil.s_bar,
        tol=tol,
        condition_estimate=pencil.condition,
        ridge_scale=0.0,
        order=m - 1,
    )


def _root_bound(m: float, s: int, e: int = 0) -> Optional[float]:
    """m^{1/2s} 2^e, the root of m 4^es: +inf where m is or where the root
    leaves float64 once scaled back, and None where m <= 0."""
    return None if m <= 0 else _scaled(m ** (1.0 / (2 * s)), e)


class RadiusOrderRow(NamedTuple):
    """Finite-n radius bounds at one order s, flagged as `moments.MomentRow`'s
    are: from the numbers themselves."""

    s: int
    n: int
    lower: Optional[float]            # moment_lower^{1/2s} <= (E||A||^{2s})^{1/2s}, not E||A||
    upper: float                      # (n (1 + theta s) m_{2s})^{1/2s}, +inf on overflow
    upper_companion: Optional[float]  # (n * moment_lower)^{1/2s}, not a proven bound

    @property
    def lower_vacuous(self) -> bool:
        """moment_lower <= 0, which has no root."""
        return self.lower is None

    @property
    def upper_overflow(self) -> bool:
        return math.isinf(self.upper)


class RadiusBoundsReport(NamedTuple):
    """Radius bounds per order plus the SDP result.

    ``asymptotic_root`` is m_{2s}^{1/2s} at the largest computed order: the
    numeric surrogate for the limiting-root upper estimate (it increases
    toward the support edge, so at finite order it is an underestimate).
    With no row order above 2 s_bar + 1 and ``sdp.order == s_bar`` it is at
    most ``sdp.sqrt_beta``: the s_bar + 1 Gauss nodes x_i >= 0 of the law of
    lambda^2 (weights w_i summing to 1, largest node beta) integrate x^(2 s_bar
    + 1) exactly, so m_{2(2 s_bar + 1)} = sum w_i x_i^(2 s_bar + 1) <= beta^(2 s_bar + 1).
    """

    rows: Tuple[RadiusOrderRow, ...]
    sdp: SdpResult
    asymptotic_root: float
    notes: Tuple[str, ...] = ()
