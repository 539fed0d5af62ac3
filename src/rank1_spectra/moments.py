"""Limiting even spectral moments and finite-n bounds on the expected moments.

The limiting even moment of order 2s, the paper's sum over tree degree
profiles of tree counts times powers of the limiting averages Lambda_k, is one
coefficient of the plane-tree generating series (Lagrange inversion): with
phi(w) = sum_j A_{j+1} w^j, m_{2s} = 2/(s+1) * [w^{s-1}] phi(w)^{s+1}, a
truncated polynomial power, exact for rational averages.  One pass over the
powers phi^2..phi^{S+1} gives every order up to 2S.  For finite n the
same series at the partial averages S_{n,k}/n, minus an explicit
repeated-index correction, lower-bounds the expected moment; an upper bound
multiplies the limit by 1 + theta*s with a fully explicit theta.
"""

from __future__ import annotations

import functools
import math
import numbers
import operator
from typing import NamedTuple, Optional, Sequence

from . import _MAX_ORDER as MAX_ORDER  # maximum s in m_{2s}
from .sigma_model import _context, _exact_ratio, sigma_stats

__all__ = [
    "MomentRow",
    "MomentReport",
    "limiting_even_moment",
    "moment_lower_bound",
    "moment_upper_bound",
    "odd_moment_bound",
    "theta_factor",
    "MAX_ORDER",
]

Number = numbers.Number  # an int, a Fraction, a float or a Decimal


def _tree_series(averages: Sequence[Number], s_max: int) -> list:
    """[m_2, m_4, .., m_{2 s_max}]: sums over R_s of tree_count(profile) * prod averages[j-1]^r_j.

    A profile's 2 * s! / prod r_j! trees are 2/(s+1) times the multinomial
    coefficient of its term prod A_j^{r_j} w^{s-1} in phi(w)^{s+1}.  Each
    power phi^j is built once, truncated after w^{s_max-1}; its low
    coefficients are the same sums, in the same order, as a truncation
    after w^{s-1}.  Floats give floats, Decimals give Decimals at the
    current context's digits (`_fixed_point_series`), and rationals stay
    exact (integers of any type as ints); other reals, mixed with
    rationals, are floats.  All terms are positive.  Each coefficient sums
    its products left to right, on every Python: from 3.12 on, the builtin
    ``sum`` compensates float sums.  A float series takes 2/(s+1) as the
    float 2 / (s + 1), which is float(Fraction(2, s + 1)), so it loads
    neither ``fractions`` nor ``decimal``.
    """
    phi = averages[:s_max]
    if all(isinstance(a, float) for a in phi):
        phi, factors = [float(a) for a in phi], [2 / (s + 1) for s in range(1, s_max + 1)]
    else:  # exact or mixed input keeps its product types
        from decimal import Decimal

        if all(isinstance(a, Decimal) for a in phi):
            return _fixed_point_series(list(phi), s_max)
        from fractions import Fraction

        phi = [_exact_or_float(a) for a in phi]
        factors = [Fraction(2, s + 1) for s in range(1, s_max + 1)]
    power = list(phi)
    series = []
    for s in range(1, s_max + 1):
        power = [functools.reduce(operator.add, map(operator.mul, power[:k + 1], phi[k::-1]))
                 for k in range(s_max)]
        series.append(power[s - 1] * factors[s - 1])
    return series


def _exact_or_float(a):
    """A rational ``a`` exactly (an integer of any type as an int), another
    real as a float.  A Decimal, which is no ``numbers.Real``, raises: its
    series is `_fixed_point_series`, never a float one."""
    if isinstance(a, numbers.Integral):
        return int(a)
    if not isinstance(a, numbers.Real):
        raise TypeError(f"averages must be reals or all Decimals, got {a!r}")
    return a if isinstance(a, numbers.Rational) else float(a)


def _fixed_point_series(phi: list, s_max: int) -> list:
    """The tree series of positive Decimal averages phi in Python ints,
    each m_{2s} within 2^-(prec + 3) of itself of the exact series at phi
    before its one rounding to the current decimal context's D digits,
    prec = bits(10^D): within 10^(1-D) (1/2 + 1/80) in all.

    Scaling: A_k = 2^(a + b k) l_k with integer a, b, so the coefficient of
    w^j in phi^p is 2^(a p + b (j + p)) times that of the l's: every
    product in it has p factors whose indices sum to j + p.  b follows the
    slope of log2 A_k and a puts l_1 in [1, 2).  This is no scale of sigma
    (the tables have one, in `reports`, and this series is exact under it):
    it keeps the l_k near 1, and so F short, where the A_k themselves would
    cost F another (p - 1) log2(1/A_1) bits.  With mu <= min l_k, every
    coefficient c of a power of the l's is at least mu: it holds the term
    l_1^(p-1) l_(j+1).

    The l_k are held as L_k = floor(l_k 2^F), from the exact ratio of each
    Decimal, and each coefficient of the next power is the exact sum of its
    products, shifted down by F bits.  Every step errs downwards: L_k falls
    short of l_k 2^F by under 1, a relative 2^-F/mu, and the shift of a sum
    of positive terms adds under 1 unit to the relative errors of its
    terms, so the coefficients of phi^p fall short by at most
    (2p - 1) 2^-F/mu.  The floor division by s + 1, of the coefficient
    shifted up by bits(s + 1), adds another 2^-F/mu at most, so m_{2s}
    falls short by at most (2 s_max + 2) 2^-F/mu before its one rounding,
    which F = prec + 3 + bits(2 s_max + 2) + log2(1/mu) makes at most
    2^-(prec+3).
    """
    from decimal import getcontext

    ctx = _context(getcontext().prec)
    prec = (10 ** ctx.prec).bit_length()
    ratios = [_exact_ratio(a) for a in phi]
    # A_k = p_k / q_k 2^t_k with 2^(e_k - 1) <= A_k < 2^e_k
    e = []
    for p, q, t in ratios:
        ek = p.bit_length() - q.bit_length()
        e.append(ek + t + (_floor_ldexp(p, q, -ek) >= 1))
    b = round((e[-1] - e[0]) / (s_max - 1)) if s_max > 1 else 0
    a = e[0] - 1 - b
    # l_k = A_k 2^-(a + b k) lies in [2^(x_k - 1), 2^x_k), with l_1 in [1, 2)
    x = [ek - a - b * k for k, ek in enumerate(e, start=1)]
    low = min(x) - 1  # mu = 2^low
    F = prec + 3 + (2 * s_max + 2).bit_length() + max(0, -low)
    L = [_floor_ldexp(p, q, F - a - b * k + t) for k, (p, q, t) in enumerate(ratios, start=1)]
    reverse = L[::-1]
    power, series = L, []
    for s in range(1, s_max + 1):
        power = [sum(map(operator.mul, power[:k + 1], reverse[s_max - 1 - k:])) >> F
                 for k in range(s_max)]
        # m_2s = 2/(s+1) [w^(s-1)] phi^(s+1), and 2^(a (s+1) + 2 b s - F) times the l's;
        # the shift by t bits before the division keeps its floor within 1/(2 power)
        t = (s + 1).bit_length()
        series.append(_from_binary((power[s - 1] << t + 1) // (s + 1),
                                   a * (s + 1) + 2 * b * s - F - t, ctx))
    return series


def _from_binary(man: int, exp: int, ctx):
    """man 2^exp as a Decimal of the context ``ctx``: formed at 20 more
    digits, then rounded to its D digits, so it is the correctly rounded
    value but where that lies within about 10^-(D + 18) of a rounding
    boundary.  Exactly, 2^exp would be an integer as long as |exp| bits."""
    wide = _context(ctx.prec + 20)
    return ctx.plus(wide.multiply(man, wide.power(2, exp)))


def _floor_ldexp(p: int, q: int, shift: int) -> int:
    """floor(p 2^shift / q) for positive ints p, q."""
    return (p << shift) // q if shift >= 0 else p // (q << -shift)


def _check_order(s: int) -> None:
    if s < 1:
        raise ValueError(f"s must be >= 1, got {s}")
    if s > MAX_ORDER:
        raise ValueError(f"s={s} exceeds supported range {MAX_ORDER}")


def _limits(lambdas: Sequence[Number], s_max: int) -> list:
    """[m_2, .., m_{2 s_max}] from Lambda_1..Lambda_{s_max}, after checking them."""
    _check_order(s_max)
    if len(lambdas) < s_max:
        raise ValueError(f"need Lambda_1..Lambda_{s_max}, got {len(lambdas)} entries")
    if not all(0 < a < math.inf for a in lambdas[:s_max]):
        raise ValueError("Lambda entries must be positive and finite")
    return _tree_series(lambdas, s_max)


def limiting_even_moment(lambdas: Sequence[Number], s: int) -> Number:
    """Moment m_{2s} of the limiting spectral distribution from Lambda_1..Lambda_s.

    Exact rational arithmetic when the Lambda values are ints/Fractions
    (useful for the constant-profile specialization), Decimal at the
    current decimal context's digits for Decimal values, float otherwise.
    """
    return _limits(lambdas, s)[-1]


def _lower_bounds(n: int, sigma_max: float, mains: Sequence[float]) -> list:
    """moment_lower_bound for s = 1..len(mains) at n and sigma_max, from
    ``mains``, the tree series at S_{n,k}/n."""
    if n <= len(mains):
        raise ValueError(f"need n > s, got n={n}, s={len(mains)}")
    bounds = []
    for s, main in enumerate(mains, start=1):
        correction = int(sum(math.comb(n, j) * j ** (s + 1 - j) for j in range(1, s + 1)))
        eps = sigma_max ** (2 * s) * (correction / n ** (s + 1))
        bounds.append(main - eps)
    return bounds


def moment_lower_bound(values: Sequence[float], s: int) -> float:
    """Finite-n lower bound on the expected spectral moment of order 2s.

    Evaluates the tree series at the partial averages S_{n,j}/n (identical to
    (1/n^{s+1}) * prod S^{r_j} since the profile entries sum to s+1), minus
    the repeated-index correction
        eps = (sigma_max^{2s} / n^{s+1}) * sum_{j=1..s} binom(n,j) j^{s+1-j}.
    The result may be <= 0 for small n; callers flag that as vacuous rather
    than clamping.  Bad sigma raises SigmaDomainError, overflow OverflowError.
    """
    _check_order(s)
    stats = sigma_stats(values, s)
    mains = _tree_series([S / stats.n for S in stats.partial_sums], s)
    return _lower_bounds(stats.n, stats.sigma_max, mains)[-1]


def theta_factor(n: int, s: int, K: float, sigma_max: float, sigma_min: float) -> float:
    """The finite-n excess factor
        theta = (K^2 s^6 / (2 n sigma_max^2)) (sigma_max/sigma_min)^{2s}
                * n^{s-1} / (n-s)^{s+1},
    with the integer power ratio exact.  Returns +inf on float overflow."""
    if n <= s:
        raise ValueError(f"need n > s, got n={n}, s={s}")
    if not (0 < sigma_min <= sigma_max <= K):
        raise ValueError(
            f"need 0 < sigma_min <= sigma_max <= K, got {sigma_min}, {sigma_max}, {K}"
        )
    try:
        ratio_pow = (sigma_max / sigma_min) ** (2 * s)
        return (
            (K * K * s ** 6)
            / (2.0 * n * sigma_max * sigma_max)
            * ratio_pow
            * (n ** (s - 1) / (n - s) ** (s + 1))
        )
    except OverflowError:
        return math.inf


def moment_upper_bound(
    n: int, s: int, K: float, sigma_max: float, sigma_min: float, m_limit: float
) -> float:
    """Finite-n upper bound (1 + theta*s) * m_{2s} on the expected spectral moment.

    Returns +inf when theta overflows.  For strongly varying profiles the
    (sigma_max/sigma_min)^{2s} term makes this bound astronomically loose at
    moderate s; it is still finite and correct.
    """
    if m_limit <= 0:
        raise ValueError(f"m_limit must be > 0, got {m_limit}")
    th = theta_factor(n, s, K, sigma_max, sigma_min)
    if math.isinf(th):
        return math.inf
    return (1.0 + th * s) * m_limit


def odd_moment_bound(n: int, s: int, K: float, sigma_max: float) -> float:
    """Decay bound on the magnitude of the odd expected moment of order 2s+1.

    Evaluates
        n^{-s-1/2} * binom(2s+1, s) * (s+1)^{2(2s+3)} * 2^{2s} * K^{2s+1}
        * sum_{p=1..s+1} (n sigma_max^2 / K^2)^{p-1}
    with the combinatorial prefactor exact and the geometric sum closed-form.
    Computed in log space; returns +inf on overflow.
    """
    if n < 1:
        raise ValueError(f"n must be >= 1, got {n}")
    if s < 0:
        raise ValueError(f"s must be >= 0, got {s}")
    if K <= 0 or sigma_max <= 0:
        raise ValueError("K and sigma_max must be positive")
    prefactor = math.comb(2 * s + 1, s) * (s + 1) ** (2 * (2 * s + 3)) * 2 ** (2 * s)
    q = n * sigma_max * sigma_max / (K * K)
    if q == 1.0:
        log_geom = math.log(s + 1)
    elif q > 1.0:
        # (q^{s+1} - 1) / (q - 1), stable for large q^{s+1}
        log_geom = (s + 1) * math.log(q) + math.log1p(-q ** (-(s + 1))) - math.log(q - 1.0)
    else:
        log_geom = math.log((1.0 - q ** (s + 1)) / (1.0 - q))
    log_value = (
        math.log(prefactor)
        + (2 * s + 1) * math.log(K)
        + log_geom
        - (s + 0.5) * math.log(n)
    )
    try:
        return math.exp(log_value)
    except OverflowError:
        return math.inf


def _scaled(x: float, e: int) -> float:
    """x 2^e: exact where that is a normal float, else +-0 or +-inf."""
    try:
        y = math.ldexp(x, e)
    except OverflowError:
        return math.copysign(math.inf, x)
    return math.copysign(0.0, y) if abs(y) < 2.0 ** -1022 else y


class MomentRow(NamedTuple):
    """One even order of a moment table."""

    order: int                      # 2s
    limit: float                    # m_{2s}
    lower: Optional[float] = None   # finite-n lower bound (raw, may be <= 0)
    upper: Optional[float] = None   # finite-n upper bound (may be +inf)
    root: Optional[float] = None    # m_{2s}^{1/2s}, finite at any scale

    @property
    def out_of_range(self) -> bool:
        """m_{2s} lies outside float64's normal range: ``limit`` holds it as
        0 or +inf, the row has no bounds, and ``root`` carries its value."""
        return not 2.0 ** -1022 <= self.limit < math.inf

    @property
    def lower_vacuous(self) -> Optional[bool]:
        return None if self.lower is None else self.lower <= 0

    @property
    def upper_overflow(self) -> Optional[bool]:
        return None if self.upper is None else math.isinf(self.upper)


class MomentReport(NamedTuple):
    """Moment table rows, by ascending order, and notes on their sources."""

    rows: tuple
    notes: tuple = ()
