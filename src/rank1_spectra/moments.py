"""Limiting even spectral moments and finite-n bounds on the expected moments.

The limiting even moment of order 2s, the paper's sum over tree degree
profiles of tree counts times powers of the limiting averages Lambda_k, is one
coefficient of the plane-tree generating series (Lagrange inversion): with
phi(w) = sum_j A_{j+1} w^j, m_{2s} = 2/(s+1) * [w^{s-1}] phi(w)^{s+1}, a
truncated polynomial power, exact for rational averages.  One pass over the
powers phi^2..phi^{S+1} gives every order up to 2S.  For finite n the
same series at the partial averages S_{n,k}/n, less a bound on its terms
whose indices repeat, lower-bounds the expected moment; an upper estimate,
not proven (see `moment_upper_bound`), multiplies the limit by 1 + theta*s
with a fully explicit theta.
"""

from __future__ import annotations

import functools
import math
import numbers
import operator
from typing import NamedTuple, Optional, Sequence

from . import _MAX_ORDER as MAX_ORDER  # maximum s in m_{2s}
from .sigma_model import _wide_context, sigma_stats

__all__ = [
    "MomentRow",
    "MomentReport",
    "limiting_even_moment",
    "moment_lower_bound",
    "moment_upper_bound",
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
    after w^{s-1}.  Floats give floats, Decimals give Decimals, and
    rationals stay exact (integers of any type as ints); other reals, mixed
    with rationals, are floats.  All terms are positive.  Each coefficient
    sums its products left to right, on every Python: from 3.12 on, the
    builtin ``sum`` compensates float sums.  A float series takes 2/(s+1)
    as the float 2 / (s + 1), which is float(Fraction(2, s + 1)), so it
    loads neither ``fractions`` nor ``decimal``.

    Decimals give the correctly rounded series at the current context's D
    digits, but within a relative 10^-(D + 10) of a rounding boundary: the
    same loop runs in `_wide_context`, each average rounded to its W digits
    (exact for an average no longer), and each m_{2s} is rounded once to D
    digits.  A term of a coefficient of phi^p takes at most
    1 + (p - 1)(s_max + 1) roundings (of p averages, p - 1 products, and
    the s_max - 1 additions of each power's sums), and 2/(s+1) and the
    product with it two more: in all m = (s_max + 1)^2 + 2 at most.
    """
    phi = averages[:s_max]
    if all(isinstance(a, float) for a in phi):
        return _power_series([float(a) for a in phi], [2 / (s + 1) for s in range(1, s_max + 1)])
    from decimal import Decimal, getcontext, localcontext

    if all(isinstance(a, Decimal) for a in phi):
        ctx = getcontext()
        with localcontext(_wide_context(ctx.prec, (s_max + 1) ** 2 + 2)):
            series = _power_series([+a for a in phi],
                                   [Decimal(2) / (s + 1) for s in range(1, s_max + 1)])
        return [ctx.plus(m) for m in series]
    from fractions import Fraction

    return _power_series([_exact_or_float(a) for a in phi],
                         [Fraction(2, s + 1) for s in range(1, s_max + 1)])


def _power_series(phi: list, factors: list) -> list:
    """`_tree_series` of the averages ``phi`` with the factors 2/(s+1), in
    their own arithmetic."""
    power, series = list(phi), []
    for s, factor in enumerate(factors, start=1):
        power = [functools.reduce(operator.add, map(operator.mul, power[:k + 1], phi[k::-1]))
                 for k in range(len(factors))]
        series.append(power[s - 1] * factor)
    return series


def _exact_or_float(a):
    """A rational ``a`` exactly (an integer of any type as an int), another
    real as a float.  A Decimal, which is no ``numbers.Real``, raises: the
    series of Decimals takes all of them in Decimal, never mixed."""
    if isinstance(a, numbers.Integral):
        return int(a)
    if not isinstance(a, numbers.Real):
        raise TypeError(f"averages must be reals or all Decimals, got {a!r}")
    return a if isinstance(a, numbers.Rational) else float(a)


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
        # n^{s+1} eps / sigma_max^{2s}, as moment_lower_bound proves it
        count = (n ** s if s <= 2 else
                 math.comb(2 * s, s) // (s + 1) * (n ** (s + 1) - math.perm(n, s + 1)))
        eps = sigma_max ** (2 * s) * (count / n ** (s + 1))
        bounds.append(main - eps)
    return bounds


def moment_lower_bound(values: Sequence[float], s: int) -> float:
    """Finite-n lower bound on the expected spectral moment of order 2s,
    for every law with independent symmetric entries, Var a_ij = sigma_i sigma_j.

    Evaluates the tree series at the partial averages S_{n,j}/n (identical to
    (1/n^{s+1}) * prod S^{r_j} since the profile entries sum to s+1), minus
        eps = sigma_max^{2s} / n                                  (s <= 2),
        eps = C_s sigma_max^{2s} (1 - n (n-1) ... (n-s) / n^{s+1})  (s >= 3).
    Proof: n^{s+1} E m_{2s} sums E prod a_ij over the closed walks of 2s
    steps on [n], each term >= 0 as odd moments vanish.  n^{s+1} main sums
    prod_v sigma_{f(v)}^{deg v} over the C_s plane trees on s + 1 vertices
    and all labellings f by [n].  An injective f walks the tree's contour,
    twice over each of its s distinct edges, so its walk's term is prod
    sigma_u sigma_v, its term of main, and distinct such (tree, f) give
    distinct walks.  The other n^{s+1} - n (n-1) ... (n-s) labellings of
    each tree add at most sigma_max^{2s} each.  At s <= 2 the walks are
    counted outright: E m_2 = main, and n^3 (E m_4 - main) = sum_{i,j}
    (kappa_ij - 2) (sigma_i sigma_j)^2 >= -n^2 sigma_max^4, as each
    kappa_ij = E a_ij^4 / (sigma_i sigma_j)^2 >= 1.
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
    """Finite-n estimate (1 + theta*s) * m_{2s} of the expected spectral
    moment for entries with |a_ij| <= K: not a proven bound.

    It fails for the truncated gaussian at its default K = 3 sigma_max,
    whose half-width is c = 2.9545 and whose E a^4 = kappa (E a^2)^2 has
    kappa = 2.8139.  At sigma = 1 the closed walks of four steps give E m_4
    = 2 + (kappa - 2)/n, while moment_upper_bound(n, 2, 3.0, 1.0, 1.0, 2.0)
    gives less:

        n       this bound    E m_4
        50      2.0104167     2.0162787
        300     2.0000435     2.0027131
        2000    2.00000014    2.00040697

    theta carries n^{s-1}/(n-s)^{s+1} on top of its 1/n, so at constant
    sigma it is O(n^-3), while E m_4 exceeds m_4 by (kappa - 2)/n.  Returns
    +inf when theta overflows.  For strongly varying profiles the
    (sigma_max/sigma_min)^{2s} term makes the estimate astronomically large
    at moderate s.
    """
    if m_limit <= 0:
        raise ValueError(f"m_limit must be > 0, got {m_limit}")
    th = theta_factor(n, s, K, sigma_max, sigma_min)
    if math.isinf(th):
        return math.inf
    return (1.0 + th * s) * m_limit


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
