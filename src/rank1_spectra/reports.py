"""Builders gluing the sigma/moments/radius layers into reports.

``radius_table`` imports ``radius_bounds`` when called, so building a
moment table never loads the SDP layer.  A moment table of an explicit
sequence takes S_{n,k}/n in float64 from `sigma_stats` and loads neither
``decimal`` nor ``quadrature``; every other Lambda_k comes from
`limiting_averages` as a Decimal, which `lambda_vector` imports from
``quadrature`` when called.  The arbitrary-precision steps here, the
table's scale and the Decimal moments' floats and root, run on the
stdlib's C ``decimal``; no command loads mpmath.  A
table reads sigma at n once, by `_at_n`; a constant is its one value,
never n copies.  The finite-n bounds on E m_{2s}
have one builder, `_finite_n_bounds`: the moment table's rows report them
and the radius table's rows their power roots.  Their lower bounds' main
terms are the tree series at S_{n,k}/n, which for a constant or an explicit
sequence are the table's limits; only an expression's are summed.

Lambda_k is homogeneous in sigma of degree k, m_{2s} of degree 2s and a
root of degree 1, so the float64 work of both tables runs at one scale,
sigma / 2^e with e from `_at_n` or `_scale`, and each result is scaled back once.
Scaling by a power of two is exact, and a Decimal's float at the scale is
one correct rounding (`_to_float`); a moment that then leaves float64's
normal range is flagged by its row (`MomentRow.out_of_range`).
"""

from __future__ import annotations

import math
from typing import TYPE_CHECKING, Optional, Sequence, Tuple

from . import _DEFAULT_LAMBDA_TOL as DEFAULT_LAMBDA_TOL
from . import _DEFAULT_SBAR, _DEFAULT_TOL
from .moments import (MomentReport, MomentRow, _check_order, _limits, _lower_bounds, _scaled,
                      _tree_series, moment_upper_bound)
from .sigma_model import (_GUARD_DIGITS, DEFAULT_DIGITS, NoLimitError, SigmaSpec, SigmaStats,
                          _context, _exact_ratio, sigma_stats, sigma_values)

if TYPE_CHECKING:
    from .radius_bounds import RadiusBoundsReport

__all__ = ["lambda_vector", "moment_table", "radius_table", "DEFAULT_LAMBDA_TOL"]

_FINITE_NOTE = "finite-n averages S_{{n,k}}/n at n={}"
# what the finite-n rows prove: `moment_upper_bound` is not proven
_UPPER_NOTE = "upper assumes |a_ij| <= sigma_max and is not a proven bound"


def _scale(lambdas: Sequence) -> int:
    """The scale of a table without n: the least e with x <= 2^e, x =
    Lambda_K^{1/K} for the last of the Decimal ``lambdas``, which is at most
    sigma_max and, as Lambda_k^{1/k} grows with k, puts each Lambda_k 2^-ek
    at or below 1.  Decided exactly, as Lambda_K <= 2^eK on its ratio."""
    K = len(lambdas)
    p, q, t = _exact_ratio(lambdas[-1])
    # Lambda_K = p / q 2^t, so log2 Lambda_K > bits(p) - bits(q) - 1 + t
    e = -((q.bit_length() - p.bit_length() + 1 - t) // K)
    while (p << max(0, t - e * K)) > (q << max(0, e * K - t)):
        e += 1
    return e


def _to_float(x, e: int) -> float:
    """x 2^e for a Decimal x, one correct rounding (integer true
    division): +inf past float64's range, 0 or a subnormal below it."""
    p, q, t = _exact_ratio(x)
    e += t
    try:
        return (p << e) / q if e >= 0 else p / (q << -e)
    except OverflowError:
        return math.inf


def _at_n(spec: SigmaSpec, n: int, k_max: int) -> Tuple[int, SigmaStats]:
    """Sigma at n on its table's scale: the least e with sigma_max <= 2^e,
    and n, the extremes and S_{n,1..k_max} (none at k_max 0) of sigma 2^-e.
    A constant is its one value and sums nothing: S_{n,k}/n is Lambda_k.
    Raises where sigma_min 2^-e underflows to 0: one float64 scale cannot
    hold the span of sigma."""
    const = spec.kind == "constant"
    values = (spec.payload,) if const else sigma_values(spec, n)
    top, bottom = max(values), min(values)
    man, e = math.frexp(top)
    e -= man == 0.5
    if not math.ldexp(bottom, -e):
        raise ValueError(f"sigma_max = {top!r} and sigma_min = {bottom!r} span more than one "
                         f"float64 scale holds: sigma_min 2^{-e} underflows to 0")
    if const or not k_max:
        return e, SigmaStats(n, (), math.ldexp(top, -e), math.ldexp(bottom, -e))
    return e, sigma_stats([math.ldexp(v, -e) for v in values], k_max)


def _check_normal(limits: list, e: int) -> None:
    """Raise unless each m_{2s} 2^-2es of ``limits`` (s = 1, 2, ..) is a
    normal float: one that is not shows averages that span more than one
    float64 scale holds, and would give a false root."""
    for s, m in enumerate(limits, start=1):
        if not 2.0 ** -1022 <= m < math.inf:
            raise ValueError(f"m_{2 * s} leaves float64's range even at the table's scale 2^{e}")


def lambda_vector(
    spec: SigmaSpec,
    k_max: int,
    tol: float = DEFAULT_LAMBDA_TOL,
    n: Optional[int] = None,
    digits: int = DEFAULT_DIGITS,
) -> Tuple[Sequence, str, int]:
    """Lambda_1..Lambda_k as Decimals (`limiting_averages`), a note naming their
    source, and the digits they carry.  For an explicit sequence the note
    names n; for an expression it names the quadrature's work, and one that
    fails the limit test or ``tol`` raises NoLimitError.
    """
    from .quadrature import _LIMIT_LEVEL, limiting_averages

    la = limiting_averages(spec, k_max, tol, digits, n)
    if spec.kind == "explicit":
        return la.values, _FINITE_NOTE.format(len(spec.payload) if n is None else n), la.digits
    if spec.kind == "constant":
        return la.values, "exact (constant sigma)", la.digits
    work = f"{la.levels} levels, {la.nodes} nodes, {la.digits} digits"
    if not all(la.converged):
        k = la.converged.index(False) + 1
        cause = ("the profile may have no limit; try a larger --lambda-tol"
                 if la.panels == 1 and la.levels == _LIMIT_LEVEL else
                 f"its quadrature stopped at {la.digits} digits")
        raise NoLimitError(f"Lambda_{k} did not converge to relative tol={tol:g} ({work}): {cause}")
    return la.values, f"tanh-sinh quadrature of the pointwise limit: {work}", la.digits


def _finite_n_bounds(spec: SigmaSpec, stats: SigmaStats,
                     limits: Sequence[float]) -> Tuple[list, list]:
    """Lower and upper bounds on E m_{2s}, s = 1..len(limits), at sigma at
    n, ``stats`` from `_at_n`, on the table's scale: `_lower_bounds`, and
    `moment_upper_bound` at ``limits`` and K = sigma_max.  A constant or an
    explicit sequence is its own average at n, so ``limits`` are its lower
    bounds' main terms, the tree series at S_{n,k}/n; only an expression's
    are summed, from the S_{n,k} of ``stats``."""
    mains = limits
    if spec.kind == "expression":
        mains = _tree_series([S / stats.n for S in stats.partial_sums], len(limits))
    top = stats.sigma_max
    uppers = [moment_upper_bound(stats.n, s, top, top, stats.sigma_min, m)
              for s, m in enumerate(limits, start=1)]
    return _lower_bounds(stats.n, top, mains), uppers


def moment_table(
    spec: SigmaSpec,
    s_max: int,
    n: Optional[int] = None,
    lambda_tol: float = DEFAULT_LAMBDA_TOL,
) -> MomentReport:
    """Moment report for even orders 2..2*s_max, in float64.

    With ``n`` given the rows of orders s < n carry the finite-n bounds of
    `_finite_n_bounds` at sigma at n, read once by `_at_n`; the upper bound
    takes K = sigma_max, and a note says that it is not proven, and another
    names the rule when rows of s >= n carry none.  The table runs at one
    scale, on sigma 2^-e at n and on Lambda_k 2^-ek.  The limits come from
    one pass of the tree series in float64.  An explicit sequence's averages
    are its S_{n,k}/n, summed by `_at_n` to s_max (all its values without
    ``n``); a constant's S_{n,k}/n are its limits too, and only an
    expression's lower bounds run a second series.  Each row is scaled back
    by 4^es.
    """
    explicit = spec.kind == "explicit"
    n_at = len(spec.payload) if explicit and n is None else n
    if n_at is not None:
        e, at_n = _at_n(spec, n_at, s_max if explicit else min(s_max, n_at - 1))
    if explicit:
        source, averages = _FINITE_NOTE.format(n_at), [S / n_at for S in at_n.partial_sums]
    else:
        lambdas, source, _ = lambda_vector(spec, s_max, lambda_tol)
        e = _scale(lambdas) if n is None else e
        averages = [_to_float(a, -e * k) for k, a in enumerate(lambdas, start=1)]
    limits = _limits(averages, s_max)
    _check_normal(limits, e)
    lowers = uppers = ()
    if n is not None:
        lowers, uppers = _finite_n_bounds(spec, at_n, limits[:n - 1])
    rows = []
    for s, m in enumerate(limits, start=1):
        row = MomentRow(2 * s, _scaled(m, 2 * e * s), root=_scaled(m ** (1 / (2 * s)), e))
        if s <= len(lowers) and not row.out_of_range:  # bounds share the limit's scale
            row = row._replace(lower=_scaled(lowers[s - 1], 2 * e * s),
                               upper=_scaled(uppers[s - 1], 2 * e * s))
        rows.append(row)
    notes = (f"limiting averages: {source}",)
    if n is not None:
        notes += (f"finite-n rows: lower bounds E m_{{2s}}; {_UPPER_NOTE}",)
        if s_max >= n:
            notes += (f"orders 2s with s >= n = {n} carry no finite-n bounds",)
    return MomentReport(rows=tuple(rows), notes=notes)


def radius_table(
    spec: SigmaSpec,
    orders: Sequence[int] = (),
    n: Optional[int] = None,
    s_bar: int = _DEFAULT_SBAR,
    lambda_tol: float = DEFAULT_LAMBDA_TOL,
    sdp_tol: float = _DEFAULT_TOL,
) -> RadiusBoundsReport:
    """Radius-bound report: finite-n sandwich rows plus the SDP lower bound.

    ``orders`` requires ``n``.  One pass of the tree series in Decimal at
    max(DEFAULT_DIGITS, 2*s_bar + 10) digits (and `sigma_model._GUARD_DIGITS`
    more) gives the limits up to
    max(2*s_bar + 1, max(orders)) for the SDP, ``asymptotic_root`` and the
    rows' upper bounds; an explicit sequence's S_{n,k}/n are summed exactly,
    as the pencil would amplify float64's rounding past beta's first digit.
    The SDP and ``asymptotic_root`` take these Decimal moments as they are.  A
    row at order s is the power roots of the moment bounds of
    `_finite_n_bounds` at sigma at n from `_at_n`, whose lower bounds' main
    terms are these moments for a constant or an explicit sequence, each its
    own S_{n,k}/n, and a float64 series at an expression's S_{n,k}/n: lower
    (m_low)^{1/2s}, upper (n m_up)^{1/2s} and companion (n m_low)^{1/2s},
    and a note says what each proves.
    Only an expression's rows sum powers of sigma at n; the others read n
    and its extremes.  The rows run at one scale, sigma 2^-e and m_{2s}
    2^-2es, each rounded once, and each root is scaled back by 2^e.
    """
    from decimal import Decimal, localcontext

    from .radius_bounds import (
        RadiusBoundsReport,
        RadiusOrderRow,
        _root_bound,
        build_pencil,
        sdp_lower_bound,
    )

    orders = tuple(sorted(int(s) for s in orders))
    if orders and n is None:
        raise ValueError("finite-n radius bounds need n")
    top = 2 * s_bar + 1  # the pencil takes m_2 .. m_{2 top}
    k_need = max((top, *orders))
    for s in orders:
        _check_order(s)
        if n <= s:
            raise ValueError(f"order s={s} needs n > s, got n={n}")
    digits = max(DEFAULT_DIGITS, 2 * s_bar + 10)
    with localcontext(_context(digits + _GUARD_DIGITS)):
        lambdas, source, carried = lambda_vector(spec, k_need, lambda_tol, n, digits)
        series = _limits(lambdas, k_need)
        # m_{2s} sums products of s + 1 averages, each good to `carried` digits
        eps = (2 * s_bar + 2) * Decimal(1).scaleb(-carried)
        pencil = build_pencil(series[:top], s_bar, eps)
        asymptotic_root = float(series[top - 1] ** (Decimal(1) / (2 * top)))
    notes = [f"limiting averages: {source}"]

    rows = []
    if orders:
        notes.append(f"finite-n rows: lower bounds (E||A||^{{2s}})^{{1/2s}}, not E||A||; "
                     f"{_UPPER_NOTE}; upper_companion is no bound")
        e, at_n = _at_n(spec, n, orders[-1] if spec.kind == "expression" else 0)
        limits = [_to_float(m, -2 * e * s) for s, m in enumerate(series[:orders[-1]], 1)]
        _check_normal(limits, e)
        lowers, uppers = _finite_n_bounds(spec, at_n, limits)
        for s in orders:
            lower = _root_bound(lowers[s - 1], s, e)
            companion = None if lower is None else _root_bound(n * lowers[s - 1], s, e)
            rows.append(RadiusOrderRow(s=s, n=n, lower=lower, upper_companion=companion,
                                       upper=_root_bound(n * uppers[s - 1], s, e)))
        if any(row.upper > 10 * row.upper_companion for row in rows
               if row.upper_companion is not None and not row.upper_overflow):
            notes.append(
                "theta-based upper bounds are orders of magnitude above the "
                "companion sandwich values: the (sigma_max/sigma_min)^{2s} "
                "factor is severe for strongly varying profiles"
            )

    return RadiusBoundsReport(
        rows=tuple(rows),
        sdp=sdp_lower_bound(pencil, sdp_tol),
        asymptotic_root=asymptotic_root,
        notes=tuple(notes),
    )
