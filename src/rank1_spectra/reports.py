"""Builders gluing the sigma/moments/radius layers into reports.

``radius_table`` imports ``radius_bounds`` (and so mpmath) when called, so
building a moment table never loads the SDP layer.  A moment table of an
explicit sequence takes S_{n,k}/n in float64 from `sigma_stats` and loads
neither mpmath nor ``quadrature``; every other Lambda_k comes from
`limiting_averages` in mpf, which `lambda_vector` imports from
``quadrature`` when called.  The finite-n bounds on E m_{2s} have one
builder, `_finite_n_bounds`: the moment table's rows report them and the
radius table's rows their power roots.  In both tables an explicit
sequence's lower bounds take their main terms from the table's one tree
series, which is already at its S_{n,k}/n.

Lambda_k is homogeneous in sigma of degree k, m_{2s} of degree 2s and a
root of degree 1, so the float64 work of both tables runs at one scale,
sigma / 2^e with e from `_scale`, and each result is scaled back once.
Scaling by a power of two is exact; a moment that then leaves float64's
normal range is flagged by its row (`MomentRow.out_of_range`).
"""

from __future__ import annotations

import math
from typing import TYPE_CHECKING, Optional, Sequence, Tuple

from . import _DEFAULT_LAMBDA_TOL as DEFAULT_LAMBDA_TOL
from . import _DEFAULT_SBAR, _DEFAULT_TOL
from .moments import (MomentReport, MomentRow, _check_order, _limits, _lower_bounds, _scaled,
                      moment_upper_bound)
from .sigma_model import (DEFAULT_DIGITS, NoLimitError, SigmaSpec, SigmaStats, sigma_stats,
                          sigma_values)

if TYPE_CHECKING:
    from .radius_bounds import RadiusBoundsReport

__all__ = ["lambda_vector", "moment_table", "radius_table", "DEFAULT_LAMBDA_TOL"]

_FINITE_NOTE = "finite-n averages S_{{n,k}}/n at n={}"


def _scale(values: Optional[Sequence[float]], lambdas: Sequence = ()) -> int:
    """The one scale of a table: the least e with x <= 2^e, x the largest of
    ``values``, sigma at n, or else Lambda_K^{1/K} for the last of the mpf
    ``lambdas``, which is at most sigma_max and, as Lambda_k^{1/k} grows
    with k, puts every Lambda_k 2^-ek at or below 1."""
    if values is not None:
        man, e = math.frexp(max(values))
    else:
        from mpmath import mp

        man, e = mp.frexp(mp.root(lambdas[-1], len(lambdas)))
    return e - (man == 0.5)


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
    """Lambda_1..Lambda_k in mpf (`limiting_averages`), a note naming their
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


def _finite_n_bounds(stats: SigmaStats, s_top: int, limits: Sequence[float], K: float,
                     mains: Optional[list] = None) -> Tuple[list, list]:
    """The finite-n bounds on E m_{2s} at n = stats.n, for s = 1..s_top:
    lower from `_lower_bounds` (``mains``, the tree series at S_{n,k}/n, if
    run already), upper (1 + theta s) m_{2s} from `moment_upper_bound` at
    the limits and K."""
    uppers = [moment_upper_bound(stats.n, s, K, stats.sigma_max, stats.sigma_min, limits[s - 1])
              for s in range(1, s_top + 1)]
    return _lower_bounds(stats, s_top, mains), uppers


def moment_table(
    spec: SigmaSpec,
    s_max: int,
    n: Optional[int] = None,
    K: Optional[float] = None,
    lambda_tol: float = DEFAULT_LAMBDA_TOL,
) -> MomentReport:
    """Moment report for even orders 2..2*s_max, in float64.

    With ``n`` given the rows of orders s < n carry the finite-n bounds of
    `_finite_n_bounds`; the upper bound takes K = sigma_max unless
    overridden.  Sigma is evaluated once.  The table runs at the one scale
    of `_scale`: on sigma 2^-e at n and on Lambda_k 2^-ek.  The limits come
    from one pass of the tree series in float64, and the lower bounds' main
    terms from one more; an explicit sequence's limits are that series at
    the same S_{n,k}/n, so one pass gives both, and without ``n`` they are
    the averages of all its values.  Each row is scaled back by 4^es.
    """
    explicit = spec.kind == "explicit"
    n_stats = len(spec.payload) if explicit and n is None else n
    values = None if n_stats is None else sigma_values(spec, n_stats)
    if explicit:
        source, e = _FINITE_NOTE.format(n_stats), _scale(values)
    else:
        from mpmath import mp

        lambdas, source, _ = lambda_vector(spec, s_max, lambda_tol)
        e = _scale(values, lambdas)
        averages = [float(mp.ldexp(a, -e * k)) for k, a in enumerate(lambdas, start=1)]
    if values is not None:
        # the lower bounds need S_{n,k} for k < n; an explicit sequence's
        # averages need them up to s_max
        stats = sigma_stats([math.ldexp(v, -e) for v in values],
                            s_max if explicit else max(1, min(s_max, n_stats - 1)))
    limits = _limits([S / n_stats for S in stats.partial_sums] if explicit else averages, s_max)
    _check_normal(limits, e)
    lowers = uppers = ()
    if n is not None:
        K = max(values) if K is None else K
        s_low = min(s_max, n - 1)
        lowers, uppers = _finite_n_bounds(stats, s_low, limits, math.ldexp(K, -e),
                                          limits[:s_low] if explicit else None)
    rows = []
    for s, m in enumerate(limits, start=1):
        row = MomentRow(2 * s, _scaled(m, 2 * e * s), root=_scaled(m ** (1 / (2 * s)), e))
        if s <= len(lowers) and not row.out_of_range:  # bounds share the limit's scale
            row = row._replace(lower=_scaled(lowers[s - 1], 2 * e * s),
                               upper=_scaled(uppers[s - 1], 2 * e * s))
        rows.append(row)
    return MomentReport(rows=tuple(rows), notes=(f"limiting averages: {source}",))


def radius_table(
    spec: SigmaSpec,
    orders: Sequence[int] = (),
    n: Optional[int] = None,
    s_bar: int = _DEFAULT_SBAR,
    K: Optional[float] = None,
    lambda_tol: float = DEFAULT_LAMBDA_TOL,
    sdp_tol: float = _DEFAULT_TOL,
) -> RadiusBoundsReport:
    """Radius-bound report: finite-n sandwich rows plus the SDP lower bound.

    ``orders`` requires ``n``.  One pass of the tree series in mpf at
    max(DEFAULT_DIGITS, 2*s_bar + 10) digits gives the limits up to
    max(2*s_bar + 1, max(orders)) for the SDP, ``asymptotic_root`` and the
    rows' upper bounds; an explicit sequence's S_{n,k}/n are summed exactly,
    as the pencil would amplify float64's rounding past beta's first digit.
    The SDP and ``asymptotic_root`` take these mpf moments as they are.  A
    row at order s is the power roots of the moment bounds of
    `_finite_n_bounds` at n, whose lower bounds' main terms are these
    moments for an explicit sequence and a float64 series at S_{n,k}/n
    otherwise: lower (m_low)^{1/2s}, upper (n m_up)^{1/2s} and companion
    (n m_low)^{1/2s}.  The rows run at the one scale of `_scale`, on sigma
    2^-e at n and on m_{2s} 2^-2es, each rounded once, and each root is
    scaled back by 2^e.
    """
    from mpmath import mp, mpf

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
    with mp.workdps(digits):
        lambdas, source, carried = lambda_vector(spec, k_need, lambda_tol, n, digits)
        series = _limits(lambdas, k_need)
        # m_{2s} sums products of s + 1 averages, each good to `carried` digits
        eps = (2 * s_bar + 2) * mpf(10) ** -carried
        pencil = build_pencil(series[:top], s_bar, eps)
        asymptotic_root = float(mp.root(series[top - 1], 2 * top))
    notes = [f"limiting averages: {source}"]

    rows = []
    if orders:
        values = sigma_values(spec, n)
        e = _scale(values)
        explicit = spec.kind == "explicit"
        # given the series, the lower bounds read only n and sigma_max
        stats = sigma_stats([math.ldexp(v, -e) for v in values], 1 if explicit else orders[-1])
        limits = [float(mp.ldexp(m, -2 * e * s)) for s, m in enumerate(series[:orders[-1]], 1)]
        _check_normal(limits, e)
        lowers, uppers = _finite_n_bounds(stats, orders[-1], limits,
                                          math.ldexp(max(values) if K is None else K, -e),
                                          limits if explicit else None)
        for s in orders:
            lower = _root_bound(lowers[s - 1], s, e)
            companion = None if lower.vacuous else _root_bound(n * lowers[s - 1], s, e).value
            rows.append(RadiusOrderRow(s=s, n=n, lower=lower, upper_companion=companion,
                                       upper=_root_bound(n * uppers[s - 1], s, e)))
        if any(row.upper.value > 10 * row.upper_companion for row in rows
               if row.upper_companion is not None and not row.upper.vacuous):
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
