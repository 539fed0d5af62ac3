"""Builders gluing the sigma/moments/radius layers into reports.

``radius_table`` imports ``radius_bounds`` (and so mpmath) when called, so
building a moment table never loads the SDP layer.  A moment table of an
explicit sequence takes S_{n,k}/n in float64 from `sigma_stats` and loads
no mpmath; every other Lambda_k comes from `limiting_averages` in mpf.  The
finite-n bounds on E m_{2s} have one builder, `_finite_n_bounds`: the
moment table's rows report them and the radius table's rows their power
roots.
"""

from __future__ import annotations

import math
from typing import TYPE_CHECKING, Optional, Sequence, Tuple

from . import _DEFAULT_LAMBDA_TOL as DEFAULT_LAMBDA_TOL
from . import _DEFAULT_SBAR, _DEFAULT_TOL
from .moments import (MomentReport, MomentRow, _check_order, _limits, _lower_bounds,
                      moment_upper_bound)
from .sigma_model import (
    _LIMIT_LEVEL,
    DEFAULT_DIGITS,
    NoLimitError,
    SigmaSpec,
    SigmaStats,
    limiting_averages,
    sigma_stats,
    sigma_values,
)

if TYPE_CHECKING:
    from .radius_bounds import RadiusBoundsReport

__all__ = ["lambda_vector", "moment_table", "radius_table", "DEFAULT_LAMBDA_TOL"]

_FINITE_NOTE = "finite-n averages S_{{n,k}}/n at n={}"


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


def _finite_n_bounds(stats: SigmaStats, s_top: int, limits: Sequence[float],
                     K: Optional[float] = None, mains: Optional[list] = None) -> Tuple[list, list]:
    """The finite-n bounds on E m_{2s} at n = stats.n, for s = 1..s_top:
    lower from `_lower_bounds` (``mains``, the tree series at S_{n,k}/n, if
    run already), upper (1 + theta s) m_{2s} from `moment_upper_bound` at
    the limits, with K = sigma_max unless given."""
    K = stats.sigma_max if K is None else K
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
    overridden.  Sigma is evaluated once.  The limits come from one pass of
    the tree series in float64, and the lower bounds' main terms from one
    more; an explicit sequence's limits are that series at the same
    S_{n,k}/n, so one pass gives both, and without ``n`` they are the
    averages of all its values.  A Lambda_k that leaves float64's range
    raises ValueError.
    """
    explicit = spec.kind == "explicit"
    n_stats = len(spec.payload) if explicit and n is None else n
    stats = None
    if n_stats is not None:
        # the lower bounds need S_{n,k} for k < n; an explicit sequence's
        # averages need them up to s_max
        stats = sigma_stats(sigma_values(spec, n_stats),
                            s_max if explicit else max(1, min(s_max, n_stats - 1)))
    if explicit:
        source = _FINITE_NOTE.format(n_stats)
        limits = _limits([S / n_stats for S in stats.partial_sums], s_max)
    else:
        lambdas, source, _ = lambda_vector(spec, s_max, lambda_tol)
        averages = [float(a) for a in lambdas]
        for k, x in enumerate(averages, start=1):
            if not 0 < x < math.inf:
                raise ValueError(f"Lambda_{k} leaves float64's range, in which moment "
                                 "tables are computed")
        limits = _limits(averages, s_max)
    lowers = uppers = ()
    if n is not None:
        K = stats.sigma_max if K is None else K
        s_low = min(s_max, n - 1)
        lowers, uppers = _finite_n_bounds(stats, s_low, limits, K,
                                          limits[:s_low] if explicit else None)
    rows = []
    for s in range(1, s_max + 1):
        bounded = s <= len(lowers)
        rows.append(MomentRow(order=2 * s, limit=float(limits[s - 1]),
                              lower=lowers[s - 1] if bounded else None,
                              upper=uppers[s - 1] if bounded else None))
    return MomentReport(rows=tuple(rows), n=n, sigma_text=spec.text, K=K,
                        notes=(f"limiting averages: {source}",))


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
    The SDP and ``asymptotic_root`` stay in mpf, so sigma of any scale whose
    beta is a float works.  A row at order s is the power roots of the
    moment bounds of `_finite_n_bounds` at n, whose lower bounds run their
    own float64 pass: lower (m_low)^{1/2s}, upper (n m_up)^{1/2s} and
    companion (n m_low)^{1/2s}.
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
        stats = sigma_stats(sigma_values(spec, n), orders[-1])
        lowers, uppers = _finite_n_bounds(stats, orders[-1], [float(m) for m in series], K)
        for s in orders:
            lower = _root_bound(lowers[s - 1], s)
            rows.append(RadiusOrderRow(
                s=s, n=n, lower=lower, upper=_root_bound(n * uppers[s - 1], s),
                upper_companion=None if lower.vacuous else _root_bound(n * lowers[s - 1], s).value,
            ))
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
