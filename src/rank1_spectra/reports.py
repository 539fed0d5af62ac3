"""Builders gluing the sigma/moments/radius layers into reports.

``radius_table`` imports ``radius_bounds`` (and so mpmath) when called, so
building a moment table never loads the SDP layer.  A moment table of an
explicit sequence takes S_{n,k}/n in float64 from `sigma_stats` and loads
no mpmath; every other Lambda_k comes from `limiting_averages` in mpf.
"""

from __future__ import annotations

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


def moment_table(
    spec: SigmaSpec,
    s_max: int,
    n: Optional[int] = None,
    K: Optional[float] = None,
    lambda_tol: float = DEFAULT_LAMBDA_TOL,
) -> MomentReport:
    """Moment report for even orders 2..2*s_max.

    With ``n`` given the finite-n lower/upper bounds are included; the upper
    bound takes K = sigma_max unless overridden.  Sigma is evaluated once.
    The limits come from one pass of the tree series in float64, and the
    lower bounds' main terms from one more; an explicit sequence's limits
    are that series at the same S_{n,k}/n, so one pass gives both.
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
        limits = _limits([float(a) for a in lambdas], s_max)
    notes = [f"limiting averages: {source}"]
    lowers = []
    if n is not None:
        K = stats.sigma_max if K is None else K
        s_low = min(s_max, n - 1)
        lowers = _lower_bounds(stats, s_low, limits[:s_low] if explicit else None)
    rows = []
    for s in range(1, s_max + 1):
        limit = float(limits[s - 1])
        lower = upper = None
        if s <= len(lowers):
            lower = lowers[s - 1]
            upper = moment_upper_bound(n, s, K, stats.sigma_max, stats.sigma_min, limit)
        rows.append(MomentRow(order=2 * s, limit=limit, lower=lower, upper=upper))
    return MomentReport(rows=tuple(rows), n=n, sigma_text=spec.text, K=K, notes=tuple(notes))


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
    max(2*s_bar + 1, max(orders)) for the SDP and the rows' upper bounds;
    an explicit sequence's S_{n,k}/n are summed exactly, as the pencil would
    amplify float64's rounding past beta's first digit.  The rows' lower
    bounds run their own float64 pass at n.
    """
    from mpmath import mp, mpf

    from .radius_bounds import (
        RadiusBoundsReport,
        RadiusOrderRow,
        _root_bound,
        build_pencil,
        moment_sandwich,
        radius_upper_bound,
        sdp_lower_bound,
    )

    orders = tuple(int(s) for s in orders)
    if orders and n is None:
        raise ValueError("finite-n radius bounds need n")
    top = 2 * s_bar + 1  # the pencil takes m_2 .. m_{2 top}
    k_need = max((top, *orders))
    for s in sorted(orders):
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
    notes = [f"limiting averages: {source}"]
    limits = [float(m) for m in series]

    rows = []
    if orders:
        stats = sigma_stats(sigma_values(spec, n), max(orders))
        lowers = _lower_bounds(stats, max(orders))
        smax, smin = stats.sigma_max, stats.sigma_min
        K_eff = smax if K is None else K
        for s in sorted(orders):
            lower = _root_bound(lowers[s - 1], s)
            upper = radius_upper_bound(n, s, K_eff, smax, smin, limits[s - 1])
            companion = None
            if not lower.vacuous:
                companion = moment_sandwich(n, s, lowers[s - 1])[1]
            rows.append(
                RadiusOrderRow(s=s, n=n, lower=lower, upper=upper, upper_companion=companion)
            )
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
        asymptotic_root=limits[top - 1] ** (1.0 / (2 * top)),
        notes=tuple(notes),
    )
