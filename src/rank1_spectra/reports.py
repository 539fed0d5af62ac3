"""Builders gluing the sigma/moments/radius layers into reports.

``radius_table`` imports ``radius_bounds`` (and so mpmath) when called, so
building a moment table never loads the SDP layer; it loads mpmath only for
limiting averages.
"""

from __future__ import annotations

from typing import TYPE_CHECKING, Optional, Sequence, Tuple

import numpy as np

from .moments import (MomentReport, MomentRow, _check_order, _limits, _lower_bounds,
                      moment_upper_bound)
from .sigma_model import (
    _LIMIT_LEVEL,
    DEFAULT_DIGITS,
    NoLimitError,
    SigmaSpec,
    SigmaStats,
    _mp_power_averages,
    limiting_averages,
    sigma_stats,
    sigma_values,
)

if TYPE_CHECKING:
    from .radius_bounds import RadiusBoundsReport

__all__ = ["lambda_vector", "moment_table", "radius_table", "DEFAULT_LAMBDA_TOL"]

DEFAULT_LAMBDA_TOL = 1e-8


def lambda_vector(
    spec: SigmaSpec,
    k_max: int,
    tol: float = DEFAULT_LAMBDA_TOL,
    n: Optional[int] = None,
    stats: Optional[SigmaStats] = None,
    digits: int = DEFAULT_DIGITS,
) -> Tuple[Sequence, str, int]:
    """Lambda_1..Lambda_k, a note naming their source, and the digits they carry.

    Constant and expression specs give mpf numbers (`limiting_averages`);
    the note of an expression names the quadrature's work, and one that
    fails the limit test or ``tol`` raises NoLimitError.  Explicit sequences
    have no limit: the float finite-n averages S_{n,k}/n (n defaulting to
    the full length), good to 15 digits, stand in, and ``stats``, the
    caller's sigma_stats of those n values up to k_max, spares recomputing.
    """
    if spec.kind == "explicit":
        n_eff = n if n is not None else len(spec.payload)
        if stats is None:
            stats = sigma_stats(sigma_values(spec, n_eff), k_max)
        return (stats.partial_sums[:k_max] / n_eff,
                f"finite-n averages S_{{n,k}}/n at n={n_eff}", 15)
    la = limiting_averages(spec, k_max, tol, digits)
    if spec.kind == "constant":
        return la.values, "exact (constant sigma)", la.digits
    work = f"{la.levels} levels, {la.nodes} nodes, {la.digits} digits"
    if not la.converged.all():
        k = int(np.argmin(la.converged)) + 1
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
    empirical: Optional[dict] = None,
    seed: Optional[int] = None,
) -> MomentReport:
    """Moment report for even orders 2..2*s_max.

    With ``n`` given the finite-n lower/upper bounds are included; the upper
    bound takes K = sigma_max unless overridden.  ``empirical`` maps order ->
    (mean, stderr) pairs to attach Monte Carlo columns.  Sigma is evaluated
    once, and the limits (in float64) and the lower bounds' main terms each
    come from one pass of the tree series.
    """
    stats = None
    if n is not None:
        # the lower bounds need S_{n,k} for k < n; an explicit sequence's
        # averages need them up to s_max
        k_stats = s_max if spec.kind == "explicit" else max(1, min(s_max, n - 1))
        stats = sigma_stats(sigma_values(spec, n), k_stats)
        if K is None:
            K = stats.sigma_max
    lambdas, source, _ = lambda_vector(spec, s_max, lambda_tol, n, stats)
    notes = [f"limiting averages: {source}"]
    limits = _limits([float(a) for a in lambdas], s_max)
    lowers = _lower_bounds(stats, min(s_max, n - 1)) if stats is not None else []
    rows = []
    for s in range(1, s_max + 1):
        limit = float(limits[s - 1])
        lower = upper = None
        if s <= len(lowers):
            lower = lowers[s - 1]
            upper = moment_upper_bound(n, s, K, stats.sigma_max, stats.sigma_min, limit)
        emp = empirical.get(2 * s) if empirical else None
        rows.append(
            MomentRow(
                order=2 * s,
                limit=limit,
                lower=lower,
                upper=upper,
                empirical_mean=emp[0] if emp else None,
                empirical_stderr=emp[1] if emp else None,
            )
        )
    flagged = [r.order for r in rows if r.formula_gap_flagged]
    if flagged:
        notes.append(
            "empirical means differ from the limiting formula by more than 3 "
            f"standard errors at orders {flagged}; finite-n simulation means "
            "need not match the asymptotic formula"
        )
    return MomentReport(
        rows=tuple(rows), n=n, sigma_text=spec.text, K=K, seed=seed, notes=tuple(notes)
    )


def radius_table(
    spec: SigmaSpec,
    orders: Sequence[int] = (),
    n: Optional[int] = None,
    s_bar: Optional[int] = 14,
    K: Optional[float] = None,
    lambda_tol: float = DEFAULT_LAMBDA_TOL,
    sdp_tol: float = 1e-10,
    empirical: Optional[dict] = None,
) -> RadiusBoundsReport:
    """Radius-bound report: finite-n sandwich rows plus the SDP lower bound.

    ``orders`` requires ``n``.  Sigma is evaluated once; the limits up to
    max(2*s_bar + 1, max(orders)) come from one pass of the tree series in
    mpf at max(DEFAULT_DIGITS, 2*s_bar + 10) digits, and the rows' lower
    bounds from one more.  The SDP sums an explicit sequence's powers in mpf
    (`_mp_power_averages`): the pencil would amplify the float S_{n,k}/n's
    rounding past beta's first digit.  The defaults of ``s_bar`` and
    ``sdp_tol`` are radius_bounds.DEFAULT_SBAR and DEFAULT_TOL, written out
    because radius_bounds is imported only here, at call time.
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
    k_need = 2 * s_bar + 1 if s_bar else 1
    if orders:
        k_need = max(k_need, max(orders))
    stats = values = None
    if orders:
        for s in sorted(orders):
            _check_order(s)
            if n <= s:
                raise ValueError(f"order s={s} needs n > s, got n={n}")
    if orders or spec.kind == "explicit":
        values = sigma_values(spec, n if n is not None else len(spec.payload))
        # an explicit sequence's averages need S_{n,k} up to k_need
        stats = sigma_stats(values, k_need if spec.kind == "explicit" else max(orders))
    digits = max(DEFAULT_DIGITS, 2 * (s_bar or 0) + 10)
    with mp.workdps(digits):
        lambdas, source, carried = lambda_vector(spec, k_need, lambda_tol, n, stats, digits)
        series = _limits([mpf(a) for a in lambdas], k_need)
        if s_bar:
            # m_{2s} sums products of s + 1 averages, each good to `carried` digits
            nu, eps = series, (2 * s_bar + 2) * mpf(10) ** -carried
            if spec.kind == "explicit":
                # the SDP needs the averages past float precision: sum them in mpf
                nu, eps = _limits(_mp_power_averages(values, 2 * s_bar + 1), 2 * s_bar + 1), None
            pencil = build_pencil(nu[: 2 * s_bar + 1], s_bar, eps)
    notes = [f"limiting averages: {source}"]
    limits = [float(m) for m in series]

    rows = []
    if orders:
        lowers = _lower_bounds(stats, max(orders))
        smax, smin = stats.sigma_max, stats.sigma_min
        K_eff = smax if K is None else K
        for s in sorted(orders):
            lower = _root_bound(lowers[s - 1], s)
            upper = radius_upper_bound(n, s, K_eff, smax, smin, limits[s - 1])
            companion = None
            if not lower.vacuous:
                companion = moment_sandwich(n, s, lower.value ** (2 * s))[1]
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

    sdp = None
    asymptotic_root = None
    if s_bar:
        sdp = sdp_lower_bound(pencil, sdp_tol)
        top = 2 * s_bar + 1
        asymptotic_root = limits[top - 1] ** (1.0 / (2 * top))

    return RadiusBoundsReport(
        rows=tuple(rows),
        sdp=sdp,
        asymptotic_root=asymptotic_root,
        empirical=empirical,
        notes=tuple(notes),
    )
