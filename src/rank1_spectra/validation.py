"""Self-validation battery: enumeration and bisection oracles, invariants.

``CHECKS`` is the one registry of checks: (name, check) pairs, where
check(deep) returns (passed, detail).  The CLI's ``validate`` command prints
one line per check from `run_all` and exits non-zero if any fails; the tests
run each at deep=False.  Each fact has one check, and each enumeration runs
once per order: the three plane-tree checks read one cached count of trees
per profile.  The walk oracle's Monte Carlo campaign likewise runs once per
trial count, and the tests read the same cached result.  The battery is deliberately cheap (2-2.5 s on a 2-CPU
machine); ``deep=True`` extends the enumerations to s = 11 and doubles the
walk oracle's Monte Carlo trials and the SDP's random measures, and takes
3.5-5 s there.
"""

from __future__ import annotations

import math
from collections import Counter
from fractions import Fraction
from functools import lru_cache
from typing import Callable, Dict, List, Tuple

import numpy as np
from mpmath import mp, mpf

from .combinatorics import (
    catalan,
    degree_profile_of,
    enumerate_degree_profiles,
    enumerate_plane_trees,
    multinomial,
    tree_count,
)
from .ensemble import (EnsembleConfig, MonteCarloResult, _histogram, eigenvalues,
                       empirical_moments, monte_carlo, sample_matrix)
from .moments import _limits, limiting_even_moment, moment_lower_bound
from .radius_bounds import HankelPencil, _digits, build_pencil, sdp_lower_bound
from .reports import radius_table
from .sigma_model import parse_sigma_spec, sigma_values
from .walk_oracle import EntryMomentModel, exact_expected_moment

Check = Tuple[bool, str]

EXP_SPEC = "expr:exp(-4*i/n)"


@lru_cache(maxsize=None)
def _trees_per_profile(s: int) -> Dict[Tuple[int, ...], int]:
    """Plane trees on s + 1 vertices counted per degree profile r, from one
    enumeration per order s shared by the three plane-tree checks."""
    return dict(Counter(degree_profile_of(t).r for t in enumerate_plane_trees(s + 1)))


def check_catalan_partition(deep: bool) -> Check:
    """The enumerated trees' profile counts must total the Catalan numbers."""
    s_top = 11 if deep else 8
    for s in range(1, s_top + 1):
        total = sum(_trees_per_profile(s).values())
        if total != catalan(s):
            return False, f"s={s}: enumeration total {total} != C_{s} = {catalan(s)}"
    return True, f"s=1..{s_top}"


def check_tree_count(deep: bool) -> Check:
    """The closed form must equal the enumerated count on every profile.

    The closed form 2 * s! / prod r_j! = (2/(s+1)) * multinomial(s+1; r) is
    a theorem: degrees d_1..d_N (N = s+1) fit (N-2)!/prod (d_i-1)! labelled
    trees, each with prod (d_i-1)! planar embeddings and 2s root corners;
    dividing by the N! labellings leaves 2 * s! / prod r_j!.  A bare factor
    of 2 on the multinomial is inconsistent with enumeration (s=2: it would
    give 6 where the true count is 2).
    """
    s_top = 11 if deep else 8
    for s in range(1, s_top + 1):
        counts = _trees_per_profile(s)
        for p in enumerate_degree_profiles(s):
            closed = tree_count(p)
            enum = counts.get(p.r, 0)
            if closed != enum:
                return False, f"FAIL at s={s} profile {p.r} (closed {closed}, enum {enum})"
            if Fraction(closed) != Fraction(2, s + 1) * multinomial(s + 1, p.r):
                return False, f"closed form drifted at s={s}: {closed} != (2/(s+1))*multinomial"
            if s >= 2 and 2 * multinomial(s + 1, p.r) == closed:
                return False, f"closed form degenerated to the naive factor-2 count at s={s}"
    return True, (f"closed form == enumeration on all profiles, s=1..{s_top}; "
                  "count 2*s!/prod r_j! from labelled trees, embeddings and root corners")


def check_profile_realization(deep: bool) -> Check:
    """Every enumerated tree's profile is in R_s and every profile is realized."""
    s_top = 11 if deep else 8
    for s in range(1, s_top + 1):
        profiles = set(p.r for p in enumerate_degree_profiles(s))
        seen = _trees_per_profile(s).keys()
        if seen - profiles:
            return False, f"s={s}: tree profiles {seen - profiles} not in R_s"
        if profiles - seen:
            return False, f"s={s}: unrealized profiles {profiles - seen}"
    return True, f"s=1..{s_top}"


def _profile_sum(averages, s: int):
    """The paper's formula: sum over R_s of tree_count * prod averages[j-1]^r_j."""
    return sum(
        tree_count(p) * math.prod(a ** r for a, r in zip(averages, p.r))
        for p in enumerate_degree_profiles(s)
    )


def check_series_vs_profile_sum(deep: bool) -> Check:
    """The production tree series equals the profile sum exactly on
    non-constant rational averages."""
    s_top = 11 if deep else 8
    averages = [Fraction(j + 1, 2 * j + 1) for j in range(1, s_top + 1)]
    bad = [s for s in range(1, s_top + 1)
           if limiting_even_moment(averages, s) != _profile_sum(averages, s)]
    return not bad, f"differs at s={bad}" if bad else f"exact on rational averages, s=1..{s_top}"


WALK_SIGMA = (1.0, 0.5, 0.25, 0.8)


@lru_cache(maxsize=None)
def _walk_campaign(trials: int) -> MonteCarloResult:
    """The walk-oracle check's Monte Carlo campaign, run once per trial count:
    rademacher entries, n = 3, sigma = WALK_SIGMA[:3], seed 20240917,
    moments to k = 4.  Callers share the result and must not modify it."""
    n = 3
    cfg = EnsembleConfig(n=n, sigma=_explicit_spec(WALK_SIGMA[:n]), distribution="rademacher",
                         seed=20240917)
    return monte_carlo(cfg, trials=trials, k_max=4)


def check_walk_oracle(deep: bool) -> Check:
    """Odd orders vanish exactly; Monte Carlo matches m_2 to rounding and m_4
    within 4 stderr."""
    model = EntryMomentModel("rademacher", WALK_SIGMA)
    for k in (3, 5):
        v = exact_expected_moment(3, k, WALK_SIGMA, model)
        if v != 0.0:
            return False, f"odd k={k} gave {v}, expected exact 0"
    n = 3
    trials = 40_000 if deep else 20_000
    mc = _walk_campaign(trials)
    for k in (2, 4):
        exact = exact_expected_moment(n, k, WALK_SIGMA[:n], model)
        mean = float(mc.moment_means[k - 1])
        if k == 2:
            # rademacher m_2 = (sum sigma / n)^2 on every draw, so the gate is
            # rounding: each trial's is within 2 n eps of it (the eigensolver's
            # backward error, p(n) = n), the fsum mean adds one rounding and
            # the oracle's sum and division one more
            band, gate = (2 * n + 2) * np.finfo(np.float64).eps * exact, "(2n+2) eps m_2"
        else:
            # false alarm per seed: |t| > 4 on 19999 (deep 39999) degrees of freedom, 6.4e-5
            band, gate = 4.0 * mc.moment_stderrs[k - 1], "4*stderr"
        if abs(mean - exact) > band:
            return False, f"k={k}: |{mean!r} - {exact!r}| > {gate} ({band:.2g})"
    return True, (f"odd orders exact 0; n={n}: MC({trials}) m_2 within (2n+2) eps, "
                  "m_4 within 4 stderr")


def _explicit_spec(values):
    from .sigma_model import SigmaSpec

    return SigmaSpec("explicit", tuple(values), "explicit:inline")


def check_lambda_quadrature(deep: bool) -> Check:
    """The quadrature's Lambda_1..Lambda_29 for the exp profile match the
    closed form (1 - e^{-4k})/(4k) to 1e-40 relative at 50 digits."""
    from .quadrature import limiting_averages

    la = limiting_averages(parse_sigma_spec(EXP_SPEC), 29, 1e-8, digits=50)
    with mp.workdps(60):
        worst = max(abs(v * 4 * k / (1 - mp.exp(-4 * k)) - 1) for k, v in enumerate(la.values, 1))
    passed = all(la.converged) and worst <= mpf(10) ** -40
    return passed, (f"k=1..29: worst relative error {mp.nstr(worst, 2)}, {la.levels} levels, "
                    f"{la.nodes} nodes, {la.digits} digits")


def check_moment_scaling(deep: bool) -> Check:
    """sigma -> c*sigma multiplies m_{2s} by c^{2s} and the lower-bound
    profile sum by c^{2s} (relative 1e-12) at c = 2, and the SDP's beta by
    c^2 at c = 3, a scale that rounds."""
    spec = parse_sigma_spec(EXP_SPEC)
    n, c = 400, 2.0
    values = sigma_values(spec, n)
    for s in (1, 2, 3):
        lams = [(1 - math.exp(-4 * k)) / (4 * k) for k in range(1, s + 1)]
        base = limiting_even_moment(lams, s)
        scaled = limiting_even_moment([c ** k * v for k, v in enumerate(lams, 1)], s)
        if abs(scaled - c ** (2 * s) * base) > 1e-12 * abs(scaled):
            return False, f"limit moment s={s} scaling broke"
        lo = moment_lower_bound(values, s)
        lo_scaled = moment_lower_bound([c * v for v in values], s)
        # the correction term scales the same way, so the bound is covariant
        if abs(lo_scaled - c ** (2 * s) * lo) > 1e-10 * abs(lo_scaled):
            return False, f"lower bound s={s} scaling broke"
    base, scaled = (radius_table(parse_sigma_spec(f"expr:{c}*exp(-4*i/n)")).sdp.beta
                    for c in (1, 3))
    if abs(scaled - 9 * base) > 1e-12 * scaled:
        return False, f"beta(3 sigma) = {scaled!r} != 9 * {base!r}"
    return True, "m_{2s} and lower bounds covariant under sigma -> 2*sigma, beta under sigma -> 3*sigma"


def _factors(M) -> bool:
    try:
        mp.cholesky(M)
    except ValueError:
        return False
    return True


def pencil_hankels(pencil: HankelPencil):
    """H0 = (nu_{i+j}) and H1 = (nu_{i+j+1}) as mp matrices, on the largest
    leading block of H0 that mp.cholesky factors: a measure with finite
    support leaves H0 singular.  Call at mp.workdps(_digits(pencil.s_bar))."""
    nu, m = pencil.nu, pencil.s_bar + 1

    def hankel(shift):
        return mp.matrix([[nu[i + j + shift] for j in range(m)] for i in range(m)])

    while m > 1 and not _factors(hankel(0)):
        m -= 1
    return hankel(0), hankel(1)


def brackets_beta(pencil: HankelPencil, lo, hi) -> bool:
    """The oracle's certificate that min{x : H0 x - H1 >= 0} lies in (lo, hi]:
    mp.cholesky factors H0 hi - H1 and not H0 lo - H1, on `pencil_hankels`."""
    with mp.workdps(_digits(pencil.s_bar)):
        H0, H1 = pencil_hankels(pencil)
        return _factors(H0 * mpf(hi) - H1) and not _factors(H0 * mpf(lo) - H1)


def bisect_beta(pencil: HankelPencil, tol: float) -> float:
    """Oracle for the SDP: the upper end of a bracket (lo, hi] narrower than
    tol that `brackets_beta` certifies, by doubling hi from 1 and bisecting
    (about 35 factorizations at tol 1e-10).  Each step keeps the lower end
    unfactored and so factors only the midpoint."""
    with mp.workdps(_digits(pencil.s_bar)):
        H0, H1 = pencil_hankels(pencil)
        lo, hi = mpf(0), mpf(1)
        while not _factors(H0 * hi - H1):
            lo, hi = hi, 2 * hi
        while hi - lo >= tol:
            mid = (lo + hi) / 2
            if _factors(H0 * mid - H1):
                hi = mid
            else:
                lo = mid
        return float(hi)


def check_sdp_dual_method(deep: bool) -> Check:
    """The production eigenvalue is within 10*tol of the bisection oracle on
    random atomic measures and on the named profiles, and the exp profile's
    beta at s_bar = 14, from 38-digit moments, is 0.6010092398."""
    rng = np.random.default_rng(7)
    tol = 1e-10
    cases = 12 if deep else 6
    pencils = []
    for case in range(cases):
        s_bar = int(rng.integers(1, 6))
        atoms = rng.uniform(0.2, 2.0, size=s_bar + 2)
        weights = rng.dirichlet(np.ones(s_bar + 2))
        nu = [float(np.sum(weights * atoms ** t)) for t in range(1, 2 * s_bar + 2)]
        pencils.append((f"case {case}", build_pencil(nu, s_bar)))
    for label, lam_fn in (
        ("constant", lambda k: 1.0),
        ("exp-profile", lambda k: (1 - math.exp(-4 * k)) / (4 * k)),
    ):
        lams = [lam_fn(k) for k in range(1, 14)]
        nu = [float(limiting_even_moment(lams[:s], s)) for s in range(1, 14)]
        pencils.append((label, build_pencil(nu, 6)))
    with mp.workdps(38):
        lams = [(1 - mp.exp(-4 * k)) / (4 * k) for k in range(1, 30)]
        pencils.append(("exp-profile at s_bar=14", build_pencil(_limits(lams, 29), 14)))
    for label, pencil in pencils:
        beta = sdp_lower_bound(pencil, tol).beta
        gap = abs(beta - bisect_beta(pencil, tol))
        if gap > 10 * tol:
            return False, f"{label}: |eigenvalue - bisection| = {gap:.2e}"
    if abs(beta - 0.6010092398) > 1e-9:
        return False, f"exp profile beta(14) = {beta!r} != 0.6010092398"
    return True, (f"{cases} random measures + 3 named profiles, <= 10*tol; "
                  f"exp profile beta(14) = {beta:.10f}")


def check_simulation_consistency(deep: bool) -> Check:
    """Determinism, histogram conservation, eigensolver trace identity."""
    spec = parse_sigma_spec(EXP_SPEC)
    cfg = EnsembleConfig(n=60, sigma=spec, seed=99)
    a = monte_carlo(cfg, trials=6, k_max=4)
    b = monte_carlo(cfg, trials=6, k_max=4)
    if not np.array_equal(a.per_trial_moments, b.per_trial_moments):
        return False, "rerun not bit-identical"
    lam = eigenvalues(sample_matrix(cfg, 0))
    m = empirical_moments(lam, 2)
    if abs(m[0] * cfg.n - np.sum(lam)) > 1e-9:
        return False, "moment/trace mismatch"
    total = int(_histogram(lam, 13)[0].sum())
    if total != cfg.n:
        return False, f"histogram total {total} != {cfg.n}"
    return True, "determinism, trace identity, histogram conservation"


CHECKS: Tuple[Tuple[str, Callable[[bool], Check]], ...] = (
    ("catalan_partition", check_catalan_partition),
    ("tree_count", check_tree_count),
    ("profile_realization", check_profile_realization),
    ("series_vs_profile_sum", check_series_vs_profile_sum),
    ("walk_oracle", check_walk_oracle),
    ("lambda_quadrature", check_lambda_quadrature),
    ("scaling_invariants", check_moment_scaling),
    ("sdp_dual_method", check_sdp_dual_method),
    ("simulation_consistency", check_simulation_consistency),
)


def run_all(deep: bool = False) -> List[Tuple[str, bool, str]]:
    """(name, passed, detail) for each check of ``CHECKS``, in order."""
    return [(name, *check(deep)) for name, check in CHECKS]
