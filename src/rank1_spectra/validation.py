"""Self-validation battery: enumeration oracles, certificates, invariants.

``CHECKS`` is the one registry of checks: (name, check) pairs, where
check(deep) returns (passed, detail).  The CLI's ``validate`` command prints
one line per check from `run_all` and exits non-zero if any fails; the tests
run each at deep=False.  Each fact has one check, and each enumeration runs
once per order: the three plane-tree checks read one cached count of trees
per profile.  `certifies` checks the SDP's claim for its beta rather than
solving for beta again, and no check gates on a sampled standard error.
The battery is deliberately cheap: ``validate`` takes 0.40-0.56 s on a
2-CPU machine, process start included.  ``deep=True`` extends the
enumerations to s = 11, the finite-n cases to 50000 walks and the walk
oracle's sign patterns to n = 4, doubles the SDP's random measures, and
takes 1.2-1.7 s there, most of it the plane trees of s = 9..11.  It runs on
numpy and the stdlib alone: the oracles of the Decimal layers are Decimal
and Fraction arithmetic by other algorithms, and no check loads mpmath.
"""

from __future__ import annotations

import math
from collections import Counter
from decimal import Decimal, localcontext
from fractions import Fraction
from functools import lru_cache
from typing import Callable, Dict, List, Tuple

import numpy as np

from .combinatorics import (
    catalan,
    degree_profile_of,
    enumerate_degree_profiles,
    enumerate_plane_trees,
    multinomial,
    tree_count,
)
from .ensemble import (EnsembleConfig, _histogram, eigenvalues, empirical_moments, monte_carlo,
                       sample_matrix)
from .moments import _limits, limiting_even_moment, moment_lower_bound, moment_upper_bound
from .radius_bounds import HankelPencil, _digits, build_pencil, sdp_lower_bound
from .reports import radius_table
from .sigma_model import _GUARD_DIGITS, SigmaSpec, _context, parse_sigma_spec, sigma_values
from .walk_oracle import exact_expected_moment

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
    dividing by the N! labellings leaves 2 * s! / prod r_j!.
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


def check_walk_oracle(deep: bool) -> Check:
    """Production's m_1..m_8, averaged over every rademacher draw, equal the
    walk sums of `exact_expected_moment` within rounding; odd walk sums are 0.0.

    At n = 3 on WALK_SIGMA[:3] (deep: also n = 4 on WALK_SIGMA) the 2^m sign
    patterns of the m = n(n+1)/2 entries +-sqrt(sigma_i sigma_j)/sqrt(n), as
    `sample_matrix` forms them (its draws must have these magnitudes), are
    the whole law.  Their stack goes through the block step of `monte_carlo`
    (`eigenvalues`, `empirical_moments`), and each order's fsum over 2^m
    rounds once.  No pattern's norm exceeds rho = sum sigma / sqrt(n).  To
    first order in eps, the entries' four roundings move an eigenvalue by
    2 eps rho and the backward-stable solver by n eps rho (as in
    `check_simulation_consistency`), so its k-th power by k (n + 2) eps
    rho^k; the k - 1 products, the mean of n powers and the fsum add
    (k + n)/2 eps rho^k; and the oracle's k/2 edge factors of three roundings,
    its fsum, power and division add (3k/4 + 2) eps E m_k <= that of rho^k.
    The bound is (k (n + 4) + n + 2) eps rho^k, 61 eps rho^8 at n = 3, where
    the largest gap seen is 0.24 eps rho^8.
    """
    eps, worst = np.finfo(np.float64).eps, 0.0
    for n in (3, 4) if deep else (3,):
        sigma, mask = WALK_SIGMA[:n], np.triu(np.ones((n, n), dtype=bool))
        magnitudes = np.sqrt(np.outer(sigma, sigma)[mask]) / math.sqrt(n)
        bits = (np.arange(1 << magnitudes.size)[:, None] >> np.arange(magnitudes.size)) & 1
        stack = np.zeros((len(bits), n, n))
        stack[:, mask] = (2.0 * bits - 1.0) * magnitudes
        stack += np.triu(stack, 1).swapaxes(1, 2)
        cfg = EnsembleConfig(n=n, sigma=SigmaSpec("explicit", sigma), seed=20240917)
        if any(not np.array_equal(abs(sample_matrix(cfg, t)), abs(stack[0])) for t in range(16)):
            return False, f"n={n}: a draw has an |entry| other than sqrt(sigma_i sigma_j)/sqrt(n)"
        moments = empirical_moments(eigenvalues(stack), 8)
        rho = math.fsum(sigma) / math.sqrt(n)
        for k in range(1, 9):
            exact = exact_expected_moment(n, k, sigma)["rademacher"]
            if k % 2 and exact != 0.0:
                return False, f"n={n}: odd k={k} gave {exact!r}, expected exact 0"
            mean = math.fsum(moments[:, k - 1]) / len(stack)
            gap, bound = abs(mean - exact) / (eps * rho ** k), k * (n + 4) + n + 2
            if not gap <= bound:
                return False, f"n={n}, k={k}: |{mean!r}-{exact!r}| = {gap:.3g} > {bound} eps rho^k"
            worst = max(worst, gap)
    return True, (f"k=1..8, n={'3, 4' if deep else 3}: mean over every sign pattern within "
                  f"(k(n+4)+n+2) eps rho^k of the walk sums (largest {worst:.2g}); odd orders "
                  "exact 0; draws have the patterns' |entries|")


def check_finite_n_bounds(deep: bool) -> Check:
    """The finite-n bounds bracket the walk oracle's exact E m_{2s}: lower
    <= E m_{2s} <= upper, within rounding, for rademacher and uniform
    entries at their own K (sigma_max and sqrt(3) sigma_max), at sigma = 1,
    (1, .9, .8, .7, .6) and the exp profile's values at n, for n <= 8, s < n
    and n^{2s} <= 20000 walks (50000 deep).  One enumeration of each case's
    walks gives both laws' E m_{2s}.  The upper bound's m_{2s} is the tree
    series at S_{n,k}/n, as a table of the values takes it."""
    budget = 50_000 if deep else 20_000
    exp = parse_sigma_spec(EXP_SPEC)
    cases = 0
    for label, n_top, at in (("sigma = 1", 8, lambda n: (1.0,) * n),
                             ("decaying sigma", 5, lambda n: (1.0, 0.9, 0.8, 0.7, 0.6)[:n]),
                             ("exp profile", 8, lambda n: tuple(sigma_values(exp, n)))):
        for n in range(2, n_top + 1):
            values = at(n)
            top = max(values)
            for s in range(1, n):
                if n ** (2 * s) > budget:
                    break
                lower = moment_lower_bound(values, s)
                main = limiting_even_moment([math.fsum(v ** k for v in values) / n
                                             for k in range(1, s + 1)], s)
                exact_by_law = exact_expected_moment(n, 2 * s, values)
                for law, root in (("rademacher", 1.0), ("uniform", math.sqrt(3.0))):
                    exact = exact_by_law[law]
                    upper = moment_upper_bound(n, s, root * top, top, min(values), main)
                    if not (lower <= exact * (1 + 1e-12) and exact <= upper * (1 + 1e-12)):
                        return False, (f"{label}, {law}, n={n}, s={s}: lower {lower!r}, "
                                       f"exact {exact!r}, upper {upper!r}")
                    cases += 1
    return True, (f"lower <= exact E m_2s <= upper in {cases} cases: rademacher and uniform, "
                  f"n <= 8, n^2s <= {budget}")


def check_lambda_quadrature(deep: bool) -> Check:
    """The quadrature's Lambda_1..Lambda_29 for the exp profile match the
    closed form (1 - e^{-4k})/(4k), by `Decimal.exp` at 60 digits, to 1e-40
    relative at 50 digits."""
    from .quadrature import limiting_averages

    la = limiting_averages(parse_sigma_spec(EXP_SPEC), 29, 1e-8, digits=50)
    with localcontext(_context(60)):
        worst = max(abs(v * 4 * k / (1 - Decimal(-4 * k).exp()) - 1)
                    for k, v in enumerate(la.values, 1))
    passed = all(la.converged) and worst <= Decimal("1e-40")
    return passed, (f"k=1..29: worst relative error {worst:.2g}, {la.levels} levels, "
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


def _positive_definite(M) -> bool:
    """Whether the symmetric Decimal matrix M is positive definite: every
    pivot of its LDL^T, in the current decimal context, is > 0.  A test of
    sign alone, so it holds at any scale of M."""
    A = [list(row) for row in M]
    for k, row in enumerate(A):
        pivot = row[k]
        if not pivot > 0:
            return False
        for i in range(k + 1, len(A)):
            ratio = A[i][k] / pivot
            for j in range(k + 1, i + 1):
                A[i][j] -= ratio * A[j][k]
    return True


def _shifted(pencil: HankelPencil, x) -> list:
    """H0 x - H1 in the current decimal context, for H0 = (nu_{i+j}) and
    H1 = (nu_{i+j+1}) of the order the pencil's recurrence reached,
    len(pencil.a) rows."""
    nu, m, x = pencil.nu, len(pencil.a), Decimal(x)
    return [[nu[i + j] * x - nu[i + j + 1] for j in range(m)] for i in range(m)]


def brackets_beta(pencil: HankelPencil, lo, hi) -> bool:
    """The oracle's certificate that min{x : H0 x - H1 >= 0} lies in (lo, hi]:
    the LDL^T of the dense Hankel pencil H0 x - H1 (`_shifted`) has only
    positive pivots at x = hi and not at x = lo, in Decimal at the
    recurrence's digits and `_GUARD_DIGITS` more.  Where the recurrence
    ended early, on a finite support or spent digits, H0's larger blocks
    are singular but for rounding.  Production reaches beta another way,
    by Sturm counts on the tridiagonal Jacobi matrix."""
    with localcontext(_context(_digits(pencil.s_bar) + _GUARD_DIGITS)):
        return (_positive_definite(_shifted(pencil, hi))
                and not _positive_definite(_shifted(pencil, lo)))


def certifies(pencil: HankelPencil, beta: float, tol: float) -> bool:
    """Whether `brackets_beta` confirms production's claim for ``beta``, a
    float `sdp_lower_bound` certified to the absolute half-width ``tol``:
    its Decimal beta lies within tol of the pencil's minimum and its
    rounding to a float adds half an ulp, so the minimum lies in
    (beta - h, beta + h] with h = tol + 2 ulp(beta), the ends taken at the
    oracle's digits."""
    with localcontext(_context(_digits(pencil.s_bar) + _GUARD_DIGITS)):
        h = Decimal(tol) + 2 * Decimal(math.ulp(beta))
        return brackets_beta(pencil, Decimal(beta) - h, Decimal(beta) + h)


def _sdp_battery(deep: bool) -> List[Tuple[str, HankelPencil]]:
    """The pencils of `check_sdp_dual_method`: random atomic measures at
    s_bar <= 5 (12 deep, else 6), the constant and exp profiles at s_bar = 6
    from float moments, and last the exp profile at s_bar = 14 from
    38-digit moments."""
    rng = np.random.default_rng(7)
    pencils = []
    for case in range(12 if deep else 6):
        s_bar = int(rng.integers(1, 6))
        atoms = rng.uniform(0.2, 2.0, size=s_bar + 2)
        weights = rng.dirichlet(np.ones(s_bar + 2))
        nu = [float(np.sum(weights * atoms ** t)) for t in range(1, 2 * s_bar + 2)]
        pencils.append((f"case {case}", build_pencil(nu, s_bar)))
    for label, lams in (("constant", [1.0] * 13),
                        ("exp-profile", [(1 - math.exp(-4 * k)) / (4 * k) for k in range(1, 14)])):
        pencils.append((label, build_pencil(_limits(lams, 13), 6)))
    with localcontext(_context(38 + _GUARD_DIGITS)):
        lams = [(1 - Decimal(-4 * k).exp()) / (4 * k) for k in range(1, 30)]
        pencils.append(("exp-profile at s_bar=14", build_pencil(_limits(lams, 29), 14)))
    return pencils


def check_sdp_dual_method(deep: bool) -> Check:
    """The LDL^T of the dense pencil H0 x - H1 certifies the production beta
    to tol + 2 ulp (`certifies`) on random atomic measures and on the named
    profiles (`_sdp_battery`), and the exp profile's beta at s_bar = 14,
    from 38-digit moments, is 0.6010092398."""
    tol = 1e-10
    pencils = _sdp_battery(deep)
    for label, pencil in pencils:
        beta = sdp_lower_bound(pencil, tol).beta
        if not certifies(pencil, beta, tol):
            return False, (f"{label}: the pencil's LDL^T does not bracket beta = {beta!r} "
                           "to tol + 2 ulp")
    if abs(beta - 0.6010092398) > 1e-9:
        return False, f"exp profile beta(14) = {beta!r} != 0.6010092398"
    return True, (f"{len(pencils) - 3} random measures + 3 named profiles certified to "
                  f"tol + 2 ulp; exp profile beta(14) = {beta:.10f}")


def check_simulation_consistency(deep: bool) -> Check:
    """Determinism, histogram conservation, eigensolver trace identity.

    A backward-stable solver returns the eigenvalues of A + E, ||E||_2 <= n
    eps ||A||_2, which sum to trace(A) + trace(E), |trace(E)| <= n^2 eps
    ||A||_2; the two correctly rounded ``math.fsum`` add at most n eps
    ||A||_2.  The bound n (n + 1) eps max |lambda| is 8e-13 max |lambda| at
    n = 60, where 200 seeded trials stay within 16 eps max |lambda|.
    """
    cfg = EnsembleConfig(n=60, sigma=parse_sigma_spec(EXP_SPEC), seed=99)
    a, b = (monte_carlo(cfg, trials=6, k_max=4) for _ in range(2))
    if not np.array_equal(a.per_trial_moments, b.per_trial_moments):
        return False, "rerun not bit-identical"
    A = sample_matrix(cfg, 0)
    lam = eigenvalues(A)
    err = abs(math.fsum(lam) - math.fsum(np.diag(A)))
    bound = cfg.n * (cfg.n + 1) * np.finfo(np.float64).eps * float(np.max(np.abs(lam)))
    if not err <= bound:
        return False, f"eigenvalue sum - trace = {err:.3g} > n(n+1) eps ||A|| = {bound:.3g}"
    total = int(_histogram(lam, 13)[0].sum())
    if total != cfg.n:
        return False, f"histogram total {total} != {cfg.n}"
    return True, "determinism, trace identity within n(n+1) eps ||A||, histogram conservation"


CHECKS: Tuple[Tuple[str, Callable[[bool], Check]], ...] = (
    ("catalan_partition", check_catalan_partition),
    ("tree_count", check_tree_count),
    ("profile_realization", check_profile_realization),
    ("series_vs_profile_sum", check_series_vs_profile_sum),
    ("walk_oracle", check_walk_oracle),
    ("finite_n_bounds", check_finite_n_bounds),
    ("lambda_quadrature", check_lambda_quadrature),
    ("scaling_invariants", check_moment_scaling),
    ("sdp_dual_method", check_sdp_dual_method),
    ("simulation_consistency", check_simulation_consistency),
)


def run_all(deep: bool = False) -> List[Tuple[str, bool, str]]:
    """(name, passed, detail) for each check of ``CHECKS``, in order."""
    return [(name, *check(deep)) for name, check in CHECKS]
