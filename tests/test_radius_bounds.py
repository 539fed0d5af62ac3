import math

import numpy as np
import pytest

from rank1_spectra.combinatorics import catalan
from rank1_spectra.moments import limiting_even_moment, moment_lower_bound
from rank1_spectra.radius_bounds import (
    InvalidMomentSequenceError,
    build_pencil,
    moment_sandwich,
    radius_lower_bound,
    radius_upper_bound,
    sdp_lower_bound,
)
from rank1_spectra.sigma_model import parse_sigma_spec, sigma_values
from rank1_spectra.validation import bisect_beta

EXP_SPEC = "expr:exp(-4*i/n)"


def lam(k: int) -> float:
    return (1.0 - math.exp(-4.0 * k)) / (4.0 * k)


def exp_family_moments(count: int):
    lams = [lam(k) for k in range(1, count + 1)]
    return [float(limiting_even_moment(lams[:s], s)) for s in range(1, count + 1)]


def catalan_moments(count: int):
    return [float(catalan(s)) for s in range(1, count + 1)]


class TestBuildPencil:
    def test_semicircle_s_bar_one(self):
        pencil = build_pencil(catalan_moments(3), 1)
        assert pencil.nu == (1.0, 1.0, 2.0, 5.0)
        np.testing.assert_array_equal(pencil.H0, [[1.0, 1.0], [1.0, 2.0]])
        np.testing.assert_array_equal(pencil.H1, [[1.0, 2.0], [2.0, 5.0]])

    def test_h0_corner_is_one(self):
        pencil = build_pencil(exp_family_moments(3), 1)
        assert pencil.H0[0, 0] == 1.0

    def test_cauchy_schwarz_violation_rejected(self):
        # nu_2 < nu_1^2 cannot be a moment sequence
        with pytest.raises(InvalidMomentSequenceError):
            build_pencil([0.5, 0.1, 0.01], 1)

    def test_requires_enough_moments(self):
        with pytest.raises(ValueError):
            build_pencil([1.0, 2.0], 2)

    def test_bad_s_bar(self):
        with pytest.raises(ValueError):
            build_pencil([1.0, 2.0, 5.0], 0)


class TestSdp:
    @pytest.mark.parametrize("tol", [0.0, -1.0, float("nan"), float("inf")])
    def test_rejects_tol_that_is_not_finite_and_positive(self, tol):
        pencil = build_pencil([0.7 ** s for s in range(1, 4)], 1)
        with pytest.raises(ValueError, match="tol must be finite and > 0"):
            sdp_lower_bound(pencil, tol)

    def test_point_mass_recovers_atom(self):
        lam0 = 0.7
        pencil = build_pencil([lam0 ** s for s in range(1, 4)], 1)
        res = sdp_lower_bound(pencil, 1e-10)
        assert res.beta == pytest.approx(lam0, abs=1e-9)
        assert res.method_agreement <= 1e-9

    def test_two_atom_measure(self):
        # beta at s_bar >= 1 is bounded by the top atom; exact at s_bar = 1
        # for a two-atom measure since the quadrature is the measure itself
        atoms = np.array([0.3, 1.1])
        weights = np.array([0.4, 0.6])
        nu = [float(np.sum(weights * atoms ** t)) for t in range(1, 4)]
        res = sdp_lower_bound(build_pencil(nu, 1), 1e-10)
        assert res.beta == pytest.approx(1.1, abs=1e-8)

    def test_semicircle_edge_approach(self):
        res = sdp_lower_bound(build_pencil(catalan_moments(29), 14), 1e-10)
        assert res.sqrt_beta >= 1.9
        assert res.sqrt_beta < 2.0
        assert res.method_agreement <= 1e-9

    def test_exp_family_value(self):
        res = sdp_lower_bound(build_pencil(exp_family_moments(29), 14), 1e-10)
        assert res.sqrt_beta == pytest.approx(0.7578, rel=0.05)
        assert res.method_agreement <= 1e-9

    def test_monotone_in_s_bar(self):
        ms = exp_family_moments(29)
        tol = 1e-10
        prev = -math.inf
        for s_bar in range(1, 8):
            beta = sdp_lower_bound(build_pencil(ms, s_bar), tol).beta
            assert beta >= prev - tol
            prev = beta

    def test_scaling_covariance(self):
        ms = exp_family_moments(13)
        tol = 1e-10
        base = sdp_lower_bound(build_pencil(ms, 6), tol).beta
        scaled_ms = [m * 4.0 ** s for s, m in enumerate(ms, start=1)]
        scaled = sdp_lower_bound(build_pencil(scaled_ms, 6), tol).beta
        assert abs(scaled / (4.0 * base) - 1.0) <= 10 * tol

    def test_random_measures_dual_agreement(self):
        rng = np.random.default_rng(1234)
        tol = 1e-10
        for _ in range(10):
            s_bar = int(rng.integers(1, 7))
            atoms = rng.uniform(0.1, 2.5, size=s_bar + 2)
            weights = rng.dirichlet(np.ones(s_bar + 2))
            nu = [float(np.sum(weights * atoms ** t)) for t in range(1, 2 * s_bar + 2)]
            pencil = build_pencil(nu, s_bar)
            res = sdp_lower_bound(pencil, tol)
            assert abs(res.beta - bisect_beta(pencil, tol)) <= 10 * tol
            assert res.beta <= atoms.max() ** 1 + 1e-6

    def test_factorial_moments_still_solvable(self):
        # heavy-tailed but genuine moment sequences keep the pencil finite
        nu = [float(math.factorial(2 * t)) for t in range(1, 6)]
        res = sdp_lower_bound(build_pencil(nu, 2), 1e-8)
        assert math.isfinite(res.beta) and res.beta > 1.0

    def test_astronomical_point_mass_is_certified(self):
        # no bracket to search: the eigenvalue is found at any scale
        res = sdp_lower_bound(build_pencil([1e30, 1e60, 1e90], 1), 1e-8)
        assert res.beta == pytest.approx(1e30, rel=1e-12)

    def test_unresolvable_tolerance_fails_the_certificate(self):
        # 60 digits cannot separate beta -/+ 1e-8 at beta ~ 1e60
        pencil = build_pencil([1e60, 1e120, 1e180], 1)
        with pytest.raises(ArithmeticError, match="not certified"):
            sdp_lower_bound(pencil, 1e-8)


class TestFiniteNBounds:
    def test_identity_profile_approach(self):
        # sigma = 1, s = 5: bound approaches m_10^{1/10} = C_5^{1/10} = 42^{0.1}
        # from below (valid but far below the semicircle edge 2)
        target = 42.0 ** 0.1
        prev = 0.0
        for n in (100, 1000, 10_000):
            b = radius_lower_bound(np.ones(n), 5)
            assert not b.vacuous
            assert b.value < target
            assert b.value > prev
            prev = b.value
        assert prev == pytest.approx(target, rel=0.002)

    def test_vacuous_at_tiny_n(self):
        v = sigma_values(parse_sigma_spec(EXP_SPEC), 3)
        b = radius_lower_bound(v, 2)
        assert b.vacuous
        assert math.isnan(b.value)

    def test_matches_moment_root(self):
        v = sigma_values(parse_sigma_spec(EXP_SPEC), 200)
        b = radius_lower_bound(v, 3)
        assert b.value == pytest.approx(moment_lower_bound(v, 3) ** (1.0 / 6.0), rel=1e-13)

    def test_upper_bound_identity_profile(self):
        from rank1_spectra.moments import theta_factor

        n, s = 10 ** 6, 2
        th = theta_factor(n, s, 1.0, 1.0, 1.0)
        b = radius_upper_bound(n, s, 1.0, 1.0, 1.0, 2.0)
        assert b.value == pytest.approx((n * (1 + 2 * th) * 2.0) ** 0.25, rel=1e-13)

    def test_upper_bound_trend_toward_semicircle_edge(self):
        # with the order growing like n^0.4 the bound sinks toward the
        # support edge 2 (at s ~ log n it would saturate at 2*sqrt(e): the
        # n^{1/2s} inflation needs s to outgrow log n)
        vals = []
        for n in (10 ** 3, 10 ** 4, 10 ** 5, 10 ** 6):
            s = round(n ** 0.4)
            m = float(math.comb(2 * s, s) // (s + 1))  # sigma = 1 moment
            b = radius_upper_bound(n, s, 1.0, 1.0, 1.0, m)
            assert not b.vacuous
            vals.append(b.value)
        assert all(v > 2.0 for v in vals)
        assert all(b < a for a, b in zip(vals, vals[1:]))
        assert vals[-1] < 2.05

    def test_upper_bound_rejects_s_ge_n(self):
        with pytest.raises(ValueError):
            radius_upper_bound(5, 5, 1.0, 1.0, 1.0, 1.0)

    def test_upper_overflow_flag(self):
        b = radius_upper_bound(40, 30, 1.0, 1.0, 1e-12, 1.0)
        assert b.vacuous
        assert math.isinf(b.value)

    def test_sandwich_relation(self):
        lo, hi = moment_sandwich(1000, 3, 2.5e-3)
        assert lo == pytest.approx(2.5e-3 ** (1.0 / 6.0))
        assert hi == pytest.approx(1000.0 ** (1.0 / 6.0) * lo, rel=1e-12)
        with pytest.raises(ValueError):
            moment_sandwich(10, 1, 0.0)


def test_sqrt_beta_below_theta_upper_bound():
    # the SDP lower bound on the asymptotic radius cannot exceed an upper
    # bound on the expected radius (1e-6 slack)
    ms = catalan_moments(29)
    res = sdp_lower_bound(build_pencil(ms, 14), 1e-10)
    n, s = 10 ** 4, 8
    upper = radius_upper_bound(n, s, 1.0, 1.0, 1.0, ms[s - 1])
    assert res.sqrt_beta <= upper.value + 1e-6


def test_report_builder_smoke():
    from rank1_spectra.reports import radius_table

    spec = parse_sigma_spec(EXP_SPEC)
    report = radius_table(spec, orders=(3,), n=120, s_bar=2, lambda_tol=1e-6)
    assert report.sdp is not None
    assert report.sdp.s_bar == 2
    (row,) = report.rows
    assert row.s == 3 and row.n == 120
    if not row.lower.vacuous:
        assert row.upper_companion == pytest.approx(
            120 ** (1 / 6) * row.lower.value, rel=1e-12
        )
    assert report.asymptotic_root is not None


def test_report_builder_defaults_are_the_sdp_defaults():
    import inspect

    from rank1_spectra.radius_bounds import DEFAULT_SBAR, DEFAULT_TOL
    from rank1_spectra.reports import radius_table

    params = inspect.signature(radius_table).parameters
    assert params["s_bar"].default == DEFAULT_SBAR
    assert params["sdp_tol"].default == DEFAULT_TOL
