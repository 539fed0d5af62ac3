import json
import math
import re
import sys
import threading
import time
import warnings
from collections import Counter

import mpmath
import numpy as np
import pytest

import rank1_spectra
from rank1_spectra import _BLAS_THREAD_VARS, cli, ensemble
from rank1_spectra.ensemble import (
    DISTRIBUTIONS,
    EnsembleConfig,
    derive_trial_seed,
    eigenvalues,
    empirical_moments,
    monte_carlo,
    sample_matrix,
)
from rank1_spectra.sigma_model import SigmaSpec, parse_sigma_spec, sigma_values

EXP_SPEC = "expr:exp(-4*i/n)"


def explicit_spec(values):
    return SigmaSpec("explicit", tuple(values))


def ones_spec():
    return parse_sigma_spec("const:1")


@pytest.fixture
def pinned_cpus(monkeypatch):
    """Set the BLAS variables to 1 as if before numpy loaded, and make
    ``monte_carlo`` see ``count`` CPUs and take any stack as releasing the GIL."""

    def pin(count):
        for name in _BLAS_THREAD_VARS:
            monkeypatch.setenv(name, "1")
        monkeypatch.setattr(rank1_spectra, "_blas_pinned", True)
        monkeypatch.setattr(ensemble, "_cpu_count", lambda: count)
        monkeypatch.setattr(ensemble, "_GIL_FREE_SIZE", 0)

    return pin


def truncated_moments(c):
    """E Z^2 and E Z^4 for Z ~ N(0,1) conditioned on |Z| <= c, via math.erf."""
    phi = math.exp(-0.5 * c * c) / math.sqrt(2.0 * math.pi)
    tail = 2.0 * c * phi / math.erf(c / math.sqrt(2.0))
    second = 1.0 - tail
    return second, 3.0 * second - c * c * tail


GOLDEN_SIGMA = (1.0, 0.5, 0.8, 0.25)
GOLDEN_RADEMACHER = [
    "0x1.0000000000000p-1", "-0x1.6a09e667f3bcdp-2", "0x1.c9f25c5bfedd9p-2",
    "0x1.0000000000000p-2", "0x1.0000000000000p-2", "0x1.43d136248490fp-2",
    "0x1.6a09e667f3bcdp-3", "0x1.999999999999ap-2", "-0x1.c9f25c5bfedd9p-3",
    "0x1.0000000000000p-3",
]
GOLDEN_UNIFORM = [
    "-0x1.73528492f20d8p-6", "0x1.952318161ed39p-2", "0x1.c21c5f9424453p-3",
    "0x1.0270910040ad4p-2", "0x1.8d30ef1f18cd3p-2", "-0x1.16b72b125498dp-3",
    "-0x1.c4b8eedd7dedap-3", "-0x1.972ea45537965p-4", "-0x1.8878769423e5cp-5",
    "0x1.1d27133bc9673p-3",
]
GOLDEN_TRUNCATED_GAUSSIAN = [
    "-0x1.7c2cfcc26a644p-3", "0x1.00bb1d798fe99p-1", "0x1.e46db90273db1p-6",
    "-0x1.2524155b72ca8p-4", "-0x1.f5e1d67f9c170p-3", "0x1.43beec4af2470p-8",
    "0x1.cd91e1aee3145p-6", "-0x1.118592c4e8815p-3", "-0x1.3adc5811a1946p-3",
    "0x1.e037424dacfb2p-4",
]


class TestSeedDerivation:
    def test_distinct_and_mixed(self):
        seeds = {derive_trial_seed(12345, t) for t in range(1000)}
        assert len(seeds) == 1000
        assert derive_trial_seed(12345, 0) != 12345

    def test_deterministic(self):
        assert derive_trial_seed(7, 3) == derive_trial_seed(7, 3)

    @pytest.mark.parametrize("a, b, trials", [(1, 7, 24), (0, 16, 32)])
    def test_nearby_seeds_share_no_trial(self, a, b, trials):
        # seed XOR t would map 0..trials-1 onto itself for both pairs
        seeds_a = {derive_trial_seed(a, t) for t in range(trials)}
        seeds_b = {derive_trial_seed(b, t) for t in range(trials)}
        assert len(seeds_a) == len(seeds_b) == trials
        assert not seeds_a & seeds_b
        assert 0 <= derive_trial_seed(2 ** 64 - 1, trials) < 2 ** 64


class TestSampling:
    def test_single_site_rademacher(self):
        cfg = EnsembleConfig(n=1, sigma=ones_spec(), seed=1)
        seen = {sample_matrix(cfg, t)[0, 0] for t in range(64)}
        assert seen == {-1.0, 1.0}

    def test_two_site_values_and_determinism(self):
        cfg = EnsembleConfig(n=2, sigma=ones_spec(), seed=5)
        A = sample_matrix(cfg)
        B = sample_matrix(cfg)
        np.testing.assert_array_equal(A, B)
        root_half = 1.0 / math.sqrt(2.0)
        assert np.all(np.isin(np.abs(A), [root_half]))
        assert A[0, 1] == A[1, 0]

    def test_rademacher_entry_variance_is_deterministic(self):
        sigma = (0.5, 0.25)
        cfg = EnsembleConfig(n=2, sigma=explicit_spec(sigma), seed=9)
        for t in range(20):
            A = sample_matrix(cfg, t)
            assert (A[0, 1] * math.sqrt(2)) ** 2 == pytest.approx(0.125, rel=1e-12)

    def test_uniform_entries_bounded_and_variance(self):
        sigma = (0.5, 0.25)
        cfg = EnsembleConfig(n=2, sigma=explicit_spec(sigma), distribution="uniform", seed=17)
        vals = np.array([sample_matrix(cfg, t)[0, 1] * math.sqrt(2) for t in range(4000)])
        assert np.max(np.abs(vals)) <= math.sqrt(3 * 0.125) + 1e-12
        se = np.std(vals ** 2, ddof=1) / math.sqrt(vals.size)
        # false alarm per seed: |t| > 3 on 3999 degrees of freedom, about 2.7e-3
        assert abs(np.mean(vals ** 2) - 0.125) < 3 * se

    def test_truncated_gaussian_bounded_and_variance(self):
        cases = [
            ((0.8, 0.6, 0.9), 3.0 * 0.9),
            # rho = 0.001/9 < 1/6400: the half-width lies beyond c = 80
            ((1.0, 0.001, 0.9), 3.0),
        ]
        for sigma, K in cases:
            cfg = EnsembleConfig(
                n=3, sigma=explicit_spec(sigma), distribution="truncated_gaussian", K=K, seed=23
            )
            vals = np.array([sample_matrix(cfg, t)[0, 1] * math.sqrt(3) for t in range(1500)])
            assert np.max(np.abs(vals)) <= K + 1e-9
            target = sigma[0] * sigma[1]
            se = np.std(vals ** 2, ddof=1) / math.sqrt(vals.size)
            # false alarm per seed: |t| > 4 on 1499 degrees of freedom, about 6.6e-5 a case
            assert abs(np.mean(vals ** 2) - target) < 4 * se

    def test_truncated_gaussian_underflowing_variance(self):
        # sigma_2 * sigma_3 = 1e-340 underflows to 0; that entry must be 0,
        # the others keep their variance, and no floating-point warning fires
        cfg = EnsembleConfig(
            n=3, sigma=explicit_spec((1.0, 1e-170, 1e-170)),
            distribution="truncated_gaussian", seed=5,
        )
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            c = ensemble._truncnorm_halfwidth(np.array([0.0, 5e-324, 1e-310]))
            A = sample_matrix(cfg, 0)
        assert c[0] == math.inf
        np.testing.assert_allclose(c[1:] * np.sqrt([5e-324, 1e-310]), 1.0, rtol=1e-12)
        assert A[1, 2] == A[2, 1] == 0.0
        assert A[1, 1] == A[2, 2] == 0.0
        assert A[0, 0] != 0.0 and 0.0 < abs(A[0, 1]) <= 3.0 / math.sqrt(3)

    @pytest.mark.parametrize("K, narrow", [(1.75 * 0.8, True), (None, False)])
    def test_truncated_gaussian_proposals(self, K, narrow):
        # sigma = 0.8 everywhere, so all 2 x 20100 entries share one law
        n, sigma = 200, 0.8
        cfg = EnsembleConfig(
            n=n, sigma=parse_sigma_spec(f"const:{sigma}"), distribution="truncated_gaussian",
            K=K, seed=1409,
        )
        bound = 3.0 * sigma if K is None else K
        c = float(ensemble._truncnorm_halfwidth(np.array([sigma * sigma / bound ** 2]))[0])
        assert (c < math.sqrt(math.pi / 2)) == narrow
        a = np.concatenate(
            [sample_matrix(cfg, t)[np.triu_indices(n)] * math.sqrt(n) for t in range(2)]
        )
        assert np.max(np.abs(a)) <= bound * (1 + 1e-12)
        fourth = truncated_moments(c)[1]
        for power, target in ((2, sigma * sigma), (4, (bound / c) ** 4 * fourth)):
            x = a ** power
            se = np.std(x, ddof=1) / math.sqrt(x.size)
            # false alarm per seed: |t| > 4 on 40199 degrees of freedom, about 6.3e-5 a power
            assert abs(np.mean(x) - target) < 4 * se

    def test_bound_feasibility_errors(self):
        with pytest.raises(ValueError):
            sample_matrix(EnsembleConfig(n=2, sigma=ones_spec(), K=0.5, seed=0))
        with pytest.raises(ValueError):
            sample_matrix(
                EnsembleConfig(n=2, sigma=ones_spec(), distribution="uniform", K=1.0, seed=0)
            )
        with pytest.raises(ValueError):
            sample_matrix(
                EnsembleConfig(
                    n=2, sigma=ones_spec(), distribution="truncated_gaussian", K=1.7, seed=0
                )
            )
        for distribution in DISTRIBUTIONS:
            for K in (math.nan, math.inf, 0.0):
                with pytest.raises(ValueError, match="finite and > 0"):
                    EnsembleConfig(n=2, sigma=ones_spec(), distribution=distribution, K=K, seed=0)

    @pytest.mark.parametrize("distribution", DISTRIBUTIONS)
    @pytest.mark.parametrize("c, square", [
        (1e-170, "sigma_max\\^2 = 0.0"), (1e160, "sigma_max\\^2 = inf"), (1e154, None),
    ])
    def test_sigma_max_outside_the_float_range_is_named(self, distribution, c, square):
        # sigma_i sigma_j flushed to 0 (a radius of 0 at 1e-170) or overflowed
        # (an eigensolver failure at 1e160); at 1e154 sigma_max^2 is a normal
        # float, 3 sigma_max^2 and the truncated gaussian's K^2 = 9 sigma_max^2
        # are not, and the truncated gaussian rejected its own default K
        config = EnsembleConfig(n=3, sigma=parse_sigma_spec(f"const:{c!r}"),
                                distribution=distribution, seed=0)
        if square is None and distribution == "rademacher":
            assert np.isfinite(sample_matrix(config)).all()
            return
        if square is None:
            square = {"uniform": "3 sigma_max\\^2", "truncated_gaussian": "K\\^2"}[distribution]
            square += " = inf"
        with pytest.raises(ValueError, match=rf"sigma_max = {re.escape(repr(c))} .*: {square} is no finite"):
            monte_carlo(config, trials=2, k_max=2)

    @pytest.mark.parametrize(
        "distribution, K, expected",
        [
            ("rademacher", None, GOLDEN_RADEMACHER),
            ("uniform", None, GOLDEN_UNIFORM),
            ("truncated_gaussian", 3.0, GOLDEN_TRUNCATED_GAUSSIAN),
        ],
    )
    def test_golden_draws(self, distribution, K, expected):
        """Pins the draws across versions: every sigma_i*sigma_j >= K^2/6400."""
        cfg = EnsembleConfig(
            n=4, sigma=explicit_spec(GOLDEN_SIGMA), distribution=distribution, K=K, seed=2024
        )
        A = sample_matrix(cfg, 3)
        assert [float(x).hex() for x in A[np.triu_indices(4)]] == expected

    def test_draws_into_a_stack_member(self):
        cfg = EnsembleConfig(n=6, sigma=explicit_spec(GOLDEN_SIGMA + (0.3, 0.9)),
                             distribution="uniform", seed=3)
        stack = np.full((2, 6, 6), np.nan)
        A = sample_matrix(cfg, 4, out=stack[1])
        assert np.shares_memory(A, stack[1])
        np.testing.assert_array_equal(stack[1], sample_matrix(cfg, 4))
        assert np.isnan(stack[0]).all()
        with pytest.raises(ValueError, match="C-contiguous"):
            sample_matrix(cfg, 4, out=np.empty((6, 6)).T)
        with pytest.raises(ValueError, match="shape"):
            sample_matrix(cfg, 4, out=np.empty((5, 5)))

    def test_unknown_distribution_rejected(self):
        with pytest.raises(ValueError):
            EnsembleConfig(n=2, sigma=ones_spec(), distribution="gaussian", seed=0)

    def test_scaling_by_two_is_exact(self):
        base = EnsembleConfig(n=30, sigma=parse_sigma_spec(EXP_SPEC), seed=77)
        scaled = EnsembleConfig(n=30, sigma=parse_sigma_spec("expr:2*exp(-4*i/n)"), seed=77)
        A = sample_matrix(base, 4)
        B = sample_matrix(scaled, 4)
        np.testing.assert_array_equal(B, 2.0 * A)
        ra = np.abs(eigenvalues(A)).max()
        rb = np.abs(eigenvalues(B)).max()
        assert rb == pytest.approx(2.0 * ra, rel=1e-12)


class TestHalfwidth:
    @pytest.mark.parametrize(
        "rho",
        [np.geomspace(1e-300, 0.3333, 2000), np.linspace(1e-4, 1.0 / 3.0, 2002)[1:-1]],
        ids=["geometric", "uniform"],
    )
    def test_residual(self, rho):
        c = ensemble._truncnorm_halfwidth(rho)
        residual = [abs(truncated_moments(x)[0] / (x * x) - r) / r for r, x in zip(rho, c)]
        assert max(residual) <= 1e-11

    def test_newton_takes_few_rounds(self, monkeypatch):
        # rho up to within 1e-9 of 1/3, where the half-width tends to 0
        near_third = 1.0 / 3.0 - np.geomspace(1e-9, 0.01, 500)
        rho = np.concatenate([np.geomspace(1e-300, 0.33, 500), near_third])
        rounds = []
        variance = ensemble._conditioned_variance

        def counted(x):
            rounds.append(x.size)
            return variance(x)

        monkeypatch.setattr(ensemble, "_conditioned_variance", counted)
        ensemble._truncnorm_halfwidth(rho)
        assert len(rounds) <= 8

    def test_conditioned_variance_matches_mpmath(self):
        # both branches: the series below c = 2, erf up to 9 and 1 beyond
        x = np.concatenate([np.geomspace(1e-6, 1.99, 60), np.linspace(2.0, 30.0, 60)])
        v, dv = ensemble._conditioned_variance(x)
        with mpmath.workdps(50):
            for xi, vi, dvi in zip(x, v, dv):
                c = mpmath.mpf(xi)
                g = 2 * c * mpmath.npdf(c) / mpmath.erf(c / mpmath.sqrt(2))
                assert vi == pytest.approx(float(1 - g), rel=1e-14)
                assert dvi == pytest.approx(float(g / c * (c * c - 1 + g)), rel=1e-12, abs=1e-300)

    def test_several_blocks_match_one_block(self, monkeypatch):
        rho = np.concatenate([np.linspace(1e-4, 0.333, 40), [0.0, 5e-324, 1e-310]])
        one = ensemble._truncnorm_halfwidth(rho)
        monkeypatch.setattr(ensemble, "_BLOCK", 7)  # 7 blocks, the last partial
        several = ensemble._truncnorm_halfwidth(rho)
        np.testing.assert_array_equal(several, one)

    @pytest.mark.parametrize("sigma, n", [
        (parse_sigma_spec(EXP_SPEC), 300),
        (ones_spec(), 50),
        (explicit_spec(np.random.default_rng(8).uniform(0.5, 2.0, 60).tolist()), 60),
    ], ids=["exp", "const", "random"])
    def test_plan_solves_each_distinct_rho_once(self, sigma, n):
        """The plan's half-widths, one solve per distinct rho scattered back,
        are the solve over every entry bit for bit."""
        ensemble._plan.cache_clear()
        mask, (c, _) = ensemble._plan(
            EnsembleConfig(n=n, sigma=sigma, distribution="truncated_gaussian"))
        values = np.array(sigma_values(sigma, n))
        rho = np.outer(values, values)[mask] / (3.0 * values.max()) ** 2
        if sigma.kind == "explicit":
            assert np.unique(rho).size == rho.size  # every rho distinct
        assert c.tobytes() == ensemble._truncnorm_halfwidth(rho).tobytes()

    def test_constant_sigma_is_one_solve(self, monkeypatch):
        sizes = []
        block = ensemble._halfwidth_block
        monkeypatch.setattr(ensemble, "_halfwidth_block",
                            lambda rho: sizes.append(rho.size) or block(rho))
        ensemble._plan.cache_clear()
        try:
            ensemble._plan(EnsembleConfig(n=2000, sigma=ones_spec(),
                                          distribution="truncated_gaussian"))
        finally:
            ensemble._plan.cache_clear()  # 2e6 entries
        assert sizes == [1]


class TestEigenvalues:
    def test_identity(self):
        np.testing.assert_allclose(eigenvalues(np.eye(3)), [1.0, 1.0, 1.0])

    def test_swap_matrix(self):
        np.testing.assert_allclose(eigenvalues(np.array([[0.0, 1.0], [1.0, 0.0]])), [-1.0, 1.0])

    def test_rejects_asymmetric(self):
        M = np.array([[0.0, 1.0], [0.0, 0.0]])
        with pytest.raises(ValueError):
            eigenvalues(M)

    @pytest.mark.parametrize("gap, accepted", [(1e-13, True), (1e-11, False)])
    def test_asymmetry_threshold(self, gap, accepted):
        M = np.array([[2.0, 1.0, 0.5], [1.0, 3.0, 0.25], [0.5, 0.25, 1.0]])
        M[2, 0] += gap
        if accepted:
            np.testing.assert_allclose(eigenvalues(M), np.linalg.eigvalsh(M))
        else:
            with pytest.raises(ValueError, match=r"matrix is not symmetric \(max asymmetry 1\.000e-11\)"):
                eigenvalues(M)

    def test_stack_matches_solves_one_by_one(self):
        cfg = EnsembleConfig(n=30, sigma=parse_sigma_spec(EXP_SPEC), seed=8)
        stack = np.stack([sample_matrix(cfg, t) for t in range(4)])
        np.testing.assert_array_equal(
            eigenvalues(stack), [np.linalg.eigvalsh(A) for A in stack]
        )

    def test_stack_rejects_an_asymmetric_member(self):
        M = np.array([[2.0, 1.0, 0.5], [1.0, 3.0, 0.25], [0.5, 0.25, 1.0]])
        bad = M.copy()
        bad[2, 0] += 1e-11
        with pytest.raises(ValueError, match=r"not symmetric \(max asymmetry 1\.000e-11\)"):
            eigenvalues(np.stack([M, np.eye(3), bad]))
        with pytest.raises(ValueError, match="square"):
            eigenvalues(np.zeros((2, 3, 4)))

    def test_trace_and_frobenius_identities(self):
        cfg = EnsembleConfig(n=50, sigma=parse_sigma_spec(EXP_SPEC), seed=321)
        A = sample_matrix(cfg)
        lam = eigenvalues(A)
        norm = np.linalg.norm(A, 2)
        assert abs(lam.sum() - np.trace(A)) <= 50 * 1e-9 * norm
        assert np.sum(lam ** 2) == pytest.approx(np.sum(A * A), rel=1e-9)

    def test_residual_contract_spot_check(self):
        cfg = EnsembleConfig(n=40, sigma=parse_sigma_spec(EXP_SPEC), seed=5150)
        A = sample_matrix(cfg)
        w, V = np.linalg.eigh(A)
        norm = np.linalg.norm(A, 2)
        for idx in (0, 20, 39):
            r = np.linalg.norm(A @ V[:, idx] - w[idx] * V[:, idx])
            assert r <= 40 * 1e-9 * norm


class TestMomentsAndHistogram:
    def test_hand_moments(self):
        m = empirical_moments(np.array([-1.0, 1.0]), 2)
        assert m[0] == 0.0
        assert m[1] == 1.0
        assert empirical_moments(np.array([2.0]), 3)[2] == pytest.approx(8.0)

    def test_moment_matches_matrix_power_trace(self):
        cfg = EnsembleConfig(n=20, sigma=parse_sigma_spec(EXP_SPEC), seed=99)
        A = sample_matrix(cfg)
        m2 = empirical_moments(eigenvalues(A), 2)[1]
        assert m2 == pytest.approx(np.trace(A @ A) / 20, rel=1e-10)

    def test_histogram_examples(self):
        counts, _ = ensemble._histogram(np.array([-1.0, 1.0]), 2)
        np.testing.assert_array_equal(counts, [1, 1])
        counts, _ = ensemble._histogram(np.zeros(3), 3)
        np.testing.assert_array_equal(counts, [0, 3, 0])
        with pytest.raises(ValueError):
            ensemble._histogram(np.zeros(1), 0)

    def test_default_range_scales_with_the_spectrum(self):
        values = np.array([-0.7, -0.1, 0.2, 0.3, 0.75])
        one_counts, one_edges = ensemble._histogram(values, 10)
        tiny_counts, tiny_edges = ensemble._histogram(values * 2.0 ** -60, 10)
        np.testing.assert_array_equal(tiny_counts, one_counts)
        np.testing.assert_array_equal(tiny_edges, one_edges * 2.0 ** -60)
        counts, edges = ensemble._histogram(np.zeros(3), 4)
        assert edges[0] < edges[-1] and counts.sum() == 3

    def test_histogram_conservation(self):
        cfg = EnsembleConfig(n=300, sigma=parse_sigma_spec(EXP_SPEC), seed=12)
        assert ensemble._histogram(eigenvalues(sample_matrix(cfg)), 37)[0].sum() == 300


class TestMonteCarlo:
    def test_bit_identical_reruns(self):
        cfg = EnsembleConfig(n=40, sigma=parse_sigma_spec(EXP_SPEC), seed=2024)
        a = monte_carlo(cfg, trials=8, k_max=6)
        b = monte_carlo(cfg, trials=8, k_max=6)
        np.testing.assert_array_equal(a.per_trial_moments, b.per_trial_moments)
        np.testing.assert_array_equal(a.radii, b.radii)

    def test_campaign_data_is_computed_once(self, monkeypatch):
        calls = Counter()

        def count(name):
            fn = getattr(ensemble, name)

            def wrapper(*args, **kwargs):
                calls[name] += 1
                return fn(*args, **kwargs)

            monkeypatch.setattr(ensemble, name, wrapper)

        ensemble._plan.cache_clear()
        count("sigma_values")
        count("_truncnorm_halfwidth")
        cfg = EnsembleConfig(
            n=12, sigma=parse_sigma_spec(EXP_SPEC), distribution="truncated_gaussian", seed=13
        )
        monte_carlo(cfg, trials=5, k_max=2)
        assert calls == {"sigma_values": 1, "_truncnorm_halfwidth": 1}

    def test_single_trial_has_no_stderr(self):
        cfg = EnsembleConfig(n=10, sigma=ones_spec(), seed=3)
        mc = monte_carlo(cfg, trials=1, k_max=2)
        assert mc.moment_stderrs is None
        assert mc.radius_stderr is None

    def test_radius_stats_consistent(self):
        cfg = EnsembleConfig(n=25, sigma=ones_spec(), seed=31)
        mc = monte_carlo(cfg, trials=12, k_max=2)
        assert mc.radius_min <= mc.radius_mean <= mc.radius_max
        assert mc.radius_mean == math.fsum(mc.radii) / 12

    def test_semicircle_second_moment(self):
        # rademacher entries have a_ij^2 = sigma_i sigma_j, so every draw's
        # m_2 = tr(A^2)/n is (sum sigma / n)^2 = 1 but for rounding, whatever
        # the seed.  The eigensolver is backward stable: its
        # spectrum is exact for A + E with ||E||_F <= p(n) eps ||A||_F, and
        # sum lambda^2 = ||A + E||_F^2; with p(n) = n the campaign mean is
        # within 2 n eps of 1 (2.7e-13; this seed's is 2.2e-16 off).
        n = 600
        cfg = EnsembleConfig(n=n, sigma=ones_spec(), seed=606)
        mc = monte_carlo(cfg, trials=30, k_max=2)
        assert abs(mc.moment_means[1] - 1.0) <= 2 * n * np.finfo(np.float64).eps

    def test_rademacher_mean_keeps_its_digits_at_many_trials(self):
        # the walk_oracle check's campaign: every trial's m_2 is (sum sigma /
        # n)^2 to within 2 n eps (as in test_semicircle_second_moment), so
        # their mean is too, but for the one rounding of the division.  A
        # column mean summed naively drifts linearly in the trial count
        # (1784 eps off at 20000 trials).
        from rank1_spectra.validation import WALK_SIGMA, _walk_campaign

        n = 3
        sigma = WALK_SIGMA[:n]
        mc = _walk_campaign(20_000)
        identity = (sum(sigma) / n) ** 2
        assert abs(mc.moment_means[1] - identity) <= (2 * n + 1) * np.finfo(float).eps * identity

    @pytest.mark.parametrize("dist", ["uniform", "truncated_gaussian"])
    def test_second_moment_within_its_known_variance(self, dist):
        # m_2 = tr(A^2)/n = n^-2 [sum_i a_ii^2 + 2 sum_{i<j} a_ij^2]: mean
        # (sum sigma / n)^2 and variance n^-4 [sum_i Var a_ii^2 + 4 sum_{i<j}
        # Var a_ij^2], with Var a^2 = (4/5) (sigma_i sigma_j)^2 for uniform
        # (E a^4 = (9/5) (sigma_i sigma_j)^2) and (K/c)^4 (E Z^4 - (E Z^2)^2)
        # for the truncated gaussian, at the plan's half-widths c.  m_2 sums
        # 20100 independent entries, so its trial mean is gaussian to far past
        # the gate: |z| > 4 fires on about 6.3e-5 of seeds, per law.  Seed,
        # n and trials were fixed before any outcome was seen.
        n, trials = 200, 40
        cfg = EnsembleConfig(n=n, sigma=parse_sigma_spec(EXP_SPEC), distribution=dist, seed=2024)
        mc = monte_carlo(cfg, trials=trials, k_max=2)
        sigma = np.array(sigma_values(cfg.sigma, n))
        mask, coeffs = ensemble._plan(cfg)
        rows, cols = np.nonzero(mask)  # the plan's entries, in its order
        s = sigma[rows] * sigma[cols]
        if dist == "uniform":
            var = 0.8 * s * s
        else:
            c, scale = coeffs
            distinct, entry = np.unique(c, return_inverse=True)
            second, fourth = np.array([truncated_moments(x) for x in distinct.tolist()]).T
            var = scale ** 4 * (fourth - second * second)[entry]
        var_m2 = np.sum(np.where(rows == cols, 1.0, 4.0) * var) / n ** 4
        z = (mc.moment_means[1] - (sigma.sum() / n) ** 2) / math.sqrt(var_m2 / trials)
        assert abs(z) < 4.0, z

    def test_odd_moments_are_noise(self):
        cfg = EnsembleConfig(n=80, sigma=parse_sigma_spec(EXP_SPEC), seed=44)
        mc = monte_carlo(cfg, trials=60, k_max=5)
        for k in (1, 3, 5):
            # false alarm per seed: |t| > 4 on 59 degrees of freedom, about 1.8e-4 an order
            assert abs(mc.moment_means[k - 1]) < 4.0 * mc.moment_stderrs[k - 1]

    def test_pooled_eigenvalues(self):
        cfg = EnsembleConfig(n=15, sigma=ones_spec(), seed=8)
        mc = monte_carlo(cfg, trials=4, k_max=2)
        assert mc.pooled_eigenvalues.shape == (60,)

    def test_blocks_are_the_smallest_gil_free_stacks(self):
        # a block is _GIL_FREE_SIZE // n + 1 trials: 2 at n = 300, 1 at
        # n = 2000, 3 at n = 200, where 4 trials make one block
        assert ensemble._schedule(24, 300, 2) == ([(2 * i, 2 * i + 2) for i in range(12)], 2)
        assert ensemble._schedule(3, 2000, 2) == ([(0, 1), (1, 2), (2, 3)], 2)
        assert ensemble._schedule(4, 200, 8) == ([(0, 4)], 1)

    def test_blocks_stay_large_enough_to_release_the_gil(self):
        # 2 x 300 releases the GIL, a lone 300 x 300 solve holds it
        assert ensemble._schedule(24, 300, 16) == ([(2 * i, 2 * i + 2) for i in range(12)], 12)
        assert ensemble._schedule(4, 200, 8) == ([(0, 4)], 1)
        assert ensemble._schedule(24, 100, 4) == ([(0, 6), (6, 12), (12, 18), (18, 24)], 4)
        assert ensemble._schedule(5, 100, 4) == ([(0, 5)], 1)

    def test_tiny_matrices_make_few_blocks(self):
        # past 6 blocks a CPU a block grows, while its stack stays within
        # 1 MiB: the walk oracle's 20000 trials at n = 3 are 12 blocks of 1666-1667
        blocks, workers = ensemble._schedule(20000, 3, 2)
        assert (len(blocks), blocks[-1], workers) == (12, (18333, 20000), 2)
        blocks, _ = ensemble._schedule(20000, 30, 2)
        assert len(blocks) == 138 and max(b - a for a, b in blocks) * 8 * 30 * 30 <= 1 << 20
        assert ensemble._schedule(1000, 2000, 2) == ([(i, i + 1) for i in range(1000)], 2)

    def test_workers_hold_a_bounded_share_of_memory(self):
        blocks, workers = ensemble._schedule(16, 2000, 16)
        assert blocks == [(i, i + 1) for i in range(16)] and workers == 2
        assert ensemble._schedule(16, 1000, 16)[1] == 11

    @pytest.mark.parametrize("trials", [1, 5, 24])
    def test_worker_count_does_not_change_results(self, pinned_cpus, trials):
        cfg = EnsembleConfig(
            n=30, sigma=parse_sigma_spec(EXP_SPEC), distribution="truncated_gaussian", seed=11
        )
        runs = []
        interval = sys.getswitchinterval()
        sys.setswitchinterval(1e-6)  # more workers than cores, switching often
        try:
            for count in (1, 2, 8):
                pinned_cpus(count)
                runs.append(monte_carlo(cfg, trials, 6))
        finally:
            sys.setswitchinterval(interval)
        assert [mc.workers for mc in runs] == [1, min(2, trials), min(8, trials)]
        for mc in runs[1:]:
            np.testing.assert_array_equal(mc.per_trial_moments, runs[0].per_trial_moments)
            np.testing.assert_array_equal(mc.radii, runs[0].radii)
            np.testing.assert_array_equal(mc.pooled_eigenvalues, runs[0].pooled_eigenvalues)

    def test_blocks_equal_the_per_trial_path(self, pinned_cpus, monkeypatch):
        n, trials, k_max = 20, 10, 5
        cfg = EnsembleConfig(n=n, sigma=parse_sigma_spec(EXP_SPEC), distribution="uniform", seed=4)
        pinned_cpus(2)
        monkeypatch.setattr(ensemble, "_GIL_FREE_SIZE", 2 * n)  # blocks of 3 or 4
        mc = monte_carlo(cfg, trials, k_max)
        assert mc.workers == 2
        for t in range(trials):
            lam = eigenvalues(sample_matrix(cfg, t))
            np.testing.assert_array_equal(mc.per_trial_moments[t], empirical_moments(lam, k_max))
            assert mc.radii[t] == np.abs(lam).max()
            np.testing.assert_array_equal(mc.pooled_eigenvalues[t * n:(t + 1) * n], lam)

    def test_one_worker_unless_blas_is_pinned(self, pinned_cpus, monkeypatch):
        pinned_cpus(8)
        monkeypatch.setattr(rank1_spectra, "_blas_pinned", False)
        mc = monte_carlo(EnsembleConfig(n=10, sigma=ones_spec(), seed=2), trials=16, k_max=2)
        assert mc.workers == 1

    @staticmethod
    def exits_3_on_a_failure(pinned_cpus, monkeypatch, tmp_path, capsys, on_calling_thread):
        pinned_cpus(2)
        caller, solve, failed = threading.current_thread(), ensemble.eigenvalues, threading.Event()

        def failing(matrix):
            # one thread fails its first block; the other waits for that
            if (threading.current_thread() is caller) == on_calling_thread:
                failed.set()
                raise RuntimeError("symmetric eigensolver did not converge: injected")
            assert failed.wait(10)
            return solve(matrix)

        monkeypatch.setattr(ensemble, "eigenvalues", failing)
        argv = ["simulate", "--sigma", "const:1", "--n", "10", "--trials", "4",
                "--out", str(tmp_path / "sim")]
        assert cli.main(argv) == cli.NUMERIC_EXIT
        assert "injected" in capsys.readouterr().err
        assert not (tmp_path / "sim").exists()

    def test_worker_error_makes_the_cli_exit_3(self, pinned_cpus, monkeypatch, tmp_path, capsys):
        self.exits_3_on_a_failure(pinned_cpus, monkeypatch, tmp_path, capsys, False)

    def test_calling_thread_error_makes_the_cli_exit_3(
        self, pinned_cpus, monkeypatch, tmp_path, capsys
    ):
        self.exits_3_on_a_failure(pinned_cpus, monkeypatch, tmp_path, capsys, True)

    def test_a_slow_thread_takes_fewer_blocks(self, pinned_cpus, monkeypatch):
        cfg = EnsembleConfig(n=20, sigma=parse_sigma_spec(EXP_SPEC), distribution="uniform", seed=9)
        pinned_cpus(1)
        alone = monte_carlo(cfg, 8, 4)
        pinned_cpus(2)
        caller, solve, solved = threading.current_thread(), ensemble.eigenvalues, Counter()

        def slow_off_the_caller(matrix):
            solved[threading.current_thread() is caller] += 1
            if threading.current_thread() is not caller:
                time.sleep(0.2)
            return solve(matrix)

        monkeypatch.setattr(ensemble, "eigenvalues", slow_off_the_caller)
        mc = monte_carlo(cfg, 8, 4)
        assert mc.workers == 2 and solved[True] > solved[False]
        assert solved[True] + solved[False] == 8
        np.testing.assert_array_equal(mc.per_trial_moments, alone.per_trial_moments)
        np.testing.assert_array_equal(mc.radii, alone.radii)
        np.testing.assert_array_equal(mc.pooled_eigenvalues, alone.pooled_eigenvalues)

    @pytest.mark.parametrize("sigma, max_order, order", [
        ("1e154", 10, 2), ("1e40", 7, None), ("1e40", 8, 8),
        ("1e-100", 10, 4), ("1e-30", 10, None), ("1e-30", 11, 11),
    ])
    def test_a_moment_beyond_float64_exits_3_naming_it(self, tmp_path, capsys, sigma, max_order,
                                                       order):
        # at sigma = 1e40 the means of m_4..m_7 are finite but their squared
        # deviations are not, unless taken at the column's power of two; at
        # 1e-100 the radius is about 2e-100, so m_4 would underflow to 0, and
        # at 1e-30 m_11 would
        out = tmp_path / "sim"
        argv = ["simulate", "--sigma", f"const:{sigma}", "--n", "5", "--trials", "2",
                "--max-order", str(max_order), "--out", str(out)]
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            status = cli.main(argv)
        if order is not None:
            assert status == cli.NUMERIC_EXIT and not out.exists()
            assert re.search(rf"\bm_{order}\b", capsys.readouterr().err)
            return
        assert status == 0
        report = json.loads((out / "report.json").read_text(encoding="utf-8"))
        for row in report["moments"]:
            assert math.isfinite(row["empirical_mean"]) and math.isfinite(row["empirical_stderr"])

    def test_manifest_records_workers_and_blas_settings(self, pinned_cpus, monkeypatch, tmp_path):
        pinned_cpus(2)
        runs = {}
        for openblas in ("1", "4"):
            monkeypatch.setenv("OPENBLAS_NUM_THREADS", openblas)
            monkeypatch.setattr(rank1_spectra, "_blas_pinned", openblas == "1")
            out = tmp_path / openblas
            argv = ["simulate", "--sigma", "const:1", "--n", "10", "--trials", "4",
                    "--out", str(out)]
            assert cli.main(argv) == 0
            runs[openblas] = json.loads((out / "report.json").read_text(encoding="utf-8"))
        assert runs["1"]["manifest"]["threads"] == {
            "workers": 2, "OPENBLAS_NUM_THREADS": "1", "OMP_NUM_THREADS": "1",
            "MKL_NUM_THREADS": "1",
        }
        assert runs["4"]["manifest"]["threads"] == {
            "workers": 1, "OPENBLAS_NUM_THREADS": "4", "OMP_NUM_THREADS": "1",
            "MKL_NUM_THREADS": "1",
        }
        for report in runs.values():
            del report["manifest"]
        assert runs["1"] == runs["4"]
