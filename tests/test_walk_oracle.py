import itertools
import math

import numpy as np
import pytest

from rank1_spectra.walk_oracle import EntryMomentModel, exact_expected_moment


class TestEntryMomentModel:
    @pytest.mark.parametrize("dist", ["rademacher", "uniform"])
    def test_low_order_moments(self, dist):
        model = EntryMomentModel(dist, (0.5, 0.25))
        assert model.moment(0, 1, 0) == 1.0
        assert model.moment(0, 1, 1) == 0.0
        assert model.moment(0, 1, 2) == pytest.approx(0.125, rel=1e-15)
        assert model.moment(1, 0, 3) == 0.0

    def test_fourth_moments_differ_by_law(self):
        rad = EntryMomentModel("rademacher", (1.0, 1.0))
        uni = EntryMomentModel("uniform", (1.0, 1.0))
        assert rad.moment(0, 1, 4) == 1.0
        assert uni.moment(0, 1, 4) == pytest.approx(9.0 / 5.0)  # E(sqrt(3)U)^4

    def test_unsupported_law(self):
        with pytest.raises(ValueError):
            EntryMomentModel("truncated_gaussian", (1.0,))


class TestExactExpectedMoment:
    def test_single_site(self):
        model = EntryMomentModel("rademacher", (1.0,))
        assert exact_expected_moment(1, 2, (1.0,), model) == pytest.approx(1.0)

    @pytest.mark.parametrize("k", [1, 3, 5])
    def test_odd_orders_vanish_exactly(self, k):
        sigma = (1.0, 0.5, 0.25)
        model = EntryMomentModel("rademacher", sigma)
        assert exact_expected_moment(3, k, sigma, model) == 0.0

    def test_second_moment_identity(self):
        # independent oracle: E m_2 = (S_1/n)^2 including the diagonal
        rng = np.random.default_rng(8)
        sigma = tuple(rng.uniform(0.2, 1.2, size=4))
        model = EntryMomentModel("rademacher", sigma)
        got = exact_expected_moment(4, 2, sigma, model)
        assert got == pytest.approx((sum(sigma) / 4) ** 2, rel=1e-13)

    def test_guard(self):
        sigma = (1.0,) * 10
        model = EntryMomentModel("rademacher", sigma)
        with pytest.raises(ValueError):
            exact_expected_moment(10, 8, sigma, model)

    def test_uniform_law_fourth_moment_shift(self):
        # same variances, different fourth moments: the oracle must see it
        sigma = (0.9, 0.6, 0.3)
        rad = exact_expected_moment(3, 4, sigma, EntryMomentModel("rademacher", sigma))
        uni = exact_expected_moment(3, 4, sigma, EntryMomentModel("uniform", sigma))
        assert uni > rad  # uniform has E a^4 = 1.8 (sigma_i sigma_j)^2

    def test_pigeonhole_zero_above_half_length(self):
        sigma = (1.0,) * 5
        model = EntryMomentModel("rademacher", sigma)
        for p in (4, 5):  # k=4: any p > 3 contributes nothing
            assert exact_expected_moment(5, 4, sigma, model, distinct_vertices=p) == 0.0

    def test_distinct_decomposition_sums_to_total(self):
        sigma = (1.0, 0.7, 0.4)
        model = EntryMomentModel("rademacher", sigma)
        total = exact_expected_moment(3, 4, sigma, model)
        parts = [
            exact_expected_moment(3, 4, sigma, model, distinct_vertices=p)
            for p in (1, 2, 3)
        ]
        assert math.fsum(parts) == pytest.approx(total, rel=1e-13)


def dominant_term(n, s, values):
    # closed walks of length 2s on s + 1 distinct vertices traverse a tree
    # and use each edge exactly twice, so each has weight prod sigma_i sigma_j;
    # rademacher's E a^2 is sigma_i sigma_j itself, with no further rounding
    values = tuple(values)
    model = EntryMomentModel("rademacher", values)
    return exact_expected_moment(n, 2 * s, values, model, distinct_vertices=s + 1)


class TestDominantTerm:
    def test_two_sites_hand_count(self):
        # the only valid walks are (i, j, i) with i != j: 2 of them on 2 sites
        assert dominant_term(2, 1, (1.0, 1.0)) == pytest.approx(0.5)

    def test_not_enough_vertices(self):
        assert dominant_term(2, 2, (1.0, 1.0)) == 0.0

    def test_distinct_index_summation_oracle(self):
        # s=2 star and path shapes summed over distinct ordered triples
        n = 6
        sigma = np.exp(-4.0 * np.arange(1, n + 1) / n)
        expected = 0.0
        for i, j, k in itertools.permutations(range(n), 3):
            expected += sigma[i] ** 2 * sigma[j] * sigma[k]  # star walk (i,j,i,k)
            expected += sigma[i] * sigma[j] ** 2 * sigma[k]  # path walk (i,j,k,j)
        assert dominant_term(n, 2, sigma) == pytest.approx(expected / n ** 3, rel=1e-12)

    @pytest.mark.parametrize("n,s", [(2, 1), (3, 2), (4, 3), (5, 4), (4, 1), (6, 1), (8, 1),
                                     (4, 2), (6, 2), (8, 2)])
    def test_identity_profile_equals_falling_factorial_count(self, n, s):
        # closed walks of length 2s on n labelled vertices that visit s + 1 of
        # them and use each edge exactly twice number n(n-1)...(n-s) * C_s
        from rank1_spectra.combinatorics import catalan

        falling = math.prod(range(n - s, n + 1))
        expected = falling * catalan(s) / n ** (s + 1)
        assert dominant_term(n, s, (1.0,) * n) == pytest.approx(expected, rel=1e-12)

    def test_dominated_by_total_moment(self):
        # remaining walk classes have nonnegative weights for rademacher
        sigma = (1.0, 0.6, 0.3, 0.9)
        model = EntryMomentModel("rademacher", sigma)
        for n, s in ((3, 1), (4, 1), (4, 2)):
            total = exact_expected_moment(n, 2 * s, sigma[:n], model)
            assert total >= dominant_term(n, s, sigma[:n]) - 1e-15
