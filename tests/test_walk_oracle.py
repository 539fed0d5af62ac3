import itertools
import math
from collections import Counter

import numpy as np
import pytest

from rank1_spectra.walk_oracle import exact_expected_moment


def brute_force(n, k, values, distinct_vertices):
    # every one of the n^k walks, no pruning; the entry moments of each
    # distinct edge multiplied in the order the edges first appear
    terms = {"rademacher": [], "uniform": []}
    for walk in itertools.product(range(n), repeat=k):
        if distinct_vertices is not None and len(set(walk)) != distinct_vertices:
            continue
        edges = Counter(tuple(sorted(e)) for e in zip(walk, walk[1:] + walk[:1]))
        if any(m % 2 for m in edges.values()):
            continue
        rademacher = uniform = 1.0
        for (a, b), m in edges.items():
            base = (values[a] * values[b]) ** (m // 2)
            rademacher *= base
            uniform *= 3.0 ** (m // 2) * base / (m + 1)  # E (sqrt(3) U)^m = 3^{m/2} / (m + 1)
        terms["rademacher"].append(rademacher)
        terms["uniform"].append(uniform)
    return {law: math.fsum(t) / float(n) ** (k / 2 + 1) for law, t in terms.items()}


class TestExactExpectedMoment:
    @pytest.mark.parametrize("n", [1, 2, 3])
    def test_pruned_pass_equals_brute_force(self, n):
        sigma = (0.9, 0.55, 0.3)[:n]
        for k in range(1, 7):
            for p in (None, *range(1, n + 1)):
                assert exact_expected_moment(n, k, sigma, p) == brute_force(n, k, sigma, p), \
                    (k, p)

    def test_single_site(self):
        assert exact_expected_moment(1, 2, (1.0,)) == {"rademacher": 1.0, "uniform": 1.0}

    @pytest.mark.parametrize("k", [1, 3, 5])
    def test_odd_orders_vanish_exactly(self, k):
        sigma = (1.0, 0.5, 0.25)
        assert exact_expected_moment(3, k, sigma) == {"rademacher": 0.0, "uniform": 0.0}

    def test_second_moment_identity(self):
        # independent oracle: E m_2 = (S_1/n)^2 including the diagonal
        rng = np.random.default_rng(8)
        sigma = tuple(rng.uniform(0.2, 1.2, size=4))
        for got in exact_expected_moment(4, 2, sigma).values():
            assert got == pytest.approx((sum(sigma) / 4) ** 2, rel=1e-13)

    def test_guard(self):
        with pytest.raises(ValueError):
            exact_expected_moment(10, 8, (1.0,) * 10)

    def test_uniform_law_fourth_moment_shift(self):
        # same variances, different fourth moments: the oracle must see it
        sigma = (0.9, 0.6, 0.3)
        got = exact_expected_moment(3, 4, sigma)
        assert got["uniform"] > got["rademacher"]  # uniform has E a^4 = 1.8 (sigma_i sigma_j)^2

    def test_pigeonhole_zero_above_half_length(self):
        for p in (4, 5):  # k=4: any p > 3 contributes nothing
            got = exact_expected_moment(5, 4, (1.0,) * 5, distinct_vertices=p)
            assert got == {"rademacher": 0.0, "uniform": 0.0}

    def test_distinct_decomposition_sums_to_total(self):
        sigma = (1.0, 0.7, 0.4)
        total = exact_expected_moment(3, 4, sigma)
        parts = [exact_expected_moment(3, 4, sigma, distinct_vertices=p) for p in (1, 2, 3)]
        for law in total:
            assert math.fsum(p[law] for p in parts) == pytest.approx(total[law], rel=1e-13)


def dominant_term(n, s, values):
    # closed walks of length 2s on s + 1 distinct vertices traverse a tree
    # and use each edge exactly twice, so each has weight prod sigma_i sigma_j;
    # rademacher's E a^2 is sigma_i sigma_j itself, with no further rounding
    return exact_expected_moment(n, 2 * s, values, distinct_vertices=s + 1)["rademacher"]


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
        for n, s in ((3, 1), (4, 1), (4, 2)):
            total = exact_expected_moment(n, 2 * s, sigma)["rademacher"]
            assert total >= dominant_term(n, s, sigma[:n]) - 1e-15
