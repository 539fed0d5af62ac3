import math
import operator
import time
from decimal import Decimal, localcontext
from fractions import Fraction

import numpy as np
import pytest
from mpmath import mp
from scipy.integrate import quad

from rank1_spectra import expression, quadrature, sigma_model
from rank1_spectra.quadrature import _LIMIT_LEVEL, _MAX_LEVEL, _MAX_NODES, limiting_averages
from rank1_spectra.reports import lambda_vector, moment_table
from rank1_spectra.sigma_model import (
    _GUARD_DIGITS,
    _context,
    _exact_ratio,
    NoLimitError,
    SigmaDomainError,
    SigmaSpec,
    SpecSyntaxError,
    parse_sigma_spec,
    sigma_stats,
    sigma_values,
)
from rank1_spectra.validation import _mpf

EXP_SPEC = "expr:exp(-4*i/n)"


def _rounded(x: Fraction, digits: int) -> Decimal:
    """The exact x rounded once to ``digits`` digits."""
    return _context(digits).divide(x.numerator, x.denominator)


def _over_common_denominator(xs: list) -> tuple:
    """([x d for x in xs], d), ints, with d the least common denominator of xs."""
    fractions = [Fraction(x) for x in xs]
    d = math.lcm(*(x.denominator for x in fractions))
    return [x.numerator * (d // x.denominator) for x in fractions], d


def closed_form_lambda(k: float) -> float:
    # integral of exp(-4kx) over [0, 1]
    return (1.0 - math.exp(-4.0 * k)) / (4.0 * k)


class TestParsing:
    def test_constant(self):
        spec = parse_sigma_spec("const:1")
        assert spec.kind == "constant"
        np.testing.assert_array_equal(sigma_values(spec, 3), [1.0, 1.0, 1.0])

    def test_expression_evaluates_endpoint(self):
        spec = parse_sigma_spec(EXP_SPEC)
        v = sigma_values(spec, 1000)
        assert v[-1] == pytest.approx(math.exp(-4.0), rel=1e-15)
        assert v[0] == pytest.approx(math.exp(-4.0 / 1000.0), rel=1e-15)

    def test_expression_small_n(self):
        spec = parse_sigma_spec(EXP_SPEC)
        np.testing.assert_allclose(
            sigma_values(spec, 2), [math.exp(-2.0), math.exp(-4.0)], rtol=1e-15
        )

    def test_expression_is_the_c_library_value(self):
        # bit for bit, where numpy's vectorised exp may differ in the last bit
        n = 4096
        v = sigma_values(parse_sigma_spec(EXP_SPEC), n)
        assert v == tuple(math.exp(-4 * i / n) for i in range(1, n + 1))

    def test_unbalanced_paren_column(self):
        with pytest.raises(SpecSyntaxError) as err:
            parse_sigma_spec("expr:exp(-4*i/n")
        assert err.value.position == 16
        assert "parenthesis" in str(err.value)

    def test_bad_prefix(self):
        with pytest.raises(SpecSyntaxError):
            parse_sigma_spec("sigma:1")

    def test_nonpositive_constant(self):
        with pytest.raises(SigmaDomainError):
            parse_sigma_spec("const:0")
        with pytest.raises(SigmaDomainError):
            parse_sigma_spec("const:-2")

    def test_grammar_operators(self):
        spec = parse_sigma_spec("expr:(1+i)/(2*n)-i/(4*n)+2^2/8")
        # at i=1, n=2: 2/4 - 1/8 + 0.5 = 0.875
        assert sigma_values(spec, 2)[0] == pytest.approx(0.875)

    def test_power_binds_single_atom(self):
        # factor := atom ('^' atom)? — no chained powers without parentheses
        with pytest.raises(SpecSyntaxError):
            parse_sigma_spec("expr:2^3^2")

    def test_log_of_expression(self):
        spec = parse_sigma_spec("expr:log(exp(i/n))")
        assert sigma_values(spec, 4)[1] == pytest.approx(0.5, rel=1e-12)

    def test_unknown_identifier(self):
        with pytest.raises(SpecSyntaxError):
            parse_sigma_spec("expr:sin(i)")

    def test_nonpositive_evaluation_reports_index(self):
        spec = parse_sigma_spec("expr:2-i")
        with pytest.raises(SigmaDomainError) as err:
            sigma_values(spec, 5)
        assert err.value.index == 2  # 2 - i hits zero at i = 2

    def test_file_payload(self, tmp_path):
        path = tmp_path / "sigma.txt"
        path.write_text("0.5\n0.25\n", encoding="utf-8")
        spec = parse_sigma_spec(f"file:{path}")
        assert spec.kind == "explicit"
        np.testing.assert_array_equal(sigma_values(spec, 2), [0.5, 0.25])

    def test_file_not_found(self):
        with pytest.raises(SigmaDomainError):
            parse_sigma_spec("file:/nonexistent/sigma.txt")

    def test_file_nonpositive_entry(self, tmp_path):
        path = tmp_path / "sigma.txt"
        path.write_text("0.5\n-1.0\n", encoding="utf-8")
        with pytest.raises(SigmaDomainError) as err:
            parse_sigma_spec(f"file:{path}")
        assert err.value.index == 2

    def test_explicit_insufficient_length(self, tmp_path):
        path = tmp_path / "sigma.txt"
        path.write_text("0.5\n0.25\n", encoding="utf-8")
        spec = parse_sigma_spec(f"file:{path}")
        with pytest.raises(SigmaDomainError):
            sigma_values(spec, 3)


class TestStats:
    def test_constant_vector(self):
        st = sigma_stats([1.0, 1.0, 1.0], 2)
        assert st.partial_sums[0] == 3.0
        assert st.partial_sums[1] == 3.0
        assert st.sigma_max == st.sigma_min == 1.0

    def test_hand_sum(self):
        st = sigma_stats([2.0, 1.0], 3)
        np.testing.assert_array_equal(st.partial_sums, [3.0, 5.0, 9.0])
        assert st.sigma_max == 2.0
        assert st.sigma_min == 1.0

    def test_geometric_closed_form(self):
        # independent oracle: S_{n,1} = r (1 - r^n) / (1 - r) with r = exp(-4/n)
        n = 1000
        v = sigma_values(parse_sigma_spec(EXP_SPEC), n)
        st = sigma_stats(v, 1)
        r = math.exp(-4.0 / n)
        expected = r * (1.0 - r ** n) / (1.0 - r)
        assert st.partial_sums[0] == pytest.approx(expected, rel=1e-13)
        assert st.partial_sums[0] / n == pytest.approx(0.24493, abs=5e-6)

    def test_extreme_envelope(self):
        rng = np.random.default_rng(3)
        v = rng.uniform(0.1, 2.0, size=257)
        st = sigma_stats(v, 5)
        n = v.size
        for k in range(1, 6):
            assert n * st.sigma_min ** k <= st.partial_sums[k - 1] <= n * st.sigma_max ** k

    def test_scaling_covariance(self):
        rng = np.random.default_rng(4)
        v = rng.uniform(0.2, 1.5, size=100)
        c = 1.7
        a = sigma_stats(v, 4).partial_sums
        b = sigma_stats(c * v, 4).partial_sums
        for k in range(1, 5):
            assert b[k - 1] == pytest.approx(c ** k * a[k - 1], rel=1e-12)

    def test_rejects_nonpositive(self):
        with pytest.raises(SigmaDomainError):
            sigma_stats([1.0, 0.0], 2)

    def test_sums_are_correctly_rounded(self):
        # a float64 running sum, and numpy's pairwise one, lose both 1s
        assert sigma_stats([2.0 ** 53, 1.0, 1.0], 1).partial_sums[0] == 2.0 ** 53 + 2

    @pytest.mark.parametrize("values, k", [([1e308, 1e308], 1), ([1e300, 1e300], 2)],
                             ids=["sum", "power"])
    def test_overflow_raises(self, values, k):
        with pytest.raises(OverflowError, match=f"S_{{n,{k}}} overflowed"):
            sigma_stats(values, 3)


class TestLimitingAverages:
    def test_constant_exact(self):
        spec = parse_sigma_spec("const:1")
        la = limiting_averages(spec, 4, 1e-12)
        np.testing.assert_array_equal(la.values, [1.0, 1.0, 1.0, 1.0])
        assert all(la.converged)

    def test_constant_power(self):
        spec = parse_sigma_spec("const:0.5")
        la = limiting_averages(spec, 3, 1e-12)
        np.testing.assert_array_equal(la.values, [0.5, 0.25, 0.125])

    def test_exp_family_first_average(self):
        # oracle: (1 - e^-4)/4 = integral of e^{-4x}; Lambda_1 at 1e-8 pins
        # the spec's quoted 7-digit value 0.2454211
        la = limiting_averages(parse_sigma_spec(EXP_SPEC), 1, 1e-8)
        assert all(la.converged)
        assert float(la.values[0]) == pytest.approx(closed_form_lambda(1), abs=2e-8)
        assert float(la.values[0]) == pytest.approx(0.2454211, abs=1e-7)

    def test_exp_family_second_average(self):
        la = limiting_averages(parse_sigma_spec(EXP_SPEC), 2, 1e-8)
        assert float(la.values[1]) == pytest.approx((1 - math.exp(-8)) / 8, abs=2e-8)
        assert float(la.values[1]) == pytest.approx(0.1249581, abs=1e-7)

    def test_riemann_consistency_with_quadrature(self):
        # expression depends on i only through i/n: Lambda_k must match scipy's quadrature
        spec = parse_sigma_spec(EXP_SPEC)
        la = limiting_averages(spec, 3, 1e-7)
        for k in range(1, 4):
            integral, _ = quad(lambda x: math.exp(-4.0 * k * x), 0.0, 1.0, epsabs=1e-13)
            assert float(la.values[k - 1]) == pytest.approx(integral, abs=5e-7)

    @pytest.mark.parametrize("c", [0.7, 1000.0, 3.0e-5])
    def test_constant_is_its_powers(self, c):
        # limiting_averages asked for 60 digits carries 60 + _GUARD_DIGITS
        want = [_rounded(Fraction(c) ** k, 60 + _GUARD_DIGITS) for k in range(1, 30)]
        la = limiting_averages(parse_sigma_spec(f"const:{c!r}"), 29, 1e-8, digits=60)
        assert list(la.values) == want
        assert la.nodes == 1

    def test_explicit_sequence_is_its_finite_n_averages(self):
        # equal values merge into one node of weight 2; the sums are exact
        # until the division by n
        spec = SigmaSpec("explicit", (0.5, 0.25, 0.5), "explicit:inline")
        la = limiting_averages(spec, 8, 1e-8, digits=60)
        carried = 60 + _GUARD_DIGITS
        want = [_rounded((2 * Fraction(0.5) ** k + Fraction(0.25) ** k) / 3, carried)
                for k in range(1, 9)]
        first_two = [_rounded((Fraction(0.5) ** k + Fraction(0.25) ** k) / 2, carried)
                     for k in range(1, 9)]
        assert list(la.values) == want
        assert (la.nodes, la.digits, all(la.converged)) == (2, 60, True)
        assert list(limiting_averages(spec, 8, 1e-8, digits=60, n=2).values) == first_two
        with pytest.raises(SigmaDomainError, match="explicit sigma sequence has 3 entries, need 4"):
            limiting_averages(spec, 2, 1e-8, n=4)

    @pytest.mark.parametrize("digits, k_max", [(38, 29), (60, 51)])
    def test_power_sums_are_the_exact_sums_rounded_once(self, digits, k_max):
        # weights over 80 binades and values, floats and Decimals with full
        # digits, over 7 binades below [1, 2), whose two nodes sit at its
        # bottom and make most of the sums; 2000 floats with integer counts
        # at k_max = 40, as an explicit sigma gives them; and nodes 2^-200
        # below the rest
        rng = np.random.default_rng(11)
        weights = (rng.uniform(0, 1, 40) * 2.0 ** rng.integers(-80, 4, 40)).tolist() + [100, 7]
        values = rng.uniform(0.03, 2.7, 40).tolist() + [3.0000000003, 3.0000000009]
        with localcontext(_context(digits)):
            values = [v / 3 for v in values[:20]] + [Decimal(v) / 3 for v in values[20:]]
        rng = np.random.default_rng(23)
        floats = rng.uniform(0.5, 2.0, 2000).tolist()
        counts = rng.integers(1, 4, 2000).tolist()
        tiny = [v * 2.0 ** -200 for v in floats[:5]]
        for w, v, k_top in ((weights, values, k_max), (counts, floats, 40),
                            ([1] * 10, floats[:5] + tiny, 3)):
            with localcontext(_context(digits)):
                got = quadrature._weighted_power_sums(w, v, k_top)
            # the exact sums in integers over common denominators
            (wn, wd), (vn, vd) = (_over_common_denominator(xs) for xs in (w, v))
            terms = wn
            for k, sum_k in enumerate(got, start=1):
                terms = list(map(operator.mul, terms, vn))
                assert sum_k == _rounded(Fraction(sum(terms), wd * vd ** k), digits)

    def test_monotone_in_k_for_subunit_sigma(self):
        la = limiting_averages(parse_sigma_spec(EXP_SPEC), 6, 1e-7)
        assert all(la.values[k] <= la.values[0] for k in range(6))
        assert all(np.diff(la.values) < 0)

    @pytest.mark.parametrize("tol", [0.0, -1.0, float("nan"), float("inf")])
    def test_rejects_tol_that_is_not_finite_and_positive(self, monkeypatch, tol):
        # raised before any node is evaluated
        def no_nodes(*args):
            raise AssertionError("quadrature ran")

        monkeypatch.setattr(quadrature, "_ladder_averages", no_nodes)
        with pytest.raises(ValueError, match="tol must be finite and > 0"):
            limiting_averages(parse_sigma_spec(EXP_SPEC), 2, tol)

    def test_scaling_covariance_constant_exact(self):
        base = limiting_averages(parse_sigma_spec("const:0.7"), 4, 1e-12)
        scaled = limiting_averages(parse_sigma_spec("const:1.4"), 4, 1e-12)
        for k in range(1, 5):
            assert float(scaled.values[k - 1]) == pytest.approx(
                2.0 ** k * float(base.values[k - 1]), rel=1e-12
            )

    def test_scaling_covariance_expression(self):
        # the tolerances are relative, so with c = 2 the quadrature stops at
        # the same level; a decimal product by 2 is no exact scaling, so the
        # values agree to one unit in the last of their 30 + _GUARD_DIGITS
        # digits (the measured gap), where binary ops agreed to the bit
        base = limiting_averages(parse_sigma_spec(EXP_SPEC), 1, 1e-7)
        scaled = limiting_averages(parse_sigma_spec("expr:2*exp(-4*i/n)"), 1, 1e-7)
        assert scaled.rungs == base.rungs
        value = scaled.values[0]
        unit = Decimal(1).scaleb(value.adjusted() + 1 - (30 + _GUARD_DIGITS))
        with localcontext(_context(100)):
            assert abs(value - 2 * base.values[0]) <= unit


class TestExtrapolatedLadder:
    def test_exp_family_all_averages(self):
        la = limiting_averages(parse_sigma_spec(EXP_SPEC), 29, 1e-8)
        assert all(la.converged)
        assert la.final_n <= 400
        want = [closed_form_lambda(k) for k in range(1, 30)]
        np.testing.assert_allclose([float(v) for v in la.values], want, rtol=1e-15, atol=0)
        with mp.workdps(40):
            worst = max(abs(_mpf(v) * 4 * k / (1 - mp.exp(-4 * k)) - 1)
                        for k, v in enumerate(la.values, 1))
        assert worst < 1e-29  # DEFAULT_DIGITS = 30

    def test_large_averages_settle(self):
        # Lambda_29 is about 6e11: an absolute tol of 1e-8 is below its float
        # spacing, the relative one is not
        la = limiting_averages(parse_sigma_spec("expr:3*exp(-4*i/n)"), 29, 1e-8)
        assert all(la.converged)
        assert la.final_n <= 400
        want = [3.0 ** k * closed_form_lambda(k) for k in range(1, 30)]
        np.testing.assert_allclose([float(v) for v in la.values], want, rtol=1e-15, atol=0)

    def test_polynomial_profile(self):
        # integral of (1 + x)^k over [0, 1]
        la = limiting_averages(parse_sigma_spec("expr:1+i/n"), 8, 1e-8)
        assert all(la.converged)
        want = [(2.0 ** (k + 1) - 1) / (k + 1) for k in range(1, 9)]
        np.testing.assert_allclose([float(v) for v in la.values], want, rtol=1e-15, atol=0)

    def test_index_only_profile(self):
        # (1/n) sum (1 + 1/i) = 1 + (log n + gamma)/n + ...: the limit 1 is
        # reached, at N = 10^35 to 1e-33
        tol = 1e-6
        la = limiting_averages(parse_sigma_spec("expr:1+1/i"), 1, tol)
        assert all(la.converged)
        assert abs(la.values[0] - 1) <= Decimal("1e-30")

    def test_odd_powers_are_extrapolated(self):
        # sum_{i<=n} 1/(i(i+1)(i+2)) = 1/4 - 1/(2(n+1)(n+2)): a spec in i alone
        # whose finite-n averages carry odd powers of 1/n; the limit is 1
        la = limiting_averages(parse_sigma_spec("expr:1+1e8/(i*(i+1)*(i+2))"), 1, 1e-8)
        assert all(la.converged)
        assert abs(la.values[0] - 1) <= Decimal("1e-11")

    def test_unbounded_profile_stops_at_the_cap(self):
        # (1/n) sum (1 + log i) grows like log n: the limit test on the coarse
        # level fails every k, and the quadrature stops there
        la = limiting_averages(parse_sigma_spec("expr:1+log(i)"), 2, 1e-8)
        assert not any(la.converged)
        assert la.levels == _LIMIT_LEVEL
        assert la.nodes <= 200

    def test_integrable_singularity_with_divergent_powers(self):
        # sigma = (n/i)^(1/2): Lambda_1 = 2, but (1/n) sum n/i = H_n diverges
        la = limiting_averages(parse_sigma_spec("expr:(i/n)^(0-0.5)"), 2, 1e-8)
        assert list(la.converged) == [True, False]
        assert abs(la.values[0] - 2) <= 1e-12

    def test_ladder_work_is_bounded(self):
        # a kink at 1/3, never at a panel's end, needs ever narrower panels:
        # at 60 digits they stop once _MAX_NODES points are spent, the
        # digits then reached are reported, and they pass tol = 1e-8
        la = limiting_averages(parse_sigma_spec("expr:1+((i/n-1/3)^2)^0.5"), 1, 1e-8, digits=60)
        # the last split adds two panels of at most _MAX_LEVEL levels, |t| <= 5
        assert _MAX_NODES <= la.nodes <= _MAX_NODES + 2 * (10 * 2 ** _MAX_LEVEL + 1)
        assert 15 <= la.digits < 60 and all(la.converged)
        with mp.workdps(60):
            c = mp.mpf(1 / 3)  # the float the spec's 1/3 gives
            want = 1 + (c * c + (1 - c) ** 2) / 2
            assert abs(_mpf(la.values[0]) - want) <= mp.mpf(10) ** -la.digits

    @pytest.mark.parametrize("kink, c", [("0.5", 0.5), ("1/3", 1 / 3)])
    def test_kinked_profile_is_split_at_the_kink(self, kink, c):
        # tanh-sinh stalls across the kink; halving the panels puts it at a
        # panel's end (1/2 at once, 1/3 in the limit), where it converges.
        # Lambda_k = ((1 + c)^(k+1) + (2 - c)^(k+1) - 2) / (k + 1), with c the
        # float the spec's literals give
        la = limiting_averages(parse_sigma_spec(f"expr:1+((i/n-{kink})^2)^0.5"), 2, 1e-8)
        assert all(la.converged) and la.digits == 30 and la.panels > 1
        with mp.workdps(40):
            c = mp.mpf(c)
            for k, v in enumerate(la.values, 1):
                want = ((1 + c) ** (k + 1) + (2 - c) ** (k + 1) - 2) / (k + 1)
                assert abs(_mpf(v) / want - 1) <= 1e-28

    def test_narrow_bump_between_the_nodes_is_found(self):
        # a bump 1e-3 wide falls between the tanh-sinh nodes of [0, 1], which
        # settle on Lambda = 1; the float midpoint rule over 4096 cells sees
        # it, and the panel around it is halved until the nodes do
        la = limiting_averages(parse_sigma_spec("expr:1+exp(0-((i/n-1/3)^2)*1e6)"), 2, 1e-8)
        assert all(la.converged) and la.digits == 30 and la.panels > 1
        with mp.workdps(40):
            g = mp.sqrt(mp.pi) / 1000  # int exp(-1e6 (x - c)^2) dx; the tails are below 1e-100
            for v, want in zip(la.values, (1 + g, 1 + 2 * g + g / mp.sqrt(2))):
                assert abs(_mpf(v) / want - 1) <= 1e-28

    def test_narrow_dip_below_zero_is_a_domain_error(self):
        with pytest.raises(SigmaDomainError, match="no finite positive value at i/n = 0.33"):
            limiting_averages(parse_sigma_spec("expr:1-2*exp(0-((i/n-1/3)^2)*1e6)"), 1, 1e-8)

    def test_profile_below_float_range_is_no_domain_error(self):
        # exp(-1000 x) underflows to 0 in the float midpoint rule past
        # x = 0.745; it stays positive in Decimal
        la = limiting_averages(parse_sigma_spec("expr:exp(-1000*i/n)"), 2, 1e-8)
        with mp.workdps(30):
            for k, v in enumerate(la.values, 1):
                assert abs(_mpf(v) * 1000 * k / (1 - mp.exp(-1000 * k)) - 1) <= 1e-28

    def test_steep_profile_fails_in_bounded_time(self):
        # exp(-1e6 x) spans 434294 decades on [0, 1], so at k = 16 the nodes'
        # v^k span 7e6 decades; Decimal holds each in its exponent, so a sum
        # costs what it costs at a flat profile, and the quadrature still
        # stops short of any digit
        start = time.perf_counter()
        la = limiting_averages(parse_sigma_spec("expr:exp(-1e6*i/n)"), 16, 1e-8)
        assert time.perf_counter() - start < 5.0
        assert not any(la.converged) and la.digits == 0

    def test_power_sums_keep_their_bound_where_groups_are_dropped(self):
        # two nodes, 1 and about 2^-g, around the 30-digit unit and far
        # below it: each sum stays within 10^-(D + 10) of the exact sum
        # before its one rounding to D = 30 digits
        with localcontext(_context(30)) as ctx:
            prec = (10 ** ctx.prec).bit_length()
            guard = prec + 12 + (2 * 3).bit_length()
            for g in (guard - 2, guard + 1, guard + 3, 4000):
                values = [Decimal(1), ctx.power(2, -g)]
                got = quadrature._weighted_power_sums([1, 1], values, 3)
                for k, sum_k in enumerate(got, start=1):
                    exact = 1 + Fraction(values[1]) ** k
                    bound = (Fraction(1, 2 * 10 ** 29) + Fraction(1, 10 ** 40)) * exact
                    assert abs(Fraction(sum_k) - exact) <= bound
            assert got == [1, 1, 1]

    def test_kinked_profile_gets_its_moments(self):
        # m_2 = Lambda_1^2 and m_4 = 2 Lambda_1^2 Lambda_2, as the float ladder gave them
        report = moment_table(parse_sigma_spec("expr:1+((i/n-0.5)^2)^0.5"), 2)
        assert [row.limit for row in report.rows] == pytest.approx([1.5625, 475 / 96], rel=1e-15)

    def test_negative_profile_is_a_domain_error(self):
        with pytest.raises(SigmaDomainError, match="no finite positive value"):
            limiting_averages(parse_sigma_spec("expr:1-2*i/n"), 1, 1e-8)

    @pytest.mark.parametrize("power", ["0.5", "0.3"])
    def test_negative_base_to_a_fraction_is_a_domain_error(self, power):
        # sqrt (half-integral) and the general power both signal
        # InvalidOperation past x = 1/2, where the base turns negative
        with pytest.raises(SigmaDomainError, match="no finite positive value"):
            limiting_averages(parse_sigma_spec(f"expr:1+(0.5-i/n)^{power}"), 1, 1e-8)

    def test_decimal_oracle_exp_profile(self):
        # the 38-digit Decimal Lambda_k against mpmath's closed form
        # (1 - e^{-4k})/(4k) at 60 digits, k <= 29
        la = limiting_averages(parse_sigma_spec(EXP_SPEC), 29, 1e-8, digits=38)
        assert all(la.converged) and all(isinstance(v, Decimal) for v in la.values)
        with mp.workdps(60):
            worst = max(abs(_mpf(v) * 4 * k / (1 - mp.exp(-4 * k)) - 1)
                        for k, v in enumerate(la.values, 1))
        assert worst <= 1e-36

    @pytest.mark.parametrize("text", ["0.7", "1E+5", "3.14159E+500", "2.5E-19240",
                                      "1234567890123456789012345678901234567.8"])
    def test_exact_ratio_is_the_decimal(self, text):
        # x = p / q 2^t exactly, q a power of 5, at any decimal exponent
        p, q, t = _exact_ratio(Decimal(text))
        assert Fraction(p, q) * Fraction(2) ** t == Fraction(Decimal(text))
        assert 5 ** round(math.log(q, 5)) == q

    def test_no_decimal_step_flushes_to_zero(self):
        # the default context's exponents stop at -999999 and it does not
        # trap Underflow, so exp(-4e6)^3 reads 0 there; the layers' context
        # spans MIN_EMIN..MAX_EMAX and raises where a result leaves even that
        import decimal

        with localcontext(decimal.Context()):
            assert Decimal(-4e6).exp() ** 3 == 0
        ctx = _context(38)
        assert (ctx.Emin, ctx.Emax) == (decimal.MIN_EMIN, decimal.MAX_EMAX)
        for signal in (decimal.Underflow, decimal.Overflow, decimal.InvalidOperation):
            assert ctx.traps[signal]
        with localcontext(ctx):
            tiny = Decimal(-4e6).exp()
            sums = quadrature._weighted_power_sums([1], [tiny], 3)
            for k, got in enumerate(sums, start=1):
                assert got > 0 and abs(got / tiny ** k - 1) <= Decimal("1e-36")
            low, high = Decimal(10) ** (decimal.MIN_EMIN // 2), Decimal(10) ** (decimal.MAX_EMAX // 2)
            with pytest.raises(decimal.Underflow):
                low * low / 10 ** 40
            with pytest.raises(decimal.Overflow):
                high * high * 100

    def test_note_names_the_work(self):
        spec = parse_sigma_spec(EXP_SPEC)
        la = limiting_averages(spec, 3, 1e-8)
        _, note, digits = lambda_vector(spec, 3, 1e-8)
        assert note == (f"tanh-sinh quadrature of the pointwise limit: {la.levels} levels, "
                        f"{la.nodes} nodes, 30 digits")
        assert digits == 30
        assert lambda_vector(parse_sigma_spec("const:2"), 3, 1e-8)[1] == "exact (constant sigma)"

    def test_unconverged_ladder_is_an_error(self):
        with pytest.raises(NoLimitError, match=rf"Lambda_1 did not converge to relative "
                                               rf"tol=1e-08 \({_LIMIT_LEVEL} levels, \d+ nodes, 30 digits\)"):
            lambda_vector(parse_sigma_spec("expr:1+log(i)"), 1, 1e-8)

    def test_quadrature_short_of_tol_is_an_error(self):
        # the 60-digit kink of test_ladder_work_is_bounded reaches 28 digits
        with pytest.raises(NoLimitError, match=r"its quadrature stopped at \d\d digits"):
            lambda_vector(parse_sigma_spec("expr:1+((i/n-1/3)^2)^0.5"), 1, 1e-40, digits=60)


class TestMidpointGrid:
    """`quadrature._midpoint_grid` and its midpoint sums, the float check of
    settled panels, in plain Python: numpy's formula over the same sigma
    values, bit for bit.  A midpoint sum is the `sigma_model._power_sums`
    kernel of S_{n,k}, a `math.fsum` of running products, over the cell
    count."""

    N = 1e35  # float(10^(DEFAULT_DIGITS + 5)), the N of the quadrature

    @pytest.mark.parametrize("spec, sigma", [
        ("expr:exp(-4*i/n)", lambda i, n: math.exp(-4.0 * i / n)),
        ("expr:1+((i/n-1/3)^2)^0.5", lambda i, n: 1 + ((i / n - 1 / 3) ** 2.0) ** 0.5),
        ("expr:1+exp(0-((i/n-1/3)^2)*1e6)",
         lambda i, n: 1 + math.exp(0 - ((i / n - 1 / 3) ** 2.0) * 1e6)),
    ], ids=["exp", "kink", "bump"])
    def test_grid_is_the_numpy_formula(self, spec, sigma):
        tree, N, k_max = parse_sigma_spec(spec).payload, self.N, 29
        grid = quadrature._midpoint_grid(tree, N)
        for f_grid, cells in zip(grid, (quadrature._CELLS, quadrature._CELLS // 2)):
            x = (np.arange(cells) + 0.5) / cells
            f = [sigma(i, N) for i in (x * N).tolist()]
            # a panel at the left end and one inside: [0, 1] and [1/4, 1/2]
            for lo, hi in ((0, cells), (cells // 4, cells // 2)):
                # numpy's formula: f^k by cumulative products, each summed
                # correctly rounded by math.fsum, then / cells, which is exact
                powers = np.cumprod(np.broadcast_to(np.array(f[lo:hi]), (k_max, hi - lo)),
                                    axis=0)
                want = [math.fsum(row) / cells for row in powers.tolist()]
                got = [s / cells for s in sigma_model._power_sums(f_grid[lo:hi], k_max)]
                assert got == want
            # numpy's own exp and power may be SIMD builds that differ from
            # the C library's in the last bit
            with np.errstate(all="ignore"):
                np.testing.assert_array_max_ulp(
                    np.array(f), expression._eval_node(tree, x * N, N, np), maxulp=1)

    def test_negative_sigma_raises(self):
        tree = parse_sigma_spec("expr:1-2*exp(0-((i/n-1/3)^2)*1e6)").payload
        with pytest.raises(SigmaDomainError, match="no finite positive value at i/n = 0.33"):
            quadrature._midpoint_grid(tree, self.N)

    def test_overflow_gives_no_grid(self):
        # exp(i) overflows at every point: no panel is checked, and no
        # OverflowError; an estimate of 1 fails the check on exp(-4 i/n)
        estimate, scale = [Decimal(1)] * 3, [1.0] * 3
        for spec, checked in (("expr:exp(i)", False), ("expr:exp(-4*i/n)", True)):
            grid = quadrature._midpoint_grid(parse_sigma_spec(spec).payload, self.N)
            for p, q in ((0, 1), (0.25, 0.5)):
                gaps = quadrature._unseen(grid, p, q, estimate, scale)
                assert (gaps is not None) is checked

    @pytest.mark.parametrize("expr", [
        "log(i-0.5)", "(i-0.5)^0.5", "(i-0.5)^(0-1)", "(0-i)^(0-1)", "1/(i-0.5)",
        "(i-0.5)/(i-0.5)", "exp(i*1000)", "(0-i*10)^309", "(i*10)^(0-400)", "0-1/(i-0.5)",
    ])
    def test_bad_points_read_as_in_numpy(self, expr):
        # NaN off the reals, signed inf on overflow and division by zero,
        # -inf for log(0), where math raises or Python gives complex numbers
        tree = parse_sigma_spec(f"expr:{expr}").payload
        i = [0.0, 0.25, 0.5, 1.0, 2.0]
        got = np.array(expression._eval_node(tree, expression._Floats(i), 1.0,
                                             expression._FLOAT))
        with np.errstate(all="ignore"):
            want = expression._eval_node(tree, np.array(i), 1.0, np)
        np.testing.assert_array_equal(np.isnan(got), np.isnan(want))
        np.testing.assert_array_equal(got[np.isinf(got)], want[np.isinf(got)])
        np.testing.assert_allclose(got[np.isfinite(got)], want[np.isfinite(got)], rtol=1e-15)
        assert np.isfinite(got).sum() == np.isfinite(want).sum()
