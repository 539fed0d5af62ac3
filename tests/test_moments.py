import math
import sys
from decimal import Decimal, localcontext
from fractions import Fraction

import numpy as np
import pytest

from rank1_spectra.combinatorics import catalan, degree_profile_of, enumerate_plane_trees
from rank1_spectra.ensemble import EnsembleConfig, monte_carlo
from rank1_spectra import moments, quadrature, reports, sigma_model
from rank1_spectra.moments import (
    _tree_series,
    limiting_even_moment,
    moment_lower_bound,
    moment_upper_bound,
    odd_moment_bound,
    theta_factor,
)
from rank1_spectra.sigma_model import (_GUARD_DIGITS, SigmaDomainError, _context, parse_sigma_spec,
                                      sigma_values)
from rank1_spectra.validation import _profile_sum

EXP_SPEC = "expr:exp(-4*i/n)"
CATALANS = [1, 2, 5, 14, 42, 132, 429, 1430]


def lam(k: int) -> float:
    return (1.0 - math.exp(-4.0 * k)) / (4.0 * k)


class TestLimitingMoments:
    def test_constant_profile_gives_catalan_exactly(self):
        ones = [Fraction(1)] * 64
        for s in list(range(1, 9)) + [64]:
            value = limiting_even_moment(ones[:s], s)
            assert isinstance(value, Fraction)
            assert value == catalan(s)

    def test_series_equals_profile_sum_exactly(self):
        averages = [Fraction(2 * j + 1, j * j + 3) for j in range(1, 13)]
        for s in range(1, 13):
            assert limiting_even_moment(averages, s) == _profile_sum(averages, s)

    def test_series_equals_sum_over_plane_trees(self):
        # every rooted ordered tree on s+1 vertices, weighted prod Lambda_deg
        lams = [Fraction(3, j + 2) for j in range(1, 10)]
        for s in range(1, 10):
            brute = sum(
                math.prod(a ** r for a, r in zip(lams, degree_profile_of(t).r))
                for t in enumerate_plane_trees(s + 1)
            )
            assert limiting_even_moment(lams, s) == brute

    def test_float_series_matches_profile_sum(self):
        lams = [lam(k) for k in range(1, 31)]
        for s in range(1, 31):
            oracle = _profile_sum(lams, s)
            assert abs(limiting_even_moment(lams, s) - oracle) <= 1e-14 * oracle

    def test_second_moment_is_lambda1_squared(self):
        assert limiting_even_moment([0.3], 1) == pytest.approx(0.09, rel=1e-15)

    def test_exp_family_fourth_moment(self):
        # single profile (2, 1) realized by 2 trees: m_4 = 2 * L1^2 * L2
        lams = [lam(1), lam(2)]
        m4 = limiting_even_moment(lams, 2)
        assert m4 == pytest.approx(2.0 * lams[0] ** 2 * lams[1], rel=1e-14)
        assert m4 == pytest.approx(1.5053e-2, rel=1e-4)

    def test_exp_family_sixth_moment(self):
        # profiles (2,2,0) count 3 and (3,0,1) count 2
        lams = [lam(k) for k in range(1, 4)]
        m6 = limiting_even_moment(lams, 3)
        expected = 3 * lams[0] ** 2 * lams[1] ** 2 + 2 * lams[0] ** 3 * lams[2]
        assert m6 == pytest.approx(expected, rel=1e-14)

    def test_scaling_covariance(self):
        lams = [lam(k) for k in range(1, 5)]
        c = 1.9
        for s in range(1, 5):
            base = limiting_even_moment(lams[:s], s)
            scaled = limiting_even_moment(
                [c ** k * v for k, v in enumerate(lams[:s], 1)], s
            )
            assert scaled == pytest.approx(c ** (2 * s) * base, rel=1e-12)

    def test_input_validation(self):
        with pytest.raises(ValueError):
            limiting_even_moment([1.0], 2)
        with pytest.raises(ValueError):
            limiting_even_moment([0.0], 1)
        with pytest.raises(ValueError):
            limiting_even_moment([1.0] * 70, 70)


class TestLowerBound:
    def test_single_profile_hand_formula(self):
        # s=2 has the single profile (2,1) with 2 trees, so the bound is
        # 2 (S1/n)^2 (S2/n) - sigma_max^4 (n + n(n-1)) / n^3
        spec = parse_sigma_spec(EXP_SPEC)
        n = 1000
        v = sigma_values(spec, n)
        s1 = float(np.sum(np.longdouble(v)))
        s2 = float(np.sum(np.longdouble(v) ** 2))
        smax = max(v)
        expected = 2.0 * (s1 / n) ** 2 * (s2 / n) - smax ** 4 * (n + n * (n - 1)) / n ** 3
        got = moment_lower_bound(v, 2)
        assert got == pytest.approx(expected, rel=1e-12)
        # reference numeric value for this family
        assert got == pytest.approx(1.394e-2, rel=1e-3)

    def test_constant_profile_approaches_limit_from_below(self):
        prev = -math.inf
        for n in (100, 1000, 10_000):
            val = moment_lower_bound(np.ones(n), 1)
            assert val < 1.0
            assert val > prev
            prev = val
        assert prev == pytest.approx(1.0, abs=2e-3)

    def test_boundary_n_equals_s_plus_one(self):
        val = moment_lower_bound(np.ones(3), 2)
        assert math.isfinite(val)
        # for a strongly decaying profile the correction dominates at tiny n
        v = sigma_values(parse_sigma_spec(EXP_SPEC), 3)
        assert moment_lower_bound(v, 2) < 0

    def test_rejects_n_le_s(self):
        with pytest.raises(ValueError):
            moment_lower_bound(np.ones(2), 2)

    @pytest.mark.parametrize("values", [[1.0, -1.0, 2.0, 0.5], [1.0, math.nan, 2.0, 0.5]])
    def test_rejects_bad_sigma(self, values):
        with pytest.raises(SigmaDomainError):
            moment_lower_bound(values, 1)

    def test_rejects_order_above_max(self):
        with pytest.raises(ValueError, match="exceeds supported range"):
            moment_lower_bound(np.ones(100), 65)

    def test_scaling_covariance(self):
        rng = np.random.default_rng(11)
        v = rng.uniform(0.3, 1.0, size=50)
        c = 2.0
        for s in (1, 2, 3):
            assert moment_lower_bound(c * v, s) == pytest.approx(
                c ** (2 * s) * moment_lower_bound(v, s), rel=1e-11
            )


class TestUpperBound:
    def test_theta_second_implementation(self):
        # independent log-space evaluation of the same display
        n, s, K, smax, smin = 500, 3, 1.0, 1.0, 0.5
        log_theta = (
            2 * math.log(K)
            + 6 * math.log(s)
            - math.log(2 * n)
            - 2 * math.log(smax)
            + 2 * s * (math.log(smax) - math.log(smin))
            + (s - 1) * math.log(n)
            - (s + 1) * math.log(n - s)
        )
        assert theta_factor(n, s, K, smax, smin) == pytest.approx(
            math.exp(log_theta), rel=1e-12
        )

    def test_identity_profile_large_n(self):
        n, s = 10 ** 6, 2
        theta = theta_factor(n, s, 1.0, 1.0, 1.0)
        assert theta < 1e-4
        val = moment_upper_bound(n, s, 1.0, 1.0, 1.0, 2.0)
        assert val == pytest.approx((1 + 2 * theta) * 2.0, rel=1e-14)
        assert val == pytest.approx(2.0, rel=1e-3)

    def test_rejects_n_le_s(self):
        with pytest.raises(ValueError):
            moment_upper_bound(3, 3, 1.0, 1.0, 1.0, 1.0)

    def test_overflow_returns_inf(self):
        assert moment_upper_bound(40, 30, 1.0, 1.0, 1e-12, 1.0) == math.inf
        assert theta_factor(50, 40, 1.0, 1.0, 1e-200) == math.inf  # the power ratio overflows
        assert theta_factor(201, 200, 1.0, 1.0, 1.0) == math.inf  # so does 201^199 / 1

    def test_bound_coherence_where_nonvacuous(self):
        # lower <= (1 + theta s) * limit whenever the lower bound is positive
        spec = parse_sigma_spec("const:1")
        for n, s in ((200, 1), (500, 2), (1000, 3)):
            v = sigma_values(spec, n)
            lower = moment_lower_bound(v, s)
            if lower <= 0:
                continue
            upper = moment_upper_bound(n, s, 1.0, 1.0, 1.0, float(CATALANS[s - 1]))
            assert lower <= upper


@pytest.mark.parametrize("n_of", [lambda s: s + 1, lambda s: 50, lambda s: 4000,
                                  lambda s: 10 ** 6], ids=["s+1", "50", "4000", "1e6"])
def test_integer_ratios_round_as_fractions_do(n_of):
    # theta's n^(s-1) / (n-s)^(s+1) and the lower bounds' correction over
    # n^(s+1) are int true divisions, bit for bit float(Fraction(a, b))
    K, smax, smin = 2.5, 1.7, 0.45
    for s in range(1, moments.MAX_ORDER + 1):
        n = n_of(s)
        if n <= s:
            continue
        ratio = float(Fraction(n ** (s - 1), (n - s) ** (s + 1)))
        expected = (K * K * s ** 6) / (2.0 * n * smax * smax) * (smax / smin) ** (2 * s) * ratio
        assert theta_factor(n, s, K, smax, smin).hex() == expected.hex()
        correction = sum(math.comb(n, j) * j ** (s + 1 - j) for j in range(1, s + 1))
        eps = smax ** (2 * s) * float(Fraction(correction, n ** (s + 1)))
        assert moments._lower_bounds(n, smax, [0.0] * s)[-1].hex() == (-eps).hex()


class TestOddMomentBound:
    def test_s_zero_reduction(self):
        # prefactor collapses to K/sqrt(n)
        for n in (10, 1000):
            assert odd_moment_bound(n, 0, 2.0, 1.0) == pytest.approx(
                2.0 / math.sqrt(n), rel=1e-12
            )

    def test_decreasing_in_n(self):
        vals = [odd_moment_bound(n, 2, 1.0, 1.0) for n in (10, 20, 40, 80, 160)]
        assert all(b < a for a, b in zip(vals, vals[1:]))

    def test_monte_carlo_odd_moment_is_noise(self):
        spec = parse_sigma_spec(EXP_SPEC)
        cfg = EnsembleConfig(n=500, sigma=spec, seed=314159)
        mc = monte_carlo(cfg, trials=24, k_max=3)
        # false alarm per seed: |t| > 3 on 23 degrees of freedom, about 6.4e-3
        assert abs(mc.moment_means[2]) < 3.0 * mc.moment_stderrs[2]


def test_report_builder_attaches_bounds_and_flags():
    from rank1_spectra.reports import moment_table

    spec = parse_sigma_spec("const:1")
    report = moment_table(spec, 3, n=50)
    assert [row.order for row in report.rows] == [2, 4, 6]
    row = report.rows[-1]
    assert row.limit == pytest.approx(5.0)
    assert row.lower is not None and row.upper is not None
    assert row.lower_vacuous == (row.lower <= 0)


def test_a_moment_beyond_the_one_scale_is_an_error():
    # a file of 1.0 and 199999 values 1e-300 has m_128 below float64's normal
    # range at its scale, 2^0, where the series itself underflows: the table
    # names the order instead of writing a subnormal limit or a root of 0
    from rank1_spectra.reports import _check_normal

    _check_normal([1.0, 2.0 ** -1022], 3)
    for bad in (0.0, 2.0 ** -1030, math.inf):
        with pytest.raises(ValueError, match=r"m_4 leaves float64's range even at .* 2\^3$"):
            _check_normal([1.0, bad], 3)


def per_order_series(averages, s):
    """The tree series of one order on its own: phi^{s+1} truncated after w^{s-1},
    each coefficient summed left to right in an explicit loop (the builtin
    sum compensates float sums from Python 3.12 on)."""
    phi = [a if isinstance(a, (int, Fraction)) else float(a) for a in averages[:s]]
    power = [1] + [0] * (s - 1)
    for _ in range(s + 1):
        coefficients = []
        for k in range(s):
            total = power[0] * phi[k]
            for i in range(1, k + 1):
                total += power[i] * phi[k - i]
            coefficients.append(total)
        power = coefficients
    return power[s - 1] * Fraction(2, s + 1)


class TestOnePass:
    @pytest.mark.parametrize(
        "averages",
        [
            [Fraction(2 * j + 1, j * j + 3) for j in range(1, 25)],
            list(range(1, 65)),
            [lam(k) for k in range(1, 65)],
            list(np.random.default_rng(1409).uniform(0.1, 3.0, 64)),
            [S / 4000 for S in sigma_model.sigma_stats(np.linspace(0.5, 2.0, 4000), 64).partial_sums],
        ],
        ids=["fraction", "int", "exp", "uniform", "partial-averages"],
    )
    def test_all_orders_equal_each_order_alone(self, averages):
        s_max = len(averages)
        series = _tree_series(averages, s_max)
        reference = [per_order_series(averages, s) for s in range(1, s_max + 1)]
        assert [type(m) for m in series] == [type(m) for m in reference]
        assert series == reference  # exact for ints and Fractions, bit for bit for floats

    @pytest.fixture
    def sigma_file(self, tmp_path):
        values = np.random.default_rng(301).uniform(0.5, 2.0, 40)
        path = tmp_path / "sigma.txt"
        path.write_text("".join(repr(float(v)) + "\n" for v in values), encoding="utf-8")
        return parse_sigma_spec(f"file:{path}")

    def test_moment_table_evaluates_sigma_once(self, monkeypatch, sigma_file):
        # and runs one tree series: an explicit sequence's limits are the
        # lower bounds' main terms
        calls = {"sigma_values": 0, "sigma_stats": 0, "_tree_series": 0}

        def counting(name, fn):
            def wrapper(*args, **kwargs):
                calls[name] += 1
                return fn(*args, **kwargs)
            return wrapper

        for name in calls:
            fn = getattr(sigma_model, name, None) or getattr(moments, name)
            for module in (sigma_model, moments, reports):
                if getattr(module, name, None) is fn:
                    monkeypatch.setattr(module, name, counting(name, fn))
        reports.moment_table(sigma_file, 34, n=40)
        assert calls == {"sigma_values": 1, "sigma_stats": 1, "_tree_series": 1}

    @pytest.mark.parametrize("kind", ["const", "expr"])
    @pytest.mark.parametrize("table", ["moments", "radius"])
    def test_only_an_expression_sums_powers_for_its_rows(self, monkeypatch, table, kind):
        # a constant is its own average at n: its rows' main terms are the
        # table's series, and it runs no sigma_stats; an expression's rows run
        # their float series at S_{n,k}/n to s_top
        stats_k, series = [], []
        run_stats, run_series = sigma_model.sigma_stats, moments._tree_series

        def counting(values, k_max):
            stats_k.append(k_max)
            return run_stats(values, k_max)

        def tree_series(averages, s_max):
            series.append(("decimal" if isinstance(averages[0], Decimal) else "float", s_max))
            return run_series(averages, s_max)

        for module in (reports, moments):
            monkeypatch.setattr(module, "sigma_stats", counting)
            monkeypatch.setattr(module, "_tree_series", tree_series)
        spec = parse_sigma_spec("const:0.7" if kind == "const" else EXP_SPEC)
        if table == "moments":
            reports.moment_table(spec, 34, n=12)
            limits, s_top = ("float", 34), 11
        else:
            reports.radius_table(spec, orders=(2, 5, 40), n=200, s_bar=3)
            limits, s_top = ("decimal", 40), 40
        if kind == "const":
            assert stats_k == [] and series == [limits]
        else:
            assert stats_k == [s_top] and series == [limits, ("float", s_top)]

    def test_a_constant_is_never_evaluated_at_n(self, monkeypatch):
        # a constant's rows read n and its one value: neither table builds n
        # copies of it or sums their powers, at any n
        def refuse(*args, **kwargs):
            raise AssertionError("a constant was evaluated at n")

        for name in ("sigma_values", "sigma_stats"):
            fn = getattr(sigma_model, name)
            for module in [m for key, m in sys.modules.items() if key.startswith("rank1_spectra")]:
                if getattr(module, name, None) is fn:
                    monkeypatch.setattr(module, name, refuse)
        spec, n = parse_sigma_spec("const:0.7"), 2_000_000
        rows = reports.moment_table(spec, 64, n=n).rows
        assert all(row.lower is not None and row.upper is not None for row in rows)
        report = reports.radius_table(spec, orders=(2, 5, 40), n=n, s_bar=3)
        assert [(row.s, row.n) for row in report.rows] == [(2, n), (5, n), (40, n)]
        # the bounds are those of the one value: m_2 = c^2 less c^2 n / n^2
        assert rows[0].lower == 0.7 ** 2 - 0.7 ** 2 * (n / n ** 2)

    @pytest.mark.parametrize("kind, n", [("file", 40), ("file", 12), ("expr", 12)])
    def test_moment_table_rows_equal_each_order_alone(self, sigma_file, kind, n):
        s_max = 34
        spec = sigma_file if kind == "file" else parse_sigma_spec(EXP_SPEC)
        report = reports.moment_table(spec, s_max, n=n)
        values = sigma_values(spec, n)
        if kind == "file":  # the finite-n averages S_{n,k}/n stand in for the limit
            lambdas = [S / n for S in sigma_model.sigma_stats(values, s_max).partial_sums]
        else:
            lambdas, _, _ = reports.lambda_vector(spec, s_max)
            lambdas = [float(a) for a in lambdas]  # a table's series runs in float64
        assert len(report.rows) == s_max
        for s, row in enumerate(report.rows, start=1):
            assert row.limit == float(limiting_even_moment(lambdas, s))
            if s < n:
                assert row.lower == moment_lower_bound(values, s)
                assert row.upper is not None
            else:
                assert row.lower is None and row.upper is None


def _fdot_series(averages, s_max):
    """The tree series with each coefficient one correctly rounded
    ``mpmath.fdot``, at the current mp precision, of Decimal averages."""
    from mpmath import fdot, mpf

    averages = [mpf(str(a)) for a in averages]
    power, series = list(averages), []
    for s in range(1, s_max + 1):
        power = [fdot(power[:k + 1], averages[k::-1]) for k in range(s_max)]
        series.append(power[s - 1] * Fraction(2, s + 1))
    return series


def _exp_lambdas(k_max, scale=1):
    """(1 - e^{-4k})/(4k) scale^k in the current decimal context."""
    return [scale ** k * (1 - Decimal(-4 * k).exp()) / (4 * k) for k in range(1, k_max + 1)]


class TestFixedPointSeries:
    """`moments._fixed_point_series` against ``mpmath.fdot`` at 64 more bits:
    asked for D digits, each m_{2s} is within 2^-prec (1 + 2^-3) of the
    exact series, prec the bits of mpmath at D digits, the bound of the mpf
    series it replaced: its docstring proves 10^(1-P) (1/2 + 1/80) at the
    P = D + _GUARD_DIGITS digits it carries, under 10^-(D+1) (1/2 + 1/80).
    The oracle's own error is (2 s_max + 2) 2^-(prec+64) at most."""

    @pytest.mark.parametrize("case, s_bar", [
        ("exp", 14), ("exp", 25), ("exp", 31), ("const:1000", 14),
        ("0.0078125*exp", 14), ("file", 14),
    ])
    def test_within_the_proven_bound(self, tmp_path, case, s_bar):
        from mpmath import mp, mpf

        k_max = 2 * s_bar + 1
        digits = max(30, 2 * s_bar + 10)  # the digits of reports.radius_table
        with localcontext(_context(digits + _GUARD_DIGITS)):
            if case == "exp":
                averages = _exp_lambdas(k_max)
            elif case == "const:1000":
                averages = [Decimal(1000) ** k for k in range(1, k_max + 1)]
            elif case == "0.0078125*exp":
                averages = _exp_lambdas(k_max, Decimal(0.0078125))
            else:
                values = np.random.default_rng(3).uniform(0.5, 2.0, 500)
                path = tmp_path / "sigma.txt"
                path.write_text("".join(repr(float(v)) + "\n" for v in values), encoding="utf-8")
                averages = list(quadrature.limiting_averages(
                    parse_sigma_spec(f"file:{path}"), k_max, 1e-8, digits).values)
            got = _tree_series(averages, k_max)
        with mp.workdps(digits):
            prec = mp.prec
        with mp.workprec(prec + 64):
            exact = _fdot_series(averages, k_max)
            assert all(isinstance(m, Decimal) for m in got)
            for m, want in zip(got, exact):
                assert abs(mpf(str(m)) - want) <= (1 + 2 ** -3 + 2 ** -40) * mpf(2) ** -prec * want

    def test_tiny_and_huge_averages_scale_exactly(self, monkeypatch):
        # sigma -> c sigma multiplies m_2s by c^2s; with c a power of 2 the
        # scaling is exact up to the one rounding, so each m_2s of the
        # exactly scaled averages is the base series' unrounded m_2s times
        # c^2s, rounded once to the context's digits
        unrounded, to_decimal = [], moments._from_binary

        def capture(man, exp, ctx):
            unrounded.append(Fraction(man) * Fraction(2) ** exp)
            return to_decimal(man, exp, ctx)

        with localcontext(_context(38 + _GUARD_DIGITS)) as ctx:
            base_averages = _exp_lambdas(29)
            monkeypatch.setattr(moments, "_from_binary", capture)
            base = _tree_series(base_averages, 29)
            monkeypatch.undo()
            assert base == [ctx.divide(m.numerator, m.denominator) for m in unrounded]
            for log2c in (-7, 10):
                with localcontext(_context(400)):  # exact: under 200 digits
                    averages = [a * Decimal(2) ** (log2c * k)
                                for k, a in enumerate(base_averages, start=1)]
                want = [m * Fraction(2) ** (2 * s * log2c) for s, m in enumerate(unrounded, 1)]
                assert _tree_series(averages, 29) == [ctx.divide(m.numerator, m.denominator)
                                                      for m in want]
