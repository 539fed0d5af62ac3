import json
import math
from decimal import Decimal, localcontext
from fractions import Fraction

import numpy as np
import pytest

from rank1_spectra.combinatorics import catalan
from rank1_spectra.moments import limiting_even_moment, moment_lower_bound, moment_upper_bound
from rank1_spectra.moments import _limits
from rank1_spectra.radius_bounds import (
    InvalidMomentSequenceError,
    _count_below,
    _digits,
    _root_bound,
    build_pencil,
    sdp_lower_bound,
)
from rank1_spectra.sigma_model import _GUARD_DIGITS, _context, parse_sigma_spec, sigma_values
from rank1_spectra.validation import brackets_beta, certifies

EXP_SPEC = "expr:exp(-4*i/n)"


def lam(k: int) -> float:
    return (1.0 - math.exp(-4.0 * k)) / (4.0 * k)


def exp_family_moments(count: int):
    lams = [lam(k) for k in range(1, count + 1)]
    return [float(limiting_even_moment(lams[:s], s)) for s in range(1, count + 1)]


def catalan_moments(count: int):
    return [float(catalan(s)) for s in range(1, count + 1)]


def lower_root(values, s: int):
    """m_lower^{1/2s}, the lower bound of a `radius --orders` row (None where
    m_lower <= 0)."""
    return _root_bound(moment_lower_bound(values, s), s)


def upper_root(n: int, s: int, K: float, sigma_max: float, sigma_min: float, m_limit: float):
    """(n (1 + theta s) m_{2s})^{1/2s}, the upper bound of a `radius --orders` row."""
    return _root_bound(n * moment_upper_bound(n, s, K, sigma_max, sigma_min, m_limit), s)


class TestBuildPencil:
    def test_semicircle_s_bar_one(self):
        pencil = build_pencil(catalan_moments(3), 1)
        assert pencil.nu == (1.0, 1.0, 2.0, 5.0)
        # H0 = [[1, 1], [1, 2]] and H1 = [[1, 2], [2, 5]]: the free Poisson law's
        # recurrence a = (1, 2, 2, ..), b = (0, 1, 1, ..)
        assert (pencil.a, pencil.b) == ((1, 2), (0, 1))

    def test_h0_corner_is_one(self):
        pencil = build_pencil(exp_family_moments(3), 1)
        assert pencil.nu[0] == 1  # H0[0][0]

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
            assert certifies(pencil, res.beta, tol)
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

    @pytest.mark.parametrize("c", [1e-156, 1e-300])
    def test_sqrt_beta_keeps_its_digits_below_float_range(self, c):
        # beta = 3.96 c^2 is a subnormal float at c = 1e-156 and reads 0 at
        # 1e-300, where sqrt(beta) = 1.99 c is a normal float; the root of
        # the float beta lost digits or read 0
        from rank1_spectra.reports import radius_table

        base = radius_table(parse_sigma_spec("const:1"), s_bar=14).sdp.sqrt_beta
        sdp = radius_table(parse_sigma_spec(f"const:{c!r}"), s_bar=14).sdp
        assert sdp.sqrt_beta == pytest.approx(base * c, rel=1e-15, abs=0)
        assert sdp.beta == pytest.approx(base * base * c * c, rel=1e-3, abs=0)

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
            b = lower_root(np.ones(n), 5)
            assert prev < b < target
            prev = b
        assert prev == pytest.approx(target, rel=0.002)

    def test_vacuous_at_tiny_n(self):
        v = sigma_values(parse_sigma_spec(EXP_SPEC), 3)
        assert lower_root(v, 2) is None

    def test_upper_bound_identity_profile(self):
        from rank1_spectra.moments import theta_factor

        n, s = 10 ** 6, 2
        th = theta_factor(n, s, 1.0, 1.0, 1.0)
        b = upper_root(n, s, 1.0, 1.0, 1.0, 2.0)
        assert b == pytest.approx((n * (1 + 2 * th) * 2.0) ** 0.25, rel=1e-13)

    def test_upper_bound_trend_toward_semicircle_edge(self):
        # with the order growing like n^0.4 the bound sinks toward the
        # support edge 2 (at s ~ log n it would saturate at 2*sqrt(e): the
        # n^{1/2s} inflation needs s to outgrow log n)
        vals = []
        for n in (10 ** 3, 10 ** 4, 10 ** 5, 10 ** 6):
            s = round(n ** 0.4)
            m = float(math.comb(2 * s, s) // (s + 1))  # sigma = 1 moment
            vals.append(upper_root(n, s, 1.0, 1.0, 1.0, m))
        assert all(v > 2.0 for v in vals)
        assert all(b < a for a, b in zip(vals, vals[1:]))
        assert vals[-1] < 2.05

    def test_upper_overflow_flag(self):
        assert upper_root(40, 30, 1.0, 1.0, 1e-12, 1.0) == math.inf

    def test_upper_bound_flags_a_product_that_overflows(self):
        # theta is finite here; n (1 + theta s) m_{2s} is not
        assert upper_root(10 ** 6, 2, 1.0, 1.0, 1.0, 1e305) == math.inf


def test_an_upper_root_past_float64_once_scaled_back_overflows(tmp_path):
    # at the table's scale 2^-e, e = 598, n m_up at s = 1 is 1.6e257 (theta
    # 8.4e258); its root times 2^e is past float64, and the row flags it as a
    # moment row flags an upper bound of +inf.  beta, past float64 too, needs
    # a --tol its 60 digits can resolve
    from rank1_spectra import cli

    out = tmp_path / "radius.json"
    assert cli.main(["radius", "--sigma", "expr:1e180*exp(-310*i/n)", "--n", "2000",
                     "--orders", "1", "--sbar", "3", "--tol", "1e300", "--lambda-tol", "1e-3",
                     "--out", str(out)]) == 0
    (row,) = json.loads(out.read_text(encoding="utf-8"))["radius"]["orders"]
    assert (row["upper"], row["upper_overflow"]) == (None, True)
    assert _root_bound(1e300, 1, 598) == math.inf


def test_sqrt_beta_below_theta_upper_bound():
    # the SDP lower bound on the asymptotic radius cannot exceed an upper
    # bound on the expected radius (1e-6 slack)
    ms = catalan_moments(29)
    res = sdp_lower_bound(build_pencil(ms, 14), 1e-10)
    n, s = 10 ** 4, 8
    upper = upper_root(n, s, 1.0, 1.0, 1.0, ms[s - 1])
    assert res.sqrt_beta <= upper + 1e-6


def test_report_builder_smoke():
    from rank1_spectra.reports import radius_table

    spec = parse_sigma_spec(EXP_SPEC)
    report = radius_table(spec, orders=(3,), n=120, s_bar=2, lambda_tol=1e-6)
    assert report.sdp is not None
    assert report.sdp.s_bar == 2
    (row,) = report.rows
    assert row.s == 3 and row.n == 120
    if not row.lower_vacuous:
        assert row.upper_companion == pytest.approx(120 ** (1 / 6) * row.lower, rel=1e-12)
    assert report.asymptotic_root is not None


def test_report_builder_rejects_an_order_of_n_or_more():
    from rank1_spectra.reports import radius_table

    with pytest.raises(ValueError, match="order s=3 needs n > s, got n=3"):
        radius_table(parse_sigma_spec("const:1"), orders=(1, 3), n=3, s_bar=2)


@pytest.mark.parametrize("n", [50, 2000])
def test_upper_companion_is_the_sandwich_at_the_moment_lower_bound(n):
    # (n m_low)^{1/2s} from m_low itself, not from its rounded root raised
    # back to the 2s-th power
    from rank1_spectra.reports import radius_table

    spec = parse_sigma_spec(EXP_SPEC)
    values = sigma_values(spec, n)
    report = radius_table(spec, orders=range(1, 41), n=n, s_bar=1)
    rows = [row for row in report.rows if not row.lower_vacuous]
    assert rows
    for row in rows:
        m_low = moment_lower_bound(values, row.s)
        assert row.upper_companion == (n * m_low) ** (1.0 / (2 * row.s))


def test_cli_passes_its_defaults_to_radius_table(tmp_path, monkeypatch):
    import inspect

    from rank1_spectra import cli, reports

    calls = []
    real = reports.radius_table

    def capture(*args, **kwargs):
        calls.append(kwargs)
        return real(*args, **kwargs)

    monkeypatch.setattr(reports, "radius_table", capture)
    argv = ["radius", "--sigma", "const:1", "--out", str(tmp_path / "r.json")]
    assert cli.main(argv) == 0
    [kwargs] = calls
    args = cli.build_parser().parse_args(argv)
    assert (kwargs["s_bar"], kwargs["sdp_tol"], kwargs["lambda_tol"]) == (
        args.sbar, args.tol, args.lambda_tol)
    params = inspect.signature(real).parameters
    for name in ("s_bar", "sdp_tol", "lambda_tol"):
        assert kwargs[name] == params[name].default


def test_asymptotic_root_scales_with_sigma_exactly():
    # the root of the Decimal moment: a power-of-two scale of sigma moves it by
    # that scale to the bit, which the float root of the float moment missed
    from rank1_spectra.reports import radius_table

    one, small = (radius_table(parse_sigma_spec(text), s_bar=14).asymptotic_root
                  for text in ("const:1", "const:0.0078125"))
    assert small == one * 2.0 ** -7


def mp_exp_pencil(s_bar: int, digits: int):
    """The exp profile's pencil from its closed-form Lambda, with the moments
    in Decimal at ``digits`` digits, the context a layer asked for them opens."""
    with localcontext(_context(digits + _GUARD_DIGITS)):
        lams = [(1 - Decimal(-4 * k).exp()) / (4 * k) for k in range(1, 2 * s_bar + 2)]
        return build_pencil(_limits(lams, 2 * s_bar + 1), s_bar)


# --- the Sturm solve against mp.cholesky of the matrix pencil ---------------

def _battery():
    """80 pencils: the exp profile at eight s_bar from Decimal moments, Catalan
    at 14, and 71 random atomic measures with atoms at scales 1 to 1e30."""
    cases = [(f"exp-{s_bar}", mp_exp_pencil(s_bar, 2 * s_bar + 10), 1e-10)
             for s_bar in (1, 3, 6, 10, 14, 20, 25, 31)]
    with localcontext(_context(60)):  # exact integers, their unit 1e-59 rather than 2^-53
        cases.append(("catalan-14", build_pencil([catalan(s) for s in range(1, 30)], 14), 1e-10))
    rng = np.random.default_rng(2024)
    for case in range(71):
        scale = 10.0 ** [0, 3, 10, 22, 30][case % 5]
        s_bar = int(rng.integers(1, 7 if scale < 1e22 else 5))
        atoms = rng.uniform(0.1, 2.5, size=s_bar + 2) * scale
        weights = rng.dirichlet(np.ones(s_bar + 2))
        nu = [float(np.sum(weights * atoms ** t)) for t in range(1, 2 * s_bar + 2)]
        cases.append((f"atoms-{case}", build_pencil(nu, s_bar), 1e-8))
    return cases


def test_beta_matches_the_matrix_oracle():
    """mp.cholesky of the matrix pencil H0 x - H1 certifies every battery
    pencil's beta to h = tol + 2 ulp(beta), the claim of the Sturm counts of
    `sdp_lower_bound` (J - xI is congruent to H1 - x H0): it factors at
    beta + h and not at beta - h, so it rejects every bracket moved by 2h."""
    for label, pencil, tol in _battery():
        assert certifies(pencil, sdp_lower_bound(pencil, tol).beta, tol), label


@pytest.mark.parametrize("s_bar", [3, 14])
def test_sturm_count_matches_mp_cholesky_on_the_shifted_pencil(s_bar):
    # J - xI is congruent to H1 - x H0: all s_bar + 1 Jacobi eigenvalues lie
    # below x exactly when H0 x - H1 factors
    pencil = mp_exp_pencil(s_bar, 2 * s_bar + 10)
    beta = sdp_lower_bound(pencil, 1e-10).beta
    with localcontext(_context(_digits(s_bar))):
        for half in (Decimal(1e-10), Decimal(1e-3)):
            lo, hi = Decimal(beta) - half, Decimal(beta) + half
            assert _count_below(pencil.a, pencil.b, hi) == s_bar + 1
            assert _count_below(pencil.a, pencil.b, lo) < s_bar + 1
            assert brackets_beta(pencil, lo, hi)
            assert not brackets_beta(pencil, lo - half, lo)
            assert not brackets_beta(pencil, hi, hi + half)


def test_condition_bounds_the_digits_lost():
    # the recurrence from 38-digit moments against one from 120-digit ones:
    # every coefficient keeps 38 - log10(condition) digits, give or take one
    s_bar = 14
    coarse, fine = mp_exp_pencil(s_bar, 38), mp_exp_pencil(s_bar, 120)
    with localcontext(_context(120)):
        worst = max(abs(x / y - 1) for x, y in zip(coarse.a + coarse.b[1:], fine.a + fine.b[1:]))
    assert 1e10 < coarse.condition < 1e20
    assert worst <= Decimal(coarse.condition) * Decimal("1e-37")
    assert worst > Decimal("1e-100")  # the coarse moments do lose digits


def test_condition_estimate_is_scale_free():
    from rank1_spectra.reports import radius_table

    conds = {c: radius_table(parse_sigma_spec(f"expr:{c}*exp(-4*i/n)"), s_bar=6).sdp
             .condition_estimate for c in ("0.0078125", "1", "3")}
    assert conds["0.0078125"] == conds["1"]
    assert conds["3"] == pytest.approx(conds["1"], rel=1e-12)


def test_finite_support_ends_the_recurrence():
    # three exact atoms: b_3 is 0, and beta is the top atom at any s_bar
    atoms, weights = (Fraction(1, 2), Fraction(3, 2), Fraction(5, 2)), (Fraction(1, 3),) * 3
    nu = [sum(w * x ** t for w, x in zip(weights, atoms)) for t in range(1, 12)]
    pencil = build_pencil(nu, 5)
    assert len(pencil.a) == len(pencil.b) == 3
    assert sdp_lower_bound(pencil, 1e-12).beta == pytest.approx(2.5, rel=1e-15)


# --- scale and finite support ------------------------------------------------

def test_small_sigma_beta_is_the_scaled_beta_bit_for_bit():
    from rank1_spectra.reports import radius_table

    beta = {}
    for scale in ("", "0.0078125*"):
        spec = parse_sigma_spec(f"expr:{scale}exp(-4*i/n)")
        beta[scale] = radius_table(spec, lambda_tol=1e-7).sdp.beta
    # sigma -> 2^-7 sigma scales nu_s by 2^-14s and beta by 2^-14
    assert beta["0.0078125*"] == beta[""] / 16384


def test_two_astronomical_atoms_are_certified():
    # two atoms: the recurrence ends after two steps, and H0 is singular but
    # for the float moments' rounding
    atoms = (0.5e22, 1e22)
    nu = [0.5 * (atoms[0] ** t + atoms[1] ** t) for t in range(1, 8)]
    pencil = build_pencil(nu, 3)
    res = sdp_lower_bound(pencil, 1e-8)
    assert res.beta == pytest.approx(1e22, rel=1e-12)
    assert certifies(pencil, res.beta, 1e-8)


@pytest.mark.parametrize("s_bar, want", [(14, 0.6010092398), (20, 0.6040969222),
                                          (25, 0.6052315803), (31, 0.6059610880)])
def test_exp_profile_beta_matches_the_exact_lambda_reference(s_bar, want):
    # references: mp.eigsy of the pencil of exact Lambda_k = (1 - e^{-4k})/(4k);
    # E^2 = 0.6073973333 is the squared limiting edge, which beta bounds from below
    from rank1_spectra.reports import radius_table

    sdp = radius_table(parse_sigma_spec(EXP_SPEC), s_bar=s_bar).sdp  # raises unless certified
    assert abs(sdp.beta - want) <= 1e-9
    assert sdp.beta <= 0.6073973333


# --- radius_table with --orders ---------------------------------------------

def test_radius_table_orders_evaluate_sigma_once(tmp_path, monkeypatch):
    from rank1_spectra import moments, reports, sigma_model

    values = np.random.default_rng(5).uniform(0.5, 2.0, size=4000)
    path = tmp_path / "sigma.txt"
    path.write_text("\n".join(repr(float(v)) for v in values) + "\n", encoding="utf-8")
    spec = parse_sigma_spec(f"file:{path}")
    orders = (2, 5, 9, 20, 40, 64)

    calls, evaluations, series = [], [], []
    run_series, run_values = moments._tree_series, sigma_model.sigma_values

    def counting(values, k_max):
        calls.append(k_max)
        return sigma_model.sigma_stats(values, k_max)

    def evaluating(spec, n):
        evaluations.append(n)
        return run_values(spec, n)

    def tree_series(averages, s_max):
        series.append("decimal" if isinstance(averages[0], Decimal) else "float")
        return run_series(averages, s_max)

    for module in (reports, moments):
        monkeypatch.setattr(module, "sigma_stats", counting)
    for module in (reports, sigma_model):
        monkeypatch.setattr(module, "sigma_values", evaluating)
    monkeypatch.setattr(moments, "_tree_series", tree_series)
    report = reports.radius_table(spec, orders=orders, n=4000, s_bar=3)
    # the rows read only n and the extremes of sigma at n: no sigma_stats
    assert calls == []
    # the limiting averages count the file's values; only the rows evaluate sigma
    assert evaluations == [4000]
    # one Decimal series, at the exact S_{n,k}/n, feeds the SDP and every
    # bound of the rows: the lower bounds' main terms are its moments
    assert series == ["decimal"]
    series.clear()
    reports.radius_table(spec, n=4000, s_bar=3)
    assert series == ["decimal"]
    assert evaluations == [4000]  # no rows, no evaluation
    monkeypatch.undo()

    # each row is what the per-order bounds give at the table's one scale,
    # sigma / 2^e with the largest sigma in [1/2, 1), scaled back by 2^e, at
    # the limit of the exact averages correctly rounded; the lower bound is
    # that limit less the repeated-label count, sigma_max^{2s} / n at s <= 2
    # and C_s sigma_max^{2s} (1 - n (n-1) ... (n-s) / n^{s+1}) above
    e = math.frexp(float(values.max()))[1]
    values = [math.ldexp(float(v), -e) for v in values]
    n, smax, smin = 4000, max(values), min(values)
    ratios = [v.as_integer_ratio() for v in values]
    den = max(d for _, d in ratios)  # a power of 2, so every v_i is an integer over it
    ints = [m * (den // d) for m, d in ratios]
    powers, lams = ints, []
    with localcontext(_context(60)) as ctx:
        for k in range(1, 65):
            lams.append(ctx.divide(sum(powers), n * den ** k))
            powers = [p * m for p, m in zip(powers, ints)]
    for row, s in zip(report.rows, orders):
        with localcontext(_context(60)):
            limit = float(limiting_even_moment(lams[:s], s))
        count = n ** s if s <= 2 else catalan(s) * (n ** (s + 1) - math.perm(n, s + 1))
        m_low = limit - smax ** (2 * s) * (count / n ** (s + 1))
        lower = _root_bound(m_low, s)
        upper = upper_root(n, s, smax, smax, smin, limit)
        assert row.s == s
        assert row.upper == math.ldexp(upper, e)
        assert row.lower_vacuous == (lower is None) == (s >= 9)
        if lower is None:
            assert row.lower is None and row.upper_companion is None
            continue
        assert row.lower == math.ldexp(lower, e)
        assert row.upper_companion == math.ldexp((n * m_low) ** (1.0 / (2 * s)), e)


def test_radius_table_of_a_constant_is_that_of_its_values(tmp_path):
    # n copies of c average c^k at n, the constant's Lambda_k, so both give
    # the same series, SDP and rows
    from rank1_spectra.reports import radius_table

    path = tmp_path / "sigma.txt"
    path.write_text("0.7\n" * 20000, encoding="utf-8")
    const, explicit = (radius_table(parse_sigma_spec(text), orders=(2, 5, 40), n=20000, s_bar=3)
                       for text in ("const:0.7", f"file:{path}"))
    assert const.rows == explicit.rows
    assert const.sdp == explicit.sdp
