import math
import re
from decimal import Decimal, localcontext
from fractions import Fraction

import numpy as np
import pytest

from rank1_spectra import validation
from rank1_spectra.ensemble import EnsembleConfig, empirical_moments, sample_matrix
from rank1_spectra.radius_bounds import _digits, sdp_lower_bound
from rank1_spectra.sigma_model import _GUARD_DIGITS, _context, parse_sigma_spec
from rank1_spectra.validation import CHECKS


@pytest.mark.parametrize("check", [check for _, check in CHECKS], ids=[name for name, _ in CHECKS])
def test_check_passes(check):
    passed, detail = check(False)
    assert passed, detail


@pytest.mark.parametrize("sign", [1, -1])
def test_sdp_check_fails_on_a_beta_moved_by_two_half_widths(monkeypatch, sign):
    # 2h = 2 (tol + 2 ulp(beta)), about 2e-10 at tol 1e-10
    real = validation.sdp_lower_bound

    def moved(pencil, tol):
        res = real(pencil, tol)
        return res._replace(beta=res.beta + sign * 2 * (tol + 2 * math.ulp(res.beta)))

    monkeypatch.setattr(validation, "sdp_lower_bound", moved)
    passed, detail = validation.check_sdp_dual_method(False)
    assert not passed and "does not bracket" in detail, detail


def _leading_minors_positive(M) -> bool:
    """Sylvester's test on the exact matrix M: every leading principal minor
    > 0, each the pivot of a Bareiss elimination in integers (M scaled by
    the common denominator of its entries)."""
    entries = [[Fraction(v) for v in row] for row in M]
    d = math.lcm(*(v.denominator for row in entries for v in row))
    A = [[int(v * d) for v in row] for row in entries]
    previous = 1
    for k in range(len(A)):
        if A[k][k] <= 0:
            return False
        for i in range(k + 1, len(A)):
            for j in range(k + 1, len(A)):
                A[i][j] = (A[i][j] * A[k][k] - A[i][k] * A[k][j]) // previous
        previous = A[k][k]
    return True


def test_ldlt_decides_as_exact_arithmetic():
    """On the deep sdp check's pencils (s_bar <= 14, a superset of the
    default's), the Decimal LDL^T of H0 x - H1 at beta -/+ h and beta -/+
    3h, h = tol + 2 ulp(beta), decides as Sylvester's test on the exact
    matrix of the same nu and x."""
    tol, decisions = 1e-10, []
    for label, pencil in validation._sdp_battery(True):
        beta, m = sdp_lower_bound(pencil, tol).beta, len(pencil.a)
        with localcontext(_context(_digits(pencil.s_bar) + _GUARD_DIGITS)):
            h = Decimal(tol) + 2 * Decimal(math.ulp(beta))
            for x in (Decimal(beta) + c * h for c in (-3, -1, 1, 3)):
                exact = [[Fraction(pencil.nu[i + j]) * Fraction(x) - Fraction(pencil.nu[i + j + 1])
                          for j in range(m)] for i in range(m)]
                decided = validation._positive_definite(validation._shifted(pencil, x))
                assert decided == _leading_minors_positive(exact), (label, x)
                decisions.append(decided)
    # beta -/+ h and -/+ 3h fall on the two sides of every pencil's minimum
    assert decisions == [False, False, True, True] * (len(decisions) // 4)


def test_trace_check_fails_on_an_eigenvalue_moved_by_1e_9_of_the_norm(monkeypatch):
    # m_1 * n == sum(lam) sums the same eigenvalues twice and cannot see the
    # move; the trace of the sampled matrix can
    real = validation.eigenvalues

    def moved(matrix):
        lam = real(matrix)
        lam[..., 0] += 1e-9 * np.max(np.abs(lam))
        return lam

    monkeypatch.setattr(validation, "eigenvalues", moved)
    passed, detail = validation.check_simulation_consistency(False)
    assert not passed and "eigenvalue sum - trace" in detail, detail
    cfg = EnsembleConfig(n=60, sigma=parse_sigma_spec(validation.EXP_SPEC), seed=99)
    lam = validation.eigenvalues(sample_matrix(cfg, 0))
    assert abs(empirical_moments(lam, 1)[0] * cfg.n - np.sum(lam)) <= 1e-9


def test_walk_check_fails_on_an_eigenvalue_moved_by_1e_9_of_the_norm(monkeypatch):
    # one eigenvalue of one of the 64 sign patterns
    real = validation.eigenvalues

    def moved(matrix):
        lam = real(matrix)
        lam[0, 0] += 1e-9 * np.max(np.abs(lam))
        return lam

    monkeypatch.setattr(validation, "eigenvalues", moved)
    passed, detail = validation.check_walk_oracle(False)
    assert not passed and "k=1:" in detail, detail


@pytest.mark.parametrize("k", range(1, 9))
def test_walk_check_fails_on_an_oracle_order_moved_by_a_relative_1e_9(monkeypatch, k):
    # an odd order, exactly 0, moves to the smallest subnormal instead
    real = validation.exact_expected_moment

    def moved(n, order, values):
        exact = real(n, order, values)
        if order != k:
            return exact
        return {law: value * (1 + 1e-9) or 5e-324 for law, value in exact.items()}

    monkeypatch.setattr(validation, "exact_expected_moment", moved)
    passed, detail = validation.check_walk_oracle(False)
    assert not passed and re.search(rf"\bk={k}\b", detail), detail
