import math

import pytest

from rank1_spectra import validation
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
