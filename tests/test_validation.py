import pytest

from rank1_spectra.validation import CHECKS


@pytest.mark.parametrize("check", [check for _, check in CHECKS], ids=[name for name, _ in CHECKS])
def test_check_passes(check):
    passed, detail = check(False)
    assert passed, detail
