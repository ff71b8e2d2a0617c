"""Every identity-check suite at a small count, as the library's own runner reports it."""

import pytest

from cornercalc.cells import MapError
from cornercalc.suites import SUITES, run_suite

MIXED_KIND = pytest.mark.xfail(
    strict=True, raises=MapError,
    reason="pairs mixing a line and a circle target end in MapError "
           "('product targets must have the same kind') until targets R^a x T^b exist")


@pytest.mark.parametrize("name", [
    pytest.param(name, marks=MIXED_KIND) if name in ("associativity", "interchange")
    else name for name in SUITES])
def test_suite_passes(name):
    result = run_suite(name, seed=0, count=6)
    assert result.ok, [r for r in result.records if not r.ok]
