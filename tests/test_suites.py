"""Every identity-check suite at a small count, as the library's own runner reports it,
and the attempts and rejections a seeded record counts."""

from dataclasses import dataclass
from itertools import count

import pytest

from cornercalc.cells import FibreProductError, MapError
from cornercalc.randgen import GenerationError
from cornercalc.suites import _ATTEMPT_BUDGET, SUITES, CheckRecord, _seeded_record, run_suite

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


def test_pullback_suite_at_thirty_draws():
    # by this count the d record meets pullbacks with a nonzero boundary
    # where dim Y - dim Y' is odd, so a boundary sign of (-1)^(dim Y - dim Y')
    # on one side fails it
    result = run_suite("pullback", seed=0, count=30)
    assert result.ok, [r for r in result.records if not r.ok]
    assert [r.name for r in result.records] == [
        "pullback commutes with d",
        "the pullback of a cup is the cup of the pullbacks",
        "pulling back along a composite pulls back twice"]


@dataclass
class _Report:
    ok: bool = True
    precondition: bool = True
    checked: int = 1
    details: tuple = ()


def _scripted(errors: dict, off: set):
    """A sampler numbering its draws 1, 2, ... and raising errors[i] on draw i,
    and a check whose precondition is false on the draws in off."""
    draws = count(1)

    def sample():
        i = next(draws)
        if i in errors:
            raise errors[i]("scripted")
        return i

    return sample, lambda i: _Report(precondition=i not in off)


def test_seeded_record_counts_attempts_and_rejections():
    sample, check = _scripted({2: GenerationError, 5: GenerationError, 7: FibreProductError},
                              off={3, 6, 8})
    rec = _seeded_record("scripted", 4, sample, check)
    # draws 1, 4, 9 and 10 are accepted
    assert rec.ok and rec.checked == 4 and rec.details == ()
    assert rec.attempts == 10
    assert rec.rejected == (("FibreProductError", 1), ("GenerationError", 2), ("precondition", 3))


def test_seeded_record_counts_an_exhausted_budget():
    sample, check = _scripted({i: GenerationError for i in range(1, 1000, 2)}, off=set(range(2, 1000, 2)))
    rec = _seeded_record("starved", 2, sample, check)
    assert not rec.ok and rec.checked == 0
    assert rec.attempts == 2 * _ATTEMPT_BUDGET
    assert rec.rejected == (("GenerationError", _ATTEMPT_BUDGET), ("precondition", _ATTEMPT_BUDGET))
    assert rec.details == ("only 0 of 2 instances met the precondition within the retry budget",)


def test_seeded_record_counts_precondition_misses_by_reason():
    # a refusal is counted under its first detail, and under "precondition"
    # when it gives none
    reasons = {2: ("inner product not transverse", "unread"), 3: ("non-transverse component",),
               4: ("inner product not transverse",), 5: ()}
    draws = count(1)

    def check(i):
        return _Report(precondition=i not in reasons, details=reasons.get(i, ()))

    rec = _seeded_record("reasons", 2, lambda: next(draws), check)
    assert rec.ok and rec.attempts == 6
    assert rec.rejected == (("inner product not transverse", 2), ("non-transverse component", 1),
                            ("precondition", 1))


def test_check_record_defaults():
    rec = CheckRecord("plain", True, 3)
    assert rec and (rec.attempts, rec.rejected) == (0, ())
    assert not CheckRecord("failed", False, 1, ("why",))
