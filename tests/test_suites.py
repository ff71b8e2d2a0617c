"""Every identity-check suite at a small count, as the library's own runner reports it,
and the attempts and rejections a seeded record counts."""

from dataclasses import dataclass, replace
from itertools import count

import pytest

from cornercalc import suites
from cornercalc.cells import FibreProductError, MapError
from cornercalc.chains import Chain, PairingReport
from cornercalc.maps import CheckReport
from cornercalc.orbifold import IotaReport
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


# Negative controls of the suites' own failure reports: a check patched in
# the suites' namespace to fail must turn its record false, with the detail.

def _failing(result, name):
    (rec,) = [r for r in result.records if r.name == name]
    assert not rec.ok and not result.ok
    return rec.details


def test_dd_zero_suite_reports_an_unpaired_corner(monkeypatch):
    monkeypatch.setattr(suites, "verify_dd_zero",
                        lambda c: PairingReport(False, 0, ("corner fault",)))
    details = _failing(run_suite("dd-zero", seed=0, count=2),
                       "every corner pairs with its facet swap at opposite orientation")
    assert details == ("chain 0: corner fault", "chain 1: corner fault")


def test_strata_suite_reports_a_wrong_dimension(monkeypatch):
    stratum = suites.orbifold_stratum
    monkeypatch.setattr(suites, "orbifold_stratum",
                        lambda act, sub, rho: replace(stratum(act, sub, rho), dim=-1))
    result = run_suite("strata")
    assert result.records and not any(r.ok for r in result.records)
    assert all(r.details[0].startswith("expected dimension ") for r in result.records)
    assert result.records[0].details[:2] == ("expected dimension 0", "dimension -1 = 1 - 1")


def test_strata_suite_reports_an_iota_fault(monkeypatch):
    iota = suites.iota_check
    monkeypatch.setattr(suites, "iota_check",
                        lambda st: IotaReport(False, iota(st).fibers, ("fiber fault",)))
    result = run_suite("strata")
    assert result.records and not any(r.ok for r in result.records)
    assert all(r.details[-1] == "fiber fault" for r in result.records)
    assert result.records[0].details[0] == "dimension 0 = 1 - 1"


def test_bordism_suite_reports_a_lost_certificate(monkeypatch):
    monkeypatch.setattr(suites, "closed_certificate_check",
                        lambda b: CheckReport(False, 0, True, ("open",)))
    details = _failing(run_suite("bordism", seed=0, count=2), "certified loops emit cycles")
    assert details == ("loop 0 lost its closure certificate",
                       "loop 1 lost its closure certificate")


def test_bordism_suite_reports_a_non_cycle(monkeypatch):
    emit = suites.Pi_Kb_Kh
    monkeypatch.setattr(suites, "Pi_Kb_Kh", lambda b: Chain(emit(b).terms()[1:]))
    details = _failing(run_suite("bordism", seed=0, count=2), "certified loops emit cycles")
    assert details == ("loop 0 emitted a non-cycle", "loop 1 emitted a non-cycle")


def test_bordism_suite_reports_a_prism_fault(monkeypatch):
    witness = suites.tag_independence_witness
    monkeypatch.setattr(suites, "tag_independence_witness",
                        lambda b: (witness(b)[0], CheckReport(False, 3, True, ("prism fault",))))
    details = _failing(run_suite("bordism", seed=0, count=2),
                       "relabelled emissions differ by an explicit prism boundary")
    assert details == ("loop 0: prism fault", "loop 1: prism fault")
