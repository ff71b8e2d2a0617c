"""The benchmark's workloads: seeded operations over the cornercalc checks.

An operation is one instance: sampled with the `randgen` samplers from a
random stream derived from (workload, kind, corpus item), then decided by
the library's public check function, exactly as a suite's `_seeded_record`
does for one attempt.  Operations cycle through a workload's check kinds in
a fixed round-robin order, so operation `i` is always of kind
`i % len(kinds)`; the run's seed orders each kind's corpus items.

Every kind returns an `Outcome`.  A sampler that cannot produce an instance
raises one of `SAMPLE_ERRORS` and the operation counts as rejected, like an
instance whose check reports a false precondition.  Kinds marked
`known_answer` compare against a value fixed in advance (point homology,
free rank one, stratum dimension, refused negative controls), so a wrong
answer there is a wrong result of the program, not a known defect.
"""

from __future__ import annotations

import hashlib
from dataclasses import dataclass
from fractions import Fraction
from random import Random
from typing import Callable

from cornercalc.bordism import (BordismClass, Pi_Kb_Kh,
                                closed_certificate_check, present_group,
                                tag_independence_witness)
from cornercalc.cells import POINT, Cell, CellMap, FibreProductError, euclid, torus
from cornercalc.chains import (ChainComplex, boundary, check_singular_chain_map,
                               simplex_face_complex, verify_dd_zero)
from cornercalc.geometry import Polytope
from cornercalc.maps import (check_associativity_cells,
                             check_boundary_of_fibre_product_cells,
                             check_interchange_cells, check_swap_sign_cells)
from cornercalc.orbifold import iota_check, orbifold_stratum
from cornercalc.products import (ProductError, check_cap_identity,
                                 check_cap_leibniz, check_cap_module, check_dga,
                                 projection_formula)
from cornercalc.randgen import (GenerationError, associativity_instance,
                                fibre_instance, interchange_instance,
                                random_chain, random_chain_over,
                                random_cochain, random_cycle_class,
                                random_singular_terms, random_target_map)
from cornercalc.suites import _strata_cases, run_suite

SAMPLE_ERRORS = (GenerationError, FibreProductError, ProductError)


@dataclass(frozen=True)
class Outcome:
    ok: bool
    precondition: bool = True
    detail: str = ""


def _report(rep) -> Outcome:
    """Outcome of a library `CheckReport`."""
    return Outcome(bool(rep.ok), bool(getattr(rep, "precondition", True)),
                   "; ".join(str(d) for d in rep.details))


class RecordingRandom(Random):
    """A `Random` that logs every bounded draw as (bound, value).

    All of `randint`, `choice` and `sample` reduce to `_randbelow`, so the
    log is exactly what the samplers asked for and got.  It is independent
    of how the library represents the instances it builds.
    """

    def __init__(self, seed):
        self.draws = []
        super().__init__(seed)

    def _randbelow(self, n):
        value = Random._randbelow(self, n)
        self.draws.append((n, value))
        return value

    def random(self):
        value = super().random()
        self.draws.append((0, value.hex()))
        return value


@dataclass(frozen=True)
class Kind:
    """One check kind: `sample` draws an instance, `check` decides it."""
    name: str
    sample: Callable[[Random], object]
    check: Callable[[object], Outcome]
    known_answer: bool = False


def _fixed(rng: Random) -> None:
    """Sampler of the kinds whose input is fixed."""
    return None


def item_random(workload: str, kind: str, item: int) -> RecordingRandom:
    """The random stream of one corpus item; string seeds hash with SHA-512."""
    return RecordingRandom(f"{workload}/{kind}/{item}")


def draw_digest(kind: str, rng: RecordingRandom) -> bytes:
    text = kind + "|" + ",".join(f"{n}:{v}" for n, v in rng.draws)
    return hashlib.sha256(text.encode()).digest()


# ---------------------------------------------------------------------------
# chain-boundary
# ---------------------------------------------------------------------------

def _check_dd_zero(c) -> Outcome:
    if not boundary(boundary(c)).is_zero:
        return Outcome(False, detail="nonzero double boundary")
    rep = verify_dd_zero(c)
    return Outcome(rep.ok, detail="; ".join(rep.details))


def _chain_kinds() -> list:
    return [
        Kind("dd-zero",
             lambda rng: random_chain(rng, ("t", 0), max_ambient=4, ring="Q"),
             _check_dd_zero),
        Kind("singular-bridge", random_singular_terms,
             lambda terms: _report(check_singular_chain_map(terms))),
    ]


# ---------------------------------------------------------------------------
# fibre-identities
# ---------------------------------------------------------------------------

_TARGETS = (("point", POINT), ("line", euclid(1)), ("circle", torus(1)))


def _fibre_kinds() -> list:
    kinds = []
    for label, check in (("boundary-product", check_boundary_of_fibre_product_cells),
                         ("swap", check_swap_sign_cells)):
        for tname, target in _TARGETS:
            kinds.append(Kind(
                f"{label}/{tname}",
                lambda rng, t=target: fibre_instance(rng, t),
                lambda inst, check=check: _report(check(*inst))))
    for label, sample, check in (
            ("associativity", associativity_instance, check_associativity_cells),
            ("interchange", interchange_instance, check_interchange_cells)):
        for n1, t1 in _TARGETS:
            for n2, t2 in _TARGETS:
                kinds.append(Kind(
                    f"{label}/{n1}-{n2}",
                    lambda rng, sample=sample, t1=t1, t2=t2: sample(rng, t1, t2),
                    lambda inst, check=check: _report(check(*inst))))
    return kinds


# ---------------------------------------------------------------------------
# cochain-algebra
# ---------------------------------------------------------------------------

def _three_cochains(rng: Random, y) -> tuple:
    return (random_cochain(rng, y, ("a", 0)), random_cochain(rng, y, ("b", 0)),
            random_cochain(rng, y, ("c", 0)))


def _chain_and_cochains(rng: Random, y) -> tuple:
    return (random_chain_over(rng, y, ("x", 0)), random_cochain(rng, y, ("a", 0)),
            random_cochain(rng, y, ("b", 0)))


def _projection_instance(rng: Random, y) -> tuple:
    h = random_target_map(rng, y, torus(1))
    return (random_chain_over(rng, y, ("p", 0)),
            random_cochain(rng, torus(1), ("q", 0)), h)


_COCHAIN_CHECKS = (
    ("dga", _three_cochains, lambda t: check_dga(*t)),
    ("cap-module", _chain_and_cochains, lambda t: check_cap_module(*t)),
    ("cap-leibniz", _chain_and_cochains, lambda t: check_cap_leibniz(t[0], t[1])),
    ("cap-identity", _chain_and_cochains, lambda t: check_cap_identity(t[0])),
    ("projection", _projection_instance, lambda t: projection_formula(*t)),
)


def _cochain_kinds() -> list:
    return [Kind(f"{label}/{yname}",
                 lambda rng, sample=sample, y=y: sample(rng, y),
                 lambda inst, check=check: _report(check(inst)))
            for label, sample, check in _COCHAIN_CHECKS
            for yname, y in (("T1", torus(1)), ("T2", torus(2)))]


# ---------------------------------------------------------------------------
# homology-bordism
# ---------------------------------------------------------------------------

def _betti(k: int) -> Callable:
    def check(_):
        betti = ChainComplex(simplex_face_complex(k)).betti()
        expected = {g: (1 if g == 0 else 0) for g in betti}
        return Outcome(betti == expected and betti.get(0) == 1,
                       detail=f"betti {sorted(betti.items())}")
    return check


def _point_class(sign: int) -> BordismClass:
    cell = Cell(Polytope.from_points(0, [[]]), 0, None, sign)
    return BordismClass([(cell, CellMap(POINT, (), (), ()))])


def _interval_class() -> BordismClass:
    cell = Cell(Polytope.from_points(1, [[0], [1]]), 0, ((Fraction(1),),), 1)
    return BordismClass([(cell, CellMap(POINT, (), (), ()))])


def _present_two_points(_) -> Outcome:
    pres = present_group([_point_class(1), _point_class(-1)],
                         [_interval_class()], ring="Z")
    return Outcome(pres.invariant_factors() == (1,) and pres.free_rank == 1,
                   detail=f"factors {pres.invariant_factors()}, "
                          f"free rank {pres.free_rank}")


def _present_one_point(_) -> Outcome:
    pres = present_group([_point_class(1)], [_interval_class()], ring="Z")
    return Outcome(pres.relations == ((0,),) and pres.free_rank == 1,
                   detail=f"relations {pres.relations}")


def _loop_certificate(b) -> Outcome:
    if not closed_certificate_check(b).ok:
        return Outcome(False, detail="loop lost its closure certificate")
    if not boundary(Pi_Kb_Kh(b)).is_zero:
        return Outcome(False, detail="loop emitted a non-cycle")
    return Outcome(True)


def _loop_prism(b) -> Outcome:
    _, report = tag_independence_witness(b)
    return _report(report)


def _stratum(index: int) -> Callable:
    def check(_):
        _, act, sub, rho = _strata_cases()[index]
        st = orbifold_stratum(act, sub, rho)
        n = act.spaces[0].dim
        if st.dim != n - rho.dim:
            return Outcome(False, detail=f"dimension {st.dim} != {n} - {rho.dim}")
        return _report(iota_check(st))
    return check


def _suite(name: str) -> Callable:
    def check(_):
        result = run_suite(name)
        return Outcome(result.ok, detail="; ".join(
            r.name for r in result.records if not r.ok))
    return check


# The strata cases are the suite's own table; its length is fixed there.
_STRATA_CASES = 13


def _homology_kinds() -> list:
    kinds = [Kind(f"betti/{k}", _fixed, _betti(k), True) for k in range(6)]
    kinds += [Kind("present/two-points", _fixed, _present_two_points, True),
              Kind("present/one-point", _fixed, _present_one_point, True),
              Kind("loop/certificate", random_cycle_class, _loop_certificate),
              Kind("loop/prism", random_cycle_class, _loop_prism)]
    kinds += [Kind(f"strata/{i}", _fixed, _stratum(i), True)
              for i in range(_STRATA_CASES)]
    kinds += [Kind("quotient-half", _fixed, _suite("quotient-half"), True),
              Kind("negative-controls", _fixed, _suite("negative-controls"), True)]
    return kinds


WORKLOADS = {
    "chain-boundary": _chain_kinds,
    "fibre-identities": _fibre_kinds,
    "cochain-algebra": _cochain_kinds,
    "homology-bordism": _homology_kinds,
}
