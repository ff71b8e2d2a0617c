"""Named check suites shared by the command line and the acceptance tests.

A suite is a pure function of its seed and count: the same seed and count
produce the same records in the same order, so serialized reports are
byte-identical across runs.  Seeded suites resample instances until a check's
precondition holds, within a bounded budget, and report exactly how many
instances they accepted; a suite that cannot fill its quota fails instead of
quietly shrinking.
"""

from __future__ import annotations

from collections import Counter
from dataclasses import dataclass
from functools import lru_cache
from fractions import Fraction
from random import Random

from .bordism import (BordismClass, BordismError, Pi_Kb_Kh,
                      closed_certificate_check, present_group,
                      tag_independence_witness)
from .cells import (POINT, Cell, CellMap, FibreProductError, euclid, torus)
from .chains import (Chain, ChainComplex, Generator, QuotientMarker, Tag,
                     TagError, TargetMap, boundary, check_sigma_pairing,
                     check_singular_chain_map, corner_terms,
                     generator_boundary, numbered_tag, simplex_face_complex,
                     verify_dd_zero)
from .geometry import POINT_POLYTOPE, Polytope, box, interval
from .maps import (check_associativity_cells,
                   check_boundary_of_fibre_product_cells,
                   check_interchange_cells, check_swap_sign_cells)
from .orbifold import (TRIVIAL_GROUP, GroupAction, VirtualRep, cyclic_group,
                       iota_check, orbifold_stratum, product_group,
                       quotient_pushdown, symmetric_group, zero_rep)
from .products import (ProductError, check_cap_identity, check_cap_leibniz,
                       check_cap_module, check_dga, check_pullback_cup,
                       check_pullback_d, check_pullback_functorial,
                       projection_formula)
from .randgen import (GenerationError, associativity_instance, fibre_instance,
                      interchange_instance, random_chain, random_chain_over,
                      random_cochain, random_constant_map, random_cycle_class,
                      random_singular_terms, random_target_map)
from .bordism import strata_projection


@dataclass(frozen=True)
class CheckRecord:
    """One check's verdict over `checked` cases.

    A seeded record also counts the instances it sampled (`attempts`) and
    the ones it set aside, as sorted (reason, count) pairs in `rejected`:
    the class name of a sampling error, or the first detail of a check whose
    precondition failed, such as "inner product not transverse"
    ("precondition" when it gives none).
    """

    name: str
    ok: bool
    checked: int
    details: tuple = ()
    attempts: int = 0
    rejected: tuple = ()

    def __bool__(self):
        return self.ok


@dataclass(frozen=True)
class SuiteResult:
    suite: str
    ok: bool
    records: tuple

    def __bool__(self):
        return self.ok


class SuiteError(ValueError):
    """Unknown suite name."""


_ATTEMPT_BUDGET = 60
_SAMPLE_ERRORS = (FibreProductError, ProductError, GenerationError)


def _result(suite: str, records) -> SuiteResult:
    recs = tuple(records)
    return SuiteResult(suite, all(r.ok for r in recs), recs)


def _seeded_record(name: str, count: int, sample, check) -> CheckRecord:
    """Run `check` on sampled instances until `count` meet its precondition."""
    done = checked = bad = attempts = 0
    details = []
    rejected = Counter()

    def record(ok: bool) -> CheckRecord:
        return CheckRecord(name, ok, checked, tuple(details), attempts,
                           tuple(sorted(rejected.items())))

    while done < count:
        if attempts == _ATTEMPT_BUDGET * count:
            details.append(f"only {done} of {count} instances met the "
                           "precondition within the retry budget")
            return record(False)
        attempts += 1
        try:
            inst = sample()
            rep = check(inst)
        except _SAMPLE_ERRORS as err:
            rejected[type(err).__name__] += 1
            continue
        if not rep.precondition:
            rejected[str(rep.details[0]) if rep.details else "precondition"] += 1
            continue
        done += 1
        checked += max(rep.checked, 1)
        if not rep.ok:
            bad += 1
            if len(details) < 3:
                extra = "; ".join(str(d) for d in rep.details)
                details.append(f"instance {done} failed: {extra}")
    if bad:
        details.append(f"{bad} of {count} instances failed")
    return record(bad == 0)


def _split(count: int, buckets: int) -> list:
    base, extra = divmod(count, buckets)
    return [base + (1 if i < extra else 0) for i in range(buckets)]


_FIBRE_TARGETS = ((POINT, "point"), (euclid(1), "line"), (torus(1), "circle"))


def _fibre_target_records(seed: int, count: int, title: str, check) -> list:
    """One seeded record per target of _FIBRE_TARGETS, each checking its share
    of count on fibre_instance draws from one stream."""
    rng = Random(seed)
    return [_seeded_record(f"{title} over the {label}", n,
                           lambda target=target: fibre_instance(rng, target),
                           lambda inst: check(*inst))
            for (target, label), n in zip(_FIBRE_TARGETS, _split(count, len(_FIBRE_TARGETS)))]


def _target_pair_records(seed: int, count: int, title: str, instance, check) -> list:
    """One seeded record per ordered pair of targets with a nonzero share of
    count, on instance(rng, t1, t2) draws from one stream."""
    rng = Random(seed)
    pairs = [(t1, t2, f"{l1} and {l2}")
             for t1, l1 in _FIBRE_TARGETS for t2, l2 in _FIBRE_TARGETS]
    return [_seeded_record(f"{title} over {label}", n,
                           lambda t1=t1, t2=t2: instance(rng, t1, t2),
                           lambda inst: check(*inst))
            for (t1, t2, label), n in zip(pairs, _split(count, len(pairs))) if n]


# ---------------------------------------------------------------------------
# Chain suites
# ---------------------------------------------------------------------------

def suite_dd_zero(seed=0, count=None) -> SuiteResult:
    count = 100 if count is None else count
    rng = Random(seed)
    chains = [random_chain(rng, ("t", i), max_ambient=4) for i in range(count)]
    bad = [i for i, c in enumerate(chains)
           if not boundary(boundary(c)).is_zero]
    rec1 = CheckRecord(
        "the double boundary of a random chain cancels exactly",
        not bad, len(chains),
        tuple(f"chain {i} has a nonzero double boundary" for i in bad[:3]))
    corners = 0
    pair_bad = []
    for i, c in enumerate(chains):
        rep = verify_dd_zero(c)
        corners += rep.corners_checked
        if not rep.ok:
            pair_bad.append(f"chain {i}: " + "; ".join(rep.details))
    rec2 = CheckRecord(
        "every corner pairs with its facet swap at opposite orientation",
        not pair_bad, corners, tuple(pair_bad[:3]))
    return _result("dd-zero", [rec1, rec2])


def suite_boundary_product(seed=0, count=None) -> SuiteResult:
    return _result("boundary-product", _fibre_target_records(
        seed, 100 if count is None else count, "boundary of a fibre product",
        check_boundary_of_fibre_product_cells))


def suite_swap(seed=0, count=None) -> SuiteResult:
    return _result("swap", _fibre_target_records(
        seed, 50 if count is None else count, "swapping fibre product factors",
        check_swap_sign_cells))


def suite_associativity(seed=0, count=None) -> SuiteResult:
    return _result("associativity", _target_pair_records(
        seed, 50 if count is None else count, "iterated fibre products associate",
        associativity_instance, check_associativity_cells))


def suite_interchange(seed=0, count=None) -> SuiteResult:
    return _result("interchange", _target_pair_records(
        seed, 50 if count is None else count,
        "product over a product target interchanges",
        interchange_instance, check_interchange_cells))


# ---------------------------------------------------------------------------
# Algebra suites
# ---------------------------------------------------------------------------

def suite_dga(seed=0, count=None) -> SuiteResult:
    count = 50 if count is None else count
    rng = Random(seed)
    records = []
    for (y, label), n in zip(((torus(1), "the circle"),
                              (torus(2), "the 2-torus")),
                             _split(count, 2)):
        def sample(y=y):
            i = rng.randint(0, 10 ** 6)
            return (random_cochain(rng, y, ("a", i)),
                    random_cochain(rng, y, ("b", i)),
                    random_cochain(rng, y, ("c", i)))
        records.append(_seeded_record(
            f"cochain algebra identities over {label}", n,
            sample, lambda triple: check_dga(*triple)))
    return _result("dga", records)


def suite_cap_module(seed=0, count=None) -> SuiteResult:
    count = 50 if count is None else count
    rng = Random(seed)
    targets = (torus(1), torus(2))

    def sample_cd(i):
        y = targets[i % 2]
        return (random_chain_over(rng, y, ("x", i)),
                random_cochain(rng, y, ("a", i)),
                random_cochain(rng, y, ("b", i)))

    counter = iter(range(10 ** 9))
    records = [
        _seeded_record(
            "capping twice equals capping with the cup", count,
            lambda: sample_cd(next(counter)),
            lambda t: check_cap_module(*t)),
        _seeded_record(
            "boundary of a cap splits with the grade sign", count,
            lambda: sample_cd(next(counter)),
            lambda t: check_cap_leibniz(t[0], t[1])),
        _seeded_record(
            "capping with the identity cochain is the identity", count,
            lambda: sample_cd(next(counter)),
            lambda t: check_cap_identity(t[0])),
    ]

    def sample_proj():
        i = next(counter)
        src = targets[i % 2]
        h = random_target_map(rng, src, torus(1))
        return (random_chain_over(rng, src, ("p", i)),
                random_cochain(rng, torus(1), ("q", i)), h)

    records.append(_seeded_record(
        "pushing a cap against a pulled-back cochain projects", count,
        sample_proj, lambda t: projection_formula(*t)))
    return _result("cap-module", records)


def _map_into(rng: Random, y) -> TargetMap:
    """A map into y from the point or from T^k, dim y <= k <= 3."""
    k = rng.choice([0] + list(range(max(y.dim, 1), 4)))
    if k == 0:
        return random_constant_map(rng, y)
    return random_target_map(rng, torus(k), y)


def suite_pullback(seed=0, count=None) -> SuiteResult:
    count = 50 if count is None else count
    rng = Random(seed)
    counter = iter(range(10 ** 9))

    def sample(*names):
        """(h1, h2, a cochain per name): the target of h1 and the cochains
        cycle through T^1, T^2 and T^3, and h2 maps into h1's source."""
        i = next(counter)
        y = torus(1 + i % 3)
        h1 = _map_into(rng, y)
        return (h1, _map_into(rng, h1.source),
                *(random_cochain(rng, y, (name, i)) for name in names))

    return _result("pullback", [
        _seeded_record(
            "pullback commutes with d", count,
            lambda: sample("a"), lambda t: check_pullback_d(t[0], t[2])),
        _seeded_record(
            "the pullback of a cup is the cup of the pullbacks", count,
            lambda: sample("a", "b"), lambda t: check_pullback_cup(t[0], t[2], t[3])),
        _seeded_record(
            "pulling back along a composite pulls back twice", count,
            lambda: sample("a"), lambda t: check_pullback_functorial(*t)),
    ])


def suite_singular_bridge(seed=0, count=None) -> SuiteResult:
    count = 50 if count is None else count
    rng = Random(seed)
    record = _seeded_record(
        "boundary commutes with the affine simplex bridge", count,
        lambda: random_singular_terms(rng),
        lambda terms: check_singular_chain_map(terms))
    return _result("singular-bridge", [record])


def suite_homology(seed=0, count=None) -> SuiteResult:
    records = []
    for k in range(4):
        betti = ChainComplex(simplex_face_complex(k)).betti()
        expected = {g: (1 if g == 0 else 0) for g in betti}
        ok = betti == expected and betti.get(0) == 1
        detail = "betti " + " ".join(f"{g}:{betti[g]}" for g in sorted(betti))
        records.append(CheckRecord(
            f"face complex of the {k}-simplex has point homology",
            ok, len(betti), (detail,)))
    return _result("homology", records)


# ---------------------------------------------------------------------------
# Quotient suite
# ---------------------------------------------------------------------------

def _reflection_action() -> GroupAction:
    return GroupAction(cyclic_group(2), interval(-1, 1), {
        "r0": ([[1]], [0]),
        "r1": ([[-1]], [0]),
    })


def suite_quotient_half(seed=0, count=None) -> SuiteResult:
    act = _reflection_action()
    poly = act.spaces[0]
    ends = tuple(sorted(poly.faces()[0]))
    top = poly.faces()[1][0]
    point = CellMap(POINT, (), (), ())
    tag = Tag(poly, {ends[0]: (("end", 0),), ends[1]: (("end", 0),),
                     top: (("seg", 0),)})
    pushed = quotient_pushdown(act, point, tag)
    terms = pushed.terms()
    half = (len(terms) == 1 and terms[0][0] == Fraction(1, 2))
    rec1 = CheckRecord(
        "folding a segment by its reflection carries coefficient one half",
        half, len(terms),
        (f"coefficient {terms[0][0]}" if terms else "no terms",))

    factor, cover = QuotientMarker.from_faces(poly, 2, (ends, (top,))).cover(
        Cell(poly, 0), point, tag)
    folded = boundary(pushed)
    coeffs = sorted(c for c, _ in folded.terms())
    rec2 = CheckRecord(
        "the folded segment's boundary is one half its cover's",
        folded == Chain(generator_boundary(cover)).scale(factor), len(folded.terms()),
        (f"boundary coefficients {[str(c) for c in coeffs]}",))
    return _result("quotient-half", [rec1, rec2])


# ---------------------------------------------------------------------------
# Strata suite
# ---------------------------------------------------------------------------

def _sign_char(group, flips) -> tuple:
    return tuple(-1 if g in flips else 1 for g in group.elements)


@lru_cache
def _strata_cases() -> tuple:
    """The strata suite's cases, (label, action, subgroup, class): a constant
    table of frozen values, built on first call and then shared.  It keeps
    inputs only; every use computes its stratum and fibre check in full."""
    z2 = cyclic_group(2)
    z3 = cyclic_group(3)
    s3 = symmetric_group(3)
    k4 = product_group(cyclic_group(2), cyclic_group(2))
    sign2 = VirtualRep(z2, (_sign_char(z2, ("r1",)),))
    rot3 = VirtualRep(z3, ((2, -1, -1),))

    def refl(a, b):
        return GroupAction(z2, interval(a, b),
                           {"r0": ([[1]], [0]), "r1": ([[-1]], [0])})

    sq = box([(-1, 1), (-1, 1)])
    k4_act = GroupAction(k4, sq, {
        "r0|r0": ([[1, 0], [0, 1]], [0, 0]),
        "r1|r0": ([[-1, 0], [0, 1]], [0, 0]),
        "r0|r1": ([[1, 0], [0, -1]], [0, 0]),
        "r1|r1": ([[-1, 0], [0, -1]], [0, 0]),
    })
    k4_both = VirtualRep(k4, (_sign_char(k4, ("r1|r0", "r1|r1")),
                              _sign_char(k4, ("r0|r1", "r1|r1"))))

    tri = Polytope.from_points(3, [[1, 0, 0], [0, 1, 0], [0, 0, 1]])
    rep = {}
    for label in s3.elements:
        p = tuple(int(c) for c in label)
        m = [[0] * 3 for _ in range(3)]
        for i in range(3):
            m[p[i]][i] = 1
        rep[label] = (m, [0, 0, 0])
    s3_act = GroupAction(s3, tri, rep)
    std_char = tuple(sum(1 for i, c in enumerate(g) if int(c) == i) - 1
                     for g in s3.elements)
    s3_std = VirtualRep(s3, (std_char,))

    hexa = Polytope.from_points(2, [[1, 0], [1, 1], [0, 1],
                                    [-1, 0], [-1, -1], [0, -1]])
    hex_act = GroupAction(z3, hexa, {
        "r0": ([[1, 0], [0, 1]], [0, 0]),
        "r1": ([[0, -1], [1, -1]], [0, 0]),
        "r2": ([[-1, 1], [-1, 0]], [0, 0]),
    })

    cube = box([(-1, 1)] * 3)

    def cube_flip(axes):
        diag = [[(-1 if i == j and i in axes else (1 if i == j else 0))
                 for j in range(3)] for i in range(3)]
        eye = [[1 if i == j else 0 for j in range(3)] for i in range(3)]
        return GroupAction(z2, cube, {"r0": (eye, [0, 0, 0]),
                                      "r1": (diag, [0, 0, 0])})

    def sign_n(n):
        return VirtualRep(z2, (_sign_char(z2, ("r1",)),) * n)

    return (
        ("reflection of a segment", refl(-1, 1), z2, sign2),
        ("reflection of a long segment", refl(-2, 2), z2, sign2),
        ("one mirror of the square", k4_act, z2, sign2),
        ("both mirrors of the square", k4_act, z2, sign_n(2)),
        ("the full dihedral pair on the square", k4_act, k4, k4_both),
        ("a transposition mirror on the triangle", s3_act, z2, sign2),
        ("the full symmetry of the triangle", s3_act, s3, s3_std),
        ("the rotation subgroup of the triangle", s3_act, z3, rot3),
        ("the rotation of the hexagon", hex_act, z3, rot3),
        ("the trivial subgroup of the hexagon", hex_act, TRIVIAL_GROUP,
         zero_rep(TRIVIAL_GROUP)),
        ("one axis flip of the cube", cube_flip((0,)), z2, sign_n(1)),
        ("two axis flips of the cube", cube_flip((0, 1)), z2, sign_n(2)),
        ("the central inversion of the cube", cube_flip((0, 1, 2)), z2,
         sign_n(3)),
    )


def suite_strata(seed=0, count=None) -> SuiteResult:
    records = []
    for label, act, sub, rho in _strata_cases():
        st = orbifold_stratum(act, sub, rho)
        n = act.spaces[0].dim
        dim_ok = st.dim == n - rho.dim
        report = iota_check(st)
        counts = tuple(f.count for f in report.fibers)
        details = [f"dimension {st.dim} = {n} - {rho.dim}",
                   f"fiber cardinalities {counts}"]
        if not dim_ok:
            details.insert(0, f"expected dimension {n - rho.dim}")
        if not report.ok:
            details.extend(str(d) for d in report.details)
        records.append(CheckRecord(
            f"stratum of {label}", dim_ok and report.ok,
            len(st.pieces) + len(report.fibers), tuple(details)))
    return _result("strata", records)


# ---------------------------------------------------------------------------
# Bordism suite
# ---------------------------------------------------------------------------

def _point_class(sign=1) -> BordismClass:
    cell = Cell(POINT_POLYTOPE, 0, None, sign)
    return BordismClass([(cell, CellMap(POINT, (), (), ()))])


def _interval_class() -> BordismClass:
    p = Polytope.from_points(1, [[0], [1]])
    cell = Cell(p, 0, ((Fraction(1),),), 1)
    return BordismClass([(cell, CellMap(POINT, (), (), ()))])


def suite_bordism(seed=0, count=None) -> SuiteResult:
    count = 10 if count is None else count
    rng = Random(seed)

    pres = present_group([_point_class(1), _point_class(-1)],
                         [_interval_class()], ring="Z")
    ok1 = pres.invariant_factors() in ((1,),) and pres.free_rank == 1
    rec1 = CheckRecord(
        "two oriented points modulo the interval present one free rank",
        ok1, 2, (f"invariant factors {pres.invariant_factors()}, "
                 f"free rank {pres.free_rank}",))

    pres2 = present_group([_point_class(1)], [_interval_class()], ring="Z")
    ok2 = pres2.relations == ((0,),) and pres2.free_rank == 1
    rec2 = CheckRecord(
        "a single point generator absorbs both interval ends",
        ok2, 1, (f"relations {pres2.relations}",))

    cycle_bad = []
    emitted = 0
    for i in range(count):
        b = random_cycle_class(rng)
        if not closed_certificate_check(b).ok:
            cycle_bad.append(f"loop {i} lost its closure certificate")
            continue
        ch = Pi_Kb_Kh(b)
        emitted += len(ch.terms())
        if not boundary(ch).is_zero:
            cycle_bad.append(f"loop {i} emitted a non-cycle")
    rec3 = CheckRecord(
        "certified loops emit cycles", not cycle_bad, emitted,
        tuple(cycle_bad[:3]))

    prism_bad = []
    prisms = 0
    for i in range(count):
        b = random_cycle_class(rng)
        witness, report = tag_independence_witness(b)
        prisms += len(witness.terms())
        if not report.ok:
            prism_bad.append(f"loop {i}: " + "; ".join(report.details))
    rec4 = CheckRecord(
        "relabelled emissions differ by an explicit prism boundary",
        not prism_bad, prisms, tuple(prism_bad[:3]))
    return _result("bordism", [rec1, rec2, rec3, rec4])


# ---------------------------------------------------------------------------
# Negative controls
# ---------------------------------------------------------------------------

def _refusal(name: str, call, error, needle: str, accepted: str) -> CheckRecord:
    """A control that must be refused: call raises error, naming needle."""
    try:
        call()
    except error as err:
        return CheckRecord(name, needle in str(err), 1, (str(err),))
    return CheckRecord(name, False, 1, (accepted,))


def suite_negative_controls(seed=0, count=None) -> SuiteResult:
    records = []

    sq = box([(0, 1), (0, 1)])
    tag = numbered_tag(sq, "sq")
    gen = Generator(Cell(sq, 0), CellMap(POINT, (), (), ()), tag)
    terms = corner_terms(gen)
    flipped = terms[0]
    corrupted = [type(flipped)(
        corner=flipped.corner, first_facet=flipped.first_facet,
        second_facet=flipped.second_facet,
        cell=flipped.cell.reversed(),
        tag=flipped.tag)] + terms[1:]
    rep = check_sigma_pairing(corrupted)
    records.append(CheckRecord(
        "a corrupted corner orientation breaks the pairing",
        not rep.ok, len(terms),
        tuple(rep.details) if not rep.ok else ("pairing unexpectedly held",)))

    iv = interval(0, 1)
    ends = sorted(iv.faces()[0])
    top = iv.faces()[1][0]
    bad_tag = Tag(iv, {ends[0]: (("dup",),), ends[1]: (("dup",),),
                       top: (("seg",),)})
    records.append(_refusal(
        "repeated labels across faces are rejected",
        lambda: Generator(Cell(iv, 0), CellMap(POINT, (), (), ()), bad_tag),
        TagError, "injective", "generator accepted a non-injective labeling"))

    z2 = cyclic_group(2)
    rho = VirtualRep(z2, ((1, -1),))
    records.append(_refusal(
        "even symmetry orders cannot transfer orientation",
        lambda: strata_projection(_point_class(1), z2, rho),
        BordismError, "odd orders", "projection accepted an even-order group"))

    square_witness = BordismClass([(Cell(sq), CellMap(POINT, (), (), ()))])
    records.append(_refusal(
        "a relation witness with corners is refused",
        lambda: present_group([_point_class(1), _point_class(-1)], [square_witness]),
        BordismError, "corner", "presentation accepted a cornered witness"))

    return _result("negative-controls", records)


# ---------------------------------------------------------------------------
# Registry
# ---------------------------------------------------------------------------

SUITES = {
    "dd-zero": suite_dd_zero,
    "boundary-product": suite_boundary_product,
    "swap": suite_swap,
    "associativity": suite_associativity,
    "interchange": suite_interchange,
    "dga": suite_dga,
    "cap-module": suite_cap_module,
    "pullback": suite_pullback,
    "singular-bridge": suite_singular_bridge,
    "homology": suite_homology,
    "quotient-half": suite_quotient_half,
    "strata": suite_strata,
    "bordism": suite_bordism,
    "negative-controls": suite_negative_controls,
}


def run_suite(name: str, seed: int = 0, count=None) -> SuiteResult:
    if name not in SUITES:
        known = ", ".join(sorted(SUITES))
        raise SuiteError(f"unknown suite {name!r}; known suites: {known}")
    return SUITES[name](seed=seed, count=count)
