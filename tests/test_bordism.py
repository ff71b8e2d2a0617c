import hashlib
from fractions import Fraction

import pytest

import cornercalc.bordism as bordism
from cornercalc.bordism import (BordismClass, BordismComponent, BordismError,
                                ModulePresentation, PairingWitness, Pi_Kb_Kh,
                                Pi_bo_Kb, bordism_cup_cap, class_match,
                                closed_certificate_check, identity_cobordism,
                                oriented_match, present_group,
                                strata_projection, tag_independence_witness)
from cornercalc.cells import POINT, Cell, CellMap, Coorientation, euclid, torus
from cornercalc.chains import boundary
from cornercalc.geometry import Polytope
from cornercalc.orbifold import GroupAction, VirtualRep, cyclic_group

F = Fraction


def point_map():
    return CellMap(POINT, (), (), ())


def pt_class(sign=1, kind="kuranishi"):
    cell = Cell(Polytope.from_points(0, [[]]), 0, None, sign)
    return BordismClass([(cell, point_map())], kind=kind)


def interval_class(a=0, b=1, pairings=()):
    p = Polytope.from_points(1, [[a], [b]])
    cell = Cell(p, 0, ((F(1),),), 1)
    return BordismClass([(cell, point_map())], pairings)


def segment(a, b, direction=1):
    cell = Cell(Polytope.from_points(1, [[a], [b]]), 0, ((F(direction),),), 1)
    return cell, point_map()


def edge_cell(va, vb, sign=1):
    p = Polytope.from_points(2, [va, vb])
    d = (F(vb[0] - va[0]), F(vb[1] - va[1]))
    return Cell(p, 0, (d,), sign)


def hollow_triangle(flip_edge=None):
    cells = [edge_cell((0, 0), (1, 0)),
             edge_cell((1, 0), (0, 1)),
             edge_cell((0, 1), (0, 0))]
    if flip_edge is not None:
        cells[flip_edge] = cells[flip_edge].reversed()
    pws = (PairingWitness.shared(0, 1, [(1, 0)]),
           PairingWitness.shared(1, 2, [(0, 1)]),
           PairingWitness.shared(2, 0, [(0, 0)]))
    return BordismClass([(c, point_map()) for c in cells], pws)


HEX = [(1, 0), (1, 1), (0, 1), (-1, 0), (-1, -1), (0, -1)]


def hexagon_action():
    z3 = cyclic_group(3)
    p = Polytope.from_points(2, HEX)
    m = [[0, -1], [1, -1]]
    m2 = [[-1, 1], [-1, 0]]
    eye = [[1, 0], [0, 1]]
    return GroupAction(z3, p, {"r0": (eye, [0, 0]),
                               "r1": (m, [0, 0]),
                               "r2": (m2, [0, 0])})


def hexagon_torus(model=None):
    p = Polytope.from_points(2, HEX)
    comp = BordismComponent(Cell(p), point_map(), model=model)
    eye = [[1, 0], [0, 1]]

    def w(f1, f2, off):
        return PairingWitness((0, f1), (0, f2), eye, off)

    pws = (w([(1, 0), (1, 1)], [(-1, -1), (-1, 0)], (-2, -1)),
           w([(1, 1), (0, 1)], [(-1, -1), (0, -1)], (-1, -2)),
           w([(0, 1), (-1, 0)], [(0, -1), (1, 0)], (1, -1)))
    return BordismClass([comp], pws)


def circle_cover(k):
    cell = Cell(Polytope.from_points(0, [[]]), 1)
    cmap = CellMap(torus(1), [()], [[k]], [0])
    return BordismClass([(cell, cmap, Coorientation((), 1))])


def kernel_class(m_t, frame, sign):
    """A point times T^2 over T^1, cooriented by a frame of the kernel."""
    cell = Cell(Polytope.from_points(0, [[]]), 2)
    cmap = CellMap(torus(1), [()], [m_t], [0])
    return BordismClass([(cell, cmap, Coorientation([frame], sign))])


# ---------------------------------------------------------------------------
# Class data and certificates
# ---------------------------------------------------------------------------

def test_two_points_closed():
    b = BordismClass([(Cell(Polytope.from_points(0, [[]]), 0, None, 1),
                       point_map()),
                      (Cell(Polytope.from_points(0, [[]]), 0, None, -1),
                       point_map())])
    report = closed_certificate_check(b)
    assert report.ok and report.checked == 0


def test_lone_interval_not_closed():
    report = closed_certificate_check(interval_class())
    assert not report.ok
    assert any("unpaired" in d for d in report.details)


def test_hollow_triangle_closed():
    report = closed_certificate_check(hollow_triangle())
    assert report.ok
    assert report.checked == 9


def test_hexagon_torus_closed():
    report = closed_certificate_check(hexagon_torus())
    assert report.ok
    assert report.checked == 9


def test_orientation_flip_detected():
    report = closed_certificate_check(hollow_triangle(flip_edge=1))
    assert not report.ok
    assert any("reverse" in d for d in report.details)


def test_fixed_face_rejected():
    pw = PairingWitness((0, [(0,)]), (0, [(0,)]), [[1]], [0])
    report = closed_certificate_check(interval_class(pairings=(pw,)))
    assert not report.ok
    assert any("fixes" in d for d in report.details)


def test_pairing_of_missing_face():
    pw = PairingWitness((0, [(F(1, 2),)]), (0, [(0,)]), [[1]], [0])
    report = closed_certificate_check(interval_class(pairings=(pw,)))
    assert not report.ok
    assert any("missing face" in d for d in report.details)


def test_certificate_report_lists_every_fault_in_order():
    shared = PairingWitness.shared
    b = BordismClass([segment(0, 1), segment(1, 2), segment(2, 3, -1)],
                     (shared(0, 1, [(1,)]), shared(1, 1, [(2,)]),
                      shared(1, 2, [(2,)]), shared(2, 2, [(5,)])))
    report = closed_certificate_check(b)
    two, three, five = (((F(x),),) for x in (2, 3, 5))
    assert not report.ok
    assert report.checked == 9
    assert report.details == (
        f"pairing 1 fixes face {(1, two)}",
        f"pairing 3 fixes face {(2, five)}",
        f"face {(1, two)} is paired more than once",
        f"face {(2, five)} is paired more than once",
        f"pairing names a missing face {(2, five)}",
        f"boundary face {(0, ((F(0),),))} is unpaired",
        f"boundary face {(2, three)} is unpaired",
        "pairing 1: identification does not reverse the induced orientation",
        "pairing 2: identification does not reverse the induced orientation")


def test_map_incompatible_pairing():
    p = Polytope.from_points(1, [[0], [1]])
    cell = Cell(p, 0, ((F(1),),), 1)
    cmap = CellMap(euclid(1), [[1]], [[]], [0])
    pw = PairingWitness((0, [(0,)]), (0, [(1,)]), [[1]], [1])
    b = BordismClass([(cell, cmap)], (pw,))
    report = closed_certificate_check(b)
    assert not report.ok
    assert any("commute" in d for d in report.details)


def _two_squares(matrix, offset):
    """[0, 1]^2 and [2, 3] x [0, 1], the edge x = 1 of the first paired with
    the edge x = 2 of the second by x -> matrix x + offset."""
    squares = [Cell(Polytope.from_points(2, [(a, 0), (a + 1, 0), (a, 1), (a + 1, 1)]))
               for a in (0, 2)]
    pw = PairingWitness((0, [(1, 0), (1, 1)]), (1, [(2, 0), (2, 1)]), matrix, offset)
    return BordismClass([(c, point_map()) for c in squares], (pw,))


def _different_torus_ranks():
    square = Cell(Polytope.from_points(2, [(0, 0), (1, 0), (0, 1), (1, 1)]))
    cylinder = Cell(Polytope.from_points(1, [[0], [1]]), 1)
    pw = PairingWitness((0, [(0, 0), (0, 1)]), (1, [(0,)]), [[1, 0]], [0])
    return BordismClass([(square, point_map()), (cylinder, point_map())], (pw,))


def _different_ambients():
    pw = PairingWitness((0, [(1,)]), (1, [(2,)]), [[1], [0]], [1, 0])
    return BordismClass([segment(0, 1), segment(2, 3)], (pw,))


def _cooriented_segment():
    cell = Cell(Polytope.from_points(1, [[0], [1]]), 1)
    cmap = CellMap(torus(1), [[0]], [[1]], [0])
    return BordismClass([BordismComponent(cell, cmap, cooriented=True)])


@pytest.mark.parametrize("build, detail", [
    (_different_torus_ranks, "pairing 0: paired components have different torus ranks"),
    (_different_ambients, "pairing 0: identification has the wrong shape"),
    (lambda: _two_squares([[0, 0], [0, 0]], [2, 0]),
     "pairing 0: identification is not injective on the face"),
    (lambda: _two_squares([[1, 0], [0, 1]], [0, 0]),
     "pairing 0: identification does not carry the face onto its partner"),
    (_cooriented_segment, "cooriented classes must be boundary-free"),
], ids=["torus-ranks", "shape", "not-injective", "not-onto", "cooriented"])
def test_certificate_reports_each_identification_fault(build, detail):
    report = closed_certificate_check(build())
    assert not report.ok
    assert detail in report.details


@pytest.mark.parametrize("field", ["components", "pairings", "kind"])
def test_bordism_class_fields_cannot_be_assigned(field):
    """A class is a value: every assignment after construction raises, as
    for BordismComponent and PairingWitness, and its hash stays put."""
    b = BordismClass([segment(0, 1), segment(1, 2)],
                     (PairingWitness.shared(0, 1, [(1,)]),))
    before = hash(b)
    with pytest.raises(AttributeError):
        setattr(b, field, getattr(BordismClass([segment(0, 1)], kind="classical"), field))
    assert hash(b) == before
    assert b == BordismClass([segment(0, 1), segment(1, 2)],
                             (PairingWitness.shared(0, 1, [(1,)]),))


def _oriented_circle():
    return (Cell(Polytope.from_points(0, [[]]), 1), CellMap(torus(1), [()], [[1]], [0]))


@pytest.mark.parametrize("build, message", [
    (lambda: pt_class(kind="smooth"), "kind must be 'classical' or 'kuranishi'"),
    (lambda: BordismClass([segment(0, 1)], [((0, [(0,)]), (0, [(1,)]), [[1]], [1])]),
     "pairings must be PairingWitness values"),
    (lambda: BordismClass([_oriented_circle(), circle_cover(1).components[0]]),
     "mixing oriented and cooriented components"),
    (lambda: BordismClass(circle_cover(2).components, kind="classical"),
     "classical classes are oriented"),
    (lambda: BordismClass([(Cell(Polytope.from_points(0, [[]])), point_map()),
                           (Cell(Polytope.from_points(0, [[]])),
                            CellMap(euclid(1), [()], [()], [0]))]),
     "components map to different targets"),
], ids=["kind", "pairing-type", "mixed", "classical-cooriented", "targets"])
def test_class_refusals(build, message):
    with pytest.raises(BordismError, match=f"^{message}$"):
        build()


def test_class_match_of_cooriented_classes():
    assert class_match(circle_cover(2), circle_cover(2))
    assert not class_match(circle_cover(2), circle_cover(3))
    assert not class_match(circle_cover(1), BordismClass([_oriented_circle()]))


def test_cap_takes_the_oriented_factor_first():
    tri = hollow_triangle()
    one = identity_cobordism(POINT)
    res = bordism_cup_cap(one, tri)
    assert not res.cooriented
    assert res == bordism_cup_cap(tri, one)
    assert class_match(res, tri)


def test_class_repr_names_its_shape():
    assert repr(hollow_triangle()) == \
        "BordismClass(3 oriented components, 3 pairings, kind='kuranishi')"
    assert repr(circle_cover(2)) == \
        "BordismClass(1 cooriented components, 0 pairings, kind='kuranishi')"


def test_mixed_grades_rejected():
    p = Polytope.from_points(1, [[0], [1]])
    with pytest.raises(BordismError, match="grade"):
        BordismClass([(Cell(Polytope.from_points(0, [[]])), point_map()),
                      (Cell(p, 0, ((F(1),),), 1), point_map())])


def test_pairing_index_out_of_range():
    pw = PairingWitness((0, [(0,)]), (1, [(1,)]), [[1]], [0])
    with pytest.raises(BordismError, match="missing component"):
        interval_class(pairings=(pw,))


# ---------------------------------------------------------------------------
# Oriented identification search
# ---------------------------------------------------------------------------

def test_match_translated_interval():
    c1 = Cell(Polytope.from_points(1, [[0], [1]]), 0, ((F(1),),), 1)
    c2 = Cell(Polytope.from_points(1, [[5], [6]]), 0, ((F(1),),), 1)
    assert oriented_match(c1, point_map(), c2, point_map()) == 1
    # over a point target the flip is also admissible, so the preserving
    # identification wins even against the reversed cell
    assert oriented_match(c1, point_map(), c2.reversed(), point_map()) == 1


def test_match_sign_pinned_by_map():
    ident = CellMap(euclid(1), [[1]], [[]], [0])
    c1 = Cell(Polytope.from_points(1, [[0], [1]]), 0, ((F(1),),), 1)
    assert oriented_match(c1, ident, c1, ident) == 1
    assert oriented_match(c1, ident, c1.reversed(), ident) == -1


def test_match_respects_maps():
    ident = CellMap(euclid(1), [[1]], [[]], [0])
    shifted = CellMap(euclid(1), [[1]], [[]], [-5])
    c1 = Cell(Polytope.from_points(1, [[0], [1]]), 0, ((F(1),),), 1)
    c2 = Cell(Polytope.from_points(1, [[5], [6]]), 0, ((F(1),),), 1)
    assert oriented_match(c1, ident, c2, ident) is None
    assert oriented_match(c1, ident, c2, shifted) == 1


def test_match_torus_period():
    cell = Cell(Polytope.from_points(0, [[]]), 0)
    m1 = CellMap(torus(1), [()], [[]], [F(1, 3)])
    m2 = CellMap(torus(1), [()], [[]], [F(4, 3)])
    m3 = CellMap(torus(1), [()], [[]], [F(1, 2)])
    assert oriented_match(cell, m1, cell, m2) == 1
    assert oriented_match(cell, m1, cell, m3) is None


P0 = Polytope.from_points(0, [[]])
UNIT = Polytope.from_points(1, [[0], [1]])


@pytest.mark.parametrize("first, second", [
    ((Cell(UNIT), CellMap(euclid(1), [[1]], [[]], [0])),
     (Cell(UNIT), CellMap(torus(1), [[1]], [[]], [0]))),
    ((Cell(P0, 1), CellMap(torus(1), [()], [[1]], [0])),
     (Cell(UNIT), CellMap(torus(1), [[1]], [[]], [0]))),
    ((Cell(UNIT), point_map()),
     (Cell(Polytope.from_points(2, [(0, 0), (1, 0), (0, 1)])), point_map())),
    ((Cell(P0, 1), CellMap(torus(1), [()], [[1]], [0])),
     (Cell(P0, 1), CellMap(torus(1), [()], [[2]], [0]))),
], ids=["target", "torus-rank", "dimension", "torus-columns"])
def test_match_refuses_other_shapes(first, second):
    # no identification is searched for: the canonical forms already differ
    assert oriented_match(*first, *second) is None
    assert oriented_match(*second, *first) is None


def test_match_point_across_ambients():
    inner = Cell(Polytope.from_points(1, [[1]]), 0, None, -1)
    outer = Cell(Polytope.from_points(0, [[]]), 0, None, 1)
    assert oriented_match(inner, point_map(), outer, point_map()) == -1


def test_class_match_translated_triangle():
    shifted = BordismClass(
        [(edge_cell((3, 0), (4, 0)), point_map()),
         (edge_cell((4, 0), (3, 1)), point_map()),
         (edge_cell((3, 1), (3, 0)), point_map())])
    assert class_match(hollow_triangle(), shifted)
    flipped = BordismClass([(edge_cell((3, 0), (4, 0), sign=-1),
                             point_map())])
    assert not class_match(hollow_triangle(), flipped)


def test_class_match_backtracks_past_a_failed_first_choice():
    # the first positive point takes the positive one, the second positive
    # point then finds only the negative one, and the search undoes the
    # first choice; matching is an equivalence, so no other choice succeeds
    two = BordismClass([pt_class(1).components[0], pt_class(1).components[0]])
    mixed = BordismClass([pt_class(1).components[0], pt_class(-1).components[0]])
    assert not class_match(two, mixed)
    assert class_match(two, BordismClass(list(reversed(two.components))))


# ---------------------------------------------------------------------------
# Group presentation
# ---------------------------------------------------------------------------

def test_two_points_and_interval_present_z():
    pres = present_group([pt_class(1), pt_class(-1)], [interval_class()])
    assert pres.relations == ((1, 1),)
    assert pres.invariant_factors() == (1,)
    assert pres.free_rank == 1
    assert pres.torsion() == ()
    assert pres.describe() == "Z"


def test_no_relations_free():
    pres = present_group([pt_class(1), pt_class(-1)])
    assert pres.free_rank == 2
    assert pres.invariant_factors() == ()
    assert pres.describe() == "Z^2"


def test_single_generator_zero_relation():
    pres = present_group([pt_class(1)], [interval_class()])
    assert pres.relations == ((0,),)
    assert pres.free_rank == 1
    assert pres.describe() == "Z"


def test_presentation_generator_order_irrelevant():
    a = present_group([pt_class(1), pt_class(-1)], [interval_class()])
    b = present_group([pt_class(-1), pt_class(1)], [interval_class()])
    assert a.invariant_factors() == b.invariant_factors()
    assert a.free_rank == b.free_rank


def test_rational_presentation():
    pres = present_group([pt_class(1), pt_class(-1)], [interval_class()],
                         ring="Q")
    assert pres.invariant_factors() == (1,)
    assert pres.describe() == "Q"


def test_generators_must_be_closed():
    with pytest.raises(BordismError, match="closed"):
        present_group([interval_class()])


def test_witness_with_corners_rejected():
    square = Cell(Polytope.from_points(2, [[0, 0], [1, 0], [0, 1], [1, 1]]))
    w = BordismClass([(square, point_map())])
    with pytest.raises(BordismError, match="corner"):
        present_group([pt_class(1), pt_class(-1)], [w])


def test_unmatched_boundary_rejected():
    ident = CellMap(euclid(1), [[1]], [[]], [0])
    gen = BordismClass([(Cell(Polytope.from_points(1, [[7]]), 0, None, 1),
                         ident)])
    w = BordismClass([(Cell(Polytope.from_points(1, [[0], [1]]), 0,
                            ((F(1),),), 1), ident)])
    with pytest.raises(BordismError, match="matches no generator"):
        present_group([gen], [w])


def test_witness_with_pairings():
    shared = PairingWitness.shared
    gens = [pt_class(1), pt_class(-1)]
    glued = BordismClass([segment(0, 1), segment(1, 2)], (shared(0, 1, [(1,)]),))
    assert present_group(gens, [glued]).relations == ((1, 1),)
    faulty = {
        "reverse": ([segment(0, 1), segment(1, 2, -1)], (shared(0, 1, [(1,)]),)),
        "fixes": ([segment(0, 1), segment(1, 2)], (shared(0, 0, [(1,)]),)),
        "paired": ([segment(0, 1), segment(1, 2)],
                   (shared(0, 1, [(1,)]), shared(0, 1, [(1,)]))),
    }
    for needle, (comps, pws) in faulty.items():
        with pytest.raises(BordismError, match=needle):
            present_group(gens, [BordismClass(comps, pws)])


def test_map_values_steer_matching():
    ident = CellMap(euclid(1), [[1]], [[]], [0])
    g0 = BordismClass([(Cell(Polytope.from_points(1, [[0]]), 0, None, 1),
                        ident)])
    g1 = BordismClass([(Cell(Polytope.from_points(1, [[1]]), 0, None, -1),
                        ident)])
    w = BordismClass([(Cell(Polytope.from_points(1, [[0], [1]]), 0,
                            ((F(1),),), 1), ident)])
    pres = present_group([g0, g1], [w])
    assert pres.relations == ((-1, -1),)


def test_presentation_row_length_checked():
    with pytest.raises(BordismError, match="row length"):
        ModulePresentation((pt_class(1),), ((1, 2),))


# ---------------------------------------------------------------------------
# Comparison maps
# ---------------------------------------------------------------------------

def test_classical_rereading():
    b = pt_class(1, kind="classical")
    k = Pi_bo_Kb(b)
    assert k.kind == "kuranishi"
    assert k.canonical_terms() == b.canonical_terms()
    with pytest.raises(BordismError, match="classical"):
        Pi_bo_Kb(k)


def test_point_emission():
    c = Pi_Kb_Kh(pt_class(1))
    terms = c.terms()
    assert len(terms) == 1
    assert terms[0][0] == 1
    assert terms[0][1].grade == 0


def test_triangle_emission_is_cycle():
    c = Pi_Kb_Kh(hollow_triangle())
    assert len(c.terms()) == 3
    assert boundary(c).is_zero


def test_emission_requires_closed_class():
    with pytest.raises(BordismError, match="closed"):
        Pi_Kb_Kh(interval_class())


def test_emission_requires_shared_faces():
    with pytest.raises(BordismError, match="shared"):
        Pi_Kb_Kh(hexagon_torus())


def test_empty_class_emits_zero():
    assert Pi_Kb_Kh(BordismClass(())).is_zero


def test_tag_independence_triangle():
    w, report = tag_independence_witness(hollow_triangle(), "g", "h")
    assert report.ok
    assert all(g.grade == 2 for _, g in w.terms())


def test_tag_independence_point():
    _, report = tag_independence_witness(pt_class(1), "a", "b")
    assert report.ok


def test_tag_atoms_must_differ():
    with pytest.raises(BordismError, match="differ"):
        tag_independence_witness(pt_class(1), "g", "g")


# ---------------------------------------------------------------------------
# Products
# ---------------------------------------------------------------------------

def test_identity_is_cup_unit():
    one = identity_cobordism(torus(1))
    b = circle_cover(2)
    assert bordism_cup_cap(one, b) == b
    assert bordism_cup_cap(b, one) == b


def test_double_cover_product():
    p = bordism_cup_cap(circle_cover(2), circle_cover(2))
    assert p.cooriented
    assert len(p.components) == 2
    assert p.grade == 0


def test_cap_with_identity_over_point():
    tri = hollow_triangle()
    one = identity_cobordism(POINT)
    res = bordism_cup_cap(tri, one)
    assert not res.cooriented
    assert class_match(res, tri)
    assert closed_certificate_check(res).ok
    assert boundary(Pi_Kb_Kh(res)).is_zero


def product_corpus():
    """Cooriented classes over T^1: circle covers, points times T^2 whose
    kernel frames point either way, and the unit."""
    return ([circle_cover(k) for k in (1, 2, 3, -2)]
            + [kernel_class((1, 0), (0, 1), 1), kernel_class((1, 1), (1, -1), -1),
               kernel_class((3, 0), (0, -1), 1), identity_cobordism(torus(1))])


# Canonical terms of the products of all ordered pairs of the corpus.
GOLDEN_PRODUCT_DIGEST = (
    "f2f2ffb7265c7152446d341d18702a014f6812f904bc0bfdc9cc7c1552527d4a")


def test_products_golden_digest():
    h = hashlib.sha256()
    count = 0
    corpus = product_corpus()
    for a in corpus:
        for b in corpus:
            terms = bordism_cup_cap(a, b).canonical_terms()
            count += len(terms)
            h.update(repr(terms).encode())
    assert count == 76
    assert h.hexdigest() == GOLDEN_PRODUCT_DIGEST


def test_classes_compare_and_hash_on_integer_terms(monkeypatch):
    """Equality, hashing and class_match read the components' integer terms
    (BordismClass._terms): they agree with canonical_terms, and they build
    no Fraction view of a canonical map."""
    def mapped(slope, offset):
        return (Cell(Polytope.from_points(1, [[0], [1]]), 0, ((F(1),),), 1),
                CellMap(torus(1), [[slope]], [[]], [offset]))

    half, third, quarter = F(1, 2), F(1, 3), F(1, 4)
    oriented = [BordismClass([mapped(half, third)]), BordismClass([mapped(half, third + 1)]),
                BordismClass([mapped(half, quarter)]), BordismClass([mapped(third, third)]),
                BordismClass([mapped(half, third), mapped(third, quarter)]),
                BordismClass([mapped(third, quarter), mapped(half, third)])]
    corpus = product_corpus()
    classes = oriented + corpus + [bordism_cup_cap(a, b) for a in corpus[:3] for b in corpus]
    terms = [c.canonical_terms() for c in classes]
    monkeypatch.setattr(CellMap, "_view", lambda self: pytest.fail("built a Fraction view"))
    assert oriented[0] == oriented[1] and oriented[4] == oriented[5]
    assert oriented[0] != oriented[2] and oriented[0] != oriented[3]
    shared = 0
    for i, (c, tc) in enumerate(zip(classes, terms)):
        for j, (d, td) in enumerate(zip(classes, terms)):
            same = c.kind == d.kind and tc == td
            assert (c == d) == same
            if same:
                assert hash(c) == hash(d)
                shared += i != j
            if c.cooriented and d.cooriented:
                assert class_match(c, d) == (tc == td)
    assert shared > 2


def test_product_with_an_empty_factor_is_empty():
    for a, b in ((BordismClass(()), circle_cover(2)), (hollow_triangle(), BordismClass(()))):
        res = bordism_cup_cap(a, b)
        assert res.components == () and res.pairings == ()


def test_derived_certificate_is_re_audited(monkeypatch):
    # a closed first factor against a closed cooriented one has every product
    # facet over a paired facet of the first, so only a corrupted derivation
    # reaches the refusal: here one carried pairing is lost
    real = bordism._derive_product_pairings
    monkeypatch.setattr(bordism, "_derive_product_pairings",
                        lambda *args: real(*args)[1:])
    with pytest.raises(BordismError, match="^derived certificate failed: "):
        bordism_cup_cap(hollow_triangle(), identity_cobordism(POINT))


def test_derivation_skips_a_pairing_of_faces_no_piece_meets():
    # a cooriented second factor's torus part maps onto the target, so every
    # facet F of the first factor meets each piece in the face over
    # (F, the whole second polytope); only a pairing that names no facet,
    # here the two whole edges, meets no piece, and the derivation skips it
    tri = hollow_triangle()
    eye = [[1, 0], [0, 1]]
    edges = PairingWitness((0, [(0, 0), (1, 0)]), (1, [(1, 0), (0, 1)]), eye, [0, 0])
    first = BordismClass(tri.components, tri.pairings + (edges,))
    assert "pairing names a missing face" in closed_certificate_check(first).details[0]
    one = identity_cobordism(POINT)
    res = bordism_cup_cap(first, one)
    assert closed_certificate_check(res).ok
    assert res.pairings == bordism_cup_cap(tri, one).pairings
    assert len(res.pairings) == len(tri.pairings)


def test_derivation_refuses_a_pairing_of_a_facet_with_no_facet():
    # the vertex (0, 0) is a facet of edge 0, the whole edge 1 is no facet of
    # edge 1: one side meets a piece, the other none
    tri = hollow_triangle()
    eye = [[1, 0], [0, 1]]
    odd = PairingWitness((0, [(0, 0)]), (1, [(1, 0), (0, 1)]), eye, [0, 0])
    first = BordismClass(tri.components, tri.pairings + (odd,))
    assert any("pairing names a missing face" in d
               for d in closed_certificate_check(first).details)
    with pytest.raises(BordismError, match="pairing 3 pairs a facet with a face that is no facet"):
        bordism_cup_cap(first, identity_cobordism(POINT))


def test_two_oriented_factors_rejected():
    with pytest.raises(BordismError, match="cooriented"):
        bordism_cup_cap(pt_class(1), pt_class(1))


def test_product_target_mismatch():
    with pytest.raises(BordismError, match="target"):
        bordism_cup_cap(identity_cobordism(torus(1)),
                        identity_cobordism(POINT))


# ---------------------------------------------------------------------------
# Strata projection
# ---------------------------------------------------------------------------

def test_trivial_projection_is_identity():
    triv = cyclic_group(1)
    rho = VirtualRep(triv, ())
    b = pt_class(1)
    assert strata_projection(b, triv, rho) is b


def test_hexagon_projection_to_center():
    z3 = cyclic_group(3)
    b = hexagon_torus(model=hexagon_action())
    rho = VirtualRep(z3, ((2, -1, -1),))
    res = strata_projection(b, z3, rho)
    assert len(res.components) == 2
    assert res.grade == 0
    center = ((F(0), F(0)),)
    assert all(c.cell.polytope.vertices == center for c in res.components)
    assert closed_certificate_check(res).ok


def test_even_order_projection_rejected():
    z2 = cyclic_group(2)
    rho = VirtualRep(z2, ((1, -1),))
    with pytest.raises(BordismError, match="odd orders"):
        strata_projection(pt_class(1), z2, rho)


def test_projection_needs_model():
    z3 = cyclic_group(3)
    rho = VirtualRep(z3, ((2, -1, -1),))
    with pytest.raises(BordismError, match="symmetry model"):
        strata_projection(hexagon_torus(), z3, rho)


def test_projection_needs_invariant_map():
    z3 = cyclic_group(3)
    rho = VirtualRep(z3, ((2, -1, -1),))
    p = Polytope.from_points(2, HEX)
    cmap = CellMap(euclid(1), [[1, 0]], [[]], [0])
    comp = BordismComponent(Cell(p), cmap, model=hexagon_action())
    b = BordismClass([comp])
    with pytest.raises(BordismError, match="invariant"):
        strata_projection(b, z3, rho)
