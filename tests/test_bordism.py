import hashlib
from fractions import Fraction

import pytest

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


def test_map_incompatible_pairing():
    p = Polytope.from_points(1, [[0], [1]])
    cell = Cell(p, 0, ((F(1),),), 1)
    cmap = CellMap(euclid(1), [[1]], [[]], [0])
    pw = PairingWitness((0, [(0,)]), (0, [(1,)]), [[1]], [1])
    b = BordismClass([(cell, cmap)], (pw,))
    report = closed_certificate_check(b)
    assert not report.ok
    assert any("commute" in d for d in report.details)


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
