"""Group actions on polytopes, fixed strata, fiber counts, and pushdowns."""

import hashlib
from fractions import Fraction

import pytest

from cornercalc.cells import POINT, Cell, CellMap, euclid, torus
from cornercalc.chains import Generator, QuotientMarker, Tag, chain
from cornercalc.geometry import POINT_POLYTOPE, Polytope, box, interval
from cornercalc.orbifold import (
    TRIVIAL_GROUP,
    FiniteGroup,
    GroupAction,
    OrbifoldError,
    RealRep,
    VirtualRep,
    _cut_by_equations,
    cyclic_group,
    direction_rep,
    fixed_subspace,
    injective_morphisms,
    iota_check,
    nontrivial_character,
    orbifold_stratum,
    product_group,
    quotient_pushdown,
    split_rep,
    stabilizer,
    symmetric_group,
    zero_rep,
)
from cornercalc.suites import _strata_cases


def perm_matrix(p):
    n = len(p)
    m = [[0] * n for _ in range(n)]
    for i in range(n):
        m[p[i]][i] = 1
    return m


def seg(a, b):
    return interval(a, b)


Z2 = cyclic_group(2)
Z3 = cyclic_group(3)
S3 = symmetric_group(3)
K4 = product_group(cyclic_group(2), cyclic_group(2))


def reflection_action():
    return GroupAction(Z2, seg(-1, 1), {
        "r0": ([[1]], [0]),
        "r1": ([[-1]], [0]),
    })


def square_action():
    sq = box([(-1, 1), (-1, 1)])
    return GroupAction(K4, sq, {
        "r0|r0": ([[1, 0], [0, 1]], [0, 0]),
        "r1|r0": ([[-1, 0], [0, 1]], [0, 0]),
        "r0|r1": ([[1, 0], [0, -1]], [0, 0]),
        "r1|r1": ([[-1, 0], [0, -1]], [0, 0]),
    })


def simplex_action():
    tri = Polytope.from_points(3, [[1, 0, 0], [0, 1, 0], [0, 0, 1]])
    rep = {}
    for label in S3.elements:
        p = tuple(int(c) for c in label)
        rep[label] = (perm_matrix(p), [0, 0, 0])
    return GroupAction(S3, tri, rep)


def hexagon_action():
    hexa = Polytope.from_points(2, [[1, 0], [1, 1], [0, 1],
                                    [-1, 0], [-1, -1], [0, -1]])
    m = [[0, -1], [1, -1]]
    m2 = [[-1, 1], [-1, 0]]
    return GroupAction(Z3, hexa, {
        "r0": ([[1, 0], [0, 1]], [0, 0]),
        "r1": (m, [0, 0]),
        "r2": (m2, [0, 0]),
    })


def swap_action():
    comps = (seg(0, 1), seg(3, 4))
    return GroupAction(Z2, comps, {
        "r0": [(0, [[1]], [0]), (1, [[1]], [0])],
        "r1": [(1, [[1]], [3]), (0, [[1]], [-3])],
    })


def sign_rep(group, order2_element):
    chi = tuple(-1 if g == order2_element else 1 for g in group.elements)
    return VirtualRep(group, (chi,))


def full_tag(poly, prefix):
    faces = []
    for d in sorted(poly.faces()):
        faces.extend(poly.faces()[d])
    return Tag(poly, {fk: ((prefix, i),) for i, fk in
                      enumerate(sorted(faces, key=lambda k: (len(k), k)))})


# ---------------------------------------------------------------------------
# groups
# ---------------------------------------------------------------------------

def test_cyclic_group_basics():
    assert Z3.identity == "r0"
    assert Z3.mul("r1", "r2") == "r0"
    assert Z3.inv("r1") == "r2"
    assert len(TRIVIAL_GROUP) == 1


def test_symmetric_group_structure():
    assert len(S3) == 6
    sizes = sorted(len(c) for c in S3.conjugacy_classes())
    assert sizes == [1, 2, 3]


def test_bad_table_rejected():
    with pytest.raises(OrbifoldError):
        FiniteGroup(["a", "b"], {("a", "a"): "a", ("a", "b"): "b",
                                 ("b", "a"): "b", ("b", "b"): "b"})


def test_injective_morphisms_counts():
    assert len(injective_morphisms(Z2, S3)) == 3
    assert len(injective_morphisms(Z3, S3)) == 2
    assert len(injective_morphisms(Z2, Z3)) == 0
    assert len(injective_morphisms(TRIVIAL_GROUP, S3)) == 1
    assert len(injective_morphisms(Z2, K4)) == 3


# ---------------------------------------------------------------------------
# actions and stabilizers
# ---------------------------------------------------------------------------

def test_action_validates_vertex_permutation():
    with pytest.raises(OrbifoldError):
        GroupAction(Z2, seg(-1, 1), {
            "r0": ([[1]], [0]),
            "r1": ([[1]], [1]),
        })


def test_action_validates_homomorphism():
    comps = (seg(0, 1), seg(3, 4))
    with pytest.raises(OrbifoldError):
        GroupAction(Z2, comps, {
            "r0": [(0, [[1]], [0]), (1, [[1]], [0])],
            "r1": [(1, [[1]], [3]), (0, [[-1]], [4])],
        })


def test_action_law_fails_although_every_element_permutes():
    # r2 given r1's matrix: each map permutes the hexagon, r1.r1 != r2
    hexa = hexagon_action().single
    m = [[0, -1], [1, -1]]
    with pytest.raises(OrbifoldError, match="not a homomorphism"):
        GroupAction(Z3, hexa, {
            "r0": ([[1, 0], [0, 1]], [0, 0]),
            "r1": (m, [0, 0]),
            "r2": (m, [0, 0]),
        })


def test_action_law_is_read_in_the_image_component():
    # r1 swaps two unit squares; the way back mirrors the first coordinate,
    # so r1.(r1.v) is v's mirror image in its own square, not v
    comps = (box([(0, 1), (0, 1)]), box([(3, 4), (0, 1)]))
    eye = [[1, 0], [0, 1]]
    mirror = [[-1, 0], [0, 1]]
    with pytest.raises(OrbifoldError, match="not a homomorphism"):
        GroupAction(Z2, comps, {
            "r0": [(0, eye, [0, 0]), (1, eye, [0, 0])],
            "r1": [(1, eye, [3, 0]), (0, mirror, [4, 0])],
        })
    act = GroupAction(Z2, comps, {
        "r0": [(0, eye, [0, 0]), (1, eye, [0, 0])],
        "r1": [(1, mirror, [4, 0]), (0, mirror, [4, 0])],
    })
    assert act.apply("r1", [0, 1]) == (1, (4, 1))


def test_strata_case_actions_construct():
    cases = _strata_cases()
    assert len(cases) == 13
    assert all(isinstance(act, GroupAction) for _, act, _, _ in cases)


# Any drift in an action's vertex tables or in a stratum's dimension, pieces,
# their vertices, morphisms or characters changes it.
GOLDEN_STRATA_DIGEST = (
    "585a8ee4dfecc14845c2a968c8050947f48e82b2deabf9452618e8d29a3add14")


def test_strata_golden_digest():
    h = hashlib.sha256()
    for _, act, sub, rho in _strata_cases():
        st = orbifold_stratum(act, sub, rho)
        h.update(repr((sorted(act.tables.items()), st.dim,
                       [(piece.component, piece.polytope.vertices, piece.morphism,
                         piece.character) for piece in st.pieces])).encode())
    assert h.hexdigest() == GOLDEN_STRATA_DIGEST


def test_stabilizer_points():
    act = reflection_action()
    assert stabilizer(act, [0]) == ("r0", "r1")
    assert stabilizer(act, [Fraction(1, 2)]) == ("r0",)
    with pytest.raises(OrbifoldError):
        stabilizer(act, [2])


def test_stabilizer_square_origin():
    act = square_action()
    assert len(stabilizer(act, [0, 0])) == 4
    assert stabilizer(act, [0, 1]) == ("r0|r0", "r1|r0")


# ---------------------------------------------------------------------------
# representations
# ---------------------------------------------------------------------------

def test_split_permutation_rep():
    mats = {label: perm_matrix(tuple(int(c) for c in label))
            for label in S3.elements}
    rep = RealRep(S3, 3, mats)
    assert rep.character() == (3, 1, 1, 0, 0, 1)
    triv, nontriv = split_rep(rep)
    assert triv.dim == 1
    assert nontriv.dim == 2
    assert nontriv.trivial_multiplicity() == 0
    assert nontriv.character() == (2, 0, 0, -1, -1, 0)
    assert len(fixed_subspace(rep)) == 1


def test_rep_validation():
    with pytest.raises(OrbifoldError):
        RealRep(Z2, 1, {"r0": [[1]], "r1": [[2]]})
    with pytest.raises(OrbifoldError):
        RealRep(Z2, 1, {"r0": [[-1]], "r1": [[1]]})


def test_virtual_rep_checks():
    with pytest.raises(OrbifoldError):
        VirtualRep(Z2, ((1, 1),))
    rho = sign_rep(Z2, "r1")
    assert rho.dim == 1
    assert not rho.is_virtual
    assert VirtualRep(Z2, negative=((1, -1),)).is_virtual
    assert zero_rep(Z3).dim == 0
    assert zero_rep(Z3).net_character() == (0, 0, 0)


def test_virtual_rep_from_nontrivial():
    mats = {label: perm_matrix(tuple(int(c) for c in label))
            for label in S3.elements}
    _, nontriv = split_rep(RealRep(S3, 3, mats))
    rho = VirtualRep.from_nontrivial(nontriv)
    assert rho.dim == 2
    assert rho.net_character() == (2, 0, 0, -1, -1, 0)


# ---------------------------------------------------------------------------
# strata
# ---------------------------------------------------------------------------

def test_reflection_stratum_is_origin():
    act = reflection_action()
    st = orbifold_stratum(act, Z2, sign_rep(Z2, "r1"))
    assert st.dim == 0
    assert len(st.pieces) == 1
    assert st.pieces[0].polytope.vertices == ((Fraction(0),),)
    assert st.orientation_convention is None
    report = iota_check(st)
    assert report.ok
    assert all(f.count == 1 for f in report.fibers)


def test_virtual_class_rejected():
    act = reflection_action()
    with pytest.raises(OrbifoldError):
        orbifold_stratum(act, Z2, VirtualRep(Z2, negative=((1, -1),)))


def test_trivial_subgroup_gives_whole_space():
    act = reflection_action()
    st = orbifold_stratum(act, TRIVIAL_GROUP, zero_rep(TRIVIAL_GROUP))
    assert st.dim == 1
    assert len(st.pieces) == 1
    assert st.pieces[0].polytope.vertices == act.spaces[0].vertices


def test_simplex_mirror_stratum():
    act = simplex_action()
    st = orbifold_stratum(act, Z2, sign_rep(Z2, "r1"))
    assert st.dim == 1
    assert len(st.pieces) == 3
    for piece in st.pieces:
        assert piece.polytope.dim == 1
    bary = (Fraction(1, 3),) * 3
    report = iota_check(st, probes=[(0, bary)])
    assert report.ok
    assert report.fibers[0].count == 1


def test_simplex_rotation_stratum():
    act = simplex_action()
    rho = VirtualRep(Z3, ((2, -1, -1),))
    st = orbifold_stratum(act, Z3, rho)
    assert st.dim == 0
    assert len(st.pieces) == 2
    assert st.orientation_convention == "rotation-order"
    bary = (Fraction(1, 3),) * 3
    for piece in st.pieces:
        assert piece.polytope.vertices == (bary,)
    report = iota_check(st)
    assert report.ok
    assert report.fibers[0].count == 1


def test_square_sign_stratum_fibers():
    act = square_action()
    st = orbifold_stratum(act, Z2, sign_rep(Z2, "r1"))
    assert st.dim == 1
    assert len(st.pieces) == 2
    report = iota_check(st, probes=[(0, (0, 0)), (0, (0, 1)),
                                    (0, (Fraction(1, 2), 0))])
    assert report.ok
    counts = [f.count for f in report.fibers]
    assert counts == [2, 1, 1]


def test_square_double_sign_stratum():
    act = square_action()
    rho = VirtualRep(Z2, ((1, -1), (1, -1)))
    st = orbifold_stratum(act, Z2, rho)
    assert st.dim == 0
    assert len(st.pieces) == 1
    assert st.pieces[0].polytope.vertices == ((Fraction(0), Fraction(0)),)
    report = iota_check(st)
    assert report.ok
    assert report.fibers[0].count == 1


def test_hexagon_rotation_stratum():
    act = hexagon_action()
    rho = VirtualRep(Z3, ((2, -1, -1),))
    st = orbifold_stratum(act, Z3, rho)
    assert st.dim == 0
    assert len(st.pieces) == 2
    for piece in st.pieces:
        assert piece.polytope.vertices == ((Fraction(0), Fraction(0)),)
    assert st.orientation_convention == "rotation-order"


def test_stratum_dimension_formula():
    cases = [
        (reflection_action(), Z2, sign_rep(Z2, "r1"), 0),
        (square_action(), Z2, sign_rep(Z2, "r1"), 1),
        (square_action(), Z2, VirtualRep(Z2, ((1, -1), (1, -1))), 0),
        (simplex_action(), Z2, sign_rep(Z2, "r1"), 1),
        (simplex_action(), Z3, VirtualRep(Z3, ((2, -1, -1),)), 0),
        (hexagon_action(), Z3, VirtualRep(Z3, ((2, -1, -1),)), 0),
    ]
    for act, sub, rho, expected in cases:
        st = orbifold_stratum(act, sub, rho)
        assert st.dim == expected
        space_dim = act.spaces[0].dim
        assert st.dim == space_dim - rho.dim


def test_direction_rep_character():
    act = simplex_action()
    rep = direction_rep(act)
    assert rep.character() == (2, 0, 0, -1, -1, 0)
    assert nontrivial_character(rep) == (2, 0, 0, -1, -1, 0)


# ---------------------------------------------------------------------------
# quotient pushdown
# ---------------------------------------------------------------------------

def point_map():
    return CellMap(POINT, (), (), ())


def test_pushdown_trivial_group_is_plain():
    act = GroupAction(TRIVIAL_GROUP, seg(-1, 1), {"r0": ([[1]], [0])})
    tag = full_tag(act.spaces[0], "a")
    result = quotient_pushdown(act, point_map(), tag)
    expected = chain(Generator(Cell(seg(-1, 1), 0), point_map(), tag))
    assert result == expected


def test_pushdown_reflection_is_marked():
    act = reflection_action()
    poly = act.spaces[0]
    ends = poly.faces()[0]
    top = poly.faces()[1][0]
    tag = Tag(poly, {ends[0]: (("end", 0),), ends[1]: (("end", 0),),
                     top: (("seg", 0),)})
    result = quotient_pushdown(act, point_map(), tag)
    terms = result.terms()
    assert len(terms) == 1
    coeff, gen = terms[0]
    assert coeff == Fraction(1, 2)
    assert gen.quotient is None
    orbits = (tuple(sorted(ends)), (top,))
    marked = Generator(Cell(poly, 0), point_map(), tag,
                       quotient=QuotientMarker.from_faces(poly, 2, orbits))
    assert result.coefficient(marked) == 1


def test_pushdown_rejects_asymmetric_tag():
    act = reflection_action()
    tag = full_tag(act.spaces[0], "a")
    with pytest.raises(OrbifoldError):
        quotient_pushdown(act, point_map(), tag)


def test_pushdown_rejects_noninvariant_map():
    act = reflection_action()
    poly = act.spaces[0]
    ends = poly.faces()[0]
    top = poly.faces()[1][0]
    tag = Tag(poly, {ends[0]: (("end", 0),), ends[1]: (("end", 0),),
                     top: (("seg", 0),)})
    cmap = CellMap(euclid(1), [[1]], [[0]], [0])
    with pytest.raises(OrbifoldError):
        quotient_pushdown(act, cmap, tag)
    cmap_t = CellMap(torus(1), [[1]], [[0]], [0])
    with pytest.raises(OrbifoldError):
        quotient_pushdown(act, cmap_t, tag)


def test_pushdown_free_swap_is_one_interval():
    act = swap_action()
    tags = []
    for comp in act.spaces:
        ends = sorted(comp.faces()[0])
        top = comp.faces()[1][0]
        tags.append(Tag(comp, {ends[0]: (("lo",),), ends[1]: (("hi",),),
                               top: (("seg",),)}))
    result = quotient_pushdown(act, [point_map(), point_map()], tags)
    terms = result.terms()
    assert len(terms) == 1
    coeff, gen = terms[0]
    assert coeff == 1
    assert gen.quotient is None
    assert gen.cell.polytope.vertices == act.spaces[0].vertices


def test_pushdown_constant_torus_map():
    act = reflection_action()
    poly = act.spaces[0]
    ends = poly.faces()[0]
    top = poly.faces()[1][0]
    tag = Tag(poly, {ends[0]: (("end", 0),), ends[1]: (("end", 0),),
                     top: (("seg", 0),)})
    cmap = CellMap(torus(1), [[0]], [[]], [Fraction(1, 3)])
    result = quotient_pushdown(act, cmap, tag)
    terms = result.terms()
    assert len(terms) == 1
    assert terms[0][0] == Fraction(1, 2)


def test_cut_by_equations():
    diagonal = [((1, -1, 0), 0), ((0, 1, -1), 0)]
    assert _cut_by_equations(box([(0, 1)] * 3), diagonal) == Polytope(3, [[0, 0, 0], [1, 1, 1]])
    assert _cut_by_equations(box([(0, 1)] * 2), [((1, 0), 2)]) is None
    assert _cut_by_equations(POINT_POLYTOPE, [((), 0)]) == POINT_POLYTOPE
    assert _cut_by_equations(POINT_POLYTOPE, [((), 1)]) is None


# ---------------------------------------------------------------------------
# vertex tables over rational vertices and maps
# ---------------------------------------------------------------------------

HALF = Fraction(1, 2)


def test_action_tables_on_rational_vertices():
    # r1 halves [0, 1] onto [0, 1/2] and doubles it back
    act = GroupAction(Z2, (seg(0, 1), seg(0, HALF)), {
        "r0": [(0, [[1]], [0]), (1, [[1]], [0])],
        "r1": [(1, [[HALF]], [0]), (0, [[2]], [0])],
    })
    assert act.tables["r1"] == [(0, 1), (0, 1)]
    third = Fraction(1, 3)
    refl = GroupAction(Z2, seg(third, 2 * third), {"r0": ([[1]], [0]), "r1": ([[-1]], [1])})
    assert refl.tables["r1"] == [(1, 0)]
    rot = GroupAction(Z2, box([(-HALF, HALF), (0, third)]), {
        "r0": ([[1, 0], [0, 1]], [0, 0]),
        "r1": ([[-1, 0], [0, -1]], [0, third]),
    })
    assert rot.tables["r1"] == [(3, 2, 1, 0)]


def test_action_refuses_images_off_the_vertex_lattice():
    # x + 1/2 sends 0 and 1 to 1/2 and 3/2, which round down onto 0 and 1
    with pytest.raises(OrbifoldError, match="does not permute the vertex set"):
        GroupAction(Z2, seg(0, 1), {"r0": ([[1]], [0]), "r1": ([[1]], [HALF])})
    with pytest.raises(OrbifoldError, match="does not permute the vertex set"):
        GroupAction(Z2, box([(0, 1)] * 2), {
            "r0": ([[1, 0], [0, 1]], [0, 0]),
            "r1": ([[0, 1], [1, 0]], [HALF, 0]),
        })


def test_action_refuses_a_map_onto_the_wrong_component_size():
    # x + 3 carries [0, 1/2] to [3, 7/2], not onto [3, 4]; read without the
    # denominators, the vertices 0 and 1/2 would be 0 and 1
    with pytest.raises(OrbifoldError, match="does not permute the vertex set"):
        GroupAction(Z2, (seg(0, HALF), seg(3, 4)), {
            "r0": [(0, [[1]], [0]), (1, [[1]], [0])],
            "r1": [(1, [[1]], [3]), (0, [[1]], [-3])],
        })
