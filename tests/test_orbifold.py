"""Group actions on polytopes, fixed strata, fiber counts, and pushdowns."""

import dataclasses
import hashlib
import itertools
from fractions import Fraction

import pytest
from hypothesis import assume, given, settings, strategies as st

from cornercalc._linalg import _scaled, det, identity, mat, matvec, solve, vec
from cornercalc.cells import POINT, Cell, CellMap, euclid, torus
from cornercalc.chains import Chain, Generator, QuotientMarker, Tag, chain
from cornercalc.geometry import POINT_POLYTOPE, Polytope, box, interval, section_polytope
from cornercalc.orbifold import (
    TRIVIAL_GROUP,
    ActionComponentMap,
    FiniteGroup,
    GroupAction,
    OrbifoldError,
    RealRep,
    VirtualRep,
    _cut_by_equations,
    _tangent_character,
    cyclic_group,
    direction_rep,
    fixed_subspace,
    injective_morphisms,
    iota_check,
    nontrivial_character,
    orbifold_stratum,
    product_group,
    quotient_pushdown,
    same_group,
    split_rep,
    stabilizer,
    symmetric_group,
    zero_rep,
)
from cornercalc.suites import _strata_cases
from reference import cut_by_equations, iota_by_containment


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


def _table(elements, products):
    """The table of elements whose products read row by row from `products`."""
    return {(a, b): c for (a, b), c in
            zip(itertools.product(elements, repeat=2), products.split())}


def test_bad_table_rejected():
    with pytest.raises(OrbifoldError, match="distinct and nonempty"):
        FiniteGroup([], {})
    with pytest.raises(OrbifoldError, match="distinct and nonempty"):
        FiniteGroup(["a", "a"], _table("aa", "a a a a"))
    with pytest.raises(OrbifoldError, match="table is incomplete"):
        FiniteGroup(["e", "a"], _table("ea", "e a a"))
    with pytest.raises(OrbifoldError, match="leaves the element set"):
        FiniteGroup(["e", "a"], _table("ea", "e a a b"))
    # x . y = x: every element is a left identity, none a right one
    with pytest.raises(OrbifoldError, match="no identity element"):
        FiniteGroup(["a", "b"], _table("ab", "a a b b"))
    # e the identity, a . a = a, a . b = b . a = e, b . b = b:
    # (a . a) . b = e but a . (a . b) = a
    with pytest.raises(OrbifoldError, match="not associative"):
        FiniteGroup(["e", "a", "b"], _table("eab", "e a b  a a e  b e b"))
    # a the identity, b . b = b: associative, but b has no inverse
    with pytest.raises(OrbifoldError, match="element 'b' has no inverse"):
        FiniteGroup(["a", "b"], {("a", "a"): "a", ("a", "b"): "b",
                                 ("b", "a"): "b", ("b", "b"): "b"})


def test_group_is_frozen():
    """A validated group cannot be edited, so its table stays the one checked."""
    z2 = cyclic_group(2)
    with pytest.raises(TypeError):
        z2.table[("r1", "r1")] = "r1"
    with pytest.raises(TypeError):
        z2._rows[1][1] = 1
    with pytest.raises(TypeError):
        z2._inv["r1"] = "r0"
    with pytest.raises(dataclasses.FrozenInstanceError):
        z2.table = {}
    with pytest.raises(dataclasses.FrozenInstanceError):
        z2.identity = "r1"
    with pytest.raises(dataclasses.FrozenInstanceError):
        del z2.elements
    assert z2.mul("r1", "r1") == "r0" and z2._rows == ((0, 1), (1, 0))
    # equal groups built apart are still one group
    assert same_group(z2, cyclic_group(2))
    assert same_group(K4, product_group(cyclic_group(2), cyclic_group(2)))
    assert not same_group(z2, Z3)


def test_injective_morphisms_match_brute_force():
    """Every injective map of the elements that respects the tables, and no
    other, once each."""
    z6 = product_group(Z2, Z3)
    for sub in (TRIVIAL_GROUP, Z2, Z3, K4, S3):
        for big in (Z2, Z3, K4, S3, z6):
            got = injective_morphisms(sub, big)
            want = {tuple(sorted(zip(sub.elements, images)))
                    for images in itertools.permutations(big.elements, len(sub))
                    if all(big.mul(x, y) == images[sub.elements.index(sub.mul(a, b))]
                           for a, x in zip(sub.elements, images)
                           for b, y in zip(sub.elements, images))}
            assert len(set(got)) == len(got) and set(got) == want


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


def _fraction_map(e):
    """The map x -> (A x + a) / m of e's ints (A, a, m), in Fractions."""
    a, c, m = e.ints
    return (tuple(tuple(Fraction(x, m) for x in row) for row in a),
            tuple(Fraction(x, m) for x in c))


def _apply(e, point):
    """e's map applied to point in Fractions."""
    matrix, offset = _fraction_map(e)
    return tuple(x + y for x, y in zip(matvec(matrix, vec(point)), offset))


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
    e = act.maps["r1"][0]
    assert (e.target, _apply(e, [0, 1])) == (1, (4, 1))


def test_strata_case_actions_construct():
    cases = _strata_cases()
    assert len(cases) == 13
    # a constant table, built once and shared
    assert isinstance(cases, tuple) and _strata_cases() is cases
    assert all(isinstance(act, GroupAction) for _, act, _, _ in cases)


# The vertex tables of every strata case's action, pinned before the actions
# were built on their integer views, and pinned again when each element's
# tables became a tuple: the same tables as lists hash to ac428fa4...
GOLDEN_ACTION_TABLES_DIGEST = (
    "36ac463ba3eeab46819bfb041c39e7a28a39039b40cb5af91f7214bb610ea1d5")


def test_action_tables_golden_digest():
    tables = [sorted(act.tables.items()) for _, act, _, _ in _strata_cases()]
    assert hashlib.sha256(repr(tables).encode()).hexdigest() == GOLDEN_ACTION_TABLES_DIGEST


def _fixed_locus_sections(integer_rows):
    """(case, embedding, component, vertices and tight masks, or None) of
    every fixed-locus section of the strata cases.  The cut (M - I) x = -c
    for the maps x -> M x + c of an embedding's images is read in Fractions,
    with affine_hull_equations and facet_inequalities, or on integers, as
    (A - m I) x = -a for each map's ints (A, a, m), with the polytope's
    rows()."""
    out = []
    for k, (_, act, sub, _) in enumerate(_strata_cases()):
        for lam in injective_morphisms(sub, act.group):
            for ci, poly in enumerate(act.spaces):
                maps = [act.maps[img][ci] for _, img in lam]
                if any(e.target != ci for e in maps):
                    continue
                if integer_rows:
                    forms = [e.ints for e in maps]
                    hull, ineqs = poly._fd.rows()
                else:
                    forms = [_fraction_map(e) + (1,) for e in maps]
                    hull = poly.affine_hull_equations()
                    ineqs = [(f, c) for f, c, _ in poly.facet_inequalities()]
                eqs = [(tuple(x - m * (j == r) for j, x in enumerate(row)), -c)
                       for a, off, m in forms for r, (row, c) in enumerate(zip(a, off))]
                section = section_polytope(poly.ambient_dim, eqs + list(hull), ineqs)
                out.append((k, lam, ci, section and (section[0].vertices, section[1])))
    return out


# The fixed-locus sections, vertices and tight masks, pinned with the Fraction
# rows before the cuts were read on integer rows.
GOLDEN_FIXED_LOCUS_DIGEST = (
    "e44596a0514525c01d53a9fdbe95429fa0987b141da819b2c5a6bc1e77a1a177")


def test_fixed_locus_sections_golden_digest():
    sections = _fixed_locus_sections(integer_rows=True)
    assert sections == _fixed_locus_sections(integer_rows=False)
    assert hashlib.sha256(repr(sections).encode()).hexdigest() == GOLDEN_FIXED_LOCUS_DIGEST


# Any drift in an action's vertex tables or in a stratum's dimension, pieces,
# their vertices, morphisms or characters changes it.
GOLDEN_STRATA_DIGEST = (
    "585a8ee4dfecc14845c2a968c8050947f48e82b2deabf9452618e8d29a3add14")


def test_strata_golden_digest():
    h = hashlib.sha256()
    for _, act, sub, rho in _strata_cases():
        st = orbifold_stratum(act, sub, rho)
        # each element's tables as a list, as they were when this was pinned;
        # their tuple form is pinned by GOLDEN_ACTION_TABLES_DIGEST
        tables = sorted((g, list(t)) for g, t in act.tables.items())
        h.update(repr((tables, st.dim,
                       [(piece.component, piece.polytope.vertices, piece.morphism,
                         piece.character) for piece in st.pieces])).encode())
    assert h.hexdigest() == GOLDEN_STRATA_DIGEST


# The strata digest sees only the characters of the direction representations;
# this one pins their matrices, for every embedding of every case and every
# component the embedding fixes.
GOLDEN_DIRECTION_REP_DIGEST = (
    "f5cfe0bb4e034a23f74577c508a6fec2bbf407d704b34690135ef78f9ec10c90")


def test_direction_rep_golden_digest():
    h = hashlib.sha256()
    for _, act, sub, _ in _strata_cases():
        for lam in injective_morphisms(sub, act.group):
            for ci in range(len(act.spaces)):
                if any(act.maps[img][ci].target != ci for _, img in lam):
                    continue
                rep = direction_rep(act, ci, elements=dict(lam), group=sub)
                h.update(repr(rep.matrices).encode())
    assert h.hexdigest() == GOLDEN_DIRECTION_REP_DIGEST


def test_stabilizer_points():
    act = reflection_action()
    assert stabilizer(act, [0]) == ("r0", "r1")
    assert stabilizer(act, [Fraction(1, 2)]) == ("r0",)
    with pytest.raises(OrbifoldError):
        stabilizer(act, [2])


def test_stabilizer_reflection_about_one():
    # x -> 2 - x on [1/3, 5/3]: rational vertices, a nonzero offset
    act = GroupAction(Z2, seg(Fraction(1, 3), Fraction(5, 3)),
                      {"r0": ([[1]], [0]), "r1": ([[-1]], [2])})
    assert stabilizer(act, [1]) == ("r0", "r1")
    assert stabilizer(act, [HALF]) == ("r0",)
    assert stabilizer(act, [Fraction(4, 3)]) == ("r0",)


def test_stabilizer_square_origin():
    act = square_action()
    assert len(stabilizer(act, [0, 0])) == 4
    assert stabilizer(act, [0, 1]) == ("r0|r0", "r1|r0")


def test_swapped_components_fix_no_point():
    # r1 swaps the two segments: it fixes no point and cuts no stratum
    act = swap_action()
    assert stabilizer(act, [HALF], 0) == ("r0",)
    assert orbifold_stratum(act, Z2, zero_rep(Z2)).pieces == ()


def test_component_indices_are_range_checked():
    # index -1 would read the last component, and 1 is past the only one
    act = reflection_action()
    st = orbifold_stratum(act, Z2, sign_rep(Z2, "r1"))
    for bad in (-1, 1, True, 0.0):
        with pytest.raises(OrbifoldError, match="no component"):
            stabilizer(act, [0], bad)
        with pytest.raises(OrbifoldError, match="no component"):
            direction_rep(act, bad)
        with pytest.raises(OrbifoldError, match="no component"):
            iota_check(st, probes=[(bad, [0])])
        with pytest.raises(OrbifoldError, match="no component"):
            act.component_orbit(bad)
        with pytest.raises(OrbifoldError, match="no component"):
            act.component_stabilizer(bad)
    assert iota_check(st, probes=[(0, [0])]).fibers[0].count == 1
    swap = swap_action()
    assert swap.component_orbit(1) == (0, 1) and swap.component_stabilizer(1) == ("r0",)
    with pytest.raises(OrbifoldError, match="no component 2: the action has 2"):
        swap.component_orbit(2)


def test_stratum_counts_the_embeddings_once():
    for _, act, sub, rho in _strata_cases():
        st = orbifold_stratum(act, sub, rho)
        assert st.embeddings == len(injective_morphisms(sub, act.group))


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


def _matmul(a, b):
    return tuple(tuple(sum((x * y for x, y in zip(row, col)), Fraction(0))
                       for col in zip(*b)) for row in a)


def _inverse(m):
    n = len(m)
    cols = [solve(mat(m), tuple(Fraction(int(i == j)) for i in range(n))) for j in range(n)]
    return tuple(tuple(col[i] for col in cols) for i in range(n))


def test_rep_validation():
    with pytest.raises(OrbifoldError):
        RealRep(Z2, 1, {"r0": [[1]], "r1": [[2]]})
    with pytest.raises(OrbifoldError, match="identity must act"):
        RealRep(Z2, 1, {"r0": [[-1]], "r1": [[1]]})
    # Over the common denominator 2 the law reads A_a A_b = 2 A_ab: read
    # without the factor 2, the first would be refused and the second kept.
    swap = RealRep(Z2, 2, {"r0": [[1, 0], [0, 1]], "r1": [[0, HALF], [2, 0]]})
    assert swap.character() == (2, 0)
    # the same matrices given as integers over the denominator 2
    halves = RealRep(Z2, 2, {"r0": [[2, 0], [0, 2]], "r1": [[0, 1], [4, 0]]}, den=2)
    assert repr(halves.matrices) == repr(swap.matrices)
    assert halves.character() == swap.character()
    with pytest.raises(OrbifoldError, match="do not form a homomorphism"):
        RealRep(Z2, 2, {"r0": [[1, 0], [0, 1]], "r1": [[0, HALF], [1, 0]]})
    # a rotation of order 3 conjugated into entries over 2
    rot = mat([[0, -1], [1, -1]])
    conj = mat([[2, 1], [0, 1]])
    r1 = _matmul(_matmul(conj, rot), _inverse(conj))
    assert any(x.denominator == 2 for row in r1 for x in row)
    rep = RealRep(Z3, 2, {"r0": [[1, 0], [0, 1]], "r1": r1, "r2": _matmul(r1, r1)})
    assert rep.character() == (2, -1, -1)
    with pytest.raises(OrbifoldError, match="do not form a homomorphism"):
        RealRep(Z3, 2, {"r0": [[1, 0], [0, 1]], "r1": r1, "r2": r1})


def test_virtual_rep_checks():
    with pytest.raises(OrbifoldError):
        VirtualRep(Z2, ((1, 1),))
    rho = sign_rep(Z2, "r1")
    assert rho.dim == 1
    assert not rho.is_virtual
    assert VirtualRep(Z2, negative=((1, -1),)).is_virtual
    assert zero_rep(Z3).dim == 0
    assert zero_rep(Z3).net_character() == (0, 0, 0)


def test_virtual_rep_is_frozen():
    # the strata suite's classes are shared by every call of its table
    rho = _strata_cases()[0][3]
    with pytest.raises(dataclasses.FrozenInstanceError):
        rho.positive = ((1, -1), (1, -1))
    assert rho.positive == ((1, -1),) and rho.dim == 1


def test_virtual_rep_from_nontrivial():
    mats = {label: perm_matrix(tuple(int(c) for c in label))
            for label in S3.elements}
    _, nontriv = split_rep(RealRep(S3, 3, mats))
    rho = VirtualRep.from_nontrivial(nontriv)
    assert rho.dim == 2
    assert rho.net_character() == (2, 0, 0, -1, -1, 0)
    # a trivial rep splits off a zero-dimensional complement
    triv, zero = split_rep(RealRep(S3, 1, {g: [[1]] for g in S3.elements}))
    assert (triv.dim, zero.dim) == (1, 0) and fixed_subspace(zero) == ()
    assert VirtualRep.from_nontrivial(zero).dim == 0


def test_virtual_rep_keeps_integer_characters():
    """Integer characters stay integers and decide every stratum as the same
    characters in Fractions do."""
    for _, act, sub, rho in _strata_cases():
        assert all(type(x) is int for chi in rho.positive for x in chi)
        as_fractions = VirtualRep(sub, [[Fraction(x) for x in chi] for chi in rho.positive])
        assert as_fractions.dim == rho.dim
        assert as_fractions.net_character() == rho.net_character()
        want, got = orbifold_stratum(act, sub, as_fractions), orbifold_stratum(act, sub, rho)
        assert (got.dim, got.pieces) == (want.dim, want.pieces)
    both = VirtualRep(Z3, ((2, -1, -1),), ((Fraction(4, 2), -1, Fraction(-1)),))
    assert both.dim == 0 and both.net_character() == (0, 0, 0)
    for chi in ((1, 0), (2, -1, 0), (1, 1, 1)):
        group = Z2 if len(chi) == 2 else Z3
        with pytest.raises(OrbifoldError, match="summands must have no fixed part"):
            VirtualRep(group, (chi,))
        with pytest.raises(OrbifoldError, match="summands must have no fixed part"):
            VirtualRep(group, negative=(chi,))
    with pytest.raises(OrbifoldError, match="virtual dimension must be an integer"):
        VirtualRep(Z2, ((Fraction(1, 2), Fraction(-1, 2)),)).dim


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


def test_stratum_refuses_a_class_over_another_table_on_the_same_names():
    # the Klein four-group written on the element names of cyclic_group(4)
    names = [f"r{i}" for i in range(4)]
    klein = FiniteGroup(names, {(a, b): f"r{i ^ j}"
                                for i, a in enumerate(names) for j, b in enumerate(names)})
    z4 = cyclic_group(4)
    rotation = GroupAction(z4, box([(-1, 1), (-1, 1)]), {
        "r0": ([[1, 0], [0, 1]], [0, 0]),
        "r1": ([[0, -1], [1, 0]], [0, 0]),
        "r2": ([[-1, 0], [0, -1]], [0, 0]),
        "r3": ([[0, 1], [-1, 0]], [0, 0]),
    })
    assert orbifold_stratum(rotation, z4, zero_rep(z4)).dim == 2
    with pytest.raises(OrbifoldError, match="wrong group"):
        orbifold_stratum(rotation, z4, zero_rep(klein))


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


def test_direction_rep_checks():
    with pytest.raises(OrbifoldError, match="element moves the component"):
        direction_rep(swap_action(), 0)
    # A segment on the diagonal of the plane.  A validated action is frozen:
    # no map that shears the diagonal off itself can be swapped in after it.
    act = GroupAction(Z2, Polytope(2, [[0, 0], [1, 1]]), {
        "r0": ([[1, 0], [0, 1]], [0, 0]),
        "r1": ([[0, 1], [1, 0]], [0, 0]),
    })
    assert direction_rep(act).character() == (1, 1)
    with pytest.raises(TypeError):
        act.maps["r1"] = (ActionComponentMap(0, mat([[1, 1], [0, 1]]), (Fraction(0),) * 2),)
    with pytest.raises(AttributeError):
        act.tables = {}
    assert direction_rep(act).character() == (1, 1)


def test_action_tables_are_read_only():
    """An element's tables cannot be edited after validation, so they stay
    the vertex permutations of its maps."""
    act = GroupAction(Z2, Polytope(1, [[0], [1]]), {
        "r0": ([[1]], [0]),
        "r1": ([[-1]], [1]),
    })
    assert act.tables["r1"] == ((1, 0),)
    with pytest.raises(TypeError):
        act.tables["r1"][0] = (0, 1)
    with pytest.raises(TypeError):
        act.tables["r1"] = ((0, 1),)
    assert act.tables["r1"] == ((1, 0),)


# ---------------------------------------------------------------------------
# the integer paths against their Fraction references
# ---------------------------------------------------------------------------

def _reference_direction_rep(action, component=0, elements=None, group=None):
    """One Fraction solve per direction vector."""
    poly = action.spaces[component]
    dirs = poly.dir_basis
    d = len(dirs)
    if d:
        cols = mat(tuple(tuple(v[r] for v in dirs) for r in range(poly.ambient_dim)))
    grp = group or action.group
    lam = elements or {g: g for g in grp.elements}
    mats = {}
    for g in grp.elements:
        entry = action.maps[lam[g]][component]
        assert entry.target == component
        out = [solve(cols, matvec(_fraction_map(entry)[0], v)) for v in dirs]
        assert None not in out
        mats[g] = tuple(tuple(out[j][i] for j in range(d)) for i in range(d))
    return mats


def _reference_stabilizer(action, point, component=0):
    """Each element applied in Fractions."""
    p = tuple(Fraction(x) for x in point)
    return tuple(g for g in action.group.elements
                 if action.maps[g][component].target == component
                 and _apply(action.maps[g][component], p) == p)


_shifts = st.fractions(min_value=-2, max_value=2, max_denominator=6)


@st.composite
def conjugated_box_action(draw):
    """A cyclic group acting on a box by a signed permutation about its
    centre, carried into R^N (N >= the box's dimension) by x -> M x + t, M
    an invertible integer matrix and t a rational shift.  Returns the
    action, the group and points of the carried box, its centre first.

    The signed permutation maps the box onto itself: widths are constant on
    its cycles.  Beyond the box's dimension the action flips signs.
    """
    n = draw(st.integers(1, 3))
    big = n + draw(st.integers(0, 2))
    perm = draw(st.permutations(range(n)))
    widths = [None] * n
    for i in range(n):
        if widths[i] is None:
            w = draw(st.sampled_from([HALF, Fraction(1), Fraction(3, 2)]))
            j = i
            while widths[j] is None:
                widths[j] = w
                j = perm[j]
    centre = draw(st.lists(_shifts, min_size=n, max_size=n)) + [Fraction(0)] * (big - n)
    signs = draw(st.lists(st.sampled_from([1, -1]), min_size=big, max_size=big))
    gen = [[Fraction(0)] * big for _ in range(big)]
    for i in range(big):
        gen[perm[i] if i < n else i][i] = Fraction(signs[i])
    gen = mat(gen)
    gen_off = tuple(c - x for c, x in zip(centre, matvec(gen, centre)))
    m = mat(draw(st.lists(st.lists(st.integers(-2, 2), min_size=big, max_size=big),
                          min_size=big, max_size=big)))
    assume(det(m) != 0)
    m_inv = _inverse(m)
    t = tuple(draw(st.lists(_shifts, min_size=big, max_size=big)))

    def carry(x):
        return tuple(a + b for a, b in zip(matvec(m, x), t))

    # the powers of the generator, each conjugated: M G M^-1 x + (M g + t - M G M^-1 t)
    rep, power, off = {}, identity(big), (Fraction(0),) * big
    k = 0
    while True:
        conj = _matmul(_matmul(m, power), m_inv)
        rep[f"r{k}"] = (conj, tuple(a + b - c for a, b, c in
                                    zip(matvec(m, off), t, matvec(conj, t))))
        k += 1
        off = tuple(a + b for a, b in zip(matvec(gen, off), gen_off))
        power = _matmul(gen, power)
        if power == identity(big) and not any(off):
            break
    group = cyclic_group(k)
    corners = itertools.product(*[(c - w, c + w) for c, w in zip(centre, widths)])
    poly = Polytope.from_points(big, [carry(v + tuple(centre[n:])) for v in corners])
    act = GroupAction(group, poly, rep)
    steps = st.sampled_from([-1, -HALF, 0, HALF, 1])
    points = [carry(tuple(c + draw(steps) * w for c, w in zip(centre, widths)) + tuple(centre[n:]))
              for _ in range(4)]
    return act, group, [carry(tuple(centre))] + points


@settings(max_examples=60, deadline=None)
@given(conjugated_box_action())
def test_integer_paths_match_fraction_references(case):
    act, group, points = case
    poly = act.single
    assert direction_rep(act).matrices == _reference_direction_rep(act)
    for order in range(1, len(group) + 1):
        if len(group) % order:
            continue
        sub = cyclic_group(order)
        for lam in injective_morphisms(sub, group):
            got = direction_rep(act, 0, elements=dict(lam), group=sub).matrices
            assert got == _reference_direction_rep(act, 0, dict(lam), sub)
    for g in group.elements:
        assert [poly.vertices[k] for k in act.tables[g][0]] == \
            [_apply(act.maps[g][0], v) for v in poly.vertices]
    for p in points + list(poly.vertices) + [poly.barycenter()]:
        assert stabilizer(act, p) == _reference_stabilizer(act, p)
    # the centre is fixed by the whole group
    assert stabilizer(act, points[0]) == group.elements


def _fixed_components(act, sub):
    """(embedding, component) for every embedding of sub and every component
    its images keep."""
    for lam in injective_morphisms(sub, act.group):
        for ci in range(len(act.spaces)):
            if all(act.maps[img][ci].target == ci for _, img in lam):
                yield lam, ci


def _reference_locus(act, ci, images):
    """The double-description cut of the component by (A - m I) x = -a, for
    the ints (A, a, m) of each image's map, and the component's rows()."""
    eqs = [(tuple(x - m * (j == r) for j, x in enumerate(row)), -c)
           for a, off, m in (act.maps[h][ci].ints for h in images)
           for r, (row, c) in enumerate(zip(a, off))]
    return cut_by_equations(act.spaces[ci], eqs)


def _check_loci_and_characters(act, sub) -> int:
    """The orbit-average locus against the cut and the traced character
    against the direction representation's, on every embedding of sub and
    every component it keeps; the number of pairs checked."""
    checked = 0
    for lam, ci in _fixed_components(act, sub):
        lam_map = dict(lam)
        locus = _cut_by_equations(act, ci, lam_map.values())
        want = _reference_locus(act, ci, lam_map.values())
        assert want is not None and locus == want
        got = _tangent_character(act, ci, lam_map, sub)
        # the same Fractions, which the strata digest reads by repr
        assert repr(got) == repr(nontrivial_character(
            direction_rep(act, ci, elements=lam_map, group=sub)))
        checked += 1
    return checked


def test_strata_loci_and_characters_match_references():
    assert sum(_check_loci_and_characters(act, sub)
               for _, act, sub, _ in _strata_cases()) == 31


def _rational_and_multi_component_actions():
    """The actions with several components or rational vertices built in
    these tests, and two segments each reflected in place."""
    third = Fraction(1, 3)
    return [
        swap_action(),
        GroupAction(Z2, (seg(0, 1), seg(0, HALF)), {
            "r0": [(0, [[1]], [0]), (1, [[1]], [0])],
            "r1": [(1, [[HALF]], [0]), (0, [[2]], [0])]}),
        GroupAction(Z2, seg(third, 2 * third), {"r0": ([[1]], [0]), "r1": ([[-1]], [1])}),
        GroupAction(Z2, box([(-HALF, HALF), (0, third)]), {
            "r0": ([[1, 0], [0, 1]], [0, 0]),
            "r1": ([[-1, 0], [0, -1]], [0, third])}),
        GroupAction(Z2, seg(third, 5 * third), {"r0": ([[1]], [0]), "r1": ([[-1]], [2])}),
        GroupAction(Z3, (seg(0, 1), seg(3, 4), seg(6, 7)), {
            "r0": [(0, [[1]], [0]), (1, [[1]], [0]), (2, [[1]], [0])],
            "r1": [(1, [[1]], [3]), (2, [[1]], [3]), (0, [[1]], [-6])],
            "r2": [(2, [[1]], [6]), (0, [[1]], [-3]), (1, [[1]], [-3])]}),
        GroupAction(Z2, (seg(-1, 1), seg(HALF, 4)), {
            "r0": [(0, [[1]], [0]), (1, [[1]], [0])],
            "r1": [(0, [[-1]], [0]), (1, [[-1]], [Fraction(9, 2)])]}),
    ]


def test_rational_and_multi_component_loci_and_characters_match_references():
    checked = 0
    for act in _rational_and_multi_component_actions():
        for sub in (TRIVIAL_GROUP, Z2, Z3):
            checked += _check_loci_and_characters(act, sub)
    # the trivial subgroup keeps all 12 components, Z2 the 5 it reflects in
    # place, and Z3, turning three segments round, none
    assert checked == 17


def _check_iota_against_containment(st, extra=()) -> int:
    """iota_check against the containment reference, fiber for fiber, on its
    default probes and on extra (component, point) probes; the number of
    fibers compared."""
    report = iota_check(st)
    assert report == iota_by_containment(st, [(f.component, f.point) for f in report.fibers])
    if extra:
        assert iota_check(st, extra) == iota_by_containment(st, [(c, vec(p)) for c, p in extra])
    return len(report.fibers) + len(extra)


def test_iota_fibers_match_the_containment_reference():
    checked = 0
    for _, act, sub, rho in _strata_cases():
        st = orbifold_stratum(act, sub, rho)
        # every vertex and the barycenter of every component, in or off the pieces
        extra = [(ci, p) for ci, sp in enumerate(act.spaces)
                 for p in list(sp.vertices) + [sp.barycenter()]]
        checked += _check_iota_against_containment(st, extra)
    assert checked > 100


@settings(max_examples=40, deadline=None)
@given(conjugated_box_action())
def test_iota_fibers_match_the_containment_reference_on_carried_boxes(case):
    act, group, points = case
    extra = [(0, p) for p in points + list(act.single.vertices)]
    for order in range(1, len(group) + 1):
        if len(group) % order:
            continue
        sub = cyclic_group(order)
        chis = {_tangent_character(act, 0, dict(lam), sub) for lam in injective_morphisms(sub, group)}
        for chi in chis:
            st = orbifold_stratum(act, sub, VirtualRep(sub, (chi,)))
            assert st.pieces
            _check_iota_against_containment(st, extra)


def test_iota_probe_outside_its_component_is_refused():
    act = reflection_action()
    st = orbifold_stratum(act, Z2, sign_rep(Z2, "r1"))
    with pytest.raises(OrbifoldError, match="outside the component"):
        iota_check(st, probes=[(0, [2])])


@settings(max_examples=40, deadline=None)
@given(conjugated_box_action())
def test_loci_and_characters_match_references_on_carried_boxes(case):
    act, group, _ = case
    for order in range(1, len(group) + 1):
        if len(group) % order == 0:
            assert _check_loci_and_characters(act, cyclic_group(order))


_exact = st.one_of(st.integers(-4, 4), st.fractions(-3, 3, max_denominator=6))


@st.composite
def affine_entries(draw):
    """A matrix and an offset, integer or rational entry by entry; the
    rational draws hold integer ones too."""
    entries = draw(st.sampled_from([st.integers(-4, 4), _exact]))
    rows, cols = draw(st.integers(0, 3)), draw(st.integers(0, 3))
    matrix = draw(st.lists(st.lists(entries, min_size=cols, max_size=cols),
                           min_size=rows, max_size=rows))
    offset = draw(st.lists(entries, min_size=rows, max_size=rows))
    return matrix, offset


@settings(max_examples=150, deadline=None)
@given(affine_entries())
def test_action_map_matches_fraction_reference(case):
    """ints against mat, vec and _scaled."""
    matrix, offset = case
    e = ActionComponentMap(0, matrix, offset)
    ref_m, ref_c = mat(matrix), vec(offset)
    flat, m = _scaled([x for row in ref_m for x in row] + list(ref_c))
    cols = len(matrix[0]) if matrix else 0
    assert e.ints == (tuple(tuple(flat[r * cols:(r + 1) * cols]) for r in range(len(matrix))),
                      tuple(flat[len(matrix) * cols:]), m)
    assert e == ActionComponentMap(0, ref_m, ref_c) != ActionComponentMap(1, ref_m, ref_c)
    assert hash(e) == hash(ActionComponentMap(0, ref_m, ref_c))


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
    orbits = (tuple(sorted(ends)), (top,))
    marker = QuotientMarker.from_faces(poly, 2, orbits)
    factor, cover = marker.cover(Cell(poly, 0), point_map(), tag)
    assert result == Chain([(factor, cover)])


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


def test_pushdown_reports_a_map_fault_before_a_tag_fault():
    # Z3 turns three segments round; the tags differ from the first step on,
    # the maps only from the second component to the third, and invariance
    # of the maps is decided before the tags are read
    comps = (seg(0, 1), seg(3, 4), seg(6, 7))
    act = GroupAction(Z3, comps, {
        "r0": [(0, [[1]], [0]), (1, [[1]], [0]), (2, [[1]], [0])],
        "r1": [(1, [[1]], [3]), (2, [[1]], [3]), (0, [[1]], [-6])],
        "r2": [(2, [[1]], [6]), (0, [[1]], [-3]), (1, [[1]], [-3])],
    })
    cmaps = [CellMap(euclid(1), [[1]], [[]], [b]) for b in (0, -3, -5)]
    tags = [full_tag(c, prefix) for c, prefix in zip(comps, "abc")]
    with pytest.raises(OrbifoldError, match="^map is not invariant under the action$"):
        quotient_pushdown(act, cmaps, tags)
    cmaps[2] = CellMap(euclid(1), [[1]], [[]], [-6])
    with pytest.raises(OrbifoldError, match="^tag is not invariant under the action$"):
        quotient_pushdown(act, cmaps, tags)


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
    assert cut_by_equations(box([(0, 1)] * 3), diagonal) == Polytope(3, [[0, 0, 0], [1, 1, 1]])
    assert cut_by_equations(box([(0, 1)] * 2), [((1, 0), 2)]) is None
    assert cut_by_equations(POINT_POLYTOPE, [((), 0)]) == POINT_POLYTOPE
    assert cut_by_equations(POINT_POLYTOPE, [((), 1)]) is None


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
    assert act.tables["r1"] == ((0, 1), (0, 1))
    third = Fraction(1, 3)
    refl = GroupAction(Z2, seg(third, 2 * third), {"r0": ([[1]], [0]), "r1": ([[-1]], [1])})
    assert refl.tables["r1"] == ((1, 0),)
    rot = GroupAction(Z2, box([(-HALF, HALF), (0, third)]), {
        "r0": ([[1, 0], [0, 1]], [0, 0]),
        "r1": ([[-1, 0], [0, -1]], [0, third]),
    })
    assert rot.tables["r1"] == ((3, 2, 1, 0),)


def test_action_refuses_images_off_the_vertex_lattice():
    # x + 1/2 sends 0 and 1 to 1/2 and 3/2, which round down onto 0 and 1
    with pytest.raises(OrbifoldError, match="does not permute the vertex set"):
        GroupAction(Z2, seg(0, 1), {"r0": ([[1]], [0]), "r1": ([[1]], [HALF])})
    # x / 2 + 1/2 sends 0 to 1/2, off the lattice, and 1 onto itself
    with pytest.raises(OrbifoldError, match="does not permute the vertex set"):
        GroupAction(Z2, seg(0, 1), {"r0": ([[1]], [0]), "r1": ([[HALF]], [HALF])})
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
