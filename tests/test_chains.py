import hashlib
from fractions import Fraction
from random import Random

import pytest
from hypothesis import assume, given, settings, strategies as st

from cornercalc.cells import (
    POINT,
    Cell,
    CellMap,
    constant_map,
    euclid,
    kernel_coorientation,
    torus,
)
from cornercalc.chains import (
    Chain,
    ChainComplex,
    ChainError,
    CornerTerm,
    Generator,
    QuotientMarker,
    SingularSimplex,
    Tag,
    TagError,
    TargetMap,
    _normal_form,
    _term_key,
    atom_label,
    aut_finite,
    boundary,
    chain,
    check_cylinder_witness,
    check_sigma_pairing,
    check_singular_chain_map,
    corner_terms,
    cylinder,
    disjoint_union,
    expand_quotient,
    face_complex,
    generator_boundary,
    identity_target_map,
    merge_labels,
    numbered_tag,
    pushforward,
    simplex_face_complex,
    singular_boundary,
    singular_to_kuranishi,
    standard_simplex_tag,
    transport_generator,
    verify_dd_zero,
)
from cornercalc.geometry import Polytope, box, interval, octahedron, standard_simplex
from cornercalc.products import cap, cup
from cornercalc.randgen import random_chain, random_chain_over, random_cochain
from test_geometry import embedded_lattice_hull


def faces_of(p):
    return [k for _, keys in sorted(p.faces().items()) for k in keys]


def numbered_tag(p, prefix="f"):
    return Tag.from_atoms(p, {k: (prefix, i) for i, k in enumerate(faces_of(p))})


def interval_generator(a=0, b=1, prefix="f"):
    iv = interval(a, b)
    return Generator(Cell(iv, 0), constant_map(POINT, 1, 0), numbered_tag(iv, prefix))


def test_label_merge_is_a_commutative_monoid():
    a = merge_labels(atom_label(3), atom_label("x"))
    b = atom_label((1, 2))
    assert merge_labels(a, b) == merge_labels(b, a)
    assert merge_labels(a, ()) == a
    assert merge_labels(merge_labels(a, b), a) == merge_labels(a, merge_labels(b, a))


def test_tag_validation():
    iv = interval(0, 1)
    keys = faces_of(iv)
    tag = Tag.from_atoms(iv, {k: i for i, k in enumerate(keys)})
    assert tag.label_of(keys[0]) == (0,)
    with pytest.raises(TagError):
        tag.label_of(((Fraction(7),),))
    partial = Tag(iv, {keys[0]: ("a",)})
    with pytest.raises(TagError):
        Generator(Cell(iv, 0), constant_map(POINT, 1, 0), partial)


def test_non_injective_tag_rejected():
    iv = interval(0, 1)
    keys = faces_of(iv)
    tag = Tag(iv, {keys[0]: ("same",), keys[1]: ("same",), keys[2]: ("top",)})
    with pytest.raises(TagError):
        Generator(Cell(iv, 0), constant_map(POINT, 1, 0), tag)


def test_interval_boundary_signs_and_labels():
    g = interval_generator()
    b = boundary(chain(g))
    terms = b.terms()
    assert len(terms) == 2
    by_vertex = {t.cell.polytope.vertices[0][0]: c for c, t in terms}
    assert by_vertex[Fraction(0)] == -1
    assert by_vertex[Fraction(1)] == 1
    for _, t in terms:
        v = t.cell.polytope.vertices[0]
        assert t.tag.label_of((v,)) == g.tag.label_of((v,))


def test_orientation_reversal_folds_into_coefficient():
    g = interval_generator()
    assert chain(g.reversed()) == chain(g).scale(-1)
    assert (chain(g) + chain(g.reversed())).is_zero


def test_double_boundary_vanishes_on_square():
    sq = box([(0, 1), (0, 2)])
    g = Generator(Cell(sq, 0), constant_map(POINT, 2, 0), numbered_tag(sq))
    rep = verify_dd_zero(chain(g))
    assert rep.ok
    assert rep.corners_checked == 4
    assert boundary(boundary(chain(g))).is_zero


def test_double_boundary_vanishes_on_simplex_with_map():
    s = standard_simplex(3)
    cmap = CellMap(euclid(2), [[1, 0, 2, 0], [0, 1, 0, 3]], [[], []], [5, 7])
    g = Generator(Cell(s, 0), cmap, numbered_tag(s))
    rep = verify_dd_zero(chain(g))
    assert rep.ok
    assert rep.corners_checked > 0


def test_sigma_pairing_reports_corrupted_corner():
    sq = box([(0, 1), (0, 1)])
    g = Generator(Cell(sq, 0), constant_map(POINT, 2, 0), numbered_tag(sq))
    terms = corner_terms(g)
    assert check_sigma_pairing(terms).ok
    bad = list(terms)
    bad[0] = CornerTerm(corner=bad[0].corner, first_facet=bad[0].first_facet,
                        second_facet=bad[0].second_facet,
                        cell=bad[0].cell.reversed(), tag=bad[0].tag)
    rep = check_sigma_pairing(bad)
    assert not rep.ok
    assert any("do not cancel" in d for d in rep.details)


def test_free_circle_generator_is_zero():
    pt = Polytope.from_points(1, [[0]])
    cell = Cell(pt, 1)
    cmap = constant_map(POINT, 1, 1)
    g = Generator(cell, cmap, Tag.from_atoms(pt, {faces_of(pt)[0]: "a"}))
    assert chain(g).is_zero


def test_quotient_marker_expands_with_half_coefficient():
    iv = interval(-1, 1)
    keys = faces_of(iv)
    ends = tuple(k for k in keys if len(k) == 1)
    top = next(k for k in keys if len(k) == 2)
    tag = Tag(iv, {ends[0]: ("end",), ends[1]: ("end",), top: ("body",)})
    marker = QuotientMarker.from_faces(iv, 2, (ends, (top,)))
    g = Generator(Cell(iv, 0), constant_map(POINT, 1, 0), tag, quotient=marker)
    factor, cover = expand_quotient(g)
    assert factor == Fraction(1, 2)
    assert cover.tag.is_injective()
    assert cover.tag.label_of(top) == ("body",)
    assert cover.tag.label_of(ends[0]) == merge_labels(("end",), (("q", 0),))
    c = chain(g)
    assert len(c.terms()) == 1
    assert c.terms()[0][0] == Fraction(1, 2)
    assert c.coefficient(g) == 1


def test_trivial_group_marker_is_identity():
    iv = interval(0, 1)
    keys = faces_of(iv)
    tag = numbered_tag(iv)
    marker = QuotientMarker.from_faces(iv, 1, tuple((k,) for k in keys))
    g = Generator(Cell(iv, 0), constant_map(POINT, 1, 0), tag, quotient=marker)
    plain = Generator(Cell(iv, 0), constant_map(POINT, 1, 0), tag)
    assert chain(g) == chain(plain)


def test_quotient_boundary_commutes_with_expansion():
    iv = interval(-1, 1)
    keys = faces_of(iv)
    ends = tuple(k for k in keys if len(k) == 1)
    top = next(k for k in keys if len(k) == 2)
    tag = Tag(iv, {ends[0]: ("end",), ends[1]: ("end",), top: ("body",)})
    marker = QuotientMarker.from_faces(iv, 2, (ends, (top,)))
    g = Generator(Cell(iv, 0), constant_map(POINT, 1, 0), tag, quotient=marker)
    via_expansion = boundary(chain(g))
    direct = Chain(generator_boundary(g))
    assert via_expansion == direct
    coeffs = sorted(c for c, _ in via_expansion.terms())
    assert coeffs == [Fraction(-1, 2), Fraction(1, 2)]


def test_quotient_needs_rational_coefficients():
    iv = interval(-1, 1)
    keys = faces_of(iv)
    ends = tuple(k for k in keys if len(k) == 1)
    top = next(k for k in keys if len(k) == 2)
    tag = Tag(iv, {ends[0]: ("end",), ends[1]: ("end",), top: ("body",)})
    marker = QuotientMarker.from_faces(iv, 2, (ends, (top,)))
    g = Generator(Cell(iv, 0), constant_map(POINT, 1, 0), tag, quotient=marker)
    with pytest.raises(ChainError):
        Chain([(1, g)], ring="Z")


def test_marker_validation():
    iv = interval(-1, 1)
    keys = faces_of(iv)
    ends = tuple(k for k in keys if len(k) == 1)
    top = next(k for k in keys if len(k) == 2)
    uneven = Tag(iv, {ends[0]: ("a",), ends[1]: ("b",), top: ("body",)})
    with pytest.raises(TagError):
        Generator(Cell(iv, 0), constant_map(POINT, 1, 0), uneven,
                  quotient=QuotientMarker.from_faces(iv, 2, (ends, (top,))))
    tag = Tag(iv, {ends[0]: ("end",), ends[1]: ("end",), top: ("body",)})
    with pytest.raises(ChainError):
        Generator(Cell(iv, 0), constant_map(POINT, 1, 0), tag,
                  quotient=QuotientMarker.from_faces(iv, 2, (ends,)))
    with pytest.raises(ChainError):
        Generator(Cell(iv, 0), constant_map(POINT, 1, 0), tag,
                  quotient=QuotientMarker.from_faces(iv, 3, (ends, (top,))))
    with pytest.raises(ChainError):
        QuotientMarker(2, (ends, (top,)))


def test_disjoint_union_splits():
    g1 = interval_generator(0, 1, "a")
    g2 = interval_generator(2, 3, "b")
    assert disjoint_union([g1, g2]) == chain(g1) + chain(g2)
    with pytest.raises(TagError):
        disjoint_union([g1, interval_generator(2, 3, "a")])


def test_aut_trivial_for_injective_interval_labels():
    iv = interval(-1, 1)
    rep = aut_finite(Cell(iv, 0), constant_map(POINT, 1, 0), numbered_tag(iv))
    assert rep.verdict == "finite"
    assert rep.order == 1


def test_aut_detects_flip_symmetry():
    iv = interval(-1, 1)
    keys = faces_of(iv)
    ends = tuple(k for k in keys if len(k) == 1)
    top = next(k for k in keys if len(k) == 2)
    tag = Tag(iv, {ends[0]: ("end",), ends[1]: ("end",), top: ("body",)})
    rep = aut_finite(Cell(iv, 0), constant_map(POINT, 1, 0), tag)
    assert rep.verdict == "finite"
    assert rep.order == 2


def test_aut_square_with_distinct_labels_is_trivial():
    sq = box([(0, 1), (0, 1)])
    rep = aut_finite(Cell(sq, 0), constant_map(POINT, 2, 0), numbered_tag(sq))
    assert rep.verdict == "finite"
    assert rep.order == 1


def test_aut_symmetry_must_fix_the_map():
    iv = interval(-1, 1)
    keys = faces_of(iv)
    ends = tuple(k for k in keys if len(k) == 1)
    top = next(k for k in keys if len(k) == 2)
    tag = Tag(iv, {ends[0]: ("end",), ends[1]: ("end",), top: ("body",)})
    cmap = CellMap(euclid(1), [[1]], [[]], [0])
    rep = aut_finite(Cell(iv, 0), cmap, tag)
    assert rep.order == 1


def test_aut_counts_torus_deck_translations():
    pt = Polytope.from_points(1, [[0]])
    cell = Cell(pt, 1)
    cmap = CellMap(torus(1), [[0]], [[3]], [0])
    rep = aut_finite(cell, cmap, Tag.from_atoms(pt, {faces_of(pt)[0]: "a"}))
    assert rep.verdict == "finite"
    assert rep.torus_translations == 3
    assert rep.order == 3


def test_aut_free_circle_is_infinite():
    pt = Polytope.from_points(1, [[0]])
    rep = aut_finite(Cell(pt, 1), constant_map(POINT, 1, 1),
                     Tag.from_atoms(pt, {faces_of(pt)[0]: "a"}))
    assert rep.verdict == "infinite"


def test_aut_gives_up_over_the_vertex_cap():
    sq = box([(0, 1), (0, 1)])
    rep = aut_finite(Cell(sq, 0), constant_map(POINT, 2, 0), numbered_tag(sq), cap=3)
    assert rep.verdict == "undecided"


def test_target_map_validation():
    with pytest.raises(ChainError):
        TargetMap(torus(1), torus(1), [[Fraction(1, 2)]], [0])
    with pytest.raises(ChainError):
        TargetMap(torus(1), euclid(1), [[1]], [0])
    h = TargetMap(torus(1), euclid(1), [[0]], [Fraction(1, 3)])
    assert h.value((Fraction(1, 2),)) == (Fraction(1, 3),)
    wrap = TargetMap(torus(1), torus(1), [[2]], [0])
    assert wrap.value((Fraction(3, 4),)) == (Fraction(1, 2),)


def test_pushforward_is_functorial_and_a_chain_map():
    t2, t1 = torus(2), torus(1)
    h1 = TargetMap(t2, t1, [[1, 1]], [Fraction(1, 3)])
    h2 = TargetMap(t1, t1, [[2]], [0])
    iv = interval(0, 1)
    g = Generator(Cell(iv, 0),
                  CellMap(t2, [[1], [Fraction(1, 2)]], [[], []], [0, 0]),
                  numbered_tag(iv))
    c = chain(g)
    assert pushforward(h2, pushforward(h1, c)) == pushforward(h2.compose(h1), c)
    assert pushforward(identity_target_map(t2), c) == c
    assert pushforward(h1, boundary(c)) == boundary(pushforward(h1, c))


def test_pushforward_rejects_cochains():
    pt = Polytope.from_points(1, [[0]])
    cell = Cell(pt, 1)
    cmap = CellMap(torus(1), [[0]], [[1]], [0])
    co = kernel_coorientation(cell, cmap)
    g = Generator(cell, cmap, Tag.from_atoms(pt, {faces_of(pt)[0]: "a"}), coorientation=co)
    with pytest.raises(ChainError):
        pushforward(identity_target_map(torus(1)), chain(g))


def test_cochain_generator_needs_a_submersion():
    iv = interval(0, 1)
    cmap = CellMap(euclid(1), [[1]], [[]], [0])
    with pytest.raises(ChainError):
        Generator(Cell(iv, 0), cmap, numbered_tag(iv),
                  coorientation=kernel_coorientation(Cell(iv, 0), cmap))


def test_cochain_boundary_restricts_coorientation():
    iv = interval(0, 1)
    cell = Cell(iv, 1)
    cmap = CellMap(torus(1), [[0]], [[1]], [0])
    co = kernel_coorientation(cell, cmap)
    g = Generator(cell, cmap, numbered_tag(iv), coorientation=co)
    assert g.grade == -1
    d = boundary(chain(g))
    assert len(d.terms()) == 2
    for _, t in d.terms():
        assert t.is_cochain
        assert t.grade == 0
    assert boundary(d).is_zero


def test_cochain_double_boundary_on_square_with_corners():
    sq = box([(0, 1), (0, 1)])
    cell = Cell(sq, 1)
    cmap = CellMap(torus(1), [[0, 0]], [[1]], [0])
    co = kernel_coorientation(cell, cmap)
    g = Generator(cell, cmap, numbered_tag(sq), coorientation=co)
    rep = verify_dd_zero(chain(g))
    assert rep.ok
    assert rep.corners_checked == 4


def test_singular_boundary_alternates():
    s = SingularSimplex(2, euclid(2), [[1, 0, 0], [0, 1, 0]], [0, 0])
    b = singular_boundary([(1, s)])
    assert len(b) == 3
    assert [c for c, _ in b] == [1, -1, 1]
    assert all(t.degree == 1 for _, t in b)
    assert singular_boundary([(1, SingularSimplex(0, euclid(1), [[2]], [3]))]) == []


def test_singular_bridge_is_a_chain_map():
    e2 = euclid(2)
    simplices = [
        (1, SingularSimplex(1, e2, [[1, 3], [2, 5]], [0, 0])),
        (Fraction(-2, 3), SingularSimplex(2, e2, [[1, 3, 0], [2, 5, 1]],
                                          [Fraction(1, 2), 0])),
        (1, SingularSimplex(3, e2, [[1, 3, 0, 2], [2, 5, 1, 7]], [1, 3])),
    ]
    for term in simplices:
        assert check_singular_chain_map([term]).ok
    assert check_singular_chain_map(simplices).ok


def test_singular_bridge_double_boundary():
    s = SingularSimplex(3, euclid(1), [[1, 2, 4, 8]], [0])
    c = singular_to_kuranishi([(1, s)])
    assert verify_dd_zero(c).ok


def test_degenerate_singular_simplices_still_bridge():
    s = SingularSimplex(2, euclid(1), [[1, 1, 1]], [0])
    c = singular_to_kuranishi([(1, s)])
    assert not c.is_zero
    assert check_singular_chain_map([(1, s)]).ok


def test_transport_round_trip():
    iv = interval(0, 1)
    g = Generator(Cell(iv, 0), CellMap(euclid(1), [[2]], [[]], [Fraction(1, 5)]),
                  numbered_tag(iv))
    moved = transport_generator(g, [[1], [1]], [0, Fraction(1, 2)])
    assert moved.cell.polytope.ambient_dim == 2
    back = transport_generator(moved, [[1, 0]], [0])
    assert chain(back) == chain(g)
    assert boundary(chain(back)) == boundary(chain(g))


def test_cylinder_witness_for_relabelling():
    g = interval_generator(0, 1, "old")
    alt = numbered_tag(interval(0, 1), "new")
    wit = cylinder(g, alt)
    assert wit.cell.dim == 2
    rep = check_cylinder_witness(g, alt)
    assert rep.ok


def test_cylinder_witness_without_boundary():
    pt = Polytope.from_points(1, [[0]])
    cell = Cell(pt, 1)
    cmap = CellMap(torus(1), [[0]], [[1]], [0])
    g = Generator(cell, cmap, Tag.from_atoms(pt, {faces_of(pt)[0]: "a"}))
    alt = Tag.from_atoms(pt, {faces_of(pt)[0]: "b"})
    rep = check_cylinder_witness(g, alt)
    assert rep.ok
    wit = cylinder(g, alt)
    ends = boundary(chain(wit))
    assert len(ends.terms()) == 2


def test_cylinder_rejects_label_collisions():
    g = interval_generator(0, 1, "old")
    with pytest.raises(TagError):
        cylinder(g, g.tag)


def test_simplex_face_complex_has_point_homology():
    for k in range(4):
        cx = ChainComplex(simplex_face_complex(k))
        betti = cx.betti()
        assert betti[0] == 1
        assert all(betti[i] == 0 for i in range(1, k + 1))


def test_hollow_triangle_has_a_cycle():
    gens = [g for g in simplex_face_complex(2) if g.cell.dim < 2]
    cx = ChainComplex(gens)
    assert cx.betti() == {0: 1, 1: 1}


def test_chain_complex_requires_closure():
    g = interval_generator()
    with pytest.raises(ChainError):
        ChainComplex([g])


def test_empty_complex():
    assert ChainComplex([]).betti() == {}


@st.composite
def labelled_polytope_generators(draw):
    dim = draw(st.integers(min_value=1, max_value=3))
    npts = draw(st.integers(min_value=dim + 1, max_value=6))
    coords = st.integers(min_value=-3, max_value=3)
    pts = draw(st.lists(st.tuples(*[coords] * dim), min_size=npts, max_size=npts,
                        unique=True))
    p = Polytope.from_points(dim, [list(v) for v in pts])
    kind = draw(st.sampled_from(["point", "euclid", "torus"]))
    if kind == "point":
        cmap = constant_map(POINT, dim, 0)
    elif kind == "euclid":
        row = [draw(st.integers(min_value=-2, max_value=2)) for _ in range(dim)]
        cmap = CellMap(euclid(1), [row], [[]], [draw(coords)])
    else:
        row = [Fraction(draw(st.integers(min_value=-2, max_value=2)), 2)
               for _ in range(dim)]
        cmap = CellMap(torus(1), [row], [[]], [Fraction(draw(coords), 3)])
    tag = numbered_tag(p)
    return Generator(Cell(p, 0), cmap, tag)


@settings(max_examples=40, deadline=None)
@given(labelled_polytope_generators())
def test_random_generators_have_square_zero_boundary(g):
    rep = verify_dd_zero(chain(g))
    assert rep.ok
    assert boundary(boundary(chain(g))).is_zero


# Any drift in canonical keys, orientation signs, coefficients or term order
# of these boundaries changes it.  Re-pinned when tags moved from face keys to
# vertex bitmasks, which changes the keys' representation only: over 10,000
# random_chain draws, every chain and boundary term kept its class and its
# coefficient.
GOLDEN_BOUNDARY_DIGEST = (
    "89d1c885c6f27f697ce56720101795236f66ee3ac1bb184982f02c72be2c93c7")


def test_boundary_canonical_keys_golden_digest():
    h = hashlib.sha256()
    count = 0
    for i in range(20):
        ch = boundary(random_chain(Random(i), ("t", 0), max_ambient=4, ring="Q"))
        terms = ch.terms()
        count += len(terms)
        h.update(repr(terms).encode())
        h.update(repr([(c, _normal_form(g)[:2], g.cell.frame, g.cell.sign)
                       for c, g in terms]).encode())
    assert count == 408
    assert h.hexdigest() == GOLDEN_BOUNDARY_DIGEST


# The cochain side of the boundary: restricted coorientations, their frames
# and signs, over T^1 and T^2.  Pinned before facet signs were read from the
# polytope's face data.  Re-pinned when a cochain generator came to store the
# orientation its coorientation gives, which moves the representation only:
# a class's coefficient moves by the sign of its canonical dictionary frame,
# the coorientation read back is kernel_coorientation's frame rather than an
# echelon basis, and the key ends in True rather than that basis.  Over
# random_cochain draws 0-199 on T^1 and T^2 (968 terms of cochains and their
# boundaries), every term kept its key without the last slot, its canonical
# Ker df frame, its coefficient times its coorientation's sign, and its order.
GOLDEN_COBOUNDARY_DIGEST = (
    "153834361a36106d29b6f8443e4851704cd42978a681403bcaa4831f32d2608b")


def test_coboundary_canonical_keys_golden_digest():
    h = hashlib.sha256()
    count = 0
    for y in (torus(1), torus(2)):
        for i in range(20):
            ch = boundary(random_cochain(Random(i), y, ("c", 0)))
            terms = ch.terms()
            count += len(terms)
            h.update(repr(terms).encode())
            h.update(repr([(c, _normal_form(g)[:2], g.coorientation.frame,
                            g.coorientation.sign) for c, g in terms]).encode())
    assert count == 36
    assert h.hexdigest() == GOLDEN_COBOUNDARY_DIGEST


def _fraction_term_key(x):
    """The label order as first written, with one Fraction per number."""
    if x is None:
        return (0,)
    if isinstance(x, bool):
        return (1, int(x))
    if isinstance(x, (int, Fraction)):
        return (1, Fraction(x))
    if isinstance(x, str):
        return (2, x)
    return (3, tuple(_fraction_term_key(e) for e in x))


_atoms = st.one_of(
    st.none(), st.booleans(), st.integers(min_value=-4, max_value=4),
    st.fractions(min_value=-4, max_value=4, max_denominator=4),
    st.sampled_from(["", "a", "b", "q", "t"]))
_labels = st.recursive(_atoms, lambda inner: st.lists(inner, max_size=3).map(tuple),
                       max_leaves=12)


@settings(max_examples=100, deadline=None)
@given(st.lists(_labels, max_size=12))
def test_term_key_orders_like_fraction_key(xs):
    order = sorted(range(len(xs)), key=lambda i: _term_key(xs[i]))
    assert order == sorted(range(len(xs)), key=lambda i: _fraction_term_key(xs[i]))


# ---------------------------------------------------------------------------
# Tags over vertex bitmasks, against references built from face keys
# ---------------------------------------------------------------------------

def _mask_of(p, key):
    return sum(1 << p.vertices.index(v) for v in key)


@settings(max_examples=40, deadline=None)
@given(embedded_lattice_hull())
def test_tag_restrict_matches_face_key_reference(data):
    _, _, pts, shift, _ = data
    p = Polytope.from_points(len(shift), pts)
    assume(p.dim >= 1)
    n = p.ambient_dim
    tag = numbered_tag(p)
    keys = p.all_face_keys()
    assert sorted(tag.face_keys) == sorted(keys)
    assert tag.mapping() == {k: tag.label_of(k) for k in keys}
    assert Tag(p, tag.mapping()) == tag
    for key in keys:
        fp = p.face_polytope(key)
        reference = Tag(fp, {k: tag.label_of(k) for k in fp.all_face_keys()})
        sub = tag.restrict(_mask_of(p, key))
        assert sub == reference
        assert sub.mapping() == reference.mapping()
        Generator(Cell(fp, 0), constant_map(POINT, n, 0), sub)
    cell, cmap = Cell(p, 0), constant_map(POINT, n, 0)
    for missing in (keys[0], keys[-1]):
        with pytest.raises(TagError):
            Generator(cell, cmap, Tag(p, {k: l for k, l in tag.mapping().items()
                                          if k != missing}))
    faces = {_mask_of(p, k) for k in keys}
    non_face = next((m for m in range(1, 1 << len(p.vertices)) if m not in faces), None)
    if non_face is not None:
        extra = Tag.of_masks(p.vertices, tag.labels + ((non_face, ("extra",)),))
        with pytest.raises(TagError):
            Generator(cell, cmap, extra)
    with pytest.raises(TagError):
        Tag(p, {**tag.mapping(), keys[-1] + ((Fraction(1, 3),) * n,): ("extra",)})
    moved = Polytope(n, [[x + 1 for x in v] for v in p.vertices])
    with pytest.raises(TagError):
        Generator(Cell(moved, 0), cmap, tag)


# ---------------------------------------------------------------------------
# Known-answer homology of face complexes beyond simplices
# ---------------------------------------------------------------------------

def _nonzero(betti):
    return {g: b for g, b in betti.items() if b}


def _sphere(d):
    out = {0: 1}
    out[d - 1] = out.get(d - 1, 0) + 1
    return out


def _check_face_complex_homology(p):
    assert _nonzero(ChainComplex(face_complex(p)).betti()) == {0: 1}
    assert _nonzero(ChainComplex(face_complex(p, with_top=False)).betti()) == _sphere(p.dim)


@settings(max_examples=25, deadline=None)
@given(embedded_lattice_hull())
def test_face_complex_of_a_lattice_hull_has_known_homology(data):
    _, _, pts, shift, _ = data
    p = Polytope.from_points(len(shift), pts)
    assume(1 <= p.dim <= 3)
    _check_face_complex_homology(p)


@pytest.mark.parametrize("p", [box([(0, 1)] * 3), box([(0, 1)] * 4), octahedron()],
                         ids=["box_3", "box_4", "octahedron"])
def test_face_complex_of_stock_shapes_has_known_homology(p):
    _check_face_complex_homology(p)


def test_simplex_face_complex_is_the_simplex_face_complex():
    for k in range(4):
        gens = simplex_face_complex(k)
        assert [g.tag for g in gens] == [g.tag for g in face_complex(standard_simplex(k))]
        assert gens[-1].tag == standard_simplex_tag(k)


def test_face_complex_negative_controls():
    """Homology sees the orientation one facet induces on its own facets.

    A generator's orientation is a sign on its basis element, which leaves
    every rank alone, so the same complex with one facet generator reversed
    has the same homology.  Flipping the sign with which one facet meets one
    of its own facets breaks the boundary and moves the Betti numbers; a
    complex without one of the facets is refused.
    """
    sq = box([(0, 1), (0, 1)])
    gens = face_complex(sq, with_top=False)
    assert _nonzero(ChainComplex(gens).betti()) == {0: 1, 1: 1}
    edge = next(i for i, g in enumerate(gens) if g.cell.dim == 1)
    flipped = gens[:edge] + [gens[edge].reversed()] + gens[edge + 1:]
    assert _nonzero(ChainComplex(flipped).betti()) == {0: 1, 1: 1}
    cx = ChainComplex(gens)
    d1 = [list(row) for row in cx.matrices[1]]
    row = next(r for r in range(len(d1)) if d1[r][0])
    d1[row][0] = -d1[row][0]
    cx.matrices[1] = tuple(tuple(r) for r in d1)
    assert _nonzero(cx.betti()) != {0: 1, 1: 1}
    with pytest.raises(ChainError):
        ChainComplex(face_complex(sq)[:edge] + face_complex(sq)[edge + 1:])


# ---------------------------------------------------------------------------
# Term order: the per-tag order key against _term_key on the whole key
# ---------------------------------------------------------------------------

# label prefixes of every atom type, so labels compare int with str and tuple
_PREFIXES = (3, "s", ("t", 0), (1, "x"), ())


def _assert_term_key_order(ch):
    want = sorted(ch._terms.items(), key=lambda kv: _term_key(kv[0]))
    got = ch.terms()
    assert len(got) == len(want)
    assert all(c == c2 and g is g2 for (c, g), (_, (c2, g2)) in zip(got, want))


@settings(max_examples=30, deadline=None)
@given(st.integers(0, 10**6), st.sampled_from(_PREFIXES), st.sampled_from(_PREFIXES))
def test_terms_order_matches_term_key(seed, p1, p2):
    rng = Random(seed)
    ch = (random_chain(rng, p1, max_terms=6, max_ambient=3)
          + random_chain(rng, p2, max_terms=6, max_ambient=3))
    # one cell and map under shuffled numberings of every prefix: the labels
    # decide the order
    _, g = ch.terms()[0]
    faces = list(g.cell.polytope._fd.face_dims())
    tags = []
    for prefix in _PREFIXES + _PREFIXES:
        numbers = rng.sample(range(len(faces)), len(faces))
        tags.append(Tag.of_masks(g.cell.polytope.vertices,
                                 [(f, ((prefix, i),)) for f, i in zip(faces, numbers)]))
    same = Chain([(k + 1, Generator(g.cell, g.cmap, tag)) for k, tag in enumerate(tags)])
    y = torus(rng.randint(1, 2))
    d1, d2 = random_cochain(rng, y, p1), random_cochain(rng, y, ("b", p2))
    c = random_chain_over(rng, y, ("c", p2))
    for x in (ch, boundary(ch), same, boundary(same), d1 + d2, boundary(d1),
              cup(d1, d2), cup(d2, d1), cap(c, d1), boundary(cap(c, d2))):
        _assert_term_key_order(x)


def test_complex_basis_order_matches_term_key():
    gens = []
    polys = (standard_simplex(2), box([(0, 1), (0, 1)]), interval(0, 1), octahedron(),
             standard_simplex(1))
    for prefix, p in zip(_PREFIXES + _PREFIXES, polys + polys[1:] + polys[:1]):
        big = numbered_tag(p, prefix)
        cmap = constant_map(POINT, p.ambient_dim, 0)
        gens += [Generator(Cell(p.face_from_mask(g), 0), cmap, big.restrict(g))
                 for g in p._fd.face_dims()]
    cc = ChainComplex(gens)
    for items in cc.basis.values():
        assert items == sorted(items, key=lambda kv: _term_key(kv[0]))
    assert cc.betti() == {0: 10, 1: 0, 2: 0, 3: 0}
