import hashlib
import importlib.util
import sys
from collections import namedtuple
from enum import IntEnum
from fractions import Fraction
from pathlib import Path
from random import Random

import pytest
from hypothesis import assume, example, given, settings, strategies as st

from cornercalc import chains
from cornercalc.bordism import tag_independence_witness
from cornercalc._linalg import identity, rank
from cornercalc.cells import (
    POINT,
    Cell,
    CellMap,
    MapError,
    _torus_form,
    constant_map,
    euclid,
    fibre_product_cells,
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
    _facet_forms,
    _insert_coordinate,
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
    face_complex,
    generator_boundary,
    merge_labels,
    numbered_tag,
    pair_tags,
    pushforward,
    simplex_face_complex,
    singular_boundary,
    singular_generator,
    singular_to_kuranishi,
    standard_simplex_tag,
    transport_generator,
    verify_dd_zero,
)
from cornercalc.geometry import (Polytope, box, compress_mask, interval, mask_bits, move_mask,
                                 standard_simplex)
from cornercalc.products import cap, cup
from cornercalc.randgen import (cycle_class, random_chain, random_chain_over, random_cochain,
                                random_cover_cochain, random_cycle_class, random_generator,
                                random_polytope, random_singular_terms)
from test_geometry import embedded_lattice_hull, octahedron


def faces_of(p):
    return [k for _, keys in sorted(p.faces().items()) for k in keys]


def numbered_tag(p, prefix="f"):
    return Tag.from_atoms(p, {k: (prefix, i) for i, k in enumerate(faces_of(p))})


def interval_generator(a=0, b=1, prefix="f"):
    iv = interval(a, b)
    return Generator(Cell(iv, 0), constant_map(POINT, 1, 0), numbered_tag(iv, prefix))


def identity_target_map(t):
    return TargetMap(t, t, identity(t.dim), [0] * t.dim)


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
    same = Tag.from_atoms(iv, {k: i for i, k in enumerate(keys)})
    assert same == tag and hash(same) == hash(tag) and repr(tag) == "Tag(3 faces)"
    with pytest.raises(TagError):
        tag.label_of(((Fraction(7),),))
    partial = Tag(iv, {keys[0]: ("a",)})
    with pytest.raises(TagError):
        Generator(Cell(iv, 0), constant_map(POINT, 1, 0), partial)


def test_label_spellings_are_one_class():
    """A label is a multiset of atoms: its atoms in another order are the
    same label, so the two spellings give one generator class."""
    iv = interval(0, 1)
    *ends, top = faces_of(iv)

    def spelled(top_label):
        tag = Tag(iv, {ends[0]: ("p",), ends[1]: ("q",), top: top_label})
        return Generator(Cell(iv, 0), constant_map(POINT, 1, 0), tag)

    assert spelled(("b", "a")).tag.label_of(top) == ("a", "b")
    assert (chain(spelled(("b", "a"))) - chain(spelled(("a", "b")))).is_zero
    with pytest.raises(TypeError):
        Tag(iv, {top: ("a", object())})


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


def test_chain_scales_by_rationals():
    g = interval_generator()
    c = Chain([(2, g)])
    assert c.scale(Fraction(1, 3)).coefficient(g) == Fraction(2, 3)
    assert c.scale(-3).coefficient(g) == -6
    assert c.scale(0).is_zero
    assert Chain([(Fraction(1, 2), g)]).scale(Fraction(1, 3)).coefficient(g) == Fraction(1, 6)
    assert (-c).coefficient(g) == -2 and Chain([(0, g)]).is_zero
    assert [type(x) for x, _ in c.terms()] == [Fraction]
    assert repr(c) == "Chain(1 terms over Q)"
    with pytest.raises(TypeError, match="not hashable"):
        hash(c)


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
    assert not rep.ok and not rep
    assert any("do not cancel" in d for d in rep.details)


def test_free_circle_generator_is_zero():
    pt = Polytope.from_points(1, [[0]])
    cell = Cell(pt, 1)
    cmap = constant_map(POINT, 1, 1)
    g = Generator(cell, cmap, Tag.from_atoms(pt, {faces_of(pt)[0]: "a"}))
    assert chain(g).is_zero
    assert chain(interval_generator()).coefficient(g) == 0
    rep = aut_finite(cell, cmap, g.tag)
    assert rep.verdict == "infinite" and rep.order is None


def test_free_circle_generator_has_no_corner_flags():
    # a zero class has no boundary terms, so no flags to pair either
    sq = box([(0, 1), (0, 1)])
    g = Generator(Cell(sq, 1), constant_map(POINT, 2, 1), numbered_tag(sq))
    assert boundary(chain(g)).is_zero
    assert corner_terms(g) == []


def _half_interval():
    """[-1, 1] folded by its reflection: the ends form one orbit."""
    iv = interval(-1, 1)
    keys = faces_of(iv)
    ends = tuple(k for k in keys if len(k) == 1)
    top = next(k for k in keys if len(k) == 2)
    tag = Tag(iv, {ends[0]: ("end",), ends[1]: ("end",), top: ("body",)})
    return iv, ends, top, tag


def test_quotient_marker_expands_with_half_coefficient():
    iv, ends, top, tag = _half_interval()
    marker = QuotientMarker.from_faces(iv, 2, (ends, (top,)))
    factor, cover = marker.cover(Cell(iv, 0), constant_map(POINT, 1, 0), tag)
    assert factor == Fraction(1, 2)
    assert cover.tag.is_injective()
    assert cover.tag.label_of(top) == ("body",)
    assert cover.tag.label_of(ends[0]) == merge_labels(("end",), (("q", 0),))
    c = Chain([(factor, cover)])
    assert len(c.terms()) == 1
    assert c.terms()[0][0] == Fraction(1, 2)
    assert c.coefficient(cover) == Fraction(1, 2)


def test_trivial_group_marker_is_identity():
    iv = interval(0, 1)
    keys = faces_of(iv)
    tag = numbered_tag(iv)
    marker = QuotientMarker.from_faces(iv, 1, tuple((k,) for k in keys))
    plain = Generator(Cell(iv, 0), constant_map(POINT, 1, 0), tag)
    assert Chain([marker.cover(Cell(iv, 0), constant_map(POINT, 1, 0), tag)]) == chain(plain)


def test_quotient_boundary_commutes_with_expansion():
    iv, ends, top, tag = _half_interval()
    marker = QuotientMarker.from_faces(iv, 2, (ends, (top,)))
    factor, cover = marker.cover(Cell(iv, 0), constant_map(POINT, 1, 0), tag)
    via_chain = boundary(Chain([(factor, cover)]))
    direct = Chain(generator_boundary(cover)).scale(factor)
    assert via_chain == direct
    coeffs = sorted(c for c, _ in via_chain.terms())
    assert coeffs == [Fraction(-1, 2), Fraction(1, 2)]


def test_ring_keyword_accepts_q_alone():
    # Chain and random_chain keep a ring keyword at the public edge; any value
    # but "Q" is refused, whatever the terms
    iv, ends, top, tag = _half_interval()
    marker = QuotientMarker.from_faces(iv, 2, (ends, (top,)))
    term = marker.cover(Cell(iv, 0), constant_map(POINT, 1, 0), tag)
    assert Chain([term], ring="Q") == Chain([term])
    for ring in ("Z", "R", None):
        message = f"^chains are over Q; ring must be 'Q', not {ring!r}$"
        with pytest.raises(ChainError, match=message):
            Chain([term], ring=ring)
    with pytest.raises(ChainError, match="^chains are over Q; ring must be 'Q', not 'Z'$"):
        random_chain(Random(0), ("t", 0), max_ambient=2, ring="Z")


def test_marker_validation():
    iv, ends, top, tag = _half_interval()
    cell, cmap = Cell(iv, 0), constant_map(POINT, 1, 0)
    uneven = Tag(iv, {ends[0]: ("a",), ends[1]: ("b",), top: ("body",)})
    with pytest.raises(TagError, match="constant on each orbit"):
        QuotientMarker.from_faces(iv, 2, (ends, (top,))).cover(cell, cmap, uneven)
    with pytest.raises(ChainError, match="cover every face"):
        QuotientMarker.from_faces(iv, 2, (ends,)).cover(cell, cmap, tag)
    with pytest.raises(ChainError, match="divide the group order"):
        QuotientMarker.from_faces(iv, 3, (ends, (top,))).cover(cell, cmap, tag)
    with pytest.raises(ChainError, match="disjoint"):
        QuotientMarker.from_faces(iv, 2, (ends, (ends[0],), (top,))).cover(cell, cmap, tag)
    flat = Tag(iv, {ends[0]: ("end",), ends[1]: ("end",), top: ("end",)})
    with pytest.raises(TagError, match="separate orbits"):
        QuotientMarker.from_faces(iv, 2, (ends, (top,))).cover(cell, cmap, flat)
    with pytest.raises(ChainError, match="positive"):
        QuotientMarker(0, ())
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


def test_aut_symmetry_must_commute_with_a_torus_map():
    # x -> 2x into T^1 takes both ends of [0, 1] to 0, but the flip does not
    # commute with it: 1/8 goes to 1/4 and 7/8 to 3/4
    iv = interval(0, 1)
    keys = faces_of(iv)
    ends = tuple(k for k in keys if len(k) == 1)
    top = next(k for k in keys if len(k) == 2)
    tag = Tag(iv, {ends[0]: ("end",), ends[1]: ("end",), top: ("body",)})
    cmap = CellMap(torus(1), [[2]], [[]], [0])
    rep = aut_finite(Cell(iv, 0), cmap, tag)
    assert rep.verdict == "finite"
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
    with pytest.raises(MapError):
        TargetMap(torus(1), torus(1), [[Fraction(1, 2)]], [0])
    with pytest.raises(MapError):
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


def test_transport_refuses_a_map_that_collapses_the_hull():
    # the vertices stay distinct and extreme, a unit square in the plane,
    # but the tetrahedron's hull loses a dimension
    tet = Polytope.from_points(3, [(0, 0, 0), (1, 0, 0), (0, 1, 0), (1, 1, 1)])
    g = Generator(Cell(tet), constant_map(POINT, 3, 0), numbered_tag(tet))
    with pytest.raises(ChainError, match="^transport map is not injective on the hull$"):
        transport_generator(g, [[1, 0, 0], [0, 1, 0]], [0, 0])


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


def test_chain_complex_skips_a_zero_class():
    # a point times a free circle over the point target is 2-torsion, so it
    # adds no basis element and leaves the homology of the simplex alone
    pt = Polytope.from_points(1, [[0]])
    free = Generator(Cell(pt, 1), constant_map(POINT, 1, 1),
                     Tag.from_atoms(pt, {faces_of(pt)[0]: "free"}))
    plain = ChainComplex(simplex_face_complex(2))
    cx = ChainComplex(simplex_face_complex(2) + [free])
    assert cx.betti() == plain.betti() == {0: 1, 1: 0, 2: 0}
    assert cx.matrices == plain.matrices
    assert ({d: [key for key, _ in b] for d, b in cx.basis.items()}
            == {d: [key for key, _ in b] for d, b in plain.basis.items()})


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


def test_random_chains_over_the_point():
    """Over the point the winding matrix has no rows."""
    for make in (random_cover_cochain, random_chain_over):
        c = make(Random(0), POINT, "p")
        assert not c.is_zero and all(g.cmap.target == POINT for _, g in c.terms())


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
        ch = boundary(random_chain(Random(i), ("t", 0), max_ambient=4))
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
# Re-pinned when d came to restrict a cochain in the kernel, outward normal
# first, which multiplies every facet term by (-1)^dim Y: over random_cochain
# draws 0-199 on T^1 and T^2 (384 boundary terms), every term kept its key,
# its cell and its place, and its coefficient moved by exactly (-1)^dim Y.
GOLDEN_COBOUNDARY_DIGEST = (
    "b0a8c793ade911d298890a6486f22137ed28560166c58317a3f530e29dfb9f17")


def test_coboundary_canonical_keys_golden_digest():
    h = hashlib.sha256()
    count = 0
    for y in (torus(1), torus(2)):
        for i in range(20):
            ch = boundary(random_cochain(Random(i), y, ("c", 0)))
            terms = ch.terms()
            count += len(terms)
            h.update(repr(terms).encode())
            cos = [kernel_coorientation(g.cell, g.cmap) for _, g in terms]
            h.update(repr([(c, _normal_form(g)[:2], co.frame, co.sign)
                           for (c, g), co in zip(terms, cos)]).encode())
    assert count == 36
    assert h.hexdigest() == GOLDEN_COBOUNDARY_DIGEST


def _benchmark_workloads():
    """The benchmark's workloads module, loaded from its file once."""
    name = "perfbench_workloads"
    if name not in sys.modules:
        spec = importlib.util.spec_from_file_location(
            name, Path(__file__).resolve().parents[1] / "perfbench" / "workloads.py")
        module = importlib.util.module_from_spec(spec)
        sys.modules[name] = module  # dataclasses look their module up here
        spec.loader.exec_module(module)
    return sys.modules[name]


# The boundary, the double boundary and a second read of the boundary of the
# first 20 dd-zero chains of the benchmark's chain-boundary corpus, in that
# order: a boundary read twice must not drift in keys, signs, coefficients or
# term order.
GOLDEN_DD_ZERO_CORPUS_DIGEST = (
    "f596da5a301eafb53b403d1a526ddac3e3e55e3f8217fac1ea59ff9000939c47")


def test_dd_zero_corpus_boundaries_golden_digest():
    workloads = _benchmark_workloads()
    h = hashlib.sha256()
    count = 0
    for i in range(20):
        rng = workloads.item_random("chain-boundary", "dd-zero", i)
        c = random_chain(rng, ("t", 0), max_ambient=4)
        first = boundary(c)
        for ch in (first, boundary(first), boundary(c)):
            terms = ch.terms()
            count += len(terms)
            h.update(repr(terms).encode())
            h.update(repr([(a, _normal_form(g)[:2], g.cell.frame, g.cell.sign)
                           for a, g in terms]).encode())
    assert count == 698
    assert h.hexdigest() == GOLDEN_DD_ZERO_CORPUS_DIGEST


# The corner flags of every term of the 66 dd-zero chains of the benchmark's
# chain-boundary corpus, each as (corner, first facet, second facet, corner
# vertices, corner labels), and the verify_dd_zero report (ok, corners
# checked) of each chain.  A flag's orientation is left out: the pairing
# reads only whether partners cancel.
GOLDEN_DD_ZERO_FLAGS_DIGEST = (
    "45800649b9a94255407b4e2ca25b0b3419fc58176321cdd0af6de43e5fafd119")


def test_dd_zero_corpus_corner_flags_golden_digest():
    workloads = _benchmark_workloads()
    h = hashlib.sha256()
    flags = corners = 0
    for i in range(66):
        rng = workloads.item_random("chain-boundary", "dd-zero", i)
        c = random_chain(rng, ("t", 0), max_ambient=4)
        for _, g in c.terms():
            terms = corner_terms(g)
            flags += len(terms)
            h.update(repr([(t.corner, t.first_facet, t.second_facet,
                            t.cell.polytope.vertices, t.tag.labels) for t in terms]).encode())
        rep = verify_dd_zero(c)
        corners += rep.corners_checked
        h.update(repr((rep.ok, rep.corners_checked)).encode())
    assert (flags, corners) == (2004, 1002)
    assert h.hexdigest() == GOLDEN_DD_ZERO_FLAGS_DIGEST


def test_dd_zero_builds_no_keyed_facet_view(monkeypatch):
    """The boundary reads each facet's cell and mask off the face data: no
    facet's face key or outward vector (_FaceData.keyed_facets) is built."""
    from cornercalc import geometry
    keyed = []
    build = geometry._FaceData.keyed_facets
    monkeypatch.setattr(geometry._FaceData, "keyed_facets",
                        lambda fd: keyed.append(fd.vertices) or build(fd))
    gens = []
    for seed in range(8):
        c = random_chain(Random(7_000_003 + seed), ("t", 0), max_ambient=4)
        assert verify_dd_zero(c).ok
        gens += [g for _, g in c.terms()]
    assert gens and keyed == []
    # the view is built when a facet key or outward vector is asked for
    gens[0].cell.polytope.facets()
    assert keyed == [gens[0].cell.polytope.vertices]


# The facet forms a normalized generator keeps (its _facets slot), and the
# generators built unchecked from a validated one, against references that
# use neither: every facet term of generator_boundary normalized afresh, and
# each derived generator rebuilt by the validating constructor.

def _reference_boundary(c):
    return Chain([(a * f, s) for a, g in c.terms() for f, s in generator_boundary(g)])


def _assert_revalidates(g):
    """The validating constructor accepts g, as the same class."""
    again = Generator(g.cell, g.cmap, g.tag, is_cochain=g.is_cochain)
    assert (_normal_form(again) or ())[:2] == (_normal_form(g) or ())[:2]


def _check_boundary_reads(c):
    """boundary and boundary∘boundary, read twice, against the references."""
    ref = _reference_boundary(c)
    ref2 = _reference_boundary(ref)
    for _ in range(2):  # the first read fills the slots, the second reads them
        d = boundary(c)
        assert d == ref and repr(d.terms()) == repr(ref.terms())
        assert boundary(d) == ref2 and ref2.is_zero
    # normal forms and facets are built unchecked
    for ch in (c, d):
        for _, g in ch.terms():
            _assert_revalidates(g)
            for _, sub in generator_boundary(g):
                _assert_revalidates(sub)
    return d


@settings(max_examples=25, deadline=None)
@given(st.integers(0, 10**6))
def test_boundary_reads_match_the_reference_on_random_chains(seed):
    c = random_chain(Random(seed), ("t", 0), max_ambient=4)
    _check_boundary_reads(c)


@settings(max_examples=25, deadline=None)
@given(st.integers(0, 10**6), st.sampled_from((1, 2)))
def test_boundary_reads_match_the_reference_on_random_cochains(seed, m):
    c = random_cochain(Random(seed), torus(m), ("c", 0))
    _check_boundary_reads(c)


def _square_faces():
    sq = box([(-1, 1), (-1, 1)])
    return sq, {frozenset(tuple(int(x) for x in v) for v in k): k for k in faces_of(sq)}


def test_boundary_reads_match_the_reference_on_a_marked_square():
    """The square over Z/2 acting by a half turn: 1/2 times its cover, whose
    boundary is 1/2 times the cover's facets."""
    sq, face = _square_faces()
    orbits = [(((-1, -1),), ((1, 1),)), (((-1, 1),), ((1, -1),)),
              (((-1, -1), (-1, 1)), ((1, -1), (1, 1))),
              (((-1, -1), (1, -1)), ((-1, 1), (1, 1))),
              (((-1, -1), (-1, 1), (1, -1), (1, 1)),)]
    orbits = [tuple(face[frozenset(f)] for f in orbit) for orbit in orbits]
    tag = Tag(sq, {f: (("o", i),) for i, orbit in enumerate(orbits) for f in orbit})
    marker = QuotientMarker.from_faces(sq, 2, orbits)
    factor, cover = marker.cover(Cell(sq, 0), constant_map(POINT, 2, 0), tag)
    c = Chain([(factor, cover)])
    assert [a for a, _ in c.terms()] == [Fraction(1, 2)]
    first = _check_boundary_reads(c)
    assert first == Chain(generator_boundary(cover)).scale(factor)
    assert all(a in (Fraction(1, 2), Fraction(-1, 2)) for a, _ in first.terms())
    assert len(first.terms()) == 4


def test_marked_generators_are_still_validated():
    """Position atoms make the bottom edge's label collide with its vertex's
    in the cover: the marker is valid, its cover is not."""
    sq, face = _square_faces()
    orbits = [(((-1, -1),), ((1, 1),)), (((-1, 1),), ((1, -1),)),
              (((-1, -1), (-1, 1)), ((1, -1), (1, 1))),
              (((-1, -1), (1, -1)),), (((-1, 1), (1, 1)),),
              (((-1, -1), (-1, 1), (1, -1), (1, 1)),)]
    labels = [("v",), ("w",), ("lr",), merge_labels(("v",), (("q", 0),)), ("top",), ("sq",)]
    orbits = [tuple(face[frozenset(f)] for f in orbit) for orbit in orbits]
    tag = Tag(sq, {f: label for orbit, label in zip(orbits, labels) for f in orbit})
    marker = QuotientMarker.from_faces(sq, 2, orbits)
    with pytest.raises(TagError, match="injective"):
        marker.cover(Cell(sq, 0), constant_map(POINT, 2, 0), tag)


def test_chain_complex_refuses_open_and_misgraded_generator_sets():
    gens = face_complex(box([(0, 1), (0, 1)]))
    edges = [g for g in gens if g.cell.polytope.dim == 1]
    assert len(edges) == 4
    with pytest.raises(ChainError, match="not closed under boundary"):
        ChainComplex([g for g in gens if g is not edges[0]])
    # a cochain's facet terms are one grade up, so cochains are refused
    cochains = [Generator(g.cell, g.cmap, g.tag, is_cochain=True) for g in gens]
    with pytest.raises(ChainError, match="wrong grade"):
        ChainComplex(cochains)


def test_chain_complex_matrices_match_the_reference():
    gens = simplex_face_complex(3) + face_complex(box([(0, 1), (0, 1)]))
    for _ in range(2):
        cx = ChainComplex(gens)
        for grade, items in cx.basis.items():
            rows = cx.basis.get(grade - 1, [])
            for col, (_, gen) in enumerate(items):
                ref = Chain(generator_boundary(gen))
                assert [cx.matrices[grade][row][col] for row in range(len(rows))] == \
                    [ref.coefficient(g) for _, g in rows]


# Faces read at their root (_facet_forms, corner_terms, face_complex)
# against the reference path: generator_boundary, then _normal_form of
# every facet afresh, level by level.

def _reference_forms(gen):
    """(key, coefficient, normalized facet) of each nonzero facet term, each
    facet normalized afresh."""
    out = []
    for factor, sub in generator_boundary(gen):
        nf = _normal_form(sub)
        if nf is not None:
            out.append((nf[0], nf[1] * factor, nf[2]))
    return out


def _form_view(forms):
    return [(key, coeff, sub.cell, sub.cmap, sub.tag.labels, sub.is_cochain)
            for key, coeff, sub in forms]


def _reference_flags(gen):
    """(corner, first facet, corner cell, corner labels) of every flag, each
    level normalized afresh, as corner_terms reads them."""
    masks = gen.cell.polytope._fd.facet_masks
    flags = []
    for m1, (_, c1, sub) in zip(masks, _reference_forms(gen)):
        for m2, (_, c2, corner) in zip(sub.cell.polytope._fd.facet_masks, _reference_forms(sub)):
            cell = corner.cell if c1 * c2 > 0 else corner.cell.reversed()
            flags.append((move_mask(m2, mask_bits(m1)), m1, cell, corner.tag.labels))
    return flags


def _check_faces_against_the_reference(gen):
    ours, ref = _facet_forms(gen), _reference_forms(gen)
    assert _form_view(ours) == _form_view(ref)
    for (_, _, sub), (_, _, ref_sub) in zip(ours, ref):
        # a face handed out by a root is its own normal form
        assert _normal_form(sub) == (sub._key, 1, sub)
        assert _form_view(_facet_forms(sub)) == _form_view(_reference_forms(ref_sub))
    assert [(t.corner, t.first_facet, t.cell, t.tag.labels)
            for t in corner_terms(gen)] == _reference_flags(gen)


def _oracle_cochain(rng, y):
    """A cochain generator over the point or a torus: over a torus, a
    polytope times the full torus with an invertible torus part, so every
    face submerses."""
    d = rng.randint(0, 2)
    p = random_polytope(rng, d, 5, min_dim=d)
    sign = rng.choice((1, -1))
    if not y.dim:
        s = rng.randint(0, 1)
        return Generator(Cell(p, s, sign=sign), constant_map(POINT, d, s), numbered_tag(p, "o"),
                         is_cochain=True)
    while True:
        m_t = [[rng.randint(-2, 2) for _ in range(y.dim)] for _ in range(y.dim)]
        if rank(m_t) == y.dim:
            break
    cmap = CellMap(y, [[rng.randint(-1, 1) for _ in range(d)] for _ in range(y.dim)], m_t,
                   [Fraction(rng.randint(0, 5), 3) for _ in range(y.dim)])
    return Generator(Cell(p, y.dim, sign=sign), cmap, numbered_tag(p, "o"), is_cochain=True)


def test_corner_flags_of_a_raw_generator_whose_torus_form_reverses():
    """The triangle times T^1 into T^1 with M = [[-1]]: its torus form has
    det U = -1, so the generator's normal form reverses it, while the forms
    of its normalized facets do not reverse theirs.  Reading every face's
    sign at the root would flip all six flags, and verify_dd_zero, which
    reads only whether partners cancel, would still pass."""
    p = Polytope(2, [[0, 0], [2, 0], [0, 1]])
    cmap = CellMap(torus(1), [[1, 1]], [[-1]], [Fraction(1, 3)])
    assert _torus_form(cmap.m_t, 1, True)[2] == -1
    gen = Generator(Cell(p, 1), cmap, numbered_tag(p, "s"))
    flags = corner_terms(gen)
    assert len(flags) == 6
    _check_faces_against_the_reference(gen)
    _check_faces_against_the_reference(_normal_form(gen)[2])
    assert verify_dd_zero(chain(gen)).ok


@settings(max_examples=60, deadline=None)
@given(st.integers(0, 10**6), st.sampled_from(("chain", "point", "T1", "T2")),
       st.booleans())
def test_faces_read_at_the_root_match_the_reference(seed, kind, normalized):
    """Chain generators over the point, R^1, T^1 and T^2 (random_generator
    draws the target), and cochain generators over the point, T^1 and T^2
    (no cell with a vertex submerses onto R^1), raw and normalized."""
    rng = Random(seed)
    if kind == "chain":
        gen = random_generator(rng, "o", max_ambient=3)
    else:
        gen = _oracle_cochain(rng, {"point": POINT, "T1": torus(1), "T2": torus(2)}[kind])
    if normalized:
        nf = _normal_form(gen)
        assume(nf is not None)
        gen = nf[2]
    _check_faces_against_the_reference(gen)


def test_betti_ranks_each_boundary_matrix_once(monkeypatch):
    """One elimination per grade, of that grade's own columns, kept for
    is_boundary; betti makes no dense rank call."""
    ranked = []
    eliminate = chains._pivot_columns
    monkeypatch.setattr(chains, "_pivot_columns", lambda cols: ranked.append(cols) or eliminate(cols))
    monkeypatch.setattr(chains, "rank", lambda m: pytest.fail("betti made a dense rank call"))
    cx = ChainComplex(simplex_face_complex(3))
    assert cx.betti() == {0: 1, 1: 0, 2: 0, 3: 0}
    assert len(ranked) == len(cx.matrices) == 4
    assert sorted(map(id, ranked)) == sorted(map(id, cx._columns.values()))
    assert cx.is_boundary(boundary(chain(simplex_face_complex(3)[-1])))
    assert cx.betti() == {0: 1, 1: 0, 2: 0, 3: 0}
    assert len(ranked) == 4


# The elimination (_pivot_columns, _reduced) against the dense rank on random
# integer matrices; tests/conftest.py checks every elimination tier-1 runs,
# so every complex it builds, against the same rank.

@st.composite
def integer_columns(draw):
    """0-8 rows and 0-8 columns of entries -3..3, with zero columns and
    repeats of earlier columns among them."""
    rows = draw(st.integers(0, 8))
    cols = []
    for _ in range(draw(st.integers(0, 8))):
        kind = draw(st.sampled_from(["drawn", "zero", "repeat"]))
        if kind == "zero" or (kind == "repeat" and not cols):
            cols.append([0] * rows)
        elif kind == "repeat":
            cols.append(list(draw(st.sampled_from(cols))))
        else:
            cols.append(draw(st.lists(st.integers(-3, 3), min_size=rows, max_size=rows)))
    return rows, cols


def _sparse(col):
    return {r: x for r, x in enumerate(col) if x}


@settings(max_examples=200, deadline=None)
@given(integer_columns(), st.lists(st.integers(-3, 3), min_size=8, max_size=8))
def test_elimination_rank_is_the_dense_rank(case, extra):
    rows, cols = case
    pivots = chains._pivot_columns([_sparse(c) for c in cols])
    dense = [[c[r] for c in cols] for r in range(rows)]
    assert len(pivots) == rank(dense)
    assert all(max(v) == p for p, v in pivots.items())
    # a column is in the span exactly when it reduces to zero: when adding
    # it keeps the rank
    for v in cols + [extra[:rows]]:
        in_span = rank([row + [x] for row, x in zip(dense, v)]) == rank(dense)
        assert (not chains._reduced(_sparse(v), pivots)) == in_span


def test_is_boundary_on_face_complexes():
    for p in (box([(0, 1), (0, 1)]), standard_simplex(3)):
        gens = face_complex(p)
        top, rest = gens[-1], gens[:-1]
        verts = [g for g in gens if g.cell.dim == 0]
        full, sphere = ChainComplex(gens), ChainComplex(rest)
        fundamental = boundary(chain(top))
        assert not fundamental.is_zero and boundary(fundamental).is_zero
        assert full.is_boundary(fundamental)
        assert not sphere.is_boundary(fundamental)
        for cx in (full, sphere):
            assert cx.is_boundary(chain(verts[0]) - chain(verts[1]))
            assert cx.is_boundary(chain((Fraction(1, 2), verts[2]), (Fraction(-1, 2), verts[0])))
            assert not cx.is_boundary(chain(verts[0]))
            assert not cx.is_boundary(chain((Fraction(2, 3), verts[1]), (Fraction(1, 3), verts[0])))
            assert cx.is_boundary(Chain())
            edge = next(g for g in gens if g.cell.dim == 1)
            assert cx.is_boundary(boundary(chain(edge)))
            assert not cx.is_boundary(chain(edge))


def test_is_boundary_refuses_outside_terms_and_mixed_grades():
    gens = face_complex(box([(0, 1), (0, 1)]))
    cx = ChainComplex(gens)
    vertex = next(g for g in gens if g.cell.dim == 0)
    edge = next(g for g in gens if g.cell.dim == 1)
    with pytest.raises(ChainError, match="outside the complex"):
        cx.is_boundary(chain(interval_generator(0, 2)))
    with pytest.raises(ChainError, match="outside the complex"):
        cx.is_boundary(chain(vertex, interval_generator(0, 2)))
    with pytest.raises(ChainError, match="mixes grades"):
        cx.is_boundary(chain(vertex, edge))


def test_chain_complex_refuses_a_non_integer_coefficient(monkeypatch):
    forms = chains._facet_forms
    monkeypatch.setattr(chains, "_facet_forms",
                        lambda g: [(key, c / 2, sub) for key, c, sub in forms(g)])
    with pytest.raises(ChainError, match="not an integer"):
        ChainComplex(simplex_face_complex(1))


@pytest.mark.parametrize("p", [standard_simplex(k) for k in range(5)]
                         + [box([(0, 1), (0, 2), (-1, 1)]),
                            random_polytope(Random(11), 3, 7, min_dim=3)],
                         ids=[f"simplex_{k}" for k in range(5)] + ["box", "random_hull"])
def test_face_complex_generators_match_the_faces_built_alone(p):
    """Each face_complex generator, a face one root hands out, has the key,
    sign, cell and tag of the face's generator built on its own."""
    fd = p._fd
    big = chains.numbered_tag(p, "dx", p.dim)
    cmap = constant_map(POINT, p.ambient_dim, 0)
    gens = face_complex(p)
    assert len(gens) == len(fd.face_dims())
    for gen, g in zip(gens, fd.face_dims()):
        ref = Generator(Cell(fd.face(g), 0), cmap, big.restrict(g))
        key, sign, norm = _normal_form(ref)
        assert _normal_form(gen)[:2] == (key, sign)
        assert gen.cell == ref.cell == norm.cell and gen.tag == ref.tag
        assert gen.cmap == norm.cmap


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


class _Word(str):
    """A str subclass, which _term_key orders as a str."""

    def __repr__(self):
        return f"_Word({str.__repr__(self)})"


class _Level(IntEnum):
    LOW = -1
    ONE = 1
    HIGH = 3


_Pair = namedtuple("_Pair", "first second")

# subclasses of str, int and tuple miss _term_key's exact-type branches
_atoms = st.one_of(
    st.none(), st.booleans(), st.integers(min_value=-4, max_value=4),
    st.fractions(min_value=-4, max_value=4, max_denominator=4),
    st.sampled_from(["", "a", "b", "q", "t"]),
    st.sampled_from([_Word("a"), _Word("z"), *_Level]))
_labels = st.recursive(_atoms, lambda inner: st.one_of(
    st.lists(inner, max_size=3).map(tuple), st.builds(_Pair, inner, inner)), max_leaves=12)


@settings(max_examples=100, deadline=None)
@given(st.lists(_labels, max_size=12))
def test_term_key_orders_like_fraction_key(xs):
    order = sorted(range(len(xs)), key=lambda i: _term_key(xs[i]))
    assert order == sorted(range(len(xs)), key=lambda i: _fraction_term_key(xs[i]))


def _rebuilt_keys(tag):
    return tuple(tuple(_term_key(a) for a in label) for _, label in tag.labels)


@settings(max_examples=60, deadline=None)
@given(st.sampled_from([interval(), box([(0, 1), (0, 1)]), standard_simplex(2)]), st.data())
def test_pair_tags_merges_by_carried_keys_like_merge_labels(p2, data):
    # faces labelled by tuples of atoms from the term-order strategy, left
    # unsorted: the keyed merge is a stable sort of l1 + l2 on the key alone,
    # as merge_labels is, whatever order the operands come in; repr tells
    # equal atoms of different types apart
    p1 = interval()
    label = st.lists(_labels, max_size=3).map(tuple)

    def drawn_tag(p):
        return Tag.of_masks(p.vertices, [(m, data.draw(label)) for m in p._fd.face_dims()])

    def product(tag1, poly1, tag2, poly2):
        comp, = fibre_product_cells(Cell(poly1, 0), constant_map(POINT, poly1.ambient_dim, 0),
                                    Cell(poly2, 0), constant_map(POINT, poly2.ambient_dim, 0))
        tag = pair_tags(tag1, tag2, comp)
        for g, (f1, f2) in comp.face_pairs.items():
            assert repr(tag.label_at(g)) == repr(merge_labels(tag1.label_at(f1),
                                                              tag2.label_at(f2)))
        assert tag._keys == _rebuilt_keys(tag)
        return tag, comp.cell.polytope

    tag1, tag2 = drawn_tag(p1), drawn_tag(p2)
    tag12, p12 = product(tag1, p1, tag2, p2)
    for facet in p12._fd.facet_masks:
        sub = tag12.restrict(facet)
        assert sub._keys == _rebuilt_keys(sub)
    # an iterated product merges by the keys its first operand carries
    product(tag12, p12, drawn_tag(p1), p1)
    # a tag that was never paired restricts without keys
    fresh = drawn_tag(p2)
    assert fresh.restrict(p2._fd.facet_masks[0])._keys is None
    with pytest.raises(TagError, match="not labelled"):
        product(Tag.of_masks(p1.vertices, []), p1, fresh, p2)


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


@st.composite
def tag_and_nested_masks(draw):
    """A tag with labels on arbitrary vertex sets, a mask F over its vertices
    and a mask G over F's vertices."""
    size = draw(st.integers(0, 7))
    masks = draw(st.sets(st.integers(1, (1 << size) - 1), max_size=20)) if size else set()
    tag = Tag.of_masks(tuple(range(size)), [(m, (("L", m),)) for m in masks])
    face = draw(st.integers(0, (1 << size) - 1))
    inner = draw(st.integers(0, (1 << face.bit_count()) - 1))
    return tag, face, inner


@settings(max_examples=200, deadline=None)
@given(tag_and_nested_masks())
def test_restrict_composes_and_packs_like_compress_mask(data):
    """Restricting to F, then to G inside F, is restricting once to the
    composed mask: G's bits at F's set bits.  Each label is packed as
    compress_mask packs it, in the same order."""
    tag, face, inner = data
    sub = tag.restrict(face)
    assert sub.labels == tuple((compress_mask(m, face), label)
                               for m, label in tag.labels if not m & ~face)
    assert sub.vertices == tuple(tag.vertices[i] for i in mask_bits(face))
    composed = sum(1 << i for k, i in enumerate(mask_bits(face)) if inner >> k & 1)
    twice = sub.restrict(inner)
    once = tag.restrict(composed)
    assert twice == once and twice.labels == once.labels


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
    column = cx._columns[1][0]
    row = next(iter(column))
    column[row] = -column[row]
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
@example(61, 3, 3)
def test_terms_order_matches_term_key(seed, p1, p2):
    rng = Random(seed)
    ch = (random_chain(rng, p1, max_terms=6, max_ambient=3)
          + random_chain(rng, p2, max_terms=6, max_ambient=3))
    # both draws are zero at some seeds (61, 89, 319, ...); the laws below
    # need a term
    assume(ch.terms())
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


def _term_order(key, gen):
    """The term order as one sort key: the first seven slots of the normal-form
    key, then the tag's order, then the cochain flag (a chain's None first)."""
    return key[:7] + (gen.tag.order, key[8] is not None)


def _ties(keys):
    """How many keys share their first seven slots with another key."""
    heads = [k[:7] for k in keys]
    return sum(heads.count(h) > 1 for h in heads)


def test_terms_and_basis_sort_by_the_full_term_order():
    """Chain.terms and ChainComplex.basis, which read tags only within ties,
    against one sort on the whole term order.  The ties: one cell and map
    under two tags, and a chain and a cochain of one cell, map and tag."""
    iv, pt = interval(0, 1), box([])
    cells = ((Cell(iv, 0), constant_map(POINT, 1, 0)),
             (Cell(pt, 1), CellMap(torus(1), [()], [[1]], [0])))
    gens = [Generator(cell, cmap, numbered_tag(cell.polytope, prefix), is_cochain=flag)
            for cell, cmap in cells for prefix in ("b", "a", 3) for flag in (True, False)]
    ch = Chain([(k + 1, g) for k, g in enumerate(gens)])
    for seed in range(4):
        rng = Random(seed)
        ch = ch + random_chain(rng, ("r", seed), max_terms=6, max_ambient=3)
    assert _ties(list(ch._terms)) == len(gens)
    want = sorted(ch._terms.items(), key=lambda kv: _term_order(kv[0], kv[1][1]))
    got = ch.terms()
    assert len(got) == len(want)
    assert all(c == c2 and g is g2 for (c, g), (_, (c2, g2)) in zip(got, want))

    # vertices are grade 0 both as chains and as cochains over the point
    pt = Polytope(1, [[2]])
    cx_gens = [Generator(Cell(pt, 0), constant_map(POINT, 1, 0), numbered_tag(pt, prefix),
                         is_cochain=flag)
               for prefix in ("v", "u") for flag in (False, True)]
    for p in (standard_simplex(2), box([(0, 1)] * 2), iv):
        cmap = constant_map(POINT, p.ambient_dim, 0)
        for prefix in ("a", 3, ("t", 0)):
            big = numbered_tag(p, prefix)
            cx_gens += [Generator(Cell(p.face_from_mask(g), 0), cmap, big.restrict(g))
                        for g in p._fd.face_dims()]
    cx = ChainComplex(cx_gens)
    keys = [key for items in cx.basis.values() for key, _ in items]
    assert _ties(keys) > len(cx_gens) // 2
    for items in cx.basis.values():
        assert items == sorted(items, key=lambda kv: _term_order(*kv))


def _chain_rows(ch):
    return [(c, _normal_form(g)[:2]) for c, g in ch.terms()]


def _height_ends(ch):
    """The terms of a prism boundary at height 0 and at height 1."""
    ends = {Fraction(0): [], Fraction(1): []}
    for c, g in ch.terms():
        heights = {v[0] for v in g.cell.polytope.vertices}
        if len(heights) == 1 and heights <= ends.keys():
            ends[heights.pop()].append((c, g))
    return Chain(ends[Fraction(0)]), Chain(ends[Fraction(1)])


# Both sides of the chain comparison in check_singular_chain_map and in
# tag_independence_witness, and the height-0 and height-1 ends of the prism
# behind check_cylinder_witness beside the tag difference lifted to those
# heights, over a fixed seeded corpus: every term's canonical key, sign and
# coefficient, and every verdict.  Pinned while all three checks still
# re-charted their terms through transport_generator.
GOLDEN_WITNESS_DIGEST = (
    "6e8f4b99673f5a21be3c8f22f4ebc3d61bafed769b878541e1c3a0ded8bb4c56")


def _comparing(monkeypatch, check, *args):
    """check(*args), and the pairs of chains it compared on the way."""
    compared = []
    chain_eq = Chain.__eq__

    def recording_eq(self, other):
        compared.append((self, other))
        return chain_eq(self, other)

    with monkeypatch.context() as m:
        m.setattr(Chain, "__eq__", recording_eq)
        result = check(*args)
    return result, compared


def test_witness_chains_golden_digest(monkeypatch):
    h = hashlib.sha256()
    terms_seen, verdicts = 0, []
    for i in range(40):
        report, compared = _comparing(monkeypatch, check_singular_chain_map,
                                      random_singular_terms(Random(i)))
        verdicts.append(report.ok)
        h.update(repr((report.ok, [(_chain_rows(a), _chain_rows(b))
                                   for a, b in compared])).encode())
        terms_seen += sum(len(a.terms()) + len(b.terms()) for a, b in compared)
    for i in range(30):
        g = random_generator(Random(i), ("t", i))
        alt = numbered_tag(g.cell.polytope, "alt")
        ends = _height_ends(boundary(chain(cylinder(g, alt))))
        n = g.cell.polytope.ambient_dim
        lift = ((0,) * n,) + tuple(tuple(int(r == c) for c in range(n)) for r in range(n))
        wanted = [chain((s, transport_generator(Generator(g.cell, g.cmap, tag), lift,
                                                (t,) + (0,) * n)))
                  for s, tag, t in ((-1, g.tag, 0), (1, alt, 1))]
        report = check_cylinder_witness(g, alt)
        verdicts.append(report.ok)
        h.update(repr((report.ok, [_chain_rows(e) for e in ends],
                       [_chain_rows(w) for w in wanted])).encode())
        terms_seen += sum(len(e.terms()) for e in ends)
    classes = [random_cycle_class(Random(i)) for i in range(8)]
    classes.append(cycle_class([(0, 0, 0), (1, 0, 2), (0, 3, 1), (2, 2, 2)]))
    for b in classes:
        (_, report), compared = _comparing(monkeypatch, tag_independence_witness, b)
        verdicts.append(report.ok)
        h.update(repr((report.ok, [(_chain_rows(a), _chain_rows(c))
                                   for a, c in compared])).encode())
        terms_seen += sum(len(a.terms()) + len(c.terms()) for a, c in compared)
    assert (terms_seen, sum(verdicts), len(verdicts)) == (524, 79, 79)
    assert h.hexdigest() == GOLDEN_WITNESS_DIGEST


def _insertion(n, j, value):
    """(matrix, offset) of x -> x with `value` inserted at coordinate j."""
    rows = [tuple(int(c == r - (r > j)) if r != j else 0 for c in range(n))
            for r in range(n + 1)]
    return rows, [value if r == j else 0 for r in range(n + 1)]


def _assert_same_generator(got, ref):
    assert got.cell.polytope.vertices == ref.cell.polytope.vertices
    assert got.cell.sign == ref.cell.sign
    assert got.tag == ref.tag
    assert got.is_cochain == ref.is_cochain
    nf_got, nf_ref = _normal_form(got), _normal_form(ref)
    assert (nf_got and nf_got[:2]) == (nf_ref and nf_ref[:2])
    for v in got.cell.polytope.vertices:
        assert got.cmap.value(v) == ref.cmap.value(v)


def test_inserting_a_coordinate_matches_transport():
    # _insert_coordinate against the general re-chart it replaces on the
    # witness paths: a hull rebuild, a frame change of basis and a solve
    # per map row.  Chains over the point, R^1, T^1 and T^2 with circles,
    # and cochains over T^1 and T^2, at every insertion position.
    gens = [random_generator(Random(i), ("t", i)) for i in range(300)]
    for i in range(60):
        y = (torus(1), torus(2))[i % 2]
        gens += [g for _, g in random_cochain(Random(i), y, ("c", i)).terms()]
    circles = targets = cochains = 0
    for i, g in enumerate(gens):
        n = g.cell.polytope.ambient_dim
        j = i % (n + 1)
        value = (0, 1, Fraction(-3, 2))[i % 3]
        got = _insert_coordinate(g, j, value)
        _assert_same_generator(got, transport_generator(g, *_insertion(n, j, value)))
        circles += g.cell.torus_rank > 0 and g.cell.polytope.dim > 0
        targets += g.cmap.target.dim > 0 and g.cell.polytope.dim > 0
        cochains += g.is_cochain
    assert (circles, targets, cochains) == (134, 204, 88)


def _face_inclusion(k, j):
    """The j-th facet inclusion of the standard k-simplex: a zero inserted at j."""
    return _insertion(k, j, 0)


def _facet_label_dictionary(k, j):
    """Standard labels of the (k-1)-simplex -> the k-simplex's labels on facet j."""
    lin, _ = _face_inclusion(k, j)
    small, big = standard_simplex_tag(k - 1), standard_simplex_tag(k)
    index = {v: i for i, v in enumerate(big.vertices)}
    table = [index[tuple(sum(lin[i][t] * v[t] for t in range(k)) for i in range(k + 1))]
             for v in small.vertices]
    return {label: big.label_at(move_mask(m, table)) for m, label in small.labels}


def _bridged_boundary_reference(terms):
    """The bridged simplicial boundary, each small term relabelled by the facet
    dictionary and transported through the facet inclusion."""
    rhs = Chain()
    for coeff, sx in terms:
        k = sx.degree
        for j in range(k + 1 if k else 0):
            small = singular_generator(sx.face(j))
            mu = _facet_label_dictionary(k, j)
            relabeled = Generator(small.cell, small.cmap, Tag.of_masks(
                small.tag.vertices, [(m, mu[label]) for m, label in small.tag.labels]))
            moved = transport_generator(relabeled, *_face_inclusion(k, j))
            rhs = rhs + chain((Fraction(coeff) * (-1) ** j, moved))
    return rhs


def test_bridge_rhs_matches_the_facet_inclusion_reference(monkeypatch):
    seen = 0
    for i in range(120):
        terms = random_singular_terms(Random(1000 + i))
        report, compared = _comparing(monkeypatch, check_singular_chain_map, terms)
        assert report.ok and len(compared) == 1
        (lhs, rhs), = compared
        ref = _bridged_boundary_reference(terms)
        assert _chain_rows(rhs) == _chain_rows(ref)
        seen += len(rhs.terms())
    assert seen >= 300


@settings(max_examples=60, deadline=None)
@given(st.integers(0, 4), st.sampled_from([euclid(1), euclid(2), torus(1)]), st.data())
def test_singular_face_is_the_product_by_the_inclusion_matrix(k, y, data):
    entries = st.fractions(min_value=-3, max_value=3, max_denominator=4)
    matrix = [[data.draw(entries) for _ in range(k + 1)] for _ in range(y.dim)]
    offset = [data.draw(entries) for _ in range(y.dim)]
    sx = SingularSimplex(k, y, matrix, offset)
    for j in range(k + 1):
        lin, _ = _face_inclusion(k, j)
        face = sx.face(j)
        assert face.degree == k - 1 and face.offset == sx.offset
        assert face.matrix == tuple(tuple(sum(row[r] * lin[r][t] for r in range(k + 1))
                                          for t in range(k))
                                    for row in sx.matrix)
    for j in (-1, k + 1):
        with pytest.raises(ChainError):
            sx.face(j)
