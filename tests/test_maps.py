"""Mapped cells with s = 0: submersions, fibre products, and the four sign identities."""

from fractions import Fraction as F
from random import Random

import pytest
from hypothesis import given, settings, strategies as st

from cornercalc.cells import (
    POINT,
    Cell,
    CellMap,
    FibreProductError,
    constant_map,
    euclid,
    fibre_product_cells,
    is_interior_submersion,
    is_strong_submersion,
    torus,
)
from cornercalc.geometry import box, interval
from cornercalc.maps import (
    CheckReport,
    _compare_signed_families,
    check_associativity_cells,
    check_boundary_of_fibre_product_cells,
    check_interchange_cells,
    check_swap_sign_cells,
)
from cornercalc.randgen import associativity_instance, interchange_instance
from cornercalc.suites import run_suite

I = interval()
SQ = box([(0, 1), (0, 1)])


def amap(p, target, a, b):
    """The affine map x -> a x + b on the polytope p (no torus factor)."""
    return CellMap(target, a, [() for _ in range(target.dim)], b)


def const(p):
    return constant_map(POINT, p.ambient_dim, 0)


def test_submersion_examples():
    assert not is_strong_submersion(Cell(SQ), amap(SQ, euclid(1), [[1, 0]], [0]))
    assert not is_strong_submersion(Cell(SQ), amap(SQ, torus(1), [[1, 1]], [0]))
    assert not is_strong_submersion(Cell(SQ), amap(SQ, euclid(1), [[0, 1]], [0]))
    assert not is_strong_submersion(Cell(I), amap(I, torus(1), [[1]], [0]))
    assert is_strong_submersion(Cell(SQ), const(SQ))
    assert is_interior_submersion(Cell(SQ), amap(SQ, euclid(1), [[1, 0]], [0]))


def test_fibre_product_of_intervals_over_point():
    pieces = fibre_product_cells(Cell(I), const(I), Cell(I), const(I))
    assert len(pieces) == 1
    z = pieces[0]
    assert z.transverse and z.orientable and z.translate == ()
    assert z.cell.polytope.vertices == SQ.vertices
    assert z.cell.sign == 1
    coord = amap(I, euclid(1), [[1]], [0])
    assert z.compose_on_first(coord).value((F(1, 3), F(2, 3))) == (F(1, 3),)
    assert z.compose_on_second(coord).value((F(1, 3), F(2, 3))) == (F(2, 3),)


def test_fibre_product_euclid_overlap():
    a, b = interval(0, 2), interval(1, 3)
    ida = amap(a, euclid(1), [[1]], [0])
    idb = amap(b, euclid(1), [[1]], [0])
    pieces = fibre_product_cells(Cell(a), ida, Cell(b), idb)
    assert len(pieces) == 1
    assert pieces[0].cell.polytope.vertices == ((F(1), F(1)), (F(2), F(2)))
    assert pieces[0].pmap.value((F(3, 2), F(3, 2))) == (F(3, 2),)


def test_fibre_product_torus_translates():
    f = amap(I, torus(1), [[1]], [0])
    pieces = fibre_product_cells(Cell(I), f, Cell(I), f)
    # sorted by vertex set: diagonal, then the two corner points
    assert [p.translate for p in pieces] == [(0,), (-1,), (1,)]
    assert [len(p.cell.polytope.vertices) for p in pieces] == [2, 1, 1]
    assert [p.transverse for p in pieces] == [False, False, False]


def test_fibre_product_needs_common_target():
    with pytest.raises(FibreProductError):
        fibre_product_cells(Cell(I), const(I), Cell(I),
                            amap(I, euclid(1), [[1]], [0]))


def test_dimension_formula():
    sq = box([(0, 3), (0, 3)])
    x2 = interval(F(1, 2), F(5, 2))
    f = amap(sq, euclid(1), [[1, 0]], [0])
    g = amap(x2, euclid(1), [[1]], [0])
    pieces = fibre_product_cells(Cell(sq), f, Cell(x2), g)
    assert pieces and all(p.cell.polytope.dim == 2 + 1 - 1 for p in pieces)


def test_boundary_of_fibre_product_over_point():
    rep = check_boundary_of_fibre_product_cells(Cell(I), const(I), Cell(I), const(I))
    assert rep.ok and rep.precondition and rep.checked == 4
    pt = box([])
    rep = check_boundary_of_fibre_product_cells(Cell(I), const(I), Cell(pt), const(pt))
    assert rep.ok and rep.checked == 2


def test_boundary_of_fibre_product_euclid():
    a, b = interval(0, 2), interval(1, 3)
    rep = check_boundary_of_fibre_product_cells(
        Cell(a), amap(a, euclid(1), [[1]], [0]),
        Cell(b), amap(b, euclid(1), [[1]], [0]))
    assert rep.ok

    sq = box([(0, 1), (0, 1)])
    x2 = interval(F(1, 4), F(1, 2))
    rep = check_boundary_of_fibre_product_cells(
        Cell(sq), amap(sq, euclid(1), [[1, 0]], [0]),
        Cell(x2), amap(x2, euclid(1), [[1]], [0]))
    assert rep.ok and rep.precondition


def test_boundary_of_fibre_product_torus():
    a, b = interval(0, 1), interval(F(1, 8), F(3, 8))
    rep = check_boundary_of_fibre_product_cells(
        Cell(a), amap(a, torus(1), [[1]], [0]),
        Cell(b), amap(b, torus(1), [[1]], [0]))
    assert rep.ok


def test_boundary_precondition_fails_on_degenerate_overlap():
    # shared endpoint values put facet pairs over one target value
    rep = check_boundary_of_fibre_product_cells(
        Cell(I), amap(I, euclid(1), [[1]], [0]),
        Cell(I), amap(I, euclid(1), [[1]], [0]))
    assert not rep.precondition


def test_swap_sign():
    rep = check_swap_sign_cells(Cell(I), const(I), Cell(I), const(I))
    assert rep.ok and rep.checked == 1

    pt = box([])
    rep = check_swap_sign_cells(Cell(I), const(I), Cell(pt), const(pt))
    assert rep.ok

    sq = box([(0, 1), (0, 1)])
    x2 = interval(F(1, 4), F(1, 2))
    rep = check_swap_sign_cells(
        Cell(sq), amap(sq, euclid(1), [[1, 0]], [0]),
        Cell(x2), amap(x2, euclid(1), [[1]], [0]))
    assert rep.ok

    a, b = interval(0, 1), interval(F(1, 8), F(3, 8))
    rep = check_swap_sign_cells(
        Cell(a), amap(a, torus(1), [[1]], [0]),
        Cell(b), amap(b, torus(1), [[1]], [0]))
    assert rep.ok


def test_associativity_over_point():
    cp = const(I)
    rep = check_associativity_cells(Cell(I), cp, Cell(I), cp, cp, Cell(I), cp)
    assert rep.ok and rep.precondition


def test_associativity_euclid():
    x1 = interval(0, 3)
    x2 = box([(-1, 4), (-3, 6)])
    x3 = interval(-1, 2)
    rep = check_associativity_cells(
        Cell(x1), amap(x1, euclid(1), [[1]], [0]),
        Cell(x2), amap(x2, euclid(1), [[1, 0]], [0]),
        amap(x2, euclid(1), [[0, 1]], [0]),
        Cell(x3), amap(x3, euclid(1), [[2]], [1]))
    assert rep.ok and rep.precondition


def test_associativity_torus_translates():
    a = interval(0, 1)
    b = box([(F(1, 8), F(9, 8)), (F(1, 16), F(13, 16))])
    c = interval(F(1, 5), F(4, 5))
    rep = check_associativity_cells(
        Cell(a), amap(a, torus(1), [[1]], [0]),
        Cell(b), amap(b, torus(1), [[1, 0]], [0]),
        amap(b, torus(1), [[0, 1]], [0]),
        Cell(c), amap(c, torus(1), [[1]], [0]))
    assert rep.ok and rep.checked >= 2


def test_line_line_instances_with_large_face_lattices():
    """Seeded line x line instances whose fibre-product components have large
    face lattices: both identities hold, in about a second each."""
    inst = associativity_instance(Random("fibre-identities/associativity/line-line/4"),
                                  euclid(1), euclid(1))
    assert check_associativity_cells(*inst).ok
    inst = interchange_instance(Random("fibre-identities/interchange/line-line/1"),
                                euclid(1), euclid(1))
    assert check_interchange_cells(*inst).ok


def test_interchange():
    x2 = interval(-1, 2)
    rep = check_interchange_cells(
        Cell(I), amap(I, euclid(1), [[1]], [0]), const(I),
        Cell(x2), amap(x2, euclid(1), [[1]], [0]),
        Cell(I), const(I))
    assert rep.ok

    x1 = box([(0, 2), (0, 2)])
    x2 = interval(F(1, 3), F(5, 3))
    x3 = interval(F(1, 7), F(9, 7))
    rep = check_interchange_cells(
        Cell(x1), amap(x1, euclid(1), [[1, 0]], [0]),
        amap(x1, euclid(1), [[0, 1]], [0]),
        Cell(x2), amap(x2, euclid(1), [[1]], [0]),
        Cell(x3), amap(x3, euclid(1), [[1]], [0]))
    assert rep.ok


rationals = st.fractions(min_value=-4, max_value=4, max_denominator=8)


@st.composite
def generic_interval_pair(draw):
    vals = draw(st.lists(rationals, min_size=4, max_size=4, unique=True))
    a, b = sorted(vals[:2])
    c, d = sorted(vals[2:])
    return interval(a, b), interval(c, d)


@settings(max_examples=25, deadline=None)
@given(generic_interval_pair())
def test_random_interval_identities(pair):
    x1, x2 = pair
    f1 = amap(x1, euclid(1), [[1]], [0])
    f2 = amap(x2, euclid(1), [[1]], [0])
    rep = check_boundary_of_fibre_product_cells(Cell(x1), f1, Cell(x2), f2)
    assert rep.ok
    rep = check_swap_sign_cells(Cell(x1), f1, Cell(x2), f2)
    assert rep.ok


@settings(max_examples=25, deadline=None)
@given(generic_interval_pair(), st.fractions(min_value=1, max_value=3, max_denominator=4))
def test_random_box_interval_identities(pair, height):
    x_range, x2 = pair
    x1 = box([(x_range.vertices[0][0], x_range.vertices[-1][0]), (0, height)])
    f1 = amap(x1, euclid(1), [[1, 0]], [0])
    f2 = amap(x2, euclid(1), [[1]], [0])
    rep = check_boundary_of_fibre_product_cells(Cell(x1), f1, Cell(x2), f2)
    assert rep.ok
    rep = check_swap_sign_cells(Cell(x1), f1, Cell(x2), f2)
    assert rep.ok


# ---------------------------------------------------------------------------
# torus blocks in the exchange
# ---------------------------------------------------------------------------

def _pt_cell(rank, ambient=0, sign=1):
    from cornercalc.geometry import Polytope
    pts = [[0] * ambient] if ambient else [[]]
    return Cell(Polytope.from_points(ambient, pts), rank, None, sign)


def test_swap_sign_anonymous_circle_blocks():
    # over the point the exchange swaps the two circle factors themselves,
    # a reversal no chart datum records; the transposition determinant
    # enters the predicted sign instead
    pm = CellMap(POINT, (), (), ())
    rep = check_swap_sign_cells(_pt_cell(1), pm, _pt_cell(1, 2, -1), pm)
    assert rep.precondition and rep.ok
    rep = check_swap_sign_cells(_pt_cell(1), pm, _pt_cell(2), pm)
    assert rep.precondition and rep.ok


def test_swap_sign_wound_rank_two():
    # the surviving circle mixes both wound blocks
    m1 = CellMap(torus(1), [()], [[1]], [0])
    m2 = CellMap(torus(1), [()], [[1, 1]], [0])
    rep = check_swap_sign_cells(_pt_cell(1), m1, _pt_cell(2), m2)
    assert rep.precondition and rep.ok and rep.checked >= 1
    rep = check_swap_sign_cells(_pt_cell(1), m1, _pt_cell(2, sign=-1), m2)
    assert rep.precondition and rep.ok and rep.checked >= 1
    # (dim X1 - 1)(dim X2 - 1) = 0 and the blocks are wound: the sign is +1
    fwd = fibre_product_cells(_pt_cell(1), m1, _pt_cell(2), m2)
    bwd = fibre_product_cells(_pt_cell(2), m2, _pt_cell(1), m1)
    lhs = [(c.cell, c.pmap) for c in fwd]
    rhs = [(c.cell, c.pmap) for c in bwd]
    assert _compare_signed_families(lhs, rhs, 1).ok
    rep = _compare_signed_families(lhs, rhs, -1)
    assert rep == CheckReport(False, 0, details=("orientation sign mismatch",))


def test_associativity_wound_rank_two():
    pm = CellMap(POINT, (), (), ())
    m2b = CellMap(torus(1), [()], [[1, 0]], [0])
    m3 = CellMap(torus(1), [()], [[1]], [0])
    rep = check_associativity_cells(_pt_cell(1), pm,
                                    _pt_cell(2), pm, m2b,
                                    _pt_cell(1), m3)
    assert rep.precondition and rep.ok and rep.checked >= 1


def test_swap_suite_over_the_circle():
    # seed 0 draws wound circles whose two sides' charts differ by a
    # non-integral rational shear, which an integer-shear reduction keeps apart
    result = run_suite("swap", seed=0, count=200)
    circle = [r for r in result.records if r.name.endswith("over the circle")]
    assert len(circle) == 1
    assert circle[0].ok, circle[0].details


def test_compare_signed_families_counts_multiplicity():
    """Families are multisets: repeated components compare by their count."""
    twice = [(Cell(I), const(I)), (Cell(I), const(I))]
    rep = _compare_signed_families(twice, twice, 1)
    assert rep.ok and rep.checked == 2
    mixed = [(Cell(I), const(I)), (Cell(I).reversed(), const(I))]
    assert _compare_signed_families(mixed, mixed, 1).ok
    assert _compare_signed_families(mixed, mixed, -1).ok
    rep = _compare_signed_families(twice, twice[:1], 1)
    assert rep == CheckReport(False, 0, details=("component sets differ",))
    rep = _compare_signed_families(twice, twice, -1)
    assert rep == CheckReport(False, 0, details=("orientation sign mismatch",))
