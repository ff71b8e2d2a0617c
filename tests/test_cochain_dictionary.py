"""A cochain generator, and a cooriented bordism component, stores the
orientation its coorientation gives by TX = f*(TY) + Ker df.  The references
below are the formulas of the cochains that carried a frame of Ker df
instead: the facet restriction through the dictionary and back, the cup
coorientation read as a frame of the fibre product, and the bordism key of
the dictionary orientation."""

from fractions import Fraction as F
from random import Random

from hypothesis import assume, given, settings, strategies as st

import pytest

from cornercalc._linalg import canonical_frame, change_of_basis_det, det, mat
from cornercalc.bordism import BordismComponent, BordismError
from cornercalc.cells import (
    Cell,
    CellMap,
    Coorientation,
    canonical_form,
    cell_boundary,
    constant_map,
    fibre_product_cells,
    is_strong_submersion,
    kernel_coorientation,
    orientation_from_coorientation,
    torus,
    validate_coorientation,
)
from cornercalc.chains import Chain, Generator, generator_boundary, numbered_tag, pair_tags
from cornercalc.geometry import POINT_POLYTOPE, Polytope
from cornercalc.products import cup
from cornercalc.randgen import random_cochain
from test_cells import _kernel_and_lifts, _orientation_against, _sign, wound_cell

_entry = st.integers(-2, 2)


def _invertible(draw, m):
    rows = [[draw(_entry) for _ in range(m)] for _ in range(m)]
    assume(det(mat(rows)) != 0)
    return rows


@st.composite
def cooriented_cell(draw):
    """A cell and a map that submerges on every face, over T^1 to T^3: a wound
    lattice cell, a polytope times the full torus, or a cover of the torus."""
    kind = draw(st.sampled_from(("wound", "thick", "cover")))
    if kind == "wound":
        cell, cmap = draw(wound_cell())
        assume(is_strong_submersion(cell, cmap))
        return cell, cmap
    m = draw(st.integers(1, 3))
    b = [F(draw(st.integers(0, 3)), 4) for _ in range(m)]
    m_t = _invertible(draw, m)
    if kind == "cover":
        return Cell(POINT_POLYTOPE, m), CellMap(torus(m), [() for _ in range(m)], m_t, b)
    n = draw(st.integers(1, 2))
    pts = draw(st.lists(st.tuples(*[_entry] * n), min_size=2, max_size=n + 3, unique=True))
    p = Polytope.from_points(n, [list(x) for x in pts])
    a = [[draw(_entry) for _ in range(n)] for _ in range(m)]
    return Cell(p, m, None, draw(st.sampled_from((1, -1)))), CellMap(torus(m), a, m_t, b)


def _some_coorientation(data, cell, cmap):
    """Any frame of Ker df, an invertible recombination of the kernel basis,
    with either sign."""
    kernel = kernel_coorientation(cell, cmap).frame
    c = _invertible(data.draw, len(kernel)) if kernel else []
    frame = [tuple(sum(c[i][j] * kernel[j][k] for j in range(len(kernel)))
                   for k in range(cell.ambient)) for i in range(len(kernel))]
    return Coorientation(frame, data.draw(st.sampled_from((1, -1))))


def _oriented_kernel(co):
    """The span of a coorientation's frame and its orientation: the canonical
    basis and the sign against it."""
    basis, sign = canonical_frame(co.frame)
    return basis, sign * co.sign


def _reference_facet_coorientations(cell, cmap, co):
    """(boundary component, coorientation) per facet, as the frame-carrying
    cochains restricted them: orient the cell by the dictionary, take the
    boundary orientation (outward normal first), and read the coorientation
    back on the facet."""
    plain = Cell(cell.polytope, cell.torus_rank)
    oriented = orientation_from_coorientation(plain, cmap, co)
    out = []
    for bc in cell_boundary(plain):
        sign = bc.cell.sign * plain.sign * oriented.sign
        facet = Cell(bc.cell.polytope, bc.cell.torus_rank, sign=sign)
        out.append((bc, kernel_coorientation(facet, cmap)))
    return out


def _reference_cup(c1, c2):
    """Each fibre-product component oriented by the dictionary orientation of
    the cup coorientation, built without the library's kernels or lifts: with
    X_i oriented by eps_i (lifts of TY, Ker df_i), the frame (lifts of TY,
    Ker df1, Ker df2) of T(Z) with the sign eps1 * eps2."""
    terms = []
    for a1, g1 in c1.terms():
        for a2, g2 in c2.terms():
            k1, l1 = _kernel_and_lifts(g1.cell, g1.cmap)
            k2, l2 = _kernel_and_lifts(g2.cell, g2.cmap)
            e1 = _sign(change_of_basis_det(l1 + k1, g1.cell.frame)) * g1.cell.sign
            e2 = _sign(change_of_basis_det(l2 + k2, g2.cell.frame)) * g2.cell.sign
            zero1, zero2 = (F(0),) * g1.cell.ambient, (F(0),) * g2.cell.ambient
            frame = ([u + w for u, w in zip(l1, l2)] + [k + zero2 for k in k1]
                     + [zero1 + k for k in k2])
            for comp in fibre_product_cells(g1.cell, g1.cmap, g2.cell, g2.cmap):
                assert comp.transverse and comp.orientable
                sign = comp.cell.sign * _orientation_against(comp, frame) * e1 * e2
                oriented = Cell(comp.cell.polytope, comp.cell.torus_rank, None, sign)
                terms.append((a1 * a2, Generator(oriented, comp.pmap,
                                                 pair_tags(g1.tag, g2.tag, comp),
                                                 is_cochain=True)))
    return Chain(terms, ring=c1.ring)


@settings(max_examples=100, deadline=None)
@given(cooriented_cell(), st.data())
def test_generator_reads_back_its_coorientation(cell_data, data):
    cell, cmap = cell_data
    co = _some_coorientation(data, cell, cmap)
    g = Generator(cell, cmap, numbered_tag(cell.polytope), coorientation=co)
    back = g.coorientation
    assert g.is_cochain and g.grade == cmap.target.dim - cell.dim
    assert back is g.coorientation
    validate_coorientation(g.cell, g.cmap, back)
    assert _oriented_kernel(back) == _oriented_kernel(co)
    assert _oriented_kernel(g.reversed().coorientation) == _oriented_kernel(co.reversed())


@settings(max_examples=100, deadline=None)
@given(cooriented_cell(), st.data())
def test_cochain_facets_follow_the_restriction_through_the_dictionary(cell_data, data):
    cell, cmap = cell_data
    co = _some_coorientation(data, cell, cmap)
    tag = numbered_tag(cell.polytope)
    terms = generator_boundary(Generator(cell, cmap, tag, coorientation=co))
    expected = _reference_facet_coorientations(cell, cmap, co)
    assert len(terms) == len(expected)
    for (coeff, sub), ((bc, rco), mask) in zip(terms, zip(expected,
                                                          cell.polytope._fd.facet_masks)):
        assert coeff == 1 and sub.is_cochain
        assert sub.cell.polytope == bc.cell.polytope and sub.cmap == cmap
        assert sub.tag == tag.restrict(mask)
        assert _oriented_kernel(sub.coorientation) == _oriented_kernel(rco)


@settings(max_examples=25, deadline=None)
@given(st.integers(0, 10 ** 6), st.sampled_from((1, 2)))
def test_cup_is_the_cup_coorientation(seed, m):
    rng, y = Random(seed), torus(m)
    c1, c2 = random_cochain(rng, y, "a"), random_cochain(rng, y, "b")
    product = cup(c1, c2)
    assert product == _reference_cup(c1, c2)
    assert all(g.is_cochain for _, g in product.terms())


@settings(max_examples=100, deadline=None)
@given(cooriented_cell(), st.data())
def test_bordism_component_keys_its_dictionary_orientation(cell_data, data):
    cell, cmap = cell_data
    co = _some_coorientation(data, cell, cmap)
    comp = BordismComponent(cell, cmap, co)
    key, sign, _, _ = canonical_form(orientation_from_coorientation(cell, cmap, co), cmap)
    assert comp.canonical_term() == (key + (True,), sign)
    assert comp.cooriented and comp.grade == cmap.target.dim - cell.dim


def test_cooriented_component_needs_a_submersion():
    point = Cell(POINT_POLYTOPE, 0)
    with pytest.raises(BordismError, match="submersion"):
        BordismComponent(point, constant_map(torus(1), 0, 0), cooriented=True)
    circle = Cell(POINT_POLYTOPE, 1)
    with pytest.raises(BordismError, match="submersion"):
        BordismComponent(circle, CellMap(torus(1), [()], [[0]], [0]), cooriented=True)
