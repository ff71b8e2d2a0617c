"""The affine-map layer: wrapping values, composing maps, checking entries.

Pushing a chain, pulling a cochain back and composing two maps of targets
are one composition (TargetMap.after and compose); the references below
are the matrix products each of them used to write out by hand.
"""

import math
from fractions import Fraction
from random import Random

import pytest
from hypothesis import given, settings, strategies as st

from cornercalc.cells import (POINT, Cell, CellMap, euclid, fibre_product_cells, identity_map,
                              maps_agree, torus)
from cornercalc.chains import (
    Chain,
    ChainError,
    Generator,
    SingularSimplex,
    TargetMap,
    numbered_tag,
    pair_tags,
    push_generator,
    pushforward,
)
from cornercalc.geometry import POINT_POLYTOPE, box
from cornercalc.products import identity_generator, pullback
from cornercalc.randgen import random_cochain

_rationals = st.fractions(min_value=-3, max_value=3, max_denominator=6)
_small_ints = st.integers(-2, 2)


def _reference_after(h, f, n, s):
    """h after f by the products push_generator wrote out."""
    m_old = h.source.dim
    a = [[sum(h.matrix[i][k] * f.a[k][j] for k in range(m_old)) for j in range(n)]
         for i in range(h.target.dim)]
    mt = [[sum(int(h.matrix[i][k]) * int(f.m_t[k][j]) for k in range(m_old)) for j in range(s)]
          for i in range(h.target.dim)]
    b = [h.offset[i] + sum(h.matrix[i][k] * f.b[k] for k in range(m_old))
         for i in range(h.target.dim)]
    return CellMap(h.target, a, mt, b)


def _reference_compose(h, g):
    """(matrix, offset) of h after g by the products compose wrote out."""
    mm = [[sum(h.matrix[i][k] * g.matrix[k][j] for k in range(h.source.dim))
           for j in range(g.source.dim)] for i in range(h.target.dim)]
    bb = [h.offset[i] + sum(h.matrix[i][k] * g.offset[k] for k in range(h.source.dim))
          for i in range(h.target.dim)]
    return TargetMap(g.source, h.target, mm, bb)


def _reference_pullback_map(h):
    """The map pullback built from the unit generator's cell."""
    return CellMap(h.target, [() for _ in range(h.target.dim)],
                   [[int(x) for x in row] for row in h.matrix], h.offset)


def _reference_pullback(h, delta):
    """pullback over a compact source, with its own cell, map and identity."""
    unit = identity_generator(h.source)
    cell_h = Cell(POINT_POLYTOPE, h.source.dim)
    map_h = _reference_pullback_map(h)
    id_map = identity_map(h.source)
    terms = []
    for coeff, g in delta.terms():
        for comp in fibre_product_cells(cell_h, map_h, g.cell, g.cmap):
            assert comp.transverse
            terms.append((coeff, Generator(comp.cell, comp.compose_on_first(id_map),
                                           pair_tags(unit.tag, g.tag, comp), is_cochain=True)))
    return Chain(terms, ring=delta.ring)


def _same(x, y):
    """Equal entry for entry, ints and Fractions told apart."""
    return repr(x) == repr(y)


def _targets(draw, kinds):
    kind = draw(st.sampled_from(kinds))
    return POINT if kind == "point" else (euclid if kind == "euclid" else torus)(
        draw(st.integers(1, 3)))


@st.composite
def target_maps(draw, source=None, target=None):
    """A TargetMap under the torus rules: an integer matrix between tori, zero
    from a torus to a euclidean space, rational otherwise."""
    source = source or _targets(draw, ("point", "euclid", "torus"))
    target = target or _targets(draw, ("point", "euclid", "torus"))
    if source.is_torus and not target.is_torus:
        entries = st.just(0)
    else:
        entries = _small_ints if source.is_torus else _rationals
    matrix = [[draw(entries) for _ in range(source.dim)] for _ in range(target.dim)]
    return TargetMap(source, target, matrix, [draw(_rationals) for _ in range(target.dim)])


@st.composite
def mapped_cells(draw):
    """(h, f, n, s): a target map h and a cell map f into its source, on a cell
    of ambient dimension n and torus rank s."""
    h = draw(target_maps())
    y = h.source
    n, s = draw(st.integers(0, 3)), draw(st.integers(0, 2))
    a = [[draw(_rationals) for _ in range(n)] for _ in range(y.dim)]
    torus_entries = _small_ints if y.is_torus else st.just(0)
    mt = [[draw(torus_entries) for _ in range(s)] for _ in range(y.dim)]
    return h, CellMap(y, a, mt, [draw(_rationals) for _ in range(y.dim)]), n, s


@settings(max_examples=200, deadline=None)
@given(mapped_cells())
def test_after_and_push_match_the_written_out_products(case):
    h, f, n, s = case
    ref = _reference_after(h, f, n, s)
    assert _same(h.after(f, n, s), ref)
    poly = box([(0, 1)] * n) if n else POINT_POLYTOPE
    gen = Generator(Cell(poly, s), f, numbered_tag(poly, "g"))
    pushed = push_generator(h, gen)
    assert _same(pushed.cmap, ref)
    assert (pushed.cell, pushed.tag, pushed.is_cochain) == (gen.cell, gen.tag, False)


@settings(max_examples=200, deadline=None)
@given(st.data())
def test_compose_and_the_pullback_map_match_the_written_out_products(data):
    h = data.draw(target_maps())
    g = data.draw(target_maps(target=h.source))
    assert _same(h.compose(g), _reference_compose(h, g))
    if h.source.compact:
        unit = identity_generator(h.source)
        assert _same(h.after(unit.cmap, 0, h.source.dim), _reference_pullback_map(h))


@settings(max_examples=25, deadline=None)
@given(st.data())
def test_pullback_matches_the_written_out_pullback(data):
    y = torus(data.draw(st.integers(1, 2)))
    h = data.draw(target_maps(source=_targets(data.draw, ("point", "torus")), target=y))
    delta = random_cochain(Random(data.draw(st.integers(0, 10 ** 6))), y, "d")
    assert pullback(h, delta) == _reference_pullback(h, delta)


@settings(max_examples=300, deadline=None)
@given(st.lists(st.fractions(min_value=-20, max_value=20, max_denominator=12), max_size=4))
def test_wrap_is_x_minus_its_floor(v):
    v = tuple(v)
    assert torus(max(len(v), 1)).wrap(v) == tuple(x - math.floor(x) for x in v)
    assert all(0 <= x < 1 for x in torus(1).wrap(v))
    assert euclid(1).wrap(v) is v and POINT.wrap(v) is v


@pytest.mark.parametrize("offset, on_line, on_circle", [
    (0, True, True),
    (1, False, True),          # constant and integral: a period of the circle
    (-3, False, True),
    (Fraction(1, 2), False, False),
    (Fraction(7, 3), False, False),
])
def test_maps_agree_on_constant_differences(offset, on_line, on_circle):
    # f(x) = x + 1/3 and g(x) = x + 1/3 + offset on the segment [0, 1]
    pairs = [((Fraction(0),), (Fraction(0),)), ((Fraction(1),), (Fraction(1),))]
    results = []
    for y in (POINT, euclid(1), torus(1)):
        m = y.dim
        f = CellMap(y, [[1]] * m, [[]] * m, [Fraction(1, 3)] * m)
        g = CellMap(y, [[1]] * m, [[]] * m, [Fraction(1, 3) + offset] * m)
        results.append(maps_agree(f, g, pairs))
    assert results == [True, on_line, on_circle]


def test_maps_agree_needs_equal_differences():
    # f(x) = 2x and g(x) = 0 differ by 0 at x = 0 and by 2 at x = 1: both
    # integral, but f(1/4) = 1/2 is not g(1/4) on the circle
    pairs = [((Fraction(0),), (Fraction(0),)), ((Fraction(1),), (Fraction(1),))]
    for y in (euclid(1), torus(1)):
        assert not maps_agree(CellMap(y, [[2]], [[]], [0]), CellMap(y, [[0]], [[]], [0]), pairs)
    # matched points may differ: g(w) = f(v) at w = v + 1 for g(x) = f(x - 1)
    f, g = CellMap(torus(1), [[1]], [[]], [0]), CellMap(torus(1), [[1]], [[]], [-1])
    assert maps_agree(f, g, [((Fraction(0),), (Fraction(1),)), ((Fraction(1),), (Fraction(2),))])
    # the torus columns must coincide, over a point too
    assert not maps_agree(CellMap(torus(1), [[0]], [[1]], [0]),
                          CellMap(torus(1), [[0]], [[2]], [0]), pairs)
    assert maps_agree(CellMap(POINT, [], [], []), CellMap(POINT, [], [], []), pairs)


def test_integral_fraction_matrices_push_and_pull_as_ints():
    t1, t2 = torus(1), torus(2)
    as_ints = TargetMap(t2, t1, [[2, -1]], [Fraction(1, 3)])
    as_fractions = TargetMap(t2, t1, [[Fraction(4, 2), "-3/3"]], ["1/3"])
    iv = box([(0, 1)])
    gen = Generator(Cell(iv, 1), CellMap(t2, [[1], [Fraction(1, 2)]], [[1], [3]], [0, 0]),
                    numbered_tag(iv, "g"))
    pushed = push_generator(as_fractions, gen)
    assert _same(pushed.cmap, push_generator(as_ints, gen).cmap)
    assert pushed.cmap.m_t == ((-1,),) and type(pushed.cmap.m_t[0][0]) is int
    assert not pushforward(as_fractions, Chain([(1, gen)])).is_zero
    assert pushforward(as_fractions, Chain([(1, gen)])) == pushforward(as_ints, Chain([(1, gen)]))
    rng = Random(5)
    delta = random_cochain(rng, t1, "d")
    assert pullback(as_fractions, delta) == pullback(as_ints, delta)
    unit = identity_generator(t2)
    assert _same(as_fractions.after(unit.cmap, 0, 2), as_ints.after(unit.cmap, 0, 2))


@pytest.mark.parametrize("build, message", [
    (lambda: TargetMap(euclid(2), euclid(1), [[1, 0], [0, 1]], [0]),
     "affine map rows must match the target dimension"),
    (lambda: TargetMap(euclid(2), euclid(1), [[1, 0, 0]], [0]),
     "affine map rows need 2 columns"),
    (lambda: SingularSimplex(1, euclid(2), [[1, 0]], [0, 0]),
     "affine map rows must match the target dimension"),
    (lambda: SingularSimplex(2, euclid(1), [[1, 0]], [0]),
     "affine map rows need 3 columns"),
], ids=["target-map-rows", "target-map-columns", "simplex-rows", "simplex-columns"])
def test_affine_entries_refuse_wrong_shapes(build, message):
    with pytest.raises(ChainError, match=f"^{message}$"):
        build()


def test_push_and_compose_refuse_mismatched_targets():
    h = TargetMap(torus(1), torus(1), [[2]], [0])
    with pytest.raises(ChainError, match="^composition needs matching targets$"):
        h.compose(TargetMap(POINT, euclid(1), [()], [0]))
    iv = box([(0, 1)])
    gen = Generator(Cell(iv, 0), CellMap(euclid(1), [[1]], [[]], [0]), numbered_tag(iv, "g"))
    with pytest.raises(ChainError, match="^generator target does not match the map source$"):
        push_generator(h, gen)
