"""Cup, cap, identity, pullback, and duality over point and torus targets."""

import hashlib
from fractions import Fraction
from random import Random

import pytest

from cornercalc.cells import (
    Cell,
    CellMap,
    Coorientation,
    POINT,
    euclid,
    fibre_product_cells,
    kernel_coorientation,
    torus,
)
from cornercalc.chains import (
    Chain,
    Generator,
    Tag,
    TargetMap,
    boundary,
    chain,
    pushforward,
    verify_dd_zero,
)
from cornercalc.geometry import Polytope
from cornercalc.products import (
    ProductError,
    cap,
    check_cap_identity,
    check_cap_leibniz,
    check_cap_module,
    check_cup_associative,
    check_cup_identity,
    check_cup_leibniz,
    check_cup_supercommutative,
    check_dga,
    check_duality_chain_map,
    check_pullback_cup,
    check_pullback_d,
    check_pullback_functorial,
    cup,
    duality_KchToKh,
    homogeneous_degree,
    identity_cochain,
    identity_generator,
    projection_formula,
    pullback,
)
from cornercalc.randgen import (random_chain_over, random_cochain, random_target_map,
                                random_thick_cochain)
from test_chains import identity_target_map

P0 = Polytope.from_points(0, [[]])


def interval(a, b):
    return Polytope.from_points(1, [[a], [b]])


def numbered_tag(poly, prefix):
    faces = []
    for d in sorted(poly.faces()):
        faces.extend(poly.faces()[d])
    ordered = sorted(faces, key=lambda k: (len(k), k))
    return Tag(poly, {f: ((prefix, i),) for i, f in enumerate(ordered)})


def cover_cochain(m_row, prefix, target=None):
    """Point times a circle covering the target torus; grade 0."""
    y = target or torus(len(m_row[0]) if isinstance(m_row[0], list) else 1)
    cell = Cell(P0, len(m_row))
    cmap = CellMap(y, [() for _ in range(y.dim)], m_row, [0] * y.dim)
    return Generator(cell, cmap, Tag(P0, {((),): ((prefix, 0),)}),
                     coorientation=Coorientation((), 1))


def thick_cochain(y, prefix, a_rows=None):
    """Interval times the full torus projecting to the target; grade -1."""
    cell = Cell(interval(0, 1), y.dim)
    a = a_rows or [[0]] * y.dim
    eye = [[1 if i == j else 0 for j in range(y.dim)] for i in range(y.dim)]
    cmap = CellMap(y, a, eye, [0] * y.dim)
    co = kernel_coorientation(cell, cmap)
    return Generator(cell, cmap, numbered_tag(interval(0, 1), prefix),
                     coorientation=co)


def torus_chain(y, prefix):
    """The whole torus as an oriented chain over itself."""
    eye = [[1 if i == j else 0 for j in range(y.dim)] for i in range(y.dim)]
    cell = Cell(P0, y.dim)
    cmap = CellMap(y, [() for _ in range(y.dim)], eye, [0] * y.dim)
    return Generator(cell, cmap, Tag(P0, {((),): ((prefix, 0),)}))


def square_chain(y, prefix):
    sq = Polytope.from_points(2, [[0, 0], [1, 0], [0, 1], [1, 1]])
    cmap = CellMap(y, [[0, 0]] * y.dim,
                   [[1 if i == j else 0 for j in range(y.dim)]
                    for i in range(y.dim)],
                   [0] * y.dim)
    return Generator(Cell(sq, y.dim), cmap, numbered_tag(sq, prefix))


def test_identity_cochain_shape():
    for y in (POINT, torus(1), torus(2)):
        e = identity_cochain(y)
        (coeff, g), = e.terms()
        assert coeff == 1
        assert g.is_cochain
        assert g.grade == 0
        assert boundary(e).is_zero
    with pytest.raises(ProductError):
        identity_cochain(euclid(1))


def test_identity_is_a_unit_for_cup():
    t1 = torus(1)
    e = identity_cochain(t1)
    assert cup(e, e) == e
    for g in (cover_cochain([[2]], "c"), thick_cochain(t1, "a")):
        c = chain(g)
        assert cup(e, c) == c
        assert cup(c, e) == c
    t2 = torus(2)
    e2 = identity_cochain(t2)
    c = chain(thick_cochain(t2, "a"))
    assert cup(e2, c) == c and cup(c, e2) == c


def test_cup_bilinear_and_graded():
    t1 = torus(1)
    a = chain(cover_cochain([[2]], "a"))
    b = chain(thick_cochain(t1, "b"))
    assert cup(Chain(), a).is_zero
    assert cup(a.scale(3), b) == cup(a, b).scale(3)
    assert homogeneous_degree(cup(a, a)) == 0
    assert homogeneous_degree(cup(a, b)) == -1
    assert homogeneous_degree(cup(b, chain(thick_cochain(t1, "c", [[1]])))) == -2


def test_cup_of_circle_covers_counts_translates():
    # degree-2 and degree-3 covers of the circle fibre into 2 and 3 sheets
    a = chain(cover_cochain([[2]], "a"))
    b = chain(cover_cochain([[3]], "b"))
    assert sum(abs(c) for c, _ in cup(a, a).terms()) == 2
    assert sum(abs(c) for c, _ in cup(a, b).terms()) == 1
    assert sum(abs(c) for c, _ in cup(b, b).terms()) == 3


def test_cup_rejects_bad_operands():
    t1 = torus(1)
    with pytest.raises(ProductError):
        cup(chain(torus_chain(t1, "x")), identity_cochain(t1))
    with pytest.raises(ProductError):
        cup(identity_cochain(t1), identity_cochain(torus(2)))
    with pytest.raises(ProductError):
        cap(identity_cochain(t1), identity_cochain(t1))
    with pytest.raises(ProductError):
        cup(identity_cochain(t1), identity_cochain(t1, ring="Z"))


def test_supercommutative_even_case_is_plain_equality():
    a = chain(cover_cochain([[2]], "a"))
    b = chain(cover_cochain([[3]], "b"))
    assert cup(a, b) == cup(b, a)
    assert check_cup_supercommutative(a, b).ok


def test_supercommutative_odd_case_needs_the_sign():
    for y in (torus(1), torus(2)):
        a = chain(thick_cochain(y, "a"))
        b = chain(thick_cochain(y, "b", [[1]] + [[0]] * (y.dim - 1)))
        assert homogeneous_degree(a) == -1
        assert cup(a, b) != cup(b, a)
        assert check_cup_supercommutative(a, b).ok


def test_cup_leibniz_with_nonzero_differentials():
    t1 = torus(1)
    a = chain(thick_cochain(t1, "a"))
    b = chain(thick_cochain(t1, "b", [[1]]))
    assert not boundary(a).is_zero
    assert check_cup_leibniz(a, b).ok
    # the odd-degree sign is load-bearing: the unsigned sum differs
    k = homogeneous_degree(a)
    assert k == -1
    wrong = cup(boundary(a), b) + cup(a, boundary(b))
    assert boundary(cup(a, b)) != wrong


def test_cup_associative():
    t1 = torus(1)
    a = chain(cover_cochain([[2]], "a"))
    b = chain(thick_cochain(t1, "b"))
    c = chain(thick_cochain(t1, "c", [[1]]))
    assert check_cup_associative(a, b, c).ok
    assert check_cup_associative(b, c, a).ok


def test_check_dga_aggregate():
    t2 = torus(2)
    a = chain(thick_cochain(t2, "a"))
    b = chain(thick_cochain(t2, "b", [[1], [0]]))
    c = chain(thick_cochain(t2, "c", [[0], [1]]))
    rep = check_dga(a, b, c)
    assert rep.ok
    assert rep.details == ()
    assert check_cup_identity(a).ok


def test_cup_squares_respect_dd():
    t1 = torus(1)
    u = cup(chain(thick_cochain(t1, "a")), chain(thick_cochain(t1, "b", [[1]])))
    assert boundary(boundary(u)).is_zero


def test_cap_identity_law():
    t1 = torus(1)
    for g in (torus_chain(t1, "x"), square_chain(t1, "s")):
        c = chain(g)
        assert cap(c, identity_cochain(t1)) == c
    assert check_cap_identity(chain(torus_chain(torus(2), "x"))).ok


def test_cap_module_axiom():
    t1 = torus(1)
    alpha = chain(square_chain(t1, "s"))
    d1 = chain(thick_cochain(t1, "a"))
    d2 = chain(cover_cochain([[2]], "b"))
    assert check_cap_module(alpha, d1, d2).ok
    assert check_cap_module(alpha, d2, d1).ok
    assert check_cap_module(alpha, d1, chain(thick_cochain(t1, "c", [[1]]))).ok


def test_cap_leibniz_sign():
    t1 = torus(1)
    # the chain grade k = 1 is odd here, so the cochain term enters negated
    gamma = chain(Generator(Cell(interval(0, 1), 0), CellMap(t1, [[1]], [[]], [0]),
                            numbered_tag(interval(0, 1), "g")))
    delta = chain(thick_cochain(t1, "d"))
    assert homogeneous_degree(gamma) == 1
    assert not boundary(gamma).is_zero
    assert not boundary(delta).is_zero
    assert not cap(gamma, boundary(delta)).is_zero
    assert check_cap_leibniz(gamma, delta).ok
    wrong = cap(boundary(gamma), delta) + cap(gamma, boundary(delta))
    assert boundary(cap(gamma, delta)) != wrong
    # at k = 2 the sign is +1
    square = chain(Generator(Cell(interval(0, 1), 1), CellMap(t1, [[0]], [[1]], [0]),
                             numbered_tag(interval(0, 1), "s")))
    assert homogeneous_degree(square) == 2
    assert check_cap_leibniz(square, delta).ok
    assert boundary(cap(square, delta)) == (cap(boundary(square), delta)
                                            + cap(square, boundary(delta)))


def test_cap_results_satisfy_dd_zero():
    t1 = torus(1)
    out = cap(chain(square_chain(t1, "s")), chain(thick_cochain(t1, "d")))
    assert homogeneous_degree(out) == 4
    assert verify_dd_zero(out).ok


def test_pullback_along_identity():
    t1 = torus(1)
    c = chain(cover_cochain([[2]], "a"))
    assert pullback(identity_target_map(t1), c) == c


def test_pullback_preserves_the_unit():
    t1 = torus(1)
    h = TargetMap(t1, t1, [[2]], [0])
    assert pullback(h, identity_cochain(t1)) == identity_cochain(t1)


def test_pullback_of_cover_along_doubling():
    t1 = torus(1)
    h = TargetMap(t1, t1, [[2]], [0])
    pb = pullback(h, chain(cover_cochain([[2]], "a")))
    assert homogeneous_degree(pb) == 0
    assert sum(abs(c) for c, _ in pb.terms()) == 2


def test_pullback_functorial_and_chain_map():
    t1 = torus(1)
    h2 = TargetMap(t1, t1, [[2]], [0])
    h3 = TargetMap(t1, t1, [[3]], [Fraction(1, 2)])
    c = chain(cover_cochain([[2]], "a"))
    assert check_pullback_functorial(h2, h3, c).ok
    thick = chain(thick_cochain(t1, "t"))
    assert not boundary(thick).is_zero
    assert check_pullback_d(h2, thick).ok
    assert check_pullback_cup(h2, c, thick).ok


def test_pullback_along_a_map_from_the_point():
    t1 = torus(1)
    h1 = TargetMap(t1, t1, [[2]], [0])
    h2 = TargetMap(POINT, t1, [[]], [0])
    cover = chain(cover_cochain([[2]], "a"))
    for thick in (chain(thick_cochain(t1, "t")), random_thick_cochain(Random(0), t1, "r")):
        assert homogeneous_degree(pullback(h2, thick)) == -1
        assert check_pullback_functorial(h1, h2, thick).ok
        assert check_pullback_cup(h2, cover, thick).ok


def _target_map_draws(source, count):
    rng = Random(3)
    return [random_target_map(rng, source, torus(1)) for _ in range(count)]


@pytest.mark.parametrize("h", [
    pytest.param(TargetMap(POINT, torus(1), [[]], [0]), id="point"),
    *[pytest.param(h, id=f"T2-{i}")
      for i, h in enumerate(_target_map_draws(torus(2), 6))],
    *[pytest.param(h, id=f"T1-{i}") for i, h in enumerate(_target_map_draws(torus(1), 2))],
    *[pytest.param(h, id=f"T3-{i}") for i, h in enumerate(_target_map_draws(torus(3), 2))],
])
def test_pullback_commutes_with_d(h):
    thick = chain(thick_cochain(torus(1), "t"))
    assert check_pullback_d(h, thick).ok


def test_pullback_properness_over_euclid():
    e1 = euclid(1)
    squash = TargetMap(e1, e1, [[0]], [0])
    with pytest.raises(ProductError):
        pullback(squash, Chain())
    stretch = TargetMap(e1, e1, [[2]], [1])
    assert pullback(stretch, Chain()).is_zero


def test_projection_formula():
    t1 = torus(1)
    alpha = chain(square_chain(t1, "s"))
    beta = chain(cover_cochain([[2]], "b"))
    assert projection_formula(alpha, beta, identity_target_map(t1)).ok
    h = TargetMap(t1, t1, [[2]], [0])
    assert projection_formula(alpha, beta, h).ok
    assert projection_formula(chain(torus_chain(t1, "x")), beta, h).ok


def test_projection_formula_collapse_to_point():
    t1 = torus(1)
    collapse = TargetMap(t1, POINT, [[0]][:0], [])
    alpha = chain(square_chain(t1, "s"))
    beta = identity_cochain(POINT)
    assert projection_formula(alpha, beta, collapse).ok
    assert cap(pushforward(collapse, alpha), beta) == pushforward(collapse, alpha)


def test_duality_sends_identity_to_fundamental_chain():
    t1 = torus(1)
    image = duality_KchToKh(identity_cochain(t1))
    expected = chain(Generator(Cell(P0, 1), CellMap(t1, [()], [[1]], [0]),
                               Tag(P0, {((),): ()})))
    assert image == expected
    assert duality_KchToKh(identity_cochain(t1), -1) == expected.scale(-1)
    with pytest.raises(ProductError):
        duality_KchToKh(identity_cochain(t1), 2)


def test_duality_is_a_chain_map():
    t1 = torus(1)
    delta = chain(thick_cochain(t1, "a"))
    assert not boundary(delta).is_zero
    assert check_duality_chain_map(delta).ok
    assert check_duality_chain_map(chain(thick_cochain(torus(2), "b"))).ok


def test_duality_injective_on_canonical_forms():
    t1 = torus(1)
    family = [
        chain(cover_cochain([[1]], "a")),
        chain(cover_cochain([[2]], "a")),
        chain(cover_cochain([[1]], "b")),
        chain(thick_cochain(t1, "a")),
    ]
    images = [duality_KchToKh(c) for c in family]
    for i in range(len(family)):
        for j in range(i + 1, len(family)):
            assert images[i] != images[j]


def test_homogeneous_degree_rejects_mixed_grades():
    t1 = torus(1)
    mixed = chain(cover_cochain([[2]], "a")) + chain(thick_cochain(t1, "b"))
    with pytest.raises(ProductError):
        homogeneous_degree(mixed)


def test_identity_generator_matches_unit_of_cup():
    g = identity_generator(torus(2))
    assert g.grade == 0
    assert g.cell.torus_rank == 2
    assert chain(g) == identity_cochain(torus(2))


# Any drift in the fibre products behind cup and cap changes it: each
# component's cell (polytope, torus rank and orientation sign), projection
# map, transversality and orientability, for every generator pair that
# products._pair meets in a cup of two random cochains or a cap of a random
# chain by a random cochain, over T^1 and T^2.
GOLDEN_CUP_DIGEST = (
    "d7ef1882e00d5b5834947fde027f408ec7bb17a9fc6f25965cc256752682847e")


def test_cup_and_cap_components_golden_digest():
    h = hashlib.sha256()
    count = 0
    for y in (torus(1), torus(2)):
        for i in range(20):
            rng = Random(f"golden-cup/{y.dim}/{i}")
            first = (random_cochain(rng, y, ("a", 0)) if i % 3
                     else random_chain_over(rng, y, ("a", 0)))
            second = random_cochain(rng, y, ("b", 0))
            for _, g1 in first.terms():
                for _, g2 in second.terms():
                    for comp in fibre_product_cells(g1.cell, g1.cmap, g2.cell, g2.cmap):
                        count += 1
                        h.update(repr((comp.cell, comp.pmap, comp.transverse,
                                       comp.orientable)).encode())
    assert count == 97
    assert h.hexdigest() == GOLDEN_CUP_DIGEST
