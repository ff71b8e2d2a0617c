"""Cell layer: targets, oriented cells with torus factors, coorientations, fibre products."""

import hashlib
import importlib
import itertools
import math
from collections import Counter
from fractions import Fraction as F
from random import Random

import pytest
from hypothesis import assume, given, settings, strategies as st

from cornercalc._linalg import (canonical_frame, change_of_basis_det, det,
                                hermite_column, integer_matrix_inverse, kernel_basis,
                                mat, rank, rref, solve, transpose)
from cornercalc.cells import (
    POINT,
    Cell,
    CellMap,
    Coorientation,
    FibreProductError,
    MapError,
    Target,
    _differential_vec,
    _pivots_of,
    _slice_polytope,
    canonical_cell_map,
    canonical_form,
    canonical_key,
    cell_boundary,
    cell_orientation_equal,
    constant_map,
    default_frame,
    euclid,
    fibre_product_cells,
    first_factor_kernel,
    has_free_circle,
    is_interior_submersion,
    is_strong_submersion,
    kernel_coorientation,
    orientation_from_coorientation,
    permute_cell_coords,
    torus,
    validate_coorientation,
)
from cornercalc.chains import Generator, _normal_form, generator_boundary, numbered_tag
from cornercalc.geometry import POINT_POLYTOPE, GeometryError, Polytope, box, interval
from cornercalc.randgen import (associativity_instance, fibre_instance, random_cell,
                                random_map, submersive_cell)
from test_geometry import embedded_lattice_hull, placed_rational_hull


def test_target_products():
    assert euclid(1).product(euclid(2)) == euclid(3)
    assert torus(2).product(torus(1)) == torus(3)
    assert POINT.product(euclid(2)) == euclid(2)
    assert torus(1).product(POINT) == torus(1)
    assert POINT.product(POINT) == POINT
    assert torus(2).compact and POINT.compact and not euclid(1).compact
    with pytest.raises(ValueError):
        euclid(1).product(torus(1))


def test_cell_dimensions_and_frames():
    c = Cell(box([(0, 1), (0, 1)]), 1)
    assert c.dim == 3 and c.ambient == 3
    assert len(c.frame) == 3
    assert c.reversed().sign == -c.sign
    assert cell_orientation_equal(c, c.reversed()) == -1
    # frame vectors must lie in the tangent span of the polytope part
    with pytest.raises(ValueError):
        Cell(interval(), 0, [(1, 0)])


def test_cell_map_values():
    m = CellMap(torus(1), [[F(1, 2)]], [[]], [F(3, 4)])
    assert m.value((F(3, 2),)) == (F(1, 2),)
    e = CellMap(euclid(2), [[1, 0], [0, 2]], [[], []], [1, 0])
    assert e.value((3, 5)) == (4, 10)
    cm = constant_map(POINT, 2, 0)
    assert cm.value((7, 9)) == ()
    # a circle coordinate feeding a torus target, reduced mod 1
    t = CellMap(torus(1), [[]], [[2]], [0])
    assert t.value((), (F(3, 4),)) == (F(1, 2),)


def test_cell_map_shape_validation():
    with pytest.raises(MapError):
        CellMap(torus(1), [], [[1]], [0])  # needs one row, even of width zero
    CellMap(torus(1), [[]], [[1]], [0])  # the point-source form


def test_submersion_flavours():
    sq = box([(0, 1), (0, 1)])
    px = CellMap(euclid(1), [[1, 0]], [[]], [0])
    assert is_interior_submersion(Cell(sq), px)
    assert not is_strong_submersion(Cell(sq), px)
    assert is_strong_submersion(Cell(sq), constant_map(POINT, 2, 0))
    it = CellMap(torus(1), [[1]], [[]], [0])
    assert is_interior_submersion(Cell(interval()), it)
    assert not is_strong_submersion(Cell(interval()), it)
    # torus factors survive to every face, so a circle projection is strong
    cyl = Cell(interval(), 1)
    ct = CellMap(torus(1), [[0]], [[1]], [0])
    assert is_strong_submersion(cyl, ct)
    # on a square times T^2 the torus columns decide, whatever the polytope part does
    sq_t2 = Cell(sq, 2)
    assert is_strong_submersion(sq_t2, CellMap(torus(2), [[1, 0], [0, 1]], [[1, 1], [0, 1]], [0, 0]))
    assert not is_strong_submersion(sq_t2, CellMap(torus(2), [[1, 0], [0, 1]], [[1, 2], [1, 2]], [0, 0]))


def test_coorientation_round_trip():
    sq = box([(0, 2), (0, 2)])
    cases = [(Cell(sq, 0, [(1, 0), (1, 1)], -1), CellMap(euclid(1), [[1, 1]], [[]], [0])),
             (Cell(box([(0, 1), (0, 1)])), constant_map(POINT, 2, 0))]
    rng = Random(5)
    for target in (POINT, euclid(1), euclid(2), torus(1), torus(2)):
        for _ in range(30):
            c = random_cell(rng, max_torus=2)
            cases.append((c, random_map(rng, c, target)))
    submersions = 0
    for c, m in cases:
        if not is_interior_submersion(c, m):
            with pytest.raises(FibreProductError):
                kernel_coorientation(c, m)
            continue
        submersions += 1
        co = kernel_coorientation(c, m)
        back = orientation_from_coorientation(c, m, co)
        assert cell_orientation_equal(back, c) == 1
        # reversing the coorientation reverses the recovered orientation
        rev = orientation_from_coorientation(c, m, co.reversed())
        assert cell_orientation_equal(rev, c) == -1
    assert submersions >= 60


def _kernel_and_lifts(c, f):
    """Ker df and lifts of the target's standard frame, as ambient vectors of c."""
    tb = c.frame
    m = f.target.dim
    if not m:
        return list(tb), []
    rows = [tuple(f.a[i]) + tuple(f.m_t[i]) for i in range(m)]
    d = [[sum(r[k] * v[k] for k in range(len(v))) for v in tb] for r in rows]

    def ambient(coords):
        return tuple(sum(x * v[k] for x, v in zip(coords, tb)) for k in range(c.ambient))

    units = [[F(int(i == j)) for i in range(m)] for j in range(m)]
    return [ambient(k) for k in kernel_basis(d)], [ambient(solve(d, e)) for e in units]


def _sign(x):
    return 1 if x > 0 else -1


def _embed(z, v):
    """J: a tangent vector of the component z, in its own coordinates (p, phi),
    carried into the factors' coordinates (p1, t1, p2, t2)."""
    n1, s1, n2, _ = z.split
    n = n1 + n2
    dt = [sum(r[k] * v[k] for k in range(n)) + sum(c * x for c, x in zip(fc, v[n:]))
          for r, fc in zip(z.t_rows, z.t_fcoefs)]
    return tuple(v[:n1]) + tuple(dt[:s1]) + tuple(v[n1:n]) + tuple(dt[s1:])


def _orientation_against(z, frame):
    """z's orientation against a frame of T(Z) given in the factors' coordinates."""
    return (_sign(change_of_basis_det([_embed(z, v) for v in z.cell.frame], frame))
            * z.cell.sign)


def test_kernel_recipes_agree():
    a = Cell(box([(0, 2), (0, 2)]))
    b = Cell(interval(F(1, 3), F(5, 3)))
    fa = CellMap(euclid(1), [[1, 0]], [[]], [0])
    fb = CellMap(euclid(1), [[1]], [[]], [0])
    assert len(fibre_product_cells(a, fa, b, fb)) == 1
    cases = [(a, fa, b, fb)]
    rng = Random(8)
    for target in (POINT, euclid(1), torus(1)):
        for _ in range(8):
            cases.append(fibre_instance(rng, target))
    for c1, f1, c2, f2 in cases:
        plain = fibre_product_cells(c1, f1, c2, f2)
        with_k2 = fibre_product_cells(c1, f1, c2, f2, coorient2=kernel_coorientation(c2, f2))
        assert plain and plain == with_k2
        # Oracle, built without the library's kernels or lifts: with both maps
        # submersions, T(Z) = Ker df1 + TY + Ker df2, where X1 = Ker df1 + TY
        # and X2 = TY + Ker df2 orient the factors.
        k1, l1 = _kernel_and_lifts(c1, f1)
        k2, l2 = _kernel_and_lifts(c2, f2)
        e1 = _sign(change_of_basis_det(k1 + l1, c1.frame)) * c1.sign
        e2 = _sign(change_of_basis_det(l2 + k2, c2.frame)) * c2.sign
        # the first-factor kernel, which orients the fibre product when map2
        # is no submersion, orients X1 = Ker df1 + TY as c1 does
        first = first_factor_kernel(c1, f1)
        assert first.sign * _sign(change_of_basis_det(first.frame, k1)) == e1
        zero1, zero2 = (F(0),) * c1.ambient, (F(0),) * c2.ambient
        frame = ([k + zero2 for k in k1] + [u + w for u, w in zip(l1, l2)]
                 + [zero1 + k for k in k2])
        for z in plain:
            assert _orientation_against(z, frame) == e1 * e2
        # a point as the second factor: T(Z) = Ker df1, with X1 = Ker df1 + TY
        if f1.target.dim:
            verts = c1.polytope.vertices
            centre = [sum(v[i] for v in verts) / len(verts) for i in range(len(verts[0]))]
            pt = Cell(POINT_POLYTOPE, 0, None, c2.sign)
            to_v = constant_map(f1.target, 0, 0, f1.value(centre, (0,) * c1.torus_rank))
            assert not is_interior_submersion(pt, to_v)
            mirror = fibre_product_cells(c1, f1, pt, to_v)
            assert mirror
            for z in mirror:
                assert _orientation_against(z, k1) == e1 * pt.sign


def test_boundary_of_interval():
    comps = cell_boundary(Cell(interval()))
    signs = {b.cell.polytope.vertices[0][0]: b.cell.sign for b in comps}
    assert signs == {F(0): -1, F(1): 1}


def test_boundary_of_cylinder():
    comps = cell_boundary(Cell(interval(), 1))
    assert len(comps) == 2
    for b in comps:
        assert b.cell.torus_rank == 1 and b.cell.dim == 1
        assert b.outward[1] == 0  # torus directions never point outward
    signs = sorted(b.cell.sign for b in comps)
    assert signs == [-1, 1]


def test_boundary_restricts_coorientation():
    sq = box([(0, 1), (0, 1)])
    c = Cell(sq)
    m = CellMap(euclid(1), [[1, 0]], [[]], [0])
    co = kernel_coorientation(c, m)
    # a cooriented cell's facets are the boundary facets of its dictionary
    # orientation
    oriented = orientation_from_coorientation(c, m, co)
    for bc in cell_boundary(oriented):
        # only the x = const edges map to a point of the target non-submersively;
        # the y-edges still submerge and inherit a coorientation
        if bc.outward[0] == 0:
            rco = kernel_coorientation(bc.cell, m)
            recovered = orientation_from_coorientation(bc.cell, m, rco)
            assert cell_orientation_equal(recovered, bc.cell) == 1


def test_fibre_product_over_point_is_product():
    comps = fibre_product_cells(
        Cell(interval()), constant_map(POINT, 1, 0),
        Cell(interval()), constant_map(POINT, 1, 0))
    assert len(comps) == 1
    z = comps[0]
    assert z.transverse and z.orientable
    assert z.cell.dim == 2
    assert z.cell.polytope.vertices == box([(0, 1), (0, 1)]).vertices
    assert z.cell.sign == 1
    assert z.cell.frame == ((F(1), F(0)), (F(0), F(1)))


def test_fibre_product_second_factor_point_is_identity():
    sq = box([(0, 1), (0, 2)])
    c = Cell(sq, 0, [(1, 0), (1, 1)], -1)
    comps = fibre_product_cells(c, constant_map(POINT, 2, 0),
                                Cell(box([])), constant_map(POINT, 0, 0))
    assert len(comps) == 1
    assert comps[0].cell.polytope.vertices == sq.vertices
    assert cell_orientation_equal(comps[0].cell, c) == 1


def test_fibre_product_euclid_overlap():
    ide = CellMap(euclid(1), [[1]], [[]], [0])
    comps = fibre_product_cells(Cell(interval(0, 2)), ide, Cell(interval(1, 3)), ide)
    assert len(comps) == 1
    z = comps[0]
    assert z.transverse
    assert z.cell.polytope.vertices == ((F(1), F(1)), (F(2), F(2)))


def test_fibre_product_torus_translates():
    mt = CellMap(torus(1), [[1]], [[]], [0])
    comps = fibre_product_cells(Cell(interval()), mt, Cell(interval()), mt)
    assert [z.translate for z in comps] == [(0,), (-1,), (1,)]
    diag, lo, hi = comps
    assert diag.cell.polytope.vertices == ((F(0), F(0)), (F(1), F(1)))
    # the diagonal's endpoints sit on facets of both factors over one target
    # value, which breaks codimension additivity there
    assert not diag.transverse and diag.orientable
    assert lo.cell.polytope.vertices == ((F(0), F(1)),)
    assert hi.cell.polytope.vertices == ((F(1), F(0)),)
    for z in (lo, hi):
        assert not z.transverse and not z.orientable


def test_circle_fibre_square():
    circle = Cell(box([]), 1)
    idm = CellMap(torus(1), [[]], [[1]], [0])
    assert is_interior_submersion(circle, idm)
    comps = fibre_product_cells(circle, idm, circle, idm)
    assert len(comps) == 1
    z = comps[0]
    assert z.cell.torus_rank == 1 and z.cell.dim == 1
    assert z.transverse and z.orientable
    assert z.pmap.m_t == ((1,),)


def test_doubling_cover():
    circle = Cell(box([]), 1)
    idm = CellMap(torus(1), [[]], [[1]], [0])
    dbl = CellMap(torus(1), [[]], [[2]], [0])
    comps = fibre_product_cells(circle, dbl, circle, idm)
    assert len(comps) == 1
    z = comps[0]
    assert z.cell.torus_rank == 1 and z.transverse
    assert z.pmap.m_t == ((2,),)
    # the fibre of a point under the doubling map has two components
    pt = Cell(box([]))
    fibre = fibre_product_cells(circle, dbl, pt, constant_map(torus(1), 0, 0))
    assert len(fibre) == 2
    assert all(z.cell.dim == 0 for z in fibre)
    assert sorted(z.translate for z in fibre) == [(0,), (1,)]


def _cup_components(a, fa, b, fb):
    """The fibre product of a oriented by the dictionary and b cooriented by it,
    which orients each component by the cup coorientation."""
    oriented = orientation_from_coorientation(a, fa, kernel_coorientation(a, fa))
    return fibre_product_cells(oriented, fa, b, fb, coorient2=kernel_coorientation(b, fb))


def _canonical_coorientation(comp, perm=None):
    """(cell, map, coorientation) of a cup component's canonical form.

    The component's dictionary orientation is carried by the coordinate
    permutation and the canonical form, and read back on the canonical cell.
    """
    cell, cmap = comp.cell, comp.pmap
    if perm is not None:
        cell, cmap = permute_cell_coords(cell, cmap, perm)
    cell, cmap = canonical_cell_map(cell, cmap)
    return cell, cmap, kernel_coorientation(cell, cmap)


def test_cup_concatenation_order_matches_swap_sign():
    # degrees (2-1, 2-1): the two concatenation orders differ by -1
    a = Cell(box([(0, 1), (0, 1)]))
    b = Cell(box([(F(1, 4), F(3, 4)), (0, 2)]))
    fa = CellMap(euclid(1), [[1, 0]], [[]], [0])
    fb = CellMap(euclid(1), [[1, 0]], [[]], [0])
    z_ab = _cup_components(a, fa, b, fb)
    z_ba = _cup_components(b, fb, a, fa)
    assert len(z_ab) == len(z_ba) == 1
    u, v = z_ab[0], z_ba[0]
    c1, m1, k1 = _canonical_coorientation(u)
    c2, m2, k2 = _canonical_coorientation(v, [2, 3, 0, 1])
    assert c1.polytope == c2.polytope and m1.a == m2.a
    assert k1.frame == k2.frame
    assert k1.sign * k2.sign == -1


def test_cup_concatenation_order_even_degrees():
    ide = CellMap(euclid(1), [[1]], [[]], [0])
    a, b = Cell(interval(0, 2)), Cell(interval(1, 3))
    z_ab = _cup_components(a, ide, b, ide)
    z_ba = _cup_components(b, ide, a, ide)
    u, v = z_ab[0], z_ba[0]
    _, _, k1 = _canonical_coorientation(u)
    _, _, k2 = _canonical_coorientation(v, [1, 0])
    assert k1.frame == k2.frame and k1.sign == k2.sign


def test_fibre_product_needs_a_submersion():
    p = Cell(box([]))
    to_line = constant_map(euclid(1), 0, 0)
    with pytest.raises(FibreProductError):
        fibre_product_cells(p, to_line, p, to_line)


def test_free_circle_detection():
    circle = Cell(box([]), 1)
    assert has_free_circle(circle, constant_map(POINT, 0, 1))
    assert not has_free_circle(circle, CellMap(torus(1), [[]], [[1]], [0]))
    assert not has_free_circle(Cell(interval()), constant_map(POINT, 1, 0))


def test_canonical_key_unimodular_invariance():
    # same circle chart written in two torus parametrizations
    t2 = Cell(box([]), 2)
    m = CellMap(torus(2), [[], []], [[1, 0], [0, 1]], [0, 0])
    # reparametrize t = U t' with U = [[1,1],[0,1]]
    m2 = CellMap(torus(2), [[], []], [[1, 1], [0, 1]], [0, 0])
    t2b = Cell(box([]), 2, [(F(1), F(0)), (F(-1), F(1))])
    assert canonical_key(t2, m) == canonical_key(t2b, m2)


def test_canonical_key_translate_invariance():
    c = Cell(interval())
    m1 = CellMap(torus(1), [[1]], [[]], [F(1, 4)])
    m2 = CellMap(torus(1), [[1]], [[]], [F(9, 4)])
    assert canonical_key(c, m1) == canonical_key(c, m2)
    m3 = CellMap(torus(1), [[1]], [[]], [F(1, 3)])
    assert canonical_key(c, m1) != canonical_key(c, m3)


def test_permute_round_trip():
    sq = box([(0, 1), (0, 3)])
    c = Cell(sq, 1, [(1, 0, 0), (1, 1, 0), (0, 0, 1)], -1)
    m = CellMap(torus(2), [[1, 0], [0, F(1, 2)]], [[1], [0]], [0, F(1, 5)])
    perm = [1, 0]
    c2, m2 = permute_cell_coords(c, m, perm)
    c3, m3 = permute_cell_coords(c2, m2, perm)
    assert c3.polytope == c.polytope and c3.frame == c.frame and c3.sign == c.sign
    assert m3.a == m.a and m3.m_t == m.m_t and m3.b == m.b


def test_slice_polytope():
    square, unit = box([(0, 1)] * 2), interval()
    hexagon, tight = _slice_polytope(square, unit, [((1, 1, 1), F(3, 2))])
    assert hexagon.dim == 2
    assert set(hexagon.vertices) == set(itertools.permutations((0, F(1, 2), 1)))
    assert _slice_polytope(square, unit, [((1, 1, 1), 4)]) is None
    diagonal = Polytope(2, [[0, 0], [2, 2]])                  # lower-dimensional factor
    assert (_slice_polytope(diagonal, unit, [((1, 0, -1), 0)])[0]
            == Polytope(3, [[0, 0, 0], [1, 1, 1]]))
    assert (_slice_polytope(POINT_POLYTOPE, unit, [((1,), F(1, 2))])[0]
            == Polytope(1, [[F(1, 2)]]))
    assert _slice_polytope(POINT_POLYTOPE, POINT_POLYTOPE, []) == (POINT_POLYTOPE, [0])
    # the kernel's tight rows are the factors' tight facets at each vertex
    k1 = len(square.facets())
    assert tight == [square.tight_facets(v[:2]) | unit.tight_facets(v[2:]) << k1
                     for v in hexagon.vertices]


def test_cell_frame_errors():
    segment = Polytope.from_points(2, [[0, 0], [1, 0]])
    with pytest.raises(GeometryError, match="^frame vector has wrong length$"):
        Cell(segment, 0, [[1, 0, 0]])
    with pytest.raises(GeometryError, match="^frame vector outside the cell's tangent space$"):
        Cell(segment, 0, [[1, 1]])
    with pytest.raises(GeometryError, match="^frame vector outside the cell's tangent space$"):
        Cell(segment, 1, [[1, 0, 0], [0, 1, 0]])
    with pytest.raises(GeometryError, match="^frame is linearly dependent$"):
        Cell(box([(0, 1), (0, 1)]), 0, [[1, 0], [-2, 0]])
    with pytest.raises(GeometryError, match="^frame is linearly dependent$"):
        Cell(segment, 1, [[1, 0, 1], [2, 0, 2]])
    assert Cell(segment, 1, [[0, 0, 1], [-3, 0, 1]]).dim == 2


def test_coorientation_errors():
    with pytest.raises(MapError, match="^coorientation frame is linearly dependent$"):
        Coorientation([[1, 0, 2], [F(1, 2), 0, 1]])
    assert Coorientation([]).frame == ()
    # a square in R^3 times a circle: tangent span(e1, e2, e4); the map kills e2, e4
    square = Polytope.from_points(3, [[0, 0, 0], [1, 0, 0], [0, 1, 0], [1, 1, 0]])
    cell = Cell(square, 1)
    cmap = CellMap(euclid(1), [[1, 0, 0]], [[0]], [0])
    validate_coorientation(cell, cmap, Coorientation([[0, 1, 0, 0], [0, 0, 0, 1]]))
    with pytest.raises(MapError, match="^coorientation vector has wrong length$"):
        validate_coorientation(cell, cmap, Coorientation([[0, 1, 0], [0, 0, 1]]))
    # the first vector at fault names the fault, the tangent space checked first
    outside, off_kernel = [0, 0, 1, 0], [1, 0, 0, 0]
    with pytest.raises(MapError, match="^coorientation vector outside the tangent space$"):
        validate_coorientation(cell, cmap, Coorientation([outside, off_kernel]))
    with pytest.raises(MapError, match="not in the kernel of the differential$"):
        validate_coorientation(cell, cmap, Coorientation([off_kernel, outside]))
    with pytest.raises(MapError, match="^coorientation vector outside the tangent space$"):
        validate_coorientation(cell, cmap, Coorientation([[0, 1, 0, 0], [0, 1, 1, 1]]))


# ---------------------------------------------------------------------------
# Face pairs and strong submersions against their per-face definitions
# ---------------------------------------------------------------------------

def _brute_cols(cmap, cell, key):
    """Differential columns on the face `key` of the cell's polytope, plus the torus."""
    n, m = cell.polytope.ambient_dim, cmap.target.dim
    dirs = cell.polytope.face_polytope(key).dir_basis
    return ([tuple(sum(cmap.a[i][j] * d[j] for j in range(n)) for i in range(m)) for d in dirs]
            + [tuple(cmap.m_t[i][j] for i in range(m)) for j in range(cell.torus_rank)])


def _spans(cols, m):
    return m == 0 or (bool(cols) and rank(cols) == m)


def _vertex_mask(p, key):
    return sum(1 << p.vertices.index(v) for v in key)


def _brute_face_data(comp, cell1, map1, cell2, map2):
    """face_pairs and transverse face by face: the minimal faces holding the
    split vertices, the dimensions of face polytopes, and the span on every face.
    Faces are keyed by their vertex bitmasks, as in face_pairs."""
    poly, p1, p2 = comp.cell.polytope, cell1.polytope, cell2.polytope
    n1, m = p1.ambient_dim, map1.target.dim
    transverse = poly.dim + comp.cell.torus_rank == cell1.dim + cell2.dim - m
    pairs = {}
    for _, keys in sorted(poly.faces().items()):
        for key in sorted(keys):
            f1 = p1.minimal_face_containing([v[:n1] for v in key])
            f2 = p2.minimal_face_containing([v[n1:] for v in key])
            pairs[_vertex_mask(poly, key)] = (_vertex_mask(p1, f1), _vertex_mask(p2, f2))
            codim = p1.dim - p1.face_polytope(f1).dim + p2.dim - p2.face_polytope(f2).dim
            if (poly.dim - poly.face_polytope(key).dim != codim
                    or not _spans(_brute_cols(map1, cell1, f1) + _brute_cols(map2, cell2, f2), m)):
                transverse = False
    return pairs, transverse


def _fibre_cases():
    """Seeded fibre instances over each target, and both inner products of
    associativity instances over each pair of targets."""
    targets = (POINT, euclid(1), torus(1))
    for t in targets:
        for seed in range(4):
            yield fibre_instance(Random(f"face-pairs/{t.kind}/{seed}"), t)
    for t1, t2 in itertools.product(targets, repeat=2):
        for seed in range(5):
            c1, m1, c2, m2a, m2b, c3, m3 = associativity_instance(
                Random(f"face-pairs/{t1.kind}-{t2.kind}/{seed}"), t1, t2)
            yield c1, m1, c2, m2a
            yield c2, m2b, c3, m3


def test_face_pairs_match_per_face_definition():
    seen = set()
    for case in _fibre_cases():
        for comp in fibre_product_cells(*case):
            pairs, transverse = _brute_face_data(comp, *case)
            assert list(comp.face_pairs.items()) == list(pairs.items())
            assert comp.transverse == transverse
            seen.add(transverse)
    assert seen == {True, False}


# Any drift in a fibre product's cell, map, translate, flags, face pairs or
# the facets of its polytope changes it.  Re-pinned when a cell stopped
# storing a frame, which changes its repr only: with each cell read as
# (polytope, torus rank, sign of its canonical form), all 37 components hash
# alike before and after.  Re-pinned again when components stopped carrying
# a coorientation slot, which was None on all 37: the parent, hashed without
# the slot, gives the digest below.
GOLDEN_FIBRE_DIGEST = (
    "9d527455bfc0e010b7093fd04ce5e052d95f6da362e59a210516b24f3851ac59")


def test_fibre_products_golden_digest():
    h = hashlib.sha256()
    count = 0
    for t in (POINT, euclid(1), torus(1)):
        for seed in range(12):
            case = fibre_instance(Random(f"golden-fibre/{t.kind}/{seed}"), t)
            for comp in fibre_product_cells(*case):
                count += 1
                h.update(repr((comp.cell, comp.pmap, comp.translate, comp.transverse,
                               comp.orientable, sorted(comp.face_pairs.items()),
                               comp.cell.polytope.facets())).encode())
    assert count == 37
    assert h.hexdigest() == GOLDEN_FIBRE_DIGEST


@st.composite
def mapped_cell(draw):
    """A lattice cell of dimension >= 1 times T^s with a map to R^m or T^m, m <= 2.

    `spanning` draws begin the torus columns with the identity, so they span.
    """
    n = draw(st.integers(1, 3))
    pts = draw(st.lists(st.tuples(*[st.integers(-2, 2)] * n), min_size=2, max_size=n + 3,
                        unique=True))
    s, m = draw(st.integers(0, 2)), draw(st.integers(0, 2))
    entry = st.integers(-2, 2)
    a = [[draw(entry) for _ in range(n)] for _ in range(m)]
    on_torus = draw(st.booleans())
    spanning = on_torus and s >= m and draw(st.booleans())
    m_t = [[int(i == j) if spanning and j < m else draw(entry) if on_torus else 0
            for j in range(s)] for i in range(m)]
    target = POINT if m == 0 else torus(m) if on_torus else euclid(m)
    cell = Cell(Polytope.from_points(n, [list(x) for x in pts]), s)
    return cell, CellMap(target, a, m_t, [0] * m), spanning


@settings(max_examples=80, deadline=None)
@given(mapped_cell())
def test_strong_submersion_matches_per_face_check(data):
    cell, cmap, spanning = data
    brute = all(_spans(_brute_cols(cmap, cell, key), cmap.target.dim)
                for key in cell.polytope.all_face_keys())
    assert brute or not spanning
    assert is_strong_submersion(cell, cmap) == brute


_quarters = st.fractions(min_value=-2, max_value=2, max_denominator=4)


@st.composite
def wound_cell(draw, targets=st.integers(1, 2)):
    """A lattice cell of dimension >= 1 times T^s, s >= 1, with a map to T^m
    whose torus part is nonzero; m is drawn from targets."""
    n = draw(st.integers(1, 3))
    pts = draw(st.lists(st.tuples(*[st.integers(-2, 2)] * n), min_size=2, max_size=n + 3,
                        unique=True))
    s, m = draw(st.integers(1, 2)), draw(targets)
    entry = st.integers(-2, 2)
    m_t = [[draw(entry) for _ in range(s)] for _ in range(m)]
    assume(any(any(row) for row in m_t))
    a = [[draw(entry) for _ in range(n)] for _ in range(m)]
    b = [draw(_quarters) for _ in range(m)]
    cell = Cell(Polytope.from_points(n, [list(x) for x in pts]), s, None,
                draw(st.sampled_from((1, -1))))
    return cell, CellMap(torus(m), a, m_t, b)


def _sheared(cell, cmap, lam):
    """The same cell and map in the coordinates t' = t + lam (x - v0)."""
    n, s, m = cell.polytope.ambient_dim, cell.torus_rank, cmap.target.dim
    v0 = cell.polytope.vertices[0]
    ml = [[sum(cmap.m_t[i][t] * lam[t][c] for t in range(s)) for c in range(n)]
          for i in range(m)]
    a = [[cmap.a[i][c] - ml[i][c] for c in range(n)] for i in range(m)]
    b = [cmap.b[i] + sum(ml[i][c] * v0[c] for c in range(n)) for i in range(m)]
    frame = [tuple(v[:n]) + tuple(v[n + t] + sum(lam[t][c] * v[c] for c in range(n))
                                  for t in range(s))
             for v in cell.frame]
    return Cell(cell.polytope, s, frame, cell.sign), CellMap(cmap.target, a, cmap.m_t, b)


@settings(max_examples=80, deadline=None)
@given(wound_cell(), st.lists(_quarters, min_size=6, max_size=6))
def test_canonical_form_divides_out_rational_shears(data, entries):
    cell, cmap = data
    n = cell.polytope.ambient_dim
    lam = [entries[t * n:(t + 1) * n] for t in range(cell.torus_rank)]
    scell, smap = _sheared(cell, cmap, lam)
    assert canonical_form(scell, smap)[:2] == canonical_form(cell, cmap)[:2]


# Over T^1 a nonzero torus column always spans, so no unit vector lies
# outside the span and every such draw would be discarded: draw m = 2.
@settings(max_examples=40, deadline=None)
@given(wound_cell(targets=st.just(2)))
def test_canonical_form_keeps_columns_outside_the_torus_span(data):
    cell, cmap = data
    m = cmap.target.dim
    cols = [tuple(row[t] for row in cmap.m_t) for t in range(cell.torus_rank)]
    outside = [u for u in (tuple(int(i == k) for i in range(m)) for k in range(m))
               if rank(cols + [u]) > rank(cols)]
    assume(outside)
    u, d = outside[0], cell.polytope.dir_basis[0]
    a = [[x + u[i] * dc for x, dc in zip(row, d)] for i, row in enumerate(cmap.a)]
    moved = CellMap(cmap.target, a, cmap.m_t, cmap.b)
    assert canonical_key(cell, moved) != canonical_key(cell, cmap)


# A cell's orientation is one sign against its default frame.  The references
# below are the formulas of the frame-carrying cells this replaced: the
# constructor's rank checks, Cell.canonical (canonical_frame of the frame),
# the determinant of cell_orientation_equal, and canonical_cell_map moving
# the frame through the Hermite reparametrization and the rational shear.

@st.composite
def lattice_cell(draw):
    """A lattice polytope of dimension 0 to 3 and a torus rank 0 to 2."""
    n = draw(st.integers(1, 3))
    pts = draw(st.lists(st.tuples(*[st.integers(-2, 2)] * n), min_size=1, max_size=n + 2,
                        unique=True))
    return Polytope.from_points(n, [list(x) for x in pts]), draw(st.integers(0, 2))


def _int_matrix(data, d):
    return [[data.draw(st.integers(-2, 2)) for _ in range(d)] for _ in range(d)]


def _times(c, frame):
    """The frame whose vector i is sum_j c[i][j] frame[j]."""
    width = len(frame[0]) if frame else 0
    return tuple(tuple(sum(c[i][j] * frame[j][k] for j in range(len(frame)))
                       for k in range(width)) for i in range(len(c)))


def _reference_frame_fault(poly, s, frame):
    """The error the frame-carrying constructor raised for a frame of cell size."""
    span = default_frame(poly, s)
    if frame != span:
        if rank(span + frame) != len(span):
            return "frame vector outside the cell's tangent space"
        if rank(frame) != len(frame):
            return "frame is linearly dependent"
    return None


@settings(max_examples=150, deadline=None)
@given(lattice_cell(), st.data())
def test_frame_folds_into_the_sign(cell_data, data):
    poly, s = cell_data
    default = default_frame(poly, s)
    c = _int_matrix(data, len(default))
    sigma = data.draw(st.sampled_from((1, -1)))
    frame = _times(c, default)
    replaced = bool(default) and data.draw(st.booleans())
    if replaced:
        # a vector that may leave the tangent space
        k = data.draw(st.integers(0, len(default) - 1))
        v = tuple(F(data.draw(st.integers(-2, 2))) for _ in range(poly.ambient_dim + s))
        frame = frame[:k] + (v,) + frame[k + 1:]
    fault = _reference_frame_fault(poly, s, frame)
    if fault is not None:
        with pytest.raises(GeometryError, match=f"^{fault}$"):
            Cell(poly, s, frame, sigma)
        return
    cell = Cell(poly, s, frame, sigma)
    basis, canonical_sign = canonical_frame(frame)
    assert basis == default == cell.frame
    assert cell.sign == sigma * canonical_sign
    if not replaced:
        assert cell.sign == sigma * _sign(det(mat(c)))
    assert cell == Cell(poly, s, None, cell.sign)


@settings(max_examples=100, deadline=None)
@given(lattice_cell(), st.data())
def test_orientation_equal_is_a_sign_product(cell_data, data):
    poly, s = cell_data
    default = default_frame(poly, s)
    frames, signs = [], []
    for _ in range(2):
        c = _int_matrix(data, len(default))
        assume(det(mat(c)) != 0)
        frames.append(_times(c, default))
        signs.append(data.draw(st.sampled_from((1, -1))))
    a, b = (Cell(poly, s, fr, sg) for fr, sg in zip(frames, signs))
    expected = signs[0] * signs[1]
    if default:
        expected *= _sign(change_of_basis_det(frames[0], frames[1]))
    assert cell_orientation_equal(a, b) == expected


def _reference_canonical_sign(poly, frame, sign, cmap):
    """Sign of the canonical cell, by moving the frame as canonical_cell_map did.

    For a map with torus part and a polytope of positive ambient dimension.
    """
    n, m = poly.ambient_dim, cmap.target.dim
    assert m > 0 and n > 0
    s = len(frame[0]) - n
    h, uc = hermite_column(cmap.m_t)
    uci = integer_matrix_inverse(uc)
    frame = [tuple(v[:n]) + tuple(sum(uci[i][j] * v[n + j] for j in range(s))
                                  for i in range(s)) for v in frame]
    pivots = [(p, d, t, tuple(row[t] for row in h)) for p, d, t in _pivots_of(h)]
    hull = poly.affine_hull_equations()
    red, piv = rref(mat([row for row, _ in hull])) if hull else ((), ())
    free = [c for c in range(n) if c not in piv]
    shear = {}
    for c in free:
        x = [row[c] - sum(row[p] * hrow[c] for hrow, p in zip(red, piv))
             for row in cmap.a]
        lam = [F(0)] * s
        for p, d, t, col in pivots:
            q = x[p] / d
            if q:
                lam[t] = q
                x = [xi - q * ci for xi, ci in zip(x, col)]
        shear[c] = lam
    frame = [tuple(v[:n]) + tuple(v[n + t] + sum(v[c] * shear[c][t] for c in free)
                                  for t in range(s)) for v in frame]
    return sign * canonical_frame(frame)[1]


def _unimodular(data, s):
    """A random s x s integer matrix of determinant +-1, from elementary moves."""
    w = [[int(i == j) for j in range(s)] for i in range(s)]
    for _ in range(data.draw(st.integers(0, 4))):
        i, j = data.draw(st.integers(0, s - 1)), data.draw(st.integers(0, s - 1))
        if i == j:
            w[i] = [-x for x in w[i]]
        else:
            k = data.draw(st.integers(-2, 2))
            w[i] = [x + k * y for x, y in zip(w[i], w[j])]
    return w


@settings(max_examples=100, deadline=None)
@given(wound_cell(), st.data())
def test_canonical_sign_matches_the_moved_frame(cell_data, data):
    cell, cmap = cell_data
    n, s = cell.polytope.ambient_dim, cell.torus_rank
    # new torus coordinates W t: frames move by W, the torus columns by W^-1
    w = _unimodular(data, s)
    wi = integer_matrix_inverse(w)
    m_t = [[sum(row[k] * wi[k][j] for k in range(s)) for j in range(s)] for row in cmap.m_t]
    c = _int_matrix(data, cell.dim)
    assume(det(mat(c)) != 0)
    frame = [tuple(v[:n]) + tuple(sum(w[i][j] * v[n + j] for j in range(s)) for i in range(s))
             for v in _times(c, cell.frame)]
    lam = [[data.draw(_quarters) for _ in range(n)] for _ in range(s)]
    _, smap = _sheared(cell, CellMap(cmap.target, cmap.a, m_t, cmap.b), lam)
    frame = [tuple(v[:n]) + tuple(v[n + t] + sum(lam[t][k] * v[k] for k in range(n))
                                  for t in range(s)) for v in frame]
    ccell, _ = canonical_cell_map(Cell(cell.polytope, s, frame, cell.sign), smap)
    assert ccell.sign == _reference_canonical_sign(cell.polytope, frame, cell.sign, smap)
    assert ccell.frame == cell.frame


# Boundary data is read once per polytope from its face data.  The references
# below are the per-call formulas it replaced: the determinant of each facet's
# frame, outward normal first, against the cell's default frame (in
# cell_boundary and the coorientation restriction), and the rref of the affine hull
# equations with v0 = min(vertices) in canonical_cell_map.

def _reference_facet_sign(p, mask, outward, s):
    fp = p.face_from_mask(mask)
    out = tuple(outward) + (F(0),) * s
    return _sign(change_of_basis_det((out,) + default_frame(fp, s), default_frame(p, s)))


@settings(max_examples=60, deadline=None)
@given(embedded_lattice_hull(), st.integers(0, 2), st.sampled_from((1, -1)))
def test_stored_facet_signs_match_the_change_of_basis(data, s, sigma):
    _, _, pts, _, _ = data
    p = Polytope.from_points(len(pts[0]), pts)
    assume(p.dim >= 1)
    for q in [p] + [fp for fp, _ in p._fd.facet_cells()]:
        bcs = cell_boundary(Cell(q, s, None, sigma))
        assert len(bcs) == len(q.facets())
        for (key, outward), mask, (fp, sign), bc in zip(
                q.facets(), q._fd.facet_masks, q._fd.facet_cells(), bcs):
            reference = _reference_facet_sign(q, mask, outward, s)
            assert sign == reference
            assert fp == q.face_from_mask(mask)
            assert fp.facets() == q.face_from_mask(mask).facets()
            assert bc.face == key and bc.outward == tuple(outward) + (F(0),) * s
            assert bc.cell == Cell(fp, s, None, sigma * reference)


@settings(max_examples=60, deadline=None)
@given(wound_cell())
def test_restricted_coorientation_matches_the_change_of_basis(cell_data):
    cell, cmap = cell_data
    assume(is_strong_submersion(cell, cmap))
    tag = numbered_tag(cell.polytope)
    for co in (kernel_coorientation(cell, cmap), first_factor_kernel(cell, cmap)):
        oriented = orientation_from_coorientation(cell, cmap, co)
        facets = generator_boundary(Generator(cell, cmap, tag, coorientation=co))
        assert len(facets) == len(cell_boundary(cell))
        for bc, (_, sub) in zip(cell_boundary(cell), facets):
            d = change_of_basis_det((bc.outward,) + bc.cell.frame, oriented.frame)
            facet = Cell(bc.cell.polytope, bc.cell.torus_rank, sign=_sign(d) * oriented.sign)
            assert sub.coorientation == kernel_coorientation(facet, cmap)


def _reference_canonical_map(cell, cmap):
    """(a, b) of the canonical map, with the hull reduced by rref on every call."""
    n, s, m = cell.polytope.ambient_dim, cell.torus_rank, cmap.target.dim
    new_mt, _ = hermite_column(cmap.m_t)
    pivots = [(p, d, t, tuple(row[t] for row in new_mt)) for p, d, t in _pivots_of(new_mt)]

    def reduce(x):
        x = list(x)
        for p, d, t, col in pivots:
            q = x[p] / d
            if q:
                x = [xi - q * ci for xi, ci in zip(x, col)]
        return x

    hull = cell.polytope.affine_hull_equations()
    red, piv = rref(mat([row for row, _ in hull])) if hull else ((), ())
    free = [c for c in range(n) if c not in piv]
    v0 = min(cell.polytope.vertices)
    val0 = [cmap.b[i] + sum(cmap.a[i][c] * v0[c] for c in range(n)) for i in range(m)]
    cols = {c: reduce([row[c] - sum(row[p] * hrow[c] for hrow, p in zip(red, piv))
                       for row in cmap.a]) for c in free}
    new_a = [tuple(cols[c][i] if c in cols else F(0) for c in range(n)) for i in range(m)]
    new_b = reduce([val0[i] - sum(new_a[i][c] * v0[c] for c in range(n)) for i in range(m)])
    npiv = [k for k in range(m) if k not in {p for p, _, _, _ in pivots}]
    if npiv:
        gens = [reduce(tuple(F(int(i == k)) for i in range(m))) for k in range(m)]
        denom = math.lcm(*(g[j].denominator for g in gens for j in npiv))
        hb, _ = hermite_column([[int(g[j] * denom) for g in gens] for j in npiv])
        x = [new_b[j] * denom for j in npiv]
        for i in range(len(npiv)):
            q = math.floor(x[i] / hb[i][i])
            for k in range(i, len(npiv)):
                x[k] -= q * hb[k][i]
        for idx, j in enumerate(npiv):
            new_b[j] = x[idx] / denom
    return tuple(new_a), tuple(new_b)


@settings(max_examples=150, deadline=None)
@given(wound_cell())
def test_canonical_columns_and_offset_match_the_rref_recipe(cell_data):
    cell, cmap = cell_data
    _, cmap2 = canonical_cell_map(cell, cmap)
    assert (cmap2.a, cmap2.b) == _reference_canonical_map(cell, cmap)


def test_boundary_data_is_computed_once_per_polytope(monkeypatch):
    calls = Counter()

    def counted(name, fn):
        def wrapper(*args, **kwargs):
            calls[name] += 1
            return fn(*args, **kwargs)
        return wrapper

    for module in ("_linalg", "geometry", "cells", "chains", "products", "bordism"):
        mod = importlib.import_module(f"cornercalc.{module}")
        for name in ("change_of_basis_det", "rref"):
            if hasattr(mod, name):
                monkeypatch.setattr(mod, name, counted(name, getattr(mod, name)))
    # a pentagon in the plane z = x + 2y + 1/7 of R^3, at coordinates no other
    # test uses, so its face data starts cold
    xy = [(F(1, 97), 0), (1, F(1, 89)), (1, 1), (0, 1), (F(-1, 83), F(1, 2))]
    p = Polytope.from_points(3, [[x, y, x + 2 * y + F(1, 7)] for x, y in xy])
    assert p.dim == 2 and len(p.facets()) == 5
    cmap = CellMap(torus(2), [[1, 2, 0], [F(1, 3), 0, 1]], [[1], [2]], [F(1, 5), 0])
    cmap2 = CellMap(torus(2), [[0, 1, 1], [2, 0, F(1, 7)]], [[0], [3]], [0, F(1, 2)])

    def boundary_two_deep(cell):
        for bc in cell_boundary(cell):
            cell_boundary(bc.cell)

    boundary_two_deep(Cell(p, 1))
    assert calls["change_of_basis_det"] > 0
    canonical_cell_map(Cell(p, 1), cmap)
    assert calls["rref"] > 0
    calls.clear()
    for s, sign in ((1, 1), (2, -1), (0, 1)):
        boundary_two_deep(Cell(p, s, None, sign))
    canonical_cell_map(Cell(p, 1), cmap)
    canonical_cell_map(Cell(p, 1, None, -1), cmap2)
    assert calls == Counter()


# ---------------------------------------------------------------------------
# The canonical form's chart arithmetic, once per polytope and per integral
# matrix, against the per-call formulas it replaced: the offset as the value
# at v0 less the new linear part at v0, and the Hermite form, its determinant
# and the reduced lattice recomputed on every call.
# ---------------------------------------------------------------------------

def _per_call_canonical_cell_map(cell, cmap):
    """canonical_cell_map with the offset A v0 + b less the new A at v0, and the
    torus form recomputed on every call."""
    n, s, m = cell.polytope.ambient_dim, cell.torus_rank, cmap.target.dim
    sign = cell.sign
    if s > 0 and m > 0:
        new_mt, uc = hermite_column(cmap.m_t)
        det_u = det(uc)
        assert det_u in (1, -1)
        sign *= int(det_u)
    else:
        new_mt = cmap.m_t
    pivots = [(p, d, tuple(row[t] for row in new_mt)) for p, d, t in _pivots_of(new_mt)]

    def reduce(x):
        x = list(x)
        for p, d, col in pivots:
            q = x[p] / d
            if q:
                x = [xi - q * ci for xi, ci in zip(x, col)]
        return x

    new_a, new_b = cmap.a, list(cmap.b)
    if m > 0 and n > 0:
        v0 = cell.polytope.vertices[0]
        val0 = [new_b[i] + sum(new_a[i][c] * v0[c] for c in range(n)) for i in range(m)]
        cols = {c: reduce([sum(row[j] * x for j, x in w) for row in new_a])
                for c, w in cell.polytope._fd.hull_directions()}
        new_a = [tuple(cols[c][i] if c in cols else F(0) for c in range(n)) for i in range(m)]
        new_b = [val0[i] - sum(new_a[i][c] * v0[c] for c in range(n)) for i in range(m)]
    if m > 0:
        new_b = reduce(new_b)
        npiv = [k for k in range(m) if k not in {p for p, _, _ in pivots}]
        if cmap.target.is_torus and npiv:
            gens = [reduce(tuple(F(int(i == k)) for i in range(m))) for k in range(m)]
            denom = math.lcm(*(g[j].denominator for g in gens for j in npiv))
            hb, _ = hermite_column([[int(g[j] * denom) for g in gens] for j in npiv])
            x = [new_b[j] * denom for j in npiv]
            for i in range(len(npiv)):
                q = math.floor(x[i] / hb[i][i])
                if q:
                    for k in range(i, len(npiv)):
                        x[k] -= q * hb[k][i]
            for idx, j in enumerate(npiv):
                new_b[j] = x[idx] / denom
    return Cell(cell.polytope, s, sign=sign), CellMap(cmap.target, new_a, new_mt, tuple(new_b))


_thirds = st.fractions(min_value=-3, max_value=3, max_denominator=3)


@st.composite
def hull_cell_and_map(draw):
    """A rational lattice hull of dimension 0 to 3 in R^n, n <= 4 (mostly of
    lower dimension), times T^s, s <= 2, with a map to a point, R^m or T^m,
    m <= 3.  Over a torus the integral part is zero, of rank at most one
    (multiples of one column) or arbitrary."""
    p = draw(placed_rational_hull())
    kind = draw(st.sampled_from(("point", "euclid", "torus")))
    shape = draw(st.sampled_from(("zero", "low", "any"))) if kind == "torus" else "zero"
    # rank at most one is deficient on two columns and two rows or more
    n, s = p.ambient_dim, 2 if shape == "low" else draw(st.integers(0, 2))
    m = 0 if kind == "point" else draw(st.integers(2 if shape == "low" else 1, 3))
    target = POINT if m == 0 else Target(kind, m)
    a = [[draw(_thirds) for _ in range(n)] for _ in range(m)]
    b = [draw(st.fractions(min_value=-5, max_value=5, max_denominator=6)) for _ in range(m)]
    entry = st.integers(-3, 3)
    if shape == "zero":
        m_t = [[0] * s for _ in range(m)]
    elif shape == "low":
        col, mult = [draw(entry) for _ in range(m)], [draw(entry) for _ in range(s)]
        m_t = [[x * y for y in mult] for x in col]
    else:
        m_t = [[draw(entry) for _ in range(s)] for _ in range(m)]
    sign = draw(st.sampled_from((1, -1)))
    return Cell(p, s, None, sign), CellMap(target, a, m_t, b)


@settings(max_examples=300, deadline=None)
@given(hull_cell_and_map())
def test_canonical_cell_map_matches_parent_formula(data):
    cell, cmap = data
    got_cell, got_map = canonical_cell_map(cell, cmap)
    want_cell, want_map = _per_call_canonical_cell_map(cell, cmap)
    assert got_cell.sign == want_cell.sign
    assert got_cell.polytope == want_cell.polytope
    assert got_cell.torus_rank == want_cell.torus_rank
    assert repr(got_map) == repr(want_map)
    # the canonical M is in Hermite form: a free circle is a missing pivot
    s = cell.torus_rank
    free = len(_pivots_of(got_map.m_t)) < s
    assert has_free_circle(cell, cmap) == has_free_circle(got_cell, got_map) == free
    gen = Generator(cell, cmap, numbered_tag(cell.polytope))
    assert (_normal_form(gen) is None) == free


def _fraction_differential_vec(cmap, n, v):
    """The differential on v with every entry of A and M made a Fraction."""
    p_part, t_part = v[:n], v[n:]
    return tuple(
        sum(cmap.a[i][j] * p_part[j] for j in range(n))
        + sum(F(cmap.m_t[i][j]) * t_part[j] for j in range(len(t_part)))
        for i in range(cmap.target.dim))


@settings(max_examples=150, deadline=None)
@given(hull_cell_and_map(), st.data())
def test_differential_vec_matches_parent_formula(data, more):
    cell, cmap = data
    n, s = cell.polytope.ambient_dim, cell.torus_rank
    # sparse vectors, as frame vectors are, and dense ones
    v = tuple(more.draw(st.lists(st.one_of(st.just(F(0)), _thirds),
                                 min_size=n + s, max_size=n + s)))
    assert _differential_vec(cmap, n, v) == _fraction_differential_vec(cmap, n, v)
    want = [_fraction_differential_vec(cmap, n, u) for u in cell.frame]
    want = transpose(mat(want)) if want else tuple(() for _ in range(cmap.target.dim))
    assert repr(cmap.differential_on(cell)) == repr(want)


# ---------------------------------------------------------------------------
# Fibre-product orientation against the frame rule solved vector by vector
# ---------------------------------------------------------------------------

def _reference_orientation(z, c1, f1, c2, f2):
    """(sign, orientable) of the component z by the frame rule as first
    written: kernels and target lifts solved per unit vector, each frame
    vector lifted through the other map on its own, then each solved against
    J, carried back to ambient coordinates and folded into a Cell."""
    m = f1.target.dim
    zero1, zero2 = (F(0),) * c1.ambient, (F(0),) * c2.ambient

    def coorientation(c, f):
        kernel, lifts = _kernel_and_lifts(c, f)
        frame = lifts + kernel
        return kernel, c.sign * (_sign(change_of_basis_det(frame, c.frame)) if frame else 1)

    def lift(c, f, other, v):
        rows = [tuple(f.a[i]) + tuple(f.m_t[i]) for i in range(m)]
        d = [[sum(x * y for x, y in zip(r, u)) for u in c.frame] for r in rows]
        dv = [sum(x * y for x, y in zip(tuple(other.a[i]) + tuple(other.m_t[i]), v))
              for i in range(m)]
        w = solve(d, dv)
        if w is None:
            return None
        return tuple(sum(x * u[k] for x, u in zip(w, c.frame)) for k in range(c.ambient))

    if is_interior_submersion(c2, f2):
        k2, sign2 = coorientation(c2, f2)
        lifts = [lift(c2, f2, f1, v) for v in c1.frame]
        vecs = [v + w for v, w in zip(c1.frame, lifts) if w is not None]
        vecs += [zero1 + k for k in k2]
        sign = c1.sign * sign2
    else:
        k1, sign1 = coorientation(c1, f1)
        lifts = [lift(c1, f1, f2, v) for v in c2.frame]
        vecs = [k + zero2 for k in k1]
        vecs += [w + v for v, w in zip(c2.frame, lifts) if w is not None]
        sign = sign1 * (-1) ** (m * len(k1)) * c2.sign
    if None in lifts:
        return None, False
    poly, s_z = z.cell.polytope, z.cell.torus_rank
    basis = default_frame(poly, s_z)
    j_cols = [_embed(z, v) for v in basis]
    j_mat = [[col[i] for col in j_cols] for i in range(c1.ambient + c2.ambient)]
    frame = []
    for v in vecs:
        x = solve(j_mat, v)
        if x is None:
            return None, False
        frame.append(tuple(sum(xi * b[k] for xi, b in zip(x, basis))
                           for k in range(poly.ambient_dim + s_z)))
    try:
        return Cell(poly, s_z, frame, sign).sign, True
    except GeometryError:
        return None, False


def _assert_orientations_match_reference(c1, f1, c2, f2):
    flags = set()
    for z in fibre_product_cells(c1, f1, c2, f2):
        sign, orientable = _reference_orientation(z, c1, f1, c2, f2)
        assert z.orientable == orientable
        if orientable:
            assert z.cell.sign == sign
        flags.add((z.transverse, z.orientable))
    return flags


_FIBRE_TARGETS = st.sampled_from((POINT, euclid(1), torus(1)))


@settings(max_examples=60, deadline=None)
@given(_FIBRE_TARGETS, st.integers(0, 10**6))
def test_fibre_orientation_matches_the_per_vector_recipe(target, seed):
    rng = Random(seed)
    _assert_orientations_match_reference(*fibre_instance(rng, target))
    # an unfiltered pair, which may meet faces non-transversally, and the same
    # first factor against a constant map, which the first-factor rule orients
    c1, f1 = submersive_cell(rng, target)
    c2, f2 = submersive_cell(rng, target)
    _assert_orientations_match_reference(c1, f1, c2, f2)
    value = [F(rng.randint(-4, 4), 4) for _ in range(target.dim)]
    _assert_orientations_match_reference(
        c1, f1, c2, constant_map(target, c2.polytope.ambient_dim, c2.torus_rank, value))


def test_fibre_orientation_reference_on_unorientable_components():
    line = CellMap(euclid(1), [[1]], [[]], [0])
    plane = CellMap(euclid(1), [[1, 0]], [[]], [0])
    # two intervals meeting at one point: a frame of length 1 on a point
    assert _assert_orientations_match_reference(
        Cell(interval(0, 1)), line, Cell(interval(-1, 0)), line) == {(False, False)}
    # two squares meeting along an edge: three frame vectors on a square
    assert _assert_orientations_match_reference(
        Cell(box([(0, 1), (0, 1)])), plane, Cell(box([(-1, 0), (0, 1)]), 0, None, -1),
        plane) == {(False, False)}
