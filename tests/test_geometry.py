"""Polytope kernel tests; scipy's hull is the independent oracle where it applies."""

import itertools
import random
import re
from fractions import Fraction
from math import comb, lcm

import numpy as np
import pytest
import sympy
from hypothesis import assume, given, settings, strategies as st
from scipy.spatial import ConvexHull

from cornercalc._linalg import (_primitive_rows, det, dot, frac, kernel_basis, lp_feasible, mat,
                               matvec, rank, rref, solve, vec)
from cornercalc.bordism import oriented_match
from cornercalc.cells import (
    POINT,
    Cell,
    CellMap,
    cell_boundary,
    cell_orientation_equal,
    constant_map,
    euclid,
)
from cornercalc.chains import Generator, Tag, aut_finite, check_sigma_pairing, corner_terms
from cornercalc.cells import _slice_polytope
from cornercalc import geometry
from cornercalc.geometry import (
    POINT_POLYTOPE,
    GeometryError,
    Polytope,
    VertexTuple,
    _FaceData,
    affine_isomorphisms,
    box,
    corner_type,
    face_key,
    interval,
    mask_bits,
    product_polytope,
    section_polytope,
    section_vertices,
    standard_simplex,
)
from reference import cut_by_equations, product_section, tight_face_pairs


def octahedron():
    verts = [[1, 0, 0], [-1, 0, 0], [0, 1, 0], [0, -1, 0], [0, 0, 1], [0, 0, -1]]
    return Polytope(3, verts)


def _flags(p, frame=None, sign=1):
    """Second-boundary flags of P as an oriented, injectively labelled chain cell."""
    tag = Tag.from_atoms(p, {k: i for i, k in enumerate(p.all_face_keys())})
    gen = Generator(Cell(p, 0, frame, sign), constant_map(POINT, p.ambient_dim, 0), tag)
    return corner_terms(gen)


def _sigma(t, flags):
    """The flag-swap partner (corner, B2, B1) of the flag (corner, B1, B2)."""
    partners = [c for c in flags if (c.corner, c.first_facet, c.second_facet)
                == (t.corner, t.second_facet, t.first_facet)]
    assert len(partners) == 1
    return partners[0]


# ---------------------------------------------------------------------------
# Construction and face lattice
# ---------------------------------------------------------------------------

def test_vertex_validation():
    with pytest.raises(GeometryError):
        Polytope(1, [[0], [1], [0]])          # duplicate
    with pytest.raises(GeometryError):
        Polytope(1, [[0], [1], ["1/2"]])      # interior point is not extreme
    with pytest.raises(GeometryError):
        Polytope(2, [[0], [1]])               # wrong coordinate length
    for bad in ([[0], [1]], [[0, 0], [1]]):   # short points, ragged points
        with pytest.raises(GeometryError, match="ambient_dim"):
            Polytope.from_points(2, bad)
        with pytest.raises(GeometryError, match="ambient_dim"):
            Polytope(2, bad)


def test_from_points_drops_non_extreme():
    p = Polytope.from_points(2, [[0, 0], [1, 0], [0, 1], [1, 1], ["1/2", "1/2"]])
    assert len(p.vertices) == 4
    assert p.dim == 2


def test_from_points_drops_repeated_points():
    """Repeated points, in any order, give the hull of the distinct ones."""
    pts = [[1, 0], [0, 0], ["1/2", "1/2"], [0, 1], [1, 0], [0, 0], [1, 1], [1, 1]]
    p = Polytope.from_points(2, pts)
    assert p == Polytope.from_points(2, [[0, 0], [1, 0], [0, 1], [1, 1]])
    assert Polytope.from_points(1, [[2], [2], [2]]).vertices == ((Fraction(2),),)
    with pytest.raises(GeometryError, match="duplicate vertices"):
        Polytope(2, [[0, 0], [1, 0], [0, 0]])
    with pytest.raises(GeometryError, match=r"vertex \(Fraction\(1, 2\), Fraction\(1, 2\)\) "
                       "is not an extreme point"):
        Polytope(2, [[0, 0], [1, 0], [0, 1], [1, 1], ["1/2", "1/2"]])


def test_vertex_tuple_acts_as_the_plain_tuple():
    plain = ((Fraction(1, 2), Fraction(0)), (Fraction(1), Fraction(-3)))
    vt = VertexTuple(plain)
    assert hash(vt) == hash(plain) == hash(vt)
    assert vt == plain and plain == vt and not vt != plain
    assert vt != plain[:1] and VertexTuple(plain[:1]) < vt
    assert repr(vt) == repr(plain) and str(vt) == str(plain)
    other = ((Fraction(0),), (Fraction(2),))
    assert sorted([vt, VertexTuple(other)]) == sorted([plain, other]) == [other, plain]
    assert {plain: 1}[vt] == 1 and {vt: 1}[plain] == 1
    assert len(vt) == 2 and vt[1] == plain[1] and list(vt) == list(plain)


def test_face_data_makes_vertex_tuples():
    """Every vertex tuple that face data makes hashes once."""
    sq = box([(0, 1), (0, 1)])
    fd = sq._fd
    tuples = [face_key([[1, 0], [0, 0]]), fd.key(0b0110), sq.vertices,
              Polytope.from_points(2, [[0, 0], [1, 0], [0, 1], [0, 0]]).vertices,
              section_polytope(2, [((1, 1), 1)], [((-1, 0), 0), ((0, -1), 0)])[0].vertices,
              product_polytope(sq, interval())[0].vertices,
              sq.face_from_mask(0b0011).vertices]
    assert all(type(t) is VertexTuple for t in tuples)
    assert tuples[0] == ((Fraction(0), Fraction(0)), (Fraction(1), Fraction(0)))


def test_octahedron_face_counts():
    """8 facets, 12 edges, 6 vertices; scipy is the oracle for the facet count."""
    p = octahedron()
    faces = p.faces()
    assert [len(faces[d]) for d in range(4)] == [6, 12, 8, 1]
    hull = ConvexHull(np.array([[float(c) for c in v] for v in p.vertices]))
    assert len(hull.simplices) == 8  # triangular facets, so simplices == facets


def test_extreme_points_match_scipy_on_random_clouds():
    rng = random.Random(21)
    for _ in range(10):
        dim = rng.choice([2, 3])
        pts = [[rng.randint(-4, 4) for _ in range(dim)] for _ in range(rng.randint(4, 9))]
        uniq = sorted(set(map(tuple, pts)))
        if len(uniq) <= dim:
            continue
        arr = np.array(uniq, dtype=float)
        try:
            hull = ConvexHull(arr)
        except Exception:
            continue  # degenerate (lower-dimensional) cloud; scipy cannot be the oracle
        mine = Polytope.from_points(dim, uniq)
        oracle = sorted(tuple(Fraction(int(x)) for x in arr[i]) for i in hull.vertices)
        assert list(mine.vertices) == oracle


def _lp_in_hull(points, p):
    """Reference membership of p in conv(points): exact phase-1 LP feasibility."""
    if not points:
        return False
    a = mat([[q[i] for q in points] for i in range(len(p))] + [[1] * len(points)])
    return lp_feasible(a, vec(list(p) + [1]))


@st.composite
def flat_cloud(draw):
    """Integer points base + sum c_j g_j in R^n spanning at most k <= n directions.

    Covers single points, repeated points, collinear points and coplanar
    points in R^3 as well as full-dimensional clouds.
    """
    n = draw(st.integers(0, 4))
    k = draw(st.integers(0, min(n, 3)))
    coord = st.integers(-2, 2)
    base = draw(st.tuples(*[coord] * n))
    gens = draw(st.lists(st.tuples(*[coord] * n), min_size=k, max_size=k))
    coeffs = draw(st.lists(st.tuples(*[coord] * k), min_size=1, max_size=7))
    pts = [tuple(b + sum(c * g[i] for c, g in zip(cs, gens)) for i, b in enumerate(base))
           for cs in coeffs]
    pts += draw(st.lists(st.sampled_from(pts), max_size=2))      # repeats
    return n, [list(p) for p in pts]


@settings(max_examples=120, deadline=None)
@given(flat_cloud())
def test_extremality_and_membership_match_lp(cloud):
    """Extreme points and contains against the LP: a point is extreme exactly
    when it is not in the hull of the other distinct points."""
    n, pts = cloud
    uniq = sorted({tuple(Fraction(x) for x in p) for p in pts})
    oracle = [p for i, p in enumerate(uniq) if not _lp_in_hull(uniq[:i] + uniq[i + 1:], p)]
    poly = Polytope.from_points(n, pts)
    assert list(poly.vertices) == oracle
    if oracle == uniq:
        assert Polytope(n, uniq).vertices == tuple(uniq)
    else:
        first = next(p for p in uniq if p not in oracle)
        with pytest.raises(GeometryError, match=f"vertex {re.escape(str(first))} is not"):
            Polytope(n, uniq)
    bary = poly.barycenter()
    probes = list(poly.vertices) + [bary]
    for key, outward in poly.facets():
        mid = tuple(sum(v[j] for v in key) / len(key) for j in range(n))
        probes += [mid, tuple(m + x / 7 for m, x in zip(mid, outward))]
    for v in poly.vertices:
        probes.append(tuple(x + (x - b) / 5 for x, b in zip(v, bary)))  # just outside
        for e, _ in poly.affine_hull_equations():
            probes.append(tuple(x + y / 3 for x, y in zip(v, e)))        # off the hull
    for q in probes:
        assert poly.contains(q) == _lp_in_hull(poly.vertices, q), q


def test_cube_and_simplex_counts():
    """box_k has C(k, j) 2^(k-j) faces of dimension j, Delta_k has C(k+1, j+1)."""
    for k in range(1, 6):
        faces = box([(0, 1)] * k).faces()
        assert [len(faces[j]) for j in range(k + 1)] == [comb(k, j) * 2 ** (k - j)
                                                          for j in range(k + 1)]
        faces = standard_simplex(k).faces()
        assert [len(faces[j]) for j in range(k + 1)] == [comb(k + 1, j + 1)
                                                          for j in range(k + 1)]


def test_euler_relation_on_stock_shapes():
    for p in [interval(), box([(0, 1)] * 2), box([(0, 1)] * 3),
              standard_simplex(2), standard_simplex(3), octahedron()]:
        assert p.euler_characteristic() == 1


@settings(max_examples=25, deadline=None)
@given(st.lists(st.tuples(st.integers(-3, 3), st.integers(-3, 3)), min_size=3, max_size=7))
def test_euler_relation_random(pts):
    p = Polytope.from_points(2, [list(x) for x in set(pts)])
    assert p.euler_characteristic() == 1


def test_corner_types():
    sq = box([(0, 1)] * 2)
    vkey = face_key([[0, 0]])
    assert corner_type(sq, vkey) == "corner"           # 2 facets through a codim-2 vertex
    oc = octahedron()
    vkey = face_key([[1, 0, 0]])
    assert corner_type(oc, vkey) == "g-corner"         # 4 facets through a codim-3 vertex
    ekey = oc.faces()[1][0]
    assert corner_type(oc, ekey) == "corner"           # edges lie in exactly 2 facets
    cube = box([(0, 1)] * 3)
    assert corner_type(cube, face_key([[0, 0, 0]])) == "corner"
    assert corner_type(cube, cube.vertices) == "corner"  # the top face, in no facet


def test_minimal_face_containing():
    sq = box([(0, 1)] * 2)
    assert sq.minimal_face_containing([(Fraction(1, 2), Fraction(0))]) == face_key([[0, 0], [1, 0]])
    assert sq.minimal_face_containing([(Fraction(1, 2), Fraction(1, 2))]) == sq.vertices
    assert sq.minimal_face_containing([(Fraction(0), Fraction(0))]) == face_key([[0, 0]])
    assert sq.minimal_face_containing([]) == ()             # the meet of every facet
    assert POINT_POLYTOPE.minimal_face_containing([]) == POINT_POLYTOPE.vertices


def test_point_shape_is_checked():
    seg = Polytope(2, [[0, 0], [1, 0]])
    for bad in ([0], [0, 0, 0]):
        with pytest.raises(GeometryError, match="ambient_dim"):
            seg.contains(bad)
        with pytest.raises(GeometryError, match="ambient_dim"):
            seg.minimal_face_containing([bad])
        with pytest.raises(GeometryError, match="ambient_dim"):
            seg.tight_facets(bad)
    for outside in ((1, 3), (2, 0)):                        # off the affine hull, past a facet
        with pytest.raises(GeometryError, match="not contained"):
            seg.minimal_face_containing([outside])
        with pytest.raises(GeometryError, match="not contained"):
            seg.tight_facets(outside)
    assert seg.contains([1, 0]) and not seg.contains([1, 3])
    assert seg.minimal_face_containing([(1, 0)]) == face_key([[1, 0]])


def test_facet_inequalities_valid():
    for p in [box([(0, 1)] * 2), octahedron(), standard_simplex(2)]:
        for f, c, key in p.facet_inequalities():
            for v in p.vertices:
                val = sum(a * b for a, b in zip(f, v))
                assert val <= c
                assert (val == c) == (v in key)


# ---------------------------------------------------------------------------
# Orientations, boundary and the corner involution, on cells with s = 0
# ---------------------------------------------------------------------------

def test_orientation_frame_validation():
    sq = box([(0, 1)] * 2)
    with pytest.raises(GeometryError):
        Cell(sq, 0, [[1, 0]])                   # wrong frame length
    with pytest.raises(GeometryError):
        Cell(sq, 0, [[1, 0], [2, 0]])           # dependent frame
    p = interval()
    with pytest.raises(GeometryError):
        Cell(p, 0, [[1, 1]])                    # 2d vector for a 1d ambient


def test_orientation_equal_and_canonical():
    sq = box([(0, 1)] * 2)
    a = Cell(sq, 0, [[1, 0], [0, 1]], 1)
    b = Cell(sq, 0, [[0, 1], [1, 0]], 1)
    assert cell_orientation_equal(a, b) == -1
    assert cell_orientation_equal(a, b.reversed()) == 1
    c = Cell(sq, 0, [[1, 1], [0, 2]], 1)     # det 2 > 0 relative to standard
    assert cell_orientation_equal(a, c) == 1


def test_interval_boundary_signs():
    bd = cell_boundary(Cell(interval()))
    by_face = {bc.face: bc for bc in bd}
    plus = by_face[face_key([[1]])]
    minus = by_face[face_key([[0]])]
    assert plus.cell.sign == 1
    assert minus.cell.sign == -1


def test_square_boundary_signs():
    """Standard orientation: edges get +,-,-,+ in canonical frames (e2 or e1)."""
    sq = box([(0, 1)] * 2)
    bd = cell_boundary(Cell(sq, 0, [[1, 0], [0, 1]], 1))
    signs = {}
    for bc in bd:
        signs[bc.face] = bc.cell.sign
    left = face_key([[0, 0], [0, 1]])
    bottom = face_key([[0, 0], [1, 0]])
    top = face_key([[0, 1], [1, 1]])
    right = face_key([[1, 0], [1, 1]])
    assert signs[right] == 1 and signs[left] == -1
    assert signs[bottom] == 1 and signs[top] == -1


def test_second_boundary_pairing_square():
    sq = box([(0, 1)] * 2)
    flags = _flags(sq, [[1, 0], [0, 1]], 1)
    assert len(flags) == 8  # 4 vertices x 2 orderings
    for c in flags:
        partner = _sigma(c, flags)
        assert partner is not c
        assert _sigma(partner, flags) is c
        assert cell_orientation_equal(c.cell, partner.cell) == -1
    rep = check_sigma_pairing(flags)
    assert rep.ok and rep.corners_checked == 4


def test_second_boundary_pairing_octahedron():
    flags = _flags(octahedron())
    assert len(flags) == 24  # 12 edges x 2 orderings
    for c in flags:
        partner = _sigma(c, flags)
        assert cell_orientation_equal(c.cell, partner.cell) == -1
    rep = check_sigma_pairing(flags)
    assert rep.ok and rep.corners_checked == 12


def test_second_boundary_pairing_simplex_3d():
    flags = _flags(standard_simplex(3))
    assert len(flags) == 12  # 6 edges x 2
    for c in flags:
        assert cell_orientation_equal(_sigma(c, flags).cell, c.cell) == -1
    rep = check_sigma_pairing(flags)
    assert rep.ok and rep.corners_checked == 6


def test_boundary_of_boundary_face_multiset():
    """Codim-2 faces seen through facets' boundaries equal the second boundary flags."""
    cube = box([(0, 1)] * 3)
    seen = []
    for bc in cell_boundary(Cell(cube)):
        for bc2 in cell_boundary(bc.cell):
            seen.append((bc.face, bc2.face))
    # the flags' faces are vertex bitmasks over the cube's vertices
    def key(mask):
        return tuple(cube.vertices[i] for i in mask_bits(mask))
    flags = [(key(c.first_facet), key(c.corner)) for c in _flags(cube)]
    assert sorted(seen) == sorted(flags)


# ---------------------------------------------------------------------------
# Affine isomorphisms, against a brute force over all vertex permutations
# ---------------------------------------------------------------------------

def _affine_permutation_dets(p, q):
    """Sign of det of the linear part of every vertex bijection p -> q that is affine.

    A bijection v_i -> w_i is affine exactly when every affine dependency
    sum c_i (v_i, 1) = 0 of p's vertices also holds for the images w_i.
    p must be full-dimensional.
    """
    vs = [list(v) for v in p.vertices]
    deps = [[Fraction(int(c.p), int(c.q)) for c in n]
            for n in sympy.Matrix([v + [1] for v in vs]).T.nullspace()]
    dirs = sympy.Matrix([[a - b for a, b in zip(v, vs[0])] for v in vs[1:]])
    rows = list(dirs.T.rref()[1])
    dirs_det = dirs.extract(rows, list(range(p.dim))).det()
    signs = []
    for ws in itertools.permutations(q.vertices):
        if any(sum(c * w[j] for c, w in zip(dep, ws)) for dep in deps
               for j in range(q.ambient_dim)):
            continue
        wdirs = sympy.Matrix([[a - b for a, b in zip(w, ws[0])] for w in ws[1:]])
        d = wdirs.extract(rows, list(range(p.dim))).det() / dirs_det
        signs.append(1 if d > 0 else -1)
    return signs


@st.composite
def lattice_polytope_and_map(draw):
    d = draw(st.integers(1, 3))
    pts = draw(st.lists(st.tuples(*[st.integers(-2, 2)] * d), min_size=d + 1,
                        max_size=d + 3, unique=True))
    p = Polytope.from_points(d, [list(x) for x in pts])
    assume(p.dim == d and len(p.vertices) <= 6)
    a = draw(st.lists(st.lists(st.integers(-2, 2), min_size=d, max_size=d),
                      min_size=d, max_size=d))
    assume(sympy.Matrix(a).det() != 0)
    b = draw(st.lists(st.integers(-3, 3), min_size=d, max_size=d))
    return p, a, b


@settings(max_examples=25, deadline=None)
@given(lattice_polytope_and_map())
def test_affine_isomorphisms_match_brute_force(data):
    p, a, b = data
    d = p.dim
    q = Polytope.from_points(d, [[sum(a[i][j] * v[j] for j in range(d)) + b[i]
                                  for i in range(d)] for v in p.vertices])
    det_sign = 1 if sympy.Matrix(a).det() > 0 else -1
    const_p = constant_map(POINT, d, 0)
    signs = _affine_permutation_dets(p, q)
    assert det_sign in signs
    # over the point every affine bijection is an identification
    assert oriented_match(Cell(p), const_p, Cell(q), const_p) == max(signs)
    # the identity on p against x -> A^-1 (x - b) on q leaves only A itself
    inv = sympy.Matrix(a).inv()
    inv_a = [[Fraction(int(inv[i, j].p), int(inv[i, j].q)) for j in range(d)] for i in range(d)]
    inv_b = [-sum(inv_a[i][j] * b[j] for j in range(d)) for i in range(d)]
    ident = CellMap(euclid(d), [[int(i == j) for j in range(d)] for i in range(d)],
                    [()] * d, [0] * d)
    back = CellMap(euclid(d), inv_a, [()] * d, inv_b)
    assert oriented_match(Cell(p), ident, Cell(q), back) == det_sign
    # self-maps fixing a constant map and a constant label: all symmetries
    tag = Tag.from_atoms(p, {k: "x" for k in p.all_face_keys()})
    rep = aut_finite(Cell(p), const_p, tag)
    assert rep.verdict == "finite"
    assert len(rep.vertex_maps) == len(_affine_permutation_dets(p, p))
    # no bijection onto a vertex set of another size
    assert list(affine_isomorphisms(p, Polytope.from_points(d, [[0] * d]))) == []


# ---------------------------------------------------------------------------
# Vertex enumeration: facets against scipy, section_vertices against brute force
# ---------------------------------------------------------------------------

@st.composite
def lattice_cloud(draw):
    d = draw(st.integers(2, 4))
    pts = draw(st.lists(st.tuples(*[st.integers(-2, 2)] * d), min_size=d + 1,
                        max_size=d + 5, unique=True))
    return d, [list(x) for x in pts]


@settings(max_examples=40, deadline=None)
@given(lattice_cloud())
def test_facets_match_scipy_hull(cloud):
    d, pts = cloud
    p = Polytope.from_points(d, pts)
    assume(p.dim == d)
    hull = ConvexHull(np.array(pts, dtype=float))
    groups = {}
    for simplex, eq in zip(hull.simplices, hull.equations):
        plane = tuple(np.round(eq, 6) + 0.0)
        groups.setdefault(plane, set()).update(tuple(pts[i]) for i in simplex)
    oracle = sorted(tuple(sorted(g)) for g in groups.values())
    mine = sorted(tuple(tuple(int(x) for x in v) for v in key) for key, _ in p.facets())
    assert mine == oracle


def _brute_section_vertices(n, equations, inequalities):
    """Every q-subset of inequalities completing the equations to rank n, solved."""
    e_rows = [tuple(row) for row, _ in equations]
    q = n - rank(e_rows) if e_rows else n
    found = set()
    for sub in itertools.combinations(inequalities, q):
        rows = e_rows + [tuple(f) for f, _ in sub]
        if rows and rank(rows) < n:
            continue
        x = solve(tuple(rows), tuple(c for _, c in list(equations) + list(sub)))
        if x is not None and all(sum(a * b for a, b in zip(f, x)) <= c
                                 for f, c in inequalities):
            found.add(x)
    return found


@st.composite
def section_system(draw):
    n = draw(st.integers(0, 3))
    row = st.tuples(*[st.integers(-2, 2)] * n)
    rhs = st.fractions(-3, 3, max_denominator=2)
    equations = draw(st.lists(st.tuples(row, rhs), max_size=2))
    box_rows = [(tuple(s if j == i else 0 for j in range(n)), Fraction(2))
                for i in range(n) for s in (1, -1)] if draw(st.booleans()) else []
    inequalities = box_rows + draw(st.lists(st.tuples(row, rhs),
                                            max_size=3 if box_rows else 6))
    return n, equations, inequalities


@settings(max_examples=80, deadline=None)
@given(section_system(), st.data())
def test_section_vertices_match_brute_force(system, data):
    """Bounded systems, and without the box rows unbounded ones and ones with a
    lineality space (no vertex).  The same system given as Fraction rows, or
    as integer rows each times a positive integer, gives the same vertices
    and masks in the same order."""
    n, equations, inequalities = system
    found = section_vertices(n, equations, inequalities)
    got = [v for v, _ in found]
    assert len(got) == len(set(got))
    assert set(got) == _brute_section_vertices(n, equations, inequalities)
    for v, tight in found:
        assert tight == sum(1 << i for i, (f, c) in enumerate(inequalities)
                            if sum(a * x for a, x in zip(f, v)) == c)

    def as_fractions(rows):
        return [(tuple(Fraction(x) for x in f), Fraction(c)) for f, c in rows]

    def as_integers(rows):
        out = []
        for f, c in rows:
            k = data.draw(st.integers(1, 4)) * lcm(*(Fraction(x).denominator for x in (*f, c)))
            out.append((tuple(int(x * k) for x in f), int(c * k)))
        return out

    assert section_vertices(n, as_fractions(equations), as_fractions(inequalities)) == found
    assert section_vertices(n, as_integers(equations), as_integers(inequalities)) == found


def _section_points(n, equations, inequalities):
    return [v for v, _ in section_vertices(n, equations, inequalities)]


def test_section_vertices_small_cases():
    assert _section_points(0, [], []) == [()]
    assert _section_points(0, [((), 0)], [((), 1)]) == [()]
    assert _section_points(0, [((), 1)], []) == []                 # inconsistent
    assert _section_points(0, [], [((), -1)]) == []                # 0 <= -1 fails
    square = [((1, 0), 1), ((-1, 0), 0), ((0, 1), 1), ((0, -1), 0)]
    assert sorted(_section_points(2, [], square)) == [(0, 0), (0, 1), (1, 0), (1, 1)]
    assert _section_points(2, [((1, 0), 2)], square) == []          # x = 2 misses it
    assert sorted(_section_points(2, [((1, -1), 0)], square)) == [(0, 0), (1, 1)]
    for k in (2, 3, 4, 5):                  # polar of box_k: each vertex on 2^(k-1) rows
        polar = [(v, 1) for v in itertools.product((1, -1), repeat=k)]
        cross = [tuple(sgn * (i == j) for j in range(k)) for i in range(k) for sgn in (1, -1)]
        assert sorted(_section_points(k, [], polar)) == sorted(cross)
    pyramid = [((0, 0, -1), 0), ((-2, 0, 1), 0), ((2, 0, 1), 2), ((0, -2, 1), 0), ((0, 2, 1), 2)]
    assert sorted(_section_points(3, [], pyramid)) == [
        (0, 0, 0), (0, 1, 0), (Fraction(1, 2), Fraction(1, 2), 1), (1, 0, 0), (1, 1, 0)]


# ---------------------------------------------------------------------------
# Face lattice against scipy facets, and sections against hulls of their points
# ---------------------------------------------------------------------------

@st.composite
def embedded_lattice_hull(draw):
    """Lattice points in Z^k (k = 1..4), placed in R^n (n = k..4) by x = (c, B c) + s."""
    k = draw(st.integers(1, 4))
    n = draw(st.integers(k, 4))
    coeffs = draw(st.lists(st.tuples(*[st.integers(-2, 2)] * k), min_size=k + 1,
                           max_size=k + 4, unique=True))
    extra = draw(st.lists(st.lists(st.integers(-2, 2), min_size=k, max_size=k),
                          min_size=n - k, max_size=n - k))
    shift = draw(st.lists(st.integers(-3, 3), min_size=n, max_size=n))
    pts = [list(c) + [sum(b * x for b, x in zip(row, c)) for row in extra] for c in coeffs]
    subsets = draw(st.lists(st.lists(st.integers(0, 20), min_size=1, max_size=3),
                            min_size=1, max_size=3))
    return k, coeffs, [[x + t for x, t in zip(p, shift)] for p in pts], shift, subsets


def _oracle_facets(k, coeffs):
    """Facets of conv(coeffs) in Z^k as sets of extreme points, from scipy."""
    if k == 1:
        return [{min(coeffs)}, {max(coeffs)}]
    hull = ConvexHull(np.array(coeffs, dtype=float))
    extreme = [coeffs[i] for i in hull.vertices]
    facets = {frozenset(c for c in extreme if abs(np.dot(eq[:-1], c) + eq[-1]) < 1e-9)
              for eq in hull.equations}
    return [set(f) for f in facets]


@settings(max_examples=40, deadline=None)
@given(embedded_lattice_hull())
def test_face_lattice_matches_facet_intersections(data):
    k, coeffs, pts, shift, subsets = data
    assume(np.linalg.matrix_rank(np.array([np.subtract(c, coeffs[0]) for c in coeffs])) == k)
    p = Polytope.from_points(len(shift), pts)
    back = {v: tuple(int(x - t) for x, t in zip(v[:k], shift)) for v in p.vertices}
    facets = _oracle_facets(k, coeffs)
    everything = frozenset(back.values())
    assert set().union(*facets) == everything
    closure = {frozenset(f) for f in facets}
    while True:
        more = {a & b for a in closure for b in closure if a & b} - closure
        if not more:
            break
        closure |= more
    got = {}
    for d, keys in p.faces().items():
        for key in keys:
            face = frozenset(back[v] for v in key)
            got[face] = d
            assert np.linalg.matrix_rank(np.array([np.subtract(c, next(iter(face)))
                                                   for c in face])) == d
    assert set(got) == closure | {everything}
    fd = p._fd
    assert ([(d, fd.key(g)) for g, d in fd.face_dims().items()]
            == [(d, key) for d, keys in p.faces().items() for key in keys])
    ineqs = p.facet_inequalities()
    for point in p.vertices + (p.barycenter(),):
        assert p.tight_facets(point) == sum(
            1 << i for i, (f, c, _) in enumerate(ineqs)
            if sum(a * x for a, x in zip(f, point)) == c)
    for subset in subsets:
        support = [p.vertices[i % len(p.vertices)] for i in subset]
        point = tuple(sum(v[j] for v in support) / len(support) for j in range(len(shift)))
        used = {back[v] for v in support}
        expected = everything.intersection(*[f for f in facets if used <= f])
        got_face = p.minimal_face_containing([point, support[0]])
        assert {back[v] for v in got_face} == expected


@st.composite
def lattice_section(draw):
    """Two lattice polytopes and affine equations through a point of their product."""
    polys = []
    for _ in range(2):
        d = draw(st.integers(0, 3))
        pts = draw(st.lists(st.tuples(*[st.integers(-2, 2)] * d), min_size=1, max_size=6,
                            unique=True))
        polys.append(Polytope.from_points(d, [list(x) for x in pts]))
    p1, p2 = polys
    n = p1.ambient_dim + p2.ambient_dim
    v = draw(st.sampled_from(p1.vertices)) + draw(st.sampled_from(p2.vertices))
    w = draw(st.sampled_from(p1.vertices)) + draw(st.sampled_from(p2.vertices))
    anchor = [(a + b) / 2 for a, b in zip(v, w)]
    rows = draw(st.lists(st.tuples(*[st.integers(-2, 2)] * n), max_size=2))
    return p1, p2, [(row, sum(a * x for a, x in zip(row, anchor))) for row in rows]


@settings(max_examples=60, deadline=None)
@given(lattice_section())
def test_sections_are_hulls_of_their_vertices(data):
    """Slices and cuts are built from the kernel's vertices without a hull check."""
    p1, p2, equations = data
    n1 = p1.ambient_dim
    for got in (_slice_polytope(p1, p2, equations)[0],
                cut_by_equations(p1, [(row[:n1], rhs) for row, rhs in equations
                                      if not any(row[n1:])])):
        assert got is not None          # every equation holds at a point of the product
        assert Polytope.from_points(got.ambient_dim, got.vertices) == got
        for row, rhs in equations:
            if got.ambient_dim == len(row):
                assert all(sum(a * x for a, x in zip(row, v)) == rhs for v in got.vertices)



# ---------------------------------------------------------------------------
# Inherited face data against a cold polar enumeration
# ---------------------------------------------------------------------------

def _assert_matches_cold(poly):
    """The polytope's facets and facet masks equal a fresh cold enumeration's."""
    cold = _FaceData(poly.ambient_dim, poly.vertices)
    assert poly.facets() == cold.keyed_facets()
    assert poly._fd.facet_masks == cold.facet_masks


@settings(max_examples=40, deadline=None)
@given(embedded_lattice_hull())
def test_inherited_faces_match_cold_enumeration(data):
    """Every face of a lattice hull of dimension 1-4, inherited from the hull."""
    _, _, pts, shift, _ = data
    p = Polytope.from_points(len(shift), pts)
    for g in p._fd.face_dims():
        inherited = _FaceData(p.ambient_dim, p._fd.key(g))
        inherited.inherit_face(p._fd, g)
        cold = _FaceData(p.ambient_dim, p._fd.key(g))
        assert inherited.keyed_facets() == cold.keyed_facets()
        assert inherited.facet_masks == cold.facet_masks
        _assert_matches_cold(p.face_from_mask(g))


@settings(max_examples=60, deadline=None)
@given(lattice_section())
def test_inherited_sections_match_cold_enumeration(data):
    """Slices and cuts take their facets from the kernel's tight rows; the
    rows tight at a slice vertex are the factors' tight facets there, and
    the slice's face pairs are the tight-mask walk's."""
    p1, p2, equations = data
    n1 = p1.ambient_dim
    geometry._face_data.cache_clear()
    poly, pairs = _slice_polytope(p1, p2, equations)
    _assert_matches_cold(poly)
    section, tight = product_section(p1, p2, equations)
    assert section == poly
    k1 = len(p1.facets())
    assert tight == [p1.tight_facets(v[:n1]) | p2.tight_facets(v[n1:]) << k1
                     for v in poly.vertices]
    assert list(pairs.items()) == list(tight_face_pairs(poly, tight, p1, p2).items())
    geometry._face_data.cache_clear()
    cut = cut_by_equations(p1, [(row[:n1], rhs) for row, rhs in equations
                                if not any(row[n1:])])
    _assert_matches_cold(cut)


@settings(max_examples=80, deadline=None)
@given(flat_cloud(), st.lists(st.lists(st.integers(0, 20), min_size=2, max_size=3),
                              max_size=3))
def test_inherited_hulls_match_cold_enumeration(cloud, mixes):
    """from_points with repeated points and with interior points (averages of
    drawn points) gives its hull the point set's facets."""
    n, pts = cloud
    pts += [[sum(Fraction(pts[i % len(pts)][j]) for i in mix) / len(mix) for j in range(n)]
            for mix in mixes]
    geometry._face_data.cache_clear()
    _assert_matches_cold(Polytope.from_points(n, pts))


def test_section_polytope_facets_from_rows():
    square = [((1, 0), 1), ((-1, 0), 0), ((0, 1), 1), ((0, -1), 0), ((1, 1), 2)]
    poly, tight = section_polytope(2, [], square)
    assert poly == box([(0, 1)] * 2)
    assert tight == [0b1010, 0b0110, 0b1001, 0b10101]    # the last row holds at (1, 1)
    assert section_polytope(2, [((1, 0), 2)], square) is None
    _assert_matches_cold(poly)


def test_face_polytope_refuses_non_faces():
    square = box([(0, 1)] * 2)
    assert square.face_polytope(((0, 0), (1, 0))) == Polytope(2, [[0, 0], [1, 0]])
    assert square.face_polytope(square.vertices) == square
    for bad in (((0, 0), (5, 5)),            # not a vertex
                ((0, 0), (1, 1)),            # a diagonal, not a face
                ((0, 0), (0, 0)),            # a repeated vertex
                ()):                         # the empty set
        with pytest.raises(GeometryError, match="not a face"):
            square.face_polytope(bad)
    with pytest.raises(GeometryError, match="not a face"):
        square.face_from_mask(0b1001)


# ---------------------------------------------------------------------------
# The integer kernels against the Fraction formulas they replaced
# ---------------------------------------------------------------------------

def _fraction_section_vertices(n, equations, inequalities):
    """section_vertices with its set-up and back-substitution in Fractions:
    x = x0 + sum y_i k_i over kernel_basis, rows g . y <= h by Fraction dot
    products, and each vertex x0 + sum (v_i / t) k_i."""
    if equations:
        e = mat(row for row, _ in equations)
        x0 = solve(e, vec(c for _, c in equations))
        if x0 is None:
            return []
        basis = kernel_basis(e)
        rows = [(tuple(dot(f, k) for k in basis), frac(d) - dot(f, x0))
                for f, d in inequalities]
    else:
        basis = None
        rows = [(vec(f), frac(d)) for f, d in inequalities]
    q = n if basis is None else len(basis)
    found = []
    for v, t, z in geometry._cone_vertices(q, _primitive_rows([g + (-h,) for g, h in rows])):
        y = [Fraction(a, t) for a in v]
        found.append((tuple(y) if basis is None else tuple(
            x0[j] + sum(y[i] * basis[i][j] for i in range(q)) for j in range(n)), z))
    return found


def _fraction_local_matrix(fd):
    """(D D^T)^{-1} D for D = dir_basis, one Gram solve per row."""
    d = fd.dir_basis
    gram = mat([[dot(r1, r2) for r2 in d] for r1 in d])
    ginv = [solve(gram, vec(int(j == i) for j in range(len(d)))) for i in range(len(d))]
    return tuple(tuple(sum(ginv[i][k] * d[k][j] for k in range(len(d)))
                       for j in range(fd.ambient_dim)) for i in range(len(d)))


def _fraction_facet_inequalities(p):
    """Each facet's outward vector read back through the local matrix, its
    largest value on the vertices, and the vertices taking it."""
    lm = _fraction_local_matrix(p._fd)
    out = []
    for key, outward in p.facets():
        local_out = matvec(lm, outward)
        f = tuple(sum(local_out[i] * lm[i][j] for i in range(len(lm)))
                  for j in range(p.ambient_dim))
        c = max(dot(f, v) for v in p.vertices)
        assert tuple(sorted(v for v in p.vertices if dot(f, v) == c)) == key
        out.append((f, c, key))
    return out


def _rational(draw, ints):
    """The integers over denominators drawn from 2..5, one per entry."""
    return [Fraction(x, draw(st.integers(2, 5))) for x in ints]


@st.composite
def dependent_section_system(draw):
    """Up to four rational equations in R^1..R^4, some of them combinations
    of the others (consistent or not), so that free columns sit between the
    pivots, and a box cut by up to three more rows."""
    n = draw(st.integers(1, 4))
    row = st.lists(st.integers(-3, 3), min_size=n, max_size=n)
    equations = []
    for _ in range(draw(st.integers(0, 4))):
        if equations and draw(st.booleans()):
            (r1, c1), (r2, c2) = draw(st.sampled_from(equations)), draw(st.sampled_from(equations))
            a, b = draw(st.integers(-2, 2)), draw(st.integers(-2, 2))
            shift = Fraction(draw(st.sampled_from((0, 0, 1))), 2)
            equations.append((tuple(a * x + b * y for x, y in zip(r1, r2)), a * c1 + b * c2 + shift))
        else:
            equations.append((tuple(_rational(draw, draw(row))),
                              _rational(draw, [draw(st.integers(-6, 6))])[0]))
    box_rows = [(tuple(Fraction(s) if j == i else 0 for j in range(n)), Fraction(2))
                for i in range(n) for s in (1, -1)]
    inequalities = box_rows + [(tuple(_rational(draw, draw(row))),
                                _rational(draw, [draw(st.integers(-6, 6))])[0])
                               for _ in range(draw(st.integers(0, 3)))]
    return n, equations, inequalities


@st.composite
def rational_section_system(draw):
    n = draw(st.integers(0, 3))
    row = st.lists(st.integers(-3, 3), min_size=n, max_size=n)
    entry = st.integers(-6, 6)

    def rational_row():
        return tuple(_rational(draw, draw(row))), _rational(draw, [draw(entry)])[0]

    equations = [rational_row() for _ in range(draw(st.integers(0, 2)))]
    box_rows = [(tuple(Fraction(s, 2) if j == i else 0 for j in range(n)), Fraction(5, 3))
                for i in range(n) for s in (1, -1)] if draw(st.booleans()) else []
    inequalities = box_rows + [rational_row()
                               for _ in range(draw(st.integers(0, 3 if box_rows else 6)))]
    return n, equations, inequalities


@settings(max_examples=120, deadline=None)
@given(st.one_of(rational_section_system(), dependent_section_system()))
def test_section_vertices_match_fraction_formulas(system):
    """The same vertices, in the same order, with the same tight masks, as
    solve and kernel_basis give them."""
    n, equations, inequalities = system
    got = section_vertices(n, equations, inequalities)
    assert repr(got) == repr(_fraction_section_vertices(n, equations, inequalities))
    assert {v for v, _ in got} == _brute_section_vertices(n, equations, inequalities)


@st.composite
def rational_hull(draw):
    """Points (c, B c) / d + s / d0 in R^n, c in Z^k (k = 1..3, n = k..4), every
    denominator d, d0 drawn from 2..5; and a hyperplane through the barycenter."""
    k = draw(st.integers(1, 3))
    n = draw(st.integers(k, 4))
    coeffs = draw(st.lists(st.tuples(*[st.integers(-3, 3)] * k), min_size=k + 1,
                           max_size=k + 4, unique=True))
    extra = draw(st.lists(st.lists(st.integers(-2, 2), min_size=k, max_size=k),
                          min_size=n - k, max_size=n - k))
    shift = _rational(draw, draw(st.lists(st.integers(-3, 3), min_size=n, max_size=n)))
    pts = []
    for c in coeffs:
        d = draw(st.integers(2, 5))
        full = list(c) + [sum(b * x for b, x in zip(row, c)) for row in extra]
        pts.append([Fraction(x, d) + t for x, t in zip(full, shift)])
    normal = draw(st.lists(st.integers(-2, 2), min_size=n, max_size=n))
    return Polytope.from_points(n, pts), normal


def _faces_and_slice(p, normal):
    """p, every face of p, and p cut by normal . x = normal . barycenter."""
    shapes = [p] + [p.face_from_mask(g) for g in p._fd.face_dims()]
    bary = p.barycenter()
    cut = cut_by_equations(p, [(tuple(normal), dot(vec(normal), bary))])
    return shapes + [cut] if cut is not None else shapes


@settings(max_examples=60, deadline=None)
@given(rational_hull())
def test_facet_inequalities_match_fraction_formulas(data):
    """Rational hulls, their faces and their slices: the same triples."""
    p, normal = data
    for shape in _faces_and_slice(p, normal):
        assert repr(shape.facet_inequalities()) == repr(_fraction_facet_inequalities(shape))
        assert shape._fd.local_matrix() == _fraction_local_matrix(shape._fd)


def _probes(p):
    """Vertices, the barycenter, midpoints of vertex pairs, points beyond each
    vertex and points off the affine hull."""
    bary = p.barycenter()
    vs = list(p.vertices)
    pts = vs + [bary] + [tuple((a + b) / 2 for a, b in zip(u, w)) for u, w in zip(vs, vs[1:])]
    pts += [tuple(2 * a - b for a, b in zip(v, bary)) for v in vs]
    pts += [tuple(b + Fraction(int(i == j), 3) for i, b in enumerate(bary))
            for j in range(p.ambient_dim)]
    return pts


@settings(max_examples=60, deadline=None)
@given(rational_hull())
def test_membership_matches_fraction_formulas(data):
    """contains and tight_facets against Fraction dot products with the
    hull's equations and the facet inequalities."""
    p, normal = data
    for shape in _faces_and_slice(p, normal):
        ineqs = _fraction_facet_inequalities(shape)
        for q in _probes(shape):
            inside = (all(dot(e, q) == c for e, c in shape.affine_hull_equations())
                      and all(dot(f, q) <= c for f, c, _ in ineqs))
            assert shape.contains(q) == inside
            if inside:
                assert shape.tight_facets(q) == sum(
                    1 << i for i, (f, c, _) in enumerate(ineqs) if dot(f, q) == c)
            else:
                with pytest.raises(GeometryError, match="not contained"):
                    shape.tight_facets(q)


# ---------------------------------------------------------------------------
# The hull origin: the point of the affine hull whose free coordinates are 0
# ---------------------------------------------------------------------------

@st.composite
def placed_rational_hull(draw, max_dim=3):
    """A rational lattice hull of dimension at most k (k = 0..max_dim) in R^n
    (n = max(k, 1)..4): points (c, B c) + s, c in Z^k, B and s rational, with
    the coordinates permuted, so any coordinates may be the hull's pivots.
    Most draws are lower-dimensional than R^n."""
    k = draw(st.integers(0, max_dim))
    n = draw(st.integers(max(k, 1), 4))
    # k + 1 to k + 3 distinct points of {-2..2}^k, as a prefix of a random
    # permutation of them (Fisher-Yates, one draw per point): no rejection
    coeffs = list(itertools.product(range(-2, 3), repeat=k))
    size = min(draw(st.integers(k + 1, k + 3)), len(coeffs))
    for i in range(size):
        j = draw(st.integers(i, len(coeffs) - 1))
        coeffs[i], coeffs[j] = coeffs[j], coeffs[i]
    coeffs = coeffs[:size]
    extra = [_rational(draw, draw(st.lists(st.integers(-3, 3), min_size=k, max_size=k)))
             for _ in range(n - k)]
    shift = _rational(draw, draw(st.lists(st.integers(-3, 3), min_size=n, max_size=n)))
    perm = draw(st.permutations(range(n)))
    pts = []
    for c in coeffs:
        full = [x + t for x, t in zip(list(c) + [dot(row, c) for row in extra], shift)]
        pts.append([full[j] for j in perm])
    return Polytope.from_points(n, pts)


@settings(max_examples=100, deadline=None)
@given(placed_rational_hull())
def test_hull_origin_is_the_hull_point_with_free_coordinates_zero(p):
    """The chart's origin and directions against hull_equations and the
    vertices: den v = origin + sum_c v_c w_c on integers for every vertex,
    with the origin 0 at every free coordinate and w_c equal to den at c and
    0 at the other free coordinates."""
    fd = p._fd
    den, dirs, origin = fd.hull_chart()
    assert den >= 1 and all(type(x) is int and x != 0 for _, x in origin)
    assert [j for j, _ in origin] == sorted({j for j, _ in origin})
    free = [c for c, _ in dirs]
    assert free == sorted(set(free))
    assert all(w[0] == (c, den) and all(j not in free and type(x) is int and x != 0
                                        for j, x in w[1:])
               and [j for j, _ in w[1:]] == sorted({j for j, _ in w[1:]})
               for c, w in dirs)
    p0 = [0] * p.ambient_dim
    for j, x in origin:
        p0[j] = x
    assert all(p0[c] == 0 for c in free)
    assert all(dot(e, p0) == c * den for e, c in fd.hull_equations())
    # every vertex is the origin plus its free coordinates along the
    # directions, all times den; over the lattice's denominator s, den / s
    # is an integer and so is each sum
    xs, s = fd.lattice()
    assert den % s == 0
    for x in xs:
        point = [den // s * xj for xj in x]
        for c, w in dirs:
            for j, y in w:
                assert x[c] * y % s == 0
                point[j] -= x[c] * y // s
        assert point == p0
    if p.dim == p.ambient_dim:
        assert origin == () and free == list(range(p.ambient_dim))
    if p.dim == 0:
        assert dirs == () and [Fraction(x, den) for x in p0] == list(p.vertices[0])


def _kernel_equations(fd):
    """The hull's equations by elimination: a kernel basis of dir_basis, or
    the unit vectors for a point."""
    n, d = fd.ambient_dim, fd.dir_basis
    if not d:
        return [tuple(Fraction(int(i == j)) for j in range(n)) for i in range(n)]
    return list(kernel_basis(mat(d)))


@settings(max_examples=150, deadline=None)
@given(st.one_of(placed_rational_hull(), flat_cloud().map(lambda c: Polytope.from_points(*c))))
def test_hull_equations_are_the_kernel_of_dir_basis(p):
    """hull_equations, read off the rref dir_basis, against a kernel_basis
    elimination of it (the unit vectors for a point), entry for entry."""
    fd = _FaceData(p.ambient_dim, p.vertices)
    v0 = p.vertices[0]
    assert repr(fd.hull_equations()) == repr([(e, dot(e, v0)) for e in _kernel_equations(fd)])


# ---------------------------------------------------------------------------
# Faces reuse their parent's data: against cold face data and two eliminations
# ---------------------------------------------------------------------------

def _two_elimination_chart(fd):
    """(directions, origin) of the hull by the reference formula, in
    Fractions: the hull's equations are a kernel basis of dir_basis, the
    free coordinates are the non-pivots of their rref, w_c is e_c minus
    column c of the rref at the pivots, and the origin is v0 - sum_c v0_c
    w_c, by its nonzero entries."""
    n = fd.ambient_dim
    eqs = _kernel_equations(fd)
    red, piv = rref(mat(eqs)) if eqs else ((), ())
    dirs = [(c, ((c, Fraction(1)),) + tuple((p, -row[c]) for row, p in zip(red, piv) if row[c]))
            for c in range(n) if c not in piv]
    p0 = list(fd.vertices[0])
    for c, w in dirs:
        x0 = fd.vertices[0][c]
        for j, x in w:
            p0[j] -= x0 * x
    return dirs, tuple((j, x) for j, x in enumerate(p0) if x)


def _chart_values(fd):
    """hull_chart() read as Fractions x / den, in the reference's shape."""
    den, dirs, origin = fd.hull_chart()
    return ([(c, tuple((j, Fraction(x, den)) for j, x in w)) for c, w in dirs],
            tuple((j, Fraction(x, den)) for j, x in origin))


@pytest.mark.parametrize("points, chart", [
    # a point: no direction, and the origin is the point itself
    ([(Fraction(1, 2), 0, Fraction(-2, 3))], (6, (), ((0, 3), (2, -4)))),
    # a full-dimensional box: w_c = e_c and the origin is 0
    (list(itertools.product((0, Fraction(1, 2)), (0, Fraction(1, 3)))),
     (6, ((0, ((0, 6),)), (1, ((1, 6),))), ())),
    # a segment in R^3 along (2, 3, 4), free at coordinate 2 with pivot 4,
    # whose vertices have denominator 30: w_2 = (1/2, 3/4, 1) and the origin
    # (2/5, 11/60, 0), over 30 * 4
    ([(Fraction(1, 2), Fraction(1, 3), Fraction(1, 5)),
      (Fraction(5, 2), Fraction(10, 3), Fraction(21, 5))],
     (120, ((2, ((2, 120), (0, 60), (1, 90))),), ((0, 48), (1, 22)))),
], ids=["point", "box", "rational-segment"])
def test_hull_chart_of_a_point_a_box_and_a_rational_segment(points, chart):
    p = Polytope.from_points(len(points[0]), points)
    assert p._fd.hull_chart() == chart
    assert _chart_values(p._fd) == _two_elimination_chart(p._fd)


def _faces_reached(poly):
    """Every face reached from poly through face() on its face masks and
    through facet_cells, recursively, down to the vertices."""
    reached = [poly._fd.face(g) for g in poly._fd.face_dims()]
    stack = [poly]
    while stack:
        p = stack.pop()
        reached.append(p)
        stack.extend(fp for fp, _ in p._fd.facet_cells())
    return reached


@settings(max_examples=60, deadline=None)
@given(placed_rational_hull(max_dim=4))
def test_faces_inherit_the_lattice_and_chart_of_a_cold_enumeration(p):
    """A face built by face() takes its lattice from its parent's and its
    chart from one reduction: the lattice must equal what face data built
    from scratch, outside the cache, gives, and the chart, by value, what
    the two-elimination reference gives."""
    geometry._face_data.cache_clear()
    p = Polytope.from_points(p.ambient_dim, p.vertices)
    for face in _faces_reached(p):
        fd = face._fd
        cold = _FaceData(face.ambient_dim, face.vertices)
        assert list(fd.face_dims().items()) == list(cold.face_dims().items())
        assert list(fd.faces_by_dim().items()) == list(cold.faces_by_dim().items())
        assert fd.keyed_facets() == cold.keyed_facets() and fd.facet_masks == cold.facet_masks
        assert _chart_values(fd) == _two_elimination_chart(cold)


# ---------------------------------------------------------------------------
# Equation-free slices are products, built from the factors' face data
# ---------------------------------------------------------------------------

def _product_snapshot(poly, pairs):
    fd = poly._fd
    return (poly.vertices, list(pairs.items()), fd.facet_masks, fd.functionals,
            list(fd.face_dims().items()))


def _assert_product_matches_section(p1, p2):
    """_slice_polytope(p1, p2, []) against section_polytope on the rows of
    P1 x P2, each with fresh product face data: the face pairs read off the
    product's lattice against the tight-mask walk, and the lattice against
    a cold walk too, order included."""
    geometry._face_data.cache_clear()
    got = _product_snapshot(*_slice_polytope(p1, p2, []))
    geometry._face_data.cache_clear()
    poly, tight = product_section(p1, p2, [])
    want = _product_snapshot(poly, tight_face_pairs(poly, tight, p1, p2))
    assert got == want
    n = p1.ambient_dim + p2.ambient_dim
    assert got[4] == list(_FaceData(n, got[0]).face_dims().items())


@settings(max_examples=60, deadline=None)
@given(placed_rational_hull(max_dim=2), placed_rational_hull(max_dim=2))
def test_equation_free_slice_matches_section_polytope(p1, p2):
    _assert_product_matches_section(p1, p2)


@pytest.mark.parametrize("p1, p2", [
    (POINT_POLYTOPE, POINT_POLYTOPE),
    (POINT_POLYTOPE, box([(0, 1)] * 2)),
    (Polytope(2, [[0, 0], [1, 1]]), Polytope(1, [[Fraction(1, 2)]])),    # point in R^1
    (Polytope(2, [[0, 0], [1, 1]]), Polytope(2, [[0, 1], [2, 0]])),      # two segments in R^2
    (box([(0, 1)] * 2), Polytope(2, [[0, 0], [2, 0], [0, 1]])),
])
def test_equation_free_slice_matches_section_polytope_examples(p1, p2):
    _assert_product_matches_section(p1, p2)


def test_equation_free_slice_runs_no_double_description(monkeypatch):
    """Square x triangle: with the factors' facets built, the slice, its
    facets and its face lattice come with no _cone_vertices call; a slice
    with an equation still runs one."""
    geometry._face_data.cache_clear()
    square, triangle = box([(0, 1)] * 2), Polytope.from_points(2, [[0, 0], [2, 0], [0, 1]])
    for p in (square, triangle):
        p.facets()
    calls = []
    cone_vertices = geometry._cone_vertices
    monkeypatch.setattr(geometry, "_cone_vertices",
                        lambda *args: calls.append(args) or cone_vertices(*args))
    prism, pairs = _slice_polytope(square, triangle, [])
    assert len(prism.vertices) == 12
    assert len(prism.facets()) == 4 + 3
    assert len(prism._fd.face_dims()) == 9 * 7
    assert list(pairs) == list(prism._fd.face_dims())
    assert calls == []
    assert _slice_polytope(square, triangle, [((1, 0, 0, 0), Fraction(1, 2))]) is not None
    assert calls


# ---------------------------------------------------------------------------
# Face data keeps the faces and the hulls it built
# ---------------------------------------------------------------------------

@settings(max_examples=60, deadline=None)
@given(placed_rational_hull(max_dim=4))
def test_face_slot_returns_the_face_built_cold(p):
    """face(mask) builds each face once; the kept face equals one built from
    a fresh face data of its vertex tuple, and face_from_mask still refuses
    a vertex set that is no face."""
    fd = p._fd
    faces = fd.face_dims()
    for g in faces:
        face = fd.face(g)
        assert fd.face(g) is face
        assert p.face_from_mask(g) is face
        cold = _FaceData(p.ambient_dim, fd.key(g))
        assert face.vertices == cold.vertices
        assert face.facets() == cold.keyed_facets()
        assert list(face._fd.face_dims().items()) == list(cold.face_dims().items())
        assert ([(fp.vertices, sign) for fp, sign in face._fd.facet_cells()]
                == [(fp.vertices, sign) for fp, sign in cold.facet_cells()])
    for mask in range(1 << len(p.vertices)):
        if mask not in faces:
            with pytest.raises(GeometryError, match="not a face"):
                p.face_from_mask(mask)


def test_from_points_keeps_the_hull_of_a_point_set(monkeypatch):
    """A second from_points on a point set with interior points returns the
    first call's hull, with no double description and no extremality walk."""
    geometry._face_data.cache_clear()
    pts = [[0, 0, 0], [2, 0, 0], [0, 2, 0], [0, 0, 2], [1, 1, 0], [1, 0, 0],
           [Fraction(1, 2)] * 3]
    first = Polytope.from_points(3, pts)
    snapshot = (first.vertices, first.facets(), list(first._fd.face_dims().items()))
    assert len(first.vertices) == 4
    calls = []
    cone_vertices, vertex_facets = geometry._cone_vertices, geometry._vertex_facets
    monkeypatch.setattr(geometry, "_cone_vertices",
                        lambda *args: calls.append(args) or cone_vertices(*args))
    monkeypatch.setattr(geometry, "_vertex_facets",
                        lambda *args: calls.append(args) or vertex_facets(*args))
    second = Polytope.from_points(3, pts[::-1])
    assert (second.vertices, second.facets(), list(second._fd.face_dims().items())) == snapshot
    assert second._fd is first._fd
    assert calls == []


# ---------------------------------------------------------------------------
# The integer face data against Fraction reference formulas
# ---------------------------------------------------------------------------

@st.composite
def point_set_with_interior_points(draw):
    """(n, points): rational points (c, B c) + s in R^n (n = 0..5) over k + 1
    to k + 3 distinct c in {-2..2}^k (k = 0..min(n, 3)), coordinates permuted,
    with up to two midpoints of drawn points, which are not extreme; flat
    whenever k < n."""
    n = draw(st.integers(0, 5))
    k = draw(st.integers(0, min(n, 3)))
    coeffs = draw(st.lists(st.tuples(*[st.integers(-2, 2)] * k),
                           min_size=k + 1, max_size=k + 3, unique=True))
    extra = [_rational(draw, draw(st.lists(st.integers(-3, 3), min_size=k, max_size=k)))
             for _ in range(n - k)]
    shift = _rational(draw, draw(st.lists(st.integers(-3, 3), min_size=n, max_size=n)))
    perm = draw(st.permutations(range(n)))
    pts = []
    for c in coeffs:
        full = [x + t for x, t in zip(list(c) + [dot(row, c) for row in extra], shift)]
        pts.append([full[j] for j in perm])
    for i, j in draw(st.lists(st.tuples(st.integers(0, len(pts) - 1),
                                        st.integers(0, len(pts) - 1)), max_size=2)):
        pts.append([(frac(x) + frac(y)) / 2 for x, y in zip(pts[i], pts[j])])
    return n, pts


def _reference_directions(vertices):
    """(dir_basis, dir_pivots, (B, den)) from rref of the Fraction differences
    v - v0, with den the lcm of the basis's denominators and B = den D."""
    diffs = [tuple(x - y for x, y in zip(v, vertices[0])) for v in vertices[1:]]
    red, pivots = rref(diffs) if diffs else ((), ())
    basis = tuple(red[:len(pivots)])
    den = lcm(*(x.denominator for row in basis for x in row))
    return basis, tuple(pivots), ([[x.numerator * (den // x.denominator) for x in row]
                                   for row in basis], den)


def _reference_keyed_facets(fd, basis):
    """(key, outward vector) per facet: the functional read in the basis,
    u = D f, scaled so that its last nonzero entry is +-1, pulled back
    through D, all in Fractions."""
    out = []
    for mask, f in zip(fd.facet_masks, fd.functionals):
        u = [dot(row, vec(f)) for row in basis]
        last = abs(next(x for x in reversed(u) if x))
        out.append((tuple(fd.vertices[i] for i in mask_bits(mask)),
                    tuple(sum(x * row[j] for x, row in zip(u, basis)) / last
                          for j in range(fd.ambient_dim))))
    return out


def _assert_integer_view_matches_fractions(fd):
    basis, pivots, ints = _reference_directions(fd.vertices)
    assert fd.dir_basis == basis and fd.dir_pivots == pivots and fd.dim == len(basis)
    assert all(type(x) is Fraction for row in fd.dir_basis for x in row)
    assert fd._dir_ints() == ints
    fd.facets()
    assert fd.keyed_facets() == _reference_keyed_facets(fd, basis)
    return basis, pivots


@settings(max_examples=150, deadline=None)
@given(point_set_with_interior_points())
def test_integer_face_data_matches_fraction_formulas(data):
    """The face data of a point set (interior points included), of its hull
    and of every face inherited from the hull, each built on the integer
    view: dir_basis, dir_pivots and _dir_ints against rref of the Fraction
    differences, facets() keys and outward vectors against the functionals
    read in Fractions, and each facet_cells() sign against the determinant
    of the Fraction frame (outward vector, facet's dir_basis) in the chart."""
    n, pts = data
    geometry._face_data.cache_clear()
    p = Polytope.from_points(n, pts)
    _assert_integer_view_matches_fractions(
        geometry._face_data(n, tuple(dict.fromkeys(face_key(pts)))))
    for q in _faces_reached(p):
        basis, pivots = _assert_integer_view_matches_fractions(q._fd)
        assert q.facets() == _reference_keyed_facets(q._fd, basis)
        for (key, outward), (fp, sign) in zip(q.facets(), q._fd.facet_cells()):
            assert fp.vertices == key
            frame = [[v[j] for j in pivots] for v in (outward,) + _reference_directions(key)[0]]
            d = det(frame)
            assert sign == (d > 0) - (d < 0) != 0


@settings(max_examples=100, deadline=None)
@given(point_set_with_interior_points())
def test_internal_chart_and_public_inequalities_agree(data):
    """rows() reads each facet at dir_pivots, facet_inequalities() through
    local_ints: on the hull and every face reached from it, each facet's
    integer row and its inequality hold on every vertex and are tight on
    the facet's vertices alone, and the inequality's vector is tangent."""
    n, pts = data
    for q in _faces_reached(Polytope.from_points(n, pts)):
        fd = q._fd
        xs, s = fd.lattice()
        _, rows = fd.rows()
        assert len(rows) == len(q.facet_inequalities()) == len(fd.facet_masks)
        for (a, b), (f, c, key), mask in zip(rows, q.facet_inequalities(), fd.facet_masks):
            values = [sum(x * y for x, y in zip(a, v)) - b * s for v in xs]
            assert max(values) == 0 and sum(1 << k for k, x in enumerate(values) if x == 0) == mask
            assert all(dot(f, v) <= c for v in q.vertices)
            assert sum(1 << k for k, v in enumerate(q.vertices) if dot(f, v) == c) == mask
            assert key == fd.key(mask) and fd.is_tangent(f)


@settings(max_examples=60, deadline=None)
@given(rational_section_system())
def test_section_vertices_take_no_equation_as_the_zero_equation(system):
    n, _, inequalities = system
    assert section_vertices(n, [], inequalities) == \
        section_vertices(n, [((0,) * n, 0)], inequalities)
