"""Exact linear algebra checked against sympy as the independent oracle route."""

import random
from fractions import Fraction

import pytest
import sympy
from hypothesis import example, given, settings, strategies as st
from sympy.matrices.normalforms import smith_normal_form as sympy_snf

from cornercalc._linalg import (
    canonical_frame,
    change_of_basis_det,
    det,
    hermite_column,
    identity,
    in_span,
    independent_subset,
    integer_kernel_basis,
    integer_matrix_inverse,
    invariant_factors,
    kernel_basis,
    lp_feasible,
    mat,
    matvec,
    rank,
    rref,
    smith_normal_form,
    solve,
    solve_columns,
    solve_integer,
    transpose,
    vec,
)


def _random_matrix(rng, nrows, ncols, lo=-4, hi=4, denom=3):
    return mat([[Fraction(rng.randint(lo, hi), rng.randint(1, denom)) for _ in range(ncols)]
                for _ in range(nrows)])


def _random_int_matrix(rng, nrows, ncols, lo=-5, hi=5):
    return [[rng.randint(lo, hi) for _ in range(ncols)] for _ in range(nrows)]


def test_rank_matches_sympy():
    rng = random.Random(7)
    for _ in range(40):
        m = _random_matrix(rng, rng.randint(1, 5), rng.randint(1, 5))
        assert rank(m) == sympy.Matrix([[sympy.Rational(x) for x in r] for r in m]).rank()


def test_kernel_vectors_annihilate_and_count():
    rng = random.Random(8)
    for _ in range(40):
        m = _random_matrix(rng, rng.randint(1, 4), rng.randint(1, 5))
        kb = kernel_basis(m)
        assert len(kb) == len(m[0]) - rank(m)
        for v in kb:
            assert all(x == 0 for x in matvec(m, v))


def test_solve_consistency():
    rng = random.Random(9)
    for _ in range(40):
        m = _random_matrix(rng, rng.randint(1, 4), rng.randint(1, 4))
        x = vec([rng.randint(-3, 3) for _ in range(len(m[0]))])
        b = matvec(m, x)
        got = solve(m, b)
        assert got is not None
        assert matvec(m, got) == b


def test_det_matches_sympy():
    rng = random.Random(10)
    for _ in range(30):
        n = rng.randint(1, 4)
        m = _random_matrix(rng, n, n)
        assert det(m) == Fraction(str(sympy.Matrix([[sympy.Rational(x) for x in r] for r in m]).det()))


def test_canonical_frame_sign_tracks_orientation():
    e1 = vec([1, 0])
    e2 = vec([0, 1])
    basis, sign = canonical_frame((e1, e2))
    assert sign == 1
    basis2, sign2 = canonical_frame((e2, e1))
    assert basis2 == basis
    assert sign2 == -1
    # scaling a vector by a positive number keeps the sign, negative flips it
    _, s3 = canonical_frame((vec([2, 0]), e2))
    assert s3 == 1
    _, s4 = canonical_frame((vec([-2, 0]), e2))
    assert s4 == -1


def test_change_of_basis_det_relation():
    rng = random.Random(11)
    for _ in range(20):
        n = rng.randint(1, 3)
        while True:
            a = _random_matrix(rng, n, n)
            if det(a) != 0:
                break
        b = identity(n)
        assert change_of_basis_det(a, b) == det(a)


def test_lp_feasible_on_known_instances():
    # x + y = 1, x,y >= 0 feasible
    assert lp_feasible(mat([[1, 1]]), vec([1]))
    # x + y = -1, x,y >= 0 infeasible
    assert not lp_feasible(mat([[1, 1]]), vec([-1]))
    # x - y = 0, x + y = 2 feasible at (1,1)
    assert lp_feasible(mat([[1, -1], [1, 1]]), vec([0, 2]))
    # x = 1, x = 2 inconsistent
    assert not lp_feasible(mat([[1], [1]]), vec([1, 2]))
    # no constraint at all
    assert lp_feasible((), ())


def test_lp_feasible_random_cross_check():
    rng = random.Random(12)
    for _ in range(30):
        nrows, ncols = rng.randint(1, 3), rng.randint(1, 4)
        a = mat(_random_int_matrix(rng, nrows, ncols, -3, 3))
        # plant a nonnegative solution so the instance is feasible by construction
        x = vec([Fraction(rng.randint(0, 3)) for _ in range(ncols)])
        b = matvec(a, x)
        assert lp_feasible(a, b)


def _random_unimodular(rng, n):
    """I_n after random column swaps, negations and additions of a multiple."""
    v = [[int(i == j) for j in range(n)] for i in range(n)]
    for _ in range(3 * n):
        j, k = rng.sample(range(n), 2) if n > 1 else (0, 0)
        op, c = rng.randrange(3), rng.randint(-3, 3)
        for row in v:
            if op == 0:
                row[j], row[k] = row[k], row[j]
            elif op == 1:
                row[j] = -row[j]
            elif j != k:
                row[j] += c * row[k]
    return v


def _assert_hermite_conventions(h, nrows, ncols):
    """Pivot rows strictly increase, pivots are positive, entries left of a
    pivot lie in [0, pivot), and the zero columns come last."""
    assert len(h) == nrows and all(len(row) == ncols for row in h)
    last = -1
    for j in range(ncols):
        r = next((i for i in range(nrows) if h[i][j]), None)
        if r is None:
            assert all(h[i][k] == 0 for i in range(nrows) for k in range(j, ncols))
            return
        assert r > last and h[r][j] > 0
        assert all(0 <= h[r][k] < h[r][j] for k in range(j))
        last = r


def test_hermite_column_properties():
    rng = random.Random(13)
    cases = [[], [[], []], [[0, 0, 0], [0, 0, 0]],
             [[2, 4, 1], [0, 0, 0], [3, -5, 7]]]   # a zero row between pivots
    cases += [_random_int_matrix(rng, rng.randint(1, 4), rng.randint(1, 4)) for _ in range(40)]
    cases += [[[0 if rng.random() < 0.3 else rng.randint(-7, 7) for _ in range(ncols)]
               for _ in range(nrows)]
              for nrows, ncols in ((rng.randint(1, 5), rng.randint(1, 6)) for _ in range(200))]
    for m in cases:
        nrows, ncols = len(m), len(m[0]) if m else 0
        h, u = hermite_column(m)
        _assert_hermite_conventions(h, nrows, ncols)
        assert len(u) == ncols and all(len(row) == ncols for row in u)
        if not ncols:
            continue
        # H = M U with U unimodular
        assert integer_matrix_inverse(u) is not None
        assert matmul_int(m, u) == [list(r) for r in h]
        # canonical: re-reducing H is the identity transformation on H, and
        # H is the same for every M V, V unimodular
        h2, _ = hermite_column(h)
        assert h2 == h
        assert hermite_column(matmul_int(m, _random_unimodular(rng, ncols)))[0] == h


def matmul_int(a, b):
    n, k = len(a), len(a[0])
    k2 = len(b)
    assert k == k2
    cols = len(b[0])
    return [[sum(a[i][t] * b[t][j] for t in range(k)) for j in range(cols)] for i in range(n)]


def test_integer_kernel_basis():
    rng = random.Random(14)
    for _ in range(40):
        m = _random_int_matrix(rng, rng.randint(1, 3), rng.randint(1, 4))
        kb = integer_kernel_basis(m)
        for v in kb:
            assert all(sum(m[i][j] * v[j] for j in range(len(v))) == 0 for i in range(len(m)))
        expected = len(m[0]) - rank(mat(m))
        assert len(kb) == expected
    assert integer_kernel_basis([[], []]) == ()


def test_smith_matches_sympy_invariant_factors():
    rng = random.Random(15)
    edge_cases = [[], [[], []], [[0, 0, 0], [0, 0, 0]], [[4, -6, 10]], [[6], [0], [-9]],
                  [[2, 0], [0, 3]], [[4, 0], [0, 6]]]
    # a 9 x 11 draw whose entries grow without bound unless every step
    # pivots on the least entry of its block
    edge_cases.append([
        [5, 6, 0, 5, -8, -1, 4, 0, -4, 8, 6],
        [5, 0, -6, -6, 0, -9, 2, -6, 7, 0, 2],
        [0, 6, 2, 2, 0, 5, -1, 4, -8, -2, 0],
        [5, -1, 0, 0, 0, 6, 0, 0, 0, -4, -4],
        [0, 0, 0, 3, 1, 5, -9, -4, -1, 3, -2],
        [5, 1, 0, -3, 0, 0, 8, 0, 7, 1, 0],
        [0, 6, -4, -1, 0, -7, -9, -4, -5, 0, -8],
        [1, -1, 4, -8, 0, 1, -1, -9, -5, 0, -6],
        [-2, 0, 4, 2, 0, -2, 9, 3, 4, 0, 0]])
    draws = [[[0 if rng.random() < 0.3 else rng.randint(-9, 9) for _ in range(ncols)]
              for _ in range(nrows)]
             for nrows, ncols in ((rng.randint(1, 6), rng.randint(1, 6)) for _ in range(300))]
    for m in edge_cases + draws:
        d, u, v = smith_normal_form(m)
        ncols = len(m[0]) if m else 0
        if not ncols:
            assert d == tuple(() for _ in m) and len(u) == len(m) and v == ()
            assert invariant_factors(m) == ()
            continue
        # U M V == D, D diagonal with a nonnegative diagonal
        umv = matmul_int(matmul_int([list(r) for r in u], m), [list(r) for r in v])
        assert umv == [list(r) for r in d]
        assert all(x == 0 for i, r in enumerate(d) for j, x in enumerate(r) if i != j)
        assert all(d[i][i] >= 0 for i in range(min(len(m), ncols)))
        # unimodularity
        assert integer_matrix_inverse(u) is not None
        assert integer_matrix_inverse(v) is not None
        # divisibility chain and oracle comparison
        mine = list(invariant_factors(m))
        for a, b in zip(mine, mine[1:]):
            assert b % a == 0
        sym = sympy_snf(sympy.Matrix(m), domain=sympy.ZZ)
        oracle = [abs(sym[i, i]) for i in range(min(sym.shape)) if sym[i, i] != 0]
        assert mine == oracle
    assert invariant_factors([[2, 0], [0, 3]]) == (1, 6)
    assert invariant_factors([[4, 0], [0, 6]]) == (2, 12)


def test_solve_integer():
    rng = random.Random(16)
    for _ in range(40):
        m = _random_int_matrix(rng, rng.randint(1, 3), rng.randint(1, 4))
        x = [rng.randint(-3, 3) for _ in range(len(m[0]))]
        c = [sum(m[i][j] * x[j] for j in range(len(x))) for i in range(len(m))]
        got = solve_integer(m, c)
        assert got is not None
        assert [sum(m[i][j] * got[j] for j in range(len(got))) for i in range(len(m))] == c
    # unsolvable instance: 2x = 1
    assert solve_integer([[2]], [1]) is None
    # no rows; a zero diagonal entry of the Smith form, solvable or not
    assert solve_integer([], []) == ()
    assert solve_integer([[1], [2]], [1, 2]) == (1,)
    assert solve_integer([[0, 0]], [1]) is None


def test_empty_matrices_and_spans():
    assert transpose(()) == () and kernel_basis(()) == ()
    assert in_span((), vec([0, 0])) and not in_span((), vec([1, 0]))
    assert in_span([vec([1, 1])], vec([2, 2])) and not in_span([vec([1, 1])], vec([1, 0]))


# ---------------------------------------------------------------------------
# Oracles for the integer-row elimination core
# ---------------------------------------------------------------------------

_entries = st.one_of(st.just(Fraction(0)), st.integers(-3, 3).map(Fraction),
                     st.fractions(min_value=-5, max_value=5, max_denominator=6))


@st.composite
def rational_matrices(draw, nrows=None, ncols=None):
    """Small rational matrices; often with a row made from two others."""
    r = draw(st.integers(0, 5)) if nrows is None else nrows
    c = draw(st.integers(1, 6)) if ncols is None else ncols
    rows = [[draw(_entries) for _ in range(c)] for _ in range(r)]
    if r >= 3 and draw(st.booleans()):
        i, j, k = draw(st.permutations(range(r)))[:3]
        lam, mu = draw(_entries), draw(_entries)
        rows[i] = [lam * x + mu * y for x, y in zip(rows[j], rows[k])]
    return tuple(tuple(row) for row in rows)


def _sym(m, ncols=None):
    ncols = len(m[0]) if m else ncols
    return sympy.Matrix(len(m), ncols, [sympy.Rational(x.numerator, x.denominator)
                                        for row in m for x in row])


def _frac(x) -> Fraction:
    return Fraction(int(x.p), int(x.q))


def _all_fractions(rows) -> bool:
    return all(type(x) is Fraction for row in rows for x in row)


@settings(max_examples=150, deadline=None)
@given(rational_matrices(), st.integers(1, 6))
@example(((Fraction(0),) * 3,) * 2, 3)
def test_rref_matches_sympy(m, ncols):
    if not m:
        assert rref(m) == ((), ())
        assert _sym(m, ncols).rref() == (sympy.Matrix(0, ncols, []), ())
        return
    red, pivots = rref(m)
    sym_red, sym_pivots = _sym(m).rref()
    assert pivots == tuple(sym_pivots)
    assert red == tuple(tuple(_frac(sym_red[i, j]) for j in range(len(m[0])))
                        for i in range(len(m)))
    assert rank(m) == len(pivots)
    assert independent_subset(transpose(m)) == pivots


@settings(max_examples=100, deadline=None)
@given(st.integers(0, 6).flatmap(lambda n: rational_matrices(n, max(n, 1))))
def test_det_matches_sympy_small_to_six(m):
    if not m:
        assert det(m) == 1 == _sym(m, 0).det()
        return
    assert det(m) == _frac(_sym(m).det())
    assert type(det(m)) is Fraction


def _change_of_basis_brute(frame_a, frame_b):
    """Per vector: sympy solve of frame_b^T x = v with free coordinates 0, then det."""
    bt = _sym(frame_b).T
    coords = []
    for v in frame_a:
        try:
            sol, params = bt.gauss_jordan_solve(_sym((v,)).T)
        except ValueError:
            raise ValueError("frames do not span the same space")
        sol = sol.subs({p: 0 for p in params})
        coords.append([sol[j, 0] for j in range(len(frame_b))])
    return _frac(sympy.Matrix(coords).det())


@st.composite
def frame_pairs(draw):
    k = draw(st.integers(1, 4))
    ambient = draw(st.integers(k, 5))
    frame_b = draw(rational_matrices(k, ambient))
    if draw(st.booleans()):
        c = draw(rational_matrices(k, k))
        frame_a = tuple(tuple(sum((c[i][j] * frame_b[j][t] for j in range(k)),
                                  Fraction(0)) for t in range(ambient))
                        for i in range(k))
    else:
        frame_a = draw(rational_matrices(k, ambient))
    return frame_a, frame_b


@settings(max_examples=150, deadline=None)
@given(frame_pairs())
def test_change_of_basis_det_matches_brute_force(frames):
    frame_a, frame_b = frames
    try:
        want = _change_of_basis_brute(frame_a, frame_b)
    except ValueError as e:
        with pytest.raises(ValueError, match=str(e)):
            change_of_basis_det(frame_a, frame_b)
        return
    got = change_of_basis_det(frame_a, frame_b)
    assert got == want
    assert type(got) is Fraction


def test_change_of_basis_det_dependent_and_inconsistent_frames():
    e1, e2 = vec([1, 0, 0]), vec([0, 1, 0])
    # dependent frame_b: the coordinates put 0 on the free direction
    assert change_of_basis_det((e1, e1), (e1, vec([2, 0, 0]))) == 0
    with pytest.raises(ValueError, match="do not span"):
        change_of_basis_det((e1, e2), (e1, vec([2, 0, 0])))
    with pytest.raises(ValueError, match="different length"):
        change_of_basis_det((e1,), (e1, e2))


@settings(max_examples=100, deadline=None)
@given(rational_matrices(), st.data())
def test_results_are_fractions(m, data):
    ints = tuple(tuple(int(x) for x in row) for row in m)
    for mm in (m, ints):
        red, _ = rref(mm)
        assert _all_fractions(red)
        if mm:
            assert _all_fractions(kernel_basis(mm))
            x = data.draw(st.lists(st.integers(-3, 3), min_size=len(mm[0]),
                                   max_size=len(mm[0])))
            got = solve(mm, matvec(mm, vec(x)))
            assert got is not None and _all_fractions((got,))
        try:
            basis, _ = canonical_frame(mm)
        except ValueError:
            continue
        assert _all_fractions(basis)


def test_shape_mismatch_raises():
    with pytest.raises(ValueError):
        solve(((1, 0), (0, 1)), (1,))
    with pytest.raises(ValueError):
        solve(((1, 0),), (1, 0))
    with pytest.raises(ValueError):
        change_of_basis_det(((1, 0),), ((1, 0, 5),))
    with pytest.raises(ValueError):
        change_of_basis_det(((1, 0, 5),), ((1, 0),))


def _random_unimodular(rng, n):
    m = [[int(i == j) for j in range(n)] for i in range(n)]
    for _ in range(rng.randint(0, 3 * n + 2)):
        i, j = rng.sample(range(n), 2) if n >= 2 else (0, 0)
        if i != j:
            f = rng.randint(-3, 3)
            m[i] = [x + f * y for x, y in zip(m[i], m[j])]
        if rng.random() < 0.3:
            m[i] = [-x for x in m[i]]
        if n >= 2 and rng.random() < 0.3:
            m[i], m[j] = m[j], m[i]
    return m


def test_integer_matrix_inverse_matches_sympy():
    rng = random.Random(17)
    for _ in range(60):
        n = rng.randint(1, 5)
        m = _random_unimodular(rng, n)
        inv = integer_matrix_inverse(m)
        oracle = sympy.Matrix(m).inv()
        assert inv == tuple(tuple(int(oracle[i, j]) for j in range(n)) for i in range(n))
        assert all(type(x) is int for row in inv for x in row)
    assert integer_matrix_inverse([]) == ()
    assert integer_matrix_inverse([[2, 0], [0, 1]]) is None
    assert integer_matrix_inverse([[1, 2], [2, 4]]) is None
    assert integer_matrix_inverse([[1, 2]]) is None


def _sympy_solve(m, b, ncols):
    """The solution of m x = b with sympy's free parameters set to 0, or None."""
    try:
        sol, params = _sym(m, ncols).gauss_jordan_solve(
            sympy.Matrix(len(b), 1, [sympy.Rational(x.numerator, x.denominator) for x in b]))
    except ValueError:
        return None
    sol = sol.subs({p: 0 for p in params})
    return tuple(_frac(x) for x in sol)


@settings(max_examples=150, deadline=None)
@given(rational_matrices(), st.data())
@example(((Fraction(1), Fraction(0)), (Fraction(2), Fraction(0))), None)
def test_solve_columns_matches_per_column_solve(m, data):
    ncols = len(m[0]) if m else 0
    if data is None:
        # one consistent and one inconsistent right-hand side
        rhs = [(Fraction(1), Fraction(2)), (Fraction(1), Fraction(1))]
    else:
        rhs = []
        for _ in range(data.draw(st.integers(0, 4))):
            if data.draw(st.booleans()):
                x = [data.draw(_entries) for _ in range(ncols)]
                rhs.append(tuple(sum((r * y for r, y in zip(row, x)), Fraction(0))
                                 for row in m))
            else:
                rhs.append(tuple(data.draw(_entries) for _ in m))
    per_column = [solve(m, b) for b in rhs]
    if m:
        assert per_column == [_sympy_solve(m, b, ncols) for b in rhs]
    got = solve_columns(m, rhs)
    if None in per_column:
        assert got is None
    else:
        assert got == per_column
        assert all(type(x) is Fraction for xs in got for x in xs)
    with pytest.raises(ValueError, match="right-hand side length"):
        solve_columns(m, rhs + [(Fraction(0),) * (len(m) + 1)])
