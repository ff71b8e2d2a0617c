"""Exact linear algebra over Q, plus integer normal forms for torus factors.

Matrices come in and go out as tuples of tuples of Fraction (rows), and every
entry returned is a Fraction.  Inside, the eliminations run on integer rows:
each row is scaled by the lcm of its denominators, reduced with integer row
operations that keep it primitive (`_eliminate`), or fed to Bareiss
elimination (`_bareiss`), and a result is turned back into Fractions once, at
the end.  No floats anywhere: orientation signs, face incidences and lattice
kernels are decided by exact pivoting, and a single rounding error would
corrupt downstream sign bookkeeping.

Every Jordan reduction is `_rref_over`, the RREF over one denominator d,
read as a column at the pivot coordinates (`_column`) or as d times the
kernel basis (`_kernel_ints`); the integer face data in geometry reads them too.
"""

from __future__ import annotations

from fractions import Fraction
from math import gcd, lcm
from typing import Iterable, Optional, Sequence

Vec = tuple[Fraction, ...]
Mat = tuple[Vec, ...]


def frac(x) -> Fraction:
    """Coerce ints, strings like '3/4', and Fractions; reject floats."""
    if isinstance(x, Fraction):
        return x
    if isinstance(x, int):
        return Fraction(x)
    if isinstance(x, str):
        return Fraction(x)
    raise TypeError(f"expected exact rational, got {type(x).__name__}: {x!r}")


def vec(xs: Iterable) -> Vec:
    return tuple(frac(x) for x in xs)


def mat(rows: Iterable[Iterable]) -> Mat:
    out = tuple(vec(r) for r in rows)
    if out and any(len(r) != len(out[0]) for r in out):
        raise ValueError("ragged matrix")
    return out


def identity(n: int) -> Mat:
    return tuple(tuple(Fraction(1 if i == j else 0) for j in range(n)) for i in range(n))


def vadd(a: Vec, b: Vec) -> Vec:
    return tuple(x + y for x, y in zip(a, b))


def vsub(a: Vec, b: Vec) -> Vec:
    return tuple(x - y for x, y in zip(a, b))


def dot(a: Vec, b: Vec) -> Fraction:
    return sum((x * y for x, y in zip(a, b)), Fraction(0))


def matvec(m: Mat, v: Vec) -> Vec:
    return tuple(dot(row, v) for row in m)


def transpose(m: Mat) -> Mat:
    if not m:
        return ()
    return tuple(tuple(row[j] for row in m) for j in range(len(m[0])))


def is_zero_vec(v: Vec) -> bool:
    return all(x == 0 for x in v)


# ---------------------------------------------------------------------------
# Row reduction, rank, kernels, solving
# ---------------------------------------------------------------------------

_ZERO = Fraction(0)


class SpanError(ValueError):
    """Raised when a frame has a vector outside the span it is compared to."""


def _scaled(row) -> tuple[list[int], int]:
    """The row times the lcm of its denominators, as ints, and that lcm."""
    scale = lcm(*[x.denominator for x in row])
    if scale == 1:
        return [x.numerator for x in row], 1
    return [x.numerator * (scale // x.denominator) for x in row], scale


def _scaled_exact(row: Iterable) -> tuple[list[int], int]:
    """_scaled of the entries read as exact rationals (frac); ints make no Fraction."""
    return _scaled([x if type(x) is int else frac(x) for x in row])


def _primitive(row: list[int]) -> list[int]:
    """The integer row with the gcd of its entries divided out."""
    g = gcd(*row)
    return [x // g for x in row] if g > 1 else row


def _primitive_rows(m) -> list[list[int]]:
    """Each row scaled to integers, with the gcd of its entries divided out."""
    return [_primitive(_scaled(row)[0]) for row in m]


def _eliminate(rows: list[list[int]], jordan: bool = True) -> list[int]:
    """Integer row reduction in place; returns the pivot columns.

    Each step replaces row_i by a*row_i - b*row_r with a = p/g, b = f/g and
    g = gcd(p, f), p the pivot and f the entry of row_i in the pivot column,
    then divides row_i by the gcd of its entries, so rows stay primitive.
    With `jordan` the rows above the pivot are cleared too: pivot row k then
    equals its pivot entry times row k of the reduced row echelon form, and
    the rows below the rank are zero.  Without it only the rows below are.
    """
    nrows = len(rows)
    ncols = len(rows[0]) if rows else 0
    pivots: list[int] = []
    r = 0
    for c in range(ncols):
        piv = next((i for i in range(r, nrows) if rows[i][c]), None)
        if piv is None:
            continue
        rows[r], rows[piv] = rows[piv], rows[r]
        prow = rows[r]
        p = prow[c]
        for i in range(0 if jordan else r + 1, nrows):
            f = rows[i][c]
            if i == r or not f:
                continue
            g = gcd(p, f)
            a, b = p // g, f // g
            rows[i] = _primitive([a * x - b * y for x, y in zip(rows[i], prow)])
        pivots.append(c)
        r += 1
        if r == nrows:
            break
    return pivots


def _rref_over(rows: Iterable[list[int]]) -> tuple[list[list[int]], list[int], int]:
    """(R, pivots, d): the nonzero rows of the RREF of integer rows, times d.

    One Jordan reduction (_eliminate) leaves pivot row k as p_k times row k
    of the RREF; d = lcm |p_k| (1 with no pivot).  The rows given are kept.
    """
    rows = list(rows)
    pivots = _eliminate(rows)
    d = lcm(*(rows[k][p] for k, p in enumerate(pivots)))
    return [[x * (d // rows[k][p]) for x in rows[k]] for k, p in enumerate(pivots)], pivots, d


def _column(r: Sequence[Sequence[int]], pivots: Sequence[int], j: int, n: int) -> list[int]:
    """Column j of R at the pivot coordinates of R^n: d times the solution
    with free coordinates 0 when column j is a right-hand side."""
    x = [0] * n
    for row, p in zip(r, pivots):
        x[p] = row[j]
    return x


def _kernel_ints(r: Sequence[Sequence[int]], pivots: Sequence[int], d: int,
                 n: int) -> list[list[int]]:
    """d times the kernel basis of R over its first n columns: one vector per
    free column f, d at f and -R[k][f] at the k-th pivot."""
    return [[d if i == f else -x for i, x in enumerate(_column(r, pivots, f, n))]
            for f in range(n) if f not in pivots]


def _fraction_row(row: list[int], d: int) -> Vec:
    return tuple(Fraction(x, d) if x else _ZERO for x in row)


def _bareiss(rows: list[list[int]]) -> int:
    """Determinant of a square integer matrix by Bareiss elimination.

    The list is consumed, but a row is replaced rather than changed in
    place, so rows it shares with other lists are left as they were.
    """
    n = len(rows)
    sign, prev = 1, 1
    for k in range(n - 1):
        if not rows[k][k]:
            piv = next((i for i in range(k + 1, n) if rows[i][k]), None)
            if piv is None:
                return 0
            rows[k], rows[piv] = rows[piv], rows[k]
            sign = -sign
        pk = rows[k]
        p = pk[k]
        for i in range(k + 1, n):
            f = rows[i][k]
            rows[i] = [(x * p - f * y) // prev for x, y in zip(rows[i], pk)]
        prev = p
    return sign * rows[-1][-1] if n else 1


def rref(m: Mat) -> tuple[Mat, tuple[int, ...]]:
    """Reduced row echelon form and the pivot column indices."""
    r, pivots, d = _rref_over(_primitive_rows(m))
    ncols = len(m[0]) if m else 0
    red = [_fraction_row(row, d) for row in r] + [(_ZERO,) * ncols] * (len(m) - len(pivots))
    return tuple(red), tuple(pivots)


def rank(m: Mat) -> int:
    return len(_eliminate(_primitive_rows(m), jordan=False))


def kernel_basis(m: Mat) -> tuple[Vec, ...]:
    """Basis of {x : m x = 0} in column space, via RREF back-substitution."""
    if not m:
        return ()
    r, pivots, d = _rref_over(_primitive_rows(m))
    return tuple(_fraction_row(v, d) for v in _kernel_ints(r, pivots, d, len(m[0])))


def solve_columns(m: Mat, rhs: Sequence[Vec]) -> Optional[list[Vec]]:
    """For each b in rhs, the solution of m x = b with the free coordinates 0;
    None if any of the systems is inconsistent.

    One reduction of [m | b_1 ... b_k] serves every right-hand side: the
    solution with free coordinates 0 is linear in b.  Every pivot lies in the
    m block exactly when every system is consistent.
    """
    if any(len(b) != len(m) for b in rhs):
        raise ValueError("right-hand side length differs from the number of rows")
    if not m:
        return [()] * len(rhs)
    ncols = len(m[0])
    r, pivots, d = _rref_over(_primitive_rows([tuple(row) + tuple(b[i] for b in rhs)
                                               for i, row in enumerate(m)]))
    if pivots and pivots[-1] >= ncols:
        return None
    return [_fraction_row(_column(r, pivots, j, ncols), d)
            for j in range(ncols, ncols + len(rhs))]


def solve(m: Mat, b: Vec) -> Optional[Vec]:
    """One solution of m x = b with the free coordinates 0, or None if inconsistent."""
    xs = solve_columns(m, (b,))
    return None if xs is None else xs[0]


def in_span(vectors: Sequence[Vec], v: Vec) -> bool:
    if not vectors:
        return is_zero_vec(v)
    return solve(transpose(mat(vectors)), v) is not None


def independent_subset(vectors: Sequence[Vec]) -> tuple[int, ...]:
    """Indices of a maximal linearly independent subset, greedy from the front.

    These are the pivot columns of the matrix whose columns are the vectors.
    """
    if not vectors:
        return ()
    return tuple(_eliminate(_primitive_rows(transpose(mat(vectors))), jordan=False))


def det(m: Mat) -> Fraction:
    """Exact determinant: Bareiss elimination on the integer-scaled rows.

    Row i is multiplied by the lcm L_i of its denominators, so the result is
    the integer determinant divided once by the product of the L_i.
    """
    n = len(m)
    if n == 0:
        return Fraction(1)
    if any(len(r) != n for r in m):
        raise ValueError("det of non-square matrix")
    rows, scale = [], 1
    for r in m:
        ints, lcm_r = _scaled(r)
        rows.append(ints)
        scale *= lcm_r
    return Fraction(_bareiss(rows), scale)


def det_sign(x_rows: Sequence[Sequence], d_rows: Sequence[list[int]], width: int) -> int:
    """sign det[X^T; D]: the exact rows x_rows of X^T on top of the integer
    rows d_rows of D, each of the given width; 0 when that matrix is not
    square or is singular.  Rows are scaled by positive integers only.
    With no rows of D it is the sign of a frame in frame coordinates.
    """
    if len(x_rows) + len(d_rows) != width:
        return 0
    d = _bareiss(_primitive_rows(x_rows) + list(d_rows))
    return (d > 0) - (d < 0)


def change_of_basis_det(frame_a: Sequence[Vec], frame_b: Sequence[Vec]) -> Fraction:
    """det C where frame_a[i] = sum_j C[i][j] frame_b[j]; frames must span one space.

    One reduction of [frame_b^T | frame_a^T] solves for every row of C at
    once.  A pivot in the right-hand block means some frame_a vector lies
    outside span(frame_b), and raises SpanError.  Free coordinates are 0, as
    in `solve`, so a dependent frame_b gives 0.

    The library signs frames by det_sign in the dir_basis chart; this stays
    as the tests' reference and as a traced name of the benchmark.
    """
    if len(frame_a) != len(frame_b):
        raise ValueError("frames of different length")
    if not frame_a:
        return Fraction(1)
    b, a = mat(frame_b), mat(frame_a)
    if len(a[0]) != len(b[0]):
        raise ValueError("frames live in spaces of different dimension")
    k = len(b)
    r, pivots, d = _rref_over(_primitive_rows(tuple(bj + aj for bj, aj in
                                                    zip(transpose(b), transpose(a)))))
    if pivots and pivots[-1] >= k:
        raise SpanError("frames do not span the same space")
    if len(pivots) < k:
        return Fraction(0)
    # Row j of C^T is r[j][k:] / d.
    return Fraction(_bareiss([row[k:] for row in r]), d ** k)


# ---------------------------------------------------------------------------
# Canonical echelon frames
# ---------------------------------------------------------------------------

def canonical_frame(frame: Sequence[Vec]) -> tuple[tuple[Vec, ...], int]:
    """Unique RREF basis of span(frame), and the sign of the change of basis.

    Returns (echelon_basis, sign) with sign = sign(det C) for frame = C * basis.
    The echelon basis depends only on the span, so two frames of the same space
    canonicalize to the same basis and their relative orientation lives in the sign.
    The basis has a 1 at each pivot column and 0 at the others, so
    C = frame[:, pivots].
    """
    if not frame:
        return (), 1
    ints = _primitive_rows(mat(frame))
    r, pivots, d = _rref_over(ints)
    if len(pivots) != len(frame):
        raise ValueError("frame is linearly dependent")
    c = _bareiss([[row[p] for p in pivots] for row in ints])
    return tuple(_fraction_row(row, d) for row in r), (1 if c > 0 else -1)


# ---------------------------------------------------------------------------
# Linear programming: exact feasibility of {x >= 0 : A x = b}
# ---------------------------------------------------------------------------

def lp_feasible(a: Mat, b: Vec) -> bool:
    """Phase-1 simplex with Bland's rule, all arithmetic exact.

    The library itself uses no LP: extreme points and membership are read
    off the vertex-facet incidence (geometry).  This stays as the tests'
    independent reference for hull membership, and as a traced name of the
    benchmark.
    """
    m = len(a)
    if m == 0:
        return True
    n = len(a[0])
    rows = [list(r) for r in a]
    rhs = list(b)
    for i in range(m):
        if rhs[i] < 0:
            rows[i] = [-x for x in rows[i]]
            rhs[i] = -rhs[i]
    # tableau with artificial basis; minimize sum of artificials
    ncols = n + m
    tab = [rows[i] + [Fraction(1 if j == i else 0) for j in range(m)] + [rhs[i]]
           for i in range(m)]
    basis = [n + i for i in range(m)]
    cost = [Fraction(0)] * (ncols + 1)
    for i in range(m):
        for j in range(ncols + 1):
            cost[j] += tab[i][j]
    # artificial columns start as basis columns: zero their reduced costs
    for i in range(m):
        cost[n + i] -= Fraction(1)

    while True:
        enter = next((j for j in range(ncols) if cost[j] > 0), None)
        if enter is None:
            break
        best: Optional[tuple[Fraction, int]] = None
        for i in range(m):
            if tab[i][enter] > 0:
                ratio = tab[i][ncols] / tab[i][enter]
                if best is None or ratio < best[0] or (ratio == best[0] and basis[i] < basis[best[1]]):
                    best = (ratio, i)
        if best is None:
            raise ArithmeticError("phase-1 objective unbounded; inconsistent tableau")
        _, leave = best
        piv = tab[leave][enter]
        tab[leave] = [x / piv for x in tab[leave]]
        for i in range(m):
            if i != leave and tab[i][enter] != 0:
                f = tab[i][enter]
                tab[i] = [x - f * y for x, y in zip(tab[i], tab[leave])]
        f = cost[enter]
        if f != 0:
            for j in range(ncols + 1):
                cost[j] -= f * tab[leave][j]
        basis[leave] = enter
    return cost[ncols] == 0


# ---------------------------------------------------------------------------
# Integer forms: Hermite, Smith, integer kernels and solves
# ---------------------------------------------------------------------------

IntVec = tuple[int, ...]
IntMat = tuple[IntVec, ...]


def _as_int_rows(m: Sequence[Sequence[int]]) -> list[list[int]]:
    out = []
    for r in m:
        row = []
        for x in r:
            if isinstance(x, Fraction):
                if x.denominator != 1:
                    raise ValueError("integer matrix expected")
                x = x.numerator
            if not isinstance(x, int):
                raise TypeError("integer matrix expected")
            row.append(x)
        out.append(row)
    return out


def hermite_column(m: Sequence[Sequence[int]]) -> tuple[IntMat, IntMat]:
    """Column-style Hermite normal form: returns (H, U) with H = M U, U in GL_s(Z).

    H has its pivot in each successive row strictly below the previous pivot row,
    pivots positive, entries left of a pivot reduced into [0, pivot), and zero
    columns at the end. H is the canonical representative of M under right
    multiplication by GL_s(Z).
    """
    rows = _as_int_rows(m)
    nrows = len(rows)
    ncols = len(rows[0]) if rows else 0
    # column j of M stacked over column j of U, U = I at the start
    cols = [[row[j] for row in rows] + [int(i == j) for i in range(ncols)]
            for j in range(ncols)]

    def addmul(j, k, c):
        # col_j += c * col_k
        cols[j] = [x + c * y for x, y in zip(cols[j], cols[k])]

    pivot_col = 0
    for r in range(nrows):
        nz = [j for j in range(pivot_col, ncols) if cols[j][r]]
        if not nz:
            continue
        # gcd out the row tail into pivot_col
        while len(nz) > 1:
            jmin = min(nz, key=lambda j: abs(cols[j][r]))
            cols[pivot_col], cols[jmin] = cols[jmin], cols[pivot_col]
            p = cols[pivot_col][r]
            for j in range(pivot_col + 1, ncols):
                if cols[j][r]:
                    addmul(j, pivot_col, -(cols[j][r] // p))
            nz = [j for j in range(pivot_col, ncols) if cols[j][r]]
        cols[pivot_col], cols[nz[0]] = cols[nz[0]], cols[pivot_col]
        if cols[pivot_col][r] < 0:
            cols[pivot_col] = [-x for x in cols[pivot_col]]
        p = cols[pivot_col][r]
        for j in range(pivot_col):
            q = cols[j][r] // p  # floor division reduces into [0, p)
            if q:
                addmul(j, pivot_col, -q)
        pivot_col += 1

    h = tuple(tuple(col[i] for col in cols) for i in range(nrows))
    u = tuple(tuple(col[nrows + i] for col in cols) for i in range(ncols))
    return h, u


def integer_kernel_basis(m: Sequence[Sequence[int]]) -> IntMat:
    """Z-basis of {x in Z^s : M x = 0}; the kernel lattice is automatically saturated."""
    rows = _as_int_rows(m)
    ncols = len(rows[0]) if rows else 0
    if ncols == 0:
        return ()
    h, u = hermite_column(rows)
    zero_cols = [j for j in range(ncols) if all(h[i][j] == 0 for i in range(len(h)))]
    return tuple(tuple(u[i][j] for i in range(ncols)) for j in zero_cols)


def smith_normal_form(m: Sequence[Sequence[int]]) -> tuple[IntMat, IntMat, IntMat]:
    """(D, U, V) with U M V = D diagonal, d1 | d2 | ..., U, V unimodular.

    Step t moves the least nonzero entry of the block below and right of
    (t, t) to (t, t) and clears its row and column by floor division.  A
    remainder left behind, or a block entry the pivot does not divide once its
    row is added to row t, is a smaller nonzero entry, so the step repeats; it
    ends with a pivot that divides the whole block.
    """
    a = _as_int_rows(m)
    nrows = len(a)
    ncols = len(a[0]) if a else 0
    u = [[1 if i == j else 0 for j in range(nrows)] for i in range(nrows)]
    v = [[1 if i == j else 0 for j in range(ncols)] for i in range(ncols)]

    def addmul_row(i, j, c):
        a[i] = [x + c * y for x, y in zip(a[i], a[j])]
        u[i] = [x + c * y for x, y in zip(u[i], u[j])]

    def addmul_col(i, j, c):
        for r in a + v:
            r[i] += c * r[j]

    for t in range(min(nrows, ncols)):
        while True:
            nonzero = [(abs(a[i][j]), i, j) for i in range(t, nrows)
                       for j in range(t, ncols) if a[i][j] != 0]
            if not nonzero:
                break
            _, i, j = min(nonzero)
            a[t], a[i] = a[i], a[t]
            u[t], u[i] = u[i], u[t]
            for r in a + v:
                r[t], r[j] = r[j], r[t]
            p = a[t][t]
            for i in range(t + 1, nrows):
                addmul_row(i, t, -(a[i][t] // p))
            for j in range(t + 1, ncols):
                addmul_col(j, t, -(a[t][j] // p))
            if any(a[i][t] != 0 for i in range(t + 1, nrows)) or any(a[t][t + 1:]):
                continue
            rest = [i for i in range(t + 1, nrows) if any(x % p for x in a[i][t + 1:])]
            if not rest:
                break
            addmul_row(t, rest[0], 1)
        if a[t][t] < 0:
            a[t] = [-x for x in a[t]]
            u[t] = [-x for x in u[t]]
    d = tuple(tuple(r) for r in a)
    return d, tuple(tuple(r) for r in u), tuple(tuple(r) for r in v)


def invariant_factors(m: Sequence[Sequence[int]]) -> tuple[int, ...]:
    """Nonzero diagonal entries of the Smith form, in divisibility order."""
    d, _, _ = smith_normal_form(m)
    out = []
    for i in range(min(len(d), len(d[0]) if d else 0)):
        if d[i][i] != 0:
            out.append(abs(d[i][i]))
    return tuple(out)


def solve_integer(m: Sequence[Sequence[int]], c: Sequence[int]) -> Optional[IntVec]:
    """One x in Z^s with M x = c, or None."""
    rows = _as_int_rows(m)
    nrows = len(rows)
    ncols = len(rows[0]) if rows else 0
    cc = _as_int_rows([list(c)])[0]
    if nrows == 0:
        return (0,) * ncols
    d, u, v = smith_normal_form(rows)
    uc = [sum(u[i][j] * cc[j] for j in range(nrows)) for i in range(nrows)]
    y = [0] * ncols
    for i in range(nrows):
        di = d[i][i] if i < min(nrows, ncols) else 0
        if di == 0:
            if uc[i] != 0:
                return None
        else:
            if uc[i] % di != 0:
                return None
            if i < ncols:
                y[i] = uc[i] // di
    return tuple(sum(v[i][j] * y[j] for j in range(ncols)) for i in range(ncols))


def integer_matrix_inverse(m: Sequence[Sequence[int]]) -> Optional[IntMat]:
    """Inverse of a unimodular integer matrix, or None if not unimodular.

    One reduction of [M | I] over d (_rref_over).  M is invertible iff the
    pivots are the first n columns.  Pivot row i of the reduction is then
    primitive and proportional to (e_i | row i of M^-1), so the inverse is
    integral, which for integral M means det M = +-1, exactly when every
    pivot entry is +-1, that is d = 1.
    """
    rows = _as_int_rows(m)
    n = len(rows)
    if n == 0:
        return ()
    if any(len(r) != n for r in rows):
        return None
    r, pivots, d = _rref_over(row + [1 if i == j else 0 for j in range(n)]
                              for i, row in enumerate(rows))
    if pivots != list(range(n)) or d != 1:
        return None
    return tuple(tuple(row[n:]) for row in r)
