"""The oriented fibre-product identities on mapped cells, checked exactly.

The check functions verify, exactly and with no tolerance, the boundary
formula for fibre products, the swap sign, associativity, and the interchange
sign.  Each builds both sides independently with fibre_product_cells and
compares them in canonical form: as multisets of (canonical key, orientation
sign), or, for the boundary formula, facet by facet.  A CheckReport records
whether the identity held, how many components were compared, and whether the
instance met the identity's preconditions (transversality and
orientability).
"""

from __future__ import annotations

from collections import Counter
from dataclasses import dataclass

from .cells import (
    POINT,
    Cell,
    CellMap,
    canonical_form,
    cell_boundary,
    cell_orientation_equal,
    constant_map,
    fibre_product_cells,
    permute_cell_coords,
)


@dataclass
class CheckReport:
    ok: bool
    checked: int = 0
    precondition: bool = True
    details: tuple[str, ...] = ()

    def __bool__(self) -> bool:
        return self.ok


def stack_cell_maps(f: CellMap, g: CellMap) -> CellMap:
    """Map into the product target, first block from f, second from g."""
    if f.target.dim == 0:
        return g
    if g.target.dim == 0:
        return f
    target = f.target.product(g.target)
    return CellMap(target, f.a + g.a, f.m_t + g.m_t, f.b + g.b)


def _compare_signed_families(lhs, rhs, predicted: int) -> CheckReport:
    """Both families as multisets of (canonical key, sign), the right-hand
    signs multiplied by the predicted sign; the multisets must be equal."""
    left = Counter(canonical_form(cell, cmap)[:2] for cell, cmap in lhs)
    right = Counter()
    for cell, cmap in rhs:
        key, sgn = canonical_form(cell, cmap)[:2]
        right[key, predicted * sgn] += 1
    if left == right:
        return CheckReport(True, sum(left.values()))
    same_keys = (Counter(key for key, _ in left.elements())
                 == Counter(key for key, _ in right.elements()))
    reason = "orientation sign mismatch" if same_keys else "component sets differ"
    return CheckReport(False, 0, details=(reason,))


# ---------------------------------------------------------------------------
# Boundary of a fibre product
# ---------------------------------------------------------------------------

def check_boundary_of_fibre_product_cells(cell1: Cell, map1: CellMap,
                                          cell2: Cell, map2: CellMap) -> CheckReport:
    """Boundary components of the product vs the two boundary-of-factor terms.

    Matching is by (translate, polytope); each matched pair must agree in
    orientation, the second family carrying the sign (-1)^(dim X1 + dim Y).
    """
    comps = fibre_product_cells(cell1, map1, cell2, map2)
    if not all(c.transverse for c in comps):
        return CheckReport(False, 0, precondition=False,
                           details=("non-transverse component",))
    m = map1.target.dim
    d1 = cell1.dim
    sign2 = -1 if (d1 + m) % 2 else 1

    lhs = {}
    for comp in comps:
        for bc in cell_boundary(comp.cell):
            key = (comp.translate, bc.cell.polytope)
            if key in lhs:
                return CheckReport(False, 0, details=("duplicate boundary face",))
            lhs[key] = bc.cell

    rhs = {}
    terms = [((bc.cell, map1, cell2, map2), 1) for bc in cell_boundary(cell1)]
    terms += [((cell1, map1, bc.cell, map2), sign2) for bc in cell_boundary(cell2)]
    for args, sgn in terms:
        for c in fibre_product_cells(*args):
            key = (c.translate, c.cell.polytope)
            if not c.orientable or key in rhs:
                return CheckReport(False, 0, precondition=False,
                                   details=("boundary term not orientable",))
            rhs[key] = (c.cell, sgn)

    if set(lhs) != set(rhs):
        return CheckReport(False, 0, details=("boundary component sets differ",))
    for key, lcell in lhs.items():
        rcell, sgn = rhs[key]
        if cell_orientation_equal(lcell, rcell) != sgn:
            return CheckReport(False, 0, details=(f"sign mismatch at {key[0]}",))
    return CheckReport(True, len(lhs))


# ---------------------------------------------------------------------------
# Swap sign
# ---------------------------------------------------------------------------

def _has_winding(*cmaps: CellMap) -> bool:
    return any(any(x for x in row) for cm in cmaps for row in cm.m_t)


def check_swap_sign_cells(cell1: Cell, map1: CellMap,
                          cell2: Cell, map2: CellMap) -> CheckReport:
    """X1 x_Y X2 vs X2 x_Y X1 under the block swap of coordinates.

    Without torus equations the product's circle factors concatenate in
    order, so the exchange contributes an extra transposition determinant
    (-1)^(s1 s2) on top of the dimension sign.  With torus equations the
    surviving circle coordinates are unimodular mixtures of both blocks, and
    the canonical form, which reduces modulo rational shears of the torus
    factor, records the exchange in the frames.  The precondition is that
    both products are transverse, hence oriented; neither map need be a
    submersion.
    """
    m = map1.target.dim
    d1, d2 = cell1.dim, cell2.dim
    s1, s2 = cell1.torus_rank, cell2.torus_rank
    predicted = -1 if ((d1 - m) * (d2 - m)) % 2 else 1
    if not _has_winding(map1, map2) and (s1 * s2) % 2:
        predicted = -predicted

    fwd = fibre_product_cells(cell1, map1, cell2, map2)
    bwd = fibre_product_cells(cell2, map2, cell1, map1)
    if not all(c.transverse for c in fwd + bwd):
        return CheckReport(False, 0, precondition=False,
                           details=("non-transverse component",))
    n1 = cell1.polytope.ambient_dim
    n2 = cell2.polytope.ambient_dim
    perm = list(range(n2, n2 + n1)) + list(range(n2))
    lhs = [(c.cell, c.pmap) for c in fwd]
    rhs = [permute_cell_coords(c.cell, c.pmap, perm) for c in bwd]
    return _compare_signed_families(lhs, rhs, predicted)


# ---------------------------------------------------------------------------
# Associativity and interchange
# ---------------------------------------------------------------------------

def _nested_products(inner, factor_map, cell: Cell, cmap: CellMap, inner_first: bool,
                     refusals: tuple[str, str]) -> list | CheckReport:
    """One side of an iterated fibre product as (cell, stacked map) pairs: each
    inner component z meets (cell, cmap) over factor_map(z), as the first
    factor when inner_first, and the maps stack in factor order.  A component
    not transverse (a transverse one is oriented) refuses with refusals[0]
    (inner) or [1] (outer).
    """
    pairs = []
    for z in inner:
        if not z.transverse:
            return CheckReport(False, 0, precondition=False, details=(refusals[0],))
        if inner_first:
            outer = fibre_product_cells(z.cell, factor_map(z), cell, cmap)
        else:
            outer = fibre_product_cells(cell, cmap, z.cell, factor_map(z))
        for w in outer:
            if not w.transverse:
                return CheckReport(False, 0, precondition=False, details=(refusals[1],))
            if inner_first:
                pairs.append((w.cell, stack_cell_maps(w.compose_on_first(z.pmap), w.pmap)))
            else:
                pairs.append((w.cell, stack_cell_maps(w.pmap, w.compose_on_second(z.pmap))))
    return pairs


def check_associativity_cells(cell1: Cell, map1: CellMap,
                              cell2: Cell, map2a: CellMap, map2b: CellMap,
                              cell3: Cell, map3: CellMap) -> CheckReport:
    """(X1 x_{Y1} X2) x_{Y2} X3 vs X1 x_{Y1} (X2 x_{Y2} X3), compared over Y1 x Y2.

    map2a: X2 -> Y1 pairs with map1; map2b: X2 -> Y2 pairs with map3.
    The two nestings run the torus elimination in different orders; their
    circle charts differ by a unimodular change and a rational shear, which
    the canonical form divides out.
    """
    refusals = ("inner product not transverse", "outer product not transverse")
    lhs = _nested_products(fibre_product_cells(cell1, map1, cell2, map2a),
                           lambda z: z.compose_on_second(map2b), cell3, map3, True, refusals)
    if isinstance(lhs, CheckReport):
        return lhs
    rhs = _nested_products(fibre_product_cells(cell2, map2b, cell3, map3),
                           lambda z: z.compose_on_first(map2a), cell1, map1, False, refusals)
    if isinstance(rhs, CheckReport):
        return rhs
    return _compare_signed_families(lhs, rhs, 1)


def check_interchange_cells(cell1: Cell, map1a: CellMap, map1b: CellMap,
                            cell2: Cell, map2: CellMap,
                            cell3: Cell, map3: CellMap) -> CheckReport:
    """X1 x_{Y1 x Y2} (X2 x X3) vs (X1 x_{Y1} X2) x_{Y2} X3.

    map1a: X1 -> Y1 pairs with map2; map1b: X1 -> Y2 pairs with map3.
    The right side carries the sign (-1)^(dim Y2 (dim Y1 + dim X2)).  The
    left side's inner product is over the point, which its stacked map drops.
    """
    my1 = map2.target.dim
    my2 = map3.target.dim
    predicted = -1 if (my2 * (my1 + cell2.dim)) % 2 else 1

    f1 = stack_cell_maps(map1a, map1b)
    n2, s2 = cell2.polytope.ambient_dim, cell2.torus_rank
    n3, s3 = cell3.polytope.ambient_dim, cell3.torus_rank
    prods = fibre_product_cells(cell2, constant_map(POINT, n2, s2),
                                cell3, constant_map(POINT, n3, s3))
    lhs = _nested_products(
        prods, lambda z: stack_cell_maps(z.compose_on_first(map2), z.compose_on_second(map3)),
        cell1, f1, False, ("product not orientable", "left product not transverse"))
    if isinstance(lhs, CheckReport):
        return lhs
    rhs = _nested_products(fibre_product_cells(cell1, map1a, cell2, map2),
                           lambda z: z.compose_on_first(map1b), cell3, map3, True,
                           ("inner product not transverse", "right product not transverse"))
    if isinstance(rhs, CheckReport):
        return rhs
    return _compare_signed_families(lhs, rhs, predicted)
