"""Cup and cap products, the identity cochain, pullback, and duality.

Cup and cap are one fibre product over the common target, oriented by the
one rule of cells.fibre_product_cells (Ker D, D = df1 - df2), with face
labels paired by multiset merge.  Both factors enter with their stored
orientations.  A cochain generator stores the orientation that its
coorientation gives by TX = f*(TY) + Ker df, and the cochain operand is a
submersion, so the component's orientation is that of the cup coorientation
when the first factor is a cochain, and the cap when it is a chain; the
result keeps the first factor's kind.  Duality reads a cochain's orientation
as a chain's, so it commutes with the boundaries up to (-1)^dim Y, the sign
of d on cochains (chains, Boundary).

Each law check builds each fibre product once.  It makes one product table,
a dict that lives as long as the check and that every cup and cap of the
check reads and fills (check_dga shares one across its four laws).  The
table is keyed by the two normalized operands' canonical cell and map, the
first seven slots of their normal-form keys, which is all that
fibre_product_cells reads; each product generator is then built from the
shared components with its own pair of tags.  Public cup and cap make a
fresh table per call, so a pair repeated inside one product, one cell and
map under two tags, is built once there too.  No table outlives its check.
"""

from __future__ import annotations

from fractions import Fraction
from typing import Sequence

from ._linalg import mat, rank
from .cells import (
    Cell,
    Coorientation,
    Target,
    fibre_product_cells,
    identity_map,
    permute_cell_coords,
)
from .chains import (
    Chain,
    Generator,
    Tag,
    TargetMap,
    _law,
    boundary,
    pair_tags,
    pushforward,
)
from .geometry import POINT_POLYTOPE
from .maps import CheckReport


class ProductError(ValueError):
    pass


# The kind, target and grade checks read the stored terms unsorted, as
# chains.boundary does: each decides on the set of generators alone.

def _require_cochain(c: Chain, what: str) -> None:
    for _, g in c._terms.values():
        if not g.is_cochain:
            raise ProductError(f"{what} needs cochain generators")


def _require_chain(c: Chain, what: str) -> None:
    for _, g in c._terms.values():
        if g.is_cochain:
            raise ProductError(f"{what} needs oriented chain generators")


def _common_target(c: Chain) -> Target | None:
    targets = {g.cmap.target for _, g in c._terms.values()}
    if len(targets) > 1:
        raise ProductError("generators share no common target")
    return targets.pop() if targets else None


# ---------------------------------------------------------------------------
# Cup and cap
# ---------------------------------------------------------------------------

def _pair(g1: Generator, g2: Generator, table: dict) -> list:
    """g1 cup g2 or g1 cap g2, by g1's kind; g2 is a cochain.

    f2 is a submersion, so the fibre product's rule orients each component
    by g1's frame (lifts of TY, then Ker df1) lifted through f2, followed by
    Ker df2 as g2's orientation gives it: the cup coorientation
    (Ker df1, Ker df2) when g1 is a cochain.  g1 and g2 are normalized
    generators, and the components are the table's for their canonical cells
    and maps, built on the first request.
    """
    key = (g1._key[:7], g2._key[:7])
    comps = table.get(key)
    if comps is None:
        comps = table[key] = fibre_product_cells(g1.cell, g1.cmap, g2.cell, g2.cmap)
    out = []
    for comp in comps:
        if not comp.transverse:
            raise ProductError("product hit a non-transverse component; "
                               "the cochain operand must be a submersion")
        tag = pair_tags(g1.tag, g2.tag, comp)
        out.append((Fraction(1), Generator(comp.cell, comp.pmap, tag,
                                           is_cochain=g1.is_cochain)))
    return out


def _product(c1: Chain, c2: Chain, what: str, table: dict) -> Chain:
    """The bilinear extension of _pair, after the target check.

    The operands' stored terms are read unsorted, as chains.boundary reads
    them: the sum is exact and the result a canonical Chain.
    """
    t1, t2 = _common_target(c1), _common_target(c2)
    if t1 is not None and t2 is not None and t1 != t2:
        raise ProductError(f"{what} factors live over different targets")
    terms = []
    terms2 = c2._terms.values()
    for a1, g1 in c1._terms.values():
        for a2, g2 in terms2:
            for factor, g in _pair(g1, g2, table):
                terms.append((a1 * a2 * factor, g))
    return Chain(terms)


def _cup(c1: Chain, c2: Chain, table: dict) -> Chain:
    """cup with the given product table."""
    _require_cochain(c1, "cup")
    _require_cochain(c2, "cup")
    return _product(c1, c2, "cup", table)


def _cap(c: Chain, delta: Chain, table: dict) -> Chain:
    """cap with the given product table."""
    _require_chain(c, "cap")
    _require_cochain(delta, "cap")
    return _product(c, delta, "cap", table)


def cup(c1: Chain, c2: Chain) -> Chain:
    """Product of cochains over a shared target; bilinear and canonical."""
    return _cup(c1, c2, {})


def cap(c: Chain, delta: Chain) -> Chain:
    """Chain-by-cochain product; the result is an oriented chain."""
    return _cap(c, delta, {})


# ---------------------------------------------------------------------------
# Identity cochain
# ---------------------------------------------------------------------------

def identity_generator(y: Target) -> Generator:
    """The unit generator: a point times the target torus, mapping by identity."""
    if not y.compact:
        raise ProductError("no compact identity model over a euclidean target")
    tag = Tag(POINT_POLYTOPE, {((),): ()})
    return Generator(Cell(POINT_POLYTOPE, y.dim), identity_map(y), tag,
                     coorientation=Coorientation((), 1))


def identity_cochain(y: Target) -> Chain:
    """The cup/cap unit; its differential vanishes (the cell has no facets)."""
    return Chain([(Fraction(1), identity_generator(y))])


# ---------------------------------------------------------------------------
# Degree bookkeeping and transport witnesses
# ---------------------------------------------------------------------------

def homogeneous_degree(c: Chain) -> int | None:
    degrees = c.grades()
    if len(degrees) > 1:
        raise ProductError("chain is not homogeneous")
    return degrees.pop() if degrees else None


def _sign(exponent: int) -> int:
    return -1 if exponent % 2 else 1


def _permute_generator(gen: Generator, perm: Sequence[int]) -> Generator:
    """Coordinate-permutation witness: cell, map and labels."""
    cell, cmap = permute_cell_coords(gen.cell, gen.cmap, perm)
    index = {v: i for i, v in enumerate(cell.polytope.vertices)}
    table = [index[tuple(v[j] for j in perm)] for v in gen.cell.polytope.vertices]
    tag = gen.tag.moved(cell.polytope.vertices, table)
    return Generator(cell, cmap, tag, is_cochain=gen.is_cochain)


def _block_swap_perm(n_first: int, n_second: int) -> list:
    return list(range(n_first, n_first + n_second)) + list(range(n_first))


# ---------------------------------------------------------------------------
# DGA checks
# ---------------------------------------------------------------------------

# Each check below makes one product table; its private twin takes the
# table, and cup(c1, c2) when it shares it.

def check_cup_supercommutative(c1: Chain, c2: Chain) -> CheckReport:
    """cup(c1, c2) equals the sign-weighted swap, transported by the
    coordinate-exchange witness per generator pair."""
    table: dict = {}
    return _cup_supercommutative(c1, c2, _cup(c1, c2, table), table)


def _cup_supercommutative(c1: Chain, c2: Chain, c12: Chain, table: dict) -> CheckReport:
    """check_cup_supercommutative with c12 = cup(c1, c2) given."""
    swapped = []
    terms2 = c2._terms.values()
    for a1, g1 in c1._terms.values():
        for a2, g2 in terms2:
            sign = _sign(g1.grade * g2.grade)
            n1 = g1.cell.polytope.ambient_dim
            n2 = g2.cell.polytope.ambient_dim
            perm = _block_swap_perm(n2, n1)
            swapped += [(sign * a1 * a2 * coeff, _permute_generator(g, perm))
                        for coeff, g in _pair(g2, g1, table)]
    return _law(c12, Chain(swapped), "swap comparison failed")


def check_cup_associative(c1: Chain, c2: Chain, c3: Chain) -> CheckReport:
    table: dict = {}
    return _cup_associative(c1, c2, c3, _cup(c1, c2, table), table)


def _cup_associative(c1: Chain, c2: Chain, c3: Chain, c12: Chain,
                     table: dict) -> CheckReport:
    """check_cup_associative with c12 = cup(c1, c2) given."""
    return _law(_cup(c12, c3, table), _cup(c1, _cup(c2, c3, table), table),
                "associativity failed")


def check_cup_leibniz(c1: Chain, c2: Chain) -> CheckReport:
    table: dict = {}
    return _cup_leibniz(c1, c2, _cup(c1, c2, table), table)


def _cup_leibniz(c1: Chain, c2: Chain, c12: Chain, table: dict) -> CheckReport:
    """check_cup_leibniz with c12 = cup(c1, c2) given."""
    k = homogeneous_degree(c1)
    if k is None:
        return CheckReport(True, 0, True)
    return _law(boundary(c12),
                _cup(boundary(c1), c2, table) + _cup(c1, boundary(c2), table).scale(_sign(k)),
                "cochain Leibniz failed")


def check_cup_identity(c: Chain) -> CheckReport:
    return _cup_identity(c, {})


def _cup_identity(c: Chain, table: dict) -> CheckReport:
    t = _common_target(c)
    if t is None:
        return CheckReport(True, 0, True)
    e = identity_cochain(t)
    left = _law(_cup(e, c, table), c, "identity law failed")
    return _law(_cup(c, e, table), c, "identity law failed") if left.ok else left


def check_dga(c1: Chain, c2: Chain, c3: Chain) -> CheckReport:
    """Supercommutativity, Leibniz, associativity, and the unit laws.

    The four laws share one product table, and cup(c1, c2) is computed once
    and shared by the first three.
    """
    table: dict = {}
    c12 = _cup(c1, c2, table)
    reports = {
        "supercommutativity": _cup_supercommutative(c1, c2, c12, table),
        "leibniz": _cup_leibniz(c1, c2, c12, table),
        "associativity": _cup_associative(c1, c2, c3, c12, table),
        "identity": _cup_identity(c1, table),
    }
    bad = tuple(name for name, rep in reports.items() if not rep.ok)
    checked = sum(rep.checked for rep in reports.values())
    return CheckReport(not bad, checked, True, bad)


# ---------------------------------------------------------------------------
# Cap module checks
# ---------------------------------------------------------------------------

def check_cap_module(c: Chain, d1: Chain, d2: Chain) -> CheckReport:
    """(c cap d1) cap d2 equals c cap (d1 cup d2)."""
    table: dict = {}
    return _law(_cap(_cap(c, d1, table), d2, table), _cap(c, _cup(d1, d2, table), table),
                "cap module axiom failed")


def check_cap_leibniz(c: Chain, d: Chain) -> CheckReport:
    """Boundary of a cap: (bd c) cap d plus the sign-weighted c cap (bd d).

    The sign is (-1) to the chain grade.
    """
    k = homogeneous_degree(c)
    if k is None:
        return CheckReport(True, 0, True)
    table: dict = {}
    return _law(boundary(_cap(c, d, table)),
                _cap(boundary(c), d, table) + _cap(c, boundary(d), table).scale(_sign(k)),
                "cap Leibniz failed")


def check_cap_identity(c: Chain) -> CheckReport:
    t = _common_target(c)
    if t is None:
        return CheckReport(True, 0, True)
    return _law(cap(c, identity_cochain(t)), c, "cap identity law failed")


# ---------------------------------------------------------------------------
# Pullback
# ---------------------------------------------------------------------------

def pullback(h: TargetMap, delta: Chain) -> Chain:
    """Pull a cochain back along a proper map of targets; grade is preserved.

    Properness is automatic for compact sources.  For a euclidean source the
    affine map must be injective; even then the fibre has no compact model
    here, so only the zero cochain pulls back over euclidean sources.
    """
    _require_cochain(delta, "pullback")
    t = _common_target(delta)
    if t is not None and t != h.target:
        raise ProductError("cochain does not live over the map's target")
    if not h.source.compact:
        if rank(mat(h.matrix)) < h.source.dim:
            raise ProductError("pullback needs a proper map; an affine map "
                               "from a euclidean target must be injective")
        if t is None:
            return Chain()
        raise ProductError("no compact identity model over a euclidean target")
    if t is None:
        return Chain()
    unit = identity_generator(h.source)
    map_h = h.after(unit.cmap, 0, h.source.dim)
    terms = []
    for coeff, g in delta.terms():
        comps = fibre_product_cells(unit.cell, map_h, g.cell, g.cmap)
        for comp in comps:
            if not comp.transverse:
                raise ProductError("pullback hit a non-transverse component")
            tag = pair_tags(unit.tag, g.tag, comp)
            terms.append((coeff, Generator(comp.cell, comp.compose_on_first(unit.cmap), tag,
                                           is_cochain=True)))
    return Chain(terms)


def check_pullback_functorial(h1: TargetMap, h2: TargetMap,
                              delta: Chain) -> CheckReport:
    """(h1 after h2) pulled back equals pulling back along h1 then h2."""
    return _law(pullback(h1.compose(h2), delta), pullback(h2, pullback(h1, delta)),
                "pullback functoriality failed")


def check_pullback_cup(h: TargetMap, d1: Chain, d2: Chain) -> CheckReport:
    return _law(pullback(h, cup(d1, d2)), cup(pullback(h, d1), pullback(h, d2)),
                "pullback of a cup failed")


def check_pullback_d(h: TargetMap, delta: Chain) -> CheckReport:
    return _law(boundary(pullback(h, delta)), pullback(h, boundary(delta)),
                "pullback does not commute with d")


def projection_formula(alpha: Chain, beta: Chain, h: TargetMap) -> CheckReport:
    """Push alpha cap (pulled-back beta) forward equals pushing then capping."""
    table: dict = {}
    return _law(pushforward(h, _cap(alpha, pullback(h, beta), table)),
                _cap(pushforward(h, alpha), beta, table), "projection formula failed")


# ---------------------------------------------------------------------------
# Duality: cochains as oriented chains
# ---------------------------------------------------------------------------

def duality_KchToKh(delta: Chain, orientation: int = 1) -> Chain:
    """Reinterpret a cochain over an oriented target as an oriented chain.

    A cochain generator already stores the orientation its coorientation and
    the target's orientation compose to; reversing the target's orientation
    negates the result.
    """
    if type(orientation) is not int or orientation not in (1, -1):
        raise ProductError("orientation must be +1 or -1")
    _require_cochain(delta, "duality")
    return Chain([(coeff * orientation, Generator(g.cell, g.cmap, g.tag))
                  for coeff, g in delta.terms()])


def check_duality_chain_map(delta: Chain) -> CheckReport:
    """The boundary of the dual chain is (-1)^dim Y times the dual of d: d
    restricts a cochain in the kernel, outward normal first (chains)."""
    t = _common_target(delta)
    sign = _sign(t.dim) if t is not None else 1
    return _law(boundary(duality_KchToKh(delta)), duality_KchToKh(boundary(delta)).scale(sign),
                "duality is not a chain map")
