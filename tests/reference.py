"""Reference constructions that the library no longer runs, kept for the
tests that check the library's own paths against them."""

from fractions import Fraction
from typing import Optional, Sequence

from cornercalc.cells import fibre_product_cells
from cornercalc.chains import Chain, Generator, pair_tags
from cornercalc.geometry import Polytope, section_polytope
from cornercalc.orbifold import (FiberCount, IotaReport, Stratum, conjugate_morphism,
                                 stabilizer)
from cornercalc.products import ProductError


def cut_by_equations(poly: Polytope, equations: Sequence) -> Optional[Polytope]:
    """The polytope cut by affine equations row . x = rhs, by the double
    description on the equations and the polytope's integer rows; None when
    empty."""
    hull, facets = poly._fd.rows()
    section = section_polytope(poly.ambient_dim, [*equations, *hull], facets)
    return section[0] if section else None


def product_section(p1: Polytope, p2: Polytope, equations: Sequence) -> Optional[tuple]:
    """(P1 x P2) cut by affine equations row . p = rhs, by the double
    description on the factors' integer rows, with the bitmask of the
    factor facets tight at each vertex, P1's facets then P2's; None when
    empty.  With no equation it is the product itself."""
    (hull1, facets1), (hull2, facets2) = p1._fd.rows(), p2._fd.rows()
    zero1, zero2 = [0] * p1.ambient_dim, [0] * p2.ambient_dim
    return section_polytope(
        p1.ambient_dim + p2.ambient_dim,
        [(e + zero2, c) for e, c in hull1] + [(zero1 + e, c) for e, c in hull2] + list(equations),
        [(f + zero2, c) for f, c in facets1] + [(zero1 + f, c) for f, c in facets2])


def tight_face_pairs(poly: Polytope, tight: Sequence[int], p1: Polytope, p2: Polytope) -> dict:
    """The face pairs of a slice of P1 x P2 by the tight-mask walk: each face
    of poly, in face_dims order, to the meets in P1 and in P2 of the factor
    facets tight at all of its vertices."""
    fd1, fd2 = p1._fd, p2._fd
    k1 = len(fd1.facets())
    pairs = {}
    for g in poly._fd.face_dims():
        t1 = t2 = -1
        for i in range(len(tight)):
            if g >> i & 1:
                t1 &= tight[i] & (1 << k1) - 1
                t2 &= tight[i] >> k1
        pairs[g] = (fd1.meet(t1), fd2.meet(t2))
    return pairs


def product_pair(g1: Generator, g2: Generator) -> list:
    """g1 cup g2 or g1 cap g2, by g1's kind, from a fibre product of its own:
    one pair of generators multiplied with no product table."""
    out = []
    for comp in fibre_product_cells(g1.cell, g1.cmap, g2.cell, g2.cmap):
        if not comp.transverse:
            raise ProductError("product hit a non-transverse component; "
                               "the cochain operand must be a submersion")
        out.append((Fraction(1), Generator(comp.cell, comp.pmap, pair_tags(g1.tag, g2.tag, comp),
                                           is_cochain=g1.is_cochain)))
    return out


def product_by_pairs(c1: Chain, c2: Chain) -> Chain:
    """cup or cap, by the first factor's kind: product_pair over every pair
    of the operands' terms, in the term order."""
    return Chain([(a1 * a2 * factor, g) for a1, g1 in c1.terms() for a2, g2 in c2.terms()
                  for factor, g in product_pair(g1, g2)])


def iota_by_containment(stratum: Stratum, probes: Sequence) -> IotaReport:
    """iota_check on the given (component, point) probes, deciding which
    pieces hold a probe by Polytope.contains on each piece."""
    big = stratum.action.group
    fibers, details = [], []
    for ci, p in probes:
        lams = [piece.morphism for piece in stratum.pieces
                if piece.component == ci and piece.polytope.contains(p)]
        stab = stabilizer(stratum.action, p, ci)
        count = len({min(conjugate_morphism(lam, s, big) for s in stab) for lam in lams})
        fibers.append(FiberCount(ci, p, count))
        if count > stratum.embeddings:
            details.append(f"fiber at {p} exceeds the embedding count")
    return IotaReport(not details, tuple(fibers), tuple(details))
