"""Reference constructions that the library no longer runs, kept for the
tests that check the library's own paths against them."""

from typing import Optional, Sequence

from cornercalc.geometry import Polytope, section_polytope


def cut_by_equations(poly: Polytope, equations: Sequence) -> Optional[Polytope]:
    """The polytope cut by affine equations row . x = rhs, by the double
    description on the equations and the polytope's integer rows; None when
    empty."""
    hull, facets = poly._fd.rows()
    section = section_polytope(poly.ambient_dim, [*equations, *hull], facets)
    return section[0] if section else None
