"""cornercalc: exact chain-level homology, cohomology and bordism for mapped cells.

Everything is exact rational arithmetic. The modules build on one another:

- geometry: compact convex polytopes by their vertices, face lattices,
  facet inequalities, corner types and affine isomorphisms of vertex sets;
- cells: the one oriented object, a cell P x T^s (s = 0 is a plain oriented
  polytope) with an orientation sign, its boundary, affine maps into a point,
  Euclidean space or a torus, coorientations, fibre products with exact
  orientation signs, and canonical forms;
- chains: gauge-tagged chains and cochains, the boundary operator, the corner
  involution on the second boundary, homology;
- maps: the fibre-product identities (boundary, swap, associativity,
  interchange), each checked exactly;
- products, orbifold, bordism: cup and cap products, finite-group quotients
  and orbifold strata, finitely presented bordism groups;
- randgen, suites: seeded random instances and the identity-check suites.
"""

__version__ = "0.1.0"
