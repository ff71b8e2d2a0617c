"""Per-layer tracing from outside the library.

`Tracer.install` wraps the public functions listed in `TRACED` by rebinding
the name in every `cornercalc` module namespace (and in the benchmark's own
modules) that holds the original object, and by replacing methods on their
classes.  Nothing under `src/` is edited.

Each wrapped call records a span `[name, start, end, parent, ok]`.  Spans of
one operation share the operation's index: they are kept in memory while it
runs, then folded into per-name call counts and self time (a span's duration
minus the time its child spans cover) and dropped.  Hooks add counts measured
at the same boundaries, such as matrix entries handed to `rref` or facet
subsets tried by a cold facet enumeration.  The speed probe that runs inside
operations (`worker.Speed`) lands in the self time of whichever span is open,
about 4% of it.

The traced run replaces the wall-clock deadline by a span budget: an
operation that opens more than `budget` spans is stopped.  A budget is
deterministic, so every count of a traced run repeats exactly at one seed.
"""

from __future__ import annotations

import importlib
import math
import sys
import time
from collections import Counter

# (module, attribute path, metric name).  The metric name's first part is the
# layer; calls are counted as `<metric>.calls`, self time as `<metric>.self_s`.
TRACED = [
    ("_linalg", "rref", "linalg.rref"),
    ("_linalg", "rank", "linalg.rank"),
    ("_linalg", "kernel_basis", "linalg.kernel_basis"),
    ("_linalg", "solve", "linalg.solve"),
    ("_linalg", "in_span", "linalg.in_span"),
    ("_linalg", "independent_subset", "linalg.independent_subset"),
    ("_linalg", "det", "linalg.det"),
    ("_linalg", "change_of_basis_det", "linalg.change_of_basis_det"),
    ("_linalg", "canonical_frame", "linalg.canonical_frame"),
    ("_linalg", "lp_feasible", "linalg.lp_feasible"),
    ("_linalg", "hermite_column", "linalg.hnf"),
    ("_linalg", "integer_kernel_basis", "linalg.integer_kernel_basis"),
    ("_linalg", "smith_normal_form", "linalg.snf"),
    ("_linalg", "invariant_factors", "linalg.invariant_factors"),
    ("_linalg", "solve_integer", "linalg.solve_integer"),
    ("_linalg", "integer_matrix_inverse", "linalg.integer_matrix_inverse"),
    ("geometry", "Polytope.__init__", "geometry.polytope_init"),
    ("geometry", "Polytope.from_points", "geometry.from_points"),
    ("geometry", "Polytope.minimal_face_containing", "geometry.minimal_face"),
    ("geometry", "Polytope.facet_inequalities", "geometry.facet_inequalities"),
    ("geometry", "Polytope.affine_hull_equations", "geometry.affine_hull_equations"),
    ("geometry", "Polytope.contains", "geometry.contains"),
    ("geometry", "_FaceData.__init__", "geometry.face_data"),
    ("geometry", "_FaceData.local_matrix", "geometry.local_matrix"),
    ("geometry", "_FaceData.facets", "geometry.facets"),
    ("geometry", "_FaceData.faces_by_dim", "geometry.faces"),
    ("cells", "Cell.__init__", "cells.cell_init"),
    ("cells", "CellMap.__init__", "cells.cellmap_init"),
    ("cells", "Coorientation.__init__", "cells.coorientation_init"),
    ("cells", "cell_boundary", "cells.cell_boundary"),
    ("cells", "is_interior_submersion", "cells.is_interior_submersion"),
    ("cells", "kernel_coorientation", "cells.kernel_coorientation"),
    ("cells", "fibre_product_cells", "cells.fibre_product"),
    ("cells", "_build_component", "cells.build_component"),
    ("cells", "_slice_polytope", "cells.slice_polytope"),
    ("cells", "canonical_cell_map", "cells.canonical_cell_map"),
    ("cells", "cell_orientation_equal", "cells.cell_orientation_equal"),
    ("cells", "permute_cell_coords", "cells.permute_cell_coords"),
    ("chains", "Chain.__init__", "chains.chain_init"),
    ("chains", "Generator.__init__", "chains.generator_init"),
    ("chains", "_normal_form", "chains.normal_form"),
    ("chains", "generator_boundary", "chains.generator_boundary"),
    ("chains", "boundary", "chains.boundary"),
    ("chains", "corner_terms", "chains.corner_terms"),
    ("chains", "check_sigma_pairing", "chains.check_sigma_pairing"),
    ("chains", "verify_dd_zero", "chains.verify_dd_zero"),
    ("chains", "transport_generator", "chains.transport_generator"),
    ("chains", "singular_to_kuranishi", "chains.singular_to_kuranishi"),
    ("chains", "check_singular_chain_map", "chains.check_singular_chain_map"),
    ("chains", "cylinder", "chains.cylinder"),
    ("chains", "simplex_face_complex", "chains.simplex_face_complex"),
    ("chains", "ChainComplex.__init__", "chains.complex_init"),
    ("chains", "ChainComplex.betti", "chains.betti"),
    ("maps", "check_boundary_of_fibre_product_cells", "maps.check_boundary_product"),
    ("maps", "check_swap_sign_cells", "maps.check_swap"),
    ("maps", "check_associativity_cells", "maps.check_associativity"),
    ("maps", "check_interchange_cells", "maps.check_interchange"),
    ("maps", "stack_cell_maps", "maps.stack_cell_maps"),
    ("maps", "_compare_signed_families", "maps.compare_families"),
    ("products", "cup", "products.cup"),
    ("products", "cap", "products.cap"),
    ("products", "pullback", "products.pullback"),
    ("products", "identity_cochain", "products.identity_cochain"),
    ("products", "check_dga", "products.check_dga"),
    ("products", "check_cap_module", "products.check_cap_module"),
    ("products", "check_cap_leibniz", "products.check_cap_leibniz"),
    ("products", "check_cap_identity", "products.check_cap_identity"),
    ("products", "projection_formula", "products.projection_formula"),
    ("orbifold", "GroupAction.__init__", "orbifold.action_init"),
    ("orbifold", "injective_morphisms", "orbifold.injective_morphisms"),
    ("orbifold", "orbifold_stratum", "orbifold.stratum"),
    ("orbifold", "_cut_by_equations", "orbifold.cut_by_equations"),
    ("orbifold", "iota_check", "orbifold.iota_check"),
    ("orbifold", "stabilizer", "orbifold.stabilizer"),
    ("orbifold", "quotient_pushdown", "orbifold.quotient_pushdown"),
    ("bordism", "BordismClass.__init__", "bordism.class_init"),
    ("bordism", "closed_certificate_check", "bordism.certificate"),
    ("bordism", "present_group", "bordism.present_group"),
    ("bordism", "oriented_match", "bordism.oriented_match"),
    ("bordism", "Pi_Kb_Kh", "bordism.emit"),
    ("bordism", "tag_independence_witness", "bordism.prism_witness"),
    ("bordism", "strata_projection", "bordism.strata_projection"),
    ("randgen", "random_polytope", "randgen.random_polytope"),
    ("randgen", "random_map", "randgen.random_map"),
    ("randgen", "_invertible_matrix", "randgen.invertible_matrix"),
    ("randgen", "random_generator", "randgen.random_generator"),
    ("randgen", "random_chain", "randgen.random_chain"),
    ("randgen", "submersive_cell", "randgen.submersive_cell"),
    ("randgen", "fibre_instance", "randgen.fibre_instance"),
    ("randgen", "doubly_mapped_cell", "randgen.doubly_mapped_cell"),
    ("randgen", "random_cochain", "randgen.random_cochain"),
    ("randgen", "random_chain_over", "randgen.random_chain_over"),
    ("randgen", "random_target_map", "randgen.random_target_map"),
    ("randgen", "random_singular_terms", "randgen.random_singular_terms"),
    ("randgen", "random_cycle_class", "randgen.random_cycle_class"),
]

# Samplers that resample until a side condition holds: each direct child
# span of the named kind is one attempt, and a normal return accepts one.
RETRIES = {
    "randgen.random_polytope": "geometry.from_points",
    "randgen.fibre_instance": "cells.fibre_product",
    "randgen.invertible_matrix": "linalg.rank",
    "randgen.random_target_map": "linalg.rank",
}

LAYERS = ("linalg", "geometry", "cells", "chains", "maps", "products",
          "orbifold", "bordism", "randgen")


class OpTimeout(BaseException):
    """An operation passed its deadline.

    Derived from BaseException so that no `except ValueError` or
    `except Exception` inside the library can swallow it.
    """


def _entries_pre(args):
    m = args[0]
    if isinstance(m, (list, tuple)) and m and isinstance(m[0], (list, tuple)):
        return len(m) * len(m[0])
    return 0


def _entries(counts, args, result, entries):
    counts["linalg.rref.entries"] += entries


def _facets_pre(args):
    fd = args[0]
    return fd._facets is None


def _facets(counts, args, result, cold):
    if cold:
        fd = args[0]
        counts["geometry.facets.cold_calls"] += 1
        if fd.dim > 0:
            counts["geometry.facets.subsets_tried"] += math.comb(
                len(fd.vertices), fd.dim)
        counts["geometry.facets.found"] += len(result)


def _components(counts, args, result):
    counts["cells.fibre_product.components"] += len(result)


def _corners(counts, args, result):
    counts["chains.corners_checked"] += result.corners_checked


def _terms_out(counts, args, result):
    counts["products.terms_out"] += len(result.terms())


def _emissions(counts, args, result):
    counts["bordism.emissions"] += len(result.terms())


HOOKS = {
    "linalg.rref": (_entries_pre, _entries),
    "geometry.facets": (_facets_pre, _facets),
    "cells.fibre_product": _components,
    "chains.verify_dd_zero": _corners,
    "products.cup": _terms_out,
    "products.cap": _terms_out,
    "products.pullback": _terms_out,
    "bordism.emit": _emissions,
}


class Tracer:
    def __init__(self, budget: int):
        self.budget = budget
        self.spans: list = []
        self.stack: list = []
        self.counts: Counter = Counter()
        self.calls: Counter = Counter()
        self.self_s: Counter = Counter()
        self.attempts = 0
        self.accepts = 0

    # -- installation ----------------------------------------------------------

    def _span(self, name: str, fn, hook):
        spans, stack, counts = self.spans, self.stack, self.counts
        clock = time.perf_counter
        budget = self.budget
        pre, post = hook if isinstance(hook, tuple) else (None, hook)

        def traced(*args, **kwargs):
            if len(spans) >= budget:
                raise OpTimeout(f"span budget {budget} exhausted")
            token = pre(args) if pre else None
            idx = len(spans)
            span = [name, clock(), 0.0, stack[-1] if stack else -1, False]
            spans.append(span)
            stack.append(idx)
            try:
                result = fn(*args, **kwargs)
                span[4] = True
            finally:
                span[2] = clock()
                stack.pop()
            if post is not None:
                if pre:
                    post(counts, args, result, token)
                else:
                    post(counts, args, result)
            return result

        traced.__wrapped__ = fn
        return traced

    def _chain_init(self, orig):
        """Chain.__init__ that counts the terms going in and coming out."""
        counts = self.counts

        def init(chain, terms=(), ring="Q"):
            terms = list(terms)
            counts["chains.chain_init.terms_in"] += len(terms)
            orig(chain, terms, ring)
            counts["chains.chain_init.terms_out"] += len(chain.terms())
        return init

    def _from_points(self, orig):
        """Polytope.from_points that counts the points it is given."""
        counts = self.counts

        def from_points(ambient_dim, points):
            points = list(points)
            counts["geometry.from_points.points"] += len(points)
            return orig(ambient_dim, points)
        return from_points

    def install(self, extra_modules=()) -> None:
        modules = [m for n, m in sorted(sys.modules.items())
                   if m is not None and (n == "cornercalc"
                                         or n.startswith("cornercalc."))]
        modules += list(extra_modules)
        for modname, path, name in TRACED:
            module = importlib.import_module(f"cornercalc.{modname}")
            if "." in path:
                cls_name, attr = path.split(".")
                cls = getattr(module, cls_name)
                raw = cls.__dict__[attr]
                is_static = isinstance(raw, staticmethod)
                fn = raw.__func__ if is_static else raw
                if name == "chains.chain_init":
                    fn = self._chain_init(fn)
                elif name == "geometry.from_points":
                    fn = self._from_points(fn)
                wrapped = self._span(name, fn, HOOKS.get(name))
                setattr(cls, attr, staticmethod(wrapped) if is_static else wrapped)
                continue
            orig = getattr(module, path)
            wrapped = self._span(name, orig, HOOKS.get(name))
            for m in modules:
                for key, value in list(vars(m).items()):
                    if value is orig:
                        setattr(m, key, wrapped)

    # -- per operation ---------------------------------------------------------

    def commit(self) -> None:
        """Fold the finished operation's spans into the totals and drop them."""
        spans = self.spans
        child = [0.0] * len(spans)
        tries = [0] * len(spans)
        for name, start, end, parent, _ in spans:
            if parent >= 0:
                child[parent] += end - start
                if RETRIES.get(spans[parent][0]) == name:
                    tries[parent] += 1
        for i, (name, start, end, _, ok) in enumerate(spans):
            self.calls[name] += 1
            self.self_s[name] += (end - start) - child[i]
            if name in RETRIES:
                self.attempts += max(tries[i], 1)
                self.accepts += ok
        spans.clear()
        self.stack.clear()


def layer_metrics(tracer: Tracer, cache: dict) -> dict:
    """Per-layer metrics of a traced run, as {name: (value, unit)}."""
    calls, self_s, counts = tracer.calls, tracer.self_s, tracer.counts
    out = {}
    for layer in LAYERS:
        out[f"{layer}.self_s"] = (sum(v for k, v in self_s.items()
                                      if k.startswith(layer + ".")), "s")
    for name in ("linalg.rref", "linalg.solve", "linalg.det",
                 "linalg.kernel_basis", "linalg.lp_feasible", "linalg.snf",
                 "linalg.hnf", "geometry.from_points", "geometry.minimal_face",
                 "cells.cell_init", "cells.canonical_cell_map",
                 "cells.fibre_product", "cells.slice_polytope",
                 "chains.chain_init", "chains.boundary", "products.cup",
                 "products.cap", "products.pullback", "orbifold.stratum",
                 "orbifold.iota_check", "bordism.present_group",
                 "bordism.certificate"):
        out[f"{name}.calls"] = (calls[name], "count")
    for name in ("linalg.lp_feasible", "geometry.facets", "cells.cell_init",
                 "cells.canonical_cell_map", "cells.fibre_product",
                 "chains.betti"):
        out[f"{name}.self_s"] = (self_s[name], "s")
    for name in ("linalg.rref.entries", "geometry.from_points.points",
                 "geometry.facets.cold_calls", "geometry.facets.subsets_tried",
                 "cells.fibre_product.components", "chains.chain_init.terms_in",
                 "chains.chain_init.terms_out", "chains.corners_checked",
                 "products.terms_out", "bordism.emissions"):
        out[name] = (counts[name], "count")
    tried = counts["geometry.facets.subsets_tried"]
    out["geometry.facets.yield"] = (
        counts["geometry.facets.found"] / tried if tried else 0.0, "ratio")
    out["maps.checks.calls"] = (sum(v for k, v in calls.items()
                                    if k.startswith("maps.check_")), "count")
    lookups = cache["hits"] + cache["misses"]
    out["geometry.face_cache.hit_ratio"] = (
        cache["hits"] / lookups if lookups else 0.0, "ratio")
    out["geometry.face_cache.misses"] = (cache["misses"], "count")
    out["geometry.face_cache.evictions"] = (cache["evictions"], "count")
    out["randgen.rejects"] = (tracer.attempts - tracer.accepts, "count")
    out["randgen.accept_ratio"] = (
        tracer.accepts / tracer.attempts if tracer.attempts else 1.0, "ratio")
    return out
