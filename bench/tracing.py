"""Per-layer spans recorded from outside the package.

`install` wraps each function in SPANS and rebinds every name in every
`riccigraph` module that refers to the original, so a call made through a
`from .graph import neighbor_partition` binding is recorded as well.  Methods
are replaced on their class.  Nothing inside `src/` is changed on disk.

A span records calls, inclusive seconds `s`, and `self_s`: `s` minus the time
spent in directly nested spans.  None of the wrapped functions recurse into
themselves, so inclusive times are not double counted.
"""

from __future__ import annotations

import functools
import importlib
import sys
from time import perf_counter


def _cells(args, kwargs) -> int:
    # solve_transportation(cost, supply, demand): an R x C instance
    return len(args[1]) * len(args[2])


# (module, qualified name, workloads that must reach it, extra counter)
SPANS = (
    ("graph", "parse_edge_list", {"cube_all", "sparse_gnp_all"}, None),
    ("graph", "neighbor_partition",
     {"cube_all", "sparse_gnp_all", "gnp_f_experiment", "bipartite_d_experiment"}, None),
    ("graph", "two_coloring", {"cube_all", "sparse_gnp_all", "bipartite_d_experiment"}, None),
    ("graph", "girth_at_least", {"cube_all", "sparse_gnp_all"}, None),
    ("graph", "core_neighborhood", {"cube_all", "sparse_gnp_all", "gnp_f_experiment"}, None),
    ("graph", "CoreNeighborhood.local_distance", {"cube_all", "sparse_gnp_all"}, None),
    ("graph", "CoreNeighborhood.transport_costs", {"sparse_gnp_all", "gnp_f_experiment"}, None),
    ("graph", "Graph.from_arrays", {"gnp_f_experiment", "bipartite_d_experiment"}, None),
    ("transport", "solve_transportation", {"sparse_gnp_all", "gnp_f_experiment"}, _cells),
    ("transport", "w1_primal", {"sparse_gnp_all", "gnp_f_experiment"}, None),
    ("transport", "w1_dual_oracle", {"sparse_gnp_all"}, None),
    ("curvature", "ricci_auto",
     {"cube_all", "sparse_gnp_all", "gnp_f_experiment", "bipartite_d_experiment"}, None),
    ("curvature", "ricci_lp", {"sparse_gnp_all", "gnp_f_experiment"}, None),
    ("curvature", "_bipartite_from_partition", {"cube_all", "bipartite_d_experiment"}, None),
    ("curvature", "_max_flow", {"cube_all", "bipartite_d_experiment"}, None),
    ("curvature", "curvature_bounds", {"cube_all", "sparse_gnp_all"}, None),
    ("curvature", "result_to_dict", {"cube_all", "sparse_gnp_all"}, None),
    ("matching", "matching_lower_bound", {"cube_all", "sparse_gnp_all"}, None),
    ("matching", "two_matching_lower_bound", {"cube_all", "sparse_gnp_all"}, None),
    ("matching", "max_matching", {"cube_all", "sparse_gnp_all"}, None),
    ("randgraph", "sample_gnp", {"gnp_f_experiment"}, None),
    ("randgraph", "sample_bipartite", {"bipartite_d_experiment"}, None),
    ("randgraph", "_marked_core_size", {"gnp_f_experiment", "bipartite_d_experiment"}, None),
    ("cli", "_load_graph", {"cube_all", "sparse_gnp_all"}, None),
    ("cli", "_emit_json", {"cube_all"}, None),
)


def span_name(module: str, qualname: str) -> str:
    return f"{module}.{qualname}"


class Tracer:
    """Aggregated spans: name -> {"calls", "s", "self_s", "extra"}."""

    def __init__(self):
        self.stats: dict[str, dict] = {}
        self._child_time: list[float] = []

    def wrap(self, name: str, fn, extra=None):
        stat = self.stats.setdefault(name, {"calls": 0, "s": 0.0, "self_s": 0.0, "extra": 0})
        child_time = self._child_time

        @functools.wraps(fn)
        def traced(*args, **kwargs):
            if extra is not None:
                stat["extra"] += extra(args, kwargs)
            child_time.append(0.0)
            t0 = perf_counter()
            try:
                return fn(*args, **kwargs)
            finally:
                elapsed = perf_counter() - t0
                nested = child_time.pop()
                stat["calls"] += 1
                stat["s"] += elapsed
                stat["self_s"] += elapsed - nested
                if child_time:
                    child_time[-1] += elapsed

        return traced


def install(tracer: Tracer) -> None:
    """Wrap every span and rebind every riccigraph name that refers to it."""
    for module, qualname, _, extra in SPANS:
        name = span_name(module, qualname)
        mod = importlib.import_module(f"riccigraph.{module}")
        if "." in qualname:
            cls_name, attr = qualname.split(".")
            owner = getattr(mod, cls_name)
            raw = owner.__dict__[attr]
            if isinstance(raw, classmethod):
                setattr(owner, attr, classmethod(tracer.wrap(name, raw.__func__, extra)))
            else:
                setattr(owner, attr, tracer.wrap(name, raw, extra))
            continue
        original = getattr(mod, qualname)
        wrapper = tracer.wrap(name, original, extra)
        for mod_name, other in list(sys.modules.items()):
            if other is None or not (mod_name == "riccigraph" or mod_name.startswith("riccigraph.")):
                continue
            for key, value in list(vars(other).items()):
                if value is original:
                    setattr(other, key, wrapper)
