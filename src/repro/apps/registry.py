"""Application registry: the one table of how each app is launched.

Every caller that runs an application by name asks this table, never
its own ``app == ...`` branch: which constructor builds it
(:meth:`AppSpec.build`), which graph it actually executes
(:meth:`AppSpec.prepare` -- WCC runs on the symmetrised edge set),
whether it takes a root and whether it needs edge weights.
:meth:`repro.core.framework.ReGraph.run_app` applies the table: it
preprocesses, maps the root into the relabelled (post-DBG) vertex IDs
and runs.  How each answer is *judged* lives in one place too, in
:mod:`repro.check.oracles`.
"""

from __future__ import annotations

from typing import Callable, Dict, List, Optional

from repro.apps.bfs import BreadthFirstSearch
from repro.apps.closeness import ClosenessCentrality
from repro.apps.delta_pagerank import DeltaPageRank
from repro.apps.pagerank import PageRank
from repro.apps.radii import RadiiEstimation
from repro.apps.sssp import SingleSourceShortestPaths
from repro.apps.wcc import WeaklyConnectedComponents, symmetrized
from repro.graph.coo import Graph


class AppSpec:
    """Metadata + factory for one registered application."""

    def __init__(
        self,
        name: str,
        factory: Callable,
        takes_root: bool,
        needs_weights: bool,
        description: str,
        symmetric: bool = False,
    ):
        self.name = name
        self.factory = factory
        self.takes_root = takes_root
        self.needs_weights = needs_weights
        self.description = description
        #: the app executes the union of the graph and its transpose
        self.symmetric = symmetric

    def prepare(self, graph: Graph) -> Graph:
        """The graph this app actually executes for input ``graph``."""
        return symmetrized(graph) if self.symmetric else graph

    def build(self, graph: Graph, root: Optional[int] = None, **options):
        """Instantiate the app for a (relabelled) graph.

        ``options`` are forwarded to the app's constructor (e.g.
        PageRank's ``tolerance``).
        """
        if self.needs_weights and not graph.weighted:
            raise ValueError(f"{self.name} needs a weighted graph")
        if self.takes_root:
            return self.factory(graph, root=root or 0, **options)
        return self.factory(graph, **options)


_REGISTRY: Dict[str, AppSpec] = {
    spec.name: spec
    for spec in [
        AppSpec(
            "pagerank", PageRank, takes_root=False, needs_weights=False,
            description="fixed-point PageRank (Listing 1)",
        ),
        AppSpec(
            "delta-pagerank", DeltaPageRank, takes_root=False,
            needs_weights=False,
            description="incremental PageRank propagating only deltas",
        ),
        AppSpec(
            "bfs", BreadthFirstSearch, takes_root=True, needs_weights=False,
            description="level-synchronous breadth-first search",
        ),
        AppSpec(
            "closeness", ClosenessCentrality, takes_root=True,
            needs_weights=False,
            description="closeness centrality of one vertex (BFS-based)",
        ),
        AppSpec(
            "wcc", WeaklyConnectedComponents, takes_root=False,
            needs_weights=False, symmetric=True,
            description="min-label connected components",
        ),
        AppSpec(
            "sssp", SingleSourceShortestPaths, takes_root=True,
            needs_weights=True,
            description="single-source shortest paths (weighted)",
        ),
        AppSpec(
            "radii", RadiiEstimation, takes_root=False, needs_weights=False,
            description="graph radii estimation (64-way multi-source BFS)",
        ),
    ]
}


def available_apps() -> List[str]:
    """Registered application names."""
    return sorted(_REGISTRY)


def get_app_spec(name: str) -> AppSpec:
    """Look up an application by name."""
    key = name.lower()
    if key not in _REGISTRY:
        raise KeyError(
            f"unknown app {name!r}; available: {available_apps()}"
        )
    return _REGISTRY[key]
