"""Declarative cell descriptions for chaos campaigns.

A campaign is a matrix of **cells**; each cell pins one
``{device, app, graph, fault plan}`` combination.  Both
:class:`GraphSpec` and :class:`CellSpec` are value objects with exact
dict round-trips, so a cell (and therefore a failure) is fully
describable by a JSON blob — the property the repro bundles rely on.
"""

from __future__ import annotations

import math
import numbers
from dataclasses import dataclass, field, replace
from typing import Optional, Tuple

from repro.errors import UserInputError
from repro.faults.plan import FaultPlan
from repro.graph.coo import MAX_VERTICES, Graph
from repro.utils.validation import check_max_iterations
from repro.utils.wire import Wire

#: Generator families a cell may draw its graph from.
GRAPH_KINDS = ("rmat", "powerlaw", "uniform")


@dataclass(frozen=True)
class GraphSpec(Wire):
    """A graph described by its generator inputs, not its edges.

    ``build()`` is deterministic: the same spec always yields the same
    COO arrays, which is what makes a repro bundle self-contained — it
    ships the recipe, not megabytes of edge list.
    """

    kind: str
    vertices: int
    edges: int
    seed: int
    exponent: float = 1.8
    weighted: bool = False

    def __post_init__(self):
        if self.kind not in GRAPH_KINDS:
            raise UserInputError(
                f"unknown graph kind {self.kind!r}; expected one of "
                f"{GRAPH_KINDS}"
            )
        if self.vertices < 2 or self.edges < 1:
            raise UserInputError(
                f"degenerate graph spec: {self.vertices} vertices, "
                f"{self.edges} edges"
            )
        if self.vertices > MAX_VERTICES:
            raise UserInputError(
                f"graph spec has {self.vertices} vertices; vertex IDs "
                f"are 32-bit, so at most {MAX_VERTICES}"
            )
        if not isinstance(self.seed, numbers.Integral) or self.seed < 0:
            raise UserInputError(
                f"graph seed must be a non-negative integer, got "
                f"{self.seed!r}"
            )
        if not (math.isfinite(self.exponent) and self.exponent > 0):
            raise UserInputError(
                f"graph exponent must be finite and > 0, got "
                f"{self.exponent!r}"
            )

    @property
    def name(self) -> str:
        return f"{self.kind}{self.vertices}s{self.seed}"

    def _rmat_shape(self) -> Tuple[int, int]:
        """RMAT ``(scale, edge_factor)``: ``2**scale`` vertices."""
        scale = max((self.vertices - 1).bit_length(), 2)
        return scale, max(self.edges // (1 << scale), 1)

    def built_size(self) -> Tuple[int, int]:
        """``(vertices, edges)`` of the graph :meth:`build` returns,
        answered from the spec alone (nothing is allocated)."""
        if self.kind == "rmat":
            scale, factor = self._rmat_shape()
            return 1 << scale, (1 << scale) * factor
        return self.vertices, self.edges

    def build(self) -> Graph:
        """Materialise the graph (deterministic in the spec)."""
        from repro.check.runner import with_random_weights
        from repro.graph.generators import (
            erdos_renyi_graph,
            power_law_graph,
            rmat_graph,
        )

        if self.kind == "rmat":
            scale, factor = self._rmat_shape()
            graph = rmat_graph(scale, factor, seed=self.seed, name=self.name)
        elif self.kind == "powerlaw":
            graph = power_law_graph(
                self.vertices, self.edges, exponent=self.exponent,
                seed=self.seed, name=self.name,
            )
        else:
            graph = erdos_renyi_graph(
                self.vertices, self.edges, seed=self.seed, name=self.name
            )
        if self.weighted:
            graph = with_random_weights(graph, seed=self.seed)
        return graph


def check_root(root: int, graph: GraphSpec) -> None:
    """Reject a root outside ``[0, graph.vertices)`` before anything
    runs (or, behind a gateway, is made durable)."""
    if not 0 <= root < graph.vertices:
        raise UserInputError(
            f"root {root} is not a vertex of {graph.name}: expected "
            f"0 <= root < {graph.vertices}"
        )


@dataclass(frozen=True)
class CellSpec(Wire):
    """One campaign cell: everything needed to re-execute it exactly."""

    cell_id: str
    device: str
    app: str
    graph: GraphSpec
    fault_plan: FaultPlan = field(default_factory=FaultPlan)
    root: int = 0
    max_iterations: Optional[int] = 30
    buffer_vertices: int = 256
    num_pipelines: int = 4

    def __post_init__(self):
        check_root(self.root, self.graph)
        check_max_iterations(self.max_iterations)

    def with_plan(self, plan: FaultPlan) -> "CellSpec":
        """The same cell under a different fault plan (used by shrinking)."""
        return replace(self, fault_plan=plan)
