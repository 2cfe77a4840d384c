#!/usr/bin/env python
"""Writing a custom algorithm against the GAS programming interface.

The paper's Listing 1 shows PageRank in three user-defined functions;
this example implements two more applications the same way:

* single-source shortest paths (weighted edges), and
* a "trust propagation" variant — max-product propagation of a trust
  score from a seed vertex, showing a UDF set not shipped with the
  library.

It also emits the HLS-style artifacts the real framework would hand to
Vitis for the custom kernel (connectivity config + UDF header).

Run:  python examples/custom_algorithm.py
"""

from typing import Optional

import numpy as np

from repro import ReGraph
from repro.apps.gas import GasApp
from repro.apps.reference import sssp_reference
from repro.apps.sssp import SingleSourceShortestPaths
from repro.arch.config import PipelineConfig
from repro.codegen.generator import generate_accelerator, write_bundle
from repro.graph.generators import erdos_renyi_graph
from repro.utils.fixed_point import FixedPointFormat


class TrustPropagation(GasApp):
    """Max-product trust propagation (custom UDFs).

    Each vertex's trust is the maximum over incoming paths of the seed's
    trust attenuated by 0.5 per hop — expressed in Q30 fixed point so
    the Gather PEs keep II = 1, just like PageRank.
    """

    prop_dtype = np.int64
    #: accGather (Listing 1): keep the strongest trust path.
    gather_ufunc = np.maximum
    gather_identity = 0
    max_iterations = 64

    def __init__(self, graph, seed_vertex: int, attenuation: float = 0.5):
        super().__init__(graph)
        self.fmt = FixedPointFormat()
        self.seed_vertex = seed_vertex
        self.attenuation_fx = int(self.fmt.from_float(attenuation))

    def scatter(self, src_props: np.ndarray, weights: Optional[np.ndarray]):
        """Attenuate the source's trust across the edge."""
        return self.fmt.multiply(src_props, self.attenuation_fx)

    def apply(self, old_props, accumulated):
        """Trust never decreases once established."""
        return np.maximum(old_props, accumulated)

    def init_props(self) -> np.ndarray:
        props = np.zeros(self.graph.num_vertices, dtype=np.int64)
        props[self.seed_vertex] = self.fmt.one
        return props

    def finalize(self, props):
        return self.fmt.to_float(props)


def main():
    rng = np.random.default_rng(11)
    graph = erdos_renyi_graph(20_000, 200_000, seed=11, name="custom-er")
    weighted = graph.with_weights(rng.integers(1, 64, graph.num_edges))

    framework = ReGraph(
        "U280",
        pipeline=PipelineConfig(gather_buffer_vertices=1024),
        num_pipelines=10,
    )

    # --- SSSP through the generic run() entry point --------------------
    pre = framework.preprocess(weighted)
    internal_root = pre.to_internal_vertex(0)
    run = framework.run(
        pre, lambda g: SingleSourceShortestPaths(g, root=internal_root)
    )
    reference = sssp_reference(weighted, 0)
    print(f"SSSP: {run.iterations} sweeps, {run.mteps:,.0f} MTEPS, "
          f"matches Bellman-Ford: {np.array_equal(run.props, reference)}")

    # --- Custom trust propagation --------------------------------------
    pre2 = framework.preprocess(graph)
    seed = pre2.to_internal_vertex(42)
    trust_run = framework.run(pre2, lambda g: TrustPropagation(g, seed))
    trust = trust_run.result
    print(f"trust propagation: {trust_run.iterations} sweeps, "
          f"{(trust > 0).sum():,} vertices reached, "
          f"seed trust {trust[42]:.2f}")
    hops = -np.log2(np.where(trust > 0, trust, 1.0))
    print(f"deepest trusted vertex: {hops.max():.0f} hops from the seed")

    # --- Emit the synthesizable-artifact bundle ------------------------
    bundle = generate_accelerator(
        pre2.plan.accelerator,
        framework.platform,
        udf_exprs={
            "scatter_expr": "fxmul(srcProp, ATTENUATION)",
            "gather_expr": "max(buf_prop, value)",
            "apply_expr": "max(tProp, source)",
        },
    )
    out = write_bundle(bundle, "examples/_generated")
    print(f"generated accelerator bundle ({bundle.label}) at {out}")


if __name__ == "__main__":
    main()
