"""Differential tests: the scheduler against a frozen multi-pass reference.

The reference below is the scheduler as it was before classification
started keeping its cost passes: every stage enumerated the edges
again (classification, each refinement round, the dense window
weights) and the per-edge kernels built every temporary explicitly.
The production scheduler must produce the same plan bit for bit —
accelerator label, dense/sparse indices, every task's partitions and
slice bounds, and every ``estimated_cycles`` bit pattern.
"""

from __future__ import annotations

from dataclasses import replace
from functools import lru_cache

import numpy as np
import pytest
from hypothesis import HealthCheck, given, settings
from hypothesis import strategies as st

from repro.arch.config import default_pipeline_config
from repro.arch.platform import get_platform
from repro.graph.coo import EDGE_BYTES, VERTEX_WORD_BYTES
from repro.graph.datasets import DATASETS
from repro.graph.generators import (
    erdos_renyi_graph,
    power_law_graph,
    rmat_graph,
)
from repro.graph.partition import partition_graph
from repro.graph.reorder import degree_based_grouping
from repro.hbm.channel import BLOCK_BYTES, HbmChannelModel
from repro.model.calibrate import calibrate_performance_model
from repro.model.perf import PerformanceModel
from repro.sched import inter
from repro.sched.scheduler import build_schedule
from repro.utils.prefix import balanced_chunk_bounds


# ---------------------------------------------------------------------------
# Frozen reference
# ---------------------------------------------------------------------------
def ref_edge_costs_big(model, src, edge_bytes=EDGE_BYTES):
    src = np.asarray(src, dtype=np.int64)
    if src.size == 0:
        return np.zeros(0)
    blocks = src // model.config.vertices_per_block
    new_block = np.empty(src.size, dtype=bool)
    new_block[0] = True
    new_block[1:] = blocks[1:] != blocks[:-1]
    dist = np.zeros(src.size, dtype=np.float64)
    dist[1:] = (src[1:] - src[:-1]) * VERTEX_WORD_BYTES
    acs_v = np.where(new_block, model.big_fit.latency(dist), 0.0)
    floor = max(edge_bytes / BLOCK_BYTES, model.config.proc_cycles_per_edge)
    return np.maximum(acs_v, floor)


def ref_edge_costs_little(model, src, edge_bytes=EDGE_BYTES):
    src = np.asarray(src, dtype=np.int64)
    if src.size == 0:
        return np.zeros(0)
    dist = np.zeros(src.size, dtype=np.float64)
    dist[1:] = (src[1:] - src[:-1]) * VERTEX_WORD_BYTES
    acs_v = dist / BLOCK_BYTES
    floor = max(edge_bytes / BLOCK_BYTES, model.config.proc_cycles_per_edge)
    return np.maximum(acs_v, floor)


def ref_estimate_big_group(model, lane_srcs):
    lane_srcs = [np.asarray(s, dtype=np.int64) for s in lane_srcs]
    merged = np.sort(np.concatenate(lane_srcs))
    supply = float(ref_edge_costs_big(model, merged).sum())
    gather_bound = max(s.size for s in lane_srcs) * model.config.ii_gpe
    return max(supply, float(gather_bound)) + model.const_big


def ref_estimate_little_execution(model, src):
    return float(ref_edge_costs_little(model, src).sum()) + model.const_little


def ref_estimate_partition(model, partition, kind):
    if kind == "little":
        return ref_estimate_little_execution(model, partition.src)
    supply = float(ref_edge_costs_big(model, partition.src).sum())
    gather_bound = (
        partition.num_edges * model.config.ii_gpe / model.config.n_gpe
    )
    return max(supply, gather_bound) + model.const_big / model.config.n_gpe


def ref_window_weights(model, src, kind, window_edges):
    costs = (
        ref_edge_costs_big(model, src)
        if kind == "big"
        else ref_edge_costs_little(model, src)
    )
    if costs.size == 0:
        return np.zeros(0)
    num_windows = -(-costs.size // window_edges)
    padded = np.zeros(num_windows * window_edges)
    padded[: costs.size] = costs
    return padded.reshape(num_windows, window_edges).sum(axis=1)


def ref_classify(partitions, model):
    dense, sparse = [], []
    t_little, t_big = [], []
    for i, partition in enumerate(partitions):
        tl = ref_estimate_partition(model, partition, "little")
        tb = ref_estimate_partition(model, partition, "big")
        t_little.append(tl)
        t_big.append(tb)
        if tb < tl:
            sparse.append(i)
        else:
            dense.append(i)
    n_gpe = model.config.n_gpe
    while sparse:
        evicted = None
        for lo in range(0, len(sparse), n_gpe):
            group = sparse[lo : lo + n_gpe]
            group_big = ref_estimate_big_group(
                model, [partitions[i].src for i in group]
            )
            group_little = sum(t_little[i] for i in group)
            if group_little < group_big:
                evicted = max(group, key=lambda i: partitions[i].num_edges)
                break
        if evicted is None:
            break
        sparse.remove(evicted)
        dense.append(evicted)
    dense.sort()
    return dense, sparse, t_little, t_big


def ref_split_dense(dense, num_pipelines, model, window_edges):
    assignments = [[] for _ in range(num_pipelines)]
    if not dense:
        return assignments
    per_partition = [
        ref_window_weights(model, p.src, "little", window_edges)
        for p in dense
    ]
    counts = np.array([w.size for w in per_partition], dtype=np.int64)
    weights = np.concatenate(per_partition)
    owner = np.repeat(np.arange(len(dense), dtype=np.int64), counts)
    local_lo = (
        np.concatenate([np.arange(c, dtype=np.int64) for c in counts])
        * window_edges
    )
    bounds = balanced_chunk_bounds(weights, num_pipelines)
    run_starts = np.flatnonzero(np.diff(owner)) + 1
    for pipe in range(num_pipelines):
        lo_w, hi_w = int(bounds[pipe]), int(bounds[pipe + 1])
        if hi_w <= lo_w:
            continue
        inner = run_starts[(run_starts > lo_w) & (run_starts < hi_w)]
        starts = [lo_w] + [int(s) for s in inner]
        ends = starts[1:] + [hi_w]
        for w, run_end in zip(starts, ends):
            ordinal = int(owner[w])
            partition = dense[ordinal]
            edge_lo = int(local_lo[w])
            edge_hi = (
                partition.num_edges
                if run_end == owner.size or owner[run_end] != ordinal
                else int(local_lo[run_end])
            )
            edge_hi = min(edge_hi, partition.num_edges)
            sub = partition.slice(edge_lo, edge_hi)
            est = ref_estimate_little_execution(model, sub.src)
            assignments[pipe].append((sub, est))
    return assignments


def ref_split_groups(groups, num_pipelines, model, window_edges):
    assignments = [[] for _ in range(num_pipelines)]
    if not groups:
        return assignments
    merged_srcs, group_weights = [], []
    for group in groups:
        src = np.sort(np.concatenate([p.src for p in group]))
        merged_srcs.append(src)
        group_weights.append(
            ref_window_weights(model, src, "big", window_edges)
        )
    weights = np.concatenate(group_weights)
    group_of_window = np.concatenate(
        [np.full(w.size, gi) for gi, w in enumerate(group_weights)]
    )
    first_window = np.concatenate(
        ([0], np.cumsum([w.size for w in group_weights])[:-1])
    )
    bounds = balanced_chunk_bounds(weights, num_pipelines)
    run_starts = np.flatnonzero(np.diff(group_of_window)) + 1
    for pipe in range(num_pipelines):
        lo_w, hi_w = int(bounds[pipe]), int(bounds[pipe + 1])
        inner = run_starts[(run_starts > lo_w) & (run_starts < hi_w)]
        starts = [lo_w] + [int(s) for s in inner] if hi_w > lo_w else []
        ends = starts[1:] + [hi_w] if starts else []
        for w, run_end in zip(starts, ends):
            gi = int(group_of_window[w])
            src = merged_srcs[gi]
            edge_lo = int(w - first_window[gi]) * window_edges
            if (
                run_end < group_of_window.size
                and group_of_window[run_end] == gi
            ):
                edge_hi = int(run_end - first_window[gi]) * window_edges
            else:
                edge_hi = src.size
            edge_hi = min(edge_hi, src.size)
            src_lo = int(src[edge_lo]) if edge_lo < src.size else int(src[-1]) + 1
            src_hi = int(src[edge_hi]) if edge_hi < src.size else int(src[-1]) + 1
            sliced = []
            for partition in groups[gi]:
                lo = int(np.searchsorted(partition.src, src_lo, side="left"))
                hi = int(np.searchsorted(partition.src, src_hi, side="left"))
                sliced.append(partition.slice(lo, hi))
            if sum(p.num_edges for p in sliced):
                est = ref_estimate_big_group(model, [p.src for p in sliced])
                assignments[pipe].append((sliced, est))
    return assignments


def ref_build_schedule(pset, model, num_pipelines, forced_combo=None,
                       window_edges=1024):
    """The frozen plan, in :func:`plan_signature` form."""
    partitions = pset.nonempty()
    dense_idx, sparse_idx, t_little, t_big = ref_classify(partitions, model)
    if forced_combo is not None:
        num_little, num_big = forced_combo
        if num_little == 0:
            sparse_idx = sorted(dense_idx + sparse_idx)
            dense_idx = []
        elif num_big == 0:
            dense_idx = sorted(dense_idx + sparse_idx)
            sparse_idx = []
    else:
        num_little, num_big = inter.choose_pipeline_combination(
            sum(t_little[i] for i in dense_idx),
            sum(t_big[i] for i in sparse_idx),
            num_pipelines,
        )
        if num_little == 0 and dense_idx:
            sparse_idx = sorted(dense_idx + sparse_idx)
            dense_idx = []
        if num_big == 0 and sparse_idx:
            dense_idx = sorted(dense_idx + sparse_idx)
            sparse_idx = []
    dense_parts = [partitions[i] for i in dense_idx]
    ordered = sorted(
        (partitions[i] for i in sparse_idx), key=lambda p: p.vertex_lo
    )
    n_gpe = model.config.n_gpe
    groups = [ordered[i : i + n_gpe] for i in range(0, len(ordered), n_gpe)]
    little = ref_split_dense(dense_parts, num_little, model, window_edges)
    big = ref_split_groups(groups, num_big, model, window_edges)
    return (
        f"{num_little}L{num_big}B",
        [partitions[i].index for i in dense_idx],
        [partitions[i].index for i in sparse_idx],
        [[(_slice_id(pset, sub), est.hex()) for sub, est in pipe]
         for pipe in little],
        [[(tuple(_slice_id(pset, p) for p in parts), est.hex())
          for parts, est in pipe]
         for pipe in big],
    )


# ---------------------------------------------------------------------------
# Comparison helpers
# ---------------------------------------------------------------------------
def _slice_id(pset, sub):
    """(partition index, first edge, edge count) of a partition slice."""
    base = pset.partitions[sub.index].src
    offset = (sub.src.ctypes.data - base.ctypes.data) // base.itemsize
    return sub.index, offset if sub.num_edges else 0, sub.num_edges


def plan_signature(plan, pset):
    return (
        plan.accelerator.label,
        list(plan.dense_indices),
        list(plan.sparse_indices),
        [[(_slice_id(pset, t.partition), float(t.estimated_cycles).hex())
          for t in pipe]
         for pipe in plan.little_tasks],
        [[(tuple(_slice_id(pset, p) for p in t.partitions),
           float(t.estimated_cycles).hex())
          for t in pipe]
         for pipe in plan.big_tasks],
    )


@lru_cache(maxsize=None)
def platform_model(platform: str, buffer_vertices: int):
    config = replace(
        default_pipeline_config(get_platform(platform)),
        gather_buffer_vertices=buffer_vertices,
    )
    model = calibrate_performance_model(config, HbmChannelModel())
    return model, get_platform(platform).max_total_pipelines


def make_graph(kind: str, num_vertices: int, degree: int, skew: float,
               seed: int):
    """A graph of about ``num_vertices * degree`` (at most 150k) edges."""
    degree = max(1, min(degree, 150_000 // num_vertices))
    if kind == "rmat":
        scale = min(max(num_vertices.bit_length() - 1, 6), 15)
        return rmat_graph(scale, degree, seed=seed)
    num_edges = max(num_vertices * degree, 256)
    if kind == "powerlaw":
        return power_law_graph(
            num_vertices, num_edges, exponent=skew, seed=seed,
            undirected=bool(seed % 2),
        )
    return erdos_renyi_graph(num_vertices, num_edges, seed=seed)


def assert_same_plan(graph, platform, buffer_vertices, window_edges,
                     num_little=None, dbg=True):
    """Plans match; ``num_little`` forces the (M, N) combination."""
    model, pipelines = platform_model(platform, buffer_vertices)
    if dbg:
        graph = degree_based_grouping(graph).graph
    pset = partition_graph(graph, model.config.partition_vertices)
    combo = None if num_little is None else (
        num_little, pipelines - num_little
    )
    plan = build_schedule(
        pset, model, pipelines, forced_combo=combo, window_edges=window_edges
    )
    expected = ref_build_schedule(
        pset, model, pipelines, forced_combo=combo, window_edges=window_edges
    )
    assert plan_signature(plan, pset) == expected


# ---------------------------------------------------------------------------
# Plans
# ---------------------------------------------------------------------------
class TestPlansMatchReference:
    @given(
        kind=st.sampled_from(["rmat", "powerlaw", "uniform"]),
        num_vertices=st.integers(64, 40_000),
        degree=st.integers(1, 16),
        skew=st.floats(0.3, 3.0),
        seed=st.integers(0, 2**16),
        platform=st.sampled_from(["U280", "U50"]),
        buffer_vertices=st.sampled_from([256, 2048, 8192]),
        window_edges=st.sampled_from([1, 7, 64, 256, 1024]),
        num_little=st.one_of(st.none(), st.integers(0, 14)),
        dbg=st.booleans(),
    )
    @settings(
        max_examples=60,
        deadline=None,
        suppress_health_check=[HealthCheck.too_slow],
    )
    def test_random_graphs(self, kind, num_vertices, degree, skew, seed,
                           platform, buffer_vertices, window_edges,
                           num_little, dbg):
        pipelines = get_platform(platform).max_total_pipelines
        if num_little is not None:
            num_little = min(num_little, pipelines)
        assert_same_plan(
            make_graph(kind, num_vertices, degree, skew, seed),
            platform, buffer_vertices, window_edges, num_little, dbg,
        )

    @pytest.mark.parametrize("combo", ["all-little", "all-big", None])
    @pytest.mark.parametrize(
        "key, scale, platform, buffer_vertices",
        [
            ("R21", 1 / 512, "U50", 256),
            ("TC", 1 / 512, "U50", 256),
            ("AM", 1 / 128, "U280", 256),
            ("HW", 1 / 512, "U280", 256),
            ("PK", 1 / 128, "U280", 2048),
            ("R21", 1 / 128, "U50", 2048),
            ("TC", 1 / 128, "U280", 8192),
        ],
    )
    def test_dataset_stand_ins(self, key, scale, platform, buffer_vertices,
                               combo):
        graph = DATASETS[key].instantiate(scale, seed=3)
        pipelines = get_platform(platform).max_total_pipelines
        forced = {"all-little": pipelines, "all-big": 0, None: None}[combo]
        assert_same_plan(graph, platform, buffer_vertices, 1024, forced)

    @pytest.mark.parametrize("window_edges", [1, 3, 1024, 1 << 20])
    def test_window_sizes(self, small_rmat, window_edges):
        assert_same_plan(small_rmat, "U280", 256, window_edges)


# ---------------------------------------------------------------------------
# Kernels
# ---------------------------------------------------------------------------
@pytest.fixture(scope="module")
def model():
    return platform_model("U280", 2048)[0]


def _same_bits(a, b):
    assert a.dtype == b.dtype == np.float64
    assert a.tobytes() == b.tobytes()


KERNEL_INPUTS = {
    "empty": [],
    "one-edge": [5],
    "duplicate-sources": [3, 3, 3, 4, 4, 1000, 1000, 1000],
    "beyond-upper-bound-stride": [0, 1, 10**6, 10**6 + 1, 3 * 10**9],
    "descending": [90, 80, 80, 0],
    "same-block": list(range(16)),
}


class TestKernelsMatchReference:
    @pytest.mark.parametrize("edge_bytes", [EDGE_BYTES, 12])
    @pytest.mark.parametrize("name", sorted(KERNEL_INPUTS))
    def test_named_inputs(self, model, name, edge_bytes):
        src = np.array(KERNEL_INPUTS[name], dtype=np.int64)
        _same_bits(
            model.edge_costs_little(src, edge_bytes),
            ref_edge_costs_little(model, src, edge_bytes),
        )
        _same_bits(
            model.edge_costs_big(src, edge_bytes),
            ref_edge_costs_big(model, src, edge_bytes),
        )

    def test_upper_bound_is_reached(self, model):
        src = np.array(KERNEL_INPUTS["beyond-upper-bound-stride"])
        assert model.edge_costs_big(src).max() == model.big_fit.upper_bound

    @given(
        src=st.lists(st.integers(0, 2**32 - 1), max_size=300),
        ascending=st.booleans(),
        edge_bytes=st.sampled_from([EDGE_BYTES, 12]),
        window_edges=st.integers(1, 70),
    )
    @settings(max_examples=150, deadline=None)
    def test_random_sources(self, model, src, ascending, edge_bytes,
                            window_edges):
        src = np.array(sorted(src) if ascending else src, dtype=np.int64)
        _same_bits(
            model.edge_costs_little(src, edge_bytes),
            ref_edge_costs_little(model, src, edge_bytes),
        )
        _same_bits(
            model.edge_costs_big(src, edge_bytes),
            ref_edge_costs_big(model, src, edge_bytes),
        )
        for kind in ("little", "big"):
            _same_bits(
                model.window_weights(src, kind, window_edges),
                ref_window_weights(model, src, kind, window_edges),
            )
        total, windows = model.estimate_little_windows(src, window_edges)
        assert total.hex() == ref_estimate_little_execution(model, src).hex()
        _same_bits(
            windows, ref_window_weights(model, src, "little", window_edges)
        )

    @given(
        lanes=st.lists(
            st.lists(st.integers(0, 10**6), min_size=0, max_size=80),
            min_size=1, max_size=9,
        )
    )
    @settings(max_examples=100, deadline=None)
    def test_big_group_estimates(self, model, lanes):
        lanes = [np.array(sorted(lane), dtype=np.int64) for lane in lanes]
        assert (
            model.estimate_big_group(lanes).hex()
            == ref_estimate_big_group(model, lanes).hex()
        )


# ---------------------------------------------------------------------------
# Pass-count guard
# ---------------------------------------------------------------------------
class CostCounter:
    """Counts the edges the per-edge kernels enumerate."""

    def __init__(self, monkeypatch):
        self.calls = []
        self.groups = []
        for kind in ("little", "big"):
            self._wrap(monkeypatch, kind)
        original = PerformanceModel.estimate_big_group

        def group(model, lane_srcs):
            lane_srcs = list(lane_srcs)
            self.groups.append(tuple(id(s) for s in lane_srcs))
            return original(model, lane_srcs)

        monkeypatch.setattr(PerformanceModel, "estimate_big_group", group)

    def _wrap(self, monkeypatch, kind):
        original = getattr(PerformanceModel, f"edge_costs_{kind}")

        def counted(model, src, *args, **kwargs):
            self.calls.append((kind, src))
            return original(model, src, *args, **kwargs)

        monkeypatch.setattr(PerformanceModel, f"edge_costs_{kind}", counted)

    def edges(self, kind):
        return sum(np.asarray(s).size for k, s in self.calls if k == kind)


@pytest.mark.parametrize(
    "key, platform",
    [("R21", "U280"), ("TC", "U50")],
    ids=["R21-like", "TC-like"],
)
def test_one_cost_pass_per_partition(monkeypatch, key, platform):
    graph = DATASETS[key].instantiate(1 / 256, seed=1)
    model, pipelines = platform_model(platform, 256)
    pset = partition_graph(
        degree_based_grouping(graph).graph, model.config.partition_vertices
    )
    partitions = pset.nonempty()
    num_edges = sum(p.num_edges for p in partitions)
    if key == "TC":
        # The TC shape: one partition holds almost every edge.
        assert max(p.num_edges for p in partitions) > 0.9 * num_edges

    counter = CostCounter(monkeypatch)
    costs = inter.cost_partitions(partitions, model)
    for kind in ("little", "big"):
        costed = [s for k, s in counter.calls if k == kind]
        assert len(costed) == len(partitions)
        assert all(s is p.src for s, p in zip(costed, partitions))

    counter.calls.clear()
    inter.classify_partitions(partitions, model, costs)
    assert counter.edges("little") == 0
    assert len(set(counter.groups)) == len(counter.groups)
    refinement_edges = counter.edges("big")
    assert refinement_edges <= num_edges

    counter.calls.clear()
    plan = build_schedule(pset, model, pipelines)
    sparse_edges = sum(
        p.num_edges for p in partitions if p.index in plan.sparse_indices
    )
    # Little: classification, then the cut slices once more at most.
    assert counter.edges("little") <= 2 * num_edges
    # Big: classification, refinement, then the merged sparse groups'
    # window weights and their tasks.
    assert (
        counter.edges("big")
        <= num_edges + refinement_edges + 2 * sparse_edges
    )
