"""Tests for the self-check harness and the model-validation matrix."""

import numpy as np
import pytest
from hypothesis import given, strategies as st

from repro.arch.config import PipelineConfig
from repro.model.validation import (
    ErrorStats,
    aggregate,
    validate_model_on_graph,
    validation_matrix,
)
from repro.check.oracles import partition_labels


def _same_partition(labels_a, labels_b) -> bool:
    return np.array_equal(
        partition_labels(labels_a), partition_labels(labels_b)
    )


class TestSamePartition:
    def test_identical(self):
        a = np.array([0, 0, 1, 2])
        assert _same_partition(a, a.copy())

    def test_relabelled_equivalent(self):
        a = np.array([0, 0, 1, 2])
        b = np.array([7, 7, 3, 9])
        assert _same_partition(a, b)

    def test_merged_groups_differ(self):
        a = np.array([0, 0, 1, 1])
        b = np.array([0, 0, 0, 0])
        assert not _same_partition(a, b)

    def test_split_groups_differ(self):
        a = np.array([0, 0, 0])
        b = np.array([0, 1, 1])
        assert not _same_partition(a, b)

    def test_shape_mismatch(self):
        assert not _same_partition(np.zeros(3), np.zeros(4))


def _first_occurrence_loop(labels: np.ndarray) -> np.ndarray:
    """The per-vertex relabel loop ``partition_labels`` replaced."""
    _, canonical = np.unique(labels, return_inverse=True)
    first_seen: dict = {}
    out = np.empty(labels.size, dtype=np.int64)
    next_id = 0
    for i, c in enumerate(canonical):
        if c not in first_seen:
            first_seen[c] = next_id
            next_id += 1
        out[i] = first_seen[c]
    return out


class TestPartitionLabels:
    @given(st.lists(st.integers(-50, 50), max_size=200))
    def test_matches_the_first_occurrence_loop(self, values):
        labels = np.array(values, dtype=np.int64)
        got = partition_labels(labels)
        assert got.dtype == np.int64
        np.testing.assert_array_equal(got, _first_occurrence_loop(labels))

    def test_first_occurrence_order(self):
        np.testing.assert_array_equal(
            partition_labels(np.array([9, 4, 9, 7, 4])), [0, 1, 0, 2, 1]
        )


class TestModelValidation:
    @pytest.fixture(scope="class")
    def stats(self, small_rmat):
        config = PipelineConfig(gather_buffer_vertices=512)
        return validate_model_on_graph(small_rmat, config)

    def test_two_kinds_reported(self, stats):
        assert {s.kind for s in stats} == {"little", "big"}

    def test_error_bands(self, stats):
        """Mean errors stay in the neighbourhood of the paper's 4%/6%."""
        for s in stats:
            assert s.mean < 0.12, s

    def test_p95_at_least_mean(self, stats):
        for s in stats:
            assert s.p95 >= s.mean - 1e-12

    def test_counts_positive(self, stats):
        for s in stats:
            assert s.count > 0

    def test_empty_samples(self):
        s = ErrorStats.from_samples("little", np.zeros(0), np.zeros(0))
        assert s.count == 0 and s.mean == 0.0

    def test_aggregate_pools_counts(self, stats):
        pooled = aggregate(stats + stats, "little")
        single = [s for s in stats if s.kind == "little"][0]
        assert pooled.count == 2 * single.count
        assert pooled.mean == pytest.approx(single.mean)

    def test_aggregate_empty_kind(self):
        assert aggregate([], "big").count == 0


class TestValidationMatrix:
    def test_matrix_covers_skew_classes(self):
        config = PipelineConfig(gather_buffer_vertices=512)
        stats = validation_matrix(config, seeds=1)
        # 3 graphs x 2 kinds.
        assert len(stats) == 6
        pooled_little = aggregate(stats, "little")
        pooled_big = aggregate(stats, "big")
        assert pooled_little.mean < 0.15
        assert pooled_big.mean < 0.15
