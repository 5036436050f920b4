"""Tests for graph partition and scheduling."""

import pytest

from repro.circuit import Circuit, bernstein_vazirani, qft
from repro.core.partition import (
    PartitionConfig,
    cross_partition_edges,
    partition_pattern,
    required_degrees,
    verify_partitioning,
)
from repro.mbqc import circuit_to_pattern
from tests.conftest import random_circuit


class TestPartitionConfig:
    def test_defaults(self):
        cfg = PartitionConfig()
        assert cfg.scheduling == "flow"

    def test_invalid_max_layers(self):
        with pytest.raises(ValueError):
            PartitionConfig(max_layers=0)

    def test_invalid_scheduling(self):
        with pytest.raises(ValueError):
            PartitionConfig(scheduling="random")

    def test_invalid_target(self):
        with pytest.raises(ValueError):
            PartitionConfig(target_states=0)


class TestPartitionStructure:
    def test_bv_single_partition(self):
        pattern = circuit_to_pattern(bernstein_vazirani(8))
        parts = partition_pattern(pattern)
        assert len(parts) == 1
        assert parts[0].back_edges == []

    def test_coverage_and_edge_accounting(self):
        pattern = circuit_to_pattern(qft(5))
        parts = partition_pattern(pattern)
        ok, msg = verify_partitioning(pattern, parts)
        assert ok, msg

    @pytest.mark.parametrize("seed", range(5))
    def test_random_patterns_verified(self, seed):
        pattern = circuit_to_pattern(random_circuit(4, 15, seed + 40))
        for scheduling in ("flow", "lemma1"):
            parts = partition_pattern(
                pattern, PartitionConfig(scheduling=scheduling)
            )
            ok, msg = verify_partitioning(pattern, parts)
            assert ok, f"{scheduling}: {msg}"

    def test_back_edges_point_backward(self):
        pattern = circuit_to_pattern(qft(6))
        parts = partition_pattern(pattern, PartitionConfig(target_states=30))
        home = {}
        for p in parts:
            for v in p.nodes:
                home[v] = p.index
        for p in parts:
            for u, v in p.back_edges:
                assert home[u] < p.index
                assert home[v] == p.index

    def test_target_states_limits_partition_size(self):
        pattern = circuit_to_pattern(qft(6))
        small = partition_pattern(pattern, PartitionConfig(target_states=20))
        large = partition_pattern(pattern, PartitionConfig(target_states=1000))
        assert len(small) > len(large)

    def test_max_layers_limits_partition(self):
        pattern = circuit_to_pattern(qft(5))
        parts = partition_pattern(pattern, PartitionConfig(max_layers=1))
        for p in parts:
            assert len(p.layer_indices) == 1

    def test_indices_sequential(self):
        pattern = circuit_to_pattern(qft(5))
        parts = partition_pattern(pattern, PartitionConfig(target_states=25))
        assert [p.index for p in parts] == list(range(len(parts)))


class TestPlanarityEnforcement:
    def test_partitions_planar_when_enforced(self):
        from repro.core.planarity import is_planar

        pattern = circuit_to_pattern(random_circuit(5, 25, 77))
        parts = partition_pattern(pattern)
        # each partition subgraph is planar unless it is a single layer
        for p in parts:
            if len(p.layer_indices) > 1:
                assert is_planar(p.subgraph)


class TestHelpers:
    def test_required_degrees_counts_cross_edges(self):
        pattern = circuit_to_pattern(qft(5))
        parts = partition_pattern(pattern, PartitionConfig(target_states=20))
        graph = pattern.graph
        for p in parts:
            degrees = required_degrees(p, graph)
            for node in p.nodes:
                assert degrees[node] == graph.degree(node)

    def test_cross_partition_edges_union(self):
        pattern = circuit_to_pattern(qft(5))
        parts = partition_pattern(pattern, PartitionConfig(target_states=20))
        cross = cross_partition_edges(parts)
        assert len(cross) == sum(len(p.back_edges) for p in parts)
