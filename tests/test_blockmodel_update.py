"""Tests for the blockmodel rebuild (paper Algorithm 2)."""

import numpy as np
import pytest
from hypothesis import given, settings

from conftest import graphs_with_partitions
from repro.blockmodel.dense import DenseBlockmodel
from repro.blockmodel.update import rebuild_blockmodel, rebuild_blockmodel_cpu
from repro.errors import PartitionError
from repro.gpusim.device import A4000, Device


class TestRebuild:
    def test_fig6_example(self, device, tiny_graph):
        """Paper Fig. 6/7: blockmodel after vertex 0 moves to block 0."""
        bmap = np.array([0, 1, 0, 1])
        bm = rebuild_blockmodel(device, tiny_graph, bmap, 2)
        expected = DenseBlockmodel.from_graph(tiny_graph, bmap, 2)
        np.testing.assert_array_equal(bm.to_dense(), expected.matrix)

    def test_singleton_partition_recovers_graph(self, device, tiny_graph):
        bmap = np.arange(4)
        bm = rebuild_blockmodel(device, tiny_graph, bmap, 4)
        src, dst, wgt = tiny_graph.edge_arrays()
        dense = np.zeros((4, 4), dtype=np.int64)
        dense[src, dst] = wgt
        np.testing.assert_array_equal(bm.to_dense(), dense)

    def test_single_block(self, device, tiny_graph):
        bm = rebuild_blockmodel(device, tiny_graph, np.zeros(4, dtype=np.int64), 1)
        assert bm.to_dense()[0, 0] == tiny_graph.total_edge_weight

    def test_empty_blocks_allowed(self, device, tiny_graph):
        bm = rebuild_blockmodel(device, tiny_graph, np.zeros(4, dtype=np.int64), 3)
        assert bm.num_blocks == 3
        assert bm.deg_out[1] == 0 and bm.deg_in[2] == 0
        bm.validate()

    def test_default_num_blocks(self, device, tiny_graph):
        bm = rebuild_blockmodel(device, tiny_graph, np.array([0, 2, 1, 2]))
        assert bm.num_blocks == 3

    def test_wrong_bmap_length(self, device, tiny_graph):
        with pytest.raises(PartitionError):
            rebuild_blockmodel(device, tiny_graph, np.array([0, 1]), 2)

    def test_out_of_range_block_ids(self, device, tiny_graph):
        with pytest.raises(PartitionError):
            rebuild_blockmodel(device, tiny_graph, np.array([0, 1, 2, 5]), 3)

    def test_kernels_recorded_in_phase(self, device, tiny_graph):
        with device.profiler.phase("my_phase"):
            rebuild_blockmodel(device, tiny_graph, np.array([0, 1, 0, 1]), 2)
        phases = {phase for phase, _ in device.profiler.ledger}
        assert phases == {"my_phase"}

    def test_algorithm2_kernel_sequence(self, device, tiny_graph):
        """The rebuild must execute Algorithm 2's primitive sequence."""
        rebuild_blockmodel(device, tiny_graph, np.array([0, 1, 0, 1]), 2)
        names = [name for _, name in device.profiler.ledger]
        for required in (
            "sort_by_key",          # line 1
            "gather_adjacency",     # lines 2-3
            "gather",               # line 4 (Bmap lookup)
            "segmented_sort",       # line 5
            "segmented_reduce_by_key",  # lines 6+8
            "exclusive_scan",       # line 7
        ):
            assert required in names, f"missing kernel {required}"


class TestCPURebuild:
    def test_matches_device_rebuild(self, device, tiny_graph):
        bmap = np.array([1, 0, 1, 0])
        gpu = rebuild_blockmodel(device, tiny_graph, bmap, 2)
        cpu = rebuild_blockmodel_cpu(tiny_graph, bmap, 2)
        np.testing.assert_array_equal(gpu.to_dense(), cpu.to_dense())
        np.testing.assert_array_equal(gpu.deg_out, cpu.deg_out)
        np.testing.assert_array_equal(gpu.deg_in, cpu.deg_in)

    def test_validates(self, tiny_graph):
        cpu = rebuild_blockmodel_cpu(tiny_graph, np.array([0, 0, 1, 1]), 2)
        cpu.validate()


@settings(max_examples=40, deadline=None)
@given(graphs_with_partitions())
def test_rebuild_matches_dense_oracle(data):
    """Algorithm 2 on the device == direct dense aggregation, always."""
    graph, bmap, b = data
    device = Device(A4000)
    bm = rebuild_blockmodel(device, graph, bmap, b)
    bm.validate()
    expected = DenseBlockmodel.from_graph(graph, bmap, b)
    np.testing.assert_array_equal(bm.to_dense(), expected.matrix)
    np.testing.assert_array_equal(bm.deg_out, expected.deg_out)
    np.testing.assert_array_equal(bm.deg_in, expected.deg_in)


@settings(max_examples=20, deadline=None)
@given(graphs_with_partitions(max_vertices=8, max_edges=20))
def test_cpu_rebuild_matches_dense_oracle(data):
    graph, bmap, b = data
    cpu = rebuild_blockmodel_cpu(graph, bmap, b)
    expected = DenseBlockmodel.from_graph(graph, bmap, b)
    np.testing.assert_array_equal(cpu.to_dense(), expected.matrix)
