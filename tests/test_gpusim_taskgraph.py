"""Tests for the CUDA-Graph-style task graph (paper future work)."""

import numpy as np
import pytest

from repro.errors import DeviceError, KernelLaunchError
from repro.gpusim.device import A4000, Device, KernelCost
from repro.gpusim.taskgraph import TaskGraph


class TestConstruction:
    def test_add_nodes(self):
        g = TaskGraph("g")
        a = g.add_kernel("a", KernelCost(10), lambda: 1)
        b = g.add_kernel("b", KernelCost(10), lambda: 2, dependencies=[a])
        assert g.num_nodes == 2
        assert b.dependencies == (a.node_id,)

    def test_foreign_dependency_rejected(self):
        g1, g2 = TaskGraph(), TaskGraph()
        a = g1.add_kernel("a", KernelCost(1), lambda: None)
        with pytest.raises(DeviceError):
            g2.add_kernel("b", KernelCost(1), lambda: None, dependencies=[a])

    def test_empty_graph_not_instantiable(self, device):
        with pytest.raises(KernelLaunchError):
            TaskGraph().instantiate(device)


class TestExecution:
    def test_results_returned_per_node(self, device):
        g = TaskGraph()
        a = g.add_kernel("a", KernelCost(1), lambda: "ra")
        b = g.add_kernel("b", KernelCost(1), lambda: "rb", dependencies=[a])
        results = g.instantiate(device).launch()
        assert results == {a.node_id: "ra", b.node_id: "rb"}

    def test_dependency_order_respected(self, device):
        trace = []
        g = TaskGraph()
        a = g.add_kernel("a", KernelCost(1), lambda: trace.append("a"))
        b = g.add_kernel("b", KernelCost(1), lambda: trace.append("b"),
                         dependencies=[a])
        c = g.add_kernel("c", KernelCost(1), lambda: trace.append("c"),
                         dependencies=[b])
        g.instantiate(device).launch()
        assert trace == ["a", "b", "c"]

    def test_cycle_detected(self, device):
        g = TaskGraph()
        a = g.add_kernel("a", KernelCost(1), lambda: None)
        # forge a cycle by rebuilding the node tuple (white-box)
        from repro.gpusim.taskgraph import ExecutableGraph, GraphNode

        cyc = (
            GraphNode(0, "a", KernelCost(1), lambda: None, (1,)),
            GraphNode(1, "b", KernelCost(1), lambda: None, (0,)),
        )
        with pytest.raises(DeviceError):
            ExecutableGraph("cyclic", cyc, device)

    def test_single_overhead_for_whole_graph(self, device):
        """The graph replay must beat individually-launched kernels."""
        num_kernels = 50
        g = TaskGraph("chain")
        prev = []
        for i in range(num_kernels):
            node = g.add_kernel(f"k{i}", KernelCost(100), lambda: None,
                                dependencies=prev)
            prev = [node]
        exe = g.instantiate(device)
        before = device.sim_time_s
        exe.launch()
        graph_time = device.sim_time_s - before
        assert graph_time < exe.serial_sim_time()
        # the saving is roughly (N-1) launch overheads
        saved = exe.serial_sim_time() - graph_time
        assert saved > (num_kernels - 2) * device.spec.kernel_launch_overhead_s

    def test_independent_branches_overlap(self, device):
        """Parallel branches cost the critical path, not the sum."""
        heavy = KernelCost(work_items=10**8)
        g_par = TaskGraph("parallel")
        for i in range(4):
            g_par.add_kernel(f"p{i}", heavy, lambda: None)
        d1 = Device(A4000)
        g_par_exe = TaskGraph("parallel")
        for i in range(4):
            g_par_exe.add_kernel(f"p{i}", heavy, lambda: None)
        exe = g_par_exe.instantiate(d1)
        exe.launch()
        parallel_time = d1.sim_time_s

        d2 = Device(A4000)
        g_ser = TaskGraph("serial")
        prev = []
        for i in range(4):
            node = g_ser.add_kernel(f"s{i}", heavy, lambda: None,
                                    dependencies=prev)
            prev = [node]
        g_ser.instantiate(d2).launch()
        serial_time = d2.sim_time_s
        assert parallel_time < serial_time / 2

    def test_profiler_records_one_entry(self, device):
        g = TaskGraph("named")
        g.add_kernel("a", KernelCost(1), lambda: None)
        g.add_kernel("b", KernelCost(1), lambda: None)
        g.instantiate(device).launch()
        entry = device.profiler.ledger[("taskgraph", "graph:named")]
        assert entry.num_launches == 1
        assert entry.work_items == 2

    def test_relaunchable(self, device):
        counter = {"n": 0}
        g = TaskGraph()
        g.add_kernel("a", KernelCost(1), lambda: counter.__setitem__(
            "n", counter["n"] + 1))
        exe = g.instantiate(device)
        exe.launch()
        exe.launch()
        assert counter["n"] == 2
