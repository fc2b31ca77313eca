"""CUDA-Graph-style kernel task graphs (the paper's stated future work).

The paper's conclusion plans to "incorporate GPU task parallelism using
the CUDA Graph to reduce the overhead associated with launching CUDA
kernels for larger graphs."  This module implements that extension on
the simulated device:

* :class:`TaskGraph` records a DAG of kernel nodes (with explicit
  dependencies, like ``cudaGraphAddKernelNode``);
* :meth:`TaskGraph.instantiate` freezes it into an executable
  :class:`ExecutableGraph`;
* :meth:`ExecutableGraph.launch` replays the whole DAG under a *single*
  launch overhead, with independent nodes overlapping on the simulated
  timeline — the two effects a real CUDA Graph buys.

The ablation bench ``bench_ablation_taskgraph.py`` quantifies the saved
overhead against individually-launched kernels.
"""

from __future__ import annotations

import time
from dataclasses import dataclass
from typing import Callable, Dict, List, Sequence, Tuple

from ..errors import DeviceError, KernelLaunchError
from .device import Device, KernelCost


@dataclass(frozen=True)
class GraphNode:
    """One kernel node in a task graph."""

    node_id: int
    name: str
    cost: KernelCost
    body: Callable[[], object]
    dependencies: Tuple[int, ...]


class TaskGraph:
    """A recordable DAG of kernels (cudaGraph analogue)."""

    def __init__(self, name: str = "taskgraph") -> None:
        self.name = name
        self._nodes: List[GraphNode] = []

    def add_kernel(
        self,
        name: str,
        cost: KernelCost,
        body: Callable[[], object],
        dependencies: Sequence["GraphNode"] = (),
    ) -> GraphNode:
        """Add a kernel node; *dependencies* must already be in this graph."""
        for dep in dependencies:
            if dep.node_id >= len(self._nodes) or self._nodes[dep.node_id] is not dep:
                raise DeviceError(
                    f"dependency {dep.name!r} does not belong to this graph"
                )
        node = GraphNode(
            node_id=len(self._nodes),
            name=name,
            cost=cost,
            body=body,
            dependencies=tuple(d.node_id for d in dependencies),
        )
        self._nodes.append(node)
        return node

    @property
    def num_nodes(self) -> int:
        return len(self._nodes)

    def instantiate(self, device: Device) -> "ExecutableGraph":
        """Freeze into an executable graph (cudaGraphInstantiate)."""
        if not self._nodes:
            raise KernelLaunchError("cannot instantiate an empty task graph")
        return ExecutableGraph(self.name, tuple(self._nodes), device)


class ExecutableGraph:
    """An instantiated task graph replayable with one launch overhead."""

    def __init__(
        self, name: str, nodes: Tuple[GraphNode, ...], device: Device
    ) -> None:
        self.name = name
        self.nodes = nodes
        self.device = device
        self._order = self._topological_order()

    def _topological_order(self) -> List[int]:
        indegree = {n.node_id: len(n.dependencies) for n in self.nodes}
        children: Dict[int, List[int]] = {n.node_id: [] for n in self.nodes}
        for node in self.nodes:
            for dep in node.dependencies:
                children[dep].append(node.node_id)
        ready = [nid for nid, deg in indegree.items() if deg == 0]
        order: List[int] = []
        while ready:
            nid = ready.pop()
            order.append(nid)
            for child in children[nid]:
                indegree[child] -= 1
                if indegree[child] == 0:
                    ready.append(child)
        if len(order) != len(self.nodes):
            raise DeviceError(f"task graph {self.name!r} contains a cycle")
        return order

    def launch(self) -> Dict[int, object]:
        """Replay the DAG; returns ``{node_id: body result}``.

        Cost model: one launch overhead for the whole graph; each node's
        compute/memory time starts after its slowest dependency, so
        independent branches overlap (the makespan is the DAG's critical
        path, not the serial sum).
        """
        device = self.device
        finish_at: Dict[int, float] = {}
        results: Dict[int, object] = {}

        wall_start = time.perf_counter()
        critical_path = 0.0
        for nid in self._order:
            node = self.nodes[nid]
            results[nid] = node.body()
            start = max(
                (finish_at[dep] for dep in node.dependencies), default=0.0
            )
            finish_at[nid] = start + device.roofline_s(node.cost)
            critical_path = max(critical_path, finish_at[nid])
        wall = time.perf_counter() - wall_start

        # account the whole replay as one ledger launch + one overhead
        device.account(
            f"graph:{self.name}",
            "taskgraph",
            wall,
            device.spec.kernel_launch_overhead_s + critical_path,
            sum(n.cost.work_items for n in self.nodes),
            sum(n.cost.resolved_bytes() for n in self.nodes),
        )
        return results

    def serial_sim_time(self) -> float:
        """Simulated time the same kernels would take launched one by one
        (per-launch overhead, no overlap) — the comparison baseline."""
        device = self.device
        return sum(
            device.spec.kernel_launch_overhead_s + device.roofline_s(node.cost)
            for node in self.nodes
        )
