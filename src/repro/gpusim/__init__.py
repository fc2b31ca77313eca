"""Simulated-GPU substrate: device model, streams, task graphs, primitives.

This package is the repo's substitution for the paper's CUDA runtime
(DESIGN.md §2): kernels execute as vectorized NumPy bodies while the
device accounts both wall time and an A4000-calibrated simulated time.
"""

from .device import (
    A4000,
    TINY_DEVICE,
    Device,
    DeviceSpec,
    KernelCost,
    get_default_device,
    set_default_device,
)
from .profiler import KernelTotals, Profiler
from .stream import Event, Stream, overlap_time_s
from .taskgraph import ExecutableGraph, GraphNode, TaskGraph
from .curand import (
    LookupTables,
    build_lookup_tables,
    multinomial_neighbor_table,
    random_block_table,
    uniform_table,
)

__all__ = [
    "A4000",
    "TINY_DEVICE",
    "Device",
    "DeviceSpec",
    "KernelCost",
    "get_default_device",
    "set_default_device",
    "KernelTotals",
    "Profiler",
    "Event",
    "Stream",
    "overlap_time_s",
    "ExecutableGraph",
    "GraphNode",
    "TaskGraph",
    "LookupTables",
    "build_lookup_tables",
    "multinomial_neighbor_table",
    "random_block_table",
    "uniform_table",
]
