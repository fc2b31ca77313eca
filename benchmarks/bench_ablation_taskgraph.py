"""Ablation — CUDA-Graph-style task graphs vs individual kernel launches.

The paper's conclusion proposes CUDA Graphs to cut per-kernel launch
overhead.  This bench replays a realistic kernel sequence — the
Algorithm-2 rebuild pipeline's launch pattern — as (a) individually
launched kernels and (b) one instantiated task graph, and compares the
simulated device time.  Expected: the graph saves roughly
``(num_kernels - 1)`` launch overheads per replay, which matters exactly
in the many-small-kernel regime of small graphs (paper Table 3's 1K row).
"""

import numpy as np
import pytest

from _bench_utils import ablation_workload, pedantic_once, write_bench_record
from repro.gpusim.device import A4000, Device, KernelCost
from repro.gpusim.taskgraph import TaskGraph

# the rebuild pipeline's launch pattern: 8 kernels/direction, 2 directions
PIPELINE = [
    ("sort_by_key", 20.0),
    ("gather_adjacency", 2.0),
    ("expand_segments", 1.0),
    ("gather", 1.0),
    ("segmented_sort", 20.0),
    ("segmented_reduce_by_key", 3.0),
    ("bincount", 1.5),
    ("exclusive_scan", 2.0),
]
WORK_ITEMS = 8_000  # a 1K-vertex graph's edge count
REPLAYS = 50  # one vertex-move phase's worth of rebuilds

_TIMES = {}


def test_individual_launches(benchmark):
    device = Device(A4000)

    def run():
        for _ in range(REPLAYS):
            for direction in ("out", "in"):
                for name, ops in PIPELINE:
                    device.execute(
                        f"{name}_{direction}",
                        KernelCost(WORK_ITEMS, ops_per_item=ops),
                        lambda: None,
                    )
        return device.sim_time_s

    _TIMES["individual"] = pedantic_once(benchmark, run)


def test_task_graph_replay(benchmark):
    device = Device(A4000)
    graph = TaskGraph("rebuild")
    prev = []
    for direction in ("out", "in"):
        branch_prev = []
        for name, ops in PIPELINE:
            node = graph.add_kernel(
                f"{name}_{direction}",
                KernelCost(WORK_ITEMS, ops_per_item=ops),
                lambda: None,
                dependencies=branch_prev,
            )
            branch_prev = [node]
    exe = graph.instantiate(device)

    def run():
        for _ in range(REPLAYS):
            exe.launch()
        return device.sim_time_s

    _TIMES["graph"] = pedantic_once(benchmark, run)


def test_zzz_report(benchmark, capsys):
    assert set(_TIMES) >= {"individual", "graph"}
    speedup = pedantic_once(
        benchmark, lambda: _TIMES["individual"] / _TIMES["graph"]
    )
    launches = REPLAYS * 2 * len(PIPELINE)
    write_bench_record(
        "ablation_taskgraph",
        [
            ablation_workload(
                f"rebuild_pipeline/sim#{variant}",
                # the measured clock here is simulated device seconds
                runtime_s=[_TIMES[variant]],
                sim_time_s=[_TIMES[variant]],
                algorithm="microbench", variant=variant,
                # a synthetic kernel pipeline: no graph is partitioned
                num_vertices=0, num_edges=0,
            )
            for variant in ("individual", "graph")
        ],
        label="task_graph_replay_vs_individual_launches",
        extras={"graph_speedup": speedup, "launches": launches,
                "clock": "sim"},
    )
    with capsys.disabled():
        print(f"\n\n### Ablation: task-graph replay vs {launches} individual "
              f"launches — {speedup:.1f}x less simulated device time "
              f"({_TIMES['graph']*1e3:.2f} ms vs {_TIMES['individual']*1e3:.2f} ms)")
    assert speedup > 1.5  # launch overhead must dominate at this scale