"""Ablation — sparse incremental maintenance vs per-batch Algorithm-2 rebuilds.

Two full partitioner runs on the 2K-vertex quick-scale Low-Low graph,
identical except for ``SBPConfig.incremental_updates``.  The runs must
produce byte-identical partitions (the maintainer's exactness contract)
and the incremental run must spend strictly less time in the profiler's
``blockmodel_update_s`` split — the CI perf-smoke gate.  The measured
ratio is written to ``BENCH_incremental.json`` at the repository root.
"""

import numpy as np
import pytest

from _bench_utils import ablation_workload, pedantic_once, write_bench_record
from repro.config import SBPConfig
from repro.core.partitioner import GSAPPartitioner
from repro.graph.datasets import load_dataset
from repro.gpusim.device import A4000, Device

_RESULTS = {}
_SIZE = 2_000
_SEED = 7
_CATEGORY = "low_low"


@pytest.fixture(scope="module")
def graph():
    return load_dataset(_CATEGORY, _SIZE)[0]


def _run(graph, incremental):
    config = SBPConfig(seed=_SEED, incremental_updates=incremental)
    return GSAPPartitioner(config, device=Device(A4000)).partition(graph)


def test_incremental_run(benchmark, graph):
    _RESULTS["incremental"] = pedantic_once(benchmark, _run, graph, True)


def test_rebuild_run(benchmark, graph):
    _RESULTS["rebuild"] = pedantic_once(benchmark, _run, graph, False)


def test_zzz_identity_and_report(benchmark, graph, capsys):
    assert "incremental" in _RESULTS and "rebuild" in _RESULTS
    inc, full = _RESULTS["incremental"], _RESULTS["rebuild"]
    # exactness: delta application must be indistinguishable from rebuilds
    np.testing.assert_array_equal(inc.partition, full.partition)
    assert inc.num_blocks == full.num_blocks
    assert inc.mdl == full.mdl

    inc_s = inc.timings.blockmodel_update_s
    full_s = full.timings.blockmodel_update_s
    ratio = pedantic_once(benchmark, lambda: full_s / inc_s)

    workloads = [
        ablation_workload(
            f"GSAP/{_CATEGORY}/{_SIZE}#{variant}",
            runtime_s=[result.total_time_s],
            sim_time_s=[result.sim_time_s],
            category=_CATEGORY, num_vertices=_SIZE,
            num_edges=graph.num_edges, variant=variant,
            phases={"blockmodel_update_s": [
                result.timings.blockmodel_update_s
            ]},
            quality={"mdl": [result.mdl],
                     "num_blocks": [result.num_blocks]},
        )
        for variant, result in (("incremental", inc), ("rebuild", full))
    ]
    out = write_bench_record(
        "incremental", workloads, seed=_SEED,
        label="incremental_blockmodel_maintenance",
        extras={
            "blockmodel_update_s": {"incremental": inc_s, "rebuild": full_s},
            "speedup": ratio,
            "partitions_identical": True,
        },
        filename="BENCH_incremental.json",
    )

    with capsys.disabled():
        print(f"\n\n### Ablation: incremental maintenance vs per-batch "
              f"rebuild ({_CATEGORY} V={_SIZE}) — incremental is "
              f"{ratio:.2f}x faster in blockmodel_update_s "
              f"({inc_s*1e3:.0f} ms vs {full_s*1e3:.0f} ms); "
              f"partitions byte-identical; wrote {out.name}")
    # CI perf-smoke gate: the incremental path must win outright
    assert ratio > 1.0
