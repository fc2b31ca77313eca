"""Ablation — sensitivity to ``num_batches_for_MCMC``.

The paper fixes 4 batches (Table 2).  Fewer batches mean more moves are
applied per blockmodel rebuild (cheaper, but a coarser async-Gibbs
approximation); more batches approach serial MCMC fidelity at higher
cost.  This ablation quantifies the runtime/quality trade on one graph.
"""

import pytest

from _bench_utils import ablation_workload, pedantic_once, write_bench_record
from repro.bench.workloads import bench_config
from repro.core.partitioner import GSAPPartitioner
from repro.graph.datasets import load_dataset
from repro.gpusim.device import A4000, Device
from repro.metrics import nmi

_RESULTS = {}


@pytest.mark.parametrize("num_batches", [1, 2, 4, 8])
def test_batch_count(benchmark, num_batches):
    graph, truth = load_dataset("low_low", 500)
    config = bench_config(seed=1).replace(num_batches_for_MCMC=num_batches)
    partitioner = GSAPPartitioner(config, device=Device(A4000))
    result = pedantic_once(benchmark, partitioner.partition, graph)
    _RESULTS[num_batches] = (result.total_time_s, nmi(result.partition, truth))
    assert result.num_blocks >= 1


def test_zzz_report(benchmark, capsys):
    assert pedantic_once(benchmark, lambda: _RESULTS)
    graph, _ = load_dataset("low_low", 500)
    write_bench_record(
        "ablation_batches",
        [
            ablation_workload(
                f"GSAP/low_low/500#batches={k}",
                runtime_s=[_RESULTS[k][0]],
                category="low_low", num_vertices=500,
                num_edges=graph.num_edges, variant=f"batches={k}",
                quality={"nmi": [_RESULTS[k][1]]},
            )
            for k in sorted(_RESULTS)
        ],
        seed=1, label="num_batches_for_MCMC_sensitivity",
    )
    with capsys.disabled():
        print("\n\n### Ablation: num_batches_for_MCMC (low_low, 500 vertices)\n")
        print("| batches | runtime | NMI |")
        print("|---|---|---|")
        for k in sorted(_RESULTS):
            t, q = _RESULTS[k]
            print(f"| {k} | {t:.2f}s | {q:.3f} |")
    # every setting still recovers the structure on the easy category
    assert all(q > 0.7 for _, q in _RESULTS.values())
