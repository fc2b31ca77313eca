"""Ablation — full device rebuild (Algorithm 2) vs incremental updates.

GSAP rebuilds the CSR blockmodel wholesale after each accepted batch;
the classical CPU alternative applies per-move incremental updates to a
dense matrix.  This ablation measures both strategies applying one
realistic batch of accepted moves, and checks they produce identical
blockmodels.  The crossover justifies the paper's design: at batch
scale, one data-parallel rebuild beats hundreds of scattered updates.
"""

import time

import numpy as np
import pytest

from _bench_utils import ablation_workload, pedantic_once, write_bench_record
from repro.baselines.common import vertex_neighborhood
from repro.blockmodel.dense import DenseBlockmodel
from repro.blockmodel.update import rebuild_blockmodel
from repro.graph.datasets import load_dataset
from repro.gpusim.device import A4000, Device

_TIMES = {}
_B = 32
_SIZE = 1_000


@pytest.fixture(scope="module")
def setup():
    graph, _ = load_dataset("low_low", _SIZE)
    rng = np.random.default_rng(0)
    bmap = rng.integers(0, _B, graph.num_vertices).astype(np.int64)
    bmap[:_B] = np.arange(_B)
    # one async-Gibbs batch worth of accepted moves (V / 4 movers)
    movers = rng.choice(graph.num_vertices, graph.num_vertices // 4, False)
    targets = rng.integers(0, _B, len(movers)).astype(np.int64)
    return graph, bmap, movers, targets


def apply_batch(bmap, movers, targets):
    out = bmap.copy()
    out[movers] = targets
    return out


def test_full_rebuild(benchmark, setup):
    graph, bmap, movers, targets = setup
    device = Device(A4000)
    new_bmap = apply_batch(bmap, movers, targets)
    rebuild_blockmodel(device, graph, new_bmap, _B)  # warm

    t0 = time.perf_counter()
    bm = pedantic_once(benchmark, rebuild_blockmodel, device, graph, new_bmap, _B)
    _TIMES["rebuild"] = time.perf_counter() - t0
    _TIMES["rebuild_dense"] = bm.to_dense()


def test_incremental_updates(benchmark, setup):
    graph, bmap, movers, targets = setup

    def incremental():
        model = DenseBlockmodel.from_graph(graph, bmap, _B)
        current = bmap.copy()
        for v, s in zip(movers, targets):
            r = int(current[v])
            if r == int(s):
                continue
            nbhd = vertex_neighborhood(graph, current, int(v))
            model.apply_move(
                r, int(s),
                nbhd.k_out_blocks, nbhd.k_out_weights.astype(np.int64),
                nbhd.k_in_blocks, nbhd.k_in_weights.astype(np.int64),
                nbhd.self_weight,
            )
            current[v] = s
        return model

    t0 = time.perf_counter()
    model = pedantic_once(benchmark, incremental)
    _TIMES["incremental"] = time.perf_counter() - t0
    _TIMES["incremental_dense"] = model.matrix


def test_zzz_agreement_and_report(benchmark, setup, capsys):
    assert "rebuild_dense" in _TIMES and "incremental_dense" in _TIMES
    np.testing.assert_array_equal(
        _TIMES["rebuild_dense"], _TIMES["incremental_dense"]
    )
    ratio = pedantic_once(
        benchmark, lambda: _TIMES["incremental"] / _TIMES["rebuild"]
    )
    write_bench_record(
        "ablation_update",
        [
            ablation_workload(
                f"update/low_low/{_SIZE}#{variant}",
                runtime_s=[_TIMES[variant]],
                algorithm="microbench", category="low_low",
                num_vertices=_SIZE, num_edges=setup[0].num_edges,
                variant=variant,
            )
            for variant in ("rebuild", "incremental")
        ],
        label="algorithm2_rebuild_vs_incremental_dense",
        extras={"rebuild_speedup": ratio, "moves": _SIZE // 4},
    )
    with capsys.disabled():
        print(f"\n\n### Ablation: Algorithm-2 rebuild vs incremental dense "
              f"updates ({_SIZE // 4} moves) — rebuild is {ratio:.1f}x "
              f"faster ({_TIMES['rebuild']*1e3:.1f} ms vs "
              f"{_TIMES['incremental']*1e3:.1f} ms)")
    assert ratio > 1.0
