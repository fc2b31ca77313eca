"""Tests of the benchmark itself: ``python -m pytest perfbench/tests -q``."""

import json
import shutil
import subprocess
import sys
from pathlib import Path

import numpy as np
import pytest

ROOT = Path(__file__).resolve().parents[2]
for entry in (str(ROOT), str(ROOT / "src")):
    if entry not in sys.path:
        sys.path.insert(0, entry)

import repro.gpusim.primitives as primitives  # noqa: E402
from repro import GSAPPartitioner, SBPConfig  # noqa: E402
from repro.baselines.edist import EDiStPartitioner  # noqa: E402
from repro.bench.workloads import bench_config  # noqa: E402
from repro.gpusim.device import A4000, Device  # noqa: E402
from repro.graph.builder import build_graph  # noqa: E402

from perfbench import bench, checks, gen  # noqa: E402
from perfbench.layers import WRAP_POINTS, Probe, _resolve  # noqa: E402


def test_request_streams_are_a_function_of_the_seed():
    first = gen.RequestStream(5, 0)
    again = gen.RequestStream(5, 0)
    assert gen.stream_digest(first, 6) == gen.stream_digest(again, 6)
    assert gen.stream_digest(first, 6) != gen.stream_digest(gen.RequestStream(6, 0), 6)
    assert gen.stream_digest(first, 6) != gen.stream_digest(gen.RequestStream(5, 1), 6)
    mix = {(first[i].planted.num_vertices, i % 4) for i in range(16)}
    assert {n for n, _ in mix} == set(gen.REQUEST_SIZES) and len(mix) == 16


def test_workload_graph_is_a_function_of_the_seed_and_index():
    a, b = gen.workload_graph(300, 11, 2), gen.workload_graph(300, 11, 2)
    for name in ("src", "dst", "weights", "truth"):
        np.testing.assert_array_equal(getattr(a, name), getattr(b, name))
    assert not np.array_equal(a.src, gen.workload_graph(300, 12, 2).src)
    assert not np.array_equal(a.src, gen.workload_graph(300, 11, 3).src)


def test_request_line_encodes_the_planted_graph():
    planted = gen.planted_graph(150, "low", "low", seed=3)
    payload = json.loads(gen.request_line(planted))
    built = build_graph(payload["src"], payload["dst"], payload["weights"],
                        num_vertices=payload["num_vertices"])
    for name in ("ptr", "nbr", "wgt"):
        np.testing.assert_array_equal(getattr(built.out_adj, name),
                                      getattr(planted.graph.out_adj, name))


def _gsap_sha(graph) -> str:
    config = SBPConfig(**gen.REQUEST_CONFIG)
    result = GSAPPartitioner(config, device=Device(A4000)).partition(graph)
    return checks.partition_sha(result.partition)


def test_probe_is_output_neutral_and_restores_every_name():
    originals = {(owner, attr): getattr(_resolve(owner), attr)
                 for owner, attr, _, _ in WRAP_POINTS}
    execute = Device.execute
    graph = gen.planted_graph(120, "low", "low", seed=4).graph
    untraced = _gsap_sha(graph)
    with Probe() as probe:
        assert primitives.segmented_sort is not originals[
            ("repro.gpusim.primitives", "segmented_sort")]
        traced = _gsap_sha(graph)
    assert traced == untraced
    assert probe.totals["gpusim.launches"] > 0
    assert probe.totals["core.plateaus"] > 0
    assert 0 < probe.totals["core.moves_accepted"] <= probe.totals["core.move_proposals"]
    assert probe.totals["gpusim.kernel_s"] < probe.totals["core.partition_s"]
    for (owner, attr), original in originals.items():
        assert getattr(_resolve(owner), attr) is original
    assert Device.execute is execute


def test_probe_counts_the_exchange_without_changing_edist():
    graph = gen.planted_graph(80, "low", "low", seed=5).graph

    def run():
        return EDiStPartitioner(bench_config(1), num_ranks=4).partition(graph)

    untraced = run()
    with Probe() as probe:
        traced = run()
    assert checks.partition_sha(traced.partition) == checks.partition_sha(untraced.partition)
    assert probe.totals["dist.rounds"] == traced.dist["rounds"]
    assert probe.totals["dist.messages"] == traced.dist["messages"]
    assert probe.totals["dist.bytes_sent"] == traced.dist["bytes_sent"]


def _good_reply(request):
    planted = request.planted
    labels = np.unique(planted.truth, return_inverse=True)[1]
    return {"status": "completed", "partition": labels.tolist(),
            "mdl": checks.recompute_mdl(planted.graph, labels)}


def test_bad_replies_count_as_failed():
    stream = gen.RequestStream(9, 0)
    good = _good_reply(stream[0])
    wrong_mdl = dict(_good_reply(stream[1]), mdl=_good_reply(stream[1])["mdl"] + 1.0)
    sparse = dict(_good_reply(stream[2]))
    sparse["partition"] = [2 * b for b in sparse["partition"]]
    replies = [
        (stream[0], good, 0.5, None),
        (stream[1], wrong_mdl, 0.6, None),
        (stream[2], sparse, 0.7, None),
        (stream[3], {"status": "failed", "error": "boom"}, 0.1, None),
        (stream[4], None, 0.0, "ConnectionError: closed"),
    ]
    out = bench.Outcome(setup_s=[1.0], window_s=2.0, peak_rss_mb=50.0)
    bench.tally_replies(out, replies)
    assert (out.attempted, out.failed) == (5, 4)
    line = bench.result_line(out, trace=False)
    assert line["correct"] is False
    assert (line["attempted"], line["failed"]) == (5, 4)
    assert line["metrics"]["completed_share"]["value"] == pytest.approx(0.2)
    assert line["metrics"]["p50_s"]["value"] == 0.5


def test_metric_names_match_benchmark_json():
    spec = json.loads((ROOT / "BENCHMARK.json").read_text())
    assert [m["name"] for m in spec["end_to_end"]] == list(bench.END_TO_END)
    assert [m["name"] for m in spec["per_layer"]] == list(bench.PER_LAYER)
    units = {m["name"]: m["unit"] for m in spec["end_to_end"] + spec["per_layer"]}
    assert units == {**bench.END_TO_END, **bench.PER_LAYER}
    assert [w["name"] for w in spec["workloads"]] == list(bench.WORKLOADS)


def test_tail_summary_reports_its_sample_count():
    tail = bench.tail_summary([float(v) for v in range(1, 41)])
    assert tail["percentile"] == bench.TAIL_PERCENTILE
    assert tail["n"] == 40 and tail["beyond"] == 10


def test_refuses_to_run_without_sources(tmp_path):
    shutil.copytree(ROOT / "perfbench", tmp_path / "perfbench",
                    ignore=shutil.ignore_patterns("__pycache__"))
    shutil.copy(ROOT / "BENCHMARK.json", tmp_path / "BENCHMARK.json")
    done = subprocess.run(
        [sys.executable, "perfbench/run.py", "--workload", "serve-small",
         "--seed", "1", "--seconds", "1", "--trace", "0"],
        cwd=tmp_path, capture_output=True, text=True, timeout=60)
    assert done.returncode != 0
    assert done.stdout == ""
