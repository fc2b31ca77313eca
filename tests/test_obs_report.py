"""Run-report tests: phase totals must mirror PhaseTimings, Markdown
and JSON rendering."""

import json

import numpy as np
import pytest

from repro.config import SBPConfig
from repro.core.partitioner import GSAPPartitioner
from repro.core.result import PartitionResult
from repro.core.state import PhaseTimings, ProposalStats
from repro.graph.datasets import load_dataset
from repro.gpusim.device import A4000, Device
from repro.gpusim.profiler import Profiler
from repro.obs import Observability, build_run_report, write_run_report
from repro.obs.report import run_report_markdown


@pytest.fixture
def result():
    return PartitionResult(
        partition=np.array([0, 0, 1, 1, 2]),
        num_blocks=3,
        mdl=123.45,
        history=[(5, 200.0), (3, 150.0), (3, 123.45)],
        timings=PhaseTimings(
            block_merge_s=1.0,
            vertex_move_s=3.0,
            golden_section_s=0.5,
            blockmodel_update_s=0.75,
        ),
        proposal_stats=ProposalStats(
            merge_proposals=100, merge_proposal_time_s=0.01,
            move_proposals=400, move_proposal_time_s=0.08,
        ),
        total_time_s=4.6,
        sim_time_s=0.02,
        num_sweeps=12,
        algorithm="GSAP",
    )


class TestBuildReport:
    def test_phase_totals_match_timings_exactly(self, result):
        report = build_run_report(result)
        breakdown = report["phase_breakdown"]
        by_phase = {p["phase"]: p["seconds"] for p in breakdown["phases"]}
        timings = result.timings
        # acceptance gate: within 1% of PhaseTimings (they are exact)
        assert by_phase["block_merge"] == pytest.approx(
            timings.block_merge_s, rel=0.01)
        assert by_phase["vertex_move"] == pytest.approx(
            timings.vertex_move_s, rel=0.01)
        assert by_phase["golden_section"] == pytest.approx(
            timings.golden_section_s, rel=0.01)
        assert breakdown["total_s"] == pytest.approx(timings.total_s, rel=0.01)
        assert breakdown["blockmodel_update_s"] == timings.blockmodel_update_s

    def test_shares_sum_to_one(self, result):
        shares = [p["share"] for p in
                  build_run_report(result)["phase_breakdown"]["phases"]]
        assert sum(shares) == pytest.approx(1.0)

    def test_convergence_trajectory_mirrors_history(self, result):
        trajectory = build_run_report(result)["convergence"]["trajectory"]
        assert [(t["num_blocks"], t["mdl"]) for t in trajectory] == result.history
        assert [t["plateau"] for t in trajectory] == [0, 1, 2]

    def test_mcmc_section_from_metrics(self, result):
        obs = Observability(enabled=True)
        obs.count("mcmc_proposals_total", 200)
        obs.count("mcmc_moves_accepted_total", 50)
        obs.observe_many("mcmc_delta_mdl", np.linspace(-1, 1, 11))
        report = build_run_report(result, obs=obs)
        mcmc = report["mcmc"]
        assert mcmc["acceptance_rate"] == pytest.approx(0.25)
        assert mcmc["delta_mdl"]["count"] == 11
        assert mcmc["delta_mdl"]["p50"] == pytest.approx(0.0)

    def test_kernel_tables_read_the_ledger(self, result):
        profiler = Profiler()
        profiler.add("block_merge", "gather", 0.5, 0.1, 10, 80)
        profiler.add("vertex_move", "gather", 1.5, 0.2, 30, 240)
        profiler.add("vertex_move", "segmented_sort", 1.0, 0.3, 20, 160)
        profiler.phase_wall_s.update(block_merge=0.5, vertex_move=3.0)
        report = build_run_report(result, profiler=profiler)
        kernels = {row["name"]: row for row in report["kernels"]}
        assert [row["name"] for row in report["kernels"]] == [
            "gather", "segmented_sort"
        ]
        assert kernels["gather"]["launches"] == 2
        assert kernels["gather"]["wall_time_s"] == pytest.approx(2.0)
        assert kernels["gather"]["bytes_moved"] == 320
        assert report["device_phases"]["vertex_move"] == {
            "wall_time_s": pytest.approx(2.5),
            "sim_time_s": pytest.approx(0.5),
            "launches": 2,
            "host_glue_s": pytest.approx(0.5),
        }

    def test_host_glue_splits_phase_wall(self):
        """Each ledger phase's wall time splits exactly into its kernels'
        wall time and the host glue between them."""
        graph, _ = load_dataset("low_low", 200, seed=3)
        device = Device(A4000)
        config = SBPConfig(max_num_nodal_itr=10, seed=4)
        run = GSAPPartitioner(config, device=device).partition(graph)
        rows = build_run_report(run, profiler=device.profiler)["device_phases"]
        assert {"block_merge", "vertex_move"} <= set(rows)
        for phase, row in rows.items():
            phase_wall = getattr(run.timings, f"{phase}_s")
            assert row["host_glue_s"] >= 0
            assert row["host_glue_s"] + row["wall_time_s"] == pytest.approx(
                phase_wall, rel=1e-9
            )

    def test_disabled_obs_adds_no_metrics(self, result):
        report = build_run_report(result, obs=Observability(enabled=False))
        assert "mcmc" not in report
        assert "metrics" not in report


class TestRendering:
    def test_markdown_sections(self, result):
        md = run_report_markdown(build_run_report(result, dataset="g.tsv"))
        assert "# GSAP run report" in md
        assert "## Phase breakdown (Fig. 10)" in md
        assert "## Convergence trajectory" in md
        assert "## Proposal throughput (Fig. 11)" in md
        assert "g.tsv" in md

    def test_write_json_vs_markdown(self, result, tmp_path):
        report = build_run_report(result)
        jpath = write_run_report(report, tmp_path / "r.json")
        loaded = json.loads(jpath.read_text())
        assert loaded["schema"] == "gsap-run-report/1"
        assert loaded["run"]["num_blocks"] == 3
        mpath = write_run_report(report, tmp_path / "r.md")
        assert mpath.read_text().startswith("# GSAP run report")
