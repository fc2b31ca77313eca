"""Deterministic traffic generator for the partitioning service.

Drives a :class:`repro.serve.PartitionServer` through four phases —
steady load, overload burst, injected faults, and cached repeats —
then a checkpoint shutdown with work still in flight, and asserts the
service's core guarantees:

* **No accepted job is ever lost**: every admitted submission resolves
  to an explicit terminal outcome (completed / timed_out /
  checkpointed / parked / cancelled / failed).
* **Backpressure is explicit**: overload produces ``rejected``
  outcomes carrying a positive ``retry_after_s`` hint — never hangs.
* **Cached repeats are byte-identical** to the first computation.
* **Shutdown is clean**: zero unresolved futures, and in-flight work
  is checkpointed or parked, not dropped.
* **The flight deck sees everything**: every outcome carries a
  ``trace_id``, the overload burst consumes visible error budget
  (``status`` shows remaining < 1 and a positive burn rate), and the
  wide-event ring covers the whole request stream.

Run directly (CI's ``serve-smoke`` job, ``make serve-smoke``)::

    PYTHONPATH=src python benchmarks/bench_serve.py

or emit the ``gsap-bench-record/1`` document as ``BENCH_serve.json``::

    PYTHONPATH=src python benchmarks/bench_serve.py --record

Arrivals, graph content and fault placement all derive from ``--seed``,
so two runs of the generator submit the identical request stream.
"""

import argparse
import asyncio
import sys
import time
from pathlib import Path

sys.path.insert(0, str(Path(__file__).resolve().parent))

from _bench_utils import ablation_workload, write_bench_record  # noqa: E402

from repro.config import SBPConfig  # noqa: E402
from repro.graph.generators import generate_category_graph  # noqa: E402
from repro.resilience.faults import FaultPlan, FaultSpec  # noqa: E402
from repro.serve import PartitionServer, ServeConfig  # noqa: E402

TERMINAL_OK = {
    "completed", "timed_out", "checkpointed", "parked", "cancelled",
    "failed",
}


def _graphs(seed, num_vertices, count):
    """*count* distinct small graphs, deterministic in *seed*."""
    return [
        generate_category_graph(num_vertices, "low", "low", seed=seed + i)[0]
        for i in range(count)
    ]


def _mean_edges(graphs):
    """Mean edge count of the graphs one phase partitioned."""
    return round(sum(g.num_edges for g in graphs) / len(graphs))


async def _drive(seed, num_vertices, checkpoint_root):
    report = {"phases": {}, "violations": []}

    def check(condition, message):
        if not condition:
            report["violations"].append(message)

    # -- phase 1: steady state -----------------------------------------
    t0 = time.perf_counter()
    async with PartitionServer(
        ServeConfig(workers=2, max_queue_depth=8, cache_capacity=16)
    ) as srv:
        graphs = _graphs(seed, num_vertices, 4)
        outcomes = await asyncio.gather(
            *[srv.submit(g, SBPConfig(seed=seed)) for g in graphs]
        )
        check(
            all(o.status == "completed" for o in outcomes),
            f"steady: non-completed outcomes "
            f"{[o.status for o in outcomes]}",
        )
        check(
            all(o.trace_id for o in outcomes),
            "steady: outcome without a trace_id",
        )
        steady_status = srv.status()
        check(
            len(steady_status["recent_jobs"]) == len(outcomes),
            "steady: wide-event ring did not cover every job",
        )
        report["phases"]["steady"] = {
            "jobs": len(outcomes),
            "num_edges": _mean_edges(graphs),
            "outcomes": _tally(outcomes),
            "slo": _slo_summary(steady_status),
            "runtime_s": time.perf_counter() - t0,
        }

    # -- phase 2: overload burst ---------------------------------------
    t0 = time.perf_counter()
    async with PartitionServer(
        ServeConfig(workers=1, max_queue_depth=3, cache_capacity=0)
    ) as srv:
        graphs = _graphs(seed + 100, num_vertices, 10)
        outcomes = await asyncio.gather(
            *[srv.submit(g, SBPConfig(seed=seed)) for g in graphs]
        )
        rejected = [o for o in outcomes if o.status == "rejected"]
        accepted = [o for o in outcomes if o.status != "rejected"]
        check(rejected, "overload: burst of 10 into depth-3 rejected nothing")
        check(
            all(o.retry_after_s and o.retry_after_s > 0 for o in rejected),
            "overload: rejection without a positive retry_after_s hint",
        )
        check(
            all(o.status in TERMINAL_OK for o in accepted),
            f"overload: accepted job left without terminal outcome "
            f"{[o.status for o in accepted]}",
        )
        stats = srv.stats()["admission"]
        check(
            stats["accepted_total"] + stats["rejected_total"] == 10,
            f"overload: accounting mismatch {stats}",
        )
        # the burst must be visible on the flight deck: rejections are
        # SLO-bad events, so the live status shows consumed budget and
        # a burning fast window.
        status = srv.status()
        slo = status["slo"].get("small", {})
        check(
            slo.get("error_budget_remaining", 1.0) < 1.0,
            f"overload: rejections did not consume error budget "
            f"({slo.get('error_budget_remaining')})",
        )
        check(
            slo.get("burn_rates", {}).get("5m", 0.0) > 0.0,
            "overload: burst left the 5m burn rate at zero",
        )
        report["phases"]["overload"] = {
            "jobs": len(outcomes),
            "num_edges": _mean_edges(graphs),
            "outcomes": _tally(outcomes),
            "rejected": len(rejected),
            "retry_after_s": [round(o.retry_after_s, 4) for o in rejected],
            "slo": _slo_summary(status),
            "runtime_s": time.perf_counter() - t0,
        }

    # -- phase 3: injected transient faults ----------------------------
    t0 = time.perf_counter()

    def plan_factory(job, attempt):
        # every job's first attempt dies to a persistent kernel fault;
        # the job-level retry then runs clean.
        if attempt == 0:
            return FaultPlan(
                faults=(FaultSpec(kind="kernel", at=0, count=10_000),)
            )
        return None

    async with PartitionServer(
        ServeConfig(workers=2, max_queue_depth=8, cache_capacity=0,
                    retry_attempts=2, retry_base_delay_s=0.0,
                    fault_budget=64),
        fault_plan_factory=plan_factory,
        sleep=lambda s: None,  # backoff is simulated; keep the bench fast
    ) as srv:
        graphs = _graphs(seed + 200, num_vertices, 3)
        outcomes = await asyncio.gather(
            *[srv.submit(g, SBPConfig(seed=seed)) for g in graphs]
        )
        check(
            all(o.status == "completed" for o in outcomes),
            f"faulty: jobs did not recover "
            f"{[(o.status, o.error) for o in outcomes]}",
        )
        check(
            all(o.retries >= 1 for o in outcomes),
            "faulty: injected faults absorbed without a job-level retry",
        )
        report["phases"]["faulty"] = {
            "jobs": len(outcomes),
            "num_edges": _mean_edges(graphs),
            "outcomes": _tally(outcomes),
            "retries": sum(o.retries for o in outcomes),
            "runtime_s": time.perf_counter() - t0,
        }

    # -- phase 4: cached repeats ---------------------------------------
    t0 = time.perf_counter()
    async with PartitionServer(
        ServeConfig(workers=2, max_queue_depth=8, cache_capacity=8)
    ) as srv:
        graph = _graphs(seed + 300, num_vertices, 1)[0]
        first = await srv.submit(graph, SBPConfig(seed=seed))
        again = await srv.submit(graph, SBPConfig(seed=seed))
        check(again.cache_hit, "repeat: second submission missed the cache")
        check(
            first.result.partition.tobytes()
            == again.result.partition.tobytes(),
            "repeat: cached partition is not byte-identical",
        )
        cache = srv.stats()["cache"]
        report["phases"]["repeat"] = {
            "jobs": 2,
            "num_edges": graph.num_edges,
            "cache": cache,
            "runtime_s": time.perf_counter() - t0,
        }

    # -- phase 5: shutdown with work in flight -------------------------
    t0 = time.perf_counter()
    srv = PartitionServer(
        ServeConfig(workers=1, max_queue_depth=8,
                    checkpoint_root=str(checkpoint_root), cache_capacity=0)
    )
    await srv.start()
    graphs = _graphs(seed + 400, num_vertices, 4)
    tasks = [srv.submit_task(g, SBPConfig(seed=seed)) for g in graphs]
    await asyncio.sleep(0.05)  # let the worker grab one
    summary = await srv.shutdown("checkpoint")
    outcomes = await asyncio.gather(*tasks)
    check(
        summary["unresolved"] == 0,
        f"shutdown: {summary['unresolved']} accepted job(s) left unresolved",
    )
    check(
        all(o.status in TERMINAL_OK for o in outcomes),
        f"shutdown: job lost without terminal outcome "
        f"{[o.status for o in outcomes]}",
    )
    parked = [o for o in outcomes if o.status == "parked"]
    check(
        all(o.checkpoint_dir for o in parked),
        "shutdown: parked job without a checkpoint directory",
    )
    report["phases"]["shutdown"] = {
        "jobs": len(outcomes),
        "num_edges": _mean_edges(graphs),
        "outcomes": _tally(outcomes),
        "runtime_s": time.perf_counter() - t0,
    }
    return report


def _tally(outcomes):
    tally = {}
    for o in outcomes:
        tally[o.status] = tally.get(o.status, 0) + 1
    return tally


def _slo_summary(status):
    """Per-size-class budget/burn digest of a ``status`` snapshot."""
    return {
        cls: {
            "error_budget_remaining": round(
                entry["error_budget_remaining"], 6
            ),
            "window_bad": entry["window_bad"],
            "window_total": entry["window_total"],
            "burn_5m": round(entry["burn_rates"]["5m"], 4),
            "burn_1h": round(entry["burn_rates"]["1h"], 4),
            "alerts": entry["alerts"],
        }
        for cls, entry in status["slo"].items()
    }


def run_traffic(seed=0, num_vertices=120, checkpoint_root="/tmp/gsap-serve-bench"):
    """Run the full scenario; return the phase report (violations list
    empty on success)."""
    return asyncio.run(_drive(seed, num_vertices, Path(checkpoint_root)))


def main(argv=None):
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--seed", type=int, default=0)
    parser.add_argument("--vertices", type=int, default=120)
    parser.add_argument(
        "--checkpoint-root", default="/tmp/gsap-serve-bench",
        help="scratch directory for shutdown checkpoints/parking",
    )
    parser.add_argument(
        "--record", action="store_true",
        help="write BENCH_serve.json (gsap-bench-record/1)",
    )
    args = parser.parse_args(argv)

    report = run_traffic(args.seed, args.vertices, args.checkpoint_root)
    for name, phase in report["phases"].items():
        print(f"{name:>9}: {phase}")
    if report["violations"]:
        for violation in report["violations"]:
            print(f"VIOLATION: {violation}", file=sys.stderr)
        return 1
    print("serve traffic: all guarantees held (no lost jobs, explicit "
          "backpressure, clean shutdown, visible SLO burn)")

    if args.record:
        workloads = [
            ablation_workload(
                f"serve/{name}",
                runtime_s=[phase["runtime_s"]],
                variant=name,
                num_vertices=args.vertices,
                num_edges=phase["num_edges"],
            )
            for name, phase in report["phases"].items()
        ]
        extras = {
            name: {k: v for k, v in phase.items()
                   if k not in ("runtime_s", "num_edges")}
            for name, phase in report["phases"].items()
        }
        out = write_bench_record(
            "serve", workloads, seed=args.seed,
            label="serve traffic generator", extras=extras,
        )
        print(f"bench record written to {out}")
    return 0


if __name__ == "__main__":
    sys.exit(main())
