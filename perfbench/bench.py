"""Workloads, measurement windows and the result line.

Each workload runs operations for ``--seconds`` seconds: whole
partitions for ``partition-4k`` and ``edist-4r`` (cycling through the
seed's graph set), closed-loop requests
from two client threads for ``serve-small``.
Untraced runs report the end-to-end metrics of :data:`END_TO_END`; a
traced run installs :class:`~perfbench.layers.Probe` and reports the
per-layer metrics of :data:`PER_LAYER` instead.  Every returned
partition goes through :mod:`perfbench.checks`; one failed check makes
the run incorrect.
"""

from __future__ import annotations

import argparse
import json
import os
import platform
import selectors
import shutil
import signal
import socket
import statistics
import subprocess
import sys
import tempfile
import threading
import time
import traceback
from contextlib import contextmanager, nullcontext
from dataclasses import dataclass, field
from pathlib import Path
from typing import Dict, List, Optional, Tuple

import numpy as np

from repro import GSAPPartitioner, SBPConfig
from repro.graph.io import load_edge_list, save_edge_list
from repro.gpusim.device import A4000, Device
from repro.serve.net import ServeClient

from perfbench import checks, gen
from perfbench.layers import Probe
from perfbench.ready import make_partitioner
from perfbench.run import THREAD_VARS

ROOT = Path(__file__).resolve().parent.parent
SRC = ROOT / "src"


#: set-ups timed per run; ``setup_s`` is their median
SETUP_REPEATS = 5
#: fixed tail percentile of request latency (see README)
TAIL_PERCENTILE = 75
#: closed-loop serve clients, one connection each (the host has 2 cores)
CLIENTS = 2
#: requests built per client before the window opens
PREPARED_REQUESTS = 48
#: replies after which the server's peak RSS is read: the server keeps
#: some memory per finished request, so a reading at the end of the
#: window would grow with throughput
RSS_REPLIES = 24

END_TO_END: Dict[str, str] = {
    "setup_s": "s",
    "p50_s": "s",
    "tail_s": "s",
    "large_p50_s": "s",
    "ops_per_s": "1/s",
    "nmi": "score",
    "mdl_ratio": "ratio",
    "completed_share": "share",
    "peak_rss_mb": "MB",
}

PER_LAYER: Dict[str, str] = {
    "gpusim.kernel_s": "s",
    "gpusim.launches": "count",
    "gpusim.segmented_sort_s": "s",
    "gpusim.work_items": "count",
    "gpusim.bytes_moved": "B",
    "gpusim.host_glue_s": "s",
    "gpusim.sim_time_s": "s",
    "blockmodel.move_delta_s": "s",
    "blockmodel.merge_delta_s": "s",
    "blockmodel.entropy_s": "s",
    "blockmodel.lookup_s": "s",
    "blockmodel.rebuild_s": "s",
    "blockmodel.rebuilds": "count",
    "blockmodel.incremental_s": "s",
    "blockmodel.incremental_batches": "count",
    "core.partition_s": "s",
    "core.block_merge_s": "s",
    "core.vertex_move_s": "s",
    "core.golden_section_s": "s",
    "core.proposals_s": "s",
    "core.mh_s": "s",
    "core.plateaus": "count",
    "core.sweeps": "count",
    "core.move_proposals": "count",
    "core.moves_accepted": "count",
    "core.accept_ratio": "ratio",
    "graph.build_s": "s",
    "serve.queue_wait_s": "s",
    "serve.service_s": "s",
    "serve.ingest_s": "s",
    "serve.retries": "count",
    "serve.degraded": "count",
    "serve.cache_hits": "count",
    "dist.exchange_s": "s",
    "dist.rank_compute_s": "s",
    "dist.rounds": "count",
    "dist.messages": "count",
    "dist.bytes_sent": "B",
    "dist.retransmits": "count",
    "trace.overhead_s": "s",
}


@dataclass(frozen=True)
class PartitionSpec:
    vertices: int
    algorithm: str  # "GSAP" or "EDiSt"
    nmi_floor: float
    #: graphs in the seed's graph set; operations cycle through them
    graphs: int = 1


PARTITION_WORKLOADS = {
    "partition-4k": PartitionSpec(4_000, "GSAP", nmi_floor=0.9),
    "edist-4r": PartitionSpec(150, "EDiSt", nmi_floor=0.7, graphs=5),
}
WORKLOADS = (*PARTITION_WORKLOADS, "serve-small")


@dataclass
class Outcome:
    """What one run measured and checked."""

    setup_s: List[float] = field(default_factory=list)
    #: (vertices, latency) of every operation that passed its checks
    samples: List[Tuple[int, float]] = field(default_factory=list)
    nmi: List[float] = field(default_factory=list)
    mdl_ratio: List[float] = field(default_factory=list)
    attempted: int = 0
    failed: int = 0
    window_s: float = 0.0
    ops_per_s: float = 0.0
    peak_rss_mb: float = 0.0
    problems: List[str] = field(default_factory=list)
    layers: Dict[str, float] = field(default_factory=dict)
    details: Dict[str, object] = field(default_factory=dict)

    @property
    def completed(self) -> int:
        return self.attempted - self.failed

    @property
    def latencies(self) -> List[float]:
        return [lat for _, lat in self.samples]

    @property
    def large_latencies(self) -> List[float]:
        """Latencies of the operations on the largest inputs of the run."""
        most = max((n for n, _ in self.samples), default=0)
        return [lat for n, lat in self.samples if n == most]

    def record(self, verdict: dict, latency: float, num_vertices: int) -> None:
        """Account one operation whose output went through the checks."""
        self.attempted += 1
        if verdict["problems"]:
            self.failed += 1
            self.problems.extend(verdict["problems"])
            return
        self.samples.append((num_vertices, latency))
        self.nmi.append(verdict["nmi"])
        self.mdl_ratio.append(verdict["mdl_ratio"])

    def fail(self, problem: str) -> None:
        self.attempted += 1
        self.failed += 1
        self.problems.append(problem)


def tail_summary(values: List[float]) -> dict:
    """The fixed tail percentile, with its sample count and samples beyond."""
    value = float(np.percentile(values, TAIL_PERCENTILE))
    return {"percentile": TAIL_PERCENTILE, "value": value, "n": len(values),
            "beyond": sum(1 for v in values if v > value)}


def peak_rss_mb(pid: str = "self") -> float:
    """VmHWM (peak resident set) of a process, in MiB."""
    with open(f"/proc/{pid}/status") as handle:
        for line in handle:
            if line.startswith("VmHWM:"):
                return int(line.split()[1]) / 1024.0
    raise RuntimeError(f"no VmHWM for process {pid}")


def environment() -> dict:
    blas = None
    try:
        blas = np.show_config(mode="dicts")["Build Dependencies"]["blas"]["name"]
    except (TypeError, KeyError):
        pass
    return {
        "nproc": os.cpu_count(),
        "affinity_cpus": len(os.sched_getaffinity(0)),
        "python": platform.python_version(),
        "numpy": np.__version__,
        "blas": blas,
        "thread_env": {var: os.environ.get(var) for var in THREAD_VARS},
        "numpy_madvise_hugepage": os.environ.get("NUMPY_MADVISE_HUGEPAGE"),
        "platform": platform.platform(),
    }


# ----------------------------------------------------------------------
# partition workloads
# ----------------------------------------------------------------------
@contextmanager
def _workdir():
    """A scratch directory inside the checkout, removed afterwards."""
    parent = ROOT / ".bench_build" / "perfbench"
    parent.mkdir(parents=True, exist_ok=True)
    path = Path(tempfile.mkdtemp(dir=parent))
    try:
        yield path
    finally:
        shutil.rmtree(path, ignore_errors=True)


def _timed_setup(spec: PartitionSpec, edges: Path, num_vertices: int,
                 seed: int) -> float:
    """Wall time of :mod:`perfbench.ready` in a fresh interpreter."""
    cmd = [sys.executable, "-m", "perfbench.ready", spec.algorithm, str(edges),
           str(num_vertices), str(seed)]
    start = time.perf_counter()
    subprocess.run(cmd, cwd=ROOT, env=_child_env(), check=True, timeout=120,
                   stdin=subprocess.DEVNULL)
    return time.perf_counter() - start


def _child_env() -> dict:
    return dict(os.environ, PYTHONPATH=os.pathsep.join([str(SRC), str(ROOT)]))


def run_partition(spec: PartitionSpec, seed: int, seconds: float,
                  probe: Optional[Probe]) -> Outcome:
    out = Outcome()
    planted = [gen.workload_graph(spec.vertices, seed, index)
               for index in range(spec.graphs)]
    with _workdir() as workdir:
        paths = [workdir / f"edges-{index}.tsv" for index in range(spec.graphs)]
        for path, input_ in zip(paths, planted):
            save_edge_list(input_.graph, path)
        if probe is None:
            out.setup_s = [_timed_setup(spec, paths[0], planted[0].num_vertices, seed)
                           for _ in range(SETUP_REPEATS)]
        with probe if probe is not None else nullcontext():
            graphs = [load_edge_list(path, num_vertices=input_.num_vertices)
                      for path, input_ in zip(paths, planted)]
    runs = []  # (graph index, result, latency)
    with probe if probe is not None else nullcontext():
        window_start = time.perf_counter()
        last = 0.0
        while not runs or (time.perf_counter() - window_start) + last <= seconds:
            index = len(runs) % spec.graphs
            partitioner = make_partitioner(spec.algorithm, seed)
            start = time.perf_counter()
            try:
                result = partitioner.partition(graphs[index])
            except Exception as exc:  # a failed operation is a result
                out.fail(f"{type(exc).__name__}: {exc}")
                break
            last = time.perf_counter() - start
            runs.append((index, result, last))
            if len(runs) == 1:
                # the first partition's peak: a later one starts on a heap
                # the earlier left behind, and how many fit the window
                # depends on the host's speed
                out.peak_rss_mb = peak_rss_mb()
        out.window_s = time.perf_counter() - window_start
    shas = []
    first_verdicts = {}
    for index, result, latency in runs:
        verdict = checks.verify_partition(graphs[index], planted[index].truth,
                                          result.partition, result.mdl, spec.nmi_floor)
        out.record(verdict, latency, graphs[index].num_vertices)
        shas.append(verdict["sha256"])
        if not verdict["problems"]:
            first_verdicts.setdefault(index, verdict)
    # A repeat of a graph must repeat its partition (checked below), so the
    # quality figures count each graph once, whatever the host's speed let
    # the window hold.
    out.nmi = [verdict["nmi"] for verdict in first_verdicts.values()]
    out.mdl_ratio = [verdict["mdl_ratio"] for verdict in first_verdicts.values()]
    out.ops_per_s = out.completed / out.window_s
    for index in range(spec.graphs):
        distinct = {sha for (i, _, _), sha in zip(runs, shas) if i == index and sha}
        if len(distinct) > 1:
            out.problems.append(
                f"same seed gave {len(distinct)} different partitions of graph {index}")
    out.details.update(shas=shas, op_latencies_s=list(out.latencies),
                       graph_of_op=[index for index, _, _ in runs],
                       num_edges=[input_.graph.num_edges for input_ in planted])
    if probe is not None and out.latencies:
        reference = _untraced_reference(make_partitioner(spec.algorithm, seed),
                                        graphs[0], shas[0], out)
        per_op = _per_op(probe.totals, out.completed)
        # the set-up builds, one per graph of the set
        per_op["graph.build_s"] = probe.totals["graph.build_s"] / spec.graphs
        per_op["dist.retransmits"] = statistics.fmean(
            r.dist["retransmits"] if r.dist else 0 for _, r, _ in runs)
        if spec.algorithm == "EDiSt":
            per_op["dist.rank_compute_s"] = (
                statistics.fmean(out.latencies) - per_op.get("dist.exchange_s", 0.0))
        per_op["trace.overhead_s"] = out.latencies[0] - reference
        out.layers = per_op
    return out


def _untraced_reference(partitioner, graph, traced_sha: str, out: Outcome) -> float:
    """Re-run one operation without the probe; its bytes must match."""
    start = time.perf_counter()
    result = partitioner.partition(graph)
    elapsed = time.perf_counter() - start
    sha = checks.partition_sha(result.partition)
    if sha != traced_sha:
        out.problems.append("traced partition differs from the untraced one")
    out.details["untraced_reference"] = {"sha256": sha, "seconds": elapsed}
    return elapsed


def _per_op(totals: Dict[str, float], ops: int) -> Dict[str, float]:
    per_op = {name: value / ops for name, value in totals.items()}
    per_op["gpusim.host_glue_s"] = (
        per_op.get("core.partition_s", 0.0) - per_op.get("gpusim.kernel_s", 0.0))
    proposals = per_op.get("core.move_proposals", 0.0)
    per_op["core.accept_ratio"] = (
        per_op.get("core.moves_accepted", 0.0) / proposals if proposals else 0.0)
    return per_op


# ----------------------------------------------------------------------
# serve workloads
# ----------------------------------------------------------------------
class ServerProcess:
    """One ``gsap serve --port 0`` subprocess (through the launcher if traced)."""

    START_TIMEOUT_S = 60.0

    def __init__(self, stats_path: Optional[Path] = None) -> None:
        if stats_path is None:
            cmd = [sys.executable, "-m", "repro", "serve", "--port", "0"]
        else:
            cmd = [sys.executable, "-m", "perfbench.serve_launcher",
                   str(stats_path), "serve", "--port", "0"]
        self.proc = subprocess.Popen(cmd, cwd=ROOT, env=_child_env(), stdout=subprocess.PIPE,
                                     stdin=subprocess.DEVNULL, text=True)
        try:
            self.port = self._read_port()
            with ServeClient("127.0.0.1", self.port) as client:
                if not client.status().get("ok"):
                    raise RuntimeError("server answered status with an error")
        except BaseException:
            self.kill()
            raise

    def _read_port(self) -> int:
        with selectors.DefaultSelector() as selector:
            selector.register(self.proc.stdout, selectors.EVENT_READ)
            if not selector.select(self.START_TIMEOUT_S):
                raise RuntimeError("server did not start in time")
        line = self.proc.stdout.readline()
        if not line.startswith("serving on "):
            raise RuntimeError(f"unexpected server banner {line!r}")
        return int(line.split()[2].rsplit(":", 1)[1])

    def shutdown(self) -> None:
        """Drain-shutdown over the protocol, then reap the process."""
        try:
            with ServeClient("127.0.0.1", self.port) as client:
                client.shutdown("drain")
            self.proc.wait(timeout=60)
        finally:
            self.kill()

    def kill(self) -> None:
        if self.proc.poll() is None:
            self.proc.kill()
        self.proc.wait()
        self.proc.stdout.close()


class LineClient:
    """A closed-loop TCP client that times each request from its first byte."""

    def __init__(self, port: int) -> None:
        self._sock = socket.create_connection(("127.0.0.1", port), timeout=100.0)
        self._file = self._sock.makefile("rwb")

    def call(self, line: bytes):
        start = time.perf_counter()
        self._file.write(line)
        self._file.flush()
        reply = self._file.readline()
        latency = time.perf_counter() - start
        if not reply:
            raise ConnectionError("server closed the connection")
        return latency, json.loads(reply)

    def close(self) -> None:
        try:
            self._file.close()
        finally:
            self._sock.close()


def _drive(client: LineClient, stream: gen.RequestStream, deadline: float,
           replies: list, ends: list, slot: int) -> None:
    """Closed loop: send the next request once the last reply is in."""
    index = 0
    try:
        while time.perf_counter() < deadline:
            request = stream[index]
            try:
                latency, reply = client.call(request.line)
            except (OSError, ValueError) as exc:
                replies.append((request, None, 0.0, f"{type(exc).__name__}: {exc}"))
                return
            replies.append((request, reply, latency, None))
            index += 1
    finally:
        ends[slot] = time.perf_counter()


def check_reply(request: gen.Request, reply: Optional[dict],
                error: Optional[str] = None) -> dict:
    """Checks for one serve reply; anything but a verified completion fails."""
    if reply is None:
        return {"problems": [error or "no reply"]}
    if reply.get("status") != "completed" or "partition" not in reply:
        return {"problems": [f"reply status {reply.get('status')!r}: "
                             f"{reply.get('error') or reply.get('reject_reason')}"]}
    planted = request.planted
    return checks.verify_partition(planted.graph, planted.truth,
                                   reply["partition"], reply["mdl"])


def tally_replies(out: Outcome, replies: list) -> int:
    """Fold ``(request, reply, latency, error)`` tuples into *out*.

    Returns how many replies passed every check.
    """
    failed_before = out.failed
    for request, reply, latency, error in replies:
        verdict = check_reply(request, reply, error)
        out.record(verdict, latency, request.planted.num_vertices)
    return len(replies) - (out.failed - failed_before)


def run_serve(seed: int, seconds: float, probe: Optional[Probe]) -> Outcome:
    out = Outcome()
    streams = [gen.RequestStream(seed, client) for client in range(CLIENTS)]
    for stream in streams:
        stream.prepare(PREPARED_REQUESTS)
    server = None
    per_client: List[list] = [[] for _ in streams]
    with _workdir() as workdir:
        stats_path = workdir / "layers.json" if probe is not None else None
        try:
            for _ in range(1 if probe is not None else SETUP_REPEATS):
                if server is not None:
                    server.shutdown()
                start = time.perf_counter()
                server = ServerProcess(stats_path)
                out.setup_s.append(time.perf_counter() - start)
            clients = [LineClient(server.port) for _ in streams]
            window_start = time.perf_counter()
            ends = [0.0] * len(streams)
            threads = [threading.Thread(target=_drive, args=(
                clients[i], streams[i], window_start + seconds, per_client[i], ends, i))
                for i in range(len(streams))]
            for thread in threads:
                thread.start()
            rss_replies = None
            while any(thread.is_alive() for thread in threads):
                replies = sum(map(len, per_client))
                if rss_replies is None and replies >= RSS_REPLIES:
                    out.peak_rss_mb = peak_rss_mb(str(server.proc.pid))
                    rss_replies = replies
                threads[0].join(timeout=0.05)
            busy_s = [end - window_start for end in ends]
            out.window_s = max(busy_s)
            for client in clients:
                client.close()
            if rss_replies is None:  # too slow a run to reach RSS_REPLIES
                out.peak_rss_mb = peak_rss_mb(str(server.proc.pid))
                rss_replies = sum(map(len, per_client))
            out.details["peak_rss_after_replies"] = rss_replies
            server.shutdown()
            server = None
        finally:
            if server is not None:
                server.kill()
        # each client's rate over its own busy time, so a long request
        # still running at the deadline does not dilute the other client's
        out.ops_per_s = sum(tally_replies(out, rs) / busy
                            for rs, busy in zip(per_client, busy_s))
        replies = [r for rs in per_client for r in rs]
        if stats_path is not None:
            out.layers = _serve_layers(json.loads(stats_path.read_text()), replies, out)
    out.details.update(
        requests_per_client=[len(rs) for rs in per_client],
        stream_sha256=[gen.stream_digest(s, len(rs)) for s, rs in zip(streams, per_client)],
    )
    return out


def _serve_layers(totals: Dict[str, float], replies: list, out: Outcome) -> dict:
    layers = _per_op(totals, max(out.completed, 1))
    done = [(req, rep, lat) for req, rep, lat, err in replies
            if rep is not None and rep.get("status") == "completed"]
    queue = [rep["queue_wait_s"] for _, rep, _ in done]
    service = [rep["service_s"] for _, rep, _ in done]
    layers["serve.queue_wait_s"] = _median(queue)
    layers["serve.service_s"] = _median(service)
    layers["serve.ingest_s"] = _median(
        [lat - q - s for (_, _, lat), q, s in zip(done, queue, service)])
    layers["serve.retries"] = sum(rep.get("retries", 0) for _, rep, _ in done)
    layers["serve.degraded"] = sum(1 for _, rep, _ in done
                                   if rep.get("degradation_level", 0) > 0)
    layers["serve.cache_hits"] = sum(1 for _, rep, _ in done if rep.get("cache_hit"))
    layers["trace.overhead_s"] = _replay_overhead(done, out)
    return layers


def _median(values: List[float]) -> float:
    return statistics.median(values) if values else 0.0


def _replay_overhead(done: list, out: Outcome) -> float:
    """Partition the first request in-process, untraced then traced.

    Both partitions must equal the traced server's reply byte for byte;
    the time difference is the probe's overhead on one job.
    """
    if not done:
        return 0.0
    request, reply, _ = done[0]
    served_sha = checks.partition_sha(reply["partition"])
    config = SBPConfig(**gen.REQUEST_CONFIG)
    times = []
    for traced in (False, True):
        partitioner = GSAPPartitioner(config, device=Device(A4000))
        with (Probe() if traced else nullcontext()):
            start = time.perf_counter()
            result = partitioner.partition(request.planted.graph)
            times.append(time.perf_counter() - start)
        if checks.partition_sha(result.partition) != served_sha:
            out.problems.append(
                f"{'traced' if traced else 'untraced'} in-process partition "
                "differs from the traced server's reply")
    return times[1] - times[0]


# ----------------------------------------------------------------------
# result line
# ----------------------------------------------------------------------
def end_to_end_metrics(out: Outcome) -> Dict[str, float]:
    tail = tail_summary(out.latencies)
    out.details["tail"] = tail
    return {
        "setup_s": statistics.median(out.setup_s),
        "p50_s": statistics.median(out.latencies),
        "tail_s": tail["value"],
        "large_p50_s": statistics.median(out.large_latencies),
        "ops_per_s": out.ops_per_s,
        "nmi": statistics.fmean(out.nmi),
        "mdl_ratio": statistics.median(out.mdl_ratio),
        "completed_share": out.completed / out.attempted,
        "peak_rss_mb": out.peak_rss_mb,
    }


def run_workload(name: str, seed: int, seconds: float, trace: bool) -> Outcome:
    probe = Probe() if trace else None
    if name in PARTITION_WORKLOADS:
        return run_partition(PARTITION_WORKLOADS[name], seed, seconds, probe)
    return run_serve(seed, seconds, probe)


def result_line(out: Outcome, trace: bool) -> dict:
    correct = not out.problems and out.failed == 0 and bool(out.latencies)
    if not out.latencies:
        values = {}
    elif trace:
        values = {name: float(out.layers.get(name, 0.0)) for name in PER_LAYER}
    else:
        values = end_to_end_metrics(out)
    units = PER_LAYER if trace else END_TO_END
    return {
        "correct": correct,
        "attempted": max(out.attempted, 1),
        "failed": out.failed if out.attempted else 1,
        "metrics": {name: {"value": value, "unit": units[name]}
                    for name, value in values.items()},
    }


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True, choices=WORKLOADS)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)
    trace = bool(args.trace)
    # a terminated run still unwinds, so the server it started is reaped
    signal.signal(signal.SIGTERM, lambda *_: sys.exit(143))
    try:
        out = run_workload(args.workload, args.seed, args.seconds, trace)
    except Exception as exc:  # the run itself failed: report it as a failure
        traceback.print_exc()
        out = Outcome()
        out.fail(f"{type(exc).__name__}: {exc}")
    line = result_line(out, trace)
    record = {
        "workload": args.workload, "seed": args.seed, "seconds": args.seconds,
        "trace": trace, "held_out_seed": gen.HELD_OUT_SEED,
        "environment": environment(), "problems": out.problems[:20],
        "window_s": out.window_s, "setup_samples_s": out.setup_s,
        "latency_samples": len(out.latencies),
        "large_latency_samples": len(out.large_latencies),
        **out.details,
    }
    print(json.dumps({"perfbench_record": record}))
    print(json.dumps(line))
    return 0 if line["correct"] else 1
