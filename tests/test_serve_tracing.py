"""End-to-end serve observability: job tracing, wide events, SLO state,
flight-recorder dumps, and the live status/metrics/dump verbs.

No ``pytest-asyncio`` — each test drives its own loop with
``asyncio.run``; the TCP tests run client and server on one loop.
"""

import asyncio
import json

import pytest

from repro.config import SBPConfig
from repro.graph.datasets import load_dataset
from repro.obs import validate_prometheus_text
from repro.obs.flight import FLIGHT_RECORDER_SCHEMA, FlightRecorder
from repro.serve import (
    PartitionServer,
    ServeConfig,
    ServeFrontend,
    WIDE_EVENT_SCHEMA,
    render_status,
)


@pytest.fixture(scope="module")
def graph():
    return load_dataset("low_low", 150, seed=0)[0]


def _run(coro):
    return asyncio.run(coro)


class TestEndToEndTracing:
    def test_spans_carry_client_trace_id(self, graph, tmp_path):
        """Queue wait → admission → attempt → partitioner phases all
        share the caller-minted trace_id, and the per-job Chrome trace
        lands on disk."""
        trace_id = "feedfacefeedfacefeedfacefeedface"

        async def drive():
            config = ServeConfig(workers=1, trace_dir=str(tmp_path))
            async with PartitionServer(config) as server:
                outcome = await server.submit(
                    graph, SBPConfig(seed=3),
                    trace_id=trace_id,
                    parent_span_id="client-span-1",
                    tenant="team-a",
                )
                return outcome

        outcome = _run(drive())
        assert outcome.status == "completed"
        assert outcome.trace_id == trace_id
        assert outcome.trace_path is not None

        payload = json.loads(open(outcome.trace_path).read())
        # metadata (ph "M") events name the lane, not a job span
        events = [e for e in payload["traceEvents"] if e["ph"] != "M"]
        assert events, "per-job Chrome trace is empty"
        # every span of the job carries the client's trace id
        assert all(e["args"].get("trace_id") == trace_id for e in events)
        names = {e["name"] for e in events}
        cats = {e["cat"] for e in events}
        assert "job" in names
        assert "queue_wait" in names
        assert "admission" in names
        assert "attempt" in names
        assert "phase" in cats  # partitioner phases nested underneath
        assert payload["otherData"]["trace_id"] == trace_id
        assert payload["otherData"]["tenant"] == "team-a"
        # the root span records the client's parent span id
        root = next(e for e in events if e["name"] == "job")
        assert root["args"]["parent_span_id"] == "client-span-1"
        assert root["args"]["tenant"] == "team-a"

    def test_server_mints_trace_when_client_brings_none(self, graph):
        async def drive():
            async with PartitionServer(ServeConfig(workers=1)) as server:
                return await server.submit(graph, SBPConfig(seed=3))

        outcome = _run(drive())
        assert outcome.status == "completed"
        assert outcome.trace_id is not None
        assert len(outcome.trace_id) == 32

    def test_wide_event_per_terminal_job(self, graph):
        async def drive():
            async with PartitionServer(ServeConfig(workers=1)) as server:
                outcome = await server.submit(
                    graph, SBPConfig(seed=3), tenant="t1"
                )
                events = [
                    e["event"]
                    for e in server.flight.recent(kind="wide_event")
                ]
                return outcome, events

        outcome, events = _run(drive())
        assert len(events) == 1
        wide = events[0]
        assert wide["schema"] == WIDE_EVENT_SCHEMA
        assert wide["job_id"] == outcome.job_id
        assert wide["trace_id"] == outcome.trace_id
        assert wide["tenant"] == "t1"
        assert wide["status"] == "completed"
        assert wide["size_class"] == "small"
        assert wide["admission"]["verdict"] == "accepted"
        assert wide["degradation"]["name"] == "normal"
        assert wide["cache"] == {
            "hit": False, "coalesced": False, "singleflight_role": "leader",
        }
        assert wide["phase_s"], "phase timings missing from wide event"
        assert wide["result"]["num_blocks"] > 0
        assert wide["service_s"] > 0

    def test_rejected_submission_gets_wide_event_too(self, graph):
        async def drive():
            config = ServeConfig(workers=0, max_queue_depth=1)
            server = PartitionServer(config)
            await server.start()
            task = server.submit_task(graph, SBPConfig(seed=3))
            await asyncio.sleep(0)  # first job occupies the only slot
            rejected = await server.submit(graph, SBPConfig(seed=4))
            events = [
                e["event"] for e in server.flight.recent(kind="wide_event")
            ]
            await server.shutdown("checkpoint")
            await task
            return rejected, events

        rejected, events = _run(drive())
        assert rejected.status == "rejected"
        wides = {e["job_id"]: e for e in events}
        wide = wides[rejected.job_id]
        assert wide["admission"]["verdict"] == "rejected"
        assert wide["admission"]["reason"] == "queue_depth"
        assert wide["status"] == "rejected"

    def test_slo_consumed_by_failures(self, graph):
        """Rejections burn the error budget; the status snapshot shows
        budget remaining < 1 and a positive burn rate."""

        async def drive():
            config = ServeConfig(workers=0, max_queue_depth=1)
            server = PartitionServer(config)
            await server.start()
            task = server.submit_task(graph, SBPConfig(seed=3))
            await asyncio.sleep(0)
            for seed in range(4, 10):
                await server.submit(graph, SBPConfig(seed=seed))
            status = server.status()
            await server.shutdown("checkpoint")
            await task
            return status

        status = _run(drive())
        small = status["slo"]["small"]
        assert small["window_bad"] >= 6
        assert small["error_budget_remaining"] < 1.0
        assert small["burn_rates"]["5m"] > 0.0
        # the gauges landed on the shared registry too
        # (rendered by the metrics verb / Prometheus page)

    def test_cache_hit_and_follower_roles_in_wide_events(self, graph):
        async def drive():
            async with PartitionServer(ServeConfig(workers=1)) as server:
                first = await server.submit(graph, SBPConfig(seed=3))
                second = await server.submit(graph, SBPConfig(seed=3))
                events = [
                    e["event"]
                    for e in server.flight.recent(kind="wide_event")
                ]
                return first, second, events

        first, second, events = _run(drive())
        assert second.cache_hit
        by_job = {e["job_id"]: e for e in events}
        assert by_job[first.job_id]["cache"]["singleflight_role"] == "leader"
        assert by_job[second.job_id]["cache"]["hit"] is True


class TestFlightRecorder:
    def test_ring_bounds_and_dump_round_trip(self, tmp_path):
        rec = FlightRecorder(capacity=4, clock=lambda: 7.0)
        for i in range(10):
            rec.append("span", {"i": i})
        assert len(rec) == 4
        stats = rec.stats()
        assert stats["appended_total"] == 10
        assert stats["evicted_total"] == 6
        path = rec.dump(tmp_path / "dump.jsonl", reason="unit")
        lines = path.read_text().splitlines()
        records = [json.loads(line) for line in lines]
        header = records[0]
        assert header["kind"] == "flight_recorder_dump"
        assert header["schema"] == FLIGHT_RECORDER_SCHEMA
        assert header["reason"] == "unit"
        assert header["events"] == 4
        assert [r["i"] for r in records[1:]] == [6, 7, 8, 9]

    def test_recent_filters_and_limits(self):
        rec = FlightRecorder(capacity=16)
        rec.append_span({"name": "a"})
        rec.append_wide_event({"job_id": "j1"})
        rec.append_wide_event({"job_id": "j2"})
        wides = rec.recent(kind="wide_event")
        assert [w["event"]["job_id"] for w in wides] == ["j1", "j2"]
        assert len(rec.recent(n=1, kind="wide_event")) == 1

    def test_dump_on_degradation_escalation_contains_trigger(
        self, graph, tmp_path
    ):
        """Escalating the ladder arms a dump; the next terminal job
        performs it, and the dump replays as JSONL containing that
        job's wide event and the transition record."""

        async def drive():
            config = ServeConfig(workers=1, flight_dir=str(tmp_path))
            async with PartitionServer(config) as server:
                server.force_degradation(2)  # escalation: arms the dump
                outcome = await server.submit(graph, SBPConfig(seed=3))
                return outcome

        outcome = _run(drive())
        dumps = sorted(tmp_path.glob("flight-*-degradation_escalation.jsonl"))
        assert len(dumps) == 1
        records = [
            json.loads(line)
            for line in dumps[0].read_text().splitlines()
        ]
        header = records[0]
        assert header["kind"] == "flight_recorder_dump"
        assert header["reason"] == "degradation_escalation"
        kinds = {r["kind"] for r in records[1:]}
        assert "degradation_transition" in kinds
        wides = [
            r["event"] for r in records[1:] if r["kind"] == "wide_event"
        ]
        assert any(w["job_id"] == outcome.job_id for w in wides)
        transition = next(
            r for r in records[1:] if r["kind"] == "degradation_transition"
        )
        assert transition["to_level"] == 2

    def test_worker_crash_dumps_flight_recorder(self, graph, tmp_path):
        """An unexpected exception in the execution path fails the job,
        keeps the worker alive, and dumps the recorder."""

        def explode(job, attempt):
            raise RuntimeError("boom")

        async def drive():
            config = ServeConfig(workers=1, flight_dir=str(tmp_path))
            async with PartitionServer(
                config, fault_plan_factory=explode
            ) as server:
                return await server.submit(graph, SBPConfig(seed=3))

        crashed = _run(drive())
        assert crashed.status == "failed"
        assert "crash" in crashed.error
        dumps = sorted(tmp_path.glob("flight-*-worker_crash.jsonl"))
        assert len(dumps) == 1
        records = [
            json.loads(line) for line in dumps[0].read_text().splitlines()
        ]
        wides = [
            r["event"] for r in records[1:] if r["kind"] == "wide_event"
        ]
        assert any(w["job_id"] == crashed.job_id for w in wides)


class TestLiveOpsVerbs:
    def test_status_metrics_dump_over_tcp(self, graph, tmp_path):
        """One loop, real sockets: submit with a client-minted trace,
        then poll status/metrics/dump through the wire protocol."""

        async def drive():
            config = ServeConfig(workers=1, flight_dir=str(tmp_path))
            server = PartitionServer(config)
            frontend = ServeFrontend(server, "127.0.0.1", 0)
            await frontend.start()
            reader, writer = await asyncio.open_connection(
                "127.0.0.1", frontend.port
            )

            async def call(payload):
                writer.write(json.dumps(payload).encode() + b"\n")
                await writer.drain()
                return json.loads(await reader.readline())

            src, dst, wgt = [], [], []
            adj = graph.out_adj
            for u in range(graph.num_vertices):
                for k in range(adj.ptr[u], adj.ptr[u + 1]):
                    src.append(u)
                    dst.append(int(adj.nbr[k]))
                    wgt.append(int(adj.wgt[k]))
            reply = await call({
                "op": "partition", "src": src, "dst": dst,
                "weights": wgt, "num_vertices": graph.num_vertices,
                "config": {"seed": 3},
                "trace_id": "cafecafecafecafecafecafecafecafe",
                "tenant": "wire-tenant",
            })
            status = await call({"op": "status"})
            metrics = await call({"op": "metrics"})
            dump = await call({"op": "dump", "reason": "test"})
            await server.shutdown("drain")
            await frontend.close()
            writer.close()
            return reply, status, metrics, dump

        reply, status, metrics, dump = _run(drive())
        assert reply["ok"] and reply["status"] == "completed"
        assert reply["trace_id"] == "cafecafecafecafecafecafecafecafe"

        assert status["ok"]
        snap = status["status"]
        assert snap["uptime_s"] >= 0
        assert "small" in snap["slo"]
        assert snap["flight_recorder"]["buffered"] > 0
        assert snap["recent_jobs"][-1]["tenant"] == "wire-tenant"

        assert metrics["ok"]
        text = metrics["text"]
        assert validate_prometheus_text(text) == []
        assert "gsap_serve_jobs_completed_total" in text
        assert "gsap_serve_slo_error_budget_remaining_small" in text
        assert 'service="gsap-serve"' in text

        assert dump["ok"]
        dump_records = [
            json.loads(line)
            for line in open(dump["path"]).read().splitlines()
        ]
        assert dump_records[0]["reason"] == "test"

    def test_dump_without_destination_errors_cleanly(self, graph):
        async def drive():
            server = PartitionServer(ServeConfig(workers=0))
            frontend = ServeFrontend(server, "127.0.0.1", 0)
            await frontend.start()
            reader, writer = await asyncio.open_connection(
                "127.0.0.1", frontend.port
            )
            writer.write(json.dumps({"op": "dump"}).encode() + b"\n")
            await writer.drain()
            reply = json.loads(await reader.readline())
            await server.shutdown("checkpoint")
            await frontend.close()
            writer.close()
            return reply

        reply = _run(drive())
        assert reply["ok"] is False
        assert "destination" in reply["error"]

    def test_removed_config_option_errors_cleanly(self):
        async def drive():
            server = PartitionServer(ServeConfig(workers=0))
            frontend = ServeFrontend(server, "127.0.0.1", 0)
            await frontend.start()
            reader, writer = await asyncio.open_connection(
                "127.0.0.1", frontend.port
            )

            async def call(payload):
                writer.write(json.dumps(payload).encode() + b"\n")
                await writer.drain()
                return json.loads(await reader.readline())

            replies = {}
            for section, option in REMOVED_OPTIONS:
                replies[option] = await call({
                    "op": "partition", "src": [0, 1, 2], "dst": [1, 2, 0],
                    "config": {"seed": 3, section: {option: True}},
                })
            status = await call({"op": "status"})
            await server.shutdown("checkpoint")
            await frontend.close()
            writer.close()
            return replies, status

        REMOVED_OPTIONS = (
            ("integrity", "track_device_digests"),
            ("observability", "trace_kernels"),
        )
        replies, status = _run(drive())
        for _, option in REMOVED_OPTIONS:
            assert replies[option]["ok"] is False
            assert option in replies[option]["error"]
        assert status["ok"]


class TestTopRenderer:
    def _status_payload(self):
        return {
            "uptime_s": 125.0,
            "stats": {
                "admission": {"depth": 3, "inflight_bytes": 4096,
                              "shed_factor": 1.0},
                "cache": {"size": 2, "capacity": 32, "hits_total": 5,
                          "misses_total": 5, "evictions_total": 0},
                "singleflight_coalesced_total": 1,
                "degradation_level": 2,
                "degradation_name": "coarse",
                "outcomes": {"completed": 9, "rejected": 1},
                "running": ["job-1"],
                "shutting_down": False,
            },
            "slo": {
                "small": {
                    "error_budget_remaining": 0.25,
                    "window_total": 10, "window_bad": 1,
                    "burn_rates": {"5m": 10.0, "1h": 7.5,
                                   "6h": 2.0, "3d": 0.5},
                    "alerts": ["page"],
                },
            },
            "flight_recorder": {"buffered": 40, "capacity": 2048,
                                "dumps_total": 1,
                                "last_dump_reason": "worker_crash"},
            "recent_jobs": [{
                "job_id": "job-000009", "status": "completed",
                "size_class": "small", "queue_wait_s": 0.1,
                "service_s": 0.4, "degradation": {"level": 2},
                "trace_id": "abcdef0123456789abcdef0123456789",
            }],
        }

    def test_render_contains_key_signals(self):
        frame = render_status(self._status_payload())
        assert "2m05s" in frame
        assert "coarse" in frame
        assert "completed=9" in frame
        assert "25.0%" in frame
        assert "page" in frame
        assert "worker_crash" in frame
        assert "job-000009" in frame
        assert "abcdef0123456789" in frame

    def test_render_handles_empty_payload(self):
        frame = render_status({})
        assert "gsap serve" in frame
        assert "no SLO objectives" in frame
