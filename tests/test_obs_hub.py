"""The Observability hub: recorder gating, device bridging, state."""

import pytest

from repro.config import ObservabilityConfig
from repro.gpusim.profiler import Profiler
from repro.obs import NULL_OBS, Observability
from repro.obs.metrics import Counter, Histogram, Series
from repro.obs.trace import _NULL_SPAN_CONTEXT


class FakeDevice:
    def __init__(self):
        self.profiler = Profiler()


class TestConstruction:
    def test_default_is_disabled(self):
        obs = Observability()
        assert not obs.enabled
        assert not obs.tracer.enabled

    def test_enabled_flag_overrides_config(self):
        cfg = ObservabilityConfig(enabled=False)
        obs = Observability(cfg, enabled=True)
        assert obs.enabled
        assert obs.config.enabled

    def test_from_config(self):
        obs = Observability.from_config(ObservabilityConfig(enabled=True))
        assert obs.enabled
        assert Observability.from_config(None).enabled is False

    def test_null_obs_is_disabled(self):
        assert not NULL_OBS.enabled
        NULL_OBS.count("should_not_exist_total")
        assert NULL_OBS.metrics.get("should_not_exist_total") is None


class TestDisabledRecordersAreFree:
    def test_span_returns_shared_null_context(self):
        obs = Observability(enabled=False)
        assert obs.span("x") is _NULL_SPAN_CONTEXT
        with obs.span("x") as span:
            span.set(meta=1)  # no-op, must not raise
        assert obs.tracer.spans() == []

    def test_metric_recorders_leave_no_trace(self):
        obs = Observability(enabled=False)
        obs.count("c_total")
        obs.gauge_set("g", 5.0)
        obs.observe("h_seconds", 0.1)
        obs.observe_many("h2_seconds", [0.1, 0.2])
        obs.series_append("s", None, 1.0)
        obs.instant("evt")
        assert len(obs.metrics) == 0
        assert obs.tracer.spans() == []

    def test_counter_total_reads_zero(self):
        obs = Observability(enabled=False)
        assert obs.counter_total("anything_total") == 0.0


class TestEnabledRecorders:
    def test_span_nesting(self):
        obs = Observability(enabled=True)
        with obs.span("outer", "run"):
            with obs.span("inner", "phase"):
                pass
        spans = obs.tracer.spans()
        assert [s.name for s in spans] == ["outer", "inner"]
        assert spans[1].parent == spans[0].index
        assert spans[1].depth == 1

    def test_metric_recorders_create_and_update(self):
        obs = Observability(enabled=True)
        obs.count("jobs_total", 2.0)
        obs.count("jobs_total")
        obs.gauge_set("depth", 7.0)
        obs.observe("latency_seconds", 0.25)
        obs.series_append("mdl", None, 123.0)
        assert obs.counter_total("jobs_total") == 3.0
        assert obs.metrics.get("depth").value == 7.0
        assert isinstance(obs.metrics.get("latency_seconds"), Histogram)
        assert isinstance(obs.metrics.get("mdl"), Series)

    def test_counter_total_does_not_create(self):
        obs = Observability(enabled=True)
        assert obs.counter_total("probe_total") == 0.0
        assert obs.metrics.get("probe_total") is None


class TestAttachDevice:
    def test_bridges_and_restores_tracer(self):
        obs = Observability(ObservabilityConfig(enabled=True))
        device = FakeDevice()
        sentinel = object()
        device.profiler.tracer = sentinel
        with obs.attach_device(device):
            assert device.profiler.tracer is obs.tracer
        assert device.profiler.tracer is sentinel

    def test_no_bridge_when_disabled(self):
        obs = Observability(enabled=False)
        device = FakeDevice()
        with obs.attach_device(device):
            assert device.profiler.tracer is None


class TestStateRoundTrip:
    def test_round_trip_preserves_telemetry(self):
        obs = Observability(enabled=True)
        with obs.span("run", "run"):
            obs.count("jobs_total", 4.0)
            obs.observe("latency_seconds", 0.5)
        state = obs.to_state()

        fresh = Observability(enabled=True)
        fresh.load_state(state)
        assert fresh.counter_total("jobs_total") == 4.0
        assert fresh.metrics.get("latency_seconds").count == 1
        assert [s.name for s in fresh.tracer.spans()] == ["run"]

    def test_disabled_state_is_empty(self):
        obs = Observability(enabled=False)
        assert obs.to_state() == {}
        obs.load_state({"metrics": {"x": {"kind": "counter", "value": 9}}})
        assert len(obs.metrics) == 0

    def test_metrics_shared_with_parent_registry(self):
        # the serve layer points a job hub's metrics at the server's
        # registry so per-job counts aggregate; spans stay per-job
        parent = Observability(enabled=True)
        job = Observability(enabled=True)
        job.metrics = parent.metrics
        job.count("serve_jobs_completed_total")
        assert parent.counter_total("serve_jobs_completed_total") == 1.0
        assert job.tracer is not parent.tracer
