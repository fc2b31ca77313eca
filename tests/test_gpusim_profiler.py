"""Tests for the kernel ledger feeding Figs. 10-12."""

import pytest

from repro import GSAPPartitioner, SBPConfig, load_dataset
from repro.gpusim.device import A4000, Device
from repro.gpusim.profiler import Profiler


def add(p, name="k", phase="p", wall=1.0, sim=0.5, work=10, nbytes=80):
    p.add(phase, name, wall, sim, work, nbytes)


class TestAccumulation:
    def test_totals(self):
        p = Profiler()
        add(p, wall=1.0, sim=0.25)
        add(p, wall=2.0, sim=0.75)
        assert p.total_wall_time_s() == pytest.approx(3.0)
        assert p.total_sim_time_s() == pytest.approx(1.0)
        assert p.launch_count() == 2

    def test_one_entry_per_phase_kernel_pair(self):
        p = Profiler()
        add(p, name="a", phase="merge", work=3, nbytes=24)
        add(p, name="a", phase="merge", work=5, nbytes=40)
        add(p, name="a", phase="move")
        add(p, name="b", phase="merge")
        assert set(p.ledger) == {("merge", "a"), ("move", "a"), ("merge", "b")}
        entry = p.ledger[("merge", "a")]
        assert (entry.phase, entry.name) == ("merge", "a")
        assert entry.num_launches == 2
        assert entry.work_items == 8
        assert entry.bytes_moved == 64

    def test_reset(self):
        p = Profiler()
        add(p)
        p.reset()
        assert p.launch_count() == 0
        assert p.total_sim_time_s() == 0.0
        assert p.ledger == {}


class TestAggregation:
    def test_by_phase(self):
        p = Profiler()
        add(p, phase="merge", wall=1.0)
        add(p, phase="merge", wall=2.0)
        add(p, phase="move", wall=4.0)
        phases = p.by_phase()
        assert phases["merge"].wall_time_s == pytest.approx(3.0)
        assert phases["merge"].num_launches == 2
        assert phases["move"].wall_time_s == pytest.approx(4.0)

    def test_by_kernel(self):
        p = Profiler()
        add(p, name="a", phase="merge")
        add(p, name="a", phase="move")
        add(p, name="b")
        kernels = p.by_kernel()
        assert kernels["a"].num_launches == 2
        assert kernels["a"].name == "a"
        assert kernels["b"].num_launches == 1

    def test_phase_shares_sum_to_one(self):
        p = Profiler()
        add(p, phase="merge", wall=1.0)
        add(p, phase="move", wall=3.0)
        shares = p.phase_shares("wall")
        assert sum(shares.values()) == pytest.approx(1.0)
        assert shares["move"] == pytest.approx(0.75)

    def test_phase_shares_sim_clock(self):
        p = Profiler()
        add(p, phase="merge", sim=1.0)
        add(p, phase="move", sim=1.0)
        shares = p.phase_shares("sim")
        assert shares["merge"] == pytest.approx(0.5)

    def test_phase_shares_bad_clock(self):
        with pytest.raises(ValueError):
            Profiler().phase_shares("cpu")

    def test_phase_shares_empty(self):
        assert Profiler().phase_shares() == {}


class _LaunchTape:
    """Stands in for the profiler's span tracer: the profiler hands it
    each launch's measured wall time (phase spans are ignored)."""

    enabled = True

    def __init__(self):
        self.walls = []

    def begin(self, name, category, **_):
        return -1

    def end(self, index):
        pass

    def add_complete(self, name, category, duration_s, **_):
        self.walls.append(duration_s)


class TestLedgerMatchesLaunches:
    """A GSAP run's ledger equals the per-launch totals of every
    ``Device.execute`` call, collected by a wrapper outside the device."""

    @pytest.fixture(scope="class")
    def run(self):
        graph, _ = load_dataset("low_low", 200, seed=3)
        device = Device(A4000)
        device.profiler.tracer = tape = _LaunchTape()
        launches = []
        execute = device.execute

        def recording_execute(name, cost, body, phase=None):
            # the launch's phase is the outermost open phase scope
            phase = phase or device.profiler.current_phase
            result = execute(name, cost, body, phase=phase)
            nbytes = cost.resolved_bytes()
            launches.append({
                "phase": phase or "unphased",
                "name": name,
                "work_items": cost.work_items,
                "bytes_moved": nbytes,
                "sim_s": A4000.kernel_launch_overhead_s + max(
                    cost.work_items * cost.ops_per_item
                    / A4000.effective_ops_per_s,
                    nbytes / (A4000.memory_bandwidth_gbps * 1e9),
                ),
                "wall_s": tape.walls[-1],
            })
            return result

        device.execute = recording_execute
        config = SBPConfig(
            max_num_nodal_itr=10,
            delta_entropy_threshold1=5e-3,
            delta_entropy_threshold2=1e-3,
            seed=4,
        )
        GSAPPartitioner(config, device=device).partition(graph)
        assert len(tape.walls) == len(launches)
        return device, launches

    @staticmethod
    def _sums(launches, key):
        totals = {}
        for launch in launches:
            t = totals.setdefault(
                launch[key], {"launches": 0, "work_items": 0,
                              "bytes_moved": 0, "sim_s": 0.0, "wall_s": 0.0},
            )
            t["launches"] += 1
            for field in ("work_items", "bytes_moved", "sim_s", "wall_s"):
                t[field] += launch[field]
        return totals

    def test_one_entry_per_distinct_pair(self, run):
        device, launches = run
        first_seen = list(dict.fromkeys(
            (launch["phase"], launch["name"]) for launch in launches
        ))
        assert len(launches) > len(first_seen)
        assert list(device.profiler.ledger) == first_seen
        assert device.profiler.launch_count() == len(launches)

    @pytest.mark.parametrize("view,key", [("by_phase", "phase"),
                                          ("by_kernel", "name")])
    def test_views_equal_per_launch_sums(self, run, view, key):
        device, launches = run
        expected = self._sums(launches, key)
        summaries = getattr(device.profiler, view)()
        assert set(summaries) == set(expected)
        for label, totals in expected.items():
            summary = summaries[label]
            assert summary.num_launches == totals["launches"]
            assert summary.work_items == totals["work_items"]
            assert summary.bytes_moved == totals["bytes_moved"]
            assert summary.sim_time_s == pytest.approx(totals["sim_s"],
                                                       rel=1e-9)
            assert summary.wall_time_s == pytest.approx(totals["wall_s"],
                                                        rel=1e-9)

    @pytest.mark.parametrize("incremental", [True, False])
    def test_every_kernel_is_phased(self, incremental):
        graph, _ = load_dataset("low_low", 200, seed=3)
        device = Device(A4000)
        config = SBPConfig(max_num_nodal_itr=10, seed=4,
                           incremental_updates=incremental)
        GSAPPartitioner(config, device=device).partition(graph)
        assert device.profiler.ledger
        assert "unphased" not in device.profiler.by_phase()

    def test_clock_totals_match(self, run):
        device, launches = run
        profiler = device.profiler
        assert profiler.total_sim_time_s() == pytest.approx(
            device.sim_time_s, rel=1e-9
        )
        assert profiler.total_sim_time_s() == pytest.approx(
            sum(launch["sim_s"] for launch in launches), rel=1e-9
        )
        assert profiler.total_wall_time_s() == pytest.approx(
            sum(launch["wall_s"] for launch in launches), rel=1e-9
        )
