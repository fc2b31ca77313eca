"""Simulated GPU device model.

The paper runs GSAP on an NVIDIA RTX A4000 (CUDA 12.2).  This module
provides the substitution described in DESIGN.md §2: a :class:`Device`
object that executes *data-parallel kernel bodies* (vectorized NumPy
functions) while accounting two clocks:

``wall`` — the real time spent executing the vectorized body on the host
(this is what the benchmark figures compare, because the vectorized
formulation *is* the data-parallel algorithm), and

``sim`` — an analytic estimate of what the same kernel would cost on the
modelled GPU: per-launch overhead plus the larger of the compute and the
memory-bandwidth roofline terms.  The sim clock is what reproduces the
small-graph behaviour of paper Table 3 (launch overhead dominates at 1K
vertices) and is reported as a secondary column in EXPERIMENTS.md.
"""

from __future__ import annotations

import time
from dataclasses import dataclass
from typing import Callable, Optional, TypeVar

from ..errors import KernelLaunchError
from .profiler import Profiler

T = TypeVar("T")


@dataclass(frozen=True)
class DeviceSpec:
    """Static hardware parameters of a modelled GPU.

    The throughput figures are deliberately *effective* (irregular integer
    workloads with scattered access), not peak datasheet numbers.
    """

    name: str
    num_sms: int
    cores_per_sm: int
    clock_ghz: float
    memory_bytes: int
    memory_bandwidth_gbps: float  # GB/s
    kernel_launch_overhead_s: float
    #: effective simple-operations per second for irregular kernels
    effective_ops_per_s: float
    warp_size: int = 32

    @property
    def total_cores(self) -> int:
        return self.num_sms * self.cores_per_sm


#: RTX A4000: 48 SMs x 128 cores, 16 GB, 448 GB/s.
A4000 = DeviceSpec(
    name="RTX A4000 (simulated)",
    num_sms=48,
    cores_per_sm=128,
    clock_ghz=1.56,
    memory_bytes=16 * 1024**3,
    memory_bandwidth_gbps=448.0,
    kernel_launch_overhead_s=5e-6,
    effective_ops_per_s=2.0e11,
)

#: A deliberately small, slow device for tests.
TINY_DEVICE = DeviceSpec(
    name="tiny (test)",
    num_sms=2,
    cores_per_sm=32,
    clock_ghz=1.0,
    memory_bytes=1 * 1024**2,
    memory_bandwidth_gbps=10.0,
    kernel_launch_overhead_s=5e-6,
    effective_ops_per_s=1.0e9,
)


@dataclass
class KernelCost:
    """Work description used by the analytic cost model.

    Parameters
    ----------
    work_items:
        Logical thread count of the launch (e.g. one per edge).
    ops_per_item:
        Simple operations each item performs (default 1).
    bytes_moved:
        Total DRAM traffic of the kernel; defaults to
        ``8 * work_items`` (one 64-bit word touched per item).
    """

    work_items: int
    ops_per_item: float = 1.0
    bytes_moved: Optional[int] = None

    def resolved_bytes(self) -> int:
        return int(self.bytes_moved if self.bytes_moved is not None else 8 * self.work_items)


class Device:
    """A simulated GPU: the sim clock, the kernel ledger, kernel execution.

    The sim clock prices kernel launches only — per-launch overhead plus
    the roofline term; nothing models transfers or memory capacity.

    A fault injector (:class:`repro.resilience.FaultInjector`) may be
    assigned to :attr:`fault_injector`; when present it is consulted
    before every kernel launch and may raise injected device errors.

    Kernels are charged to the outermost phase scope open on
    :attr:`profiler` (``with device.profiler.phase("vertex_move"):``);
    the profiler also mirrors every launch into its span tracer.
    """

    def __init__(self, spec: DeviceSpec = A4000) -> None:
        self.spec = spec
        self.profiler = Profiler()
        self.fault_injector = None
        self._sim_time_s = 0.0

    # ------------------------------------------------------------------
    # clocks
    # ------------------------------------------------------------------
    @property
    def sim_time_s(self) -> float:
        """Total simulated device time accumulated so far."""
        return self._sim_time_s

    def reset_clocks(self) -> None:
        self._sim_time_s = 0.0
        self.profiler.reset()

    def roofline_s(self, cost: KernelCost) -> float:
        """The larger of the compute and memory-bandwidth times of *cost*."""
        compute = (cost.work_items * cost.ops_per_item) / self.spec.effective_ops_per_s
        memory = cost.resolved_bytes() / (self.spec.memory_bandwidth_gbps * 1e9)
        return max(compute, memory)

    def account(
        self,
        name: str,
        phase: str,
        wall_s: float,
        sim_s: float,
        work_items: int,
        bytes_moved: int,
        start_s: Optional[float] = None,
    ) -> None:
        """Charge one launch to the sim clock and the kernel ledger."""
        self._sim_time_s += sim_s
        self.profiler.add(
            phase, name, wall_s, sim_s, work_items, bytes_moved, start_s
        )

    # ------------------------------------------------------------------
    # kernel execution
    # ------------------------------------------------------------------
    def execute(
        self,
        name: str,
        cost: KernelCost,
        body: Callable[[], T],
        phase: Optional[str] = None,
    ) -> T:
        """Run a kernel *body*, timing it on both clocks.

        Parameters
        ----------
        name:
            Kernel name for the profiler (Figs. 10-12 aggregate on it).
        cost:
            Work description for the simulated-time roofline.
        body:
            Zero-argument callable executing the vectorized kernel.
        phase:
            Phase label for breakdown reports; defaults to the profiler's
            outermost open phase scope, else ``"unphased"``.
        """
        if cost.work_items < 0:
            raise KernelLaunchError(
                f"kernel {name!r} launched with negative work: {cost.work_items}"
            )
        nbytes = cost.resolved_bytes()
        phase = phase or self.profiler.current_phase
        if self.fault_injector is not None:
            self.fault_injector.on_kernel(name, phase, nbytes)
        start = time.perf_counter()
        result = body()
        wall = time.perf_counter() - start
        sim = self.spec.kernel_launch_overhead_s + self.roofline_s(cost)
        self.account(
            name, phase or "unphased", wall, sim, cost.work_items, nbytes, start
        )
        return result


_default_device: Optional[Device] = None


def get_default_device() -> Device:
    """Process-wide default device (an A4000 model), created lazily."""
    global _default_device
    if _default_device is None:
        _default_device = Device(A4000)
    return _default_device


def set_default_device(device: Optional[Device]) -> None:
    """Override (or with ``None`` reset) the process-wide default device."""
    global _default_device
    _default_device = device
