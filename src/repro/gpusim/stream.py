"""Streams and events for the simulated device.

Real GSAP overlaps the three cuRAND table builds on concurrent streams
(paper Fig. 4).  The simulated device executes kernels eagerly, but
streams still model the *timeline*: each stream tracks its own simulated
completion time, concurrent streams overlap, and
:meth:`Device`-level synchronization takes the max across streams.  This
is what lets the cost model credit GSAP for the overlapped table builds.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Callable, Optional, TypeVar

from ..errors import DeviceError
from .device import Device, KernelCost, get_default_device

T = TypeVar("T")


@dataclass
class Event:
    """A point on a stream's simulated timeline."""

    timestamp_s: float

    def elapsed_since(self, earlier: "Event") -> float:
        return self.timestamp_s - earlier.timestamp_s


class Stream:
    """An ordered queue of kernels with its own simulated timeline."""

    def __init__(self, device: Optional[Device] = None) -> None:
        self.device = device or get_default_device()
        self._completion_time_s = 0.0

    @property
    def completion_time_s(self) -> float:
        """Simulated time at which all enqueued work has finished."""
        return self._completion_time_s

    def launch(
        self,
        name: str,
        cost: KernelCost,
        body: Callable[[], T],
    ) -> T:
        """Execute *body* on this stream, advancing its timeline."""
        injector = getattr(self.device, "fault_injector", None)
        if injector is not None:
            injector.on_stream_launch(name, self.device.profiler.current_phase)
        before = self.device.sim_time_s
        result = self.device.execute(name, cost, body)
        duration = self.device.sim_time_s - before
        self._completion_time_s = max(
            self._completion_time_s, self._start_floor()
        ) + duration
        return result

    def _start_floor(self) -> float:
        # Work on a stream cannot start before previously-enqueued work on
        # the same stream has completed; it *can* overlap other streams.
        return self._completion_time_s

    def record_event(self) -> Event:
        return Event(timestamp_s=self._completion_time_s)

    def wait_event(self, event: Event) -> None:
        """Order this stream's subsequent work after *event*."""
        self._completion_time_s = max(self._completion_time_s, event.timestamp_s)

    def synchronize(self) -> float:
        """Return this stream's completion time (no host blocking to model)."""
        return self._completion_time_s


def overlap_time_s(*streams: Stream) -> float:
    """Simulated makespan of concurrent streams (max completion time)."""
    if not streams:
        raise DeviceError("overlap_time_s needs at least one stream")
    return max(s.completion_time_s for s in streams)
