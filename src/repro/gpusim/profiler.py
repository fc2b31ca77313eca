"""Kernel ledger and phase clock for the simulated device.

The ledger feeds the paper's breakdown figures: Figure 10 (per-phase
runtime shares), Figure 11 (average time per proposal) and Figure 12
(blockmodel-update speedups).  It keeps one running total per distinct
(phase, kernel) pair, so its size follows the number of kernels, not the
number of launches; the per-phase and per-kernel views sum those totals.

Phases are scopes: ``with profiler.phase("vertex_move", plateau=i):``
labels every kernel launched inside it, adds the scope's wall time to
:attr:`Profiler.phase_wall_s` and, when a tracer is attached, records
the scope as a ``phase`` span with the kernels as ``kernel`` spans
under it.  A kernel is charged to the *outermost* open scope, so a
nested scope (``blockmodel_update`` inside ``vertex_move``) times a
sub-step without moving any kernel out of its phase.
"""

from __future__ import annotations

import time
from contextlib import contextmanager
from dataclasses import dataclass
from typing import Any, Dict, Iterator, List, Optional, Tuple


@dataclass
class KernelTotals:
    """Summed timings of a set of kernel launches.

    A ledger entry names both its ``phase`` and its kernel ``name``; the
    :meth:`Profiler.by_phase` / :meth:`Profiler.by_kernel` views sum over
    one of the two and leave that label empty.
    """

    phase: str = ""
    name: str = ""
    wall_time_s: float = 0.0
    sim_time_s: float = 0.0
    num_launches: int = 0
    work_items: int = 0
    bytes_moved: int = 0

    def add(self, other: "KernelTotals") -> None:
        self.wall_time_s += other.wall_time_s
        self.sim_time_s += other.sim_time_s
        self.num_launches += other.num_launches
        self.work_items += other.work_items
        self.bytes_moved += other.bytes_moved


class Profiler:
    """Per-(phase, kernel) totals of every launch, plus per-phase wall time.

    A span tracer (:class:`repro.obs.Tracer`) may be assigned to
    :attr:`tracer` (usually via
    :meth:`repro.obs.Observability.attach_device`); while it is enabled,
    phase scopes and kernel launches are mirrored as spans.
    """

    def __init__(self) -> None:
        self.ledger: Dict[Tuple[str, str], KernelTotals] = {}
        #: summed wall seconds of every closed scope, per phase name
        self.phase_wall_s: Dict[str, float] = {}
        self.tracer = None
        self._open: List[str] = []

    @property
    def current_phase(self) -> Optional[str]:
        """The outermost open phase scope, which kernels are charged to."""
        return self._open[0] if self._open else None

    @contextmanager
    def phase(self, name: str, **args: Any) -> Iterator[None]:
        """Time the enclosed block as phase *name*; *args* annotate its span."""
        tracer = self.tracer
        span = (
            tracer.begin(name, "phase", **args)
            if tracer is not None and tracer.enabled else None
        )
        self._open.append(name)
        start = time.perf_counter()
        try:
            yield
        finally:
            self.phase_wall_s[name] = (
                self.phase_wall_s.get(name, 0.0) + time.perf_counter() - start
            )
            self._open.pop()
            if span is not None:
                tracer.end(span)

    def add(
        self,
        phase: str,
        name: str,
        wall_time_s: float,
        sim_time_s: float,
        work_items: int,
        bytes_moved: int,
        start_s: Optional[float] = None,
    ) -> None:
        """Add one launch of kernel *name* in *phase* to the ledger.

        *start_s* is the launch's ``time.perf_counter()`` start, which
        places its kernel span on the tracer's timeline.
        """
        entry = self.ledger.get((phase, name))
        if entry is None:
            entry = self.ledger[(phase, name)] = KernelTotals(phase, name)
        entry.wall_time_s += wall_time_s
        entry.sim_time_s += sim_time_s
        entry.num_launches += 1
        entry.work_items += work_items
        entry.bytes_moved += bytes_moved
        tracer = self.tracer
        if tracer is not None and tracer.enabled:
            tracer.add_complete(
                name,
                "kernel",
                wall_time_s,
                start_abs_s=start_s,
                args={
                    "phase": phase,
                    "work_items": work_items,
                    "sim_time_s": sim_time_s,
                    "bytes_moved": bytes_moved,
                },
            )

    def reset(self) -> None:
        self.ledger.clear()
        self.phase_wall_s.clear()

    # ------------------------------------------------------------------
    # views
    # ------------------------------------------------------------------
    def by_phase(self) -> Dict[str, KernelTotals]:
        """Totals per phase label, summed over kernels."""
        summaries: Dict[str, KernelTotals] = {}
        for entry in self.ledger.values():
            summaries.setdefault(entry.phase, KernelTotals(phase=entry.phase)).add(entry)
        return summaries

    def host_glue_s(self) -> Dict[str, float]:
        """Per phase with kernels: its scopes' wall time outside those
        kernels (phase wall − summed kernel wall), i.e. host glue."""
        return {
            phase: self.phase_wall_s.get(phase, 0.0) - s.wall_time_s
            for phase, s in self.by_phase().items()
        }

    def by_kernel(self) -> Dict[str, KernelTotals]:
        """Totals per kernel name, summed over phases."""
        summaries: Dict[str, KernelTotals] = {}
        for entry in self.ledger.values():
            summaries.setdefault(entry.name, KernelTotals(name=entry.name)).add(entry)
        return summaries

    def total_wall_time_s(self) -> float:
        return sum(e.wall_time_s for e in self.ledger.values())

    def total_sim_time_s(self) -> float:
        return sum(e.sim_time_s for e in self.ledger.values())

    def launch_count(self) -> int:
        return sum(e.num_launches for e in self.ledger.values())

    def phase_shares(self, clock: str = "wall") -> Dict[str, float]:
        """Fraction of total time per phase, on the chosen clock."""
        if clock not in ("wall", "sim"):
            raise ValueError(f"clock must be 'wall' or 'sim', got {clock!r}")
        attr = "wall_time_s" if clock == "wall" else "sim_time_s"
        summaries = self.by_phase()
        total = sum(getattr(s, attr) for s in summaries.values())
        if total <= 0:
            return {phase: 0.0 for phase in summaries}
        return {
            phase: getattr(summary, attr) / total
            for phase, summary in summaries.items()
        }
