"""Kernel ledger for the simulated device.

The ledger feeds the paper's breakdown figures: Figure 10 (per-phase
runtime shares), Figure 11 (average time per proposal) and Figure 12
(blockmodel-update speedups).  It keeps one running total per distinct
(phase, kernel) pair, so its size follows the number of kernels, not the
number of launches; the per-phase and per-kernel views sum those totals.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Dict, Tuple


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
    """Per-(phase, kernel) totals of every launch on one device."""

    def __init__(self) -> None:
        self.ledger: Dict[Tuple[str, str], KernelTotals] = {}

    def add(
        self,
        phase: str,
        name: str,
        wall_time_s: float,
        sim_time_s: float,
        work_items: int,
        bytes_moved: int,
    ) -> None:
        """Add one launch of kernel *name* in *phase* to the ledger."""
        entry = self.ledger.get((phase, name))
        if entry is None:
            entry = self.ledger[(phase, name)] = KernelTotals(phase, name)
        entry.wall_time_s += wall_time_s
        entry.sim_time_s += sim_time_s
        entry.num_launches += 1
        entry.work_items += work_items
        entry.bytes_moved += bytes_moved

    def reset(self) -> None:
        self.ledger.clear()

    # ------------------------------------------------------------------
    # views
    # ------------------------------------------------------------------
    def by_phase(self) -> Dict[str, KernelTotals]:
        """Totals per phase label, summed over kernels."""
        summaries: Dict[str, KernelTotals] = {}
        for entry in self.ledger.values():
            summaries.setdefault(entry.phase, KernelTotals(phase=entry.phase)).add(entry)
        return summaries

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
