"""Partition state snapshots used by the golden-section search."""

from __future__ import annotations

from dataclasses import dataclass, fields
from typing import Mapping, Optional

from ..types import IndexArray


@dataclass(frozen=True)
class PartitionSnapshot:
    """One evaluated partition: block count, MDL, and the Bmap achieving it."""

    num_blocks: int
    mdl: float
    bmap: IndexArray

    def copy(self) -> "PartitionSnapshot":
        return PartitionSnapshot(
            num_blocks=self.num_blocks, mdl=self.mdl, bmap=self.bmap.copy()
        )


@dataclass
class PhaseTimings:
    """Wall-clock seconds attributed to each SBP phase (paper Fig. 10).

    ``blockmodel_update_s`` tracks the time the vertex-move phase spent
    updating the blockmodel after accepted batches (paper Algorithm 2,
    the Fig. 12 subject).  It is a *subset* of ``vertex_move_s`` — kept
    out of :attr:`total_s` and :meth:`shares` so the three top-level
    phases still sum to the whole run — and makes the update-vs-MCMC
    split measurable from timings alone.

    Partitioners read these off a
    :class:`~repro.gpusim.profiler.Profiler`'s phase scopes with
    :meth:`from_phase_wall`.
    """

    block_merge_s: float = 0.0
    vertex_move_s: float = 0.0
    golden_section_s: float = 0.0
    blockmodel_update_s: float = 0.0

    @classmethod
    def from_phase_wall(
        cls,
        phase_wall_s: Mapping[str, float],
        base: Optional["PhaseTimings"] = None,
    ) -> "PhaseTimings":
        """*base* plus per-phase wall seconds keyed by phase name.

        Field ``<phase>_s`` takes the seconds of phase ``<phase>``.
        """
        base = base or cls()
        return cls(**{
            f.name: getattr(base, f.name)
            + phase_wall_s.get(f.name[: -len("_s")], 0.0)
            for f in fields(cls)
        })

    @property
    def total_s(self) -> float:
        return self.block_merge_s + self.vertex_move_s + self.golden_section_s

    @property
    def vertex_move_mcmc_s(self) -> float:
        """Vertex-move time excluding blockmodel rebuilds (Fig. 12 split)."""
        return max(0.0, self.vertex_move_s - self.blockmodel_update_s)

    def shares(self) -> dict:
        total = self.total_s
        if total <= 0:
            return {"block_merge": 0.0, "vertex_move": 0.0, "golden_section": 0.0}
        return {
            "block_merge": self.block_merge_s / total,
            "vertex_move": self.vertex_move_s / total,
            "golden_section": self.golden_section_s / total,
        }

    def breakdown(self) -> dict:
        """Fig. 10 + Fig. 12 view: top-level phases with the update split."""
        return {
            "block_merge_s": self.block_merge_s,
            "vertex_move_s": self.vertex_move_s,
            "vertex_move_mcmc_s": self.vertex_move_mcmc_s,
            "blockmodel_update_s": self.blockmodel_update_s,
            "golden_section_s": self.golden_section_s,
            "total_s": self.total_s,
        }


@dataclass
class ProposalStats:
    """Counts used for per-proposal averages (paper Fig. 11)."""

    merge_proposals: int = 0
    merge_proposal_time_s: float = 0.0
    move_proposals: int = 0
    move_proposal_time_s: float = 0.0

    def merge_avg_s(self) -> float:
        if self.merge_proposals == 0:
            return 0.0
        return self.merge_proposal_time_s / self.merge_proposals

    def move_avg_s(self) -> float:
        if self.move_proposals == 0:
            return 0.0
        return self.move_proposal_time_s / self.move_proposals
