"""Shared machinery for the CPU baseline partitioners.

The baselines model the paper's comparison systems (uSAP, I-SBP and the
GraphChallenge reference they both descend from): sequential or
coarsely-batched MCMC over a *dense* blockmodel updated in place after
every accepted move.  Where GSAP evaluates every proposal of a phase in
one batched device pass, these engines walk vertices one at a time —
the per-vertex iterative structure whose cost the paper's figures measure.

The substitution note of DESIGN.md §2 applies: the paper's baselines are
C++ with 20 CPU threads; ours are Python loops.  Both sit on the
"iterate per vertex" side of the algorithmic divide, so the *shape* of
the GSAP-vs-baseline comparison (who wins, how the gap scales with |E|)
is preserved even though absolute times differ.
"""

from __future__ import annotations

import math
import time
from dataclasses import dataclass
from typing import Optional, Tuple

import numpy as np

from ..blockmodel.delta import (
    VertexNeighborhood,
    _move_new_rows_cols_dense,
    merge_delta_dense,
    move_delta_dense,
)
from ..blockmodel.dense import DenseBlockmodel
from ..blockmodel.entropy import description_length
from ..config import SBPConfig
from ..core.golden_section import GoldenSectionSearch
from ..core.result import PartitionResult
from ..core.state import PartitionSnapshot, PhaseTimings, ProposalStats
from ..errors import PartitionError
from ..gpusim.profiler import Profiler
from ..graph.csr import DiGraphCSR
from ..logging_util import get_logger
from ..rng import StreamFactory
from ..types import FLOAT_DTYPE, INDEX_DTYPE

logger = get_logger("baselines")


def vertex_neighborhood(
    graph: DiGraphCSR, bmap: np.ndarray, v: int
) -> VertexNeighborhood:
    """Aggregate vertex *v*'s adjacency by block (self-loops split out)."""
    onbr, ow = graph.out_neighbors(v)
    inbr, iw = graph.in_neighbors(v)
    self_w = int(ow[onbr == v].sum())
    keep_o = onbr != v
    keep_i = inbr != v
    ob = bmap[onbr[keep_o]]
    ib = bmap[inbr[keep_i]]
    if len(ob):
        ub, inv = np.unique(ob, return_inverse=True)
        uw = np.bincount(inv, weights=ow[keep_o].astype(FLOAT_DTYPE))
    else:
        ub = np.empty(0, dtype=INDEX_DTYPE)
        uw = np.empty(0, dtype=FLOAT_DTYPE)
    if len(ib):
        vb, vinv = np.unique(ib, return_inverse=True)
        vw = np.bincount(vinv, weights=iw[keep_i].astype(FLOAT_DTYPE))
    else:
        vb = np.empty(0, dtype=INDEX_DTYPE)
        vw = np.empty(0, dtype=FLOAT_DTYPE)
    return VertexNeighborhood(
        k_out_blocks=ub.astype(INDEX_DTYPE),
        k_out_weights=uw,
        k_in_blocks=vb.astype(INDEX_DTYPE),
        k_in_weights=vw,
        self_weight=self_w,
    )


def propose_from_blockmodel(
    model: DenseBlockmodel,
    pivot_candidates: np.ndarray,
    pivot_weights: np.ndarray,
    rng: np.random.Generator,
    exclude: Optional[int] = None,
) -> int:
    """The CPU proposal rule (the per-proposal work GSAP amortises away).

    Sample a pivot block ``u`` by *pivot_weights*; with probability
    ``B/(deg(u)+B)`` return a uniform random block, otherwise sample a
    block from row+column ``u`` of the blockmodel.  When *exclude* is
    given (merge proposals) the excluded block is never returned.
    """
    b = model.num_blocks
    deg = model.deg_out + model.deg_in

    def random_block() -> int:
        if exclude is None:
            return int(rng.integers(0, b))
        pick = int(rng.integers(0, b - 1))
        return pick + (pick >= exclude)

    total = pivot_weights.sum()
    if len(pivot_candidates) == 0 or total <= 0:
        return random_block()
    u = int(pivot_candidates[
        np.searchsorted(np.cumsum(pivot_weights), rng.random() * total, side="right")
    ])
    if rng.random() <= b / (deg[u] + b):
        return random_block()
    row = model.matrix[u, :].astype(FLOAT_DTYPE)
    col = model.matrix[:, u].astype(FLOAT_DTYPE)
    weights = row + col
    if exclude is not None:
        weights[exclude] = 0.0
    total = weights.sum()
    if total <= 0:
        return random_block()
    csum = np.cumsum(weights)
    return int(np.searchsorted(csum, rng.random() * total, side="right"))


def hastings_correction_dense(
    model: DenseBlockmodel,
    r: int,
    s: int,
    nbhd: VertexNeighborhood,
) -> float:
    """``p_backward / p_forward`` for one sequential move (see core.mh)."""
    t = np.concatenate([nbhd.k_out_blocks, nbhd.k_in_blocks])
    w = np.concatenate([nbhd.k_out_weights, nbhd.k_in_weights]).astype(FLOAT_DTYPE)
    if len(t) == 0:
        return 1.0
    b = model.num_blocks
    m = model.matrix
    deg = (model.deg_out + model.deg_in).astype(FLOAT_DTYPE)
    fwd = (w * (m[t, s] + m[s, t] + 1.0) / (deg[t] + b)).sum()
    row_r, _row_s, col_r, _col_s, d_out_new, d_in_new = _move_new_rows_cols_dense(
        model, r, s, nbhd
    )
    deg_new = d_out_new + d_in_new
    bwd = (w * (col_r[t] + row_r[t] + 1.0) / (deg_new[t] + b)).sum()
    if fwd <= 0 or bwd <= 0:
        return 1.0
    return float(bwd / fwd)


@dataclass
class MovePhaseResult:
    mdl: float
    num_sweeps: int
    num_proposals: int
    proposal_time_s: float
    converged: bool


class CPUSBPEngine:
    """Sequential SBP engine the baseline partitioners specialise.

    Subclasses override :meth:`initial_partition` (uSAP's SCC seeding,
    I-SBP's sample-extend) and :meth:`move_batch_indices` (sequential vs
    async-Gibbs batching); the merge/move statistics are shared and exact
    (the same :mod:`repro.blockmodel.delta` oracles the tests pin down).
    """

    name = "cpu-sbp"
    #: dense blockmodels are quadratic in the *initial* block count; guard
    #: against accidentally launching an infeasible run.
    max_dense_blocks = 20_000

    def __init__(self, config: Optional[SBPConfig] = None,
                 max_plateaus: int = 128) -> None:
        self.config = config or SBPConfig()
        self.max_plateaus = max_plateaus

    # ------------------------------------------------------------------
    # strategy hooks
    # ------------------------------------------------------------------
    def initial_partition(
        self, graph: DiGraphCSR, rng: np.random.Generator
    ) -> np.ndarray:
        """Initial Bmap; the reference starts from singletons."""
        return np.arange(graph.num_vertices, dtype=INDEX_DTYPE)

    def move_batch_size(self, num_vertices: int) -> int:
        """Vertices processed between blockmodel refreshes (1 = serial MCMC)."""
        return 1

    # ------------------------------------------------------------------
    def partition(self, graph: DiGraphCSR) -> PartitionResult:
        if graph.num_vertices == 0:
            return PartitionResult(
                partition=np.empty(0, dtype=INDEX_DTYPE), num_blocks=0, mdl=0.0,
                algorithm=self.name,
            )
        config = self.config
        streams = StreamFactory(config.seed)
        profiler = Profiler()  # phase clock only: no device kernels here
        stats = ProposalStats()
        run_start = time.perf_counter()
        num_vertices = graph.num_vertices
        total_weight = graph.total_edge_weight

        bmap = self.initial_partition(graph, streams.get("init"))
        bmap = self._compact(bmap)
        num_blocks = int(bmap.max()) + 1
        if num_blocks > self.max_dense_blocks:
            raise PartitionError(
                f"{self.name}: initial block count {num_blocks} exceeds the "
                f"dense-blockmodel guard ({self.max_dense_blocks}); use GSAP "
                "for graphs this large"
            )
        model = DenseBlockmodel.from_graph(graph, bmap, num_blocks)
        initial_mdl = description_length(model, num_vertices, total_weight)
        search = GoldenSectionSearch(
            reduction_rate=config.num_blocks_reduction_rate,
            min_blocks=config.min_blocks,
        )
        search.update(PartitionSnapshot(num_blocks, initial_mdl, bmap.copy()))

        total_sweeps = 0
        converged = True
        plateaus = 0
        while not search.done():
            plateaus += 1
            if plateaus > self.max_plateaus:
                converged = False
                break
            target, resume = search.next_target()
            bmap = resume.bmap.copy()
            model = DenseBlockmodel.from_graph(graph, bmap, resume.num_blocks)

            with profiler.phase("block_merge"):
                bmap, model, merge_props, merge_prop_time = self._merge_phase(
                    model, bmap, target, streams.next_in_sequence("merge"), graph
                )
            stats.merge_proposals += merge_props
            stats.merge_proposal_time_s += merge_prop_time

            threshold = (
                config.delta_entropy_threshold1
                if search.threshold_regime() == 1
                else config.delta_entropy_threshold2
            )
            with profiler.phase("vertex_move"):
                move_result = self._move_phase(
                    graph, model, bmap, streams.next_in_sequence("move"),
                    threshold, initial_mdl,
                )
            stats.move_proposals += move_result.num_proposals
            stats.move_proposal_time_s += move_result.proposal_time_s
            total_sweeps += move_result.num_sweeps

            with profiler.phase("golden_section"):
                search.update(
                    PartitionSnapshot(model.num_blocks, move_result.mdl, bmap.copy())
                )

        best = search.best
        if best is None:
            raise PartitionError("no partition evaluated")
        return PartitionResult(
            partition=best.bmap,
            num_blocks=best.num_blocks,
            mdl=best.mdl,
            history=list(search.history),
            timings=PhaseTimings.from_phase_wall(profiler.phase_wall_s),
            proposal_stats=stats,
            total_time_s=time.perf_counter() - run_start,
            sim_time_s=0.0,
            num_sweeps=total_sweeps,
            converged=converged,
            algorithm=self.name,
        )

    # ------------------------------------------------------------------
    @staticmethod
    def _compact(bmap: np.ndarray) -> np.ndarray:
        used = np.unique(bmap)
        remap = np.full(int(used.max()) + 1, -1, dtype=INDEX_DTYPE)
        remap[used] = np.arange(len(used), dtype=INDEX_DTYPE)
        return remap[bmap]

    def _merge_phase(
        self,
        model: DenseBlockmodel,
        bmap: np.ndarray,
        target: int,
        rng: np.random.Generator,
        graph: DiGraphCSR,
    ) -> Tuple[np.ndarray, DenseBlockmodel, int, float]:
        """Sequential per-block merge proposals, then apply the cheapest."""
        config = self.config
        proposals_evaluated = 0
        proposal_time = 0.0
        guard = 0
        while model.num_blocks > target:
            guard += 1
            if guard > 64:
                raise PartitionError("merge phase failed to reach target")
            b = model.num_blocks
            best_delta = np.full(b, np.inf)
            best_proposal = np.full(b, -1, dtype=INDEX_DTYPE)
            t0 = time.perf_counter()
            for r in range(b):
                row = model.matrix[r, :].astype(FLOAT_DTYPE)
                col = model.matrix[:, r].astype(FLOAT_DTYPE)
                weights = row + col
                cands = np.flatnonzero(weights)
                for _ in range(config.num_proposals):
                    s = propose_from_blockmodel(
                        model, cands, weights[cands], rng, exclude=r
                    )
                    delta = merge_delta_dense(model, r, s)
                    proposals_evaluated += 1
                    if delta < best_delta[r]:
                        best_delta[r] = delta
                        best_proposal[r] = s
            proposal_time += time.perf_counter() - t0
            # apply the (b - target) cheapest merges via union-find
            from ..core.block_merge import apply_merges

            bmap, new_b, applied = apply_merges(
                bmap, b, best_delta, best_proposal, b - target
            )
            if applied == 0:
                raise PartitionError("merge phase made no progress")
            model = DenseBlockmodel.from_graph(graph, bmap, new_b)
        return bmap, model, proposals_evaluated, proposal_time

    def _move_phase(
        self,
        graph: DiGraphCSR,
        model: DenseBlockmodel,
        bmap: np.ndarray,
        rng: np.random.Generator,
        threshold: float,
        initial_mdl_scale: float,
    ) -> MovePhaseResult:
        """Sequential (or batched) MCMC sweeps until the MDL plateaus."""
        config = self.config
        num_vertices = graph.num_vertices
        total_weight = graph.total_edge_weight
        batch_size = max(1, self.move_batch_size(num_vertices))
        mdl = description_length(model, num_vertices, total_weight)
        scale = abs(initial_mdl_scale)
        window: list[float] = []
        proposals = 0
        proposal_time = 0.0
        converged = False
        sweeps = 0
        v_adj = None  # combined adjacency cache for proposals
        for sweep in range(config.max_num_nodal_itr):
            sweeps = sweep + 1
            order = rng.permutation(num_vertices)
            for start in range(0, num_vertices, batch_size):
                batch = order[start : start + batch_size]
                pending: list[tuple[int, int, VertexNeighborhood]] = []
                for v in batch:
                    v = int(v)
                    r = int(bmap[v])
                    nbhd = vertex_neighborhood(graph, bmap, v)
                    t0 = time.perf_counter()
                    pivots = np.concatenate(
                        [nbhd.k_out_blocks, nbhd.k_in_blocks]
                    )
                    pivot_w = np.concatenate(
                        [nbhd.k_out_weights, nbhd.k_in_weights]
                    )
                    s = propose_from_blockmodel(model, pivots, pivot_w, rng)
                    proposal_time += time.perf_counter() - t0
                    proposals += 1
                    if s == r:
                        continue
                    delta = move_delta_dense(model, r, s, nbhd)
                    hastings = hastings_correction_dense(model, r, s, nbhd)
                    exponent = min(700.0, max(-700.0, -config.beta * delta))
                    p_accept = min(1.0, math.exp(exponent) * hastings)
                    if rng.random() < p_accept:
                        pending.append((v, s, nbhd))
                # apply the batch (batch_size == 1 → classic serial MCMC)
                for v, s, nbhd in pending:
                    r = int(bmap[v])
                    if r == s:
                        continue
                    if batch_size > 1:
                        # async-Gibbs: the neighbourhood may be stale;
                        # recompute against the current Bmap for a
                        # consistent in-place update.
                        nbhd = vertex_neighborhood(graph, bmap, v)
                    model.apply_move(
                        r, s,
                        nbhd.k_out_blocks, nbhd.k_out_weights.astype(np.int64),
                        nbhd.k_in_blocks, nbhd.k_in_weights.astype(np.int64),
                        nbhd.self_weight,
                    )
                    bmap[v] = s
            new_mdl = description_length(model, num_vertices, total_weight)
            window.append(mdl - new_mdl)
            mdl = new_mdl
            if len(window) > config.delta_entropy_moving_avg_window:
                window.pop(0)
            if len(window) == config.delta_entropy_moving_avg_window:
                if abs(sum(window) / len(window)) < threshold * scale:
                    converged = True
                    break
        return MovePhaseResult(
            mdl=mdl,
            num_sweeps=sweeps,
            num_proposals=proposals,
            proposal_time_s=proposal_time,
            converged=converged,
        )
