"""Stochastic proposal generation (paper §3.2, Algorithm 1, Fig. 4).

Every proposer (a block in the block-merge phase, a vertex in the
vertex-move phase) first samples a neighbour by the multinomial
distribution of its connecting edge weights, identifying a pivot block
``u``; then with probability ``B / (deg[u] + B)`` the proposal is a
uniformly random block (the escape hatch that keeps the chain from being
trapped in local MDL minima), otherwise the proposal is a block drawn
from ``u``'s own adjacency — realised, exactly as in Algorithm 1 line 10,
by reusing the pre-generated multinomial table entry for ``u``.

GSAP's trick is that all random inputs are produced up front as three
lookup tables on concurrent streams (Fig. 4); the proposal kernel is then
a pure gather over those tables, launched over every proposer at once.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Optional, Tuple

import numpy as np

from ..blockmodel.blockmodel import BlockmodelCSR
from ..gpusim.curand import LookupTables, build_lookup_tables
from ..gpusim.device import Device, KernelCost
from ..graph.csr import DiGraphCSR
from ..types import INDEX_DTYPE, WEIGHT_DTYPE


def combined_block_adjacency(
    bm: BlockmodelCSR,
) -> Tuple[np.ndarray, np.ndarray, np.ndarray]:
    """Per-block union of out- and in-adjacency (row b = out_b ++ in_b).

    Entries are not deduplicated — the multinomial sampler only needs
    weight-proportional selection, and M[u,:] ++ M[:,u] is exactly the
    distribution the reference implementation samples from.
    """
    out_len = bm.out_ptr[1:] - bm.out_ptr[:-1]
    in_len = bm.in_ptr[1:] - bm.in_ptr[:-1]
    total_len = out_len + in_len
    ptr = np.concatenate(([0], np.cumsum(total_len))).astype(INDEX_DTYPE)
    n = int(ptr[-1])
    nbr = np.empty(n, dtype=INDEX_DTYPE)
    wgt = np.empty(n, dtype=WEIGHT_DTYPE)
    # out entries go first in each row, then in entries
    out_pos_base = ptr[:-1]
    in_pos_base = ptr[:-1] + out_len
    if len(bm.out_nbr):
        starts = np.concatenate(([0], np.cumsum(out_len)))[:-1]
        inner = np.arange(len(bm.out_nbr), dtype=INDEX_DTYPE) - np.repeat(
            starts, out_len
        )
        pos = np.repeat(out_pos_base, out_len) + inner
        nbr[pos] = bm.out_nbr
        wgt[pos] = bm.out_wgt
    if len(bm.in_nbr):
        starts = np.concatenate(([0], np.cumsum(in_len)))[:-1]
        inner = np.arange(len(bm.in_nbr), dtype=INDEX_DTYPE) - np.repeat(
            starts, in_len
        )
        pos = np.repeat(in_pos_base, in_len) + inner
        nbr[pos] = bm.in_nbr
        wgt[pos] = bm.in_wgt
    return ptr, nbr, wgt


def combined_vertex_adjacency(
    graph: DiGraphCSR,
) -> Tuple[np.ndarray, np.ndarray, np.ndarray]:
    """Per-vertex union of out- and in-adjacency of the input graph."""
    out, inn = graph.out_adj, graph.in_adj
    out_len = out.ptr[1:] - out.ptr[:-1]
    in_len = inn.ptr[1:] - inn.ptr[:-1]
    total_len = out_len + in_len
    ptr = np.concatenate(([0], np.cumsum(total_len))).astype(INDEX_DTYPE)
    n = int(ptr[-1])
    nbr = np.empty(n, dtype=INDEX_DTYPE)
    wgt = np.empty(n, dtype=WEIGHT_DTYPE)
    if len(out.nbr):
        starts = np.concatenate(([0], np.cumsum(out_len)))[:-1]
        inner = np.arange(len(out.nbr), dtype=INDEX_DTYPE) - np.repeat(
            starts, out_len
        )
        pos = np.repeat(ptr[:-1], out_len) + inner
        nbr[pos] = out.nbr
        wgt[pos] = out.wgt
    if len(inn.nbr):
        starts = np.concatenate(([0], np.cumsum(in_len)))[:-1]
        inner = np.arange(len(inn.nbr), dtype=INDEX_DTYPE) - np.repeat(
            starts, in_len
        )
        pos = np.repeat(ptr[:-1] + out_len, in_len) + inner
        nbr[pos] = inn.nbr
        wgt[pos] = inn.wgt
    return ptr, nbr, wgt


@dataclass(frozen=True)
class ProposalBatch:
    """Result of one proposal kernel launch."""

    proposers: np.ndarray  # block or vertex ids, one per slot
    proposals: np.ndarray  # proposed block id per slot
    tables: LookupTables


def propose_block_merges(
    device: Device,
    bm: BlockmodelCSR,
    rng: np.random.Generator,
    num_proposals: int,
) -> ProposalBatch:
    """Algorithm 1 over every block × ``num_proposals`` slots.

    Merge proposals must differ from the proposer; slots that would
    propose self are nudged to the next block (mod B), preserving
    uniformity over the remaining blocks for the random branch.
    """
    b = bm.num_blocks
    num_slots = b * num_proposals
    ptr, nbr, wgt = combined_block_adjacency(bm)
    deg = bm.deg_total()

    proposers = np.tile(np.arange(b, dtype=INDEX_DTYPE), num_proposals)
    # One multinomial draw per block *per proposal round* — the tables are
    # rebuilt for each of the num_proposals iterations (paper §3.2), so
    # a block's proposals differ across rounds; slot k·B + u still finds
    # round k's pre-drawn neighbour of block u for Algorithm 1 line 10.
    tables = build_lookup_tables(
        device, rng, num_slots, b, ptr, nbr, wgt, rows=proposers
    )

    def kernel() -> np.ndarray:
        multi = tables.multinomial  # slot k·B + v: round-k draw for block v
        rounds = np.arange(num_slots, dtype=INDEX_DTYPE) // b * b
        u = multi  # slot k·B + v is proposer v's round-k pivot draw
        x = tables.uniform
        rand_blk = tables.random_block
        # deg[u] guarded: u == -1 marks "no neighbours"
        deg_u = np.where(u >= 0, deg[np.maximum(u, 0)], 0)
        take_random = (deg[proposers] <= 0) | (u < 0)
        take_random |= x <= (b / (deg_u + b))
        # Algorithm 1 line 10: reuse u's pre-drawn neighbour of this round.
        u_slots = rounds + np.maximum(u, 0)
        via_multi = np.where(u >= 0, multi[u_slots], -1)
        take_random |= via_multi < 0
        out = np.where(take_random, rand_blk, via_multi)
        # merges must not propose self
        out = np.where(out == proposers, (out + 1) % max(b, 1), out)
        return out.astype(INDEX_DTYPE)

    proposals = device.execute(
        "propose_block_merge",
        KernelCost(work_items=num_slots, ops_per_item=8.0),
        kernel,
    )
    return ProposalBatch(proposers=proposers, proposals=proposals, tables=tables)


def propose_vertex_moves(
    device: Device,
    graph: DiGraphCSR,
    bm: BlockmodelCSR,
    bmap: np.ndarray,
    vertices: np.ndarray,
    rng: np.random.Generator,
    vertex_adjacency: Optional[Tuple[np.ndarray, np.ndarray, np.ndarray]] = None,
) -> ProposalBatch:
    """Algorithm 1 for a batch of vertices (the vertex-move variant).

    Each vertex samples a neighbouring *vertex* by edge weight, maps it to
    its block ``u`` through ``Bmap``, then proceeds exactly as the merge
    variant (random block with probability ``B/(deg[u]+B)``, otherwise a
    pre-drawn neighbour of ``u`` in the blockmodel).
    """
    b = bm.num_blocks
    vertices = np.asarray(vertices, dtype=INDEX_DTYPE)
    num_slots = len(vertices)
    if vertex_adjacency is None:
        vertex_adjacency = combined_vertex_adjacency(graph)
    v_ptr, v_nbr, v_wgt = vertex_adjacency
    b_ptr, b_nbr, b_wgt = combined_block_adjacency(bm)
    deg = bm.deg_total()

    # Table 1: per-mover multinomial over the vertex adjacency.
    from ..gpusim.curand import (
        multinomial_neighbor_table,
        random_block_table,
        uniform_table,
    )
    from ..gpusim.stream import Stream, overlap_time_s

    s_uniform, s_random, s_multi, s_bmulti = (
        Stream(device),
        Stream(device),
        Stream(device),
        Stream(device),
    )
    uniform = uniform_table(device, rng, num_slots, stream=s_uniform)
    rand_blk = random_block_table(device, rng, num_slots, b, stream=s_random)
    nbr_vertex = multinomial_neighbor_table(
        device, rng, v_ptr, v_nbr, v_wgt, rows=vertices, stream=s_multi
    )
    block_multi = multinomial_neighbor_table(
        device, rng, b_ptr, b_nbr, b_wgt, rows=None, stream=s_bmulti
    )
    tables = LookupTables(
        uniform=uniform,
        random_block=rand_blk,
        multinomial=block_multi,
        build_time_s=overlap_time_s(s_uniform, s_random, s_multi, s_bmulti),
    )

    def kernel() -> np.ndarray:
        u = np.where(nbr_vertex >= 0, bmap[np.maximum(nbr_vertex, 0)], -1)
        deg_u = np.where(u >= 0, deg[np.maximum(u, 0)], 0)
        take_random = u < 0
        take_random |= uniform <= (b / (deg_u + b))
        via_multi = np.where(u >= 0, block_multi[np.maximum(u, 0)], -1)
        take_random |= via_multi < 0
        return np.where(take_random, rand_blk, via_multi).astype(INDEX_DTYPE)

    proposals = device.execute(
        "propose_vertex_move",
        KernelCost(work_items=max(num_slots, 1), ops_per_item=8.0),
        kernel,
    )
    return ProposalBatch(proposers=vertices, proposals=proposals, tables=tables)
