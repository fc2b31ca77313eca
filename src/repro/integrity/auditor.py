"""Blockmodel invariant auditor: detect silent state corruption.

Every ΔMDL the partitioner evaluates (Eqs. 4-7) trusts the CSR
blockmodel to agree with the true inter-block edge counts implied by the
current assignment.  A flipped bit in any of its arrays silently poisons
every subsequent decision without raising anything — the run just
converges to a wrong partition.  This module checks, from first
principles, the invariants the paper's algorithms rely on:

* CSR structure — valid pointers, sorted columns, positive weights, and
  row/col sums equal to the block out/in degree arrays;
* conservation — the blockmodel's total weight equals the graph's total
  edge weight (merges and moves never create or destroy edges);
* assignment agreement — the blockmodel equals one rebuilt from scratch
  (Algorithm 2, recomputed host-side) from the current assignment;
* MDL — the description length is finite and, when an incrementally
  tracked value is supplied, matches the recomputed one within tolerance.

All checks are pure NumPy on the host: no device kernels (so fault
injector counters are untouched) and **no RNG draws** (so audited runs
stay bit-identical to unaudited ones).
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import List, Optional

import numpy as np

from ..blockmodel.blockmodel import BlockmodelCSR
from ..blockmodel.entropy import description_length
from ..errors import GraphValidationError, NumericalError
from ..gpusim.primitives import lex_order
from ..types import INDEX_DTYPE, WEIGHT_DTYPE

#: Tags naming every corruptible structure an integrity site exposes.
STRUCTURE_TAGS = (
    "bmap",
    "csr_out_ptr",
    "csr_out_nbr",
    "csr_out_wgt",
    "csr_in_ptr",
    "csr_in_nbr",
    "csr_in_wgt",
    "deg_out",
    "deg_in",
)


@dataclass(frozen=True)
class InvariantViolation:
    """One violated invariant, as found by :func:`audit_blockmodel`."""

    invariant: str
    detail: str

    def __str__(self) -> str:  # pragma: no cover - cosmetic
        return f"{self.invariant}: {self.detail}"


def structure_arrays(bmap: np.ndarray, blockmodel: BlockmodelCSR) -> dict:
    """Map every :data:`STRUCTURE_TAGS` tag to its live array."""
    return {
        "bmap": bmap,
        "csr_out_ptr": blockmodel.out_ptr,
        "csr_out_nbr": blockmodel.out_nbr,
        "csr_out_wgt": blockmodel.out_wgt,
        "csr_in_ptr": blockmodel.in_ptr,
        "csr_in_nbr": blockmodel.in_nbr,
        "csr_in_wgt": blockmodel.in_wgt,
        "deg_out": blockmodel.deg_out,
        "deg_in": blockmodel.deg_in,
    }


def reference_blockmodel(graph, bmap: np.ndarray, num_blocks: int) -> BlockmodelCSR:
    """Rebuild the blockmodel from scratch on the host (audit reference).

    Sparse sort-reduce over the edge list — the same canonical CSR that
    Algorithm 2 produces, but without touching any device, so an audit
    never perturbs the injector's kernel counters or the sim clock.
    """
    src, dst, wgt = graph.edge_arrays()
    rows = bmap[src].astype(INDEX_DTYPE, copy=False)
    cols = bmap[dst].astype(INDEX_DTYPE, copy=False)
    b = max(int(num_blocks), 1)
    keys = rows.astype(np.int64) * b + cols
    order = np.argsort(keys, kind="stable")
    keys = keys[order]
    sorted_wgt = np.asarray(wgt, dtype=WEIGHT_DTYPE)[order]
    if len(keys):
        boundary = np.concatenate(([True], keys[1:] != keys[:-1]))
        starts = np.flatnonzero(boundary)
        unique_keys = keys[starts]
        csum = np.concatenate(([0], np.cumsum(sorted_wgt)))
        ends = np.concatenate((starts[1:], [len(keys)]))
        merged = (csum[ends] - csum[starts]).astype(WEIGHT_DTYPE)
    else:
        unique_keys = np.empty(0, dtype=np.int64)
        merged = np.empty(0, dtype=WEIGHT_DTYPE)
    out_rows = (unique_keys // b).astype(INDEX_DTYPE)
    out_cols = (unique_keys % b).astype(INDEX_DTYPE)
    out_ptr = np.concatenate(
        ([0], np.cumsum(np.bincount(out_rows, minlength=num_blocks)))
    ).astype(INDEX_DTYPE)
    in_order = lex_order(out_cols, out_rows)
    in_rows = out_cols[in_order]
    in_ptr = np.concatenate(
        ([0], np.cumsum(np.bincount(in_rows, minlength=num_blocks)))
    ).astype(INDEX_DTYPE)
    deg_out = np.bincount(
        rows, weights=np.asarray(wgt, dtype=np.float64), minlength=num_blocks
    ).astype(WEIGHT_DTYPE)
    deg_in = np.bincount(
        cols, weights=np.asarray(wgt, dtype=np.float64), minlength=num_blocks
    ).astype(WEIGHT_DTYPE)
    return BlockmodelCSR(
        num_blocks=int(num_blocks),
        out_ptr=out_ptr,
        out_nbr=out_cols,
        out_wgt=merged,
        in_ptr=in_ptr,
        in_nbr=out_rows[in_order].astype(INDEX_DTYPE),
        in_wgt=merged[in_order],
        deg_out=deg_out,
        deg_in=deg_in,
    )


def audit_blockmodel(
    graph,
    bmap: np.ndarray,
    blockmodel: BlockmodelCSR,
    *,
    mdl_tol: float = 1e-6,
    tracked_mdl: Optional[float] = None,
) -> List[InvariantViolation]:
    """Run the full invariant catalog; return every violation found.

    An empty list means the state passed.  Checks are ordered cheapest
    first, but all of them run — a repair decision wants the complete
    picture, not the first failure.
    """
    violations: List[InvariantViolation] = []

    # -- assignment validity -------------------------------------------
    if len(bmap) != graph.num_vertices:
        violations.append(
            InvariantViolation(
                "assignment_shape",
                f"bmap has {len(bmap)} entries for {graph.num_vertices} vertices",
            )
        )
    elif len(bmap) and (
        bmap.min() < 0 or bmap.max() >= blockmodel.num_blocks
    ):
        violations.append(
            InvariantViolation(
                "assignment_range",
                f"block ids span [{bmap.min()}, {bmap.max()}] outside "
                f"[0, {blockmodel.num_blocks})",
            )
        )

    # -- CSR structure + degree consistency ----------------------------
    try:
        blockmodel.validate()
    except GraphValidationError as exc:
        violations.append(InvariantViolation("csr_structure", str(exc)))

    # -- edge conservation ---------------------------------------------
    try:
        total = blockmodel.total_weight
    except (ValueError, OverflowError) as exc:  # pathological wgt bytes
        violations.append(InvariantViolation("edge_conservation", str(exc)))
        total = None
    if total is not None and total != graph.total_edge_weight:
        violations.append(
            InvariantViolation(
                "edge_conservation",
                f"blockmodel holds weight {total}, graph has "
                f"{graph.total_edge_weight}",
            )
        )

    # -- assignment <-> blockmodel agreement ---------------------------
    # Only meaningful when the assignment itself is well-formed.
    agreement_ok = False
    if not any(v.invariant.startswith("assignment") for v in violations):
        reference = reference_blockmodel(graph, bmap, blockmodel.num_blocks)
        for name in (
            "out_ptr", "out_nbr", "out_wgt",
            "in_ptr", "in_nbr", "in_wgt",
            "deg_out", "deg_in",
        ):
            if not np.array_equal(getattr(blockmodel, name), getattr(reference, name)):
                violations.append(
                    InvariantViolation(
                        "assignment_agreement",
                        f"{name} differs from a from-scratch rebuild",
                    )
                )
        agreement_ok = not any(
            v.invariant == "assignment_agreement" for v in violations
        )

    # -- MDL: finite, and consistent with the tracked value ------------
    try:
        mdl = description_length(
            blockmodel, graph.num_vertices, graph.total_edge_weight
        )
    except (NumericalError, ValueError, FloatingPointError, IndexError) as exc:
        # IndexError: a corrupted out_nbr/out_ptr can index past the
        # degree arrays before any semantic check has a chance to fire.
        violations.append(InvariantViolation("mdl_finite", str(exc)))
        mdl = None
    if mdl is not None and not np.isfinite(mdl):
        violations.append(
            InvariantViolation("mdl_finite", f"description length is {mdl!r}")
        )
        mdl = None
    if (
        mdl is not None
        and tracked_mdl is not None
        and agreement_ok
        and not any(v.invariant == "csr_structure" for v in violations)
    ):
        scale = max(1.0, abs(float(tracked_mdl)))
        if abs(mdl - float(tracked_mdl)) > mdl_tol * scale:
            violations.append(
                InvariantViolation(
                    "mdl_drift",
                    f"tracked MDL {tracked_mdl!r} vs recomputed {mdl!r} "
                    f"(tol {mdl_tol:g} relative)",
                )
            )
    return violations
