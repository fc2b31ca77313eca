"""Output checks: every partition the program returns is verified here.

A check returns a list of problems; an empty list means the output
passed.  The MDL is recomputed independently of the partitioner, with the
per-edge CPU reference rebuild and the paper's description length.
"""

from __future__ import annotations

import hashlib
import math
from typing import List

import numpy as np

from repro import nmi
from repro.blockmodel.entropy import description_length
from repro.blockmodel.update import rebuild_blockmodel_cpu
from repro.graph.csr import DiGraphCSR

#: relative tolerance between a reported and a recomputed MDL
MDL_RTOL = 1e-9


def partition_sha(labels) -> str:
    """sha256 of the labels as little-endian int64."""
    return hashlib.sha256(np.asarray(labels, dtype="<i8").tobytes()).hexdigest()


def label_problems(labels, num_vertices: int) -> List[str]:
    """Length V and dense labels ``0..B-1``."""
    labels = np.asarray(labels)
    if labels.shape != (num_vertices,):
        return [f"partition has shape {labels.shape}, expected ({num_vertices},)"]
    if not np.issubdtype(labels.dtype, np.integer):
        return [f"partition dtype {labels.dtype} is not integer"]
    used = np.unique(labels)
    if used[0] != 0 or used[-1] != len(used) - 1:
        return [f"labels are not dense 0..B-1 (min {used[0]}, max {used[-1]}, "
                f"{len(used)} distinct)"]
    return []


def recompute_mdl(graph: DiGraphCSR, labels) -> float:
    blockmodel = rebuild_blockmodel_cpu(graph, np.asarray(labels))
    return description_length(blockmodel, graph.num_vertices,
                              graph.total_edge_weight)


def mdl_problems(graph: DiGraphCSR, labels, reported: float) -> List[str]:
    recomputed = recompute_mdl(graph, labels)
    if not math.isclose(reported, recomputed, rel_tol=MDL_RTOL):
        return [f"reported mdl {reported!r} != recomputed {recomputed!r}"]
    return []


def verify_partition(graph: DiGraphCSR, truth, labels, reported_mdl: float,
                     nmi_floor: float = 0.0) -> dict:
    """Check one returned partition; returns problems and quality figures."""
    problems = label_problems(labels, graph.num_vertices)
    record = {"problems": problems, "sha256": None, "nmi": None,
              "mdl": reported_mdl, "mdl_ratio": None}
    if problems:
        return record
    problems += mdl_problems(graph, labels, reported_mdl)
    score = nmi(np.asarray(labels), np.asarray(truth))
    if score < nmi_floor:
        problems.append(f"nmi {score:.4f} below floor {nmi_floor}")
    record.update(
        sha256=partition_sha(labels),
        nmi=score,
        mdl_ratio=reported_mdl / recompute_mdl(graph, truth),
    )
    return record
