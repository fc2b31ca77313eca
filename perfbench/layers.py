"""Per-layer timing by wrapping the program's public functions from outside.

A :class:`Probe` replaces each entry of :data:`WRAP_POINTS` -- a function
or method at the name its caller looks it up by -- with a wrapper that
adds the call's wall time (and, for some, counts taken from its
arguments or result) to thread-safe totals.  Nothing inside the program
is read: no profiler, no phase timings, no tracer spans.

Times are inclusive: a rebuild run inside an incremental batch counts
towards both ``blockmodel.rebuild_s`` and ``blockmodel.incremental_s``.
"""

from __future__ import annotations

import importlib
import threading
import time
from collections import defaultdict
from typing import Callable, Dict, List, Optional, Tuple

#: (owner, attribute, time metric, call-count metric).  *owner* is a
#: module path, or ``module:Class`` for a method looked up on instances.
WRAP_POINTS: Tuple[Tuple[str, str, str, Optional[str]], ...] = (
    ("repro.gpusim.primitives", "segmented_sort", "gpusim.segmented_sort_s", None),
    ("repro.core.vertex_move", "move_delta_batch", "blockmodel.move_delta_s", None),
    ("repro.core.block_merge", "merge_delta_batch", "blockmodel.merge_delta_s", None),
    ("repro.blockmodel.delta", "entropy_terms", "blockmodel.entropy_s", None),
    ("repro.blockmodel.incremental", "entropy_terms", "blockmodel.entropy_s", None),
    ("repro.core.partitioner", "description_length", "blockmodel.entropy_s", None),
    ("repro.core.vertex_move", "description_length", "blockmodel.entropy_s", None),
    ("repro.blockmodel.blockmodel:BlockmodelCSR", "lookup", "blockmodel.lookup_s", None),
    ("repro.core.partitioner", "rebuild_blockmodel", "blockmodel.rebuild_s",
     "blockmodel.rebuilds"),
    ("repro.blockmodel.incremental:IncrementalBlockmodel", "apply_batch",
     "blockmodel.incremental_s", "blockmodel.incremental_batches"),
    ("repro.blockmodel.incremental:IncrementalBlockmodel", "apply_merge_relabel",
     "blockmodel.incremental_s", "blockmodel.incremental_batches"),
    ("repro.core.partitioner:GSAPPartitioner", "partition", "core.partition_s", None),
    ("repro.core.partitioner", "run_block_merge_phase", "core.block_merge_s", None),
    ("repro.core.partitioner", "run_vertex_move_phase", "core.vertex_move_s",
     "core.plateaus"),
    ("repro.core.golden_section:GoldenSectionSearch", "update",
     "core.golden_section_s", None),
    ("repro.core.golden_section:GoldenSectionSearch", "next_target",
     "core.golden_section_s", None),
    ("repro.core.vertex_move", "propose_vertex_moves", "core.proposals_s", None),
    ("repro.core.block_merge", "propose_block_merges", "core.proposals_s", None),
    ("repro.core.vertex_move", "hastings_correction_batch", "core.mh_s", None),
    ("repro.core.vertex_move", "accept_moves", "core.mh_s", None),
    ("repro.graph.io", "build_graph", "graph.build_s", None),
    ("repro.serve.net", "build_graph", "graph.build_s", None),
    ("repro.dist.comm:Communicator", "exchange", "dist.exchange_s", None),
)


def _resolve(owner: str):
    module_name, _, class_name = owner.partition(":")
    obj = importlib.import_module(module_name)
    return getattr(obj, class_name) if class_name else obj


class Probe:
    """Totals of wrapped calls; install with ``with Probe() as probe:``."""

    def __init__(self) -> None:
        self.totals: Dict[str, float] = defaultdict(float)
        self._lock = threading.Lock()
        self._undo: List[Tuple[object, str, object]] = []

    def add(self, amounts: Dict[str, float]) -> None:
        with self._lock:
            for name, amount in amounts.items():
                self.totals[name] += amount

    def install(self) -> "Probe":
        if self._undo:
            raise RuntimeError("probe already installed")
        for owner, attr, time_metric, count_metric in WRAP_POINTS:
            target = _resolve(owner)
            counts = _RESULT_COUNTS.get((owner, attr))
            self._replace(target, attr, self._timed(
                getattr(target, attr), time_metric, count_metric, counts))
        device_cls = _resolve("repro.gpusim.device:Device")
        self._replace(device_cls, "execute", self._timed_execute(device_cls.execute))
        return self

    def uninstall(self) -> None:
        while self._undo:
            target, attr, original = self._undo.pop()
            setattr(target, attr, original)

    def __enter__(self) -> "Probe":
        return self.install()

    def __exit__(self, *exc) -> None:
        self.uninstall()

    def _replace(self, target, attr: str, wrapper: Callable) -> None:
        self._undo.append((target, attr, target.__dict__[attr]))
        setattr(target, attr, wrapper)

    def _timed(self, original: Callable, time_metric: str,
               count_metric: Optional[str], counts) -> Callable:
        def wrapper(*args, **kwargs):
            start = time.perf_counter()
            result = original(*args, **kwargs)
            amounts = {time_metric: time.perf_counter() - start}
            if count_metric is not None:
                amounts[count_metric] = 1
            if counts is not None:
                amounts.update(counts(args, result))
            self.add(amounts)
            return result

        wrapper.__wrapped__ = original
        return wrapper

    def _timed_execute(self, original: Callable) -> Callable:
        """``Device.execute``: time the kernel body, count its declared cost."""
        def execute(device, name, cost, body, phase=None):
            spent = [0.0]

            def timed_body():
                start = time.perf_counter()
                try:
                    return body()
                finally:
                    spent[0] = time.perf_counter() - start

            sim_before = device.sim_time_s
            result = original(device, name, cost, timed_body, phase)
            self.add({
                "gpusim.kernel_s": spent[0],
                "gpusim.launches": 1,
                "gpusim.work_items": cost.work_items,
                "gpusim.bytes_moved": cost.resolved_bytes(),
                "gpusim.sim_time_s": device.sim_time_s - sim_before,
            })
            return result

        execute.__wrapped__ = original
        return execute


def _exchange_counts(args, outcome) -> Dict[str, float]:
    """Messages and bytes of one all-to-all, from the payloads handed in.

    Every member with a non-empty payload sends it to each other member.
    """
    comm, payloads = args
    peers = len(comm.live) + len(outcome.failed_ranks) - 1
    sizes = [len(payload) for payload in payloads.values()]
    return {
        "dist.rounds": 1,
        "dist.messages": peers * sum(1 for size in sizes if size),
        "dist.bytes_sent": peers * sum(sizes),
    }


#: extra counts taken from a wrapped call's arguments and result
_RESULT_COUNTS = {
    ("repro.core.partitioner", "run_vertex_move_phase"):
        lambda args, outcome: {"core.sweeps": outcome.num_sweeps},
    ("repro.core.vertex_move", "accept_moves"):
        lambda args, accepted: {"core.move_proposals": len(accepted),
                                "core.moves_accepted": int(accepted.sum())},
    ("repro.dist.comm:Communicator", "exchange"): _exchange_counts,
}
