"""Seeded input generation: planted graphs and serve request streams.

Everything here is a pure function of the workload seed, so the same
seed gives byte-identical graphs and request bytes.  The program only
ever sees the generated edge lists.
"""

from __future__ import annotations

import hashlib
import json
from dataclasses import dataclass
from typing import List

import numpy as np

from repro import generate_category_graph
from repro.graph.csr import DiGraphCSR

#: the four SBPC categories as (block overlap, block-size variation)
CATEGORIES = (("low", "low"), ("low", "high"), ("high", "low"), ("high", "high"))

#: request sizes, cycled so every run sees the same size mix
REQUEST_SIZES = (150, 200, 250, 300)

#: seed kept out of every tuning run; a later performance claim must
#: also hold on it
HELD_OUT_SEED = 7919

#: SBP settings every serve request carries: Table 2's structure with the
#: trimmed sweep budget of ``repro.bench.workloads.bench_config`` at quick
#: scale, so a 2-core run completes enough requests for a median.
REQUEST_CONFIG = {
    "max_num_nodal_itr": 30,
    "delta_entropy_threshold1": 5e-3,
    "delta_entropy_threshold2": 1e-3,
}


def derived_seed(seed: int, *stream: int) -> int:
    """A 31-bit generator seed derived from the workload seed and a stream."""
    return int(np.random.SeedSequence([seed, *stream]).generate_state(1)[0] >> 1)


@dataclass(frozen=True)
class PlantedGraph:
    """One generated input: the graph, its edge arrays and planted blocks."""

    graph: DiGraphCSR
    src: np.ndarray
    dst: np.ndarray
    weights: np.ndarray
    truth: np.ndarray

    @property
    def num_vertices(self) -> int:
        return self.graph.num_vertices


def planted_graph(num_vertices: int, overlap: str, variation: str,
                  seed: int) -> PlantedGraph:
    graph, truth = generate_category_graph(num_vertices, overlap, variation,
                                           seed=seed)
    src, dst, weights = graph.edge_arrays()
    return PlantedGraph(graph, src, dst, weights, np.asarray(truth))


def workload_graph(num_vertices: int, seed: int, index: int = 0) -> PlantedGraph:
    """Graph *index* of a partition workload's ``low_low`` graph set."""
    return planted_graph(num_vertices, "low", "low", derived_seed(seed, 0, index))


def request_line(planted: PlantedGraph) -> bytes:
    """The ``partition`` request line for *planted*, asking for the labels."""
    payload = {
        "op": "partition",
        "src": planted.src.tolist(),
        "dst": planted.dst.tolist(),
        "weights": planted.weights.tolist(),
        "num_vertices": planted.num_vertices,
        "config": REQUEST_CONFIG,
        "include_partition": True,
    }
    return json.dumps(payload, separators=(",", ":")).encode() + b"\n"


@dataclass(frozen=True)
class Request:
    """One serve request: the exact line sent and the input it encodes."""

    line: bytes
    planted: PlantedGraph


class RequestStream:
    """Request *i* of client *client*, derived from the seed alone.

    Requests cycle through the four categories and the sizes of
    :data:`REQUEST_SIZES`.  They are built on first use and kept, so a
    long run extends the stream rather than repeating it (a repeat would
    hit the result cache).
    """

    def __init__(self, seed: int, client: int) -> None:
        self.seed = seed
        self.client = client
        self._built: List[Request] = []

    def _build(self, index: int) -> Request:
        overlap, variation = CATEGORIES[(index + self.client) % 4]
        size = REQUEST_SIZES[(index // 4 + self.client) % 4]
        planted = planted_graph(size, overlap, variation,
                                derived_seed(self.seed, 1, self.client, index))
        return Request(request_line(planted), planted)

    def prepare(self, count: int) -> None:
        while len(self._built) < count:
            self._built.append(self._build(len(self._built)))

    def __getitem__(self, index: int) -> Request:
        self.prepare(index + 1)
        return self._built[index]


def stream_digest(stream: RequestStream, count: int) -> str:
    """sha256 over the first *count* request lines."""
    digest = hashlib.sha256()
    for index in range(count):
        digest.update(stream[index].line)
    return digest.hexdigest()
