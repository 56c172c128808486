"""Workload inputs, generated from the seed before anything is timed.

Every workload runs on one graph, ``rmat_graph(2**15, 8 * 2**15, seed)``
with ``uniform_weights(low=1, high=5, seed)``.  The batch workloads walk
once from every node; the serving workload draws its session start nodes
and its edge-delta stream here, so the program under test only ever sees
the generated arrays.
"""

from __future__ import annotations

import hashlib
from dataclasses import dataclass

import numpy as np

from repro import CSRGraph, WalkQuery
from repro.graph.generators import rmat_graph
from repro.graph.weights import uniform_weights
from repro.walks.state import make_queries

SCALE = 15
EDGE_FACTOR = 8
WALK_LENGTH = 20

#: Serving loop shape: closed-loop clients, queries per session, and the
#: update client's delta cadence and size.
CLIENTS = 32
QUERIES_PER_SESSION = 16
DELTA_EVERY_TICKS = 10
DELTA_ADDITIONS = 16
DELTA_REMOVALS = 4

#: Upper bounds on what one run can consume (a run that exhausts them stops
#: its loop early and says so in its report).
MAX_SESSIONS = 40_000
MAX_DELTAS = 4_000


@dataclass(frozen=True)
class Delta:
    """One pre-generated edge update: new weighted edges plus live removals."""

    additions: np.ndarray  # (DELTA_ADDITIONS, 2) int64
    weights: np.ndarray  # (DELTA_ADDITIONS,) float64
    removals: np.ndarray  # (DELTA_REMOVALS, 2) int64


@dataclass(frozen=True)
class Inputs:
    seed: int
    graph: CSRGraph
    queries: list[WalkQuery]  # batch: one walk per node
    session_starts: np.ndarray  # serving: (MAX_SESSIONS, QUERIES_PER_SESSION)
    deltas: list[Delta]

    def session_queries(self, index: int) -> list[WalkQuery]:
        """The queries the ``index``-th serving session submits."""
        return [
            WalkQuery(query_id=i, start_node=int(node), max_length=WALK_LENGTH)
            for i, node in enumerate(self.session_starts[index])
        ]

    def provenance(self) -> dict[str, object]:
        """Input facts recorded with every result, so a generator change shows."""
        graph = self.graph
        degrees = graph.degrees()
        return {
            "seed": self.seed,
            "graph": f"rmat_graph(2**{SCALE}, {EDGE_FACTOR} * 2**{SCALE})",
            "nodes": graph.num_nodes,
            "edges": graph.num_edges,
            "max_out_degree": int(degrees.max()),
            "zero_out_degree_share": float((degrees == 0).mean()),
            "memory_footprint_bytes": graph.memory_footprint_bytes(),
            "weights_sha": _digest(graph.weights),
            "batch_queries": len(self.queries),
            "session_start_pool": int(self.session_starts.shape[0]),
            "delta_pool": len(self.deltas),
        }


def _digest(array: np.ndarray) -> str:
    return hashlib.sha256(np.ascontiguousarray(array).tobytes()).hexdigest()[:16]


def make_inputs(seed: int) -> Inputs:
    """Build every input of every workload from ``seed`` (deterministic)."""
    n = 2**SCALE
    graph = rmat_graph(n, EDGE_FACTOR * n, seed=seed)
    graph = graph.with_weights(uniform_weights(graph, low=1.0, high=5.0, seed=seed))
    rng = np.random.default_rng([seed, 1])
    starts = rng.integers(0, n, size=(MAX_SESSIONS, QUERIES_PER_SESSION), dtype=np.int64)
    return Inputs(
        seed=seed,
        graph=graph,
        queries=make_queries(n, walk_length=WALK_LENGTH),
        session_starts=starts,
        deltas=_delta_stream(graph, np.random.default_rng([seed, 2])),
    )


def _delta_stream(graph: CSRGraph, rng: np.random.Generator) -> list[Delta]:
    """A delta sequence that stays valid when applied in order.

    Additions are fresh pairs that are neither base edges nor earlier
    additions; removals walk a permutation of the base edges.  So no
    addition duplicates a live edge and every removal names a live one,
    whatever prefix of the stream has been applied.
    """
    n = graph.num_nodes
    src = np.repeat(np.arange(n, dtype=np.int64), graph.degrees())
    dst = graph.indices.astype(np.int64)
    base_keys = src * n + dst

    want = MAX_DELTAS * DELTA_ADDITIONS
    pairs = rng.integers(0, n, size=(2 * want, 2), dtype=np.int64)
    keys = pairs[:, 0] * n + pairs[:, 1]
    keep = (pairs[:, 0] != pairs[:, 1]) & ~np.isin(keys, base_keys)
    _, first = np.unique(keys, return_index=True)
    unique = np.zeros(keys.size, dtype=bool)
    unique[first] = True
    additions = pairs[keep & unique][:want]
    if additions.shape[0] < want:  # pragma: no cover - 2x oversampling suffices
        raise RuntimeError("could not draw enough fresh edges for the delta stream")
    weights = rng.uniform(1.0, 5.0, size=want)
    removed = rng.permutation(base_keys.size)[: MAX_DELTAS * DELTA_REMOVALS]
    removals = np.stack([src[removed], dst[removed]], axis=1)
    return [
        Delta(
            additions=additions[i * DELTA_ADDITIONS:(i + 1) * DELTA_ADDITIONS],
            weights=weights[i * DELTA_ADDITIONS:(i + 1) * DELTA_ADDITIONS],
            removals=removals[i * DELTA_REMOVALS:(i + 1) * DELTA_REMOVALS],
        )
        for i in range(MAX_DELTAS)
    ]
