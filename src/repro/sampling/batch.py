"""Batched sampling infrastructure: segment primitives and the batch context.

The batched walk engine executes one *superstep* for a whole frontier of
walkers at a time.  Per-walker neighbour lists have different lengths, so the
frontier's candidate edges are flattened into one contiguous array segmented
by walker; the helpers here provide the per-segment reductions (sum, max,
first-argmax, running max, binary search) the vectorised kernels are built
from.

Parity with the scalar engine is a hard requirement (the selection studies
compare counter totals and simulated timings between modes), so every helper
is written to reproduce the numpy expression the scalar kernel uses — e.g.
:func:`segment_bisect` replays ``np.searchsorted``'s bisection decisions
exactly, and sums that feed *values* (not just sign checks) are left to the
per-walker cores of the kernels that need them.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import TYPE_CHECKING

import numpy as np

from repro.graph.csr import CSRGraph
from repro.gpusim.counters import CostCounters, CounterBatch
from repro.gpusim.warp import WARP_SIZE
from repro.rng.streams import BatchStreams, CountingStream
from repro.walks.spec import WalkSpec
from repro.walks.state import WalkerFrontier

if TYPE_CHECKING:  # pragma: no cover - import cycle guard (base imports batch)
    from repro.sampling.base import StepContext
    from repro.sampling.transition_cache import TransitionCache
    from repro.walks.state import WalkerState


class BufferArena:
    """Reusable per-run scratch buffers, recycled across supersteps.

    The frontier loop materialises the same flattened segment arrays every
    superstep (offsets, walker slot ids, the flat edge enumeration).  The
    arena hands out geometrically grown buffers keyed by role, so once the
    frontier's high-water mark is reached no superstep allocates them again.
    A buffer stays valid until the same key is requested next superstep; the
    engine requests each key at most once per superstep and subset contexts
    allocate their own (smaller) arrays instead of sharing the arena.
    """

    __slots__ = ("_buffers", "_arange")

    def __init__(self) -> None:
        self._buffers: dict[str, np.ndarray] = {}
        self._arange = np.zeros(0, dtype=np.int64)

    def int64(self, key: str, size: int) -> np.ndarray:
        """A writable ``int64`` scratch view of the given size for ``key``."""
        buf = self._buffers.get(key)
        if buf is None or buf.size < size:
            buf = np.empty(max(int(size), 2 * (0 if buf is None else buf.size)), dtype=np.int64)
            self._buffers[key] = buf
        return buf[:size]

    def arange(self, size: int) -> np.ndarray:
        """A read-only view of ``[0, size)`` (shared across all callers)."""
        if self._arange.size < size:
            self._arange = np.arange(max(int(size), 2 * self._arange.size), dtype=np.int64)
            self._arange.flags.writeable = False
        return self._arange[:size]


# ---------------------------------------------------------------------- #
# Segment primitives
# ---------------------------------------------------------------------- #
def segment_offsets(lengths: np.ndarray) -> np.ndarray:
    """``[0, cumsum(lengths)]`` — start/stop positions of each segment."""
    out = np.zeros(lengths.size + 1, dtype=np.int64)
    np.cumsum(lengths, out=out[1:])
    return out


def segment_ids(lengths: np.ndarray) -> np.ndarray:
    """Segment index of every flattened element."""
    return np.repeat(np.arange(lengths.size, dtype=np.int64), lengths)


def local_positions(lengths: np.ndarray) -> np.ndarray:
    """Position of every flattened element within its own segment."""
    offsets = segment_offsets(lengths)
    seg = segment_ids(lengths)
    return np.arange(int(offsets[-1]), dtype=np.int64) - offsets[:-1][seg]


def segment_any_positive(values: np.ndarray, lengths: np.ndarray) -> np.ndarray:
    """Per segment: does any element exceed zero?

    For the non-negative transition weights every kernel operates on, this is
    exactly the scalar kernels' ``weights.sum() > 0`` dead-end test, without
    depending on floating-point summation order.
    """
    seg = segment_ids(lengths)
    counts = np.bincount(seg[values > 0], minlength=lengths.size)
    return counts > 0


def segment_max(values: np.ndarray, lengths: np.ndarray) -> np.ndarray:
    """Per-segment maximum (exact — max is order-independent).

    Empty segments yield ``-inf``.
    """
    out = np.full(lengths.size, -np.inf, dtype=np.float64)
    nonempty = lengths > 0
    if not nonempty.any():
        return out
    offsets = segment_offsets(lengths)
    out[nonempty] = np.maximum.reduceat(
        values.astype(np.float64, copy=False), offsets[:-1][nonempty]
    )
    return out


def segment_argmax_first(values: np.ndarray, lengths: np.ndarray) -> np.ndarray:
    """Index (local to each segment) of the first occurrence of the maximum.

    Matches ``np.argmax`` tie-breaking (first index wins).  Segments must be
    non-empty.
    """
    offsets = segment_offsets(lengths)
    seg = segment_ids(lengths)
    maxima = np.maximum.reduceat(values.astype(np.float64, copy=False), offsets[:-1])
    positions = np.arange(values.size, dtype=np.int64)
    sentinel = values.size
    candidates = np.where(values == maxima[seg], positions, sentinel)
    firsts = np.minimum.reduceat(candidates, offsets[:-1])
    return firsts - offsets[:-1]


def segment_cummax(values: np.ndarray, lengths: np.ndarray) -> np.ndarray:
    """Per-segment inclusive running maximum (Hillis–Steele doubling).

    Handles ``-inf`` entries exactly (no offset tricks), which matters for
    the exponential-race keys where zero-weight neighbours map to ``-inf``.
    """
    out = values.astype(np.float64, copy=True)
    if out.size == 0 or lengths.size == 0:
        return out
    seg = segment_ids(lengths)
    max_len = int(lengths.max())
    shift = 1
    while shift < max_len:
        same = seg[shift:] == seg[:-shift]
        candidate = np.where(same, out[:-shift], -np.inf)
        out[shift:] = np.maximum(out[shift:], candidate)
        shift <<= 1
    return out


def segment_first_true(mask: np.ndarray, lengths: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """Per segment: (any element true, local index of the first true element).

    Segments without a true element report index 0 with ``any`` False.
    """
    offsets = segment_offsets(lengths)
    seg = segment_ids(lengths)
    positions = np.arange(mask.size, dtype=np.int64)
    sentinel = mask.size
    nonempty = lengths > 0
    firsts_abs = np.full(lengths.size, sentinel, dtype=np.int64)
    if nonempty.any():
        candidates = np.where(mask, positions, sentinel)
        firsts_abs[nonempty] = np.minimum.reduceat(candidates, offsets[:-1][nonempty])
    any_true = firsts_abs < sentinel
    local = np.where(any_true, firsts_abs - offsets[:-1], 0)
    return any_true, local


def segment_bisect(
    sorted_flat: np.ndarray,
    lo: np.ndarray,
    hi: np.ndarray,
    queries: np.ndarray,
    side: str = "left",
) -> np.ndarray:
    """Vectorised binary search of each query within its own sorted slice.

    Searches ``sorted_flat[lo[i]:hi[i]]`` for ``queries[i]`` and returns the
    *absolute* insertion position, replaying exactly the bisection
    ``np.searchsorted`` performs (so results agree even on degenerate input).
    """
    lo = np.asarray(lo, dtype=np.int64).copy()
    hi = np.asarray(hi, dtype=np.int64).copy()
    if side not in ("left", "right"):
        raise ValueError(f"unknown side {side!r}")
    while True:
        open_mask = lo < hi
        if not open_mask.any():
            return lo
        mid = (lo + hi) >> 1
        probe = np.where(open_mask, mid, 0)
        vals = sorted_flat[probe]
        if side == "left":
            go_right = vals < queries
        else:
            go_right = vals <= queries
        go_right &= open_mask
        lo = np.where(go_right, mid + 1, lo)
        hi = np.where(open_mask & ~go_right, mid, hi)


# ---------------------------------------------------------------------- #
# The batch step context
# ---------------------------------------------------------------------- #
@dataclass
class BatchStepContext:
    """Everything a batch sampling kernel needs for one superstep partition.

    The batched analogue of :class:`~repro.sampling.base.StepContext`: it
    describes *many* walkers about to take one step each.  Candidate edges of
    all walkers are exposed in flattened (segmented) form; cost accounting
    goes into per-walker slots of a shared :class:`CounterBatch`; random
    draws come from per-walker counter-based streams via
    :class:`~repro.rng.streams.BatchStreams`.

    Attributes
    ----------
    graph / spec:
        The graph and the workload logic (shared by every walker).
    frontier:
        Array-form walker state of the whole run.
    walkers:
        Frontier indices of the walkers in this context.
    rng:
        Batched per-walker random streams, parallel to ``walkers``.
    counters / slots:
        The superstep's :class:`CounterBatch` and the slot of each walker in
        it.  Kernels charge through :meth:`charge` so partitions of one
        superstep share a single per-walker accounting row — required for the
        one-float-add-per-step timing parity with the scalar engine.
    bound_hints / sum_hints:
        Compiler-estimated per-walker max/sum hints (``NaN`` = unavailable),
        the batched form of ``StepContext.bound_hint`` / ``sum_hint``.
    warp_width:
        Cooperative width for warp kernels.
    transition_cache:
        Cross-superstep per-node weight/CDF/alias cache, present only when
        the compiler classified the workload as node-only
        (``weights_node_only``); :meth:`transition_weights` and the ITS/ALS
        kernels consult it instead of recomputing.  Host-side only — the
        simulated cost accounting is identical with or without it.
    arena:
        Optional per-run scratch-buffer arena; when present, the flattened
        segment arrays are built into recycled buffers instead of fresh
        allocations every superstep.
    """

    graph: CSRGraph
    spec: WalkSpec
    frontier: WalkerFrontier
    walkers: np.ndarray
    rng: BatchStreams
    counters: CounterBatch
    slots: np.ndarray
    bound_hints: np.ndarray | None = None
    sum_hints: np.ndarray | None = None
    warp_width: int = WARP_SIZE
    transition_cache: TransitionCache | None = None
    arena: BufferArena | None = None
    _flat: dict = field(default_factory=dict, repr=False)

    # ------------------------------------------------------------------ #
    @property
    def size(self) -> int:
        return int(self.walkers.size)

    @property
    def current(self) -> np.ndarray:
        return self.frontier.current[self.walkers]

    @property
    def prev(self) -> np.ndarray:
        return self.frontier.prev[self.walkers]

    @property
    def steps(self) -> np.ndarray:
        return self.frontier.steps[self.walkers]

    # -- flattened frontier edges -------------------------------------- #
    @property
    def edge_start(self) -> np.ndarray:
        """Global edge index where each walker's neighbour list begins."""
        return self._cached("edge_start", lambda: self.graph.indptr[self.current])

    @property
    def degrees(self) -> np.ndarray:
        return self._cached(
            "degrees", lambda: self.graph.indptr[self.current + 1] - self.edge_start
        )

    @property
    def offsets(self) -> np.ndarray:
        """Start/stop of each walker's segment in the flattened arrays."""

        def build() -> np.ndarray:
            if self.arena is not None:
                out = self.arena.int64("offsets", self.degrees.size + 1)
                out[0] = 0
                np.cumsum(self.degrees, out=out[1:])
                return out
            return segment_offsets(self.degrees)

        return self._cached("offsets", build)

    @property
    def seg_ids(self) -> np.ndarray:
        return self._cached("seg_ids", lambda: segment_ids(self.degrees))

    @property
    def flat_edges(self) -> np.ndarray:
        """Global edge index of every flattened candidate edge."""

        def build() -> np.ndarray:
            base = np.repeat(self.edge_start - self.offsets[:-1], self.degrees)
            total = int(self.offsets[-1])
            if self.arena is not None:
                base += self.arena.arange(total)
                return base
            return base + np.arange(total, dtype=np.int64)

        return self._cached("flat_edges", build)

    @property
    def neighbors_flat(self) -> np.ndarray:
        """Destination node of every flattened candidate edge."""
        return self._cached("neighbors_flat", lambda: self.graph.indices[self.flat_edges])

    def _cached(self, key: str, build):
        value = self._flat.get(key)
        if value is None:
            value = build()
            self._flat[key] = value
        return value

    def edge_mask(self, idx: np.ndarray) -> np.ndarray:
        """Boolean mask over the flattened edges of the given walkers.

        Projects a per-walker index set onto the flat candidate-edge arrays,
        selecting exactly the segments owned by those walkers.
        """
        keep = np.zeros(self.size, dtype=bool)
        keep[idx] = True
        return keep[self.seg_ids]

    # ------------------------------------------------------------------ #
    def charge(self, name: str, amount: np.ndarray | int, idx: np.ndarray | None = None) -> None:
        """Charge a counter for every walker (or the subset ``idx``)."""
        slots = self.slots if idx is None else self.slots[idx]
        self.counters.charge(name, slots, amount)

    def transition_weights(self) -> np.ndarray:
        """Flattened transition weights of every candidate edge (no accounting).

        Cached per superstep: a kernel that needs the weights twice (e.g.
        eRJS's trial probes plus its fallback) computes them once, exactly
        like the scalar kernels materialise the vector once.  When a
        cross-superstep :class:`TransitionCache` is attached (node-only
        workloads), the values are gathered from it instead of recomputed —
        same numbers, no per-step evaluation.
        """

        def build() -> np.ndarray:
            if self.transition_cache is not None:
                return self.transition_cache.weights_for(self)
            return self.spec.transition_weights_batch(self.graph, self)

        return self._cached("weights", build)

    def gather_weights(self, passes: int = 1, coalesced: bool = True,
                       idx: np.ndarray | None = None) -> np.ndarray:
        """Batched :func:`~repro.sampling.base.gather_transition_weights`.

        Returns the full flattened weight array and charges the scan cost —
        for every walker, or only for the subset ``idx`` (used when only some
        walkers of a partition take the scanning path).
        """
        self.charge_gather(passes, coalesced, idx)
        return self.transition_weights()

    def charge_gather(self, passes: int = 1, coalesced: bool = True,
                      idx: np.ndarray | None = None) -> None:
        """Charge the scan cost of :meth:`gather_weights` without reading weights.

        For kernels that get the scan's result another way (eRJS reads a
        node-only workload's maximum from the transition cache) but whose
        modeled kernel still scans.
        """
        degrees = self.degrees if idx is None else self.degrees[idx]
        field_name = "coalesced_accesses" if coalesced else "random_accesses"
        self.charge(field_name, degrees * passes, idx)
        self.charge("weight_computations", degrees, idx)
        scan_words = self.spec.scan_cost_words_batch(self.graph, self)
        self.charge("coalesced_accesses", scan_words if idx is None else scan_words[idx], idx)

    # -- scalar-fallback bridge ---------------------------------------- #
    def state(self, i: int) -> WalkerState:
        """Object-form state of the ``i``-th walker in this context."""
        return self.frontier.state_view(self.walkers[int(i)])

    def stream(self, i: int) -> CountingStream:
        """The ``i``-th walker's scalar random stream."""
        return self.rng.stream(i)

    def scalar_context(self, i: int) -> tuple["StepContext", CostCounters]:
        """A scalar :class:`StepContext` for one walker, plus its counters.

        The bridge that lets samplers and selectors without a vectorised
        implementation run their scalar code unchanged inside the batched
        engine: run the kernel on the returned context, then fold the
        counters back with ``absorb(i, counters)``.
        """
        from repro.sampling.base import StepContext

        counters = CostCounters(bytes_per_weight=self.counters.bytes_per_weight)
        bound = None
        if self.bound_hints is not None and not np.isnan(self.bound_hints[i]):
            bound = float(self.bound_hints[i])
        total = None
        if self.sum_hints is not None and not np.isnan(self.sum_hints[i]):
            total = float(self.sum_hints[i])
        ctx = StepContext(
            graph=self.graph,
            state=self.state(i),
            spec=self.spec,
            rng=self.stream(i),
            counters=counters,
            bound_hint=bound,
            sum_hint=total,
            warp_width=self.warp_width,
        )
        return ctx, counters

    def absorb(self, i: int, counters: CostCounters) -> None:
        """Fold a scalar context's counters into walker ``i``'s slot."""
        self.counters.absorb(int(self.slots[int(i)]), counters)

    # ------------------------------------------------------------------ #
    def subset(self, idx: np.ndarray) -> BatchStepContext:
        """A context over a subset of the walkers (shared counter batch).

        The transition cache is shared (it is keyed by node, not by walker);
        the arena is not — a subset materialising its own segment arrays must
        not overwrite the parent's recycled buffers mid-superstep.
        """
        return BatchStepContext(
            graph=self.graph,
            spec=self.spec,
            frontier=self.frontier,
            walkers=self.walkers[idx],
            rng=self.rng.subset(idx),
            counters=self.counters,
            slots=self.slots[idx],
            bound_hints=None if self.bound_hints is None else self.bound_hints[idx],
            sum_hints=None if self.sum_hints is None else self.sum_hints[idx],
            warp_width=self.warp_width,
            transition_cache=self.transition_cache,
        )
