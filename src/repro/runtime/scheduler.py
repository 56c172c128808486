"""Dynamic query scheduling (Section 5.3).

FlexiWalker keeps all pending walk queries behind a single global counter:
whenever a processing unit finishes a query it atomically increments the
counter and uses the old value to index the array of start nodes.  The same
mechanism is reproduced here; the executor prices each fetch as one global
atomic operation, and the timing consequences of dynamic vs. static
assignment are modelled by :class:`~repro.gpusim.executor.KernelExecutor`.
"""

from __future__ import annotations

import numpy as np

from repro.errors import SimulationError
from repro.gpusim.counters import CostCounters
from repro.walks.state import WalkQuery


class DynamicQueryQueue:
    """Global-counter work queue over a batch of walk queries.

    The batch is usually fixed at construction (one kernel launch), but the
    session layer (:mod:`repro.service`) also enqueues incrementally through
    :meth:`extend` — the hardware analogue is the host appending to the
    query array and bumping its length *before* publishing the new bound to
    the device, so already-running fetch loops simply observe more work.
    """

    def __init__(self, queries: list[WalkQuery] | None = None) -> None:
        self._queries = list(queries) if queries is not None else []
        self._counter = 0
        self.atomic_ops = 0

    def extend(self, queries: list[WalkQuery]) -> None:
        """Append queries to the tail of the queue (incremental enqueue).

        Appending never reorders or re-issues earlier queries: the global
        counter is untouched, so consumers keep fetching in submission
        order.
        """
        self._queries.extend(queries)

    def __len__(self) -> int:
        return len(self._queries)

    @property
    def remaining(self) -> int:
        return max(0, len(self._queries) - self._counter)

    @property
    def exhausted(self) -> bool:
        return self._counter >= len(self._queries)

    def fetch(self, counters: CostCounters | None = None) -> WalkQuery | None:
        """Atomically claim the next query, or ``None`` when the queue is empty.

        Each successful or failed claim costs one atomic increment, charged to
        ``counters`` when provided (and always tallied on the queue itself).
        """
        self.atomic_ops += 1
        if counters is not None:
            counters.atomic_ops += 1
        if self._counter >= len(self._queries):
            return None
        query = self._queries[self._counter]
        self._counter += 1
        return query

    def fetch_batch(self, max_count: int, counters: CostCounters | None = None) -> list[WalkQuery]:
        """Atomically claim up to ``max_count`` queries in submission order.

        The batched engine's frontier launch: every claimed query still costs
        one atomic increment (the global counter is bumped once per query on
        the hardware, whether the claims happen staggered or back to back),
        so the accounting matches ``max_count`` scalar :meth:`fetch` calls.
        """
        if max_count < 0:
            raise SimulationError("cannot fetch a negative number of queries")
        count = min(int(max_count), self.remaining)
        self.atomic_ops += count
        if counters is not None:
            counters.atomic_ops += count
        claimed = self._queries[self._counter:self._counter + count]
        self._counter += count
        return list(claimed)

    def reset(self) -> None:
        """Rewind the queue (used when re-running the same batch)."""
        self._counter = 0
        self.atomic_ops = 0

    def drain(self) -> list[WalkQuery]:
        """Fetch every remaining query (convenience for tests)."""
        out: list[WalkQuery] = []
        while True:
            query = self.fetch()
            if query is None:
                return out
            out.append(query)

    def __repr__(self) -> str:  # pragma: no cover - cosmetic
        return f"DynamicQueryQueue({self.remaining}/{len(self._queries)} remaining)"


def validate_queries(queries: list[WalkQuery], num_nodes: int) -> None:
    """Sanity-check a query batch against the target graph.

    Query ids must be unique within a batch: each id owns one random stream,
    and two walks sharing a stream would consume it in execution-order —
    making the result depend on scheduling instead of only on the seed (and
    silently breaking the scalar/batched parity guarantee).

    Runs on every submit and every engine run, so both checks are
    vectorised (a single pass to extract the fields, then numpy for the
    range test and the sort-based duplicate detection) — the per-query
    Python loop with a growing ``set`` dominated large-batch submit cost.
    Error behaviour is unchanged: the reported query is the first one, in
    submission order, that fails either check (range checked before
    duplication at the same index, exactly like the old loop).
    """
    n = len(queries)
    if n == 0:
        return
    starts = np.fromiter((q.start_node for q in queries), dtype=np.int64, count=n)
    out_of_range = (starts < 0) | (starts >= num_nodes)
    first_bad = int(np.argmax(out_of_range)) if out_of_range.any() else n

    ids = np.fromiter((q.query_id for q in queries), dtype=np.int64, count=n)
    first_dup = n
    sorted_ids = np.sort(ids)
    if (sorted_ids[1:] == sorted_ids[:-1]).any():
        # Duplicates exist (np.unique-style sorted-neighbour test); locate
        # the offender only on this error path.  A stable sort keeps equal
        # ids in submission order, so every element equal to its sorted
        # predecessor is a *repeat* of an earlier query; the earliest such
        # submission index is where the old loop raised.
        order = np.argsort(ids, kind="stable")
        by_order = ids[order]
        repeats = order[1:][by_order[1:] == by_order[:-1]]
        first_dup = int(repeats.min())

    if first_bad <= first_dup and first_bad < n:
        query = queries[first_bad]
        raise SimulationError(
            f"query {query.query_id} starts at node {query.start_node}, "
            f"which is outside the graph (num_nodes={num_nodes})"
        )
    if first_dup < n:
        query = queries[first_dup]
        raise SimulationError(
            f"duplicate query_id {query.query_id}: ids must be unique within "
            "a batch (each id owns one random stream)"
        )
