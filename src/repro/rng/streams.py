"""Counting RNG streams and per-thread stream pools.

The number of random numbers generated is one of the explicit cost terms in
the paper (Section 3.2: the baseline reservoir kernel draws one uniform per
neighbour, eRVS's jump technique draws far fewer).  ``CountingStream`` wraps a
:class:`~repro.rng.philox.PhiloxEngine` and records every draw so kernels can
report exact RNG counts to the GPU simulator's cost counters.

Because the generator is counter-based, a stream's state is just the pair
``(key, counter)``.  :class:`StreamPool` therefore keeps the state of every
stream it owns in parallel numpy arrays; the per-walker stream objects the
scalar paths hand around (:class:`PooledStream`) are views into those arrays,
and the batched engine's cross-stream draws (:meth:`BatchStreams.uniform_flat`)
reserve counters for thousands of streams with a handful of vectorised array
operations instead of one Python call per stream.
"""

from __future__ import annotations

from collections.abc import Sequence

import numpy as np

from repro.rng.philox import PhiloxEngine, derive_child_keys, philox_uniform

_MASK64 = (1 << 64) - 1


class CountingStream:
    """RNG stream that counts how many variates have been drawn.

    The count is the number of *variates*, not the number of calls, because a
    vectorised call drawing ``n`` uniforms corresponds to ``n`` cuRAND calls
    on the GPU.
    """

    __slots__ = ("_engine", "draws")

    def __init__(self, engine: PhiloxEngine) -> None:
        self._engine = engine
        self.draws = 0

    @classmethod
    def from_seed(cls, seed: int, stream: int = 0) -> CountingStream:
        return cls(PhiloxEngine(seed, stream))

    def reset_count(self) -> None:
        self.draws = 0

    def uniform(self, size: int | tuple[int, ...] | None = None) -> np.ndarray | float:
        self.draws += 1 if size is None else int(np.prod(size))
        return self._engine.uniform(size)

    def integers(self, low: int, high: int, size: int | None = None) -> np.ndarray | int:
        self.draws += 1 if size is None else int(size)
        return self._engine.integers(low, high, size)

    def exponential(self, size: int | None = None) -> np.ndarray | float:
        self.draws += 1 if size is None else int(size)
        return self._engine.exponential(size)

    def split(self, index: int) -> CountingStream:
        """Derive an independent child stream with its own counter."""
        return CountingStream(self._engine.split(index))

    @property
    def philox_key(self) -> np.uint64:
        """The underlying engine key (used by :class:`BatchStreams`)."""
        return self._engine.key

    def reserve(self, n: int) -> np.uint64:
        """Claim ``n`` draws (counting them) and return the start counter.

        The values that correspond to the claimed counters are exactly what
        ``uniform(n)`` would have produced; :class:`BatchStreams` uses this to
        generate them for many streams in one vectorised Philox evaluation.
        """
        self.draws += int(n)
        return self._engine.reserve(int(n))


class PooledStream(CountingStream):
    """A :class:`CountingStream` whose state lives in a :class:`StreamPool`.

    The pool keeps ``(key, counter, draws)`` for every stream in parallel
    arrays so batched draws never have to touch per-stream Python objects;
    this class is the scalar view over one slot of those arrays.  Every draw
    produces bit-identical values to a plain ``CountingStream`` with the same
    key (the Philox formulas are replayed term for term), so the scalar
    engine, the scalar-fallback bridges and the vectorised frontier paths all
    advance literally the same state.
    """

    __slots__ = ("_pool", "_slot")

    def __init__(self, pool: StreamPool, slot: int) -> None:
        self._pool = pool
        self._slot = int(slot)

    # -- counter/draw state lives in the pool arrays -------------------- #
    @property
    def draws(self) -> int:  # type: ignore[override]
        return int(self._pool._draws[self._slot])

    def reset_count(self) -> None:
        self._pool._draws[self._slot] = 0

    @property
    def philox_key(self) -> np.uint64:
        return np.uint64(self._pool._keys[self._slot])

    def _take(self, n: int) -> int:
        """Claim ``n`` counters (tallying the draws) and return the start."""
        pool = self._pool
        start = int(pool._counters[self._slot])
        pool._counters[self._slot] = np.uint64((start + n) & _MASK64)
        pool._draws[self._slot] += n
        return start

    def reserve(self, n: int) -> np.uint64:
        return np.uint64(self._take(int(n)))

    # -- draw methods (replaying the PhiloxEngine formulas exactly) ----- #
    def uniform(self, size: int | tuple[int, ...] | None = None) -> np.ndarray | float:
        key = self._pool._keys[self._slot]
        if size is None:
            return float(philox_uniform(key, np.uint64(self._take(1))))
        n = int(np.prod(size))
        start = self._take(n)
        with np.errstate(over="ignore"):
            counters = np.uint64(start) + np.arange(n, dtype=np.uint64)
        return philox_uniform(key, counters).reshape(size)

    def integers(self, low: int, high: int, size: int | None = None) -> np.ndarray | int:
        if high <= low:
            raise ValueError(f"empty integer range [{low}, {high})")
        span = high - low
        u = self.uniform(size)
        if size is None:
            return low + int(u * span)
        return (low + np.floor(np.asarray(u) * span)).astype(np.int64)

    def exponential(self, size: int | None = None) -> np.ndarray | float:
        u = self.uniform(size)
        if size is None:
            return -float(np.log1p(-u))
        return -np.log1p(-np.asarray(u))

    def split(self, index: int) -> CountingStream:
        child = PhiloxEngine.__new__(PhiloxEngine)
        child._key = np.uint64(derive_child_keys(self.philox_key, np.array([index]))[0])
        child._counter = np.uint64(0)
        return CountingStream(child)


class BatchStreams:
    """Vectorised draws from many counting streams at once.

    Because the underlying generator is counter-based, the variates a stream
    *would* produce are a pure function of ``(key, counter)``: drawing
    ``counts[i]`` values from stream ``i`` for every ``i`` simultaneously is
    one broadcasted Philox evaluation, and each per-stream sub-sequence is
    bit-identical to what sequential ``stream.uniform(counts[i])`` calls
    would have returned.  This is what lets the batched walk engine replay
    the scalar engine's per-walker randomness exactly while running the whole
    frontier through a single numpy expression.

    Two backings exist: batches minted by :meth:`StreamPool.batch` operate
    directly on the pool's state arrays (counter reservation is a fancy-index
    add — no per-stream Python work at all), while batches built from a list
    of standalone :class:`CountingStream` objects reserve through each object
    so external streams observe their draws.
    """

    __slots__ = ("streams", "_keys", "_pool", "_slots", "_threads")

    def __init__(self, streams: Sequence[CountingStream]) -> None:
        self.streams = list(streams)
        self._keys = np.array([s.philox_key for s in self.streams], dtype=np.uint64)
        self._pool = None
        self._slots = None
        self._threads = None

    @classmethod
    def _from_pool(cls, pool: StreamPool, threads: np.ndarray, slots: np.ndarray) -> BatchStreams:
        self = cls.__new__(cls)
        self.streams = None
        self._pool = pool
        self._slots = slots
        self._threads = threads
        self._keys = pool._keys[slots]
        return self

    def __len__(self) -> int:
        return len(self._slots) if self._pool is not None else len(self.streams)

    def subset(self, indices: np.ndarray) -> BatchStreams:
        """A view over a subset of the streams (shared stream state)."""
        idx = np.asarray(indices, dtype=np.int64)
        if self._pool is not None:
            return BatchStreams._from_pool(self._pool, self._threads[idx], self._slots[idx])
        sub = BatchStreams.__new__(BatchStreams)
        sub.streams = [self.streams[int(i)] for i in idx]
        sub._keys = self._keys[idx]
        sub._pool = None
        sub._slots = None
        sub._threads = None
        return sub

    def stream(self, index: int) -> CountingStream:
        """The underlying scalar stream at position ``index``."""
        if self._pool is not None:
            return self._pool.stream(int(self._threads[int(index)]))
        return self.streams[int(index)]

    def uniform_flat(self, counts: np.ndarray) -> np.ndarray:
        """Draw ``counts[i]`` uniforms from stream ``i``, concatenated.

        Stream ``i``'s draws occupy ``out[offsets[i]:offsets[i + 1]]`` where
        ``offsets = concatenate([[0], cumsum(counts)])``, in the same order
        ``stream.uniform(counts[i])`` would have produced them.
        """
        counts = np.asarray(counts, dtype=np.int64)
        if counts.size != len(self):
            raise ValueError("counts must have one entry per stream")
        total = int(counts.sum())
        if total == 0:
            return np.zeros(0, dtype=np.float64)
        if self._pool is not None and np.unique(self._slots).size == self._slots.size:
            # Pool-backed with unique slots (the engine's case — walker
            # streams are keyed by unique query ids): reserve every stream's
            # counters with one fancy-index update, then evaluate Philox once
            # for all draws.  Duplicate slots (the same stream listed twice)
            # need sequential reservation and take the per-stream loop below.
            pool = self._pool
            starts = pool._counters[self._slots].copy()
            with np.errstate(over="ignore"):
                pool._counters[self._slots] = starts + counts.astype(np.uint64)
            pool._draws[self._slots] += counts
        else:
            starts = np.zeros(counts.size, dtype=np.uint64)
            for i, c in enumerate(counts):
                if c > 0:
                    starts[i] = self.stream(i).reserve(int(c))
        offsets = np.concatenate(([0], np.cumsum(counts)))
        seg = np.repeat(np.arange(counts.size, dtype=np.int64), counts)
        local = (np.arange(total, dtype=np.int64) - offsets[:-1][seg]).astype(np.uint64)
        with np.errstate(over="ignore"):
            ctrs = starts[seg] + local
        return philox_uniform(self._keys[seg], ctrs)

    def uniform_each(self) -> np.ndarray:
        """One uniform per stream (the vectorised form of ``uniform()``)."""
        return self.uniform_flat(np.ones(len(self), dtype=np.int64))


class AdoptedStreamPool:
    """Per-walker stream state, one slot per admitted walker.

    The stream pool of every :class:`~repro.runtime.frontier.Wave`.  Each
    walker adopts exactly the stream ``StreamPool(seed)`` would mint for its
    query id — the same derived child key, counter starting at zero — so a
    walk's randomness does not depend on which wave runs it, or on what
    else shares the wave.

    A continuous-batching fusion group's wave carries walkers from many
    sessions, and two sessions may legitimately submit the same query id,
    so unlike :class:`StreamPool` this pool never shares slots: every
    adopted walker owns a fresh ``(key, counter, draws)`` slot, exactly like
    two separate solo sessions would.  Slot numbers are wave positions,
    which keeps the :meth:`BatchStreams.uniform_flat` vectorised fast path
    (it requires unique slots) on for the whole frontier.
    """

    def __init__(self) -> None:
        self._keys = np.zeros(0, dtype=np.uint64)
        self._counters = np.zeros(0, dtype=np.uint64)
        self._draws = np.zeros(0, dtype=np.int64)
        self._views: dict[int, PooledStream] = {}

    def __len__(self) -> int:
        return int(self._keys.size)

    def adopt(self, seed: int, query_ids: Sequence[int]) -> np.ndarray:
        """Append one stream per query id, derived as ``StreamPool(seed)``
        would derive it, and return the new slot numbers."""
        ids = np.asarray([int(q) for q in query_ids], dtype=np.int64)
        start = len(self)
        if ids.size:
            new_keys = derive_child_keys(PhiloxEngine(seed).key, ids)
            self._keys = np.concatenate([self._keys, new_keys])
            self._counters = np.concatenate(
                [self._counters, np.zeros(ids.size, dtype=np.uint64)]
            )
            self._draws = np.concatenate([self._draws, np.zeros(ids.size, dtype=np.int64)])
        return np.arange(start, start + ids.size, dtype=np.int64)

    def stream(self, slot: int) -> CountingStream:
        """The (cached) scalar stream view over one adopted slot."""
        slot = int(slot)
        existing = self._views.get(slot)
        if existing is None:
            if not 0 <= slot < len(self):
                raise IndexError(f"adopted pool has no slot {slot}")
            existing = PooledStream(self, slot)
            self._views[slot] = existing
        return existing

    def batch_all(self) -> BatchStreams:
        """Bundle every adopted stream, indexed by frontier position."""
        slots = np.arange(len(self), dtype=np.int64)
        return BatchStreams._from_pool(self, slots, slots)

    def snapshot_counters(self) -> tuple[np.ndarray, np.ndarray]:
        """Copies of every slot's ``(counter, draws)`` state.

        Keys are derived, immutable and re-derivable, so counter positions
        are the *entire* RNG state a checkpoint has to capture: restoring
        them replays every subsequent draw bit for bit.
        """
        return self._counters.copy(), self._draws.copy()

    def restore_counters(self, snap: tuple[np.ndarray, np.ndarray]) -> None:
        """Rewind every slot to a :meth:`snapshot_counters` state."""
        counters, draws = snap
        if counters.size != self._counters.size:
            raise ValueError(
                f"counter snapshot covers {counters.size} slots but the pool "
                f"holds {self._counters.size}"
            )
        self._counters[:] = counters
        self._draws[:] = draws

    @property
    def total_draws(self) -> int:
        return int(self._draws.sum())


class StreamPool:
    """A pool of independent streams, one per simulated GPU thread.

    GPU kernels assign one cuRAND state per thread.  The pool mirrors this by
    deriving one child stream per thread index on demand, but stores every
    stream's ``(key, counter, draws)`` in parallel arrays: scalar access goes
    through cached :class:`PooledStream` views, and :meth:`batch` hands the
    batched engine a :class:`BatchStreams` that reserves counters for the
    whole frontier with vectorised array updates.
    """

    def __init__(self, seed: int) -> None:
        self._root = PhiloxEngine(seed)
        self._slot_of: dict[int, int] = {}
        self._views: dict[int, PooledStream] = {}
        self._keys = np.zeros(0, dtype=np.uint64)
        self._counters = np.zeros(0, dtype=np.uint64)
        self._draws = np.zeros(0, dtype=np.int64)

    def _ensure_slots(self, thread_indices: Sequence[int]) -> np.ndarray:
        """Slot of every requested thread, minting missing streams in bulk.

        A thread index repeated within one request resolves to the *same*
        slot, exactly like repeated :meth:`stream` calls share one stream.
        """
        slot_of = self._slot_of
        missing: list[int] = []
        for thread in thread_indices:
            if thread not in slot_of:
                # Reserve the slot number immediately so a duplicate later in
                # this very request maps to the same stream.
                slot_of[thread] = len(slot_of)
                missing.append(thread)
        if missing:
            new_keys = derive_child_keys(self._root.key, np.asarray(missing, dtype=np.int64))
            self._keys = np.concatenate([self._keys, new_keys])
            self._counters = np.concatenate(
                [self._counters, np.zeros(len(missing), dtype=np.uint64)]
            )
            self._draws = np.concatenate([self._draws, np.zeros(len(missing), dtype=np.int64)])
        return np.array([slot_of[thread] for thread in thread_indices], dtype=np.int64)

    def stream(self, thread_index: int) -> CountingStream:
        """Return the (cached) stream view owned by ``thread_index``."""
        thread_index = int(thread_index)
        existing = self._views.get(thread_index)
        if existing is None:
            slot = int(self._ensure_slots([thread_index])[0])
            existing = PooledStream(self, slot)
            self._views[thread_index] = existing
        return existing

    def batch(self, thread_indices: Sequence[int]) -> BatchStreams:
        """Bundle the streams of many threads for vectorised draws."""
        threads = np.asarray([int(i) for i in thread_indices], dtype=np.int64)
        slots = self._ensure_slots([int(i) for i in threads])
        return BatchStreams._from_pool(self, threads, slots)

    @property
    def total_draws(self) -> int:
        """Total variates drawn across every stream in the pool."""
        return int(self._draws.sum())

    def reset_counts(self) -> None:
        self._draws[:] = 0
