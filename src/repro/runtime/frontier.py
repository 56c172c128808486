"""The batched, step-synchronous walk execution loop and its one driver.

This is the execution shape real GPU walk frameworks use (FlowWalker's and
C-SAW's frontier kernels): instead of interpreting one query at a time, every
*superstep* gathers all still-active walkers, evaluates the per-walker kernel
selection once, partitions the frontier by chosen kernel and executes each
partition through one vectorised ``sample_batch`` call.

The loop is simulation-equivalent to the scalar interpreter
(:meth:`WalkEngine._scalar_walk`, one whole walk at a time) by construction,
not by accident:

* randomness — every walker owns the same counter-based stream in both modes
  and the batch kernels consume the same counter ranges, so the sampled paths
  are identical;
* counters — each walker's per-step operation counts land in its own
  :class:`~repro.gpusim.counters.CounterBatch` slot, and every superstep adds
  exactly one priced float per active walker to ``per_query_ns`` (the same
  accumulation order as the scalar loop), so counter totals and simulated
  timings match;
* termination — both modes consult the same dead-end rules from
  :mod:`repro.sampling.base`.

The one documented exception is :class:`~repro.runtime.selector.RandomSelector`,
whose shared-generator coin flips cannot be replayed step-synchronously.

Execution and placement are separate.  A :class:`Wave` is the one driver: it
executes a batch of walkers — superstep by superstep through
:func:`iter_supersteps` (with the fault-recovery step around each superstep
when the engine asks for it), or walk by walk through the scalar
interpreter — and reports what it executed to a ledger.  A
:class:`PlacementLedger` decides where that work lands: one device, D
replicated devices (queries owned by their partition's device) or D graph
shards (steps owned by the shard hosting the walker, priced by
:class:`ShardedRunAccounting`).  ``WalkEngine.run`` drains one wave; a
standalone :class:`~repro.service.WalkSession` streams one wave per batch of
queued submissions into a session-wide ledger; a continuous-batching fusion
group is one growing wave whose scheduler-private ledger splits every
superstep back out to the attached sessions' ledgers.  Placement never
changes a walk — every walker's stream is keyed by its query id — so paths,
counters and per-query base times are identical in every placement; only
the per-device kernels and the makespan differ.
"""

from __future__ import annotations

from dataclasses import dataclass
from types import SimpleNamespace
from typing import TYPE_CHECKING, NamedTuple

import numpy as np

from repro.gpusim.counters import CostCounters, CounterBatch
from repro.gpusim.executor import KernelExecutor, KernelResult
from repro.rng.streams import AdoptedStreamPool
from repro.runtime.faults import RecoveryCharge, reassign_owners
from repro.sampling.batch import BatchStepContext, BufferArena
from repro.walks.state import WalkerFrontier, WalkQuery

if TYPE_CHECKING:  # pragma: no cover - engine imports frontier
    from repro.runtime.engine import WalkEngine, WalkRunResult
    from repro.runtime.profiler import ProfileResult


class NodeHintTables:
    """Lazily-filled per-node bound/sum hint tables (node-only workloads).

    When ``compiled.hints_node_only`` the compiler helpers are a pure
    function of the current node, so their values can be cached per node and
    shared by every walker that ever visits it.  Entries are computed on
    first visit rather than eagerly for the whole graph — a sparse-query run
    on a large graph must not pay an O(num_nodes) startup the scalar engine
    would never pay.  ``NaN`` is the array form of the scalar ``None`` ("no
    estimate"), so a separate mask tracks which entries are populated.

    Pending nodes are batch-evaluated through
    :meth:`~repro.compiler.generator.CompiledWorkload.hint_nodes`, which
    replays the generated helpers with per-node aggregate *arrays* bound in
    place of scalars (falling back to exact per-node evaluation whenever the
    vectorised replay is unsafe).
    """

    def __init__(self, compiled, graph) -> None:
        self._compiled = compiled
        self._graph = graph
        n = graph.num_nodes
        self.bounds = np.full(n, np.nan, dtype=np.float64)
        self.sums = np.full(n, np.nan, dtype=np.float64)
        self._computed = np.zeros(n, dtype=bool)

    def rebind(self, graph, touched_nodes: np.ndarray, compiled=None) -> None:
        """Scoped invalidation contract: follow a graph delta in place.

        Called by the versioned invalidation layer
        (:mod:`repro.graph.invalidation`).  The per-node arrays are
        fixed-size, so the repair is a pure scoped clear: touched rows go
        back to "not computed" and refill lazily; untouched rows — and the
        ``bounds`` / ``sums`` arrays themselves — keep their object identity.
        ``compiled`` must be the new version's compiled workload whenever the
        workload preprocesses the graph (its per-node aggregates are
        graph-derived); ``None`` keeps the current one.
        """
        touched = np.asarray(touched_nodes, dtype=np.int64)
        self._graph = graph
        if compiled is not None:
            self._compiled = compiled
        self.bounds[touched] = np.nan
        self.sums[touched] = np.nan
        self._computed[touched] = False

    def lookup(self, nodes: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
        """Hints for the given nodes, evaluating missing entries on demand."""
        pending = np.unique(nodes[~self._computed[nodes]])
        if pending.size:
            bounds, sums = self._compiled.hint_nodes(self._graph, pending)
            self.bounds[pending] = bounds
            self.sums[pending] = sums
            self._computed[pending] = True
        return self.bounds[nodes], self.sums[nodes]


@dataclass(frozen=True)
class SuperstepReport:
    """What one superstep of the frontier loop did.

    Yielded by :func:`iter_supersteps` after each superstep's accounting has
    already landed in the wave's ``per_ns`` and the ledger's ``aggregate`` /
    ``usage``, so observers (the placement ledger, the streaming session
    layer, a fusion group's per-session fold) only need the per-superstep
    views.

    Attributes
    ----------
    active:
        Frontier indices that executed a walk step this superstep (dead-end
        walkers are excluded — they terminate without charging a step).
    counters:
        The superstep's :class:`~repro.gpusim.counters.CounterBatch`; slot
        ``j`` holds the counts charged to walker ``active[j]``.
    finished:
        Frontier indices whose walks completed during this superstep, for
        any reason: dead end, all-zero transition weights, or the walk
        reaching its maximum length.  Sorted ascending.
    nodes:
        Node walker ``active[j]`` occupied when it executed this
        superstep's step (captured *before* the frontier advanced) — what
        the sharded accounting attributes work and migrations by.
    step_ns:
        The priced lane time of each active walker's step — the exact
        values already accumulated into ``per_query_ns``, exposed so
        observers do not re-price the counter batch.
    sampler_names:
        Names of the kernels the selector chose this superstep, in the
        selector's partition order (empty for dead-end-only reports).
    assignment:
        ``assignment[j]`` is the index into ``sampler_names`` of the kernel
        walker ``active[j]`` executed — what lets the continuous-batching
        scheduler split the fused ``sampler_usage`` back out per session
        exactly.  ``None`` for dead-end-only reports.
    """

    active: np.ndarray
    counters: CounterBatch
    finished: np.ndarray
    nodes: np.ndarray
    step_ns: np.ndarray
    sampler_names: tuple[str, ...] = ()
    assignment: np.ndarray | None = None

    @property
    def steps(self) -> int:
        """Walker-steps executed this superstep (one per active walker)."""
        return int(self.active.size)


#: Shared empty finished-set for untracked supersteps.
_NO_FINISHED = np.zeros(0, dtype=np.int64)


def iter_supersteps(wave: Wave):
    """Step-synchronous frontier loop, one :class:`SuperstepReport` at a time.

    The generator form of the batched execution core, driven by a
    :class:`Wave`: each ``next()`` advances every still-active walker of the
    wave by one step, lands the per-walker accounting in ``wave.per_ns``
    (indexed by wave position) and in the ledger's ``aggregate`` and
    ``usage``, and yields a :class:`SuperstepReport` describing what
    happened — which walkers stepped, what they charged, and whose walks
    completed.

    The wave's frontier, streams and per-query times are re-read at the top
    of every superstep, so walkers admitted through :meth:`Wave.admit`
    between two ``next()`` calls join the very next superstep without a new
    generator.  The generator returns when no walker is active; the wave
    creates a fresh one when it next has work (all state lives on the wave
    and the shared engine caches, so that is cheap).

    Because every walker owns a counter-based random stream keyed by its
    query id and every walker's counts land in its own slot, suspending the
    generator between supersteps (or splitting a batch across several
    waves) cannot change any walk, count or simulated time.

    ``wave.track_finished=False`` skips the per-superstep completion
    bookkeeping (reports carry an empty ``finished``) — used by
    ``WalkEngine.run``, which never reads it, to keep the benchmarked hot
    path free of it.
    """
    ledger = wave.ledger
    engine = ledger.engine
    aggregate, usage = ledger.aggregate, ledger.usage
    track_finished = wave.track_finished
    graph, spec, device = engine.graph, engine.spec, engine.device

    hints_available = engine.compiled is not None and engine.compiled.supported
    hint_tables: NodeHintTables | None = None
    if hints_available and engine.compiled.hints_node_only:
        hint_tables = engine._node_hint_tables()
    cache = engine._transition_cache()
    arena = BufferArena()

    while True:
        frontier = wave.frontier
        streams = wave.streams
        per_query_ns = wave.per_ns
        active = frontier.active_indices()
        if active.size == 0:
            return
        # Consolidated dead-end rule, vectorised (see sampling.base.is_dead_end).
        current = frontier.current[active]
        degrees = graph.indptr[current + 1] - graph.indptr[current]
        dead = degrees == 0
        dead_finished = active[dead]
        if dead.any():
            frontier.terminate(dead_finished)
            active = active[~dead]
            if active.size == 0:
                # Every remaining walker hit a dead end: report the
                # completions without charging a step.
                yield SuperstepReport(
                    active=active,
                    counters=CounterBatch(0, bytes_per_weight=engine.weight_bytes),
                    finished=dead_finished if track_finished else _NO_FINISHED,
                    nodes=active,
                    step_ns=np.zeros(0, dtype=np.float64),
                )
                return
        k = active.size
        # The nodes the steps execute on, captured before the frontier
        # advances (fancy indexing copies, so the later in-place advance
        # cannot alias this).
        step_nodes = frontier.current[active]

        counters = CounterBatch(k, bytes_per_weight=engine.weight_bytes)
        bound_hints = sum_hints = None
        if hints_available:
            if hint_tables is not None:
                bound_hints, sum_hints = hint_tables.lookup(step_nodes)
            else:
                # State-dependent hints: evaluate the helpers per walker,
                # exactly like the scalar engine does per step.
                bound_hints = np.full(k, np.nan, dtype=np.float64)
                sum_hints = np.full(k, np.nan, dtype=np.float64)
                for j, walker in enumerate(active):
                    state = frontier.state_view(int(walker))
                    bound = engine.compiled.bound_hint(graph, state)
                    if bound is not None:
                        bound_hints[j] = bound
                    total = engine.compiled.sum_hint(graph, state)
                    if total is not None:
                        sum_hints[j] = total
            if engine.selection_overhead:
                # Reading the two preprocessed aggregates feeding the
                # estimation helpers, plus their arithmetic.
                counters.coalesced_accesses += 2
                counters.weight_computations += 2

        ctx = BatchStepContext(
            graph=graph,
            spec=spec,
            frontier=frontier,
            walkers=active,
            rng=streams.subset(active),
            counters=counters,
            slots=arena.arange(k),
            bound_hints=bound_hints,
            sum_hints=sum_hints,
            warp_width=engine.warp_width,
            transition_cache=cache,
            arena=arena,
        )
        samplers, assignment = engine.selector.select_batch(ctx)

        next_nodes = np.full(k, -1, dtype=np.int64)
        for position, sampler in enumerate(samplers):
            part = np.nonzero(assignment == position)[0]
            if part.size == 0:
                continue
            sub = ctx.subset(part)
            if engine.warp_switch_overhead and sampler.processing_unit == "warp":
                # The concurrent kernel votes (__ballot_sync) and shares the
                # query parameters (__shfl_sync) before the warp switches
                # into the cooperative mode.
                sub.charge("warp_syncs", 1)
            next_nodes[part] = sampler.sample_batch(sub)
            usage[sampler.name] = usage.get(sampler.name, 0) + int(part.size)
            if engine.step_overhead is not None:
                _apply_step_overhead(engine, ctx, part, sampler)

        step_ns = device.lane_times_ns(counters)
        per_query_ns[active] += step_ns
        aggregate.merge(counters.totals())

        advancing = next_nodes >= 0
        if not advancing.all():
            frontier.terminate(active[~advancing])
        moving = active[advancing]
        if moving.size:
            targets = next_nodes[advancing]
            spec.update_batch(graph, frontier, moving, targets)
            frontier.advance(moving, targets)
        # Walks complete by sampling failure (all-zero weights), by reaching
        # their maximum length, or — reported above the step charge — by
        # hitting a dead end.
        if track_finished:
            exhausted = moving[frontier.steps[moving] >= frontier.max_lengths[moving]]
            finished = np.sort(
                np.concatenate([dead_finished, active[~advancing], exhausted])
            )
        else:
            finished = _NO_FINISHED
        yield SuperstepReport(
            active=active,
            counters=counters,
            finished=finished,
            nodes=step_nodes,
            step_ns=step_ns,
            sampler_names=tuple(s.name for s in samplers),
            assignment=assignment,
        )



def fold_counters_by_owner(
    owners: np.ndarray,
    counters: CounterBatch,
    device_aggs: list[CostCounters],
    num_devices: int,
) -> None:
    """Fold one superstep's per-walker counts into per-device aggregates.

    ``owners[j]`` names the device charged with slot ``j`` of ``counters``.
    Exact under any grouping of supersteps: every per-walker count is an
    integer, so the bincount sums (and their int truncation) cannot lose
    precision — what lets the continuous-batching scheduler split a fused
    superstep back out per session exactly.
    """
    for name in CostCounters._COUNT_FIELDS:
        arr = getattr(counters, name)
        if not arr.any():
            continue
        sums = np.bincount(owners, weights=arr, minlength=num_devices)
        for d in range(num_devices):
            if sums[d]:
                agg = device_aggs[d]
                setattr(agg, name, getattr(agg, name) + int(sums[d]))


def _partition_for_devices(engine: WalkEngine, queries: list[WalkQuery]):
    """Partition queries by the engine's policy (with degree costs attached)."""
    from repro.gpusim.multigpu import partition_queries

    graph = engine.graph
    starts = np.array([q.start_node for q in queries], dtype=np.int64)
    # The balanced policy packs by start-node out-degree — the first-order
    # proxy for a walk's cost that is known *before* the walk runs (+1 so
    # zero-degree starts still carry their fetch cost).
    degrees = graph.indptr[starts + 1] - graph.indptr[starts] + 1
    return partition_queries(
        starts, engine.num_devices, engine.partition_policy, costs=degrees
    )


#: Bytes of one migrating walker record: query id, current node, previous
#: node, step counter and max length (5 x int64) plus the 128-bit Philox key
#: identifying the walker's counter-based random stream.  What actually
#: crosses the interconnect when a walk leaves its shard — the path prefix
#: stays behind on the originating device and is gathered at collect time.
WALKER_MIGRATION_BYTES = 56


@dataclass(frozen=True)
class _CommSummary:
    """Coalesced-migration communication totals of a sharded run.

    Built lazily by :meth:`ShardedRunAccounting._comm_summary` from the
    migration log.  ``queries``/``shares`` are sorted by (query, walker step
    index) so per-query accumulation happens in one canonical float order,
    whatever submit/stream interleaving produced the log.
    """

    queries: np.ndarray
    shares: np.ndarray
    per_device_ns: np.ndarray
    num_batches: int


class ShardedRunAccounting:
    """Per-device bookkeeping of a graph-sharded run.

    The sharded driver executes the *same* fused superstep loop as the
    replicated path (walks, counters and per-query base times are therefore
    bit-identical by construction); this object is where the sharding shows
    up.  Each walker-step is attributed to the device *hosting* the walker
    — the shard owning its current node, unless the node is a ghost-cached
    remote hub the walker is reading locally — and every step whose sampled
    destination is neither owned by nor ghosted on the hosting device
    migrates the walker there.

    Migrations are **coalesced**: all walkers leaving device ``s`` for
    device ``d`` at the same walk-step index travel as one batched transfer
    (one ``interconnect_latency_ns`` plus ``count x WALKER_MIGRATION_BYTES``
    of bandwidth), the KnightKing message-coalescing model.  Batches are
    keyed by the walkers' *step index* — not the wall-clock superstep — so
    an interleaved submit/stream session groups migrations exactly like the
    one-shot run and reconstructs identical communication totals.

    Per-device schedules treat each *resident walker* as one queue entry
    (its fetch plus every step it executed there, accumulated in walk-step
    order), so sessions also reconstruct the exact per-device
    schedules/makespans of the one-shot run.
    """

    def __init__(self, engine: WalkEngine, sharded, ghost=None) -> None:
        self.engine = engine
        self.sharded = sharded
        self.ghost = ghost
        self.num_shards = sharded.num_shards
        self.migration_ns = engine.device.migration_time_ns(WALKER_MIGRATION_BYTES)
        self._latency_ns = float(engine.device.interconnect_latency_ns)
        self._bytes_per_ns = float(engine.device.interconnect_bytes_per_ns)
        self._owner = sharded.owner_map
        self._ghost_mask = ghost.mask if ghost is not None else None
        # Flat view for cheap (host, node) lookups on the crossing subset.
        self._ghost_flat = self._ghost_mask.ravel() if ghost is not None else None
        self._num_nodes = int(self._owner.size)
        self.device_aggs = [
            CostCounters(bytes_per_weight=engine.weight_bytes)
            for _ in range(self.num_shards)
        ]
        # Resident-walker ledger: cell (d, q) accumulates all the lane time
        # query ``q`` executed on device ``d`` (its fetch, then every step
        # hosted there, added in walk-step order — so the float sums are
        # invariant to how queries were split into waves).  ``_res_seen``
        # marks the (device, query) pairs that actually executed work.
        # Each superstep lands as one fancy scatter-add (a walker occupies
        # exactly one slot per superstep, so the pairs are unique).
        self._res_times = np.zeros((self.num_shards, 0), dtype=np.float64)
        self._res_seen = np.zeros((self.num_shards, 0), dtype=bool)
        self._res_used = 0
        # Per-device counter accumulation: one float64 cell per (counter
        # field, device), folded eagerly every superstep so the superstep's
        # CounterBatch can be released immediately (integer counts sum
        # exactly in float64).  Materialised into ``device_aggs`` lazily.
        self._counter_sums = np.zeros(
            (len(CostCounters._COUNT_FIELDS), self.num_shards), dtype=np.float64
        )
        # Migration log: (walker step index, global query index, source
        # device, destination device) per migration, batched lazily.
        self._mig_steps: list[np.ndarray] = []
        self._mig_queries: list[np.ndarray] = []
        self._mig_src: list[np.ndarray] = []
        self._mig_dst: list[np.ndarray] = []
        # Per-wave hosting device of each walker (wave offset -> array
        # indexed by wave-local frontier position).
        self._hosts: dict[int, np.ndarray] = {}
        self.remote_steps = 0
        self.ghost_hits = 0
        self._comm_cache: _CommSummary | None = None

    def _ensure_capacity(self, upto: int) -> None:
        """Grow the resident-walker ledger to cover query indices < upto."""
        if upto > self._res_used:
            self._res_used = upto
        capacity = self._res_times.shape[1]
        if upto <= capacity:
            return
        new = max(upto, capacity * 2, 256)
        times = np.zeros((self.num_shards, new), dtype=np.float64)
        times[:, :capacity] = self._res_times
        seen = np.zeros((self.num_shards, new), dtype=bool)
        seen[:, :capacity] = self._res_seen
        self._res_times = times
        self._res_seen = seen

    # ------------------------------------------------------------------ #
    def charge_fetch(self, start_nodes: np.ndarray, fetch_ns: np.ndarray, offset: int = 0) -> None:
        """Attribute each query's queue-fetch atomic to its start node's owner.

        Queries are submitted straight to the device owning their start
        node, so the launch atomic executes there — and that device is the
        walker's initial host.  Fetch tasks sort before every walk step
        (ordinal -1), in submission order — exactly where the one-shot loop
        prices them.
        """
        starts = np.asarray(start_nodes, dtype=np.int64)
        owners = self._owner[starts]
        self._hosts[offset] = owners.copy()
        self._ensure_capacity(offset + owners.size)
        cols = np.arange(owners.size, dtype=np.int64) + offset
        # fetch_ns aliases the live per-query accumulator — copy the values.
        self._res_times[owners, cols] += fetch_ns
        self._res_seen[owners, cols] = True
        counts = np.bincount(owners, minlength=self.num_shards)
        for d in np.nonzero(counts)[0]:
            self.device_aggs[d].atomic_ops += int(counts[d])

    def observe(
        self,
        report: SuperstepReport,
        frontier: WalkerFrontier,
        step_ordinal: int,
        offset: int = 0,
    ) -> None:
        """Fold one superstep into the per-device ledgers.

        Each active walker's step executes on its hosting device (without a
        ghost cache the host is always the owner of ``report.nodes``).  A
        walker whose sampled destination (``frontier.current``) is owned by
        a different device either reads a local ghost copy — a ghost hit,
        host unchanged, no traffic — or migrates: host reassigned, one
        entry in the coalesced migration log.  Migration time never touches
        the base per-query times, which stay bit-identical to replicated.
        """
        active = report.active
        if active.size == 0:
            return
        hosts = self._hosts[offset]
        current = hosts[active]
        counters = report.counters
        k = self.num_shards
        live = [
            (j, column)
            for j, name in enumerate(CostCounters._COUNT_FIELDS)
            if (column := getattr(counters, name)).any()
        ]
        if live:
            # One bincount over (field, device) keys covers every non-zero
            # counter column of the superstep in a single pass.
            keys = np.concatenate([current + j * k for j, _ in live])
            weights = np.concatenate([column for _, column in live])
            top = live[-1][0] + 1
            self._counter_sums[:top] += np.bincount(
                keys, weights=weights, minlength=top * k
            ).reshape(top, k)
        cols = active + offset if offset else active
        self._res_times[current, cols] += report.step_ns
        self._res_seen[current, cols] = True

        destinations = frontier.current[active]
        dest_owner = self._owner[destinations]
        # A boundary crossing needs a foreign destination owner AND an
        # actual move — walkers that stayed put (termination, or a
        # self-loop landing on the node they already occupy) generate no
        # traffic even when riding a ghost copy of a remote node.
        crossing = dest_owner != current
        crossing &= destinations != report.nodes
        idx = np.flatnonzero(crossing)
        if idx.size == 0:
            return
        if self._ghost_flat is not None:
            hit = self._ghost_flat[current[idx] * self._num_nodes + destinations[idx]]
            hits = int(np.count_nonzero(hit))
            if hits:
                self.ghost_hits += hits
                idx = idx[~hit]
                if idx.size == 0:
                    return
        count = int(idx.size)
        self.remote_steps += count
        movers = active[idx]
        dest = dest_owner[idx]
        self._mig_steps.append(np.full(count, step_ordinal, dtype=np.int64))
        self._mig_queries.append(movers + offset if offset else movers)
        self._mig_src.append(current[idx])
        self._mig_dst.append(dest)
        hosts[movers] = dest
        self._comm_cache = None

    def migrations_at(self, step_ordinal: int) -> tuple[np.ndarray, np.ndarray]:
        """The (src, dst) endpoints of the migrations logged at one ordinal.

        Used by the fault-injection runtime to price resending a dropped
        step's coalesced batches.  Only the most recent log entry is
        consulted — :meth:`observe` appends at most one entry per superstep
        and the drop is checked right after the observe call.
        """
        if self._mig_steps and int(self._mig_steps[-1][0]) == step_ordinal:
            return self._mig_src[-1], self._mig_dst[-1]
        return _NO_FINISHED, _NO_FINISHED

    def take_over(
        self, dead: list[int], survivors: list[int], frontier: WalkerFrontier
    ) -> None:
        """Degraded-mode shard takeover after permanent device failures.

        The dead devices' node ranges are re-owned round-robin by the
        survivors (on a private copy — the shared
        :class:`~repro.graph.sharded.ShardedCSRGraph` decomposition is never
        mutated), and every walker hosted on a dead device re-hosts onto
        the new owner of its current node.  With no survivors the
        replacement-device policy applies: ownership stays with the standby
        that inherits the dead device's identity.

        Work the dead device executed before failing stays on its ledger —
        its partial kernel still contributes to the makespan, which is the
        honest account of a mid-run loss.
        """
        if not survivors:
            return
        owner = self._owner.copy()
        pool = np.asarray(survivors, dtype=np.int64)
        for device in dead:
            nodes = np.flatnonzero(owner == device)
            if nodes.size:
                owner[nodes] = pool[np.arange(nodes.size) % pool.size]
        self._owner = owner
        dead_arr = np.asarray(dead, dtype=np.int64)
        for offset, hosts in self._hosts.items():
            stale = np.flatnonzero(np.isin(hosts, dead_arr))
            if stale.size:
                hosts[stale] = owner[frontier.current[stale + offset]]
        self._comm_cache = None

    # ------------------------------------------------------------------ #
    def _comm_summary(self) -> _CommSummary:
        """Coalesce the migration log into per-batch transfers (cached).

        Migrations are grouped by (walker step index, source, destination);
        each group is one interconnect message costing one latency plus the
        batch payload over bandwidth.  Every migrating walker is assigned
        its equal share of its batch for the per-query communication view.
        Grouping by step index (not wall-clock superstep) makes the batches
        — and therefore every derived number — invariant to how queries
        were split into waves.
        """
        if self._comm_cache is not None:
            return self._comm_cache
        k = self.num_shards
        if self._mig_steps:
            steps = np.concatenate(self._mig_steps)
            queries = np.concatenate(self._mig_queries)
            src = np.concatenate(self._mig_src)
            dst = np.concatenate(self._mig_dst)
            keys = (steps * k + src) * k + dst
            unique, inverse, counts = np.unique(
                keys, return_inverse=True, return_counts=True
            )
            batch_ns = self._latency_ns + counts * (
                WALKER_MIGRATION_BYTES / self._bytes_per_ns
            )
            per_device = np.bincount(
                (unique // k) % k, weights=batch_ns, minlength=k
            )
            # No canonicalising sort is needed for the per-query view: a
            # query's migrations enter the log in walk-step order under
            # every wave composition (observe() runs the supersteps of its
            # wave in order), so each query's float shares always
            # accumulate in the same sequence.
            shares = batch_ns[inverse] / counts[inverse]
            summary = _CommSummary(
                queries=queries,
                shares=shares,
                per_device_ns=per_device,
                num_batches=int(unique.size),
            )
        else:
            summary = _CommSummary(
                queries=np.zeros(0, dtype=np.int64),
                shares=np.zeros(0, dtype=np.float64),
                per_device_ns=np.zeros(k, dtype=np.float64),
                num_batches=0,
            )
        self._comm_cache = summary
        return summary

    @property
    def comm_ns(self) -> np.ndarray:
        """Per-source-device interconnect time (coalesced batch costs)."""
        return self._comm_summary().per_device_ns

    @property
    def migration_batches(self) -> int:
        """Coalesced interconnect messages sent (batches, not walkers)."""
        return self._comm_summary().num_batches

    def per_query_comm_ns(self, num_queries: int) -> np.ndarray:
        """Each query's share of the batched transfers it rode in.

        A walker in a batch of ``c`` is charged ``1/c`` of the batch cost —
        per-query shares sum (to float tolerance) to the total interconnect
        time, and the accumulation order is canonical (query, step index),
        so the array is identical however the run was waved.
        """
        summary = self._comm_summary()
        out = np.zeros(num_queries, dtype=np.float64)
        np.add.at(out, summary.queries, summary.shares)
        return out

    def _fold_pending_counters(self) -> None:
        """Materialise the accumulated per-device counter sums.

        ``observe`` folds every superstep's counts into ``_counter_sums``
        eagerly (so the superstep's CounterBatch is released right away);
        this flushes those sums into the ``device_aggs`` objects and zeroes
        the matrix, which keeps repeated kernel builds idempotent.
        """
        sums = self._counter_sums
        if not sums.any():
            return
        for j, name in enumerate(CostCounters._COUNT_FIELDS):
            row = sums[j]
            if not row.any():
                continue
            for d in range(self.num_shards):
                if row[d]:
                    agg = self.device_aggs[d]
                    setattr(agg, name, getattr(agg, name) + int(row[d]))
        sums[:] = 0.0

    def device_kernels(self, scheduling: str) -> list[KernelResult]:
        """Build one kernel per shard device from the accumulated task log.

        The schedulable unit is one *resident walker*: all the work query
        ``q`` executed on device ``d`` — its queue fetch plus every
        walker-step hosted there — is one unit pulled from the device's
        query queue, exactly the one-query-per-processing-unit model of the
        replicated kernels (Section 5.3).  Per-unit times accumulate in
        walk-step order whatever submit/stream interleaving produced the
        log, so sessions reconstruct the one-shot makespans bit-for-bit.
        The device's coalesced migration traffic overlaps the compute
        through the executor's interconnect hook (only the excess beyond
        the lane makespan serialises).  Safe to call repeatedly (a session
        may collect more than once): the ledgers are only read.
        """
        self._fold_pending_counters()
        executor = KernelExecutor(self.engine.device)
        kernels = []
        comm = self.comm_ns
        used = self._res_used
        for d in range(self.num_shards):
            # The walkers resident on this device, in query-id order; each
            # one's ledger cell already holds its fetch plus every hosted
            # step, accumulated in walk-step order.
            tasks = self._res_times[d, :used][self._res_seen[d, :used]]
            kernels.append(
                executor.execute(
                    tasks,
                    counters=self.device_aggs[d].copy(),
                    scheduling=scheduling,
                    comm_ns=float(comm[d]),
                    comm_overlap=True,
                )
            )
        return kernels


def fold_query_counts(counts: np.ndarray, columns: np.ndarray, counters: CounterBatch) -> None:
    """Add one superstep's per-walker counts into a per-query count matrix.

    ``counts`` is ``(len(_COUNT_FIELDS), num_queries)``; slot ``j`` of
    ``counters`` lands in column ``columns[j]``.  Integer counts, so the
    sums are exact whatever the order or grouping of supersteps.
    """
    for row, name in enumerate(CostCounters._COUNT_FIELDS):
        column = getattr(counters, name)
        if column.any():
            counts[row, columns] += column


#: Row of the queue-fetch atomic in a per-query count matrix.
_ATOMIC_ROW = CostCounters._COUNT_FIELDS.index("atomic_ops")


class WaveStep(NamedTuple):
    """What one :meth:`Wave.advance` call executed.

    ``finished`` holds the wave positions whose walks completed (ascending);
    ``counters`` is the step's operation totals, filled only when some walk
    completed (the only time a streaming caller reads them).
    """

    finished: np.ndarray
    steps: int
    counters: CostCounters | None


class Wave:
    """A batch of walkers executed superstep by superstep: the one driver.

    :meth:`WalkEngine.run` drains a single wave, a standalone
    :class:`~repro.service.WalkSession` streams one wave per batch of queued
    submissions, and every continuous-batching fusion group is one wave that
    keeps growing through :meth:`admit`.  Batched engines advance the wave
    one superstep at a time through ``supersteps``
    (:func:`iter_supersteps`); when the engine has a fault plan or
    checkpointing, every superstep is preceded by
    :meth:`~repro.runtime.faults.FaultRuntime.restore_point` and followed by
    :meth:`~repro.runtime.faults.FaultRuntime.recover_superstep`, which
    replays any lost supersteps before :meth:`advance` returns.  Scalar
    engines interpret one whole walk per :meth:`advance` through
    :meth:`WalkEngine._scalar_walk`.  Either way each walker's stream lives
    in one :class:`~repro.rng.streams.AdoptedStreamPool` slot, its wave
    position.

    The wave only executes.  Every consequence of the work — fetch
    attribution, per-device hosting, failover, pricing, or a fusion group's
    per-session split — is the ledger's job: it receives
    ``charge_fetch``, ``observe``, ``failover``, ``absorb`` and ``record``
    calls (see :class:`PlacementLedger`).

    ``track_finished=False`` skips per-walk completion bookkeeping (every
    step then reports no finished walk) for callers that only want the
    drained result.
    """

    def __init__(
        self,
        ledger: PlacementLedger,
        queries: list[WalkQuery],
        supersteps=iter_supersteps,
        track_finished: bool = True,
    ) -> None:
        engine = ledger.engine
        self.ledger = ledger
        self.offset = len(ledger.queries)  # submission position of queries[0]
        self.track_finished = track_finished
        self.faults = engine._fault_runtime()
        # Executed supersteps: in a wave that never grows, every live
        # walker's step index (what sharded accounting keys migrations by).
        self.ordinal = 0
        self.done = False
        self.queries: list[WalkQuery] = []
        self.paths: list[list[int] | None] = []
        self.pool = AdoptedStreamPool()
        self.streams = None
        self.per_ns = np.zeros(0, dtype=np.float64)
        self.counts: np.ndarray | None = None
        self.frontier = WalkerFrontier([]) if engine.execution == "batched" else None
        self._supersteps = supersteps
        self._reports = None
        self._pos = 0  # scalar: the next walk to interpret
        self.admit(queries)

    def admit(self, queries: list[WalkQuery]) -> np.ndarray:
        """Append walkers; they join the wave's next superstep.

        The ledger charges each query's queue fetch (one atomic, priced per
        slot, so splitting a launch into several admissions cannot change
        any walker's accounting), and each walker adopts the stream
        ``StreamPool(seed)`` mints for its query id.  Admission drops the
        fault restore point: the next superstep boundary snapshots the grown
        state.  Returns the admitted walkers' wave positions.
        """
        ledger = self.ledger
        start = len(self.queries)
        fetch_ns, counts = ledger.charge_fetch(queries, self.offset + start)
        self.queries.extend(queries)
        self.paths.extend([None] * len(queries))
        self.pool.adopt(ledger.engine.seed, [q.query_id for q in queries])
        self.per_ns = np.concatenate([self.per_ns, fetch_ns])
        if counts is not None:
            self.counts = (
                counts if self.counts is None else np.concatenate([self.counts, counts], axis=1)
            )
        if self.frontier is not None:
            self.frontier.extend(queries)
            self.streams = self.pool.batch_all()
        if self.faults is not None:
            self.faults.checkpoint = None
        self.done = False
        return np.arange(start, len(self.queries), dtype=np.int64)

    def terminate(self, positions: np.ndarray) -> None:
        """Stop walkers mid-walk (scheduler cancellation).

        Drops the fault restore point: restoring one taken before the
        termination would resurrect the walkers.
        """
        self.frontier.terminate(positions)
        if self.faults is not None:
            self.faults.checkpoint = None

    @property
    def in_flight(self) -> int:
        """Walks of this wave that have not completed yet."""
        if self.frontier is None:
            return len(self.queries) - self._pos
        return int(self.frontier.active_indices().size)

    def drain(self) -> None:
        """Advance until every walk of the wave has completed."""
        while not self.done:
            self.advance()

    def advance(self) -> WaveStep | None:
        """Execute one superstep (batched) or one walk (scalar).

        Returns ``None`` when the wave has no work left — ``done`` is then
        set and the wave's accounting has been handed to the ledger.
        """
        if self.frontier is None:
            return self._advance_scalar()
        ledger = self.ledger
        if self._reports is None:
            if not self.in_flight:
                self._finish()
                return None
            self._reports = self._supersteps(self)
        faults = self.faults
        if faults is not None:
            state = (self.frontier, self.pool, self.per_ns, ledger.aggregate, ledger.usage)
            faults.restore_point(state)
        report = next(self._reports, None)
        if report is None:
            self._reports = None
            self._finish()
            return None
        finished = report.finished
        for i in finished:
            self.paths[i] = self.frontier.path(i)
        ledger.observe(self, report)
        self.ordinal += 1
        if faults is not None:
            charge = faults.recover_superstep(
                report, state, self._regenerate,
                on_failure=lambda dead: ledger.failover(self, dead),
            )
            ledger.absorb(charge)
        if finished.size == 0:
            return WaveStep(finished, report.steps, None)
        return WaveStep(finished, report.steps, report.counters.totals())

    def _regenerate(self):
        """Install a fresh superstep generator over the (restored) wave."""
        self._reports = self._supersteps(self)
        return self._reports

    def _advance_scalar(self) -> WaveStep | None:
        pos = self._pos
        if pos == len(self.queries):
            self._finish()
            return None
        ledger = self.ledger
        query = self.queries[pos]
        path, query_ns, counters, steps = ledger.engine._scalar_walk(
            query, self.pool.stream(pos), ledger.usage,
            start_ns=float(self.per_ns[pos]),
        )
        ledger.aggregate.merge(counters)
        ledger.total_steps += steps
        self.per_ns[pos] = query_ns
        if self.counts is not None:
            self.counts[:, pos] += [getattr(counters, n) for n in CostCounters._COUNT_FIELDS]
        self.paths[pos] = path
        self._pos += 1
        # The walk is the step: its counters include its queue fetch.
        counters = counters.copy()
        counters.atomic_ops += 1
        return WaveStep(np.array([pos], dtype=np.int64), steps, counters)

    def _finish(self) -> None:
        paths = self.paths
        if self.frontier is not None and not self.track_finished:
            paths = self.frontier.paths()
        self.ledger.record(self.queries, paths, self.per_ns, self.counts)
        self.done = True


class PlacementLedger:
    """Where a run's work lands: per-device accounting for every placement.

    One ledger accompanies one :meth:`WalkEngine.run` or one session, and
    turns the executed waves into a :class:`WalkRunResult`.  Placement is an
    owner map over the same executed work:

    * **replicated, one device** — everything lands on device 0, so the
      ledger keeps no per-device state and does no per-superstep folding;
    * **replicated, D devices** — each query belongs to its partition's
      device.  The partition is taken over the *whole* submitted batch when
      the result is built (the balanced policy needs every start node), so
      the ledger keeps a per-query counter matrix and folds it per device
      only then.  A device failure re-homes the dead device's queries round
      robin onto the survivors: counts executed before the failure stay on
      the device that ran them, later ones follow the new owner;
    * **sharded** — each walker-step belongs to the shard hosting the
      walker; :class:`ShardedRunAccounting` follows the walkers around,
      takes over a dead device's shards and logs the migrations an
      interconnect drop must resend.

    Waves report to the ledger through :meth:`charge_fetch`,
    :meth:`observe`, :meth:`failover`, :meth:`absorb` and :meth:`record`.
    A scheduler-attached session's walkers run in its fusion group's wave,
    which reports to a scheduler-private group ledger instead.  That ledger
    fans the per-session fold, :meth:`failover` and :meth:`absorb` out to
    the ledgers of the sessions involved, and the scheduler hands a
    session's finished walks to its ledger's :meth:`record` when the
    session goes idle.
    """

    def __init__(self, engine: WalkEngine) -> None:
        self.engine = engine
        self.sharded = None
        if engine.num_devices > 1 and engine.graph_placement == "sharded":
            self.sharded = ShardedRunAccounting(
                engine, engine._sharded_graph(), ghost=engine._ghost_cache()
            )
        #: Whether waves keep a per-query counter matrix (replicated, D > 1).
        self.tracks_counts = engine.num_devices > 1 and self.sharded is None
        self.aggregate = CostCounters(bytes_per_weight=engine.weight_bytes)
        self.usage: dict[str, int] = {}
        self.total_steps = 0
        #: Executed queries and their walks, in submission order.
        self.queries: list[WalkQuery] = []
        self.paths: list[list[int]] = []
        self._ns: list[np.ndarray] = []
        self._counts: list[np.ndarray] = []
        # Replicated failovers, in the order the failures happened: (queries
        # recorded by then, the query ids in flight, their counts so far,
        # dead devices, survivors).
        self._failovers: list[tuple[int, list[int], np.ndarray, list[int], list[int]]] = []
        self.recovery_ns = 0.0
        self.checkpoints_taken = 0
        self.degraded: list[int] = []

    # -- what waves report ---------------------------------------------- #
    def charge_fetch(
        self, queries: list[WalkQuery], offset: int
    ) -> tuple[np.ndarray, np.ndarray | None]:
        """Charge each query's queue fetch (one atomic, priced per slot).

        Returns the wave's per-query time accumulator, seeded with the fetch
        times, and its per-query counter matrix (``None`` unless the ledger
        tracks counts).  Lane pricing is per slot, so splitting one launch
        into several waves cannot change any walker's accounting.
        """
        engine = self.engine
        fetch = CounterBatch(len(queries), bytes_per_weight=engine.weight_bytes)
        fetch.atomic_ops += 1
        self.aggregate.merge(fetch.totals())
        per_ns = engine.device.lane_times_ns(fetch)
        counts = None
        if self.sharded is not None:
            starts = np.array([q.start_node for q in queries], dtype=np.int64)
            self.sharded.charge_fetch(starts, per_ns, offset=offset)
        elif self.tracks_counts:
            counts = np.zeros((len(CostCounters._COUNT_FIELDS), len(queries)), dtype=np.int64)
            counts[_ATOMIC_ROW] = 1
        return per_ns, counts

    def observe(self, wave: Wave, report: SuperstepReport) -> None:
        """Fold one executed superstep of ``wave`` (replays are never observed)."""
        self.total_steps += report.steps
        if self.sharded is not None:
            self.sharded.observe(report, wave.frontier, wave.ordinal, offset=wave.offset)
            if wave.faults is not None:
                src, dst = self.sharded.migrations_at(wave.ordinal)
                wave.faults.charge_interconnect_drop(
                    wave.ordinal, src, dst, WALKER_MIGRATION_BYTES
                )
        elif wave.counts is not None:
            fold_query_counts(wave.counts, report.active, report.counters)

    def failover(
        self, wave: Wave, dead: list[int], walkers: np.ndarray | None = None
    ) -> None:
        """Degraded mode: move the dead devices' work onto the survivors.

        ``walkers`` are the wave positions of this ledger's queries — the
        whole wave unless the wave is a fusion group's, which also carries
        other sessions' walkers.  A replicated ledger snapshots their counts
        so far by query id: those executed before the failure stay on the
        device that ran them.
        """
        survivors = wave.faults.survivors()
        if self.sharded is not None:
            frontier = wave.frontier
            if wave.offset:
                # take_over indexes walkers by session-wide position.  The
                # walkers of earlier waves have all finished and are never
                # observed again, so their re-hosting is immaterial.
                frontier = SimpleNamespace(current=np.concatenate(
                    [np.zeros(wave.offset, dtype=np.int64), frontier.current]
                ))
            self.sharded.take_over(dead, survivors, frontier)
        elif self.tracks_counts:
            if walkers is None:
                walkers = np.arange(len(wave.queries))
            self._failovers.append((
                len(self.queries),
                [wave.queries[i].query_id for i in walkers],
                wave.counts[:, walkers],
                dead,
                survivors,
            ))

    def record(
        self,
        queries: list[WalkQuery],
        paths: list[list[int]],
        per_ns: np.ndarray,
        counts: np.ndarray | None,
    ) -> None:
        """Append finished queries (submission order) with their accounting."""
        self.queries.extend(queries)
        self.paths.extend(paths)
        self._ns.append(per_ns)
        if counts is not None:
            self._counts.append(counts)

    def absorb(self, charge: RecoveryCharge) -> None:
        """Fold what one recovery step charged into the recovery ledger."""
        for ns in charge.ns:
            self.recovery_ns += ns
        self.checkpoints_taken += charge.checkpoints
        self.degraded.extend(d for d in charge.degraded if d not in self.degraded)

    # -- the result ------------------------------------------------------ #
    def _replicated_devices(self, per_query_ns: np.ndarray) -> list[KernelResult]:
        """Per-device kernels over the full-batch partition."""
        engine = self.engine
        num_devices = engine.num_devices
        counts = np.concatenate(self._counts, axis=1)
        owner = np.empty(counts.shape[1], dtype=np.int64)
        for d, part in enumerate(_partition_for_devices(engine, self.queries)):
            owner[part] = d
        device_counts = np.zeros((counts.shape[0], num_devices), dtype=np.int64)

        def fold(delta: np.ndarray) -> None:
            for d in range(num_devices):
                device_counts[:, d] += delta[:, owner == d].sum(axis=1)

        before = np.zeros_like(counts)
        if self._failovers:
            column = {q.query_id: i for i, q in enumerate(self.queries)}
        for recorded, query_ids, snapshot, dead, survivors in self._failovers:
            # Counts executed before the failure: every query already
            # recorded, plus the snapshot of the ones in flight.
            upto = np.zeros_like(counts)
            upto[:, :recorded] = counts[:, :recorded]
            upto[:, [column[q] for q in query_ids]] = snapshot
            fold(upto - before)
            reassign_owners(owner, dead, survivors)
            before = upto
        fold(counts - before)

        executor = KernelExecutor(engine.device)
        kernels = []
        for d in range(num_devices):
            agg = CostCounters(bytes_per_weight=engine.weight_bytes)
            for row, name in enumerate(CostCounters._COUNT_FIELDS):
                setattr(agg, name, int(device_counts[row, d]))
            part = np.flatnonzero(owner == d)
            kernels.append(
                executor.execute(per_query_ns[part], counters=agg, scheduling=engine.scheduling)
            )
        return kernels

    def result(self, profile: ProfileResult | None = None) -> WalkRunResult:
        """The exact :class:`WalkRunResult` of every query recorded so far."""
        from repro.runtime.engine import WalkRunResult

        engine = self.engine
        n = len(self.queries)
        per_query_ns = np.concatenate(self._ns) if self._ns else np.zeros(0)
        aggregate = self.aggregate.copy()
        sharded = self.sharded
        extra: dict[str, object] = {}
        if sharded is not None:
            device_kernels = sharded.device_kernels(engine.scheduling)
            extra = {
                "graph_placement": "sharded",
                "shard_policy": sharded.sharded.policy,
                "per_query_comm_ns": sharded.per_query_comm_ns(n),
                "comm_time_ns": float(sharded.comm_ns.sum()),
                "remote_steps": sharded.remote_steps,
                "ghost_hits": sharded.ghost_hits,
                "migration_batches": sharded.migration_batches,
            }
        elif self.tracks_counts:
            device_kernels = self._replicated_devices(per_query_ns)
        else:
            device_kernels = []
        if device_kernels:
            kernel = _merge_device_kernels(
                engine, device_kernels, aggregate, n, recovery_ns=self.recovery_ns
            )
            extra.update(num_devices=engine.num_devices, partition_policy=engine.partition_policy)
        else:
            kernel = KernelExecutor(engine.device).execute(
                per_query_ns,
                counters=aggregate,
                scheduling=engine.scheduling,
                recovery_ns=self.recovery_ns,
            )
        return WalkRunResult(
            paths=[list(p) for p in self.paths],
            per_query_ns=per_query_ns,
            counters=aggregate,
            kernel=kernel,
            sampler_usage=dict(self.usage),
            total_steps=self.total_steps,
            profile=profile,
            preprocess_time_ns=(
                engine.compiled.preprocessing_time_ns if engine.compiled is not None else 0.0
            ),
            device_kernels=device_kernels,
            degraded_devices=tuple(self.degraded),
            recovery_time_ns=self.recovery_ns,
            checkpoints_taken=self.checkpoints_taken,
            compiler_warnings=engine._compiler_warnings(),
            **extra,
        )


def _merge_device_kernels(
    engine: WalkEngine,
    device_kernels: list[KernelResult],
    aggregate: CostCounters,
    num_queries: int,
    recovery_ns: float = 0.0,
) -> KernelResult:
    """The aggregate kernel view: completion at the slowest device, lane
    times concatenated so utilisation/imbalance diagnostics still work.
    Recovery time (checkpoints, retries, replay) serialises after the
    makespan — the whole step-synchronous fleet stalls while one device
    recovers."""
    makespan = max((k.time_ns for k in device_kernels), default=0.0)
    return KernelResult(
        time_ns=makespan + float(recovery_ns),
        total_work_ns=float(sum(k.total_work_ns for k in device_kernels)),
        lane_times_ns=(
            np.concatenate([k.lane_times_ns for k in device_kernels])
            if device_kernels else np.zeros(0)
        ),
        num_queries=num_queries,
        counters=aggregate,
        scheduling=engine.scheduling,
        comm_ns=float(sum(k.comm_ns for k in device_kernels)),
        recovery_ns=float(recovery_ns),
    )


def _apply_step_overhead(engine: WalkEngine, ctx: BatchStepContext,
                         part: np.ndarray, sampler) -> None:
    """Run a baseline's per-step framework-overhead hook for a partition.

    Hooks are scalar by contract (they model per-walker bookkeeping such as
    NextDoor's transit regrouping), so each walker gets a real
    :class:`StepContext` shim.  The scalar engine hands hooks the step's
    *live, already-populated* counters — a hook may read the counts the
    selection and the kernel just charged — so the shim's counters are
    seeded from the walker's slot and written back wholesale afterwards.
    """
    for i in part:
        slot = int(ctx.slots[int(i)])
        scalar_ctx, _ = ctx.scalar_context(int(i))
        scalar_ctx.counters = ctx.counters.snapshot(slot)
        engine.step_overhead(scalar_ctx, sampler)
        ctx.counters.write_back(slot, scalar_ctx.counters)
