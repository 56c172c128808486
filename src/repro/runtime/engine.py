"""The walk engine: executes a batch of walk queries on the simulated GPU.

One engine instance binds together a graph, a workload specification, a
device model, a sampling-strategy selector and (optionally) the
compiler-generated estimation helpers.  Running a batch of queries produces
the walks themselves *and* the simulated execution profile: per-query lane
times, aggregated operation counters, the kernel makespan from the executor,
and the per-kernel selection statistics behind Fig. 14.

The same engine class also powers the baseline framework models
(:mod:`repro.baselines`): a baseline is simply an engine with a fixed
selector, its own device preset and a per-step framework-overhead hook.
"""

from __future__ import annotations

import copy
import time
from dataclasses import dataclass, field
from collections.abc import Callable

import numpy as np

from repro.compiler.generator import CompiledWorkload
from repro.errors import SimulationError
from repro.graph.csr import CSRGraph
from repro.gpusim.counters import CostCounters
from repro.gpusim.device import A6000, DeviceSpec
from repro.gpusim.executor import KernelResult
from repro.gpusim.multigpu import PARTITION_POLICIES, occupied_load_imbalance
from repro.runtime.profiler import ProfileResult
from repro.runtime.scheduler import validate_queries
from repro.runtime.selector import FixedSelector, SamplerSelector
from repro.sampling.base import Sampler, StepContext, is_dead_end
from repro.sampling.ervs import EnhancedReservoirSampler
from repro.walks.spec import WalkSpec
from repro.walks.state import WalkerState, WalkQuery

#: Valid execution modes of :class:`WalkEngine`.
EXECUTION_MODES = ("batched", "scalar")

#: Valid graph placements of a multi-device run: ``"replicated"`` copies the
#: whole graph onto every device and partitions the queries (Fig. 15);
#: ``"sharded"`` partitions the graph into per-device node-range shards and
#: migrates walkers across the interconnect instead.
GRAPH_PLACEMENTS = ("replicated", "sharded")


class EngineCaches:
    """Shared, lazily-built per-(graph, spec) engine caches.

    The caches — the per-node compiler hint tables, the cross-superstep
    :class:`~repro.sampling.transition_cache.TransitionCache` and the
    :class:`~repro.graph.sharded.ShardedCSRGraph` decompositions (keyed by
    shard count and policy) — are pure functions of the (graph, spec) pair,
    so every engine bound to the same pair may share one holder: the clones
    minted by :meth:`WalkEngine.with_devices` do, and the service layer
    (:mod:`repro.service`) hands one holder to every session of the same
    workload.  Keeping them in a separate mutable object (instead of plain
    engine attributes) is what makes the sharing order-independent: a cache
    built *after* the engines split is still seen by all of them.
    """

    __slots__ = ("hint_tables", "transition_cache", "sharded_graphs", "ghost_tables")

    def __init__(self) -> None:
        self.hint_tables = None
        self.transition_cache = None
        self.sharded_graphs: dict[tuple[int, str], object] = {}
        # Ghost caches keyed by (num_devices, shard_policy, budget_bytes,
        # weight_bytes) — pure functions of the decomposition + budget.
        self.ghost_tables: dict[tuple[int, str, int, int], object] = {}

#: Signature of the per-step framework-overhead hook used by baseline models:
#: it receives the step context and the kernel that ran, and may add counts.
StepOverhead = Callable[[StepContext, Sampler], None]


@dataclass
class WalkRunResult:
    """Everything produced by one simulated walk-kernel run.

    A multi-device run (``num_devices > 1``) is still *one* result: paths,
    per-query times and counter totals are placement-invariant (each walker
    owns a counter-based stream keyed by its query id), so they are reported
    in submission order exactly like a single-device run.  What the
    placement does change is captured in ``device_kernels`` — one
    :class:`~repro.gpusim.executor.KernelResult` per simulated device — and
    ``kernel`` then holds the aggregate view whose ``time_ns`` is the
    makespan over devices.

    Graph-sharded runs (``graph_placement == "sharded"``) additionally
    report the modeled communication: ``per_query_comm_ns`` (interconnect
    time each walk spent migrating between shards — kept *separate* from
    the placement-invariant base times in ``per_query_ns``),
    ``comm_time_ns`` (total interconnect time) and ``remote_steps`` (steps
    whose sampled destination was owned by another shard).
    """

    paths: list[list[int]]
    per_query_ns: np.ndarray
    counters: CostCounters
    kernel: KernelResult
    sampler_usage: dict[str, int] = field(default_factory=dict)
    total_steps: int = 0
    profile: ProfileResult | None = None
    preprocess_time_ns: float = 0.0
    wall_clock_s: float = 0.0
    num_devices: int = 1
    partition_policy: str | None = None
    device_kernels: list[KernelResult] = field(default_factory=list)
    graph_placement: str = "replicated"
    shard_policy: str | None = None
    per_query_comm_ns: np.ndarray | None = None
    comm_time_ns: float = 0.0
    remote_steps: int = 0
    ghost_hits: int = 0
    migration_batches: int = 0
    degraded_devices: tuple[int, ...] = ()
    recovery_time_ns: float = 0.0
    checkpoints_taken: int = 0
    #: Compiler fallback reasons (``AnalysisResult.warnings``): non-empty
    #: when the workload ran eRVS-only because get_weight could not be
    #: specialised.  Surfaced here so the degradation is visible at the
    #: result layer, not just as a one-shot CompilerWarning.
    compiler_warnings: tuple[str, ...] = ()

    @property
    def time_ms(self) -> float:
        """Simulated main walk execution time (excludes profiling/preprocessing).

        For multi-device runs this is the makespan: the slowest device's
        kernel time.
        """
        return self.kernel.time_ms

    @property
    def makespan_ns(self) -> float:
        """Simulated completion time over all devices (== ``kernel.time_ns``)."""
        return self.kernel.time_ns

    @property
    def device_times_ns(self) -> np.ndarray:
        """Per-device kernel times (a single-element array for one device)."""
        if self.device_kernels:
            return np.array([k.time_ns for k in self.device_kernels], dtype=np.float64)
        return np.array([self.kernel.time_ns], dtype=np.float64)

    @property
    def load_imbalance(self) -> float:
        """Max-over-mean device time across *occupied* devices (Fig. 15).

        Computed by :func:`repro.gpusim.multigpu.occupied_load_imbalance`
        (idle devices are excluded); 1.0 for single-device runs.
        """
        return occupied_load_imbalance(self.device_kernels)

    @property
    def remote_edge_ratio(self) -> float:
        """Fraction of executed steps that crossed a shard boundary.

        The headline statistic of the sharded bench experiment; 0.0 for
        replicated and single-device runs (no boundary exists to cross).
        """
        if self.total_steps == 0:
            return 0.0
        return self.remote_steps / self.total_steps

    @property
    def comm_time_ms(self) -> float:
        """Modeled interconnect time in milliseconds (0 unless sharded)."""
        return self.comm_time_ns / 1e6

    @property
    def ghost_hit_ratio(self) -> float:
        """Boundary crossings served by a local ghost copy instead of a
        migration (0.0 when no crossing happened or no ghost cache ran)."""
        crossings = self.ghost_hits + self.remote_steps
        if crossings == 0:
            return 0.0
        return self.ghost_hits / crossings

    @property
    def throughput_steps_per_s(self) -> float:
        """Simulated walk steps executed per *wall-clock* second.

        The observable behind the engine's performance work: simulated
        quantities (``time_ms``, counters) are identical across execution
        modes by design, so host-side throughput is how a speedup of the
        simulator itself shows up.  0.0 when no wall-clock was recorded.
        """
        if self.wall_clock_s <= 0.0:
            return 0.0
        return self.total_steps / self.wall_clock_s

    @property
    def overhead_ms(self) -> float:
        """Simulated profiling + preprocessing time (Table 3)."""
        profile_ns = self.profile.simulated_time_ns if self.profile else 0.0
        return (profile_ns + self.preprocess_time_ns) / 1e6

    @property
    def total_time_ms(self) -> float:
        return self.time_ms + self.overhead_ms

    @property
    def start_nodes(self) -> np.ndarray:
        return np.array([path[0] for path in self.paths], dtype=np.int64)

    def selection_ratio(self) -> dict[str, float]:
        """Fraction of steps handled by each kernel (the Fig. 14 metric)."""
        total = sum(self.sampler_usage.values())
        if total == 0:
            return {}
        return {name: count / total for name, count in sorted(self.sampler_usage.items())}

    def average_walk_length(self) -> float:
        if not self.paths:
            return 0.0
        return float(np.mean([len(p) - 1 for p in self.paths]))

    def summary(self) -> dict[str, object]:
        """Condense the run into the quantities reported in the paper's tables.

        Returns a plain dictionary (easy to print, compare or serialise) with
        the simulated execution time, the profiling/preprocessing overhead,
        walk statistics and the kernel-selection ratio.
        """
        lengths = np.array([len(path) - 1 for path in self.paths], dtype=np.int64)
        return {
            "num_queries": len(self.paths),
            "total_steps": self.total_steps,
            "avg_walk_length": float(lengths.mean()) if lengths.size else 0.0,
            "min_walk_length": int(lengths.min()) if lengths.size else 0,
            "max_walk_length": int(lengths.max()) if lengths.size else 0,
            "time_ms": self.time_ms,
            "overhead_ms": self.overhead_ms,
            "total_time_ms": self.total_time_ms,
            "utilization": self.kernel.utilization,
            "load_imbalance": self.kernel.load_imbalance,
            "num_devices": self.num_devices,
            "device_load_imbalance": self.load_imbalance,
            "graph_placement": self.graph_placement,
            "remote_edge_ratio": self.remote_edge_ratio,
            "comm_time_ms": self.comm_time_ms,
            "ghost_hit_ratio": self.ghost_hit_ratio,
            "migration_batches": self.migration_batches,
            "degraded_devices": list(self.degraded_devices),
            "recovery_time_ms": self.recovery_time_ns / 1e6,
            "checkpoints_taken": self.checkpoints_taken,
            "selection_ratio": self.selection_ratio(),
            "memory_accesses": self.counters.total_memory_accesses,
            "rng_draws": self.counters.rng_draws,
            "rejection_trials": self.counters.rejection_trials,
            "wall_clock_s": self.wall_clock_s,
            "throughput_steps_per_s": self.throughput_steps_per_s,
            "compiler_warnings": list(self.compiler_warnings),
        }


class WalkEngine:
    """Simulated execution of dynamic random walks on one device.

    Parameters
    ----------
    graph / spec:
        The graph and the workload logic.
    device:
        Device cost model (defaults to the A6000 preset).
    selector:
        Sampling-strategy selection policy; defaults to eRVS-only, which is
        also the automatic fallback when no compiled workload is supplied.
    compiled:
        Output of :func:`repro.compiler.compile_workload`; provides the
        max/sum estimation helpers.  When absent (or unsupported) the engine
        runs without bound hints, exactly like the paper's fallback mode.
    warp_width:
        Cooperative width for warp kernels (32 on NVIDIA hardware).
    weight_bytes:
        Stored width of property weights (8 = float64; 1 models the INT8
        extension of Section 7.2).
    scheduling:
        Query-to-lane scheduling policy, ``"dynamic"`` (global queue) or
        ``"static"``.
    selection_overhead:
        Charge the per-step cost of evaluating the selection rule (disabled
        for baseline models, which have no runtime selection).
    warp_switch_overhead:
        Charge the ballot/shuffle cost of the concurrent RJS/RVS kernel
        (Section 5.2) whenever a warp-cooperative kernel runs.
    step_overhead:
        Optional per-step hook for baseline framework overheads.
    execution:
        ``"batched"`` (default) runs the step-synchronous frontier loop that
        vectorises each superstep across all active walkers;``"scalar"``
        keeps the original one-query-at-a-time interpreter.  Both modes
        produce identical paths, counter totals and simulated timings for a
        fixed seed policy (the parity suite enforces this), so the scalar
        mode exists purely as the executable specification the batched
        engine is checked against.
    num_devices:
        Number of replicated-graph devices the query batch is partitioned
        over (Fig. 15).  Every device's walkers execute in one shared wave
        and the placement ledger prices each device's share; walker
        randomness is keyed by query id, so placement never changes any
        walk — only the makespan.
    partition_policy:
        Query-to-device mapping: ``"hash"`` (the paper's choice),
        ``"range"`` (contiguous slices) or ``"balanced"`` (greedy
        longest-processing-time packing by start-node degree).  Only
        meaningful for replicated placement — sharded runs route each
        walker to the shard owning its current node instead.
    graph_placement:
        ``"replicated"`` (default, the Fig. 15 model: the whole graph on
        every device) or ``"sharded"`` (the graph split into per-device
        node-range shards; walkers migrate across the modeled interconnect
        when a step crosses a shard boundary).  Sharding needs
        ``num_devices > 1`` to mean anything and the batched execution
        mode; paths, counters and per-query base times stay bit-identical
        to the replicated run either way.
    shard_policy:
        Node decomposition used when ``graph_placement="sharded"``:
        ``"contiguous"`` (equal node ranges), ``"degree_balanced"``
        (edge-count-balanced boundaries) or ``"locality"`` (streaming
        LDG-style cut-minimising partitioner).
    ghost_cache_bytes:
        Per-shard byte budget for ghost copies of the hottest remote
        nodes' adjacency slices (sharded placement only; 0 disables).
        Steps landing on a ghosted remote hub are served locally instead
        of migrating — base times stay bit-identical, only the modeled
        interconnect traffic (and ``ghost_hit_ratio``) changes.
    use_transition_cache:
        Enable the cross-superstep :class:`TransitionCache` for workloads the
        compiler classified as node-only (``weights_node_only``): per-node
        flattened weights, CDFs and alias tables are computed once per
        (graph, spec) and shared across supersteps, devices and repeated
        ``run`` calls.  Host-side only — paths, counter totals and simulated
        timings are identical either way (the cache parity suite enforces
        it); the flag exists so those tests can run both configurations.
    caches:
        Optional shared :class:`EngineCaches` holder.  Engines bound to the
        same (graph, spec) pair may pass the same holder so hint tables and
        the transition cache are built once and seen by all of them; by
        default every engine gets a private holder.
    checkpoint_interval:
        Take a walker-state checkpoint every this many supersteps (0, the
        default, disables explicit checkpointing; recovery then replays
        from the implicit cost-free checkpoint of the initial state).
        Checkpoint copy-outs are priced by
        :meth:`~repro.gpusim.device.DeviceSpec.checkpoint_time_ns` and
        surface as ``WalkRunResult.recovery_time_ns``.  Batched execution
        only.
    fault_plan:
        Optional :class:`~repro.runtime.faults.FaultPlan` of deterministic
        injected faults (device failures, transient kernel faults,
        interconnect drops).  Recovery is silent replay from the last
        checkpoint: paths, counters and per-query base times stay
        bit-identical to the fault-free run — only simulated time (and the
        ``degraded_devices`` roster after a permanent failure) changes.
        Batched execution only.
    """

    def __init__(
        self,
        graph: CSRGraph,
        spec: WalkSpec,
        device: DeviceSpec = A6000,
        selector: SamplerSelector | None = None,
        compiled: CompiledWorkload | None = None,
        seed: int = 0,
        warp_width: int = 32,
        weight_bytes: int = 8,
        scheduling: str = "dynamic",
        selection_overhead: bool = False,
        warp_switch_overhead: bool = False,
        step_overhead: StepOverhead | None = None,
        execution: str = "batched",
        num_devices: int = 1,
        partition_policy: str = "hash",
        graph_placement: str = "replicated",
        shard_policy: str = "contiguous",
        ghost_cache_bytes: int = 0,
        use_transition_cache: bool = True,
        caches: EngineCaches | None = None,
        checkpoint_interval: int = 0,
        fault_plan: FaultPlan | None = None,
    ) -> None:
        from repro.graph.sharded import SHARD_POLICIES

        if execution not in EXECUTION_MODES:
            raise SimulationError(
                f"unknown execution mode {execution!r}; valid: {EXECUTION_MODES}"
            )
        if num_devices < 1:
            raise SimulationError("num_devices must be at least 1")
        if partition_policy not in PARTITION_POLICIES:
            raise SimulationError(
                f"unknown partition policy {partition_policy!r}; valid: {PARTITION_POLICIES}"
            )
        if graph_placement not in GRAPH_PLACEMENTS:
            raise SimulationError(
                f"unknown graph placement {graph_placement!r}; valid: {GRAPH_PLACEMENTS}"
            )
        if shard_policy not in SHARD_POLICIES:
            raise SimulationError(
                f"unknown shard policy {shard_policy!r}; valid: {SHARD_POLICIES}"
            )
        if graph_placement == "sharded" and execution != "batched":
            raise SimulationError(
                "sharded graph placement requires the batched execution mode"
            )
        if ghost_cache_bytes < 0:
            raise SimulationError("ghost_cache_bytes must be non-negative")
        if checkpoint_interval < 0:
            raise SimulationError("checkpoint_interval must be non-negative")
        if execution == "scalar" and (
            checkpoint_interval > 0 or (fault_plan is not None and not fault_plan.empty)
        ):
            raise SimulationError(
                "fault injection and checkpointing require the batched execution mode"
            )
        self.graph = graph
        self.spec = spec
        self.device = device
        self.selector = selector or FixedSelector(EnhancedReservoirSampler())
        self.compiled = compiled
        self.seed = seed
        self.warp_width = int(warp_width)
        self.weight_bytes = int(weight_bytes)
        self.scheduling = scheduling
        self.selection_overhead = bool(selection_overhead)
        self.warp_switch_overhead = bool(warp_switch_overhead)
        self.step_overhead = step_overhead
        self.execution = execution
        self.num_devices = int(num_devices)
        self.partition_policy = partition_policy
        self.graph_placement = graph_placement
        self.shard_policy = shard_policy
        self.ghost_cache_bytes = int(ghost_cache_bytes)
        self.use_transition_cache = bool(use_transition_cache)
        self.caches = caches if caches is not None else EngineCaches()
        self.checkpoint_interval = int(checkpoint_interval)
        self.fault_plan = fault_plan

    # ------------------------------------------------------------------ #
    def run(
        self,
        queries: list[WalkQuery],
        profile: ProfileResult | None = None,
    ) -> WalkRunResult:
        """Execute every query and return walks plus the simulated profile."""
        from repro.runtime.frontier import PlacementLedger, Wave

        started = time.perf_counter()  # repro: ignore[internal/wall-clock]
        validate_queries(queries, self.graph.num_nodes)
        ledger = PlacementLedger(self)
        Wave(ledger, queries, track_finished=False).drain()
        result = ledger.result(profile)
        result.wall_clock_s = time.perf_counter() - started  # repro: ignore[internal/wall-clock]
        return result

    def with_devices(
        self,
        num_devices: int,
        partition_policy: str | None = None,
        graph_placement: str | None = None,
        shard_policy: str | None = None,
        ghost_cache_bytes: int | None = None,
    ) -> WalkEngine:
        """A copy of this engine re-targeted at a different device count.

        Shares the graph, spec, selector, compiled workload and the
        :class:`EngineCaches` holder (all placement-invariant), so re-running
        the same queries under several device counts, partition policies or
        graph placements — the Fig. 15 and sharded sweeps — costs no
        re-compilation, and a hint table, transition cache or shard
        decomposition built by either engine (before *or* after the clone)
        is seen by both.
        """
        from repro.graph.sharded import SHARD_POLICIES

        clone = copy.copy(self)
        if num_devices < 1:
            raise SimulationError("num_devices must be at least 1")
        policy = self.partition_policy if partition_policy is None else partition_policy
        if policy not in PARTITION_POLICIES:
            raise SimulationError(
                f"unknown partition policy {policy!r}; valid: {PARTITION_POLICIES}"
            )
        placement = self.graph_placement if graph_placement is None else graph_placement
        if placement not in GRAPH_PLACEMENTS:
            raise SimulationError(
                f"unknown graph placement {placement!r}; valid: {GRAPH_PLACEMENTS}"
            )
        shards = self.shard_policy if shard_policy is None else shard_policy
        if shards not in SHARD_POLICIES:
            raise SimulationError(
                f"unknown shard policy {shards!r}; valid: {SHARD_POLICIES}"
            )
        if placement == "sharded" and self.execution != "batched":
            raise SimulationError(
                "sharded graph placement requires the batched execution mode"
            )
        ghost = self.ghost_cache_bytes if ghost_cache_bytes is None else ghost_cache_bytes
        if ghost < 0:
            raise SimulationError("ghost_cache_bytes must be non-negative")
        clone.num_devices = int(num_devices)
        clone.partition_policy = policy
        clone.graph_placement = placement
        clone.shard_policy = shards
        clone.ghost_cache_bytes = int(ghost)
        return clone

    def _fault_runtime(self):
        """The per-run fault-tolerance runtime, or ``None`` on the fast path.

        Returns ``None`` whenever no fault plan is configured and explicit
        checkpointing is off, which keeps every run on the plain superstep
        loop — fault tolerance costs nothing unless it is asked for.  A
        fresh :class:`~repro.runtime.faults.FaultRuntime` is minted per run
        (it holds mutable per-run ledgers).
        """
        plan = self.fault_plan
        if (plan is None or plan.empty) and self.checkpoint_interval == 0:
            return None
        from repro.runtime.faults import FaultRuntime

        return FaultRuntime(
            self.device,
            plan=plan,
            checkpoint_interval=self.checkpoint_interval,
            num_devices=self.num_devices,
        )

    def _compiler_warnings(self) -> tuple[str, ...]:
        """Why the compiled workload fell back to eRVS-only (empty if it did not)."""
        if self.compiled is not None and not self.compiled.analysis.supported:
            return tuple(self.compiled.analysis.warnings)
        return ()

    def _sharded_graph(self):
        """The cached shard decomposition for this engine's count/policy.

        Keyed by ``(num_devices, shard_policy)`` on the shared
        :class:`EngineCaches` holder, so repeated runs, device clones and
        sibling sessions of the same workload split the graph once.
        """
        from repro.graph.sharded import ShardedCSRGraph

        key = (self.num_devices, self.shard_policy)
        sharded = self.caches.sharded_graphs.get(key)
        if sharded is None:
            sharded = ShardedCSRGraph.build(
                self.graph, self.num_devices, policy=self.shard_policy
            )
            self.caches.sharded_graphs[key] = sharded
        return sharded

    def _ghost_cache(self):
        """The cached ghost-node cache of this engine's sharded setup.

        ``None`` when no budget is configured; otherwise keyed by
        ``(num_devices, shard_policy, budget, weight_bytes)`` on the shared
        :class:`EngineCaches` holder so sibling engines/sessions build the
        degree ranking once.
        """
        if self.ghost_cache_bytes <= 0:
            return None
        key = (
            self.num_devices,
            self.shard_policy,
            self.ghost_cache_bytes,
            self.weight_bytes,
        )
        ghost = self.caches.ghost_tables.get(key)
        if ghost is None:
            ghost = self._sharded_graph().ghost_cache(
                self.ghost_cache_bytes, weight_bytes=self.weight_bytes
            )
            self.caches.ghost_tables[key] = ghost
        return ghost

    def _node_hint_tables(self):
        """Cached lazily-filled hint tables (node-only compiled workloads)."""
        if self.caches.hint_tables is None:
            from repro.runtime.frontier import NodeHintTables

            self.caches.hint_tables = NodeHintTables(self.compiled, self.graph)
        return self.caches.hint_tables

    def _transition_cache(self):
        """The engine's cross-superstep transition cache, or ``None``.

        Only node-only workloads (``compiled.weights_node_only``) qualify;
        the cache is created once and shared — through the
        :class:`EngineCaches` holder — across supersteps, repeated ``run``
        calls, the device clones minted by :meth:`with_devices` and every
        session the service layer binds to the same (graph, spec) pair,
        whichever of them happens to build it first.
        """
        if not self.use_transition_cache:
            return None
        if self.compiled is None or not self.compiled.weights_node_only:
            return None
        if self.caches.transition_cache is None:
            from repro.sampling.transition_cache import TransitionCache

            self.caches.transition_cache = TransitionCache(self.graph, self.spec)
        return self.caches.transition_cache

    # ------------------------------------------------------------------ #
    def _scalar_walk(
        self,
        query: WalkQuery,
        stream,
        usage: dict[str, int],
        start_ns: float = 0.0,
    ) -> tuple[list[int], float, CostCounters, int]:
        """Interpret one query to completion (the scalar per-walk kernel).

        Returns ``(path, simulated_ns, counter_totals, steps)`` where the
        simulated time accumulates per-step costs *onto* ``start_ns``
        (normally the already-priced queue-fetch cost) in step order — the
        same float association the batched engine uses, so the value is
        bit-identical however the surrounding loop batches queries.  This is
        the property the scalar :class:`~repro.runtime.frontier.Wave` relies
        on.
        """
        state = WalkerState.start(query)
        query_ns = float(start_ns)
        query_counters = CostCounters(bytes_per_weight=self.weight_bytes)
        steps = 0
        hints_available = self.compiled is not None and self.compiled.supported

        while not state.finished:
            if is_dead_end(self.graph, state.current_node):
                break
            counters = CostCounters(bytes_per_weight=self.weight_bytes)
            ctx = StepContext(
                graph=self.graph,
                state=state,
                spec=self.spec,
                rng=stream,
                counters=counters,
                warp_width=self.warp_width,
            )
            if hints_available:
                ctx.bound_hint = self.compiled.bound_hint(self.graph, state)
                ctx.sum_hint = self.compiled.sum_hint(self.graph, state)
                if self.selection_overhead:
                    # Reading the two preprocessed aggregates feeding the
                    # estimation helpers, plus their arithmetic.
                    counters.coalesced_accesses += 2
                    counters.weight_computations += 2

            sampler = self.selector.select(ctx)
            if self.warp_switch_overhead and sampler.processing_unit == "warp":
                # The concurrent kernel votes (__ballot_sync) and shares
                # the query parameters (__shfl_sync) before the warp
                # switches into the cooperative mode.
                counters.warp_syncs += 1

            next_node = sampler.sample(ctx)
            if self.step_overhead is not None:
                self.step_overhead(ctx, sampler)

            usage[sampler.name] = usage.get(sampler.name, 0) + 1
            steps += 1
            query_ns += self.device.lane_time_ns(counters)
            query_counters.merge(counters)

            if next_node is None:
                break
            self.spec.update(self.graph, state, next_node)
            state.advance(next_node)

        return state.path, query_ns, query_counters, steps
