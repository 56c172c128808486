"""The walk service: long-lived shared state behind many walk sessions.

``WalkService(graph)`` is the serving-shaped entry point this reproduction
grew toward: one service instance owns everything that is immutable across
requests — the CSR graph, the per-workload compiled artifacts, profiling
results, per-node hint tables and cross-superstep transition caches, and the
simulated :class:`~repro.service.plan.DeviceFleet` — and hands out
lightweight :class:`~repro.service.session.WalkSession` objects that carry
only per-tenant run state.  Compile once, profile once, serve many::

    service = WalkService(graph, fleet=DeviceFleet(A6000, count=4))
    n2v = service.session(Node2VecSpec())
    deep = service.session(DeepWalkSpec())       # shares the service caches
    ticket = n2v.submit(make_queries(graph.num_nodes, walk_length=20))
    for chunk in n2v.stream():
        ...                                      # walks as they finish
    result = n2v.collect()                       # exact aggregate

Two sessions over the *same* workload (same spec class and hyperparameters)
share one compiled workload, one profile, one hint table and one transition
cache; sessions over different workloads share the service and the graph.
Sharing is keyed by ``spec.describe()`` — custom workloads should report
every behaviour-affecting hyperparameter there.
"""

from __future__ import annotations

import weakref
from collections import OrderedDict
from typing import TYPE_CHECKING

import numpy as np

from repro.compiler.generator import CompiledWorkload, compile_workload
from repro.core.config import FlexiWalkerConfig
from repro.errors import ServiceError
from repro.graph.csr import CSRGraph
from repro.graph.delta import DeltaCSRGraph
from repro.graph.invalidation import (
    invalidation_for,
    rebind_engine_caches,
    repair_csr_caches,
)
from repro.runtime.cost_model import CostModel
from repro.runtime.engine import EngineCaches, WalkEngine
from repro.runtime.profiler import ProfileResult, profile_edge_costs
from repro.runtime.selector import (
    CostModelSelector,
    DegreeBasedSelector,
    FixedSelector,
    RandomSelector,
    SamplerSelector,
)
from repro.sampling.erjs import EnhancedRejectionSampler
from repro.sampling.ervs import EnhancedReservoirSampler
from repro.service.plan import (
    DeviceFleet,
    ExecutionPlan,
    ServiceCapabilities,
    declare_capabilities,
    negotiate_plan,
)
from repro.service.session import WalkSession
from repro.walks.spec import WalkSpec

if TYPE_CHECKING:  # pragma: no cover - typing only
    from repro.service.scheduler import ServiceScheduler

#: Default cap on the per-workload registries (compiled artifacts, profiles,
#: engine caches).  Each distinct ``spec.describe()`` key holds hint tables
#: and transition caches that can reach O(graph) size, so an unbounded
#: registry is a memory leak in a long-lived multi-tenant service.
DEFAULT_MAX_CACHED_WORKLOADS = 128


def build_selector(
    config: FlexiWalkerConfig,
    cost_model: CostModel,
    compiled: CompiledWorkload | None = None,
) -> SamplerSelector:
    """Construct the runtime selector a config asks for.

    Applies the paper's Section 7.1 safety rule: an unsupported workload
    (compiler fallback) must never run eRJS, whatever the configured policy
    says, so every policy that could pick it collapses to eRVS-only.
    """
    policy = config.selection
    if policy == "cost_model":
        selector: SamplerSelector = CostModelSelector(cost_model)
    elif policy == "ervs_only":
        selector = FixedSelector(EnhancedReservoirSampler())
    elif policy == "erjs_only":
        selector = FixedSelector(EnhancedRejectionSampler())
    elif policy == "random":
        selector = RandomSelector(seed=config.seed)
    elif policy == "degree":
        selector = DegreeBasedSelector(threshold=config.degree_threshold)
    else:  # pragma: no cover - FlexiWalkerConfig validates the policy
        raise ServiceError(f"unknown selection policy {policy!r}")
    if (
        compiled is not None
        and not compiled.supported
        and policy in ("cost_model", "erjs_only", "degree", "random")
    ):
        selector = FixedSelector(EnhancedReservoirSampler())
    return selector


class WalkService:
    """Shared immutable state plus compile/profile/cache registries.

    Parameters
    ----------
    graph:
        The input graph, shared by every session: a frozen
        :class:`~repro.graph.csr.CSRGraph`, or a
        :class:`~repro.graph.delta.DeltaCSRGraph` to serve a **dynamic**
        graph.  Either way ``service.graph`` is the compacted CSR snapshot
        of the *current* version (the bare CSR at version 0 — a frozen
        caller pays nothing), and :meth:`apply_delta` advances it.
    fleet:
        The simulated devices available to sessions (one A6000 by default).
    max_cached_workloads:
        LRU cap on each per-workload registry (compiled workloads,
        profiles, engine caches).  A long-lived service seeing an unbounded
        stream of distinct workload hyperparameters evicts the
        least-recently-used entries instead of growing forever; an evicted
        workload simply re-compiles (and re-profiles, re-builds its caches)
        on its next use.  ``None`` disables the cap.
    max_inflight_walkers:
        Default in-flight walker budget of schedulers built by
        :meth:`scheduler` (0 = unbounded) — the backpressure knob of the
        continuous-batching loop, recorded in the declared
        :class:`~repro.service.plan.ServiceCapabilities`.
    fairness:
        Default admission fairness policy of schedulers built by
        :meth:`scheduler` (``"wrr"`` weighted round-robin or ``"fifo"``).
    tenant_quotas:
        Default per-tenant outstanding-walker quotas of schedulers built by
        :meth:`scheduler`, as ``(tenant, quota)`` pairs.
    strict_verification:
        When True, :meth:`session` (and every other negotiation) rejects
        specs whose static verification (:func:`repro.analysis.verify_spec`)
        carries ERROR diagnostics, instead of the default degraded mode
        (run without transition caching or scheduler fusion).
    """

    def __init__(
        self,
        graph: CSRGraph | DeltaCSRGraph,
        fleet: DeviceFleet | None = None,
        max_cached_workloads: int | None = DEFAULT_MAX_CACHED_WORKLOADS,
        max_inflight_walkers: int = 0,
        fairness: str = "wrr",
        tenant_quotas: tuple[tuple[str, int], ...] = (),
        strict_verification: bool = False,
    ) -> None:
        if max_cached_workloads is not None and max_cached_workloads < 1:
            raise ServiceError("max_cached_workloads must be at least 1 (or None)")
        if isinstance(graph, DeltaCSRGraph):
            self._dynamic: DeltaCSRGraph | None = graph
            self.graph = graph.snapshot()
        else:
            self._dynamic = None
            self.graph = graph
        self.fleet = fleet if fleet is not None else DeviceFleet()
        self.max_cached_workloads = max_cached_workloads
        self._capabilities = declare_capabilities(
            self.fleet,
            max_inflight_walkers=max_inflight_walkers,
            fairness=fairness,
            tenant_quotas=tenant_quotas,
            strict_verification=strict_verification,
        )
        self._compiled: OrderedDict[tuple, CompiledWorkload] = OrderedDict()
        self._profiles: OrderedDict[tuple, ProfileResult] = OrderedDict()
        self._caches: OrderedDict[tuple, EngineCaches] = OrderedDict()
        # Registry keys pinned by open sessions (refcounted): the LRU must
        # never evict an entry a live session still executes against —
        # version-keying multiplies distinct keys, so eviction pressure is
        # real even for a handful of workloads.  Sessions unpin on garbage
        # collection (weakref.finalize) or explicit close().
        self._pins: dict[tuple, int] = {}
        self._sessions_created = 0

    @property
    def graph_version(self) -> int:
        """Current graph version served to *new* sessions (0 when static)."""
        return 0 if self._dynamic is None else self._dynamic.version

    @property
    def dynamic_graph(self) -> DeltaCSRGraph | None:
        """The live delta overlay, or ``None`` while the service is static.

        Becomes non-``None`` after the first :meth:`apply_delta` (or when the
        service was constructed over a :class:`~repro.graph.DeltaCSRGraph`).
        Use it for overlay introspection — ``edge_list()``, ``compact()``,
        ``memory_footprint_bytes`` — never to mutate the graph behind the
        service's back: updates must go through :meth:`apply_delta`.
        """
        return self._dynamic

    def _registry_get(self, registry: OrderedDict, key: tuple):
        """LRU lookup: a hit moves the entry to the most-recent end."""
        value = registry.get(key)
        if value is not None:
            registry.move_to_end(key)
        return value

    def _registry_put(self, registry: OrderedDict, key: tuple, value) -> None:
        """LRU insert: evicts the least-recently-used *unpinned* entries.

        Entries pinned by an open session are skipped — evicting one would
        strand a session mid-run (its engine shares the cache holder) and
        rebuild state the session is guaranteed to touch again.  When every
        entry is pinned the registry temporarily overshoots the cap; it
        shrinks back as sessions close.
        """
        registry[key] = value
        registry.move_to_end(key)
        if self.max_cached_workloads is not None:
            while len(registry) > self.max_cached_workloads:
                for candidate in registry:
                    # The entry being inserted is exempt too: it is about to
                    # be used (and usually pinned) by the caller.
                    if candidate != key and self._pins.get(candidate, 0) == 0:
                        del registry[candidate]
                        break
                else:
                    break

    def _pin(self, keys: tuple[tuple, ...]) -> None:
        for key in keys:
            self._pins[key] = self._pins.get(key, 0) + 1

    def _unpin(self, keys: tuple[tuple, ...]) -> None:
        for key in keys:
            count = self._pins.get(key, 0) - 1
            if count > 0:
                self._pins[key] = count
            else:
                self._pins.pop(key, None)

    # ------------------------------------------------------------------ #
    def capabilities(self) -> ServiceCapabilities:
        """What this service can execute (consumed by plan negotiation)."""
        return self._capabilities

    def describe(self) -> dict[str, object]:
        """Summary of the service's shared state (for logs and examples)."""
        return {
            "graph": repr(self.graph),
            "graph_version": self.graph_version,
            "device": self.fleet.device.name,
            "num_devices": self.fleet.count,
            "backends": list(self._capabilities.backends),
            "compiled_workloads": len(self._compiled),
            "profiled_workloads": len(self._profiles),
            "max_cached_workloads": self.max_cached_workloads,
            "sessions_created": self._sessions_created,
            "max_inflight_walkers": self._capabilities.max_inflight_walkers,
            "fairness": self._capabilities.fairness,
            "tenant_quotas": dict(self._capabilities.tenant_quotas),
        }

    # ------------------------------------------------------------------ #
    # Compile / profile stages (cached per workload)
    # ------------------------------------------------------------------ #
    @staticmethod
    def _canonical(value):
        """Hashable structural form of a describe() value.

        ``repr`` is not safe here: numpy truncates large arrays (two
        different weight vectors would collide on one cache key) and
        default object reprs embed ids (equal hyperparameters would never
        share).  Containers and arrays are therefore canonicalised by
        *content*; anything else falls back to ``repr`` as a best effort.
        """
        canonical = WalkService._canonical
        if isinstance(value, np.ndarray):
            return ("ndarray", value.shape, value.dtype.str, value.tobytes())
        if isinstance(value, dict):
            return ("dict", tuple(sorted((str(k), canonical(v)) for k, v in value.items())))
        if isinstance(value, (list, tuple)):
            return ("seq", tuple(canonical(v) for v in value))
        if isinstance(value, (set, frozenset)):
            return ("set", tuple(sorted(repr(canonical(v)) for v in value)))
        if isinstance(value, (bool, int, float, complex, str, bytes, type(None))):
            return value
        return repr(value)

    @staticmethod
    def _spec_key(spec: WalkSpec) -> tuple:
        """Structural cache key of a workload: class identity + hyperparameters."""
        return (
            type(spec).__module__,
            type(spec).__qualname__,
            WalkService._canonical(spec.describe()),
        )

    def _registry_key(self, spec: WalkSpec) -> tuple:
        """Workload registry key: structural spec key + current graph version.

        Version-keying is what lets in-flight sessions finish on the version
        they started on while new submits see the new edges: a session opened
        before an :meth:`apply_delta` keeps resolving (and pinning) its
        original key, a session opened after resolves the new one.
        """
        return (*self._spec_key(spec), self.graph_version)

    def compile(self, spec: WalkSpec) -> CompiledWorkload:
        """Compile a workload against this service's graph and device (cached)."""
        key = self._registry_key(spec)
        compiled = self._registry_get(self._compiled, key)
        if compiled is None:
            compiled = compile_workload(spec, self.graph, device=self.fleet.device)
            self._registry_put(self._compiled, key, compiled)
        return compiled

    def profile(self, spec: WalkSpec, seed: int = 0) -> ProfileResult:
        """Run (or reuse) the start-up profiling kernels for a workload."""
        key = (*self._registry_key(spec), seed)
        result = self._registry_get(self._profiles, key)
        if result is None:
            result = profile_edge_costs(self.graph, spec, self.fleet.device, seed=seed)
            self._registry_put(self._profiles, key, result)
        return result

    def engine_caches(self, spec: WalkSpec) -> EngineCaches:
        """The shared hint-table/transition-cache holder of a workload."""
        key = self._registry_key(spec)
        caches = self._registry_get(self._caches, key)
        if caches is None:
            caches = EngineCaches()
            self._registry_put(self._caches, key, caches)
        return caches

    # ------------------------------------------------------------------ #
    # Dynamic graphs
    # ------------------------------------------------------------------ #
    def apply_delta(
        self,
        additions,
        removals=(),
        *,
        weights=None,
        labels=None,
        repartition: bool = False,
    ) -> int:
        """Fold an edge delta into the service's graph; returns the new version.

        A static service wraps its CSR in a
        :class:`~repro.graph.delta.DeltaCSRGraph` on the first delta, so any
        service is dynamic on demand.  The call is the versioned
        invalidation protocol end to end:

        * ``service.graph`` becomes the compacted snapshot of the new
          version (CSR topology caches repaired incrementally from the old
          snapshot's, per :mod:`repro.graph.invalidation`);
        * every **unpinned** engine-cache holder keyed at the previous
          current version migrates to the new version key via the scoped
          rebind contracts — untouched-node entries survive by object
          identity, the workload is recompiled against the new snapshot;
        * holders pinned by in-flight sessions stay at their version key
          untouched: those sessions finish on the graph they started on,
          and only :meth:`session` calls made after this point see the new
          edges (new sessions of a migrated workload share the migrated
          caches).

        ``repartition=True`` additionally drops migrated holders' sharded
        decompositions instead of rebinding them, so the next sharded use
        re-partitions against the compacted graph.
        """
        if self._dynamic is None:
            self._dynamic = DeltaCSRGraph(self.graph)
        old_graph = self.graph
        old_version = self._dynamic.version
        self._dynamic = self._dynamic.apply_delta(
            additions, removals, weights=weights, labels=labels
        )
        new_graph = self._dynamic.snapshot()
        record = invalidation_for(self._dynamic)
        repair_csr_caches(old_graph, new_graph, record)
        self.graph = new_graph

        for key in [k for k in self._caches if k[-1] == old_version]:
            if self._pins.get(key, 0):
                continue
            caches = self._caches.pop(key)
            spec = None
            if caches.transition_cache is not None:
                spec = caches.transition_cache.spec
            elif caches.hint_tables is not None:
                spec = caches.hint_tables._compiled.spec
            compiled = self.compile(spec) if spec is not None else None
            rebind_engine_caches(
                caches, new_graph, record, compiled=compiled, repartition=repartition
            )
            self._registry_put(self._caches, (*key[:-1], self._dynamic.version), caches)
        return self._dynamic.version

    # ------------------------------------------------------------------ #
    # Session creation (plan + execute stages)
    # ------------------------------------------------------------------ #
    def session(
        self,
        spec: WalkSpec,
        config: FlexiWalkerConfig | None = None,
        backend: str | None = None,
    ) -> WalkSession:
        """Open a walk session: compile, negotiate a plan, bind an engine.

        Parameters
        ----------
        spec:
            The workload's gather-move-update logic.
        config:
            Session knobs (selection policy, seed, overheads, requested
            execution/device count).  Defaults to the paper's setup on this
            service's fleet device.  The config's ``device`` must be the
            fleet's device — the service owns the hardware; configure the
            fleet instead of the session to change it.
        backend:
            Explicit backend request (see :data:`repro.service.BACKENDS`);
            by default the backend is negotiated from the config.
        """
        if config is None:
            config = FlexiWalkerConfig(device=self.fleet.device)
        if config.device != self.fleet.device:
            detail = (
                "different device"
                if config.device.name != self.fleet.device.name
                else "same name, different parameters"
            )
            raise ServiceError(
                f"session config requests device {config.device.name!r} but the "
                f"service fleet runs {self.fleet.device.name!r} ({detail}); "
                "configure the DeviceFleet instead"
            )

        compiled = self.compile(spec)
        plan = negotiate_plan(
            self._capabilities,
            config,
            compiled,
            backend=backend,
            graph_footprint_bytes=self.graph.memory_footprint_bytes(config.weight_bytes),
        )

        profile = self.profile(spec, seed=config.seed) if config.run_profiling else None
        ratio = (
            profile.edge_cost_ratio
            if profile is not None
            else config.device.random_to_coalesced_ratio
        )
        cost_model = CostModel(edge_cost_ratio=max(ratio, 1e-6))
        selector = build_selector(config, cost_model, compiled)
        engine = WalkEngine(
            graph=self.graph,
            spec=spec,
            device=self.fleet.device,
            selector=selector,
            compiled=compiled,
            seed=config.seed,
            warp_width=config.warp_width,
            weight_bytes=config.weight_bytes,
            scheduling=plan.scheduling,
            selection_overhead=config.selection_overhead and config.selection == "cost_model",
            warp_switch_overhead=config.warp_switch_overhead,
            execution=plan.execution,
            num_devices=plan.num_devices,
            partition_policy=plan.partition_policy,
            graph_placement=plan.graph_placement,
            shard_policy=plan.shard_policy or config.shard_policy,
            ghost_cache_bytes=plan.ghost_cache_bytes,
            use_transition_cache=plan.use_transition_cache,
            caches=self.engine_caches(spec),
            checkpoint_interval=plan.checkpoint_interval,
            fault_plan=config.fault_plan,
        )
        self._sessions_created += 1
        session = WalkSession(
            service=self,
            spec=spec,
            config=config,
            plan=plan,
            compiled=compiled,
            profile=profile,
            cost_model=cost_model,
            selector=selector,
            engine=engine,
            graph_version=self.graph_version,
        )
        # Pin the session's registry entries for its lifetime: the LRU may
        # not evict (and apply_delta may not migrate) state a live session
        # executes against.  finalize fires on collection, so even an
        # abandoned session releases its pins.
        pinned = (self._registry_key(spec),)
        if config.run_profiling:
            pinned = (*pinned, (*self._registry_key(spec), config.seed))
        self._pin(pinned)
        session._unpin_finalizer = weakref.finalize(session, self._unpin, pinned)
        return session

    def plan_for(
        self,
        spec: WalkSpec,
        config: FlexiWalkerConfig | None = None,
        backend: str | None = None,
    ) -> ExecutionPlan:
        """Negotiate (without opening a session) the plan a session would get."""
        if config is None:
            config = FlexiWalkerConfig(device=self.fleet.device)
        return negotiate_plan(
            self._capabilities,
            config,
            self.compile(spec),
            backend=backend,
            graph_footprint_bytes=self.graph.memory_footprint_bytes(config.weight_bytes),
        )

    def scheduler(
        self,
        *,
        max_inflight_walkers: int | None = None,
        fairness: str | None = None,
        tenant_quotas: tuple[tuple[str, int], ...] | None = None,
        default_tenant: str = "default",
        record_admissions: bool = False,
        shed_after_ticks: int | None = None,
    ) -> ServiceScheduler:
        """Build a continuous-batching scheduler over this service.

        Admission-policy knobs default to what the service's declared
        :class:`~repro.service.plan.ServiceCapabilities` record (the
        ``max_inflight_walkers``/``fairness``/``tenant_quotas`` the service
        was constructed with); pass overrides to deviate for one scheduler.
        Sessions join via :meth:`ServiceScheduler.attach` or
        :meth:`ServiceScheduler.session`.
        """
        from repro.service.scheduler import ServiceScheduler

        capabilities = self._capabilities
        return ServiceScheduler(
            self,
            max_inflight_walkers=(
                capabilities.max_inflight_walkers
                if max_inflight_walkers is None
                else max_inflight_walkers
            ),
            fairness=capabilities.fairness if fairness is None else fairness,
            tenant_quotas=(
                capabilities.tenant_quotas if tenant_quotas is None else tenant_quotas
            ),
            default_tenant=default_tenant,
            record_admissions=record_admissions,
            shed_after_ticks=shed_after_ticks,
        )

    def __repr__(self) -> str:  # pragma: no cover - cosmetic
        return (
            f"WalkService(graph={self.graph!r}, device={self.fleet.device.name!r}, "
            f"num_devices={self.fleet.count})"
        )
