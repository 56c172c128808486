"""Continuous batching: one fused superstep shared by every attached session.

The step-synchronous frontier is the same execution shape LLM serving stacks
exploit for continuous batching: because every walker owns a counter-based
random stream keyed by its query id, charges its operation counts into its
own slot, and is priced per slot independently of batch size
(:meth:`~repro.gpusim.device.DeviceSpec.lane_times_ns` is elementwise), *who
else* shares a superstep with a walker cannot change its path, counts or
simulated time.  The :class:`ServiceScheduler` turns that invariance into a
multi-tenant execution loop:

* walkers from every attached :class:`~repro.service.session.WalkSession`
  merge into one :class:`~repro.runtime.frontier.Wave` per compatible
  workload (a *fusion group*: same spec, config and plan) — the same driver
  ``WalkEngine.run`` and standalone sessions use;
* newly submitted queries are admitted at superstep boundaries — a fresh
  submission joins the very next superstep instead of waiting for the
  current walks to drain (mid-flight injection via
  :meth:`~repro.runtime.frontier.Wave.admit`);
* the group's wave reports to a scheduler-private ledger that splits the
  fused counters, kernel times and sampler usage back out per session and
  tenant exactly, using the per-walker slots and the
  :class:`~repro.runtime.frontier.SuperstepReport` sampler attribution —
  every session's ``collect()`` stays bit-identical to running it alone.

Fairness is weighted round-robin (virtual-time weighted fair queuing) over
per-tenant admission queues, with an SLO lane that is admitted first:
submissions with ``priority > 0`` enter it directly, and queued walkers
whose ``deadline_steps`` aged out are promoted into it.  Backpressure is the
in-flight walker budget (``max_inflight_walkers``) plus optional per-tenant
quotas: a submission that cannot fit raises
:class:`~repro.errors.QueueFull`, or — with
``SubmitOptions(block_on_full=True)`` — runs supersteps until it fits.

Two session shapes cannot attach: scalar-execution plans (nothing to fuse)
and sharded placements (their per-device ledgers are keyed by private
wave-local step ordinals).  The ``selection="random"`` policy attaches but
keeps its documented exemption from bit-exactness: its selector flips coins
from a shared sequential generator, so fused execution interleaves the
draws.

Fault plans and checkpointing recover inside the group's wave, through the
same restore point and recovery step as every other wave.  Admission and
cancellation only drop the wave's restore point; the next superstep
boundary takes a cost-free snapshot.  Each step's device loss and recovery
charge reach the ledger of every session whose walkers the superstep
covered, so an attached session reports the recovery time, checkpoints and
lost devices its walkers went through, and on replicated devices its
per-device kernels re-home the lost device's work exactly as a standalone
wave's do.

Like the frontier it wraps, the scheduler trades memory for simplicity: a
fusion group's arrays grow monotonically with every admitted walker and are
never compacted, so a scheduler is sized for a workload burst, not an
unbounded service lifetime.
"""

from __future__ import annotations

import dataclasses
import heapq
import time
from collections import deque
from dataclasses import dataclass
from collections.abc import Iterator
from typing import TYPE_CHECKING

import numpy as np

from repro.errors import QueueFull, ServiceError
from repro.gpusim.counters import CostCounters
from repro.runtime.frontier import (
    PlacementLedger,
    Wave,
    fold_counters_by_owner,
    iter_supersteps,
)
from repro.walks.state import WalkQuery

if TYPE_CHECKING:  # pragma: no cover - typing only
    from repro.core.config import FlexiWalkerConfig
    from repro.runtime.faults import RecoveryCharge
    from repro.runtime.frontier import SuperstepReport
    from repro.service.service import WalkService
    from repro.service.session import SubmitOptions, WalkChunk, WalkSession
    from repro.walks.spec import WalkSpec

#: Fairness policies the scheduler implements.
FAIRNESS_POLICIES = ("wrr", "fifo")


@dataclass(frozen=True)
class TenantStats:
    """Accounting snapshot of one tenant, split out of the fused execution.

    ``steps`` and ``lane_time_ns`` are exact per-walker attributions (the
    walker slots of the fused supersteps, folded by owner); the admission
    counters describe the tenant's traffic through the fairness machinery.
    ``dead_letters`` counts walkers dropped before completing — explicit
    cancellation, ``deadline_ticks`` expiry, load shedding, stream
    abandonment or a quarantined fusion group.
    """

    tenant: str
    weight: float
    quota: int | None
    sessions: int
    submitted: int
    admitted: int
    completed: int
    queued: int
    inflight: int
    slo_admitted: int
    steps: int
    lane_time_ns: float
    dead_letters: int = 0


class _TenantState:
    """Mutable per-tenant admission queue + accounting."""

    __slots__ = (
        "name", "weight", "quota", "queue", "vtime", "has_deadlines",
        "sessions", "outstanding", "submitted", "admitted", "completed",
        "slo_admitted", "steps", "lane_ns", "dead_letters",
    )

    def __init__(self, name: str, weight: float, quota: int | None) -> None:
        self.name = name
        self.weight = weight
        self.quota = quota
        self.queue: deque[_Pending] = deque()
        self.vtime = 0.0
        self.has_deadlines = False
        self.sessions = 0
        self.outstanding = 0  # queued + in-flight walkers
        self.submitted = 0
        self.admitted = 0
        self.completed = 0
        self.slo_admitted = 0
        self.steps = 0
        self.lane_ns = 0.0
        self.dead_letters = 0


class _Pending:
    """One queued walker awaiting admission."""

    __slots__ = ("seq", "entry", "tenant", "query", "sub_ord", "enqueue_tick",
                 "deadline_steps")

    def __init__(self, seq, entry, tenant, query, sub_ord, enqueue_tick,
                 deadline_steps) -> None:
        self.seq = seq
        self.entry = entry
        self.tenant = tenant
        self.query = query
        self.sub_ord = sub_ord  # index into the session's _submitted list
        self.enqueue_tick = enqueue_tick
        self.deadline_steps = deadline_steps


class _SessionEntry:
    """Scheduler-side ledger of one attached session."""

    __slots__ = ("session", "tenant", "group", "gidx", "fused_pos", "queries",
                 "sub_ords", "flushed", "queued", "inflight", "chunks",
                 "quarantined")

    def __init__(self, session, tenant: _TenantState, group: _Group) -> None:
        self.session = session
        self.tenant = tenant
        self.group = group
        self.gidx = len(group.sessions)  # this entry's index within the group
        self.fused_pos: list[int] = []   # admission-ordered frontier positions
        self.queries: list[WalkQuery] = []
        self.sub_ords: list[int] = []
        self.flushed = 0
        self.queued = 0
        self.inflight = 0
        self.chunks: deque["WalkChunk"] = deque()
        self.quarantined: str | None = None  # set when the group is poisoned


class _Group:
    """One fusion group: sessions compatible enough to share a wave."""

    __slots__ = ("key", "wave", "sessions", "owner", "tenants")

    def __init__(self, scheduler: ServiceScheduler, key, engine) -> None:
        self.key = key
        self.sessions: list[_SessionEntry] = []
        self.owner = np.zeros(0, dtype=np.int64)     # wave pos -> gidx
        self.tenants: list[_TenantState] = []        # wave pos -> tenant
        # Passed by this module's name, so a tracer wrapping
        # repro.service.scheduler.iter_supersteps (the per-layer
        # benchmark's) sees every fused superstep.
        self.wave = Wave(
            _GroupLedger(scheduler, self, engine), [], supersteps=iter_supersteps
        )


class _GroupLedger(PlacementLedger):
    """What a fusion group's wave reports to: the exact per-session split.

    The inherited state holds the fused totals — what the superstep loop
    writes and a checkpoint rewinds; no result is ever built from them.
    Every report also fans out to the attached sessions' own ledgers:

    * :meth:`charge_fetch` charges each session its admitted walkers' queue
      fetch atomics;
    * :meth:`observe` splits one fused superstep back out per session and
      tenant — counters, steps, lane time, sampler usage and completions;
    * :meth:`failover` and :meth:`absorb` hand a recovery step's device
      loss and charge to every session whose walkers the superstep covered
      (``report.active`` ∪ ``report.finished``);
    * :meth:`record` does nothing: a session records its finished walks in
      its own ledger when it goes idle (:meth:`ServiceScheduler._flush`).
    """

    def __init__(self, scheduler: ServiceScheduler, group: _Group, engine) -> None:
        super().__init__(engine)
        self.scheduler = scheduler
        self.group = group
        self._covered: list[_SessionEntry] = []  # sessions of the last superstep

    def charge_fetch(
        self, queries: list[WalkQuery], offset: int
    ) -> tuple[np.ndarray, np.ndarray | None]:
        """One queue atomic per admitted walker, charged to its session.

        Exactly what a solo wave launch charges (lane pricing is per slot,
        so splitting a launch across admissions changes nothing).
        """
        sessions = self.group.sessions
        owners, per_session = np.unique(
            self.group.owner[offset:offset + len(queries)], return_counts=True
        )
        for gidx, count in zip(owners, per_session, strict=True):
            sessions[int(gidx)].session._ledger.aggregate.atomic_ops += int(count)
        return super().charge_fetch(queries, offset)

    def observe(self, wave: Wave, report: SuperstepReport) -> None:
        """Split one fused superstep back out per session and tenant.

        Integer counts fold exactly under any grouping (bincount of
        per-walker integers); per-walker float times accumulate in each
        walker's own slot in walk order, identical to a solo run — which is
        why the per-session results stay bit-identical.
        """
        super().observe(wave, report)
        scheduler, group = self.scheduler, self.group
        engine = self.engine
        if wave.faults is not None:
            covered = np.unique(group.owner[np.concatenate([report.active, report.finished])])
            self._covered = [group.sessions[int(gidx)] for gidx in covered]

        steps_by: dict[int, int] = {}
        tick_counters: dict[int, CostCounters] = {}
        if report.active.size:
            owners = group.owner[report.active]
            present = np.unique(owners)
            compact = np.searchsorted(present, owners)
            folded = [
                CostCounters(bytes_per_weight=engine.weight_bytes) for _ in present
            ]
            fold_counters_by_owner(compact, report.counters, folded, present.size)
            step_counts = np.bincount(compact, minlength=present.size)
            lane_ns = np.bincount(
                compact, weights=report.step_ns, minlength=present.size
            )
            for j, gidx in enumerate(present):
                entry = group.sessions[int(gidx)]
                ledger = entry.session._ledger
                ledger.aggregate.merge(folded[j])
                ledger.total_steps += int(step_counts[j])
                entry.tenant.steps += int(step_counts[j])
                entry.tenant.lane_ns += float(lane_ns[j])
                steps_by[int(gidx)] = int(step_counts[j])
                tick_counters[int(gidx)] = folded[j]
                scheduler._participants.append((entry, int(step_counts[j])))
            # Sampler usage, attributed per session through the report's
            # kernel assignment (key set matches solo runs: a sampler is
            # recorded only for sessions whose walkers executed it).
            if report.assignment is not None:
                for pos, name in enumerate(report.sampler_names):
                    mask = report.assignment == pos
                    if not mask.any():
                        continue
                    used = np.bincount(compact[mask], minlength=present.size)
                    for j, gidx in enumerate(present):
                        if used[j]:
                            usage = group.sessions[int(gidx)].session._ledger.usage
                            usage[name] = usage.get(name, 0) + int(used[j])

        if report.finished.size == 0:
            return
        finished_by: dict[int, list[int]] = {}
        for i in report.finished:
            finished_by.setdefault(int(group.owner[i]), []).append(int(i))
        for gidx, fused in finished_by.items():
            entry = group.sessions[gidx]
            session = entry.session
            query_ids = tuple(wave.queries[i].query_id for i in fused)
            for qid, i in zip(query_ids, fused, strict=True):
                session._path_by_qid[qid] = wave.paths[i]
            count = len(fused)
            entry.inflight -= count
            scheduler._inflight -= count
            for i in fused:
                tenant = group.tenants[i]
                tenant.outstanding -= 1
                tenant.completed += 1
            chunk = session._emit(
                query_ids,
                tuple(tuple(wave.paths[i]) for i in fused),
                steps=steps_by.get(gidx, 0),
                counters=tick_counters.get(
                    gidx, CostCounters(bytes_per_weight=engine.weight_bytes)
                ),
                superstep=scheduler._tick,
            )
            entry.chunks.append(chunk)

    def failover(self, wave: Wave, dead: list[int]) -> None:
        """Re-home the dead devices' work in every covered session's ledger."""
        for entry in self._covered:
            entry.session._ledger.failover(wave, dead, entry.fused_pos)

    def absorb(self, charge: RecoveryCharge) -> None:
        """Charge the recovery step to every covered session's ledger."""
        super().absorb(charge)
        for entry in self._covered:
            entry.session._ledger.absorb(charge)

    def record(self, queries, paths, per_ns, counts) -> None:
        """Nothing to record: sessions flush themselves when idle."""


class ServiceScheduler:
    """Cross-session continuous-batching execution loop.

    Built by :meth:`~repro.service.WalkService.scheduler` (which seeds the
    admission policy from the service's declared
    :class:`~repro.service.plan.ServiceCapabilities`); sessions join via
    :meth:`attach` or the :meth:`session` convenience, after which their
    ``submit``/``stream``/``collect`` transparently ride the shared loop::

        scheduler = service.scheduler(max_inflight_walkers=1024)
        scheduler.register_tenant("batch", weight=1.0)
        scheduler.register_tenant("online", weight=4.0)
        s1 = scheduler.session(DeepWalkSpec(), tenant="online")
        s1.submit(queries, options=SubmitOptions(priority=1))
        result = s1.collect()          # bit-identical to running s1 alone

    One :meth:`tick` = one fused superstep boundary: first admission (SLO
    lane, then the fairness policy, within the in-flight budget), then one
    superstep of every fusion group.
    """

    def __init__(
        self,
        service: WalkService,
        *,
        max_inflight_walkers: int = 0,
        fairness: str = "wrr",
        tenant_quotas: tuple[tuple[str, int], ...] = (),
        default_tenant: str = "default",
        record_admissions: bool = False,
        shed_after_ticks: int | None = None,
    ) -> None:
        if fairness not in FAIRNESS_POLICIES:
            raise ServiceError(
                f"unknown fairness policy {fairness!r}; valid: {FAIRNESS_POLICIES}"
            )
        if max_inflight_walkers < 0:
            raise ServiceError("max_inflight_walkers must be non-negative (0 = unbounded)")
        if shed_after_ticks is not None and shed_after_ticks < 1:
            raise ServiceError("shed_after_ticks must be at least 1 (or None)")
        self.service = service
        self.max_inflight_walkers = int(max_inflight_walkers)
        self.fairness = fairness
        self.default_tenant = default_tenant
        #: Load shedding under sustained backpressure: a walker still queued
        #: after waiting this many ticks is dead-lettered instead of admitted
        #: (``None`` = never shed).  Its ticket reports DeadlineExceeded.
        self.shed_after_ticks = shed_after_ticks
        #: When true, every admission is appended to :attr:`admissions` as
        #: ``(tick, tenant)`` — the fairness property suite audits this log.
        self.record_admissions = record_admissions
        self.admissions: list[tuple[int, str]] = []
        self._tenants: dict[str, _TenantState] = {}
        for name, quota in tenant_quotas:
            self.register_tenant(name, quota=quota)
        self._entries: dict[int, _SessionEntry] = {}  # id(session) -> entry
        self._groups: dict[tuple, _Group] = {}
        self._slo: deque[_Pending] = deque()
        # Hard per-walker deadlines: (expiry_tick, seq, entry, query_id),
        # a heap popped at every tick boundary.
        self._deadlines: list[tuple[int, int, _SessionEntry, int]] = []
        self._quarantined: list[_SessionEntry] = []
        self._seq = 0
        self._tick = 0
        self._vclock = 0.0
        self._inflight = 0
        self._queued = 0
        self._exec_seconds = 0.0
        self._participants: list[tuple[_SessionEntry, int]] = []

    # ------------------------------------------------------------------ #
    # Tenants and sessions
    # ------------------------------------------------------------------ #
    def register_tenant(
        self, name: str, weight: float = 1.0, quota: int | None = None
    ) -> None:
        """Declare (or reconfigure) a tenant's fair-share weight and quota.

        ``weight`` scales the tenant's admission share under ``wrr``
        fairness; any nonzero weight guarantees the tenant is never starved.
        ``quota`` caps the tenant's outstanding (queued + in-flight)
        walkers; ``None`` means no per-tenant cap.  Unknown tenants named at
        submit or attach time are auto-registered with weight 1.0.
        """
        if weight <= 0:
            raise ServiceError("tenant weight must be positive")
        if quota is not None and quota < 1:
            raise ServiceError("tenant quota must be at least 1 (or None)")
        state = self._tenants.get(name)
        if state is None:
            self._tenants[name] = _TenantState(name, float(weight), quota)
        else:
            state.weight = float(weight)
            state.quota = quota

    def _tenant_state(self, name: str) -> _TenantState:
        state = self._tenants.get(name)
        if state is None:
            self.register_tenant(name)
            state = self._tenants[name]
        return state

    def attach(self, session: WalkSession, tenant: str | None = None) -> WalkSession:
        """Join a session to the shared loop (before it submits anything).

        The session must belong to this scheduler's service, must not have
        queued or in-flight work yet, and its plan must be fusable: batched
        execution (scalar plans have no superstep to share) on a
        replicated placement (sharded plans key their per-device ledgers by
        private wave-local step ordinals).
        """
        if session.service is not self.service:
            raise ServiceError("session belongs to a different service")
        if session._scheduler is not None:
            raise ServiceError(
                "session is already attached to a scheduler"
                if session._scheduler is self
                else "session is attached to a different scheduler"
            )
        if session.pending or session._wave is not None or session._ledger.queries:
            raise ServiceError(
                "attach before submitting: the session already has queued, "
                "in-flight or executed work of its own"
            )
        if session.plan.execution != "batched":
            raise ServiceError(
                "the continuous-batching scheduler fuses frontier supersteps; "
                f"a plan with execution={session.plan.execution!r} cannot attach"
            )
        if session.plan.graph_placement == "sharded":
            raise ServiceError(
                "sharded-placement sessions cannot attach: their per-device "
                "accounting is keyed by wave-local step ordinals, which a "
                "fused cross-session frontier does not preserve"
            )
        if not session.plan.scheduler_fusion:
            raise ServiceError(
                "scheduler fusion was declined for this plan (static "
                "verification found ERROR diagnostics; see plan.reasons); "
                "run the session standalone instead of attaching it"
            )
        tstate = self._tenant_state(tenant if tenant is not None else self.default_tenant)
        group = self._group_for(session)
        entry = _SessionEntry(session, tstate, group)
        group.sessions.append(entry)
        self._entries[id(session)] = entry
        session._scheduler = self
        tstate.sessions += 1
        return session

    def session(
        self,
        spec: WalkSpec,
        config: FlexiWalkerConfig | None = None,
        *,
        tenant: str | None = None,
        backend: str | None = None,
    ) -> WalkSession:
        """Open a service session and attach it in one step."""
        return self.attach(self.service.session(spec, config, backend=backend), tenant)

    def detach(self, session: WalkSession) -> None:
        """Drain the session's outstanding walkers, flush, and release it.

        The session returns to standalone execution; its accumulated
        results stay collectible.
        """
        entry = self._entries.get(id(session))
        if entry is None or session._scheduler is not self:
            raise ServiceError("session is not attached to this scheduler")
        self._check_quarantined(entry)
        while entry.queued + entry.inflight:
            self._checked_tick(entry)
        self._flush(entry)
        session._scheduler = None
        entry.tenant.sessions -= 1
        del self._entries[id(session)]

    def _group_for(self, session: WalkSession) -> _Group:
        from repro.service.service import WalkService

        # Sessions fuse only when nothing observable distinguishes their
        # execution: same workload (structural spec key), same config (seed
        # included — it keys every random stream), same negotiated plan and
        # the same selector kind.  Anything else lands in its own group;
        # groups still advance in lockstep, one superstep per tick.
        key = (
            WalkService._spec_key(session.spec),
            session.graph_version,
            WalkService._canonical(dataclasses.asdict(session.config)),
            WalkService._canonical(session.plan.describe()),
            type(session.selector).__qualname__,
        )
        group = self._groups.get(key)
        if group is None:
            group = _Group(self, key, session.engine)
            self._groups[key] = group
        return group

    # ------------------------------------------------------------------ #
    # Introspection
    # ------------------------------------------------------------------ #
    @property
    def queued(self) -> int:
        """Walkers waiting in admission queues (all tenants)."""
        return self._queued

    @property
    def inflight(self) -> int:
        """Walkers currently executing in fused frontiers."""
        return self._inflight

    @property
    def pending(self) -> int:
        """Queued + in-flight walkers across every attached session."""
        return self._queued + self._inflight

    @property
    def supersteps(self) -> int:
        """Scheduler ticks executed so far (the latency clock)."""
        return self._tick

    @property
    def exec_seconds(self) -> float:
        """Wall-clock seconds spent inside :meth:`tick` so far."""
        return self._exec_seconds

    @property
    def quarantined(self) -> tuple["WalkSession", ...]:
        """Sessions whose fusion group was quarantined after a crash.

        A quarantined session's results are unreliable (its group died
        mid-superstep); reusing it — submit, stream, collect or detach —
        raises :class:`~repro.errors.ServiceError`.  Every other group
        keeps ticking normally.
        """
        return tuple(e.session for e in self._quarantined)

    @property
    def dead_letters(self) -> int:
        """Walkers dropped before completing, across every tenant."""
        return sum(t.dead_letters for t in self._tenants.values())

    @property
    def recovery_time_ns(self) -> float:
        """Simulated recovery time accumulated by every fusion group."""
        return sum(
            g.wave.faults.recovery_ns
            for g in self._groups.values()
            if g.wave.faults is not None
        )

    @property
    def checkpoints_taken(self) -> int:
        """Explicit (charged) checkpoints taken across every fusion group."""
        return sum(
            g.wave.faults.checkpoints_taken
            for g in self._groups.values()
            if g.wave.faults is not None
        )

    @property
    def degraded_devices(self) -> tuple[int, ...]:
        """Devices lost to permanent failures, across every fusion group."""
        dead: set[int] = set()
        for g in self._groups.values():
            if g.wave.faults is not None:
                dead.update(g.wave.faults.degraded)
        return tuple(sorted(dead))

    def tenant_stats(self) -> dict[str, TenantStats]:
        """Exact per-tenant accounting, split out of the fused execution."""
        slo_queued: dict[str, int] = {}
        for p in self._slo:
            slo_queued[p.tenant.name] = slo_queued.get(p.tenant.name, 0) + 1
        stats = {}
        for name, t in sorted(self._tenants.items()):
            queued = len(t.queue) + slo_queued.get(name, 0)
            stats[name] = TenantStats(
                tenant=name,
                weight=t.weight,
                quota=t.quota,
                sessions=t.sessions,
                submitted=t.submitted,
                admitted=t.admitted,
                completed=t.completed,
                queued=queued,
                inflight=t.outstanding - queued,
                slo_admitted=t.slo_admitted,
                steps=t.steps,
                lane_time_ns=t.lane_ns,
                dead_letters=t.dead_letters,
            )
        return stats

    def describe(self) -> dict[str, object]:
        """Summary of the scheduler's state (for logs and examples)."""
        return {
            "fairness": self.fairness,
            "max_inflight_walkers": self.max_inflight_walkers,
            "default_tenant": self.default_tenant,
            "tenants": sorted(self._tenants),
            "sessions": len(self._entries),
            "fusion_groups": len(self._groups),
            "supersteps": self._tick,
            "queued": self._queued,
            "inflight": self._inflight,
            "quarantined_sessions": len(self._quarantined),
            "dead_letters": self.dead_letters,
        }

    # ------------------------------------------------------------------ #
    # The execution loop
    # ------------------------------------------------------------------ #
    def tick(self) -> int:
        """One superstep boundary: expire, admit, advance every fusion group.

        Crash-safe: a group whose superstep raises is quarantined — its
        sessions' outstanding walkers are dead-lettered and the group is
        removed — instead of wedging every tenant behind the poisoned
        frontier.  Returns the number of walker-steps executed across all
        (surviving) groups.
        """
        started = time.perf_counter()  # repro: ignore[internal/wall-clock]
        self._shed_overdue()
        self._expire_deadlines()
        self._admit()
        steps = 0
        # (session entry, walker-steps) of every session that stepped this
        # tick, appended by the group ledgers' per-session fold.
        participants = self._participants = []
        for group in list(self._groups.values()):
            try:
                step = group.wave.advance()
            except Exception as exc:  # noqa: BLE001 - quarantine, don't wedge
                self._quarantine_group(group, exc)
            else:
                steps += step.steps if step is not None else 0
        self._tick += 1
        elapsed = time.perf_counter() - started  # repro: ignore[internal/wall-clock]
        self._exec_seconds += elapsed
        if steps:
            # Wall time is shared; attribute it to sessions by their share
            # of this tick's walker-steps (informational, like a solo
            # session's wall-clock bookkeeping).
            for entry, share in participants:
                entry.session._exec_seconds += elapsed * (share / steps)
        return steps

    def run_until_idle(self, max_ticks: int | None = None) -> int:
        """Tick until no queued or in-flight work remains; total steps run."""
        total = 0
        ticks = 0
        while self.pending:
            if max_ticks is not None and ticks >= max_ticks:
                raise ServiceError(
                    f"scheduler still has {self.pending} pending walkers "
                    f"after {max_ticks} ticks"
                )
            total += self.tick()
            ticks += 1
        return total

    def _checked_tick(self, entry: _SessionEntry) -> int:
        """Tick with a no-progress guard for drain loops."""
        before = (self._queued, self._inflight, len(entry.session._path_by_qid))
        steps = self.tick()
        after = (self._queued, self._inflight, len(entry.session._path_by_qid))
        if steps == 0 and before == after and entry.queued + entry.inflight:
            raise ServiceError(
                "scheduler made no progress while the session still has "
                "pending walkers (internal invariant violation)"
            )  # pragma: no cover - defensive
        return steps

    def _stream_session(self, session: WalkSession) -> Iterator["WalkChunk"]:
        """Drive the shared loop, yielding this session's chunks.

        Other sessions' completions buffer on their own entries (their
        streams pick them up).  Returns — after flushing the session's
        finalised accounting — when the session has no pending work.

        Dropping the iterator mid-stream (breaking out of the only
        reference to it) abandons the session's remaining walkers: they
        are cancelled so the in-flight budget and tenant quota headroom
        they held is released immediately, instead of leaking until some
        other session's stream happens to drain them.
        """
        entry = self._entries[id(session)]
        self._check_quarantined(entry)
        try:
            while True:
                while entry.chunks:
                    yield entry.chunks.popleft()
                if entry.queued + entry.inflight == 0:
                    break
                self._checked_tick(entry)
        except GeneratorExit:
            self._abandon(entry)
            raise
        self._flush(entry)

    def _session_pending(self, session: WalkSession) -> int:
        entry = self._entries[id(session)]
        return entry.queued + entry.inflight

    # ------------------------------------------------------------------ #
    # Robustness: cancellation, deadlines, shedding, quarantine
    # ------------------------------------------------------------------ #
    def _drop_pending(self, p: _Pending, reason: str) -> None:
        """Dead-letter one still-queued walker (caller removes it from its lane)."""
        p.entry.session._cancelled_ids[p.query.query_id] = reason
        p.tenant.outstanding -= 1
        p.tenant.dead_letters += 1
        p.entry.queued -= 1
        self._queued -= 1

    def _cancel_queries(self, session, query_ids, reason: str) -> int:
        entry = self._entries.get(id(session))
        if entry is None:
            raise ServiceError("session is not attached to this scheduler")
        return sum(1 for qid in query_ids if self._cancel_query(entry, int(qid), reason))

    def _cancel_query(self, entry: _SessionEntry, qid: int, reason: str) -> bool:
        """Drop one unfinished walker, queued or in flight; False if done.

        In-flight walkers are terminated in the fused frontier; the walk
        prefix they already executed stays in the accounting (it really
        ran) but the ticket reports the walk as dropped.  Either way the
        in-flight budget and tenant quota headroom are released now.
        """
        session = entry.session
        if qid in session._path_by_qid or qid in session._cancelled_ids:
            return False
        if qid not in session._claimed_ids:
            pending = self._pop_pending(entry, qid)
            if pending is None:  # pragma: no cover - defensive
                return False
            self._drop_pending(pending, reason)
            return True
        wave = entry.group.wave
        for i, query in enumerate(entry.queries):
            if query.query_id == qid:
                pos = entry.fused_pos[i]
                break
        else:  # pragma: no cover - claimed ids always have an entry slot
            return False
        wave.terminate(np.array([pos], dtype=np.int64))
        session._path_by_qid[qid] = wave.frontier.path(pos)
        session._cancelled_ids[qid] = reason
        tenant = entry.group.tenants[pos]
        tenant.outstanding -= 1
        tenant.dead_letters += 1
        entry.inflight -= 1
        self._inflight -= 1
        return True

    def _pop_pending(self, entry: _SessionEntry, qid: int) -> _Pending | None:
        """Remove one queued walker from whichever admission lane holds it."""
        lanes = [self._slo]
        lanes.extend(t.queue for t in self._tenants.values())
        for lane in lanes:
            for p in lane:
                if p.entry is entry and p.query.query_id == qid:
                    lane.remove(p)
                    return p
        return None

    def _expire_deadlines(self) -> None:
        """Cancel walkers whose hard ``deadline_ticks`` has passed."""
        while self._deadlines and self._deadlines[0][0] <= self._tick:
            _, _, entry, qid = heapq.heappop(self._deadlines)
            if entry.quarantined is None:
                self._cancel_query(entry, qid, reason="deadline")

    def _shed_overdue(self) -> None:
        """Shed queued walkers that outwaited ``shed_after_ticks``.

        The load-shedding valve under sustained backpressure: when
        admission cannot keep up, the oldest queued walkers are
        dead-lettered instead of growing the queues without bound.
        """
        if self.shed_after_ticks is None or not self._queued:
            return
        self._slo = self._shed_lane(self._slo)
        for tenant in self._tenants.values():
            if tenant.queue:
                tenant.queue = self._shed_lane(tenant.queue)

    def _shed_lane(self, lane: deque) -> deque:
        keep: deque[_Pending] = deque()
        for p in lane:
            if self._tick - p.enqueue_tick >= self.shed_after_ticks:
                self._drop_pending(p, reason="shed")
            else:
                keep.append(p)
        return keep

    def _check_quarantined(self, entry: _SessionEntry) -> None:
        if entry.quarantined is not None:
            raise ServiceError(
                "session was quarantined after its fusion group crashed "
                f"({entry.quarantined}); its results are not recoverable"
            )

    def _quarantine_group(self, group: _Group, exc: BaseException) -> None:
        """Contain a poisoned fusion group instead of wedging every tenant.

        The group is removed from the loop and every walker its sessions
        still had outstanding — queued or in flight — is dead-lettered,
        releasing the budget and quota headroom they held.  The sessions
        are marked quarantined: any further use raises
        :class:`~repro.errors.ServiceError` naming the original crash.
        Sessions in *other* groups are untouched.
        """
        self._groups.pop(group.key, None)
        message = f"{type(exc).__name__}: {exc}"
        for entry in group.sessions:
            if entry.quarantined is not None:
                continue
            session = entry.session
            self._slo = self._drop_entry_pendings(self._slo, entry)
            for tenant in self._tenants.values():
                if tenant.queue:
                    tenant.queue = self._drop_entry_pendings(tenant.queue, entry)
            for i, query in enumerate(entry.queries):
                qid = query.query_id
                if qid in session._path_by_qid or qid in session._cancelled_ids:
                    continue
                session._cancelled_ids[qid] = "quarantined"
                tenant = group.tenants[entry.fused_pos[i]]
                tenant.outstanding -= 1
                tenant.dead_letters += 1
                entry.inflight -= 1
                self._inflight -= 1
            entry.quarantined = message
            self._quarantined.append(entry)

    def _drop_entry_pendings(self, lane: deque, entry: _SessionEntry) -> deque:
        keep: deque[_Pending] = deque()
        for p in lane:
            if p.entry is entry:
                self._drop_pending(p, reason="quarantined")
            else:
                keep.append(p)
        return keep

    def _abandon(self, entry: _SessionEntry) -> None:
        """Release an abandoned session's outstanding walkers (dropped stream)."""
        if entry.quarantined is not None:
            return
        session = entry.session
        unfinished = [
            q.query_id
            for q in session._submitted
            if q.query_id not in session._path_by_qid
            and q.query_id not in session._cancelled_ids
        ]
        for qid in unfinished:
            self._cancel_query(entry, qid, reason="abandoned")

    # ------------------------------------------------------------------ #
    # Admission: backpressure, fairness, mid-flight injection
    # ------------------------------------------------------------------ #
    def _reserve_capacity(
        self, session: WalkSession, count: int, options: SubmitOptions
    ) -> None:
        """Backpressure gate, run before the submission mutates anything.

        Two independent limits: a submission arriving while the in-flight
        walker budget is *exhausted* (every execution slot occupied) is
        refused — new work may only queue while the loop still has room to
        make progress on it; and a tenant's outstanding (queued + in-flight)
        walkers may never exceed its quota, which is what bounds a single
        tenant's queue memory.  ``block_on_full`` turns both refusals into
        blocking admission: supersteps run until completions free capacity
        (bounded by ``block_timeout`` wall-clock seconds when set).
        """
        entry = self._entries[id(session)]
        self._check_quarantined(entry)
        tenant = self._submit_tenant(entry, options)
        budget = self.max_inflight_walkers
        if tenant.quota is not None and count > tenant.quota:
            raise QueueFull(
                f"submission of {count} walkers can never fit tenant "
                f"{tenant.name!r}'s quota of {tenant.quota}"
            )

        def fits() -> bool:
            if budget and self._inflight >= budget:
                return False
            if tenant.quota is not None and tenant.outstanding + count > tenant.quota:
                return False
            return True

        give_up = (
            None
            if options.block_timeout is None
            else time.monotonic() + options.block_timeout  # repro: ignore[internal/wall-clock]
        )
        while not fits():
            if not options.block_on_full:
                raise QueueFull(
                    f"in-flight walker budget exhausted ({self._inflight}/"
                    f"{budget or 'unbounded'} in flight, tenant {tenant.name!r} "
                    f"outstanding {tenant.outstanding}, quota {tenant.quota}); "
                    "submit with SubmitOptions(block_on_full=True) to wait, "
                    "or drain first"
                )
            if give_up is not None and time.monotonic() >= give_up:  # repro: ignore[internal/wall-clock]
                raise QueueFull(
                    f"blocking admission timed out after {options.block_timeout:g}s "
                    f"({self._inflight} walkers still in flight, tenant "
                    f"{tenant.name!r} outstanding {tenant.outstanding}, "
                    f"quota {tenant.quota})"
                )
            # Blocking admission: run supersteps until completions free
            # capacity.  Progress is guaranteed — walkers are in flight (or
            # queued behind a nonempty frontier) whenever this loop runs.
            self.tick()

    def _submit_tenant(self, entry: _SessionEntry, options: SubmitOptions) -> _TenantState:
        if options.tenant is None:
            return entry.tenant
        return self._tenant_state(options.tenant)

    def _enqueue(
        self,
        session: WalkSession,
        queries: list[WalkQuery],
        options: SubmitOptions,
    ) -> None:
        """Stage validated queries into the admission queues."""
        entry = self._entries[id(session)]
        tenant = self._submit_tenant(entry, options)
        base = len(session._submitted) - len(queries)
        for i, query in enumerate(queries):
            session._enqueue_step_by_qid[query.query_id] = self._tick
            pending = _Pending(
                seq=self._seq,
                entry=entry,
                tenant=tenant,
                query=query,
                sub_ord=base + i,
                enqueue_tick=self._tick,
                deadline_steps=options.deadline_steps,
            )
            self._seq += 1
            if options.deadline_ticks is not None:
                heapq.heappush(
                    self._deadlines,
                    (self._tick + options.deadline_ticks, pending.seq, entry,
                     query.query_id),
                )
            if options.priority > 0:
                self._slo.append(pending)
            else:
                tenant.queue.append(pending)
                if options.deadline_steps is not None:
                    tenant.has_deadlines = True
        count = len(queries)
        tenant.submitted += count
        tenant.outstanding += count
        entry.queued += count
        self._queued += count

    def _admit(self) -> None:
        """Admit queued walkers into their fusion groups, budget permitting.

        Order: deadline promotions first, then the SLO lane (FIFO), then
        the fairness policy — ``wrr`` picks the backlogged tenant with the
        smallest virtual time (one walker per pick, virtual time advanced
        by ``1/weight``), ``fifo`` follows global submission order.
        """
        if not self._queued:
            return
        # Queued walkers whose deadline aged out jump to the SLO lane.
        for tenant in self._tenants.values():
            if tenant.has_deadlines and tenant.queue:
                remaining: deque[_Pending] = deque()
                for p in tenant.queue:
                    if (
                        p.deadline_steps is not None
                        and self._tick - p.enqueue_tick >= p.deadline_steps
                    ):
                        self._slo.append(p)
                    else:
                        remaining.append(p)
                tenant.queue = remaining
                tenant.has_deadlines = any(
                    p.deadline_steps is not None for p in remaining
                )

        budget = (
            None
            if self.max_inflight_walkers == 0
            else self.max_inflight_walkers - self._inflight
        )
        admitted: list[_Pending] = []

        def room() -> bool:
            return budget is None or budget - len(admitted) > 0

        while self._slo and room():
            p = self._slo.popleft()
            p.tenant.slo_admitted += 1
            admitted.append(p)
        if self.fairness == "fifo":
            while room():
                backlogged = [t for t in self._tenants.values() if t.queue]
                if not backlogged:
                    break
                tenant = min(backlogged, key=lambda t: t.queue[0].seq)
                admitted.append(tenant.queue.popleft())
        else:  # wrr: virtual-time weighted fair queuing over unit walkers
            while room():
                backlogged = [t for t in self._tenants.values() if t.queue]
                if not backlogged:
                    break
                tenant = min(backlogged, key=lambda t: (t.vtime, t.name))
                # Catch the virtual clock up for tenants that sat idle, so a
                # returning tenant gets its fair share, not a stale burst.
                tenant.vtime = max(tenant.vtime, self._vclock)
                self._vclock = tenant.vtime
                tenant.vtime += 1.0 / tenant.weight
                admitted.append(tenant.queue.popleft())
        if not admitted:
            return
        if self.record_admissions:
            self.admissions.extend((self._tick, p.tenant.name) for p in admitted)

        by_group: dict[int, list[_Pending]] = {}
        groups: dict[int, _Group] = {}
        for p in admitted:
            gid = id(p.entry.group)
            by_group.setdefault(gid, []).append(p)
            groups[gid] = p.entry.group
        for gid, batch in by_group.items():
            self._apply_admission(groups[gid], batch)

    def _apply_admission(self, group: _Group, batch: list[_Pending]) -> None:
        """Inject one group's admitted walkers into its wave."""
        k = len(batch)
        group.owner = np.concatenate(
            [group.owner, np.array([p.entry.gidx for p in batch], dtype=np.int64)]
        )
        group.tenants.extend(p.tenant for p in batch)
        positions = group.wave.admit([p.query for p in batch])
        for pos, p in zip(positions, batch, strict=True):
            entry = p.entry
            entry.fused_pos.append(int(pos))
            entry.queries.append(p.query)
            entry.sub_ords.append(p.sub_ord)
            entry.queued -= 1
            entry.inflight += 1
            entry.session._claimed_ids.add(p.query.query_id)
            entry.session._start_step_by_qid[p.query.query_id] = self._tick
            p.tenant.admitted += 1
        self._queued -= k
        self._inflight += k

    # ------------------------------------------------------------------ #
    # Finalisation
    # ------------------------------------------------------------------ #
    def _flush(self, entry: _SessionEntry) -> None:
        """Feed an idle session's finished walkers into its ledger.

        Records every walker admitted since the previous flush in
        submission order — the scheduled analogue of a standalone wave
        finishing, so ``collect()`` prices both the same way.  Only legal
        when the session has nothing queued or in flight (its
        admitted-so-far set is then exactly its submitted-so-far set, so
        submission order is recoverable).
        """
        self._check_quarantined(entry)
        start, end = entry.flushed, len(entry.fused_pos)
        if start == end:
            return
        if entry.queued + entry.inflight:  # pragma: no cover - defensive
            raise ServiceError("cannot flush a session with pending walkers")
        session = entry.session
        wave = entry.group.wave
        order = sorted(range(start, end), key=lambda i: entry.sub_ords[i])
        fused = np.array([entry.fused_pos[i] for i in order], dtype=np.int64)
        queries = [entry.queries[i] for i in order]
        session._ledger.record(
            queries,
            [session._path_by_qid[q.query_id] for q in queries],
            wave.per_ns[fused],
            wave.counts[:, fused] if wave.counts is not None else None,
        )
        entry.flushed = end

    def __repr__(self) -> str:  # pragma: no cover - cosmetic
        return (
            f"ServiceScheduler(sessions={len(self._entries)}, "
            f"fairness={self.fairness!r}, "
            f"max_inflight_walkers={self.max_inflight_walkers}, "
            f"pending={self.pending})"
        )
