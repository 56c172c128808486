"""Walk sessions: incremental submission, streaming results, exact collection.

A :class:`WalkSession` is the execute stage of the service pipeline
(compile → plan → execute).  It owns no graph state of its own — the
compiled workload, hint tables and transition cache live on the parent
:class:`~repro.service.WalkService` and are shared with every sibling
session — only the per-tenant run state: a
:class:`~repro.runtime.scheduler.DynamicQueryQueue` that accepts incremental
:meth:`~WalkSession.submit` calls, the in-flight
:class:`~repro.runtime.frontier.Wave`, and the session's
:class:`~repro.runtime.frontier.PlacementLedger`.

**One execution path.**  A standalone session claims everything queued into
one wave and advances it one superstep (or, for scalar plans, one walk) per
:meth:`~WalkSession.stream` step — the same wave driver and ledger
``WalkEngine.run`` uses, so placement, pricing and fault failover cannot
differ between the two.  A scheduler-attached session's walkers run in its
fusion group's wave instead, whose ledger splits every superstep — and any
recovery step or device loss — back out to the session's ledger; the
scheduler records the session's finished walks when it goes idle.

**Exactness.**  Every walker owns a counter-based random stream keyed by its
query id, every walker's operation counts land in its own slot, and
termination rules are per-walker — so *how* queries are batched into waves
(one big submit, or many interleaved submit/stream rounds) cannot change any
path, counter total or per-query simulated time.  ``collect()`` prices the
kernel over the full submission-ordered per-query time array (for
replicated multi-device plans, over a partition of the full batch),
producing results bit-identical to the one-shot engine run over the same
queries.  The service parity suite enforces this for all four paper
workloads in scalar, batched and multi-device modes.

The one exemption — the same one the scalar/batched parity suite documents —
is ``selection="random"``: its selector flips coins from a *shared*
sequential generator, so which draw a walker sees depends on execution
order, and therefore on wave composition.  Every other selection policy
(``cost_model`` included) is a pure per-walker function and exact.
"""

from __future__ import annotations

import time
from dataclasses import dataclass, field
from collections.abc import Iterator, Sequence
from typing import TYPE_CHECKING

from repro.errors import DeadlineExceeded, ServiceError
from repro.gpusim.counters import CostCounters
from repro.runtime.engine import WalkRunResult
from repro.runtime.frontier import PlacementLedger, Wave, iter_supersteps
from repro.runtime.scheduler import DynamicQueryQueue, validate_queries
from repro.walks.state import WalkQuery

if TYPE_CHECKING:  # pragma: no cover - service imports session
    from repro.service.scheduler import ServiceScheduler
    from repro.service.service import WalkService


@dataclass(frozen=True)
class SubmitOptions:
    """Scheduling knobs of one :meth:`WalkSession.submit` call, consolidated.

    All fields are meaningful on a scheduler-attached session (see
    :class:`~repro.service.scheduler.ServiceScheduler`); a standalone
    session executes its own queue in submission order and ignores them.

    Attributes
    ----------
    priority:
        Non-negative admission priority.  Anything above 0 enters the
        scheduler's SLO lane, which is admitted before the fair-share
        lanes (still within the in-flight walker budget).
    tenant:
        Tenant the submission is accounted to; ``None`` uses the tenant
        the session was attached under.
    deadline_steps:
        Scheduler supersteps a queued walker may wait before it is
        promoted to the SLO lane (``None`` = never promoted).
    block_on_full:
        When the in-flight walker budget (or the tenant's quota) has no
        room, run scheduler supersteps until it does instead of raising
        :class:`~repro.errors.QueueFull`.
    block_timeout:
        Wall-clock seconds a ``block_on_full`` submission may spend
        waiting for capacity before giving up with
        :class:`~repro.errors.QueueFull` after all (``None`` = wait
        forever).  Requires ``block_on_full=True``.
    deadline_ticks:
        Hard per-walker deadline: scheduler ticks after submission by
        which each walk must *complete*.  Expired walks — queued or in
        flight — are cancelled (releasing their budget) and the ticket's
        :meth:`QueryTicket.paths` raises
        :class:`~repro.errors.DeadlineExceeded`.  Contrast with
        ``deadline_steps``, which is soft (it only promotes a queued
        walker into the SLO lane).
    """

    priority: int = 0
    tenant: str | None = None
    deadline_steps: int | None = None
    block_on_full: bool = False
    block_timeout: float | None = None
    deadline_ticks: int | None = None

    def __post_init__(self) -> None:
        if self.priority < 0:
            raise ServiceError("submit priority must be non-negative")
        if self.deadline_steps is not None and self.deadline_steps < 1:
            raise ServiceError("deadline_steps must be at least 1 (or None)")
        if self.block_timeout is not None:
            if not self.block_on_full:
                raise ServiceError(
                    "block_timeout only bounds a blocking admission; "
                    "set block_on_full=True alongside it"
                )
            if self.block_timeout < 0:
                raise ServiceError("block_timeout must be non-negative (or None)")
        if self.deadline_ticks is not None and self.deadline_ticks < 1:
            raise ServiceError("deadline_ticks must be at least 1 (or None)")


#: Shared default so plain ``submit(queries)`` allocates nothing extra.
_DEFAULT_SUBMIT_OPTIONS = SubmitOptions()


@dataclass(frozen=True)
class WalkChunk:
    """A batch of walks that completed together, emitted by ``stream()``.

    Frontier backends emit one chunk per superstep that completed at least
    one walk (``steps``/``counters`` then describe the whole superstep);
    the scalar backend emits one chunk per finished walk.

    Attributes
    ----------
    sequence:
        Chunk ordinal within the session (0-based, monotonically increasing
        across waves).
    superstep:
        Session-wide ordinal of the superstep (or scalar walk) that
        produced the chunk.
    query_ids / paths:
        The completed walks, paired index-by-index.
    steps:
        Walker-steps charged by the producing superstep (scalar: by the
        producing walk).
    counters:
        Operation counts charged by the producing superstep (scalar: by the
        producing walk, including its queue fetch).
    pending:
        Walks still queued or in flight after this chunk.
    enqueue_steps / first_scheduled_steps:
        Per completed walk (aligned with ``query_ids``): the session
        superstep ordinal at which the walk was submitted, and the ordinal
        at which it was first claimed for execution.  On a
        scheduler-attached session both are scheduler superstep ordinals
        (the same clock as ``superstep``), so ticket latency is
        ``superstep - enqueue_steps[i]`` and queue delay is
        ``first_scheduled_steps[i] - enqueue_steps[i]`` — no private wave
        state needed.
    """

    sequence: int
    superstep: int
    query_ids: tuple[int, ...]
    paths: tuple[tuple[int, ...], ...]
    steps: int
    counters: CostCounters
    pending: int
    enqueue_steps: tuple[int, ...] = ()
    first_scheduled_steps: tuple[int, ...] = ()

    def __len__(self) -> int:
        return len(self.query_ids)


@dataclass(frozen=True)
class QueryTicket:
    """Receipt for one :meth:`WalkSession.submit` call.

    Tickets are how a caller correlates incremental submissions with
    streamed results: they expose the submitted query ids, a coarse status,
    and — once every query of the ticket completed — the finished walks.
    """

    ticket_id: int
    query_ids: tuple[int, ...]
    _session: WalkSession = field(repr=False, compare=False)

    @property
    def status(self) -> str:
        """``"queued"``, ``"running"``, ``"done"`` or ``"cancelled"``.

        ``"cancelled"`` wins whenever *any* of the ticket's walks was
        dropped before completing (explicit :meth:`cancel`, an expired
        ``deadline_ticks``, load shedding, stream abandonment or a
        quarantined fusion group).
        """
        if any(q in self._session._cancelled_ids for q in self.query_ids):
            return "cancelled"
        done = sum(1 for q in self.query_ids if q in self._session._path_by_qid)
        if done == len(self.query_ids):
            return "done"
        claimed = self._session._claimed_ids
        if any(q in claimed for q in self.query_ids):
            return "running"
        return "queued"

    @property
    def done(self) -> bool:
        return self.status == "done"

    def cancel(self) -> int:
        """Cancel this ticket's unfinished walks, releasing their budget.

        Queued walks leave the admission queues; in-flight walks are
        terminated at the next superstep boundary.  Either way the
        scheduler's in-flight budget and the tenant's quota headroom are
        restored immediately and the tenant's ``dead_letters`` count
        grows.  Returns the number of walks actually cancelled (walks
        that already completed keep their results).  Only meaningful on
        a scheduler-attached session — a standalone session executes its
        queue synchronously, so there is nothing to cancel.
        """
        scheduler = self._session._scheduler
        if scheduler is None:
            raise ServiceError(
                "cancel() requires a scheduler-attached session; a standalone "
                "session has no admission queue to cancel from"
            )
        return scheduler._cancel_queries(
            self._session, self.query_ids, reason="cancelled"
        )

    def paths(self) -> list[list[int]]:
        """The completed walks of this ticket, in submission order.

        Raises :class:`~repro.errors.DeadlineExceeded` if any of the
        ticket's walks was dropped by a ``deadline_ticks`` expiry or by
        load shedding, :class:`~repro.errors.ServiceError` if it was
        cancelled another way or is still pending — stream or collect
        first.
        """
        session = self._session
        dropped = [q for q in self.query_ids if q in session._cancelled_ids]
        if dropped:
            reasons = sorted({session._cancelled_ids[q] for q in dropped})
            detail = (
                f"ticket {self.ticket_id}: {len(dropped)} of its "
                f"{len(self.query_ids)} walks were dropped before completing "
                f"({', '.join(reasons)})"
            )
            if "deadline" in reasons or "shed" in reasons:
                raise DeadlineExceeded(detail)
            raise ServiceError(detail)
        if not self.done:
            raise ServiceError(
                f"ticket {self.ticket_id} is {self.status}; "
                "drain stream() or call collect() before reading its paths"
            )
        return [list(self._session._path_by_qid[q]) for q in self.query_ids]


class WalkSession:
    """One tenant's walk execution over a shared :class:`WalkService`.

    Built by :meth:`WalkService.session` — not directly — from the
    compile/plan stages' outputs.  The public surface is small:

    * :meth:`submit` — enqueue more queries, get a :class:`QueryTicket`;
    * :meth:`stream` — iterate :class:`WalkChunk`s as walks complete;
    * :meth:`collect` — drain everything and return the exact
      :class:`~repro.runtime.engine.WalkRunResult` the one-shot engine
      would have produced for the same queries.

    Sessions are single-threaded (the whole simulator is); interleaving
    ``submit`` and ``stream`` from one thread is fully supported and cannot
    change any walk.
    """

    def __init__(
        self,
        service: WalkService,
        spec,
        config,
        plan,
        compiled,
        profile,
        cost_model,
        selector,
        engine,
        graph_version: int = 0,
    ) -> None:
        self.service = service
        self.spec = spec
        self.config = config
        self.plan = plan
        self.compiled = compiled
        self.profile = profile
        self.cost_model = cost_model
        self.selector = selector
        self.engine = engine
        # The graph version this session executes on, fixed at open time: a
        # later WalkService.apply_delta never retargets an open session (its
        # engine, compiled workload and caches stay bound to this version's
        # snapshot), and the scheduler refuses to fuse sessions across
        # versions.  Set by WalkService.session alongside the registry pins
        # (_unpin_finalizer releases them when the session is collected).
        self.graph_version = graph_version
        self._unpin_finalizer = None

        self._queue = DynamicQueryQueue()
        self._submitted: list[WalkQuery] = []
        self._seen_ids: set[int] = set()
        self._claimed_ids: set[int] = set()
        self._tickets: list[QueryTicket] = []
        self._path_by_qid: dict[int, list[int]] = {}
        # Walks dropped before completing, qid -> reason ("cancelled",
        # "deadline", "shed", "abandoned" or "quarantined").  Only the
        # scheduler cancels; a standalone session never populates this.
        self._cancelled_ids: dict[int, str] = {}

        # Everything placement-specific — fetch attribution, per-device
        # counts, shard hosting, failover, pricing — lives in the ledger;
        # waves and the scheduler's flush report into it and collect()
        # reads the result back out.
        self._ledger = PlacementLedger(engine)
        self._wave: Wave | None = None
        self._supersteps = 0
        self._chunks_emitted = 0
        self._exec_seconds = 0.0

        # Queue-delay bookkeeping surfaced through WalkChunk: the superstep
        # ordinal each query was submitted at and first claimed at.  On a
        # scheduler-attached session these hold scheduler tick ordinals.
        self._enqueue_step_by_qid: dict[int, int] = {}
        self._start_step_by_qid: dict[int, int] = {}
        # Set by ServiceScheduler.attach(); while attached, submit routes
        # through the scheduler's admission queues and stream()/collect()
        # drive the shared continuous-batching loop.
        self._scheduler: ServiceScheduler | None = None

    # ------------------------------------------------------------------ #
    # Submission
    # ------------------------------------------------------------------ #
    def submit(
        self,
        queries: Sequence[WalkQuery],
        *,
        options: SubmitOptions | None = None,
    ) -> QueryTicket:
        """Enqueue walk queries and return a ticket tracking them.

        Scheduling knobs travel in one keyword-only frozen
        :class:`SubmitOptions` — ``submit(queries, options=SubmitOptions(...))``.

        On a standalone session queries execute in submission order; on a
        scheduler-attached session they enter the tenant's admission queue
        and may raise :class:`~repro.errors.QueueFull` (backpressure).
        Query ids must be unique across the whole session lifetime (each id
        owns one random stream); duplicates raise
        :class:`~repro.errors.ServiceError`.
        """
        if options is None:
            options = _DEFAULT_SUBMIT_OPTIONS
        elif not isinstance(options, SubmitOptions):
            raise TypeError(
                f"options must be a SubmitOptions, not {type(options).__name__}"
            )
        queries = list(queries)
        if not queries:
            raise ServiceError("no walk queries to submit")
        validate_queries(queries, self.service.graph.num_nodes)
        clashes = [q.query_id for q in queries if q.query_id in self._seen_ids]
        if clashes:
            raise ServiceError(
                f"query ids {clashes[:5]} were already submitted to this session; "
                "ids must be unique per session (each id owns one random stream)"
            )
        if self._scheduler is not None:
            # Backpressure before any session state mutates: a QueueFull
            # submission must leave the session exactly as it was.
            self._scheduler._reserve_capacity(self, len(queries), options)
        self._seen_ids.update(q.query_id for q in queries)
        self._submitted.extend(queries)
        ticket = QueryTicket(
            ticket_id=len(self._tickets),
            query_ids=tuple(q.query_id for q in queries),
            _session=self,
        )
        self._tickets.append(ticket)
        if self._scheduler is not None:
            self._scheduler._enqueue(self, queries, options)
        else:
            enqueue_step = self._supersteps
            for q in queries:
                self._enqueue_step_by_qid[q.query_id] = enqueue_step
            self._queue.extend(queries)
        return ticket

    # ------------------------------------------------------------------ #
    # Lifecycle
    # ------------------------------------------------------------------ #
    def close(self) -> None:
        """Release the session's registry pins (idempotent).

        This also happens automatically when the session is garbage
        collected, but sessions participate in reference cycles with their
        tickets, so *when* that fires is the cyclic collector's business.
        Call ``close()`` to make the service's eviction (and delta
        migration) eligibility deterministic.  The session object stays
        usable — its engine holds every cache it needs directly — but its
        shared registry entries may be evicted or migrated from under the
        service afterwards.
        """
        if self._unpin_finalizer is not None:
            self._unpin_finalizer()

    # ------------------------------------------------------------------ #
    # Introspection
    # ------------------------------------------------------------------ #
    @property
    def pending(self) -> int:
        """Walks still queued or in flight."""
        if self._scheduler is not None:
            return self._scheduler._session_pending(self)
        in_flight = self._wave.in_flight if self._wave is not None else 0
        return self._queue.remaining + in_flight

    @property
    def completed(self) -> int:
        """Walks that have finished."""
        return len(self._path_by_qid)

    @property
    def tickets(self) -> tuple[QueryTicket, ...]:
        return tuple(self._tickets)

    def describe(self) -> dict[str, object]:
        """Summary of the session's compiled/planned state."""
        return {
            "workload": self.spec.describe(),
            "granularity": self.compiled.granularity.name,
            "compiler_supported": self.compiled.supported,
            "compiler_warnings": list(self.compiled.analysis.warnings),
            "edge_cost_ratio": self.cost_model.edge_cost_ratio,
            "selector": self.selector.name,
            "device": self.engine.device.name,
            "graph_version": self.graph_version,
            "plan": self.plan.describe(),
            "submitted": len(self._submitted),
            "completed": self.completed,
            "pending": self.pending,
        }

    # ------------------------------------------------------------------ #
    # Execution: streaming
    # ------------------------------------------------------------------ #
    def stream(self) -> Iterator[WalkChunk]:
        """Yield walks as they complete, chunked by the plan's granularity.

        The generator is resumable and interleavable: breaking out
        mid-stream leaves the in-flight wave suspended (a later ``stream()``
        or ``collect()`` resumes it exactly where it stopped), and queries
        submitted between chunks are claimed as soon as the current wave
        drains.  Returns when no queued or in-flight work remains.

        On a scheduler-attached session the chunks come from the shared
        continuous-batching loop instead of a private wave: each iteration
        advances *every* attached session's walkers by one fused superstep
        and yields this session's completions.
        """
        if self._scheduler is not None:
            yield from self._scheduler._stream_session(self)
            return
        while True:
            started = time.perf_counter()  # repro: ignore[internal/wall-clock]
            chunk = self._advance()
            self._exec_seconds += time.perf_counter() - started  # repro: ignore[internal/wall-clock]
            if chunk is None:
                if self._wave is None and not self._queue.remaining:
                    return
            else:
                yield chunk

    def collect(self) -> WalkRunResult:
        """Drain all pending work and return the exact aggregate result.

        Bit-identical — paths, counter totals, per-query and kernel
        simulated times — to a one-shot ``WalkEngine.run`` over every query
        submitted so far, whatever submit/stream interleaving preceded it
        (exemption: the ``random`` selection policy's shared-generator coin
        flips are execution-order dependent, exactly as in the
        scalar/batched parity suite).  Can be called repeatedly; later
        calls cover later submissions too.
        """
        for _ in self.stream():
            pass
        if not self._ledger.queries:
            raise ServiceError("no walk queries were submitted to this session")
        result = self._ledger.result(self.profile)
        result.wall_clock_s = self._exec_seconds
        return result

    # ------------------------------------------------------------------ #
    # Wave machinery
    # ------------------------------------------------------------------ #
    def _advance(self) -> WalkChunk | None:
        """Advance the in-flight wave once, claiming the queue into a new
        wave first if none is in flight.

        Returns the resulting chunk, or ``None`` when the call completed no
        walk (a superstep without completions, a wave that just finished, or
        an idle session).
        """
        if self._wave is None:
            if not self._queue.remaining:
                return None
            queries = self._queue.fetch_batch(self._queue.remaining)
            self._claimed_ids.update(q.query_id for q in queries)
            for q in queries:
                self._start_step_by_qid[q.query_id] = self._supersteps
            # Passed by this module's name, so a tracer wrapping
            # repro.service.session.iter_supersteps (the per-layer
            # benchmark's) sees every standalone superstep.
            self._wave = Wave(self._ledger, queries, supersteps=iter_supersteps)
        wave = self._wave
        step = wave.advance()
        if step is None:
            if wave.done:
                self._wave = None
            return None
        self._supersteps += 1
        if step.finished.size == 0:
            return None
        paths = tuple(tuple(wave.paths[i]) for i in step.finished)
        query_ids = tuple(wave.queries[int(i)].query_id for i in step.finished)
        for qid, i in zip(query_ids, step.finished, strict=True):
            self._path_by_qid[qid] = wave.paths[i]
        return self._emit(query_ids, paths, steps=step.steps, counters=step.counters)

    def _emit(
        self,
        query_ids,
        paths,
        steps: int,
        counters: CostCounters,
        superstep: int | None = None,
    ) -> WalkChunk:
        chunk = WalkChunk(
            sequence=self._chunks_emitted,
            superstep=self._supersteps - 1 if superstep is None else superstep,
            query_ids=query_ids,
            paths=paths,
            steps=steps,
            counters=counters,
            pending=self.pending,
            enqueue_steps=tuple(self._enqueue_step_by_qid.get(q, 0) for q in query_ids),
            first_scheduled_steps=tuple(
                self._start_step_by_qid.get(q, 0) for q in query_ids
            ),
        )
        self._chunks_emitted += 1
        return chunk
