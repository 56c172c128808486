"""``serve-updates``: a closed loop of sessions on one scheduler, beside a writer.

:data:`~perfbench.inputs.CLIENTS` clients share one
:class:`~repro.ServiceScheduler`.  Each client opens a session (DeepWalk and
Node2Vec alternate by session number), submits its queries, waits for the
scheduler to finish them, collects, detaches, closes and opens the next
one.  A client sends nothing new until its previous session returned, so
a slower program receives less load.  Clients arrive one after another
over the first :data:`~perfbench.inputs.WALK_LENGTH` ticks: a session lasts
about that many ticks, so sessions then finish spread over the ticks
instead of in one lockstep cohort, and the latency tail has independent
samples.  An update client applies the next
pre-generated delta through ``WalkService.apply_delta`` every
:data:`~perfbench.inputs.DELTA_EVERY_TICKS` ticks.

The loop is driven by ticks, never by the clock, so the first N sessions
(by collection order) are the same on every run of a seed: that prefix
carries the repeat check, the simulated time and the traced window.
"""

from __future__ import annotations

import statistics
import time
import hashlib
import json

import numpy as np

from repro import DeepWalkSpec, FlexiWalkerConfig, Node2VecSpec, WalkService
from repro.errors import ReproError

from perfbench import common, layers
from perfbench.inputs import CLIENTS, DELTA_EVERY_TICKS, WALK_LENGTH, Inputs
from perfbench.tracer import Tracer

#: Sessions (in collection order) covered by the repeat check, ``sim_ms``,
#: the memory pass and the traced window.
PREFIX_SESSIONS = 256
#: Prefix sessions re-run standalone on their pinned graph version.
CHECK_SESSIONS = 8
#: Loops per timed run, each with its own set-up.  Every end-to-end time is
#: a median over the loops (updates: over all of them), so one loop caught
#: in a slow spell of the host does not move it.  Pooled, p99 would be the
#: slowest few sessions of the whole run: those of its slowest spell.
REPEATS = 5
#: Measured sessions per timed run, at least: the pooled p99 then has ten beyond it.
MIN_SESSIONS = 1000


_NO_CHECK: frozenset[int] = frozenset()


class _Client:
    __slots__ = ("index", "session", "ticket", "queries", "submitted_at")


class ServeLoop:
    """One service + scheduler + clients, advanced one tick at a time."""

    def __init__(self, inputs: Inputs, *, check: frozenset[int] = _NO_CHECK, tracer=None) -> None:
        self.inputs = inputs
        self.tracer = tracer
        self.started = time.perf_counter()
        self.service = WalkService(inputs.graph)
        self.scheduler = self.service.scheduler()
        self.specs = (DeepWalkSpec(), Node2VecSpec(a=2.0, b=0.5))
        self.config = FlexiWalkerConfig(seed=inputs.seed)
        self.check = check
        self.opened = 0
        self.ticks = 0
        self.deltas = 0
        self.touched_nodes = 0
        self.steps = 0
        self.failed = 0
        self.exhausted = False
        #: ``(session index, result)`` of the first PREFIX_SESSIONS collected.
        self.prefix: list[tuple[int, object]] = []
        self.prefix_ticks = 0
        self.prefix_deltas = 0
        #: ``(spec, queries, pinned graph, result)`` of the prefix sessions
        #: whose collection ordinal is in ``check``.
        self.to_check: list[tuple] = []
        self.collected = 0
        self.setup_done_at: float | None = None
        self.first_wave_left = CLIENTS
        # Samples recorded once ``measuring`` is switched on.
        self.measuring = False
        self.latencies_ms: list[float] = []
        self.updates_ms: list[float] = []
        self.measured_steps = 0
        self.clients: list[_Client | None] = [None] * CLIENTS
        self.arrived = 0

    def _open(self) -> _Client | None:
        if self.opened >= self.inputs.session_starts.shape[0]:
            self.exhausted = True
            return None
        client = _Client()
        client.index = self.opened
        self._label(f"session-{client.index}")
        client.queries = self.inputs.session_queries(client.index)
        client.session = self.scheduler.session(self.specs[client.index % 2], self.config)
        client.submitted_at = time.perf_counter()
        client.ticket = client.session.submit(client.queries)
        self.opened += 1
        return client

    def _apply_next_delta(self) -> None:
        if self.deltas >= len(self.inputs.deltas):
            self.exhausted = True
            return
        delta = self.inputs.deltas[self.deltas]
        self._label(f"delta-{self.deltas}")
        started = time.perf_counter()
        self.service.apply_delta(delta.additions, delta.removals, weights=delta.weights)
        elapsed = time.perf_counter() - started
        if self.measuring:
            self.updates_ms.append(elapsed * 1e3)
        self.deltas += 1
        self.touched_nodes += int(self.service.dynamic_graph.delta.touched_nodes.size)

    def _label(self, run: str) -> None:
        """Name the request that the spans opened next belong to."""
        if self.tracer is not None:
            self.tracer.run = run

    def _finish(self, slot: int, client: _Client, cancelled: bool) -> None:
        """Collect a finished session (None when it failed), detach, reopen."""
        session = client.session
        self._label(f"session-{client.index}")
        result = None
        try:
            if not cancelled:
                result = session.collect()
            self.scheduler.detach(session)
        except ReproError:
            result = None
        elapsed = time.perf_counter() - client.submitted_at
        session.close()
        self.collected += 1
        self.failed += result is None
        if client.index < CLIENTS:
            self.first_wave_left -= 1
            if self.first_wave_left == 0:
                self.setup_done_at = time.perf_counter()
        if self.measuring:
            self.latencies_ms.append(elapsed * 1e3)
        if len(self.prefix) < PREFIX_SESSIONS:
            if len(self.prefix) in self.check and result is not None:
                self.to_check.append((session.spec, client.queries, session.engine.graph, result))
            self.prefix.append((client.index, result))
            if len(self.prefix) == PREFIX_SESSIONS:
                self.prefix_ticks = self.ticks
                self.prefix_deltas = self.deltas
        self.clients[slot] = self._open()

    def tick(self) -> None:
        # Client ``k`` opens its first session before tick ``k * WALK_LENGTH // CLIENTS``.
        while self.arrived < CLIENTS and self.arrived * WALK_LENGTH // CLIENTS <= self.ticks:
            self.clients[self.arrived] = self._open()
            self.arrived += 1
        self._label(f"tick-{self.ticks}")
        steps = self.scheduler.tick()
        self.steps += steps
        if self.measuring:
            self.measured_steps += steps
        self.ticks += 1
        if self.ticks % DELTA_EVERY_TICKS == 0:
            self._apply_next_delta()
        for slot, client in enumerate(self.clients):
            if client is None:
                continue
            # A dead-lettered or quarantined walk cancels its ticket.
            status = client.ticket.status
            if status in ("done", "cancelled"):
                self._finish(slot, client, cancelled=status == "cancelled")

    def run_prefix(self) -> None:
        """Tick until the prefix sessions are all collected."""
        while len(self.prefix) < PREFIX_SESSIONS and not self.exhausted:
            self.tick()

    def prefix_counts(self) -> dict[str, object]:
        """Program-made counts of the prefix (must repeat exactly per seed)."""
        digest = hashlib.sha256()
        totals = {"total_steps": 0, "sim_ns": 0.0}
        counters: dict[str, int] = {}
        usage: dict[str, int] = {}
        for index, result in self.prefix:
            if result is None:
                digest.update(f"{index}:failed".encode())
                continue
            entry = common.result_digest(result)
            digest.update(json.dumps([index, entry], sort_keys=True).encode())
            totals["total_steps"] += entry["total_steps"]
            totals["sim_ns"] += entry["sim_ns"]
            for name, value in entry["counters"].items():
                counters[name] = counters.get(name, 0) + value
            for name, value in entry["sampler_usage"].items():
                usage[name] = usage.get(name, 0) + value
        return {
            "sessions": len(self.prefix),
            "ticks": self.prefix_ticks,
            "deltas": self.prefix_deltas,
            "digest": digest.hexdigest()[:16],
            "total_steps": totals["total_steps"],
            "sim_ns": totals["sim_ns"],
            "counters": counters,
            "sampler_usage": dict(sorted(usage.items())),
        }


def _mismatched(to_check: list[tuple], seed: int) -> int:
    """Checked sessions whose walks differ from a standalone scalar run."""
    return sum(
        1
        for spec, queries, graph, result in to_check
        if common.oracle_mismatches(graph, spec, seed, queries, result.paths, result.per_query_ns)
    )


def check_sample(seed: int) -> frozenset[int]:
    rng = np.random.default_rng([seed, 4])
    return frozenset(int(i) for i in rng.choice(PREFIX_SESSIONS, CHECK_SESSIONS, replace=False))


def _drop(loop: ServeLoop) -> None:
    """Release a finished loop's service before the next one starts."""
    loop.clients.clear()
    loop.scheduler = loop.service = None
    common.settle()


def run_timed(inputs: Inputs, seconds: float) -> dict[str, object]:
    """The end-to-end run: REPEATS timed loops, a memory pass and the checks."""
    share = seconds / REPEATS
    setups, rates, loop_latency, latencies, updates, prefixes = [], [], [], [], [], []
    window = 0.0
    failed = 0
    attempted = 0
    exhausted = False
    to_check: list[tuple] = []
    for repeat in range(REPEATS):
        common.settle()
        loop = ServeLoop(inputs, check=check_sample(inputs.seed) if repeat == 0 else _NO_CHECK)
        while loop.setup_done_at is None:
            loop.tick()
        setups.append(loop.setup_done_at - loop.started)
        loop.measuring = True
        opened = time.perf_counter()
        while not loop.exhausted and (
            time.perf_counter() - opened < share
            or len(loop.prefix) < PREFIX_SESSIONS
            or len(loop.latencies_ms) * REPEATS < MIN_SESSIONS
        ):
            loop.tick()
        elapsed = time.perf_counter() - opened
        window += elapsed
        rates.append(loop.measured_steps / elapsed)
        loop_latency.append(common.percentile_report(loop.latencies_ms))
        latencies += loop.latencies_ms
        updates += loop.updates_ms
        prefixes.append(loop.prefix_counts())
        failed += loop.failed
        attempted += loop.collected
        exhausted |= loop.exhausted
        to_check += loop.to_check
        _drop(loop)

    def memory_pass():
        loop = ServeLoop(inputs)
        loop.run_prefix()
        counts = loop.prefix_counts()
        _drop(loop)
        return counts

    peak_mb, memory_counts = common.traced_peak_mb(memory_pass)
    prefixes.append(memory_counts)
    mismatched = _mismatched(to_check, inputs.seed)
    latency = common.percentile_report(latencies)
    deterministic = all(counts == prefixes[0] for counts in prefixes)
    failures = failed + mismatched
    return {
        "metrics": {
            "steps_per_s": statistics.median(rates),
            "setup_s": statistics.median(setups),
            "peak_mb": peak_mb,
            "sim_ms": prefixes[0]["sim_ns"] / 1e6,
            "ok_frac": 1.0 - failures / attempted,
            "latency_p50_ms": statistics.median(report["p50"] for report in loop_latency),
            "latency_p99_ms": statistics.median(report["p99"] for report in loop_latency),
            "update_p50_ms": statistics.median(updates),
        },
        "attempted": attempted,
        "failed": failures,
        "correct": deterministic and failures == 0 and not exhausted,
        "counts": prefixes[0],
        "report": {
            "loop": f"closed, {CLIENTS} clients, delta every {DELTA_EVERY_TICKS} ticks",
            "latency_samples": latency["samples"],
            "latency_samples_per_loop": [report["samples"] for report in loop_latency],
            "latency_p99_ms_per_loop": [report["p99"] for report in loop_latency],
            "latency_p99_ms_pooled": latency["p99"],
            "latency_at_or_beyond_pooled_p99": latency["at_or_beyond_p99"],
            "update_samples": len(updates),
            "setup_samples": setups,
            "steps_per_s_per_loop": rates,
            "measured_s": window,
            "sessions_per_s": len(latencies) / window,
            "checked_sessions": len(to_check),
            "oracle_mismatched_sessions": mismatched,
            "failed_sessions": failed,
            "inputs_exhausted": exhausted,
            "repeat_identical_within_run": deterministic,
        },
    }


def _prefix_rate(inputs: Inputs, **loop_args) -> tuple[float, ServeLoop]:
    """Steps/s of one loop from construction to the last prefix session."""
    common.settle()
    loop = ServeLoop(inputs, **loop_args)
    loop.run_prefix()
    return loop.steps / (time.perf_counter() - loop.started), loop


def run_traced(inputs: Inputs) -> dict[str, object]:
    """The per-layer run: the prefix loop traced, between two untraced ones.

    A first untraced loop warms the process up and is discarded; the
    untraced rate is the mean of the loops just before and after the traced
    one, so host drift does not read as tracing overhead.
    """
    _drop(_prefix_rate(inputs)[1])  # the first loop in a process pays one-off costs
    before, reference = _prefix_rate(inputs)
    untraced_counts = reference.prefix_counts()
    _drop(reference)
    tracer = Tracer()
    with layers.traced(tracer):
        traced_rate, loop = _prefix_rate(inputs, check=check_sample(inputs.seed), tracer=tracer)
    after, reference = _prefix_rate(inputs)
    _drop(reference)
    untraced_rate = (before + after) / 2
    counts = loop.prefix_counts()
    results = [result for _, result in loop.prefix if result is not None]
    metrics = layers.per_layer_metrics(
        tracer,
        executed_steps=loop.steps,
        collected_steps=sum(result.total_steps for result in results),
        counters=layers.counter_totals(results),
        sampler_usage=layers.usage_totals(results),
        touched_nodes=loop.touched_nodes,
        overhead_frac=1.0 - traced_rate / untraced_rate,
    )
    mismatched = _mismatched(loop.to_check, inputs.seed)
    failures = loop.failed + mismatched
    identical = counts == untraced_counts
    return {
        "metrics": metrics,
        "attempted": loop.collected,
        "failed": failures,
        "correct": identical and failures == 0 and not loop.exhausted,
        "counts": counts,
        "tracer": tracer,
        "report": {
            "traced_window": f"set-up through the first {PREFIX_SESSIONS} sessions",
            "untraced_steps_per_s": untraced_rate,
            "traced_steps_per_s": traced_rate,
            "traced_matches_untraced": identical,
            "checked_sessions": len(loop.to_check),
            "oracle_mismatched_sessions": mismatched,
        },
    }
