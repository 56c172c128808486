"""Deterministic fault injection and checkpoint/replay recovery.

The fault-tolerance subsystem of the simulated serving stack.  Three ideas
combine to make failure handling *exactly* reproducible:

* **Seeded fault plans** — a :class:`FaultPlan` is an immutable schedule of
  failure events (permanent device failures at a superstep, transient kernel
  faults, interconnect drops on sharded migration lanes) plus a seed that
  drives every probabilistic recovery decision (how many retries a transient
  fault needs).  The same plan against the same run always produces the same
  failure story.
* **Checkpoints are cheap because state is small** — the complete execution
  state of a frontier run is the walker arrays
  (:meth:`~repro.walks.state.WalkerFrontier.snapshot`), the per-walker RNG
  *counter positions* (the streams are counter-based, so no generator state
  beyond an integer per walker exists) and the accounting accumulators.
  :func:`take_checkpoint`/:func:`restore_checkpoint` capture and rewind all
  of it; the modeled copy-out cost is priced through
  :meth:`~repro.gpusim.device.DeviceSpec.checkpoint_time_ns`.
* **Replay is bit-identical, so recovery is silent** — re-executing a
  superstep consumes exactly the same RNG counters and lands exactly the
  same counts in the same slots as the first execution.  One recovery step,
  :meth:`FaultRuntime.recover_superstep`, runs after every newly executed
  superstep of both drivers (a :class:`~repro.runtime.frontier.Wave` and a
  scheduler fusion group).  After a permanent device failure it restores
  the last checkpoint and replays the lost supersteps right away, before
  the driver sees the next superstep; the replays re-apply none of the
  first execution's side effects (folds, stream chunks — those remain
  valid because the replay regenerates identical values), and only their
  simulated time lands in the recovery ledger.  Recovered runs therefore
  produce bit-identical paths, counters and per-query base times to a
  fault-free run — only simulated time differs, surfaced as
  ``result.recovery_time_ns`` / ``result.degraded_devices`` /
  ``result.checkpoints_taken``.

Recovery policies:

* **Transient kernel faults** retry the failed superstep with capped
  exponential backoff.  The retry count is drawn deterministically from the
  plan's seed; because re-execution is bit-identical, a retried superstep is
  a pure time penalty (failed executions plus backoff) — no state changes.
  With ``max_retries`` set, exhausting the budget raises
  :class:`~repro.errors.FaultError`.
* **Permanent device failure** restores the last checkpoint and replays.
  The dead device's walkers are re-partitioned onto the survivors (degraded
  mode); a single-device run promotes a standby replacement instead.  An
  implicit cost-free checkpoint of the *initial* state always exists, so
  recovery never depends on ``checkpoint_interval`` being set — the
  interval only bounds how much work a failure can lose.
* **Interconnect drops** resend the coalesced migration batches of the
  dropped walk-step ordinal: one extra latency plus payload per batch into
  the recovery ledger.  Walker records are pure ``(key, counter, position)``
  state, so the resent batch is identical to the dropped one.
"""

from __future__ import annotations

from collections.abc import Callable, Iterator
from dataclasses import dataclass, field
from typing import NamedTuple

import numpy as np

from repro.errors import FaultError, SimulationError
from repro.gpusim.counters import CostCounters
from repro.gpusim.device import DeviceSpec
from repro.walks.state import FrontierSnapshot, WalkerFrontier

#: Default superstep interval between explicit checkpoints (the bench's
#: ``recovery`` entry sweeps around this point; <10% modeled overhead on the
#: reference workloads, the ceiling ``--max-recovery-overhead`` gates).  0
#: disables explicit checkpoints — recovery then always replays from the
#: implicit initial checkpoint.
DEFAULT_CHECKPOINT_INTERVAL = 8

#: Bytes of one checkpointed walker record: current node, previous node,
#: step counter, max length and path-write cursor (5 x int64), the 128-bit
#: Philox key naming the walker's stream, plus its 64-bit counter position.
#: The path prefix itself is not copied — it is reconstructible on the
#: device that wrote it and only the tail cursor must survive.
WALKER_CHECKPOINT_BYTES = 72

#: Capped exponential backoff schedule for transient-fault retries: retry
#: ``i`` waits ``min(BASE * 2**i, CAP)`` nanoseconds before re-launching.
RETRY_BACKOFF_BASE_NS = 1_000.0
RETRY_BACKOFF_CAP_NS = 64_000.0

#: Modeled latency between a device failing and the runtime detecting it
#: (heartbeat miss + fleet membership update), charged once per failure.
FAILURE_DETECTION_NS = 25_000.0


@dataclass(frozen=True)
class DeviceFailure:
    """Permanent failure of one device during superstep ``superstep``.

    The superstep's results on that device are lost; recovery restores the
    last checkpoint and replays.  ``device`` is interpreted modulo the run's
    device count, so one plan applies meaningfully to any fleet size (a
    single-device run always loses device 0 and promotes a replacement).
    """

    superstep: int
    device: int = 0

    def __post_init__(self) -> None:
        if self.superstep < 0:
            raise SimulationError("fault superstep must be non-negative")
        if self.device < 0:
            raise SimulationError("fault device index must be non-negative")


@dataclass(frozen=True)
class TransientFault:
    """A recoverable kernel fault during superstep ``superstep``.

    The superstep's launch fails and is retried (each retry succeeds with
    the plan's ``retry_success_prob``) with capped exponential backoff.  The
    step-synchronous barrier stalls every device until the retry succeeds,
    so the penalty is counted against the whole run.
    """

    superstep: int

    def __post_init__(self) -> None:
        if self.superstep < 0:
            raise SimulationError("fault superstep must be non-negative")


@dataclass(frozen=True)
class InterconnectDrop:
    """Loss of the coalesced migration batches sent at walk-step ``step``.

    Only meaningful for the sharded placement; the dropped batches are
    resent (one extra interconnect latency plus payload each).  A drop at a
    step ordinal with no migrations is a no-op.
    """

    step: int

    def __post_init__(self) -> None:
        if self.step < 0:
            raise SimulationError("fault step ordinal must be non-negative")


@dataclass(frozen=True)
class FaultPlan:
    """A seeded, immutable schedule of failures to inject into one run.

    Attributes
    ----------
    seed:
        Drives every probabilistic recovery decision (transient retry
        counts) through its own ``numpy`` generator — independent of the
        walk RNG, so injecting faults can never perturb the walks.
    device_failures / transient_faults / interconnect_drops:
        The failure events (see the event classes).  Multiple events may
        share a superstep; failures of already-failed devices are ignored.
    retry_success_prob:
        Probability that one transient-fault retry succeeds.  Must be
        positive: every transient fault is then recoverable almost surely,
        which is what makes the chaos invariant (“every generated plan
        recovers bit-identically”) satisfiable by construction.
    max_retries:
        Optional cap on retries per transient fault; exhausting it raises
        :class:`~repro.errors.FaultError`.  ``None`` (default) retries
        until success.
    """

    seed: int = 0
    device_failures: tuple[DeviceFailure, ...] = ()
    transient_faults: tuple[TransientFault, ...] = ()
    interconnect_drops: tuple[InterconnectDrop, ...] = ()
    retry_success_prob: float = 0.7
    max_retries: int | None = None

    def __post_init__(self) -> None:
        object.__setattr__(self, "device_failures", tuple(self.device_failures))
        object.__setattr__(self, "transient_faults", tuple(self.transient_faults))
        object.__setattr__(self, "interconnect_drops", tuple(self.interconnect_drops))
        if not 0.0 < self.retry_success_prob <= 1.0:
            raise SimulationError(
                "retry_success_prob must be in (0, 1] — a zero success "
                "probability would make every transient fault unrecoverable"
            )
        if self.max_retries is not None and self.max_retries < 1:
            raise SimulationError("max_retries must be at least 1 (or None)")

    @property
    def empty(self) -> bool:
        return not (
            self.device_failures or self.transient_faults or self.interconnect_drops
        )


@dataclass
class RunCheckpoint:
    """One captured restore point of a frontier run.

    ``ordinal`` is the superstep after which the state was captured (-1 for
    the implicit initial checkpoint).  Every field is a private copy, so a
    checkpoint survives any number of restores.
    """

    ordinal: int
    frontier: FrontierSnapshot
    rng: tuple[np.ndarray, np.ndarray]
    per_query_ns: np.ndarray
    counters: CostCounters
    usage: dict[str, int]
    payload_bytes: int
    extra: dict[str, object] = field(default_factory=dict)


def take_checkpoint(
    ordinal: int,
    frontier: WalkerFrontier,
    pool,
    per_query_ns: np.ndarray,
    aggregate: CostCounters,
    usage: dict[str, int],
) -> RunCheckpoint:
    """Capture a restore point covering walker, RNG and accounting state."""
    live = int(frontier.active_indices().size)
    return RunCheckpoint(
        ordinal=ordinal,
        frontier=frontier.snapshot(),
        rng=pool.snapshot_counters(),
        per_query_ns=per_query_ns.copy(),
        counters=aggregate.copy(),
        usage=dict(usage),
        payload_bytes=live * WALKER_CHECKPOINT_BYTES,
    )


def restore_checkpoint(
    cp: RunCheckpoint,
    frontier: WalkerFrontier,
    pool,
    per_query_ns: np.ndarray,
    aggregate: CostCounters,
    usage: dict[str, int],
) -> None:
    """Rewind a run's mutable state to a checkpoint, in place.

    In place matters: the live ``iter_supersteps`` state (and any observers
    holding references) keep seeing the same objects, so a fresh generator
    over the same triple resumes from the restored point.
    """
    frontier.restore(cp.frontier)
    pool.restore_counters(cp.rng)
    per_query_ns[:] = cp.per_query_ns
    for name in CostCounters._COUNT_FIELDS:
        setattr(aggregate, name, getattr(cp.counters, name))
    usage.clear()
    usage.update(cp.usage)


class RecoveryCharge(NamedTuple):
    """What one recovery step added to the recovery ledger.

    ``ns`` lists the step's individual time charges in the order the
    runtime added them, so a ledger that adds them one by one reproduces
    the runtime's own ``recovery_ns`` bit for bit.  ``degraded`` holds the
    devices newly lost during the step.
    """

    ns: tuple[float, ...]
    checkpoints: int
    degraded: tuple[int, ...]


class FaultRuntime:
    """Mutable per-run fault state: pending events, restore point, ledger.

    One instance accompanies one run (or one scheduler fusion group).  The
    driver calls :meth:`recover_superstep` after every newly executed
    superstep; all recovery time — checkpoint copy-outs, retries, backoff,
    replayed supersteps, resent migration batches — accumulates in
    ``recovery_ns``, kept strictly apart from the placement-invariant
    per-query base times.

    ``ordinal`` is the run's superstep clock (the fault plan's time axis)
    and ``checkpoint`` its restore point.  A driver that changes the run's
    state between supersteps (scheduler admission or cancellation) sets
    ``checkpoint = None``; :meth:`restore_point` then takes a cost-free
    snapshot at the next superstep boundary.  ``state`` is always the
    ``(frontier, pool, per_query_ns, aggregate, usage)`` tuple a checkpoint
    covers — the trailing arguments of :func:`take_checkpoint`.
    """

    __slots__ = (
        "device",
        "plan",
        "interval",
        "num_devices",
        "recovery_ns",
        "checkpoints_taken",
        "degraded",
        "checkpoint",
        "ordinal",
        "_charges",
        "_rng",
        "_failures",
        "_transients",
        "_drops",
    )

    def __init__(
        self,
        device: DeviceSpec,
        plan: FaultPlan | None = None,
        checkpoint_interval: int = 0,
        num_devices: int = 1,
    ) -> None:
        if checkpoint_interval < 0:
            raise SimulationError("checkpoint_interval must be non-negative")
        self.device = device
        self.plan = plan
        self.interval = int(checkpoint_interval)
        self.num_devices = int(num_devices)
        self.recovery_ns = 0.0
        self.checkpoints_taken = 0
        self.degraded: list[int] = []
        self.checkpoint: RunCheckpoint | None = None
        self.ordinal = 0
        self._charges: list[float] = []
        self._rng = np.random.default_rng(plan.seed) if plan is not None else None
        self._failures: dict[int, list[int]] = {}
        self._transients: dict[int, int] = {}
        self._drops: set[int] = set()
        if plan is not None:
            for failure in plan.device_failures:
                self._failures.setdefault(failure.superstep, []).append(failure.device)
            for fault in plan.transient_faults:
                self._transients[fault.superstep] = (
                    self._transients.get(fault.superstep, 0) + 1
                )
            self._drops = {drop.step for drop in plan.interconnect_drops}

    def survivors(self) -> list[int]:
        return [d for d in range(self.num_devices) if d not in self.degraded]

    def _charge(self, ns: float) -> None:
        self.recovery_ns += ns
        self._charges.append(ns)

    # -- checkpointing -------------------------------------------------- #
    def checkpoint_due(self, ordinal: int) -> bool:
        """Whether an explicit checkpoint follows superstep ``ordinal``."""
        return self.interval > 0 and (ordinal + 1) % self.interval == 0

    def charge_checkpoint(self, payload_bytes: int) -> None:
        self._charge(self.device.checkpoint_time_ns(payload_bytes))
        self.checkpoints_taken += 1

    # -- transient faults ----------------------------------------------- #
    def charge_transients(self, ordinal: int, superstep_ns: float) -> None:
        """Price the retries of any transient fault scheduled at ``ordinal``.

        The failed launch plus every failed retry wastes one superstep of
        work; each retry first waits its backoff slot.  Retry counts are
        geometric draws from the plan's seeded generator — deterministic,
        and independent of the walk RNG.
        """
        count = self._transients.pop(ordinal, None)
        if not count:
            return
        plan = self.plan
        for _ in range(count):
            retries = int(self._rng.geometric(plan.retry_success_prob))
            if plan.max_retries is not None and retries > plan.max_retries:
                raise FaultError(
                    f"transient fault at superstep {ordinal} still failing "
                    f"after {plan.max_retries} retries"
                )
            backoff = sum(
                min(RETRY_BACKOFF_BASE_NS * 2.0**i, RETRY_BACKOFF_CAP_NS)
                for i in range(retries)
            )
            self._charge(retries * superstep_ns + backoff)

    # -- permanent failures --------------------------------------------- #
    def fail_devices(self, ordinal: int) -> list[int]:
        """Devices newly lost during superstep ``ordinal`` (now degraded).

        Indices are folded modulo the device count; a device can only die
        once (later failures of the same index are ignored, including the
        replacement promoted by a single-device run).
        """
        pending = self._failures.pop(ordinal, None)
        if not pending:
            return []
        dead: list[int] = []
        for device in pending:
            device %= self.num_devices
            if device not in self.degraded and device not in dead:
                dead.append(device)
        self.degraded.extend(dead)
        return dead

    def charge_failure(self, dead: list[int], cp: RunCheckpoint) -> None:
        """Detection latency plus the checkpoint read-back, per failure."""
        self._charge(FAILURE_DETECTION_NS * len(dead))
        self._charge(self.device.checkpoint_time_ns(cp.payload_bytes))

    # -- interconnect drops --------------------------------------------- #
    def charge_interconnect_drop(
        self,
        step_ordinal: int,
        src: np.ndarray,
        dst: np.ndarray,
        payload_bytes: int,
    ) -> None:
        """Resend the coalesced migration batches of a dropped step ordinal.

        ``src``/``dst`` are the per-walker migration endpoints logged at
        ``step_ordinal``; each distinct (src, dst) pair was one coalesced
        batch, resent at one interconnect latency plus its payload.
        """
        if step_ordinal not in self._drops:
            return
        self._drops.discard(step_ordinal)
        if src.size == 0:
            return
        batches = np.unique(src * self.num_devices + dst).size
        self._charge(batches * self.device.interconnect_latency_ns)
        self._charge(src.size * payload_bytes / self.device.interconnect_bytes_per_ns)

    # -- the recovery step ---------------------------------------------- #
    def restore_point(self, state: tuple) -> None:
        """Snapshot ``state`` as the restore point unless one is current.

        Called at a superstep boundary, before the superstep runs.  The
        snapshot is cost-free — the analogue of the implicit initial
        checkpoint — so recovery never depends on ``interval`` being set.
        """
        if self.checkpoint is None:
            self.checkpoint = take_checkpoint(self.ordinal - 1, *state)

    def _checkpoint_if_due(self, ordinal: int, state: tuple) -> None:
        if self.checkpoint_due(ordinal):
            self.checkpoint = take_checkpoint(ordinal, *state)
            self.charge_checkpoint(self.checkpoint.payload_bytes)

    def recover_superstep(
        self,
        report,
        state: tuple,
        regenerate: Callable[[], Iterator],
        on_failure: Callable[[list[int]], None] | None = None,
    ) -> RecoveryCharge:
        """The recovery step, run after every newly executed superstep.

        Charges the superstep's transient faults, then fails its devices:
        ``on_failure(dead)`` runs first (drivers re-partition ownership
        against the bookkeeping the superstep left), then the restore
        point is restored into ``state`` and the lost supersteps are
        replayed right away through ``regenerate()`` — which must install
        a fresh superstep generator over the restored state as the
        driver's own and return it.  Replays are bit-identical to the
        first execution, so the driver's folds stay valid and only the
        replayed makespans are charged.  Finally any due checkpoint is
        taken.  Returns what the step charged.
        """
        ordinal = self.ordinal
        taken = self.checkpoints_taken
        self.charge_transients(ordinal, _makespan(report))
        dead = self.fail_devices(ordinal)
        if dead:
            if on_failure is not None:
                on_failure(dead)
            checkpoint = self.checkpoint
            self.charge_failure(dead, checkpoint)
            restore_checkpoint(checkpoint, *state)
            supersteps = regenerate()
            for replayed in range(checkpoint.ordinal + 1, ordinal + 1):
                self._charge(_makespan(next(supersteps)))
                self._checkpoint_if_due(replayed, state)
        else:
            self._checkpoint_if_due(ordinal, state)
        self.ordinal = ordinal + 1
        charges, self._charges = tuple(self._charges), []
        return RecoveryCharge(charges, self.checkpoints_taken - taken, tuple(dead))


def _makespan(report) -> float:
    """Simulated time of one superstep: its slowest walker's step."""
    return float(report.step_ns.max()) if report.step_ns.size else 0.0


def reassign_owners(
    owner: np.ndarray, dead: list[int], survivors: list[int]
) -> None:
    """Round-robin the dead devices' walkers onto the survivors, in place.

    The degraded-mode re-partitioning of the replicated placement.  With no
    survivors (a single-device run, or every device lost) ownership stays —
    the replacement-device policy: a standby takes over the dead device's
    identity and its walkers never move.
    """
    if not survivors:
        return
    pool = np.asarray(survivors, dtype=np.int64)
    for device in dead:
        idx = np.flatnonzero(owner == device)
        if idx.size:
            owner[idx] = pool[np.arange(idx.size) % pool.size]
