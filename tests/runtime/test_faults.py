"""Unit coverage for the fault-tolerance runtime (:mod:`repro.runtime.faults`).

The chaos property suite (``tests/properties/test_property_faults.py``)
asserts the headline invariant — bit-identical recovery under generated
fault schedules; this module pins down the mechanism piece by piece:
checkpoint capture/rewind, the checkpoint cadence, transient-retry pricing
and exhaustion, degraded-mode bookkeeping, the scalar-mode rejection, and
the plan-negotiation declines.
"""

from __future__ import annotations

import dataclasses

import numpy as np
import pytest

from repro.core.config import FlexiWalkerConfig
from repro.errors import FaultError, ReproError, SimulationError
from repro.gpusim.counters import CostCounters
from repro.gpusim.device import A6000
from repro.graph.generators import barabasi_albert_graph
from repro.graph.labels import random_edge_labels
from repro.graph.weights import uniform_weights
from repro.rng.streams import StreamPool
from repro.runtime.engine import WalkEngine
from repro.runtime.faults import (
    DEFAULT_CHECKPOINT_INTERVAL,
    FAILURE_DETECTION_NS,
    DeviceFailure,
    FaultPlan,
    FaultRuntime,
    InterconnectDrop,
    RecoveryCharge,
    TransientFault,
    reassign_owners,
    restore_checkpoint,
    take_checkpoint,
)
from repro.runtime.frontier import iter_supersteps
from repro.service import WalkService, negotiate_plan
from repro.walks.deepwalk import DeepWalkSpec
from repro.walks.metapath import MetaPathSpec
from repro.walks.state import WalkQuery, WalkerFrontier

DEVICE = dataclasses.replace(A6000, parallel_lanes=8)
GRAPH = barabasi_albert_graph(50, 3, seed=9, name="faults-test")
GRAPH = GRAPH.with_weights(uniform_weights(GRAPH, seed=9))
LABELED = GRAPH.with_labels(random_edge_labels(GRAPH, num_labels=4, seed=9))

WALK_LENGTH = 10


def queries(count=10, length=WALK_LENGTH):
    return [
        WalkQuery(query_id=i, start_node=i % GRAPH.num_nodes, max_length=length)
        for i in range(count)
    ]


def run(spec=None, graph=None, plan=None, interval=0, **kwargs):
    engine = WalkEngine(
        graph=graph if graph is not None else GRAPH,
        spec=spec if spec is not None else DeepWalkSpec(),
        device=DEVICE,
        fault_plan=plan,
        checkpoint_interval=interval,
        **kwargs,
    )
    return engine.run(queries())


def assert_bit_identical(result, reference):
    assert result.paths == reference.paths
    assert np.array_equal(result.per_query_ns, reference.per_query_ns)
    for name in CostCounters._COUNT_FIELDS:
        assert getattr(result.counters, name) == getattr(reference.counters, name)


class TestFaultPlanValidation:
    def test_negative_superstep_rejected(self):
        with pytest.raises(SimulationError):
            DeviceFailure(superstep=-1)
        with pytest.raises(SimulationError):
            TransientFault(superstep=-2)
        with pytest.raises(SimulationError):
            InterconnectDrop(step=-1)

    def test_zero_retry_success_prob_rejected(self):
        with pytest.raises(SimulationError, match="retry_success_prob"):
            FaultPlan(retry_success_prob=0.0)

    def test_max_retries_floor(self):
        with pytest.raises(SimulationError, match="max_retries"):
            FaultPlan(max_retries=0)

    def test_empty(self):
        assert FaultPlan().empty
        assert not FaultPlan(transient_faults=(TransientFault(superstep=0),)).empty

    def test_event_lists_coerced_to_tuples(self):
        plan = FaultPlan(device_failures=[DeviceFailure(superstep=1)])
        assert isinstance(plan.device_failures, tuple)


class TestCheckpointRoundtrip:
    def _drive(self, engine, frontier, pool, streams, per_ns, aggregate, usage, n):
        gen = iter_supersteps(engine, frontier, streams, per_ns, aggregate, usage)
        reports = []
        for _ in range(n):
            reports.append(next(gen))
        return reports

    def test_restore_rewinds_walkers_rng_and_accounting(self):
        engine = WalkEngine(graph=GRAPH, spec=DeepWalkSpec(), device=DEVICE)
        batch = queries()
        pool = StreamPool(engine.seed)
        frontier = WalkerFrontier(batch)
        streams = pool.batch([q.query_id for q in batch])
        per_ns = np.zeros(len(batch))
        aggregate = CostCounters(bytes_per_weight=engine.weight_bytes)
        usage: dict[str, int] = {}

        self._drive(engine, frontier, pool, streams, per_ns, aggregate, usage, 3)
        cp = take_checkpoint(2, frontier, pool, per_ns, aggregate, usage)
        assert cp.ordinal == 2
        assert cp.payload_bytes == int(frontier.active_indices().size) * 72

        # Advance past the checkpoint, then rewind and re-advance: the
        # replay must land on bit-identical state (counter-based streams).
        first = self._drive(engine, frontier, pool, streams, per_ns, aggregate, usage, 2)
        after_ns = per_ns.copy()
        restore_checkpoint(cp, frontier, pool, per_ns, aggregate, usage)
        assert not np.array_equal(per_ns, after_ns)
        replay = self._drive(engine, frontier, pool, streams, per_ns, aggregate, usage, 2)
        assert np.array_equal(per_ns, after_ns)
        for a, b in zip(first, replay, strict=False):
            assert np.array_equal(a.active, b.active)
            assert a.steps == b.steps

    def test_metapath_state_survives_roundtrip(self):
        """MetaPath walkers carry schema-position state; a failure mid-walk
        must replay it bit-identically too."""
        reference = run(spec=MetaPathSpec(), graph=LABELED)
        plan = FaultPlan(seed=3, device_failures=(DeviceFailure(superstep=2),))
        recovered = run(spec=MetaPathSpec(), graph=LABELED, plan=plan,
                        interval=DEFAULT_CHECKPOINT_INTERVAL)
        assert_bit_identical(recovered, reference)
        assert recovered.degraded_devices == (0,)

    def test_pool_snapshot_size_mismatch_rejected(self):
        pool = StreamPool(7)
        pool.batch([0, 1, 2])
        snap = pool.snapshot_counters()
        other = StreamPool(7)
        other.batch([0, 1])
        with pytest.raises(ValueError, match="slots"):
            other.restore_counters(snap)


class TestCheckpointCadence:
    @pytest.mark.parametrize("interval", [2, 3, 4, 8])
    def test_checkpoints_taken_matches_interval(self, interval):
        result = run(interval=interval)
        # DeepWalk runs exactly WALK_LENGTH supersteps; a checkpoint lands
        # after every `interval`-th one.
        assert result.checkpoints_taken == WALK_LENGTH // interval
        assert result.recovery_time_ns > 0  # the modeled copy-out cost

    def test_zero_interval_means_no_explicit_checkpoints(self):
        result = run()
        assert result.checkpoints_taken == 0
        assert result.recovery_time_ns == 0.0
        assert result.degraded_devices == ()

    def test_checkpointing_is_pure_time_overhead(self):
        assert_bit_identical(run(interval=2), run())


class TestTransientFaults:
    def test_retries_priced_into_recovery_ledger(self):
        plan = FaultPlan(seed=5, transient_faults=(TransientFault(superstep=1),))
        result = run(plan=plan)
        reference = run()
        assert_bit_identical(result, reference)
        assert result.recovery_time_ns > 0
        assert result.degraded_devices == ()

    def test_exhausted_retries_raise_fault_error(self):
        # With a vanishingly small per-retry success probability the seeded
        # geometric draw exceeds any one-retry budget.
        plan = FaultPlan(
            seed=0,
            transient_faults=(TransientFault(superstep=1),),
            retry_success_prob=1e-9,
            max_retries=1,
        )
        with pytest.raises(FaultError, match="still failing"):
            run(plan=plan)

    def test_retry_story_is_seed_deterministic(self):
        plan = FaultPlan(seed=21, transient_faults=(TransientFault(superstep=0),),
                         retry_success_prob=0.4)
        assert run(plan=plan).recovery_time_ns == run(plan=plan).recovery_time_ns


class TestPermanentFailures:
    def test_failure_replays_from_last_checkpoint(self):
        plan = FaultPlan(seed=2, device_failures=(DeviceFailure(superstep=7),))
        result = run(plan=plan, interval=3)
        assert_bit_identical(result, run())
        assert result.degraded_devices == (0,)
        # Detection latency is always part of the bill.
        assert result.recovery_time_ns > FAILURE_DETECTION_NS

    def test_device_index_folds_modulo_fleet(self):
        runtime = FaultRuntime(
            DEVICE,
            plan=FaultPlan(device_failures=(DeviceFailure(superstep=0, device=5),)),
            num_devices=2,
        )
        assert runtime.fail_devices(0) == [1]
        assert runtime.survivors() == [0]
        assert runtime.fail_devices(0) == []  # consumed

    def test_reassign_owners_round_robins_onto_survivors(self):
        owner = np.array([0, 0, 1, 0, 2], dtype=np.int64)
        reassign_owners(owner, dead=[0], survivors=[1, 2])
        assert owner.tolist() == [1, 2, 1, 1, 2]

    def test_reassign_without_survivors_keeps_ownership(self):
        owner = np.array([0, 0, 0], dtype=np.int64)
        reassign_owners(owner, dead=[0], survivors=[])
        assert owner.tolist() == [0, 0, 0]


class TestRecoveryStep:
    """``FaultRuntime.recover_superstep`` returns exactly what it charged."""

    class _Report:
        def __init__(self, step_ns):
            self.step_ns = np.asarray(step_ns, dtype=np.float64)

    @staticmethod
    def _no_replay():
        raise AssertionError("a step without a device failure must not replay")

    def test_fault_free_step_charges_nothing(self):
        faults = FaultRuntime(DEVICE)
        for ordinal in range(3):
            charge = faults.recover_superstep(
                self._Report([5.0, 7.0]), (), self._no_replay
            )
            assert charge == RecoveryCharge((), 0, ())
            assert faults.ordinal == ordinal + 1
        assert faults.recovery_ns == 0.0
        assert faults.checkpoints_taken == 0
        assert faults.degraded == []

    def test_transient_retries_are_returned_in_charge_order(self):
        plan = FaultPlan(
            seed=4,
            transient_faults=(TransientFault(superstep=1), TransientFault(superstep=1)),
        )
        faults = FaultRuntime(DEVICE, plan)
        first = faults.recover_superstep(self._Report([3.0]), (), self._no_replay)
        second = faults.recover_superstep(self._Report([2.0, 9.0]), (), self._no_replay)
        third = faults.recover_superstep(self._Report([9.0]), (), self._no_replay)
        assert first == third == RecoveryCharge((), 0, ())
        assert len(second.ns) == 2 and all(ns >= 9.0 for ns in second.ns)
        assert second.checkpoints == 0 and second.degraded == ()
        ledger = 0.0
        for ns in second.ns:
            ledger += ns
        assert ledger == faults.recovery_ns


class TestScalarModeRejected:
    def test_engine_rejects_scalar_faults(self):
        with pytest.raises(SimulationError, match="batched"):
            WalkEngine(graph=GRAPH, spec=DeepWalkSpec(), device=DEVICE,
                       execution="scalar", checkpoint_interval=2)
        with pytest.raises(SimulationError, match="batched"):
            WalkEngine(graph=GRAPH, spec=DeepWalkSpec(), device=DEVICE,
                       execution="scalar",
                       fault_plan=FaultPlan(
                           transient_faults=(TransientFault(superstep=0),)
                       ))

    def test_config_rejects_scalar_faults(self):
        with pytest.raises(ReproError, match="batched"):
            FlexiWalkerConfig(execution="scalar", checkpoint_interval=2)
        with pytest.raises(ReproError, match="batched"):
            FlexiWalkerConfig(
                execution="scalar",
                fault_plan=FaultPlan(
                    transient_faults=(TransientFault(superstep=0),)
                ),
            )


class TestNegotiation:
    @pytest.fixture(scope="class")
    def capabilities(self):
        return WalkService(GRAPH).capabilities()

    def test_scalar_backend_declines_checkpointing(self, capabilities):
        plan = negotiate_plan(
            capabilities,
            FlexiWalkerConfig(checkpoint_interval=4),
            backend="scalar",
        )
        assert plan.checkpoint_interval == 0
        assert any("checkpointing declined" in r for r in plan.reasons)

    def test_service_without_checkpointing_declines(self, capabilities):
        plan = negotiate_plan(
            dataclasses.replace(capabilities, checkpointing=False),
            FlexiWalkerConfig(checkpoint_interval=4),
        )
        assert plan.checkpoint_interval == 0
        assert any("not offered" in r for r in plan.reasons)

    def test_batched_service_grants_checkpointing(self, capabilities):
        plan = negotiate_plan(
            capabilities,
            FlexiWalkerConfig(checkpoint_interval=4),
        )
        assert plan.checkpoint_interval == 4
        assert any("checkpointing granted" in r for r in plan.reasons)

    def test_session_honours_negotiated_interval(self):
        service = WalkService(GRAPH)
        session = service.session(
            DeepWalkSpec(), FlexiWalkerConfig(checkpoint_interval=5)
        )
        session.submit(queries())
        result = session.collect()
        assert result.checkpoints_taken == WALK_LENGTH // 5


class TestStandaloneSessionMatchesEngine:
    """Degraded-mode accounting is placement-ledger work, shared by both paths.

    A standalone session must report the simulated clock ``engine.run``
    reports under faults: the interconnect-drop resend, the sharded shard
    takeover after a device loss, and the replicated re-homing of the dead
    device's walkers.  The engine-side values are pinned so neither side
    can drift on its own.
    """

    PARITY_GRAPH = barabasi_albert_graph(200, 3, seed=9)
    PARITY_GRAPH = PARITY_GRAPH.with_weights(uniform_weights(PARITY_GRAPH, seed=9))
    FAILURE = FaultPlan(device_failures=(DeviceFailure(superstep=3, device=1),))

    CASES = {
        "sharded-drop": (
            {"graph_placement": "sharded",
             "fault_plan": FaultPlan(interconnect_drops=(InterconnectDrop(step=2),))},
            54917.0, 15669.0, (),
            [(39248.0, 199, 20090), (39173.0, 176, 11241),
             (39144.0, 166, 8433), (37832.5, 151, 6519)],
        ),
        "sharded-failure": (
            {"graph_placement": "sharded", "checkpoint_interval": 2,
             "fault_plan": FAILURE},
            58862.24, 27412.239999999998, (1,),
            [(31450.0, 200, 23466), (15670.0, 117, 4345),
             (31366.0, 177, 10517), (31355.5, 169, 7955)],
        ),
        "hash-failure": (
            {"partition_policy": "hash", "checkpoint_interval": 2,
             "fault_plan": FAILURE},
            28940.179999999997, 27412.239999999998, (1,),
            [(1481.8200000000002, 67, 13957), (0.0, 0, 4837),
             (1527.94, 67, 13893), (1514.3, 66, 13596)],
        ),
        "balanced-failure": (
            {"partition_policy": "balanced", "checkpoint_interval": 2,
             "fault_plan": FAILURE},
            28956.219999999998, 27412.239999999998, (1,),
            [(1502.8999999999999, 67, 13877), (0.0, 0, 4867),
             (1488.2800000000002, 67, 13613), (1543.98, 66, 13926)],
        ),
    }

    @pytest.mark.parametrize("case", sorted(CASES))
    def test_session_collect_equals_engine_run(self, case):
        from repro.service import DeviceFleet
        from repro.walks.state import make_queries

        overrides, kernel_ns, recovery_ns, degraded, devices = self.CASES[case]
        config = FlexiWalkerConfig(device=DEVICE, seed=5, num_devices=4, **overrides)
        batch = make_queries(
            self.PARITY_GRAPH.num_nodes, walk_length=10, num_queries=200, seed=5
        )
        service = WalkService(self.PARITY_GRAPH, fleet=DeviceFleet(DEVICE, 4))
        session = service.session(DeepWalkSpec(), config)
        session.submit(batch)
        collected = session.collect()
        reference = session.engine.run(batch)

        assert reference.kernel.time_ns == kernel_ns
        assert reference.recovery_time_ns == recovery_ns
        assert reference.degraded_devices == degraded
        assert [
            (k.time_ns, k.num_queries, sum(k.counters.as_dict().values()))
            for k in reference.device_kernels
        ] == devices

        assert collected.kernel.time_ns == reference.kernel.time_ns
        assert collected.recovery_time_ns == reference.recovery_time_ns
        assert collected.degraded_devices == reference.degraded_devices
        assert [
            (k.time_ns, k.num_queries, k.counters.as_dict())
            for k in collected.device_kernels
        ] == [
            (k.time_ns, k.num_queries, k.counters.as_dict())
            for k in reference.device_kernels
        ]
        assert collected.paths == reference.paths
        assert np.array_equal(collected.per_query_ns, reference.per_query_ns)

    @pytest.mark.parametrize("placement", ["replicated", "sharded"])
    def test_multi_wave_failover_keeps_walks(self, placement):
        """A failure in a later wave re-homes work without touching a walk.

        Every wave runs its own copy of the fault plan, so the second wave
        fails over while the first wave's walkers are long finished.
        """
        from repro.service import DeviceFleet
        from repro.walks.state import make_queries

        batch = make_queries(
            self.PARITY_GRAPH.num_nodes, walk_length=10, num_queries=60, seed=5
        )
        base = FlexiWalkerConfig(
            device=DEVICE, seed=5, num_devices=4, graph_placement=placement
        )
        service = WalkService(self.PARITY_GRAPH, fleet=DeviceFleet(DEVICE, 4))
        session = service.session(
            DeepWalkSpec(),
            dataclasses.replace(base, fault_plan=self.FAILURE, checkpoint_interval=2),
        )
        session.submit(batch[:25])
        for _ in session.stream():
            pass
        session.submit(batch[25:])
        result = session.collect()
        reference = service.session(DeepWalkSpec(), base).engine.run(batch)

        assert_bit_identical(result, reference)
        assert result.degraded_devices == (1,)
        assert result.recovery_time_ns > 0
        device_totals = CostCounters()
        for kernel in result.device_kernels:
            device_totals.merge(kernel.counters)
        assert device_totals.as_dict() == result.counters.as_dict()


class TestStreamingUnderFaults:
    """Recovery replays never surface as chunks.

    A device failure restores a checkpoint and replays the lost supersteps
    before the session sees the next superstep, so ``stream()`` emits the
    fault-free chunk sequence: same walks, superstep ordinals, step counts
    and pending counts.
    """

    @staticmethod
    def _stream(config):
        from repro.service import DeviceFleet

        service = WalkService(GRAPH, fleet=DeviceFleet(DEVICE))
        session = service.session(DeepWalkSpec(), config)
        # Staggered lengths, so walks complete over several supersteps.
        session.submit([
            WalkQuery(query_id=i, start_node=i, max_length=2 + i % 8)
            for i in range(12)
        ])
        chunks = [
            (chunk.query_ids, chunk.superstep, chunk.steps, chunk.pending)
            for chunk in session.stream()
        ]
        return chunks, session.collect()

    def test_failure_keeps_the_chunk_sequence(self):
        base = FlexiWalkerConfig(device=DEVICE, seed=3)
        faulty = dataclasses.replace(
            base,
            fault_plan=FaultPlan(device_failures=(DeviceFailure(superstep=5),)),
            checkpoint_interval=2,
        )
        chunks, _ = self._stream(base)
        faulty_chunks, recovered = self._stream(faulty)
        assert recovered.degraded_devices == (0,)
        assert len(chunks) > 1
        assert faulty_chunks == chunks

    def test_transient_faults_keep_the_chunk_sequence(self):
        base = FlexiWalkerConfig(device=DEVICE, seed=3)
        faulty = dataclasses.replace(
            base,
            fault_plan=FaultPlan(
                transient_faults=(TransientFault(superstep=1), TransientFault(superstep=4))
            ),
            checkpoint_interval=1,
        )
        chunks, _ = self._stream(base)
        faulty_chunks, recovered = self._stream(faulty)
        assert recovered.recovery_time_ns > 0
        assert recovered.degraded_devices == ()
        assert faulty_chunks == chunks


class TestAttachedSessionRecoveryCharge:
    """A fusion group's recovery is charged to the sessions it covered.

    Every session with walkers in flight when a superstep begins shares
    that superstep's recovery charge; a session with nothing in flight is
    not charged.
    """

    PLAN = FaultPlan(device_failures=(DeviceFailure(superstep=3),))

    def _scheduler_sessions(self):
        from repro.service import DeviceFleet

        config = FlexiWalkerConfig(
            device=DEVICE, seed=3, fault_plan=self.PLAN, checkpoint_interval=2
        )
        scheduler = WalkService(GRAPH, fleet=DeviceFleet(DEVICE)).scheduler()
        first = scheduler.session(DeepWalkSpec(), config)
        second = scheduler.session(DeepWalkSpec(), config)
        return scheduler, first, second

    def test_every_in_flight_session_is_charged(self):
        scheduler, first, second = self._scheduler_sessions()
        first.submit(queries(6))
        second.submit(queries(6)[::-1])
        scheduler.run_until_idle(max_ticks=500)
        for result in (first.collect(), second.collect()):
            assert result.recovery_time_ns == scheduler.recovery_time_ns > 0
            assert result.checkpoints_taken == scheduler.checkpoints_taken > 0
            assert result.degraded_devices == scheduler.degraded_devices == (0,)

    def test_session_without_walkers_in_flight_is_not_charged(self):
        scheduler, first, second = self._scheduler_sessions()
        first.submit(queries(6))
        scheduler.run_until_idle(max_ticks=500)
        recovery_ns = scheduler.recovery_time_ns
        second.submit(queries(1, length=2))
        late = second.collect()
        assert first.collect().degraded_devices == (0,)
        assert first.collect().recovery_time_ns == recovery_ns > 0
        assert late.degraded_devices == ()
        assert late.recovery_time_ns == scheduler.recovery_time_ns - recovery_ns
