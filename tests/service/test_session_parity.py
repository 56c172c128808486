"""Session ↔ one-shot parity: collect() must be bit-identical to the engine.

The acceptance contract of the service redesign: for every paper workload
(deepwalk / node2vec / metapath / 2nd-order PageRank) and every backend
(scalar, batched, fused multi-device), ``WalkSession.collect()`` —
including after arbitrary submit/stream interleaving — reproduces the
one-shot ``WalkEngine.run`` output *bit for bit*: paths, per-kernel usage,
counter totals, per-query simulated times, kernel makespans, per-device
kernels and the simulated profiling/preprocessing overheads.
"""

from __future__ import annotations

import dataclasses

import numpy as np
import pytest

from repro.core.config import FlexiWalkerConfig
from repro.gpusim.device import A6000
from repro.service import DeviceFleet, WalkService
from repro.walks.deepwalk import DeepWalkSpec
from repro.walks.metapath import MetaPathSpec
from repro.walks.node2vec import Node2VecSpec
from repro.walks.second_order_pr import SecondOrderPRSpec
from repro.walks.state import make_queries

DEVICE = dataclasses.replace(A6000, parallel_lanes=8)

SPEC_FACTORIES = {
    "deepwalk": DeepWalkSpec,
    "node2vec": Node2VecSpec,
    "metapath": lambda: MetaPathSpec(schema=(0, 1, 2)),
    "2nd_pr": SecondOrderPRSpec,
}

MODES = {
    "scalar": {"execution": "scalar"},
    "batched": {"execution": "batched"},
    "multi_device": {"execution": "batched", "num_devices": 4, "partition_policy": "balanced"},
    "multi_device_scalar": {"execution": "scalar", "num_devices": 3, "partition_policy": "range"},
}


def make_config(**overrides) -> FlexiWalkerConfig:
    return FlexiWalkerConfig(device=DEVICE, seed=3, **overrides)


def reference_run(graph, spec, config, queries):
    """A direct engine run (no session machinery involved), on the engine
    and profile a separate service session built."""
    service = WalkService(graph, fleet=DeviceFleet(DEVICE, config.num_devices))
    session = service.session(spec, config)
    return session.engine.run(queries, profile=session.profile)


def assert_bit_identical(result, reference):
    assert result.paths == reference.paths
    assert result.sampler_usage == reference.sampler_usage
    assert result.total_steps == reference.total_steps
    assert result.counters.as_dict() == reference.counters.as_dict()
    assert np.array_equal(result.per_query_ns, reference.per_query_ns)
    assert result.kernel.time_ns == reference.kernel.time_ns
    assert result.kernel.total_work_ns == reference.kernel.total_work_ns
    assert [k.time_ns for k in result.device_kernels] == [
        k.time_ns for k in reference.device_kernels
    ]
    assert [k.counters.as_dict() for k in result.device_kernels] == [
        k.counters.as_dict() for k in reference.device_kernels
    ]
    # Simulated overheads: profiling + preprocessing (Table 3).
    assert result.preprocess_time_ns == reference.preprocess_time_ns
    assert result.overhead_ms == reference.overhead_ms


class TestCollectParity:
    @pytest.mark.parametrize("workload", sorted(SPEC_FACTORIES))
    @pytest.mark.parametrize("mode", sorted(MODES))
    def test_single_submit_collect_is_bit_identical(self, service_graph, workload, mode):
        config = make_config(**MODES[mode])
        queries = make_queries(service_graph.num_nodes, walk_length=6, num_queries=24, seed=3)
        reference = reference_run(service_graph, SPEC_FACTORIES[workload](), config, queries)

        service = WalkService(service_graph, fleet=DeviceFleet(DEVICE, config.num_devices))
        session = service.session(SPEC_FACTORIES[workload](), config)
        session.submit(queries)
        assert_bit_identical(session.collect(), reference)

    @pytest.mark.parametrize("workload", sorted(SPEC_FACTORIES))
    @pytest.mark.parametrize("mode", sorted(MODES))
    def test_interleaved_submit_stream_collect_is_bit_identical(
        self, service_graph, workload, mode
    ):
        config = make_config(**MODES[mode])
        queries = make_queries(service_graph.num_nodes, walk_length=6, num_queries=24, seed=3)
        reference = reference_run(service_graph, SPEC_FACTORIES[workload](), config, queries)

        service = WalkService(service_graph, fleet=DeviceFleet(DEVICE, config.num_devices))
        session = service.session(SPEC_FACTORIES[workload](), config)
        # Three submissions with a partial stream drain between each.
        session.submit(queries[:7])
        stream = session.stream()
        next(stream, None)
        session.submit(queries[7:15])
        next(stream, None)
        session.submit(queries[15:])
        assert_bit_identical(session.collect(), reference)

    @pytest.mark.parametrize("mode", sorted(MODES))
    def test_session_engine_run_is_bit_identical(self, service_graph, mode):
        config = make_config(**MODES[mode])
        queries = make_queries(service_graph.num_nodes, walk_length=6, num_queries=24, seed=3)
        service = WalkService(service_graph, fleet=DeviceFleet(DEVICE, config.num_devices))
        session = service.session(Node2VecSpec(), config)
        reference = session.engine.run(queries, profile=session.profile)
        session.submit(queries)
        assert_bit_identical(session.collect(), reference)

    def test_repeated_collect_covers_later_submissions(self, service_graph):
        config = make_config()
        queries = make_queries(service_graph.num_nodes, walk_length=5, num_queries=20, seed=3)
        reference = reference_run(service_graph, DeepWalkSpec(), config, queries)

        service = WalkService(service_graph, fleet=DeviceFleet(DEVICE, 1))
        session = service.session(DeepWalkSpec(), config)
        session.submit(queries[:8])
        first = session.collect()
        assert first.paths == reference.paths[:8]
        session.submit(queries[8:])
        assert_bit_identical(session.collect(), reference)
