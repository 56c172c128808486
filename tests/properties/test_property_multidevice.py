"""Property-based equivalence of the multi-device wave and the scalar oracle.

The multi-device run advances every device's walkers in one shared wave and
prices each device's share through the placement ledger.  The reference is
independent of that driver: one single-device scalar-oracle run per
partition, one device after another.  Because every walker's randomness,
counters and termination are strictly per-walker, the two must be
*bit-identical* in everything — paths, counter totals (global and per
device), per-query simulated times, device kernel times and hence the
makespan — for any device count, partition policy, workload and seed.
Hypothesis hunts for counterexamples across that whole grid.
"""

from __future__ import annotations

import dataclasses

import numpy as np
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.compiler.generator import compile_workload
from repro.graph.generators import barabasi_albert_graph
from repro.graph.labels import random_edge_labels
from repro.graph.weights import uniform_weights
from repro.gpusim.device import A6000
from repro.gpusim.multigpu import PARTITION_POLICIES, partition_queries
from repro.runtime.engine import WalkEngine
from repro.runtime.selector import CostModelSelector
from repro.walks.deepwalk import DeepWalkSpec
from repro.walks.metapath import MetaPathSpec
from repro.walks.node2vec import Node2VecSpec
from repro.walks.state import make_queries

DEVICE = dataclasses.replace(A6000, parallel_lanes=8)

SPEC_FACTORIES = {
    "deepwalk": DeepWalkSpec,
    "node2vec": Node2VecSpec,
    "metapath": lambda: MetaPathSpec(schema=(0, 1, 2)),
}


def build_graph(seed: int):
    graph = barabasi_albert_graph(24 + (seed % 4) * 10, 3, seed=seed,
                                  name=f"fused-{seed}")
    graph = graph.with_weights(uniform_weights(graph, seed=seed))
    return graph.with_labels(random_edge_labels(graph, num_labels=4, seed=seed))


def per_partition_oracle(graph, spec, compiled, run_seed, num_devices, policy, queries):
    """One single-device scalar run per partition, stitched together."""
    starts = np.array([q.start_node for q in queries], dtype=np.int64)
    degrees = graph.indptr[starts + 1] - graph.indptr[starts] + 1
    partitions = partition_queries(starts, num_devices, policy, costs=degrees)
    oracle = WalkEngine(
        graph=graph, spec=spec, device=DEVICE, seed=run_seed,
        selector=CostModelSelector(), compiled=compiled,
        selection_overhead=True, warp_switch_overhead=True, execution="scalar",
    )
    runs = [oracle.run([queries[int(i)] for i in part]) for part in partitions]
    paths = [None] * len(queries)
    per_query_ns = np.zeros(len(queries))
    for part, run in zip(partitions, runs, strict=True):
        per_query_ns[part] = run.per_query_ns
        for i, path in zip(part, run.paths, strict=True):
            paths[int(i)] = path
    return paths, per_query_ns, runs


class TestMultiDeviceMatchesPerPartitionOracle:
    @settings(max_examples=20, deadline=None)
    @given(
        graph_seed=st.integers(min_value=0, max_value=30),
        run_seed=st.integers(min_value=0, max_value=500),
        workload=st.sampled_from(sorted(SPEC_FACTORIES)),
        num_devices=st.sampled_from([1, 2, 4]),
        policy=st.sampled_from(PARTITION_POLICIES),
        walk_length=st.integers(min_value=1, max_value=6),
    )
    def test_multi_device_equals_per_partition_oracle(
        self, graph_seed, run_seed, workload, num_devices, policy, walk_length
    ):
        graph = build_graph(graph_seed)
        spec = SPEC_FACTORIES[workload]()
        compiled = compile_workload(spec, graph)
        engine = WalkEngine(
            graph=graph, spec=spec, device=DEVICE, seed=run_seed,
            selector=CostModelSelector(), compiled=compiled,
            selection_overhead=True, warp_switch_overhead=True,
            num_devices=num_devices, partition_policy=policy,
        )
        queries = make_queries(graph.num_nodes, walk_length=walk_length,
                               num_queries=min(16, graph.num_nodes), seed=run_seed)
        result = engine.run(queries)
        paths, per_query_ns, runs = per_partition_oracle(
            graph, spec, compiled, run_seed, num_devices, policy, queries
        )

        assert result.paths == paths
        assert np.array_equal(result.per_query_ns, per_query_ns)
        assert result.total_steps == sum(run.total_steps for run in runs)
        usage: dict[str, int] = {}
        for run in runs:
            for name, count in run.sampler_usage.items():
                usage[name] = usage.get(name, 0) + count
        assert result.sampler_usage == usage
        totals = {name: 0 for name in result.counters.as_dict()}
        for run in runs:
            for name, count in run.counters.as_dict().items():
                totals[name] += count
        assert result.counters.as_dict() == totals
        kernels = result.device_kernels if num_devices > 1 else [result.kernel]
        assert [
            (k.time_ns, k.num_queries, k.counters.as_dict()) for k in kernels
        ] == [
            (run.kernel.time_ns, run.kernel.num_queries, run.kernel.counters.as_dict())
            for run in runs
        ]
        assert result.kernel.time_ns == max(run.kernel.time_ns for run in runs)
