"""Quickstart: run weighted Node2Vec with FlexiWalker on a scale-model graph.

The five-line version:

    from repro import Node2VecSpec, WalkService, load_dataset, make_queries
    graph = load_dataset("YT", weights="uniform")
    session = WalkService(graph).session(Node2VecSpec())
    session.submit(make_queries(graph.num_nodes, walk_length=20))
    print(session.collect().time_ms)

This script does the same thing with commentary: it loads the com-youtube
scale model, opens a session that builds the full FlexiWalker pipeline
(compile → profile → adaptive runtime → optimised kernels on the simulated
A6000), runs one walk query per node and prints the simulated execution
profile, including which kernel the runtime chose how often.
"""

from __future__ import annotations

from repro import (
    DeviceFleet,
    FlexiWalkerConfig,
    Node2VecSpec,
    WalkService,
    load_dataset,
    make_queries,
)
from repro.gpusim import A6000


def main() -> None:
    # 1. A graph.  The registry ships synthetic scale models of the paper's
    #    ten datasets; "uniform" gives property weights in [1, 5).
    graph = load_dataset("YT", weights="uniform")
    print(f"graph: {graph}")

    # 2. A workload.  Node2Vec with the paper's hyperparameters (a=2, b=0.5).
    spec = Node2VecSpec(a=2.0, b=0.5)

    # 3. The framework.  A service owns the graph and the simulated device;
    #    opening a session compiles the workload, profiles the device and
    #    builds the runtime selector.  The default configuration reproduces
    #    the paper's setup: cost-model selection, start-up profiling,
    #    overheads accounted.
    session = WalkService(graph).session(spec, FlexiWalkerConfig())
    print("pipeline:", session.describe())

    # 4. Walk.  One query per node, 20 steps each (the paper uses 80; 20 keeps
    #    the example instant).
    queries = make_queries(graph.num_nodes, walk_length=20)
    session.submit(queries)
    result = session.collect()

    # 5. Results: the walks themselves plus the simulated execution profile.
    #    The engine runs in the batched (frontier) execution mode by default;
    #    pass FlexiWalkerConfig(execution="scalar") to use the reference
    #    interpreter instead — the walks and simulated profile are identical,
    #    only the host-side throughput changes.
    print(f"first walk: {result.paths[0]}")
    print(f"simulated kernel time: {result.time_ms:.4f} ms "
          f"(+{result.overhead_ms:.4f} ms profiling/preprocessing)")
    print(f"kernel selection ratio: {result.selection_ratio()}")
    print(f"host throughput: {result.throughput_steps_per_s:,.0f} simulated steps/s "
          f"({result.wall_clock_s * 1e3:.1f} ms wall clock)")
    print("full summary:")
    for key, value in result.summary().items():
        print(f"  {key}: {value}")

    # 6. Scale out.  num_devices partitions the queries over the fleet's
    #    replicated-graph devices (Fig. 15); walker randomness is keyed by
    #    query id, so the walks are identical to the single-device run and
    #    only the makespan shrinks.  A full A6000 has more lanes than this
    #    example has queries, so we shrink the device to oversubscribe it the
    #    way the paper-scale batches do.
    device = A6000.scaled(96 / A6000.parallel_lanes, name="A6000 (scaled)")
    service = WalkService(graph, fleet=DeviceFleet(device, count=4))
    single = service.session(spec, FlexiWalkerConfig(device=device))
    single.submit(queries)
    single_result = single.collect()
    multi = service.session(
        spec, FlexiWalkerConfig(device=device, num_devices=4, partition_policy="hash")
    )
    multi.submit(queries)
    multi_result = multi.collect()
    assert multi_result.paths == single_result.paths  # placement parity
    print(f"4-device makespan: {multi_result.time_ms:.4f} ms "
          f"(1 device: {single_result.time_ms:.4f} ms, "
          f"speedup: {single_result.time_ms / multi_result.time_ms:.2f}x, "
          f"device load imbalance: {multi_result.load_imbalance:.2f})")
    print(f"per-device kernel times (ms): "
          f"{[round(k.time_ms, 4) for k in multi_result.device_kernels]}")


if __name__ == "__main__":
    main()
