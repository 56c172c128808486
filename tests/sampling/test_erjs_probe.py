"""Probe-only eRJS: host work follows the modeled trials, results do not move.

For node-only workloads the batched eRJS kernel bounds its trials with the
transition cache's per-node maximum and reads only the cached weights its
trials probe; every trial's random numbers are evaluated only when the
walker reaches that trial.  These tests pin the three halves of that claim:
no eRJS partition flattens its candidate edges, the hint-widening rule still
holds walker for walker, and the lazily evaluated draws leave every stream
exactly where the eager draws left it.
"""

from __future__ import annotations

import dataclasses

import numpy as np
import pytest

from repro.compiler.generator import compile_workload
from repro.graph.delta import DeltaCSRGraph
from repro.graph.generators import barabasi_albert_graph
from repro.graph.invalidation import invalidation_for
from repro.graph.weights import powerlaw_weights, uniform_weights
from repro.gpusim.counters import CostCounters, CounterBatch
from repro.gpusim.device import A6000
from repro.rng.streams import AdoptedStreamPool, StreamPool
from repro.runtime.engine import WalkEngine
from repro.runtime.frontier import PlacementLedger, Wave
from repro.runtime.selector import CostModelSelector, FixedSelector
from repro.sampling.base import StepContext
from repro.sampling.batch import BatchStepContext, segment_max
from repro.sampling.erjs import EnhancedRejectionSampler
from repro.sampling.rejection import flat_probe, run_rejection_trials_batch
from repro.sampling.transition_cache import TransitionCache
from repro.walks.deepwalk import DeepWalkSpec
from repro.walks.node2vec import Node2VecSpec
from repro.walks.state import WalkerFrontier, WalkQuery, make_queries

DEVICE = dataclasses.replace(A6000, parallel_lanes=8)


def hub_graph(seed: int = 5, skewed: bool = False):
    graph = barabasi_albert_graph(120, 3, seed=seed, name=f"probe-{seed}")
    if skewed:
        return graph.with_weights(powerlaw_weights(graph, alpha=1.2, seed=seed))
    return graph.with_weights(uniform_weights(graph, seed=seed))


def make_engine(graph, spec, selector, execution="batched"):
    return WalkEngine(
        graph=graph, spec=spec, device=DEVICE, seed=3, selector=selector,
        compiled=compile_workload(spec, graph), selection_overhead=True,
        warp_switch_overhead=True, execution=execution,
    )


# ---------------------------------------------------------------------- #
# No flattening on cache-served steps
# ---------------------------------------------------------------------- #
@pytest.fixture
def erjs_flattenings(monkeypatch):
    """Count ``flat_edges`` builds made inside an eRJS ``sample_batch``."""
    inside = [0]
    builds = []
    original_sample = EnhancedRejectionSampler.sample_batch
    original_flat = BatchStepContext.flat_edges

    def sample_batch(self, batch):
        inside[0] += 1
        try:
            return original_sample(self, batch)
        finally:
            inside[0] -= 1

    def flat_edges(ctx):
        if inside[0] and "flat_edges" not in ctx._flat:
            builds.append(ctx.size)
        return original_flat.fget(ctx)

    monkeypatch.setattr(EnhancedRejectionSampler, "sample_batch", sample_batch)
    monkeypatch.setattr(BatchStepContext, "flat_edges", property(flat_edges))
    return builds


@pytest.mark.parametrize(
    "selector_factory",
    [CostModelSelector, lambda: FixedSelector(EnhancedRejectionSampler(use_estimated_bound=False))],
    ids=["cost-model", "erjs-scan"],
)
def test_erjs_does_not_flatten_cache_served_steps(erjs_flattenings, selector_factory):
    graph = hub_graph()
    queries = make_queries(graph.num_nodes, walk_length=10, num_queries=60, seed=2)
    batched = make_engine(graph, DeepWalkSpec(), selector_factory())
    result = batched.run(queries)
    assert result.sampler_usage.get("eRJS", 0) > 0
    assert erjs_flattenings == []
    assert batched._transition_cache().max_fills > 0

    oracle = make_engine(graph, DeepWalkSpec(), selector_factory(), execution="scalar")
    expected = oracle.run(queries)
    assert result.paths == expected.paths
    assert result.sampler_usage == expected.sampler_usage
    assert result.counters.as_dict() == expected.counters.as_dict()
    assert np.array_equal(result.per_query_ns, expected.per_query_ns)


def test_uncached_erjs_keeps_its_scan(erjs_flattenings):
    graph = hub_graph()
    queries = make_queries(graph.num_nodes, walk_length=4, num_queries=20, seed=2)
    make_engine(graph, Node2VecSpec(), FixedSelector(EnhancedRejectionSampler())).run(queries)
    assert erjs_flattenings  # state-dependent weights still need every candidate


# ---------------------------------------------------------------------- #
# A violating hint is still widened
# ---------------------------------------------------------------------- #
def true_node_max(graph, nodes):
    degrees = graph.indptr[nodes + 1] - graph.indptr[nodes]
    edges = np.concatenate([np.arange(graph.indptr[n], graph.indptr[n + 1]) for n in nodes])
    return segment_max(graph.weights[edges].astype(np.float64), degrees)


@pytest.mark.parametrize("cached", [True, False], ids=["cache", "no-cache"])
@pytest.mark.parametrize("sampler_factory", [
    EnhancedRejectionSampler,
    lambda: EnhancedRejectionSampler(max_trial_factor=1, min_trials=2),
], ids=["default-budget", "tight-budget"])
def test_violating_hint_is_widened(cached, sampler_factory):
    graph = hub_graph(seed=8, skewed=True)
    spec = DeepWalkSpec()
    degrees = graph.indptr[1:] - graph.indptr[:-1]
    nodes = np.nonzero(degrees > 0)[0]
    nodes = nodes[np.argsort(-degrees[nodes], kind="stable")][:40]
    ids = list(range(100, 100 + nodes.size))
    queries = [
        WalkQuery(query_id=q, start_node=int(n), max_length=3)
        for q, n in zip(ids, nodes, strict=True)
    ]
    hints = 0.5 * true_node_max(graph, nodes)
    sampler = sampler_factory()

    frontier = WalkerFrontier(queries)
    counters = CounterBatch(nodes.size)
    batch = BatchStepContext(
        graph=graph, spec=spec, frontier=frontier, walkers=np.arange(nodes.size),
        rng=StreamPool(4).batch(ids), counters=counters, slots=np.arange(nodes.size),
        bound_hints=hints, transition_cache=TransitionCache(graph, spec) if cached else None,
    )
    chosen = sampler.sample_batch(batch)

    scalar_pool = StreamPool(4)
    for i, query in enumerate(queries):
        expected_counters = CostCounters()
        ctx = StepContext(
            graph=graph, state=frontier.state_view(i), spec=spec,
            rng=scalar_pool.stream(query.query_id), counters=expected_counters,
            bound_hint=float(hints[i]),
        )
        expected = sampler.sample(ctx)
        assert int(chosen[i]) == (-1 if expected is None else expected)
        assert counters.snapshot(i).as_dict() == expected_counters.as_dict()
        assert batch.rng.stream(i).draws == scalar_pool.stream(query.query_id).draws


# ---------------------------------------------------------------------- #
# Lazy draws
# ---------------------------------------------------------------------- #
def test_reserve_then_uniform_at_equals_uniform_flat():
    ids = [3, 7, 11, 20, 41]
    counts = np.array([4, 0, 7, 1, 32])
    eager = StreamPool(9).batch(ids)
    eager.stream(2).uniform(3)  # a stream that has already drawn
    expected = eager.uniform_flat(counts)

    lazy_pool = StreamPool(9)
    lazy = lazy_pool.batch(ids)
    lazy.stream(2).uniform(3)
    starts = lazy.reserve(counts)
    seg = np.repeat(np.arange(counts.size), counts)
    positions = np.concatenate([np.arange(c) for c in counts])
    assert np.array_equal(lazy.uniform_at(starts[seg], positions, seg), expected)
    for i in range(len(ids)):
        assert lazy.stream(i).draws == eager.stream(i).draws
        assert lazy.stream(i).uniform() == eager.stream(i).uniform()


@pytest.mark.parametrize("budget", [3, 16, 40])
def test_lazy_and_block_schedules_agree(budget):
    # The span schedule changes which positions the host evaluates, never
    # the trials' outcome: choices, charges and stream counters match.
    graph = hub_graph(seed=9, skewed=True)
    spec = DeepWalkSpec()
    nodes = np.nonzero(graph.indptr[1:] > graph.indptr[:-1])[0][:30]
    queries = [WalkQuery(query_id=q, start_node=int(n), max_length=3)
               for q, n in enumerate(nodes)]
    bounds = true_node_max(graph, nodes) * np.linspace(1.0, 3.0, nodes.size)
    outcomes = []
    for lazy in (False, True):
        counters = CounterBatch(nodes.size)
        batch = BatchStepContext(
            graph=graph, spec=spec, frontier=WalkerFrontier(queries),
            walkers=np.arange(nodes.size), rng=StreamPool(2).batch(range(nodes.size)),
            counters=counters, slots=np.arange(nodes.size),
        )
        idx = np.arange(nodes.size)
        choice = run_rejection_trials_batch(
            batch, idx, flat_probe(batch, batch.transition_weights()), bounds,
            np.full(nodes.size, budget), lazy=lazy,
        )
        outcomes.append((
            choice.tolist(),
            [counters.snapshot(i).as_dict() for i in idx],
            [batch.rng.stream(i).draws for i in idx],
        ))
    assert outcomes[0] == outcomes[1]
    if budget == 3:
        assert -1 in outcomes[0][0]  # some walker exhausts its budget


def test_subset_keeps_the_unique_slot_decision():
    pool = AdoptedStreamPool()
    pool.adopt(1, [5, 5, 6])  # same query id twice: still two slots
    batch = pool.batch_all()
    reversed_subset = batch.subset(np.array([2, 0]))
    reversed_subset.reserve(np.array([1, 2]))
    assert pool.snapshot_counters()[0].tolist() == [2, 0, 1]
    shared = StreamPool(1).batch([4, 4])
    shared.reserve(np.array([2, 3]))
    assert shared.stream(0).draws == 5


#: Every pool slot's draw count after one wave, recorded before trial draws
#: became lazy (counters equal draws: every slot starts at zero).  The
#: tight-budget cases exhaust trial budgets mid-block and take the
#: inversion fallback.
PINNED_DRAWS = {
    "deepwalk-cost-model": [120, 121, 156, 118, 118, 94, 39, 91, 104, 69, 116, 94],
    "skewed-cost-model": [88, 80, 84, 89, 115, 57, 39, 64, 63, 65, 119, 100],
    "skewed-erjs-tight": [143, 86, 170, 122, 144, 106, 170, 106, 200, 80, 136, 123],
    "skewed-node2vec-erjs-tight": [144, 106, 126, 123, 122, 144, 97, 134, 150, 121, 136, 123],
}

PIN_CASES = {
    "deepwalk-cost-model": (False, DeepWalkSpec, CostModelSelector),
    "skewed-cost-model": (True, DeepWalkSpec, CostModelSelector),
    "skewed-erjs-tight": (True, DeepWalkSpec, lambda: FixedSelector(
        EnhancedRejectionSampler(max_trial_factor=1, min_trials=2))),
    "skewed-node2vec-erjs-tight": (True, Node2VecSpec, lambda: FixedSelector(
        EnhancedRejectionSampler(max_trial_factor=1, min_trials=2))),
}


@pytest.mark.parametrize("case", sorted(PIN_CASES))
def test_wave_leaves_pinned_stream_counters(case):
    skewed, spec_factory, selector_factory = PIN_CASES[case]
    graph = hub_graph(skewed=skewed)
    engine = make_engine(graph, spec_factory(), selector_factory())
    queries = make_queries(graph.num_nodes, walk_length=8, num_queries=12, seed=4)
    wave = Wave(PlacementLedger(engine), queries)
    wave.drain()
    counters, draws = wave.pool.snapshot_counters()
    assert draws.tolist() == PINNED_DRAWS[case]
    assert counters.astype(np.int64).tolist() == PINNED_DRAWS[case]


# ---------------------------------------------------------------------- #
# Cache rebind recomputes the per-node maximum
# ---------------------------------------------------------------------- #
def test_rebind_recomputes_a_hubs_max_after_its_heaviest_edge_goes():
    graph = hub_graph(seed=6, skewed=True)
    hub = int(np.argmax(graph.indptr[1:] - graph.indptr[:-1]))
    lo, hi = int(graph.indptr[hub]), int(graph.indptr[hub + 1])
    heaviest = lo + int(np.argmax(graph.weights[lo:hi]))
    dst = int(graph.indices[heaviest])

    cache = TransitionCache(graph, DeepWalkSpec())
    before = cache.node_max(np.array([hub]))[0]
    assert before == graph.weights[heaviest]

    parallel = np.nonzero(graph.indices[lo:hi] == dst)[0].size
    updated = DeltaCSRGraph(graph).apply_delta(
        np.zeros((0, 2), dtype=np.int64), np.array([[hub, dst]])
    )
    record = invalidation_for(updated)
    new_graph = updated.compact()
    assert hub in record.touched_nodes.tolist()

    cache.rebind(new_graph, record.touched_nodes)
    fills = cache.max_fills
    after = cache.node_max(np.array([hub]))[0]
    assert cache.max_fills == fills + 1
    nlo, nhi = int(new_graph.indptr[hub]), int(new_graph.indptr[hub + 1])
    assert nhi - nlo == (hi - lo) - parallel
    assert after == new_graph.weights[nlo:nhi].max()
    assert after < before
