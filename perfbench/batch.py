"""``rmat15-deepwalk`` / ``rmat15-node2vec``: whole waves through a session.

A wave is one walk of length 20 from every node, submitted to a fresh
session of a warm :class:`~repro.WalkService`, streamed and collected.  A
walk's latency runs from ``submit`` to the stream chunk that delivered it;
a wave's throughput from ``submit`` to the return of ``collect``.  Latency
percentiles are taken per wave and reported as their median over the warm
waves: pooled, the tail would be the last chunk of the one or two slowest
waves, a near-maximum that follows host hiccups rather than the program.
"""

from __future__ import annotations

import statistics
import time

import numpy as np

from repro import DeepWalkSpec, FlexiWalkerConfig, Node2VecSpec, WalkService

from perfbench import common, layers
from perfbench.inputs import Inputs
from perfbench.tracer import Tracer

SPECS = {
    "rmat15-deepwalk": lambda: DeepWalkSpec(),
    "rmat15-node2vec": lambda: Node2VecSpec(a=2.0, b=0.5),
}
#: Set-ups per timed run (``setup_s`` is their median); warm waves follow each.
REPEATS = 3
#: Queries re-run through the scalar oracle after the timed waves.
ORACLE_SAMPLE = 256
#: Deltas applied to each set-up's warm service after its waves
#: (``update_p50_ms`` is the median over all set-ups).
UPDATE_DELTAS = 10
#: Warm waves on each side of the traced run's overhead comparison.
TRACED_WAVES = 2


class _Runner:
    """Runs waves of one workload against one service."""

    def __init__(self, inputs: Inputs, spec_factory, tracer: Tracer | None = None) -> None:
        self.inputs = inputs
        self.spec = spec_factory()
        self.config = FlexiWalkerConfig(seed=inputs.seed)
        self.tracer = tracer
        self.waves = 0

    def run(self, service: WalkService, latencies: list | None = None):
        """One wave; returns ``(result, submit-to-collect seconds)``.

        When ``latencies`` is given, one ``(seconds since submit, walks)``
        pair per stream chunk is appended, counting only walks that took a
        step.  Walks starting on a node without out-edges (about 46% of
        them) all return at the first superstep boundary; left in, they put
        the median right at that boundary, and p50 would jump a whole
        superstep between seeds.
        """
        if self.tracer is not None:
            self.tracer.run = f"wave-{self.waves}"
        self.waves += 1
        session = service.session(self.spec, self.config)
        stamps = []
        started = time.perf_counter()
        session.submit(self.inputs.queries)
        for chunk in session.stream():
            stamps.append((time.perf_counter() - started, chunk))
        result = session.collect()
        elapsed = time.perf_counter() - started
        session.close()
        if latencies is not None:
            latencies += [(t, sum(len(p) > 1 for p in chunk.paths)) for t, chunk in stamps]
        return result, elapsed

    def set_up(self):
        """Service construction through the first wave: ``(service, result, seconds)``."""
        common.settle()
        started = time.perf_counter()
        service = WalkService(self.inputs.graph)
        result, _ = self.run(service)
        return service, result, time.perf_counter() - started

    def apply_updates(self, service: WalkService) -> tuple[list[float], int]:
        """Time UPDATE_DELTAS deltas on the warm service; returns (ms list, touched nodes)."""
        times, touched = [], 0
        for index, delta in enumerate(self.inputs.deltas[:UPDATE_DELTAS]):
            if self.tracer is not None:
                self.tracer.run = f"delta-{index}"
            started = time.perf_counter()
            service.apply_delta(delta.additions, delta.removals, weights=delta.weights)
            times.append((time.perf_counter() - started) * 1e3)
            touched += int(service.dynamic_graph.delta.touched_nodes.size)
        return times, touched

    def oracle_mismatches(self, result) -> int:
        """Sampled queries whose batched walk differs from the scalar oracle."""
        rng = np.random.default_rng([self.inputs.seed, 3])
        sample = np.sort(rng.choice(len(self.inputs.queries), ORACLE_SAMPLE, replace=False))
        return common.oracle_mismatches(
            self.inputs.graph,
            self.spec,
            self.inputs.seed,
            [self.inputs.queries[i] for i in sample],
            [result.paths[i] for i in sample],
            result.per_query_ns[sample],
        )


def _latency_ms(samples: list[tuple[float, int]]) -> list[float]:
    times = np.array([t for t, _ in samples]) * 1e3
    counts = np.array([n for _, n in samples], dtype=np.int64)
    return np.repeat(times, counts).tolist()


def _counts(inputs: Inputs, digest: dict, touched: int, service: WalkService) -> dict:
    return {
        **digest,
        "walks": len(inputs.queries),
        "deltas": UPDATE_DELTAS,
        "touched_nodes": touched,
        "graph_version": service.graph_version,
        "edges_after_deltas": service.graph.num_edges,
    }


def run_timed(workload: str, inputs: Inputs, seconds: float) -> dict[str, object]:
    """The end-to-end run: REPEATS set-ups, each followed by warm waves and the deltas."""
    wave = _Runner(inputs, SPECS[workload])
    setups, rates, latencies, digests, updates_ms = [], [], [], [], []
    attempted = 0
    warm = 0.0
    service = None
    for repeat in range(REPEATS):
        service = None  # free the previous service before timing a new set-up
        service, first, setup_s = wave.set_up()
        setups.append(setup_s)
        digests.append(common.result_digest(first))
        # Warm waves until this repeat's share of --seconds is used up
        # (at least one per set-up), so a run measures about --seconds.
        target = seconds * (repeat + 1) / REPEATS
        while True:
            common.settle()
            samples: list[tuple[float, int]] = []
            result, elapsed = wave.run(service, samples)
            latencies.append(common.percentile_report(_latency_ms(samples)))
            warm += elapsed
            rates.append(result.total_steps / elapsed)
            attempted += len(result.paths)
            digests.append(common.result_digest(result))
            if warm >= target:
                break
        if repeat == REPEATS - 1:
            peak_mb, (result, _) = common.traced_peak_mb(lambda: wave.run(service))
            digests.append(common.result_digest(result))
        # The same deltas on every set-up's service, so update samples come
        # from REPEATS points spread over the run.
        times, touched = wave.apply_updates(service)
        updates_ms += times
    mismatched = wave.oracle_mismatches(first)
    deterministic = all(d == digests[0] for d in digests)
    return {
        "metrics": {
            "steps_per_s": statistics.median(rates),
            "setup_s": statistics.median(setups),
            "peak_mb": peak_mb,
            "sim_ms": first.time_ms,
            "ok_frac": 1.0 - mismatched / attempted,
            "latency_p50_ms": statistics.median(report["p50"] for report in latencies),
            "latency_p99_ms": statistics.median(report["p99"] for report in latencies),
            "update_p50_ms": statistics.median(updates_ms),
        },
        "attempted": attempted,
        "failed": mismatched,
        "correct": deterministic and mismatched == 0,
        "counts": _counts(inputs, digests[0], touched, service),
        "report": {
            "loop": "batch, one wave of one walk per node at a time",
            "warm_waves": len(rates),
            "latency_samples_per_wave": latencies[0]["samples"],
            "latency_at_or_beyond_p99_per_wave": latencies[0]["at_or_beyond_p99"],
            "update_samples": len(updates_ms),
            "setup_samples": setups,
            "oracle_sample": ORACLE_SAMPLE,
            "oracle_mismatched_queries": mismatched,
            "repeat_identical_within_run": deterministic,
        },
    }


def run_traced(workload: str, inputs: Inputs) -> dict[str, object]:
    """The per-layer run: set-up, TRACED_WAVES warm waves and the updates, traced.

    Each traced warm wave follows an untraced one on a second service, so
    the overhead comparison alternates instead of following host drift.
    """
    wave = _Runner(inputs, SPECS[workload])
    plain, _, _ = wave.set_up()
    tracer = Tracer()
    traced_wave = _Runner(inputs, SPECS[workload], tracer)
    with layers.traced(tracer):
        service, first, _ = traced_wave.set_up()
    results, untraced, traced = [first], [], []
    for _ in range(TRACED_WAVES):
        common.settle()
        result, elapsed = wave.run(plain)
        untraced.append((result.total_steps / elapsed, common.result_digest(result)))
        common.settle()
        with layers.traced(tracer):
            result, elapsed = traced_wave.run(service)
        results.append(result)
        traced.append((result.total_steps / elapsed, common.result_digest(result)))
    del plain
    with layers.traced(tracer):
        _, touched = traced_wave.apply_updates(service)

    identical = all(
        digest == untraced[0][1] for _, digest in [*untraced, *traced]
    ) and common.result_digest(first) == untraced[0][1]
    steps = sum(result.total_steps for result in results)
    untraced_rate = statistics.median([rate for rate, _ in untraced])
    traced_rate = statistics.median([rate for rate, _ in traced])
    metrics = layers.per_layer_metrics(
        tracer,
        executed_steps=steps,
        collected_steps=steps,
        counters=layers.counter_totals(results),
        sampler_usage=layers.usage_totals(results),
        touched_nodes=touched,
        overhead_frac=1.0 - traced_rate / untraced_rate,
    )
    mismatched = wave.oracle_mismatches(first)
    return {
        "metrics": metrics,
        "attempted": len(inputs.queries) * len(results),
        "failed": mismatched,
        "correct": identical and mismatched == 0,
        "counts": _counts(inputs, traced[0][1], touched, service),
        "tracer": tracer,
        "report": {
            "traced_window": f"set-up wave + {TRACED_WAVES} warm waves + {UPDATE_DELTAS} deltas",
            "untraced_steps_per_s": untraced_rate,
            "traced_steps_per_s": traced_rate,
            "traced_matches_untraced": identical,
            "oracle_sample": ORACLE_SAMPLE,
            "oracle_mismatched_queries": mismatched,
        },
    }
