"""Where the traced run cuts the program into layers, and what it reports.

:func:`install` wraps the public entry points of each module, named by the
module they live in (``service``, ``compiler``, ``analysis``, ``runtime``,
``sampling``, ``walks``, ``graph``, ``rng``, ``gpusim``).  Span names follow
the layer boundaries of the planned in-program tracer — plan, admit (inside
``service.tick``), selector, weights, RNG, trials, accounting, pricing,
assemble, delta-apply and cache-rebind — so the two can be checked against
each other.  :func:`per_layer_metrics` turns one traced window into the
``per_layer`` metrics of ``BENCHMARK.json``.
"""

from __future__ import annotations

import importlib
from contextlib import contextmanager

from repro import CostCounters, CSRGraph, DeltaCSRGraph, WalkService, WalkSession
from repro.gpusim.device import DeviceSpec
from repro.gpusim.executor import KernelExecutor
from repro.rng.streams import BatchStreams
from repro.runtime.frontier import NodeHintTables
from repro.runtime.selector import SamplerSelector
from repro.sampling.base import Sampler
from repro.sampling.batch import BatchStepContext
from repro.sampling.transition_cache import TransitionCache
from repro.service.scheduler import ServiceScheduler
from repro.walks.spec import WalkSpec
from repro.walks.state import WalkerFrontier

from perfbench.tracer import Tracer


def _defining_classes(base: type, attr: str) -> list[type]:
    """``base`` and every loaded subclass that defines ``attr`` itself."""
    found, todo, seen = [], [base], set()
    while todo:
        cls = todo.pop()
        if cls in seen:
            continue
        seen.add(cls)
        if attr in cls.__dict__:
            found.append(cls)
        todo.extend(cls.__subclasses__())
    return found


def _count_tick(counts, args, result, token, nested) -> None:
    counts["service.tick_steps"] += result


def _sampler_span(args) -> str:
    return f"sampling.{args[0].name.lower()}"


def _trials_before(args):
    batch = args[1]
    return int(batch.counters.rejection_trials[batch.slots].sum())


def _count_sampled(counts, args, result, trials_before, nested) -> None:
    if nested:
        return  # the dead-end precheck re-enters on the non-empty subset
    sampler, batch = args
    name = sampler.name.lower()
    counts[f"sampling.{name}_walkers"] += batch.size
    if name == "erjs":
        trials = int(batch.counters.rejection_trials[batch.slots].sum())
        counts["sampling.erjs_trials"] += trials - trials_before


def _count_has_edges(counts, args, result, token, nested) -> None:
    if not nested:
        counts["graph.has_edges_queries"] += len(args[1])


def _count_draws(counts, args, result, token, nested) -> None:
    counts["rng.draws"] += result.size


def _flat_edges_unbuilt(ctx) -> bool:
    # Read-only peek at the per-superstep memo: count a flattening once,
    # when it is built, not on every cached read.
    return "flat_edges" not in ctx._flat


def _count_flat_edges(counts, value, built_now) -> None:
    if built_now:
        counts["sampling.candidate_edges"] += value.size


def install(tracer: Tracer) -> None:
    """Wrap every layer boundary the per-layer metrics are read from."""
    service_module = importlib.import_module("repro.service.service")
    session_module = importlib.import_module("repro.service.session")
    scheduler_module = importlib.import_module("repro.service.scheduler")
    generator_module = importlib.import_module("repro.compiler.generator")
    wrap = tracer.wrap

    # service: open, plan, submit, collect, tick (admission + fold/split),
    # delta-apply.
    wrap(WalkService, "session", "service.session_open")
    wrap(service_module, "negotiate_plan", "service.plan")
    wrap(WalkSession, "submit", "service.submit")
    wrap(WalkSession, "collect", "service.collect")
    wrap(ServiceScheduler, "tick", "service.tick", after=_count_tick)
    wrap(WalkService, "apply_delta", "service.apply_delta")
    # compiler / analysis / runtime.profiler: the per-version set-up work.
    wrap(service_module, "compile_workload", "compiler.compile")
    wrap(generator_module, "verify_spec", "analysis.verify")
    wrap(service_module, "profile_edge_costs", "runtime.profile")
    # runtime: supersteps, selector, hint tables.
    for module in (session_module, scheduler_module):
        tracer.wrap_generator(module, "iter_supersteps", "runtime.superstep", "runtime.supersteps")
    for cls in _defining_classes(SamplerSelector, "select_batch"):
        wrap(cls, "select_batch", "runtime.selector")
    wrap(NodeHintTables, "lookup", "runtime.hints")
    # sampling: kernels (trials), weights, candidate edges, transition cache.
    for cls in _defining_classes(Sampler, "sample_batch"):
        wrap(cls, "sample_batch", _sampler_span, before=_trials_before, after=_count_sampled)
    wrap(BatchStepContext, "transition_weights", "sampling.weights")
    tracer.wrap_property(BatchStepContext, "flat_edges", _flat_edges_unbuilt, _count_flat_edges)
    wrap(TransitionCache, "ensure_weights", "sampling.tcache")
    wrap(TransitionCache, "weights_for", "sampling.tcache")
    # walks: workload weight evaluation, state updates, path assembly.
    for cls in _defining_classes(WalkSpec, "transition_weights_batch"):
        wrap(cls, "transition_weights_batch", "walks.weights_batch")
    for cls in _defining_classes(WalkSpec, "update_batch"):
        wrap(cls, "update_batch", "walks.update_batch")
    wrap(WalkerFrontier, "path", "walks.paths")
    wrap(WalkerFrontier, "paths", "walks.paths")
    # graph: membership queries and the delta path (snapshot, repair, rebind).
    wrap(CSRGraph, "has_edges", "graph.has_edges", after=_count_has_edges)
    wrap(DeltaCSRGraph, "snapshot", "graph.snapshot")
    wrap(service_module, "repair_csr_caches", "graph.repair")
    wrap(service_module, "rebind_engine_caches", "graph.rebind")
    # rng and gpusim: draws, accounting, pricing.
    wrap(BatchStreams, "uniform_flat", "rng.uniform_flat", after=_count_draws)
    wrap(DeviceSpec, "lane_times_ns", "gpusim.lane_times")
    wrap(KernelExecutor, "execute", "gpusim.execute")


@contextmanager
def traced(tracer: Tracer):
    """Install the layer wrappers for the duration of a block."""
    install(tracer)
    try:
        yield tracer
    finally:
        tracer.restore()


def per_layer_metrics(
    tracer: Tracer,
    *,
    executed_steps: int,
    collected_steps: int,
    counters: CostCounters,
    sampler_usage: dict[str, int],
    touched_nodes: int,
    overhead_frac: float,
) -> dict[str, float]:
    """The ``per_layer`` metrics of one traced window.

    Times are seconds summed over the window (inclusive of callees, except
    the ``*_self_s`` ones).  ``executed_steps`` is every walker-step the
    window ran, the base of the per-step ratios read from spans;
    ``collected_steps``/``counters``/``sampler_usage`` describe the results
    the window collected, the base of the counter ratios.
    """
    spans = tracer.summary()
    counts = tracer.counts

    def total(name: str) -> float:
        return spans.get(name, {}).get("total_s", 0.0)

    def self_s(name: str) -> float:
        return spans.get(name, {}).get("self_s", 0.0)

    def calls(name: str) -> int:
        return int(spans.get(name, {}).get("calls", 0))

    def per(numerator: float, denominator: float) -> float:
        return float(numerator) / denominator if denominator else 0.0

    ticks = calls("service.tick")
    metrics = {
        "service.session_open_s": total("service.session_open"),
        "service.session_open_calls": calls("service.session_open"),
        "service.plan_s": total("service.plan"),
        "service.submit_s": total("service.submit"),
        "service.collect_self_s": self_s("service.collect"),
        "service.tick_self_s": self_s("service.tick"),
        "service.ticks": ticks,
        "service.walkers_per_tick": per(counts["service.tick_steps"], ticks),
        "service.apply_delta_s": total("service.apply_delta"),
        "compiler.compile_s": total("compiler.compile"),
        "compiler.compile_calls": calls("compiler.compile"),
        "analysis.verify_s": total("analysis.verify"),
        "runtime.profile_s": total("runtime.profile"),
        "runtime.superstep_self_s": self_s("runtime.superstep"),
        "runtime.supersteps": int(counts["runtime.supersteps"]),
        "runtime.selector_s": total("runtime.selector"),
        "runtime.hints_s": total("runtime.hints"),
        "runtime.erjs_step_share": per(sampler_usage.get("eRJS", 0), collected_steps),
        "sampling.erjs_s": total("sampling.erjs"),
        "sampling.erjs_walkers": int(counts["sampling.erjs_walkers"]),
        "sampling.ervs_s": total("sampling.ervs"),
        "sampling.ervs_walkers": int(counts["sampling.ervs_walkers"]),
        "sampling.erjs_accept_ratio": per(
            counts["sampling.erjs_walkers"], counts["sampling.erjs_trials"]
        ),
        "sampling.weights_s": total("sampling.weights"),
        "sampling.candidate_edges_per_step": per(
            counts["sampling.candidate_edges"], executed_steps
        ),
        "sampling.tcache_s": total("sampling.tcache"),
        "walks.weights_batch_s": total("walks.weights_batch"),
        "walks.update_batch_s": total("walks.update_batch"),
        "walks.paths_s": total("walks.paths"),
        "graph.has_edges_s": total("graph.has_edges"),
        "graph.has_edges_queries": int(counts["graph.has_edges_queries"]),
        "graph.snapshot_s": total("graph.snapshot"),
        "graph.repair_s": total("graph.repair"),
        "graph.rebind_s": total("graph.rebind"),
        "graph.touched_nodes": touched_nodes,
        "rng.uniform_flat_s": total("rng.uniform_flat"),
        "rng.draws": int(counts["rng.draws"]),
        "gpusim.lane_times_s": total("gpusim.lane_times"),
        "gpusim.execute_s": total("gpusim.execute"),
    }
    for name in CostCounters._COUNT_FIELDS:
        metrics[f"gpusim.{name}_per_step"] = per(getattr(counters, name), collected_steps)
    accesses = counters.coalesced_accesses + counters.random_accesses
    metrics["gpusim.bytes_per_step"] = per(accesses * counters.bytes_per_weight, collected_steps)
    metrics["trace.walker_steps"] = executed_steps
    metrics["trace.spans"] = len(tracer.spans)
    metrics["trace.overhead_frac"] = overhead_frac
    return metrics


def counter_totals(results) -> CostCounters:
    """Sum the aggregate counters of several run results."""
    total = CostCounters()
    for result in results:
        total.merge(result.counters)
    return total


def usage_totals(results) -> dict[str, int]:
    usage: dict[str, int] = {}
    for result in results:
        for name, count in result.sampler_usage.items():
            usage[name] = usage.get(name, 0) + int(count)
    return usage
