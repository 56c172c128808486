"""Helpers shared by the workloads: result digests, oracle checks, stats."""

from __future__ import annotations

import gc
import hashlib
import json
import tracemalloc
from pathlib import Path

import numpy as np

from repro import FlexiWalkerConfig, WalkRunResult, WalkService

BENCH_DIR = Path(__file__).resolve().parent
OUT_DIR = BENCH_DIR / "out"


def settle() -> None:
    """Collect garbage before a timed window so earlier waves' debris is not billed to it."""
    gc.collect()


def paths_sha(paths) -> str:
    lengths = np.fromiter((len(p) for p in paths), dtype=np.int64, count=len(paths))
    flat = np.fromiter((node for p in paths for node in p), dtype=np.int64, count=int(lengths.sum()))
    digest = hashlib.sha256(lengths.tobytes())
    digest.update(flat.tobytes())
    return digest.hexdigest()[:16]


def result_digest(result: WalkRunResult) -> dict[str, object]:
    """Everything a run produces that must repeat exactly for one seed."""
    return {
        "paths_sha": paths_sha(result.paths),
        "per_query_ns_sha": hashlib.sha256(result.per_query_ns.tobytes()).hexdigest()[:16],
        "counters": result.counters.as_dict(),
        "sampler_usage": dict(sorted(result.sampler_usage.items())),
        "total_steps": int(result.total_steps),
        "sim_ns": float(result.kernel.time_ns),
    }


def oracle_mismatches(graph, spec, seed: int, queries, paths, per_query_ns) -> int:
    """Queries whose path or simulated time differs from the scalar oracle.

    ``paths``/``per_query_ns`` are the batched results of ``queries``, in
    the same order.  The oracle is a standalone scalar-execution session on
    ``graph`` (a frozen snapshot), the engine "parity" is defined against.
    """
    config = FlexiWalkerConfig(execution="scalar", seed=seed)
    session = WalkService(graph).session(spec, config)
    session.submit(queries)
    oracle = session.collect()
    session.close()
    bad = 0
    for i, path in enumerate(oracle.paths):
        if list(path) != list(paths[i]) or oracle.per_query_ns[i] != per_query_ns[i]:
            bad += 1
    return bad


def traced_peak_mb(run) -> tuple[float, object]:
    """Peak traced memory (MB) of ``run()`` in its own untimed pass."""
    settle()
    tracemalloc.start()
    try:
        value = run()
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    return peak / 2**20, value


def percentile_report(samples_ms: list[float]) -> dict[str, float]:
    """Median and p99 of latency samples, with the count at or beyond p99.

    Batch walks finish together at superstep boundaries, so many samples
    can tie at the p99 value; the tail count includes the ties.
    """
    values = np.asarray(samples_ms, dtype=np.float64)
    p99 = float(np.percentile(values, 99))
    return {
        "p50": float(np.median(values)),
        "p99": p99,
        "samples": int(values.size),
        "at_or_beyond_p99": int((values >= p99).sum()),
    }


def source_sha() -> str:
    """Hash of the program and benchmark sources, keying the repeat check."""
    root = BENCH_DIR.parent
    digest = hashlib.sha256()
    for path in sorted([*(root / "src").rglob("*.py"), *BENCH_DIR.glob("*.py")]):
        digest.update(str(path.relative_to(root)).encode())
        digest.update(path.read_bytes())
    return digest.hexdigest()[:16]


def repeat_check(workload: str, seed: int, counts: dict) -> bool:
    """Compare this run's program-made counts with an earlier run of the same seed.

    Counts are stored per (workload, seed) under ``perfbench/out`` and keyed
    by :func:`source_sha`, so a changed program starts a fresh record.
    Returns False when an earlier run of the same sources differed, which
    marks the run nondeterministic.
    """
    OUT_DIR.mkdir(exist_ok=True)
    path = OUT_DIR / f"counts-{workload}-seed{seed}.json"
    record = {"source_sha": source_sha(), "counts": counts}
    if path.exists():
        earlier = json.loads(path.read_text())
        if earlier.get("source_sha") == record["source_sha"]:
            return earlier["counts"] == json.loads(json.dumps(counts))
    path.write_text(json.dumps(record, indent=1, sort_keys=True))
    return True
