"""Benchmark entry point.

    python3 perfbench/run.py --workload <name> --seed <n> --seconds <s> --trace <0|1>

Run from the repository root.  Builds the workload's inputs from the seed,
runs them through the public serving API, checks the outputs, and prints
one JSON object as the last line of standard output:
``{"correct", "attempted", "failed", "metrics"}`` — the end-to-end metrics
of ``BENCHMARK.json`` with ``--trace 0``, its per-layer metrics with
``--trace 1``.  A ``report`` line before it carries the input provenance,
the program-made counts and the sample sizes.  Traced runs also write their
spans to ``perfbench/out/`` as JSON Lines and Chrome trace-event JSON.
"""

from __future__ import annotations

import os

# One process, one thread: pin BLAS/OpenMP pools before numpy is imported.
for _var in ("OMP_NUM_THREADS", "OPENBLAS_NUM_THREADS", "MKL_NUM_THREADS", "NUMEXPR_NUM_THREADS"):
    os.environ[_var] = "1"

import argparse  # noqa: E402
import json  # noqa: E402
import sys  # noqa: E402
from pathlib import Path  # noqa: E402

ROOT = Path(__file__).resolve().parent.parent
WORKLOADS = ("rmat15-deepwalk", "rmat15-node2vec", "serve-updates")


def _parse(argv: list[str]) -> argparse.Namespace:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True, choices=WORKLOADS)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    return parser.parse_args(argv)


def _metric_units() -> dict[str, dict[str, str]]:
    spec = json.loads((ROOT / "BENCHMARK.json").read_text())
    return {
        "end_to_end": {m["name"]: m["unit"] for m in spec["end_to_end"]},
        "per_layer": {m["name"]: m["unit"] for m in spec["per_layer"]},
    }


def main(argv: list[str]) -> int:
    args = _parse(argv)
    if not (ROOT / "src" / "repro" / "__init__.py").is_file():
        print(f"error: no program sources under {ROOT / 'src'}", file=sys.stderr)
        return 2
    sys.path[:0] = [str(ROOT / "src"), str(ROOT)]

    from perfbench import batch, common, serve
    from perfbench.inputs import make_inputs

    units = _metric_units()["per_layer" if args.trace else "end_to_end"]
    inputs = make_inputs(args.seed)
    if args.workload == "serve-updates":
        outcome = serve.run_traced(inputs) if args.trace else serve.run_timed(inputs, args.seconds)
    elif args.trace:
        outcome = batch.run_traced(args.workload, inputs)
    else:
        outcome = batch.run_timed(args.workload, inputs, args.seconds)

    repeatable = common.repeat_check(args.workload, args.seed, outcome["counts"])
    tracer = outcome.get("tracer")
    if tracer is not None:
        stem = common.OUT_DIR / f"trace-{args.workload}"
        tracer.write(stem.with_suffix(".jsonl"), stem.with_suffix(".chrome.json"))

    metrics = outcome["metrics"]
    missing = set(units) ^ set(metrics)
    if missing:
        raise RuntimeError(f"metrics and BENCHMARK.json disagree on {sorted(missing)}")
    print(json.dumps({
        "report": outcome["report"],
        "provenance": inputs.provenance(),
        "counts": outcome["counts"],
        "repeat_matches_earlier_run": repeatable,
    }, sort_keys=True))
    print(json.dumps({
        "correct": bool(outcome["correct"] and repeatable),
        "attempted": int(outcome["attempted"]),
        "failed": int(outcome["failed"]),
        "metrics": {
            name: {"value": float(metrics[name]), "unit": units[name]} for name in units
        },
    }))
    return 0


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
