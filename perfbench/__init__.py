"""Repository benchmark: RMAT-scale batch walks and a serving-with-updates loop.

Run ``python3 perfbench/run.py --workload <name> --seed <n> --seconds <s>
--trace <0|1>`` from the repository root; see ``perfbench/README.md``.
"""
