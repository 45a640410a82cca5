"""The repository benchmark: three workloads, measured end to end and by layer.

Run ``python3 perfbench/run.py --workload <name> --seed <n> --seconds <s>
--trace <0|1>`` from the repository root; ``perfbench/README.md`` describes
the workloads, every metric and the layer map.
"""
