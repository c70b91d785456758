"""The repository benchmark: seeded workloads that drive ``repro`` from outside.

Run it from the repository root::

    python3 perfbench/run.py --workload predict-http --seed 1 --seconds 25 --trace 0

See ``perfbench/NOTES.md`` for what each workload stresses and how the
metrics are defined.
"""
