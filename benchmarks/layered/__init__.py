"""Layered benchmark: six workloads, end-to-end metrics, a per-layer trace.

Entry points (see ``README.md`` next to this file):

* ``python3 benchmarks/layered/run.py --workload W --seed N --seconds S
  --trace 0|1`` — one workload, one JSON result line (the contract in
  ``BENCHMARK.json``);
* ``PYTHONPATH=src python -m benchmarks.layered run`` — all six
  workloads, every metric printed by name, exit 1 on a failed check;
* ``PYTHONPATH=src python -m benchmarks.layered compare A.json B.json``.

Nothing here is imported by ``repro`` and nothing under ``src/`` is
edited: the harness drives the public entry points from outside.
"""
