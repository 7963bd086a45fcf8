"""Entry point named by ``BENCHMARK.json``.

``python3 benchmarks/layered/run.py --workload W --seed N --seconds S
--trace 0|1`` measures one workload and prints one JSON result line;
``run`` and ``compare`` as the first argument select the other commands
(same as ``python -m benchmarks.layered``).
"""

import pathlib
import sys

if __name__ == "__main__":
    # Import the package as ``layered`` so that ``benchmarks/__init__``
    # (which needs pytest) is not part of running the benchmark.
    sys.path.insert(0, str(pathlib.Path(__file__).resolve().parents[1]))
    from layered.cli import main

    sys.exit(main())
