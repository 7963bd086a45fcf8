"""``python -m benchmarks.layered run|compare|--workload …``."""

import sys

from .cli import main

sys.exit(main())
