"""``PYTHONPATH=src python -m benchmarks.spine`` — same as ``run.py``."""

import sys

from benchmarks.spine.run import main

sys.exit(main())
