"""Self-tests of the benchmark harness (not part of tier-1):
``python -m pytest benchmarks/e2e/tests``."""

import sys
from pathlib import Path

HARNESS = Path(__file__).resolve().parents[1]
sys.path[:0] = [str(HARNESS), str(HARNESS.parents[1] / "src")]
