"""Harness self-tests; run with ``PYTHONPATH=src pytest benchmarks/olapbench/tests``
(outside tier-1's ``testpaths``)."""

import sys
from pathlib import Path

HARNESS = Path(__file__).resolve().parent.parent
ROOT = HARNESS.parent.parent
for entry in (HARNESS, ROOT / "src"):
    if str(entry) not in sys.path:
        sys.path.insert(0, str(entry))
