"""Make the benchmark's own modules importable for its self-tests."""

import sys
from pathlib import Path

_E2E = str(Path(__file__).resolve().parent.parent)
if _E2E not in sys.path:
    sys.path.insert(0, _E2E)
