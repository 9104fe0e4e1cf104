"""The TIPSY end-to-end benchmark (see ``benchmarks/e2e/README.md``).

Importing this package only makes the repository's ``src`` tree
importable; it starts nothing.  ``REPO_ROOT`` is the checkout the
benchmark runs in — ``BENCHMARK.json`` sits there and every file the
benchmark writes goes under ``benchmarks/e2e/out/`` inside it.
"""

import sys
from pathlib import Path

BENCH_DIR = Path(__file__).resolve().parent.parent
REPO_ROOT = BENCH_DIR.parent.parent
OUT_DIR = BENCH_DIR / "out"

_SRC = str(REPO_ROOT / "src")
if _SRC not in sys.path:
    sys.path.insert(0, _SRC)
