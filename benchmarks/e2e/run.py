"""Entry point named by ``BENCHMARK.json``: ``python3 benchmarks/e2e/run.py``.

Puts the checkout's own ``src/`` first on the path, so the benchmark
always measures the source tree it sits in, then hands over to
:mod:`benchmarks.e2e.cli`.
"""

import sys
from pathlib import Path

ROOT = Path(__file__).resolve().parents[2]
sys.path[:0] = [str(ROOT / "src"), str(ROOT)]

if __name__ == "__main__":
    if not (ROOT / "src" / "repro").is_dir():
        sys.exit(f"{ROOT}: no src/repro here, nothing to benchmark")
    from benchmarks.e2e.cli import main

    sys.exit(main())
