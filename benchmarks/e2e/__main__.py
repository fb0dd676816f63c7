"""``python -m benchmarks.e2e`` — see :mod:`benchmarks.e2e.cli`."""

import sys

from .cli import main

# Guarded: the ladder's shard processes are spawned, and a spawned child
# re-imports the parent's main module.
if __name__ == "__main__":
    sys.exit(main())
