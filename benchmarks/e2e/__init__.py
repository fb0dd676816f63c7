"""Served-path benchmark and layer ledger (see ``README.md`` here).

``python3 benchmarks/e2e/run.py --workload NAME --seed N --seconds S
--trace 0|1`` is the entry point ``BENCHMARK.json`` names;
``PYTHONPATH=src python -m benchmarks.e2e --seed N`` runs every workload
for a human, ``--traced`` adds the layer ladder and ``--aa`` compares two
sets of runs of the same code against the bounds.
"""
