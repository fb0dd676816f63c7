"""Structural path index over tree-shaped instances.

The walked evaluators navigate the Python object graph node-at-a-time;
this package gives the engine a flat *access method* for the same
operators — chosen by the executor at run time for a scanned tree whose
snapshot is there (``Engine._strategy``), never a different plan:

* :mod:`repro.index.columnar` — :class:`ColumnarInstance`, a preorder
  snapshot of one frozen tree (``None`` for a DAG, which its readers
  walk), plus :func:`match_path_indexed`, a path matcher that returns
  results identical to :func:`repro.semistructured.paths.match_path`;
* :mod:`repro.index.opf` — OPF marginalization for the Section 6.1
  epsilon pass, one child at a time over the OPF's bitmask table;
* :mod:`repro.index.cache` — the snapshot kept on its frozen instance
  (:func:`repro.storage.derived.derived`), through the one fail-open
  fetch (:func:`snapshot_of`) every reader uses.

Pruning of provably dead paths is not done here: the abstract
interpreter (:mod:`repro.check.absint`) folds the dataguide into its
certificate and the engine has one skip site for it.

Everything here is plain Python.  :data:`HAS_NUMPY` only reports whether
numpy is installed, for the end-to-end benchmark's environment record.
"""

from importlib.util import find_spec

from repro.index.cache import snapshot_of
from repro.index.columnar import ColumnarInstance, match_path_indexed
from repro.index.opf import marginalize

HAS_NUMPY = find_spec("numpy") is not None

__all__ = [
    "HAS_NUMPY",
    "ColumnarInstance",
    "marginalize",
    "match_path_indexed",
    "snapshot_of",
]
