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
  epsilon pass (a dense numpy path for large tables, the sparse
  pure-Python enumeration otherwise);
* :mod:`repro.index.cache` — the snapshot kept on its frozen instance
  (:func:`repro.storage.derived.derived`), through the one fail-open
  fetch (:func:`snapshot_of`) every reader uses.

Pruning of provably dead paths is not done here: the abstract
interpreter (:mod:`repro.check.absint`) folds the dataguide into its
certificate and the engine has one skip site for it.

numpy is used only in the dense marginalizer (:mod:`repro.index.
np_compat` guards the import); :data:`HAS_NUMPY` says whether it runs.
"""

from repro.index.cache import snapshot_of
from repro.index.columnar import ColumnarInstance, match_path_indexed
from repro.index.np_compat import HAS_NUMPY
from repro.index.opf import marginalize_opf, marginalize_python

__all__ = [
    "HAS_NUMPY",
    "ColumnarInstance",
    "marginalize_opf",
    "marginalize_python",
    "match_path_indexed",
    "snapshot_of",
]
