"""Structural path index and columnar instance core.

The walked evaluators navigate the Python object graph node-at-a-time;
this package gives the engine a flat-array *access method* for the same
operators — chosen by the executor at run time for a scanned tree whose
snapshot is there (``Engine._strategy``), never a different plan:

* :mod:`repro.index.encoding` — pre/size/level interval encoding of
  trees (the XPath-accelerator design), turning ancestor/descendant
  tests into integer range comparisons;
* :mod:`repro.index.columnar` — :class:`ColumnarInstance`, a
  struct-of-arrays snapshot of one instance version, plus
  :func:`match_path_indexed`, a batched path matcher that returns
  results identical to :func:`repro.semistructured.paths.match_path`;
* :mod:`repro.index.opf` — vectorized OPF marginalization for the
  Section 6.1 epsilon pass (numpy fast path, pure-Python fallback);
* :mod:`repro.index.cache` — the per-catalog snapshot cache, keyed by
  the catalog token (:mod:`repro.storage.derived`), with the one
  fail-open fetch (:meth:`IndexCache.try_get`) every reader uses.

Pruning of provably dead paths is not done here: the abstract
interpreter (:mod:`repro.check.absint`) folds the dataguide into its
certificate and the engine has one skip site for it.

numpy is optional throughout (:mod:`repro.index.np_compat`); every
vectorized routine has a pure-Python twin with identical semantics.
"""

from repro.index.cache import IndexCache
from repro.index.columnar import ColumnarInstance, match_path_indexed
from repro.index.encoding import IntervalEncoding
from repro.index.np_compat import HAS_NUMPY
from repro.index.opf import marginalize_opf, marginalize_python

__all__ = [
    "HAS_NUMPY",
    "ColumnarInstance",
    "IndexCache",
    "IntervalEncoding",
    "marginalize_opf",
    "marginalize_python",
    "match_path_indexed",
]
