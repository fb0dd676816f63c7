"""Optional numpy import for the dense OPF marginalizer.

numpy is used in one place, :mod:`repro.index.opf`'s dense path, which
has a pure-Python twin with identical semantics; the import is guarded
here.  ``numpy`` is ``None`` when absent; callers must check
:data:`HAS_NUMPY` before touching it.
"""

from __future__ import annotations

try:  # pragma: no cover - exercised indirectly by both code paths
    import numpy
except ImportError:  # pragma: no cover - depends on the environment
    numpy = None  # type: ignore[assignment]

#: Whether the dense marginalizer is available in this process.
HAS_NUMPY = numpy is not None
