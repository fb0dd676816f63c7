"""Exception hierarchy for the PXML reproduction library.

All library-raised exceptions derive from :class:`PXMLError` so callers can
catch a single base class.  Subclasses are organized by the layer that raises
them: model construction, semantics, algebra, queries, and IO.
"""

from __future__ import annotations


class PXMLError(Exception):
    """Base class for every error raised by this library."""


class ModelError(PXMLError):
    """A probabilistic or semistructured instance is malformed."""


class UnknownObjectError(ModelError):
    """An object id was referenced that does not exist in the instance."""

    def __init__(self, oid: str) -> None:
        super().__init__(f"unknown object id: {oid!r}")
        self.oid = oid


class UnknownLabelError(ModelError):
    """A label was referenced that is not used by the given object."""

    def __init__(self, oid: str, label: str) -> None:
        super().__init__(f"object {oid!r} has no potential children with label {label!r}")
        self.oid = oid
        self.label = label


class CardinalityError(ModelError):
    """A cardinality interval is malformed or violated."""


class TypeDomainError(ModelError):
    """A leaf value falls outside its declared type domain."""


class DistributionError(ModelError):
    """A probability function is not a legal distribution."""


class CyclicModelError(ModelError):
    """The weak instance graph contains a cycle (Definition 4.3 forbids this)."""


class IncoherentModelError(ModelError):
    """A probabilistic instance fails a coherence check (Theorem 1 preconditions)."""


class OverlappingLabelError(ModelError):
    """Two labels of the same object share potential children.

    The paper's ``PC(o)`` construction flattens label information, so like
    the journal version of PXML we require ``lch(o, l1)`` and ``lch(o, l2)``
    to be disjoint for ``l1 != l2``.
    """


class SemanticsError(PXMLError):
    """Raised by the semantics layer (enumeration, factorization)."""


class NotFactorizableError(SemanticsError):
    """A global interpretation does not satisfy the weak instance (Theorem 2)."""


class AlgebraError(PXMLError):
    """Raised by algebraic operators."""


class PathSyntaxError(AlgebraError):
    """A path expression string could not be parsed."""


class EmptyResultError(AlgebraError):
    """An operation conditioned on an event of probability zero."""


class NonTreeInstanceError(AlgebraError):
    """An efficient (local) algorithm requires a tree-structured instance."""


class QueryError(PXMLError):
    """Raised by the query engine."""


class CodecError(PXMLError):
    """Raised when (de)serialization of an instance fails."""


class CorruptInstanceError(CodecError):
    """An instance file failed its integrity check (checksum mismatch,
    undecodable bytes, or a torn/truncated payload)."""


class JournalError(PXMLError):
    """Raised by the catalog write-ahead journal
    (:mod:`repro.storage.journal`) for unusable journal files or
    replay steps that cannot reach a consistent state."""


class ResilienceError(PXMLError):
    """Raised by the resilience subsystem (:mod:`repro.resilience`)."""


class BudgetExceeded(ResilienceError):
    """A cooperative execution budget ran out (deadline, node evaluations,
    or result objects).

    Attributes:
        limit: which limit was hit (``"deadline"``, ``"node_evals"``,
            ``"result_objects"``).
        where: the checkpoint that detected it (a plan-node label, the
            sampler, ...).
        span: when raised under ``PROFILE``, the partial span tree of the
            interrupted execution (attached by the interpreter).
    """

    def __init__(self, message: str, limit: str = "", where: str = "") -> None:
        super().__init__(message)
        self.limit = limit
        self.where = where
        self.span = None


class FaultError(ResilienceError):
    """The deterministic fault injector fired an ``error`` fault."""


class LockError(PXMLError):
    """Raised by the cross-process file-locking layer
    (:mod:`repro.storage.locking`)."""


class LockTimeout(LockError):
    """A file lock could not be acquired within its timeout.

    Attributes:
        path: the lock file that stayed contended.
        holder: best-effort description of the current holder (from the
            lock file's metadata), or ``None`` when unknown.
    """

    def __init__(self, message: str, path: str = "",
                 holder: str | None = None) -> None:
        super().__init__(message)
        self.path = path
        self.holder = holder


class ServerError(PXMLError):
    """Raised by the serving layer (:mod:`repro.server`)."""


class Overloaded(ServerError):
    """Admission control rejected a request.

    Raised when the server's bounded admission queue is full, or when
    the server is draining/stopped — a typed backpressure signal
    callers can retry on, never unbounded queue growth.

    Attributes:
        reason: ``"queue_full"``, ``"draining"``, or ``"stopped"``.
    """

    def __init__(self, message: str, reason: str = "queue_full") -> None:
        super().__init__(message)
        self.reason = reason


class ShardConfigError(ServerError):
    """A sharded root cannot be served (or resharded) as asked.

    Instance names are placed by consistent hashing over the shard
    ring, so silently reopening an N-shard directory with M shards
    would rehash names to the wrong homes.  The directory's
    ``shards.json`` manifest records the count; a mismatch, an
    interrupted reshard, or a torn live migration left by an older version
    is refused with this error, which names the offline ``reshard``
    command that resolves it.  An untrusted manifest raises it too.

    Attributes:
        configured: the shard count the server was constructed with.
        recorded: the shard count the directory's manifest records.
    """

    def __init__(
        self, message: str, configured: int = 0, recorded: int = 0
    ) -> None:
        super().__init__(message)
        self.configured = configured
        self.recorded = recorded


class ShardUnavailable(ServerError):
    """A shard process is dead or unreachable.

    Raised by the sharded router (:mod:`repro.server.shard`) when a
    request targets a shard whose worker process has exited, or when
    the shard dies while requests are in flight.  Retryable after
    :meth:`~repro.server.shard.ShardedServer.restart_shard`.

    Attributes:
        shard: the shard index the request was routed to.
    """

    def __init__(self, message: str, shard: int = -1) -> None:
        super().__init__(message)
        self.shard = shard


class RemoteExecutionError(ServerError):
    """A shard reported an error the router cannot reconstruct natively.

    Cross-process error transport is by *description* (type name,
    message and the structured attributes, see
    :func:`repro.server.wire.describe_error`), not by pickling live
    exception objects; error types the router knows (``Overloaded``,
    ``BudgetExceeded``, ``DatabaseError``, ...) are rebuilt as
    themselves, and everything else arrives as this wrapper — still a
    typed :class:`ServerError`, never a raw crash.

    Attributes:
        remote_type: the original exception's class name on the shard.
        codes: the error-severity finding codes when the remote error
            was a failed static check (``CheckError``), else empty.
    """

    codes: tuple[str, ...] = ()

    def __init__(self, message: str, remote_type: str = "") -> None:
        super().__init__(message)
        self.remote_type = remote_type
