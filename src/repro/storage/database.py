"""A simple named-instance database with directory-backed persistence.

The paper's system stores probabilistic instances and runs algebra
operations that produce new instances; this module provides the catalog
around that: named instances in memory, persisted one-file-per-instance
under a directory (the JSON codec's format), with the usual open/save
/drop/list operations.  The PXQL interpreter executes against one of
these databases.
"""

from __future__ import annotations

import threading
import time
from collections.abc import Callable, Iterator
from pathlib import Path

from repro.core.instance import ProbabilisticInstance
from repro.errors import CodecError, FaultError, JournalError, LockError, PXMLError
from repro.io.json_codec import (
    content_checksum,
    dumps,
    header_digest,
    read_instance,
    write_payload,
)
from repro.obs.metrics import current_registry
from repro.obs.tracing import current_tracer
from repro.resilience.faults import fault_point
from repro.resilience.retry import RetryPolicy, retry_call
from repro.storage.derived import forget
from repro.storage.journal import (
    Journal,
    RecoveryReport,
    quarantine_move,
    quarantined_names,
    recover_directory,
)
from repro.storage.locking import (
    CATALOG_LOCK_NAME,
    GENERATION_NAME,
    FileLock,
    bump_generation,
    read_generation,
    shared_lock,
)


class DatabaseError(PXMLError):
    """Raised for catalog problems: unknown names, clashes, bad dirs,
    vanished files, and (depending on policy) corrupt instance files."""


_SUFFIX = ".pxml.json"

#: Subdirectory corrupt instance files are moved into under the
#: ``on_corrupt="quarantine"`` policy.
QUARANTINE_DIR = "quarantine"

#: Default retry behavior around catalog disk I/O.
DEFAULT_RETRY = RetryPolicy(attempts=3, base_delay_s=0.005, max_delay_s=0.1)

_FORBIDDEN_NAME_PARTS = ("/", "\\", "..")


def _validate_name(name: str) -> str:
    """Reject catalog names that could escape the backing directory.

    Names become file names (``<name>.pxml.json``) under the backing
    directory, so path separators and ``..`` segments are refused before
    any :class:`~pathlib.Path` is built from them.
    """
    if not name or name in (".", ".."):
        raise DatabaseError(f"invalid instance name: {name!r}")
    for part in _FORBIDDEN_NAME_PARTS:
        if part in name:
            raise DatabaseError(
                f"invalid instance name {name!r}: must not contain {part!r}"
            )
    return name


_VALIDATE_MODES = (None, "lint")
_CORRUPT_MODES = ("raise", "quarantine")


class Database:
    """A catalog of named probabilistic instances.

    Args:
        directory: optional backing directory.  When given, instances
            already stored there are listed lazily (loaded on first use)
            and :meth:`save` / :meth:`save_all` write back to it.
        validate: admission policy for instances entering the catalog
            (:meth:`register`, :meth:`load_file`, lazy directory loads,
            :meth:`reload`).  ``None`` (default) admits anything;
            ``"lint"`` runs the static model pass
            (:func:`repro.check.model.lint_instance`) and refuses
            instances with error-severity findings.
        on_corrupt: what to do when an instance file fails to decode or
            fails its checksum.  ``"raise"`` (default) raises
            :class:`DatabaseError` and leaves the file in place;
            ``"quarantine"`` moves the file into the ``quarantine/``
            subdirectory — so one bad file can never poison the rest
            of the catalog — then raises
            :class:`DatabaseError` for that name only.  Either way the
            error is typed; raw decode exceptions never escape.
        retry: retry-with-backoff policy around catalog disk I/O
            (transient ``OSError`` s); defaults to :data:`DEFAULT_RETRY`.
        retry_sleep: the sleep function backoff uses (injectable for
            tests).

    Every name carries a monotonically increasing *version*: registering
    (or re-registering, lazily loading, reloading) an instance assigns the
    next value of a database-wide counter.  Versions describe what *this
    object* did to a name; what *anyone else* did to it on the shared
    directory is its :meth:`epoch` — the on-disk generation of the last
    mutation of that name this object did not make, attributed from the
    journal's commit records the first time a statement sees the
    generation ahead of what this object has accounted for.  The
    engine's caches key on the pair
    (:func:`repro.storage.derived.cache_token`), so a mutation of one
    name invalidates the cached state derived from that name and leaves
    every other name's standing; only a change the journal cannot
    attribute (compacted, torn, a gap, a lock timeout) invalidates them
    all.  Observing a foreign mutation also drops this object's *clean*
    in-memory copy of the name, so the next :meth:`get` reloads the new
    bytes; a copy with unsaved changes stays authoritative.

    **Concurrency.**  A :class:`Database` is thread-safe: the in-memory
    catalog (instances, versions, counter) lives under one internal
    lock, held only for dict operations — never across disk I/O.  When
    backed by a directory it is also *cross-process* safe: every
    mutating disk operation (``save``, ``drop``, quarantine moves) runs
    under an ``fcntl`` advisory lock file (``catalog.lock``, see
    :class:`repro.storage.locking.FileLock`) and bumps the atomic
    ``catalog.generation`` counter, so two databases on one directory
    can never interleave a save with a drop, and each can detect that
    the other changed the catalog (:meth:`generation`).  Reads take no
    file lock — atomic writes plus checksums make a concurrent read
    see either the old or the new instance, never a torn one.
    Lock ordering is *file lock before memory lock*; the memory lock is
    never held while acquiring the file lock, so the pair cannot
    deadlock.
    """

    def __init__(
        self,
        directory: str | Path | None = None,
        validate: str | None = None,
        on_corrupt: str = "raise",
        retry: RetryPolicy | None = None,
        retry_sleep: Callable[[float], None] = time.sleep,
    ) -> None:
        if validate not in _VALIDATE_MODES:
            raise DatabaseError(
                f"unknown validate mode {validate!r}; "
                f"choose one of {_VALIDATE_MODES}"
            )
        if on_corrupt not in _CORRUPT_MODES:
            raise DatabaseError(
                f"unknown on_corrupt mode {on_corrupt!r}; "
                f"choose one of {_CORRUPT_MODES}"
            )
        self._instances: dict[str, ProbabilisticInstance] = {}
        self._versions: dict[str, int] = {}
        self._version_counter = 0
        self._validate = validate
        self._on_corrupt = on_corrupt
        self._retry = retry if retry is not None else DEFAULT_RETRY
        self._retry_sleep = retry_sleep
        self._lock = threading.RLock()
        self._dirty: set[str] = set()
        self._directory = Path(directory) if directory is not None else None
        self._file_lock: FileLock | None = None
        self._generation_path: Path | None = None
        self._journal: Journal | None = None
        # Foreign-mutation accounting (see ``epoch``): the highest
        # on-disk generation accounted for, the generation of the last
        # foreign mutation per known name, and the blanket floor.
        self._seen = 0
        self._epochs: dict[str, int] = {}
        self._floor = 0
        if self._directory is not None:
            self._directory.mkdir(parents=True, exist_ok=True)
            # One lock object per directory process-wide: independent
            # flock descriptors on the same path contend even within a
            # process, so two Databases sharing a directory must share
            # the reentrant lock instead of serializing via the kernel.
            self._file_lock = shared_lock(self._directory / CATALOG_LOCK_NAME)
            self._generation_path = self._directory / GENERATION_NAME
            self._journal = Journal(self._directory)
            self.recover()
            self._seen = self.generation()

    @property
    def directory(self) -> Path | None:
        """The backing directory, or ``None`` for an in-memory catalog."""
        return self._directory

    @property
    def journal(self) -> Journal | None:
        """The catalog's write-ahead journal (``None`` when unbacked)."""
        return self._journal

    def recover(self) -> RecoveryReport:
        """Replay the write-ahead journal to a consistent on-disk state.

        Runs automatically when a directory-backed database opens; safe
        (and idempotent) to call again at any time — e.g. after another
        process crashed mid-operation on the shared directory.  Torn
        saves whose file matches the journaled checksum are rolled
        forward, torn drops and quarantines are completed,
        cleanly-unfinished operations are aborted (the atomic file
        write guarantees the old state is intact), and the generation
        counter is advanced to the journal's committed high-water mark
        so it stays monotone across crashes.  Returns the report of
        what was done (an all-zero report on a clean catalog).
        """
        if self._directory is None or self._journal is None:
            return RecoveryReport()
        assert self._file_lock is not None
        try:
            with self._file_lock:
                return recover_directory(self._directory, self._journal)
        except (OSError, JournalError) as exc:
            raise DatabaseError(
                f"cannot recover catalog {self._directory}: {exc}"
            ) from exc

    def _admit(self, name: str, instance: ProbabilisticInstance) -> None:
        """Apply the admission policy before an instance enters the catalog."""
        if self._validate != "lint":
            return
        from repro.check.model import has_errors, lint_instance

        issues = lint_instance(instance)
        if has_errors(issues):
            problems = "\n".join(
                str(issue) for issue in issues if issue.severity == "error"
            )
            raise DatabaseError(
                f"instance {name!r} rejected by lint validation:\n{problems}"
            )

    # ------------------------------------------------------------------
    # Catalog
    # ------------------------------------------------------------------
    def _next_version(self, name: str) -> int:
        """Assign the next catalog version (callers hold ``self._lock``)."""
        self._version_counter += 1
        self._versions[name] = self._version_counter
        current_tracer().event(
            "db.version", name=name, version=self._version_counter
        )
        current_registry().counter("db.version_bumps").inc()
        return self._version_counter

    def _bump_generation(self) -> int:
        """Advance the on-disk generation (callers hold the file lock);
        returns the new value (0 when unbacked)."""
        if self._generation_path is None:
            return 0
        generation = bump_generation(self._generation_path)
        with self._lock:
            # Nobody else wrote in between: versions already describe
            # this mutation.  Otherwise the next statement's generation
            # read is ahead of ``_seen`` and attributes the whole range.
            if generation == self._seen + 1:
                self._seen = generation
        return generation

    def generation(self) -> int:
        """The catalog's on-disk generation counter (0 when unbacked).

        Bumped under the cross-process lock by every mutating disk
        operation — save, drop, quarantine — by *any* database instance
        on this directory, so a changed value means the catalog moved
        underneath you.
        """
        if self._generation_path is None:
            return 0
        return read_generation(self._generation_path)

    def epoch(self, name: str, generation: int) -> int:
        """The generation of the last mutation of ``name`` this object
        did not make (0 when there was none), as of ``generation`` —
        the value the running statement already read.

        Not behind: one integer comparison, no lock.  Behind: the
        foreign generations are attributed first (:meth:`_observe`).
        Only :func:`repro.storage.derived.cache_token` asks.
        """
        if generation > self._seen:
            self._observe(generation)
        return max(self._floor, self._epochs.get(name, 0))

    def _observe(self, generation: int) -> None:
        """Account for every on-disk generation in ``(_seen, now]``.

        Under the catalog lock, each one is attributed to the name of
        its journal commit record.  Anything that cannot be attributed
        — a compacted or torn journal, a gap, a lock timeout — is the
        blanket case of the same accounting (:meth:`_invalidate`).
        """
        assert self._file_lock is not None and self._journal is not None
        try:
            with self._file_lock:
                if generation <= self._seen:
                    return  # another thread accounted for it meanwhile
                records, torn = self._journal.read()
                commits = {
                    r.generation: r.name for r in records
                    if r.state == "commit" and r.generation is not None
                    and r.generation > self._seen
                }
                top = max([generation, *commits])
                attributed = not torn and sorted(commits) == list(
                    range(self._seen + 1, top + 1)
                )
                self._invalidate(top, commits if attributed else None)
        except (LockError, JournalError):
            self._invalidate(generation, None)

    def _invalidate(self, top: int, commits: dict[int, str] | None) -> None:
        """Move the epoch of every name in ``commits`` (generation ->
        name) — of every name, raising the blanket floor to ``top``,
        when ``None`` — drop its clean in-memory copy and bump its
        version, so the next :meth:`get` reloads.  A dirty copy stays
        authoritative."""
        with self._lock:
            if commits is None:
                stale = set(self._versions)
                self._floor = max(self._floor, top)
                self._epochs.clear()
            else:
                stale = set(commits.values())
                for foreign, name in sorted(commits.items()):
                    # A name without a version has no token to move.
                    if name in self._versions:
                        self._epochs[name] = foreign
            for name in stale - self._dirty:
                self._instances.pop(name, None)
                if name in self._versions:
                    self._next_version(name)
            self._seen = max(self._seen, top)
        for name in stale:
            # Its token moved: what was derived from the old bytes can
            # never be looked up again (and after a foreign DROP there
            # is no next lookup to replace it).
            forget(self, name)

    def _read(self, path: Path, name: str) -> ProbabilisticInstance:
        """Load one instance file inside a ``db.load`` span.

        Transient ``OSError`` s are retried with backoff; a racing
        deletion (``FileNotFoundError`` after the existence check — the
        TOCTOU window) and exhausted retries surface as
        :class:`DatabaseError` naming the instance, never as a raw OS
        exception.  Corrupt files follow the ``on_corrupt`` policy.
        """
        with current_tracer().span("db.load", name=name, path=str(path)):
            try:
                instance = retry_call(
                    lambda: read_instance(path),
                    self._retry,
                    retry_on=(OSError,),
                    give_up_on=(FileNotFoundError,),
                    sleep=self._retry_sleep,
                    site=f"db.load:{name}",
                )
            except CodecError as exc:
                raise self._corrupt_error(name, path, exc) from exc
            except FileNotFoundError as exc:
                raise DatabaseError(
                    f"unknown instance: {name!r} (file {path} vanished)"
                ) from exc
            except OSError as exc:
                raise DatabaseError(
                    f"cannot load instance {name!r} from {path}: {exc}"
                ) from exc
        current_registry().counter("db.loads").inc()
        return instance

    def _corrupt_error(
        self, name: str, path: Path, exc: CodecError
    ) -> DatabaseError:
        """Apply the ``on_corrupt`` policy; returns the error to raise."""
        current_tracer().event("db.corrupt", name=name, path=str(path))
        if self._on_corrupt != "quarantine" or self._directory is None:
            return DatabaseError(f"instance {name!r} is corrupt: {exc}")
        try:
            assert self._file_lock is not None
            with self._file_lock:
                seq = None
                if self._journal is not None:
                    seq = self._journal.begin("quarantine", name)
                try:
                    destination = quarantine_move(
                        self._directory, path, self.generation()
                    )
                except (OSError, LockError, FaultError):
                    if seq is not None and self._journal is not None:
                        self._journal.abort(seq, "quarantine", name)
                    raise
                generation = self._bump_generation()
                if seq is not None and self._journal is not None:
                    self._journal.commit(seq, "quarantine", name, generation)
        except (OSError, LockError, FaultError, JournalError) as move_error:
            return DatabaseError(
                f"instance {name!r} is corrupt and could not be "
                f"quarantined ({move_error}): {exc}"
            )
        with self._lock:
            self._instances.pop(name, None)
            self._versions.pop(name, None)
            self._epochs.pop(name, None)
            self._dirty.discard(name)
        forget(self, name)
        current_registry().counter("db.corrupt_quarantined").inc()
        return DatabaseError(
            f"instance {name!r} was corrupt and has been quarantined "
            f"to {destination}: {exc}"
        )

    def quarantined(self) -> list[str]:
        """Names of instances with files in the quarantine directory.

        Quarantined files carry a generation + dedup suffix
        (``name.pxml.json.g7``, ``name.pxml.json.g7-2``) so repeated
        quarantines of one name never overwrite earlier evidence; this
        lists the distinct instance *names*.
        """
        if self._directory is None:
            return []
        return quarantined_names(self._directory)

    def version(self, name: str) -> int:
        """The current version of ``name`` (assigning one if on disk only).

        Raises :class:`DatabaseError` for names the catalog does not
        know at all.
        """
        _validate_name(name)
        with self._lock:
            if name in self._versions:
                return self._versions[name]
            if name in self._instances:
                return self._next_version(name)
        if self._on_disk(name):
            with self._lock:
                if name in self._versions:
                    return self._versions[name]
                return self._next_version(name)
        raise DatabaseError(f"unknown instance: {name!r}")

    def sidecar_checksum(self, name: str) -> str | None:
        """The on-disk content checksum recorded for ``name``.

        The digest in the file's header line (only that line is read);
        ``None`` when the catalog is unbacked or the file is missing,
        unreadable or headerless.  This is the *cross-process stable*
        identity of an instance's bytes: in-process version counters
        restart at zero in every process, but the digest is the same for
        every process looking at the same file.
        """
        if self._directory is None:
            return None
        _validate_name(name)
        return header_digest(self._directory / f"{name}{_SUFFIX}")

    def _on_disk(self, name: str) -> bool:
        if self._directory is None:
            return False
        return (self._directory / f"{name}{_SUFFIX}").exists()

    def register(
        self, name: str, instance: ProbabilisticInstance, replace: bool = False
    ) -> None:
        """Add an instance under ``name``; refuses clashes unless ``replace``.

        The catalog holds values: the instance's weak structure is
        frozen, so a change is a new instance registered with
        ``replace=True``, which moves the name's version.
        """
        _validate_name(name)
        self._admit(name, instance)
        fault_point("lock.db.mutate")
        with self._lock:
            if not replace and name in self._instances:
                raise DatabaseError(f"instance {name!r} already exists")
            instance.weak.freeze()
            self._instances[name] = instance
            self._next_version(name)
            self._dirty.add(name)
        current_registry().counter("db.registers").inc()

    def get(self, name: str) -> ProbabilisticInstance:
        """Look up an instance, loading from the backing directory if needed.

        The lazy load happens *outside* the memory lock (I/O never runs
        under it); when two threads race the load, one insertion wins
        and both return the same object.
        """
        with self._lock:
            if name in self._instances:
                return self._instances[name]
        _validate_name(name)
        if self._directory is not None:
            path = self._directory / f"{name}{_SUFFIX}"
            if path.exists():
                instance = self._read(path, name)
                self._admit(name, instance)
                with self._lock:
                    existing = self._instances.get(name)
                    if existing is not None:
                        return existing
                    instance.weak.freeze()
                    self._instances[name] = instance
                    self._dirty.discard(name)  # fresh from disk: in sync
                    if name not in self._versions:
                        self._next_version(name)
                return instance
        raise DatabaseError(f"unknown instance: {name!r}")

    def reload(self, name: str) -> ProbabilisticInstance:
        """Re-read an instance from the backing directory, replacing the
        in-memory copy and bumping its version.

        Useful after the file was edited externally; the admission
        policy (``validate="lint"``) applies to the fresh copy.
        """
        _validate_name(name)
        if self._directory is None:
            raise DatabaseError("database has no backing directory")
        path = self._directory / f"{name}{_SUFFIX}"
        if not path.exists():
            raise DatabaseError(f"unknown instance: {name!r}")
        instance = self._read(path, name)
        self._admit(name, instance)
        instance.weak.freeze()
        with self._lock:
            self._instances[name] = instance
            self._dirty.discard(name)  # fresh from disk: in sync
            self._next_version(name)
        return instance

    def drop(self, name: str) -> None:
        """Remove an instance from the catalog (and its file, if backed).

        The file is unlinked *before* the in-memory entry and version
        are popped: if the unlink fails, the catalog is left exactly as
        it was (instance still resolvable, version intact) and a
        :class:`DatabaseError` reports why — never a half-dropped state
        where memory forgot a name whose file survived.
        """
        _validate_name(name)
        fault_point("lock.db.mutate")
        with self._lock:
            found = name in self._instances
        if self._directory is not None:
            assert self._file_lock is not None
            with self._file_lock:
                path = self._directory / f"{name}{_SUFFIX}"
                if path.exists():
                    seq = None
                    if self._journal is not None:
                        seq = self._journal.begin("drop", name)
                    try:
                        fault_point("db.drop.unlink")
                        path.unlink()
                    except FileNotFoundError:
                        pass  # racing deletion: the file is gone either way
                    except OSError as exc:
                        # Pre-state intact (the unlink was the first
                        # destructive step): record a clean abort so
                        # replay never completes a drop the caller was
                        # told had failed.
                        if seq is not None and self._journal is not None:
                            self._journal.abort(seq, "drop", name)
                        raise DatabaseError(
                            f"cannot drop instance {name!r}: {exc}"
                        ) from exc
                    found = True
                    generation = self._bump_generation()
                    if seq is not None and self._journal is not None:
                        self._journal.commit(seq, "drop", name, generation)
        if not found:
            raise DatabaseError(f"unknown instance: {name!r}")
        with self._lock:
            self._instances.pop(name, None)
            self._versions.pop(name, None)
            self._epochs.pop(name, None)
            self._dirty.discard(name)
        forget(self, name)
        current_registry().counter("db.drops").inc()

    def names(self) -> list[str]:
        """All instance names (in-memory plus on-disk)."""
        with self._lock:
            names = set(self._instances)
        if self._directory is not None:
            for path in self._directory.glob(f"*{_SUFFIX}"):
                names.add(path.name[: -len(_SUFFIX)])
        return sorted(names)

    def __contains__(self, name: str) -> bool:
        return name in self.names()

    def __len__(self) -> int:
        return len(self.names())

    def items(self) -> Iterator[tuple[str, ProbabilisticInstance]]:
        """Iterate ``(name, instance)``, loading lazily.

        Under ``on_corrupt="quarantine"``, names whose files turn out
        corrupt are quarantined and *skipped*, so one bad file never
        aborts iteration over the rest of the catalog.  Iteration runs
        over a *snapshot* of the names: concurrent registers and drops
        never raise "changed size during iteration", and a name dropped
        mid-iteration is silently skipped rather than an error.
        """
        for name in self.names():
            try:
                yield name, self.get(name)
            except DatabaseError:
                if self._on_corrupt == "quarantine":
                    continue
                with self._lock:
                    vanished = name not in self._instances
                if vanished and not self._on_disk(name):
                    continue  # dropped concurrently: not this caller's problem
                raise

    # ------------------------------------------------------------------
    # Persistence
    # ------------------------------------------------------------------
    def save(self, name: str) -> Path:
        """Persist one instance; requires a backing directory.

        The write is atomic (tmp file + fsync + rename, see
        :func:`repro.io.json_codec.write_payload`) and *journaled*: a
        begin record carrying the payload checksum is fsynced to the
        write-ahead journal before the first disk step and a commit
        record after the generation bump, so a crash anywhere in the
        sequence is rolled forward or aborted on the next open
        (:meth:`recover`).  Transient ``OSError`` s are retried with
        backoff, and exhausted retries raise :class:`DatabaseError`
        naming the instance.  The write runs under the cross-process
        catalog lock and bumps the generation counter.
        """
        _validate_name(name)
        if self._directory is None:
            raise DatabaseError("database has no backing directory")
        fault_point("lock.db.mutate")
        path = self._directory / f"{name}{_SUFFIX}"
        assert self._file_lock is not None
        with self._file_lock:
            instance = self.get(name)
            with current_tracer().span("db.save", name=name, path=str(path)):
                # Serialize (and checksum) *before* any disk step: the
                # journal's begin record carries the checksum of the
                # exact bytes about to be published, which is what lets
                # replay tell a completed publication from a torn one.
                payload = dumps(instance)
                corrupted = fault_point("codec.write.payload", payload)
                payload = corrupted if corrupted is not None else payload
                seq = None
                if self._journal is not None:
                    seq = self._journal.begin(
                        "save", name, checksum=content_checksum(payload)
                    )
                try:
                    retry_call(
                        lambda: write_payload(payload, path),
                        self._retry,
                        retry_on=(OSError,),
                        sleep=self._retry_sleep,
                        site=f"db.save:{name}",
                    )
                except OSError as exc:
                    # The one file step is atomic, so a clean failure
                    # left the old file in place: record the abort.
                    if seq is not None and self._journal is not None:
                        self._journal.abort(seq, "save", name)
                    raise DatabaseError(
                        f"cannot save instance {name!r} to {path}: {exc}"
                    ) from exc
                generation = self._bump_generation()
                if seq is not None and self._journal is not None:
                    self._journal.commit(seq, "save", name, generation)
        with self._lock:
            self._dirty.discard(name)
        current_registry().counter("db.saves").inc()
        return path

    def save_all(self) -> list[Path]:
        """Persist every in-memory instance.

        Operates on a *snapshot* of the in-memory names: concurrent
        registers/drops never make iteration blow up, a name dropped
        after the snapshot is skipped, and a save failure leaves the
        already-written files in place (each individual write is still
        atomic).
        """
        with self._lock:
            snapshot = sorted(self._instances)
        paths: list[Path] = []
        for name in snapshot:
            try:
                paths.append(self.save(name))
            except DatabaseError:
                with self._lock:
                    vanished = name not in self._instances
                if vanished:
                    continue  # dropped concurrently after the snapshot
                raise
        return paths

    def load_file(self, name: str, path: str | Path) -> ProbabilisticInstance:
        """Load an instance from an arbitrary file and register it.

        The admission policy (``validate="lint"``) applies via
        :meth:`register`.
        """
        instance = self._read(Path(path), name)
        self.register(name, instance, replace=True)
        return instance

    def __repr__(self) -> str:
        backing = str(self._directory) if self._directory else "in-memory"
        return f"Database({backing}, {len(self)} instances)"
