"""Write-ahead journal for catalog operations.

Each catalog mutation is one atomic filesystem step plus a generation
bump: a save publishes one file (its header line carries the body's
SHA-256, see :func:`repro.io.json_codec.write_payload`) with one
``os.replace``, a drop unlinks it, a quarantine moves it.  The journal
ties the step to the bump, and its commit records name the instance
each generation changed (:meth:`repro.storage.database.Database.epoch`).
Every mutating operation is journaled under the catalog's
cross-process lock:

1. a **begin** record (op kind, instance name, and — for saves — the
   SHA-256 of the body about to be published) is appended and fsynced
   *before* the file step;
2. the file step runs;
3. a **commit** record (carrying the post-operation generation) marks it
   complete.  Failures that surface as clean exceptions append an
   **abort** record instead.

On open, :func:`recover_directory` replays the journal: any begin
without a commit/abort is a torn operation.  A save is *rolled forward*
when the file's body and header both match the journaled digest, and
*aborted* when the file is missing, headerless, or agrees with its own
header (the pre-operation file, intact); a file in any other state is
quarantined, never deleted.  A torn drop or quarantine is completed.
The generation counter is rolled forward to the journal's high-water
mark, so it stays monotone across crashes.

**Record format.**  One JSON object per line, each carrying a ``crc``
field — the SHA-256 of the record's canonical JSON without ``crc``.  A
torn append (half a line at the tail) or a corrupted record fails the
parse or the checksum; everything from the first bad record on is
discarded and the journal truncated back to the good prefix, which is
exactly the prefix-consistency the catalog needs: a journal record is
only trusted once it was durably and completely written.

**What is verified when.**  Every record is parsed and crc-checked on
open (:func:`recover_directory`), by fsck, and by the first mutating
operation after *anything else* touched the file.  In between, a
:class:`Journal` remembers what its last verified read established
(next seq, record count, open begins) together with the identity of the
file it left behind — inode, size, mtime — and its own fsynced appends
extend that verified prefix without re-reading it.  The memo is trusted
only while the identity is unchanged; a sibling's append, compaction or
truncation changes it, and a torn read is never remembered.  A record
is therefore trusted either after a full verified read or as this
object's own durable append to a verified, unchanged file — the same
guarantee, at a cost independent of the journal's length.

**Quarantine naming.**  Quarantined files are suffixed with the catalog
generation at the time of the move plus a dedup counter
(``name.pxml.json.g7``, ``name.pxml.json.g7-2``), so quarantining a
second corrupt file under the same instance name can never destroy the
earlier evidence.
"""

from __future__ import annotations

import hashlib
import json
import os
from dataclasses import dataclass, field
from pathlib import Path
from typing import Any

from repro.errors import CorruptInstanceError, JournalError
from repro.io.json_codec import (
    content_checksum,
    replace_atomically,
    split_header,
)
from repro.obs.metrics import current_registry
from repro.obs.tracing import current_tracer
from repro.resilience.faults import fault_point
from repro.storage.locking import (
    GENERATION_NAME,
    bump_generation,
    read_generation,
)

#: Name of the journal file inside a catalog directory.
JOURNAL_NAME = "catalog.journal"

#: Instance-file suffix (mirrors ``repro.storage.database._SUFFIX``;
#: kept here too so the journal and fsck need no database import).
INSTANCE_SUFFIX = ".pxml.json"

#: Subdirectory quarantined files are moved into.
QUARANTINE_DIR = "quarantine"

#: Journaled operation kinds.
OPS = ("save", "drop", "quarantine")

#: Once the journal holds this many fully-resolved records it is
#: compacted down to a single checkpoint record.
COMPACT_THRESHOLD = 512


def record_crc(fields: dict[str, Any]) -> str:
    """The integrity checksum of a record (canonical JSON, no ``crc``)."""
    canonical = json.dumps(
        {k: v for k, v in sorted(fields.items()) if k != "crc"},
        sort_keys=True,
        separators=(",", ":"),
    )
    return hashlib.sha256(canonical.encode("utf-8")).hexdigest()


def _checked_line(fields: dict[str, Any]) -> str:
    fields = dict(fields)
    fields["crc"] = record_crc(fields)
    return json.dumps(fields, sort_keys=True, separators=(",", ":")) + "\n"


def _append_checked(path: Path, fields: dict[str, Any]) -> None:
    """Append one crc-stamped JSONL record and fsync it durable.

    The append behind :class:`Journal`: one ``write`` call of
    ``line + "\\n"``, flushed and fsynced, so a torn append is always
    detectable as a file not ending in a newline.
    """
    try:
        with open(path, "a", encoding="utf-8") as handle:
            handle.write(_checked_line(fields))
            handle.flush()
            os.fsync(handle.fileno())
    except OSError as exc:
        raise JournalError(f"cannot append to journal {path}: {exc}") from exc


def _read_checked(path: Path) -> tuple[list[dict[str, Any]], bool]:
    """``(records, torn_tail)`` — the trusted prefix of a checked JSONL.

    Reads raw record dicts (crc verified and stripped of nothing —
    callers parse their own schema).  Parsing stops at the first torn
    or corrupt line: a file not ending in ``\\n`` is a torn append even
    when the partial line parses, a flipped byte fails exactly the
    record it sits in (decode-with-replacement), and a crc mismatch
    discards that record and everything after it.
    """
    try:
        raw = path.read_bytes()
    except FileNotFoundError:
        return [], False
    except OSError as exc:
        raise JournalError(f"cannot read journal {path}: {exc}") from exc
    torn = False
    if raw and not raw.endswith(b"\n"):
        raw = raw[: raw.rfind(b"\n") + 1]
        torn = True
    text = raw.decode("utf-8", errors="replace")
    records: list[dict[str, Any]] = []
    for line in text.splitlines():
        if not line.strip():
            continue
        try:
            fields = json.loads(line)
        except ValueError:
            torn = True
            break
        if not isinstance(fields, dict):
            torn = True
            break
        crc = fields.get("crc")
        if not isinstance(crc, str) or crc != record_crc(fields):
            torn = True
            break
        records.append(fields)
    return records, torn


def _rewrite_checked(path: Path, records: list[dict[str, Any]]) -> None:
    """Atomically rewrite a checked JSONL as exactly ``records``
    (crc-stamped) — how a torn tail is truncated away."""
    replace_atomically(
        "".join(_checked_line(fields) for fields in records), path
    )


@dataclass(frozen=True)
class JournalRecord:
    """One parsed journal line."""

    seq: int
    state: str                      # "begin" | "commit" | "abort" | "checkpoint"
    op: str = ""                    # "save" | "drop" | "quarantine"
    name: str = ""
    checksum: str | None = None     # save begins: payload SHA-256
    generation: int | None = None   # commits / checkpoints
    recovered: bool = False         # written by replay, not by the op itself

    def as_fields(self) -> dict[str, Any]:
        fields: dict[str, Any] = {"seq": self.seq, "state": self.state}
        if self.op:
            fields["op"] = self.op
        if self.name:
            fields["name"] = self.name
        if self.checksum is not None:
            fields["checksum"] = self.checksum
        if self.generation is not None:
            fields["generation"] = self.generation
        if self.recovered:
            fields["recovered"] = True
        return fields


def _parse_record(fields: dict[str, Any]) -> JournalRecord | None:
    seq = fields.get("seq")
    state = fields.get("state")
    if not isinstance(seq, int) or state not in (
        "begin", "commit", "abort", "checkpoint"
    ):
        return None
    checksum = fields.get("checksum")
    generation = fields.get("generation")
    return JournalRecord(
        seq=seq,
        state=str(state),
        op=str(fields.get("op", "")),
        name=str(fields.get("name", "")),
        checksum=checksum if isinstance(checksum, str) else None,
        generation=generation if isinstance(generation, int) else None,
        recovered=bool(fields.get("recovered", False)),
    )


#: ``(st_ino, st_size, st_mtime_ns)`` of the journal file; ``None``
#: while it does not exist.
_Identity = tuple[int, int, int] | None


@dataclass
class _Tail:
    """What a verified read of the journal established, and the identity
    of the file it was read from."""

    identity: _Identity
    next_seq: int
    count: int
    open_begins: set[int]
    torn: bool = False


class Journal:
    """The append-only operation journal of one catalog directory.

    All mutating methods must be called while holding the catalog's
    cross-process ``catalog.lock`` — the journal itself takes no lock
    (its callers, :class:`~repro.storage.database.Database` and the
    fsck/recovery pass, already serialize on it).  That lock is also
    what guards the remembered tail (see the module docstring).
    """

    def __init__(self, directory: str | Path) -> None:
        self.directory = Path(directory)
        self.path = self.directory / JOURNAL_NAME
        self._tail: _Tail | None = None

    # ------------------------------------------------------------------
    # Reading
    # ------------------------------------------------------------------
    def read(self) -> tuple[list[JournalRecord], bool]:
        """``(records, torn_tail)`` — the trusted prefix of the journal.

        Parsing stops at the first torn or corrupt line; everything
        before it is returned, and ``torn_tail`` reports whether
        anything was discarded.
        """
        raw_records, torn = _read_checked(self.path)
        records: list[JournalRecord] = []
        for fields in raw_records:
            record = _parse_record(fields)
            if record is None:
                torn = True
                break
            records.append(record)
        return records, torn

    def pending(
        self, records: list[JournalRecord] | None = None
    ) -> list[JournalRecord]:
        """Begin records with no commit/abort — torn operations."""
        if records is None:
            records, _ = self.read()
        resolved = {
            r.seq for r in records if r.state in ("commit", "abort")
        }
        return [
            r for r in records
            if r.state == "begin" and r.seq not in resolved
        ]

    def committed_generation(
        self, records: list[JournalRecord] | None = None
    ) -> int:
        """The journal's generation high-water mark (0 when none)."""
        if records is None:
            records, _ = self.read()
        return max(
            (r.generation for r in records if r.generation is not None),
            default=0,
        )

    def _next_seq(self, records: list[JournalRecord] | None = None) -> int:
        if records is None:
            records, _ = self.read()
        return max((r.seq for r in records), default=0) + 1

    # ------------------------------------------------------------------
    # The remembered tail (callers hold the catalog lock)
    # ------------------------------------------------------------------
    def _identity(self) -> _Identity:
        try:
            status = os.stat(self.path)
        except FileNotFoundError:
            return None
        except OSError as exc:
            raise JournalError(
                f"cannot stat journal {self.path}: {exc}"
            ) from exc
        return (status.st_ino, status.st_size, status.st_mtime_ns)

    def _remembered_tail(self) -> _Tail | None:
        """The memo, or ``None`` (dropping it) once anyone else touched
        the file."""
        if self._tail is not None and self._tail.identity != self._identity():
            self._tail = None
        return self._tail

    def _verified_tail(self) -> _Tail:
        """The memo while it holds, else one full verified read —
        remembered unless it found a torn tail."""
        tail = self._remembered_tail()
        if tail is None:
            # Identity first: a write racing the read (a caller without
            # the lock) leaves a memo that is already stale, not wrong.
            identity = self._identity()
            records, torn = self.read()
            tail = _Tail(
                identity,
                self._next_seq(records),
                len(records),
                {r.seq for r in self.pending(records)},
                torn,
            )
            self._tail = None if torn else tail
        return tail

    # ------------------------------------------------------------------
    # Writing (callers hold the catalog lock)
    # ------------------------------------------------------------------
    def _append(self, record: JournalRecord) -> None:
        tail = self._remembered_tail()
        self._tail = None   # stays dropped if the append fails part-way
        _append_checked(self.path, record.as_fields())
        current_registry().counter("db.journal_records").inc()
        if tail is not None:
            # An own fsynced append extends the verified prefix.
            tail.count += 1
            tail.next_seq = max(tail.next_seq, record.seq + 1)
            if record.state == "begin":
                tail.open_begins.add(record.seq)
            else:
                tail.open_begins.discard(record.seq)
            tail.identity = self._identity()
            self._tail = tail

    def begin(self, op: str, name: str, checksum: str | None = None) -> int:
        """Journal the intent of a mutating operation; returns its seq."""
        if op not in OPS:
            raise JournalError(f"unknown journal op {op!r}")
        fault_point("journal.begin")
        seq = self._verified_tail().next_seq
        self._append(
            JournalRecord(seq=seq, state="begin", op=op, name=name,
                          checksum=checksum)
        )
        fault_point("journal.begin.synced")
        return seq

    def commit(
        self, seq: int, op: str, name: str, generation: int,
        recovered: bool = False,
    ) -> None:
        """Mark operation ``seq`` complete at ``generation``."""
        fault_point("journal.commit")
        self._append(
            JournalRecord(seq=seq, state="commit", op=op, name=name,
                          generation=generation, recovered=recovered)
        )
        self.maybe_compact()

    def abort(
        self, seq: int, op: str, name: str, recovered: bool = False
    ) -> None:
        """Mark operation ``seq`` cleanly failed (pre-state intact)."""
        self._append(
            JournalRecord(seq=seq, state="abort", op=op, name=name,
                          recovered=recovered)
        )

    # ------------------------------------------------------------------
    # Compaction
    # ------------------------------------------------------------------
    def maybe_compact(self, threshold: int = COMPACT_THRESHOLD) -> bool:
        """Collapse a fully-resolved journal down to one checkpoint.

        Only fires when every begin is resolved (a pending record must
        stay visible to replay) and the record count passed the
        threshold.  The rewrite is atomic, and the checkpoint carries
        the next sequence number so seqs stay monotone forever.
        """
        tail = self._verified_tail()
        if tail.torn or tail.count < threshold or tail.open_begins:
            return False
        # Due: the rewrite discards records, so it decides from (and
        # folds) a fresh verified read, never from the memo.
        records, torn = self.read()
        if torn or len(records) < threshold or self.pending(records):
            return False
        self._write_checkpoint(records)
        return True

    def _write_checkpoint(self, records: list[JournalRecord]) -> None:
        checkpoint = JournalRecord(
            seq=self._next_seq(records),
            state="checkpoint",
            generation=self.committed_generation(records),
        )
        self._tail = None
        _rewrite_checked(self.path, [checkpoint.as_fields()])
        current_registry().counter("db.journal_compactions").inc()

    def truncate_to(self, records: list[JournalRecord]) -> None:
        """Atomically rewrite the journal as exactly ``records``
        (recovery uses this to drop a torn tail)."""
        self._tail = None
        _rewrite_checked(self.path, [r.as_fields() for r in records])


# ----------------------------------------------------------------------
# Quarantine naming (collision-proof)
# ----------------------------------------------------------------------
def quarantine_destination(
    quarantine_dir: Path, filename: str, generation: int
) -> Path:
    """A fresh quarantine path for ``filename`` at ``generation``.

    Suffixes the full file name with ``.g<generation>`` and a dedup
    counter, so repeated quarantines of the same instance name keep
    every piece of evidence (``a.pxml.json.g7``, ``a.pxml.json.g7-2``).
    """
    candidate = quarantine_dir / f"{filename}.g{generation}"
    counter = 1
    while candidate.exists():
        counter += 1
        candidate = quarantine_dir / f"{filename}.g{generation}-{counter}"
    return candidate


def quarantined_names(directory: Path) -> list[str]:
    """Instance names with files in the quarantine directory.

    Understands both the generation-suffixed layout
    (``a.pxml.json.g7``) and the legacy bare layout (``a.pxml.json``).
    """
    quarantine = Path(directory) / QUARANTINE_DIR
    names = set()
    for path in quarantine.glob(f"*{INSTANCE_SUFFIX}*"):
        if path.name.endswith(".tmp"):
            continue
        names.add(path.name.split(INSTANCE_SUFFIX)[0])
    return sorted(names)


def quarantine_move(
    directory: Path, path: Path, generation: int
) -> Path:
    """Move ``path`` into quarantine; returns the destination.  Callers
    hold the catalog lock."""
    quarantine = Path(directory) / QUARANTINE_DIR
    quarantine.mkdir(parents=True, exist_ok=True)
    destination = quarantine_destination(quarantine, path.name, generation)
    fault_point("db.quarantine.move")
    os.replace(path, destination)
    return destination


# ----------------------------------------------------------------------
# Recovery (replay on open)
# ----------------------------------------------------------------------
@dataclass
class RecoveryReport:
    """What :func:`recover_directory` did."""

    rolled_forward: int = 0     # torn ops completed from on-disk evidence
    aborted: int = 0            # torn ops whose pre-state was intact
    quarantined: int = 0        # files in a state the journal can't explain
    tmp_removed: int = 0        # stale *.tmp left by interrupted writes
    truncated_tail: bool = False
    generation_restored: bool = False
    actions: list[str] = field(default_factory=list)

    @property
    def changed(self) -> bool:
        return bool(
            self.rolled_forward or self.aborted or self.quarantined
            or self.tmp_removed or self.truncated_tail
            or self.generation_restored
        )


def recover_directory(
    directory: str | Path, journal: Journal | None = None
) -> RecoveryReport:
    """Replay the journal of a catalog directory to a consistent state.

    Must be called while holding the catalog's cross-process lock (the
    :class:`~repro.storage.database.Database` constructor and the fsck
    CLI both do).  Every step is idempotent: a crash during recovery
    re-runs to the same fixpoint on the next open.
    """
    directory = Path(directory)
    journal = journal if journal is not None else Journal(directory)
    report = RecoveryReport()
    records, torn = journal.read()
    if torn:
        journal.truncate_to(records)
        report.truncated_tail = True
        report.actions.append("truncated torn journal tail")
    generation_path = directory / GENERATION_NAME
    # Stale tmp files are crash artifacts of the atomic-write protocol
    # (fully written, never published).  Under the catalog lock no
    # legitimate write is in flight, so they are safe to sweep.
    for tmp in sorted(directory.glob("*.tmp")):
        tmp.unlink(missing_ok=True)
        report.tmp_removed += 1
        report.actions.append(f"removed stale tmp file {tmp.name}")
    for record in journal.pending(records):
        if record.op == "save":
            _recover_save(directory, journal, record, report)
        elif record.op == "drop":
            _recover_drop(directory, journal, record, report)
        elif record.op == "quarantine":
            _recover_quarantine(directory, journal, record, report)
        else:  # unknown op from a future version: leave it pending
            report.actions.append(
                f"left unknown op {record.op!r} (seq {record.seq}) pending"
            )
    # Generation monotonicity: the counter must never fall behind an
    # operation the journal committed (crash between the operation's
    # last file step and its generation bump).
    committed = journal.committed_generation()
    if read_generation(generation_path) < committed:
        replace_atomically(f"{committed}\n", generation_path)
        report.generation_restored = True
        report.actions.append(f"restored generation to {committed}")
    journal.maybe_compact()
    if report.changed:
        registry = current_registry()
        registry.counter("db.recoveries").inc()
        registry.counter("db.recovered_rolled_forward").inc(
            report.rolled_forward
        )
        registry.counter("db.recovered_aborted").inc(report.aborted)
        registry.counter("db.recovered_quarantined").inc(report.quarantined)
        current_tracer().event(
            "db.recovered",
            directory=str(directory),
            rolled_forward=report.rolled_forward,
            aborted=report.aborted,
            quarantined=report.quarantined,
        )
    return report


def _instance_path(directory: Path, name: str) -> Path:
    return directory / f"{name}{INSTANCE_SUFFIX}"


def _recover_save(
    directory: Path, journal: Journal, record: JournalRecord,
    report: RecoveryReport,
) -> None:
    """Resolve a torn save: roll forward when the journaled body was
    published, abort when the pre-state is intact, quarantine anything
    the journal cannot explain."""
    path = _instance_path(directory, record.name)
    published = False
    intact = True   # a missing file: the new one never landed
    if path.exists():
        try:
            text = path.read_text(encoding="utf-8", errors="replace")
        except OSError:
            # Unreadable data file: leave the record pending for a later
            # recovery attempt rather than guessing.
            report.actions.append(
                f"left save of {record.name!r} pending (unreadable file)"
            )
            return
        try:
            recorded, body = split_header(text)
            actual = content_checksum(body)
            intact = recorded in (None, actual)
            published = recorded == actual == record.checksum
        except CorruptInstanceError:
            intact = False
    if published:
        # The new file was published; finish the operation.
        generation = bump_generation(directory / GENERATION_NAME)
        journal.commit(
            record.seq, "save", record.name, generation, recovered=True
        )
        report.rolled_forward += 1
        report.actions.append(f"rolled forward torn save of {record.name!r}")
        return
    if intact:
        # Missing, headerless, or the pre-operation file agreeing with
        # its own header: the save never published.  Nothing to undo.
        journal.abort(record.seq, "save", record.name, recovered=True)
        report.aborted += 1
        report.actions.append(f"aborted torn save of {record.name!r}")
        return
    # The file does not agree with its own header — a state the journal
    # cannot explain.  Preserve it.
    generation = read_generation(directory / GENERATION_NAME)
    quarantine_move(directory, path, generation)
    generation = bump_generation(directory / GENERATION_NAME)
    journal.abort(record.seq, "save", record.name, recovered=True)
    report.quarantined += 1
    report.actions.append(
        f"quarantined unexplainable state of {record.name!r}"
    )


def _recover_drop(
    directory: Path, journal: Journal, record: JournalRecord,
    report: RecoveryReport,
) -> None:
    """Resolve a torn drop by completing it (roll forward)."""
    _instance_path(directory, record.name).unlink(missing_ok=True)
    generation = bump_generation(directory / GENERATION_NAME)
    journal.commit(record.seq, "drop", record.name, generation, recovered=True)
    report.rolled_forward += 1
    report.actions.append(f"rolled forward torn drop of {record.name!r}")


def _recover_quarantine(
    directory: Path, journal: Journal, record: JournalRecord,
    report: RecoveryReport,
) -> None:
    """Resolve a torn quarantine by completing the move."""
    path = _instance_path(directory, record.name)
    generation = read_generation(directory / GENERATION_NAME)
    if path.exists():
        quarantine_move(directory, path, generation)
    generation = bump_generation(directory / GENERATION_NAME)
    journal.commit(
        record.seq, "quarantine", record.name, generation, recovered=True
    )
    report.rolled_forward += 1
    report.quarantined += 1
    report.actions.append(
        f"rolled forward torn quarantine of {record.name!r}"
    )


__all__ = [
    "COMPACT_THRESHOLD",
    "INSTANCE_SUFFIX",
    "JOURNAL_NAME",
    "Journal",
    "JournalRecord",
    "QUARANTINE_DIR",
    "RecoveryReport",
    "quarantine_destination",
    "quarantine_move",
    "quarantined_names",
    "record_crc",
    "recover_directory",
]
