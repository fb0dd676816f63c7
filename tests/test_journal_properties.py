"""Property tests for write-ahead journal replay.

Two families of properties, both about the same contract: whatever
happens to the journal or the operation sequence, reopening the
catalog must land on a consistent state.

* **Arbitrary op interleavings** — any sequence of save / re-save /
  drop operations over a small name pool, applied through the real
  :class:`~repro.storage.database.Database`, leaves a directory that a
  fresh open replays to zero pending records, checksum-clean loads for
  every surviving name, and a clean fsck.
* **Two catalog objects** — the same op sequences split arbitrarily
  between two :class:`Database` objects on one directory (each one's
  remembered journal tail goes stale whenever the other writes) still
  issue strictly increasing seqs and generations, and each object,
  once it builds a token for a name, holds exactly the bytes on disk.
* **Journal damage** — truncating the journal at an arbitrary byte
  offset or corrupting an arbitrary byte must never break the parser's
  prefix rule: :meth:`Journal.read` returns a prefix of the undamaged
  record sequence, and recovery still converges to a clean catalog.
"""

from pathlib import Path

from hypothesis import given, settings
from hypothesis import strategies as st

from repro.io.json_codec import dumps, split_header
from repro.paper import example52_instance, figure2_instance
from repro.storage.database import Database, DatabaseError
from repro.storage.derived import cache_token
from repro.storage.fsck import fsck_directory
from repro.storage.journal import Journal

NAMES = ("a", "b", "c")

#: One step of an op interleaving: (op, name index).
_OPS = st.tuples(
    st.sampled_from(("save", "resave", "drop")),
    st.integers(min_value=0, max_value=len(NAMES) - 1),
)


def _apply_op(db: Database, op: str, index: int, flavour: int = 0) -> None:
    name = NAMES[index]
    if op == "save":
        instance = (
            figure2_instance() if (index + flavour) % 2
            else example52_instance()
        )
        db.register(name, instance, replace=True)
        db.save(name)
    elif op == "resave":
        if name in db.names():
            db.register(name, db.get(name), replace=True)
            db.save(name)
    elif op == "drop":
        if name in db.names():
            db.drop(name)


def _apply_ops(directory: Path, ops: list[tuple[str, int]]) -> None:
    """Drive one op sequence through a real database."""
    db = Database(directory, on_corrupt="quarantine")
    for op, index in ops:
        _apply_op(db, op, index)


def _assert_consistent(directory: Path) -> None:
    """The reopen contract: replay drains, loads are clean, fsck is."""
    db = Database(directory, on_corrupt="quarantine")
    assert db.journal is not None
    records, torn = db.journal.read()
    assert not torn
    assert db.journal.pending(records) == []
    for name in db.names():
        db.get(name)  # raises on checksum damage
    assert db.generation() >= db.journal.committed_generation(records)
    report = fsck_directory(directory)
    assert report.clean, [f.as_dict() for f in report.findings]


@settings(deadline=None, max_examples=20)
@given(ops=st.lists(_OPS, min_size=1, max_size=12))
def test_any_op_interleaving_reopens_consistent(tmp_path_factory, ops):
    directory = tmp_path_factory.mktemp("journal-ops")
    _apply_ops(directory, ops)
    _assert_consistent(directory)


@settings(deadline=None, max_examples=20)
@given(ops=st.lists(st.tuples(st.booleans(), _OPS), min_size=1, max_size=16))
def test_two_databases_interleaved_stay_consistent(tmp_path_factory, ops):
    directory = tmp_path_factory.mktemp("journal-pair")
    pair = (
        Database(directory, on_corrupt="quarantine"),
        Database(directory, on_corrupt="quarantine"),
    )
    for second, (op, index) in ops:
        # The two objects save different content under one name, so a
        # stale in-memory copy would show below.
        _apply_op(pair[second], op, index, flavour=second)

    records, torn = Journal(directory).read()
    assert not torn
    begins = [r.seq for r in records if r.state == "begin"]
    assert begins == sorted(set(begins))
    generations = [r.generation for r in records if r.state == "commit"]
    assert generations == sorted(set(generations))
    # Every op here saves what it registers, so no copy is dirty: once
    # a token is built, the in-memory copy is the file's.
    for db in pair:
        for path in directory.glob("*.pxml.json"):
            name = path.name[: -len(".pxml.json")]
            cache_token(db, name)
            body = split_header(path.read_text(encoding="utf-8"))[1]
            assert dumps(db.get(name)) == body
    _assert_consistent(directory)


@settings(deadline=None, max_examples=20)
@given(
    ops=st.lists(_OPS, min_size=1, max_size=8),
    cut=st.floats(min_value=0.0, max_value=1.0),
)
def test_truncated_journal_tail_is_a_prefix(tmp_path_factory, ops, cut):
    directory = tmp_path_factory.mktemp("journal-trunc")
    _apply_ops(directory, ops)
    journal = Journal(directory)
    original, torn = journal.read()
    assert not torn
    if not journal.path.exists():
        return  # the sequence journaled nothing: nothing to damage

    raw = journal.path.read_bytes()
    keep = int(len(raw) * cut)
    journal.path.write_bytes(raw[:keep])

    damaged, _ = journal.read()
    # Prefix consistency: a truncated journal yields some prefix of
    # the undamaged record sequence, never reordered or invented data.
    assert damaged == original[: len(damaged)]
    _assert_consistent(directory)


@settings(deadline=None, max_examples=20)
@given(
    ops=st.lists(_OPS, min_size=1, max_size=8),
    position=st.floats(min_value=0.0, max_value=1.0),
    flip=st.integers(min_value=1, max_value=255),
)
def test_corrupted_journal_byte_keeps_the_prefix(
    tmp_path_factory, ops, position, flip
):
    directory = tmp_path_factory.mktemp("journal-corrupt")
    _apply_ops(directory, ops)
    journal = Journal(directory)
    original, torn = journal.read()
    assert not torn
    if not journal.path.exists():
        return  # the sequence journaled nothing: nothing to damage

    raw = bytearray(journal.path.read_bytes())
    if not raw:
        return
    index = min(int(len(raw) * position), len(raw) - 1)
    raw[index] ^= flip
    journal.path.write_bytes(bytes(raw))

    damaged, _ = journal.read()
    assert damaged == original[: len(damaged)]
    # Corrupting a *data* byte inside one record must never leak into
    # neighbours: everything before the damaged line survives verbatim.
    _assert_consistent(directory)


def test_reopen_after_interleaving_preserves_saved_content(tmp_path):
    """A deterministic end-to-end anchor for the properties above."""
    db = Database(tmp_path)
    db.register("a", figure2_instance())
    db.save("a")
    db.register("b", example52_instance())
    db.save("b")
    db.drop("b")
    db.register("a", db.get("a"), replace=True)
    db.save("a")

    reopened = Database(tmp_path)
    assert reopened.names() == ["a"]
    assert len(reopened.get("a")) == len(figure2_instance())
    try:
        reopened.get("b")
    except DatabaseError:
        pass
    else:
        raise AssertionError("dropped instance came back")
