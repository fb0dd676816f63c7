"""Unit tests for the catalog write-ahead journal, replay, and fsck."""

import json

import pytest

from repro.io.json_codec import (
    content_checksum,
    dumps,
    write_payload,
)
from repro.paper import example52_instance, figure2_instance
from repro.storage.database import Database, DatabaseError
from repro.storage.fsck import fsck_directory
from repro.storage.fsck import main as fsck_main
from repro.storage.journal import (
    Journal,
    quarantine_destination,
    quarantined_names,
    recover_directory,
)
from repro.storage.locking import GENERATION_NAME, read_generation


class TestJournalRecords:
    def test_begin_commit_roundtrip(self, tmp_path):
        journal = Journal(tmp_path)
        seq = journal.begin("save", "a", checksum="deadbeef")
        journal.commit(seq, "save", "a", generation=1)
        records, torn = journal.read()
        assert not torn
        assert [r.state for r in records] == ["begin", "commit"]
        assert records[0].checksum == "deadbeef"
        assert records[1].generation == 1
        assert journal.pending(records) == []

    def test_begin_without_commit_is_pending(self, tmp_path):
        journal = Journal(tmp_path)
        seq = journal.begin("drop", "a")
        pending = journal.pending()
        assert [r.seq for r in pending] == [seq]

    def test_abort_resolves_pending(self, tmp_path):
        journal = Journal(tmp_path)
        seq = journal.begin("save", "a")
        journal.abort(seq, "save", "a")
        assert journal.pending() == []

    def test_torn_tail_is_prefix_truncated(self, tmp_path):
        journal = Journal(tmp_path)
        seq = journal.begin("save", "a", checksum="x")
        journal.commit(seq, "save", "a", generation=1)
        with open(journal.path, "a", encoding="utf-8") as handle:
            handle.write('{"seq": 3, "state": "beg')  # torn append
        records, torn = journal.read()
        assert torn
        assert len(records) == 2

    def test_corrupt_crc_stops_the_parse(self, tmp_path):
        journal = Journal(tmp_path)
        seq = journal.begin("save", "a")
        journal.commit(seq, "save", "a", generation=1)
        lines = journal.path.read_text(encoding="utf-8").splitlines()
        fields = json.loads(lines[0])
        fields["name"] = "tampered"
        lines[0] = json.dumps(fields)  # crc now wrong
        journal.path.write_text("\n".join(lines) + "\n", encoding="utf-8")
        records, torn = journal.read()
        assert torn
        assert records == []

    def test_compaction_preserves_seq_and_generation(self, tmp_path):
        journal = Journal(tmp_path)
        for index in range(4):
            seq = journal.begin("save", f"n{index}")
            journal.commit(seq, "save", f"n{index}", generation=index + 1)
        assert journal.maybe_compact(threshold=4)
        records, torn = journal.read()
        assert not torn
        assert [r.state for r in records] == ["checkpoint"]
        assert records[0].generation == 4
        assert journal._next_seq(records) > 4  # seqs stay monotone

    def test_compaction_refuses_while_pending(self, tmp_path):
        journal = Journal(tmp_path)
        journal.begin("save", "a")
        assert not journal.maybe_compact(threshold=1)


class TestRememberedTail:
    """The journal trusts a record only after a full crc-verified read
    or as its own fsynced append to a verified, unchanged file: own
    writes cost no read, anyone else's write forces one."""

    @pytest.fixture
    def reads(self, monkeypatch):
        import repro.storage.journal as journal_module

        calls = []
        real = journal_module._read_checked

        def counting(path):
            calls.append(path)
            return real(path)

        monkeypatch.setattr(journal_module, "_read_checked", counting)
        return calls

    def test_steady_state_writes_never_reread(self, tmp_path, reads):
        db = Database(tmp_path)
        db.register("a", figure2_instance())
        db.save("a")
        db.drop("a")
        del reads[:]
        for _cycle in range(50):
            db.register("a", figure2_instance())
            db.save("a")
            db.drop("a")
        assert reads == []  # >= 200 before the tail was remembered
        records, torn = db.journal.read()
        assert not torn
        assert [r.seq for r in records if r.state == "begin"] == list(
            range(1, 103)
        )

    def test_sibling_append_forces_a_reread(self, tmp_path, reads):
        mine, sibling = Journal(tmp_path), Journal(tmp_path)
        seq = mine.begin("save", "a")
        mine.commit(seq, "save", "a", generation=1)
        theirs = sibling.begin("save", "b")
        sibling.commit(theirs, "save", "b", generation=2)
        del reads[:]
        assert mine.begin("drop", "a") > theirs
        assert len(reads) == 1

    def test_sibling_database_interleaving_keeps_seqs_monotone(self, tmp_path):
        first, second = Database(tmp_path), Database(tmp_path)
        for round_ in range(3):
            for db, name in ((first, "a"), (second, "b"), (first, "c")):
                db.register(name, figure2_instance(), replace=True)
                db.save(name)
            second.drop("b")
        records, torn = Journal(tmp_path).read()
        assert not torn
        begins = [r.seq for r in records if r.state == "begin"]
        assert begins == sorted(set(begins))
        generations = [r.generation for r in records if r.state == "commit"]
        assert generations == list(range(1, len(generations) + 1))

    def test_sibling_compaction_is_detected(self, tmp_path, reads):
        mine, sibling = Journal(tmp_path), Journal(tmp_path)
        for index in range(3):
            seq = mine.begin("save", f"n{index}")
            mine.commit(seq, "save", f"n{index}", generation=index + 1)
        inode = mine.path.stat().st_ino
        assert sibling.maybe_compact(threshold=2)
        assert mine.path.stat().st_ino != inode
        del reads[:]
        assert mine.begin("save", "late") == 5  # the checkpoint took 4
        assert len(reads) == 1

    def test_truncate_to_is_detected(self, tmp_path, reads):
        mine, sibling = Journal(tmp_path), Journal(tmp_path)
        seq = mine.begin("save", "a")
        mine.commit(seq, "save", "a", generation=1)
        mine.begin("save", "b")
        records, _ = sibling.read()
        sibling.truncate_to(records[:2])  # by a sibling ...
        del reads[:]
        assert mine.begin("save", "c") == 2
        assert len(reads) == 1
        records, _ = mine.read()
        mine.truncate_to(records[:2])  # ... and by this object itself
        del reads[:]
        assert mine.begin("save", "d") == 2
        assert len(reads) == 1

    def test_torn_tail_is_never_remembered(self, tmp_path, reads):
        journal = Journal(tmp_path)
        seq = journal.begin("save", "a")
        journal.commit(seq, "save", "a", generation=1)
        with open(journal.path, "a", encoding="utf-8") as handle:
            handle.write('{"seq": 3, "state": "beg')  # torn append
        for _attempt in range(3):
            del reads[:]
            assert not journal.maybe_compact(threshold=1)
            assert len(reads) == 1
        # Recovery truncates the tail; from then on the memo holds.
        recover_directory(tmp_path, journal)
        seq = journal.begin("save", "b")
        del reads[:]
        journal.commit(seq, "save", "b", generation=2)
        assert reads == []

    def test_failed_append_drops_the_memo(self, tmp_path, reads, monkeypatch):
        import repro.storage.journal as journal_module
        from repro.errors import JournalError

        journal = Journal(tmp_path)
        seq = journal.begin("save", "a")
        journal.commit(seq, "save", "a", generation=1)

        def failing(path, fields):
            raise JournalError("disk full")

        real = journal_module._append_checked
        monkeypatch.setattr(journal_module, "_append_checked", failing)
        with pytest.raises(JournalError):
            journal.begin("save", "b")
        monkeypatch.setattr(journal_module, "_append_checked", real)
        del reads[:]
        assert journal.begin("save", "b") == 2
        assert len(reads) == 1

    def test_compaction_fires_at_the_threshold(self, tmp_path, reads):
        from repro.storage.journal import COMPACT_THRESHOLD

        journal = Journal(tmp_path)
        for index in range(COMPACT_THRESHOLD // 2 - 1):
            seq = journal.begin("save", "a")
            journal.commit(seq, "save", "a", generation=index + 1)
        assert reads == [journal.path]  # the first begin's, no other
        records, _ = journal.read()
        assert len(records) == COMPACT_THRESHOLD - 2
        seq = journal.begin("save", "a")
        journal.commit(seq, "save", "a", generation=COMPACT_THRESHOLD // 2)
        records, _ = journal.read()
        assert [r.state for r in records] == ["checkpoint"]
        assert records[0].generation == COMPACT_THRESHOLD // 2
        assert journal.begin("save", "a") == seq + 2

    def test_compaction_waits_for_an_open_begin(self, tmp_path):
        journal = Journal(tmp_path)
        held = journal.begin("quarantine", "stuck")
        for index in range(4):
            seq = journal.begin("save", "a")
            journal.commit(seq, "save", "a", generation=index + 1)
            assert not journal.maybe_compact(threshold=4)
        assert [r.seq for r in journal.pending()] == [held]
        journal.abort(held, "quarantine", "stuck")
        assert journal.maybe_compact(threshold=4)
        assert [r.state for r in journal.read()[0]] == ["checkpoint"]


class TestReplay:
    def test_torn_save_rolls_forward(self, tmp_path):
        db = Database(tmp_path)
        db.register("a", figure2_instance())
        db.save("a")
        # Simulate a crash after publishing the new file but before the
        # generation bump and commit.
        payload = dumps(example52_instance())
        journal = Journal(tmp_path)
        journal.begin("save", "a", checksum=content_checksum(payload))
        write_payload(payload, tmp_path / "a.pxml.json")

        report = recover_directory(tmp_path)
        assert report.rolled_forward == 1
        reopened = Database(tmp_path)
        assert len(reopened.get("a")) == len(example52_instance())

    def test_torn_save_aborts_when_prestate_intact(self, tmp_path):
        db = Database(tmp_path)
        db.register("a", figure2_instance())
        db.save("a")
        journal = Journal(tmp_path)
        journal.begin("save", "a", checksum="never-published")

        report = recover_directory(tmp_path)
        assert report.aborted == 1
        assert len(Database(tmp_path).get("a")) == len(figure2_instance())

    def test_torn_drop_rolls_forward(self, tmp_path):
        db = Database(tmp_path)
        db.register("a", figure2_instance())
        db.save("a")
        journal = Journal(tmp_path)
        journal.begin("drop", "a")

        report = recover_directory(tmp_path)
        assert report.rolled_forward == 1
        assert list(tmp_path.glob("a.pxml.json*")) == []

    def test_unexplainable_state_is_quarantined(self, tmp_path):
        db = Database(tmp_path)
        db.register("a", figure2_instance())
        db.save("a")
        journal = Journal(tmp_path)
        journal.begin("save", "a", checksum="what-was-journaled")
        path = tmp_path / "a.pxml.json"
        # A header that agrees with neither the journal nor its body.
        path.write_text(
            f"PXML 1 sha256={content_checksum('old')}\nneither old nor new",
            encoding="utf-8",
        )

        report = recover_directory(tmp_path)
        assert report.quarantined == 1
        assert "a" in quarantined_names(tmp_path)

    def test_torn_save_over_a_headerless_file_aborts(self, tmp_path):
        """Every file the catalog writes has a header, so a headerless
        one is the pre-state (a legacy file), never a torn new one."""
        (tmp_path / "a.pxml.json").write_text(
            dumps(figure2_instance()), encoding="utf-8"
        )
        Journal(tmp_path).begin(
            "save", "a", checksum=content_checksum(dumps(figure2_instance()))
        )
        report = recover_directory(tmp_path)
        assert (report.aborted, report.rolled_forward) == (1, 0)
        assert len(Database(tmp_path).get("a")) == len(figure2_instance())

    def test_generation_monotone_across_replay(self, tmp_path):
        db = Database(tmp_path)
        db.register("a", figure2_instance())
        db.save("a")
        generation_path = tmp_path / GENERATION_NAME
        before = read_generation(generation_path)
        # Roll the counter back, as if the bump never hit the disk.
        generation_path.write_text("0\n", encoding="utf-8")
        recover_directory(tmp_path)
        assert read_generation(generation_path) >= before

    def test_replay_is_idempotent(self, tmp_path):
        db = Database(tmp_path)
        db.register("a", figure2_instance())
        db.save("a")
        journal = Journal(tmp_path)
        journal.begin("drop", "a")
        first = recover_directory(tmp_path)
        second = recover_directory(tmp_path)
        assert first.changed
        assert not second.changed

    def test_open_replays_automatically(self, tmp_path):
        db = Database(tmp_path)
        db.register("a", figure2_instance())
        db.save("a")
        Journal(tmp_path).begin("drop", "a")
        reopened = Database(tmp_path)  # replay happens here
        assert reopened.names() == []
        assert reopened.journal is not None
        assert reopened.journal.pending() == []


class TestQuarantineNaming:
    def test_repeat_quarantines_never_collide(self, tmp_path):
        """Regression: two quarantines of one name used to overwrite."""
        db = Database(tmp_path, on_corrupt="quarantine")
        for round_ in range(3):
            db.register("a", figure2_instance(), replace=True)
            db.save("a")
            path = tmp_path / "a.pxml.json"
            path.write_text(
                path.read_text(encoding="utf-8") + " ", encoding="utf-8"
            )
            with pytest.raises(DatabaseError):
                db.reload("a")
        assert len(list((tmp_path / "quarantine").iterdir())) == 3
        assert quarantined_names(tmp_path) == ["a"]

    def test_destination_dedup_counter(self, tmp_path):
        first = quarantine_destination(tmp_path, "a.pxml.json", 7)
        assert first.name == "a.pxml.json.g7"
        first.write_text("x", encoding="utf-8")
        second = quarantine_destination(tmp_path, "a.pxml.json", 7)
        assert second.name == "a.pxml.json.g7-2"


class TestFsck:
    def _populate(self, tmp_path):
        db = Database(tmp_path)
        db.register("a", figure2_instance())
        db.save("a")
        db.register("b", example52_instance())
        db.save("b")
        return db

    def test_clean_catalog_passes(self, tmp_path):
        self._populate(tmp_path)
        report = fsck_directory(tmp_path)
        assert report.clean
        assert report.checked_instances == 2

    def test_checksum_mismatch_found_and_repaired(self, tmp_path):
        self._populate(tmp_path)
        path = tmp_path / "a.pxml.json"
        path.write_text(
            path.read_text(encoding="utf-8") + " ", encoding="utf-8"
        )
        report = fsck_directory(tmp_path)
        assert not report.clean
        assert any(f.code == "FS101" for f in report.findings)

        repaired = fsck_directory(tmp_path, repair=True)
        assert repaired.unrepaired == []
        assert fsck_directory(tmp_path).clean
        assert "a" in quarantined_names(tmp_path)

    def test_headerless_file_is_resaved(self, tmp_path):
        self._populate(tmp_path)
        path = tmp_path / "a.pxml.json"
        path.write_text(dumps(figure2_instance()), encoding="utf-8")
        report = fsck_directory(tmp_path, repair=True)
        assert any(
            f.code == "FS102" and f.repaired for f in report.findings
        )
        assert fsck_directory(tmp_path).clean
        # Repair saved it through the catalog (the body decoded), never
        # quarantined it.
        assert path.read_text(encoding="utf-8").startswith("PXML 1 ")
        assert len(Database(tmp_path).get("a")) == len(figure2_instance())

    def test_headerless_undecodable_file_is_quarantined(self, tmp_path):
        self._populate(tmp_path)
        (tmp_path / "a.pxml.json").write_text("{", encoding="utf-8")
        report = fsck_directory(tmp_path, repair=True)
        assert [(f.code, f.repaired) for f in report.findings] == [
            ("FS102", True)
        ]
        assert fsck_directory(tmp_path).clean
        assert "a" in quarantined_names(tmp_path)

    def test_orphan_sidecar_is_removed(self, tmp_path):
        self._populate(tmp_path)
        orphan = tmp_path / "ghost.pxml.json.sha256"
        orphan.write_text("feed\n", encoding="utf-8")
        report = fsck_directory(tmp_path, repair=True)
        assert any(
            f.code == "FS103" and f.repaired for f in report.findings
        )
        assert not orphan.exists()

    def test_stale_tmp_is_removed(self, tmp_path):
        self._populate(tmp_path)
        (tmp_path / "a.pxml.json.tmp").write_text("{", encoding="utf-8")
        report = fsck_directory(tmp_path, repair=True)
        assert any(f.code == "FS110" for f in report.findings)
        assert fsck_directory(tmp_path).clean

    def test_pending_journal_record_is_replayed(self, tmp_path):
        self._populate(tmp_path)
        Journal(tmp_path).begin("drop", "b")
        report = fsck_directory(tmp_path)
        assert any(f.code == "FS121" for f in report.findings)
        repaired = fsck_directory(tmp_path, repair=True)
        assert repaired.unrepaired == []
        assert not (tmp_path / "b.pxml.json").exists()

    def test_cli_exit_codes(self, tmp_path, capsys):
        self._populate(tmp_path)
        assert fsck_main(["fsck", str(tmp_path)]) == 0
        path = tmp_path / "a.pxml.json"
        path.write_text(
            path.read_text(encoding="utf-8") + " ", encoding="utf-8"
        )
        assert fsck_main(["fsck", str(tmp_path)]) == 1
        assert fsck_main(["fsck", str(tmp_path), "--repair"]) == 0
        assert fsck_main(["fsck", str(tmp_path), "--json"]) == 0
        out = capsys.readouterr().out
        assert '"clean": true' in out
