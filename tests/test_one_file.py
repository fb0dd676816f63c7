"""A catalog mutation changes exactly one instance file.

A saved file carries its body's SHA-256 in its first line, so a save is
one ``os.replace``, a drop one unlink and a quarantine one move — no
checksum sidecar beside it.  A catalog saved before the header (a
headerless file plus a ``.sha256`` sidecar) still opens verified, and
is migrated by its next save plus ``fsck --repair``.
"""

import os
import random

import pytest

from repro.errors import CorruptInstanceError
from repro.io.json_codec import content_checksum, dumps, read_instance
from repro.paper import example52_instance, figure2_instance
from repro.storage.database import Database, DatabaseError
from repro.storage.fsck import fsck_directory


@pytest.fixture
def file_steps(monkeypatch):
    """The ``os.replace`` / ``os.unlink`` / ``os.rename`` calls made on
    ``*.pxml.json*`` paths while the test runs."""
    steps = []
    for name in ("replace", "unlink", "rename"):
        def spy(*args, _real=getattr(os, name), _name=name, **kwargs):
            if any(".pxml.json" in os.fspath(arg) for arg in args[:2]):
                steps.append((_name, *map(os.path.basename, args[:2])))
            return _real(*args, **kwargs)
        monkeypatch.setattr(os, name, spy)
    return steps


def _saved(directory, **kwargs):
    db = Database(directory, **kwargs)
    db.register("a", figure2_instance())
    db.save("a")
    return db


class TestOneStep:
    def test_save_is_one_replace(self, tmp_path, file_steps):
        db = Database(tmp_path)
        db.register("a", figure2_instance())
        db.save("a")
        assert file_steps == [("replace", "a.pxml.json.tmp", "a.pxml.json")]
        file_steps.clear()
        db.register("a", example52_instance(), replace=True)
        db.save("a")
        assert file_steps == [("replace", "a.pxml.json.tmp", "a.pxml.json")]

    def test_drop_is_one_unlink(self, tmp_path, file_steps):
        db = _saved(tmp_path)
        file_steps.clear()
        db.drop("a")
        assert file_steps == [("unlink", "a.pxml.json")]

    def test_quarantine_is_one_move(self, tmp_path, file_steps):
        db = _saved(tmp_path, on_corrupt="quarantine")
        path = tmp_path / "a.pxml.json"
        path.write_text(path.read_text(encoding="utf-8") + " ", encoding="utf-8")
        file_steps.clear()
        with pytest.raises(DatabaseError, match="quarantined"):
            db.reload("a")
        assert file_steps == [("replace", "a.pxml.json", "a.pxml.json.g1")]

    def test_no_sidecar_after_any_sequence(self, tmp_path):
        rng = random.Random(7)
        db = Database(tmp_path, on_corrupt="quarantine")
        instances = (figure2_instance(), example52_instance())
        for _ in range(40):
            name = rng.choice("abc")
            op = rng.choice(("save", "save", "drop", "quarantine"))
            if op == "save":
                db.register(name, rng.choice(instances), replace=True)
                db.save(name)
            elif name in db.names() and op == "drop":
                db.drop(name)
            elif name in db.names():
                path = tmp_path / f"{name}.pxml.json"
                path.write_text(
                    path.read_text(encoding="utf-8") + " ", encoding="utf-8"
                )
                with pytest.raises(DatabaseError):
                    db.reload(name)
        assert db.quarantined()
        assert list(tmp_path.rglob("*.sha256")) == []
        assert fsck_directory(tmp_path).clean


def _legacy(directory, name="a", text=None):
    """A file as a catalog saved it before the header: headerless JSON
    with a ``.sha256`` sidecar beside it."""
    body = dumps(figure2_instance())
    path = directory / f"{name}.pxml.json"
    path.write_text(body if text is None else text, encoding="utf-8")
    sidecar = directory / f"{name}.pxml.json.sha256"
    sidecar.write_text(content_checksum(body) + "\n", encoding="utf-8")
    return path, sidecar


class TestLegacyCatalog:
    def test_opens_and_reads_verified(self, tmp_path):
        _legacy(tmp_path)
        db = Database(tmp_path)
        assert dumps(db.get("a")) == dumps(figure2_instance())

    def test_tampered_file_is_refused(self, tmp_path):
        path, _ = _legacy(tmp_path, text=dumps(figure2_instance()) + " ")
        with pytest.raises(CorruptInstanceError):
            read_instance(path)
        with pytest.raises(DatabaseError, match="corrupt"):
            Database(tmp_path).get("a")

    def test_next_save_writes_the_header_and_fsck_removes_the_sidecar(
        self, tmp_path
    ):
        path, sidecar = _legacy(tmp_path)
        assert [f.code for f in fsck_directory(tmp_path).findings] == ["FS102"]
        Database(tmp_path).save("a")
        assert path.read_text(encoding="utf-8").startswith("PXML 1 sha256=")
        report = fsck_directory(tmp_path, repair=True)
        assert [(f.code, f.repaired) for f in report.findings] == [
            ("FS103", True)
        ]
        assert not sidecar.exists()
        assert fsck_directory(tmp_path).clean
        assert dumps(Database(tmp_path).get("a")) == dumps(figure2_instance())

    def test_fsck_repair_migrates_an_unsaved_catalog(self, tmp_path):
        path, sidecar = _legacy(tmp_path)
        report = fsck_directory(tmp_path, repair=True)
        assert [(f.code, f.repaired) for f in report.findings] == [
            ("FS102", True), ("FS103", True)
        ]
        assert not sidecar.exists()
        assert path.read_text(encoding="utf-8").startswith("PXML 1 sha256=")
        assert fsck_directory(tmp_path).clean
