"""Tests for the named-instance database."""

import pytest

from repro.core.cardinality import CardinalityInterval
from repro.errors import ModelError
from repro.paper import example52_instance, figure2_instance
from repro.semantics.global_interpretation import GlobalInterpretation
from repro.semistructured.types import LeafType
from repro.storage.database import Database, DatabaseError


class TestInMemory:
    def test_register_and_get(self):
        db = Database()
        pi = figure2_instance()
        db.register("fig2", pi)
        assert db.get("fig2") is pi
        assert "fig2" in db
        assert len(db) == 1

    def test_duplicate_register_rejected(self):
        db = Database()
        db.register("a", figure2_instance())
        with pytest.raises(DatabaseError):
            db.register("a", example52_instance())

    def test_replace_allowed(self):
        db = Database()
        db.register("a", figure2_instance())
        replacement = example52_instance()
        db.register("a", replacement, replace=True)
        assert db.get("a") is replacement

    def test_unknown_get_rejected(self):
        with pytest.raises(DatabaseError):
            Database().get("ghost")

    def test_drop(self):
        db = Database()
        db.register("a", figure2_instance())
        db.drop("a")
        assert "a" not in db
        with pytest.raises(DatabaseError):
            db.drop("a")

    def test_save_without_directory_rejected(self):
        db = Database()
        db.register("a", figure2_instance())
        with pytest.raises(DatabaseError):
            db.save("a")

    def test_items(self):
        db = Database()
        db.register("a", figure2_instance())
        names = [name for name, _ in db.items()]
        assert names == ["a"]


class TestPersistence:
    def test_save_and_reload(self, tmp_path):
        db = Database(tmp_path)
        pi = figure2_instance()
        db.register("fig2", pi)
        path = db.save("fig2")
        assert path.exists()

        fresh = Database(tmp_path)
        assert "fig2" in fresh
        restored = fresh.get("fig2")
        assert GlobalInterpretation.from_local(restored).is_close_to(
            GlobalInterpretation.from_local(pi)
        )

    def test_save_all(self, tmp_path):
        db = Database(tmp_path)
        db.register("a", figure2_instance())
        db.register("b", example52_instance())
        paths = db.save_all()
        assert len(paths) == 2
        assert sorted(Database(tmp_path).names()) == ["a", "b"]

    def test_drop_removes_file(self, tmp_path):
        db = Database(tmp_path)
        db.register("a", figure2_instance())
        path = db.save("a")
        db.drop("a")
        assert not path.exists()
        assert "a" not in Database(tmp_path)

    def test_lazy_loading_caches(self, tmp_path):
        db = Database(tmp_path)
        db.register("a", figure2_instance())
        db.save("a")
        fresh = Database(tmp_path)
        first = fresh.get("a")
        assert fresh.get("a") is first

    def test_load_file_from_elsewhere(self, tmp_path):
        from repro.io.json_codec import write_instance

        external = tmp_path / "external.json"
        write_instance(figure2_instance(), external)
        db = Database()
        instance = db.load_file("imported", external)
        assert len(instance) == 11
        assert "imported" in db

    def test_directory_created(self, tmp_path):
        target = tmp_path / "nested" / "db"
        Database(target)
        assert target.is_dir()


#: Each of the six weak-instance setters, called on figure 2's ``B1``.
_SETTERS = {
    "add_object": lambda weak: weak.add_object("B1"),
    "set_lch": lambda weak: weak.set_lch("B1", "editor", ["E9"]),
    "set_card": lambda weak: weak.set_card("B1", "author", CardinalityInterval(0, 1)),
    "remove_object": lambda weak: weak.remove_object("B1"),
    "set_type": lambda weak: weak.set_type("B1", LeafType("t", ["x"])),
    "set_val": lambda weak: weak.set_val("B1", "x"),
}


class TestFrozenCatalog:
    """The catalog holds values: however an instance entered it, its
    weak structure refuses every change, naming the object."""

    @pytest.mark.parametrize("entry", ["register", "lazy_load", "reload"])
    def test_every_setter_refused(self, tmp_path, entry):
        db = Database(tmp_path)
        db.register("fig2", figure2_instance())
        db.save("fig2")
        if entry == "register":
            pi = db.get("fig2")
        elif entry == "lazy_load":
            pi = Database(tmp_path).get("fig2")
        else:
            pi = db.reload("fig2")
        objects = pi.objects
        for setter in _SETTERS.values():
            with pytest.raises(ModelError, match="'B1'"):
                setter(pi.weak)
        assert pi.objects == objects
        mutable = pi.weak.copy()
        _SETTERS["set_lch"](mutable)
        assert "E9" in mutable and "E9" not in pi

