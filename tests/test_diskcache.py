"""Tests for the persistent, shared result-cache segment."""

from repro.core.builder import InstanceBuilder
from repro.engine.diskcache import (
    DiskResultCache,
    decode_value,
    encode_value,
    result_key,
)
from repro.obs.metrics import MetricsRegistry
from repro.paper import figure2_instance
from repro.pxql.interpreter import Interpreter
from repro.storage.database import Database

QUERY = "EXISTS R.book.author IN a"


def _populated(tmp_path):
    db = Database(tmp_path)
    db.register("a", figure2_instance())
    db.save("a")
    return db


class TestSegment:
    def test_store_and_lookup_roundtrip(self, tmp_path):
        cache = DiskResultCache(tmp_path, metrics=MetricsRegistry())
        inputs = (("a", "abc123"),)
        key = result_key("Exists(Scan(a))", inputs)
        assert cache.lookup(key, inputs) is None
        assert cache.store(
            key, 3, inputs, {"kind": "scalar", "data": 0.5},
            extra={}, stats={},
        )
        entry = cache.lookup(key, inputs)
        assert entry is not None
        assert decode_value(entry.value) == 0.5

    def test_sibling_process_sees_appends(self, tmp_path):
        registry = MetricsRegistry()
        writer = DiskResultCache(tmp_path, metrics=registry)
        reader = DiskResultCache(tmp_path, metrics=registry)
        inputs = (("a", "abc"),)
        key = result_key("fp", inputs)
        writer.store(key, 1, inputs, {"kind": "scalar", "data": 1},
                     extra={}, stats={})
        # The reader refreshes its tail on the miss and finds the spill.
        assert reader.lookup(key, inputs) is not None

    def test_corrupt_line_is_a_silent_miss(self, tmp_path):
        registry = MetricsRegistry()
        cache = DiskResultCache(tmp_path, metrics=registry)
        inputs = (("a", "abc"),)
        key = result_key("fp", inputs)
        cache.store(key, 1, inputs, {"kind": "scalar", "data": 1},
                    extra={}, stats={})
        raw = bytearray(cache.path.read_bytes())
        raw[len(raw) // 2] ^= 0x41
        cache.path.write_bytes(bytes(raw))

        fresh = DiskResultCache(tmp_path, metrics=registry)
        assert fresh.lookup(key, inputs) is None
        assert registry.value("engine.cache.disk_corrupt") >= 1

    def test_mismatched_inputs_are_a_miss(self, tmp_path):
        cache = DiskResultCache(tmp_path, metrics=MetricsRegistry())
        inputs = (("a", "abc"),)
        key = result_key("fp", inputs)
        cache.store(key, 1, inputs, {"kind": "scalar", "data": 1},
                    extra={}, stats={})
        assert cache.lookup(key, (("a", "OTHER"),)) is None

    def test_compaction_dedups_newest_wins(self, tmp_path):
        cache = DiskResultCache(
            tmp_path, metrics=MetricsRegistry(), max_segment_bytes=1
        )
        inputs = (("a", "abc"),)
        key = result_key("fp", inputs)
        for value in (1, 2, 3):
            cache.store(key, value, inputs,
                        {"kind": "scalar", "data": value},
                        extra={}, stats={})
        lines = [
            line for line in
            cache.path.read_text(encoding="utf-8").splitlines() if line
        ]
        assert len(lines) == 1
        entry = cache.lookup(key, inputs)
        assert entry is not None and decode_value(entry.value) == 3

    def test_oversize_entry_is_skipped(self, tmp_path):
        registry = MetricsRegistry()
        cache = DiskResultCache(
            tmp_path, metrics=registry, max_entry_bytes=16
        )
        inputs = (("a", "abc"),)
        assert not cache.store(
            result_key("fp", inputs), 1, inputs,
            {"kind": "scalar", "data": "x" * 100}, extra={}, stats={},
        )
        assert registry.value("engine.cache.disk_skipped") == 1

    def test_value_codec_covers_result_kinds(self):
        instance = figure2_instance()
        encoded = encode_value(instance)
        assert encoded is not None
        assert len(decode_value(encoded)) == len(instance)
        pairs = encode_value({1: 0.25, 2: 0.75})
        assert decode_value(pairs) == {1: 0.25, 2: 0.75}
        assert decode_value(encode_value(0.5)) == 0.5
        assert encode_value(object()) is None


class TestEngineIntegration:
    def test_restart_serves_from_disk(self, tmp_path):
        db = _populated(tmp_path)
        first = Interpreter(database=db)
        cold = first.execute(QUERY).value
        assert first.engine.metrics.value("engine.cache.disk_spills") >= 1
        assert (tmp_path / "cache" / "results.segment").exists()

        # A fresh Database + Interpreter over the same directory is the
        # process-restart simulation: all in-memory state is gone.
        restarted = Interpreter(database=Database(tmp_path))
        warm = restarted.execute(QUERY).value
        assert warm == cold
        metrics = restarted.engine.metrics
        assert metrics.value("engine.cache.disk_loaded") >= 1
        assert metrics.value("engine.cache.disk_hits") >= 1

    def test_dirty_instance_bypasses_disk(self, tmp_path):
        db = _populated(tmp_path)
        interp = Interpreter(database=db)
        interp.execute(QUERY)
        db.touch("a")  # in-memory divergence: disk results are stale
        interp.execute(QUERY)
        assert interp.engine.metrics.value("engine.cache.disk_hits") == 0
        db.save("a")  # clean again: the disk cache re-engages
        # The own save moved no key, so ``interp`` answers from memory;
        # a fresh interpreter has only the disk cache to ask.
        fresh = Interpreter(database=db)
        fresh.execute(QUERY)
        assert fresh.engine.metrics.value("engine.cache.disk_hits") == 1

    def test_foreign_save_never_poisons_the_shared_cache(self, tmp_path):
        """A sibling process replaces ``bib``: the clean in-memory copy
        must not answer again, and above all its answer must not be
        spilled under the *new* file's checksum for others to read."""

        def bib(p):
            b = InstanceBuilder("R")
            b.children("R", "x", ["A"])
            b.opf("R", {("A",): p, (): 1 - p})
            b.leaf("A", "t", ["v"], {"v": 1.0})
            return b.build()

        statement = "EXISTS R.x IN bib"
        db_a = Database(tmp_path)
        db_a.register("bib", bib(0.5))
        db_a.save("bib")
        first = Interpreter(database=db_a)
        assert first.execute(statement).value == 0.5

        sibling = Database(tmp_path)
        sibling.register("bib", bib(0.9), replace=True)
        sibling.save("bib")

        assert first.execute(statement).value == 0.9
        assert first.execute(statement).value == 0.9
        restarted = Interpreter(database=Database(tmp_path))
        assert restarted.execute(statement).value == 0.9

    def test_foreign_save_leaves_a_dirty_copy_authoritative(self, tmp_path):
        db = _populated(tmp_path)
        interp = Interpreter(database=db)
        db.touch("a")  # unsaved in-memory state
        mine = db.get("a")
        Database(tmp_path).save("a")
        interp.execute(QUERY)  # observes the sibling's save
        assert db.get("a") is mine
        assert interp.engine.metrics.value("engine.cache.disk_hits") == 0
        assert interp.engine.metrics.value("engine.cache.disk_spills") == 0

    def test_memoryless_database_disables_disk(self):
        db = Database()
        db.register("a", figure2_instance())
        interp = Interpreter(database=db)
        assert interp.engine.disk_cache is None
        assert interp.execute(QUERY).value is not None

    def test_cache_stats_expose_disk_section(self, tmp_path):
        interp = Interpreter(database=_populated(tmp_path))
        interp.execute(QUERY)
        stats = interp.engine.cache_stats
        assert "disk" in stats
        assert stats["disk"]["spills"] >= 1

    def test_corrupt_segment_degrades_to_recompute(self, tmp_path):
        db = _populated(tmp_path)
        cold = Interpreter(database=db).execute(QUERY).value
        segment = tmp_path / "cache" / "results.segment"
        segment.write_text("garbage not json\n", encoding="utf-8")

        restarted = Interpreter(database=Database(tmp_path))
        assert restarted.execute(QUERY).value == cold
