"""Failure-injection and less-traveled-path tests.

The second half of this module is the chaos suite: deterministic seeded
fault injection (see :mod:`repro.resilience.faults`) driven through the
codec, the catalog, and the PXQL example corpus.  The invariant under
test everywhere: every operation either returns its fault-free result or
raises a typed :class:`~repro.errors.PXMLError` — no torn files, no
silent wrong answers, no raw ``OSError`` escapes.  Extra chaos seeds can
be supplied via the ``PXML_CHAOS_SEED`` environment variable (CI runs a
matrix of them).
"""

import os
import shutil
import subprocess
import sys
from pathlib import Path

import pytest

from repro.algebra.product import cartesian_product
from repro.algebra.projection_prob import epsilon_pass
from repro.core.builder import InstanceBuilder
from repro.core.distributions import TabularOPF
from repro.core.instance import ProbabilisticInstance
from repro.core.weak_instance import WeakInstance
from repro.errors import (
    AlgebraError,
    CorruptInstanceError,
    ModelError,
    PXMLError,
    SemanticsError,
)
from repro.io.json_codec import (
    dumps,
    loads,
    read_instance,
    write_instance,
)
from repro.obs.metrics import MetricsRegistry, use_registry
from repro.paper import figure2_instance
from repro.pxql.interpreter import Interpreter
from repro.queries.engine import QueryEngine
from repro.resilience import FaultInjector, FaultSpec
from repro.storage.database import QUARANTINE_DIR, Database, DatabaseError

FIXTURES = Path(__file__).resolve().parent.parent / "examples" / "fixtures"


def _no_sleep(_seconds):
    """Injectable sleep: retries and slow faults cost no wall-clock."""


class TestMissingPieces:
    def test_epsilon_pass_without_opf(self):
        weak = WeakInstance("r")
        weak.set_lch("r", "l", ["a"])
        pi = ProbabilisticInstance(weak)
        with pytest.raises(SemanticsError):
            epsilon_pass(pi, "r.l")

    def test_product_default_root_collision(self):
        left = InstanceBuilder("a")
        left.children("a", "l", ["axb"], card=(1, 1))  # collides with "axb"
        left.opf("a", {("axb",): 1.0})
        left.leaf("axb", "t", ["v"], {"v": 1.0})
        right = InstanceBuilder("b").build(validate=False)
        with pytest.raises(AlgebraError):
            cartesian_product(left.build(), right)  # default root id "axb"

    def test_weak_root_removal_rejected(self):
        weak = WeakInstance("r")
        with pytest.raises(ModelError):
            weak.remove_object("r")

    def test_engine_on_single_node_instance(self):
        pi = InstanceBuilder("solo").build(validate=False)
        engine = QueryEngine(pi)
        assert engine.strategy == "local"
        assert engine.point("solo", "solo") == 1.0
        assert engine.exists("solo") == 1.0


class TestUnrollFanOut:
    def test_multi_child_cycle(self):
        # A cycle through a node that also has an ordinary leaf child.
        weak = WeakInstance("r")
        weak.set_lch("r", "next", ["r"])
        weak.set_lch("r", "leafy", ["v"])
        pi = ProbabilisticInstance(weak)
        pi.set_opf("r", TabularOPF({
            ("v",): 0.4, ("r", "v"): 0.3, ("r",): 0.1, (): 0.2,
        }))
        from repro.core.unroll import unroll

        flat = unroll(pi, 2)
        flat.validate()
        # Each layer keeps both the self-copy and the leaf copy.
        assert "v@1" in flat and "r@1" in flat and "v@2" in flat
        assert flat.opf("r@1").prob(frozenset({"r@2", "v@2"})) == pytest.approx(0.3)


class TestScalarValues:
    def test_numeric_and_bool_values_round_trip(self):
        builder = InstanceBuilder("r")
        builder.children("r", "l", ["a", "b", "c"], card=(3, 3))
        builder.opf("r", {("a", "b", "c"): 1.0})
        builder.leaf("a", "int-type", [1, 2, 3], {2: 1.0})
        builder.leaf("b", "float-type", [1.5, 2.5], {2.5: 1.0})
        builder.leaf("c", "bool-type", [True, False], {True: 1.0})
        pi = builder.build()
        restored = loads(dumps(pi))
        restored.validate()
        assert restored.vpf("a").prob(2) == 1.0
        assert restored.vpf("b").prob(2.5) == 1.0
        assert restored.vpf("c").prob(True) == 1.0


class TestModuleEntryPoints:
    """The ``python -m`` entry points must work as real subprocesses."""

    def test_tools_subprocess(self, tmp_path):
        target = tmp_path / "fig2.json"
        write_instance(figure2_instance(), target)
        result = subprocess.run(
            [sys.executable, "-m", "repro.tools", "summary", str(target)],
            capture_output=True, text=True, timeout=120,
        )
        assert result.returncode == 0
        assert "objects=11" in result.stdout

    def test_pxql_subprocess(self, tmp_path):
        write_instance(figure2_instance(), tmp_path / "fig2.pxml.json")
        result = subprocess.run(
            [sys.executable, "-m", "repro.pxql", "-d", str(tmp_path),
             "PROB B1 IN fig2"],
            capture_output=True, text=True, timeout=120,
        )
        assert result.returncode == 0
        assert "0.8" in result.stdout

    def test_bench_subprocess(self):
        result = subprocess.run(
            [sys.executable, "-m", "repro.bench", "fig7b", "--quick"],
            capture_output=True, text=True, timeout=300,
        )
        assert result.returncode == 0
        assert "Figure 7(b)" in result.stdout


# ----------------------------------------------------------------------
# Crash-safe codec: atomic publication and checksum verification
# ----------------------------------------------------------------------
class TestCrashConsistency:
    def test_crash_before_publish_keeps_old_version(self, tmp_path):
        """A crash while the tmp file is being swapped in loses nothing."""
        target = tmp_path / "fig2.pxml.json"
        write_instance(figure2_instance(), target)
        old_bytes = target.read_bytes()
        with FaultInjector(FaultSpec("codec.write.tmp", kind="error")):
            with pytest.raises(PXMLError):
                write_instance(figure2_instance(), target)
        assert target.read_bytes() == old_bytes  # old, never torn
        assert not list(tmp_path.glob("*.tmp"))  # tmp file cleaned up
        read_instance(target).validate()

    def test_error_after_publish_reads_back_the_new_instance(self, tmp_path):
        """A save is one file: once it is replaced, the new instance is
        what reads back — there is no second file to tear."""
        target = tmp_path / "fig2.pxml.json"
        write_instance(figure2_instance(), target)
        changed = InstanceBuilder("R").build(validate=False)
        with FaultInjector(FaultSpec("codec.write.replace", kind="error")):
            with pytest.raises(PXMLError):
                write_instance(changed, target)
        assert dumps(read_instance(target)) == dumps(changed)

    def test_payload_corruption_never_reads_back_silently(self, tmp_path):
        """A corrupted write can never produce a silently-wrong instance."""
        target = tmp_path / "fig2.pxml.json"
        with FaultInjector(FaultSpec("codec.write.payload", kind="corrupt")):
            write_instance(figure2_instance(), target)
        with pytest.raises(CorruptInstanceError):
            read_instance(target)

    def test_read_time_corruption_fails_the_checksum(self, tmp_path):
        target = tmp_path / "fig2.pxml.json"
        write_instance(figure2_instance(), target)
        with FaultInjector(FaultSpec("codec.read", kind="corrupt")):
            with pytest.raises(CorruptInstanceError):
                read_instance(target)
        read_instance(target).validate()  # the file itself is intact

    def test_header_written_and_verifies(self, tmp_path):
        target = tmp_path / "fig2.pxml.json"
        write_instance(figure2_instance(), target)
        text = target.read_text(encoding="utf-8")
        header, body = text.split("\n", 1)
        assert header.startswith("PXML 1 sha256=")
        assert body == dumps(figure2_instance())
        assert list(tmp_path.iterdir()) == [target]
        read_instance(target).validate()
        # One changed byte, in the body or in the header, is refused.
        for position in (len(header) + 10, len(header) - 1, 2):
            flipped = "0" if text[position] != "0" else "1"
            target.write_text(
                text[:position] + flipped + text[position + 1:],
                encoding="utf-8",
            )
            with pytest.raises(CorruptInstanceError):
                read_instance(target)


# ----------------------------------------------------------------------
# Crash-safe catalog: retry, corruption policy, drop/TOCTOU regressions
# ----------------------------------------------------------------------
class TestCatalogResilience:
    def _backed(self, tmp_path, **kwargs):
        db = Database(tmp_path, retry_sleep=_no_sleep, **kwargs)
        db.register("fig2", figure2_instance())
        db.save("fig2")
        return db

    def test_transient_read_errors_are_retried(self, tmp_path):
        self._backed(tmp_path)
        fresh = Database(tmp_path, retry_sleep=_no_sleep)
        spec = FaultSpec("codec.read.open", exception=OSError, times=2)
        with FaultInjector(spec) as injector:
            fresh.get("fig2").validate()
        assert injector.fired() == 2  # two failures absorbed by retry

    def test_exhausted_retries_raise_database_error(self, tmp_path):
        self._backed(tmp_path)
        fresh = Database(tmp_path, retry_sleep=_no_sleep)
        spec = FaultSpec("codec.read.open", exception=OSError, times=None)
        with FaultInjector(spec):
            with pytest.raises(DatabaseError):
                fresh.get("fig2")

    def test_vanished_file_is_a_database_error(self, tmp_path):
        """The lazy-load TOCTOU window: exists() said yes, open() says no."""
        self._backed(tmp_path)
        fresh = Database(tmp_path, retry_sleep=_no_sleep)
        spec = FaultSpec(
            "codec.read.open:fig2.pxml.json", exception=FileNotFoundError
        )
        with FaultInjector(spec) as injector:
            with pytest.raises(DatabaseError, match="fig2"):
                fresh.get("fig2")
        assert injector.fired() == 1  # vanished files are not retried

    def test_corrupt_file_raise_policy(self, tmp_path):
        self._backed(tmp_path)
        path = tmp_path / "fig2.pxml.json"
        path.write_text("{ definitely not json", encoding="utf-8")
        fresh = Database(tmp_path, retry_sleep=_no_sleep)
        with pytest.raises(DatabaseError, match="corrupt"):
            fresh.get("fig2")
        assert path.exists()  # raise policy leaves the file in place

    def test_corrupt_file_quarantine_policy(self, tmp_path):
        self._backed(tmp_path)
        path = tmp_path / "fig2.pxml.json"
        path.write_text("{ definitely not json", encoding="utf-8")
        registry = MetricsRegistry()
        fresh = Database(
            tmp_path, on_corrupt="quarantine", retry_sleep=_no_sleep
        )
        with use_registry(registry):
            with pytest.raises(DatabaseError, match="quarantined"):
                fresh.get("fig2")
        assert not path.exists()
        # Quarantine names carry the catalog generation (plus a dedup
        # suffix on collision) so repeat quarantines never overwrite
        # earlier evidence.
        assert list((tmp_path / QUARANTINE_DIR).glob("fig2.pxml.json.g*"))
        assert fresh.quarantined() == ["fig2"]
        assert registry.counter("db.corrupt_quarantined").value == 1.0

    def test_quarantine_keeps_rest_of_catalog_iterable(self, tmp_path):
        db = self._backed(tmp_path, on_corrupt="quarantine")
        db.register("other", figure2_instance())
        db.save("other")
        (tmp_path / "fig2.pxml.json").write_text("garbage", encoding="utf-8")
        fresh = Database(
            tmp_path, on_corrupt="quarantine", retry_sleep=_no_sleep
        )
        loaded = dict(fresh.items())
        assert "other" in loaded and "fig2" not in loaded
        assert fresh.quarantined() == ["fig2"]

    def test_drop_unlink_failure_leaves_catalog_intact(self, tmp_path):
        """Regression: a failed unlink used to leave memory half-dropped."""
        db = self._backed(tmp_path)
        spec = FaultSpec("db.drop.unlink", exception=PermissionError)
        with FaultInjector(spec):
            with pytest.raises(DatabaseError, match="fig2"):
                db.drop("fig2")
        # The name is still fully resolvable: nothing was popped.
        assert "fig2" in db
        db.get("fig2").validate()
        assert db.version("fig2") > 0
        db.drop("fig2")  # and a clean drop still works afterwards
        assert "fig2" not in db

    def test_drop_racing_deletion_succeeds(self, tmp_path):
        db = self._backed(tmp_path)
        spec = FaultSpec("db.drop.unlink", exception=FileNotFoundError)
        with FaultInjector(spec) as injector:
            db.drop("fig2")  # no error: the unlink raced a concurrent delete
        assert injector.fired() == 1
        # The drop completed; the injected error left the real file behind
        # (a true race would have removed it), so clear it and confirm the
        # catalog forgot the name.
        (tmp_path / "fig2.pxml.json").unlink(missing_ok=True)
        assert "fig2" not in db

    def test_save_retries_transient_write_errors(self, tmp_path):
        db = self._backed(tmp_path)
        spec = FaultSpec("codec.write.tmp", exception=OSError, times=2)
        with FaultInjector(spec) as injector:
            db.save("fig2")
        assert injector.fired() == 2
        read_instance(tmp_path / "fig2.pxml.json").validate()


# ----------------------------------------------------------------------
# Seeded chaos over the PXQL example corpus and the catalog operations
# ----------------------------------------------------------------------
def _chaos_seeds():
    seeds = [101, 202, 303]
    env = os.environ.get("PXML_CHAOS_SEED")
    if env:
        seeds.append(int(env))
    return seeds


def _corpus_statements():
    lines = (FIXTURES / "queries.pxql").read_text(encoding="utf-8").splitlines()
    return [line.strip() for line in lines
            if line.strip() and not line.strip().startswith("#")]


def _chaos_specs():
    """Probabilistic faults at every hook point the corpus can reach."""
    return (
        FaultSpec("codec.read.open", exception=OSError,
                  probability=0.15, times=None),
        FaultSpec("codec.read", kind="corrupt",
                  probability=0.1, times=None),
        # About ten visits per corpus run (a bare read's lookup and
        # insert), so a coin that fires on every second one.
        FaultSpec("pxql.cache.statements.*", exception=RuntimeError,
                  probability=0.5, times=None),
        FaultSpec("db.drop.unlink", exception=OSError,
                  probability=0.3, times=None),
        FaultSpec("codec.write.tmp", exception=OSError,
                  probability=0.15, times=None),
        FaultSpec("codec.write.replace", exception=OSError,
                  probability=0.1, times=None),
    )


def _corpus_interpreter(directory):
    interpreter = Interpreter(
        Database(directory, on_corrupt="quarantine", retry_sleep=_no_sleep),
        check="warn",
    )
    # Runtime certificate verification on every statement: observed
    # cardinalities/probabilities must stay inside the absint intervals
    # even while faults fire (the counter is asserted zero below).
    return interpreter


def _absint_violations(interpreter):
    return interpreter.metrics.counter("check.absint_violations").value


def _run_corpus(interpreter):
    """Each statement's outcome: ("ok", text) or ("error", exception)."""
    outcomes = []
    for statement in _corpus_statements():
        try:
            outcomes.append(("ok", interpreter.execute(statement).text))
        except Exception as exc:  # noqa: BLE001 — the invariant under test
            outcomes.append(("error", exc))
    return outcomes


def _copy_fixtures(destination):
    destination.mkdir()
    for path in FIXTURES.glob("*.pxml.json"):
        shutil.copy(path, destination / path.name)
    return destination


class TestChaosSuite:
    def test_corpus_baseline_is_fault_free(self, tmp_path):
        interpreter = _corpus_interpreter(_copy_fixtures(tmp_path / "base"))
        outcomes = _run_corpus(interpreter)
        assert all(status == "ok" for status, _ in outcomes)
        assert _absint_violations(interpreter) == 0

    @pytest.mark.parametrize("seed", _chaos_seeds())
    def test_corpus_under_chaos(self, tmp_path, seed):
        """Fault-free result or typed PXMLError — nothing in between."""
        baseline = _run_corpus(
            _corpus_interpreter(_copy_fixtures(tmp_path / "base"))
        )
        chaotic = _corpus_interpreter(
            _copy_fixtures(tmp_path / f"chaos{seed}")
        )
        with FaultInjector(
            *_chaos_specs(), seed=seed, sleep=_no_sleep
        ) as injector:
            outcomes = _run_corpus(chaotic)
        for (base_status, base_value), (status, value) in zip(
            baseline, outcomes
        ):
            assert base_status == "ok"
            if status == "ok":
                assert value == base_value  # identical fault-free answer
            else:
                assert isinstance(value, PXMLError), (
                    f"untyped {type(value).__name__} escaped: {value}"
                )
        assert _absint_violations(chaotic) == 0
        assert injector.fired("pxql.cache.statements.*") > 0

    @pytest.mark.parametrize("seed", _chaos_seeds())
    def test_catalog_operations_under_chaos(self, tmp_path, seed):
        """Every catalog op succeeds or raises typed; storage never tears."""
        directory = tmp_path / f"cat{seed}"
        db = Database(
            directory, on_corrupt="quarantine", retry_sleep=_no_sleep
        )
        operations = [
            lambda: db.register("a", figure2_instance(), replace=True),
            lambda: db.save("a"),
            lambda: db.get("a"),
            lambda: db.register("b", figure2_instance(), replace=True),
            lambda: db.save("b"),
            lambda: db.reload("a"),
            lambda: db.drop("b"),
            lambda: db.save("a"),
            lambda: list(db.items()),
            lambda: db.drop("a"),
            lambda: db.register("a", figure2_instance(), replace=True),
            lambda: db.save("a"),
        ]
        with FaultInjector(*_chaos_specs(), seed=seed, sleep=_no_sleep):
            for operation in operations:
                try:
                    operation()
                except Exception as exc:  # noqa: BLE001
                    assert isinstance(exc, PXMLError), (
                        f"untyped {type(exc).__name__} escaped: {exc}"
                    )
        # Post-chaos, fault-free: every surviving file is either cleanly
        # loadable or detected as corrupt — never a torn half-write.
        fresh = Database(
            directory, on_corrupt="quarantine", retry_sleep=_no_sleep
        )
        for name in fresh.names():
            try:
                fresh.get(name).validate()
            except DatabaseError:
                pass  # typed detection (file quarantined) is acceptable
        for leftover in directory.glob("*.tmp"):
            raise AssertionError(f"torn tmp file survived: {leftover}")
