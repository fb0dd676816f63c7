"""Changing the shard count offline: ``python -m repro.server reshard``.

Covers :func:`repro.server.layout.reshard` end to end: only names whose
home changed are touched (a hypothesis property over the shards' own
catalog journals), any placement ends with every name on exactly one
shard, its new home, with its content unchanged (a second property),
the epoch rises by one per reshard, a bad count or a root without a
manifest is refused, an overlay stray is brought home, an interrupted
reshard is finished by a rerun that redoes only what was left, a real
SIGKILL mid-reshard converges on a rerun, ``ShardedServer.start``
refuses every unfinished or mismatched layout by naming the command,
the CLI's exit codes, ``fsck --shards`` over a sharded root, and the
consistent-hash ring's bounded movement.
"""

from __future__ import annotations

import json
import tempfile
from pathlib import Path

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.errors import FaultError, ShardConfigError
from repro.io.json_codec import dumps, loads
from repro.paper import example52_instance
from repro.resilience.crashsweep import (
    build_reshard_root,
    reshard_originals,
    reshard_placements,
    spawn_child,
    verify_reshard_recovery,
)
from repro.resilience.faults import FaultInjector, FaultSpec
from repro.server import ShardedServer
from repro.server.__main__ import main as server_main
from repro.server.layout import (
    DEFAULT_VNODES,
    LEGACY_JOURNAL_NAME,
    LEGACY_PLAN_NAME,
    ShardManifest,
    build_ring,
    read_manifest,
    reshard,
    reshard_command,
    ring_owner,
    write_manifest,
)
from repro.storage.database import Database
from repro.storage.fsck import fsck_sharded_root
from repro.storage.journal import INSTANCE_SUFFIX, Journal


def ring_home(name: str, shards: int) -> int:
    return ring_owner(*build_ring(shards, DEFAULT_VNODES), name)


def holders_of(root: Path, name: str, shards: int = 4) -> list[int]:
    return [
        shard for shard in range(shards)
        if (root / f"shard-{shard}" / f"{name}{INSTANCE_SUFFIX}").is_file()
    ]


def journaled_names(root: Path, shard: int) -> list[str]:
    records, _ = Journal(root / f"shard-{shard}").read()
    return [record.name for record in records if record.name]


# ----------------------------------------------------------------------
# Only names whose home changed travel, and each ends on one shard
# ----------------------------------------------------------------------
_names = st.lists(
    st.integers(min_value=0, max_value=100_000).map(lambda i: f"key-{i}"),
    min_size=1, max_size=10, unique=True,
)
_counts = st.integers(min_value=1, max_value=4)


def seed_root(root: Path, placements: dict[str, int], shards: int) -> str:
    """A ``shards``-shard root holding each name on its given shard."""
    payload = dumps(example52_instance())
    write_manifest(root, ShardManifest(shards=shards))
    for name, shard in placements.items():
        db = Database(root / f"shard-{shard}")
        db.register(name, loads(payload))
        db.save(name)
    return payload


@settings(max_examples=15, deadline=None)
@given(names=_names, old=_counts, new=_counts)
def test_moved_set_is_exactly_the_home_diff(names, old, new):
    with tempfile.TemporaryDirectory() as tmp:
        root = Path(tmp)
        seed_root(root, {name: ring_home(name, old) for name in names}, old)
        before = {shard: len(journaled_names(root, shard)) for shard in range(old)}
        moved = reshard(root, new)
        changed = {name for name in names if ring_home(name, new) != ring_home(name, old)}
        assert moved == len(changed)
        # No shard journal records a name whose home did not change.
        for shard in range(max(old, new)):
            gained = journaled_names(root, shard)[before.get(shard, 0):]
            assert set(gained) <= changed, (shard, gained)
        # Settled: a second reshard to the same count moves nothing.
        assert reshard(root, new) == 0


@settings(max_examples=15, deadline=None)
@given(names=_names, old=_counts, new=_counts, data=st.data())
def test_disjoint_shards_stay_disjoint(names, old, new, data):
    # Arbitrary (not necessarily ring-home) placements: overlay strays
    # and pre-sharding adoptions sit wherever history put them.
    placements = {
        name: data.draw(st.integers(min_value=0, max_value=old - 1), label=name)
        for name in names
    }
    with tempfile.TemporaryDirectory() as tmp:
        root = Path(tmp)
        payload = seed_root(root, placements, old)
        reshard(root, new)
        # Every name ends on exactly one shard, its new-ring home, unchanged.
        for name in names:
            home = ring_home(name, new)
            assert holders_of(root, name, max(old, new)) == [home]
            assert dumps(Database(root / f"shard-{home}").get(name)) == payload


# ----------------------------------------------------------------------
# Grow, shrink, strays
# ----------------------------------------------------------------------
class TestReshard:
    def test_grow_then_shrink_keeps_every_name_once_and_unchanged(self, tmp_path):
        build_reshard_root(tmp_path, seed=3)
        originals = reshard_originals(3)
        for shards, epoch in ((3, 1), (2, 2)):
            reshard(tmp_path, shards)
            manifest = read_manifest(tmp_path)
            assert manifest == ShardManifest(shards=shards, layout_epoch=epoch)
            for name, original in originals.items():
                home = ring_home(name, shards)
                assert holders_of(tmp_path, name) == [home], (shards, name)
                db = Database(tmp_path / f"shard-{home}")
                assert dumps(db.get(name)) == original
            assert fsck_sharded_root(tmp_path).clean

    def test_grow_converges_and_bumps_epoch(self, tmp_path):
        build_reshard_root(tmp_path, seed=3)
        placements = reshard_placements(3)
        expected = sum(ring_home(n, 3) != s for n, s in placements.items())
        assert expected, "the seeded placements must require moves"
        assert reshard(tmp_path, 3) == expected
        assert read_manifest(tmp_path) == ShardManifest(shards=3, layout_epoch=1)
        for name in placements:
            assert holders_of(tmp_path, name) == [ring_home(name, 3)]

    def test_the_epoch_rises_by_one_per_reshard(self, tmp_path):
        build_reshard_root(tmp_path, seed=3)
        # Even a reshard to the same count commits a new epoch.
        for epoch, shards in enumerate((3, 3, 2, 4), start=1):
            reshard(tmp_path, shards)
            assert read_manifest(tmp_path) == ShardManifest(
                shards=shards, layout_epoch=epoch
            )

    def test_moves_are_exactly_the_ring_diff(self, tmp_path):
        names = [f"n{i}" for i in range(32)]
        seed_root(tmp_path, {name: ring_home(name, 2) for name in names}, 2)
        before = {shard: len(journaled_names(tmp_path, shard)) for shard in range(2)}
        reshard(tmp_path, 3)
        for name in names:
            source, home = ring_home(name, 2), ring_home(name, 3)
            # The source journals a drop exactly when the home changed.
            dropped = name in journaled_names(tmp_path, source)[before[source]:]
            assert dropped == (home != source), name
            assert holders_of(tmp_path, name, shards=3) == [home]

    def test_an_interrupted_reshard_is_resumed_not_restarted(self, tmp_path):
        build_reshard_root(tmp_path, seed=3)
        placements = reshard_placements(3)
        movers = sum(ring_home(n, 3) != s for n, s in placements.items())
        assert movers >= 2
        # Fail after the second move's save: the first move is whole,
        # the second has its copy at home and its source not yet dropped.
        spec = FaultSpec(site="reshard.saved", kind="error", nth=2, times=1)
        with pytest.raises(FaultError):
            with FaultInjector(spec, seed=0):
                reshard(tmp_path, 3)
        assert read_manifest(tmp_path) == ShardManifest(shards=2, resharding_to=3)
        # The rerun redoes only what was not finished.
        assert reshard(tmp_path, 3) == movers - 1
        assert read_manifest(tmp_path) == ShardManifest(shards=3, layout_epoch=1)
        for name in placements:
            assert holders_of(tmp_path, name) == [ring_home(name, 3)]
        assert reshard(tmp_path, 3) == 0

    def test_an_overlay_stray_is_brought_home(self, tmp_path):
        build_reshard_root(tmp_path, seed=3)
        placements = reshard_placements(3)
        (stray,) = [n for n, s in placements.items() if s != ring_home(n, 2)]
        # Same count: only the name off its ring home travels.
        assert reshard(tmp_path, 2) == 1
        assert holders_of(tmp_path, stray) == [ring_home(stray, 2)]
        assert reshard(tmp_path, 2) == 0

    def test_sigkill_mid_reshard_then_rerun_converges(self, tmp_path):
        root = tmp_path / "root"
        proc = spawn_child(root, "reshard.saved", 2, seed=5, mode="reshard")
        assert proc.returncode == -9, proc.stderr
        manifest = read_manifest(root)
        assert manifest is not None and manifest.resharding_to == 3
        ok, detail = verify_reshard_recovery(root, seed=5)
        assert ok, detail

    def test_leftovers_of_a_live_resize_are_removed(self, tmp_path):
        build_reshard_root(tmp_path, seed=3)
        (tmp_path / LEGACY_JOURNAL_NAME).write_text('{"state":"plan"}\n', encoding="utf-8")
        (tmp_path / LEGACY_PLAN_NAME).write_text("{}", encoding="utf-8")
        reshard(tmp_path, 2)
        assert not (tmp_path / LEGACY_JOURNAL_NAME).exists()
        assert not (tmp_path / LEGACY_PLAN_NAME).exists()

    def test_a_bad_count_is_refused(self, tmp_path):
        build_reshard_root(tmp_path, seed=3)
        for count in (0, -1):
            with pytest.raises(ShardConfigError):
                reshard(tmp_path, count)
        assert read_manifest(tmp_path) == ShardManifest(shards=2)
        for name, shard in reshard_placements(3).items():
            assert holders_of(tmp_path, name) == [shard]

    def test_a_root_without_a_manifest_is_refused(self, tmp_path):
        with pytest.raises(ShardConfigError):
            reshard(tmp_path, 2)
        assert read_manifest(tmp_path) is None

    def test_a_name_outside_the_layout_is_brought_home(self, tmp_path):
        # A placement past the manifest's count is not refused: reshard
        # reads placements from the shard directories themselves.
        seed_root(tmp_path, {"x": 5}, shards=2)
        assert reshard(tmp_path, 3) == 1
        assert holders_of(tmp_path, "x", shards=6) == [ring_home("x", 3)]

    def test_a_resharded_root_serves_with_the_new_count(self, tmp_path):
        build_reshard_root(tmp_path, seed=3)
        reshard(tmp_path, 3)
        server = ShardedServer(tmp_path, shards=3, workers_per_shard=1).start()
        try:
            listed = server.execute("LIST", timeout_s=60.0).value
            assert sorted(listed) == sorted(reshard_placements(3))
            assert server.health()["layout_epoch"] == 1
            for name in listed:
                assert server.owner(name) == ring_home(name, 3)
                fetched = loads(server.fetch_instance(name))
                assert dumps(fetched) == dumps(loads(reshard_originals(3)[name]))
        finally:
            server.stop(drain=False, timeout_s=15.0)


# ----------------------------------------------------------------------
# start() refuses what it cannot serve, naming the command
# ----------------------------------------------------------------------
class TestStartRefusals:
    def refusal(self, root: Path, shards: int) -> str:
        server = ShardedServer(root, shards=shards, workers_per_shard=1)
        with pytest.raises(ShardConfigError) as excinfo:
            server.start()
        server.stop(drain=False, timeout_s=5.0)
        return str(excinfo.value)

    def test_a_count_mismatch_names_the_command(self, tmp_path):
        write_manifest(tmp_path, ShardManifest(shards=2))
        assert reshard_command(tmp_path, 3) in self.refusal(tmp_path, 3)

    def test_an_interrupted_reshard_names_the_command(self, tmp_path):
        write_manifest(tmp_path, ShardManifest(shards=2, resharding_to=3))
        assert reshard_command(tmp_path, 3) in self.refusal(tmp_path, 2)

    def test_a_torn_live_resize_names_the_command(self, tmp_path):
        # An older version's live 2 -> 3 migration, torn: its journal and
        # plan are at the root.  The command names the plan's target.
        build_reshard_root(tmp_path, seed=3)
        (tmp_path / LEGACY_JOURNAL_NAME).write_text('{"state":"plan"}\n', encoding="utf-8")
        (tmp_path / LEGACY_PLAN_NAME).write_text('{"new_shards": 3}', encoding="utf-8")
        message = self.refusal(tmp_path, 2)
        assert LEGACY_JOURNAL_NAME in message
        assert reshard_command(tmp_path, 3) in message
        # fsck --shards reports it as FS132 and --repair finishes it.
        (finding,) = [f for f in fsck_sharded_root(tmp_path).findings if f.code == "FS132"]
        assert reshard_command(tmp_path, 3) in finding.action
        assert not fsck_sharded_root(tmp_path, repair=True).unrepaired
        assert not (tmp_path / LEGACY_JOURNAL_NAME).exists()
        assert read_manifest(tmp_path) == ShardManifest(shards=3, layout_epoch=1)


# ----------------------------------------------------------------------
# The CLI
# ----------------------------------------------------------------------
class TestCli:
    def test_exit_codes(self, tmp_path, capsys):
        args = ["reshard", "--directory", str(tmp_path), "--shards"]
        assert server_main([*args, "3"]) == 2  # no manifest yet
        build_reshard_root(tmp_path, seed=3)
        assert server_main([*args, "0"]) == 2
        assert server_main([*args, "3"]) == 0
        assert "to 3 shard(s): 4 instance(s) moved" in capsys.readouterr().out
        with pytest.raises(SystemExit) as excinfo:
            server_main(["reshard", "--directory", str(tmp_path)])
        assert excinfo.value.code == 2
        assert read_manifest(tmp_path) == ShardManifest(shards=3, layout_epoch=1)


# ----------------------------------------------------------------------
# fsck --shards
# ----------------------------------------------------------------------
class TestFsckShards:
    def test_clean_root_is_clean(self, tmp_path):
        build_reshard_root(tmp_path, seed=3)
        reshard(tmp_path, 3)
        report = fsck_sharded_root(tmp_path)
        assert report.clean, [f.as_dict() for f in report.findings]
        assert report.checked_instances == len(reshard_placements(3))

    def test_interrupted_reshard_is_found_and_repaired(self, tmp_path):
        build_reshard_root(tmp_path, seed=3)
        spec = FaultSpec(site="reshard.saved", kind="error", nth=2, times=1)
        with pytest.raises(FaultError):
            with FaultInjector(spec, seed=0):
                reshard(tmp_path, 3)
        check = fsck_sharded_root(tmp_path)
        (finding,) = [f for f in check.findings if f.code == "FS132"]
        assert reshard_command(tmp_path, 3) in finding.action
        repaired = fsck_sharded_root(tmp_path, repair=True)
        assert not repaired.unrepaired, [f.as_dict() for f in repaired.unrepaired]
        assert fsck_sharded_root(tmp_path).clean
        assert read_manifest(tmp_path) == ShardManifest(shards=3, layout_epoch=1)

    def test_duplicate_instance_is_flagged(self, tmp_path):
        build_reshard_root(tmp_path, seed=3)
        reshard(tmp_path, 3)
        name = sorted(reshard_placements(3))[0]
        home = ring_home(name, 3)
        source = tmp_path / f"shard-{home}" / f"{name}{INSTANCE_SUFFIX}"
        target = tmp_path / f"shard-{(home + 1) % 3}" / source.name
        target.write_text(source.read_text(encoding="utf-8"), encoding="utf-8")
        report = fsck_sharded_root(tmp_path)
        (finding,) = [f for f in report.findings if f.code == "FS133"]
        assert name in finding.path
        assert reshard_command(tmp_path, 3) in finding.action

    def test_missing_shard_dir_and_bad_manifest(self, tmp_path):
        build_reshard_root(tmp_path, seed=3)
        reshard(tmp_path, 3)
        # Remove a shard directory the manifest names.
        victim = tmp_path / "shard-2"
        for child in victim.iterdir():
            child.unlink()
        victim.rmdir()
        report = fsck_sharded_root(tmp_path, repair=True)
        assert any(f.code == "FS134" and f.repaired for f in report.findings)
        assert victim.is_dir()
        # An undecodable manifest is refused, never guessed around.
        (tmp_path / "shards.json").write_text("{not json", encoding="utf-8")
        report = fsck_sharded_root(tmp_path)
        assert [f.code for f in report.findings] == ["FS130"]
        assert report.unrepaired

    def test_cli_shards_flag(self, tmp_path, capsys):
        from repro.storage.fsck import main

        build_reshard_root(tmp_path, seed=3)
        reshard(tmp_path, 3)
        assert main(["fsck", str(tmp_path), "--shards", "--json"]) == 0
        payload = json.loads(capsys.readouterr().out)
        assert payload["clean"] is True


# ----------------------------------------------------------------------
# The ring
# ----------------------------------------------------------------------
@settings(max_examples=4, deadline=None)
@given(shards=st.integers(min_value=2, max_value=8))
def test_grow_by_one_moves_about_one_over_n_plus_one(shards):
    names = [f"bulk-{i}" for i in range(2000)]
    old = build_ring(shards, DEFAULT_VNODES)
    new = build_ring(shards + 1, DEFAULT_VNODES)
    moved = sum(ring_owner(*old, name) != ring_owner(*new, name) for name in names)
    fraction = moved / len(names)
    ideal = 1.0 / (shards + 1)
    # Generous band: vnode placement is hash-random, not perfectly
    # balanced, but nowhere near the ~100% a naive mod-N scheme moves.
    assert 0.4 * ideal <= fraction <= 2.5 * ideal, (
        f"{fraction:.3f} moved, ideal {ideal:.3f}"
    )
