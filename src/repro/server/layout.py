"""The shard layout: the hash ring, the manifest, and the offline reshard.

Names are placed by consistent hashing over a vnode ring whose shape is
fixed by ``(shards, vnodes)``; the root's ``shards.json`` manifest
records both, plus a monotone ``layout_epoch``.  A running
:class:`~repro.server.shard.ShardedServer` never changes the count.

**Changing the count** is :func:`reshard`, run with the server stopped
(``python -m repro.server reshard --directory D --shards N``).  Under
the root catalog lock it

1. **marks** the change: ``shards.json`` gains ``resharding_to: N``, so
   a server started before the change finishes refuses to serve;
2. **moves** every name found in any ``shard-*/`` directory that is off
   its N-ring home: a journaled :meth:`Database.save
   <repro.storage.database.Database.save>` on the home shard, then a
   journaled :meth:`Database.drop
   <repro.storage.database.Database.drop>` on the source;
3. **commits** by rewriting ``shards.json`` as ``{shards: N,
   layout_epoch + 1}`` without the marker, and removes any
   ``rebalance.journal`` / ``rebalance.plan.json`` an older version's
   live migration left behind.

Nothing writes while it runs, so the two copies of a name that exist
between a move's save and its drop are identical, and each step is the
catalog journal's own crash-consistent operation.  That is the whole
crash contract: after a crash at any point, rerun ``reshard`` (with any
count) and it converges.  No second journal is needed.
"""

from __future__ import annotations

import bisect
import hashlib
import json
import re
from dataclasses import dataclass, replace
from pathlib import Path

from repro.errors import ShardConfigError
from repro.io.json_codec import replace_atomically
from repro.resilience.faults import fault_point
from repro.storage.locking import CATALOG_LOCK_NAME, shared_lock

#: The shard-layout manifest at the catalog root (versioned, atomically
#: replaced; carries the monotone ``layout_epoch``).
MANIFEST_NAME = "shards.json"

#: What a torn live migration of an older version left at the root: a
#: non-empty journal is refused by ``start()`` until a reshard removes it
#: (see :func:`legacy_migration_target`).
LEGACY_JOURNAL_NAME = "rebalance.journal"
LEGACY_PLAN_NAME = "rebalance.plan.json"

#: Current ``shards.json`` schema version (2 added ``layout_epoch``).
MANIFEST_VERSION = 2

#: Default virtual nodes per shard on the hash ring.
DEFAULT_VNODES = 64

_SHARD_DIR = re.compile(r"shard-(\d+)")


def hash_position(name: str) -> int:
    """A stable 64-bit ring position for a name (SHA-256 prefix)."""
    digest = hashlib.sha256(name.encode("utf-8")).digest()
    return int.from_bytes(digest[:8], "big")


def build_ring(shards: int, vnodes: int) -> tuple[list[int], list[int]]:
    """``(positions, owners)`` of the vnode ring, sorted by position.

    Deterministic in ``(shards, vnodes)``: every process that knows the
    manifest rebuilds the identical ring, so routing needs no shared
    state beyond ``shards.json``.
    """
    ring = sorted(
        (hash_position(f"vnode:{index}:{vnode}"), index)
        for index in range(shards)
        for vnode in range(vnodes)
    )
    return [position for position, _ in ring], [owner for _, owner in ring]


def ring_owner(positions: list[int], owners: list[int], name: str) -> int:
    """The ring's home shard for ``name`` (successor, with wraparound)."""
    index = bisect.bisect_right(positions, hash_position(name))
    if index == len(positions):
        index = 0
    return owners[index]


# ----------------------------------------------------------------------
# Manifest (shards.json v2)
# ----------------------------------------------------------------------
@dataclass(frozen=True)
class ShardManifest:
    """The durable shard layout: count, vnodes, and layout epoch.

    ``layout_epoch`` is monotone: every committed reshard bumps it by
    one.  ``resharding_to`` is set only while a reshard is in progress
    (or was interrupted).  Legacy v1 manifests (no epoch) parse as
    epoch 0.
    """

    shards: int
    vnodes: int = DEFAULT_VNODES
    layout_epoch: int = 0
    resharding_to: int | None = None

    def as_dict(self) -> dict:
        data: dict[str, object] = {
            "version": MANIFEST_VERSION,
            "shards": self.shards,
            "vnodes": self.vnodes,
            "layout_epoch": self.layout_epoch,
        }
        if self.resharding_to is not None:
            data["resharding_to"] = self.resharding_to
        return data


def read_manifest(root: str | Path) -> ShardManifest | None:
    """The root's ``shards.json``, or ``None`` when there is none.

    Raises :class:`~repro.errors.ShardConfigError` for a manifest that
    exists but cannot be trusted (unreadable, undecodable, or missing a
    valid shard count) — never guesses a layout.
    """
    path = Path(root) / MANIFEST_NAME
    try:
        text = path.read_text(encoding="utf-8")
    except FileNotFoundError:
        return None
    except OSError as exc:
        raise ShardConfigError(f"unreadable shard manifest {path}: {exc}") from exc
    try:
        data = json.loads(text)
    except ValueError as exc:
        raise ShardConfigError(f"undecodable shard manifest {path}: {exc}") from exc
    if not isinstance(data, dict):
        raise ShardConfigError(f"shard manifest {path} is not an object")
    shards = data.get("shards")
    if not isinstance(shards, int) or shards < 1:
        raise ShardConfigError(
            f"shard manifest {path} records no valid shard count"
        )
    vnodes = data.get("vnodes")
    epoch = data.get("layout_epoch")
    target = data.get("resharding_to")
    return ShardManifest(
        shards=shards,
        vnodes=vnodes if isinstance(vnodes, int) and vnodes >= 1
        else DEFAULT_VNODES,
        layout_epoch=epoch if isinstance(epoch, int) and epoch >= 0 else 0,
        resharding_to=target if isinstance(target, int) and target >= 1
        else None,
    )


def write_manifest(root: str | Path, manifest: ShardManifest) -> None:
    """Atomically replace the root's ``shards.json``."""
    replace_atomically(
        json.dumps(manifest.as_dict(), indent=2, sort_keys=True) + "\n",
        Path(root) / MANIFEST_NAME,
    )


def legacy_migration_target(root: str | Path, default: int) -> int | None:
    """The count to reshard to when an older version's live migration
    left a non-empty journal at ``root``, else ``None``.

    That is the ``new_shards`` of its ``rebalance.plan.json`` (``default``
    when the plan cannot be read): a reshard to it ends the migration
    the way the older version's resume did, since a copy it had not
    committed sits off its new home and is copied over again.
    """
    root = Path(root)
    journal = root / LEGACY_JOURNAL_NAME
    if not journal.is_file() or journal.stat().st_size == 0:
        return None
    try:
        plan = json.loads((root / LEGACY_PLAN_NAME).read_text(encoding="utf-8"))
        target = plan["new_shards"]
    except (OSError, ValueError, KeyError, TypeError):
        return default
    return target if isinstance(target, int) and target >= 1 else default


def reshard_command(root: str | Path, shards: int) -> str:
    """The exact command that changes (or finishes changing) the count."""
    return f"python -m repro.server reshard --directory {root} --shards {shards}"


# ----------------------------------------------------------------------
# Offline reshard
# ----------------------------------------------------------------------
def _shard_indexes(root: Path) -> set[int]:
    """The index of every ``shard-<i>/`` directory under ``root``."""
    return {
        int(match.group(1))
        for path in root.glob("shard-*")
        if (match := _SHARD_DIR.fullmatch(path.name)) and path.is_dir()
    }


def reshard(root: str | Path, shards: int) -> int:
    """Move every name in ``root`` to its ``shards``-ring home, offline.

    Returns how many names moved.  Run only while no server serves
    ``root``.  Raises :class:`~repro.errors.ShardConfigError` for a
    count below one or a root with no (or an untrusted) manifest.
    """
    from repro.storage.database import Database

    if shards < 1:
        raise ShardConfigError(
            f"cannot reshard to {shards} shard(s): need at least one",
            configured=shards,
        )
    root = Path(root)
    with shared_lock(root / CATALOG_LOCK_NAME):
        manifest = read_manifest(root)
        if manifest is None:
            raise ShardConfigError(
                f"{root} has no {MANIFEST_NAME}: it is not a sharded root",
                configured=shards,
            )
        write_manifest(root, replace(manifest, resharding_to=shards))
        fault_point("reshard.marked")
        positions, owners = build_ring(shards, manifest.vnodes)
        databases = {
            index: Database(root / f"shard-{index}")
            for index in sorted(_shard_indexes(root) | set(range(shards)))
        }
        moved = 0
        for index, source in databases.items():
            for name in source.names():
                home = ring_owner(positions, owners, name)
                if home == index:
                    continue
                target = databases[home]
                target.register(name, source.get(name), replace=True)
                target.save(name)
                fault_point("reshard.saved")
                source.drop(name)
                fault_point("reshard.dropped")
                moved += 1
        write_manifest(root, ShardManifest(
            shards=shards,
            vnodes=manifest.vnodes,
            layout_epoch=manifest.layout_epoch + 1,
        ))
        fault_point("reshard.committed")
        (root / LEGACY_JOURNAL_NAME).unlink(missing_ok=True)
        (root / LEGACY_PLAN_NAME).unlink(missing_ok=True)
    return moved


__all__ = [
    "DEFAULT_VNODES",
    "LEGACY_JOURNAL_NAME",
    "LEGACY_PLAN_NAME",
    "MANIFEST_NAME",
    "MANIFEST_VERSION",
    "ShardManifest",
    "build_ring",
    "hash_position",
    "legacy_migration_target",
    "read_manifest",
    "reshard",
    "reshard_command",
    "ring_owner",
    "write_manifest",
]
