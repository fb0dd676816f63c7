"""Crash-consistent, resumable shard-layout migration (live rebalancing).

PR 8 froze the shard count at first start: ``shards.json`` made a
mismatch loud, but actually growing or shrinking a deployment meant
rebuilding the catalog offline.  Consistent hashing makes resharding a
*bounded* migration — only the names whose hash-home moves between the
old and new vnode rings need to travel — and the journal discipline
from PR 9 makes that migration survivable at any instant.  This module
supplies the pieces; :class:`~repro.server.shard.ShardedServer` wires
them into live serving (``resize(n)``), and the crash sweep
(``python -m repro.resilience.crashsweep --mode rebalance``) proves the
crash contract empirically.

**The protocol.**  A resize from N to M shards at layout epoch ``e``:

1. **Plan** — :func:`plan_rebalance` diffs the *actual* placements
   (every name each shard currently serves, which folds in the
   placement overlay) against the new ring: a name moves iff its
   current shard differs from its new-ring home.  The full move list is
   written atomically to ``rebalance.plan.json``; a ``plan`` record
   (epochs, shard counts, plan checksum) is then appended to the
   ``rebalance.journal`` at the catalog root under the root lock.
   Until that record is durable, nothing has happened.
2. **Migrate** — per name, in plan order: append ``move-begin``, copy
   the instance (payload + sidecar, via the destination catalog's own
   journaled save) to the destination shard, append ``move-commit`` —
   the cutover point: reads now resolve on the destination — then
   delete from the source (the source catalog's own journaled drop).
   Every step is idempotent, so resume re-runs the whole sequence:
   moves with a ``move-commit`` skip the copy and only re-ensure the
   source delete.
3. **Finalize** — atomically replace ``shards.json`` with the new
   shard count and ``layout_epoch = e + 1``, append ``done``, and
   truncate the journal.  A crash between the manifest write and the
   ``done`` record converges: resume re-runs finalize, and the
   manifest write is idempotent.

**Crash windows.**  SIGKILL before the ``plan`` record: the resize
never happened (a torn ``rebalance.plan.json`` is overwritten by the
next plan).  Between ``move-begin`` and ``move-commit``: the source is
still authoritative; the destination may hold a stale half-copy that
the resumed copy overwrites.  Between ``move-commit`` and the source
delete: both shards hold the name, but the journal says the
destination owns it — resume (and ``fsck --shards``) re-runs the
delete.  After ``done``: nothing pending, the new epoch is committed.
At no point is a name *served* by two shards: ownership flips exactly
at the durable ``move-commit``.

**Offline vs live.**  The :class:`Rebalancer` executes a plan over a
:class:`ShardAccess` — :class:`DirectoryShardAccess` opens each
``shard-i/`` catalog directly (startup resume, fsck repair, the crash
sweep), while the live server supplies an RPC adapter over its shard
processes plus per-key routing callbacks (dual-check reads, write
fencing).  Both paths write the same journal, so a crashed live
migration is finished offline by the next ``start()``.
"""

from __future__ import annotations

import bisect
import hashlib
import json
from collections.abc import Callable, Mapping
from dataclasses import dataclass
from pathlib import Path
from typing import Protocol

from repro.errors import PXMLError, RebalanceError
from repro.io.json_codec import content_checksum, replace_atomically
from repro.resilience.faults import fault_point
from repro.storage.journal import append_checked, read_checked, rewrite_checked
from repro.storage.locking import CATALOG_LOCK_NAME, shared_lock

#: The shard-layout manifest at the catalog root (versioned, atomically
#: replaced; carries the monotone ``layout_epoch``).
MANIFEST_NAME = "shards.json"

#: The migration journal at the catalog root.
REBALANCE_JOURNAL_NAME = "rebalance.journal"

#: The full move list of the pending plan (bounded journal lines: the
#: journal holds its checksum, not its body).
PLAN_NAME = "rebalance.plan.json"

#: Current ``shards.json`` schema version (2 added ``layout_epoch``).
MANIFEST_VERSION = 2

#: Default virtual nodes per shard on the hash ring.
DEFAULT_VNODES = 64


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

    ``layout_epoch`` is monotone: every completed rebalance bumps it by
    one, so a reader can always tell which of two layouts is newer.
    Legacy v1 manifests (no epoch) parse as epoch 0.
    """

    shards: int
    vnodes: int = DEFAULT_VNODES
    layout_epoch: int = 0

    def as_dict(self) -> dict:
        return {
            "version": MANIFEST_VERSION,
            "shards": self.shards,
            "vnodes": self.vnodes,
            "layout_epoch": self.layout_epoch,
        }


def read_manifest(root: str | Path) -> ShardManifest | None:
    """The root's ``shards.json``, or ``None`` when there is none.

    Raises :class:`~repro.errors.RebalanceError` for a manifest that
    exists but cannot be trusted (unreadable, undecodable, or missing a
    valid shard count) — never guesses a layout.
    """
    path = Path(root) / MANIFEST_NAME
    try:
        text = path.read_text(encoding="utf-8")
    except FileNotFoundError:
        return None
    except OSError as exc:
        raise RebalanceError(f"unreadable shard manifest {path}: {exc}") from exc
    try:
        data = json.loads(text)
    except ValueError as exc:
        raise RebalanceError(f"undecodable shard manifest {path}: {exc}") from exc
    if not isinstance(data, dict):
        raise RebalanceError(f"shard manifest {path} is not an object")
    shards = data.get("shards")
    if not isinstance(shards, int) or shards < 1:
        raise RebalanceError(
            f"shard manifest {path} records no valid shard count"
        )
    vnodes = data.get("vnodes")
    epoch = data.get("layout_epoch")
    return ShardManifest(
        shards=shards,
        vnodes=vnodes if isinstance(vnodes, int) and vnodes >= 1
        else DEFAULT_VNODES,
        layout_epoch=epoch if isinstance(epoch, int) and epoch >= 0 else 0,
    )


def write_manifest(root: str | Path, manifest: ShardManifest) -> None:
    """Atomically replace the root's ``shards.json``."""
    replace_atomically(
        json.dumps(manifest.as_dict(), indent=2, sort_keys=True) + "\n",
        Path(root) / MANIFEST_NAME,
    )


# ----------------------------------------------------------------------
# Plan
# ----------------------------------------------------------------------
@dataclass(frozen=True)
class Move:
    """One name's migration: from its current shard to its new home."""

    name: str
    source: int
    dest: int

    def as_dict(self) -> dict:
        return {"name": self.name, "source": self.source, "dest": self.dest}


@dataclass(frozen=True)
class RebalancePlan:
    """Exactly the moves a layout change requires, plus its epochs."""

    old_shards: int
    new_shards: int
    vnodes: int
    from_epoch: int
    moves: tuple[Move, ...]

    @property
    def to_epoch(self) -> int:
        return self.from_epoch + 1

    def as_dict(self) -> dict:
        return {
            "old_shards": self.old_shards,
            "new_shards": self.new_shards,
            "vnodes": self.vnodes,
            "from_epoch": self.from_epoch,
            "to_epoch": self.to_epoch,
            "moves": [move.as_dict() for move in self.moves],
        }

    def to_json(self) -> str:
        return json.dumps(self.as_dict(), sort_keys=True, indent=1) + "\n"

    @classmethod
    def from_dict(cls, data: dict) -> "RebalancePlan":
        try:
            moves = tuple(
                Move(
                    name=str(m["name"]),
                    source=int(m["source"]),
                    dest=int(m["dest"]),
                )
                for m in data["moves"]
            )
            return cls(
                old_shards=int(data["old_shards"]),
                new_shards=int(data["new_shards"]),
                vnodes=int(data["vnodes"]),
                from_epoch=int(data["from_epoch"]),
                moves=moves,
            )
        except (KeyError, TypeError, ValueError) as exc:
            raise RebalanceError(f"malformed rebalance plan: {exc}") from exc


def plan_rebalance(
    placements: Mapping[str, int],
    old_shards: int,
    new_shards: int,
    vnodes: int = DEFAULT_VNODES,
    from_epoch: int = 0,
) -> RebalancePlan:
    """Diff actual placements against the new ring.

    ``placements`` maps every served name to the shard that currently
    holds it — the ring answer for hash-home names *and* the overlay
    answer for derived results parked off-home.  A name moves iff its
    current shard differs from its new-ring home, which makes the plan
    self-healing: overlay strays are brought home by the next resize,
    and names already where the new ring wants them never travel.
    """
    if old_shards < 1 or new_shards < 1:
        raise RebalanceError(
            f"shard counts must be >= 1 (got {old_shards} -> {new_shards})"
        )
    positions, owners = build_ring(new_shards, vnodes)
    moves = []
    for name in sorted(placements):
        current = placements[name]
        if not 0 <= current < old_shards:
            raise RebalanceError(
                f"placement of {name!r} on shard {current} is outside the "
                f"old layout of {old_shards} shard(s)"
            )
        home = ring_owner(positions, owners, name)
        if home != current:
            moves.append(Move(name=name, source=current, dest=home))
    return RebalancePlan(
        old_shards=old_shards,
        new_shards=new_shards,
        vnodes=vnodes,
        from_epoch=from_epoch,
        moves=tuple(moves),
    )


# ----------------------------------------------------------------------
# Journal
# ----------------------------------------------------------------------
class RebalanceJournal:
    """The migration journal at a sharded catalog root.

    Same record discipline as the catalog journal (crc-stamped JSONL,
    fsynced appends, prefix-consistent reads via
    :func:`repro.storage.journal.read_checked`); callers hold the root
    catalog lock across appends.  Record states::

        plan         epochs + shard counts + checksum of rebalance.plan.json
        move-begin   name/source/dest: the copy is about to start
        move-commit  the cutover point: the destination now owns the name
        done         the manifest carries to_epoch; nothing is pending
    """

    def __init__(self, root: str | Path) -> None:
        self.root = Path(root)
        self.path = self.root / REBALANCE_JOURNAL_NAME

    def read(self) -> tuple[list[dict], bool]:
        return read_checked(self.path)

    def truncate_to(self, records: list[dict]) -> None:
        rewrite_checked(
            self.path,
            [{k: v for k, v in r.items() if k != "crc"} for r in records],
        )

    def append(self, state: str, **fields: object) -> None:
        record: dict[str, object] = {"state": state, **fields}
        append_checked(self.path, record)

    # -- state extraction over a read() prefix --------------------------
    @staticmethod
    def pending_plan(records: list[dict]) -> dict | None:
        """The last ``plan`` record not yet resolved by a ``done``."""
        pending: dict | None = None
        for record in records:
            if record.get("state") == "plan":
                pending = record
            elif record.get("state") == "done":
                pending = None
        return pending

    @staticmethod
    def committed_names(records: list[dict]) -> set[str]:
        """Names whose cutover committed after the last ``plan``."""
        committed: set[str] = set()
        for record in records:
            state = record.get("state")
            if state in ("plan", "done"):
                committed = set()
            elif state == "move-commit":
                name = record.get("name")
                if isinstance(name, str):
                    committed.add(name)
        return committed


# ----------------------------------------------------------------------
# Shard access (offline vs live)
# ----------------------------------------------------------------------
class ShardAccess(Protocol):
    """What the :class:`Rebalancer` needs from a shard deployment."""

    def fetch(self, shard: int, name: str) -> str:
        """The serialized JSON of ``name`` from shard ``shard``."""
        ...

    def store(self, shard: int, name: str, payload: str) -> None:
        """Durably (re)place ``name`` on shard ``shard`` (idempotent)."""
        ...

    def delete(self, shard: int, name: str) -> None:
        """Remove ``name`` from shard ``shard``; a no-op when absent."""
        ...


class DirectoryShardAccess:
    """Offline :class:`ShardAccess`: open each ``shard-i/`` catalog
    directly.  Every store/delete goes through the shard catalog's own
    write-ahead journal, so the individual steps of a migration are
    themselves crash-consistent."""

    def __init__(self, root: str | Path) -> None:
        self.root = Path(root)
        self._databases: dict[int, object] = {}

    def database(self, shard: int):
        from repro.storage.database import Database

        db = self._databases.get(shard)
        if db is None:
            directory = self.root / f"shard-{shard}"
            directory.mkdir(parents=True, exist_ok=True)
            db = Database(directory)
            self._databases[shard] = db
        return db

    def fetch(self, shard: int, name: str) -> str:
        from repro.io.json_codec import dumps

        return dumps(self.database(shard).get(name))

    def store(self, shard: int, name: str, payload: str) -> None:
        from repro.io.json_codec import loads

        db = self.database(shard)
        db.register(name, loads(payload), replace=True)
        db.save(name)

    def delete(self, shard: int, name: str) -> None:
        db = self.database(shard)
        if name in db.names():
            db.drop(name)


# ----------------------------------------------------------------------
# Status
# ----------------------------------------------------------------------
@dataclass
class RebalanceStatus:
    """A live (mutable) progress snapshot of one migration."""

    state: str = "idle"      # idle|planning|migrating|finalizing|done|failed
    from_epoch: int = 0
    to_epoch: int = 0
    old_shards: int = 0
    new_shards: int = 0
    total_moves: int = 0
    completed_moves: int = 0
    resumed: bool = False
    error: str = ""

    def as_dict(self) -> dict:
        return {
            "state": self.state,
            "from_epoch": self.from_epoch,
            "to_epoch": self.to_epoch,
            "old_shards": self.old_shards,
            "new_shards": self.new_shards,
            "total_moves": self.total_moves,
            "completed_moves": self.completed_moves,
            "resumed": self.resumed,
            "error": self.error,
        }


# ----------------------------------------------------------------------
# The rebalancer
# ----------------------------------------------------------------------
class Rebalancer:
    """Execute (or resume) one :class:`RebalancePlan` to completion.

    Every step is idempotent and journaled-before-acted, so calling
    :meth:`execute` again after a crash at *any* point converges to the
    same final state.  ``on_phase(name, phase)`` — phases ``"copying"``,
    ``"committed"``, ``"done"`` — lets a live router flip per-key
    routing exactly at the durable cutover; offline callers omit it.
    """

    def __init__(
        self,
        root: str | Path,
        access: ShardAccess,
        on_phase: Callable[[str, str], None] | None = None,
        status: RebalanceStatus | None = None,
    ) -> None:
        self.root = Path(root)
        self.access = access
        self.journal = RebalanceJournal(self.root)
        self.on_phase = on_phase
        self.status = status if status is not None else RebalanceStatus()
        self._lock = shared_lock(self.root / CATALOG_LOCK_NAME)

    def _phase(self, name: str, phase: str) -> None:
        if self.on_phase is not None:
            self.on_phase(name, phase)

    def execute(self, plan: RebalancePlan) -> RebalanceStatus:
        """Run ``plan`` (fresh or resumed) through to the new epoch."""
        status = self.status
        status.state = "planning"
        status.from_epoch = plan.from_epoch
        status.to_epoch = plan.to_epoch
        status.old_shards = plan.old_shards
        status.new_shards = plan.new_shards
        status.total_moves = len(plan.moves)
        records, torn = self.journal.read()
        if torn:
            self.journal.truncate_to(records)
        pending = self.journal.pending_plan(records)
        if pending is None:
            # Fresh start: the plan body goes durable first, then the
            # journal record that makes the migration real.
            plan_text = plan.to_json()
            replace_atomically(plan_text, self.root / PLAN_NAME)
            with self._lock:
                self.journal.append(
                    "plan",
                    from_epoch=plan.from_epoch,
                    to_epoch=plan.to_epoch,
                    old_shards=plan.old_shards,
                    new_shards=plan.new_shards,
                    vnodes=plan.vnodes,
                    moves=len(plan.moves),
                    plan_checksum=content_checksum(plan_text),
                )
            committed: set[str] = set()
        else:
            if pending.get("to_epoch") != plan.to_epoch:
                raise RebalanceError(
                    f"journal has a pending migration to epoch "
                    f"{pending.get('to_epoch')} but this plan targets "
                    f"{plan.to_epoch}"
                )
            status.resumed = True
            committed = self.journal.committed_names(records)
        fault_point("rebalance.plan")
        status.state = "migrating"
        for move in plan.moves:
            if move.name in committed:
                # The cutover already committed: the destination owns
                # the name; only the source delete may be outstanding.
                self._phase(move.name, "committed")
                self._finish_move(move)
            else:
                self._migrate(move)
            status.completed_moves += 1
        status.state = "finalizing"
        self._finalize(plan)
        status.state = "done"
        return status

    def _migrate(self, move: Move) -> None:
        # Fence writes to the key *before* the begin record is durable:
        # a write that lands on the source after the copy read it would
        # silently vanish at cutover.
        self._phase(move.name, "copying")
        with self._lock:
            self.journal.append(
                "move-begin",
                name=move.name, source=move.source, dest=move.dest,
            )
        fault_point("rebalance.move.begin")
        try:
            payload = self.access.fetch(move.source, move.name)
        except PXMLError:
            # The name vanished between planning and now (a concurrent
            # DROP before the fence went up).  Commit the move as
            # content-free: the destination never receives it and the
            # source delete below is a no-op.
            payload = None
        if payload is not None:
            self.access.store(move.dest, move.name, payload)
        fault_point("rebalance.copy")
        with self._lock:
            self.journal.append("move-commit", name=move.name)
        self._phase(move.name, "committed")
        fault_point("rebalance.move.commit")
        self._finish_move(move)

    def _finish_move(self, move: Move) -> None:
        self.access.delete(move.source, move.name)
        fault_point("rebalance.delete")
        self._phase(move.name, "done")

    def _finalize(self, plan: RebalancePlan) -> None:
        fault_point("rebalance.manifest")
        write_manifest(
            self.root,
            ShardManifest(
                shards=plan.new_shards,
                vnodes=plan.vnodes,
                layout_epoch=plan.to_epoch,
            ),
        )
        with self._lock:
            self.journal.append("done", to_epoch=plan.to_epoch)
        fault_point("rebalance.done")
        # The migration is fully resolved: compact the journal and drop
        # the plan body.  A crash in here re-runs finalize to the same
        # end state (the manifest write and these cleanups are
        # idempotent, and a second ``done`` record is harmless).
        self.journal.truncate_to([])
        (self.root / PLAN_NAME).unlink(missing_ok=True)


# ----------------------------------------------------------------------
# Resume
# ----------------------------------------------------------------------
def pending_rebalance(root: str | Path) -> RebalancePlan | None:
    """The plan of an unfinished migration at ``root``, or ``None``.

    Truncates a torn journal tail as a side effect (under the root
    lock).  Raises :class:`~repro.errors.RebalanceError` when the
    journal names a pending plan whose body is missing or does not
    match the journaled checksum — a state that cannot happen through
    this module's own protocol and must not be guessed around.
    """
    root = Path(root)
    journal = RebalanceJournal(root)
    records, torn = journal.read()
    if torn:
        with shared_lock(root / CATALOG_LOCK_NAME):
            journal.truncate_to(records)
    pending = journal.pending_plan(records)
    if pending is None:
        return None
    plan_path = root / PLAN_NAME
    try:
        plan_text = plan_path.read_text(encoding="utf-8")
    except OSError as exc:
        raise RebalanceError(
            f"rebalance journal names a pending migration but its plan "
            f"{plan_path} is unreadable: {exc}"
        ) from exc
    checksum = pending.get("plan_checksum")
    if (
        isinstance(checksum, str)
        and content_checksum(plan_text) != checksum
    ):
        raise RebalanceError(
            f"rebalance plan {plan_path} does not match the journaled "
            "checksum"
        )
    try:
        data = json.loads(plan_text)
    except ValueError as exc:
        raise RebalanceError(
            f"rebalance plan {plan_path} is undecodable: {exc}"
        ) from exc
    if not isinstance(data, dict):
        raise RebalanceError(f"rebalance plan {plan_path} is not an object")
    return RebalancePlan.from_dict(data)


def resume_rebalance(
    root: str | Path, access: ShardAccess | None = None
) -> RebalanceStatus | None:
    """Finish a torn migration at ``root``; ``None`` when none pending.

    The recovery entry point: ``ShardedServer.start()`` calls it before
    spawning shard processes, ``fsck --shards --repair`` calls it for a
    root with an unresolved rebalance journal, and the crash sweep
    calls it after every kill.  Never restarts a migration from
    scratch — committed moves keep their destination, uncommitted ones
    re-copy from the still-authoritative source.
    """
    plan = pending_rebalance(root)
    if plan is None:
        return None
    rebalancer = Rebalancer(
        root, access if access is not None else DirectoryShardAccess(root)
    )
    rebalancer.status.resumed = True
    return rebalancer.execute(plan)


__all__ = [
    "DEFAULT_VNODES",
    "DirectoryShardAccess",
    "MANIFEST_NAME",
    "MANIFEST_VERSION",
    "Move",
    "PLAN_NAME",
    "REBALANCE_JOURNAL_NAME",
    "RebalanceJournal",
    "RebalancePlan",
    "RebalanceStatus",
    "Rebalancer",
    "ShardAccess",
    "ShardManifest",
    "build_ring",
    "hash_position",
    "pending_rebalance",
    "plan_rebalance",
    "read_manifest",
    "resume_rebalance",
    "ring_owner",
    "write_manifest",
]
