"""Kill-at-every-fault-point crash sweep for the storage layer.

The write-ahead journal (:mod:`repro.storage.journal`) claims that a
process dying at *any* point of a catalog operation leaves a
directory that replay-on-open brings back to a consistent state.  This
harness makes that claim empirical instead of rhetorical:

1. **Profile** — run a fixed catalog op cycle (saves, a re-save, a
   drop, a quarantine) once in-process with a counting injector to
   learn how many times each registered storage fault point
   (:data:`repro.resilience.faults.STORAGE_FAULT_POINTS`) is visited.
2. **Sweep** — for every ``(site, visit)`` pair, spawn a sacrificial
   subprocess that re-runs the same cycle with a ``"crash"`` fault spec
   (``SIGKILL``, no unwinding, no flushing — a power cut) armed at
   exactly that visit, and assert the child died to the kill.
3. **Verify** — reopen the directory (which replays the journal) and
   assert the recovery contract: every surviving instance loads
   checksum-clean, the generation counter never went backwards, and
   ``python -m repro.storage fsck`` has zero findings left.

Run it directly::

    python -m repro.resilience.crashsweep --seed 11

``--mode reshard`` sweeps the *offline reshard* instead
(:func:`repro.server.layout.reshard`): setup builds a 2-shard root and
parks one name off its hash home, then a 2 → 3 reshard runs; the child
is killed at every visit of every
:data:`repro.resilience.faults.RESHARD_FAULT_POINTS` point and of every
storage fault point the reshard itself visits (setup excluded).
Verification reruns the reshard — the whole crash contract — and
asserts the manifest says 3 shards with no marker, every name sits only
on its 3-ring home with unchanged content, and ``fsck --shards`` is
clean.

The CI ``crash-sweep`` / ``reshard-sweep`` jobs run this across a
seed matrix; a tier-1 test sweeps a subset of sites so regressions
surface locally too.
"""

from __future__ import annotations

import argparse
import json
import os
import subprocess
import sys
import tempfile
from collections.abc import Callable
from dataclasses import dataclass
from pathlib import Path

from repro.resilience.faults import (
    RESHARD_FAULT_POINTS,
    STORAGE_FAULT_POINTS,
    FaultInjector,
    FaultSpec,
)

#: Subprocess wall-clock limit per kill (the cycle itself takes < 1 s).
CHILD_TIMEOUT_S = 120.0


@dataclass(frozen=True)
class CrashOutcome:
    """The result of one kill: where, which visit, and what recovery found."""

    site: str
    visit: int
    killed: bool
    recovered: bool
    detail: str = ""

    @property
    def ok(self) -> bool:
        return self.killed and self.recovered

    def as_dict(self) -> dict[str, object]:
        return {
            "site": self.site,
            "visit": self.visit,
            "killed": self.killed,
            "recovered": self.recovered,
            "ok": self.ok,
            "detail": self.detail,
        }


# ----------------------------------------------------------------------
# The catalog op cycle under test
# ----------------------------------------------------------------------
def run_cycle(directory: Path) -> None:
    """A deterministic cycle covering every journaled operation kind.

    Saves two instances, re-saves one after a mutation, drops one,
    then plants out-of-band corruption and triggers the quarantine
    path.  Every storage fault point fires at least once along the way.
    """
    from repro.paper import example52_instance, figure2_instance
    from repro.storage.database import Database, DatabaseError

    db = Database(directory, on_corrupt="quarantine")
    db.register("alpha", figure2_instance())
    db.save("alpha")
    db.register("beta", example52_instance())
    db.save("beta")
    db.register("alpha", db.get("alpha"), replace=True)
    db.save("alpha")
    db.drop("beta")
    db.register("gamma", example52_instance())
    db.save("gamma")
    # Plant corruption the way bit rot would: mutate the data file's
    # body behind the codec's back, so it no longer matches its header.
    gamma = directory / "gamma.pxml.json"
    gamma.write_text(
        gamma.read_text(encoding="utf-8") + " ", encoding="utf-8"
    )
    # reload() re-reads from disk unconditionally, hits the checksum
    # mismatch, and quarantines.
    try:
        db.reload("gamma")
    except DatabaseError:
        pass  # expected: corrupt → quarantined


def profile_visits(seed: int) -> dict[str, int]:
    """How many times a clean cycle visits each storage fault point."""
    specs = [
        FaultSpec(site=site, kind="slow", times=0)
        for site in STORAGE_FAULT_POINTS
    ]
    with tempfile.TemporaryDirectory(prefix="crashsweep-profile-") as tmp:
        injector = FaultInjector(*specs, seed=seed)
        with injector:
            run_cycle(Path(tmp))
        return injector.visit_counts()


# ----------------------------------------------------------------------
# The reshard under test (--mode reshard)
# ----------------------------------------------------------------------
#: Every site the reshard sweep kills at.
RESHARD_SWEEP_POINTS = RESHARD_FAULT_POINTS + STORAGE_FAULT_POINTS


def reshard_placements(seed: int) -> dict[str, int]:
    """Deterministic ``name -> old shard`` placements for the reshard.

    Eight seed-derived names over a 2-shard layout: four whose 3-ring
    home matches their 2-ring home (must *not* travel), three whose
    home changes (must travel), and one parked *off* its 2-ring home
    whose 3-ring home differs from where it sits (an overlay stray the
    reshard must bring home).  Both the child and the verifier
    recompute this from the seed alone.
    """
    from repro.server.layout import DEFAULT_VNODES, build_ring, ring_owner

    pos2, own2 = build_ring(2, DEFAULT_VNODES)
    pos3, own3 = build_ring(3, DEFAULT_VNODES)
    placements: dict[str, int] = {}
    stayers = movers = 0
    stray_placed = False
    index = 0
    while (stayers < 4 or movers < 3 or not stray_placed) and index < 10_000:
        name = f"inst-{seed}-{index}"
        index += 1
        home2 = ring_owner(pos2, own2, name)
        home3 = ring_owner(pos3, own3, name)
        if not stray_placed and home3 != 1 - home2:
            placements[name] = 1 - home2
            stray_placed = True
        elif home2 == home3 and stayers < 4:
            placements[name] = home2
            stayers += 1
        elif home2 != home3 and movers < 3:
            placements[name] = home2
            movers += 1
    return placements


def reshard_originals(seed: int) -> dict[str, str]:
    """``name -> serialized instance`` the setup saves for each name."""
    from repro.io.json_codec import dumps
    from repro.paper import example52_instance, figure2_instance

    return {
        name: dumps(figure2_instance() if position % 2 else example52_instance())
        for position, name in enumerate(sorted(reshard_placements(seed)))
    }


def build_reshard_root(directory: Path, seed: int) -> None:
    """A 2-shard root holding :func:`reshard_placements`' names."""
    from repro.io.json_codec import loads
    from repro.server.layout import ShardManifest, write_manifest
    from repro.storage.database import Database

    directory.mkdir(parents=True, exist_ok=True)
    write_manifest(directory, ShardManifest(shards=2))
    placements = reshard_placements(seed)
    for name, payload in reshard_originals(seed).items():
        db = Database(directory / f"shard-{placements[name]}")
        db.register(name, loads(payload))
        db.save(name)


def profile_reshard_visits(seed: int) -> dict[str, int]:
    """How many times a clean 2 → 3 reshard visits each swept point."""
    from repro.server.layout import reshard

    specs = [
        FaultSpec(site=site, kind="slow", times=0)
        for site in RESHARD_SWEEP_POINTS
    ]
    with tempfile.TemporaryDirectory(prefix="crashsweep-profile-") as tmp:
        build_reshard_root(Path(tmp), seed)
        injector = FaultInjector(*specs, seed=seed)
        with injector:
            reshard(tmp, 3)
        return injector.visit_counts()


# ----------------------------------------------------------------------
# Child process: run the cycle with a crash armed
# ----------------------------------------------------------------------
def child_main(
    directory: Path, site: str, visit: int, seed: int,
    mode: str = "storage",
) -> int:
    """Run the cycle with a SIGKILL armed at ``(site, visit)``.

    Normally never returns (the kill fires mid-cycle); returns 0 when
    the armed visit was never reached — which the parent treats as a
    sweep failure, because profiling said it would be.
    """
    spec = FaultSpec(site=site, kind="crash", nth=visit, times=1)
    if mode == "reshard":
        from repro.server.layout import reshard

        build_reshard_root(directory, seed)
        with FaultInjector(spec, seed=seed):
            reshard(directory, 3)
        return 0
    with FaultInjector(spec, seed=seed):
        run_cycle(directory)
    return 0


def spawn_child(
    directory: Path, site: str, visit: int, seed: int,
    mode: str = "storage",
) -> subprocess.CompletedProcess[str]:
    """Run the sacrificial child for one ``(site, visit)`` kill."""
    command = [
        sys.executable, "-m", "repro.resilience.crashsweep",
        "--child", "--directory", str(directory), "--mode", mode,
        "--site", site, "--visit", str(visit), "--seed", str(seed),
    ]
    return subprocess.run(
        command,
        capture_output=True,
        text=True,
        timeout=CHILD_TIMEOUT_S,
        env=os.environ.copy(),
    )


# ----------------------------------------------------------------------
# Recovery verification
# ----------------------------------------------------------------------
def verify_recovery(directory: Path) -> tuple[bool, str]:
    """Reopen a crashed directory and check the recovery contract.

    Returns ``(ok, detail)``: every instance loads checksum-clean, the
    generation counter is monotone across replay, and fsck reports
    nothing left to repair.
    """
    from repro.storage.database import Database, DatabaseError
    from repro.storage.fsck import fsck_directory
    from repro.storage.locking import GENERATION_NAME, read_generation

    problems: list[str] = []
    before = read_generation(directory / GENERATION_NAME)
    db = Database(directory, on_corrupt="quarantine")  # replays the journal
    # A crash can leave damage indistinguishable from bit rot (e.g. a
    # kill right before a quarantine's begin record): fsck --repair
    # must absorb all of it — quarantining evidence, never deleting
    # data — with nothing left unrepaired.
    repair = fsck_directory(directory, repair=True)
    if repair.unrepaired:
        problems.append(
            "unrepaired fsck findings: " + "; ".join(
                f"{f.code} {f.path}" for f in repair.unrepaired
            )
        )
    for name in db.names():
        try:
            db.get(name)
        except DatabaseError as exc:
            problems.append(f"{name} not checksum-clean: {exc}")
    after = db.generation()
    if after < before:
        problems.append(f"generation went backwards: {before} -> {after}")
    committed = 0
    if db.journal is not None:
        committed = db.journal.committed_generation()
    if after < committed:
        problems.append(
            f"generation {after} behind journal's committed {committed}"
        )
    report = fsck_directory(directory)
    if not report.clean:
        problems.append(
            "fsck still reports findings after repair: " + "; ".join(
                f"{f.code} {f.path}" for f in report.findings
            )
        )
    return (not problems, "; ".join(problems))


def verify_reshard_recovery(directory: Path, seed: int) -> tuple[bool, str]:
    """Check the reshard contract after a kill inside a 2 → 3 reshard.

    Rerunning ``reshard`` is the whole recovery.  After it the manifest
    must say 3 shards with no ``resharding_to`` marker; every expected
    name must sit on *exactly one* shard — its 3-ring home — and decode
    to the instance setup saved; and ``fsck --shards`` must be clean.
    """
    from repro.io.json_codec import dumps
    from repro.server.layout import (
        DEFAULT_VNODES,
        build_ring,
        read_manifest,
        reshard,
        ring_owner,
    )
    from repro.storage.database import Database, DatabaseError
    from repro.storage.fsck import fsck_sharded_root
    from repro.storage.journal import INSTANCE_SUFFIX

    problems: list[str] = []
    reshard(directory, 3)
    manifest = read_manifest(directory)
    if manifest is None or manifest.shards != 3 or manifest.resharding_to is not None:
        problems.append(
            "manifest did not converge to 3 shards without a marker: "
            f"{manifest.as_dict() if manifest else None}"
        )
    positions, owners = build_ring(3, DEFAULT_VNODES)
    for name, original in reshard_originals(seed).items():
        home = ring_owner(positions, owners, name)
        holders = [
            shard for shard in range(3)
            if (directory / f"shard-{shard}" / f"{name}{INSTANCE_SUFFIX}").is_file()
        ]
        if holders != [home]:
            problems.append(f"{name} held by shard(s) {holders}, expected only {home}")
            continue
        try:
            content = dumps(Database(directory / f"shard-{home}").get(name))
        except DatabaseError as exc:
            problems.append(f"shard-{home}/{name} not checksum-clean: {exc}")
            continue
        if content != original:
            problems.append(f"shard-{home}/{name} changed content")
    check = fsck_sharded_root(directory)
    if not check.clean:
        problems.append(
            "fsck --shards reports findings after the rerun: "
            + "; ".join(f"{f.code} {f.path}" for f in check.findings)
        )
    return (not problems, "; ".join(problems))


# ----------------------------------------------------------------------
# The sweep
# ----------------------------------------------------------------------
def _run_sweep(
    chosen: tuple[str, ...],
    counts: dict[str, int],
    seed: int,
    mode: str,
    verify: Callable[[Path], tuple[bool, str]],
    progress: bool,
) -> list[CrashOutcome]:
    """Kill at every visit of every chosen site; verify each recovery."""
    outcomes: list[CrashOutcome] = []
    for site in chosen:
        visits = counts.get(site, 0)
        if visits == 0:
            outcomes.append(CrashOutcome(
                site=site, visit=0, killed=False, recovered=False,
                detail="fault point never visited by the op cycle",
            ))
            continue
        for visit in range(1, visits + 1):
            with tempfile.TemporaryDirectory(
                prefix="crashsweep-"
            ) as tmp:
                directory = Path(tmp)
                proc = spawn_child(directory, site, visit, seed, mode=mode)
                killed = proc.returncode == -9
                if not killed:
                    outcomes.append(CrashOutcome(
                        site=site, visit=visit, killed=False,
                        recovered=False,
                        detail=(
                            f"child exited {proc.returncode} instead of "
                            f"being killed; stderr: {proc.stderr[-400:]}"
                        ),
                    ))
                    continue
                recovered, detail = verify(directory)
                outcomes.append(CrashOutcome(
                    site=site, visit=visit, killed=True,
                    recovered=recovered, detail=detail,
                ))
            if progress:
                last = outcomes[-1]
                status = "ok" if last.ok else f"FAIL ({last.detail})"
                print(f"  kill at {site} visit {visit}: {status}",
                      flush=True)
    return outcomes


def sweep(
    seed: int = 0,
    sites: tuple[str, ...] | None = None,
    progress: bool = False,
) -> list[CrashOutcome]:
    """Kill the op cycle at every visit of every registered fault point.

    Returns one :class:`CrashOutcome` per ``(site, visit)`` kill; the
    sweep passes when every outcome is ``ok``.
    """
    chosen = sites if sites is not None else STORAGE_FAULT_POINTS
    counts = profile_visits(seed)
    return _run_sweep(
        chosen, counts, seed, "storage", verify_recovery, progress
    )


def reshard_sweep(
    seed: int = 0,
    sites: tuple[str, ...] | None = None,
    progress: bool = False,
) -> list[CrashOutcome]:
    """Kill a 2 → 3 reshard at every visit of every point it visits.

    Storage fault points the reshard never visits are skipped (a drop
    never quarantines); every ``reshard.*`` point must be visited.  The
    sweep passes when, after every kill, a rerun converges.
    """
    counts = profile_reshard_visits(seed)
    chosen = sites if sites is not None else tuple(
        site for site in RESHARD_SWEEP_POINTS
        if site in RESHARD_FAULT_POINTS or counts.get(site, 0)
    )
    return _run_sweep(
        chosen, counts, seed, "reshard",
        lambda directory: verify_reshard_recovery(directory, seed),
        progress,
    )


def format_outcomes(outcomes: list[CrashOutcome]) -> str:
    failed = [o for o in outcomes if not o.ok]
    lines = [
        f"crash sweep: {len(outcomes)} kill(s) across "
        f"{len({o.site for o in outcomes})} site(s), "
        f"{len(failed)} failure(s)"
    ]
    for outcome in failed:
        lines.append(
            f"  FAIL {outcome.site} visit {outcome.visit}: "
            f"{outcome.detail}"
        )
    return "\n".join(lines)


def main(argv: list[str] | None = None) -> int:
    parser = argparse.ArgumentParser(
        prog="python -m repro.resilience.crashsweep",
        description="SIGKILL a catalog op cycle at every storage fault "
        "point and verify journal replay recovers",
    )
    parser.add_argument("--seed", type=int, default=0)
    parser.add_argument(
        "--mode", choices=("storage", "reshard"), default="storage",
        help="which protocol to sweep: catalog ops (storage) or an "
        "offline 2 -> 3 reshard (reshard)",
    )
    parser.add_argument(
        "--sites", nargs="*", default=None,
        help="restrict to these fault points (default: all registered)",
    )
    parser.add_argument("--json", action="store_true")
    parser.add_argument(
        "--quiet", action="store_true", help="suppress per-kill progress"
    )
    # Internal: sacrificial child mode.
    parser.add_argument("--child", action="store_true",
                        help=argparse.SUPPRESS)
    parser.add_argument("--directory", default=None, help=argparse.SUPPRESS)
    parser.add_argument("--site", default=None, help=argparse.SUPPRESS)
    parser.add_argument("--visit", type=int, default=1,
                        help=argparse.SUPPRESS)
    args = parser.parse_args(argv)
    if args.child:
        if args.directory is None or args.site is None:
            parser.error("--child needs --directory and --site")
        return child_main(
            Path(args.directory), args.site, args.visit, args.seed,
            mode=args.mode,
        )
    sites = tuple(args.sites) if args.sites else None
    run = reshard_sweep if args.mode == "reshard" else sweep
    outcomes = run(seed=args.seed, sites=sites, progress=not args.quiet)
    if args.json:
        print(json.dumps([o.as_dict() for o in outcomes], indent=2))
    else:
        print(format_outcomes(outcomes))
    return 0 if all(o.ok for o in outcomes) else 1


if __name__ == "__main__":  # pragma: no cover
    sys.exit(main())


__all__ = [
    "CHILD_TIMEOUT_S",
    "CrashOutcome",
    "child_main",
    "format_outcomes",
    "RESHARD_SWEEP_POINTS",
    "build_reshard_root",
    "profile_reshard_visits",
    "profile_visits",
    "reshard_originals",
    "reshard_placements",
    "reshard_sweep",
    "run_cycle",
    "sweep",
    "verify_recovery",
    "verify_reshard_recovery",
]
