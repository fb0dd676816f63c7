"""Catalog consistency checker (``python -m repro.storage fsck``).

Verifies everything the durability machinery promises: every instance
file matches the checksum in its header line, no stale tmp file
survived a crash, the write-ahead journal parses to a clean prefix with
no unresolved operations, and the generation counter is not behind the
journal's committed high-water mark.  With ``--repair`` each finding is
fixed the same way replay-on-open would fix it — roll forward what
provably completed, quarantine what cannot be explained, delete only
derived artifacts (leftover sidecars, tmp files), never instance data.
A catalog saved before the header (headerless files, each verified by a
``.sha256`` sidecar) converges in one ``--repair``: FS102, then FS103.

Finding codes:

=======  ==============================================================
FS101    data file does not match its header → quarantine (repair)
FS102    data file has no header → save it through the catalog if it
         reads back verified, else quarantine
FS103    leftover sidecar (its data file has a header or is gone) →
         remove
FS104    data file undecodable (even with a matching header) → quarantine
FS110    stale ``*.tmp`` from an interrupted atomic write → remove
FS120    torn journal tail (half-written / corrupt records) → truncate
FS121    journal operation begun but never committed/aborted → replay
FS122    generation counter behind the journal's committed max → advance
=======  ==============================================================

With ``--shards`` the target is a *sharded* catalog root: the manifest
(``shards.json``) and every ``shard-i/`` sub-catalog are audited in one
invocation (per-shard findings carry a ``shard-i/`` path prefix).
Sharded-mode finding codes:

=======  ==============================================================
FS130    shard manifest missing/unreadable/invalid → manual (unrepaired)
FS132    interrupted reshard (a ``resharding_to`` marker, or an older
         version's ``rebalance.journal``) → finish it by rerunning
FS133    name present in more than one shard directory → rerun
         ``reshard`` (unrepaired)
FS134    shard directory named by the manifest is missing → create it
=======  ==============================================================
"""

from __future__ import annotations

import argparse
import json
import sys
from dataclasses import dataclass, field
from pathlib import Path

from repro.errors import CodecError, CorruptInstanceError
from repro.io.json_codec import (
    content_checksum,
    header_digest,
    loads,
    read_instance,
    replace_atomically,
    split_header,
)
from repro.storage.database import Database
from repro.storage.journal import (
    INSTANCE_SUFFIX,
    JOURNAL_NAME,
    Journal,
    quarantine_move,
    recover_directory,
)
from repro.storage.locking import (
    CATALOG_LOCK_NAME,
    GENERATION_NAME,
    read_generation,
    shared_lock,
)


@dataclass(frozen=True)
class Finding:
    """One fsck finding, with what (if anything) was done about it."""

    code: str           # "FS1xx" per the table above
    path: str           # file the finding is about (relative to the catalog)
    message: str
    repaired: bool = False
    action: str = ""    # what --repair did (or would do)

    def as_dict(self) -> dict:
        return {
            "code": self.code,
            "path": self.path,
            "message": self.message,
            "repaired": self.repaired,
            "action": self.action,
        }


@dataclass
class FsckReport:
    """The result of one fsck pass."""

    directory: str
    findings: list[Finding] = field(default_factory=list)
    checked_instances: int = 0
    repair: bool = False

    @property
    def clean(self) -> bool:
        return not self.findings

    @property
    def unrepaired(self) -> list[Finding]:
        return [f for f in self.findings if not f.repaired]

    def as_dict(self) -> dict:
        return {
            "directory": self.directory,
            "checked_instances": self.checked_instances,
            "repair": self.repair,
            "clean": self.clean,
            "findings": [f.as_dict() for f in self.findings],
            "unrepaired": len(self.unrepaired),
        }


#: Catalog-infrastructure files an fsck pass must not flag.
_INFRA = (CATALOG_LOCK_NAME, GENERATION_NAME, JOURNAL_NAME)


def fsck_directory(directory: str | Path, repair: bool = False) -> FsckReport:
    """Check (and with ``repair=True`` fix) one catalog directory.

    Takes the catalog's cross-process lock for the whole pass, so a
    concurrent writer can never race the repairs.
    """
    directory = Path(directory)
    report = FsckReport(directory=str(directory), repair=repair)
    if not directory.is_dir():
        report.findings.append(
            Finding("FS100", str(directory), "not a directory")
        )
        return report
    with shared_lock(directory / CATALOG_LOCK_NAME):
        _check_journal(directory, report)
        _check_tmp_files(directory, report)
        _check_instances(directory, report)
        _check_generation(directory, report)
    return report


def _relative(directory: Path, path: Path) -> str:
    try:
        return str(path.relative_to(directory))
    except ValueError:
        return str(path)


def _check_journal(directory: Path, report: FsckReport) -> None:
    journal = Journal(directory)
    records, torn = journal.read()
    if torn:
        finding = Finding(
            "FS120", JOURNAL_NAME,
            "journal has a torn/corrupt tail",
            repaired=report.repair,
            action="truncate to the last intact record",
        )
        if report.repair:
            journal.truncate_to(records)
        report.findings.append(finding)
    pending = journal.pending(records)
    if pending:
        for record in pending:
            report.findings.append(Finding(
                "FS121", JOURNAL_NAME,
                f"{record.op} of {record.name!r} (seq {record.seq}) "
                "begun but never committed or aborted",
                repaired=report.repair,
                action="replay (roll forward or abort from on-disk state)",
            ))
        if report.repair:
            recover_directory(directory, journal)


def _check_tmp_files(directory: Path, report: FsckReport) -> None:
    for tmp in sorted(directory.glob("*.tmp")):
        if tmp.name in _INFRA:
            continue
        finding = Finding(
            "FS110", _relative(directory, tmp),
            "stale tmp file from an interrupted atomic write",
            repaired=report.repair,
            action="remove",
        )
        if report.repair:
            tmp.unlink(missing_ok=True)
        report.findings.append(finding)


def _instance_files(directory: Path) -> list[Path]:
    return sorted(
        path for path in directory.glob(f"*{INSTANCE_SUFFIX}")
        if path.is_file()
    )


def _check_instances(directory: Path, report: FsckReport) -> None:
    data_files = _instance_files(directory)
    report.checked_instances = len(data_files)
    for path in data_files:
        _check_one_instance(directory, path, report)
    _check_leftover_sidecars(directory, report)


def _check_leftover_sidecars(directory: Path, report: FsckReport) -> None:
    """A legacy ``.sha256`` sidecar whose data file has a header (it was
    saved since) or is gone (dropped or quarantined) verifies nothing."""
    for sidecar in sorted(directory.glob(f"*{INSTANCE_SUFFIX}.sha256")):
        data = sidecar.with_name(sidecar.name[: -len(".sha256")])
        if data.exists() and header_digest(data) is None:
            continue    # still what a headerless file is read against
        finding = Finding(
            "FS103", _relative(directory, sidecar),
            "leftover checksum sidecar",
            repaired=report.repair,
            action="remove",
        )
        if report.repair:
            sidecar.unlink(missing_ok=True)
        report.findings.append(finding)


def _check_one_instance(
    directory: Path, path: Path, report: FsckReport
) -> None:
    try:
        text = path.read_text(encoding="utf-8")
    except OSError as exc:
        report.findings.append(Finding(
            "FS104", _relative(directory, path), f"unreadable data file: {exc}",
            repaired=False, action="quarantine",
        ))
        return
    try:
        recorded, body = split_header(text)
    except CorruptInstanceError:
        recorded, body = "", text   # a malformed header matches no digest
    if recorded is None:
        _check_headerless(directory, path, report)
        return
    if recorded != content_checksum(body):
        _quarantine(directory, path, report, "FS101",
                    "data file does not match its header")
        return
    try:
        loads(body)
    except Exception:
        _quarantine(directory, path, report, "FS104",
                    "data file matches its header but does not decode")


def _check_headerless(directory: Path, path: Path, report: FsckReport) -> None:
    """FS102: a file without a header — a legacy catalog's, or one put
    there by hand.  One journaled save through the catalog writes it."""
    try:
        read_instance(path)
    except (CodecError, OSError):
        _quarantine(directory, path, report, "FS102",
                    "data file has no header and does not read back verified")
        return
    report.findings.append(Finding(
        "FS102", _relative(directory, path), "data file has no header",
        repaired=report.repair,
        action="save it through the catalog (writes the header)",
    ))
    if report.repair:
        Database(directory).save(path.name[: -len(INSTANCE_SUFFIX)])


def _quarantine(
    directory: Path, path: Path, report: FsckReport, code: str, message: str
) -> None:
    """Report a file that cannot be vouched for; ``--repair`` moves it
    into quarantine."""
    report.findings.append(Finding(
        code, _relative(directory, path), message,
        repaired=report.repair, action="quarantine",
    ))
    if report.repair:
        generation = read_generation(directory / GENERATION_NAME)
        quarantine_move(directory, path, generation)


def _check_generation(directory: Path, report: FsckReport) -> None:
    journal = Journal(directory)
    committed = journal.committed_generation()
    current = read_generation(directory / GENERATION_NAME)
    if current >= committed:
        return
    finding = Finding(
        "FS122", GENERATION_NAME,
        f"generation counter at {current}, behind the journal's "
        f"committed {committed}",
        repaired=report.repair,
        action=f"advance to {committed}",
    )
    if report.repair:
        replace_atomically(
            f"{committed}\n", directory / GENERATION_NAME
        )
    report.findings.append(finding)


# ----------------------------------------------------------------------
# Sharded roots (fsck --shards)
# ----------------------------------------------------------------------
def fsck_sharded_root(root: str | Path, repair: bool = False) -> FsckReport:
    """Audit a sharded catalog root in one pass.

    Checks the shard manifest (and an interrupted change of the count),
    every ``shard-i/`` sub-catalog (the full :func:`fsck_directory`
    battery, findings prefixed with the shard path), and cross-shard
    invariants (no name held by two shards).  With ``repair=True`` an
    interrupted reshard is finished by rerunning it.
    """
    # Imported lazily: repro.server.layout builds on repro.storage.
    from repro.errors import PXMLError, ShardConfigError
    from repro.server.layout import (
        legacy_migration_target,
        read_manifest,
        reshard,
        reshard_command,
    )

    root = Path(root)
    report = FsckReport(directory=str(root), repair=repair)
    if not root.is_dir():
        report.findings.append(Finding("FS100", str(root), "not a directory"))
        return report
    with shared_lock(root / CATALOG_LOCK_NAME):
        try:
            manifest = read_manifest(root)
        except ShardConfigError as exc:
            report.findings.append(Finding(
                "FS130", "shards.json", str(exc),
                repaired=False, action="restore the manifest by hand",
            ))
            return report
        if manifest is None:
            report.findings.append(Finding(
                "FS130", "shards.json",
                "sharded root has no shard manifest",
                repaired=False,
                action="reopen with ShardedServer to record the layout",
            ))
            return report

        target = manifest.resharding_to
        if target is None:
            target = legacy_migration_target(root, manifest.shards)
        if target is not None:
            message = f"unfinished change of the shard count to {target}"
            repaired = False
            if report.repair:
                try:
                    reshard(root, target)
                    repaired = True
                except PXMLError as exc:
                    message = f"{message}; the rerun failed: {exc}"
                manifest = read_manifest(root) or manifest
            report.findings.append(Finding(
                "FS132", "shards.json", message, repaired=repaired,
                action=f"finish it: {reshard_command(root, target)}",
            ))

        placements: dict[str, list[int]] = {}
        for index in range(manifest.shards):
            shard_dir = root / f"shard-{index}"
            prefix = f"shard-{index}/"
            if not shard_dir.is_dir():
                finding = Finding(
                    "FS134", f"shard-{index}",
                    "shard directory named by the manifest is missing",
                    repaired=report.repair, action="create it (empty)",
                )
                if report.repair:
                    shard_dir.mkdir(parents=True, exist_ok=True)
                report.findings.append(finding)
                if not shard_dir.is_dir():
                    continue
            sub = fsck_directory(shard_dir, repair=repair)
            report.checked_instances += sub.checked_instances
            report.findings.extend(
                Finding(
                    code=f.code, path=prefix + f.path, message=f.message,
                    repaired=f.repaired, action=f.action,
                )
                for f in sub.findings
            )
            for path in _instance_files(shard_dir):
                name = path.name[: -len(INSTANCE_SUFFIX)]
                placements.setdefault(name, []).append(index)

        for name in sorted(placements):
            shards = placements[name]
            if len(shards) > 1:
                where = ", ".join(f"shard-{s}" for s in shards)
                report.findings.append(Finding(
                    "FS133", f"{name}{INSTANCE_SUFFIX}",
                    f"instance held by {len(shards)} shards ({where})",
                    repaired=False,
                    action=f"rerun {reshard_command(root, manifest.shards)}",
                ))
    return report


# ----------------------------------------------------------------------
# CLI
# ----------------------------------------------------------------------
def format_report(report: FsckReport) -> str:
    lines = [
        f"fsck {report.directory}: {report.checked_instances} instance "
        f"file(s) checked"
    ]
    for finding in report.findings:
        status = (
            "repaired" if finding.repaired
            else ("would " + finding.action if finding.action else "found")
        )
        lines.append(
            f"  {finding.code} {finding.path}: {finding.message} [{status}]"
        )
    if report.clean:
        lines.append("  clean: no findings")
    else:
        lines.append(
            f"  {len(report.findings)} finding(s), "
            f"{len(report.unrepaired)} unrepaired"
        )
    return "\n".join(lines)


def main(argv: list[str] | None = None) -> int:
    parser = argparse.ArgumentParser(
        prog="python -m repro.storage",
        description="catalog maintenance tools",
    )
    sub = parser.add_subparsers(dest="command", required=True)
    fsck = sub.add_parser(
        "fsck", help="verify (and optionally repair) a catalog directory"
    )
    fsck.add_argument("directory", help="catalog directory to check")
    fsck.add_argument(
        "--repair", action="store_true",
        help="fix findings (roll forward / quarantine / clean up)",
    )
    fsck.add_argument(
        "--shards", action="store_true",
        help="treat the directory as a sharded root: audit the manifest "
             "and every shard-i/ sub-catalog",
    )
    fsck.add_argument(
        "--json", action="store_true", help="emit the report as JSON"
    )
    args = parser.parse_args(argv)
    check = fsck_sharded_root if args.shards else fsck_directory
    report = check(args.directory, repair=args.repair)
    if args.json:
        print(json.dumps(report.as_dict(), indent=2))
    else:
        print(format_report(report))
    if report.repair:
        return 0 if not report.unrepaired else 1
    return 0 if report.clean else 1


if __name__ == "__main__":  # pragma: no cover
    sys.exit(main())


__all__ = [
    "Finding",
    "FsckReport",
    "fsck_directory",
    "fsck_sharded_root",
    "format_report",
    "main",
]
