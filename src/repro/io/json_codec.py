"""JSON (de)serialization of instances.

Disk writes are a *measured component* of the paper's experiments (for
selection they dominate the total query time), so the codec is part of the
system, not an afterthought.  The format is versioned and round-trips
every model feature: ``lch``, explicit ``card``, types, default values,
tabular and independent OPFs, and VPFs.  A file this module writes
starts with one header line carrying the body's SHA-256
(:func:`write_payload`), so a save is one atomic file step.

Leaf values must be JSON-representable scalars (str, int, float, bool).
"""

from __future__ import annotations

import hashlib
import json
import os
import re
from collections.abc import Iterable, Sequence
from pathlib import Path
from typing import Any

from repro.collector import collector_paused
from repro.core.cardinality import CardinalityInterval
from repro.core.compact import IndependentOPF
from repro.core.distributions import (
    ObjectProbabilityFunction,
    TabularOPF,
    TabularVPF,
)
from repro.core.instance import ProbabilisticInstance
from repro.core.interpretation import LocalInterpretation
from repro.core.weak_instance import WeakInstance
from repro.errors import CodecError, CorruptInstanceError
from repro.resilience.faults import fault_point
from repro.semistructured.instance import SemistructuredInstance
from repro.semistructured.types import LeafType, TypeRegistry

FORMAT_PROBABILISTIC = "pxml-probabilistic-instance"
FORMAT_SEMISTRUCTURED = "pxml-semistructured-instance"
VERSION = 1

_SCALARS = (str, int, float, bool)


def _check_scalar(value: Any) -> Any:
    if not isinstance(value, _SCALARS):
        raise CodecError(
            f"value {value!r} is not JSON-serializable (need str/int/float/bool)"
        )
    return value


# ----------------------------------------------------------------------
# Probabilistic instances
# ----------------------------------------------------------------------
def encode_instance(pi: ProbabilisticInstance) -> dict:
    """Encode a probabilistic instance as a JSON-ready dict.

    Types are keyed by name; two different leaf types sharing a name
    raise :class:`CodecError` (:func:`register_type`).
    """
    types: dict[str, LeafType] = {}
    objects: dict[str, dict] = {}
    weak = pi.weak
    for oid in sorted(weak.objects):
        entry: dict[str, Any] = {}
        lch = {
            label: sorted(children)
            for label, children in weak.lch_map(oid).items()
        }
        if lch:
            entry["lch"] = lch
        card = {
            label: [weak.card(oid, label).min, weak.card(oid, label).max]
            for label in weak.labels_of(oid)
            if weak.has_explicit_card(oid, label)
        }
        if card:
            entry["card"] = card
        leaf_type = weak.tau(oid)
        if leaf_type is not None:
            register_type(types, leaf_type)
            entry["type"] = leaf_type.name
        default = weak.val(oid)
        if default is not None:
            entry["val"] = _check_scalar(default)
        opf = pi.opf(oid)
        if opf is not None:
            entry["opf"] = _encode_opf(opf)
        vpf = pi.vpf(oid)
        if vpf is not None:
            entry["vpf"] = [
                [_check_scalar(v), p] for v, p in vpf.to_tabular().items_sorted()
            ]
        objects[oid] = entry
    return {
        "format": FORMAT_PROBABILISTIC,
        "version": VERSION,
        "root": pi.root,
        "types": {
            name: [_check_scalar(v) for v in leaf_type.domain]
            for name, leaf_type in types.items()
        },
        "objects": objects,
    }


def register_type(types: dict[str, LeafType], leaf_type: LeafType) -> None:
    """Key ``leaf_type`` by its name in ``types``, as a file does.

    Raises :class:`CodecError` naming the type when ``types`` already
    holds a different type of that name: the file could keep only one
    of the two domains, and a leaf of the other would come back with a
    domain its value distribution is not over.
    """
    known = types.get(leaf_type.name)
    if known is not None and known != leaf_type:
        raise CodecError(
            f"two leaf types named {leaf_type.name!r} with different domains: "
            f"{list(known.domain)!r} and {list(leaf_type.domain)!r}"
        )
    types[leaf_type.name] = leaf_type


def _encode_opf(opf: ObjectProbabilityFunction) -> dict:
    if isinstance(opf, IndependentOPF):
        return {"kind": "independent", "inclusion": opf.inclusion}
    return {
        "kind": "tabular",
        "entries": [[list(row), p] for row, p in opf.to_tabular().rows_sorted()],
    }


def decode_instance(data: dict) -> ProbabilisticInstance:
    """Decode a dict produced by :func:`encode_instance`."""
    if data.get("format") != FORMAT_PROBABILISTIC:
        raise CodecError(f"unexpected format: {data.get('format')!r}")
    if data.get("version") != VERSION:
        raise CodecError(f"unsupported version: {data.get('version')!r}")
    registry = TypeRegistry(
        LeafType(name, domain) for name, domain in data.get("types", {}).items()
    )
    weak = WeakInstance(data["root"])
    interp = LocalInterpretation()
    objects = data.get("objects", {})
    for oid in objects:
        weak.add_object(oid)
    for oid, entry in objects.items():
        for label, children in entry.get("lch", {}).items():
            weak.set_lch(oid, label, children)
        for label, (low, high) in entry.get("card", {}).items():
            weak.set_card(oid, label, CardinalityInterval(low, high))
        if "type" in entry:
            weak.set_type(oid, registry[entry["type"]])
        if "val" in entry:
            weak.set_val(oid, entry["val"])
        if "opf" in entry:
            interp.set_opf(
                oid, _decode_opf(oid, entry["opf"], entry.get("lch", {}).values())
            )
        if "vpf" in entry:
            interp.set_vpf(oid, TabularVPF({v: p for v, p in entry["vpf"]}))
    return ProbabilisticInstance(weak, interp)


def _decode_opf(
    oid: str, data: dict, lch: Iterable[Iterable[str]]
) -> ObjectProbabilityFunction:
    kind = data.get("kind")
    if kind == "independent":
        return IndependentOPF(data["inclusion"])
    if kind == "tabular":
        return tabular_opf(oid, lch, data["entries"])
    raise CodecError(f"unknown OPF kind: {kind!r}")


def tabular_opf(
    oid: str,
    lch: Iterable[Iterable[str]],
    rows: Sequence[Sequence[Any]],
) -> TabularOPF:
    """``oid``'s tabular OPF from a file's ``(members, probability)``
    rows, each keyed in one pass by its mask over the sorted ids of
    ``oid``'s ``lch`` groups (the weak instance's own strings).  A child
    set listed twice raises :func:`child_set_twice`."""
    groups = list(lch)
    try:
        return _mask_table(oid, groups, rows)
    except KeyError:    # a row names an object outside lch: key by every id
        return _mask_table(oid, [*groups, *(members for members, _p in rows)], rows)


def _mask_table(
    oid: str, groups: list[Iterable[str]], rows: Sequence[Sequence[Any]]
) -> TabularOPF:
    children = tuple(sorted({child for group in groups for child in group}))
    bit = {child: 1 << position for position, child in enumerate(children)}
    masks: dict[int, float] = {}
    for members, probability in rows:
        mask = 0
        for child in members:
            mask |= bit[child]
        if mask in masks:
            raise child_set_twice(oid, frozenset(members))
        masks[mask] = float(probability)
    return TabularOPF.from_masks(children, masks)


def child_set_twice(oid: str, children: frozenset[str]) -> CodecError:
    """The error of a file listing one child set of ``oid``'s tabular
    OPF twice: a dict would keep the last entry, and the OPF would load
    as a different distribution than the file's."""
    return CodecError(
        f"OPF of object {oid!r} lists child set {sorted(children)!r} twice"
    )


# ----------------------------------------------------------------------
# Semistructured instances
# ----------------------------------------------------------------------
def encode_semistructured(instance: SemistructuredInstance) -> dict:
    """Encode an ordinary semistructured instance."""
    types: dict[str, list] = {}
    leaves = []
    for oid, leaf_type, value in sorted(instance.typed_leaves()):
        types[leaf_type.name] = [_check_scalar(v) for v in leaf_type.domain]
        leaves.append([oid, leaf_type.name, _check_scalar(value)])
    return {
        "format": FORMAT_SEMISTRUCTURED,
        "version": VERSION,
        "root": instance.root,
        "objects": sorted(instance.objects),
        "edges": sorted([src, dst, label] for src, dst, label in instance.edges()),
        "types": types,
        "leaves": leaves,
    }


def decode_semistructured(data: dict) -> SemistructuredInstance:
    """Decode a dict produced by :func:`encode_semistructured`."""
    if data.get("format") != FORMAT_SEMISTRUCTURED:
        raise CodecError(f"unexpected format: {data.get('format')!r}")
    registry = TypeRegistry(
        LeafType(name, domain) for name, domain in data.get("types", {}).items()
    )
    instance = SemistructuredInstance(data["root"])
    for oid in data.get("objects", []):
        instance.add_object(oid)
    for src, dst, label in data.get("edges", []):
        instance.add_edge(src, dst, label)
    for oid, type_name, value in data.get("leaves", []):
        instance.set_leaf(oid, registry[type_name], value)
    return instance


# ----------------------------------------------------------------------
# File helpers
# ----------------------------------------------------------------------
def dumps(pi: ProbabilisticInstance, indent: int | None = None) -> str:
    """Serialize a probabilistic instance to a JSON string (every
    ``SAVE`` and :meth:`~repro.storage.database.Database.save` comes
    here), with the cyclic collector paused: the document is acyclic."""
    with collector_paused():
        return json.dumps(encode_instance(pi), indent=indent)


def loads(text: str) -> ProbabilisticInstance:
    """Deserialize a probabilistic instance from a JSON string (every
    load comes here), with the cyclic collector paused: the decoded
    instance is acyclic."""
    with collector_paused():
        return decode_instance(json.loads(text))


def content_checksum(text: str) -> str:
    """The hex SHA-256 digest of an instance file's body."""
    return hashlib.sha256(text.encode("utf-8")).hexdigest()


# An instance file is ``PXML <version> sha256=<hex digest of the body>``
# on one line, then the JSON body.  A JSON document starts with ``{``, so
# a mangled magic never parses as JSON either.
HEADER_VERSION = 1
_MAGIC = "PXML "
_HEADER = re.compile(r"PXML (\d+) sha256=([0-9a-f]{64})")


def _header_line(body: str) -> str:
    return f"{_MAGIC}{HEADER_VERSION} sha256={content_checksum(body)}\n"


def split_header(text: str) -> tuple[str | None, str]:
    """``(digest, body)`` of an instance file's text.

    ``digest`` is what the header records, ``None`` for a headerless
    document (then the whole text is the body).  A header that does not
    parse, or names another version, raises
    :class:`~repro.errors.CorruptInstanceError`.
    """
    if not text.startswith(_MAGIC):
        return None, text
    line, _newline, body = text.partition("\n")
    match = _HEADER.fullmatch(line)
    if match is None or int(match[1]) != HEADER_VERSION:
        raise CorruptInstanceError(f"malformed instance header {line[:80]!r}")
    return match[2], body


def header_digest(path: str | Path) -> str | None:
    """The body digest the header of the file at ``path`` records.

    Reads the first line only; ``None`` when the file is missing,
    unreadable, headerless or its header does not parse.
    """
    try:
        with open(path, "r", encoding="utf-8") as handle:
            line = handle.readline(len(_header_line("")))
        return split_header(line)[0]
    except (OSError, UnicodeDecodeError, CorruptInstanceError):
        return None


def replace_atomically(payload: str, target: str | Path) -> Path:
    """Publish ``payload`` at ``target`` via tmp file + fsync + replace.

    Readers see either the old bytes or the new bytes, never a torn
    mixture: the payload is fully written and flushed to a sibling tmp
    file first, and ``os.replace`` swaps it in as one atomic rename.
    Every catalog file is published this way (instances, the generation
    counter, the journal's rewrites, bench records).
    """
    target = Path(target)
    tmp = target.with_name(target.name + ".tmp")
    try:
        with open(tmp, "w", encoding="utf-8") as handle:
            handle.write(payload)
            handle.flush()
            os.fsync(handle.fileno())
        fault_point(f"codec.write.tmp:{target.name}")
        fault_point("codec.write.tmp")
        os.replace(tmp, target)
    except BaseException:
        tmp.unlink(missing_ok=True)
        raise
    return target


def write_payload(payload: str, path: str | Path) -> int:
    """Atomically publish an already-serialized instance at ``path``.

    One file, one ``os.replace`` (:func:`replace_atomically`): the
    header line recording the body's SHA-256, then the body.  A crash
    leaves either the old file or the new one, each agreeing with its
    own header.  Returns the number of characters written.

    Split out of :func:`write_instance` so the catalog can checksum the
    payload *before* publication (the journal's begin record must carry
    the checksum of the body about to land on disk).
    """
    text = _header_line(payload) + payload
    replace_atomically(text, path)
    fault_point("codec.write.replace")
    return len(text)


def write_instance(pi: ProbabilisticInstance, path: str | Path) -> int:
    """Atomically write a probabilistic instance to ``path``.

    ``dumps`` + :func:`write_payload`; see there for the crash-safety
    contract.  Returns the number of characters written.
    """
    payload = dumps(pi)
    corrupted = fault_point("codec.write.payload", payload)
    payload = corrupted if corrupted is not None else payload
    return write_payload(payload, path)


def read_instance(path: str | Path) -> ProbabilisticInstance:
    """Read a probabilistic instance from ``path``, verifying integrity.

    A file with a header must match it.  A headerless document is read
    as plain JSON; when a ``<name>.sha256`` sidecar lies beside it (a
    catalog file saved before the header existed) it must match that.
    Any mismatch, a malformed header and any undecodable body raise
    :class:`~repro.errors.CorruptInstanceError` (a
    :class:`~repro.errors.CodecError`).  ``OSError`` s propagate for the
    caller's retry/translation layer.
    """
    path = Path(path)
    fault_point(f"codec.read.open:{path.name}")
    fault_point("codec.read.open")
    with open(path, "r", encoding="utf-8") as handle:
        # Only the body outlives the split: the whole text is not kept
        # alive beside it while the body decodes.
        recorded, body = split_header(fault_point("codec.read", handle.read()))
    if recorded is None:
        legacy = path.with_name(path.name + ".sha256")
        try:
            recorded = legacy.read_text(encoding="utf-8").strip()
        except OSError:
            recorded = None
    if recorded is not None and recorded != content_checksum(body):
        raise CorruptInstanceError(
            f"checksum mismatch for {path}: the body does not match the "
            "digest recorded for it (torn write or bit rot)"
        )
    try:
        return loads(body)
    except CorruptInstanceError:
        raise
    except (json.JSONDecodeError, ValueError, KeyError, TypeError) as exc:
        raise CorruptInstanceError(
            f"cannot decode {path}: {type(exc).__name__}: {exc}"
        ) from exc
