"""Seeded catalogs for the four workloads.

Two instance shapes, so the ledger is not tuned to balanced trees only:

* the paper's balanced trees (:mod:`repro.workloads.generator`), and
* a DBLP-shaped bibliography built here through
  :class:`~repro.core.builder.InstanceBuilder`: ``dblp`` → ``bib``
  groups → ``article`` / ``inproceedings`` → ``author*`` / ``title`` /
  ``year`` leaves, every OPF independent with extraction-style
  confidences (most near 0.9, a tail of doubtful ones).

The bibliography keeps a ``bib`` level between the root and the
publications because only ancestor projection handles
:class:`~repro.core.compact.IndependentOPF` in linear time; the other
query algorithms enumerate its support, which is ``2^fan-out``.  Fan-out
is therefore capped at :data:`MAX_FANOUT`.
"""

from __future__ import annotations

import random
from dataclasses import dataclass

from repro.core.builder import InstanceBuilder
from repro.core.compact import IndependentOPF
from repro.core.instance import ProbabilisticInstance
from repro.workloads.generator import WorkloadSpec, generate_workload

#: Largest child pool of any bibliography object (support is 2^this).
MAX_FANOUT = 6

_YEARS = tuple(str(year) for year in range(2016, 2024))
_VENUES = ("icde", "vldb", "sigmod", "pods", "edbt", "cikm")
_SURNAMES = ("hung", "getoor", "subrahmanian", "nierman", "jagadish",
             "abiteboul", "senellart", "kimelfeld", "cautis", "kharlamov")


def _confidence(rng: random.Random) -> float:
    """An extractor's confidence: mostly high, sometimes doubtful."""
    if rng.random() < 0.15:
        return round(rng.uniform(0.35, 0.7), 4)
    return round(min(0.995, rng.betavariate(9.0, 1.2)), 4)


def dblp_instance(seed: int, publications: int = 25) -> ProbabilisticInstance:
    """One bibliography of about ``5.6 * publications + 6`` objects."""
    rng = random.Random(seed)
    builder = InstanceBuilder("dblp")
    per_group = MAX_FANOUT - 1
    groups = [f"b{index}" for index in range(-(-publications // per_group))]
    builder.children("dblp", "bib", groups)
    builder.opf("dblp", IndependentOPF({g: _confidence(rng) for g in groups}))
    for position, group in enumerate(groups):
        first = position * per_group
        members = range(first, min(first + per_group, publications))
        by_kind: dict[str, list[str]] = {}
        for number in members:
            kind = "article" if rng.random() < 0.55 else "inproceedings"
            by_kind.setdefault(kind, []).append(f"p{number}")
        inclusion: dict[str, float] = {}
        for kind, pubs in by_kind.items():
            builder.children(group, kind, pubs)
            inclusion.update({pub: _confidence(rng) for pub in pubs})
        builder.opf(group, IndependentOPF(inclusion))
        for pub in inclusion:
            authors = [f"{pub}a{n}" for n in range(rng.randint(1, 4))]
            title, year = f"{pub}t", f"{pub}y"
            builder.children(pub, "author", authors)
            builder.children(pub, "title", [title])
            builder.children(pub, "year", [year])
            builder.opf(pub, IndependentOPF(
                {oid: _confidence(rng) for oid in (*authors, title, year)}
            ))
            for author in authors:
                candidates = rng.sample(_SURNAMES, 2)
                top = _confidence(rng)
                builder.leaf(author, "name", _SURNAMES, {
                    candidates[0]: top, candidates[1]: round(1.0 - top, 4),
                })
            builder.leaf(title, "title", [f"{v}-paper" for v in _VENUES])
            builder.leaf(year, "year", _YEARS)
    return builder.build()


def tree_instance(
    seed: int, branching: int, depth: int, labeling: str,
    labels_per_depth: int = 2,
) -> ProbabilisticInstance:
    """One of the paper's balanced trees (tabular ``2^b``-entry OPFs)."""
    return generate_workload(WorkloadSpec(
        depth=depth, branching=branching, labeling=labeling, seed=seed,
        labels_per_depth=labels_per_depth,
    )).instance


@dataclass(frozen=True)
class CatalogShape:
    """How many instances of which shape one workload serves."""

    trees: int
    branching: int
    depth: int
    labels_per_depth: int = 2
    bibliographies: int = 0
    publications: int = 25
    prefix: str = "t"


def build_catalog(
    shape: CatalogShape, seed: int
) -> dict[str, ProbabilisticInstance]:
    """``{name: instance}`` for ``shape``; trees alternate SL and FR."""
    catalog: dict[str, ProbabilisticInstance] = {}
    for index in range(shape.trees):
        catalog[f"{shape.prefix}{index:02d}"] = tree_instance(
            seed * 1000 + index, shape.branching, shape.depth,
            "SL" if index % 2 == 0 else "FR", shape.labels_per_depth,
        )
    for index in range(shape.bibliographies):
        catalog[f"bib{index:02d}"] = dblp_instance(
            seed * 1000 + 500 + index, shape.publications
        )
    return catalog
