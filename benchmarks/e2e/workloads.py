"""The four workloads: backend, catalog shape, stream family, rate.

Each workload is one server lifetime.  ``BENCHMARK.json`` records in
one line why each was chosen; ``README.md`` has the long form and the
table of which layer each workload is meant to load.

``rate_rps`` is the open-loop arrival rate, fixed at 20 to 40 % of the
closed-loop throughput of the seed commit on the reference box: at half,
the open loop's queueing delay more than doubled whenever the box was
slow, and its latencies said more about the box than about the program.
"""

from __future__ import annotations

from collections.abc import Mapping
from dataclasses import dataclass

from repro.core.instance import ProbabilisticInstance

from .corpus import CatalogShape
from .statements import ColdStreams, DeriveStreams, PointStreams

#: Client threads (``nproc`` on the reference box).
CLIENTS = 2


@dataclass(frozen=True)
class Workload:
    name: str
    backend: str            # "single" (--threads-only) | "sharded" (--shards 2)
    family: str             # "point" | "cold" | "derive"
    shape: CatalogShape
    tiny: CatalogShape      # the self-test's catalog
    rate_rps: float
    warmup: int             # warm-up requests per client

    def streams(
        self, catalog: Mapping[str, ProbabilisticInstance], seed: int
    ):
        if self.family == "point":
            return PointStreams(catalog, seed)
        if self.family == "cold":
            return ColdStreams(catalog, seed, CLIENTS)
        return DeriveStreams(catalog, seed)


_POINT_SHAPE = CatalogShape(trees=16, branching=2, depth=6, bibliographies=16)
_POINT_TINY = CatalogShape(trees=2, branching=2, depth=4, bibliographies=2,
                           publications=6)

WORKLOADS: dict[str, Workload] = {w.name: w for w in (
    Workload(
        "point_single", "single", "point", _POINT_SHAPE, _POINT_TINY,
        rate_rps=150.0, warmup=256,
    ),
    Workload(
        "point_sharded", "sharded", "point", _POINT_SHAPE, _POINT_TINY,
        rate_rps=150.0, warmup=256,
    ),
    Workload(
        "scan_cold_single", "single", "cold",
        CatalogShape(trees=4, branching=4, depth=6, labels_per_depth=3,
                     prefix="big"),
        CatalogShape(trees=2, branching=4, depth=5, labels_per_depth=3,
                     prefix="big"),
        rate_rps=40.0, warmup=20,
    ),
    Workload(
        "derive_write_sharded", "sharded", "derive",
        CatalogShape(trees=16, branching=4, depth=3, prefix="src"),
        CatalogShape(trees=4, branching=3, depth=3, prefix="src"),
        rate_rps=48.0, warmup=30,
    ),
)}
