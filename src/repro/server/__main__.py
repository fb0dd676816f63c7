"""Run a PXQL server from the command line.

Usage::

    python -m repro.server --directory CATALOG_DIR [--shards N]
        [--workers M] [--host 127.0.0.1] [--port 8080]
        [--deadline-s SECONDS] [--threads-only]

With ``--shards N`` (default 2) the catalog is served by N worker
processes behind the consistent-hash router
(:class:`~repro.server.shard.ShardedServer`); ``--threads-only`` serves
it from a single-process thread pool instead
(:class:`~repro.server.server.PXQLServer` — the right choice for tiny
catalogs or debugging).  Either way the asyncio front door
(:mod:`repro.server.http`) listens for HTTP/JSON requests and drains
gracefully on SIGTERM/SIGINT.

To change the shard count of a catalog, stop the server and run::

    python -m repro.server reshard --directory CATALOG_DIR --shards N

It moves every instance to its home on the N-shard ring through the
shard catalogs' own journaled save/drop and rewrites ``shards.json``
(:func:`~repro.server.layout.reshard`).  After a crash, rerun it.  Exit
status: 0 done, 2 refused (bad count, no or untrusted manifest), 1 any
other failure.
"""

from __future__ import annotations

import argparse
import asyncio
import sys

from repro.errors import PXMLError, ShardConfigError
from repro.server.http import Backend, HttpFrontDoor
from repro.server.layout import reshard
from repro.server.server import PXQLServer
from repro.server.shard import ShardedServer
from repro.storage.database import Database


async def _serve(backend: Backend, host: str, port: int) -> None:
    door = HttpFrontDoor(backend, host=host, port=port)
    await door.start()
    door.install_signal_handlers()
    print(f"serving on http://{host}:{door.bound_port} "
          f"(POST /execute, GET /health)")
    await door.serve_forever()


def _reshard(argv: list[str]) -> int:
    parser = argparse.ArgumentParser(
        prog="python -m repro.server reshard",
        description="Change the shard count of a stopped sharded catalog.",
    )
    parser.add_argument("--directory", required=True,
                        help="sharded catalog root directory")
    parser.add_argument("--shards", type=int, required=True,
                        help="the new shard count")
    args = parser.parse_args(argv)
    try:
        moved = reshard(args.directory, args.shards)
    except ShardConfigError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2
    except PXMLError as exc:
        print(f"error: {exc}; rerun the same command to finish",
              file=sys.stderr)
        return 1
    print(f"resharded {args.directory} to {args.shards} shard(s): "
          f"{moved} instance(s) moved")
    return 0


def main(argv: list[str] | None = None) -> int:
    argv = sys.argv[1:] if argv is None else argv
    if argv[:1] == ["reshard"]:
        return _reshard(argv[1:])
    parser = argparse.ArgumentParser(
        prog="python -m repro.server",
        description="Serve a PXML catalog over HTTP/JSON.",
    )
    parser.add_argument("--directory", required=True,
                        help="catalog root directory")
    parser.add_argument("--shards", type=int, default=2,
                        help="shard process count (default 2)")
    parser.add_argument("--workers", type=int, default=2,
                        help="worker threads per shard/process (default 2)")
    parser.add_argument("--queue-size", type=int, default=64,
                        help="admission queue bound (default 64)")
    parser.add_argument("--deadline-s", type=float, default=None,
                        help="default per-request deadline (seconds)")
    parser.add_argument("--host", default="127.0.0.1")
    parser.add_argument("--port", type=int, default=8080)
    parser.add_argument("--threads-only", action="store_true",
                        help="serve from one thread-pool process "
                             "instead of shards")
    args = parser.parse_args(argv)

    backend: Backend
    if args.threads_only:
        from repro.resilience.budget import Budget

        deadline = args.deadline_s
        backend = PXQLServer(
            database=Database(args.directory),
            workers=args.workers,
            queue_size=args.queue_size,
            budget_factory=(
                (lambda: Budget(deadline_s=deadline))
                if deadline is not None
                else None
            ),
        ).start()
    else:
        try:
            backend = ShardedServer(
                args.directory,
                shards=args.shards,
                workers_per_shard=args.workers,
                queue_size=args.queue_size,
                default_deadline_s=args.deadline_s,
            ).start()
        except ShardConfigError as exc:
            print(f"error: {exc}", file=sys.stderr)
            return 2
    try:
        asyncio.run(_serve(backend, args.host, args.port))
    except KeyboardInterrupt:
        backend.stop(drain=False)
    return 0


if __name__ == "__main__":
    sys.exit(main())
