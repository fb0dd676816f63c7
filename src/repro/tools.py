"""Command-line maintenance tools for instance files.

Usage::

    python -m repro.tools lint     instance.json
    python -m repro.tools show     instance.json
    python -m repro.tools dot      instance.json   > graph.dot
    python -m repro.tools summary  instance.json
    python -m repro.tools worlds   instance.json  [--limit N]
    python -m repro.tools map      instance.json

All commands read the JSON instance format written by
``repro.io.json_codec`` (and by PXQL's ``SAVE``).  ``lint`` exits with
status 1 when errors (not mere warnings) are present.
"""

from __future__ import annotations

import argparse
import sys

from repro.analysis import summarize
from repro.check.model import format_issues, has_errors, lint_instance
from repro.io.json_codec import read_instance
from repro.render import render_distribution, render_instance, render_tree, to_dot
from repro.semantics.global_interpretation import GlobalInterpretation
from repro.semantics.map_world import map_world


def main(argv: list[str] | None = None) -> int:
    parser = argparse.ArgumentParser(
        prog="python -m repro.tools",
        description="Inspect and check PXML instance files.",
    )
    parser.add_argument(
        "command",
        choices=("lint", "show", "dot", "summary", "worlds", "map"),
    )
    parser.add_argument("path", help="a .json instance file")
    parser.add_argument("--limit", type=int, default=20,
                        help="world count for the worlds command")
    args = parser.parse_args(argv)

    instance = read_instance(args.path)

    if args.command == "lint":
        issues = lint_instance(instance)
        print(format_issues(issues))
        return 1 if has_errors(issues) else 0
    if args.command == "show":
        print(render_instance(instance))
        return 0
    if args.command == "dot":
        print(to_dot(instance))
        return 0
    if args.command == "summary":
        print(summarize(instance))
        return 0
    if args.command == "worlds":
        interpretation = GlobalInterpretation.from_local(instance)
        print(render_distribution(interpretation, limit=args.limit))
        return 0
    # map
    world, probability = map_world(instance)
    print(f"P = {probability:.6g}")
    print(render_tree(world))
    return 0


if __name__ == "__main__":
    sys.exit(main())
