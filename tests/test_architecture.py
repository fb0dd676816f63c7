"""The architecture lint walks: ``ast`` passes over ``src/repro`` that
keep a deleted fork from growing back.  CI's ``lint`` job runs each by
name (``pytest tests/test_architecture.py -k ...``); so does anyone
without CI.  Paths in the allow-lists are relative to the repository
root, which every test runs from.
"""

from __future__ import annotations

import argparse
import ast
import json
import pathlib

import pytest

ROOT = pathlib.Path(__file__).resolve().parents[1]


@pytest.fixture(autouse=True)
def _from_repository_root(monkeypatch):
    monkeypatch.chdir(ROOT)


def test_one_catalog_token():
    """No ``.generation()`` / ``.epoch()`` call above ``repro.storage``.

    ``repro.storage.derived.cache_token`` is the one place a
    (version, epoch) pair is built: a layer that asks the catalog for
    its generation itself is a sixth hand-rolled key, and only
    ``cache_token`` may ask a catalog for a name's epoch.
    """
    banned = {
        "generation": ("engine", "index", "check", "pxql"),
        "epoch": ("engine", "index", "check", "pxql", "server"),
    }
    calls = sorted(
        f"{path}:{node.lineno}: {called}("
        for called, layers in banned.items()
        for layer in layers
        for path in pathlib.Path("src/repro", layer).rglob("*.py")
        for node in ast.walk(ast.parse(path.read_text(encoding="utf-8")))
        if isinstance(node, ast.Call)
        and called in (getattr(node.func, "attr", ""), getattr(node.func, "id", ""))
    )
    # The statement tier keys like Engine.cache_key: tokens come
    # from cache_token, never from a .version( paired by hand.
    tier = ast.parse(pathlib.Path("src/repro/pxql/interpreter.py").read_text(encoding="utf-8"))
    names = {
        getattr(node.func, "attr", getattr(node.func, "id", ""))
        for node in ast.walk(tier) if isinstance(node, ast.Call)
    }
    if "cache_token" not in names or "version" in names:
        calls.append("src/repro/pxql/interpreter.py: key not built through cache_token alone")
    assert not calls, "\n".join(calls)


def test_one_execution_path():
    """No ``repro.algebra`` / ``repro.queries`` import under ``repro.pxql``.

    A PXQL statement reaches an operator only through the plan engine;
    an import of the operators under ``repro.pxql`` is a second
    evaluator growing back.
    """
    banned = ("repro.algebra", "repro.queries")
    imports = [
        f"{path}:{node.lineno}: {name}"
        for path in sorted(pathlib.Path("src/repro/pxql").rglob("*.py"))
        for node in ast.walk(ast.parse(path.read_text(encoding="utf-8")))
        if isinstance(node, (ast.Import, ast.ImportFrom))
        for name in (
            [node.module or ""] if isinstance(node, ast.ImportFrom)
            else [alias.name for alias in node.names]
        )
        if name in banned or name.startswith(tuple(b + "." for b in banned))
    ]
    assert not imports, "\n".join(imports)


def test_a_read_writes_nothing():
    """No fsync / ``write_*`` / writable ``open`` below ``repro.pxql``.

    Every result tier is in memory: a statement that is not
    SAVE/DROP/LOAD leaves the catalog directory as it found it, so
    nothing on the path from PXQL text to an operator may write a
    file.  Writes belong to ``repro.storage`` and ``repro.io``.
    """
    layers = ("engine", "pxql", "index", "check", "queries", "algebra")
    writers = {"fsync", "write_text", "write_bytes", "replace_atomically"}

    def writes(node):
        called = getattr(node.func, "attr", getattr(node.func, "id", ""))
        if called in writers:
            return True
        if called != "open":
            return False
        # open(path, mode) as a builtin, .open(mode) as a Path method.
        modes = node.args[1:2] if isinstance(node.func, ast.Name) else node.args[:2]
        modes += [kw.value for kw in node.keywords if kw.arg == "mode"]
        return any(
            isinstance(mode, ast.Constant) and isinstance(mode.value, str)
            and set(mode.value) & set("wa+")
            for mode in modes
        )

    sites = [
        f"{path}:{node.lineno}: {ast.unparse(node.func)}("
        for layer in layers
        for path in sorted(pathlib.Path("src/repro", layer).rglob("*.py"))
        for node in ast.walk(ast.parse(path.read_text(encoding="utf-8")))
        if isinstance(node, ast.Call) and writes(node)
    ]
    assert not sites, "\n".join(sites)


def test_one_locate():
    """``match_path`` only in ``repro.check.locate``; ``.is_tree()`` only
    where a token-stamped value is built.

    A cold statement locates its path once: the check passes ask
    ``repro.check.locate`` (guide first, then the catalog's shared
    snapshot), so a ``match_path`` walk anywhere else above the
    operators is a pass re-deriving what a view already holds; and
    tree-ness is proven where a token-stamped value is built, not per
    statement (``col.is_tree`` / ``guide.is_tree`` are attribute reads).
    """
    layers = ("check", "engine", "pxql")
    allowed = {
        "match_path": {("src/repro/check/locate.py", "match")},
        "is_tree": {
            ("src/repro/check/dataguide.py", "build_dataguide"),
            ("src/repro/engine/cost.py", "measure_instance"),
            # the no-guide fallback of the abstract interpreter
            ("src/repro/check/absint.py", "_scan"),
        },
    }

    def calls(tree):
        """(called name, enclosing function, line) of every call."""
        def visit(node, function):
            if isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef)):
                function = node.name
            if isinstance(node, ast.Call):
                func = node.func
                if isinstance(func, ast.Name) and func.id == "match_path":
                    yield "match_path", function, node.lineno
                if isinstance(func, ast.Attribute) and func.attr in allowed:
                    yield func.attr, function, node.lineno
            for child in ast.iter_child_nodes(node):
                yield from visit(child, function)
        yield from visit(tree, None)

    sites = [
        f"{path}:{line}: {called}( in {function}"
        for layer in layers
        for path in sorted(pathlib.Path("src/repro", layer).rglob("*.py"))
        for called, function, line in calls(
            ast.parse(path.read_text(encoding="utf-8"))
        )
        if (path.as_posix(), function) not in allowed[called]
    ]
    assert not sites, "\n".join(sites)


def test_one_access_method_decision():
    """No lowered plan nodes; one indexed-match site; one fail-open
    fetch; ``epsilon_pass`` for PROJECT only.

    The columnar snapshot is an access method, not a plan shape: how a
    path step is located is decided once, at run time, in
    ``Engine._strategy``.  A lowered plan node, a lowering rule set, a
    navigation price or an Engine switch is the fork growing back; so
    is a second indexed-match site or a second hand-written fail-open
    snapshot fetch.  (:func:`test_one_plan` bans plan rewriting
    outright.)  And a query computes its
    answer alone: the full epsilon pass builds the projection's OPFs,
    so only the projections may run it.
    """
    banned = {"IndexedPathStepNode", "IndexedScanNode", "INDEX_RULES",
              "navigation_cost", "use_index"}
    # (file, enclosing function) allowed to call each name.
    allowed = {
        "match_path_indexed": {
            ("src/repro/check/locate.py", "match"),
            ("src/repro/engine/executor.py", "match"),
        },
        "try_get": {
            ("src/repro/check/locate.py", "snapshot"),
            ("src/repro/engine/executor.py", "_apply"),
        },
        "epsilon_pass": {
            ("src/repro/algebra/projection_prob.py", "ancestor_projection_local"),
            ("src/repro/engine/executor.py", "_apply_indexed"),
            # the Figure 7 harness times the projection's steps
            ("src/repro/bench/timing.py", "timed_ancestor_projection"),
        },
    }
    seen = {name: [] for name in allowed}
    problems = []

    def visit(path, node, function, branch=None):
        if isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef)):
            function = node.name
        if isinstance(node, ast.If):
            # Only the body is under the test; orelse is not.
            visit(path, node.test, function, branch)
            for child in node.body:
                visit(path, child, function, ast.unparse(node.test))
            for child in node.orelse:
                visit(path, child, function, branch)
            return
        for name in (
            getattr(node, "id", None), getattr(node, "attr", None),
            getattr(node, "arg", None), getattr(node, "name", None),
        ):
            if name in banned:
                problems.append(f"{path}:{node.lineno}: {name}")
        if isinstance(node, ast.Call) and not path.startswith("src/repro/index/"):
            called = getattr(node.func, "attr", getattr(node.func, "id", ""))
            if called in allowed:
                seen[called].append((path, function, node.lineno))
            # In the executor, only under the ProjectNode test.
            if (called == "epsilon_pass" and "engine/" in path
                    and branch != "isinstance(node, ProjectNode)"):
                problems.append(f"{path}:{node.lineno}: epsilon_pass( outside the ProjectNode branch")
            # A snapshot is fetched through IndexCache.try_get: a
            # bare .get( on the index cache above repro.index is a
            # fetch that fails the query or swallows by hand.
            target = ast.unparse(node.func)
            if called == "get" and ("index_cache" in target or "IndexCache" in target):
                problems.append(f"{path}:{node.lineno}: {target}(")
        for child in ast.iter_child_nodes(node):
            visit(path, child, function, branch)

    for path in sorted(pathlib.Path("src/repro").rglob("*.py")):
        visit(path.as_posix(), ast.parse(path.read_text(encoding="utf-8")), None)
    for called, sites in seen.items():
        for path, function, line in sites:
            if (path, function) not in allowed[called]:
                problems.append(f"{path}:{line}: {called}( in {function}")
    assert not problems, "\n".join(problems)


def test_one_result_tier():
    """One result cache: ``LRUCache(`` is constructed only in the
    interpreter (its statement tier); no plan tier, no cost-hint table,
    no sub-plan result tier, no lineage, no rule that only lineage fed.

    Between statements the catalog is the only memory: a scan of a
    registered name reads that instance, so a derived name is read as
    saved.  A remembered plan, a table the certificate writes into the
    cost model, a per-node result cache or a recorded lineage to inline
    is a second tier growing back.
    """
    from repro.engine import Engine

    banned = {
        "plan_cache", "_last_prepared", "note_hint", "hint_hits",
        "_install_hints", "result_cache", "_lineage", "_lineage_plan",
        "_serve_hit", "_hit_view", "collapse_adjacent_projections",
        "push_selection_below_projection",
    }
    problems = []
    built = []
    for file in sorted(pathlib.Path("src/repro").rglob("*.py")):
        path = file.as_posix()
        for node in ast.walk(ast.parse(file.read_text(encoding="utf-8"))):
            for name in (
                getattr(node, "id", None), getattr(node, "attr", None),
                getattr(node, "arg", None), getattr(node, "name", None),
            ):
                if name in banned:
                    problems.append(f"{path}:{node.lineno}: {name}")
            if (
                isinstance(node, ast.Call)
                and "LRUCache" in (getattr(node.func, "attr", ""), getattr(node.func, "id", ""))
                and path != "src/repro/engine/cache.py"
            ):
                built.append(path)
    if built != ["src/repro/pxql/interpreter.py"]:
        problems.append(f"LRUCache( constructed in {built}, not once in src/repro/pxql/interpreter.py")
    if hasattr(Engine, "expand"):
        problems.append("Engine.expand is back")
    assert not problems, "\n".join(problems)


def test_one_wire_format():
    """The pipe's message format is known in ``repro/server/wire.py`` only.

    Outside it no dict literal has an ``"op"`` key and nothing in
    ``repro.server`` reads ``"ok"`` or ``"error"`` from a reply: the
    shard handle rebuilds each reply once, on arrival, into a value or a
    typed error.  The second reply codec (``_encode_error``,
    ``_encode_result``, ``_result_payload``, ``_gather_fetch``) stays
    deleted, and ``http.py`` describes errors and results with the
    describers of ``wire.py`` — one description for both wires.
    """
    wire = "src/repro/server/wire.py"
    deleted = {"_encode_error", "_encode_result", "_result_payload", "_gather_fetch"}
    problems = []
    for file in sorted(pathlib.Path("src/repro").rglob("*.py")):
        path = file.as_posix()
        tree = ast.parse(file.read_text(encoding="utf-8"))
        for node in ast.walk(tree):
            for name in (
                getattr(node, "id", None), getattr(node, "attr", None),
                getattr(node, "name", None),
            ):
                if name in deleted:
                    problems.append(f"{path}:{node.lineno}: {name}")
            if path == wire:
                continue
            if isinstance(node, ast.Dict) and any(
                isinstance(key, ast.Constant) and key.value == "op"
                for key in node.keys
            ):
                problems.append(f'{path}:{node.lineno}: a {{"op": ...}} message')
            if not path.startswith("src/repro/server/"):
                continue
            # response.get("ok") / response["error"]: parsing a reply.
            read = None
            if (isinstance(node, ast.Call)
                    and getattr(node.func, "attr", "") == "get" and node.args):
                read = node.args[0]
            elif isinstance(node, ast.Subscript) and isinstance(node.ctx, ast.Load):
                read = node.slice
            if isinstance(read, ast.Constant) and read.value in ("ok", "error"):
                problems.append(f"{path}:{node.lineno}: reads {read.value!r}")
    http = ast.parse(pathlib.Path("src/repro/server/http.py").read_text(encoding="utf-8"))
    imported = {
        alias.name
        for node in ast.walk(http)
        if isinstance(node, ast.ImportFrom) and node.module == "repro.server.wire"
        for alias in node.names
    }
    if not {"describe_error", "describe_result"} <= imported:
        problems.append("src/repro/server/http.py: describers not taken from repro.server.wire")
    assert not problems, "\n".join(problems)


def test_one_instrument(monkeypatch):
    """``repro.bench`` regenerates the paper's figures and nothing else.

    Every other speed claim is a number from a request that came in
    through a socket (``benchmarks/e2e``).  A bench subcommand beyond
    the Figure 7 series, a metrics registry built by the bench harness,
    the bench-record appender, or a row in the committed record file
    that ``report`` cannot draw is the in-process instrument growing
    back.
    """
    parsers = []

    def capture(self, args=None, namespace=None):
        parsers.append(self)
        raise SystemExit(0)

    monkeypatch.setattr(argparse.ArgumentParser, "parse_args", capture)
    from repro.bench.__main__ import main

    with pytest.raises(SystemExit):
        main([])
    (choices,) = [
        action.choices for action in parsers[0]._actions if action.dest == "figure"
    ]
    problems = []
    if sorted(choices) != sorted(("fig7a", "fig7b", "fig7c", "all", "report")):
        problems.append(f"python -m repro.bench choices: {sorted(choices)}")
    for file in sorted(pathlib.Path("src/repro/bench").rglob("*.py")):
        for node in ast.walk(ast.parse(file.read_text(encoding="utf-8"))):
            if isinstance(node, ast.Call) and "MetricsRegistry" in (
                getattr(node.func, "attr", ""), getattr(node.func, "id", "")
            ):
                problems.append(f"{file.as_posix()}:{node.lineno}: MetricsRegistry(")
    for file in sorted(pathlib.Path("src").rglob("*.py")):
        text = file.read_text(encoding="utf-8")
        for name in ("append_bench_records", "metrics_record", "BENCH_RECORDS_PATH"):
            if name in text:
                problems.append(f"{file.as_posix()}: {name}")
    records = json.loads(pathlib.Path("results/bench_records.json").read_text(encoding="utf-8"))
    stray = sorted({
        str(row.get("operation")) for row in records
        if row.get("operation") not in ("projection", "selection")
    })
    if stray:
        problems.append(f"results/bench_records.json: {stray} rows")
    assert not problems, "\n".join(problems)


def test_one_front_door():
    """``repro/server/http.py`` serves connections as one ``asyncio.Protocol``.

    Each connection frames its requests from the bytes it receives and
    ``/execute`` is answered from the backend's completion callback; a
    stream reader, a stream writer, a per-line read or a ``wait_for`` in
    the front door is a second connection path growing back beside it.
    """
    banned = {"start_server", "open_connection", "StreamReader", "StreamWriter",
              "readline", "readexactly", "wait_for"}
    path = "src/repro/server/http.py"
    tree = ast.parse(pathlib.Path(path).read_text(encoding="utf-8"))
    uses = sorted(
        f"{path}:{node.lineno}: {name}"
        for node in ast.walk(tree)
        for name in (getattr(node, "id", None), getattr(node, "attr", None))
        if name in banned
    )
    assert not uses, "\n".join(uses)


def test_one_journal():
    """One write-ahead journal: the catalog's, in ``repro/storage/journal.py``.

    The shard count changes offline through the shard catalogs' own
    journaled save and drop (``repro.server.layout.reshard``).  Outside
    ``journal.py`` nothing calls the crc-checked append/read/rewrite
    helpers or names a ``*.journal`` file but the legacy
    ``rebalance.journal`` that ``layout.py`` refuses, and ``Router``
    keeps no per-key migration state: its ``__init__`` assigns the ring
    and the placement overlay only.
    """
    import re

    journal = "src/repro/storage/journal.py"
    helpers = {"append_checked", "read_checked", "rewrite_checked", "_checked_line"}
    problems = []
    for file in sorted(pathlib.Path("src/repro").rglob("*.py")):
        path = file.as_posix()
        if path == journal:
            continue
        for node in ast.walk(ast.parse(file.read_text(encoding="utf-8"))):
            for name in (getattr(node, "id", None), getattr(node, "attr", None)):
                if isinstance(name, str) and name.lstrip("_") in helpers:
                    problems.append(f"{path}:{node.lineno}: {name}")
            if (isinstance(node, ast.Constant) and isinstance(node.value, str)
                    and re.fullmatch(r"[\w.-]+\.journal", node.value)
                    and (path, node.value) != ("src/repro/server/layout.py",
                                               "rebalance.journal")):
                problems.append(f"{path}:{node.lineno}: names {node.value!r}")
    routing = ast.parse(pathlib.Path("src/repro/server/routing.py").read_text(encoding="utf-8"))
    (router,) = [n for n in routing.body if isinstance(n, ast.ClassDef) and n.name == "Router"]
    (init,) = [n for n in router.body if isinstance(n, ast.FunctionDef) and n.name == "__init__"]
    assigned = {
        target.attr
        for node in ast.walk(init)
        if isinstance(node, (ast.Assign, ast.AnnAssign))
        for target in (node.targets if isinstance(node, ast.Assign) else [node.target])
        if isinstance(target, ast.Attribute)
    }
    if not assigned <= {"shards", "vnodes", "_ring", "_overlay", "_lock"}:
        problems.append(f"src/repro/server/routing.py: Router.__init__ assigns {sorted(assigned)}")
    assert not problems, "\n".join(problems)


def test_one_plan_pass():
    """One walk over a plan: ``certify_plan``'s, whose findings the
    checker reports.

    The plan checker used to walk every plan a second time, with its own
    rule for what a projection keeps.  Outside ``check/absint.py`` (the
    walk) no module under ``repro.check`` branches on a plan-node class; the
    second walk's module and names stay deleted; and ``check_plan`` is
    one ``certify_plan`` call.
    """
    import repro.engine.plan as plan_module

    node_classes = {
        name for name, value in vars(plan_module).items()
        if isinstance(value, type) and issubclass(value, plan_module.PlanNode)
    }
    walkers = {"src/repro/check/absint.py"}
    deleted = {"PlanChecker", "absint_diagnostics", "GuardFinding"}
    problems = []
    if pathlib.Path("src/repro/check/plans.py").exists():
        problems.append("src/repro/check/plans.py exists")
    for file in sorted(pathlib.Path("src/repro").rglob("*.py")):
        path = file.as_posix()
        tree = ast.parse(file.read_text(encoding="utf-8"))
        for node in ast.walk(tree):
            for name in (
                getattr(node, "id", None), getattr(node, "attr", None),
                getattr(node, "name", None),
            ):
                if name in deleted:
                    problems.append(f"{path}:{node.lineno}: {name}")
            if (path.startswith("src/repro/check/") and path not in walkers
                    and isinstance(node, ast.Call)
                    and getattr(node.func, "id", "") == "isinstance"
                    and len(node.args) == 2):
                named = {
                    getattr(n, "id", getattr(n, "attr", None))
                    for n in ast.walk(node.args[1])
                }
                for name in sorted(named & node_classes):
                    problems.append(f"{path}:{node.lineno}: isinstance(..., {name})")
    absint = ast.parse(pathlib.Path("src/repro/check/absint.py").read_text(encoding="utf-8"))
    certifies = [
        call
        for function in absint.body
        if isinstance(function, ast.FunctionDef) and function.name == "check_plan"
        for call in ast.walk(function)
        if isinstance(call, ast.Call) and getattr(call.func, "id", "") == "certify_plan"
    ]
    if len(certifies) != 1:
        problems.append(f"check_plan calls certify_plan {len(certifies)} times, not once")
    assert not problems, "\n".join(problems)


def test_one_plan():
    """The plan as written is the plan run: no rewrite optimizer.

    The product's operands commute (Definition 5.7 merges the two roots
    symmetrically), so the last rewrite rule only canonicalised a
    fingerprint for tiers that are gone.  No ``optimize(`` call, rule
    type, rule set or rewrite justifier exists under ``src/repro``;
    their two modules stay deleted; and neither the engine nor the
    checker accepts the switch that turned them on — the plan the
    checker certifies is the one the engine runs.
    """
    from repro.check import check_plan
    from repro.engine import Engine, PlanBuilder
    from repro.storage.database import Database

    banned = {"RewriteRule", "DEFAULT_RULES", "reorder_product_by_size",
              "justify_rewrites", "rewrite_diagnostics", "applied_rules"}
    problems = [
        f"{module} exists"
        for module in ("src/repro/engine/rewrite.py", "src/repro/check/rewrites.py")
        if pathlib.Path(module).exists()
    ]
    for file in sorted(pathlib.Path("src/repro").rglob("*.py")):
        path = file.as_posix()
        for node in ast.walk(ast.parse(file.read_text(encoding="utf-8"))):
            if isinstance(node, ast.Call) and "optimize" in (
                getattr(node.func, "attr", None), getattr(node.func, "id", None)
            ):
                problems.append(f"{path}:{node.lineno}: optimize(")
            for name in (
                getattr(node, "id", None), getattr(node, "attr", None),
                getattr(node, "name", None), getattr(node, "arg", None),
            ):
                if name in banned:
                    problems.append(f"{path}:{node.lineno}: {name}")
    assert not problems, "\n".join(problems)
    database = Database()
    with pytest.raises(TypeError):
        Engine(database, optimizer=True)
    with pytest.raises(TypeError):
        check_plan(PlanBuilder.scan("t").build(), database, rewrites=True)
