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
    where a value kept on an instance is built.

    A cold statement locates its path once: the check passes ask
    ``repro.check.locate`` (guide first, then the instance's snapshot),
    so a ``match_path`` walk anywhere else above the operators is a pass
    re-deriving what a view already holds; and tree-ness is proven where
    a value kept on the instance is built, not per statement
    (``col.is_tree`` / ``guide.is_tree`` are attribute reads).
    """
    layers = ("check", "engine", "pxql")
    allowed = {
        "match_path": {("src/repro/check/locate.py", "match")},
        "is_tree": {
            ("src/repro/check/dataguide.py", "build_dataguide"),
            ("src/repro/engine/cost.py", "measure_instance"),
            # the abstract interpreter's scan reads the weak instance's
            # memoised proof (WeakInstance.is_tree)
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
        "snapshot_of": {
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
            # A snapshot is fetched through snapshot_of: a build above
            # repro.index is a fetch that fails the query or swallows
            # by hand.
            if called == "from_instance":
                problems.append(f"{path}:{node.lineno}: {ast.unparse(node.func)}(")
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


def test_one_future():
    """The server waits the standard library's way: one future, one queue,
    one route that runs a statement, no idle poll.

    Every submission is a ``concurrent.futures.Future`` and the pool's
    task accounting is its ``queue.Queue``'s own.  ``server/admission.py``
    (a hand-rolled future and a second count of unfinished tasks) stays
    deleted; no class under ``src/repro`` defines ``add_done_callback``
    or ``set_result``; ``server/http.py`` holds no ``/submit`` or
    ``/result/`` route beside ``/execute``; and no ``poll_s`` parameter,
    field or argument under ``src/repro/server`` wakes a worker to look
    for work.
    """
    problems = []
    if pathlib.Path("src/repro/server/admission.py").exists():
        problems.append("src/repro/server/admission.py exists")
    for file in sorted(pathlib.Path("src/repro").rglob("*.py")):
        path = file.as_posix()
        for node in ast.walk(ast.parse(file.read_text(encoding="utf-8"))):
            if isinstance(node, ast.ClassDef):
                problems.extend(
                    f"{path}:{item.lineno}: {node.name}.{item.name}"
                    for item in node.body
                    if isinstance(item, (ast.FunctionDef, ast.AsyncFunctionDef))
                    and item.name in ("add_done_callback", "set_result")
                )
            if path.startswith("src/repro/server/") and "poll_s" in (
                getattr(node, "arg", None),  # a parameter or a keyword
                getattr(getattr(node, "target", None), "id", None),  # a field
            ):
                problems.append(f"{path}:{node.lineno}: poll_s")
            if (
                path == "src/repro/server/http.py"
                and isinstance(node, ast.Constant)
                and isinstance(node.value, str)
                and ("/submit" in node.value or "/result/" in node.value)
            ):
                problems.append(f"{path}:{node.lineno}: {node.value!r}")
    assert not problems, "\n".join(problems)


def test_one_fail_open():
    """An accelerator fails open where it runs, and nothing catches its
    failure a second time.

    The certificate pass fails open in ``Engine._certify``, the snapshot
    fetch in ``snapshot_of`` and an evaluation on the snapshot in
    ``Engine._apply``, the one caller of ``_apply_indexed``: each hands
    the Section 6 algorithms' own answer back.  So there is no circuit
    breaker (``resilience/breaker.py``, a ``CircuitBreaker`` or
    ``breaker`` name under ``src/repro``) deciding whether to try an
    accelerator, and no retry above the engine: ``repro.pxql`` never
    calls ``execute_as_written`` and ``Interpreter`` keeps no
    ``fallbacks`` record.
    """
    from repro.pxql.interpreter import Interpreter

    problems = []
    if pathlib.Path("src/repro/resilience/breaker.py").exists():
        problems.append("src/repro/resilience/breaker.py exists")
    for file in sorted(pathlib.Path("src/repro").rglob("*.py")):
        path = file.as_posix()
        tree = ast.parse(file.read_text(encoding="utf-8"))

        def visit(node, scope):
            if isinstance(node, ast.ClassDef):
                scope = (node.name, None)
            elif isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef)):
                scope = (scope[0], node.name)
            names = [
                getattr(node, "id", None), getattr(node, "attr", None),
                getattr(node, "arg", None), getattr(node, "name", None),
            ]
            if isinstance(node, ast.alias):
                names += node.name.split(".")
            if isinstance(node, ast.ImportFrom) and node.module:
                names += node.module.split(".")
            for name in names:
                if name in ("CircuitBreaker", "breaker"):
                    problems.append(f"{path}:{getattr(node, 'lineno', '?')}: {name}")
            if isinstance(node, ast.Call):
                called = getattr(node.func, "attr", getattr(node.func, "id", ""))
                if called == "execute_as_written" and path.startswith("src/repro/pxql/"):
                    problems.append(f"{path}:{node.lineno}: execute_as_written(")
                if called == "_apply_indexed" and (
                    path != "src/repro/engine/executor.py" or scope != ("Engine", "_apply")
                ):
                    problems.append(f"{path}:{node.lineno}: _apply_indexed( in {scope[1]}")
            for child in ast.iter_child_nodes(node):
                visit(child, scope)

        visit(tree, (None, None))
    if hasattr(Interpreter, "fallbacks") or hasattr(Interpreter(), "fallbacks"):
        problems.append("Interpreter.fallbacks exists")
    assert not problems, "\n".join(problems)


def _is_dataclass(node: ast.ClassDef) -> bool:
    for decorator in node.decorator_list:
        target = decorator.func if isinstance(decorator, ast.Call) else decorator
        if getattr(target, "id", getattr(target, "attr", None)) == "dataclass":
            return True
    return False


def test_one_execution_record():
    """The ``engine.node.<label>`` span is the per-node statistic.

    An execution is recorded once, as spans: no ``NodeStats`` tree
    beside them (the name appears nowhere under ``src/repro``), no
    ``QueryEngine.stats`` dict copied out of the ``query.<kind>`` span,
    no dataclass under ``repro.engine`` or ``repro.queries`` with a
    ``wall_s`` field of its own, and one tree drawing — ``_tree_lines``
    in ``obs/export.py`` — for ``EXPLAIN``, ``EXPLAIN ANALYZE`` and
    ``PROFILE``.
    """
    problems = []
    for file in sorted(pathlib.Path("src/repro").rglob("*.py")):
        path = file.as_posix()
        for node in ast.walk(ast.parse(file.read_text(encoding="utf-8"))):
            names = [
                getattr(node, "id", None), getattr(node, "attr", None),
                getattr(node, "name", None),
            ]
            if isinstance(node, ast.Constant):
                names.append(node.value)
            if "NodeStats" in names:
                problems.append(f"{path}:{getattr(node, 'lineno', '?')}: NodeStats")
            if (
                isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef))
                and node.name == "_tree_lines"
                and path != "src/repro/obs/export.py"
            ):
                problems.append(f"{path}:{node.lineno}: def _tree_lines")
            if not isinstance(node, ast.ClassDef):
                continue
            if node.name == "QueryEngine":
                problems.extend(
                    f"{path}:{target.lineno}: self.stats ="
                    for assign in ast.walk(node)
                    if isinstance(assign, (ast.Assign, ast.AnnAssign, ast.AugAssign))
                    for target in getattr(assign, "targets", [getattr(assign, "target", None)])
                    if isinstance(target, ast.Attribute)
                    and target.attr == "stats"
                    and getattr(target.value, "id", None) == "self"
                )
            if path.startswith(("src/repro/engine/", "src/repro/queries/")) and _is_dataclass(node):
                problems.extend(
                    f"{path}:{item.lineno}: {node.name}.wall_s"
                    for item in node.body
                    if isinstance(item, ast.AnnAssign)
                    and getattr(item.target, "id", None) == "wall_s"
                )
    assert not problems, "\n".join(problems)


def _methods(path: str) -> dict[str, ast.FunctionDef]:
    """``Class.method`` / ``function`` -> its definition, in one module."""
    found = {}
    for node in ast.parse(pathlib.Path(path).read_text(encoding="utf-8")).body:
        if isinstance(node, ast.FunctionDef):
            found[node.name] = node
        elif isinstance(node, ast.ClassDef):
            for item in node.body:
                if isinstance(item, ast.FunctionDef):
                    found[f"{node.name}.{item.name}"] = item
    return found


def _calls(function: ast.FunctionDef) -> list[tuple[int, str, str]]:
    """``(line, called name, receiver)`` of each call in ``function``."""
    return sorted(
        (
            node.lineno,
            getattr(node.func, "attr", getattr(node.func, "id", "")),
            ast.unparse(getattr(node.func, "value", node.func)),
        )
        for node in ast.walk(function) if isinstance(node, ast.Call)
    )


#: The one statement tier each keeper holds: an interpreter its
#: database's, the sharded router its view of the shards'.
_KEPT_TIERS = {
    "src/repro/pxql/interpreter.py": "StatementTier.of(self.database)",
    "src/repro/server/shard.py": "StatementTier.of(self._view)",
}


def test_one_admission():
    """A repeated read is answered where it is admitted, from the one
    statement tier of its catalog, without a parse.

    ``PXQLServer.submit`` probes the tier (``_answered``, which asks
    ``answer_from_tier``) before anything is put on ``_queue``; no
    interpreter, worker or server has a tier of its own
    (``StatementTier(`` is never called: ``StatementTier.of`` is the one
    way to a tier, and ``Interpreter.__init__`` the one place that keeps
    one — besides the sharded router, whose catalog is its view of the
    shards, see :func:`test_one_router_admission`); and nothing on the
    probe's path calls a parser — a miss costs one lookup, and
    ``Interpreter.execute`` probes before it parses.
    """
    from unittest import mock

    from repro.core.builder import InstanceBuilder
    from repro.pxql.interpreter import Interpreter, StatementTier
    from repro.pxql.parser import _Parser
    from repro.server import PXQLServer
    from repro.storage.database import Database

    problems = []
    server = _methods("src/repro/server/server.py")
    interpreter = _methods("src/repro/pxql/interpreter.py")
    cache = _methods("src/repro/engine/cache.py")
    submit = _calls(server["PXQLServer.submit"])
    probes = [line for line, name, _ in submit if name == "_answered"]
    puts = [line for line, name, on in submit if name == "put" and on == "self._queue"]
    if not probes or not puts or probes[0] > puts[0]:
        problems.append("PXQLServer.submit does not probe the tier before _queue.put")
    if "answer_from_tier" not in {name for _, name, _ in _calls(server["PXQLServer._answered"])}:
        problems.append("PXQLServer._answered does not ask answer_from_tier")
    probe_path = [
        server["PXQLServer.submit"], server["PXQLServer._answered"],
        interpreter["answer_from_tier"], interpreter["statement_span"],
        interpreter["_charge_hit"], interpreter["StatementTier.get"],
        cache["LRUCache.find"], cache["LRUCache.record"],
    ]
    for function in probe_path:
        problems.extend(
            f"{function.name}:{line}: {name}("
            for line, name, _ in _calls(function)
            if "parse" in name.lower() or "lex" in name.lower() or "tokenize" in name
        )
    execute = _calls(interpreter["Interpreter.execute"])
    gets = [line for line, name, on in execute if name == "get" and on == "self._statements"]
    parses = [line for line, name, _ in execute if name == "_parse"]
    if not gets or not parses or gets[0] > parses[0]:
        problems.append("Interpreter.execute parses before it probes the tier")
    for file in sorted(pathlib.Path("src/repro").rglob("*.py")):
        path = file.as_posix()
        for node in ast.walk(ast.parse(file.read_text(encoding="utf-8"))):
            if isinstance(node, ast.Call) and "StatementTier" == getattr(
                node.func, "id", getattr(node.func, "attr", "")
            ):
                problems.append(f"{path}:{node.lineno}: StatementTier(")
            for target in getattr(node, "targets", [getattr(node, "target", None)]):
                if getattr(target, "attr", None) == "_statements" and (
                    _KEPT_TIERS.get(path) != ast.unparse(node.value)
                ):
                    problems.append(f"{path}:{node.lineno}: {ast.unparse(node)}")

    # The same at run time: every worker — a custom factory's too —
    # holds its catalog's one tier, and a hit parses nothing.
    builder = InstanceBuilder("R")
    builder.children("R", "x", ["A"])
    builder.opf("R", {("A",): 0.6, (): 0.4})
    builder.leaf("A", "t", ["v"], {"v": 1.0})
    database = Database()
    database.register("bib", builder.build())
    tier = StatementTier.of(database)
    for factory in (None, lambda index: Interpreter(database)):
        with PXQLServer(database=database, workers=2, interpreter_factory=factory) as pool:
            if any(worker._statements is not tier for worker in pool._interpreters):
                problems.append("a worker interpreter holds a tier of its own")
            pool.execute("EXISTS R.x IN bib", timeout_s=10.0)
            with mock.patch.object(_Parser, "parse", side_effect=AssertionError):
                answered = pool.submit("EXISTS R.x IN bib")
            if not answered.done() or answered.exception(0.0) is not None:
                problems.append("a repeated read was not answered at admission")
    assert not problems, "\n".join(problems)


def test_one_router_admission():
    """The sharded router answers a repeated read the way a single
    process does: from one statement tier, before it parses, routes or
    crosses a pipe.

    ``ShardedServer.submit`` probes (``_answered``, which asks
    ``answer_from_tier``) before it calls ``_parse``, ``route`` or
    ``_submit_to_shard``; the router keeps its tier only through
    ``StatementTier.of`` over its view of the shards, in
    ``ShardedServer.__init__``; and a started router answers a repeated
    read with both the parser and every pipe request patched to raise.
    """
    import tempfile
    from unittest import mock

    from repro.core.builder import InstanceBuilder
    from repro.io.json_codec import dumps
    from repro.pxql.parser import _Parser
    from repro.server import ShardedServer
    from repro.server.wire import _ShardHandle

    problems = []
    shard = _methods("src/repro/server/shard.py")
    submit = _calls(shard["ShardedServer.submit"])
    probes = [line for line, name, _ in submit if name == "_answered"]
    routed = [
        line for line, name, _ in submit
        if name in ("_parse", "route", "_submit_to_shard")
    ]
    if not probes or not routed or probes[0] > routed[0]:
        problems.append(
            "ShardedServer.submit parses, routes or sends before it probes the tier"
        )
    if "answer_from_tier" not in {
        name for _, name, _ in _calls(shard["ShardedServer._answered"])
    }:
        problems.append("ShardedServer._answered does not ask answer_from_tier")
    kept = [
        ast.unparse(node)
        for node in ast.walk(shard["ShardedServer.__init__"])
        if isinstance(node, ast.Assign)
        and "_statements" in {getattr(t, "attr", None) for t in node.targets}
    ]
    if kept != ["self._statements = StatementTier.of(self._view)"]:
        problems.append(f"the router keeps its tier as {kept}")

    builder = InstanceBuilder("R")
    builder.children("R", "x", ["A"])
    builder.opf("R", {("A",): 0.6, (): 0.4})
    builder.leaf("A", "t", ["v"], {"v": 1.0})
    with tempfile.TemporaryDirectory() as directory:
        with ShardedServer(directory, shards=2, workers_per_shard=1) as router:
            router.register_instance("bib", dumps(builder.build()))
            first = router.execute("EXISTS R.x IN bib", timeout_s=60.0)
            with mock.patch.object(_Parser, "parse", side_effect=AssertionError), \
                    mock.patch.object(_ShardHandle, "request", side_effect=AssertionError):
                answered = router.submit("EXISTS R.x IN bib")
            if not answered.done() or answered.exception(0.0) is not None:
                problems.append("a repeated read was not answered by the router")
            elif answered.result().value != first.value:
                problems.append("the router answered a repeated read differently")
    assert not problems, "\n".join(problems)


#: The three places a whole instance's acyclic objects are allocated in
#: one burst, and so the only callers of ``collector_paused``.
_COLLECTOR_PAUSES = {
    ("src/repro/io/json_codec.py", "dumps"),
    ("src/repro/io/json_codec.py", "loads"),
    ("src/repro/storage/derived.py", "derived"),
}


def test_one_collector_switch():
    """The cyclic collector has one switch, thrown at three sites.

    No module under ``src/repro`` but ``repro/collector.py`` calls
    ``gc.disable``, ``gc.enable``, ``gc.set_threshold`` or
    ``gc.freeze``: a second switch would re-enable a collector that a
    region elsewhere, or the caller, holds off.  And
    ``collector_paused`` is called exactly in ``json_codec.dumps``,
    ``json_codec.loads`` and ``derived`` (around its build), so
    a statement that builds nothing never pauses the collector.
    """
    switches = ("disable", "enable", "set_threshold", "freeze")
    problems = []
    paused = set()
    for file in sorted(pathlib.Path("src/repro").rglob("*.py")):
        path = file.as_posix()
        tree = ast.parse(file.read_text(encoding="utf-8"))

        def visit(node, scope):
            if isinstance(node, ast.ClassDef):
                scope = node.name
            elif isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef)):
                scope = f"{scope}.{node.name}" if scope else node.name
            if isinstance(node, ast.ImportFrom) and node.module == "gc":
                problems.extend(
                    f"{path}:{node.lineno}: from gc import {alias.name}"
                    for alias in node.names if alias.name in switches
                )
            if isinstance(node, ast.Call) and path != "src/repro/collector.py":
                func = node.func
                if (
                    isinstance(func, ast.Attribute) and func.attr in switches
                    and getattr(func.value, "id", None) == "gc"
                ):
                    problems.append(f"{path}:{node.lineno}: gc.{func.attr}(")
                called = getattr(func, "attr", getattr(func, "id", ""))
                if called == "collector_paused":
                    if (path, scope) in _COLLECTOR_PAUSES:
                        paused.add((path, scope))
                    else:
                        problems.append(f"{path}:{node.lineno}: collector_paused( in {scope}")
            for child in ast.iter_child_nodes(node):
                visit(child, scope)

        visit(tree, None)
    problems.extend(
        f"{path}: {scope} does not pause the collector"
        for path, scope in sorted(_COLLECTOR_PAUSES - paused)
    )
    assert not problems, "\n".join(problems)


def test_one_tree_index():
    """The columnar snapshot is a tree index in plain Python.

    Section 6's efficient algorithms are defined on trees and the
    snapshot only feeds them, so it is one preorder build with one
    matcher: ``repro/index/encoding.py`` and the name
    ``IntervalEncoding`` stay deleted; no module under ``src/repro``
    imports numpy, ``index/np_compat.py`` stays deleted and only
    ``repro/index/__init__.py`` names ``HAS_NUMPY`` (an installation
    report, read by nothing in the package); and ``index/columnar.py``
    defines one function behind ``match_path_indexed`` — a second one
    is a matcher fork coming back.
    """
    numpy_names = {"numpy", "np_compat"}
    problems = []
    for gone in ("src/repro/index/encoding.py", "src/repro/index/np_compat.py"):
        if pathlib.Path(gone).exists():
            problems.append(f"{gone} exists")
    for file in sorted(pathlib.Path("src/repro").rglob("*.py")):
        path = file.as_posix()

        def visit(node):
            names = [
                getattr(node, "id", None), getattr(node, "attr", None),
                getattr(node, "arg", None), getattr(node, "name", None),
            ]
            if isinstance(node, ast.alias):
                names += node.name.split(".")
            if isinstance(node, ast.ImportFrom) and node.module:
                names += node.module.split(".")
            line = getattr(node, "lineno", "?")
            if "IntervalEncoding" in names:
                problems.append(f"{path}:{line}: IntervalEncoding")
            problems.extend(
                f"{path}:{line}: {name}" for name in numpy_names.intersection(names)
            )
            if "HAS_NUMPY" in names and path != "src/repro/index/__init__.py":
                problems.append(f"{path}:{line}: HAS_NUMPY")
            if isinstance(node, ast.Call) and {"import_module", "__import__"} & {
                getattr(node.func, "id", None), getattr(node.func, "attr", None)
            } and any(
                isinstance(arg, ast.Constant) and str(arg.value).split(".")[0] == "numpy"
                for arg in node.args
            ):
                problems.append(f"{path}:{line}: imports numpy")
            for child in ast.iter_child_nodes(node):
                visit(child)

        visit(ast.parse(file.read_text(encoding="utf-8")))
    columnar = ast.parse(
        pathlib.Path("src/repro/index/columnar.py").read_text(encoding="utf-8")
    )
    methods = {
        id(item)
        for node in ast.walk(columnar) if isinstance(node, ast.ClassDef)
        for item in node.body
    }
    functions = [
        node.name for node in ast.walk(columnar)
        if isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef))
        and id(node) not in methods and node.name != "match_path_indexed"
    ]
    if len(functions) > 1:
        problems.append(f"src/repro/index/columnar.py: matchers {functions}")
    assert not problems, "\n".join(problems)


def test_one_tree_proof():
    """A registered instance is a value, proven a tree once.

    ``WeakInstance.is_tree`` memoises the proof beside the graph and a
    frozen instance never changes, so nothing needs a way around it: no
    ``assume_tree`` or ``parent_of`` parameter, no ``Database.touch``
    (a change is a re-register), no ``ColumnarInstance.parent_map``,
    and no module but ``core/weak_instance.py`` calls a graph's
    ``is_tree(root)``.
    """
    banned_methods = {
        ("src/repro/storage/database.py", "Database", "touch"),
        ("src/repro/index/columnar.py", "ColumnarInstance", "parent_map"),
    }
    problems = []
    for file in sorted(pathlib.Path("src/repro").rglob("*.py")):
        path = file.as_posix()
        tree = ast.parse(file.read_text(encoding="utf-8"))
        for node in ast.walk(tree):
            line = getattr(node, "lineno", "?")
            if isinstance(node, ast.arg) and node.arg in {"assume_tree", "parent_of"}:
                problems.append(f"{path}:{line}: parameter {node.arg}")
            if isinstance(node, ast.ClassDef):
                problems.extend(
                    f"{path}:{item.lineno}: {node.name}.{item.name}"
                    for item in node.body
                    if isinstance(item, ast.FunctionDef)
                    and (path, node.name, item.name) in banned_methods
                )
            if (
                isinstance(node, ast.Call)
                and getattr(node.func, "attr", None) == "is_tree"
                and path != "src/repro/core/weak_instance.py"
            ):
                receiver = node.func.value
                named = getattr(receiver, "id", None) or getattr(receiver, "attr", "")
                if (
                    node.args
                    or named.endswith("graph")
                    or getattr(getattr(receiver, "func", None), "attr", None) == "graph"
                ):
                    problems.append(f"{path}:{line}: {ast.unparse(node)}")
    assert not problems, "\n".join(problems)


#: Where a legacy ``.sha256`` sidecar may still be named: the reader's
#: check of a headerless file, and fsck's leftover-sidecar finding.
_SIDECAR_SCOPES = {
    ("src/repro/io/json_codec.py", "read_instance"),
    ("src/repro/storage/fsck.py", "_check_leftover_sidecars"),
}

#: Functions that make a catalog mutation's one file step.
_ONE_STEP = {
    ("src/repro/storage/database.py", "Database.drop"),
    ("src/repro/storage/journal.py", "quarantine_move"),
}


def test_one_checksum_home():
    """An instance file carries its own checksum, in one header line.

    Only ``io/json_codec.py`` builds or parses that header (no other
    module spells its ``PXML `` magic or a ``sha256=`` field);
    ``.sha256`` and ``checksum_sidecar`` are named nowhere but
    ``json_codec.read_instance`` (a headerless legacy file is checked
    against its sidecar) and ``fsck._check_leftover_sidecars``; no
    ``*.sidecar`` fault point is back in ``STORAGE_FAULT_POINTS``; and
    ``Database.drop`` and ``journal.quarantine_move`` each make one
    ``unlink`` / ``replace`` / ``rename`` call.  Docstrings are prose
    and are not searched.
    """
    from repro.resilience.faults import STORAGE_FAULT_POINTS

    problems = [
        f"STORAGE_FAULT_POINTS: {site}"
        for site in STORAGE_FAULT_POINTS if site.endswith(".sidecar")
    ]
    steps: dict[tuple[str, str], int] = {}
    for file in sorted(pathlib.Path("src/repro").rglob("*.py")):
        path = file.as_posix()

        def visit(node, scope):
            if isinstance(node, ast.ClassDef):
                scope = node.name
            elif isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef)):
                scope = f"{scope}.{node.name}" if scope else node.name
            if isinstance(node, ast.Expr) and isinstance(node.value, ast.Constant):
                return  # a docstring
            line = getattr(node, "lineno", "?")
            names = {getattr(node, "id", None), getattr(node, "attr", None),
                     getattr(node, "name", None)}
            text = node.value if isinstance(node, ast.Constant) else None
            if isinstance(text, str):
                if path != "src/repro/io/json_codec.py" and (
                    text.startswith("PXML ") or "sha256=" in text
                ):
                    problems.append(f"{path}:{line}: header text {text!r}")
                if ".sha256" in text and (path, scope) not in _SIDECAR_SCOPES:
                    problems.append(f"{path}:{line}: {text!r} in {scope}")
            if "checksum_sidecar" in names and (path, scope) not in _SIDECAR_SCOPES:
                problems.append(f"{path}:{line}: checksum_sidecar in {scope}")
            if (path, scope) in _ONE_STEP and isinstance(node, ast.Call) and getattr(
                node.func, "attr", None
            ) in {"unlink", "replace", "rename"}:
                steps[path, scope] = steps.get((path, scope), 0) + 1
            for child in ast.iter_child_nodes(node):
                visit(child, scope)

        visit(ast.parse(file.read_text(encoding="utf-8")), None)
    problems.extend(
        f"{path}: {scope} makes {steps.get((path, scope), 0)} file steps"
        for path, scope in sorted(_ONE_STEP) if steps.get((path, scope), 0) != 1
    )
    assert not problems, "\n".join(problems)


#: Where a value derived from an instance is kept on it: the one call of
#: ``derived`` per kind.
_DERIVED_KINDS = {
    ("src/repro/index/cache.py", "snapshot_of"),
    ("src/repro/check/dataguide.py", "guide_of"),
    ("src/repro/engine/cost.py", "measure"),
}

#: Names of the deleted token-keyed caches.
_DELETED_CACHES = {"DerivedCache", "_per_catalog", "MeasurementCache", "IndexCache"}

#: Words in the name of a dict that would hold derived values.
_DERIVED_WORDS = ("snapshot", "guide", "measur", "derived")

#: Constructors of a keyed container.
_DICTS = {"dict", "defaultdict", "OrderedDict", "WeakKeyDictionary",
          "WeakValueDictionary", "LRUCache"}


def test_one_derived_home():
    """What is derived from an instance lives on the instance.

    A registered instance is a frozen value, so its snapshot, dataguide
    and cost measurement are kept in its memo through
    ``repro.storage.derived.derived``, called once per kind
    (``snapshot_of``, ``guide_of``, ``measure``); nothing keeps them by
    name or token.  So ``DerivedCache``, ``_per_catalog``,
    ``MeasurementCache``, ``IndexCache`` and a module-level ``forget``
    stay deleted; only ``core/instance.py`` assigns a ``memo`` and no
    one assigns into one; and no module builds a dict whose name says
    it holds snapshots, guides or measurements — a per-name derived
    dict is the token-keyed cache growing back.  ``DataGuideCache`` is
    an empty class kept for ``benchmarks/e2e/ladder.py``, and stays
    empty.
    """

    def is_dict(value):
        if isinstance(value, (ast.Dict, ast.DictComp)):
            return True
        return isinstance(value, ast.Call) and (
            getattr(value.func, "id", getattr(value.func, "attr", "")) in _DICTS
        )

    def named(target):
        name = getattr(target, "id", getattr(target, "attr", "")) or ""
        return any(word in name.lower() for word in _DERIVED_WORDS)

    problems = []
    derived_at = set()
    for file in sorted(pathlib.Path("src/repro").rglob("*.py")):
        path = file.as_posix()

        def visit(node, scope, in_class):
            if isinstance(node, ast.ClassDef):
                if node.name == "DataGuideCache" and (
                    path != "src/repro/check/dataguide.py" or len(node.body) != 1
                ):
                    problems.append(f"{path}:{node.lineno}: DataGuideCache holds something")
                scope, in_class = node.name, True
            elif isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef)):
                if node.name == "forget" and not in_class:
                    problems.append(f"{path}:{node.lineno}: def forget")
                scope = f"{scope}.{node.name}" if scope else node.name
                in_class = False
            line = getattr(node, "lineno", "?")
            names = [getattr(node, "id", None), getattr(node, "attr", None),
                     getattr(node, "name", None)]
            if isinstance(node, ast.alias):
                names.append(node.asname)
                if node.name == "forget":
                    problems.append(f"{path}:{line}: import forget")
            problems.extend(f"{path}:{line}: {name}" for name in names if name in _DELETED_CACHES)
            if isinstance(node, ast.Call):
                called = getattr(node.func, "attr", getattr(node.func, "id", ""))
                if isinstance(node.func, ast.Name) and called == "forget":
                    problems.append(f"{path}:{line}: forget(")
                if called == "derived" and path != "src/repro/storage/derived.py":
                    if (path, scope) in _DERIVED_KINDS:
                        derived_at.add((path, scope))
                    else:
                        problems.append(f"{path}:{line}: derived( in {scope}")
            if isinstance(node, (ast.Assign, ast.AnnAssign, ast.AugAssign)):
                targets = node.targets if isinstance(node, ast.Assign) else [node.target]
                for target in targets:
                    if isinstance(target, ast.Subscript) and getattr(target.value, "attr", None) == "memo":
                        problems.append(f"{path}:{line}: {ast.unparse(target)} =")
                    if getattr(target, "attr", None) == "memo" and path != "src/repro/core/instance.py":
                        problems.append(f"{path}:{line}: {ast.unparse(target)} =")
                    annotated = isinstance(node, ast.AnnAssign) and (
                        "dict" in ast.unparse(node.annotation).lower()
                    )
                    if named(target) and (annotated or is_dict(node.value)):
                        problems.append(f"{path}:{line}: per-name derived dict {ast.unparse(target)}")
            for child in ast.iter_child_nodes(node):
                visit(child, scope, in_class)

        visit(ast.parse(file.read_text(encoding="utf-8")), None, False)
    problems.extend(
        f"{path}: {scope} does not keep its value through derived"
        for path, scope in sorted(_DERIVED_KINDS - derived_at)
    )
    assert not problems, "\n".join(problems)
