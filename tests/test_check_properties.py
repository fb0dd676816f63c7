"""Property tests for the static checker (hypothesis over generated instances).

Three contracts from the subsystem's design:

1. *Lint soundness*: an instance the model pass calls clean (no
   error-severity issues) never raises in ``validate()``.
2. *Dataguide exactness*: on generated instances the guide contains a
   label path iff some object on it has nonzero existence probability,
   and on trees the per-path lower bound equals the best per-object
   existence probability exactly.
3. *Checker/runtime agreement*: on >= 20 generated instances the plan
   checker's never-match and unsatisfiable-guard verdicts agree with
   what direct execution of the operators actually does.
4. *One locate, same verdicts*: every guide target lies in the
   structural match of its path, so answering "which objects can
   satisfy ``p``" from a sound guide or from the shared snapshot gives
   the findings and certificates the ``match_path`` walk gives.
5. *Certificates hold at run time*: every probe plan executes inside
   its certificate, and a plan that raises carries an error finding.
"""

import random
from unittest import mock

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.analysis import existence_probability
from repro.check import check_plan, dataguide
from repro.check.absint import certify_plan
from repro.check.dataguide import build_dataguide, guide_of
from repro.check.locate import Site
from repro.check.model import has_errors, lint_instance
from repro.core.builder import InstanceBuilder
from repro.engine.executor import Engine
from repro.engine.plan import PlanBuilder, QueryNode, ScanNode
from repro.errors import (
    AlgebraError,
    EmptyResultError,
    NonTreeInstanceError,
    PXMLError,
)
from repro.obs.metrics import MetricsRegistry
from repro.semistructured.paths import PathExpression, match_path
from repro.storage.database import Database
from repro.workloads.generator import (
    WorkloadSpec,
    generate_workload,
    random_projection_path,
)
from tests.helpers import (
    evaluate_directly,
    random_dag_instance,
    random_tree_instance,
)

SPEC_STRATEGY = st.builds(
    WorkloadSpec,
    depth=st.integers(min_value=1, max_value=3),
    branching=st.integers(min_value=1, max_value=2),
    labeling=st.sampled_from(["SL", "FR"]),
    seed=st.integers(min_value=0, max_value=10_000),
    opf_kind=st.sampled_from(["tabular", "independent"]),
)


@settings(max_examples=40, deadline=None)
@given(spec=SPEC_STRATEGY)
def test_lint_clean_instances_validate(spec):
    instance = generate_workload(spec).instance
    issues = lint_instance(instance)
    if not has_errors(issues):
        instance.validate()    # must not raise


def _structural_paths(graph, root):
    """All label paths of the weak graph, by BFS (graphs are acyclic)."""
    paths = {(): {root}}
    frontier = {(): {root}}
    while frontier:
        next_frontier = {}
        for labels, objects in frontier.items():
            for oid in objects:
                for child in graph.children(oid):
                    extended = (*labels, graph.label(oid, child))
                    next_frontier.setdefault(extended, set()).add(child)
        for labels, objects in next_frontier.items():
            paths.setdefault(labels, set()).update(objects)
        frontier = next_frontier
    return paths


@settings(max_examples=40, deadline=None)
@given(spec=SPEC_STRATEGY)
def test_dataguide_paths_iff_nonzero_existence(spec):
    instance = generate_workload(spec).instance
    guide = build_dataguide(instance)
    graph = instance.weak.graph()
    for labels, objects in _structural_paths(graph, instance.root).items():
        alive = {o for o in objects if existence_probability(instance, o) > 0.0}
        assert guide.targets(labels) == frozenset(alive), labels
        entry = guide.entry(labels)
        if alive:
            assert entry is not None
            if guide.is_tree:
                best = max(existence_probability(instance, o) for o in alive)
                assert entry.lower == pytest.approx(best)
                assert entry.upper >= entry.lower - 1e-12
        else:
            assert entry is None


# ----------------------------------------------------------------------
# Checker verdicts vs direct (engine-free) execution, on >= 20 generated instances
# ----------------------------------------------------------------------
AGREEMENT_SPECS = [
    WorkloadSpec(depth=2, branching=2, labeling=labeling, seed=seed,
                 opf_kind=opf_kind)
    for labeling in ("SL", "FR")
    for opf_kind in ("tabular", "independent")
    for seed in range(6)
]
assert len(AGREEMENT_SPECS) >= 20


def _spec_id(spec):
    return f"{spec.labeling}-{spec.opf_kind}-s{spec.seed}"


@pytest.mark.parametrize("spec", AGREEMENT_SPECS, ids=_spec_id)
def test_never_match_verdicts_agree_with_naive_execution(spec):
    workload = generate_workload(spec)
    rng = random.Random(spec.seed + 7000)
    live_path = random_projection_path(workload, rng)
    dead_path = PathExpression.parse(f"{live_path}.zzz")

    database = Database()
    database.register("base", workload.instance)

    # Checker: the live path is fine, the dead one is a never-match.
    live_plan = PlanBuilder.scan("base").project(live_path).build()
    assert "PX210" not in [d.code for d in check_plan(live_plan, database)]
    dead_plan = PlanBuilder.scan("base").project(dead_path).build()
    assert "PX210" in [d.code for d in check_plan(dead_plan, database)]

    # Direct execution agrees: the live projection keeps a real match,
    # the dead one degenerates to the bare root.
    live = evaluate_directly(database, f"PROJECT {live_path} FROM base AS live")
    assert len(live) > 1
    dead = evaluate_directly(database, f"PROJECT {dead_path} FROM base AS dead")
    assert set(dead.objects) == {workload.instance.root}

    # EXISTS verdicts agree too (PX240 <-> probability zero).
    exists_plan = PlanBuilder.scan("base").exists(dead_path).build()
    assert "PX240" in [d.code for d in check_plan(exists_plan, database)]
    assert evaluate_directly(database, f"EXISTS {dead_path} IN base") == 0.0
    assert evaluate_directly(database, f"EXISTS {live_path} IN base") > 0.0


@pytest.mark.parametrize("spec", AGREEMENT_SPECS, ids=_spec_id)
def test_unsatisfiable_guard_verdicts_agree_with_naive_execution(spec):
    workload = generate_workload(spec)
    rng = random.Random(spec.seed + 8000)
    path = random_projection_path(workload, rng)
    graph = workload.instance.weak.graph()
    oid = rng.choice(sorted(match_path(graph, path).matched))

    database = Database()
    database.register("base", workload.instance)

    plan = PlanBuilder.scan("base").select(
        path, oid, prob_op=">", prob_bound=1.0
    ).build()
    assert "PX225" in [d.code for d in check_plan(plan, database)]

    with pytest.raises(EmptyResultError):
        evaluate_directly(
            database, f"SELECT {path} = {oid} AND PROB > 1.0 FROM base"
        )


# ----------------------------------------------------------------------
# One locate: guide / snapshot answers == the walk's, finding by finding
# ----------------------------------------------------------------------
def _zero_edge_instance():
    """``R.book.isbn`` matches the weak structure (through B2) but B2
    has zero inclusion probability: alive and matched differ."""
    b = InstanceBuilder("R")
    b.children("R", "book", ["B1", "B2"], card=(1, 2))
    b.opf("R", {("B1",): 1.0})
    b.leaf("B1", "title", ["t"], {"t": 1.0})
    b.children("B2", "isbn", ["I2"], card=(1, 1))
    b.opf("B2", {("I2",): 1.0})
    b.leaf("I2", "code", ["c"], {"c": 1.0})
    return b.build()


INSTANCE_STRATEGY = st.one_of(
    SPEC_STRATEGY.map(lambda spec: generate_workload(spec).instance),
    st.integers(min_value=0, max_value=10_000).map(
        lambda seed: random_tree_instance(random.Random(seed))
    ),
    st.integers(min_value=0, max_value=10_000).map(
        lambda seed: random_dag_instance(random.Random(seed))
    ),
    st.just(None).map(lambda _: _zero_edge_instance()),
)


def _walk_match(site, path):
    return None if site.graph is None else match_path(site.graph, path)


def _walk_alive(site, path):
    """The alive set as the passes computed it before they shared one
    helper: always walk, then intersect with the guide's targets."""
    match = _walk_match(site, path)
    if match is None:
        return None
    guide = site.guide_for(path)
    if guide is None:
        return match.matched
    return match.matched & guide.targets(path.labels)


def _probe_plans(instance, structural):
    """Plans of every located kind over every structural path (alive or
    not), a dead extension, and a path rooted below the root (which no
    guide speaks for)."""
    root = instance.root
    paths = [PathExpression(root, labels) for labels in sorted(structural)]
    paths.append(PathExpression(root, (*paths[-1].labels, "zzz")))
    below = sorted(structural.get(paths[1].labels, ())) if len(paths) > 2 else []
    if below:
        graph = instance.weak.graph()
        labels = sorted({graph.label(below[0], c) for c in graph.children(below[0])})
        paths.append(PathExpression(below[0], tuple(labels[:1])))
    for path in paths:
        objects = sorted(structural.get(path.labels, ())) if path.root == root else []
        scan = PlanBuilder.scan("base")
        yield scan.exists(path).build()
        yield scan.count(path).build()
        yield QueryNode("dist", ScanNode("base"), path=path)
        yield scan.project(path).build()
        for oid in [*objects[:2], root]:
            yield scan.point(path, oid).build()
            yield scan.select(path, oid).build()
            yield scan.project(path).select(path, oid).build()


@settings(max_examples=30, deadline=None)
@given(instance=INSTANCE_STRATEGY, truncated=st.booleans())
def test_guide_and_snapshot_locate_like_the_walk(instance, truncated):
    graph = instance.weak.graph()
    structural = _structural_paths(graph, instance.root)
    guide = build_dataguide(instance)
    for entry in guide.paths():
        matched = match_path(
            graph, PathExpression(instance.root, entry.labels)
        ).matched
        assert entry.targets <= matched, entry.labels

    database = Database()
    database.register("base", instance)
    # A truncated guide must be as good as none, to both passes alike.
    # The cap is read when the guide is built: once, on the instance.
    with mock.patch.object(
        dataguide, "DEFAULT_MAX_PATHS", 2 if truncated else 10_000
    ):
        guide_of(database.get("base"))
    for plan in _probe_plans(instance, structural):
        located = (
            check_plan(plan, database),
            certify_plan(plan, database),
        )
        with mock.patch.object(Site, "match", _walk_match), \
                mock.patch.object(Site, "alive", _walk_alive):
            walked = (
                check_plan(plan, database),
                certify_plan(plan, database),
            )
        assert located[0] == walked[0], plan.label()
        assert located[1] == walked[1], plan.label()


# ----------------------------------------------------------------------
# Certificates hold at run time
# ----------------------------------------------------------------------
@settings(max_examples=30, deadline=None)
@given(instance=INSTANCE_STRATEGY)
def test_certificates_hold_at_run_time(instance):
    """Every probe plan's observations lie inside its certificate —
    zero-probability objects and paths rooted below the root included —
    and a plan that raises was predicted to."""
    database = Database()
    database.register("base", instance)
    engine = Engine(database, metrics=MetricsRegistry())
    structural = _structural_paths(instance.weak.graph(), instance.root)
    for plan in _probe_plans(instance, structural):
        try:
            result = engine.execute_plan(plan)
        except NonTreeInstanceError:
            continue    # the tree-only local algorithms decline a DAG
        except PXMLError as exc:
            errors = [d for d in check_plan(plan, database) if d.severity == "error"]
            # Short of an error finding, a zero condition must at least
            # be one the certificate allows: a selection above a
            # projection that pruned its object (EmptyResultError when
            # the projection kept it at probability zero, AlgebraError
            # when it dropped it).
            allowed = isinstance(exc, (EmptyResultError, AlgebraError)) and any(
                facts.condition is not None and facts.condition.lo == 0.0
                for facts in certify_plan(plan, database).facts
            )
            assert errors or allowed, (plan.label(), exc)
        else:
            assert result.violations == (), plan.label()
