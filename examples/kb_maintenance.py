"""Maintaining a probabilistic knowledge base over time.

Run with:  python examples/kb_maintenance.py

A tour of the maintenance layer built around the core model: updates
(assert/retract/insert/soft evidence), the exhaustive linter, analysis
statistics, Monte-Carlo estimation on models too big to enumerate, and
bounded unrolling of a cyclic specification — the paper's stated future
work.
"""

from repro.algebra.updates import (
    assert_child,
    insert_child,
    retract_child,
    reweight_opf,
    set_value,
)
from repro.analysis import expected_size, summarize, world_entropy
from repro.check.model import format_issues, lint_instance
from repro.core import InstanceBuilder, TabularOPF
from repro.core.instance import ProbabilisticInstance
from repro.core.unroll import unroll
from repro.core.weak_instance import WeakInstance
from repro.queries import QueryEngine, expected_match_count
from repro.semantics import estimate_point_query
from repro.workloads import WorkloadSpec, generate_workload


def build_kb():
    builder = InstanceBuilder("kb")
    builder.children("kb", "paper", ["P1", "P2"])
    builder.opf("kb", {("P1",): 0.3, ("P2",): 0.1, ("P1", "P2"): 0.5, (): 0.1})
    builder.children("P1", "author", ["a1", "a2"])
    builder.opf("P1", {("a1",): 0.6, ("a1", "a2"): 0.3, ("a2",): 0.1})
    builder.children("P2", "author", ["a3"])
    builder.opf("P2", {("a3",): 0.8, (): 0.2})
    builder.leaf("a1", "name", ["Hung", "Getoor"], {"Hung": 0.8, "Getoor": 0.2})
    builder.leaf("a2", "name", vpf={"Getoor": 1.0})
    builder.leaf("a3", "name", vpf={"Hung": 1.0})
    return builder.build()


def main() -> None:
    kb = build_kb()
    print("== Initial knowledge base ==")
    print(f"  {summarize(kb)}")
    print(f"  world entropy: {world_entropy(kb):.3f} bits")
    print(f"  lint: {format_issues(lint_instance(kb))}")

    print("\n== A curator confirms P1 and fixes a1's name ==")
    kb2 = assert_child(kb, "kb", "P1")
    kb2 = set_value(kb2, "a1", "Hung")
    engine = QueryEngine(kb2)
    print(f"  P(P1) now: {engine.point('kb.paper', 'P1'):.3f}")
    print(f"  world entropy fell to {world_entropy(kb2):.3f} bits")

    print("\n== A reviewer reports a2 is NOT an author of P1 ==")
    kb3 = retract_child(kb2, "P1", "a2")
    print(f"  objects now: {sorted(kb3.objects)}")
    print(f"  E[#authors via kb.paper.author] = "
          f"{expected_match_count(kb3, 'kb.paper.author'):.3f}")

    print("\n== A crawler finds a new candidate paper (p=0.35) ==")
    kb4 = insert_child(kb3, "kb", "paper", "P9", 0.35)
    print(f"  P(P9 exists) = {QueryEngine(kb4).point('kb.paper', 'P9'):.3f}")
    print(f"  E[|world|] = {expected_size(kb4):.2f} objects")

    print("\n== Soft evidence: a citation count suggests P2 has an author ==")
    kb5 = reweight_opf(kb4, "P2", lambda c: 3.0 if c else 1.0)
    print(f"  P(a3 | P2) before: 0.80, after: "
          f"{kb5.opf('P2').marginal_inclusion('a3'):.3f}")

    print("\n== Scale: estimating on a model too large to enumerate ==")
    big = generate_workload(
        WorkloadSpec(depth=6, branching=4, labeling="SL", seed=5,
                     opf_kind="independent")
    )
    target = sorted(big.instance.weak.leaves())[0]
    # Exact local answer (tree) vs Monte-Carlo estimate (works on DAGs too).
    graph = big.instance.weak.graph()
    labels, current = [], target
    while current != big.instance.root:
        (parent,) = graph.parents(current)
        labels.append(graph.label(parent, current))
        current = parent
    labels.reverse()
    path = ".".join([big.instance.root, *labels])
    exact = QueryEngine(big.instance).point(path, target)
    estimate = estimate_point_query(big.instance, path, target,
                                    samples=2000, seed=11)
    print(f"  instance: {big.num_objects} objects, "
          f"{big.total_entries} interpretation entries")
    print(f"  exact P = {exact:.4f}, sampled = {estimate}")

    print("\n== Future work made concrete: a cyclic model, unrolled ==")
    weak = WeakInstance("page")
    weak.set_lch("page", "link", ["page"])
    cyclic = ProbabilisticInstance(weak)
    cyclic.set_opf("page", TabularOPF({("page",): 0.6, (): 0.4}))
    for horizon in (1, 3, 6):
        flat = unroll(cyclic, horizon)
        engine = QueryEngine(flat)
        chain = ["page"] + [f"page@{d}" for d in range(1, min(horizon, 3) + 1)]
        print(f"  horizon {horizon}: {len(flat)} copies, "
              f"P(3-hop link chain) = {engine.chain(chain):.4f}"
              if horizon >= 3 else
              f"  horizon {horizon}: {len(flat)} copies")


if __name__ == "__main__":
    main()
