"""Probabilistic point queries and existential path queries (Section 6.2).

* :func:`point_query` — ``P(o in p)``: the probability that object ``o``
  satisfies path expression ``p`` in a compatible world (Definition 6.1).
  On a tree the paper's "extract o and its path ancestors, compute
  ``eps_r``" recipe collapses to the chain-probability product, because
  the path ancestors of ``o`` form the unique parent chain.

* :func:`existential_query` — ``P(exists o: o in p)``: keep *all* objects
  satisfying ``p`` plus their path ancestors and compute ``eps_r`` — the
  root's survival probability, by the scalar form of the Section 6.1
  epsilon pass (:func:`~repro.algebra.projection_prob.root_epsilon`),
  which performs exactly the inclusion-exclusion over sibling branches
  the sum requires and rewrites no OPF.
"""

from __future__ import annotations

from repro.algebra.projection_prob import root_epsilon
from repro.algebra.selection import chain_to
from repro.core.instance import ProbabilisticInstance
from repro.errors import AlgebraError, NonTreeInstanceError
from repro.index.columnar import ColumnarInstance
from repro.queries.chain import chain_probability
from repro.semistructured.graph import Oid
from repro.semistructured.paths import PathExpression


def point_query(
    pi: ProbabilisticInstance,
    path: PathExpression | str,
    oid: Oid,
    snapshot: ColumnarInstance | None = None,
) -> float:
    """``P(o in p)`` on a tree-structured probabilistic instance.

    Returns 0.0 when ``o`` does not satisfy the path even in the weak
    instance ("it is obvious that the probability must be zero"); a
    non-tree raises :class:`~repro.errors.NonTreeInstanceError` — the
    chain product does not apply, which is not a zero.  ``snapshot`` is
    ``pi``'s columnar snapshot: once the chain is validated, its memoised
    :meth:`~repro.index.columnar.ColumnarInstance.reach` is the product.
    """
    if isinstance(path, str):
        path = PathExpression.parse(path)
    try:
        chain = chain_to(pi, path, oid)
    except NonTreeInstanceError:
        raise
    except AlgebraError:
        return 0.0
    if snapshot is not None:
        return snapshot.reach(pi, oid)
    return chain_probability(pi, chain)


def existential_query(pi: ProbabilisticInstance, path: PathExpression | str) -> float:
    """``P(exists o: o in p)`` — the root's scalar ``eps_r``."""
    return root_epsilon(pi, path)
