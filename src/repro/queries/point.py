"""Probabilistic point queries and existential path queries (Section 6.2).

* :func:`point_query` — ``P(o in p)``: the probability that object ``o``
  satisfies path expression ``p`` in a compatible world (Definition 6.1).
  On a tree the paper's "extract o and its path ancestors, compute
  ``eps_r``" recipe collapses to the chain-probability product, because
  the path ancestors of ``o`` form the unique parent chain.

* :func:`existential_query` — ``P(exists o: o in p)``: keep *all* objects
  satisfying ``p`` plus their path ancestors and compute ``eps_r`` — the
  root's survival probability from the Section 6.1 epsilon pass, which
  performs exactly the inclusion-exclusion over sibling branches the sum
  requires.
"""

from __future__ import annotations

from collections.abc import Mapping

from repro.algebra.projection_prob import epsilon_pass
from repro.algebra.selection import chain_to
from repro.core.instance import ProbabilisticInstance
from repro.errors import AlgebraError, NonTreeInstanceError
from repro.queries.chain import chain_probability
from repro.semistructured.graph import Oid
from repro.semistructured.paths import PathExpression


def point_query(
    pi: ProbabilisticInstance,
    path: PathExpression | str,
    oid: Oid,
    parent_of: Mapping[Oid, Oid] | None = None,
) -> float:
    """``P(o in p)`` on a tree-structured probabilistic instance.

    Returns 0.0 when ``o`` does not satisfy the path even in the weak
    instance ("it is obvious that the probability must be zero"); a
    non-tree raises :class:`~repro.errors.NonTreeInstanceError` — the
    chain product does not apply, which is not a zero.  ``parent_of`` is
    a tree-verified snapshot's child-to-parent map, as for
    :func:`~repro.algebra.selection.chain_to`.
    """
    if isinstance(path, str):
        path = PathExpression.parse(path)
    try:
        chain = chain_to(pi, path, oid, parent_of)
    except NonTreeInstanceError:
        raise
    except AlgebraError:
        return 0.0
    return chain_probability(pi, chain)


def existential_query(pi: ProbabilisticInstance, path: PathExpression | str) -> float:
    """``P(exists o: o in p)`` via the epsilon pass (``eps_r``)."""
    if isinstance(path, str):
        path = PathExpression.parse(path)
    sweep = epsilon_pass(pi, path)
    return sweep.root_epsilon
