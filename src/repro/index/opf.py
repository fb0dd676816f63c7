"""OPF marginalization for the epsilon pass (Section 6.1).

The projection algorithm's hot loop marginalizes each tabular OPF onto
its kept children, weighting every kept child ``o_j`` by its survival
probability ``eps_j``:

    p'(o)(c') = sum_{c in PC(o), c' subseteq c} p(o)(c)
                * prod_{j in c'} eps_j
                * prod_{j in (c ∩ kept) - c'} (1 - eps_j)

:func:`marginalize` computes that table one child at a time over the
OPF's bitmask table: every dropped child is summed out in one pass
(``mask & kept``), then each uncertain kept child splits every entry
that holds it into "survives" (weight ``eps_j``) and "dies" (weight
``1 - eps_j``, added to the entry without it).  A child with
``eps_j = 1`` always survives and needs no pass.  That is
O(children x entries), where enumerating the survivor subsets of each
entry is ``3^b`` on a full ``2^b`` table.
"""

from __future__ import annotations

from collections.abc import Iterable, Mapping

from repro.core.distributions import TabularOPF
from repro.semistructured.graph import Oid


def marginalize(
    opf: TabularOPF,
    kept: Iterable[Oid],
    epsilon: Mapping[Oid, float],
) -> dict[int, float]:
    """``opf`` marginalized onto ``kept``, weighting by ``epsilon``: a
    table of masks over ``opf.children`` (bits only of kept children).
    All weights are nonnegative, so an entry is zero only where every
    contribution to it is."""
    keep = 0
    splits: list[tuple[int, float]] = []
    for child in kept:
        bit = opf.bit(child)
        keep |= bit
        if bit and epsilon[child] < 1.0:
            splits.append((bit, epsilon[child]))
    table: dict[int, float] = {}
    for mask, probability in opf.masks.items():
        mask &= keep
        table[mask] = table.get(mask, 0.0) + probability
    for bit, survives in splits:
        dies = 1.0 - survives
        for mask, probability in list(table.items()):
            if mask & bit:
                # Only this entry writes ``mask``; ``mask ^ bit`` lacks
                # ``bit`` and keeps what it had.
                table[mask] = probability * survives
                table[mask ^ bit] = table.get(mask ^ bit, 0.0) + probability * dies
    return table
