"""Vectorized OPF marginalization for the epsilon pass (Section 6.1).

The projection algorithm's hot loop marginalizes each tabular OPF onto
its kept children, weighting every kept child ``o_j`` by its survival
probability ``eps_j``:

    p'(o)(c') = sum_{c in PC(o), c' subseteq c} p(o)(c)
                * prod_{j in c'} eps_j
                * prod_{j in (c ∩ kept) - c'} (1 - eps_j)

The reference implementation enumerates ``2^(#uncertain kept children)``
subsets per support entry in Python.  :func:`marginalize_opf` computes
the same table as a single dense weight matrix: support entries become
bitmask rows over the certain/uncertain kept children, every candidate
survivor subset becomes a column, and one ``bincount`` accumulates the
result keyed by ``(certain-mask << U) | survivor-mask``.  All weights
are nonnegative, so a zero accumulated bin means no contribution and the
nonzero bins are exactly the reference dict's keys.

Without numpy (or outside the size guards — the dense matrix only pays
for itself from :data:`MIN_DENSE_CELLS` up) :func:`marginalize_python`
runs — it is the former ``repro.algebra.projection_prob._marginalize``
body moved here verbatim, and the parity tests hold the two equal.
"""

from __future__ import annotations

from itertools import combinations
from typing import Mapping

from repro.core.distributions import ObjectProbabilityFunction
from repro.core.potential import ChildSet
from repro.index.np_compat import HAS_NUMPY, numpy
from repro.semistructured.graph import Oid

#: Beyond this many uncertain kept children the bitmask key would not fit
#: comfortably in an int64 lane (and the dense matrix would be enormous);
#: fall back to the sparse Python enumeration.
MAX_UNCERTAIN = 20

#: Upper bound on the dense weight matrix (support entries x 2^uncertain)
#: before the vectorized path gives way to the Python one.
MAX_CELLS = 1 << 22

#: Lower bound on the same matrix: the dense path pays ~40 us of array
#: set-up and a Python pass over the support before its first multiply.
#: Measured crossover on full ``2^b`` tables, sparse / dense: 16 entries
#: x 2^4 = 256 cells 75 / 67 us, 64 x 2^3 = 512 cells 217 / 176 us,
#: 32 x 2^5 = 1,024 cells 227 / 108 us; 4 entries x 2^2: 4 / 40 us.
MIN_DENSE_CELLS = 1 << 10


def marginalize_opf(
    opf: ObjectProbabilityFunction,
    kept: list[Oid],
    epsilon: Mapping[Oid, float],
) -> dict[ChildSet, float]:
    """Marginalize ``opf`` onto ``kept``, weighting by ``epsilon``.

    Drop-in for the epsilon pass's marginalization step: same keys, same
    (floating-point-summed) values as :func:`marginalize_python`, chosen
    automatically between the dense numpy path and the sparse Python
    enumeration.
    """
    certain = sorted(c for c in kept if epsilon[c] >= 1.0)
    uncertain = sorted(c for c in kept if epsilon[c] < 1.0)
    if not HAS_NUMPY or not uncertain or len(kept) > MAX_UNCERTAIN:
        return marginalize_python(opf, kept, epsilon)
    support = list(opf.support())
    if not MIN_DENSE_CELLS <= len(support) << len(uncertain) <= MAX_CELLS:
        return marginalize_python(opf, kept, epsilon)
    return _marginalize_numpy(support, certain, uncertain, epsilon)


def marginalize_python(
    opf: ObjectProbabilityFunction,
    kept: list[Oid],
    epsilon: Mapping[Oid, float],
) -> dict[ChildSet, float]:
    """The sparse reference enumeration (former ``_marginalize``).

    Children with ``eps = 1`` (matched objects) always survive, so only
    the genuinely uncertain children are enumerated over — this keeps the
    inner loop at ``2^(#uncertain kept children)`` instead of
    ``2^(#kept children)``.
    """
    certain = frozenset(c for c in kept if epsilon[c] >= 1.0)
    uncertain = sorted(c for c in kept if epsilon[c] < 1.0)
    accum: dict[ChildSet, float] = {}
    for child_set, probability in opf.support():
        sure_part = child_set & certain
        unc_in = [c for c in uncertain if c in child_set]
        for size in range(len(unc_in) + 1):
            for chosen in combinations(unc_in, size):
                weight = probability
                for child in chosen:
                    weight *= epsilon[child]
                for child in unc_in:
                    if child not in chosen:
                        weight *= 1.0 - epsilon[child]
                if weight == 0.0:
                    continue
                new_set = sure_part | frozenset(chosen)
                accum[new_set] = accum.get(new_set, 0.0) + weight
    return accum


def _marginalize_numpy(
    support: list[tuple[ChildSet, float]],
    certain: list[Oid],
    uncertain: list[Oid],
    epsilon: Mapping[Oid, float],
) -> dict[ChildSet, float]:
    np = numpy
    n_uncertain = len(uncertain)
    n_subsets = 1 << n_uncertain
    certain_position = {child: bit for bit, child in enumerate(certain)}
    uncertain_position = {child: bit for bit, child in enumerate(uncertain)}

    probabilities = np.empty(len(support), dtype=np.float64)
    certain_masks = np.zeros(len(support), dtype=np.int64)
    uncertain_masks = np.zeros(len(support), dtype=np.int64)
    for row, (child_set, probability) in enumerate(support):
        probabilities[row] = probability
        c_mask = 0
        u_mask = 0
        for child in child_set:
            bit = certain_position.get(child)
            if bit is not None:
                c_mask |= 1 << bit
                continue
            bit = uncertain_position.get(child)
            if bit is not None:
                u_mask |= 1 << bit
        certain_masks[row] = c_mask
        uncertain_masks[row] = u_mask

    subsets = np.arange(n_subsets, dtype=np.int64)
    bits = ((subsets[:, None] >> np.arange(n_uncertain)) & 1).astype(bool)
    eps = np.asarray([epsilon[child] for child in uncertain], dtype=np.float64)
    survive_weight = np.prod(np.where(bits, eps, 1.0), axis=1)
    drop_weight = np.prod(np.where(bits, 1.0 - eps, 1.0), axis=1)

    # weights[i, m]: support row i keeps exactly survivor subset m.
    feasible = (subsets[None, :] & ~uncertain_masks[:, None]) == 0
    dropped = uncertain_masks[:, None] & ~subsets[None, :]
    weights = (
        probabilities[:, None] * survive_weight[None, :] * drop_weight[dropped]
    )
    weights = np.where(feasible, weights, 0.0)

    keys = (certain_masks[:, None] << n_uncertain) | subsets[None, :]
    accumulated = np.bincount(
        keys.ravel(),
        weights=weights.ravel(),
        minlength=1 << (len(certain) + n_uncertain),
    )

    result: dict[ChildSet, float] = {}
    for key in np.nonzero(accumulated)[0].tolist():
        survivor_mask = key & (n_subsets - 1)
        certain_mask = key >> n_uncertain
        members = [
            child for bit, child in enumerate(certain)
            if certain_mask & (1 << bit)
        ]
        members.extend(
            child for bit, child in enumerate(uncertain)
            if survivor_mask & (1 << bit)
        )
        result[frozenset(members)] = float(accumulated[key])
    return result
