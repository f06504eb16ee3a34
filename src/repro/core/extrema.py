"""Exemplar aggregations over PSI: maximum, minimum, median (§6.3–6.4).

For each common value ``y`` (from the PSI round):

* **Step 3** — every owner finds its local group extremum ``M_i`` and
  blinds it order-preservingly: ``v_i = F(M_i) + r_i`` (Eq. 12), then
  deals additive big-int shares of ``v_i`` to the two servers.
* **Step 4** — each server arranges the ``m`` shares in owner order,
  permutes with ``PF`` (owner-slot variant) and forwards to the announcer,
  who adds the two arrays (Eq. 13), finds the max/min/median (Eq. 14),
  and returns additive shares of the blinded result and of its permuted
  index via the servers.
* **Step 5a** — owners reconstruct, invert ``F`` by binary search to get
  the true extremum ``z`` (``F(z) <= max < F(z+1)``), and apply ``RPF``
  to the index to learn one holder's identity.
* **Steps 5b–7** (optional, the paper's pink round) — owners share 0/1
  "I hold it" flags; servers assemble the ``fpos`` vectors; owners add
  them to learn *all* holders.

Median (§6.4) replaces FindMax with a sort-and-middle at the announcer and
runs over each owner's per-group *total* (the paper first sums the cost
per disease at each owner); for even ``m`` the two middle blinded values
are returned and the owners average the two inverted values.

The protocol bodies live in :mod:`repro.core.interactive` as
executor-driven :class:`~repro.core.interactive.ExtremaProgram` /
:class:`~repro.core.interactive.MedianProgram` state machines whose
round-1 sweep is shard-parallel (``PrismSystem.psi_max`` /
``psi_min`` / ``psi_median``); this module keeps their plaintext
oracles.
"""

from __future__ import annotations


def extrema_reference(relations, attribute: str, agg_attribute: str,
                      values, kind: str = "max") -> dict:
    """Plaintext oracle for max/min per common value."""
    out = {}
    pick = max if kind == "max" else min
    for value in values:
        candidates = []
        for rel in relations:
            group = [v for k, v in zip(rel.column(attribute),
                                       rel.column(agg_attribute)) if k == value]
            if group:
                candidates.append(pick(group))
        out[value] = pick(candidates)
    return out


def median_reference(relations, attribute: str, agg_attribute: str,
                     values) -> dict:
    """Plaintext oracle: median across owners of per-owner totals."""
    out = {}
    for value in values:
        totals = []
        for rel in relations:
            total = sum(v for k, v in zip(rel.column(attribute),
                                          rel.column(agg_attribute))
                        if k == value)
            totals.append(total)
        totals.sort()
        n = len(totals)
        if n % 2 == 1:
            out[value] = totals[n // 2]
        else:
            out[value] = (totals[n // 2 - 1] + totals[n // 2]) / 2
    return out
