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

Since the round-state redesign the protocol bodies live in
:mod:`repro.core.interactive` as executor-driven
:class:`~repro.core.interactive.InteractiveProgram` state machines whose
round-1 sweep is shard-parallel; :func:`run_extrema` / :func:`run_median`
are thin drivers over those programs (bit-identical results).
"""

from __future__ import annotations

from repro.core.interactive import ExtremaProgram, MedianProgram
from repro.core.results import ExtremaResult, MedianResult
from repro.exceptions import QueryError


def run_extrema(system, attribute: str, agg_attribute: str,
                kind: str = "max", reveal_holders: bool = True,
                verify: bool = False, *, querier: int = 0,
                common_values=None,
                num_shards: int | None = None) -> ExtremaResult:
    """Max or min of ``agg_attribute`` per common value of ``attribute``.

    Args:
        system: a :class:`~repro.core.system.PrismSystem`.
        attribute: the PSI attribute ``A_c``.
        agg_attribute: the attribute ``A_x`` whose extremum is sought.
        kind: ``"max"`` or ``"min"``.
        reveal_holders: run the optional identity round (Steps 5b–7).
        verify: run the extremum round twice with independent blinding
            randomness and require both inverted results to agree — a
            server or announcer tampering with the share arrays cannot
            produce *consistent* wrong answers across two blindings of
            values it never sees in the clear.  (Ties may announce a
            different permuted index each round, so only the extremum
            value is compared.)
        querier: owner used for PSI bookkeeping.
        common_values: skip the PSI round and use these values (lets
            benches isolate round-2 cost).
        num_shards: span count of the PSI sweep (``None``: the
            deployment's default).

    Returns:
        An :class:`ExtremaResult` with the extremum (and holders) per
        common value.
    """
    return ExtremaProgram(system, attribute, agg_attribute, kind=kind,
                          reveal_holders=reveal_holders, verify=verify,
                          querier=querier, common_values=common_values,
                          num_shards=num_shards).run()


def run_median(system, attribute: str, agg_attribute: str,
               *, querier: int = 0, common_values=None,
               num_shards: int | None = None,
               verify: bool = False) -> MedianResult:
    """Median across owners of per-owner group totals (§6.4).

    Raises:
        QueryError: when ``verify=True`` — the median protocol has no
            verification stream, and this entry point fails with the
            same typed exception as the plan-IR validation
            (``"MEDIAN has no verification stream"``), so the shim and
            API paths are indistinguishable to callers.
    """
    if verify:
        raise QueryError("MEDIAN has no verification stream")
    return MedianProgram(system, attribute, agg_attribute,
                         querier=querier, common_values=common_values,
                         num_shards=num_shards).run()


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
