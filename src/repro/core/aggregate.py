"""Summary-aggregation helpers (§6.1–6.2) and the plaintext oracle.

The two-round protocol runs in :mod:`repro.core.batch`, which calls
two helpers from here: the up-front refusal of undecodable group values
and the querier's cached indicator dealing (§6.1 Step 3).
:func:`aggregate_reference` is the plaintext oracle of tests and benches.
"""

from __future__ import annotations

import numpy as np

from repro.exceptions import QueryError


def require_decodable(domain, kind: str) -> None:
    """Refuse an aggregation whose group values the domain cannot name.

    A hashed domain's cells do not decode to values, so a per-value
    result could only fail after both rounds; checking first costs no
    round and deals no shares.
    """
    if not getattr(domain, "invertible", True):
        raise QueryError(
            f"{kind} over {domain.attribute!r} needs an enumerated or "
            f"product domain: hashed-domain cells do not decode to the "
            f"group values a per-value result names"
        )


def indicator_shares(system, owner, column: str, owner_ids, member,
                     permuted: bool = False) -> list:
    """Dealt Shamir shares of a 0/1 indicator, via the initiator's cache.

    The querier's Phase-2 share generation (§6.1 Step 3) is memoised in
    :class:`~repro.entities.initiator.IndicatorShareCache` so repeated or
    overlapping queries — the batch engine's bread and butter — skip the
    dealing round entirely.  ``permuted`` selects the verification stream
    (the ``PF_db1``-permuted copy of the indicator).

    Systems without an initiator cache (bare orchestration objects in
    tests) fall back to dealing fresh shares every time.
    """
    vector = member.astype(np.uint8)
    stream = "z"
    if permuted:
        vector = owner.params.pf_db1.apply(vector)
        stream = "vz"
    cache = getattr(getattr(system, "initiator", None), "indicator_cache", None)
    if cache is None:
        return owner.shamir_shares_of(vector)
    key = cache.key(stream, owner.owner_id, column, owner_ids, vector)
    shares = cache.get(key)
    if shares is None:
        shares = owner.shamir_shares_of(vector)
        cache.put(key, shares)
    return shares


def aggregate_reference(relations, attribute: str, agg_attribute: str,
                        values, op: str = "sum") -> dict:
    """Plaintext oracle for sum/avg over a given result-set of values."""
    out = {}
    for value in values:
        total = 0
        count = 0
        for rel in relations:
            for k, v in zip(rel.column(attribute), rel.column(agg_attribute)):
                if k == value:
                    total += v
                    count += 1
        out[value] = total if op == "sum" else (total / count if count else 0.0)
    return out
