"""Summary aggregations over PSI/PSU: sum, average, and their verification
(§6.1–6.2).

Two rounds:

1. The PSI (or PSU) round establishes which cells are in the result set.
   Servers send the Eq. 3 output to one randomly selected owner — the
   *querier* — who rebuilds the 0/1 indicator ``z`` (replacing the random
   non-members with 0) and deals degree-1 Shamir shares of ``z`` to the
   three servers.
2. Each server computes ``Σ_j S(x_i2)_j × S(z_i)`` per cell (Eq. 11) and
   broadcasts; owners reconstruct the degree-2 result by Lagrange
   interpolation at the three points.

Average additionally aggregates the per-owner tuple-count column ``aA``
(the paper's ``aOK``) and divides.

Verification (interpretation of the full version's Table 11 ``v`` columns):
owners also outsourced ``PF_db1``-permuted copies of each aggregation
column.  The querier sends a second indicator vector — ``z`` permuted by
``PF_db1`` — and the owner checks that the un-permuted verified totals
match the primary totals cell-by-cell.  A server dropping or replaying
Eq. 11 cells cannot fake the pair without knowing ``PF_db1``.
"""

from __future__ import annotations

import numpy as np

from repro.core.psi import psi_column_name, run_psi
from repro.core.psu import run_psu
from repro.core.results import AggregateResult
from repro.exceptions import ProtocolError, QueryError, VerificationError


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


def _indicator_round(system, attribute, over: str, querier, owner_ids):
    """Round 1: run PSI or PSU and return (membership, timings-so-far)."""
    if over == "psi":
        round1 = run_psi(system, attribute, querier=querier,
                         owner_ids=owner_ids)
    elif over == "psu":
        round1 = run_psu(system, attribute, querier=querier,
                         owner_ids=owner_ids)
    else:
        raise ProtocolError(f"unknown set operation {over!r}")
    return round1


def run_aggregate(system, attribute: str, agg_attributes,
                  op: str = "sum", over: str = "psi", verify: bool = False,
                  *, querier: int = 0,
                  owner_ids: list[int] | None = None) -> dict:
    """Sum or average of one or more attributes over PSI/PSU groups.

    Args:
        system: a :class:`~repro.core.system.PrismSystem`.
        attribute: the set-operation attribute ``A_c``.
        agg_attributes: attribute name or list of names to aggregate
            (Table 12 sweeps 1–4 of them in one query).
        op: ``"sum"`` or ``"avg"``.
        over: ``"psi"`` or ``"psu"``.
        verify: run the permuted-copy consistency check.
        querier: the owner that generates the ``z`` shares.
        owner_ids: restrict to a subset of owners.

    Returns:
        Mapping of aggregation attribute → :class:`AggregateResult`.
    """
    if op not in ("sum", "avg"):
        raise ProtocolError(f"unsupported summary aggregation {op!r}")
    if isinstance(agg_attributes, str):
        agg_attributes = [agg_attributes]
    if not agg_attributes:
        raise ProtocolError("no aggregation attributes given")
    transport = system.transport
    owner = system.owners[querier]
    require_decodable(owner.params.domain, f"{over}-{op}")

    round1 = _indicator_round(system, attribute, over, querier, owner_ids)
    timings = round1.timings
    member = round1.membership

    # Round 2: the querier deals z shares to all three servers.
    transport.begin_round(f"{over}-{op}")
    indicator_column = psi_column_name(attribute)
    with timings.measure("owner"):
        z_shares = indicator_shares(system, owner, indicator_column,
                                    owner_ids, member)
        vz_shares = (indicator_shares(system, owner, indicator_column,
                                      owner_ids, member, permuted=True)
                     if verify else None)
    for server, z in zip(system.servers[:3], z_shares):
        transport.transfer(owner.endpoint, server.endpoint, "z-shares", z)
    if verify:
        for server, vz in zip(system.servers[:3], vz_shares):
            transport.transfer(owner.endpoint, server.endpoint, "vz-shares", vz)

    want_counts = op == "avg"
    count_column = "a" + psi_column_name(attribute)
    sums_by_attr: dict[str, list[np.ndarray]] = {a: [] for a in agg_attributes}
    vsums_by_attr: dict[str, list[np.ndarray]] = {a: [] for a in agg_attributes}
    count_outputs: list[np.ndarray] = []
    for server, z in zip(system.servers[:3], z_shares):
        for agg in agg_attributes:
            with timings.measure("fetch"):
                shares = server.fetch_shamir(agg, owner_ids)
            with timings.measure("server"):
                out = server.aggregate_round(agg, z, owner_ids, shares)
            transport.broadcast(server.endpoint,
                                [o.endpoint for o in system.owners],
                                f"agg-{agg}", out)
            sums_by_attr[agg].append(out)
            if verify:
                vz = vz_shares[system.servers.index(server)]
                with timings.measure("fetch"):
                    vshares = server.fetch_shamir("v" + agg, owner_ids)
                with timings.measure("server"):
                    vout = server.aggregate_round("v" + agg, vz, owner_ids,
                                                  vshares)
                transport.broadcast(server.endpoint,
                                    [o.endpoint for o in system.owners],
                                    f"vagg-{agg}", vout)
                vsums_by_attr[agg].append(vout)
        if want_counts:
            with timings.measure("fetch"):
                cshares = server.fetch_shamir(count_column, owner_ids)
            with timings.measure("server"):
                cout = server.aggregate_round(count_column, z, owner_ids,
                                              cshares)
            transport.broadcast(server.endpoint,
                                [o.endpoint for o in system.owners],
                                "agg-count", cout)
            count_outputs.append(cout)

    results: dict[str, AggregateResult] = {}
    with timings.measure("owner"):
        counts = owner.finalize_aggregate(count_outputs) if want_counts else None
        for agg in agg_attributes:
            totals = owner.finalize_aggregate(sums_by_attr[agg])
            verified = False
            if verify:
                vtotals = owner.finalize_aggregate(vsums_by_attr[agg])
                expect = owner.params.pf_db1.apply(totals)
                bad = np.nonzero(vtotals != expect)[0]
                if bad.size:
                    raise VerificationError(
                        f"aggregation verification failed for {agg!r} at "
                        f"{bad.size} cells",
                        failed_cells=bad.tolist(),
                    )
                verified = True
            per_value = owner.aggregate_per_value(member, totals, counts)
            results[agg] = AggregateResult(
                per_value=per_value, timings=timings,
                traffic=transport.stats.summary(), verified=verified,
            )
    return results


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
