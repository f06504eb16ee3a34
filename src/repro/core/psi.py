"""PSI query execution (§5.1) and result verification (§5.2).

One communication round: the two additive-share servers sweep all owners'
χ shares through the Eq. 3 kernel and broadcast their length-``b`` output
vectors to the owners; each owner multiplies pointwise modulo ``eta``
(Eq. 4) and reads off the cells equal to 1.

With ``verify=True`` the servers additionally sweep the complement table
(Eq. 7) in the same round; owners un-permute with ``PF_db1`` and check
``r1 * r2 == 1 (mod eta)`` per cell (Eq. 8–10), which detects skipped
cells, replayed cells and injected values (§5.2).
"""

from __future__ import annotations

import numpy as np

from repro.core.results import PhaseTimings, SetResult
from repro.exceptions import ProtocolError


def psi_column_name(attribute: str | tuple, prefix: str = "") -> str:
    """Canonical stored-column name for a PSI attribute (or tuple)."""
    if isinstance(attribute, str):
        return prefix + attribute
    return prefix + "*".join(attribute)


def run_psi(system, attribute: str | tuple, verify: bool = False,
            *, querier: int = 0,
            owner_ids: list[int] | None = None) -> SetResult:
    """Execute a PSI query over the outsourced χ shares.

    Args:
        system: a :class:`~repro.core.system.PrismSystem` (or anything with
            owners/servers/transport).
        attribute: the PSI attribute ``A_c`` (or attribute tuple for
            multi-attribute PSI, §6.6).
        verify: also run and check the §5.2 verification stream; raises
            :class:`~repro.exceptions.VerificationError` on tampering.
        querier: which owner finalises/decodes the result (all owners
            receive it; one representative does the bookkeeping here).
        owner_ids: restrict the query to a subset of owners (m becomes the
            subset size).

    Returns:
        A :class:`SetResult` whose ``values`` are the intersection.
    """
    column = psi_column_name(attribute)
    timings = PhaseTimings()
    transport = system.transport
    servers = system.servers[:2]
    owner = system.owners[querier]

    transport.begin_round("psi")
    outputs = []
    vouts = []
    for server in servers:
        with timings.measure("fetch"):
            shares = server.fetch_additive(column, owner_ids)
            vshares = (server.fetch_additive("v" + column, owner_ids)
                       if verify else None)
        with timings.measure("server"):
            out = server.psi_round(column, owner_ids, shares)
            vout = (server.verification_round("v" + column, owner_ids,
                                              vshares)
                    if verify else None)
        receivers = [o.endpoint for o in system.owners]
        transport.broadcast(server.endpoint, receivers, "psi-output", out)
        outputs.append(out)
        if verify:
            transport.broadcast(server.endpoint, receivers, "psi-vout", vout)
            vouts.append(vout)

    with timings.measure("owner"):
        fop = owner.finalize_psi(outputs[0], outputs[1])
        member = owner.psi_membership(fop)
        verified = False
        if verify:
            owner.verify_psi(fop, vouts[0], vouts[1])
            verified = True
        values = owner.decode_cells(member, attribute)

    return SetResult(values=values, membership=member, timings=timings,
                     traffic=transport.stats.summary(), verified=verified)


def psi_reference(relations, attribute: str | tuple) -> set:
    """Plaintext oracle: the true intersection, for tests and benches."""
    sets = []
    for rel in relations:
        if isinstance(attribute, str):
            sets.append(set(rel.distinct(attribute)))
        else:
            columns = [rel.column(a) for a in attribute]
            sets.append(set(zip(*columns)))
    if not sets:
        raise ProtocolError("no relations supplied")
    out = sets[0]
    for s in sets[1:]:
        out &= s
    return out


def membership_vector(values, domain) -> np.ndarray:
    """Boolean membership vector of a value collection over a domain."""
    member = np.zeros(domain.size, dtype=bool)
    for v in values:
        member[domain.cell_of(v)] = True
    return member
