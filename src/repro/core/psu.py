"""PSU query execution (§7) and its verification.

One communication round: each server sums all owners' χ shares per cell,
multiplies by a pseudorandom mask derived from the common PRG seed and a
query nonce (Eq. 18), and broadcasts.  Owners add the two vectors modulo
``delta`` (Eq. 19): zero means no owner holds the value; any nonzero
(masked) value means at least one does — without revealing *how many*,
which is the PSU privacy requirement of §2.

**Verification** (reconstructed from the full version's per-operation
verification promise): in the same round the servers also run the Eq. 3
kernel — *with* the ``⊖ A(m)`` term — over the ``PF_db1``-permuted
complement table ``vA``.  That stream's cell equals 1 **iff every owner
holds the complement**, i.e. iff *no* owner holds the value.  The owner
un-permutes it and checks, cell by cell, that union membership is the
exact negation.  A server tampering with the PSU stream cannot patch the
complement stream consistently because the complement's cell positions
are hidden by ``PF_db1`` (the same 1/b² argument as §5.2).
"""

from __future__ import annotations

import numpy as np

from repro.core.psi import psi_column_name
from repro.core.results import PhaseTimings, SetResult
from repro.exceptions import ProtocolError, VerificationError


def run_psu(system, attribute: str | tuple, verify: bool = False,
            *, querier: int = 0, owner_ids: list[int] | None = None,
            query_nonce: int | None = None) -> SetResult:
    """Execute a PSU query over the outsourced χ shares.

    Args:
        system: a :class:`~repro.core.system.PrismSystem`.
        attribute: the PSU attribute ``A_c`` (or tuple).
        verify: also run the complement-stream consistency check; raises
            :class:`~repro.exceptions.VerificationError` on tampering.
            Requires outsourcing ``with_verification``.
        querier: owner that finalises the result.
        owner_ids: restrict to a subset of owners.
        query_nonce: freshness value for the mask stream; defaults to a
            per-system counter so repeated queries use fresh masks.

    Returns:
        A :class:`SetResult` whose ``values`` are the union.
    """
    column = psi_column_name(attribute)
    nonce = query_nonce if query_nonce is not None else system.next_nonce()
    timings = PhaseTimings()
    transport = system.transport
    owner = system.owners[querier]

    transport.begin_round("psu")
    outputs = []
    vouts = []
    for server in system.servers[:2]:
        with timings.measure("fetch"):
            shares = server.fetch_additive(column, owner_ids)
            vshares = (server.fetch_additive("v" + column, owner_ids)
                       if verify else None)
        with timings.measure("server"):
            out = server.psu_round(column, nonce, owner_ids, shares)
            # The "nobody holds it" stream: Eq. 3 over the complement.
            vout = (server.psi_round("v" + column, owner_ids, vshares)
                    if verify else None)
        receivers = [o.endpoint for o in system.owners]
        transport.broadcast(server.endpoint, receivers, "psu-output", out)
        outputs.append(out)
        if verify:
            transport.broadcast(server.endpoint, receivers, "psu-vout", vout)
            vouts.append(vout)

    with timings.measure("owner"):
        member = owner.finalize_psu(outputs[0], outputs[1])
        verified = False
        if verify:
            absent_fop = owner.finalize_psi(vouts[0], vouts[1])
            absent = owner.params.pf_db1.invert(absent_fop) == 1
            bad = np.nonzero(member == absent)[0]
            if bad.size:
                raise VerificationError(
                    f"PSU verification failed at {bad.size} of "
                    f"{member.size} cells",
                    failed_cells=bad.tolist(),
                )
            verified = True
        values = owner.decode_cells(member, attribute)

    return SetResult(values=values, membership=member, timings=timings,
                     traffic=transport.stats.summary(), verified=verified)


def psu_reference(relations, attribute: str | tuple) -> set:
    """Plaintext oracle: the true union, for tests and benches."""
    out: set = set()
    if not relations:
        raise ProtocolError("no relations supplied")
    for rel in relations:
        if isinstance(attribute, str):
            out |= set(rel.distinct(attribute))
        else:
            columns = [rel.column(a) for a in attribute]
            out |= set(zip(*columns))
    return out
