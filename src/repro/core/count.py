"""PSI/PSU cardinality queries (§6.5).

PSI-Count is PSI with one extra server-side step: the output vector is
permuted with ``PF_s1`` (unknown to owners) before transmission.  Owners
still finalise with Eq. 4 and count the ones — the cardinality — but the
positions of those ones no longer identify domain values.

Count *verification* uses the Eq. (1) permutation quadruple: the data
stream runs over χ pre-permuted with ``PF_db1`` (column ``cA``) and gets
``PF_s1`` applied server-side; the complement stream runs over χ̄
pre-permuted with ``PF_db2`` (column ``cvA``) and gets ``PF_s2`` applied.
Both therefore arrive permuted by the same unknown ``PF_i``, so the owner
can pair cell *i* of the result with cell *i* of the proof and check
``r1 * r2 == 1 (mod eta)`` — without learning any positions.
"""

from __future__ import annotations

import numpy as np

from repro.core.psi import psi_column_name
from repro.core.results import CountResult, PhaseTimings


def run_psi_count(system, attribute: str | tuple, verify: bool = False,
                  *, querier: int = 0,
                  owner_ids: list[int] | None = None) -> CountResult:
    """Cardinality of the intersection, revealing nothing else.

    With ``verify=True`` the Eq. (1)-paired complement stream is checked;
    requires the system to have been outsourced ``with_verification``.
    """
    base = psi_column_name(attribute)
    # Verified counts read the pre-permuted columns; plain counts read the
    # ordinary χ column (servers permute either way).
    column = ("c" + base) if verify else base
    timings = PhaseTimings()
    transport = system.transport
    owner = system.owners[querier]

    transport.begin_round("psi-count")
    outputs = []
    vouts = []
    for server in system.servers[:2]:
        with timings.measure("fetch"):
            shares = server.fetch_additive(column, owner_ids)
            vshares = (server.fetch_additive("cv" + base, owner_ids)
                       if verify else None)
        with timings.measure("server"):
            out = server.count_round(column, owner_ids, shares)
            vout = (server.count_verification_round("cv" + base, owner_ids,
                                                    vshares)
                    if verify else None)
        receivers = [o.endpoint for o in system.owners]
        transport.broadcast(server.endpoint, receivers, "count-output", out)
        outputs.append(out)
        if verify:
            transport.broadcast(server.endpoint, receivers, "count-vout", vout)
            vouts.append(vout)

    with timings.measure("owner"):
        fop = owner.finalize_psi(outputs[0], outputs[1])
        count = int(np.count_nonzero(fop == 1))
        if verify:
            owner.verify_count(fop, vouts[0], vouts[1])

    return CountResult(count=count, timings=timings,
                       traffic=transport.stats.summary())


def run_psu_count(system, attribute: str | tuple,
                  *, querier: int = 0,
                  owner_ids: list[int] | None = None) -> CountResult:
    """Cardinality of the union, revealing nothing else.

    Servers permute the PSU output with ``PF_s1`` before transmission, the
    exact §6.5 trick applied to Eq. 18 output.
    """
    column = psi_column_name(attribute)
    nonce = system.next_nonce()
    timings = PhaseTimings()
    transport = system.transport
    owner = system.owners[querier]

    transport.begin_round("psu-count")
    outputs = []
    for server in system.servers[:2]:
        with timings.measure("fetch"):
            shares = server.fetch_additive(column, owner_ids)
        with timings.measure("server"):
            out = server.psu_round(column, nonce, owner_ids, shares)
            out = server.params.pf_s1.apply(out)
        transport.broadcast(server.endpoint,
                            [o.endpoint for o in system.owners],
                            "psu-count-output", out)
        outputs.append(out)

    with timings.measure("owner"):
        member = owner.finalize_psu(outputs[0], outputs[1])
        count = int(np.count_nonzero(member))

    return CountResult(count=count, timings=timings,
                       traffic=transport.stats.summary())
