"""PSU helpers (§7): the plaintext union oracle.

The protocol itself — the Eq. 18 sweep, the Eq. 19 finalisation and the
complement-stream verification — runs in :mod:`repro.core.batch`.
"""

from __future__ import annotations

from repro.exceptions import ProtocolError


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
