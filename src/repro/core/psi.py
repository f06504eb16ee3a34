"""PSI helpers (§5.1): stored-column names and the plaintext oracles.

The protocol itself — the Eq. 3 sweep, the Eq. 4 finalisation and the
§5.2 verification stream — runs in :mod:`repro.core.batch`.
"""

from __future__ import annotations

import numpy as np

from repro.exceptions import ProtocolError


def psi_column_name(attribute: str | tuple, prefix: str = "") -> str:
    """Canonical stored-column name for a PSI attribute (or tuple)."""
    if isinstance(attribute, str):
        return prefix + attribute
    return prefix + "*".join(attribute)


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
