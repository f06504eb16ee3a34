"""Storage and wire widths of share vectors.

Every share vector Prism stores, sweeps or ships is a vector of
residues modulo one of three moduli: additive χ shares and PSU outputs
live mod δ, PSI/verification/count outputs are group elements mod η′,
and aggregation shares live mod the Shamir prime p.  A vector of
residues mod ``n`` needs ⌈log₂ n⌉ bits per element, so each one is
held in :func:`share_dtype` — the narrowest unsigned dtype that holds
``n − 1`` — never in a fixed machine word.  The same function sizes
accumulators: a sum of ``m`` residues mod δ is held in
``share_dtype(m · (δ − 1) + 1)``.

:func:`as_shares` admits an in-process vector (any integer dtype, every
value in ``[0, n)``) at its width; :func:`check_stream` admits a
received wire stream, which must already carry exactly that width.
Neither ever wraps or silently widens a value.
"""

from __future__ import annotations

import numpy as np

from repro.exceptions import ProtocolError

#: ``(largest value, dtype)`` of each unsigned width, narrowest first.
_UNSIGNED = tuple((int(np.iinfo(t).max), np.dtype(t))
                  for t in (np.uint8, np.uint16, np.uint32, np.uint64))


def share_dtype(modulus: int) -> np.dtype:
    """The narrowest unsigned dtype holding every residue in ``[0, modulus)``.

    Raises:
        ProtocolError: for a modulus below 2 or above ``2**64``.
    """
    modulus = int(modulus)
    if modulus < 2:
        raise ProtocolError(f"modulus must exceed 1, got {modulus}")
    for top, dtype in _UNSIGNED:
        if modulus - 1 <= top:
            return dtype
    raise ProtocolError(f"modulus {modulus} exceeds 64-bit share vectors")


def _check_range(values: np.ndarray, modulus: int, what: str) -> None:
    if values.size and (values.min() < 0 or values.max() >= modulus):
        raise ProtocolError(
            f"{what} holds values outside [0, {modulus})")


def as_shares(values, modulus: int, what: str) -> np.ndarray:
    """``values`` as residues mod ``modulus`` at :func:`share_dtype` width.

    Accepts any integer dtype whose values all lie in ``[0, modulus)``.

    Raises:
        ProtocolError: naming ``what``, for a non-integer dtype or a
            value outside ``[0, modulus)``.
    """
    values = np.asarray(values)
    if values.dtype.kind not in "iu":
        raise ProtocolError(
            f"{what} has non-integer dtype {values.dtype}")
    _check_range(values, modulus, what)
    return values.astype(share_dtype(modulus), copy=False)


def check_stream(values, modulus: int, what: str) -> np.ndarray:
    """Admit a received stream of residues mod ``modulus``.

    Raises:
        ProtocolError: naming ``what``, unless ``values`` is an array of
            exactly :func:`share_dtype` width with every value below
            ``modulus``.
    """
    expected = share_dtype(modulus)
    if not isinstance(values, np.ndarray) or values.dtype != expected:
        got = values.dtype if isinstance(values, np.ndarray) else \
            type(values).__name__
        raise ProtocolError(
            f"{what} arrived as {got}, expected {expected} for modulus "
            f"{modulus}")
    _check_range(values, modulus, what)
    return values
