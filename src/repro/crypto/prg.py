"""Deterministic pseudorandom generation (§3.1, used by PSU in §7).

Two consumers with different requirements share this module:

* Protocol-critical randomness (the PSU masking stream, share randomness)
  must be *reproducible from a seed alone*, because the two Prism servers
  never communicate yet must derive the identical mask vector.  We build a
  SHA-256 counter-mode generator for that: same seed, same stream, on any
  platform and any numpy version.

* Bulk statistical randomness (workload generation) just needs speed; the
  data layer uses ``numpy.random.Generator`` directly for that.
"""

from __future__ import annotations

import hashlib
import struct

import numpy as np

from repro import kernels
from repro.exceptions import ParameterError

_BLOCK_BYTES = 32  # SHA-256 digest size


def _stream_bytes(key: bytes, start: int, n: int) -> bytes:
    """Bytes ``[start, start + n)`` of the counter-mode stream for ``key``.

    Counter mode makes the stream a pure function of ``(key, start, n)``,
    so sequential consumption (:meth:`SeededPRG.bytes`) and seeking
    (:meth:`SeededPRG.integers_at`) share one implementation — and one
    compiled fast path: when the kernel tier is active (the default) the
    block hashing runs in C (:func:`repro.kernels.prg_fill`),
    bit-identical to the hashlib reference below.
    """
    if n <= 0:
        return b""
    filled = kernels.prg_fill(key, start, n)
    if filled is not None:
        return filled
    # Reference path: one tight comprehension with pre-bound locals —
    # this emits the PSU mask streams (80 KB per query at b = 10k), so
    # per-block Python overhead is measurable.
    first = start // _BLOCK_BYTES
    last = -(-(start + n) // _BLOCK_BYTES)  # ceil
    sha, pack = hashlib.sha256, struct.pack
    blob = b"".join(
        sha(key + pack("<Q", counter)).digest()
        for counter in range(first, last)
    )
    offset = start - first * _BLOCK_BYTES
    return blob[offset:offset + n]


class SeededPRG:
    """SHA-256 counter-mode pseudorandom generator.

    The stream is ``SHA256(seed || 0) || SHA256(seed || 1) || ...`` consumed
    lazily.  Determinism across processes is the point: Prism's PSU requires
    both non-communicating servers to multiply cell ``i`` by the *same*
    pseudorandom value ``rand[i]`` (Eq. 18), which they can only do by
    deriving it from a shared seed.

    Args:
        seed: any integer; namespaced with ``label`` so one master seed can
            safely derive many independent streams.
        label: domain-separation string.
    """

    def __init__(self, seed: int, label: str = ""):
        self._key = hashlib.sha256(
            label.encode("utf-8") + b"|" + str(int(seed)).encode("ascii")
        ).digest()
        self._pos = 0  # absolute byte position in the stream

    @classmethod
    def from_key(cls, key: bytes) -> "SeededPRG":
        """A fresh generator over the stream a :attr:`key_bytes` names."""
        prg = cls.__new__(cls)
        prg._key, prg._pos = bytes(key), 0
        return prg

    @property
    def key_bytes(self) -> bytes:
        """The 32-byte stream key (the fused compiled PSU sweep seeds its
        in-kernel mask generator with this, seeking like ``integers_at``)."""
        return self._key

    def bytes(self, n: int) -> bytes:
        """Next ``n`` bytes of the stream."""
        if n < 0:
            raise ParameterError("cannot draw a negative number of bytes")
        out = _stream_bytes(self._key, self._pos, n)
        self._pos += n
        return out

    def integers(self, n: int, low: int, high: int) -> np.ndarray:
        """``n`` integers uniform in ``[low, high)`` as an int64 array.

        Uses 8 bytes of stream per draw with rejection-free modular
        reduction; the modulus bias is below ``2**-40`` for every range this
        library uses (ranges are < 2**24), which is irrelevant for masking.

        Raises:
            ParameterError: if the range is empty.
        """
        if high <= low:
            raise ParameterError(f"empty range [{low}, {high})")
        span = high - low
        raw = np.frombuffer(self.bytes(8 * n), dtype="<u8")
        return (raw % np.uint64(span)).astype(np.int64) + low

    def integers_at(self, offset: int, n: int, low: int,
                    high: int) -> np.ndarray:
        """Draws ``offset .. offset+n`` of a *fresh* generator's
        :meth:`integers` stream, without consuming this instance's state.

        Counter mode makes the stream seekable: the sharded PSU kernel
        uses this so each χ shard derives exactly its span of
        the Eq. 18 mask vector — bit-identical to slicing the full
        stream, with no serial full-length generation anywhere.
        """
        if high <= low:
            raise ParameterError(f"empty range [{low}, {high})")
        if offset < 0 or n < 0:
            raise ParameterError(
                f"stream window [{offset}, {offset + n}) must be non-negative"
            )
        raw = np.frombuffer(_stream_bytes(self._key, 8 * offset, 8 * n),
                            dtype="<u8")
        span = high - low
        return (raw % np.uint64(span)).astype(np.int64) + low

    def integer(self, low: int, high: int) -> int:
        """One integer uniform in ``[low, high)`` (arbitrary precision).

        Unlike :meth:`integers` this path supports ranges wider than 64
        bits, which the extrema protocol needs for its random blinding
        terms ``r_i`` (§6.3).
        """
        if high <= low:
            raise ParameterError(f"empty range [{low}, {high})")
        span = high - low
        nbytes = (span.bit_length() + 7) // 8 + 8  # +8 to keep bias negligible
        value = int.from_bytes(self.bytes(nbytes), "big")
        return low + (value % span)

    def shuffle_indices(self, n: int) -> np.ndarray:
        """A pseudorandom permutation of ``range(n)`` (Fisher–Yates).

        Deterministic given the seed, used to derive the permutation
        functions ``PF``, ``PF_s*`` and ``PF_db*`` of §4.  The swaps run
        in C where the kernel tier engages, else :func:`numpy_shuffle`.
        """
        indices = np.arange(n, dtype=np.int64)
        if n <= 1:
            return indices
        draws = self.integers(n - 1, 0, 2**63 - 1)
        (kernels.shuffle(draws, indices) or numpy_shuffle(draws, indices))()
        return indices


def numpy_shuffle(draws: np.ndarray, indices: np.ndarray):
    """Fisher–Yates over ``indices`` in place: for ``i`` from ``n - 1``
    down to 1, swap ``indices[i]`` with ``indices[draws[n-1-i] % (i+1)]``.

    Python-loop twin of :func:`repro.kernels.shuffle`, returned as a
    closure like it.
    """
    def kernel() -> None:
        n = indices.size
        for i in range(n - 1, 0, -1):
            j = int(draws[n - 1 - i] % (i + 1))
            indices[i], indices[j] = indices[j], indices[i]
    return kernel


def derive_seed(master_seed: int, label: str) -> int:
    """Derive an independent 63-bit sub-seed from a master seed and label."""
    digest = hashlib.sha256(
        str(int(master_seed)).encode("ascii") + b"/" + label.encode("utf-8")
    ).digest()
    return int.from_bytes(digest[:8], "big") & (2**63 - 1)
