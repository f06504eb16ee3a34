"""Shared-memory frame arenas for same-host deployments.

A ``subprocess`` deployment forks its entity hosts, yet every share
vector still rode the socketpair: ``encode`` copied the array into the
frame, the kernel copied the frame twice, and decode copied it back
out — four traversals of data that parent and child could simply
share.  A :class:`ShmArena` is an anonymous ``MAP_SHARED`` mmap created
*before* the fork, so both processes see the same pages: large integer
arrays (at whatever width their dtype tag names) are written straight
into the arena (one copy in) and the
socket frame carries a 24-byte ``(offset, shape)`` reference
(:data:`repro.network.codec._TAG_VECTOR_SHM`); the decoder copies the
span back out of the arena (one copy out).  Two copies and a
constant-size socket frame instead of four copies and a
vector-sized one.

Safety model — the arena is a *per-frame scratch*, not a data
structure:

* Each direction of a forked host's connection owns one arena
  (parent→child requests, child→parent replies).  The host serves the
  connection serially and resets its reply arena before every reply,
  so the parent's multiplexed connection
  (:class:`~repro.network.dispatch._MuxConnection`) keeps one request
  in flight on it: it writes a request only once the previous reply is
  in — which proves that request was fully decoded, so the parent
  resets the request arena just before encoding — and it copies each
  reply out of the arena as it reads it, before the next request (and
  so the host's next reset) can happen.  Nothing the reader still
  needs can be overwritten.  TCP connections carry no arenas and keep
  pipelining.
* The decoder always copies out (:meth:`ShmArena.read_array`); no numpy
  view into the shared pages ever escapes a decode, so a later reset
  cannot corrupt retained state.
* A frame whose payload outgrows the arena falls back to the inline
  wire tags transparently — correctness never depends on arena size.
"""

from __future__ import annotations

import mmap

import numpy as np

from repro.exceptions import ProtocolError

#: Default arena size per direction: comfortably holds the fused batch
#: matrices of a 1M-row χ sweep while staying cheap to mmap (pages are
#: allocated lazily by the kernel, not up front).
DEFAULT_ARENA_BYTES = 64 << 20


class ShmArena:
    """Anonymous shared-memory bump allocator for wire payloads.

    Created before ``fork`` so the pages are shared with the child.
    ``alloc``/``write_array`` bump an offset that resets per frame; see
    the module docstring for the (serial-protocol) safety argument.
    """

    def __init__(self, size: int = DEFAULT_ARENA_BYTES):
        self.size = int(size)
        self._mm = mmap.mmap(-1, self.size)  # anonymous + MAP_SHARED
        self._offset = 0
        self._closed = False

    def reset(self) -> None:
        """Start a new frame: every prior allocation is fair game."""
        self._offset = 0

    def alloc(self, nbytes: int) -> int | None:
        """Reserve ``nbytes`` (8-byte aligned); ``None`` when full."""
        start = (self._offset + 7) & ~7
        if start + nbytes > self.size:
            return None
        self._offset = start + nbytes
        return start

    def write_array(self, values: np.ndarray) -> int | None:
        """Copy a contiguous array in; returns its offset or ``None``.

        The single copy-in: the array's buffer lands directly in the
        shared pages (no intermediate ``tobytes`` allocation).
        """
        if self._closed:
            return None
        nbytes = values.nbytes
        offset = self.alloc(nbytes)
        if offset is None:
            return None
        self._mm[offset:offset + nbytes] = memoryview(values).cast("B")
        return offset

    def read_array(self, offset: int, count: int,
                   dtype: np.dtype) -> np.ndarray:
        """Copy ``count`` elements of ``dtype`` out (the arena is
        per-frame scratch).

        Raises:
            ProtocolError: when the reference leaves the arena — a
                corrupt or adversarial frame, never a caller bug.
        """
        end = offset + dtype.itemsize * count
        if offset < 0 or end > self.size:
            raise ProtocolError(
                f"shared-memory reference [{offset}, {end}) leaves the "
                f"{self.size}-byte arena")
        out = np.frombuffer(self._mm, dtype=dtype, count=count,
                            offset=offset)
        return out.astype(dtype.newbyteorder("="))

    def close(self) -> None:
        if not self._closed:
            self._closed = True
            self._mm.close()

    def __del__(self):  # pragma: no cover - GC ordering dependent
        try:
            self.close()
        except (BufferError, ValueError):
            pass
