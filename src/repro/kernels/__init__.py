"""Compiled kernel tier: the default C backend for the hot fused sweeps.

The three batched server kernels (Eq. 3/7 PSI, Eq. 18 PSU, Eq. 11
aggregation) and the counter-mode PRG stream are numpy/hashlib-bound;
this package puts the same per-element int64 arithmetic below the
interpreter.  It is an *equivalence-pinned drop-in*: every compiled
span computes bit-identically to the numpy reference (same wraparound,
same floored-mod reduction points, same SHA-256 stream), which
``tests/test_kernels.py`` pins per kernel family × shard count.

Selection ladder:

1. **Mode** — ``configure(mode)`` or the ``REPRO_KERNELS`` environment
   variable: unset (``"auto"``) or ``"c"``/``"on"`` enables the
   compiled tier; ``"off"``/``"numpy"`` forces the reference kernels,
   which stay the readable statement of each equation.
2. **Availability** — the C library builds lazily on first use
   (:mod:`repro.kernels.cbackend`); no compiler, a failed build, or a
   big-endian host falls back *transparently* to numpy.
3. **Crossover** — sweeps shorter than :data:`NATIVE_MIN_SPAN` stay on
   numpy, where per-call ctypes overhead would eat the win.
4. **Eligibility** — every operand must be an aligned C-contiguous
   int64 vector; anything else (sliced matrices, unaligned wire views)
   falls back per sweep.

The sweep *builders* below return a ``kernel(lo, hi)`` chunk closure
writing into a caller-provided output matrix, or ``None`` when any rung
of the ladder says numpy — so the server kernels and
:func:`repro.core.sharding.compute_sweep_span` keep a single fallback
shape.  Closures only read shared state and write disjoint spans, so
the deployment's thread pool (:class:`repro.core.sharding.ShardRuntime`)
drives them in parallel (ctypes releases the GIL for the duration of
each C call).
"""

from __future__ import annotations

import ctypes
import os

import numpy as np

from repro.kernels import cbackend

#: Sweep lengths below this stay on numpy: the per-row ctypes call
#: overhead (~1 µs) dominates tiny spans.  Measured with
#: ``benchmarks/bench_kernels.py``.
NATIVE_MIN_SPAN = 512

#: Environment mode flag (read once per ``configure()`` resolution).
MODE_ENV = "REPRO_KERNELS"

_ON_MODES = {"", "c", "compiled", "auto", "on", "1"}
_OFF_MODES = {"off", "numpy", "0", "none"}

_mode: str | None = None          # resolved mode ("c-requested" | "numpy")
_lib: ctypes.CDLL | None = None   # loaded library (only in "c-requested")


def configure(mode: str | None = None) -> str:
    """Select the kernel backend; returns the *active* backend name.

    ``mode=None`` re-reads :data:`MODE_ENV`; unset means ``"auto"``.
    The compiled tier failing to build is not an error — the numpy
    reference stays in charge and this returns ``"numpy"``.
    """
    global _mode, _lib
    raw = (mode if mode is not None
           else os.environ.get(MODE_ENV, "auto")).strip().lower()
    if raw in _OFF_MODES:
        _mode, _lib = "numpy", None
    elif raw in _ON_MODES:
        _mode = "c-requested"
        _lib = cbackend.load()
    else:
        raise ValueError(
            f"unknown kernel backend {raw!r}: expected one of "
            f"{sorted(_ON_MODES | _OFF_MODES)}")
    return active_backend()


def _ensure_resolved() -> None:
    if _mode is None:
        configure()


def active_backend() -> str:
    """``"c"`` when compiled sweeps will run, else ``"numpy"``."""
    _ensure_resolved()
    return "c" if _lib is not None else "numpy"


def available() -> bool:
    """Whether the compiled library can be built/loaded on this host."""
    return cbackend.load() is not None


def enabled() -> bool:
    return active_backend() == "c"


def native_lib() -> ctypes.CDLL | None:
    """The loaded library when the compiled tier is active, else ``None``."""
    _ensure_resolved()
    return _lib


# -- PRG stream ---------------------------------------------------------------

def prg_fill(key: bytes, start: int, n: int) -> bytes | None:
    """Stream bytes ``[start, start+n)`` via the C generator, or ``None``."""
    lib = native_lib()
    if lib is None:
        return None
    buf = bytearray(n)
    if n:
        lib.repro_prg_fill(key, start, n,
                           ctypes.addressof((ctypes.c_ubyte * n).from_buffer(buf)))
    return bytes(buf)


# -- sweep builders -----------------------------------------------------------

def _vec_ok(a: np.ndarray) -> bool:
    return (isinstance(a, np.ndarray) and a.ndim == 1
            and a.dtype == np.int64 and a.flags.c_contiguous
            and a.flags.aligned)


def _row_ptrs(share_lists) -> list | None:
    """Per-row ctypes pointer arrays over the share vectors, or ``None``."""
    ptrs = []
    for row_shares in share_lists:
        if not all(_vec_ok(s) for s in row_shares):
            return None
        ptrs.append((ctypes.c_void_p * max(1, len(row_shares)))(
            *[s.ctypes.data for s in row_shares]))
    return ptrs


def _out_ok(out: np.ndarray) -> bool:
    return (out.dtype == np.int64 and out.flags.c_contiguous
            and out.flags.aligned and out.flags.writeable)


def _sweep_lib(out: np.ndarray):
    """The library if this sweep clears the mode/crossover/output rungs."""
    lib = native_lib()
    if lib is None or not _out_ok(out) or out.shape[-1] < NATIVE_MIN_SPAN:
        return None
    return lib


def _row_addr(matrix: np.ndarray, row: int) -> int:
    return matrix.ctypes.data + row * matrix.strides[0]


def psi_sweep(share_lists, m_rows, delta: int, table: np.ndarray,
              out: np.ndarray, cells: np.ndarray | None = None):
    """Chunk closure for the fused Eq. 3 / Eq. 7 sweep, or ``None``.

    With ``cells`` the span indexes the cells array (the bucketized
    per-level sweep); without it the span indexes χ directly.
    """
    lib = _sweep_lib(out)
    if lib is None or not _vec_ok(table) or len(table) < delta:
        return None
    if cells is not None and not _vec_ok(cells):
        return None
    ptrs = _row_ptrs(share_lists)
    if ptrs is None:
        return None
    m_flat = [int(v) for v in np.ravel(np.asarray(m_rows))]
    counts = [len(row) for row in share_lists]
    table_addr = table.ctypes.data

    if cells is None:
        def kernel(lo: int, hi: int) -> None:
            for q, row_ptrs in enumerate(ptrs):
                lib.repro_psi_span(row_ptrs, counts[q], lo, hi, m_flat[q],
                                   delta, table_addr, _row_addr(out, q))
    else:
        cells_addr = cells.ctypes.data

        def kernel(lo: int, hi: int) -> None:
            for q, row_ptrs in enumerate(ptrs):
                lib.repro_psi_cells_span(row_ptrs, counts[q], cells_addr,
                                         lo, hi, m_flat[q], delta,
                                         table_addr, _row_addr(out, q))
    return kernel


def psu_sweep(share_lists, acc: np.ndarray, row_map, keys: list[bytes],
              delta: int, out: np.ndarray, draw_base: int = 0):
    """Chunk closure for the fused Eq. 18 sweep, or ``None``.

    ``share_lists`` holds the *unique* columns' share vectors summed
    into ``acc`` rows; ``row_map[q]`` names the acc row for output row
    ``q`` and ``keys[q]`` its 32-byte mask-stream key.  ``draw_base``
    offsets the mask draws (non-zero when the caller hands span-local
    arrays, as ``compute_sweep_span`` does) so shards keep seeking the
    absolute stream exactly like ``SeededPRG.integers_at``.
    """
    if delta < 2:
        return None
    lib = _sweep_lib(out)
    if lib is None or not _out_ok(acc):
        return None
    ptrs = _row_ptrs(share_lists)
    if ptrs is None:
        return None
    counts = [len(row) for row in share_lists]
    rows = [int(u) for u in row_map]

    def kernel(lo: int, hi: int) -> None:
        for u, col_ptrs in enumerate(ptrs):
            lib.repro_sum_mod_span(col_ptrs, counts[u], lo, hi, delta,
                                   _row_addr(acc, u))
        for q, u in enumerate(rows):
            lib.repro_psu_span(_row_addr(acc, u), lo, hi, keys[q],
                               draw_base, delta, _row_addr(out, q))
    return kernel


def agg_sweep(share_lists, z_matrix: np.ndarray, p: int, out: np.ndarray):
    """Chunk closure for the fused Eq. 11 sweep, or ``None``."""
    lib = _sweep_lib(out)
    if lib is None:
        return None
    # Row-contiguous is enough: the shared-scratch z views are 2-D
    # column slices whose rows stay contiguous (stride = itemsize).
    if not (isinstance(z_matrix, np.ndarray) and z_matrix.ndim == 2
            and z_matrix.dtype == np.int64 and z_matrix.flags.aligned
            and z_matrix.strides[1] == z_matrix.itemsize):
        return None
    ptrs = _row_ptrs(share_lists)
    if ptrs is None:
        return None
    counts = [len(row) for row in share_lists]

    def kernel(lo: int, hi: int) -> None:
        for q, row_ptrs in enumerate(ptrs):
            lib.repro_agg_span(row_ptrs, counts[q], _row_addr(z_matrix, q),
                               lo, hi, p, _row_addr(out, q))
    return kernel
