"""Compiled kernel tier: the default C backend for the hot fused sweeps.

The three batched server kernels (Eq. 3/7 PSI, Eq. 18 PSU, Eq. 11
aggregation), the two owner-side field equations (the §3.1 Shamir
combine behind dealing and Lagrange, and the Eq. 4 / 8–10 product),
the initiator's Fisher–Yates shuffle behind every dealt permutation
(§4) and the counter-mode PRG stream are numpy/hashlib- or
interpreter-bound; this package puts the same per-element arithmetic
below the interpreter, over the same narrow operands: every share
vector is held at the width of its modulus (:mod:`repro.crypto.widths`), and
sums and products are formed in a type wide enough never to wrap.  It
is an *equivalence-pinned drop-in*: every compiled span computes
bit-identically to the numpy reference (same folded Eq. 3 tables, same
reductions, same SHA-256 stream), which ``tests/test_kernels.py`` pins
per kernel family × width × shard count.

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
4. **Eligibility** — every operand must be aligned, C-contiguous and
   of a width the spans take: per-owner residues of one width summed
   into a row of that width (the owner sum: uint8/uint16 mod δ, uint32
   mod p); one owner-summed vector per row, uint8/uint16 with
   uint16/uint32 group-element tables and outputs and int64 cell
   indices (Eq. 3/7), at the output's width (Eq. 18), uint32 with a
   uint32 z matrix (Eq. 11); uint32 field elements or the int64
   coefficient draws (§3.1 combine); one uint16/uint32 width for both
   factors and the output (Eq. 4 / 8–10); int64 draws and indices (the
   shuffle).  Anything else (sliced matrices,
   unaligned wire views, a width no span takes) falls back per sweep.

The sweep *builders* below return a ``kernel(lo, hi)`` chunk closure
writing into a caller-provided output matrix, or ``None`` when any rung
of the ladder says numpy.  Each has a numpy twin with the same
signature in :mod:`repro.entities.server` (``numpy_psi_sweep`` and
friends), and one selector per equation there
(``kernels.psi_sweep(...) or numpy_psi_sweep(...)``) is the only place
that picks between them.  Every server equation takes a column's
owners only through their sum, so :func:`sum_sweep` is the only builder
that takes per-owner share lists: it builds each server's owner-summed
vectors of both kinds (mod δ and mod p), which the server keeps per
store version, and every other sweep builder reads one summed vector
per row.  The owner spans follow the same contract:
:func:`combine_span` is selected in ``ShamirSharing._combine`` against
:func:`repro.crypto.shamir.numpy_combine_span`, :func:`mul_mod_span` in
``repro.entities.owner._mul_mod`` against
:func:`repro.entities.owner.numpy_mul_mod_span`, and :func:`shuffle` in
``SeededPRG.shuffle_indices`` against
:func:`repro.crypto.prg.numpy_shuffle` (Fisher–Yates is sequential, so
its closure takes no span).  This package stays an
optional plug-in: the protocol layer never needs it to compute a sweep.  Closures only read
shared state and write disjoint spans, so
the deployment's thread pool (:class:`repro.core.sharding.ShardRuntime`)
drives them in parallel (ctypes releases the GIL for the duration of
each C call).
"""

from __future__ import annotations

import ctypes
import os

import numpy as np

from repro.exceptions import ProtocolError
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

#: Operand widths the compiled spans take, per role.
_SHARE_ADDITIVE = (np.dtype(np.uint8), np.dtype(np.uint16))
_GROUP = (np.dtype(np.uint16), np.dtype(np.uint32))
_RESIDUE = (np.dtype(np.uint8), np.dtype(np.uint16), np.dtype(np.uint32))
_FIELD = (np.dtype(np.uint32),)


def _vec_ok(a, dtypes) -> bool:
    return (isinstance(a, np.ndarray) and a.ndim == 1
            and a.dtype in dtypes and a.flags.c_contiguous
            and a.flags.aligned)


def _matrix_ok(a, dtype: np.dtype) -> bool:
    """Row-contiguous 2-D operand of exactly ``dtype``."""
    return (isinstance(a, np.ndarray) and a.ndim == 2 and a.dtype == dtype
            and a.flags.aligned and a.strides[1] == a.itemsize)


def _row_ptrs(share_lists, dtype: np.dtype) -> list | None:
    """Per-row ctypes pointer arrays over ``dtype`` share vectors, or
    ``None``."""
    ptrs = []
    for row_shares in share_lists:
        if not all(_vec_ok(s, (dtype,)) for s in row_shares):
            return None
        ptrs.append((ctypes.c_void_p * max(1, len(row_shares)))(
            *[s.ctypes.data for s in row_shares]))
    return ptrs


def _sweep_lib(out: np.ndarray, dtypes):
    """The library if this sweep clears the mode/crossover/output rungs."""
    lib = native_lib()
    if (lib is None or out.dtype not in dtypes or not out.flags.c_contiguous
            or not out.flags.aligned or not out.flags.writeable
            or out.shape[-1] < NATIVE_MIN_SPAN):
        return None
    return lib


def _row_addr(matrix: np.ndarray, row: int) -> int:
    return matrix.ctypes.data + row * matrix.strides[0]


def _owning(kernel, *operands):
    """``kernel`` holding ``operands``: every array whose raw address it
    passes to C lives as long as the closure, whatever the caller keeps."""
    kernel.operands = operands
    return kernel


def psi_sweep(summed, tables: np.ndarray, out: np.ndarray,
              cells: np.ndarray | None = None):
    """Chunk closure for the fused Eq. 3 / Eq. 7 sweep, or ``None``.

    ``summed[q]`` is output row ``q``'s owner-summed vector (built by
    :func:`sum_sweep`) and ``tables[q]`` its folded table (indexed by
    the summed share, at ``out``'s dtype).  With ``cells`` the span
    indexes the cells array (the bucketized per-level sweep); without
    it the span indexes χ directly.
    """
    lib = _sweep_lib(out, _GROUP)
    if (lib is None or not len(summed) or len(summed) != out.shape[0]
            or not all(_vec_ok(v, _SHARE_ADDITIVE)
                       and v.dtype == summed[0].dtype for v in summed)
            or not _matrix_ok(tables, out.dtype)
            or tables.shape[0] != out.shape[0]):
        return None
    if cells is not None and not _vec_ok(cells, (np.dtype(np.int64),)):
        return None
    addrs = [vector.ctypes.data for vector in summed]
    cells_addr = None if cells is None else cells.ctypes.data
    share_size, width = summed[0].itemsize, tables.shape[1]

    def kernel(lo: int, hi: int) -> None:
        for q, addr in enumerate(addrs):
            if lib.repro_psi_span(addr, share_size, cells_addr, lo, hi,
                                  _row_addr(tables, q), width, out.itemsize,
                                  _row_addr(out, q)):
                raise ProtocolError(
                    "additive share outside the folded Eq. 3 table: "
                    "a share is not mod δ")
    return _owning(kernel, tuple(summed), cells)


def sum_sweep(share_lists, modulus: int, out: np.ndarray):
    """Chunk closure summing each row's owners, or ``None``.

    ``out[u, i] = Σ_j share_lists[u][j][i] mod modulus``: a server's
    owner-summed vectors of both kinds, additive columns mod δ and
    Shamir columns mod p.  Shares and ``out`` are residues of one width.
    """
    lib = _sweep_lib(out, _RESIDUE)
    if lib is None or out.ndim != 2 or len(share_lists) != out.shape[0]:
        return None
    ptrs = _row_ptrs(share_lists, out.dtype)
    if ptrs is None:
        return None
    counts = [len(row) for row in share_lists]
    size = out.itemsize

    def kernel(lo: int, hi: int) -> None:
        for u, col_ptrs in enumerate(ptrs):
            lib.repro_sum_mod_span(col_ptrs, counts[u], size, lo, hi,
                                   modulus, _row_addr(out, u))
    return _owning(kernel, tuple(tuple(row) for row in share_lists))


def psu_sweep(summed, keys: list[bytes], delta: int, out: np.ndarray,
              draw_base: int = 0):
    """Chunk closure for the fused Eq. 18 sweep, or ``None``.

    ``summed[q]`` is output row ``q``'s owner-summed vector (built by
    :func:`sum_sweep`) and ``keys[q]`` its 32-byte mask-stream key.
    ``summed`` and ``out`` are residues mod δ of one width.
    ``draw_base`` offsets the mask draws (non-zero when the caller hands
    span-local arrays, as the entity host's span requests do) so shards
    keep seeking the absolute stream exactly like
    ``SeededPRG.integers_at``.
    """
    if delta < 2:
        return None
    lib = _sweep_lib(out, _RESIDUE)
    if (lib is None or len(summed) != out.shape[0]
            or not all(_vec_ok(v, (out.dtype,)) for v in summed)):
        return None
    addrs = [vector.ctypes.data for vector in summed]
    size = out.itemsize

    def kernel(lo: int, hi: int) -> None:
        for q, addr in enumerate(addrs):
            lib.repro_psu_span(addr, size, lo, hi, keys[q], draw_base, delta,
                               _row_addr(out, q))
    return _owning(kernel, tuple(summed))


def agg_sweep(summed, z_matrix: np.ndarray, p: int, out: np.ndarray):
    """Chunk closure for the fused Eq. 11 sweep over uint32 field
    elements, or ``None``: ``out[q, i] = summed[q][i] · z_matrix[q, i]
    mod p`` over row ``q``'s owner-summed Shamir vector."""
    lib = _sweep_lib(out, _FIELD)
    # Row-contiguous is enough: the z views are 2-D column slices whose
    # rows stay contiguous (stride = itemsize).
    if (lib is None or len(summed) != out.shape[0]
            or not all(_vec_ok(v, (out.dtype,)) for v in summed)
            or not _matrix_ok(z_matrix, out.dtype)):
        return None
    addrs = [vector.ctypes.data for vector in summed]

    def kernel(lo: int, hi: int) -> None:
        for q, addr in enumerate(addrs):
            lib.repro_agg_span(addr, _row_addr(z_matrix, q), lo, hi, p,
                               _row_addr(out, q))
    return _owning(kernel, tuple(summed))


# -- owner span builders --------------------------------------------------------

#: Combine operands: field elements, or the int64 coefficient draws.
_COMBINE_IN = (np.dtype(np.uint32), np.dtype(np.int64))
#: Product operands and output share one of these widths.
_PRODUCT = (np.dtype(np.uint16), np.dtype(np.uint32))


def combine_span(vectors, weight_rows, p: int, outs):
    """Chunk closure for the §3.1 Shamir combine, or ``None``.

    ``outs[r][i] = Σ_k weight_rows[r][k] · vectors[k][i] mod p`` into
    uint32 ``outs``; every value and weight must already be a field
    element of a prime ``p`` below ``2**32``.
    """
    n = outs[0].size if outs else 0
    if (not 1 < p < 2**32 or not outs
            or any(_sweep_lib(out, _FIELD) is None or out.ndim != 1
                   or out.size != n for out in outs)
            or not all(_vec_ok(v, _COMBINE_IN) and v.size == n
                       for v in vectors)):
        return None
    lib = native_lib()
    count, rows = len(vectors), len(outs)
    ptrs = (ctypes.c_void_p * count)(*[v.ctypes.data for v in vectors])
    sizes = (ctypes.c_int64 * count)(*[v.itemsize for v in vectors])
    scalars = (ctypes.c_uint64 * (rows * count))(
        *[int(w) for row in weight_rows for w in row])
    out_ptrs = (ctypes.c_void_p * rows)(*[out.ctypes.data for out in outs])

    def kernel(lo: int, hi: int) -> None:
        lib.repro_combine_span(ptrs, sizes, count, scalars, rows, lo, hi, p,
                               out_ptrs)
    return _owning(kernel, tuple(vectors), tuple(outs))


def mul_mod_span(a: np.ndarray, b: np.ndarray, modulus: int,
                 out: np.ndarray):
    """Chunk closure for the Eq. 4 / 8–10 owner product, or ``None``.

    ``out[i] = a[i] · b[i] mod modulus`` with ``a``, ``b`` and ``out``
    of one uint16 or uint32 width.
    """
    lib = _sweep_lib(out, _PRODUCT)
    if (lib is None or out.ndim != 1
            or not all(_vec_ok(v, (out.dtype,)) and v.size == out.size
                       for v in (a, b))):
        return None

    def kernel(lo: int, hi: int) -> None:
        lib.repro_mul_mod_span(a.ctypes.data, b.ctypes.data, out.itemsize,
                               lo, hi, modulus, out.ctypes.data)
    return kernel


# -- initiator span -------------------------------------------------------------

_INDEX = (np.dtype(np.int64),)


def shuffle(draws: np.ndarray, out: np.ndarray):
    """Closure running the §4 Fisher–Yates over ``out`` in place, or
    ``None``.

    ``out`` is the int64 ``arange(n)`` being permuted and ``draws`` the
    ``n - 1`` non-negative int64 draws that pick each swap.
    """
    lib = _sweep_lib(out, _INDEX)
    if (lib is None or out.ndim != 1 or not _vec_ok(draws, _INDEX)
            or draws.size != out.size - 1):
        return None

    def kernel() -> None:
        lib.repro_shuffle(draws.ctypes.data, out.ctypes.data, out.size)
    return kernel
