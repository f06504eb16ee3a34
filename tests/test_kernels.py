"""Compiled kernel tier: bit-identity pins against the numpy reference.

The acceptance bar of the default C backend (``repro.kernels``): every
compiled sweep — fused PSI/verification (Eq. 3/7), PSU masking
(Eq. 18), Shamir aggregation (Eq. 11) — and the counter-mode PRG
stream compute **bit-identically** to the numpy/hashlib reference
kernels over narrow share widths (uint8/uint16 additive shares,
uint16/uint32 group elements, uint32 field elements), including the
folded Eq. 3 tables, the Mersenne fold and the SHA-256 block stream.  Pinned four ways:

* unit level — each sweep builder's ``kernel(lo, hi)`` closure, and
  its numpy twin in :mod:`repro.entities.server`, against a
  hand-written numpy replica of the equation, chunked so the span
  seams are exercised; the owner spans (the §3.1 Shamir combine and
  the Eq. 4 / 8–10 product) against their numpy twins at every length
  from empty to a scan-sized χ, with the extreme values 0 and p − 1;
* equation level — both tiers, through the server's selectors, against
  the owner sum, Eq. 3/7 and Eq. 11 in Python integers, at the edge
  moduli, values and lengths (``TestTierParity``, property-based);
* stream level — ``prg_fill`` / ``integers_at`` against the hashlib
  counter stream at odd offsets, in both backends;
* system level — every batchable Table-4 kind (verified where
  supported) and every interactive kind, ``num_shards ∈ {1, 2, 7}``,
  compared against the numpy-mode seed run.

Plus the selection ladder itself: the default mode, mode off, unknown
mode, the below-crossover and ineligible-operand rungs, and the
forced-fallback path (no compiler → ``configure("c")`` stays on numpy
and queries keep working).
"""

from __future__ import annotations

import contextlib
import functools
import gc
import hashlib
import struct

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st
from test_multihost_matrix import (
    SHARD_COUNTS,
    build,
    needs_fork,
    run_batchable,
    run_interactive,
)

from repro import kernels
from repro.core.params import ServerGroupView
from repro.crypto.prg import SeededPRG, numpy_shuffle
from repro.crypto.shamir import ShamirSharing, numpy_combine_span
from repro.crypto.widths import share_dtype
from repro.entities import server as server_module
from repro.entities.owner import _mul_mod, numpy_mul_mod_span
from repro.entities.server import (
    numpy_agg_sweep,
    numpy_psi_sweep,
    numpy_psu_sweep,
    numpy_sum_sweep,
)
from repro.exceptions import ProtocolError
from repro.kernels import cbackend

compiled_available = kernels.available()
needs_cc = pytest.mark.skipif(
    not compiled_available,
    reason="compiled kernel tier unavailable (no C toolchain)")

DELTA = 2039  # uint16 shares; the width tests add δ = 101 (uint8)
ETA_PRIME = 7891  # uint16 group elements
PRIME = 2_147_483_647  # the Shamir field prime (Eq. 11)


@pytest.fixture
def compiled():
    """Activate the compiled tier for one test; restore the env default."""
    if not compiled_available:
        pytest.skip("compiled kernel tier unavailable (no C toolchain)")
    assert kernels.configure("c") == "c"
    yield
    kernels.configure(None)


def _share_lists(rng, rows, owners, n, modulus=DELTA):
    """Per-row owner share vectors: residues mod ``modulus`` at its
    width, exactly as the server stores them."""
    return [[rng.integers(0, modulus, size=n).astype(share_dtype(modulus))
             for _ in range(owners)] for _ in range(rows)]


def _tables(table, m_rows, delta=DELTA, eta_prime=ETA_PRIME):
    """The per-row folded Eq. 3 tables the server hands the sweep."""
    view = ServerGroupView(delta=delta, eta_prime=eta_prime, g=0,
                           power_table=table)
    return view.folded_tables(m_rows)


def _chunked(kernel, n, splits=(0.3, 0.7)):
    """Drive a sweep closure in uneven chunks (seams must be invisible)."""
    bounds = [0, *(int(n * f) for f in splits), n]
    for lo, hi in zip(bounds, bounds[1:]):
        kernel(lo, hi)


def _summed(add, share_lists, modulus, splits=(0.3, 0.7)):
    """Each row's owner sum mod ``modulus`` through the owner-sum
    builder or selector ``add``, as the server builds the vectors its
    Eq. 3/7 and Eq. 11 sweeps read."""
    n = share_lists[0][0].shape[0]
    sums = np.empty((len(share_lists), n), dtype=share_dtype(modulus))
    kernel = add(share_lists, modulus, sums)
    assert kernel is not None, "owner-sum sweep must engage"
    _chunked(kernel, n, splits)
    return list(sums)


# -- int64 replicas of the server equations ------------------------------------
#
# Written straight from the paper (sum, ⊖ A(m), mod δ, table lookup) in
# int64, so they also pin the folded tables and narrow accumulators.


def psi_reference(share_lists, m_flat, delta, table, cells=None):
    n = len(cells) if cells is not None else share_lists[0][0].shape[0]
    out = np.empty((len(share_lists), n), dtype=np.int64)
    for q, row_shares in enumerate(share_lists):
        acc = np.zeros(n, dtype=np.int64)
        for s in row_shares:
            acc += s if cells is None else s[cells]
        acc -= np.int64(m_flat[q])
        np.mod(acc, delta, out=acc)
        out[q] = table[acc]
    return out


def psu_reference(share_lists, row_map, nonces, seed, delta):
    n = share_lists[0][0].shape[0]
    acc = np.zeros((len(share_lists), n), dtype=np.int64)
    for u, col_shares in enumerate(share_lists):
        for s in col_shares:
            acc[u] += s
        np.mod(acc[u], delta, out=acc[u])
    rand = np.stack([SeededPRG(seed, f"psu-{nonce}").integers(n, 1, delta)
                     for nonce in nonces])
    return np.mod(acc[row_map] * rand, delta)


def agg_reference(share_lists, z_matrix, p):
    n = share_lists[0][0].shape[0]
    acc = np.zeros((len(share_lists), n), dtype=object)
    for q, row_shares in enumerate(share_lists):
        for s in row_shares:
            acc[q] = (acc[q] + s.astype(object) * z_matrix[q].astype(object)
                      ) % p
    return acc.astype(np.int64)


def _stream_reference(key, start, n):
    first = start // 32
    last = -(-(start + n) // 32)
    blob = b"".join(hashlib.sha256(key + struct.pack("<Q", c)).digest()
                    for c in range(first, last))
    return blob[start - first * 32:][:n]


# -- unit-level sweep equivalence ----------------------------------------------

#: (δ, η') pairs that, with the default (DELTA, ETA_PRIME), cover every
#: compiled PSI width: uint8 and uint16 shares, uint16 and uint32 outputs.
OTHER_PSI_WIDTHS = [(101, ETA_PRIME), (101, 70_001), (DELTA, 70_001)]
#: PSU moduli that, with the default DELTA, cover uint8, uint16 and
#: uint32 residues.
OTHER_PSU_DELTAS = [101, 65_537]


class TestSweepBitIdentity:
    def test_psi_sweep(self, compiled):
        self._psi_sweep(DELTA, ETA_PRIME)

    @pytest.mark.parametrize("delta,eta_prime", OTHER_PSI_WIDTHS)
    def test_psi_sweep_other_widths(self, compiled, delta, eta_prime):
        self._psi_sweep(delta, eta_prime)

    @staticmethod
    def _psi_sweep(delta, eta_prime):
        rng = np.random.default_rng(11)
        n = 1500
        shares = _share_lists(rng, rows=3, owners=3, n=n, modulus=delta)
        table = rng.permutation(eta_prime)[:delta].astype(np.int64)
        m_rows = np.array([[77], [0], [delta - 1]], dtype=np.int64)
        tables = _tables(table, m_rows, delta, eta_prime)
        out = np.empty((3, n), dtype=share_dtype(eta_prime))
        summed = _summed(kernels.sum_sweep, shares, delta)
        kernel = kernels.psi_sweep(summed, tables, out)
        assert kernel is not None, "compiled sweep must engage"
        _chunked(kernel, n)
        expected = psi_reference(shares, m_rows.ravel(), delta, table)
        np.testing.assert_array_equal(out, expected)

    def test_psi_cells_sweep(self, compiled):
        rng = np.random.default_rng(12)
        b, n = 4000, 1300
        shares = _share_lists(rng, rows=2, owners=2, n=b)
        cells = rng.choice(b, size=n, replace=False).astype(np.int64)
        table = rng.permutation(DELTA).astype(np.int64)
        m_rows = np.array([[5], [0]], dtype=np.int64)
        out = np.empty((2, n), dtype=share_dtype(ETA_PRIME))
        summed = _summed(kernels.sum_sweep, shares, DELTA)
        kernel = kernels.psi_sweep(summed, _tables(table, m_rows), out,
                                   cells=cells)
        assert kernel is not None
        _chunked(kernel, n)
        expected = psi_reference(shares, m_rows.ravel(), DELTA, table,
                                 cells=cells)
        np.testing.assert_array_equal(out, expected)

    @pytest.mark.parametrize("builder", [kernels.psi_sweep, numpy_psi_sweep])
    def test_psi_share_outside_delta_is_refused(self, builder):
        """A summed share ≥ δ would overrun the folded table: both tiers
        refuse it rather than read out of bounds."""
        if builder is kernels.psi_sweep and not compiled_available:
            pytest.skip("compiled kernel tier unavailable (no C toolchain)")
        kernels.configure("c" if compiled_available else "off")
        try:
            n = 1024
            table = np.arange(DELTA, dtype=np.int64)
            for bad in (DELTA, DELTA + 7, np.iinfo(np.uint16).max):
                summed = np.random.default_rng(5).integers(
                    0, DELTA, n).astype(np.uint16)
                summed[n // 2] = bad
                out = np.empty((1, n), dtype=np.uint16)
                kernel = builder([summed], _tables(table, [[0]]), out)
                with pytest.raises(ProtocolError, match="folded"):
                    kernel(0, n)
        finally:
            kernels.configure(None)

    def test_psu_sweep(self, compiled):
        self._psu_sweep(DELTA)

    @pytest.mark.parametrize("delta", OTHER_PSU_DELTAS)
    def test_psu_sweep_other_widths(self, compiled, delta):
        self._psu_sweep(delta)

    @staticmethod
    def _psu_sweep(delta):
        rng = np.random.default_rng(13)
        n, seed = 1600, 42
        shares = _share_lists(rng, rows=2, owners=3, n=n, modulus=delta)
        nonces = [1, 2, 3]
        row_map = np.array([0, 1, 0], dtype=np.int64)
        keys = [SeededPRG(seed, f"psu-{nonce}").key_bytes
                for nonce in nonces]
        sums = np.zeros((2, n), dtype=share_dtype(delta))
        out = np.empty((3, n), dtype=share_dtype(delta))
        add = kernels.sum_sweep(shares, delta, sums)
        mask = kernels.psu_sweep([sums[u] for u in row_map], keys, delta,
                                 out)
        assert add is not None and mask is not None
        _chunked(add, n)
        _chunked(mask, n)
        expected = psu_reference(shares, row_map, nonces, seed, delta)
        np.testing.assert_array_equal(out, expected)

    def test_psu_sweep_draw_base_seeks_the_mask_stream(self, compiled):
        """Span-local arrays + draw_base == slicing the full sweep.

        The share arrays cover only the shard's span, and the Eq. 18
        mask draws must come from the *absolute* stream offsets —
        bit-identical to slicing a full-length sweep.
        """
        rng = np.random.default_rng(14)
        n, seed, base = 2000, 9, 517
        span = 1100
        shares = _share_lists(rng, rows=1, owners=2, n=n)
        nonces = [7]
        row_map = np.array([0], dtype=np.int64)
        keys = [SeededPRG(seed, "psu-7").key_bytes]
        full = psu_reference(shares, row_map, nonces, seed, DELTA)
        local_shares = [[np.ascontiguousarray(s[base:base + span])
                         for s in shares[0]]]
        sums = np.zeros((1, span), dtype=share_dtype(DELTA))
        out = np.empty((1, span), dtype=share_dtype(DELTA))
        add = kernels.sum_sweep(local_shares, DELTA, sums)
        mask = kernels.psu_sweep([sums[u] for u in row_map], keys, DELTA,
                                 out, draw_base=base)
        assert add is not None and mask is not None
        _chunked(add, span)
        _chunked(mask, span)
        np.testing.assert_array_equal(out, full[:, base:base + span])

    def test_agg_sweep(self, compiled):
        rng = np.random.default_rng(15)
        n = 1500
        shares = _share_lists(rng, rows=2, owners=3, n=n, modulus=PRIME)
        z_matrix = rng.integers(0, PRIME, size=(2, n)).astype(np.uint32)
        out = np.zeros((2, n), dtype=np.uint32)
        summed = _summed(kernels.sum_sweep, shares, PRIME)
        kernel = kernels.agg_sweep(summed, z_matrix, PRIME, out)
        assert kernel is not None
        _chunked(kernel, n)
        expected = agg_reference(shares, z_matrix, PRIME)
        np.testing.assert_array_equal(out, expected)

    def test_agg_sweep_extreme_values_hit_the_mersenne_fold(self, compiled):
        """The largest field elements (products just below 2^62) through
        the division-free Mersenne-31 fast path must still match."""
        rng = np.random.default_rng(16)
        n = 1200
        shares = [[rng.integers(PRIME - 64, PRIME, size=n).astype(np.uint32)
                   for _ in range(3)] for _ in range(2)]
        shares[1][0][:5] = 0
        z_matrix = rng.integers(PRIME - 64, PRIME,
                                size=(2, n)).astype(np.uint32)
        out = np.zeros((2, n), dtype=np.uint32)
        summed = _summed(kernels.sum_sweep, shares, PRIME)
        kernel = kernels.agg_sweep(summed, z_matrix, PRIME, out)
        assert kernel is not None
        _chunked(kernel, n)
        expected = agg_reference(shares, z_matrix, PRIME)
        np.testing.assert_array_equal(out, expected)

    def test_agg_sweep_generic_modulus(self, compiled):
        """A non-Mersenne prime pins the generic division branch."""
        rng = np.random.default_rng(17)
        n, p = 1100, 2_147_483_629
        shares = _share_lists(rng, rows=1, owners=4, n=n, modulus=p)
        z_matrix = rng.integers(0, p, size=(1, n)).astype(np.uint32)
        out = np.zeros((1, n), dtype=np.uint32)
        summed = _summed(kernels.sum_sweep, shares, p)
        kernel = kernels.agg_sweep(summed, z_matrix, p, out)
        assert kernel is not None
        _chunked(kernel, n)
        expected = agg_reference(shares, z_matrix, p)
        np.testing.assert_array_equal(out, expected)


class TestClosuresOwnTheirOperands:
    """A compiled closure keeps every array whose address it passes to C.

    Each builder gets operands that only the builder call references;
    after they are dropped and collected, and the freed blocks are
    handed out again, the closure must still compute the exact answer.
    """

    N = 4096

    @staticmethod
    def _run_after_collect(build):
        kernel, out, expected = build()
        gc.collect()
        # Re-allocate blocks of the freed sizes so a dangling address
        # would read junk instead of the old values.
        churn = [np.full(TestClosuresOwnTheirOperands.N, 0xA5, dtype=dtype)
                 for dtype in (np.uint8, np.uint16, np.uint32, np.int64)
                 for _ in range(16)]
        _chunked(kernel, out.shape[-1])
        del churn
        return out, expected

    def _vectors(self, seed, rows, modulus):
        rng = np.random.default_rng(seed)
        return [rng.integers(0, modulus, size=self.N).astype(
            share_dtype(modulus)) for _ in range(rows)]

    def test_sum_sweep(self, compiled):
        def build():
            shares = [self._vectors(41 + u, 3, DELTA) for u in range(2)]
            expected = np.stack([sum(v.astype(np.int64) for v in row) % DELTA
                                 for row in shares])
            out = np.empty((2, self.N), dtype=share_dtype(DELTA))
            kernel = kernels.sum_sweep(
                [[v.copy() for v in row] for row in shares], DELTA, out)
            assert kernel is not None
            return kernel, out, expected
        out, expected = self._run_after_collect(build)
        np.testing.assert_array_equal(out, expected)

    def test_psi_sweep_with_cells(self, compiled):
        def build():
            rng = np.random.default_rng(43)
            summed = self._vectors(44, 2, DELTA)
            cells = rng.permutation(self.N).astype(np.int64)
            table = rng.permutation(ETA_PRIME)[:DELTA].astype(np.int64)
            m_rows = np.array([[5], [DELTA - 1]], dtype=np.int64)
            expected = psi_reference([[v] for v in summed], m_rows.ravel(),
                                     DELTA, table, cells)
            out = np.empty((2, self.N), dtype=share_dtype(ETA_PRIME))
            kernel = kernels.psi_sweep(
                [v.copy() for v in summed],
                _tables(table, m_rows), out, cells.copy())
            assert kernel is not None
            return kernel, out, expected
        out, expected = self._run_after_collect(build)
        np.testing.assert_array_equal(out, expected)

    def test_psu_sweep(self, compiled):
        def build():
            summed = self._vectors(45, 2, DELTA)
            nonces, seed = [7, 8], 42
            keys = [SeededPRG(seed, f"psu-{nonce}").key_bytes
                    for nonce in nonces]
            expected = psu_reference([[v] for v in summed],
                                     np.arange(2), nonces, seed, DELTA)
            out = np.empty((2, self.N), dtype=share_dtype(DELTA))
            kernel = kernels.psu_sweep([v.copy() for v in summed], keys,
                                       DELTA, out)
            assert kernel is not None
            return kernel, out, expected
        out, expected = self._run_after_collect(build)
        np.testing.assert_array_equal(out, expected)

    def test_agg_sweep(self, compiled):
        def build():
            summed = self._vectors(46, 2, PRIME)
            z_matrix = np.stack(self._vectors(47, 2, PRIME))
            expected = agg_reference([[v] for v in summed], z_matrix, PRIME)
            out = np.empty((2, self.N), dtype=np.uint32)
            kernel = kernels.agg_sweep([v.copy() for v in summed],
                                       z_matrix.copy(), PRIME, out)
            assert kernel is not None
            return kernel, out, expected
        out, expected = self._run_after_collect(build)
        np.testing.assert_array_equal(out, expected)

    def test_combine_span(self, compiled):
        def build():
            vectors = self._vectors(48, 3, PRIME)
            weights = [[3, 5, 7], [PRIME - 1, 1, 2]]
            expected = np.stack([
                (sum(w * v.astype(object) for w, v in zip(row, vectors))
                 % PRIME).astype(np.int64) for row in weights])
            outs = [np.empty(self.N, dtype=np.uint32) for _ in weights]
            kernel = kernels.combine_span([v.copy() for v in vectors],
                                          weights, PRIME, outs)
            assert kernel is not None
            return kernel, _Rows(outs), expected
        out, expected = self._run_after_collect(build)
        np.testing.assert_array_equal(np.stack(out.rows), expected)


class _Rows:
    """Output rows the closure writes, shaped like one ``(rows, n)``
    matrix for :meth:`TestClosuresOwnTheirOperands._run_after_collect`."""

    def __init__(self, rows):
        self.rows = rows
        self.shape = (len(rows), rows[0].size)


class TestNumpyTwins:
    """The numpy span builders honour the compiled builders' contract:
    same signature, seams invisible, outputs and scratch written (never
    read), span-local arrays seeking the absolute PSU stream."""

    def test_psi_twin(self):
        self._psi_twin(DELTA, ETA_PRIME)

    @pytest.mark.parametrize("delta,eta_prime", OTHER_PSI_WIDTHS)
    def test_psi_twin_other_widths(self, delta, eta_prime):
        self._psi_twin(delta, eta_prime)

    @staticmethod
    def _psi_twin(delta, eta_prime):
        rng = np.random.default_rng(21)
        n = 700
        shares = _share_lists(rng, rows=3, owners=3, n=n, modulus=delta)
        table = rng.permutation(eta_prime)[:delta].astype(np.int64)
        m_rows = np.array([[77], [0], [delta - 1]], dtype=np.int64)
        tables = _tables(table, m_rows, delta, eta_prime)
        cells = rng.permutation(n)[:400].astype(np.int64)
        summed = _summed(numpy_sum_sweep, shares, delta)
        for gather in (None, cells):
            out = np.full((3, n if gather is None else len(gather)), 9,
                          dtype=share_dtype(eta_prime))
            _chunked(numpy_psi_sweep(summed, tables, out, cells=gather),
                     out.shape[1])
            np.testing.assert_array_equal(
                out, psi_reference(shares, m_rows.ravel(), delta, table,
                                   cells=gather))

    def test_psu_twin_seeks_the_mask_stream(self):
        self._psu_twin(DELTA)

    @pytest.mark.parametrize("delta", OTHER_PSU_DELTAS)
    def test_psu_twin_other_widths(self, delta):
        self._psu_twin(delta)

    @staticmethod
    def _psu_twin(delta):
        rng = np.random.default_rng(22)
        n, seed, base, span = 900, 9, 217, 500
        shares = _share_lists(rng, rows=2, owners=3, n=n, modulus=delta)
        nonces = [1, 2, 3]
        row_map = np.array([0, 1, 0], dtype=np.int64)
        keys = [SeededPRG(seed, f"psu-{nonce}").key_bytes
                for nonce in nonces]
        full = psu_reference(shares, row_map, nonces, seed, delta)
        local = [[np.ascontiguousarray(s[base:base + span]) for s in row]
                 for row in shares]
        sums = np.full((2, span), 5, dtype=share_dtype(delta))
        out = np.full((3, span), 9, dtype=share_dtype(delta))
        _chunked(numpy_sum_sweep(local, delta, sums), span)
        _chunked(numpy_psu_sweep([sums[u] for u in row_map], keys, delta,
                                 out, draw_base=base), span)
        np.testing.assert_array_equal(out, full[:, base:base + span])

    @pytest.mark.parametrize("tier", ["numpy", "c"])
    def test_psu_tiers_at_the_largest_32_bit_prime(self, tier):
        """δ² passes 2**63 here: both tiers must form each Eq. 18
        product without wrapping, as Python integers do."""
        if tier == "c" and not compiled_available:
            pytest.skip("compiled kernel tier unavailable (no C toolchain)")
        delta, n, base = PRIME_32, 600, 311
        rng = np.random.default_rng(37)
        shares = _share_lists(rng, rows=1, owners=3, n=n, modulus=delta)
        shares[0][0][:4] = delta - 1
        key = SeededPRG(delta, "psu-largest-prime").key_bytes
        raw = np.frombuffer(_stream_reference(key, 8 * base, 8 * n),
                            dtype="<u8")
        summed = [sum(int(s[i]) for s in shares[0]) % delta
                  for i in range(n)]
        expected = [x * (int(r) % (delta - 1) + 1) % delta
                    for x, r in zip(summed, raw)]
        sums = np.zeros((1, n), dtype=np.uint32)
        out = np.zeros((1, n), dtype=np.uint32)
        kernels.configure("off" if tier == "numpy" else "c")
        try:
            add, mask = ((numpy_sum_sweep, numpy_psu_sweep)
                         if tier == "numpy"
                         else (kernels.sum_sweep, kernels.psu_sweep))
            add = add(shares, delta, sums)
            mask = mask([sums[0]], [key], delta, out, draw_base=base)
            assert add is not None and mask is not None
            _chunked(add, n)
            _chunked(mask, n)
        finally:
            kernels.configure(None)
        assert out[0].tolist() == expected

    def test_agg_twin(self):
        rng = np.random.default_rng(23)
        n = 600
        shares = _share_lists(rng, rows=2, owners=3, n=n, modulus=PRIME)
        z_matrix = rng.integers(0, PRIME, size=(2, n)).astype(np.uint32)
        out = np.full((2, n), 7, dtype=np.uint32)
        summed = _summed(numpy_sum_sweep, shares, PRIME)
        _chunked(numpy_agg_sweep(summed, z_matrix, PRIME, out), n)
        np.testing.assert_array_equal(out,
                                      agg_reference(shares, z_matrix, PRIME))


# -- owner spans ----------------------------------------------------------------

#: Lengths from empty through the crossover to a scan-sized χ.
OWNER_LENGTHS = [0, 1, kernels.NATIVE_MIN_SPAN - 1, kernels.NATIVE_MIN_SPAN,
                 262_144]
#: The largest prime below 2**32: the generic (non-Mersenne) branch.
PRIME_32 = 4_294_967_291
_U32, _I64 = np.uint32, np.int64


def _lagrange(p, points, degree):
    return ShamirSharing(prime=p, num_shares=len(points), degree=degree
                         ).lagrange_weights(points)


def _deal(p, degree, points):
    """Dealing's weight rows: ``1, x, …, x^degree`` per point ``x``."""
    return [[pow(x, k, p) for k in range(degree + 1)] for x in points]


#: case -> (prime, weight rows, vector dtypes).  Dealing combines a
#: uint32 secret with int64 coefficient draws, one row per point;
#: Lagrange combines uint32 shares in one row.
COMBINE_CASES = {
    "deal-points-1-2-3": (PRIME, _deal(PRIME, 1, [1, 2, 3]), (_U32, _I64)),
    **{f"deal-point-{x}": (PRIME, _deal(PRIME, 1, [x]), (_U32, _I64))
       for x in (1, 2, 3)},
    "lagrange-1-2-3": (PRIME, [_lagrange(PRIME, [1, 2, 3], 2)], (_U32,) * 3),
    "deal-degree-3-of-5": (PRIME, _deal(PRIME, 3, range(1, 6)),
                           (_U32,) + (_I64,) * 3),
    "lagrange-degree-3-of-5": (PRIME, [_lagrange(PRIME, [2, 3, 4, 5], 3)],
                               (_U32,) * 4),
    "generic-deal": (PRIME_32, _deal(PRIME_32, 1, [1, 2, 3]), (_U32, _I64)),
    "generic-lagrange": (PRIME_32, [_lagrange(PRIME_32, [1, 2, 3], 2)],
                         (_U32,) * 3),
}

#: case -> (modulus, operand dtype, largest operand value).  PSI
#: finalisation multiplies uint16 group elements mod η' by default and
#: reduces mod η (607) with unreduced factors.
MUL_MOD_CASES = {
    "uint16-eta-prime": (ETA_PRIME, np.uint16, ETA_PRIME - 1),
    "uint16-unreduced-eta": (607, np.uint16, ETA_PRIME - 1),
    "uint32-mersenne": (PRIME, np.uint32, PRIME - 1),
    "uint32-generic": (PRIME_32, np.uint32, PRIME_32 - 1),
}


def _extreme_vector(rng, n, top, dtype):
    """Random values in ``[0, top]`` with 0 and ``top`` at the ends."""
    v = rng.integers(0, top, size=n, endpoint=True).astype(dtype)
    if n:
        v[-1] = top
        v[0] = 0 if n > 1 else top
    return v


@pytest.fixture
def no_crossover(compiled, monkeypatch):
    """The compiled tier at every length, so short spans are pinned too."""
    monkeypatch.setattr(kernels, "NATIVE_MIN_SPAN", 0)


class TestOwnerSpans:
    @pytest.mark.parametrize("n", OWNER_LENGTHS)
    @pytest.mark.parametrize("case", COMBINE_CASES)
    def test_combine_span(self, no_crossover, case, n):
        p, rows, dtypes = COMBINE_CASES[case]
        rng = np.random.default_rng(31)
        vectors = [_extreme_vector(rng, n, p - 1, dtype) for dtype in dtypes]
        outs_c = [np.full(n, 7, dtype=np.uint32) for _ in rows]
        outs_np = [np.full(n, 9, dtype=np.uint32) for _ in rows]
        kernel = kernels.combine_span(vectors, rows, p, outs_c)
        assert kernel is not None
        _chunked(kernel, n)
        _chunked(numpy_combine_span(vectors, rows, p, outs_np), n)
        for weights, out_c, out_np in zip(rows, outs_c, outs_np):
            np.testing.assert_array_equal(out_c, out_np)
            if n <= kernels.NATIVE_MIN_SPAN + 1:
                exact = sum(int(w) * v.astype(object)
                            for w, v in zip(weights, vectors)) % p
                np.testing.assert_array_equal(out_np,
                                              exact.astype(np.int64))

    @pytest.mark.parametrize("n", OWNER_LENGTHS)
    @pytest.mark.parametrize("case", MUL_MOD_CASES)
    def test_mul_mod_span(self, no_crossover, case, n):
        modulus, dtype, top = MUL_MOD_CASES[case]
        rng = np.random.default_rng(32)
        a = _extreme_vector(rng, n, top, dtype)
        b = _extreme_vector(rng, n, top, dtype)
        out_dtype = share_dtype(modulus)
        out_c = np.full(n, 7, dtype=out_dtype)
        out_np = np.full(n, 9, dtype=out_dtype)
        kernel = kernels.mul_mod_span(a, b, modulus, out_c)
        assert kernel is not None
        _chunked(kernel, n)
        _chunked(numpy_mul_mod_span(a, b, modulus, out_np), n)
        np.testing.assert_array_equal(out_c, out_np)
        exact = a.astype(object) * b.astype(object) % modulus
        np.testing.assert_array_equal(out_np, exact.astype(np.int64))

    def test_selectors_match_across_tiers(self):
        """``ShamirSharing`` dealing/Lagrange and ``_mul_mod`` give the
        same bits with the tier off and on, draws included."""
        n = 4096
        secrets = _extreme_vector(np.random.default_rng(33), n, PRIME - 1,
                                  np.uint32)
        a = _extreme_vector(np.random.default_rng(34), n, ETA_PRIME - 1,
                            np.uint16)
        results = []
        for mode in ("off", "c") if compiled_available else ("off",):
            kernels.configure(mode)
            try:
                scheme = ShamirSharing(rng=np.random.default_rng(35))
                shares = scheme.share_vector(secrets)
                product = [scheme.mul_shares(s, s) for s in shares]
                results.append((shares,
                                scheme.reconstruct_vector(product, degree=2),
                                _mul_mod(a, a[::-1].copy(), 607)))
            finally:
                kernels.configure(None)
        for shares, squares, fop in results:
            for mine, first in zip(shares, results[0][0]):
                np.testing.assert_array_equal(mine, first)
            np.testing.assert_array_equal(squares, results[0][1])
            np.testing.assert_array_equal(fop, results[0][2])
        np.testing.assert_array_equal(
            results[0][1], secrets.astype(object) ** 2 % PRIME)


# -- tier parity against Python integers ----------------------------------------
#
# Each server equation in both tiers, through the selectors the server
# runs (so the crossover rung is crossed too), against the equation
# written in Python integers, at the edges of the moduli the code takes.

#: native.c's block length: its Eq. 3/7 span range-checks and gathers,
#: and its owner sum accumulates, one block of this many cells at a time.
PSI_BLOCK = 2048
PARITY_LENGTHS = [1, 2, kernels.NATIVE_MIN_SPAN - 1, kernels.NATIVE_MIN_SPAN,
                  kernels.NATIVE_MIN_SPAN + 1, PSI_BLOCK - 1, PSI_BLOCK,
                  PSI_BLOCK + 1, 2 * PSI_BLOCK + 3]
#: Additive moduli δ: the smallest two, either side of 2⁸, and the
#: largest prime below 2¹⁶.
PARITY_DELTAS = [2, 3, 251, 257, 65_521]
#: Shamir field primes: above 2¹⁶, the Mersenne prime and the largest
#: prime below 2³².
PARITY_PRIMES = [65_537, PRIME, PRIME_32]
#: uint16 and uint32 group elements.
PARITY_ETA_PRIMES = [ETA_PRIME, 70_001]
PARITY_G = 5
TIERS = ["numpy", pytest.param("c", marks=needs_cc)]
PARITY_SETTINGS = settings(max_examples=30, deadline=None)
CUTS = st.lists(st.floats(0, 1), max_size=3).map(sorted)


@contextlib.contextmanager
def _on_tier(tier):
    kernels.configure("off" if tier == "numpy" else "c")
    try:
        yield
    finally:
        kernels.configure(None)


def _engages(tier, n):
    """Whether the compiled span runs a length-``n`` sweep on ``tier``."""
    return tier == "c" and n >= kernels.NATIVE_MIN_SPAN


def _edge_vector(rng, n, modulus):
    """Residues mod ``modulus`` at its width, about half of them 0, 1 or
    ``modulus − 1``."""
    v = rng.integers(0, modulus, size=n, dtype=np.uint64)
    pick = rng.integers(0, 6, size=n)
    for k, value in enumerate((0, 1, modulus - 1)):
        v[pick == k] = value
    return v.astype(share_dtype(modulus))


@functools.lru_cache(maxsize=None)
def _power_table(delta, eta_prime):
    return np.array([pow(PARITY_G, k, eta_prime) for k in range(delta)],
                    dtype=np.int64)


@pytest.mark.parametrize("tier", TIERS)
class TestTierParity:
    @PARITY_SETTINGS
    @given(modulus=st.sampled_from(PARITY_DELTAS + PARITY_PRIMES),
           n=st.sampled_from(PARITY_LENGTHS), owners=st.integers(1, 5),
           cuts=CUTS, seed=st.integers(0, 2**32 - 1))
    def test_owner_sum(self, tier, modulus, n, owners, cuts, seed):
        """Σ_j s_j mod δ (additive) or mod p (Shamir)."""
        rng = np.random.default_rng(seed)
        shares = [[_edge_vector(rng, n, modulus) for _ in range(owners)]
                  for _ in range(2)]
        with _on_tier(tier):
            scratch = np.empty((2, n), dtype=share_dtype(modulus))
            assert ((kernels.sum_sweep(shares, modulus, scratch) is not None)
                    == _engages(tier, n))
            sums = _summed(server_module.sum_sweep, shares, modulus, cuts)
        assert [v.tolist() for v in sums] == [
            [sum(int(s[i]) for s in row) % modulus for i in range(n)]
            for row in shares]

    @PARITY_SETTINGS
    @given(delta=st.sampled_from(PARITY_DELTAS),
           eta_prime=st.sampled_from(PARITY_ETA_PRIMES),
           n=st.sampled_from(PARITY_LENGTHS), owners=st.integers(1, 4),
           m=st.integers(0, 2**16), gather=st.booleans(), cuts=CUTS,
           seed=st.integers(0, 2**32 - 1))
    def test_psi(self, tier, delta, eta_prime, n, owners, m, gather, cuts,
                 seed):
        """Eq. 3 (a PSI row, ⊖ m) and Eq. 7 (a verification row, ⊖ 0):
        g^((Σ_j s_j − m) mod δ) mod η', over χ or over ``cells``."""
        rng = np.random.default_rng(seed)
        b = n + 37 if gather else n
        shares = [[_edge_vector(rng, b, delta) for _ in range(owners)]
                  for _ in range(2)]
        cells = rng.integers(0, b, size=n) if gather else None
        m_rows = [m % delta, 0]
        view = ServerGroupView(delta=delta, eta_prime=eta_prime, g=PARITY_G,
                               power_table=_power_table(delta, eta_prime))
        tables = view.folded_tables([[m_q] for m_q in m_rows])
        out = np.empty((2, n), dtype=share_dtype(eta_prime))
        with _on_tier(tier):
            summed = _summed(server_module.sum_sweep, shares, delta, cuts)
            assert ((kernels.psi_sweep(summed, tables, out, cells)
                     is not None) == _engages(tier, n))
            _chunked(server_module.psi_sweep(summed, tables, out, cells), n,
                     cuts)
        index = range(n) if cells is None else cells.tolist()
        assert out.tolist() == [
            [pow(PARITY_G, (sum(int(s[c]) for s in row) - m_q) % delta,
                 eta_prime) for c in index]
            for row, m_q in zip(shares, m_rows)]

    @PARITY_SETTINGS
    @given(p=st.sampled_from(PARITY_PRIMES),
           n=st.sampled_from(PARITY_LENGTHS), owners=st.integers(1, 5),
           cuts=CUTS, seed=st.integers(0, 2**32 - 1))
    def test_agg(self, tier, p, n, owners, cuts, seed):
        """Eq. 11: (Σ_j s_j) · z mod p."""
        rng = np.random.default_rng(seed)
        shares = [[_edge_vector(rng, n, p) for _ in range(owners)]
                  for _ in range(2)]
        z_matrix = np.stack([_edge_vector(rng, n, p) for _ in range(2)])
        out = np.empty((2, n), dtype=np.uint32)
        with _on_tier(tier):
            summed = _summed(server_module.sum_sweep, shares, p, cuts)
            assert ((kernels.agg_sweep(summed, z_matrix, p, out) is not None)
                    == _engages(tier, n))
            _chunked(server_module.agg_sweep(summed, z_matrix, p, out), n,
                     cuts)
        assert out.tolist() == [
            [sum(int(s[i]) for s in row) * int(z[i]) % p for i in range(n)]
            for row, z in zip(shares, z_matrix)]


# -- the selection ladder -------------------------------------------------------


def _psi_operands(n, share=np.uint16):
    summed = [np.zeros(n, dtype=share)]
    tables = _tables(np.arange(DELTA, dtype=np.int64), [[0]])
    return summed, tables, np.empty((1, n), dtype=np.uint16)


class TestSelectionLadder:
    def test_mode_off_disables_builders(self):
        assert kernels.configure("off") == "numpy"
        try:
            summed, tables, out = _psi_operands(4096)
            assert kernels.psi_sweep(summed, tables, out) is None
            assert not kernels.enabled()
        finally:
            kernels.configure(None)

    def test_default_mode_is_auto(self, monkeypatch, tmp_path):
        """``REPRO_KERNELS`` unset: compiled wherever the backend builds,
        numpy where the compiler is masked."""
        monkeypatch.delenv(kernels.MODE_ENV, raising=False)
        try:
            assert kernels.configure(None) == \
                ("c" if compiled_available else "numpy")
            monkeypatch.setattr(cbackend, "cache_dir",
                                lambda: tmp_path / "kernel-cache")
            monkeypatch.setenv(cbackend.CC_ENV, "/nonexistent/bin/cc")
            assert kernels.configure(None) == "numpy"
        finally:
            monkeypatch.undo()
            kernels.configure(None)

    def test_unknown_mode_is_a_typed_error(self):
        with pytest.raises(ValueError, match="unknown kernel backend"):
            kernels.configure("vectorized-maybe")
        kernels.configure(None)

    @needs_cc
    def test_configure_on_reports_c(self, compiled):
        assert kernels.active_backend() == "c"
        assert kernels.enabled()
        assert kernels.native_lib() is not None

    def test_below_crossover_stays_on_numpy(self, compiled):
        summed, tables, out = _psi_operands(kernels.NATIVE_MIN_SPAN - 1)
        assert kernels.psi_sweep(summed, tables, out) is None

    def test_ineligible_operand_falls_back_per_sweep(self, compiled):
        n = 2048
        summed, tables, out = _psi_operands(n)
        assert kernels.psi_sweep(summed, tables, out) is not None
        strided = np.zeros(2 * n, dtype=np.uint16)[::2]  # not contiguous
        assert kernels.psi_sweep([strided], tables, out) is None
        for dtype in (np.float64, np.int64):  # not a share width
            wrong = [np.zeros(n, dtype=dtype)]
            assert kernels.psi_sweep(wrong, tables, out) is None
        wide_out = np.empty((1, n), dtype=np.int64)
        assert kernels.psi_sweep(summed, tables, wide_out) is None

    def test_owner_spans_below_crossover_stay_on_numpy(self, compiled):
        for n, engaged in ((kernels.NATIVE_MIN_SPAN - 1, False),
                           (kernels.NATIVE_MIN_SPAN, True)):
            v = np.zeros(n, dtype=np.uint32)
            combine = kernels.combine_span([v, v], [[1, 2]], PRIME,
                                           [np.empty(n, dtype=np.uint32)])
            product = kernels.mul_mod_span(v, v, PRIME,
                                           np.empty(n, dtype=np.uint32))
            assert (combine is not None) == engaged
            assert (product is not None) == engaged

    def test_ineligible_owner_operands_fall_back(self, compiled):
        n = 2048
        v = np.zeros(n, dtype=np.uint32)
        out = np.empty(n, dtype=np.uint32)
        row = [[1, 2]]
        assert kernels.combine_span([v, v], row, PRIME, [out]) is not None
        strided = np.zeros(2 * n, dtype=np.uint32)[::2]  # not contiguous
        assert kernels.combine_span([v, strided], row, PRIME, [out]) is None
        for dtype in (np.uint16, np.int32, np.uint64, np.float64):
            wrong = np.zeros(n, dtype=dtype)
            assert kernels.combine_span([v, wrong], row, PRIME, [out]) \
                is None
        assert kernels.combine_span([v, v[:-1]], row, PRIME, [out]) is None
        assert kernels.combine_span(
            [v, v], row, PRIME, [np.empty(n, dtype=np.uint64)]) is None
        assert kernels.combine_span([v, v], [[1, 2]] * 2, PRIME,
                                    [out, strided]) is None
        assert kernels.combine_span([v, v], row, 2**61 - 1, [out]) is None

        assert kernels.mul_mod_span(v, v, PRIME, out) is not None
        assert kernels.mul_mod_span(v, strided, PRIME, out) is None
        narrow = np.zeros(n, dtype=np.uint16)
        assert kernels.mul_mod_span(v, narrow, PRIME, out) is None
        assert kernels.mul_mod_span(narrow, narrow, 607,
                                    np.empty(n, dtype=np.uint8)) is None
        tiny = np.zeros(n, dtype=np.uint8)
        assert kernels.mul_mod_span(tiny, tiny, 101,
                                    np.empty(n, dtype=np.uint8)) is None
        # The selector still answers through the numpy twin.
        a = _extreme_vector(np.random.default_rng(36), 2 * n, ETA_PRIME - 1,
                            np.uint16)
        np.testing.assert_array_equal(_mul_mod(a[::2], a[1::2], 607),
                                      _mul_mod(a[::2].copy(),
                                               a[1::2].copy(), 607))

    def test_forced_fallback_without_a_compiler(self, monkeypatch, tmp_path):
        """No compiler + empty cache: ``configure("c")`` stays on numpy
        (transparently — not an error) and queries still run."""
        monkeypatch.setattr(cbackend, "cache_dir",
                            lambda: tmp_path / "kernel-cache")
        monkeypatch.setenv(cbackend.CC_ENV, "/nonexistent/bin/cc")
        try:
            assert kernels.configure("c") == "numpy"
            assert not kernels.enabled()
            assert kernels.prg_fill(b"\0" * 32, 0, 8) is None
            with build() as system:
                assert system.psi("k", verify=True).verified
        finally:
            monkeypatch.undo()
            kernels.configure(None)


# -- initiator shuffle -------------------------------------------------------------

#: Lengths around the crossover up to a scan-sized domain.
SHUFFLE_LENGTHS = [2, 511, 512, 513, 4096, 262_144]
SHUFFLE_SEEDS = [0, 7, 2**40 + 3]


def _shuffle_operands(n, seed):
    draws = SeededPRG(seed, "kernel-shuffle").integers(max(n - 1, 0), 0,
                                                       2**63 - 1)
    return draws, np.arange(n, dtype=np.int64)


class TestShuffle:
    """The compiled Fisher–Yates against the Python loop it replaces,
    fed the same draws."""

    @pytest.mark.parametrize("seed", SHUFFLE_SEEDS)
    @pytest.mark.parametrize("n", SHUFFLE_LENGTHS)
    def test_matches_python_loop(self, compiled, n, seed):
        draws, expected = _shuffle_operands(n, seed)
        numpy_shuffle(draws, expected)()
        draws, got = _shuffle_operands(n, seed)
        kernel = kernels.shuffle(draws, got)
        assert (kernel is None) == (n < kernels.NATIVE_MIN_SPAN)
        (kernel or numpy_shuffle(draws, got))()
        np.testing.assert_array_equal(got, expected)
        np.testing.assert_array_equal(
            SeededPRG(seed, "kernel-shuffle").shuffle_indices(n), expected)

    @pytest.mark.parametrize("n", [2, 3, kernels.NATIVE_MIN_SPAN - 1])
    def test_short_spans_match_without_the_crossover(self, no_crossover, n):
        draws, expected = _shuffle_operands(n, 11)
        numpy_shuffle(draws, expected)()
        draws, got = _shuffle_operands(n, 11)
        kernels.shuffle(draws, got)()
        np.testing.assert_array_equal(got, expected)

    @pytest.mark.parametrize("n", [0, 1])
    def test_empty_and_single_fall_back(self, n):
        draws, out = _shuffle_operands(n, 5)
        assert kernels.shuffle(draws, out) is None
        np.testing.assert_array_equal(
            SeededPRG(5, "kernel-shuffle").shuffle_indices(n), np.arange(n))

    def test_mode_off_runs_the_python_loop(self):
        draws, expected = _shuffle_operands(4096, 13)
        numpy_shuffle(draws, expected)()
        assert kernels.configure("off") == "numpy"
        try:
            assert kernels.shuffle(*_shuffle_operands(4096, 13)) is None
            np.testing.assert_array_equal(
                SeededPRG(13, "kernel-shuffle").shuffle_indices(4096),
                expected)
        finally:
            kernels.configure(None)

    def test_ineligible_operands_fall_back(self, compiled):
        n = 2048
        draws, out = _shuffle_operands(n, 3)
        assert kernels.shuffle(draws, out) is not None
        assert kernels.shuffle(draws[:-1], out) is None
        assert kernels.shuffle(draws.astype(np.uint64), out) is None
        assert kernels.shuffle(draws, out.astype(np.int32)) is None
        strided = np.repeat(draws, 2)[::2]  # not contiguous
        assert kernels.shuffle(strided, out) is None
        frozen = out.copy()
        frozen.setflags(write=False)
        assert kernels.shuffle(draws, frozen) is None


# -- PRG stream equivalence ------------------------------------------------------


STREAM_WINDOWS = [(0, 0), (0, 1), (0, 32), (5, 3), (31, 2), (32, 32),
                  (7, 100), (1000, 77)]


class TestPrgStream:
    def test_prg_fill_matches_hashlib(self, compiled):
        key = hashlib.sha256(b"kernel-prg-pin").digest()
        for start, n in STREAM_WINDOWS:
            assert kernels.prg_fill(key, start, n) == \
                _stream_reference(key, start, n), (start, n)

    @pytest.mark.parametrize("mode", ["off", "c"])
    def test_integers_at_seeks_the_integers_stream(self, mode):
        """Seeking == slicing, in both backends (PSU shard splitting)."""
        if mode == "c" and not compiled_available:
            pytest.skip("compiled kernel tier unavailable (no C toolchain)")
        assert kernels.configure(mode) in ("numpy", "c")
        try:
            prg = SeededPRG(1234, "psu-99")
            full = SeededPRG(1234, "psu-99").integers(300, 1, DELTA)
            for offset, count in [(0, 300), (0, 1), (17, 40), (299, 1),
                                  (128, 172)]:
                window = prg.integers_at(offset, count, 1, DELTA)
                np.testing.assert_array_equal(
                    window, full[offset:offset + count])
        finally:
            kernels.configure(None)

    @needs_cc
    def test_stream_is_backend_independent(self):
        """The whole point: both servers derive one mask stream, no
        matter which backend each happens to run."""
        draws = {}
        for mode in ("off", "c"):
            kernels.configure(mode)
            try:
                draws[mode] = SeededPRG(7, "psu-1").integers(257, 1, DELTA)
            finally:
                kernels.configure(None)
        np.testing.assert_array_equal(draws["off"], draws["c"])


# -- stream seams of the compiled generator ------------------------------------
#
# The C stream is generated four blocks at a time (one SHA-NI lane
# group) in chunks of 64 blocks (256 draws), so windows that start or
# end inside a lane group or a chunk are where a seam would show.

#: Draws per compiled generator chunk: 64 blocks of four u64 draws.
CHUNK_DRAWS = 4 * 64
SEAM_STARTS = [0, 1, 31, 32 * 3 + 5]
SEAM_LENGTHS = [1, 32 * 4 - 1, 32 * 64 + 7, 32 * 200]
#: uint8, uint16 and uint32 residues; δ = 2 draws masks mod 1, and
#: 4294967291 puts both Barrett divisors just below 2^32.
SEAM_DELTAS = [2, 3, 101, 257, 7891, 65_537, 4_294_967_291]
SEAM_DRAW_BASES = [0, 1, 2, 3, 517]


class TestStreamSeams:
    @pytest.mark.parametrize("start", SEAM_STARTS)
    @pytest.mark.parametrize("n", SEAM_LENGTHS)
    def test_prg_fill_window(self, compiled, start, n):
        key = hashlib.sha256(b"kernel-prg-seams").digest()
        assert kernels.prg_fill(key, start, n) == \
            _stream_reference(key, start, n)

    @pytest.mark.parametrize("draw_base", SEAM_DRAW_BASES)
    @pytest.mark.parametrize("delta", SEAM_DELTAS)
    def test_psu_span_crosses_chunks(self, compiled, delta, draw_base):
        """One span call of 2 chunks + 3 draws, and the same cells in
        uneven chunks, against Eq. 18 over the hashlib stream."""
        rng = np.random.default_rng(delta % 1000 + draw_base)
        n = 2 * CHUNK_DRAWS + 3
        shares = _share_lists(rng, rows=1, owners=3, n=n, modulus=delta)
        shares[0][0][:2] = delta - 1  # the largest residue, twice
        key = SeededPRG(delta, f"psu-seam-{draw_base}").key_bytes
        raw = np.frombuffer(_stream_reference(key, 8 * draw_base, 8 * n),
                            dtype="<u8")
        masks = [int(r) % (delta - 1) + 1 for r in raw]
        summed = [sum(int(s[i]) for s in shares[0]) % delta
                  for i in range(n)]
        expected = [x * r % delta for x, r in zip(summed, masks)]
        for drive in (lambda kernel: kernel(0, n),
                      lambda kernel: _chunked(kernel, n, (0.2, 0.45, 0.9))):
            sums = np.zeros((1, n), dtype=share_dtype(delta))
            out = np.zeros((1, n), dtype=share_dtype(delta))
            add = kernels.sum_sweep(shares, delta, sums)
            mask = kernels.psu_sweep([sums[0]], [key], delta, out,
                                     draw_base=draw_base)
            assert add is not None and mask is not None
            drive(add)
            drive(mask)
            np.testing.assert_array_equal(sums[0], summed)
            assert out[0].tolist() == expected


# -- system-level equivalence -----------------------------------------------------


@pytest.fixture(scope="module")
def expected():
    """The seed result: numpy backend, single shard, in-process."""
    assert kernels.configure("off") == "numpy"
    try:
        with build() as system:
            return {"batch": run_batchable(system),
                    "interactive": run_interactive(system)}
    finally:
        kernels.configure(None)


@needs_cc
class TestSystemEquivalence:
    @pytest.mark.parametrize("num_shards", SHARD_COUNTS)
    def test_bit_identical_with_compiled_tier(self, expected, monkeypatch,
                                              num_shards):
        """Every batchable + interactive kind, verified where supported."""
        monkeypatch.setenv(kernels.MODE_ENV, "c")
        assert kernels.configure(None) == "c"
        try:
            with build(num_shards=num_shards) as system:
                assert run_batchable(system) == expected["batch"]
                assert run_interactive(system) == expected["interactive"]
        finally:
            monkeypatch.delenv(kernels.MODE_ENV, raising=False)
            kernels.configure(None)

    @needs_fork
    def test_subprocess_deployment_with_compiled_tier(self, expected,
                                                      monkeypatch):
        """Entity hosts across a fork boundary pick the tier up too."""
        monkeypatch.setenv(kernels.MODE_ENV, "c")
        assert kernels.configure(None) == "c"
        try:
            with build("subprocess") as system:
                assert run_batchable(system) == expected["batch"]
        finally:
            monkeypatch.delenv(kernels.MODE_ENV, raising=False)
            kernels.configure(None)
