"""Compiled kernel tier: bit-identity pins against the numpy reference.

The acceptance bar of the default C backend (``repro.kernels``): every
compiled sweep — fused PSI/verification (Eq. 3/7), PSU masking
(Eq. 18), Shamir aggregation (Eq. 11) — and the counter-mode PRG
stream compute **bit-identically** to the numpy/hashlib reference
kernels, including int64 wraparound, floored-mod reduction points and
the SHA-256 block stream.  Pinned three ways:

* unit level — each sweep builder's ``kernel(lo, hi)`` closure against
  a hand-written numpy replica of the server fallback, chunked so the
  span seams are exercised;
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

import hashlib
import struct

import numpy as np
import pytest
from test_multihost_matrix import (
    SHARD_COUNTS,
    build,
    needs_fork,
    run_batchable,
    run_interactive,
)

from repro import kernels
from repro.crypto.prg import SeededPRG
from repro.kernels import cbackend

compiled_available = kernels.available()
needs_cc = pytest.mark.skipif(
    not compiled_available,
    reason="compiled kernel tier unavailable (no C toolchain)")

DELTA = 2039
PRIME = 2_147_483_647  # the Shamir field prime (Eq. 11)


@pytest.fixture
def compiled():
    """Activate the compiled tier for one test; restore the env default."""
    if not compiled_available:
        pytest.skip("compiled kernel tier unavailable (no C toolchain)")
    assert kernels.configure("c") == "c"
    yield
    kernels.configure(None)


def _share_lists(rng, rows, owners, n, low=-2**62, high=2**62):
    """Per-row owner share vectors, spanning most of int64 so the
    accumulator genuinely wraps — the compiled sweep must wrap the same
    way numpy does."""
    return [[rng.integers(low, high, size=n, dtype=np.int64)
             for _ in range(owners)] for _ in range(rows)]


def _chunked(kernel, n, splits=(0.3, 0.7)):
    """Drive a sweep closure in uneven chunks (seams must be invisible)."""
    bounds = [0, *(int(n * f) for f in splits), n]
    for lo, hi in zip(bounds, bounds[1:]):
        kernel(lo, hi)


# -- numpy replicas of the server fallback kernels ----------------------------


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
    acc = np.zeros((len(share_lists), n), dtype=np.int64)
    for q, row_shares in enumerate(share_lists):
        for s in row_shares:
            acc[q] += np.mod(s * z_matrix[q], p)
            np.mod(acc[q], p, out=acc[q])
    return acc


def _stream_reference(key, start, n):
    first = start // 32
    last = -(-(start + n) // 32)
    blob = b"".join(hashlib.sha256(key + struct.pack("<Q", c)).digest()
                    for c in range(first, last))
    return blob[start - first * 32:][:n]


# -- unit-level sweep equivalence ----------------------------------------------


class TestSweepBitIdentity:
    def test_psi_sweep(self, compiled):
        rng = np.random.default_rng(11)
        n = 1500
        shares = _share_lists(rng, rows=3, owners=3, n=n)
        table = rng.permutation(DELTA).astype(np.int64)
        m_rows = np.array([[777], [0], [-12345]], dtype=np.int64)
        out = np.empty((3, n), dtype=np.int64)
        kernel = kernels.psi_sweep(shares, m_rows, DELTA, table, out)
        assert kernel is not None, "compiled sweep must engage"
        _chunked(kernel, n)
        expected = psi_reference(shares, m_rows.ravel(), DELTA, table)
        np.testing.assert_array_equal(out, expected)

    def test_psi_cells_sweep(self, compiled):
        rng = np.random.default_rng(12)
        b, n = 4000, 1300
        shares = _share_lists(rng, rows=2, owners=2, n=b)
        cells = rng.choice(b, size=n, replace=False).astype(np.int64)
        table = rng.permutation(DELTA).astype(np.int64)
        m_rows = np.array([[5], [0]], dtype=np.int64)
        out = np.empty((2, n), dtype=np.int64)
        kernel = kernels.psi_sweep(shares, m_rows, DELTA, table, out,
                                   cells=cells)
        assert kernel is not None
        _chunked(kernel, n)
        expected = psi_reference(shares, m_rows.ravel(), DELTA, table,
                                 cells=cells)
        np.testing.assert_array_equal(out, expected)

    def test_psu_sweep(self, compiled):
        rng = np.random.default_rng(13)
        n, seed = 1600, 42
        shares = _share_lists(rng, rows=2, owners=3, n=n)
        nonces = [1, 2, 3]
        row_map = np.array([0, 1, 0], dtype=np.int64)
        keys = [SeededPRG(seed, f"psu-{nonce}").key_bytes
                for nonce in nonces]
        acc = np.zeros((2, n), dtype=np.int64)
        out = np.empty((3, n), dtype=np.int64)
        kernel = kernels.psu_sweep(shares, acc, row_map, keys, DELTA, out)
        assert kernel is not None
        _chunked(kernel, n)
        expected = psu_reference(shares, row_map, nonces, seed, DELTA)
        np.testing.assert_array_equal(out, expected)

    def test_psu_sweep_draw_base_seeks_the_mask_stream(self, compiled):
        """Span-local arrays + draw_base == slicing the full sweep.

        This is exactly how ``compute_sweep_span`` invokes the kernel for
        a span-scoped request: the share arrays cover only the shard's
        span, and the Eq. 18 mask draws must come from the *absolute*
        stream offsets — bit-identical to slicing a full-length sweep.
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
        acc = np.zeros((1, span), dtype=np.int64)
        out = np.empty((1, span), dtype=np.int64)
        kernel = kernels.psu_sweep(local_shares, acc, row_map, keys, DELTA,
                                   out, draw_base=base)
        assert kernel is not None
        _chunked(kernel, span)
        np.testing.assert_array_equal(out, full[:, base:base + span])

    def test_agg_sweep(self, compiled):
        rng = np.random.default_rng(15)
        n = 1500
        shares = _share_lists(rng, rows=2, owners=3, n=n, low=0, high=PRIME)
        z_matrix = rng.integers(0, PRIME, size=(2, n), dtype=np.int64)
        out = np.zeros((2, n), dtype=np.int64)
        kernel = kernels.agg_sweep(shares, z_matrix, PRIME, out)
        assert kernel is not None
        _chunked(kernel, n)
        expected = agg_reference(shares, z_matrix, PRIME)
        np.testing.assert_array_equal(out, expected)

    def test_agg_sweep_extreme_values_hit_the_mersenne_fold(self, compiled):
        """Negative / wrapping products through the division-free
        Mersenne-31 fast path must still match numpy exactly."""
        rng = np.random.default_rng(16)
        n = 1200
        shares = _share_lists(rng, rows=2, owners=3, n=n)  # full ±2^62 range
        z_matrix = rng.integers(-PRIME, PRIME, size=(2, n), dtype=np.int64)
        out = np.zeros((2, n), dtype=np.int64)
        kernel = kernels.agg_sweep(shares, z_matrix, PRIME, out)
        assert kernel is not None
        _chunked(kernel, n)
        expected = agg_reference(shares, z_matrix, PRIME)
        np.testing.assert_array_equal(out, expected)

    def test_agg_sweep_generic_modulus(self, compiled):
        """A non-Mersenne prime pins the generic division branch."""
        rng = np.random.default_rng(17)
        n, p = 1100, 2_147_483_629
        shares = _share_lists(rng, rows=1, owners=4, n=n)
        z_matrix = rng.integers(0, p, size=(1, n), dtype=np.int64)
        out = np.zeros((1, n), dtype=np.int64)
        kernel = kernels.agg_sweep(shares, z_matrix, p, out)
        assert kernel is not None
        _chunked(kernel, n)
        expected = agg_reference(shares, z_matrix, p)
        np.testing.assert_array_equal(out, expected)


# -- the selection ladder -------------------------------------------------------


class TestSelectionLadder:
    def test_mode_off_disables_builders(self):
        assert kernels.configure("off") == "numpy"
        try:
            out = np.empty((1, 4096), dtype=np.int64)
            table = np.arange(DELTA, dtype=np.int64)
            shares = [[np.zeros(4096, dtype=np.int64)]]
            assert kernels.psi_sweep(shares, [[0]], DELTA, table, out) is None
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
        n = kernels.NATIVE_MIN_SPAN - 1
        out = np.empty((1, n), dtype=np.int64)
        table = np.arange(DELTA, dtype=np.int64)
        shares = [[np.zeros(n, dtype=np.int64)]]
        assert kernels.psi_sweep(shares, [[0]], DELTA, table, out) is None

    def test_ineligible_operand_falls_back_per_sweep(self, compiled):
        n = 2048
        out = np.empty((1, n), dtype=np.int64)
        table = np.arange(DELTA, dtype=np.int64)
        strided = np.zeros(2 * n, dtype=np.int64)[::2]  # not contiguous
        assert kernels.psi_sweep([[strided]], [[0]], DELTA, table,
                                 out) is None
        floats = [[np.zeros(n, dtype=np.float64)]]  # wrong dtype
        assert kernels.psi_sweep(floats, [[0]], DELTA, table, out) is None

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
