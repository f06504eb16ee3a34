"""Sharded χ-table execution: one persistent thread pool per deployment.

The oblivious kernels are embarrassingly parallel sweeps over the χ
length ``b`` (Exp 1, Fig. 3): every output cell depends only on the same
cell of each input vector.  This module partitions those sweeps into
contiguous shards and runs each shard as a ``kernel(lo, hi)`` span
closure on a *persistent* thread pool, one pool per deployment:

* :func:`shard_bounds` / :class:`ShardPlan` — the shard decomposition.
  A plan is the shard count the batched server kernels
  (:meth:`~repro.entities.server.PrismServer.psi_round_batch` and
  friends) accept as a per-call override.
* :class:`ShardRuntime` — the thread pool.  The span closures are the
  compiled sweeps of :mod:`repro.kernels` (ctypes releases the GIL for
  each C call) or their numpy reference kernels (numpy releases it
  inside vector ops), so the shards of one sweep run in parallel
  without leaving the process: they read the server stores' share
  vectors in place, never over a stale snapshot, and overridden
  fetch/kernel methods of instrumented or malicious servers still fire.
* :func:`usable_cpus` / :func:`auto_shard_plan` — the
  ``num_shards="auto"`` heuristic, sized to the CPUs this process may
  run on.
* :func:`attach_sharding` — wires one runtime + default plan onto a
  deployment's servers (what ``PrismSystem`` calls).
* :func:`compute_sweep_span` — one span of one fused sweep, straight
  from a store; entity hosts serve span-scoped RPCs with it.

Bit-identity: a shard computes exactly the per-element int64 operations
of the unsharded kernel over its span (same share-summation order, same
single reduction, same table lookup), so concatenated shard outputs are
bit-identical to the unsharded sweep for every shard count.
"""

from __future__ import annotations

import dataclasses
import os
import threading
from concurrent.futures import ThreadPoolExecutor, wait

import numpy as np

from repro import kernels
from repro.exceptions import ProtocolError


def shard_bounds(n: int, num_shards: int) -> list[tuple[int, int]]:
    """Split ``range(n)`` into at most ``num_shards`` contiguous spans."""
    num_shards = max(1, min(num_shards, n)) if n else 1
    step = (n + num_shards - 1) // num_shards if n else 1
    return [(lo, min(lo + step, n)) for lo in range(0, n, step)] or [(0, 0)]


def usable_cpus() -> int:
    """CPUs this process may run on.

    The affinity mask, not the host's CPU count: ``taskset``, a cgroup
    cpuset or a benchmark's pin can leave the process far fewer CPUs
    than the machine has.  Falls back to ``os.cpu_count()`` where the
    platform has no affinity call.
    """
    try:
        return max(1, len(os.sched_getaffinity(0)))
    except AttributeError:
        return os.cpu_count() or 1


@dataclasses.dataclass(frozen=True)
class ShardPlan:
    """A shard decomposition handed to the batched server kernels.

    Attributes:
        num_shards: contiguous χ shards per sweep (``<= 1`` disables
            sharding — useful as an explicit per-call override).
    """

    num_shards: int

    def bounds(self, n: int) -> list[tuple[int, int]]:
        """The shard spans of a length-``n`` sweep."""
        return shard_bounds(n, self.num_shards)


def compute_sweep_span(server, family: str, spec: dict, lo: int, hi: int,
                       z_span: np.ndarray | None = None) -> np.ndarray:
    """One contiguous χ span ``[lo, hi)`` of one fused sweep.

    Mirrors the corresponding in-process kernel *exactly* (operation
    order, reduction points, dtypes) so shard outputs concatenate
    bit-identically to the unsharded sweep for every span decomposition.
    Reads share vectors straight from the server's store.  The entity
    host (:mod:`repro.network.host`) serves span-scoped RPC requests
    with it — the hook for sharding one sweep across deployment channels.

    Args:
        server: the (unmodified) server whose store backs the sweep.
        family: ``"psi"`` (Eq. 3 / Eq. 7), ``"psi_cells"`` (Eq. 3 over a
            cell subset — the bucketized per-level sweep, where the span
            indexes the *cells array*), ``"psu"`` (Eq. 18), or ``"agg"``
            (Eq. 11).
        spec: the sweep description (columns, per-column owner lists,
            and per-family extras — ``m_rows``, ``cells``,
            ``row_map``/``nonces``).
        z_span: for ``"agg"``, this span of the indicator-share matrix.

    Returns:
        The ``(rows, hi - lo)`` output block of the sweep.
    """
    store = server.store
    columns = spec["columns"]
    owners = spec["owners"]

    if family == "psi":
        # Eq. 3 / Eq. 7 span: sum, ⊖ A(m), mod δ, power-table lookup.
        delta = server.params.delta
        table = server.params.group.power_table
        m_rows = np.asarray(spec["m_rows"], dtype=np.int64)[:, None]
        share_lists = [
            [store.shard_slice(owner, column, lo, hi) for owner in col_owners]
            for column, col_owners in zip(columns, owners)
        ]
        out = np.empty((len(columns), hi - lo), dtype=np.int64)
        native = kernels.psi_sweep(share_lists, m_rows, delta, table, out)
        if native is not None:
            native(0, hi - lo)
            return out
        acc = np.zeros((len(columns), hi - lo), dtype=np.int64)
        for q, row_shares in enumerate(share_lists):
            row = acc[q]
            for s in row_shares:
                row += s
        acc -= m_rows
        np.mod(acc, delta, out=acc)
        return table[acc]

    if family == "psi_cells":
        # Eq. 3 over a cell subset: the kernel is cell-local, so the
        # span indexes the cells array (not χ) and the gathered cells
        # compute bit-identically to slicing the full sweep.
        delta = server.params.delta
        table = server.params.group.power_table
        span = np.asarray(spec["cells"][lo:hi], dtype=np.int64)
        m_rows = np.asarray(spec["m_rows"], dtype=np.int64)[:, None]
        share_lists = [
            [store.get(owner, column).values for owner in col_owners]
            for column, col_owners in zip(columns, owners)
        ]
        out = np.empty((len(columns), hi - lo), dtype=np.int64)
        native = kernels.psi_sweep(share_lists, m_rows, delta, table, out,
                                   cells=span)
        if native is not None:
            native(0, hi - lo)
            return out
        acc = np.zeros((len(columns), hi - lo), dtype=np.int64)
        for q, row_shares in enumerate(share_lists):
            row = acc[q]
            for s in row_shares:
                row += s[span]
        acc -= m_rows
        np.mod(acc, delta, out=acc)
        return table[acc]

    if family == "psu":
        # Eq. 18 span: per-unique-column sums, broadcast by row_map,
        # multiplied with this span of each row's mask stream.  The
        # counter-mode PRG is seekable (``integers_at``), so the span
        # derives bits identical to slicing the full-length stream — and
        # mask generation, PSU's dominant cost, shards with the sweep.
        from repro.crypto.prg import SeededPRG
        delta = server.params.delta
        row_map = np.asarray(spec["row_map"], dtype=np.int64)
        share_lists = [
            [store.shard_slice(owner, column, lo, hi) for owner in col_owners]
            for column, col_owners in zip(columns, owners)
        ]
        prgs = [SeededPRG(server.params.prg_seed, f"psu-{nonce}")
                for nonce in spec["nonces"]]
        acc = np.zeros((len(columns), hi - lo), dtype=np.int64)
        out = np.empty((len(row_map), hi - lo), dtype=np.int64)
        native = kernels.psu_sweep(share_lists, acc, row_map,
                                   [prg.key_bytes for prg in prgs], delta,
                                   out, draw_base=lo)
        if native is not None:
            native(0, hi - lo)
            return out
        for u, col_shares in enumerate(share_lists):
            row = acc[u]
            for s in col_shares:
                row += s
        np.mod(acc, delta, out=acc)
        rand = np.stack([prg.integers_at(lo, hi - lo, 1, delta)
                         for prg in prgs])
        return np.mod(acc[row_map] * rand, delta)

    if family == "agg":
        # Eq. 11 span: Σ_j S(x_i2)_j × S(z_i) with per-term reduction.
        if z_span is None:
            raise ProtocolError("aggregation span needs its z matrix span")
        p = server.params.field_prime
        share_lists = [
            [store.shard_slice(owner, column, lo, hi) for owner in col_owners]
            for column, col_owners in zip(columns, owners)
        ]
        acc = np.zeros((len(columns), hi - lo), dtype=np.int64)
        native = kernels.agg_sweep(share_lists, np.asarray(z_span), p, acc)
        if native is not None:
            native(0, hi - lo)
            return acc
        for q, row_shares in enumerate(share_lists):
            z = z_span[q]
            row = acc[q]
            for s in row_shares:
                row += np.mod(s * z, p)
                np.mod(row, p, out=row)
        return acc

    raise ProtocolError(f"unknown shard kernel family {family!r}")


class ShardRuntime:
    """A deployment's persistent thread pool for ``kernel(lo, hi)`` spans.

    One runtime is shared by all of a local system's servers (standalone
    servers each own one), so a deployment holds at most
    ``usable_cpus() - 1`` pool threads however many servers sweep at
    once: the calling thread always computes the first span itself.

    The pool is created on the first multi-span sweep and grown (never
    shrunk) on demand.  Growth *retires* the old pool rather than
    shutting it down, because a concurrent sweep may still be
    submitting to it; :meth:`close` waits for in-flight sweeps and then
    joins every pool thread, current and retired.
    """

    def __init__(self):
        self._pool: ThreadPoolExecutor | None = None
        self._pool_workers = 0
        self._retired: list[ThreadPoolExecutor] = []
        self._active = 0
        self._cond = threading.Condition()
        #: Sweeps run as more than one span (for tests / introspection).
        self.dispatches = 0

    def _grown_pool(self, workers: int) -> ThreadPoolExecutor:
        """The pool, with at least ``workers`` threads.  Under ``_cond``."""
        if self._pool is None or self._pool_workers < workers:
            if self._pool is not None:
                self._retired.append(self._pool)
            self._pool = ThreadPoolExecutor(max_workers=workers,
                                            thread_name_prefix="prism-shard")
            self._pool_workers = workers
        return self._pool

    def run(self, kernel, n: int, num_shards: int) -> None:
        """Run ``kernel(lo, hi)`` over ``num_shards`` contiguous spans of
        ``range(n)``, in parallel on up to :func:`usable_cpus` threads.

        Span closures only read shared inputs and write disjoint spans
        of their outputs, so any schedule computes the same result.
        """
        bounds = shard_bounds(n, num_shards)
        if len(bounds) == 1:
            kernel(*bounds[0])
            return
        helpers = min(len(bounds), usable_cpus()) - 1
        with self._cond:
            self.dispatches += 1
            if helpers < 1:
                pool = None
            else:
                pool = self._grown_pool(helpers)
                self._active += 1
        if pool is None:
            for lo, hi in bounds:
                kernel(lo, hi)
            return
        try:
            futures = [pool.submit(kernel, lo, hi) for lo, hi in bounds[1:]]
            try:
                kernel(*bounds[0])
            finally:
                wait(futures)
            for future in futures:
                future.result()
        finally:
            with self._cond:
                self._active -= 1
                self._cond.notify_all()

    def close(self) -> None:
        """Quiesce and join every pool thread (idempotent).

        Waits for in-flight sweeps to finish rather than pulling their
        pool out from under them; the runtime stays usable afterwards
        (a later multi-span sweep builds a fresh pool).
        """
        with self._cond:
            while self._active:
                self._cond.wait()
            pools = list(self._retired)
            if self._pool is not None:
                pools.append(self._pool)
            self._pool = None
            self._pool_workers = 0
            self._retired = []
        for pool in pools:
            pool.shutdown(wait=True)


#: Minimum χ rows per shard before splitting pays for itself, for both
#: kernel tiers.  ``benchmarks/bench_sharding.py`` (5 owners, 2 CPUs,
#: compiled tier) has 2 shards winning on every kernel family from
#: b = 65536; at b = 32768 the memory-bound Eq. 3 sweep still loses to
#: the per-span thread hand-off.
AUTO_ROWS_PER_SHARD = 32_768


def auto_shard_plan(rows: int, cpu_count: int | None = None) -> int:
    """The ``num_shards="auto"`` shard count for a χ length.

    Shards so every shard keeps at least :data:`AUTO_ROWS_PER_SHARD`
    rows, capped at the CPUs this process may use (:func:`usable_cpus`,
    or ``cpu_count`` when given).
    """
    cpus = usable_cpus() if cpu_count is None else cpu_count
    return max(1, min(cpus, rows // AUTO_ROWS_PER_SHARD))


def attach_sharding(servers, num_shards: int) -> ShardRuntime:
    """Wire one shared :class:`ShardRuntime` onto a set of local servers.

    Every server sweeps on the returned runtime, whose
    :meth:`~ShardRuntime.close` the caller owns.  ``num_shards > 1``
    also sets each server's default shard plan and marks its store
    shard-aware (contiguous partition bookkeeping).
    """
    runtime = ShardRuntime()
    plan = ShardPlan(num_shards) if num_shards > 1 else None
    for server in servers:
        server.runtime = runtime
        server.shard_plan = plan
        server.store.configure_sharding(num_shards)
    return runtime
