"""Sharded χ-table execution: one persistent thread pool per deployment.

The oblivious kernels are embarrassingly parallel sweeps over the χ
length ``b`` (Exp 1, Fig. 3): every output cell depends only on the same
cell of each input vector.  This module partitions those sweeps into
contiguous shards and runs each shard as a ``kernel(lo, hi)`` span
closure on a *persistent* thread pool, one pool per deployment:

* :func:`shard_bounds` — the shard decomposition of a sweep into
  ``num_shards`` contiguous spans, the one parallelism setting every
  layer carries (Exp 1's server "threads" are these spans).
* :class:`ShardRuntime` — the thread pool.  The span closures are the
  compiled sweeps of :mod:`repro.kernels` (ctypes releases the GIL for
  each C call) or their numpy twins in :mod:`repro.entities.server`
  (numpy releases it inside vector ops), so the shards of one sweep run
  in parallel without leaving the process: they read the server stores'
  share vectors in place, never over a stale snapshot.
* :func:`usable_cpus` / :func:`auto_shard_plan` — the
  ``num_shards="auto"`` heuristic, sized to the CPUs this process may
  run on; :func:`resolve_shards` turns any ``num_shards`` setting into
  a span count.
* :func:`attach_sharding` — wires one runtime + default span count onto
  a deployment's servers (what ``PrismSystem`` calls).

Bit-identity: every output cell depends only on the same cell of each
input vector, so a span kernel computes over ``[lo, hi)`` exactly what
the unsharded sweep computes there, and concatenated shard outputs are
bit-identical to the unsharded sweep for every shard count.
"""

from __future__ import annotations

import numbers
import os
import threading
from concurrent.futures import ThreadPoolExecutor, wait

from repro.exceptions import ParameterError


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


def resolve_shards(num_shards, rows: int) -> int | None:
    """The span count a ``num_shards`` setting names for a χ length.

    ``None`` stays ``None`` (defer to the deployment default);
    ``"auto"`` resolves through :func:`auto_shard_plan`; an ``int`` of
    at least 1 (never a ``bool``) is taken as is.

    Raises:
        ParameterError: naming the value, for anything else.
    """
    if num_shards is None:
        return None
    if num_shards == "auto":
        return auto_shard_plan(rows)
    if (isinstance(num_shards, numbers.Integral)
            and not isinstance(num_shards, bool) and num_shards >= 1):
        return int(num_shards)
    raise ParameterError(f"num_shards must be 'auto' or an int >= 1, "
                         f"got {num_shards!r}")


def attach_sharding(servers, num_shards: int) -> ShardRuntime:
    """Wire one shared :class:`ShardRuntime` onto a set of local servers.

    Every server sweeps on the returned runtime, whose
    :meth:`~ShardRuntime.close` the caller owns, in ``num_shards``
    spans by default.
    """
    runtime = ShardRuntime()
    for server in servers:
        server.runtime = runtime
        server.num_shards = num_shards
    return runtime
