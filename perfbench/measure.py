"""Process accounting, latency statistics and run hygiene.

Every figure here covers the whole deployment: the benchmark process
(owners, querier, gateway, client threads) plus every process it forked
(shard workers, entity hosts).  Children are found through
:func:`multiprocessing.active_children`, which is how the program forks
all of them; a child that exits during the timed phase is reaped by its
parent, and its CPU then shows in ``RUSAGE_CHILDREN``.
"""

from __future__ import annotations

import hashlib
import math
import multiprocessing
import os
import resource
import threading
import time

import numpy as np

_TICKS = os.sysconf("SC_CLK_TCK")


def _proc_cpu(pid: int) -> float | None:
    """User + system CPU seconds of a live process, from ``/proc``."""
    try:
        with open(f"/proc/{pid}/stat") as handle:
            fields = handle.read().rsplit(")", 1)[1].split()
    except OSError:
        return None
    return (int(fields[11]) + int(fields[12])) / _TICKS


def _proc_hwm_kb(pid: int) -> int:
    """Peak resident set (``VmHWM``) of a live process in KiB, or 0."""
    try:
        with open(f"/proc/{pid}/status") as handle:
            for line in handle:
                if line.startswith("VmHWM:"):
                    return int(line.split()[1])
    except OSError:
        pass
    return 0


def _rusage_cpu(who: int) -> float:
    usage = resource.getrusage(who)
    return usage.ru_utime + usage.ru_stime


class CpuMeter:
    """CPU seconds spent by this process and its children since creation.

    A child alive at both ends contributes its ``/proc`` delta; a child
    reaped in between contributes its ``RUSAGE_CHILDREN`` total minus
    what it had already used at the start.
    """

    def __init__(self):
        self._start = self._snapshot()

    @staticmethod
    def _snapshot():
        children = multiprocessing.active_children()  # also reaps the dead
        own = _rusage_cpu(resource.RUSAGE_SELF)
        reaped = _rusage_cpu(resource.RUSAGE_CHILDREN)
        live = {}
        for child in children:
            cpu = _proc_cpu(child.pid)
            if cpu is not None:
                live[child.pid] = cpu
        return own, reaped, live

    def seconds(self) -> float:
        own0, reaped0, live0 = self._start
        own1, reaped1, live1 = self._snapshot()
        total = (own1 - own0) + (reaped1 - reaped0)
        for pid, cpu in live1.items():
            total += cpu - live0.get(pid, 0.0)
        for pid, cpu in live0.items():
            if pid not in live1:
                total -= cpu
        return total


def peak_rss_mb() -> float:
    """Peak RSS of this process plus each live child's, in MiB."""
    kb = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss
    kb += sum(_proc_hwm_kb(child.pid)
              for child in multiprocessing.active_children())
    return kb / 1024.0


def percentile(samples, pct: float) -> float:
    """Nearest-rank percentile of a non-empty sample."""
    ordered = sorted(samples)
    rank = max(1, math.ceil(pct / 100.0 * len(ordered)))
    return ordered[rank - 1]


def beyond(count: int, pct: float) -> int:
    """Samples strictly above the nearest-rank ``pct`` percentile."""
    return count - max(1, math.ceil(pct / 100.0 * count))


def spin_seconds() -> float:
    """Wall time of a fixed numpy + hashlib + pure-Python loop.

    A drift diagnostic for the host, not a metric: when it moves between
    the start and the end of a run, so does everything else.
    """
    start = time.perf_counter()
    values = np.arange(400_000, dtype=np.int64)
    for _ in range(8):
        values = (values * 1103515245 + 12345) % 2147483647
    digest = hashlib.sha256()
    for i in range(20_000):
        digest.update(i.to_bytes(8, "little"))
    total = 0
    for i in range(200_000):
        total += i * i % 7
    return time.perf_counter() - start


def leftovers(timeout: float = 10.0) -> list[str]:
    """Children and non-daemon threads still alive after a teardown.

    Waits up to ``timeout`` for children that are already exiting.
    """
    deadline = time.monotonic() + timeout
    while multiprocessing.active_children() and time.monotonic() < deadline:
        time.sleep(0.05)
    alive = [f"process {child.pid} ({child.name})"
             for child in multiprocessing.active_children()]
    alive += [f"thread {thread.name}" for thread in threading.enumerate()
              if thread is not threading.main_thread()
              and not thread.daemon and thread.is_alive()]
    return alive
