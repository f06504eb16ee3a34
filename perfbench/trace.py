"""Span tracing from outside the program, and the per-layer metrics.

:class:`Tracer` wraps public functions of each layer of :mod:`repro` at
run time; the repository's own source is not touched.  A span records
its name, layer, thread, start, end, parent span (the innermost open
span of the same thread) and one optional measured value.  Spans stay in
memory and are written to ``spans-<pid>.json`` when a process ends, so
shard workers and entity hosts (forked after the wraps are in place)
report theirs too.

Recording is switched by one flag in shared memory, which every forked
child sees, so a run can alternate traced and untraced blocks and
report the tracing overhead from their throughput.  A wrap target that
no longer exists is listed as missing; it never fails the run.

A span's self time is its duration minus its children's.  Per-query
figures divide by the number of reads that started while tracing was
on; work fused across the queries of one tick is thereby split evenly.
"""

from __future__ import annotations

import functools
import glob
import itertools
import json
import multiprocessing
import os
import sys
import threading
import time
from collections import defaultdict
from multiprocessing import util

# Span record fields.
NAME, LAYER, TID, START, END, SPAN_ID, PARENT, VALUE = range(8)


class Tracer:
    """In-memory span recorder shared, through fork, by every process."""

    def __init__(self, out_dir: str):
        self.out_dir = out_dir
        os.makedirs(out_dir, exist_ok=True)
        for stale in glob.glob(os.path.join(out_dir, "spans-*.json")):
            os.remove(stale)
        self._flag = multiprocessing.RawValue("b", 0)
        self._ids = itertools.count(1)
        self._local = threading.local()
        self.spans: list[list] = []
        self.pid = os.getpid()
        self.missing: list[str] = []
        self.windows: list[tuple[int, int]] = []
        self._window_start = 0
        self._undo: list[tuple[object, str, object]] = []
        util.register_after_fork(self, Tracer._after_fork)

    # -- switching ------------------------------------------------------------

    @property
    def enabled(self) -> bool:
        return bool(self._flag.value)

    def set_enabled(self, on: bool) -> None:
        now = time.perf_counter_ns()
        if on and not self._flag.value:
            self._window_start = now
        elif not on and self._flag.value:
            self.windows.append((self._window_start, now))
        self._flag.value = 1 if on else 0

    # -- processes ------------------------------------------------------------

    def _after_fork(self) -> None:
        self.spans = []
        self.windows = []
        self._local = threading.local()
        self.pid = os.getpid()
        util.Finalize(self, self.dump, exitpriority=100)

    def dump(self) -> None:
        """Write this process's spans (children call this at exit)."""
        if not self.spans:
            return
        path = os.path.join(self.out_dir, f"spans-{self.pid}.json")
        with open(path, "w") as handle:
            json.dump({"pid": self.pid, "spans": self.spans}, handle)

    def collect(self) -> dict[int, list[list]]:
        """Every process's spans, this one's included; call after teardown."""
        self.dump()
        out = {}
        for path in glob.glob(os.path.join(self.out_dir, "spans-*.json")):
            with open(path) as handle:
                data = json.load(handle)
            out[data["pid"]] = data["spans"]
        return out

    # -- wrapping -------------------------------------------------------------

    def _wrapper(self, func, name: str, layer: str, measure):
        flag = self._flag
        tracer = self

        @functools.wraps(func)
        def wrapper(*args, **kwargs):
            if not flag.value:
                return func(*args, **kwargs)
            stack = getattr(tracer._local, "stack", None)
            if stack is None:
                stack = tracer._local.stack = []
            record = [name, layer, threading.get_ident(), 0, 0,
                      next(tracer._ids), stack[-1] if stack else 0, 0]
            tracer.spans.append(record)
            stack.append(record[SPAN_ID])
            record[START] = time.perf_counter_ns()
            try:
                result = func(*args, **kwargs)
            finally:
                record[END] = time.perf_counter_ns()
                stack.pop()
            if measure is not None:
                record[VALUE] = measure(args, kwargs, result, record)
            return result
        return wrapper

    def wrap_method(self, cls, attr: str, name: str, layer: str,
                    measure=None) -> None:
        raw = cls.__dict__.get(attr)
        if raw is None:
            self.missing.append(f"{cls.__module__}.{cls.__qualname__}.{attr}")
            return
        if isinstance(raw, (staticmethod, classmethod)):
            wrapped = type(raw)(self._wrapper(raw.__func__, name, layer,
                                              measure))
        else:
            wrapped = self._wrapper(raw, name, layer, measure)
        setattr(cls, attr, wrapped)
        self._undo.append((cls, attr, raw))

    def wrap_function(self, module_name: str, attr: str, name: str,
                      layer: str, measure=None) -> None:
        """Wrap a module function, and every ``from`` import of it."""
        module = sys.modules.get(module_name)
        original = getattr(module, attr, None) if module else None
        if original is None:
            self.missing.append(f"{module_name}.{attr}")
            return
        wrapped = self._wrapper(original, name, layer, measure)
        for other in list(sys.modules.values()):
            other_name = getattr(other, "__name__", "") or ""
            if (other_name.split(".")[0] == "repro"
                    and getattr(other, attr, None) is original):
                setattr(other, attr, wrapped)
                self._undo.append((other, attr, original))

    def uninstall(self) -> None:
        for owner, attr, original in reversed(self._undo):
            setattr(owner, attr, original)
        self._undo.clear()


# -- what to wrap -------------------------------------------------------------


def _columns(args, kwargs):
    return args[1] if len(args) > 1 else kwargs.get("columns", ())


def install(tracer: Tracer, domain_size: int) -> None:
    """Wrap the public entry points of every layer of :mod:`repro`."""
    from repro.api.client import PrismClient
    from repro.api.executor import Executor
    from repro.api.planner import Planner
    from repro.core.batch import QueryBatch
    from repro.core.interactive import InteractiveProgram
    from repro.core.sharding import ShardRuntime
    from repro.core.system import PrismSystem
    from repro.crypto.additive import AdditiveSharing
    from repro.crypto.prg import SeededPRG
    from repro.crypto.shamir import ShamirSharing
    from repro.entities.announcer import Announcer
    from repro.entities.owner import DBOwner
    from repro.entities.remote import RemoteServer
    from repro.entities.server import PrismServer
    from repro.network.dispatch import PendingReply
    from repro.network.host import ServerAdapter
    from repro.serving.admission import AdmissionController
    from repro.serving.client import GatewayClient
    from repro.serving.gateway import Gateway

    method, function = tracer.wrap_method, tracer.wrap_function

    # serving: client sessions, the gateway's request path, admission.
    method(GatewayClient, "execute", "serving.client", "serving")
    method(Gateway, "_handle", "serving.gateway", "serving")
    method(Gateway, "_send", "serving.reply", "serving")
    method(AdmissionController, "admit", "serving.admit", "serving")
    for attr in ("query_to_wire", "query_from_wire", "result_to_wire",
                 "result_from_wire"):
        function("repro.serving.session", attr, "serving.session_codec",
                 "serving")

    # api: client entry points, lowering, the coalescing scheduler.
    def stamp(args, kwargs, future, record):
        future.perfbench_submitted = record[START]
        return 0

    def queue_wait(args, kwargs, result, record):
        return sum(record[START] - getattr(item.future,
                                           "perfbench_submitted",
                                           record[START])
                   for item in args[1])

    method(PrismClient, "execute", "api.execute", "api")
    method(PrismClient, "submit", "api.submit", "api", stamp)
    method(PrismClient, "_run_tick", "api.tick", "api", queue_wait)
    method(Executor, "execute", "api.executor", "api")
    method(Executor, "execute_many", "api.executor", "api")
    method(Planner, "lower", "api.plan", "api")

    # core: fused batches, interactive rounds, shard workers, refresh.
    def fusion(args, kwargs, result, record):
        plan = args[0].stats.get("plan", {})
        return [plan.get("fused_rows", 0), plan.get("rows_deduplicated", 0)]

    method(QueryBatch, "execute", "core.batch", "core", fusion)

    def completed(args, kwargs, result, record):
        # The step that only finds the program finished runs no round.
        return int(not args[0].done)

    method(InteractiveProgram, "step", "core.round", "core", completed)
    for attr in ("run_psi", "run_psi_cells", "run_psu", "run_agg"):
        method(ShardRuntime, attr, "core.shard_run", "core")
    method(ShardRuntime, "prewarm", "core.shard_prewarm", "core")
    method(PrismSystem, "outsource", "core.refresh", "core")

    # entities: server sweeps (local, remote proxy, host side), owners,
    # announcer.
    def cells(args, kwargs, result, record):
        return len(_columns(args, kwargs)) * domain_size

    def cell_span(args, kwargs, result, record):
        restricted = args[2] if len(args) > 2 else kwargs.get("cells", ())
        return len(_columns(args, kwargs)) * len(restricted)

    sweeps = {"psi_round_batch": cells, "psi_cells_round_batch": cell_span,
              "count_round_batch": cells, "psu_round_batch": cells,
              "aggregate_round_batch": cells, "extrema_collect": None,
              "fpos_round": None}
    for attr, measure in sweeps.items():
        method(PrismServer, attr, "entities.sweep", "entities", measure)
        method(RemoteServer, attr, "entities.remote", "entities", measure)
    function("repro.core.sharding", "compute_sweep_span", "entities.sweep",
             "entities")
    for attr in ("finalize_psi", "psi_membership", "decode_cells",
                 "finalize_psu", "verify_psi", "make_z_shares",
                 "finalize_aggregate", "local_group_max", "local_group_min",
                 "local_group_sum", "blind_value", "extrema_shares",
                 "recover_extremum", "recover_owner_identity",
                 "holds_extremum", "alpha_shares", "finalize_fpos"):
        method(DBOwner, attr, "entities.owner", "entities")
    method(DBOwner, "outsource", "entities.outsource", "entities")
    for attr in ("announce_max", "announce_min", "announce_median",
                 "find_common_cells"):
        method(Announcer, attr, "entities.announcer", "entities")

    # network: frame codec, reply waits, host-side dispatch.
    function("repro.network.codec", "encode_frame", "network.codec",
             "network")
    function("repro.network.codec", "decode_frame", "network.codec",
             "network")
    method(PendingReply, "result", "network.rpc_wait", "network")
    method(ServerAdapter, "dispatch", "network.host", "network")

    # crypto: PRG draws (bytes counted where the stream is cut), shares.
    def drawn(args, kwargs, result, record):
        return len(result) if isinstance(result, bytes) else 8 * len(result)

    for attr in ("bytes", "integers", "integers_at", "integer",
                 "shuffle_indices"):
        method(SeededPRG, attr, "crypto.prg", "crypto",
               drawn if attr in ("bytes", "integers_at") else None)
    method(AdditiveSharing, "share_vector", "crypto.share", "crypto")
    method(ShamirSharing, "share_vector", "crypto.share", "crypto")

    # kernels: compiled span builders that actually returned a kernel.
    def native(args, kwargs, result, record):
        return int(result is not None)

    for attr in ("psi_sweep", "psu_sweep", "agg_sweep", "prg_fill"):
        function("repro.kernels", attr, "kernels.native", "kernels", native)


# -- per-layer metrics --------------------------------------------------------


class _Index:
    """Spans of all processes with durations, self times and ancestry."""

    def __init__(self, spans_by_pid: dict[int, list[list]], main_pid: int):
        self.main_pid = main_pid
        self.by_name = defaultdict(list)  # name -> (pid, record, dur, self)
        self._parent = {}         # (pid, span id) -> parent span id
        self._name = {}           # (pid, span id) -> name
        for pid, spans in spans_by_pid.items():
            child_time = defaultdict(int)
            for record in spans:
                self._parent[(pid, record[SPAN_ID])] = record[PARENT]
                self._name[(pid, record[SPAN_ID])] = record[NAME]
                child_time[record[PARENT]] += record[END] - record[START]
            for record in spans:
                duration = record[END] - record[START]
                self.by_name[record[NAME]].append(
                    (pid, record, duration,
                     duration - child_time[record[SPAN_ID]]))

    def under(self, pid: int, record, name: str) -> bool:
        """Whether a span has an ancestor called ``name``."""
        parent = record[PARENT]
        while parent:
            if self._name.get((pid, parent)) == name:
                return True
            parent = self._parent.get((pid, parent), 0)
        return False

    def select(self, name=None, layer=None, main_only=False):
        names = [name] if name is not None else list(self.by_name)
        for span_name in names:
            for row in self.by_name.get(span_name, ()):
                if layer is not None and row[1][LAYER] != layer:
                    break  # one name, one layer
                if not main_only or row[0] == self.main_pid:
                    yield row


def _overlap(start: int, end: int, windows) -> int:
    return sum(max(0, min(end, hi) - max(start, lo)) for lo, hi in windows)


def layer_metrics(tracer: Tracer, spans_by_pid, *, traced_reads: int,
                  traced_refreshes: int, caller_threads, roots,
                  qps_traced: float, qps_untraced: float,
                  counters: dict) -> dict[str, float]:
    """The per-layer metrics of one traced run (see ``BENCHMARK.json``)."""
    index = _Index(spans_by_pid, tracer.pid)
    reads = max(1, traced_reads)
    ms = 1e-6

    def total(name=None, layer=None, what="duration", main_only=False,
              where=None):
        out = 0
        for pid, record, duration, own in index.select(name, layer,
                                                       main_only):
            if where is None or where(pid, record):
                out += {"duration": duration, "self": own,
                        "value": record[VALUE]}[what]
        return out

    def count(name, main_only=False, where=None):
        return sum(1 for pid, record, _, _ in index.select(name,
                                                           main_only=main_only)
                   if where is None or where(pid, record))

    def per_refresh(value):
        return value / traced_refreshes if traced_refreshes else 0.0

    def top(name):
        return lambda pid, record: not index.under(pid, record, name)

    def in_refresh(pid, record):
        return index.under(pid, record, "core.refresh")

    fused = dedup = 0
    for _, record, _, _ in index.select("core.batch"):
        fused += record[VALUE][0]
        dedup += record[VALUE][1]
    rounds = total("core.round", what="value")
    batches = count("core.batch", where=top("core.round"))
    round_self = total("core.round", what="self")
    prg_top = top("crypto.prg")

    window_ns = sum(hi - lo for lo, hi in tracer.windows)
    covered = sum(_overlap(record[START], record[END], tracer.windows)
                  for pid, record, _, _ in index.select(main_only=True)
                  if record[TID] in caller_threads and record[NAME] in roots
                  and not record[PARENT])
    callers = max(1, len(caller_threads))

    return {
        "serving.self_ms_per_query":
            total(layer="serving", what="self") * ms / reads,
        "serving.admission_wait_ms_per_query":
            total("serving.admit") * ms / reads,
        "serving.rejected_frac": counters["rejected_frac"],
        "api.plan_ms_per_query": total("api.plan") * ms / reads,
        "api.queue_wait_ms_per_query":
            total("api.tick", what="value") * ms / reads,
        "api.fusion_ratio": counters["fusion_ratio"],
        "core.batch_self_ms_per_query":
            total("core.batch", what="self") * ms / reads,
        "core.rows_dedup_frac": dedup / (fused + dedup) if fused else 0.0,
        "core.indicator_cache_hit_frac": counters["cache_hit_frac"],
        "core.shard_run_ms_per_query":
            total("core.shard_run", where=lambda p, r: not in_refresh(p, r))
            * ms / reads,
        "core.shard_prewarm_ms_per_refresh":
            per_refresh(total("core.shard_prewarm", where=in_refresh) * ms),
        "core.rounds_per_query": (rounds + batches) / reads,
        "core.round_self_ms": round_self * ms / rounds if rounds else 0.0,
        "entities.sweep_ms_per_query":
            total("entities.sweep", what="self") * ms / reads,
        "entities.cells_swept_per_query":
            (total("entities.sweep", what="value", main_only=True)
             + total("entities.remote", what="value", main_only=True)) / reads,
        "entities.owner_ms_per_query":
            total("entities.owner", what="self") * ms / reads,
        "entities.announcer_ms_per_query":
            total("entities.announcer", what="self") * ms / reads,
        "entities.outsource_ms_per_refresh":
            per_refresh(total("entities.outsource") * ms),
        "network.rpc_per_query":
            count("network.rpc_wait", main_only=True) / reads,
        "network.rpc_wait_ms_per_query":
            total("network.rpc_wait", what="self", main_only=True) * ms / reads,
        "network.codec_ms_per_query": total("network.codec") * ms / reads,
        "network.socket_bytes_per_query": counters["socket_bytes_per_query"],
        "network.events_swallowed": counters["events_swallowed"],
        "crypto.prg_ms_per_query":
            total("crypto.prg", where=lambda p, r: prg_top(p, r)
                  and not in_refresh(p, r)) * ms / reads,
        "crypto.prg_bytes_per_query":
            total("crypto.prg", what="value",
                  where=lambda p, r: not in_refresh(p, r)) / reads,
        "crypto.share_ms_per_refresh":
            per_refresh(total("crypto.share", where=in_refresh) * ms),
        "kernels.native_span_calls": total("kernels.native", what="value"),
        "trace.coverage_frac":
            covered / (window_ns * callers) if window_ns else 0.0,
        "trace.overhead_frac":
            1.0 - qps_traced / qps_untraced if qps_untraced else 0.0,
        "trace.missing_wraps": len(tracer.missing),
    }
