"""The session-style client — the recommended query API.

:class:`PrismClient` wraps a deployed
:class:`~repro.core.system.PrismSystem` behind the unified plan IR /
executor path and keeps per-session accounting::

    from repro import PrismClient, Q

    client = PrismClient.connect(relations, domain, "disease",
                                 agg_attributes=("cost", "age"))
    client.execute("SELECT disease FROM h1 INTERSECT SELECT disease FROM h2")
    client.execute(Q.psi("disease").sum("cost").avg("age").verify())
    client.execute("EXPLAIN SELECT disease FROM h1 UNION SELECT disease FROM h2")
    client.execute_many([Q.psi("disease"), Q.psu("disease").count()])
    client.stats  # queries by kind, batched vs interactive units, traffic

Every query — SQL string, :class:`~repro.api.builder.Q` builder or
:class:`~repro.api.plan.LogicalPlan` — reaches the same executor, so single queries run through the fused batch kernels and the
indicator-share cache exactly like explicit batches do.

Concurrent submission
---------------------

:meth:`PrismClient.submit` is the serving-engine surface: it returns a
:class:`concurrent.futures.Future` immediately and hands the query to a
background scheduler thread.  The scheduler drains *all* in-flight
submissions per tick and runs them as **one** fused
:class:`~repro.core.batch.QueryBatch`, so concurrent users automatically
share server sweeps and the planner's row-dedup — two dashboards
refreshing the same PSI pay for one Eq. 3 sweep::

    with system.client() as client:
        futures = [client.submit(q) for q in queries]   # any thread(s)
        results = [f.result() for f in futures]

On waking, the scheduler waits until as many submissions are queued as
the previous tick took, so closed-loop callers whose answers just came
back fuse again, but never longer than ``coalesce_window`` seconds: a
lone caller's query drains at once.  :meth:`PrismClient.hold` pins the
scheduler for deterministic coalescing (tests, bulk loads).  If
a fused tick fails (e.g. one query's verification trips), the scheduler
re-runs that tick's queries individually so the failure lands only on
the offending future.

Interactive queries (MAX/MIN/MEDIAN, bucketized PSI) coexist with the
coalesced batches: a submitted plan with interactive units becomes a
*job* — a steppable :class:`~repro.api.executor.QueryProgram` — and the
scheduler advances it one protocol round per loop iteration, draining
freshly submitted batchable queries between rounds.  A ten-round median
therefore never blocks the drain tick for longer than one round, and a
failing round poisons only its own future.
"""

from __future__ import annotations

import contextlib
import threading
from concurrent.futures import Future

from repro.api.executor import BATCHED, DISPATCH, Executor
from repro.api.planner import Planner
from repro.api.sql import split_explain
from repro.exceptions import QueryError


def _plan_is_interactive(plan) -> bool:
    """Whether any unit needs the round-stepped job lane.

    Unknown dispatch kinds also land here: the job lane surfaces their
    :class:`~repro.exceptions.QueryError` on the owning future alone.
    """
    return any(DISPATCH.get(unit.kind) is not BATCHED
               for unit in plan.units())


class _Submission:
    """One queued :meth:`PrismClient.submit` call."""

    __slots__ = ("query", "num_shards", "future")

    def __init__(self, query, num_shards):
        self.query = query
        self.num_shards = num_shards
        self.future: Future = Future()


class _Job:
    """One in-flight interactive submission, stepped round by round."""

    __slots__ = ("submission", "program")

    def __init__(self, submission: _Submission, program):
        self.submission = submission
        self.program = program


class PrismClient:
    """A query session over one Prism deployment.

    Args:
        system: a deployed (outsourced) :class:`PrismSystem`.
        num_shards: default span count for this session (``None``:
            the system's own default; ``"auto"``: resolve per call from
            the χ length and core count).
        coalesce_window: upper bound, in seconds, on the scheduler's
            wait after waking for as many :meth:`submit` calls as the
            previous tick took; ``0`` drains whatever is queued at once.
    """

    def __init__(self, system, num_shards: int | str | None = None,
                 coalesce_window: float = 0.002):
        self.system = system
        self.num_shards = num_shards
        self.coalesce_window = coalesce_window
        self.planner = Planner()
        self.executor = Executor(system, planner=self.planner)
        self._queries = 0
        self._explains = 0
        self._by_kind: dict[str, int] = {}
        self._batched_units = 0
        self._interactive_units = 0
        self._fused_rows = 0
        self._rows_deduplicated = 0
        self._traffic_bytes = 0
        self._traffic_messages = 0
        # Scheduler state: one session-wide execution lock (the executor
        # and transport are not reentrant), one condition guarding the
        # submission queue, one lazily started daemon thread.
        self._exec_lock = threading.RLock()
        self._cond = threading.Condition()
        self._pending: list[_Submission] = []
        self._holds = 0
        self._closing = False
        self._scheduler: threading.Thread | None = None
        self._submitted = 0
        self._ticks = 0
        self._max_coalesced = 0
        # Submissions the last drain tick took: the next tick waits for
        # as many (at most coalesce_window) before it drains.
        self._last_tick = 1
        # Interactive job lane: touched only on the scheduler thread.
        self._jobs: list[_Job] = []
        self._interactive_jobs = 0
        self._interactive_rounds = 0

    @classmethod
    def connect(cls, *args, relations=None, domain=None, psi_attribute=None,
                agg_attributes=(),
                num_shards: int | str | None = None,
                deployment: str | None = None, **build_kwargs
                ) -> "PrismClient":
        """Build + outsource a deployment and open a session on it.

        Two call shapes::

            PrismClient.connect(relations, domain, psi_attribute, ...)
            PrismClient.connect("tcp://h:p,h:p,h:p",
                                relations, domain, psi_attribute, ...)

        A leading deployment spec (``"local"``, ``"subprocess"``,
        ``"shm"``, ``"tcp://host:port,host:port,host:port"``, a pooled
        ``"tcp://h:p,h:p/h:p/h:p,h:p,h:p"`` giving each server role a
        ``/``-separated replica pool, or a parsed
        :class:`~repro.network.rpc.Deployment`) declares where the
        server entities run; the identical SQL / builder / batch query
        surface then executes against them — in-process (the default,
        and what historical direct ``PrismSystem`` construction maps
        to), in forked workers, or in standalone ``repro-entity-host``
        processes over real sockets.  ``deployment=`` works as a
        keyword too.
        """
        from repro.core.system import PrismSystem
        from repro.network.rpc import NAMED_MODES, Deployment
        if args and (isinstance(args[0], Deployment)
                     or (isinstance(args[0], str) and (
                         args[0] in NAMED_MODES
                         or args[0].startswith("tcp://")))):
            if deployment is not None:
                raise QueryError(
                    "deployment given both positionally and as a keyword")
            deployment, args = args[0], args[1:]
        # The three core arguments work positionally or as keywords
        # (the historical signature named them), and agg_attributes
        # keeps its historical 4th positional slot.
        if len(args) == 4 and agg_attributes == ():
            args, agg_attributes = args[:3], args[3]
        named = (relations, domain, psi_attribute)
        positional = len(args) + sum(1 for v in named if v is not None)
        if positional != 3 or len(args) > 3:
            raise QueryError(
                "connect needs (relations, domain, psi_attribute), "
                "optionally preceded by a deployment spec"
            )
        filled = list(args) + [None] * (3 - len(args))
        for slot, value in enumerate(named):
            if value is not None:
                if slot < len(args):
                    raise QueryError(
                        f"{('relations', 'domain', 'psi_attribute')[slot]} "
                        f"given both positionally and as a keyword")
                filled[slot] = value
        relations, domain, psi_attribute = filled
        if deployment is not None:
            build_kwargs["deployment"] = deployment
        if num_shards is not None:
            build_kwargs.setdefault("num_shards", num_shards)
        system = PrismSystem.build(relations, domain, psi_attribute,
                                   agg_attributes=agg_attributes,
                                   **build_kwargs)
        return cls(system)

    # -- queries --------------------------------------------------------------

    def execute(self, query, num_shards: int | str | None = None,
                **runner_options):
        """Run one query of any supported form.

        SQL strings may carry an ``EXPLAIN`` prefix, in which case the
        plan's description is returned and nothing executes.
        """
        if isinstance(query, str):
            explain, text = split_explain(query)
            if explain:
                return self.explain(text)
        with self._exec_lock:
            plan = self.planner.lower(query)
            with self._accounted([plan]):
                return self.executor.execute(
                    plan, num_shards=self._shards(num_shards),
                    **runner_options)

    def execute_many(self, queries,
                     num_shards: int | str | None = None) -> list:
        """Run many queries; batchable units fuse into one server batch."""
        with self._exec_lock:
            plans = self.planner.lower_many(queries)
            with self._accounted(plans):
                return self.executor.execute_many(
                    plans, num_shards=self._shards(num_shards))

    def explain(self, query) -> str:
        """The plan's description + dispatch routes, without executing."""
        if isinstance(query, str):
            _, query = split_explain(query)
        text = self.executor.explain(query)
        self._explains += 1  # failed explains stay uncounted, like queries
        return text

    def describe(self, query) -> str:
        """Just the plan's logical description (no routing detail)."""
        if isinstance(query, str):
            _, query = split_explain(query)
        return self.planner.lower(query).describe()

    # -- concurrent submission ------------------------------------------------

    def submit(self, query,
               num_shards: int | str | None = None) -> Future:
        """Queue one query for coalesced execution; returns a future.

        Safe to call from any thread.  All batchable submissions in
        flight at the scheduler's next drain tick execute as a single
        fused batch — concurrent queries share sweeps and row-dedup
        automatically.  Submissions with interactive units (MAX/MIN,
        MEDIAN, bucketized PSI) become round-stepped jobs that advance
        one protocol round per scheduler iteration, so they coexist
        with coalesced batches without ever blocking a drain tick.
        ``EXPLAIN`` SQL resolves immediately (nothing to coalesce).
        """
        if isinstance(query, str):
            explain, text = split_explain(query)
            if explain:
                future: Future = Future()
                try:
                    future.set_result(self.explain(text))
                except Exception as exc:  # lowering errors -> the future
                    future.set_exception(exc)
                return future
        submission = _Submission(query, self._shards(num_shards))
        with self._cond:
            if self._closing:
                raise RuntimeError("client is closed; no new submissions")
            self._pending.append(submission)
            self._submitted += 1
            self._ensure_scheduler()
            self._cond.notify_all()
        return submission.future

    @contextlib.contextmanager
    def hold(self):
        """Pin the scheduler: queued submissions drain in one tick on exit.

        Nestable and thread-safe; used for deterministic coalescing::

            with client.hold():
                futures = [client.submit(q) for q in queries]
            # exactly one fused batch runs here
        """
        with self._cond:
            self._holds += 1
        try:
            yield self
        finally:
            with self._cond:
                self._holds -= 1
                self._cond.notify_all()

    def close(self) -> None:
        """Drain outstanding submissions and stop the scheduler thread.

        Idempotent.  Further :meth:`submit` calls raise; ``execute`` /
        ``execute_many`` keep working (they do not use the scheduler).
        """
        with self._cond:
            self._closing = True
            thread = self._scheduler
            self._cond.notify_all()
        if thread is not None:
            thread.join(timeout=60)

    def __enter__(self) -> "PrismClient":
        return self

    def __exit__(self, *exc_info) -> None:
        self.close()

    def _ensure_scheduler(self) -> None:
        # Called under self._cond.
        if self._scheduler is None or not self._scheduler.is_alive():
            self._scheduler = threading.Thread(
                target=self._scheduler_loop,
                name="prism-client-scheduler", daemon=True)
            self._scheduler.start()

    def _scheduler_loop(self) -> None:
        while True:
            with self._cond:
                while True:
                    drainable = bool(self._pending) and (
                        self._holds == 0 or self._closing)
                    if drainable or self._jobs:
                        break
                    if self._closing and not self._pending:
                        # _jobs is empty here (checked just above) and
                        # only this thread appends to it.
                        return
                    # Every predicate input (submit, hold-exit, close)
                    # notifies, so an idle scheduler sleeps — no polling.
                    self._cond.wait()
                if (drainable and self.coalesce_window
                        and not self._closing and not self._jobs):
                    # Wait until as many submissions are queued as the
                    # last tick took (its closed-loop callers are back),
                    # for at most the window.  With jobs in flight the
                    # loop already has work — no waiting.
                    self._cond.wait_for(
                        lambda: (len(self._pending) >= self._last_tick
                                 or self._closing),
                        timeout=self.coalesce_window)
                # A hold() that arrived during the wait pins the queue
                # again; held submissions will drain in one tick, as
                # promised.
                items: list[_Submission] = []
                if drainable and not (self._holds and not self._closing):
                    items, self._pending = self._pending, []
                    self._last_tick = len(items)
            items = [s for s in items
                     if s.future.set_running_or_notify_cancel()]
            if items:
                self._run_tick(items)
            self._step_jobs()
            with self._cond:
                if self._closing and not self._pending and not self._jobs:
                    return

    def _run_tick(self, items: list[_Submission]) -> None:
        """Execute one drain tick.

        Batchable submissions run as fused batches (per option group);
        submissions whose plans carry interactive units become stepped
        jobs on the interactive lane instead, so their multi-round
        execution never blocks the next drain.
        """
        # One drain = one tick, however many option groups (or fallback
        # re-runs) it takes; max_coalesced tracks the largest fused batch.
        self._ticks += 1
        groups: dict[object, list[tuple[_Submission, object]]] = {}
        for submission in items:
            try:
                plan = self.planner.lower(submission.query)
            except Exception as exc:
                submission.future.set_exception(exc)
                continue
            if _plan_is_interactive(plan):
                try:
                    with self._exec_lock:
                        program = self.executor.program(
                            plan, num_shards=submission.num_shards)
                except Exception as exc:
                    submission.future.set_exception(exc)
                    continue
                self._jobs.append(_Job(submission, program))
                self._interactive_jobs += 1
                continue
            groups.setdefault(submission.num_shards, []).append(
                (submission, plan))
        if groups:
            self._max_coalesced = max(
                self._max_coalesced, max(len(m) for m in groups.values()))
        for num_shards, members in groups.items():
            try:
                with self._exec_lock:
                    plans = [plan for _, plan in members]
                    with self._accounted(plans):
                        results = self.executor.execute_many(
                            plans, num_shards=num_shards)
            except Exception:
                # One bad query must not fail its tick-mates: fall back
                # to individual execution so the exception lands only on
                # the future(s) that earned it.
                self._run_individually([m for m, _ in members], num_shards)
                continue
            for (member, _), result in zip(members, results):
                member.future.set_result(result)

    def _step_jobs(self) -> None:
        """Advance every active interactive job by exactly one quantum.

        Runs on the scheduler thread between drain ticks; each quantum
        (the job's fused batchable units, or one protocol round) holds
        the execution lock only for its own duration, so freshly
        submitted batchable queries drain between rounds.
        """
        if not self._jobs:
            return
        remaining: list[_Job] = []
        for job in self._jobs:
            try:
                with self._exec_lock:
                    # Snapshot inside the lock: a concurrent execute()
                    # holds it while recording its own traffic, so an
                    # outside snapshot would double-count those bytes.
                    stats = self.system.transport.stats
                    bytes_before = stats.total_bytes
                    messages_before = stats.total_messages
                    try:
                        job.program.step()
                    finally:
                        self._interactive_rounds += 1
                        self._traffic_bytes += (stats.total_bytes
                                                - bytes_before)
                        self._traffic_messages += (stats.total_messages
                                                   - messages_before)
            except Exception as exc:
                job.submission.future.set_exception(exc)
                continue
            if job.program.done:
                self._finish_job(job)
            else:
                remaining.append(job)
        self._jobs = remaining

    def _finish_job(self, job: _Job) -> None:
        """Resolve a completed job's future and fold in session stats."""
        program = job.program
        try:
            result = program.result()
        except Exception as exc:
            job.submission.future.set_exception(exc)
            return
        self._queries += 1
        for unit in program.plan.units():
            self._by_kind[unit.kind] = self._by_kind.get(unit.kind, 0) + 1
        self._batched_units += program.batched_units
        self._interactive_units += program.interactive_units
        job.submission.future.set_result(result)

    def _run_individually(self, members, num_shards) -> None:
        for member in members:
            try:
                with self._exec_lock:
                    plan = self.planner.lower(member.query)
                    with self._accounted([plan]):
                        result = self.executor.execute(
                            plan, num_shards=num_shards)
            except Exception as exc:
                member.future.set_exception(exc)
            else:
                member.future.set_result(result)

    # -- session accounting ---------------------------------------------------

    def _shards(self, num_shards: int | str | None) -> int | str | None:
        return num_shards if num_shards is not None else self.num_shards

    def _accounted(self, plans):
        return _Accounting(self, plans)

    @property
    def stats(self) -> dict:
        """Per-session counters: queries, unit routing, traffic, cache,
        and the coalescing scheduler (submissions, drain ticks, largest
        fused tick)."""
        cache = getattr(getattr(self.system, "initiator", None),
                        "indicator_cache", None)
        return {
            "queries": self._queries,
            "explains": self._explains,
            "by_kind": dict(self._by_kind),
            "batched_units": self._batched_units,
            "interactive_units": self._interactive_units,
            "fusion": {"fused_rows": self._fused_rows,
                       "rows_deduplicated": self._rows_deduplicated},
            "traffic": {"messages": self._traffic_messages,
                        "bytes": self._traffic_bytes},
            "cache": dict(cache.stats) if cache is not None else {},
            "scheduler": {"submitted": self._submitted,
                          "ticks": self._ticks,
                          "max_coalesced": self._max_coalesced,
                          "interactive_jobs": self._interactive_jobs,
                          "interactive_rounds": self._interactive_rounds},
        }


class _Accounting:
    """Context manager folding one executor call into session stats."""

    def __init__(self, client: PrismClient, plans):
        self.client = client
        self.plans = plans

    def __enter__(self):
        stats = self.client.system.transport.stats
        self._bytes = stats.total_bytes
        self._messages = stats.total_messages
        return self

    def __exit__(self, exc_type, *exc_info):
        client = self.client
        stats = client.system.transport.stats
        client._traffic_bytes += stats.total_bytes - self._bytes
        client._traffic_messages += stats.total_messages - self._messages
        if exc_type is None:
            client._queries += len(self.plans)
            for plan in self.plans:
                for unit in plan.units():
                    client._by_kind[unit.kind] = (
                        client._by_kind.get(unit.kind, 0) + 1)
            dispatch = client.executor.last_dispatch
            client._batched_units += dispatch["batched_units"]
            client._interactive_units += dispatch["interactive_units"]
            client._fused_rows += dispatch.get("fused_rows", 0)
            client._rows_deduplicated += dispatch.get("rows_deduplicated", 0)
        return False
