"""One executor for every logical plan.

Every :class:`~repro.api.plan.LogicalPlan` — whether it came from SQL, a
:class:`~repro.api.builder.Q` builder or a ``PrismSystem`` method — runs
through a single dispatch table:

* **Batchable units** (``psi``, ``psu``, counts, SUM/AVG) are handed to
  :class:`~repro.core.batch.QueryBatch` as ``(plan, unit)`` pairs —
  *single queries run as a batch of one*, so the fused 2-D server
  kernels and the indicator-share cache serve all traffic, not just
  explicit batches.
* **Interactive units** (MAX/MIN/MEDIAN, bucketized PSI) cannot be
  expressed as data-independent fused sweeps; the same dispatch table
  routes them to their announcer-interactive runners.

``execute_many`` fuses the batchable units of *all* submitted plans into
one :class:`QueryBatch`, so heterogeneous multi-query traffic gets the
full sweep-fusion and row-deduplication treatment.

Result shapes (the canonical API surface):

* no aggregates → :class:`SetResult` (bucketized: ``(SetResult, stats)``)
* one aggregate → its result object (:class:`CountResult`,
  :class:`AggregateResult`, :class:`ExtremaResult`, :class:`MedianResult`)
* several aggregates → an ordered dict keyed ``"SUM(cost)"``-style.
"""

from __future__ import annotations

import numbers

from repro.api.plan import LogicalPlan, PlanUnit
from repro.api.planner import Planner
from repro.core.batch import KINDS as BATCHABLE_KINDS
from repro.core.batch import QueryBatch
from repro.core.interactive import (
    BucketizedPsiProgram,
    ExtremaProgram,
    MedianProgram,
)
from repro.core.sharding import resolve_shards
from repro.exceptions import ProtocolError, QueryError

#: Unit kind → AGG function it computes (inverse of the plan lowering).
_UNIT_FN = {
    "psi_sum": "SUM", "psu_sum": "SUM",
    "psi_average": "AVG", "psu_average": "AVG",
    "psi_count": "COUNT", "psu_count": "COUNT",
    "psi_max": "MAX", "psi_min": "MIN", "psi_median": "MEDIAN",
}

#: Marker for units executed through the fused batch engine.
BATCHED = "batched"


def _extrema_program(kind):
    def factory(system, plan, unit, num_shards, options):
        return ExtremaProgram(system, plan.attribute, unit.agg_attributes[0],
                              kind=kind, reveal_holders=plan.reveal_holders,
                              verify=plan.verify, querier=plan.querier,
                              num_shards=num_shards, **options)
    return factory


def _median_program(system, plan, unit, num_shards, options):
    return MedianProgram(system, plan.attribute, unit.agg_attributes[0],
                         verify=plan.verify, querier=plan.querier,
                         num_shards=num_shards, **options)


def _bucketized_program(system, plan, unit, num_shards, options):
    return BucketizedPsiProgram(system, plan.attribute,
                                system.bucket_tree(plan.attribute),
                                querier=plan.querier, num_shards=num_shards,
                                **options)


#: The single dispatch table: every unit kind, one execution route —
#: the fused batch engine, or an interactive-program factory whose
#: round loop the executor drives.
DISPATCH = {kind: BATCHED for kind in BATCHABLE_KINDS}
DISPATCH.update({
    "psi_max": _extrema_program("max"),
    "psi_min": _extrema_program("min"),
    "psi_median": _median_program,
    "bucketized_psi": _bucketized_program,
})


class Executor:
    """Runs logical plans against one :class:`PrismSystem`.

    Args:
        system: the deployment to execute against.
        planner: the lowering front door (default: a fresh
            :class:`Planner`); injected so clients can share one.
    """

    def __init__(self, system, planner: Planner | None = None):
        self.system = system
        self.planner = planner or Planner()
        #: Routing counters of the most recent run (for session stats).
        self.last_dispatch = {"batched_units": 0, "interactive_units": 0,
                              "fused_rows": 0, "rows_deduplicated": 0}

    # -- public surface -------------------------------------------------------

    def execute(self, query, num_shards: int | str | None = None,
                **runner_options):
        """Lower and run one query; returns its canonical-shape result.

        ``num_shards`` overrides the deployment's span count for this
        call — for the batchable units' fused sweeps *and* for the
        interactive units' per-round sweeps (the PSI round of
        MAX/MIN/MEDIAN, every bucketized level); ``"auto"`` resolves it
        from the χ length and core count.  The executor is
        deployment-agnostic: when the system's servers are
        :class:`~repro.entities.remote.RemoteServer` proxies, the same
        dispatch runs over subprocess or TCP channels unchanged.
        ``runner_options`` are forwarded to interactive programs only
        (e.g. ``common_values=`` for extrema, ``announcer_driven=`` for
        bucketized PSI); a fully-batchable plan rejects them.
        """
        plan = self.planner.lower(query)
        return self._run([plan], num_shards, runner_options)[0]

    def execute_many(self, queries,
                     num_shards: int | str | None = None) -> list:
        """Run many queries; batchable units fuse into one QueryBatch."""
        plans = self.planner.lower_many(queries)
        return self._run(plans, num_shards, {})

    def program(self, query, num_shards: int | str | None = None,
                **runner_options) -> "QueryProgram":
        """Lower one query into a steppable :class:`QueryProgram`.

        The scheduler surface behind :meth:`PrismClient.submit` for
        plans with interactive units: the caller drives
        :meth:`QueryProgram.step` — one batchable-unit batch, then one
        interactive round per step — so long multi-round queries can be
        interleaved with other work instead of monopolising the
        executor.  ``execute``/``execute_many`` remain the one-shot
        drivers over the same machinery.
        """
        plan = self.planner.lower(query)
        return QueryProgram(self, [plan], num_shards=num_shards,
                            runner_options=runner_options)

    def explain(self, query) -> str:
        """The plan's ``describe()``, dispatch routes, and batch-plan stats.

        The batch-plan suffix comes from :meth:`QueryBatch.plan` without
        executing anything: how many kernel rows the batchable units
        request, how many survive fusion, how many the row-dedup removes,
        and how many fused server sweeps will run — so plan-level savings
        are visible before committing to the query.
        """
        plan = self.planner.lower(query)
        routes = self._unit_routes(plan)
        text = plan.describe() + " [" + ", ".join(
            f"{unit.kind}→"
            f"{'fused batch kernel' if route is BATCHED else 'interactive runner'}"
            for unit, route in routes
        ) + "]"
        batched = [(plan, unit) for unit, route in routes
                   if route is BATCHED]
        if batched:
            stats = QueryBatch(self.system, batched).plan()
            # Aggregate plans additionally run Eq. 11 sweeps, whose row
            # count depends on cache state at execution time; the
            # pre-execution number is the indicator-sweep count.
            text += (
                f" [batch plan: {stats['fused_rows']} fused rows for "
                f"{stats['rows_requested']} requested, "
                f"{stats['rows_deduplicated']} rows_deduplicated, "
                f"{stats['indicator_sweeps_planned']} fused indicator sweeps]"
            )
        return text

    # -- routing and execution ------------------------------------------------

    def _unit_routes(self, plan: LogicalPlan) -> list[tuple[PlanUnit, object]]:
        """``(unit, route)`` pairs with the shared per-plan validation.

        The one place unit routing and its preconditions live — EXPLAIN,
        the one-shot drivers and the steppable :class:`QueryProgram` all
        go through here, so a plan naming an owner the deployment does
        not have fails before any nonce is drawn or message sent.
        """
        owners = len(self.system.owners)
        if not _is_owner(plan.querier, owners):
            raise QueryError(f"querier {plan.querier!r} is not an owner "
                             f"index in [0, {owners})")
        if plan.owner_ids is not None and not (
                plan.owner_ids
                and all(_is_owner(i, owners) for i in plan.owner_ids)):
            raise QueryError(f"owner_ids {plan.owner_ids!r} must be a "
                             f"non-empty set of owner indices in "
                             f"[0, {owners})")
        entries = []
        for unit in plan.units():
            route = DISPATCH.get(unit.kind)
            if route is None:
                hint = (" (MAX/MIN/MEDIAN are only supported over PSI)"
                        if unit.kind.startswith("psu_") else "")
                raise QueryError(
                    f"no dispatch route for {unit.kind!r}{hint}")
            if route is not BATCHED and plan.owner_ids is not None:
                raise QueryError(
                    f"{unit.kind} does not support owner subsets")
            entries.append((unit, route))
        return entries

    def _run(self, plans: list[LogicalPlan], num_shards, runner_options):
        """Drive one :class:`QueryProgram` over ``plans`` to completion."""
        program = QueryProgram(self, plans, num_shards=num_shards,
                               runner_options=runner_options)
        while not program.done:
            program.step()
        self.last_dispatch = program.dispatch_stats()
        return program.results()


def _shape(plan: LogicalPlan, unit_results):
    """One plan's canonical-shape result from ``(unit, result)`` pairs."""
    if not plan.aggregates:
        return unit_results[0][1]
    by_aggregate: dict[tuple, object] = {}
    for unit, result in unit_results:
        fn = _UNIT_FN[unit.kind]
        if fn == "COUNT":
            by_aggregate[("COUNT", None)] = result
        elif fn in ("SUM", "AVG"):
            for attr in unit.agg_attributes:
                by_aggregate[(fn, attr)] = result[attr]
        else:
            by_aggregate[(fn, unit.agg_attributes[0])] = result
    if len(plan.aggregates) == 1:
        return by_aggregate[plan.aggregates[0]]
    return {plan.result_key(fn, attr): by_aggregate[(fn, attr)]
            for fn, attr in plan.aggregates}


def _is_owner(value, owners: int) -> bool:
    return isinstance(value, numbers.Integral) and 0 <= value < owners


class QueryProgram:
    """Lowered plans as one steppable execution.

    The batchable units of every plan execute together (as one
    :class:`QueryBatch`) in the first step; each subsequent step
    advances exactly one round of one interactive unit.  The round
    state lives on the plans'
    :class:`~repro.core.interactive.InteractiveProgram` objects, so a
    driver — the client scheduler — can interleave the rounds of many
    in-flight programs with fused batch ticks.

    Drivers call :meth:`step` until :attr:`done`, then :meth:`results`
    (one canonical-shape result per plan) or, for the single-plan
    programs :meth:`Executor.program` builds, :meth:`result`.
    Validation (owner indices and subsets, stray runner options,
    unknown routes) happens at construction, so a malformed submission
    fails before any server is touched.
    """

    def __init__(self, executor: Executor, plans: list[LogicalPlan],
                 num_shards: int | str | None = None,
                 runner_options: dict | None = None):
        self.executor = executor
        self.plans = list(plans)
        num_shards = resolve_shards(num_shards, executor.system.domain.size)
        options = dict(runner_options or {})
        # Per plan: (unit, slot) pairs, where the slot is an index into
        # the batch's units or the interactive program computing the unit.
        self._layouts: list[list[tuple[PlanUnit, object]]] = []
        batched: list[tuple[LogicalPlan, PlanUnit]] = []
        self._programs = []
        for plan in self.plans:
            layout = []
            for unit, route in executor._unit_routes(plan):
                if route is BATCHED:
                    layout.append((unit, len(batched)))
                    batched.append((plan, unit))
                else:
                    program = route(executor.system, plan, unit, num_shards,
                                    options)
                    layout.append((unit, program))
                    self._programs.append(program)
            self._layouts.append(layout)
        if options and not self._programs:
            raise QueryError(
                f"unsupported options {sorted(options)} — the plan has no "
                f"interactive units to forward them to"
            )
        self._batch = (QueryBatch(executor.system, batched,
                                  num_shards=num_shards)
                       if batched else None)
        self._batch_results: list | None = None

    @property
    def plan(self) -> LogicalPlan:
        """The plan of a single-plan program."""
        (plan,) = self.plans
        return plan

    @property
    def batched_units(self) -> int:
        return len(self._batch.units) if self._batch is not None else 0

    @property
    def interactive_units(self) -> int:
        return len(self._programs)

    @property
    def done(self) -> bool:
        batch_done = self._batch is None or self._batch_results is not None
        return batch_done and all(p.done for p in self._programs)

    def step(self) -> None:
        """Advance one quantum: the fused batch, or one interactive round."""
        if self._batch is not None and self._batch_results is None:
            self._batch_results = self._batch.execute()
            return
        for program in self._programs:
            if not program.done:
                program.step()
                return
        raise ProtocolError("query program already finished")

    def dispatch_stats(self) -> dict:
        """Unit routing and fusion counters (``Executor.last_dispatch``)."""
        plan_stats = (self._batch.stats.get("plan", {})
                      if self._batch is not None else {})
        return {"batched_units": self.batched_units,
                "interactive_units": self.interactive_units,
                "fused_rows": plan_stats.get("fused_rows", 0),
                "rows_deduplicated": plan_stats.get("rows_deduplicated", 0)}

    def results(self) -> list:
        """One canonical-shape result per plan (only once :attr:`done`)."""
        if not self.done:
            raise ProtocolError("query program still has rounds to run")
        return [
            _shape(plan, [(unit, self._batch_results[slot]
                           if isinstance(slot, int) else slot.result())
                          for unit, slot in layout])
            for plan, layout in zip(self.plans, self._layouts)
        ]

    def result(self):
        """The result of a single-plan program (only once :attr:`done`)."""
        (result,) = self.results()
        return result
