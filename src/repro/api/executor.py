"""One executor for every logical plan.

Every :class:`~repro.api.plan.LogicalPlan` — however it was expressed —
runs through a single dispatch table:

* **Batchable units** (``psi``, ``psu``, counts, SUM/AVG) are lowered to
  :class:`~repro.core.batch.BatchQuery` rows and executed through
  :class:`~repro.core.batch.QueryBatch` — *single queries run as a batch
  of one*, so the fused 2-D server kernels and the indicator-share cache
  serve all traffic, not just explicit batches.
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

from repro.api.plan import LogicalPlan, PlanUnit
from repro.api.planner import Planner
from repro.core.batch import KINDS as BATCHABLE_KINDS
from repro.core.batch import BatchQuery, QueryBatch
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
        return self._run([plan], runner_options, num_shards)[0]

    def execute_many(self, queries,
                     num_shards: int | str | None = None) -> list:
        """Run many queries; batchable units fuse into one QueryBatch."""
        plans = self.planner.lower_many(queries)
        return self._run(plans, {}, num_shards)

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
        return QueryProgram(self, plan, num_shards=num_shards,
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
        routes = ", ".join(
            f"{unit.kind}→"
            f"{'fused batch kernel' if self._route(unit) is BATCHED else 'interactive runner'}"
            for unit in plan.units()
        )
        text = f"{plan.describe()} [{routes}]"
        stats = self.plan_stats([plan])
        if stats is not None:
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

    def plan_stats(self, plans) -> dict | None:
        """:meth:`QueryBatch.plan` summary for the batchable units of
        ``plans`` (lowered), or ``None`` when nothing is batchable.
        Purely a planning pass — no servers are touched."""
        specs = [
            self._to_batch_query(plan, unit)
            for plan in plans
            for unit in plan.units()
            if self._route(unit) is BATCHED
        ]
        if not specs:
            return None
        return QueryBatch(self.system, specs).plan()

    @staticmethod
    def _route(unit: PlanUnit):
        route = DISPATCH.get(unit.kind)
        if route is None:
            hint = (" (MAX/MIN/MEDIAN are only supported over PSI)"
                    if unit.kind.startswith("psu_") else "")
            raise QueryError(f"no dispatch route for {unit.kind!r}{hint}")
        return route

    @classmethod
    def _unit_routes(cls, plan: LogicalPlan) -> list[tuple[PlanUnit, object]]:
        """``(unit, route)`` pairs with the shared per-plan validation.

        The one place unit routing and its preconditions live: both the
        one-shot ``_run`` path and the steppable :class:`QueryProgram`
        consume this, so they can never disagree on what a plan's units
        need.
        """
        entries = []
        for unit in plan.units():
            route = cls._route(unit)
            if route is not BATCHED and plan.owner_ids is not None:
                raise QueryError(
                    f"{unit.kind} does not support owner subsets")
            entries.append((unit, route))
        return entries

    # -- execution ------------------------------------------------------------

    def _run(self, plans: list[LogicalPlan], runner_options, num_shards):
        num_shards = resolve_shards(num_shards, self.system.domain.size)
        batch_specs: list[BatchQuery] = []
        layouts: list[list[tuple[PlanUnit, int | None]]] = []
        interactive_total = 0
        for plan in plans:
            entries: list[tuple[PlanUnit, int | None]] = []
            for unit, route in self._unit_routes(plan):
                if route is BATCHED:
                    batch_specs.append(self._to_batch_query(plan, unit))
                    entries.append((unit, len(batch_specs) - 1))
                else:
                    interactive_total += 1
                    entries.append((unit, None))
            layouts.append(entries)
        if runner_options and interactive_total == 0:
            raise QueryError(
                f"unsupported options {sorted(runner_options)} — the plan "
                f"has no interactive units to forward them to"
            )
        batch_results: list = []
        fusion = {"fused_rows": 0, "rows_deduplicated": 0}
        if batch_specs:
            batch = QueryBatch(self.system, batch_specs,
                               num_shards=num_shards)
            batch_results = batch.execute()
            plan_stats = batch.stats.get("plan", {})
            fusion = {
                "fused_rows": plan_stats.get("fused_rows", 0),
                "rows_deduplicated": plan_stats.get("rows_deduplicated", 0),
            }
        self.last_dispatch = {"batched_units": len(batch_specs),
                              "interactive_units": interactive_total,
                              **fusion}
        results = []
        for plan, entries in zip(plans, layouts):
            unit_results = []
            for unit, batch_index in entries:
                if batch_index is not None:
                    unit_results.append(batch_results[batch_index])
                else:
                    # The executor owns the round loop: the interactive
                    # kernels are state machines, not self-driving
                    # functions (the client scheduler interleaves these
                    # same rounds with fused batch ticks).
                    program = DISPATCH[unit.kind](
                        self.system, plan, unit, num_shards, runner_options)
                    while not program.done:
                        program.step()
                    unit_results.append(program.result())
            results.append(self._shape(plan, entries, unit_results))
        return results

    @staticmethod
    def _to_batch_query(plan: LogicalPlan, unit: PlanUnit) -> BatchQuery:
        return BatchQuery(kind=unit.kind, attribute=plan.attribute,
                          agg_attributes=unit.agg_attributes,
                          verify=plan.verify, owner_ids=plan.owner_ids,
                          querier=plan.querier)

    # -- result shaping -------------------------------------------------------

    def _shape(self, plan: LogicalPlan, entries, unit_results):
        if not plan.aggregates:
            return unit_results[0]
        by_aggregate: dict[tuple, object] = {}
        for (unit, _), result in zip(entries, unit_results):
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


class QueryProgram:
    """One lowered plan as a steppable execution.

    The plan's batchable units execute together (as one
    :class:`QueryBatch`) in the first step; each subsequent step
    advances exactly one round of one interactive unit.  The round
    state lives on the plan's
    :class:`~repro.core.interactive.InteractiveProgram` objects, so a
    driver — the client scheduler — can interleave the rounds of many
    in-flight programs with fused batch ticks.

    Drivers call :meth:`step` until :attr:`done`, then :meth:`result`
    for the plan's canonical-shape result.  Validation (owner subsets,
    stray runner options, unknown routes) happens at construction, so a
    malformed submission fails before any server is touched.
    """

    def __init__(self, executor: Executor, plan: LogicalPlan,
                 num_shards: int | str | None = None,
                 runner_options: dict | None = None):
        self.executor = executor
        self.plan = plan
        self.num_shards = resolve_shards(num_shards,
                                         executor.system.domain.size)
        options = dict(runner_options or {})
        self._entries: list[tuple[PlanUnit, int | None]] = []
        self._batch_specs: list[BatchQuery] = []
        self._batch_results: list | None = None
        self._programs = []
        for unit, route in executor._unit_routes(plan):
            if route is BATCHED:
                self._batch_specs.append(executor._to_batch_query(plan, unit))
                self._entries.append((unit, len(self._batch_specs) - 1))
            else:
                self._programs.append(route(
                    executor.system, plan, unit, num_shards, options))
                self._entries.append((unit, None))
        if options and not self._programs:
            raise QueryError(
                f"unsupported options {sorted(options)} — the plan has no "
                f"interactive units to forward them to"
            )

    @property
    def batched_units(self) -> int:
        return len(self._batch_specs)

    @property
    def interactive_units(self) -> int:
        return len(self._programs)

    @property
    def rounds_completed(self) -> int:
        """Interactive rounds executed so far, across all units."""
        return sum(program.rounds_completed for program in self._programs)

    @property
    def done(self) -> bool:
        batch_done = self._batch_results is not None or not self._batch_specs
        return batch_done and all(p.done for p in self._programs)

    def step(self) -> None:
        """Advance one quantum: the fused batch, or one interactive round."""
        if self._batch_specs and self._batch_results is None:
            self._batch_results = QueryBatch(
                self.executor.system, self._batch_specs,
                num_shards=self.num_shards).execute()
            return
        for program in self._programs:
            if not program.done:
                program.step()
                return
        raise ProtocolError("query program already finished")

    def result(self):
        """The plan's canonical-shape result (only once :attr:`done`)."""
        if not self.done:
            raise ProtocolError("query program still has rounds to run")
        unit_results = []
        interactive = iter(self._programs)
        for unit, batch_index in self._entries:
            if batch_index is not None:
                unit_results.append(self._batch_results[batch_index])
            else:
                unit_results.append(next(interactive).result())
        return self.executor._shape(self.plan, self._entries, unit_results)
