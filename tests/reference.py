"""Shared test helpers: batch units of lowered queries, the 1-D oracle.

The batch engine consumes ``(LogicalPlan, PlanUnit)`` pairs;
:func:`batch_units` lowers SQL / ``Q`` / plans into them.
:func:`run_reference` runs one such unit through the sequential 1-D
runners — the oracle the fused batch must match bit for bit.
:func:`canonical` is a comparable fingerprint of any result shape.
"""

from __future__ import annotations

from repro import Planner
from repro.core.aggregate import run_aggregate
from repro.core.count import run_psi_count, run_psu_count
from repro.core.psi import run_psi
from repro.core.psu import run_psu
from repro.core.results import (
    AggregateResult,
    CountResult,
    ExtremaResult,
    MedianResult,
    SetResult,
)


def batch_units(queries) -> list:
    """The ``(plan, unit)`` pairs of ``queries``, in submission order."""
    return [(plan, unit) for plan in Planner().lower_many(queries)
            for unit in plan.units()]


def run_reference(system, plan, unit):
    """Execute one batchable unit through the sequential 1-D runners.

    Calls the runners directly — NOT the ``PrismSystem`` methods, which
    run through the batch engine themselves (going through them would
    compare the engine against itself).  Returns the batch engine's
    per-unit shape (aggregations: an attribute-keyed dict).
    """
    kwargs = {"querier": plan.querier,
              "owner_ids": list(plan.owner_ids)
              if plan.owner_ids is not None else None}
    if unit.kind == "psi":
        return run_psi(system, plan.attribute, verify=plan.verify, **kwargs)
    if unit.kind == "psu":
        return run_psu(system, plan.attribute, verify=plan.verify, **kwargs)
    if unit.kind == "psi_count":
        return run_psi_count(system, plan.attribute, verify=plan.verify,
                             **kwargs)
    if unit.kind == "psu_count":
        return run_psu_count(system, plan.attribute, **kwargs)
    over, op = unit.kind.split("_")
    return run_aggregate(system, plan.attribute, list(unit.agg_attributes),
                         op="avg" if op == "average" else "sum", over=over,
                         verify=plan.verify, **kwargs)


def canonical(result):
    """A comparable, bit-exact fingerprint of any result object."""
    if isinstance(result, dict):
        return ("dict", sorted((key, canonical(value))
                               for key, value in result.items()))
    if isinstance(result, SetResult):
        return ("set", tuple(result.values), result.membership.tolist(),
                result.verified)
    if isinstance(result, CountResult):
        return ("count", result.count)
    if isinstance(result, AggregateResult):
        return ("agg", sorted(result.per_value.items()), result.verified)
    if isinstance(result, ExtremaResult):
        return ("extrema", sorted(result.per_value.items()),
                sorted((k, tuple(v)) for k, v in result.holders.items()))
    if isinstance(result, MedianResult):
        return ("median", sorted(result.per_value.items()))
    raise AssertionError(f"unexpected result type {type(result).__name__}")
