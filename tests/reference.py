"""Shared test helpers: batch units, the plaintext oracle, fingerprints.

The batch engine consumes ``(LogicalPlan, PlanUnit)`` pairs;
:func:`batch_units` lowers SQL / ``Q`` / plans into them.  Two checks
need no second protocol: :func:`assert_matches_plaintext` compares a
unit's result with the true answer computed in the clear, and
:func:`run_alone` runs one unit as a batch of one — what a fused batch
must equal unit by unit.  :func:`canonical` is a comparable fingerprint
of any result shape.
"""

from __future__ import annotations

from repro import Planner
from repro.core.aggregate import aggregate_reference
from repro.core.batch import QueryBatch
from repro.core.psi import psi_reference
from repro.core.psu import psu_reference
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


def run_alone(system, plan, unit):
    """One unit run as a batch of one; the per-unit result shape."""
    return QueryBatch(system, [(plan, unit)]).execute()[0]


def plaintext(relations, plan, unit):
    """The true result of one batchable unit, computed in the clear.

    Set kinds give the value set, counts its size, aggregations an
    attribute-keyed dict of per-value totals (or averages).
    """
    if plan.owner_ids is not None:
        relations = [relations[i] for i in plan.owner_ids]
    over, _, op = unit.kind.partition("_")
    reference = psi_reference if over == "psi" else psu_reference
    values = reference(relations, plan.attribute)
    if not op:
        return values
    if op == "count":
        return len(values)
    return {agg: aggregate_reference(relations, plan.attribute, agg, values,
                                     op="avg" if op == "average" else "sum")
            for agg in unit.agg_attributes}


def assert_matches_plaintext(result, relations, plan, unit):
    """A unit's result (per-unit shape) equals the plaintext answer."""
    expected = plaintext(relations, plan, unit)
    if unit.kind in ("psi", "psu"):
        assert set(result.values) == expected
        assert result.verified == plan.verify
    elif unit.kind.endswith("count"):
        assert result.count == expected
    else:
        assert set(result) == set(expected)
        for agg, per_value in expected.items():
            assert result[agg].per_value == per_value, agg
            assert result[agg].verified == plan.verify


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
