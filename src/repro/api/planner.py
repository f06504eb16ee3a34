"""Lowering every query form to the :class:`LogicalPlan` IR.

The :class:`Planner` is the single front door: Table-4 SQL strings,
fluent :class:`Q` builders and already-built plans all lower to the same
IR — so one executor, one feature surface, no per-entry-point drift.
Anything else is rejected with :class:`~repro.exceptions.QueryError`.
"""

from __future__ import annotations

from repro.api.builder import Q
from repro.api.plan import LogicalPlan
from repro.api.sql import parse_sql
from repro.exceptions import QueryError


class Planner:
    """Lowers a :class:`LogicalPlan`, :class:`Q` or SQL string."""

    def lower(self, query) -> LogicalPlan:
        """Lower one query: a plan (returned as-is), a builder, or SQL."""
        if isinstance(query, LogicalPlan):
            return query
        if isinstance(query, Q):
            return query.plan()
        if isinstance(query, str):
            return parse_sql(query)
        raise QueryError(
            f"cannot interpret {type(query).__name__} as a Prism query; "
            f"expected a LogicalPlan, a Q builder or a SQL string"
        )

    def lower_many(self, queries) -> list[LogicalPlan]:
        """Lower an iterable of queries, preserving order."""
        return [self.lower(q) for q in queries]
