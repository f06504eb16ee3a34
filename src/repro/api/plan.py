"""The logical query-plan IR — one description for every Prism query.

Every way of expressing a query (the Table-4 SQL dialect, the fluent
builder :class:`~repro.api.builder.Q`, the ``PrismSystem`` methods)
lowers to a single frozen :class:`LogicalPlan`, and a single
:class:`~repro.api.executor.Executor` runs every plan.  The IR is purely
*logical*: it records what is asked (set operation, attribute,
aggregate list, flags), never how it executes — routing is the
executor's dispatch table.

A plan decomposes into execution *units* (:meth:`LogicalPlan.units`):
``SELECT disease, SUM(cost), AVG(age) ...`` is one plan with two units
(a fused-sweep sum and a fused-sweep average over one shared indicator
round), while ``MAX``/``MIN``/``MEDIAN`` aggregates each form an
announcer-interactive unit of their own.
"""

from __future__ import annotations

import dataclasses

from repro.exceptions import QueryError

#: Aggregate functions of the Table-4 surface.
AGG_FUNCTIONS = ("COUNT", "SUM", "AVG", "MAX", "MIN", "MEDIAN")

@dataclasses.dataclass(frozen=True)
class PlanUnit:
    """One executable component of a plan.

    Attributes:
        kind: an executor dispatch key (``psi``, ``psu_count``,
            ``psi_sum``, ``psi_max``, ``bucketized_psi``, ...).
        agg_attributes: the aggregation attributes this unit computes
            (empty for set/count units).
    """

    kind: str
    agg_attributes: tuple = ()


@dataclasses.dataclass(frozen=True)
class LogicalPlan:
    """A fully-validated logical Prism query.

    Attributes:
        set_op: ``"psi"`` or ``"psu"``.
        attribute: the set-operation attribute ``A_c`` (or tuple for
            multi-attribute PSI, §6.6).
        aggregates: ``(function, attribute)`` pairs, in request order.
            ``COUNT`` is normalised to ``("COUNT", None)`` — it always
            counts the set attribute.  Empty for plain set queries.
        verify: request result verification.  Carried for *every* kind
            that supports it (PSI/PSU, counts, SUM/AVG, MAX/MIN);
            kinds with no verification stream (PSU-Count, MEDIAN)
            reject the flag at validation instead of dropping it.
        reveal_holders: run the §6.3 identity round for MAX/MIN.
        bucketized: route a plain PSI through the §6.6 bucket tree
            (requires ``PrismSystem.outsource_bucketized``).
        owner_ids: restrict the query to a subset of owners.
        querier: the owner that finalises the result.
        tables: branch table names from the SQL form — informational
            only (owner order is positional) and excluded from plan
            equality, so the SQL and builder forms of one query compare
            equal.
    """

    set_op: str
    attribute: str | tuple
    aggregates: tuple = ()
    verify: bool = False
    reveal_holders: bool = True
    bucketized: bool = False
    owner_ids: tuple | None = None
    querier: int = 0
    tables: tuple = dataclasses.field(default=(), compare=False)

    def __post_init__(self):
        if self.set_op not in ("psi", "psu"):
            raise QueryError(
                f"unknown set operation {self.set_op!r}; expected 'psi' "
                f"or 'psu'"
            )
        if isinstance(self.attribute, list):
            object.__setattr__(self, "attribute", tuple(self.attribute))
        object.__setattr__(self, "aggregates",
                           self._normalize_aggregates(self.aggregates))
        if self.owner_ids is not None:
            object.__setattr__(self, "owner_ids", tuple(self.owner_ids))
        object.__setattr__(self, "tables", tuple(self.tables))
        self._validate()

    def _normalize_aggregates(self, aggregates) -> tuple:
        if isinstance(aggregates, tuple) and len(aggregates) == 2 and \
                isinstance(aggregates[0], str) and \
                aggregates[0].upper() in AGG_FUNCTIONS:
            aggregates = (aggregates,)  # a single bare (fn, attr) pair
        normalized = []
        for item in aggregates:
            fn, attr = item
            fn = fn.upper()
            if fn not in AGG_FUNCTIONS:
                raise QueryError(
                    f"unsupported aggregate function {fn!r}; expected one "
                    f"of {', '.join(AGG_FUNCTIONS)}"
                )
            if fn == "COUNT":
                if attr is not None and attr != self.attribute:
                    raise QueryError(
                        f"COUNT counts the set attribute; got "
                        f"COUNT({attr}) over {self.attribute!r}"
                    )
                attr = None
            elif attr is None:
                raise QueryError(f"{fn} needs an aggregation attribute")
            if (fn, attr) not in normalized:
                normalized.append((fn, attr))
        return tuple(normalized)

    def _validate(self) -> None:
        # Extrema/median over PSU is *not* rejected here: the executor's
        # dispatch table has no route for ``psu_max``-style units.
        for fn, attr in self.aggregates:
            if fn == "MEDIAN" and self.verify:
                raise QueryError("MEDIAN has no verification stream")
            if fn == "COUNT" and self.set_op == "psu" and self.verify:
                raise QueryError("PSU-Count has no verification stream")
        if self.bucketized:
            if self.aggregates:
                raise QueryError("bucketized execution is PSI-only; it "
                                 "cannot carry aggregates")
            if self.set_op != "psi":
                raise QueryError("bucketized execution is PSI-only")
            if self.verify:
                raise QueryError("bucketized PSI has no verification stream")

    # -- decomposition --------------------------------------------------------

    def units(self) -> tuple[PlanUnit, ...]:
        """The plan's execution units, batchable sweeps first.

        SUM aggregates fuse into one multi-attribute unit (Table 12) and
        AVG aggregates into another; COUNT and each MAX/MIN/MEDIAN
        aggregate are units of their own.
        """
        if self.bucketized:
            return (PlanUnit("bucketized_psi"),)
        if not self.aggregates:
            return (PlanUnit(self.set_op),)
        sums: list[str] = []
        avgs: list[str] = []
        counts: list[PlanUnit] = []
        interactive: list[PlanUnit] = []
        for fn, attr in self.aggregates:
            if fn == "COUNT":
                counts.append(PlanUnit(f"{self.set_op}_count"))
            elif fn == "SUM":
                sums.append(attr)
            elif fn == "AVG":
                avgs.append(attr)
            else:
                interactive.append(
                    PlanUnit(f"{self.set_op}_{fn.lower()}", (attr,)))
        units: list[PlanUnit] = []
        if sums:
            units.append(PlanUnit(f"{self.set_op}_sum", tuple(sums)))
        if avgs:
            units.append(PlanUnit(f"{self.set_op}_average", tuple(avgs)))
        units.extend(counts)
        units.extend(interactive)
        return tuple(units)

    @property
    def kinds(self) -> tuple[str, ...]:
        """Dispatch keys of the plan's units, in execution order."""
        return tuple(unit.kind for unit in self.units())

    @property
    def kind(self) -> str:
        """A single label for stats/EXPLAIN (``"multi"`` for mixed plans)."""
        kinds = self.kinds
        return kinds[0] if len(kinds) == 1 else "multi"

    # -- presentation ---------------------------------------------------------

    @property
    def attribute_label(self) -> str:
        return (self.attribute if isinstance(self.attribute, str)
                else "*".join(self.attribute))

    def result_key(self, fn: str, attr: str | None) -> str:
        """Key of one aggregate in a multi-aggregate result dict."""
        return f"{fn}({attr if attr is not None else self.attribute_label})"

    def describe(self) -> str:
        """One-line human-readable plan (the EXPLAIN text)."""
        op = {"psi": "PSI", "psu": "PSU"}[self.set_op]
        if self.bucketized:
            op = f"Bucketized {op}"
        parts = []
        for fn, attr in self.aggregates:
            if fn == "COUNT":
                parts.append("Count")
            else:
                parts.append(f"{fn.title()}({attr})")
        core = op if not parts else f"{op} {', '.join(parts)}"
        if self.owner_ids is not None:
            owners = f"{len(self.owner_ids)} owners"
        elif self.tables:
            owners = f"{len(self.tables)} owners"
        else:
            owners = "all owners"
        suffix = " with verification" if self.verify else ""
        return f"{core} on {self.attribute_label!r} across {owners}{suffix}"
