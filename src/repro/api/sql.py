"""The Table-4 SQL dialect, lowered to :class:`LogicalPlan`.

The paper expresses its operations as multi-branch ``INTERSECT``/``UNION``
statements (Table 4).  This parser accepts a compact, equivalent dialect:

* ``SELECT disease FROM h1 INTERSECT SELECT disease FROM h2 ...`` → PSI
* ``SELECT disease FROM h1 UNION SELECT disease FROM h2 ...`` → PSU
* ``SELECT COUNT(disease) FROM h1 INTERSECT ...`` → PSI-Count
* ``SELECT disease, SUM(cost) FROM h1 INTERSECT ...`` → PSI-Sum
* ``SELECT disease, SUM(cost), AVG(age) FROM h1 INTERSECT ...`` —
  multiple aggregates in one projection (Table 12)
* ``SELECT disease, MAX(age) FROM h1 INTERSECT ...`` → PSI-Max

All branches must project the same expression — Prism's set operations
are defined over a common attribute (§2).  Append ``VERIFY`` to request
result verification; prefix ``EXPLAIN`` (handled by
:func:`split_explain` at the client layer) to get the plan's
``describe()`` instead of executing.
"""

from __future__ import annotations

import re

from repro.api.plan import AGG_FUNCTIONS, LogicalPlan
from repro.exceptions import QueryError

_BRANCH_RE = re.compile(
    r"^\s*SELECT\s+(?P<projection>.+?)\s+FROM\s+(?P<table>\w+)\s*$",
    re.IGNORECASE,
)
_AGG_RE = re.compile(
    r"^(?P<fn>" + "|".join(AGG_FUNCTIONS) + r")\s*\(\s*(?P<attr>\w+)\s*\)$",
    re.IGNORECASE,
)
_EXPLAIN_RE = re.compile(r"^\s*EXPLAIN\b\s*", re.IGNORECASE)
_SPLITTER_RE = re.compile(r"\s+INTERSECT\s+|\s+UNION\s+", re.IGNORECASE)


def split_explain(sql: str) -> tuple[bool, str]:
    """Strip an ``EXPLAIN`` prefix; returns ``(was_explain, rest)``."""
    match = _EXPLAIN_RE.match(sql)
    if match:
        return True, sql[match.end():]
    return False, sql


def parse_sql(sql: str) -> LogicalPlan:
    """Parse a Table-4-style statement into a :class:`LogicalPlan`.

    Raises:
        QueryError: on malformed input, mixed set operators, inconsistent
            projections across branches, unsupported aggregates, or an
            ``EXPLAIN`` prefix (a client-level directive — strip it with
            :func:`split_explain` first).
    """
    if _EXPLAIN_RE.match(sql):
        raise QueryError(
            "EXPLAIN is a client-level prefix; strip it with "
            "split_explain() (or submit via PrismClient.execute, which "
            "handles it)"
        )
    text = " ".join(sql.strip().rstrip(";").split())
    verify = False
    if text.upper().endswith(" VERIFY"):
        verify = True
        text = text[: -len(" VERIFY")]

    upper = text.upper()
    has_intersect = " INTERSECT " in f" {upper} "
    has_union = " UNION " in f" {upper} "
    if has_intersect and has_union:
        raise QueryError("cannot mix INTERSECT and UNION in one query")
    if not has_intersect and not has_union:
        raise QueryError(
            "Prism queries are multi-owner set operations: expected at "
            "least one INTERSECT or UNION branch"
        )
    set_op = "psi" if has_intersect else "psu"
    branches = _SPLITTER_RE.split(text)
    if len(branches) < 2:
        raise QueryError("need at least two branches")

    parsed = [_parse_branch(b) for b in branches]
    first_projection = parsed[0][0]
    for projection, _ in parsed[1:]:
        if projection.upper() != first_projection.upper():
            raise QueryError(
                f"all branches must project the same expression; got "
                f"{first_projection!r} vs {projection!r}"
            )
    attribute, aggregates = _interpret_projection(first_projection)
    tables = tuple(table for _, table in parsed)
    return LogicalPlan(set_op=set_op, attribute=attribute,
                       aggregates=aggregates, tables=tables, verify=verify)


def _parse_branch(branch: str) -> tuple[str, str]:
    match = _BRANCH_RE.match(branch)
    if not match:
        raise QueryError(f"malformed branch: {branch!r}")
    projection = "".join(match.group("projection").split())
    return projection, match.group("table")


def _interpret_projection(projection: str) -> tuple[str, tuple]:
    """Split ``"disease,SUM(cost),AVG(age)"`` into attribute + aggregates."""
    parts = projection.split(",")
    if len(parts) == 1:
        agg = _AGG_RE.match(parts[0])
        if agg is None:
            return parts[0], ()
        if agg.group("fn").upper() != "COUNT":
            raise QueryError(
                f"{agg.group('fn').upper()} needs a set attribute too, e.g. "
                f"SELECT disease, {agg.group('fn').upper()}(cost) ..."
            )
        return agg.group("attr"), (("COUNT", agg.group("attr")),)
    attribute = parts[0]
    if _AGG_RE.match(attribute):
        raise QueryError(
            f"the first projection item is the set attribute, not an "
            f"aggregate: {attribute!r}"
        )
    aggregates = []
    for part in parts[1:]:
        agg = _AGG_RE.match(part)
        if not agg:
            raise QueryError(
                f"projection items after the set attribute must be "
                f"aggregates: {part!r}"
            )
        aggregates.append((agg.group("fn").upper(), agg.group("attr")))
    return attribute, tuple(aggregates)
