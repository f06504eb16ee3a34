"""The gateway session protocol: kinds and wire forms.

Gateway sessions speak the same framed envelope as entity RPCs
(:func:`repro.network.codec.encode_frame`), but in a dedicated message
namespace (:data:`repro.network.codec.GATEWAY_PREFIX`): a frame kind of
``gw:<verb>`` is a session request to the gateway, never an entity
method — an entity host refuses them, and the gateway refuses
un-prefixed kinds.  This module defines the verbs and the wire forms of
everything a session moves:

* **queries** — SQL strings travel verbatim; fluent
  :class:`~repro.api.builder.Q` builders and plans are lowered
  client-side to the frozen :class:`~repro.api.plan.LogicalPlan`
  IR and shipped as its field dict (:func:`plan_to_wire`), so the
  gateway re-hydrates exactly the plan the client built;
* **results** — every canonical result shape
  (:class:`~repro.core.results.SetResult` and friends, multi-aggregate
  dicts, the bucketized ``(SetResult, stats)`` pair, ``EXPLAIN``
  strings) round-trips through :func:`result_to_wire` /
  :func:`result_from_wire` bit-identically in its values (timings stay
  informational);
* **dataset definitions** — relations and enumerated domains for the
  ``gw:register`` outsourcing path.

Errors need no session-specific treatment: the gateway replies with the
standard ``__error__`` frame carrying the exception's type name, and
:func:`repro.network.rpc._remote_exception` rebuilds it client-side —
which is how :class:`~repro.exceptions.AuthError` and
:class:`~repro.exceptions.AdmissionError` surface as the same types on
both sides of the socket.
"""

from __future__ import annotations

import numpy as np

from repro.api.plan import LogicalPlan
from repro.core.results import (
    AggregateResult,
    CountResult,
    ExtremaResult,
    MedianResult,
    PhaseTimings,
    SetResult,
)
from repro.data.domain import Domain
from repro.data.relation import Relation
from repro.exceptions import ProtocolError
from repro.network.codec import gateway_kind

#: Session verbs (the gateway's dispatch table keys).
HELLO = gateway_kind("hello")
REGISTER = gateway_kind("register")
DATASETS = gateway_kind("datasets")
QUERY = gateway_kind("query")
EXPLAIN = gateway_kind("explain")
STATS = gateway_kind("stats")
HEALTHZ = gateway_kind("healthz")

#: Protocol revision carried in the hello exchange.
PROTOCOL_VERSION = 1


# -- queries ------------------------------------------------------------------


def plan_to_wire(plan: LogicalPlan) -> dict:
    """The codec-encodable field dict of a lowered plan."""
    return {
        "set_op": plan.set_op,
        "attribute": plan.attribute,
        "aggregates": [list(pair) for pair in plan.aggregates],
        "verify": plan.verify,
        "reveal_holders": plan.reveal_holders,
        "bucketized": plan.bucketized,
        "owner_ids": (list(plan.owner_ids)
                      if plan.owner_ids is not None else None),
        "querier": plan.querier,
    }


def plan_from_wire(data: dict) -> LogicalPlan:
    """Re-hydrate a :class:`LogicalPlan` shipped by :func:`plan_to_wire`.

    Raises:
        ProtocolError: when required fields are missing or malformed
            (:class:`~repro.exceptions.QueryError` still propagates for
            plans that are well-formed on the wire but semantically
            invalid — the validation lives in the IR, not here).
    """
    try:
        attribute = data["attribute"]
        if isinstance(attribute, (list, tuple)):
            attribute = tuple(str(a) for a in attribute)
        owner_ids = data.get("owner_ids")
        return LogicalPlan(
            set_op=str(data["set_op"]),
            attribute=attribute,
            aggregates=tuple(
                (str(fn), None if attr is None else str(attr))
                for fn, attr in data.get("aggregates", ())),
            verify=bool(data.get("verify", False)),
            reveal_holders=bool(data.get("reveal_holders", True)),
            bucketized=bool(data.get("bucketized", False)),
            owner_ids=(tuple(int(i) for i in owner_ids)
                       if owner_ids is not None else None),
            querier=int(data.get("querier", 0)),
        )
    except (KeyError, TypeError, ValueError) as exc:
        raise ProtocolError(f"malformed wire plan: {exc}") from exc


def query_to_wire(query, planner) -> object:
    """One query in wire form: SQL verbatim, anything else as its plan."""
    if isinstance(query, str):
        return query
    return {"plan": plan_to_wire(planner.lower(query))}


def query_from_wire(payload):
    """Inverse of :func:`query_to_wire` (SQL string or plan dict)."""
    if isinstance(payload, str):
        return payload
    if isinstance(payload, dict) and "plan" in payload:
        return plan_from_wire(payload["plan"])
    raise ProtocolError(
        f"malformed wire query: expected SQL text or a plan dict, got "
        f"{type(payload).__name__}")


# -- results ------------------------------------------------------------------


def _timings_to_wire(timings) -> dict:
    return dict(getattr(timings, "seconds", {}) or {})


def _timings_from_wire(data) -> PhaseTimings:
    timings = PhaseTimings()
    for phase, seconds in (data or {}).items():
        timings.add(str(phase), float(seconds))
    return timings


def result_to_wire(result) -> dict:
    """Encode one canonical query result for the session wire.

    Raises:
        ProtocolError: for result shapes no session verb produces.
    """
    if result is None:
        return {"type": "None"}
    if isinstance(result, str):
        return {"type": "str", "value": result}
    if isinstance(result, SetResult):
        return {
            "type": "SetResult",
            "values": list(result.values),
            "membership": np.packbits(np.asarray(result.membership,
                                                 dtype=bool)),
            "cells": len(result.membership),
            "timings": _timings_to_wire(result.timings),
            "traffic": dict(result.traffic or {}),
            "verified": bool(result.verified),
        }
    if isinstance(result, CountResult):
        return {
            "type": "CountResult",
            "count": int(result.count),
            "timings": _timings_to_wire(result.timings),
            "traffic": dict(result.traffic or {}),
        }
    if isinstance(result, AggregateResult):
        return {
            "type": "AggregateResult",
            "per_value": dict(result.per_value),
            "timings": _timings_to_wire(result.timings),
            "traffic": dict(result.traffic or {}),
            "verified": bool(result.verified),
        }
    if isinstance(result, ExtremaResult):
        return {
            "type": "ExtremaResult",
            "per_value": dict(result.per_value),
            "holders": {value: [int(o) for o in owners]
                        for value, owners in (result.holders or {}).items()},
            "timings": _timings_to_wire(result.timings),
            "traffic": dict(result.traffic or {}),
        }
    if isinstance(result, MedianResult):
        return {
            "type": "MedianResult",
            "per_value": dict(result.per_value),
            "timings": _timings_to_wire(result.timings),
            "traffic": dict(result.traffic or {}),
        }
    if isinstance(result, dict):
        # A multi-aggregate plan: an ordered dict keyed "SUM(cost)"-style.
        return {
            "type": "ResultMap",
            "keys": list(result.keys()),
            "items": {str(key): result_to_wire(value)
                      for key, value in result.items()},
        }
    if isinstance(result, tuple) and len(result) == 2:
        # Bucketized PSI: (SetResult, traversal-stats dict).
        return {
            "type": "Bucketized",
            "set": result_to_wire(result[0]),
            "stats": dict(result[1] or {}),
        }
    raise ProtocolError(
        f"cannot ship result of type {type(result).__name__} over a "
        f"gateway session")


def _membership_from_wire(data) -> np.ndarray:
    """Unpack a ``SetResult`` membership shipped as ``np.packbits``."""
    cells = int(data["cells"])
    nbytes = (cells + 7) // 8
    packed = data["membership"]
    if (cells < 0 or not isinstance(packed, np.ndarray)
            or packed.dtype != np.uint8 or packed.ndim != 1
            or packed.size != nbytes):
        raise ProtocolError(
            f"membership of {cells} cells must be {nbytes} packed bytes")
    bits = np.unpackbits(packed)
    if bits[cells:].any():
        raise ProtocolError("membership pad bits must be zero")
    return bits[:cells].astype(bool)


def result_from_wire(data):
    """Inverse of :func:`result_to_wire`.

    Raises:
        ProtocolError: on an unknown result type or malformed body.
    """
    if not isinstance(data, dict) or "type" not in data:
        raise ProtocolError(f"malformed wire result: {data!r}")
    kind = data["type"]
    try:
        if kind == "None":
            return None
        if kind == "str":
            return str(data["value"])
        if kind == "SetResult":
            return SetResult(
                values=list(data["values"]),
                membership=_membership_from_wire(data),
                timings=_timings_from_wire(data.get("timings")),
                traffic=dict(data.get("traffic") or {}),
                verified=bool(data.get("verified", False)),
            )
        if kind == "CountResult":
            return CountResult(
                count=int(data["count"]),
                timings=_timings_from_wire(data.get("timings")),
                traffic=dict(data.get("traffic") or {}),
            )
        if kind == "AggregateResult":
            return AggregateResult(
                per_value=dict(data["per_value"]),
                timings=_timings_from_wire(data.get("timings")),
                traffic=dict(data.get("traffic") or {}),
                verified=bool(data.get("verified", False)),
            )
        if kind == "ExtremaResult":
            return ExtremaResult(
                per_value=dict(data["per_value"]),
                holders={value: [int(o) for o in owners]
                         for value, owners in dict(data["holders"]).items()},
                timings=_timings_from_wire(data.get("timings")),
                traffic=dict(data.get("traffic") or {}),
            )
        if kind == "MedianResult":
            return MedianResult(
                per_value=dict(data["per_value"]),
                timings=_timings_from_wire(data.get("timings")),
                traffic=dict(data.get("traffic") or {}),
            )
        if kind == "ResultMap":
            items = dict(data["items"])
            return {str(key): result_from_wire(items[str(key)])
                    for key in data["keys"]}
        if kind == "Bucketized":
            return (result_from_wire(data["set"]),
                    dict(data.get("stats") or {}))
    except (KeyError, TypeError, ValueError) as exc:
        raise ProtocolError(f"malformed wire result: {exc}") from exc
    raise ProtocolError(f"unknown wire result type {kind!r}")


# -- dataset definitions ------------------------------------------------------


def relations_to_wire(relations) -> list:
    """Relations as ``{"name", "columns"}`` dicts for ``gw:register``."""
    out = []
    for relation in relations:
        out.append({
            "name": relation.name,
            "columns": {name: list(relation.column(name))
                        for name in relation.column_names},
        })
    return out


def relations_from_wire(data) -> list:
    """Inverse of :func:`relations_to_wire`.

    Raises:
        ProtocolError: on a malformed relation body
            (:class:`~repro.exceptions.QueryError` propagates for
            structurally valid but empty/ragged relations).
    """
    relations = []
    try:
        for item in data:
            relations.append(Relation(str(item["name"]),
                                      dict(item["columns"])))
    except (KeyError, TypeError) as exc:
        raise ProtocolError(f"malformed wire relation: {exc}") from exc
    return relations


def domain_to_wire(domain) -> dict:
    """An enumerated domain as its attribute + value list.

    Only plain enumerated :class:`~repro.data.domain.Domain` instances
    register over the wire (hashed/product domains are a server-side
    configuration choice — register those through the gateway's Python
    surface).
    """
    if not isinstance(domain, Domain):
        raise ProtocolError(
            f"only enumerated domains register over a session; got "
            f"{type(domain).__name__}")
    return {"attribute": domain.attribute, "values": list(domain.values())}


def domain_from_wire(data) -> Domain:
    """Inverse of :func:`domain_to_wire`."""
    try:
        return Domain(str(data["attribute"]), list(data["values"]))
    except (KeyError, TypeError) as exc:
        raise ProtocolError(f"malformed wire domain: {exc}") from exc
