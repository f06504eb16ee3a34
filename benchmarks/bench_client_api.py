"""Unified-path dispatch overhead: plan IR + executor + batch engine.

Not a paper artefact — this benchmark guards the one execution path:
routing every query through lowering → LogicalPlan → Executor →
QueryBatch must cost only microseconds of planning on top of the kernel
sweeps, for single queries (batch of one) as well as for fused
multi-query submission through ``PrismClient.execute_many``.

Expected shape: ``planning`` is microseconds of dict work, a small
fraction of ``single-psi`` (the sweep dominates).
"""

from __future__ import annotations

import os

import pytest

from repro import PrismClient, Q
from repro.bench.harness import build_system


def client_domain() -> int:
    return max(4096, int(os.environ.get("REPRO_BENCH_DOMAIN", "0") or 0))


@pytest.fixture(scope="module")
def system():
    """10 owners with two aggregation columns over >= 4096 cells."""
    return build_system(num_owners=10, domain_size=client_domain(), seed=7,
                        agg_attributes=("DT", "PK"))


@pytest.fixture(scope="module")
def client(system):
    return PrismClient(system)


FLUENT_QUERIES = [
    Q.psi("OK"),
    Q.psi("OK").count(),
    Q.psu("OK"),
    Q.psi("OK").sum("DT"),
    Q.psi("OK").avg("PK"),
    Q.psi("OK").sum("DT", "PK"),
]


def test_unified_single_psi(benchmark, system):
    """The shim path: lower → plan → executor → batch of one."""
    benchmark.group = "single-psi"
    benchmark(system.psi, "OK")


def test_planning_only(benchmark):
    """Lowering cost alone: SQL parse + IR build, no execution."""
    sql = ("SELECT OK, SUM(DT), AVG(PK) FROM a INTERSECT "
           "SELECT OK, SUM(DT), AVG(PK) FROM b VERIFY")
    from repro.api.sql import parse_sql
    benchmark.group = "planning"
    benchmark(parse_sql, sql)


def test_client_execute_many(benchmark, system, client):
    """Fluent multi-query submission through the session client."""
    benchmark.group = "client-many"
    benchmark(client.execute_many, FLUENT_QUERIES)

