"""Reproduction of *Prism: Private Verifiable Set Computation over
Multi-Owner Outsourced Databases* (Li et al., SIGMOD 2021).

Public API highlights:

* :class:`repro.PrismClient` — the session-style query API: every query
  form (Table-4 SQL with multi-aggregate projections and the
  ``EXPLAIN`` prefix, or fluent :class:`repro.Q` builders) lowers to
  one :class:`repro.LogicalPlan` IR and runs through one executor
  (:mod:`repro.api`).
* :class:`repro.PrismSystem` — a full in-process deployment (owners,
  servers, announcer) with one method per supported query.
* :class:`repro.Relation` / :class:`repro.Domain` — the data substrate.
* :mod:`repro.baselines` — from-scratch comparison systems (Paillier,
  Freedman PSI, Bloom-filter PSI, plaintext).
* :mod:`repro.bench` — the experiment harness regenerating every figure
  and table of the paper's evaluation (§8).
"""

from repro.api import (
    Executor,
    LogicalPlan,
    Planner,
    PrismClient,
    Q,
    parse_sql,
)
from repro.core.batch import QueryBatch
from repro.core.results import (
    AggregateResult,
    CountResult,
    ExtremaResult,
    MedianResult,
    SetResult,
)
from repro.core.system import PrismSystem
from repro.data.csv_io import read_relation_csv, write_relation_csv
from repro.data.domain import Domain, HashedDomain, ProductDomain
from repro.data.relation import Relation
from repro.exceptions import (
    AdmissionError,
    AuthError,
    DomainError,
    GatewayDisconnected,
    ParameterError,
    PrismError,
    ProtocolError,
    QueryError,
    ShareError,
    VerificationError,
)
from repro.network.rpc import Deployment
from repro.serving import Gateway, GatewayClient

__version__ = "1.0.0"

__all__ = [
    "AdmissionError",
    "AggregateResult",
    "AuthError",
    "CountResult",
    "Deployment",
    "Domain",
    "DomainError",
    "Executor",
    "Gateway",
    "GatewayClient",
    "GatewayDisconnected",
    "HashedDomain",
    "ExtremaResult",
    "LogicalPlan",
    "MedianResult",
    "ParameterError",
    "Planner",
    "PrismClient",
    "PrismError",
    "PrismSystem",
    "ProductDomain",
    "ProtocolError",
    "Q",
    "QueryBatch",
    "QueryError",
    "Relation",
    "SetResult",
    "ShareError",
    "VerificationError",
    "parse_sql",
    "read_relation_csv",
    "write_relation_csv",
    "__version__",
]
