"""Core Prism protocols and the high-level system facade."""

from repro.core.aggregate import aggregate_reference
from repro.core.batch import QueryBatch
from repro.core.bucketized import (
    BucketTree,
    simulate_actual_domain_size,
)
from repro.core.extrema import (
    extrema_reference,
    median_reference,
)
from repro.core.interactive import (
    BucketizedPsiProgram,
    ExtremaProgram,
    InteractiveProgram,
    MedianProgram,
)
from repro.core.params import (
    AnnouncerParams,
    OwnerParams,
    ServerGroupView,
    ServerParams,
)
from repro.core.psi import psi_reference
from repro.core.psu import psu_reference
from repro.core.results import (
    AggregateResult,
    CountResult,
    ExtremaResult,
    MedianResult,
    PhaseTimings,
    SetResult,
)
from repro.core.system import NUM_SERVERS, PrismSystem

__all__ = [
    "AggregateResult",
    "AnnouncerParams",
    "BucketTree",
    "BucketizedPsiProgram",
    "CountResult",
    "ExtremaProgram",
    "ExtremaResult",
    "InteractiveProgram",
    "MedianProgram",
    "MedianResult",
    "NUM_SERVERS",
    "OwnerParams",
    "PhaseTimings",
    "PrismSystem",
    "QueryBatch",
    "ServerGroupView",
    "ServerParams",
    "SetResult",
    "aggregate_reference",
    "extrema_reference",
    "median_reference",
    "psi_reference",
    "psu_reference",
    "simulate_actual_domain_size",
]
