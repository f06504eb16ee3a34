"""Result objects returned by the query engine and interactive programs.

Every result carries a :class:`PhaseTimings` breakdown (server vs owner vs
announcer wall time) and the transport's traffic summary, because the
paper's experiments report exactly those splits (Figs. 3–4 measure server
time, Table 14 measures owner-side result-construction time).
"""

from __future__ import annotations

import dataclasses
import time

import numpy as np


class PhaseTimings:
    """Accumulates wall-clock time per protocol phase."""

    def __init__(self):
        self.seconds: dict[str, float] = {}

    def add(self, phase: str, seconds: float) -> None:
        self.seconds[phase] = self.seconds.get(phase, 0.0) + seconds

    def measure(self, phase: str):
        """Context manager: ``with timings.measure("server"): ...``."""
        return _Measurement(self, phase)

    @property
    def server_seconds(self) -> float:
        return self.seconds.get("server", 0.0)

    @property
    def owner_seconds(self) -> float:
        return self.seconds.get("owner", 0.0)

    @property
    def announcer_seconds(self) -> float:
        return self.seconds.get("announcer", 0.0)

    @property
    def total_seconds(self) -> float:
        return sum(self.seconds.values())

    def as_dict(self) -> dict[str, float]:
        return dict(self.seconds)


class _Measurement:
    def __init__(self, timings: PhaseTimings, phase: str):
        self._timings = timings
        self._phase = phase
        self._start = 0.0

    def __enter__(self):
        self._start = time.perf_counter()
        return self

    def __exit__(self, *exc_info):
        self._timings.add(self._phase, time.perf_counter() - self._start)
        return False


@dataclasses.dataclass
class SetResult:
    """Result of a PSI or PSU query.

    Attributes:
        values: decoded domain values in the intersection/union.
        membership: boolean vector over domain cells.
        timings: per-phase wall time.
        traffic: transport summary dict.
        verified: True when result verification ran and passed.
    """

    values: list
    membership: np.ndarray
    timings: PhaseTimings
    traffic: dict
    verified: bool = False

    def __contains__(self, value) -> bool:
        return value in set(self.values)

    def __len__(self) -> int:
        return len(self.values)


@dataclasses.dataclass
class CountResult:
    """Result of a PSI/PSU cardinality query (§6.5): just the count."""

    count: int
    timings: PhaseTimings
    traffic: dict


@dataclasses.dataclass
class AggregateResult:
    """Result of a sum/average query over PSI or PSU.

    Attributes:
        per_value: mapping of common/union value → aggregate.
        verified: True when the permuted-copy consistency check passed.
    """

    per_value: dict
    timings: PhaseTimings
    traffic: dict
    verified: bool = False

    def __getitem__(self, value):
        return self.per_value[value]

    def __len__(self) -> int:
        return len(self.per_value)


@dataclasses.dataclass
class ExtremaResult:
    """Result of a max/min query over PSI (§6.3).

    Attributes:
        per_value: common value → the extremum of the aggregation attribute.
        holders: common value → list of owner ids holding the extremum
            (present only when the identity round ran).
    """

    per_value: dict
    holders: dict
    timings: PhaseTimings
    traffic: dict

    def __getitem__(self, value):
        return self.per_value[value]


@dataclasses.dataclass
class MedianResult:
    """Result of a median query over PSI (§6.4).

    ``per_value`` maps each common value to the median across owners of
    the owners' per-group totals (a float when the owner count is even).
    """

    per_value: dict
    timings: PhaseTimings
    traffic: dict

    def __getitem__(self, value):
        return self.per_value[value]
