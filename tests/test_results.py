"""Unit tests for the result containers and timing helpers."""

import time

import numpy as np
import pytest

from repro.core.results import (
    AggregateResult,
    CountResult,
    ExtremaResult,
    MedianResult,
    PhaseTimings,
    SetResult,
)


class TestPhaseTimings:
    def test_accumulates(self):
        t = PhaseTimings()
        t.add("server", 1.0)
        t.add("server", 0.5)
        t.add("owner", 0.25)
        assert t.server_seconds == 1.5
        assert t.owner_seconds == 0.25
        assert t.total_seconds == 1.75

    def test_measure_context_manager(self):
        t = PhaseTimings()
        with t.measure("server"):
            time.sleep(0.01)
        assert t.server_seconds >= 0.005

    def test_measure_propagates_exceptions(self):
        t = PhaseTimings()
        with pytest.raises(ValueError):
            with t.measure("owner"):
                raise ValueError("boom")
        assert t.owner_seconds >= 0.0

    def test_missing_phases_default_zero(self):
        t = PhaseTimings()
        assert t.announcer_seconds == 0.0
        assert t.as_dict() == {}

    def test_as_dict_copy(self):
        t = PhaseTimings()
        t.add("server", 1.0)
        d = t.as_dict()
        d["server"] = 99
        assert t.server_seconds == 1.0


class TestResultContainers:
    def test_set_result_protocols(self):
        result = SetResult(values=["a", "b"],
                           membership=np.asarray([True, True, False]),
                           timings=PhaseTimings(), traffic={})
        assert "a" in result
        assert "z" not in result
        assert len(result) == 2

    def test_count_result_fields(self):
        result = CountResult(count=3, timings=PhaseTimings(), traffic={})
        assert result.count == 3

    def test_aggregate_result_mapping(self):
        result = AggregateResult(per_value={"x": 10}, timings=PhaseTimings(),
                                 traffic={})
        assert result["x"] == 10
        assert len(result) == 1
        with pytest.raises(KeyError):
            result["missing"]

    def test_extrema_result_getitem(self):
        result = ExtremaResult(per_value={"x": 9}, holders={"x": [0]},
                               timings=PhaseTimings(), traffic={})
        assert result["x"] == 9

    def test_median_result_getitem(self):
        result = MedianResult(per_value={"x": 4.5}, timings=PhaseTimings(),
                              traffic={})
        assert result["x"] == 4.5
