"""Tests for the experiment harness (tiny scale) and reporting helpers."""

import json

from repro.bench.experiments import (
    EXPERIMENTS,
    exp1_threads,
    exp2_multiattr,
    exp3_owners,
    exp4_owner_time,
    exp5_bucketization,
    exp6_comparison,
    exp7_sharegen,
)
from repro.bench.harness import build_system, one_common_value, scaled
from repro.bench.reporting import dump_json, format_series, format_table


class TestHarness:
    def test_build_system_queryable(self):
        system = build_system(num_owners=3, domain_size=64, rows_per_owner=32)
        assert len(system.owners) == 3
        result = system.psi("OK")
        assert result.values  # guaranteed common keys exist

    def test_one_common_value(self):
        system = build_system(num_owners=3, domain_size=64, rows_per_owner=32)
        common = one_common_value(system)
        assert len(common) == 1

    def test_scaled_monotone(self, monkeypatch):
        monkeypatch.setenv("REPRO_SCALE", "2.0")
        big = scaled(100)
        monkeypatch.setenv("REPRO_SCALE", "1.0")
        assert big == 2 * scaled(100)

    def test_scaled_floor(self, monkeypatch):
        monkeypatch.setenv("REPRO_SCALE", "0.000001")
        assert scaled(100) == 16


class TestReporting:
    def test_format_table(self):
        text = format_table(["a", "bb"], [[1, 2.5], ["x", 0.0001]], "T")
        assert "T" in text
        assert "a" in text and "bb" in text
        assert "0.0001" in text

    def test_format_series(self):
        text = format_series({"PSI": [(1, 0.5), (2, 0.25)]}, "x", "y", "F")
        assert "PSI" in text and "(1, 0.5)" in text

    def test_dump_json(self, tmp_path):
        path = tmp_path / "out.json"
        dump_json({"a": {"b": 1}}, str(path))
        assert json.loads(path.read_text()) == {"a": {"b": 1}}


class TestExperimentsTinyScale:
    """Each experiment runs end-to-end at toy sizes and returns its keys."""

    def test_exp1(self):
        payload = exp1_threads(domain_size=128, num_owners=3,
                               thread_counts=(1, 2))
        assert payload["experiment"] == "fig3"
        assert set(payload["series"]) >= {"PSI", "PSU", "PSI Max",
                                          "Data Fetch Time"}
        for points in payload["series"].values():
            assert len(points) == 2

    def test_exp1_threads_set_the_sweep_span_count(self, monkeypatch):
        """Fig. 3's thread axis reaches the servers: 2 threads split the
        sweeps into spans on the shard runtime, 1 thread does not."""
        from repro.bench import experiments
        from repro.core import sharding
        monkeypatch.setattr(sharding, "usable_cpus", lambda: 4)
        systems = []

        def capture(**kwargs):
            systems.append(build_system(**kwargs))
            return systems[-1]

        monkeypatch.setattr(experiments, "build_system", capture)
        dispatches = {}
        for threads in (1, 2):
            exp1_threads(domain_size=128, num_owners=3,
                         thread_counts=(threads,))
            with systems[-1] as system:
                dispatches[threads] = system._shard_runtime.dispatches
        assert dispatches[1] == 0
        assert dispatches[2] > 0

    def test_exp2(self):
        payload = exp2_multiattr(domain_sizes=[64], attr_counts=(1, 2),
                                 num_owners=3)
        assert payload["experiment"] == "table12"
        assert len(payload["results"][64]["sum"]) == 2

    def test_exp3(self):
        payload = exp3_owners(owner_counts=(3, 5), domain_size=64)
        assert payload["experiment"] == "fig4"
        assert len(payload["series"]["PSI"]) == 2

    def test_exp4(self):
        payload = exp4_owner_time(domain_sizes=[64], num_owners=3)
        assert payload["experiment"] == "table14"
        assert set(payload["results"][64]) == {"PSI", "Count", "Sum", "Avg",
                                               "Max", "PSU"}

    def test_exp5(self):
        payload = exp5_bucketization(fill_factors=(1.0, 0.01),
                                     num_leaves=10_000)
        series = payload["series"]["W Bucketization"]
        assert series[0][1] > series[1][1]  # dense examines more nodes

    def test_exp6(self):
        payload = exp6_comparison(prism_domain=256, freedman_n=16)
        assert payload["experiment"] == "table13"
        # The Table 13 shape: generic-crypto PSI is far slower per element.
        prism_rate = payload["prism"]["seconds"] / payload["prism"]["n"]
        freedman_rate = (payload["freedman"]["seconds"]
                         / payload["freedman"]["n"])
        assert freedman_rate > prism_rate

    def test_exp7(self):
        payload = exp7_sharegen(domain_size=128, num_owners=2)
        assert payload["data_seconds"] > 0
        assert payload["verification_seconds"] >= 0

    def test_registry_complete(self):
        assert set(EXPERIMENTS) == {"fig3", "table12", "fig4", "table14",
                                    "fig5", "table13", "sharegen"}


class TestCli:
    def test_main_single_experiment(self, capsys, tmp_path):
        from repro.bench.__main__ import main
        out = tmp_path / "r.json"
        # fig5 is the cheapest experiment (pure counting model).
        code = main(["fig5", "--json", str(out)])
        assert code == 0
        captured = capsys.readouterr().out
        assert "Fig. 5" in captured
        assert json.loads(out.read_text())["fig5"]["experiment"] == "fig5"
