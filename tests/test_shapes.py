"""Shape-claim tests: the EXPERIMENTS.md assertions, enforced by pytest.

These run the actual experiment harness at toy scale and check every
qualitative shape the paper's evaluation reports.  Kept separate from the
micro-unit tests because each costs a second or two.
"""

import builtins
import sys
from collections import Counter

import pytest

from repro import kernels
from repro.bench import experiments
from repro.bench.experiments import (
    exp2_multiattr,
    exp3_owners,
    exp5_bucketization,
    exp6_comparison,
)
from repro.bench.harness import build_system
from repro.data.storage import ShareKind
from repro.entities import server as server_module
from repro.entities.server import PrismServer
from repro.bench.shapes import (
    is_linear_increasing,
    is_monotone_decreasing,
    is_roughly_flat,
    linear_fit,
    ratio,
)
from repro.exceptions import ParameterError
from repro.network.message import batch_kind


class TestHelpers:
    def test_linear_fit_exact(self):
        slope, intercept, r = linear_fit([(1, 3), (2, 5), (3, 7)])
        assert slope == pytest.approx(2.0)
        assert intercept == pytest.approx(1.0)
        assert r == pytest.approx(1.0)

    def test_linear_fit_needs_points(self):
        with pytest.raises(ParameterError):
            linear_fit([(1, 1), (2, 2)])

    def test_monotone(self):
        assert is_monotone_decreasing([5, 4, 4, 1])
        assert not is_monotone_decreasing([1, 2])

    def test_flat(self):
        assert is_roughly_flat([1.0, 1.4, 0.9])
        assert not is_roughly_flat([1.0, 10.0])

    def test_ratio(self):
        assert ratio([(1, 2.0), (4, 8.0)]) == pytest.approx(4.0)
        with pytest.raises(ParameterError):
            ratio([])


@pytest.fixture
def reference_tier():
    """Time the numpy reference kernels.

    The timing shapes below are per-row cost scalings.  At these toy
    sizes a compiled sweep takes well under a millisecond, so fixed
    per-query costs and scheduler jitter would hide the shape.
    """
    kernels.configure("off")
    yield
    kernels.configure(None)


@pytest.mark.usefixtures("reference_tier")
class TestFig4Shape:
    """Server time linear in the number of owners."""

    def test_psi_sum_linear_in_owners(self):
        # The Eq. 11 sweep is the heavier, cleanly linear kernel; fit the
        # per-point minimum of five runs to suppress scheduler jitter
        # (three runs left a point with no quiet sample often enough
        # to fail about one run in fifteen).
        owner_counts = (4, 8, 12, 16)
        runs = [exp3_owners(owner_counts=owner_counts, domain_size=2048)
                ["series"]["PSI Sum"] for _ in range(5)]
        points = [(m, min(run[i][1] for run in runs))
                  for i, m in enumerate(owner_counts)]
        assert is_linear_increasing(points, min_r=0.85)

    def test_every_operation_sums_the_owners_it_times(self, monkeypatch):
        # The counter form of Fig. 4 for all four operations: each is
        # timed as the first query of its own store version, so the
        # owner vectors its servers sum grow linearly in m — none of
        # them reads an owner sum an earlier operation built.
        summed: Counter = Counter()
        label = {}
        sum_sweep = server_module.sum_sweep
        run_operation = experiments._run_operation

        def counting_sum(share_lists, modulus, out):
            if label:
                summed[label["m"], label["op"]] += sum(
                    len(shares) for shares in share_lists)
            return sum_sweep(share_lists, modulus, out)

        def labelled(system, op, *args, **kwargs):
            label.update(m=len(system.owners), op=op)
            try:
                return run_operation(system, op, *args, **kwargs)
            finally:
                label.clear()

        monkeypatch.setattr(server_module, "sum_sweep", counting_sum)
        monkeypatch.setattr(experiments, "_run_operation", labelled)
        owner_counts = (4, 8, 12)
        payload = exp3_owners(owner_counts=owner_counts, domain_size=1024)
        for op in payload["series"]:
            counts = [summed[m, op] for m in owner_counts]
            assert counts[0] > 0, op
            assert counts == [m * counts[0] // owner_counts[0]
                              for m in owner_counts], op
        # PSI, PSU and PSI Count each sum the χ column on the two
        # additive servers; PSI Sum adds DT on the three Shamir servers.
        assert [summed[4, op] for op in payload["series"]] == \
            [2 * 4, 2 * 4, 2 * 4, 5 * 4]

    def test_psi_sum_rows_sum_one_share_vector_per_owner(self, monkeypatch):
        # The counter form of the fit above: at m owners every Eq. 11
        # row sums exactly m Shamir share vectors on every server.
        summed = []
        sweep = PrismServer.aggregate_round_batch

        def counting(server, columns, z_matrix, owner_ids=None, *args,
                     **kwargs):
            summed.extend((id(server), len(server.fetch_shamir(c, owner_ids)))
                          for c in columns)
            return sweep(server, columns, z_matrix, owner_ids, *args,
                         **kwargs)

        monkeypatch.setattr(PrismServer, "aggregate_round_batch", counting)
        owner_counts = (4, 8, 12, 16)
        totals = []
        for m in owner_counts:
            system = build_system(num_owners=m, domain_size=2048)
            summed.clear()
            system.psi_sum("OK", "DT")
            system.close()
            servers = {server for server, _ in summed}
            assert len(servers) == 3  # every Shamir server, one row each
            assert [count for _, count in summed] == [m] * len(servers)
            totals.append(sum(count for _, count in summed))
        assert totals == [m * totals[0] // owner_counts[0]
                          for m in owner_counts]

    def test_psi_sum_sums_the_owners_once_per_store_version(self,
                                                            monkeypatch):
        # Where the m-linear work now falls: the first psi_sum of a store
        # version sums exactly m Shamir vectors mod p on each Shamir
        # server, in one owner-sum row; a repeat sums none; outsourcing
        # resets.  Every Eq. 11 row reads one summed vector.
        sums, agg_rows = [], []
        sum_sweep, agg_sweep = server_module.sum_sweep, server_module.agg_sweep

        def counting_sum(share_lists, modulus, out):
            sums.extend((len(shares), modulus) for shares in share_lists)
            return sum_sweep(share_lists, modulus, out)

        def counting_agg(summed, z_matrix, p, out):
            agg_rows.append(len(summed))
            return agg_sweep(summed, z_matrix, p, out)

        monkeypatch.setattr(server_module, "sum_sweep", counting_sum)
        monkeypatch.setattr(server_module, "agg_sweep", counting_agg)
        for m in (4, 8, 12):
            system = build_system(num_owners=m, domain_size=2048)
            p = system.initiator.field_prime
            for _ in range(2):
                sums.clear()
                agg_rows.clear()
                system.psi_sum("OK", "DT")
                assert [count for count, modulus in sums
                        if modulus == p] == [m] * 3
                assert agg_rows == [1] * 3
                assert all(server.store.summed("DT", ShareKind.SHAMIR)
                           is not None for server in system.servers)
                sums.clear()
                agg_rows.clear()
                system.psi_sum("OK", "DT")
                assert sums == []
                assert agg_rows == [1] * 3
                system.outsource("OK", ("DT",))
            system.close()


@pytest.mark.usefixtures("reference_tier")
class TestTable12Shape:
    """Aggregation time grows with the attribute count; linear in b."""

    def test_sum_grows_with_attributes(self):
        # Wall-clock at toy scale jitters; fit the per-point minimum of
        # five runs, the standard noise-floor estimator (three runs left
        # a point with no quiet sample about one run in ten).
        runs = [exp2_multiattr(domain_sizes=[2048], attr_counts=(1, 2, 3, 4),
                               num_owners=4)["results"][2048]["sum"]
                for _ in range(5)]
        sums = [min(r[i] for r in runs) for i in range(4)]
        points = list(zip((1, 2, 3, 4), sums))
        assert is_linear_increasing(points, min_r=0.85)

    def test_sum_rows_and_output_bytes_scale_with_attributes(self):
        # The counter form of the fit above: a SUM over k attributes runs
        # k Eq. 11 rows and ships k times the k = 1 output bytes.
        system = build_system(num_owners=4, domain_size=2048)
        attrs = ("DT", "PK", "LN", "SK")
        output_bytes = {}
        for k in (1, 2, 3, 4):
            system.transport.reset(retain_messages=1000)
            system.psi_sum("OK", list(attrs[:k]))
            outputs = [m for m in system.transport.stats.messages
                       if "agg-output" in m.kind]
            assert {m.kind for m in outputs} == {batch_kind("agg-output", k)}
            output_bytes[k] = sum(m.nbytes for m in outputs)
        assert output_bytes[1] > 0
        assert output_bytes == {k: k * output_bytes[1] for k in (1, 2, 3, 4)}

    def test_time_grows_with_domain(self, monkeypatch):
        # The counter form beside the clock: a SUM over k attributes
        # makes each of the three Shamir servers sweep exactly k·b Eq. 11
        # cells, so the work grows linearly in b.
        swept: dict[PrismServer, int] = {}
        sweep = PrismServer.aggregate_round_batch

        def counting(server, columns, z_matrix, *args, **kwargs):
            swept[server] = (swept.get(server, 0)
                             + len(columns) * z_matrix.shape[1])
            return sweep(server, columns, z_matrix, *args, **kwargs)

        monkeypatch.setattr(PrismServer, "aggregate_round_batch", counting)
        payload = exp2_multiattr(domain_sizes=[1024, 4096],
                                 attr_counts=(1,), num_owners=4)
        assert sorted(swept.values()) == [1 * 1024] * 3 + [1 * 4096] * 3
        # The clock: the per-domain minimum of five runs, as in the fits
        # above (one sample let a single scheduler stall at b = 1024
        # outweigh the 4x domain about one run in thirty).
        runs = [payload] + [exp2_multiattr(domain_sizes=[1024, 4096],
                                           attr_counts=(1,), num_owners=4)
                            for _ in range(4)]
        small = min(run["results"][1024]["sum"][0] for run in runs)
        large = min(run["results"][4096]["sum"][0] for run in runs)
        assert large > small


class TestFig5Shape:
    """Actual domain size collapses with the fill factor; 1.11x at 100%."""

    def test_monotone_collapse(self):
        payload = exp5_bucketization(
            fill_factors=(1.0, 0.1, 0.01, 0.001), num_leaves=100_000)
        sizes = [y for _, y in payload["series"]["W Bucketization"]]
        assert is_monotone_decreasing(sizes)

    def test_dense_overhead_matches_paper(self):
        # 100% fill with fanout 10: actual/real ~= 1.111 (the paper's
        # 111M over 100M).
        payload = exp5_bucketization(fill_factors=(1.0,),
                                     num_leaves=1_000_000)
        actual = payload["series"]["W Bucketization"][0][1]
        assert actual / 1_000_000 == pytest.approx(1.111, abs=0.01)

    def test_sparse_collapse_matches_paper(self):
        # 0.01% fill: the paper's 400K of 100M is ~0.004 of the domain.
        payload = exp5_bucketization(fill_factors=(0.0001,),
                                     num_leaves=1_000_000)
        actual = payload["series"]["W Bucketization"][0][1]
        assert actual / 1_000_000 < 0.02


class TestTable13Shape:
    """Prism beats the crypto baselines per element, loses to plaintext."""

    def test_ordering(self):
        payload = exp6_comparison(prism_domain=2048, freedman_n=32)
        per_element = {
            name: payload[name]["seconds"] / payload[name]["n"]
            for name in ("prism", "freedman", "bloom", "plaintext")
        }
        assert per_element["freedman"] > 50 * per_element["prism"]
        assert per_element["bloom"] > per_element["prism"]
        # Prism stays within two orders of magnitude of insecure plaintext.
        assert per_element["prism"] < 100 * per_element["plaintext"]

    def test_ordering_in_modexps_and_cells(self, monkeypatch):
        # The counter form of the clock test above.  Every module-level
        # ``pow`` of the package is counted while exp6_comparison times
        # each system.  Freedman pays ~n Paillier modexps per element
        # and DH-PSI three per element of either set; Prism pays none,
        # and sweeps two χ cells per domain value (one per server).
        modexps: Counter = Counter()
        phase = {"name": "setup"}

        def counting(module):
            def pow(base, exp, mod=None):
                if mod is not None:
                    modexps[phase["name"], module] += 1
                return builtins.pow(base, exp, mod)
            return pow

        for name, module in list(sys.modules.items()):
            if name.startswith("repro.") and module is not None:
                monkeypatch.setattr(module, "pow", counting(name),
                                    raising=False)

        sizes = {}
        real_timed = experiments.timed

        def labelled(fn, *args, **kwargs):
            phase["name"] = fn.__name__
            sizes[fn.__name__] = [len(arg) for arg in args
                                  if isinstance(arg, (list, set))]
            try:
                return real_timed(fn, *args, **kwargs)
            finally:
                phase["name"] = "setup"

        monkeypatch.setattr(experiments, "timed", labelled)
        cells = Counter()
        sweep = PrismServer.indicator_round

        def swept(server, sweeps, *args, **kwargs):
            outputs = sweep(server, sweeps, *args, **kwargs)
            cells[phase["name"]] += sum(out.size for out in outputs)
            return outputs

        monkeypatch.setattr(PrismServer, "indicator_round", swept)
        payload = exp6_comparison(prism_domain=2048, freedman_n=32)

        def count(phase_name, module=None):
            return sum(c for (p, m), c in modexps.items()
                       if p == phase_name and module in (None, m))

        # Prism: no modexp anywhere in the package, 2 cells per element.
        b = payload["prism"]["n"]
        assert count("psi") == 0
        assert cells == {"psi": 2 * b}
        # Freedman: 2 per encrypted coefficient (n + 1 of them), n + 2
        # per server element (Horner, mask, add), 1 per decryption.
        n = payload["freedman"]["n"]
        freedman = count("intersect", "repro.baselines.paillier")
        assert freedman == 2 * (n + 1) + n * (n + 2) + n
        assert count("intersect") == freedman
        # DH-PSI: hash-to-group squaring and the own key on both sets,
        # then the peer's key on both: 3 per element of either set.
        size_a, size_b = sizes["dh_psi"]
        assert size_a == payload["dh"]["n"]
        dh = count("dh_psi", "repro.baselines.dh_psi")
        assert dh == 3 * (size_a + size_b)
        per_element = {"prism": count("psi") / b,
                       "dh": dh / size_a, "freedman": freedman / n}
        assert per_element["prism"] == 0
        assert 3 <= per_element["dh"] < per_element["freedman"]
        assert per_element["freedman"] > n
