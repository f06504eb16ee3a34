"""Shape-claim tests: the EXPERIMENTS.md assertions, enforced by pytest.

These run the actual experiment harness at toy scale and check every
qualitative shape the paper's evaluation reports.  Kept separate from the
micro-unit tests because each costs a second or two.
"""

import pytest

from repro import kernels
from repro.bench.experiments import (
    exp2_multiattr,
    exp3_owners,
    exp5_bucketization,
    exp6_comparison,
)
from repro.bench.shapes import (
    is_linear_increasing,
    is_monotone_decreasing,
    is_roughly_flat,
    linear_fit,
    ratio,
)
from repro.exceptions import ParameterError


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
        # per-point minimum of three runs to suppress scheduler jitter.
        owner_counts = (4, 8, 12, 16)
        runs = [exp3_owners(owner_counts=owner_counts, domain_size=2048)
                ["series"]["PSI Sum"] for _ in range(3)]
        points = [(m, min(run[i][1] for run in runs))
                  for i, m in enumerate(owner_counts)]
        assert is_linear_increasing(points, min_r=0.85)


@pytest.mark.usefixtures("reference_tier")
class TestTable12Shape:
    """Aggregation time grows with the attribute count; linear in b."""

    def test_sum_grows_with_attributes(self):
        # Wall-clock at toy scale jitters; fit the per-point minimum of
        # three runs, the standard noise-floor estimator.
        runs = [exp2_multiattr(domain_sizes=[2048], attr_counts=(1, 2, 3, 4),
                               num_owners=4)["results"][2048]["sum"]
                for _ in range(3)]
        sums = [min(r[i] for r in runs) for i in range(4)]
        points = list(zip((1, 2, 3, 4), sums))
        assert is_linear_increasing(points, min_r=0.85)

    def test_time_grows_with_domain(self):
        payload = exp2_multiattr(domain_sizes=[1024, 4096],
                                 attr_counts=(1,), num_owners=4)
        small = payload["results"][1024]["sum"][0]
        large = payload["results"][4096]["sum"][0]
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
