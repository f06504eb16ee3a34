"""Tests for the extension features: zero-masking (footnote 1), hashed
domains, CSV I/O, extrema verification, announcer-driven bucketization."""

import numpy as np
import pytest
from hypothesis import example, given, settings, strategies as st

from repro import (
    Domain,
    HashedDomain,
    PrismSystem,
    ProtocolError,
    Relation,
    VerificationError,
    read_relation_csv,
    write_relation_csv,
)
from repro.exceptions import DomainError


class TestMaskZeros:
    """The footnote-1 hardening: random values in absent χ cells."""

    def make(self, sets, seed=0, **kwargs):
        relations = [Relation(f"o{i}", {"k": sorted(s)})
                     for i, s in enumerate(sets)]
        domain = Domain("k", list(range(1, 33)))
        return PrismSystem.build(relations, domain, "k", mask_zeros=True,
                                 seed=seed, **kwargs)

    def test_psi_still_correct(self):
        system = self.make([{1, 5, 9}, {5, 9, 20}, {5, 9, 31}])
        assert set(system.psi("k").values) == {5, 9}

    @given(st.sets(st.integers(1, 32), min_size=1, max_size=10),
           st.sets(st.integers(1, 32), min_size=1, max_size=10),
           st.integers(0, 100))
    @settings(max_examples=20, deadline=None)
    def test_psi_property(self, a, b, seed):
        # delta ~ 101 so the per-cell false-positive probability (~1/delta)
        # is visible only across far more cells than we test here; for
        # the tested seeds results must be exact.
        system = self.make([a, b], seed=seed)
        assert set(system.psi("k").values) == (a & b)

    def test_masked_cells_not_zero(self):
        relations = [Relation("o", {"k": [3]}),
                     Relation("p", {"k": [3]})]
        domain = Domain("k", list(range(1, 33)))
        system = PrismSystem(relations, domain, seed=1)
        chi = system.owners[0].build_indicator("k", mask_zeros=True)
        absent = np.delete(chi, domain.cell_of(3))
        assert (absent >= 2).all()
        assert chi[domain.cell_of(3)] == 1

    def test_incompatible_with_verification(self):
        relations = [Relation("o", {"k": [1]}), Relation("p", {"k": [1]})]
        domain = Domain("k", [1, 2])
        with pytest.raises(ProtocolError):
            PrismSystem.build(relations, domain, "k", mask_zeros=True,
                              with_verification=True)


class TestHashedDomain:
    def test_basic_mapping(self):
        hd = HashedDomain("user", 256, seed=1)
        assert hd.size == 256
        assert 0 <= hd.cell_of("alice") < 256
        assert not hd.invertible

    def test_value_of_raises(self):
        with pytest.raises(DomainError):
            HashedDomain("user", 16).value_of(0)

    def test_psi_over_hashed_domain(self):
        # String user-ids with no enumerated domain.
        users1 = [f"user{i}" for i in range(0, 40)]
        users2 = [f"user{i}" for i in range(25, 70)]
        relations = [Relation("a", {"uid": users1}),
                     Relation("b", {"uid": users2})]
        hd = HashedDomain("uid", 4096, seed=9)
        system = PrismSystem.build(relations, hd, "uid", seed=9)
        result = system.psi("uid")
        assert set(result.values) == set(users1) & set(users2)

    def test_psu_over_hashed_domain_names_own_values(self):
        relations = [Relation("a", {"uid": ["x", "y"]}),
                     Relation("b", {"uid": ["y", "z"]})]
        hd = HashedDomain("uid", 1024, seed=3)
        system = PrismSystem.build(relations, hd, "uid", seed=3)
        result = system.psu("uid", querier=0)
        # The querier can only name cells it holds values for ("x", "y");
        # "z" is present as an anonymous member cell.
        assert set(result.values) == {"x", "y"}
        assert int(np.count_nonzero(result.membership)) == 3

    def test_decode_requires_attribute(self):
        relations = [Relation("a", {"uid": ["x"]}),
                     Relation("b", {"uid": ["x"]})]
        hd = HashedDomain("uid", 64, seed=0)
        system = PrismSystem.build(relations, hd, "uid")
        member = np.zeros(64, dtype=bool)
        with pytest.raises(ProtocolError):
            system.owners[0].decode_cells(member)

    def test_collisions_surface(self):
        hd = HashedDomain("uid", 4, seed=0)
        assert hd.collisions([f"u{i}" for i in range(50)])

    @given(st.sets(st.integers(0, 500), max_size=30),
           st.sets(st.integers(0, 500), max_size=30))
    @example({13}, {83})
    @settings(max_examples=15, deadline=None)
    def test_hashed_psi_property(self, a, b):
        # The hash seed is fixed, so collisions are deterministic: six
        # pairs of 0..500 share a cell of this domain, (13, 83) among
        # them.  A colliding pair is a documented false positive, so the
        # oracle is hash-aware: the querier's values whose cell the other
        # owner also holds.  The true intersection is always included.
        relations = [Relation("a", {"v": sorted(a)}),
                     Relation("b", {"v": sorted(b)})]
        hd = HashedDomain("v", 2**14, seed=5)
        system = PrismSystem.build(relations, hd, "v", seed=5)
        result = set(system.psi("v").values)
        cells_b = {hd.cell_of(x) for x in b}
        assert result == {x for x in a if hd.cell_of(x) in cells_b}
        assert a & b <= result


class TestCsvIO:
    def test_roundtrip(self, tmp_path):
        rel = Relation("t", {"k": ["a", "b"], "v": [1, -2]})
        path = tmp_path / "t.csv"
        write_relation_csv(rel, path)
        loaded = read_relation_csv(path)
        assert loaded.name == "t"
        assert loaded.column("k") == ["a", "b"]
        assert loaded.column("v") == [1, -2]

    def test_integer_parsing(self, tmp_path):
        path = tmp_path / "x.csv"
        path.write_text("a,b\n007,+3\nhello,-9\n")
        rel = read_relation_csv(path)
        assert rel.column("a") == [7, "hello"]
        assert rel.column("b") == [3, -9]

    def test_custom_name_and_delimiter(self, tmp_path):
        path = tmp_path / "x.csv"
        path.write_text("a;b\n1;2\n")
        rel = read_relation_csv(path, name="custom", delimiter=";")
        assert rel.name == "custom"
        assert rel.column("b") == [2]

    def test_blank_lines_tolerated(self, tmp_path):
        path = tmp_path / "x.csv"
        path.write_text("a\n1\n\n2\n")
        assert read_relation_csv(path).column("a") == [1, 2]

    def test_empty_file_rejected(self, tmp_path):
        path = tmp_path / "empty.csv"
        path.write_text("")
        from repro.exceptions import QueryError
        with pytest.raises(QueryError):
            read_relation_csv(path)

    def test_ragged_row_rejected(self, tmp_path):
        path = tmp_path / "x.csv"
        path.write_text("a,b\n1\n")
        from repro.exceptions import QueryError
        with pytest.raises(QueryError):
            read_relation_csv(path)

    def test_blank_header_rejected(self, tmp_path):
        path = tmp_path / "x.csv"
        path.write_text("a,,c\n1,2,3\n")
        from repro.exceptions import QueryError
        with pytest.raises(QueryError):
            read_relation_csv(path)

    def test_end_to_end_from_csv(self, tmp_path):
        for name, keys in (("h1", [1, 2]), ("h2", [2, 3])):
            (tmp_path / f"{name}.csv").write_text(
                "k\n" + "\n".join(str(k) for k in keys) + "\n")
        relations = [read_relation_csv(tmp_path / "h1.csv"),
                     read_relation_csv(tmp_path / "h2.csv")]
        system = PrismSystem.build(relations, Domain("k", [1, 2, 3]), "k")
        assert system.psi("k").values == [2]


class TestExtremaVerification:
    def make(self, server_factories=None):
        relations = [Relation("a", {"k": [1, 1], "v": [10, 25]}),
                     Relation("b", {"k": [1], "v": [40]})]
        domain = Domain("k", [1, 2])
        return PrismSystem.build(relations, domain, "k",
                                 agg_attributes=("v",), seed=4,
                                 server_factories=server_factories or {})

    def test_honest_passes(self):
        system = self.make()
        result = system.psi_max("k", "v", verify=True)
        assert result.per_value == {1: 40}

    def test_tampering_detected(self):
        from repro.entities.server import PrismServer

        class FlipOnceServer(PrismServer):
            """Corrupts the extrema array on its first collection only."""

            def __init__(self, index, params):
                super().__init__(index, params)
                self.calls = 0

            def extrema_collect(self, owner_shares):
                out = super().extrema_collect(owner_shares)
                self.calls += 1
                if self.calls == 1:
                    # Shift by half the modulus: large enough to change
                    # which slot the announcer reports as the maximum.
                    q = self.params.extrema_modulus
                    out[0] = (out[0] + q // 2) % q
                return out

        system = self.make({0: lambda i, p: FlipOnceServer(i, p)})
        with pytest.raises(VerificationError):
            system.psi_max("k", "v", verify=True, reveal_holders=False)


class TestAnnouncerDrivenBucketization:
    def make(self, announcer_knows_eta=True):
        sets = [{4, 7, 8, 30}, {1, 7, 8, 30}]
        relations = [Relation(f"o{i}", {"A": sorted(s)})
                     for i, s in enumerate(sets)]
        domain = Domain.integer_range("A", 64)
        system = PrismSystem.build(relations, domain, "A", seed=6,
                                   announcer_knows_eta=announcer_knows_eta)
        system.outsource_bucketized("A", fanout=4)
        return system

    def test_matches_owner_driven(self):
        system = self.make()
        result, stats = system.bucketized_psi("A", announcer_driven=True)
        assert set(result.values) == {7, 8, 30}
        owner_result, owner_stats = system.bucketized_psi("A")
        assert set(owner_result.values) == set(result.values)
        assert stats["actual_domain_size"] == owner_stats["actual_domain_size"]

    def test_requires_eta_grant(self):
        system = self.make(announcer_knows_eta=False)
        with pytest.raises(ProtocolError):
            system.bucketized_psi("A", announcer_driven=True)

    def test_announcer_receives_intermediate_levels(self):
        from repro.network.message import Role
        system = self.make()
        system.transport.reset()
        system.bucketized_psi("A", announcer_driven=True)
        to_announcer = system.transport.stats.bytes_between(
            Role.SERVER, Role.ANNOUNCER)
        assert to_announcer > 0
