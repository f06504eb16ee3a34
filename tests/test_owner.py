"""Unit tests for owner-side computations (χ tables, shares, finalisation)."""

import numpy as np
import pytest

from repro.data.domain import Domain
from repro.data.relation import Relation
from repro.data.storage import ShareKind
from repro.entities.initiator import Initiator
from repro.entities.owner import DBOwner
from repro.entities.server import PrismServer
from repro.exceptions import ProtocolError, ShareError


@pytest.fixture()
def setup():
    domain = Domain("disease", ["Cancer", "Fever", "Heart"])
    initiator = Initiator(2, domain, seed=3)
    rel = Relation("h", {
        "disease": ["Cancer", "Cancer", "Heart"],
        "cost": [100, 200, 300],
    })
    owner = DBOwner(0, initiator.owner_params(), relation=rel, seed=3)
    servers = [PrismServer(i, initiator.server_params(i)) for i in range(3)]
    return initiator, owner, servers


class TestIndicator:
    def test_chi_matches_table5(self, setup):
        # Hospital 1 treats Cancer and Heart: chi = <1, 0, 1>.
        _, owner, _ = setup
        assert owner.build_indicator("disease").tolist() == [1, 0, 1]

    def test_complement_is_permuted_complement(self, setup):
        _, owner, _ = setup
        chi = owner.build_indicator("disease")
        complement = owner.build_complement(chi)
        unpermuted = owner.params.pf_db1.invert(complement)
        assert np.array_equal(unpermuted, 1 - chi)

    def test_tuple_attribute(self, setup):
        initiator, _, _ = setup
        from repro.data.domain import ProductDomain
        pd = ProductDomain([Domain("disease", ["Cancer", "Heart"]),
                            Domain("cost", [100, 200, 300])])
        init2 = Initiator(2, pd, seed=1)
        rel = Relation("h", {"disease": ["Cancer", "Heart"],
                             "cost": [100, 300]})
        owner = DBOwner(0, init2.owner_params(), relation=rel, seed=1)
        chi = owner.build_indicator(("disease", "cost"))
        assert chi.sum() == 2
        assert chi[pd.cell_of(("Cancer", 100))] == 1
        assert chi[pd.cell_of(("Heart", 300))] == 1

    def test_no_relation_raises(self, setup):
        initiator, _, _ = setup
        empty = DBOwner(1, initiator.owner_params(), relation=None)
        with pytest.raises(ProtocolError):
            empty.build_indicator("disease")


class TestAggregationVectors:
    def test_group_sums(self, setup):
        _, owner, _ = setup
        vec = owner.build_group_sums("disease", "cost")
        assert vec.tolist() == [300, 0, 300]

    def test_group_counts(self, setup):
        _, owner, _ = setup
        vec = owner.build_group_counts("disease")
        assert vec.tolist() == [2, 0, 1]


class TestOutsourcing:
    def test_columns_created(self, setup):
        _, owner, servers = setup
        owner.outsource(servers, "disease", ("cost",), with_verification=True)
        for server in servers[:2]:
            cols = set(server.store.columns_of(0))
            assert {"disease", "vdisease", "cdisease", "cvdisease",
                    "cost", "vcost", "adisease"} <= cols
        # The Shamir-only server gets no additive columns.
        assert not servers[2].store.has(0, "disease")
        assert servers[2].store.has(0, "cost")

    def test_share_kinds(self, setup):
        _, owner, servers = setup
        owner.outsource(servers, "disease", ("cost",))
        assert servers[0].store.get(0, "disease").kind is ShareKind.ADDITIVE
        assert servers[0].store.get(0, "cost").kind is ShareKind.SHAMIR

    def test_additive_shares_reconstruct(self, setup):
        initiator, owner, servers = setup
        owner.outsource(servers, "disease")
        a = servers[0].store.get(0, "disease").values
        b = servers[1].store.get(0, "disease").values
        assert ((a + b) % initiator.delta).tolist() == [1, 0, 1]

    def test_aggregation_with_tuple_attribute_rejected(self, setup):
        _, owner, servers = setup
        with pytest.raises(ProtocolError):
            owner.outsource(servers, ("disease", "cost"), ("cost",))

    def test_column_name(self):
        assert DBOwner._column_name("OK") == "OK"
        assert DBOwner._column_name(("A", "B")) == "A*B"
        assert DBOwner._column_name("OK", "p:") == "p:OK"


class TestFinalisation:
    def test_finalize_psi_identity_cell(self, setup):
        _, owner, _ = setup
        eta = owner.params.eta
        # outputs multiplying to 1 mod eta mark membership.
        out1 = np.asarray([1, 5], dtype=np.int64)
        out2 = np.asarray([1, 9], dtype=np.int64)
        fop = owner.finalize_psi(out1, out2)
        assert fop[0] == 1
        assert fop[1] == (45 % eta)

    def test_membership_and_decode(self, setup):
        _, owner, _ = setup
        fop = np.asarray([1, 7, 1], dtype=np.int64)
        member = owner.psi_membership(fop)
        assert member.tolist() == [True, False, True]
        assert owner.decode_cells(member) == ["Cancer", "Heart"]

    def test_finalize_psu(self, setup):
        _, owner, _ = setup
        delta = owner.params.delta
        out1 = np.asarray([3, 0, delta - 4], dtype=np.int64)
        out2 = np.asarray([delta - 3, 0, 5], dtype=np.int64)
        member = owner.finalize_psu(out1, out2)
        assert member.tolist() == [False, False, True]

    def test_finalize_aggregate_needs_three(self, setup):
        _, owner, _ = setup
        with pytest.raises(ProtocolError):
            owner.finalize_aggregate([np.zeros(3)] * 2)

    def test_misaligned_streams_are_refused(self, setup):
        """Server streams of different lengths never line up silently."""
        _, owner, _ = setup
        short, long = np.ones(3, np.uint16), np.ones(4, np.uint16)
        with pytest.raises(ProtocolError, match="line up"):
            owner.finalize_psi(short, long)
        with pytest.raises(ProtocolError, match="line up"):
            owner.verify_count(owner.finalize_psi(short, short), long, long)
        outputs = [np.ones(3, np.uint32), np.ones(4, np.uint32),
                   np.ones(3, np.uint32)]
        with pytest.raises(ShareError, match="line up"):
            owner.finalize_aggregate(outputs)


class TestExtremaSteps:
    def test_local_group_stats(self, setup):
        _, owner, _ = setup
        assert owner.local_group_max("disease", "cost", "Cancer") == 200
        assert owner.local_group_min("disease", "cost", "Cancer") == 100
        assert owner.local_group_sum("disease", "cost", "Cancer") == 300
        assert owner.local_group_max("disease", "cost", "Fever") is None

    def test_blind_and_recover(self, setup):
        _, owner, _ = setup
        blinded = owner.blind_value(42)
        shares = owner.extrema_shares(blinded)
        assert owner.recover_extremum(shares[0], shares[1]) == 42

    def test_blinding_respects_order(self, setup):
        _, owner, _ = setup
        assert owner.blind_value(10) < owner.blind_value(11)

    def test_alpha_shares_roundtrip(self, setup):
        _, owner, _ = setup
        q = owner.params.extrema_modulus
        s = owner.alpha_shares(True)
        assert (s[0] + s[1]) % q == 1
        s = owner.alpha_shares(False)
        assert (s[0] + s[1]) % q == 0

    def test_holds_extremum(self, setup):
        _, owner, _ = setup
        assert owner.holds_extremum(5, 5)
        assert not owner.holds_extremum(4, 5)
        assert not owner.holds_extremum(None, 5)

    def test_finalize_fpos(self, setup):
        _, owner, _ = setup
        q = owner.params.extrema_modulus
        assert owner.finalize_fpos([3, 0], [q - 2, 0]) == [1, 0]
