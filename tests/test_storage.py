"""Unit tests for the server-side share store (Table 11 layout)."""

import numpy as np
import pytest

from repro.data.storage import ServerStore, ShareKind
from repro.exceptions import ProtocolError


@pytest.fixture()
def store():
    s = ServerStore()
    s.put(0, "OK", np.asarray([1, 2, 3]), ShareKind.ADDITIVE)
    s.put(1, "OK", np.asarray([4, 5, 6]), ShareKind.ADDITIVE)
    s.put(0, "PK", np.asarray([7, 8, 9]), ShareKind.SHAMIR)
    return s


class TestStore:
    def test_get(self, store):
        col = store.get(0, "OK")
        assert col.kind is ShareKind.ADDITIVE
        assert col.values.tolist() == [1, 2, 3]

    def test_missing(self, store):
        with pytest.raises(ProtocolError):
            store.get(9, "OK")

    def test_has(self, store):
        assert store.has(0, "OK")
        assert not store.has(0, "nope")

    def test_overwrite(self, store):
        store.put(0, "OK", np.asarray([9, 9, 9]), ShareKind.ADDITIVE)
        assert store.get(0, "OK").values.tolist() == [9, 9, 9]
        assert len(store) == 3

    def test_owners_with(self, store):
        assert store.owners_with("OK") == [0, 1]
        assert store.owners_with("PK") == [0]
        assert store.owners_with("nope") == []

    def test_columns_of(self, store):
        assert store.columns_of(0) == ["OK", "PK"]
        assert store.columns_of(1) == ["OK"]

    def test_fetch_column_ordered(self, store):
        shares = store.fetch_column("OK", ShareKind.ADDITIVE)
        assert [s.tolist() for s in shares] == [[1, 2, 3], [4, 5, 6]]

    def test_fetch_subset(self, store):
        shares = store.fetch_column("OK", ShareKind.ADDITIVE, owner_ids=[1])
        assert len(shares) == 1
        assert shares[0].tolist() == [4, 5, 6]

    def test_fetch_wrong_kind(self, store):
        with pytest.raises(ProtocolError):
            store.fetch_column("OK", ShareKind.SHAMIR)

    def test_fetch_unknown_column(self, store):
        with pytest.raises(ProtocolError):
            store.fetch_column("nope", ShareKind.ADDITIVE)

    def test_nbytes_positive(self, store):
        assert store.nbytes == 3 * 3 * 8

    def test_values_keep_their_integer_width(self):
        s = ServerStore()
        s.put(0, "c", np.asarray([1, 2], dtype=np.uint8), ShareKind.ADDITIVE)
        assert s.get(0, "c").values.dtype == np.uint8

    def test_non_integer_values_rejected(self):
        s = ServerStore()
        with pytest.raises(ProtocolError, match="integers"):
            s.put(0, "c", np.asarray([0.9, 300.5]), ShareKind.ADDITIVE)
        assert not s.has(0, "c")


class TestMemoVersions:
    """Both memos keep an entry only if no put ran since its inputs were
    read."""

    def test_fetch_racing_a_put_does_not_cache_the_old_shares(self):
        new = np.asarray([7, 7, 7])

        class RacingStore(ServerStore):
            raced = False

            def get(self, owner_id, column):
                stored = super().get(owner_id, column)
                if not self.raced:
                    self.raced = True
                    self.put(0, "OK", new, ShareKind.ADDITIVE)
                return stored

        store = RacingStore()
        store.put(0, "OK", np.asarray([1, 2, 3]), ShareKind.ADDITIVE)
        store.put(1, "OK", np.asarray([4, 5, 6]), ShareKind.ADDITIVE)
        store.fetch_column("OK", ShareKind.ADDITIVE)
        assert store.fetch_column("OK", ShareKind.ADDITIVE)[0].tolist() == \
            new.tolist()

    def test_summed_vector_kept_only_at_its_version(self, store):
        version = store.version
        vector = np.asarray([5, 7, 9])
        store.put(1, "OK", np.asarray([0, 0, 0]), ShareKind.ADDITIVE)
        store.keep_summed("OK", ShareKind.ADDITIVE, None, vector, version)
        assert store.summed("OK", ShareKind.ADDITIVE) is None
        store.keep_summed("OK", ShareKind.ADDITIVE, None, vector,
                          store.version)
        assert store.summed("OK", ShareKind.ADDITIVE) is vector
        assert store.summed("OK", ShareKind.ADDITIVE, [0]) is None
        assert store.summed("OK", ShareKind.SHAMIR) is None
        info = store.fetch_cache_info()
        assert (info["sums"], info["sum_builds"], info["sum_hits"]) == \
            (1, 2, 1)
        store.put(0, "PK", np.asarray([1, 1, 1]), ShareKind.SHAMIR)
        assert store.fetch_cache_info()["sums"] == 0
        assert store.summed("OK", ShareKind.ADDITIVE) is None
