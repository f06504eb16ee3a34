"""The owner's array paths against per-row references.

Domains map whole vectors (``cells_of``/``values_at``) and owners build
χ tables, group sums and counts, and decode results from those arrays.
These tests pin every array path to the scalar ``cell_of``/``value_of``
and to ``Relation.group_by_*``, and pin the stored share columns of three
seeded deployments to digests recorded before the array paths existed,
so any drift in the share draws fails here.
"""

from __future__ import annotations

import hashlib

import numpy as np
import pytest
from hypothesis import example, given, settings, strategies as st

from repro import Domain, PrismSystem, Relation
from repro.data.domain import HashedDomain, ProductDomain
from repro.entities.initiator import IndicatorShareCache, Initiator
from repro.entities.owner import DBOwner
from repro.exceptions import DomainError, ParameterError, QueryError

RANGE = Domain.integer_range("k", 12, start=-3)
NAMES = Domain("k", ["ant", "bee", "cat", "dog", "eel"])
PRODUCT = ProductDomain([Domain.integer_range("a", 4, start=2),
                         Domain("b", ["x", "y", "z"])])
HASHED = HashedDomain("k", 16, seed=3)

#: Candidate inputs per domain: members plus the values every domain
#: must refuse exactly as ``cell_of`` does.
_MISSES = [3.5, "x", None, -4, 9]
_CANDIDATES = {
    "range": list(range(-3, 9)) + [0.0, 2.0] + _MISSES,
    "names": NAMES.values() + _MISSES,
    "product": [(a, b) for a in (2, 3, 4, 5) for b in "xyz"]
               + [(1, "x"), (2, "w"), (2,), None, 3.5],
    "hashed": list(range(-3, 9)) + ["ant", "bee", b"raw", True, 3.5, None],
}
_DOMAINS = {"range": RANGE, "names": NAMES, "product": PRODUCT,
            "hashed": HASHED}


def _outcome(call):
    try:
        return call()
    except Exception as exc:  # the exception type is the outcome
        return type(exc)


@pytest.mark.parametrize("name", sorted(_DOMAINS))
@settings(max_examples=60, deadline=None)
@given(data=st.data())
def test_cells_of_matches_cell_of(name, data):
    domain = _DOMAINS[name]
    xs = data.draw(st.lists(st.sampled_from(_CANDIDATES[name]), max_size=8))
    got = _outcome(lambda: domain.cells_of(xs).tolist())
    want = _outcome(lambda: [domain.cell_of(x) for x in xs])
    assert got == want
    if isinstance(want, type):
        assert want in (DomainError, TypeError)


@settings(max_examples=40, deadline=None)
@given(xs=st.lists(st.integers(-6, 12), max_size=10))
@example(xs=[-4])
@example(xs=[9])
def test_range_cells_of_integer_arrays(xs):
    """Integer arrays take the arithmetic path; it raises like cell_of."""
    for array in (np.asarray(xs, dtype=np.int64),
                  np.asarray(xs, dtype=np.int16)):
        got = _outcome(lambda: RANGE.cells_of(array).tolist())
        want = _outcome(lambda: [RANGE.cell_of(int(x)) for x in xs])
        assert got == want


@pytest.mark.parametrize("name", ["range", "names", "product"])
@settings(max_examples=60, deadline=None)
@given(data=st.data())
def test_values_at_matches_value_of(name, data):
    domain = _DOMAINS[name]
    cells = data.draw(st.lists(st.integers(-2, domain.size + 1),
                               max_size=8))
    got = _outcome(lambda: domain.values_at(np.asarray(cells, np.int64)))
    want = _outcome(lambda: [domain.value_of(c) for c in cells])
    assert got == want
    if got is not DomainError:
        assert [type(v) for v in got] == [type(v) for v in want]


def test_hashed_values_at_raises():
    with pytest.raises(DomainError):
        HASHED.values_at([0])


def _owner(domain, columns) -> DBOwner:
    params = Initiator(3, domain, seed=4).owner_params()
    return DBOwner(0, params, Relation("r", columns), seed=4)


def _reference_vectors(owner, domain, attribute, keys):
    """χ, sums and counts built per row from Relation.group_by_*."""
    relation = owner.relation
    chi = np.zeros(domain.size, dtype=np.int64)
    for key in dict.fromkeys(keys):
        chi[domain.cell_of(key)] = 1
    sums = np.zeros(domain.size, dtype=np.int64)
    for key, total in relation.group_by_sum(attribute, "x").items():
        sums[domain.cell_of(key)] += total
    counts = np.zeros(domain.size, dtype=np.int64)
    for key, count in relation.group_by_count(attribute).items():
        counts[domain.cell_of(key)] += count
    return chi, sums, counts


@pytest.mark.parametrize("name", ["range", "names", "hashed"])
@settings(max_examples=40, deadline=None)
@given(data=st.data())
def test_owner_builders_match_group_by(name, data):
    domain = _DOMAINS[name]
    # Keys are members of the domain.  Bools are left out: the reference's
    # dicts merge ``True`` with ``1`` while a hashed domain hashes them to
    # different cells, and the owner maps every row by its own cell.
    members = [v for v in _CANDIDATES[name]
               if _outcome(lambda v=v: domain.cell_of(v)) is not DomainError
               and not isinstance(v, (bool, float))]
    keys = data.draw(st.lists(st.sampled_from(members), max_size=12))
    xs = data.draw(st.lists(st.integers(0, 1000), min_size=len(keys),
                            max_size=len(keys)))
    owner = _owner(domain, {"k": keys, "x": xs})
    chi, sums, counts = _reference_vectors(owner, domain, "k", keys)
    assert owner.build_indicator("k").tolist() == chi.tolist()
    assert owner.build_group_sums("k", "x").tolist() == sums.tolist()
    assert owner.build_group_counts("k").tolist() == counts.tolist()
    member = data.draw(st.lists(st.booleans(), min_size=domain.size,
                                max_size=domain.size))
    member = np.asarray(member)
    decoded = owner.decode_cells(member, "k")
    if domain.invertible:
        want = [domain.value_of(c) for c in range(domain.size) if member[c]]
    else:
        want = [v for v in dict.fromkeys(keys) if member[domain.cell_of(v)]]
    assert decoded == want


@settings(max_examples=30, deadline=None)
@given(rows=st.lists(st.tuples(st.integers(2, 5), st.sampled_from("xyz")),
                     max_size=10))
def test_product_indicator_and_decoding(rows):
    a = [r[0] for r in rows]
    b = [r[1] for r in rows]
    owner = _owner(PRODUCT, {"a": a, "b": b})
    chi = np.zeros(PRODUCT.size, dtype=np.int64)
    for t in rows:
        chi[PRODUCT.cell_of(t)] = 1
    assert owner.build_indicator(("a", "b")).tolist() == chi.tolist()
    assert owner.decode_cells(chi == 1) == sorted(
        set(rows), key=PRODUCT.cell_of)


def test_aggregate_per_value_matches_per_cell_loop():
    owner = _owner(RANGE, {"k": [0], "x": [1]})
    rng = np.random.default_rng(9)
    member = rng.random(RANGE.size) < 0.5
    totals = rng.integers(0, 50, RANGE.size)
    counts = rng.integers(0, 3, RANGE.size)
    sums = {RANGE.value_of(c): int(totals[c]) for c in np.flatnonzero(member)}
    avgs = {RANGE.value_of(c): (int(totals[c]) / int(counts[c])
                                if counts[c] else 0.0)
            for c in np.flatnonzero(member)}
    assert owner.aggregate_per_value(member, totals) == sums
    got = owner.aggregate_per_value(member, totals, counts)
    assert got == avgs
    assert all(type(got[v]) is float for v in got)


# -- aggregation columns Shamir cannot carry ----------------------------------


def _agg_system(columns, domain=None):
    domain = domain or Domain.integer_range("v", 8)
    relations = [Relation(f"o{i}", c) for i, c in enumerate(columns)]
    return PrismSystem.build(relations, domain, "v", agg_attributes=("x",),
                             seed=2)


@pytest.mark.parametrize("bad, shown", [
    ([0.5, 0.4], "0.5"),
    ([-3, 1], "-3"),
    ([1, "7"], "'7'"),
    ([1, None], "None"),
])
def test_non_field_aggregation_values_raise(bad, shown):
    good = {"v": [1, 2], "x": [4, 5]}
    with pytest.raises(QueryError) as info:
        _agg_system([good, {"v": [1, 1], "x": bad}, good])
    message = str(info.value)
    assert "owner 1" in message and "'x'" in message and shown in message


def test_cell_total_reaching_the_field_prime_raises():
    prime = 2_147_483_647
    owner_rows = {"v": [3, 3, 5], "x": [prime - 10, 10, 1]}
    with pytest.raises(QueryError) as info:
        _agg_system([{"v": [1], "x": [1]}, owner_rows, {"v": [1], "x": [1]}])
    message = str(info.value)
    assert "owner 1" in message and "'x'" in message
    assert str(prime) in message and "v = 3" in message


def test_field_values_below_the_prime_still_sum():
    prime = 2_147_483_647
    system = _agg_system([{"v": [1, 1], "x": [prime - 2, 1]},
                          {"v": [1], "x": [0]}, {"v": [1], "x": [0]}])
    assert system.psi_sum("v", "x")["x"].per_value == {1: prime - 1}


# -- hashed-domain aggregation fails before round 1 -----------------------------


@pytest.mark.parametrize("kind", ["psi_sum", "psi_average", "psu_sum"])
def test_hashed_domain_aggregation_refused_before_any_round(kind):
    domain = HashedDomain("v", 64, seed=1)
    system = _agg_system([{"v": [1, 2], "x": [3, 4]}] * 3, domain=domain)
    stats = system.transport.stats
    before = (stats.total_messages, stats.total_bytes)
    run = {"psi_sum": lambda: system.psi_sum("v", "x"),
           "psi_average": lambda: system.psi_average("v", "x"),
           "psu_sum": lambda: system.psu_sum("v", "x")}[kind]
    with pytest.raises(QueryError, match="hashed"):
        run()
    assert (stats.total_messages, stats.total_bytes) == before


# -- indicator-cache keys -------------------------------------------------------


def test_cache_key_refuses_non_indicator_vectors():
    for bad in ([0, 2], [0, -1], [0.5, 1]):
        with pytest.raises(ParameterError):
            IndicatorShareCache.key("z", 0, "k", None, np.asarray(bad))


def test_cache_key_separates_lengths_and_contents():
    key = IndicatorShareCache.key
    a = key("z", 0, "k", None, np.asarray([1, 0, 0], dtype=np.int64))
    assert a == key("z", 0, "k", None, np.asarray([True, False, False]))
    assert a != key("z", 0, "k", None, np.asarray([1, 0, 0, 0]))
    assert a != key("z", 0, "k", None, np.asarray([0, 1, 0]))


# -- golden digests of every stored share column ---------------------------------


def _hospital_system():
    relations = [
        Relation("hospital1", {"disease": ["Cancer", "Cancer", "Heart"],
                               "cost": [100, 200, 300], "age": [4, 6, 2]}),
        Relation("hospital2", {"disease": ["Cancer", "Fever", "Fever"],
                               "cost": [100, 70, 50], "age": [8, 5, 4]}),
        Relation("hospital3", {"disease": ["Cancer", "Cancer", "Heart"],
                               "cost": [300, 700, 500], "age": [8, 4, 5]}),
    ]
    domain = Domain("disease", ["Cancer", "Fever", "Heart"])
    return PrismSystem.build(relations, domain, "disease",
                             agg_attributes=("cost", "age"),
                             with_verification=True, seed=11)


def _range_system():
    rng = np.random.default_rng(20)
    domain = Domain.integer_range("k", 700, start=-50)
    relations = []
    for i in range(3):
        keys = rng.integers(-50, 650, size=400)
        relations.append(Relation(f"o{i}", {
            "k": keys.tolist(),
            "x": rng.integers(0, 10_000, size=400).tolist(),
            "y": rng.integers(0, 3, size=400).tolist(),
        }))
    return PrismSystem.build(relations, domain, "k", agg_attributes=("x", "y"),
                             with_verification=True, seed=21)


def _masked_system():
    relations = [Relation(f"o{i}", {"k": list(range(i, 40, i + 2))})
                 for i in range(3)]
    return PrismSystem.build(relations, Domain.integer_range("k", 64, start=0),
                             "k", mask_zeros=True, seed=22)


def _store_digest(system) -> str:
    digest = hashlib.sha256()
    for index, server in enumerate(system.servers):
        store = server.store
        for owner in range(len(system.owners)):
            for column in store.columns_of(owner):
                stored = store.get(owner, column)
                digest.update(f"{index}/{owner}/{column}/"
                              f"{stored.kind.name}".encode())
                digest.update(stored.values.astype("<i8").tobytes())
    return digest.hexdigest()


#: SHA-256 of every stored column, recorded with the per-row owner code.
_GOLDEN = {
    "hospital": "11e8b3b21feac321091d82d98fb9297ca983f96fda1eee3d4dc23d6a3bc8bb03",
    "range": "e0898354f788145439cd9355c4b69bd604fb3ecfae21328b641118b8dacfe874",
    "masked": "15c18392bd6157af312a684c7e6e43d6c69e0f39653a8f5cefea68d97ea66817",
}


@pytest.mark.parametrize("build, expected", [
    (_hospital_system, _GOLDEN["hospital"]),
    (_range_system, _GOLDEN["range"]),
    (_masked_system, _GOLDEN["masked"]),
])
def test_stored_share_columns_match_golden_digest(build, expected):
    system = build()
    try:
        assert _store_digest(system) == expected
    finally:
        system.close()
