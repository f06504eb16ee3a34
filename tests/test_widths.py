"""The width axis: every share stream at the width of its modulus.

Each stored column and each stream is the narrowest unsigned dtype that
holds its modulus minus one (:func:`repro.crypto.widths.share_dtype`).
The matrix below runs the ten batchable query forms (PSI/PSU, counts,
sums, average, verified variants) against the plaintext oracles for

* δ ∈ {101 (uint8 χ shares), 257 (uint16 χ shares; η' = 20059)},
* shards ∈ {1, 2},
* tier ∈ {compiled C, ``REPRO_KERNELS=off``},
* deployment ∈ {local, subprocess + shared-memory arena, TCP hosts},

and asserts that every stored column has the width function's dtype,
that on the C tier no sweep ever falls back to a numpy twin, and that
the adversaries of :mod:`repro.entities.adversary` are still caught at
both widths.
"""

from __future__ import annotations

import multiprocessing

import numpy as np
import pytest

from repro import Domain, PrismClient, PrismSystem, Q, Relation, kernels
from repro.core.aggregate import aggregate_reference
from repro.core.psi import psi_reference
from repro.core.psu import psu_reference
from repro.core.results import AggregateResult, CountResult, SetResult
from repro.crypto.widths import share_dtype
from repro.data.storage import ShareKind
from repro.entities import server as server_module
from repro.entities.adversary import (
    DropAggregateServer,
    InjectFakeServer,
    SkipCellsServer,
)
from repro.exceptions import VerificationError
from repro.network.host import launch_forked_hosts
from repro.network.rpc import RESULT, Channel, RpcMessage

fork_available = "fork" in multiprocessing.get_all_start_methods()

#: δ → (χ share dtype, group-element dtype).
WIDTHS = {101: (np.uint8, np.uint16), 257: (np.uint16, np.uint16)}
#: 4096 one-byte shares clear the shared-memory arena's threshold, and
#: every shard span clears the compiled tier's crossover.
DOMAIN = 4096
OWNERS = 4
TIERS = ["c", "off"]
DEPLOYMENTS = ["local", "shm", "tcp"]


def relations():
    rng = np.random.default_rng(5)
    common = rng.choice(DOMAIN, size=40, replace=False)
    out = []
    for i in range(OWNERS):
        own = rng.choice(DOMAIN, size=300, replace=False)
        keys = np.unique(np.concatenate([common, own]))
        out.append(Relation(f"o{i}", {
            "OK": keys.tolist(),
            "DT": rng.integers(0, 1000, size=keys.size).tolist()}))
    return out


def _sql(projection, op):
    return f" {op} ".join(f"SELECT {projection} FROM o{i}"
                          for i in range(OWNERS))


def oracle(rels):
    psi = psi_reference(rels, "OK")
    psu = psu_reference(rels, "OK")
    return {
        "psi": sorted(psi), "psu": sorted(psu),
        "psi_sum": aggregate_reference(rels, "OK", "DT", psi),
        "psi_avg": aggregate_reference(rels, "OK", "DT", psi, op="avg"),
        "psu_sum": aggregate_reference(rels, "OK", "DT", psu),
    }


def ten_forms():
    """``(name, query, check(result, oracle))`` for the ten forms."""
    def same(a, b):
        return a.keys() == b.keys() and all(
            abs(a[k] - b[k]) <= 1e-9 * max(1.0, abs(b[k])) for k in a)

    return [
        ("psi", _sql("OK", "INTERSECT"),
         lambda r, o: isinstance(r, SetResult) and sorted(r.values) == o["psi"]),
        ("psu", _sql("OK", "UNION"),
         lambda r, o: isinstance(r, SetResult) and sorted(r.values) == o["psu"]),
        ("psi_count", _sql("COUNT(OK)", "INTERSECT"),
         lambda r, o: isinstance(r, CountResult) and r.count == len(o["psi"])),
        ("psu_count", _sql("COUNT(OK)", "UNION"),
         lambda r, o: isinstance(r, CountResult) and r.count == len(o["psu"])),
        ("psi_sum", _sql("OK, SUM(DT)", "INTERSECT"),
         lambda r, o: isinstance(r, AggregateResult)
         and r.per_value == o["psi_sum"]),
        ("psi_avg", Q.psi("OK").avg("DT"),
         lambda r, o: isinstance(r, AggregateResult)
         and same(r.per_value, o["psi_avg"])),
        ("psu_sum", Q.psu("OK").sum("DT"),
         lambda r, o: isinstance(r, AggregateResult)
         and r.per_value == o["psu_sum"]),
        ("psi_verified", _sql("OK", "INTERSECT") + " VERIFY",
         lambda r, o: isinstance(r, SetResult) and r.verified
         and sorted(r.values) == o["psi"]),
        ("psu_verified", Q.psu("OK").verify(),
         lambda r, o: isinstance(r, SetResult) and r.verified
         and sorted(r.values) == o["psu"]),
        ("psi_sum_verified", Q.psi("OK").sum("DT").verify(),
         lambda r, o: isinstance(r, AggregateResult) and r.verified
         and r.per_value == o["psi_sum"]),
    ]


@pytest.fixture(params=TIERS)
def tier(request, monkeypatch):
    """Select a kernel tier (forked hosts inherit it).

    On the C tier the numpy twins are replaced by tripwires before any
    host forks, so a sweep that silently fell back — in this process
    or in an entity host — fails the query instead of passing slowly.
    """
    mode = request.param
    if mode == "c" and not kernels.available():
        pytest.skip("compiled kernel tier unavailable (no C toolchain)")
    monkeypatch.setenv(kernels.MODE_ENV, mode)
    assert kernels.configure(None) == ("c" if mode == "c" else "numpy")
    if mode == "c":
        for name in ("numpy_psi_sweep", "numpy_sum_sweep",
                     "numpy_psu_sweep", "numpy_agg_sweep"):
            monkeypatch.setattr(server_module, name, _tripwire(name))
    yield mode
    monkeypatch.undo()
    kernels.configure(None)


def _tripwire(name):
    def fallback(*args, **kwargs):
        raise AssertionError(f"{name} ran: a sweep left the compiled tier")
    return fallback


def _deploy(deployment, delta, num_shards, **kwargs):
    """Build the fleet; returns ``(system, host processes)``."""
    processes = []
    spec = deployment
    if deployment == "tcp":
        if not fork_available:
            pytest.skip("fork-based entity hosts unavailable")
        spec, processes = launch_forked_hosts(3)
    system = PrismSystem.build(
        relations(), Domain.integer_range("OK", DOMAIN), "OK",
        agg_attributes=("DT",), with_verification=True, seed=7,
        delta=delta, num_shards=num_shards, deployment=spec, **kwargs)
    return system, processes


def _teardown(system, processes):
    system.close()
    for process in processes:
        process.terminate()
    for process in processes:
        process.join(timeout=10)


@pytest.mark.parametrize("deployment", DEPLOYMENTS)
@pytest.mark.parametrize("num_shards", [1, 2])
@pytest.mark.parametrize("delta", sorted(WIDTHS))
def test_ten_forms_match_the_oracle(delta, num_shards, deployment, tier):
    system, processes = _deploy(deployment, delta, num_shards)
    try:
        chi, group = WIDTHS[delta]
        params = system.servers[0].params
        assert params.additive_dtype == chi
        assert params.group_dtype == group
        if deployment == "local":
            for server in system.servers:
                for owner in range(OWNERS):
                    for column in server.store.columns_of(owner):
                        stored = server.store.get(owner, column)
                        assert stored.values.dtype == share_dtype(
                            params.modulus_of(stored.kind)), column
        else:
            # Hosted stores answer fetches over the wire, where every
            # share must arrive at exactly its width.
            for column in ("OK", "vOK", "cOK", "cvOK"):
                for share in system.servers[1].fetch_additive(column):
                    assert share.dtype == chi, column
            for column in ("DT", "vDT", "aOK"):
                for share in system.servers[2].fetch_shamir(column):
                    assert share.dtype == np.uint32, column
        expected = oracle(relations())
        client = PrismClient(system)
        try:
            for name, query, check in ten_forms():
                assert check(client.execute(query), expected), name
        finally:
            client.close()
    finally:
        _teardown(system, processes)


def test_widths_follow_the_moduli():
    system, _ = _deploy("local", 257, 1)
    try:
        params = system.servers[0].params
        assert params.group.eta_prime == 20059
        assert params.additive_dtype == np.uint16
        assert params.shamir_dtype == np.uint32
        stored = system.servers[2].store.get(0, "DT")
        assert stored.kind is ShareKind.SHAMIR
        assert stored.values.dtype == np.uint32
    finally:
        system.close()


@pytest.mark.parametrize("deployment", ["local", "tcp"])
@pytest.mark.parametrize("delta", sorted(WIDTHS))
@pytest.mark.parametrize("adversary,index,query", [
    (SkipCellsServer, 1, _sql("OK", "INTERSECT") + " VERIFY"),
    (InjectFakeServer, 0, _sql("OK", "INTERSECT") + " VERIFY"),
    (DropAggregateServer, 2, Q.psi("OK").sum("DT").verify()),
])
def test_adversaries_caught_at_every_width(adversary, index, query, delta,
                                           deployment, tier):
    system, processes = _deploy(deployment, delta, 2,
                                server_factories={index: adversary})
    try:
        client = PrismClient(system)
        try:
            with pytest.raises(VerificationError):
                client.execute(query)
        finally:
            client.close()
    finally:
        _teardown(system, processes)


# -- the wire boundaries ---------------------------------------------------------


class _CannedChannel(Channel):
    """A channel whose every request gets one canned reply."""

    def __init__(self, reply):
        self.reply = reply

    def send(self, message):
        return RpcMessage(RESULT, self.reply)


def _remote(reply):
    from repro.entities.remote import RemoteServer
    system, _ = _deploy("local", 101, 1)
    params = system.servers[0].params
    system.close()
    return RemoteServer(0, params, _CannedChannel(reply)), params


#: The round-1 kernels' outputs arrive inside an ``indicator_round``
#: reply, one matrix per sweep.
ROUND_1 = {"psi_round_batch": {"family": "psi", "columns": ["OK"]},
           "psu_round_batch": {"family": "psu", "columns": ["OK"],
                               "nonces": [1]}}


@pytest.mark.parametrize("kernel,args,reply,match", [
    ("psi_round_batch", (), [np.zeros((1, 8), dtype=np.int64)],
     "arrived as int64, expected uint16"),
    ("psi_round_batch", (), [np.full((1, 8), 7891, dtype=np.uint16)],
     "outside"),
    ("psu_round_batch", (), [np.zeros((1, 8), dtype=np.uint16)],
     "expected uint8"),
    ("psu_round_batch", (), [np.full((1, 8), 101, dtype=np.uint8)],
     "outside"),
    ("aggregate_round_batch", (["DT"], np.zeros((1, 8), dtype=np.uint32)),
     np.zeros((1, 8), dtype=np.uint64), "expected uint32"),
    ("psi_round_batch", (), [[[1, 2]]], "arrived as list"),
    ("psi_round_batch", (), np.zeros((1, 8), dtype=np.uint16),
     "one output per sweep"),
])
def test_remote_replies_must_arrive_at_their_width(kernel, args, reply,
                                                   match):
    from repro.exceptions import ProtocolError
    remote, _ = _remote(reply)
    with pytest.raises(ProtocolError, match=match):
        if kernel in ROUND_1:
            remote.indicator_round([ROUND_1[kernel]])
        else:
            getattr(remote, kernel)(*args)


@pytest.mark.parametrize("values,kind,match", [
    (np.zeros(4, dtype=np.int64), "additive", "expected uint8"),
    (np.full(4, 101, dtype=np.uint8), "additive", "outside"),
    (np.zeros(4, dtype=np.uint8), "shamir", "expected uint32"),
])
def test_host_refuses_mis_sized_share_streams(values, kind, match):
    from repro.network.host import ServerAdapter
    from repro.network.rpc import RpcMessage
    system, _ = _deploy("local", 101, 1)
    try:
        adapter = ServerAdapter(system.servers[0])
        reply = adapter.dispatch(RpcMessage(
            "receive_shares", {"a": [0, "X", values, kind], "k": {}}))
        assert reply.kind == "__error__"
        assert "owner 0" in reply.payload["message"]
        assert match in reply.payload["message"]
        z = np.zeros((1, DOMAIN), dtype=np.int64)
        reply = adapter.dispatch(RpcMessage(
            "aggregate_round_batch", {"a": [["DT"], z], "k": {}}))
        assert reply.kind == "__error__"
        assert "expected uint32" in reply.payload["message"]
    finally:
        system.close()
