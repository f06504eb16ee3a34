"""Multi-host equivalence + fault matrix: kind × shards × pool size.

The acceptance bar of the async multi-host dispatcher: every batchable
Table-4 kind (PSI/PSU membership, counts, sums, averages — verified
where supported) and every interactive kind (MAX verified and not,
MIN, MEDIAN, bucketized PSI) produces **bit-identical** results to the
seed single-shard in-process run for every ``num_shards ∈ {1, 2, 7}``
crossed with every host-pool size ``∈ {1, 2, 3}`` per server role,
with the channel counters proving that every protocol round is one
whole-round frame per server at every pool size and shard count, and
that a pool spreads those frames across its members.

The fault half of the matrix: a pool member killed or hung mid-sweep
*self-heals* — the lost frames retransmit to surviving replicas (the
result stays bit-identical), the dead seat is ejected, and the pool
reports ``degraded`` health; only an exhausted pool (every member
dead) surfaces a typed :class:`~repro.exceptions.QueryError` naming
the pool.  A malicious server hosted *by a pool* is still detected by
verification.  The deeper chaos matrix (kill × every kind × shards ×
pool sizes, supervised respawn) lives in ``test_selfheal_matrix.py``.
"""

from __future__ import annotations

import multiprocessing
import os
import signal
import time

import pytest

from repro import (
    Domain,
    PrismSystem,
    ProtocolError,
    Q,
    QueryError,
    Relation,
    VerificationError,
)
from repro.entities.adversary import InjectFakeServer, SkipCellsServer
from repro.network.host import launch_forked_pools, pools_spec
from repro.network.rpc import PING, RpcMessage

fork_available = "fork" in multiprocessing.get_all_start_methods()
needs_fork = pytest.mark.skipif(
    not fork_available, reason="fork-based entity hosts unavailable")

SHARD_COUNTS = [1, 2, 7]
POOL_SIZES = [1, 2, 3]


def relations():
    return [
        Relation("a", {"k": [1, 2, 3], "amt": [10, 20, 30]}),
        Relation("b", {"k": [2, 3, 4], "amt": [1, 2, 3]}),
        Relation("c", {"k": [2, 3, 5], "amt": [5, 6, 7]}),
    ]


def build(deployment="local", num_shards=1, **kwargs):
    return PrismSystem.build(
        relations(), Domain.integer_range("k", 16), "k",
        agg_attributes=("amt",), with_verification=True, seed=3,
        deployment=deployment, num_shards=num_shards, **kwargs)


def run_batchable(system) -> dict:
    """One query per batchable kind, verified where supported.

    Fixed order so nonce and blinding streams advance identically
    everywhere — results must match the seed run bit for bit.
    """
    psi = system.psi("k", verify=True, querier=0)
    psu = system.psu("k", verify=True, querier=0)
    sums = system.psi_sum("k", ("amt",), verify=True, querier=0)["amt"]
    avg = system.psi_average("k", ("amt",), querier=0)["amt"]
    psu_sums = system.psu_sum("k", ("amt",), querier=0)["amt"]
    return {
        "psi": psi.membership.tolist(),
        "psi_values": sorted(psi.values),
        "psi_verified": psi.verified,
        "psu": psu.membership.tolist(),
        "psu_verified": psu.verified,
        "psi_count": system.psi_count("k", verify=True, querier=0).count,
        "psu_count": system.psu_count("k", querier=0).count,
        "psi_sum": sums.per_value,
        "psi_sum_verified": sums.verified,
        "psi_average": avg.per_value,
        "psu_sum": psu_sums.per_value,
    }


def run_interactive(system) -> dict:
    """One query per interactive kind, verified where supported."""
    verified_max = system.psi_max("k", "amt", verify=True)
    min_result = system.psi_min("k", "amt")
    median = system.psi_median("k", "amt")
    system.outsource_bucketized("k", fanout=2)
    bucket_result, bucket_stats = system.bucketized_psi("k")
    return {
        "max": verified_max.per_value,
        "max_holders": verified_max.holders,
        "min": min_result.per_value,
        "min_holders": min_result.holders,
        "median": median.per_value,
        "bucket_values": sorted(bucket_result.values),
        "bucket_membership": bucket_result.membership.tolist(),
        "bucket_stats": bucket_stats,
    }


@pytest.fixture(scope="module")
def expected():
    """The seed result: single shard, in-process."""
    with build() as system:
        return {"batch": run_batchable(system),
                "interactive": run_interactive(system)}


@pytest.fixture(scope="module", params=POOL_SIZES)
def pooled_hosts(request):
    """One pool of ``param`` replica hosts per server role."""
    if not fork_available:
        pytest.skip("fork-based entity hosts unavailable")
    pools, processes = launch_forked_pools([request.param] * 3)
    yield request.param, pools_spec(pools)
    for process in processes:
        process.terminate()
    for process in processes:
        process.join(timeout=10)


#: A batch tick's queries: round 1 reaches the two additive servers,
#: the Eq. 11 round all three.
TICK = [Q.psi("k"), Q.psu("k"), Q.psi("k").count(), Q.psi("k").sum("amt")]
ADDITIVE_SERVERS, SERVERS = 2, 3


def run_round_kind(system, kind: str) -> tuple[dict, int, int]:
    """Run one batch tick or one bucketized query; returns its results,
    the frames it sent, and the frames one request per server per
    round adds up to."""
    if kind == "bucketized-level":
        system.outsource_bucketized("k", fanout=2)
    before = system.channel_stats()["requests"]
    if kind == "batch-tick":
        psi, psu, count, total = system.executor.execute_many(TICK)
        results = {"psi": psi.membership.tolist(),
                   "psu": psu.membership.tolist(),
                   "count": count.count, "sum": total.per_value}
        rounds = ADDITIVE_SERVERS + SERVERS
    else:
        result, stats = system.bucketized_psi("k")
        results = {"values": sorted(result.values),
                   "membership": result.membership.tolist(),
                   "stats": stats}
        rounds = ADDITIVE_SERVERS * stats["rounds"]
    return results, system.channel_stats()["requests"] - before, rounds


# -- the equivalence matrix ---------------------------------------------------


@needs_fork
class TestMultiHostMatrix:
    @pytest.mark.parametrize("num_shards", SHARD_COUNTS)
    def test_bit_identical(self, pooled_hosts, expected, num_shards):
        """Every kind matches the seed run on every pool size."""
        pool_size, spec = pooled_hosts
        with build(spec, num_shards=num_shards) as system:
            assert run_batchable(system) == expected["batch"]
            assert run_interactive(system) == expected["interactive"]
            for channel in system._channels:
                assert channel.stats["pool_size"] == pool_size

    @pytest.mark.parametrize("num_shards", SHARD_COUNTS)
    def test_sweeps_fan_out_as_concurrent_span_frames(
            self, pooled_hosts, expected, num_shards):
        """Pools spread the fused sweeps across their members.

        A sweep is no longer cut into span frames: each round is one
        whole frame per server, and the pool's rotating pick sends
        consecutive rounds to different members. So the batchable
        kinds alone must leave every member of every pool having
        served traffic, with results bit-identical to the seed run.
        """
        pool_size, spec = pooled_hosts
        with build(spec, num_shards=num_shards) as system:
            assert run_batchable(system) == expected["batch"]
            for channel in system._channels:
                stats = channel.stats
                assert stats["pool_size"] == pool_size
                assert all(member["requests"] > 0
                           for member in stats["members"])

    @pytest.mark.parametrize("kind", ["batch-tick", "bucketized-level"])
    @pytest.mark.parametrize("num_shards", [1, 3])
    def test_one_frame_per_server_per_round(self, pooled_hosts, kind,
                                            num_shards):
        """Each round is one whole-round frame per server at every pool
        size and shard count (the host thread-shards it), bit-identical
        to ``deployment="local"``."""
        _, spec = pooled_hosts
        with build(num_shards=num_shards) as system:
            local, _, _ = run_round_kind(system, kind)
        with build(spec, num_shards=num_shards) as system:
            results, frames, expected_frames = run_round_kind(system, kind)
        assert frames == expected_frames
        assert results == local

    @pytest.mark.parametrize("num_shards", [1, 2])
    def test_bucketized_levels_split_across_the_pool(
            self, pooled_hosts, expected, num_shards):
        """A bucketized query's levels split across each pool: every
        level is one whole-level frame per additive server, and the
        rotating pick sends consecutive levels to different members, so
        every member serves some; result and stats stay bit-identical."""
        pool_size, spec = pooled_hosts
        with build(spec, num_shards=num_shards) as system:
            system.outsource_bucketized("k", fanout=2)
            channels = system._channels[:ADDITIVE_SERVERS]
            before = [[member["requests"] for member in c.stats["members"]]
                      for c in channels]
            result, stats = system.bucketized_psi("k")
            assert sorted(result.values) == \
                expected["interactive"]["bucket_values"]
            assert result.membership.tolist() == \
                expected["interactive"]["bucket_membership"]
            assert stats == expected["interactive"]["bucket_stats"]
            assert stats["rounds"] >= pool_size
            for channel, old in zip(channels, before):
                served = [member["requests"] - was for member, was
                          in zip(channel.stats["members"], old)]
                assert sum(served) == stats["rounds"]
                assert all(frames > 0 for frames in served)

    def test_mixed_pool_sizes_per_role(self, expected):
        """Roles may have differently sized pools in one deployment."""
        pools, processes = launch_forked_pools([2, 1, 3])
        try:
            with build(pools_spec(pools), num_shards=2) as system:
                assert run_batchable(system) == expected["batch"]
                assert [c.stats["pool_size"]
                        for c in system._channels] == [2, 1, 3]
        finally:
            for process in processes:
                process.terminate()
            for process in processes:
                process.join(timeout=10)


# -- the fault matrix ---------------------------------------------------------


@needs_fork
class TestPoolFaults:
    def test_killed_member_fails_over(self, expected):
        """SIGKILL one pool host mid-run → failover, same bits, degraded."""
        pools, processes = launch_forked_pools([2, 1, 1])
        try:
            with build(pools_spec(pools)) as system:
                baseline = system.psi("k", querier=0)
                assert baseline.membership.tolist() == expected["batch"]["psi"]
                victim = processes[0]  # member of server 0's pool
                victim.kill()
                victim.join(timeout=10)
                # Each query sends role 0 one frame, and the rotating
                # pick sends two consecutive frames to both members, so
                # the dead one is addressed; its frame retransmits to
                # the survivor, and the query succeeds bit-identically.
                for _ in range(2):
                    again = system.psi("k", querier=0)
                    assert again.membership.tolist() == \
                        expected["batch"]["psi"]
                # The EOF may land before the query (lazy eject, no
                # in-flight loss) or during it (failover): either way
                # the seat is ejected and health stops saying "ok".
                health = system._channels[0].health()
                assert health["status"] == "degraded"
                assert health["ejections"] >= 1
                assert system.pool_health()["status"] == "degraded"
        finally:
            for process in processes:
                process.terminate()
            for process in processes:
                process.join(timeout=10)

    def test_hung_member_times_out_and_fails_over(self, expected):
        """SIGSTOP one pool host → rpc_timeout ejects it; query succeeds."""
        pools, processes = launch_forked_pools([2, 1, 1])
        try:
            with build(pools_spec(pools), rpc_timeout=2.0) as system:
                assert system.psi("k", querier=0).membership is not None
                os.kill(processes[0].pid, signal.SIGSTOP)
                try:
                    # The timeout poisons the hung connection like an
                    # EOF, so the same failover path serves the query
                    # from the healthy member; two queries address both.
                    for _ in range(2):
                        result = system.psi("k", querier=0)
                        assert result.membership.tolist() == \
                            expected["batch"]["psi"]
                    assert system._channels[0].health()["ejections"] >= 1
                finally:
                    os.kill(processes[0].pid, signal.SIGCONT)
        finally:
            for process in processes:
                process.terminate()
            for process in processes:
                process.join(timeout=10)

    def test_exhausted_pool_raises_typed_error(self, expected):
        """Every member dead → typed QueryError naming the pool, no hang."""
        pools, processes = launch_forked_pools([2, 1, 1])
        try:
            with build(pools_spec(pools)) as system:
                assert system.psi("k", querier=0).membership is not None
                for victim in processes[:2]:  # both members of role 0
                    victim.kill()
                    victim.join(timeout=10)
                with pytest.raises(QueryError, match="server pool member"):
                    system.psi("k", querier=0)
                assert system._channels[0].health()["status"] == "down"
        finally:
            for process in processes:
                process.terminate()
            for process in processes:
                process.join(timeout=10)

    def test_hung_last_member_fails_within_one_timeout(self, expected):
        """A pool whose only member hangs fails after one rpc_timeout: the
        call that saw the seat time out does not replay the journal
        into the same stalled host."""
        pools, processes = launch_forked_pools([1, 1, 1])
        try:
            with build(pools_spec(pools), rpc_timeout=1.0) as system:
                assert system.psi("k", querier=0).membership is not None
                os.kill(processes[1].pid, signal.SIGSTOP)
                try:
                    start = time.monotonic()
                    with pytest.raises(QueryError, match="server pool"):
                        system.psi("k", querier=0)
                    assert time.monotonic() - start < 1.5
                finally:
                    os.kill(processes[1].pid, signal.SIGCONT)
        finally:
            for process in processes:
                process.terminate()
            for process in processes:
                process.join(timeout=10)

    def test_pool_of_one_heals_a_disconnect_within_the_query(self,
                                                             expected):
        """A transport fault on a live host: the seat rejoins at once."""
        from chaos import ChaosInjector, Fault

        pools, processes = launch_forked_pools([1, 1, 1])
        try:
            with build(pools_spec(pools), rpc_timeout=60.0) as system:
                injector = ChaosInjector(system, pools, processes)
                # The query's first frame to role 0 is its sweep.
                injector.arm(Fault(role=0, action="disconnect"))
                assert system.psi("k", querier=0).membership.tolist() == \
                    expected["batch"]["psi"]
                assert injector.fired == 1
                health = system._channels[0].health()
                assert health["rejoins"] == 1
                assert health["status"] == "ok"
        finally:
            for process in processes:
                process.terminate()
            for process in processes:
                process.join(timeout=10)

    def test_closed_channel_stays_closed(self, expected):
        """After close(), no send, issue or rejoin reopens a socket."""
        pools, processes = launch_forked_pools([2, 1, 1])
        try:
            system = build(pools_spec(pools))
            assert system.psi("k", querier=0).membership.tolist() == \
                expected["batch"]["psi"]
            system.close()
            with pytest.raises(ProtocolError, match="channel is closed"):
                system.psi("k", querier=0)
            for channel in system._channels:
                with pytest.raises(ProtocolError, match="channel is closed"):
                    channel.send(RpcMessage(PING))
                with pytest.raises(ProtocolError, match="channel is closed"):
                    channel.issue(RpcMessage(PING))
                with pytest.raises(ProtocolError, match="channel is closed"):
                    channel.rejoin(0)
                health = channel.health()
                assert health["rejoins"] == 0
                assert health["members_up"] == 0
        finally:
            for process in processes:
                process.terminate()
            for process in processes:
                process.join(timeout=10)

    @pytest.mark.parametrize("adversary", [SkipCellsServer, InjectFakeServer])
    def test_malicious_pool_member_detected(self, adversary):
        """A malicious server behind a pooled role is still caught."""
        pools, processes = launch_forked_pools([1, 2, 1])
        try:
            with build(pools_spec(pools),
                       server_factories={1: adversary}) as system:
                with pytest.raises(VerificationError):
                    system.psi("k", verify=True, querier=0)
        finally:
            for process in processes:
                process.terminate()
            for process in processes:
                process.join(timeout=10)


# -- journal compaction ---------------------------------------------------------


@needs_fork
class TestJournalCompaction:
    """A long-lived pool's broadcast journal must stay bounded.

    Every re-outsourcing re-broadcasts ``receive_shares`` for the same
    ``(owner, column, kind)`` keys; without compaction the journal grows
    by one frame per share column per round forever.  Compaction drops
    the superseded frames — and because ``journal_applied`` marks are
    stable sequence ids, a warm rejoin after heavy compaction still
    replays exactly the surviving state.
    """

    def test_long_lived_pool_journal_stays_bounded(self, expected):
        pools, processes = launch_forked_pools([2, 1, 1])
        try:
            with build(pools_spec(pools)) as system:
                channel = system._channels[0]
                baseline_frames = channel.stats["journal_frames"]
                old_applied = channel._members[1].journal_applied
                assert run_batchable(system) == expected["batch"]
                rounds = 5
                for _ in range(rounds):
                    system.outsource("k", ("amt",), with_verification=True)
                stats = channel.stats
                # Bounded: every superseded receive_shares was dropped.
                assert stats["journal_frames"] == baseline_frames
                # One compaction per re-broadcast share column.
                assert stats["journal_compacted"] >= rounds
                # Warm rejoin from a pre-compaction mark: the surviving
                # (newest) frames replay and the seat serves correct
                # bits — the seq-id bookkeeping survived compaction.
                # (Eject first: the host serves one stream at a time,
                # so a rejoin can only follow a dropped connection.)
                from repro.network.dispatch import ConnectionLost
                member = channel._members[1]
                channel._eject(member, ConnectionLost("test: forced eject"))
                channel.rejoin(1, warm_from=old_applied)
                assert channel._members[1].journal_applied == \
                    channel._journal_seqs[-1]
                assert run_batchable(system) == expected["batch"]
                assert channel.health()["status"] == "ok"
        finally:
            for process in processes:
                process.terminate()
            for process in processes:
                process.join(timeout=10)

    def test_construct_frames_never_compact(self):
        pools, processes = launch_forked_pools([1, 1, 1])
        try:
            with build(pools_spec(pools)) as system:
                channel = system._channels[0]
                kinds = [m.kind for m in channel.journal]
                assert "__construct__" in kinds
                system.outsource("k", ("amt",), with_verification=True)
                assert [m.kind for m in channel.journal].count(
                    "__construct__") == kinds.count("__construct__")
        finally:
            for process in processes:
                process.terminate()
            for process in processes:
                process.join(timeout=10)
