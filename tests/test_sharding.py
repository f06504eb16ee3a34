"""The sharded χ-table execution layer (repro.core.sharding).

The contract under test: for every batchable Table-4 query kind, the
sharded path — contiguous χ shards on the deployment's thread pool —
returns results *bit-identical* to the unsharded sweep, for every shard
count, owner subset, and transport accounting; and malicious /
instrumented servers (per-row kernels, overridden fetches) behave
exactly as they do unsharded.
"""

from __future__ import annotations

import multiprocessing
import os
import subprocess
import sys
import threading

import numpy as np
import pytest

from repro import BatchQuery, Domain, PrismSystem, Relation
from repro.core import sharding
from repro.core.sharding import (
    ShardPlan,
    ShardRuntime,
    attach_sharding,
    shard_bounds,
)
from repro.entities.adversary import SkipCellsServer
from repro.entities.server import PrismServer
from repro.exceptions import VerificationError


def build_fleet(num_shards: int = 1, num_values: int = 41, **kwargs):
    """A 3-owner deployment over a domain wide enough to span shards."""
    values = list(range(num_values))
    relations = [
        Relation("o0", {"A": values[::2], "cost": [v + 1 for v in values[::2]]}),
        Relation("o1", {"A": values[::3], "cost": [v + 2 for v in values[::3]]}),
        Relation("o2", {"A": values[::5], "cost": [v + 3 for v in values[::5]]}),
    ]
    domain = Domain("A", values)
    return PrismSystem.build(relations, domain, "A",
                             agg_attributes=("cost",),
                             with_verification=True, seed=13,
                             num_shards=num_shards, **kwargs)


#: One query per batchable Table-4 kind (the equivalence matrix).
TABLE4_QUERIES = [
    BatchQuery("psi", "A", verify=True),
    BatchQuery("psu", "A", verify=True),
    BatchQuery("psi_count", "A", verify=True),
    BatchQuery("psu_count", "A"),
    BatchQuery("psi_sum", "A", agg_attributes=("cost",), verify=True),
    BatchQuery("psi_average", "A", agg_attributes=("cost",)),
    BatchQuery("psu_sum", "A", agg_attributes=("cost",)),
    BatchQuery("psu_average", "A", agg_attributes=("cost",)),
]


def assert_identical(query, reference, sharded):
    if query.kind in ("psi", "psu"):
        assert sharded.values == reference.values
        assert np.array_equal(sharded.membership, reference.membership)
        assert sharded.verified == reference.verified
    elif query.kind.endswith("count"):
        assert sharded.count == reference.count
    else:
        for agg in query.agg_attributes:
            assert sharded[agg].per_value == reference[agg].per_value
            assert sharded[agg].verified == reference[agg].verified


# -- bit-identity across shard counts -----------------------------------------


@pytest.mark.parametrize("num_shards", [1, 2, 7])
def test_sharded_batch_bit_identical_for_every_kind(num_shards):
    """Acceptance: every Table-4 kind, num_shards in {1, 2, 7}."""
    reference = build_fleet().run_batch(TABLE4_QUERIES)
    with build_fleet(num_shards=num_shards) as system:
        sharded = system.run_batch(TABLE4_QUERIES)
        for query, ref, out in zip(TABLE4_QUERIES, reference, sharded):
            assert_identical(query, ref, out)
        if num_shards > 1:
            # The sweeps really ran as more than one span.
            assert system._shard_runtime.dispatches > 0


def test_per_call_num_shards_override():
    """run_batch(num_shards=...) shards an unsharded deployment per call."""
    reference = build_fleet().run_batch(TABLE4_QUERIES)
    with build_fleet() as system:
        sharded = system.run_batch(TABLE4_QUERIES, num_shards=3)
        for query, ref, out in zip(TABLE4_QUERIES, reference, sharded):
            assert_identical(query, ref, out)
        assert system._shard_runtime.dispatches > 0
        # And num_shards=1 on a sharded system forces the thread sweep.
    with build_fleet(num_shards=4) as system:
        before = system._shard_runtime.dispatches
        system.run_batch(TABLE4_QUERIES, num_shards=1)
        assert system._shard_runtime.dispatches == before


def test_shards_exceeding_chi_length():
    """More shards than χ cells degrades to one span per cell."""
    relations = [Relation("a", {"A": [0, 1]}), Relation("b", {"A": [1, 2]})]
    domain = Domain("A", [0, 1, 2])
    with PrismSystem.build(relations, domain, "A", seed=3,
                           num_shards=16) as system:
        assert system.psi("A").values == [1]


def test_sequential_queries_use_deployment_shard_plan():
    """system.psi() etc. inherit the deployment default plan."""
    reference = build_fleet()
    with build_fleet(num_shards=2) as system:
        assert system.psi("A", verify=True).values == \
            reference.psi("A", verify=True).values
        assert system._shard_runtime.dispatches > 0


# -- owner subsets through both paths (satellite) -----------------------------


SUBSET_QUERIES = [
    BatchQuery("psi", "A", owner_ids=(0, 1)),
    BatchQuery("psu", "A", owner_ids=(0, 2)),
    BatchQuery("psi_count", "A", owner_ids=(1, 2)),
    BatchQuery("psi_sum", "A", agg_attributes=("cost",), owner_ids=(0, 1)),
    BatchQuery("psu_count", "A", owner_ids=(0, 1)),
]


def test_owner_subsets_sharded_and_unsharded_identical():
    """Subset-owner queries: bit-identical results AND identical traffic."""
    base = build_fleet()
    unsharded = base.run_batch(SUBSET_QUERIES)
    with build_fleet(num_shards=5) as system:
        sharded = system.run_batch(SUBSET_QUERIES)
        for query, ref, out in zip(SUBSET_QUERIES, unsharded, sharded):
            assert_identical(query, ref, out)
        assert system._shard_runtime.dispatches > 0
        # Sharding is server-internal: the wire protocol must not change.
        assert (system.transport.stats.messages_by_kind
                == base.transport.stats.messages_by_kind)


def test_subset_and_full_owner_sets_agree_on_membership():
    """The full set as an explicit subset equals owner_ids=None, sharded."""
    with build_fleet(num_shards=3) as system:
        full = system.run_batch([BatchQuery("psi", "A")])[0]
        explicit = system.run_batch(
            [BatchQuery("psi", "A", owner_ids=(0, 1, 2))])[0]
        assert np.array_equal(full.membership, explicit.membership)


# -- fallbacks ----------------------------------------------------------------


def test_malicious_server_still_caught_under_sharding():
    """Overridden kernels fall back per row; tampering stays effective."""
    values = list(range(23))
    relations = [Relation("a", {"A": values[:12]}),
                 Relation("b", {"A": values[6:]})]
    domain = Domain("A", values)
    with PrismSystem.build(relations, domain, "A", with_verification=True,
                           seed=9, num_shards=4,
                           server_factories={0: SkipCellsServer}) as system:
        with pytest.raises(VerificationError):
            system.psi("A", verify=True)


def test_instrumented_fetch_keeps_thread_path():
    """A fetch-overriding subclass sweeps sharded, and its override fires."""
    from repro.analysis.access import RecordingServer
    values = list(range(17))
    relations = [Relation("a", {"A": values[:9]}),
                 Relation("b", {"A": values[4:]})]
    domain = Domain("A", values)
    with PrismSystem.build(
            relations, domain, "A", seed=9, num_shards=4,
            server_factories={i: RecordingServer for i in range(3)}) as system:
        result = system.psi("A")
        assert result.values
        # The recording servers saw their fetches ...
        assert all(server.trace for server in system.servers[:2])
        # ... from sweeps that really ran sharded.
        assert system._shard_runtime.dispatches > 0


def test_sweep_after_reoutsource_sees_new_shares():
    """Sharded sweeps read the live store: a put() or a re-outsource is
    visible to the very next query, never a stale snapshot."""
    with build_fleet(num_shards=2) as system:
        first = system.psi("A")
        assert system._shard_runtime.dispatches > 0
        server = system.servers[0]
        stored = server.store.get(0, "A")
        tampered = stored.values.copy()
        tampered[0] = (tampered[0] + 1) % system.initiator.delta
        server.store.put(0, "A", tampered, stored.kind)
        second = system.psi("A")
        # The tampered cell flows through the fused sharded sweep: the
        # result must differ from the honest run somewhere.
        assert not np.array_equal(first.membership, second.membership)
        # Re-outsourcing new relations reaches the next sharded sweep.
        for owner in system.owners:
            owner.relation = Relation(owner.relation.name,
                                      {"A": [1, 2], "cost": [1, 1]})
        system.outsource("A", ("cost",), with_verification=True)
        assert system.psi("A", verify=True).values == [1, 2]


# -- decomposition / plumbing -------------------------------------------------


class TestShardBounds:
    def test_cover_range_contiguously(self):
        for n in (0, 1, 5, 64, 101):
            for shards in (1, 2, 7, 64, 200):
                bounds = shard_bounds(n, shards)
                assert bounds[0][0] == 0
                assert bounds[-1][1] == n or (n == 0 and bounds == [(0, 0)])
                for (_, hi), (lo, _) in zip(bounds, bounds[1:]):
                    assert hi == lo

    def test_never_more_shards_than_cells(self):
        assert len(shard_bounds(3, 10)) <= 3

    def test_plan_bounds(self):
        plan = ShardPlan(4)
        assert plan.bounds(8) == [(0, 2), (2, 4), (4, 6), (6, 8)]


def test_attach_sharding_wires_servers_and_store():
    with build_fleet() as system:
        runtime = attach_sharding(system.servers, 3)
        try:
            assert all(s.runtime is runtime for s in system.servers)
            assert all(s.shard_plan.num_shards == 3 for s in system.servers)
            assert all(s.store.num_shards == 3 for s in system.servers)
            store = system.servers[0].store
            whole = store.get(0, "A").values
            spans = [store.shard_slice(0, "A", lo, hi)
                     for lo, hi in system.servers[0].shard_plan.bounds(
                         whole.shape[0])]
            assert len(spans) == 3
            assert np.array_equal(np.concatenate(spans), whole)
        finally:
            runtime.close()


def test_concurrent_dispatches_do_not_cross_wires(monkeypatch):
    """More callers than CPUs share one deployment pool: each must get
    its own query's rows back, bit-identical to a serial run."""
    monkeypatch.setattr(sharding, "usable_cpus", lambda: 4)
    expected = build_fleet().run_batch(TABLE4_QUERIES)
    interval = sys.getswitchinterval()
    sys.setswitchinterval(1e-5)
    try:
        with build_fleet(num_shards=3) as system:
            results = [None] * 6
            errors = []
            barrier = threading.Barrier(len(results))

            def caller(slot):
                try:
                    barrier.wait(timeout=60)
                    results[slot] = system.run_batch(TABLE4_QUERIES)
                except Exception as exc:  # pragma: no cover - failure detail
                    errors.append(exc)

            threads = [threading.Thread(target=caller, args=(i,))
                       for i in range(len(results))]
            for thread in threads:
                thread.start()
            for thread in threads:
                thread.join(timeout=120)
            assert not any(thread.is_alive() for thread in threads)
            assert not errors
            for outcome in results:
                for query, ref, out in zip(TABLE4_QUERIES, expected, outcome):
                    assert_identical(query, ref, out)
    finally:
        sys.setswitchinterval(interval)


def test_runtime_close_is_idempotent_and_reusable(monkeypatch):
    monkeypatch.setattr(sharding, "usable_cpus", lambda: 2)
    with build_fleet(num_shards=2) as system:
        runtime = system._shard_runtime
        assert isinstance(runtime, ShardRuntime)
        first = system.psi("A")
        assert runtime._pool is not None
        runtime.close()
        runtime.close()
        assert runtime._pool is None
        # A later query lazily rebuilds the pool.
        again = system.psi("A")
        assert runtime._pool is not None
        assert np.array_equal(first.membership, again.membership)
        assert runtime.dispatches >= 2


# -- satellite: one persistent thread pool per deployment ---------------------


def test_server_reuses_one_thread_pool_across_calls(monkeypatch):
    monkeypatch.setattr(sharding, "usable_cpus", lambda: 8)
    with build_fleet() as system:
        server: PrismServer = system.servers[0]
        runtime = server.runtime
        assert runtime is system._shard_runtime  # shared by the deployment
        assert all(s.runtime is runtime for s in system.servers)
        assert runtime._pool is None
        server.psi_round("A", num_threads=2)
        pool = runtime._pool
        assert pool is not None
        server.psi_round("A", num_threads=2)
        assert runtime._pool is pool  # not rebuilt per call
        server.psi_round("A", num_threads=4)
        assert runtime._pool is not pool  # grown once, then persistent
        grown = runtime._pool
        server.psi_round("A", num_threads=3)
        assert runtime._pool is grown
        server.close()
        assert runtime._pool is None


def test_pool_is_sized_to_usable_cpus(monkeypatch):
    """Seven shards on one usable CPU run inline: no pool thread at all."""
    monkeypatch.setattr(sharding, "usable_cpus", lambda: 1)
    reference = build_fleet().run_batch(TABLE4_QUERIES)
    with build_fleet(num_shards=7) as system:
        sharded = system.run_batch(TABLE4_QUERIES)
        for query, ref, out in zip(TABLE4_QUERIES, reference, sharded):
            assert_identical(query, ref, out)
        assert system._shard_runtime.dispatches > 0
        assert system._shard_runtime._pool is None


# -- a local deployment forks nothing and leaves nothing behind ---------------


def _live_threads() -> set[threading.Thread]:
    """Non-daemon threads still alive (what a teardown must not leave)."""
    return {thread for thread in threading.enumerate()
            if thread is not threading.main_thread()
            and not thread.daemon and thread.is_alive()}


@pytest.mark.parametrize("num_shards", [2, "auto"])
def test_local_deployment_forks_nothing_and_leaves_nothing(monkeypatch,
                                                           num_shards):
    # Small enough that "auto" shards the 41-cell fleet on 2+ CPUs.
    monkeypatch.setattr(sharding, "AUTO_ROWS_PER_SHARD", 8)
    threads = _live_threads()
    children = set(multiprocessing.active_children())

    def forked():
        return set(multiprocessing.active_children()) - children

    system = build_fleet(num_shards=num_shards)
    try:
        first = system.run_batch(TABLE4_QUERIES)
        assert not forked()
        system.outsource("A", ("cost",), with_verification=True)
        assert not forked()
        again = system.run_batch(TABLE4_QUERIES)
        assert not forked()
        for query, ref, out in zip(TABLE4_QUERIES, first, again):
            assert_identical(query, ref, out)
    finally:
        system.close()
    assert not forked()
    assert not _live_threads() - threads


def test_auto_shards_follow_the_affinity_mask():
    """A process pinned to one CPU gets one shard, however many the host
    has."""
    if not hasattr(os, "sched_setaffinity"):
        pytest.skip("no CPU affinity call on this platform")
    code = ("import os; os.sched_setaffinity(0, {min(os.sched_getaffinity(0))});"
            "from repro.core.sharding import auto_shard_plan;"
            "print(auto_shard_plan(262_144))")
    env = dict(os.environ)
    env["PYTHONPATH"] = os.pathsep.join(
        [os.path.join(os.path.dirname(__file__), os.pardir, "src"),
         env.get("PYTHONPATH", "")])
    out = subprocess.run([sys.executable, "-c", code], env=env, timeout=60,
                         check=True, capture_output=True, text=True)
    assert out.stdout.strip() == "1"


# -- satellite: the store fetch memo ------------------------------------------


class TestFetchMemo:
    def test_full_set_and_explicit_full_tuple_share_one_entry(self):
        with build_fleet() as system:
            store = system.servers[0].store
            first = system.servers[0].fetch_additive("A")
            info = store.fetch_cache_info()
            second = system.servers[0].fetch_additive("A", owner_ids=[0, 1, 2])
            after = store.fetch_cache_info()
            assert after["entries"] == info["entries"]  # same resolved key
            assert after["hits"] > info["hits"]
            for a, b in zip(first, second):
                assert a is b  # the stored vectors, not copies

    def test_put_invalidates(self):
        with build_fleet() as system:
            store = system.servers[0].store
            system.servers[0].fetch_additive("A")
            version = store.version
            stored = store.get(0, "A")
            store.put(0, "A", stored.values.copy(), stored.kind)
            assert store.version == version + 1
            assert store.fetch_cache_info()["entries"] == 0

    def test_batch_fetches_each_column_once_per_owner_set(self):
        with build_fleet() as system:
            store = system.servers[0].store
            system.run_batch([
                BatchQuery("psi", "A", verify=True),
                BatchQuery("psi", "A"),
                BatchQuery("psi_count", "A"),
            ])
            info = store.fetch_cache_info()
            assert info["misses"] == info["entries"]


from tests.conftest import make_system  # noqa: E402  (auto-shard tests)


class TestAutoShards:
    """num_shards="auto": shard count from rows and usable CPUs."""

    def test_tiny_sweeps_stay_unsharded(self):
        from repro.core.sharding import auto_shard_plan
        assert auto_shard_plan(100, cpu_count=8) == 1
        assert auto_shard_plan(10**6, cpu_count=1) == 1

    def test_scales_with_rows_then_caps_at_cores(self):
        from repro.core.sharding import (
            AUTO_ROWS_PER_SHARD,
            auto_shard_plan,
        )
        assert auto_shard_plan(2 * AUTO_ROWS_PER_SHARD, cpu_count=8) == 2
        assert auto_shard_plan(100 * AUTO_ROWS_PER_SHARD, cpu_count=4) == 4

    def test_system_accepts_auto(self):
        system = make_system([{1, 2, 3}, {2, 3, 4}], num_shards="auto")
        try:
            # A tiny domain resolves to 1 shard; queries run unchanged.
            assert system.num_shards >= 1
            assert sorted(system.psi("A").values) == [2, 3]
            # The per-call "auto" resolution must agree with the
            # construction-time one (same χ length, same heuristic).
            assert system.shard_plan_for("auto").num_shards == \
                system.num_shards
        finally:
            system.close()

    def test_client_accepts_auto(self):
        system = make_system([{1, 2}, {2, 3}])
        try:
            with system.client(num_shards="auto") as client:
                result = client.execute(
                    "SELECT A FROM o0 INTERSECT SELECT A FROM o1")
                assert sorted(result.values) == [2]
        finally:
            system.close()
