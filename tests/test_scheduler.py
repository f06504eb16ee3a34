"""The concurrent coalescing scheduler (PrismClient.submit).

The contract under test: submissions in flight at a drain tick execute
as ONE fused QueryBatch (observable on the wire as ``batch:*[k]`` with
k >= 2), results are identical to sequential execution, and a failing
query poisons only its own future.
"""

from __future__ import annotations

import threading
import time

import pytest

from repro import Domain, PrismClient, PrismSystem, Q, Relation
from repro.core.interactive import ExtremaProgram
from repro.exceptions import QueryError, VerificationError


def build_hospitals(**kwargs):
    relations = [
        Relation("hospital1", {
            "disease": ["Cancer", "Cancer", "Heart"],
            "cost": [100, 200, 300],
            "age": [4, 6, 2],
        }),
        Relation("hospital2", {
            "disease": ["Cancer", "Fever", "Fever"],
            "cost": [100, 70, 50],
            "age": [8, 5, 4],
        }),
        Relation("hospital3", {
            "disease": ["Cancer", "Cancer", "Heart"],
            "cost": [300, 700, 500],
            "age": [8, 4, 5],
        }),
    ]
    domain = Domain("disease", ["Cancer", "Fever", "Heart"])
    return PrismSystem.build(relations, domain, "disease",
                             agg_attributes=("cost", "age"),
                             with_verification=True, seed=11, **kwargs)


def test_submit_returns_future_with_correct_result():
    system = build_hospitals()
    with system.client() as client:
        future = client.submit(Q.psi("disease"))
        assert future.result(timeout=60).values == ["Cancer"]
        assert client.stats["scheduler"]["submitted"] == 1


def test_concurrent_submissions_coalesce_into_one_fused_batch():
    """Acceptance: >= 2 in-flight queries run as one batch:*[k], k >= 2."""
    system = build_hospitals()
    with system.client() as client:
        with client.hold():
            f1 = client.submit(Q.psi("disease"))
            f2 = client.submit(Q.psi("disease").verify())
        r1 = f1.result(timeout=60)
        r2 = f2.result(timeout=60)
    assert r1.values == ["Cancer"]
    assert r2.values == ["Cancer"] and r2.verified
    kinds = system.transport.stats.messages_by_kind
    # One fused sweep carried both queries' rows: the verified query's
    # data row deduplicated onto the unverified one, plus its proof row.
    assert kinds.get("batch:psi-output[2]", 0) > 0
    assert "batch:psi-output[1]" not in kinds
    assert client.stats["scheduler"]["ticks"] == 1
    assert client.stats["scheduler"]["max_coalesced"] == 2


def test_submissions_from_many_threads_coalesce():
    """Truly concurrent submitters share one tick (under hold)."""
    system = build_hospitals()
    queries = [Q.psi("disease"), Q.psu("disease"),
               Q.psi("disease").count(), Q.psu("disease").count()]
    futures = [None] * len(queries)
    with system.client() as client:
        barrier = threading.Barrier(len(queries))

        def worker(slot, query):
            barrier.wait()
            futures[slot] = client.submit(query)

        with client.hold():
            threads = [threading.Thread(target=worker, args=(i, q))
                       for i, q in enumerate(queries)]
            for thread in threads:
                thread.start()
            for thread in threads:
                thread.join()
        results = [f.result(timeout=60) for f in futures]
    assert results[0].values == ["Cancer"]
    assert sorted(results[1].values) == ["Cancer", "Fever", "Heart"]
    assert results[2].count == 1
    assert results[3].count == 3
    assert client.stats["scheduler"]["max_coalesced"] == len(queries)
    assert client.stats["scheduler"]["ticks"] == 1


def test_submit_without_hold_still_completes():
    """The steady-state path: no pinning; each tick drains once as many
    submissions are queued as the last tick took, or the window passes."""
    system = build_hospitals()
    with system.client() as client:
        futures = [client.submit(Q.psi("disease")) for _ in range(5)]
        for future in futures:
            assert future.result(timeout=60).values == ["Cancer"]
        stats = client.stats["scheduler"]
        assert stats["submitted"] == 5
        assert 1 <= stats["ticks"] <= 5


class TestBoundedCoalescingWait:
    """The window bounds the wait; it is not slept through.

    On waking, the scheduler waits until as many submissions are queued
    as the previous tick took, or ``coalesce_window`` passes, or
    ``close()`` is called.  A 60 s window makes any wait that runs to
    its bound overrun these tests' 10 s timeouts, so none of them needs
    a clock.
    """

    def test_lone_submission_drains_without_waiting_out_the_window(self):
        system = build_hospitals()
        with PrismClient(system, coalesce_window=60) as client:
            future = client.submit(Q.psi("disease"))
            assert future.result(timeout=10).values == ["Cancer"]
            assert client.stats["scheduler"]["ticks"] == 1

    def test_last_ticks_submitters_drain_together_once_back(self):
        system = build_hospitals()
        with PrismClient(system, coalesce_window=60) as client:
            with client.hold():
                held = [client.submit(Q.psi("disease")) for _ in range(2)]
            for future in held:
                assert future.result(timeout=10).values == ["Cancer"]
            barrier = threading.Barrier(2)
            futures = [None, None]

            def caller(slot):
                barrier.wait()
                futures[slot] = client.submit(Q.psu("disease"))

            threads = [threading.Thread(target=caller, args=(slot,))
                       for slot in range(2)]
            for thread in threads:
                thread.start()
            for thread in threads:
                thread.join()
            for future in futures:
                assert sorted(future.result(timeout=10).values) == \
                    ["Cancer", "Fever", "Heart"]
            stats = client.stats["scheduler"]
            assert stats["ticks"] == 2
            assert stats["max_coalesced"] == 2

    def test_lone_resubmission_after_a_tick_of_two_drains_alone(self):
        system = build_hospitals()
        with PrismClient(system, coalesce_window=0.05) as client:
            with client.hold():
                held = [client.submit(Q.psi("disease")) for _ in range(2)]
            for future in held:
                future.result(timeout=10)
            # Waits for a second submission that never comes, then
            # drains alone at the bound.
            lone = client.submit(Q.psi("disease"))
            assert lone.result(timeout=10).values == ["Cancer"]
            assert client.stats["scheduler"]["ticks"] == 2
            # That tick took one, so the next lone query does not wait:
            # a 60 s bound would otherwise overrun the timeout.
            client.coalesce_window = 60
            again = client.submit(Q.psi("disease"))
            assert again.result(timeout=10).values == ["Cancer"]
            assert client.stats["scheduler"]["ticks"] == 3

    def test_close_cuts_the_wait_short_and_drains(self):
        system = build_hospitals()
        client = PrismClient(system, coalesce_window=60)
        with client.hold():
            held = [client.submit(Q.psi("disease")) for _ in range(2)]
        for future in held:
            future.result(timeout=10)
        # The scheduler now waits for a second submission.
        pending = client.submit(Q.psu("disease"))
        closer = threading.Thread(target=client.close)
        closer.start()
        closer.join(timeout=10)
        assert not closer.is_alive()
        assert sorted(pending.result(timeout=10).values) == \
            ["Cancer", "Fever", "Heart"]


def test_failing_query_poisons_only_its_own_future():
    system = build_hospitals()
    # Tamper one share so any *verified* PSI fails while unverified
    # queries keep succeeding.
    server = system.servers[0]
    stored = server.store.get(0, "disease")
    tampered = stored.values.copy()
    tampered[0] = (tampered[0] + 1) % system.initiator.delta
    server.store.put(0, "disease", tampered, stored.kind)
    with system.client() as client:
        with client.hold():
            good = client.submit(Q.psu("disease"))
            bad = client.submit(Q.psi("disease").verify())
        assert sorted(good.result(timeout=60).values) == \
            ["Cancer", "Fever", "Heart"]
        with pytest.raises(VerificationError):
            bad.result(timeout=60)


def test_unlowerable_submission_fails_only_itself():
    system = build_hospitals()
    with system.client() as client:
        with client.hold():
            good = client.submit(Q.psi("disease"))
            bad = client.submit(object())  # not a query in any form
        assert good.result(timeout=60).values == ["Cancer"]
        with pytest.raises(Exception):
            bad.result(timeout=60)


def test_submit_explain_resolves_immediately():
    system = build_hospitals()
    with system.client() as client:
        future = client.submit(
            "EXPLAIN SELECT disease FROM h1 INTERSECT SELECT disease FROM h2")
        text = future.result(timeout=60)
    assert "fused batch kernel" in text
    assert "rows_deduplicated" in text


def test_close_drains_pending_and_rejects_new_submissions():
    system = build_hospitals()
    client = system.client()
    with client.hold():
        future = client.submit(Q.psi("disease"))
        # Close while held: close overrides the hold and drains.
        client.close()
    assert future.result(timeout=60).values == ["Cancer"]
    with pytest.raises(RuntimeError):
        client.submit(Q.psi("disease"))
    client.close()  # idempotent


def test_submit_matches_execute_results():
    system = build_hospitals()
    with system.client() as client:
        sequential = client.execute(Q.psi("disease").sum("cost"))
        future = client.submit(Q.psi("disease").sum("cost"))
        assert future.result(timeout=60).per_value == sequential.per_value


def test_session_accounting_covers_submissions():
    system = build_hospitals()
    with system.client() as client:
        with client.hold():
            futures = [client.submit(Q.psi("disease")),
                       client.submit(Q.psu("disease"))]
        for future in futures:
            future.result(timeout=60)
        stats = client.stats
    assert stats["queries"] == 2
    assert stats["by_kind"] == {"psi": 1, "psu": 1}
    assert stats["batched_units"] == 2
    assert stats["traffic"]["messages"] > 0


def build_many_common_values(num_values=6):
    """A deployment whose extrema queries run many per-value rounds."""
    keys = list(range(1, num_values + 1))
    relations = [
        Relation("a", {"k": keys, "v": [10 * k for k in keys]}),
        Relation("b", {"k": keys, "v": [10 * k + 1 for k in keys]}),
    ]
    return PrismSystem.build(relations, Domain.integer_range("k", 8), "k",
                             agg_attributes=("v",), with_verification=True,
                             seed=5)


class TestInteractiveScheduling:
    """Interactive submissions coexist with coalesced batch traffic."""

    def test_interactive_and_batchable_share_one_hold(self):
        system = build_hospitals()
        with system.client() as client:
            with client.hold():
                f_max = client.submit(Q.psi("disease").max("age"))
                f_psi = client.submit(Q.psi("disease"))
                f_psu = client.submit(Q.psu("disease"))
            assert f_max.result(timeout=60).per_value == {"Cancer": 8}
            assert f_psi.result(timeout=60).values == ["Cancer"]
            assert sorted(f_psu.result(timeout=60).values) == \
                ["Cancer", "Fever", "Heart"]
            stats = client.stats
        # The batchable pair still coalesced into one fused batch while
        # the interactive query rode the job lane of the same tick.
        assert stats["scheduler"]["max_coalesced"] == 2
        assert stats["scheduler"]["interactive_jobs"] == 1
        assert stats["interactive_units"] == 1
        assert stats["batched_units"] == 2
        assert stats["queries"] == 3

    def test_drain_tick_not_blocked_across_rounds(self, monkeypatch):
        """Batchable queries drain *between* an interactive query's
        rounds: a query submitted mid-flight resolves before the
        in-flight interactive query runs out of rounds."""
        order = []
        original_step = ExtremaProgram.step

        def recording_step(self):
            original_step(self)
            order.append("round")
            # Slow each round enough for the submitting thread to land a
            # batchable query while rounds remain; the drain happens
            # *between* rounds, never inside one.
            time.sleep(0.02)

        monkeypatch.setattr(ExtremaProgram, "step", recording_step)
        system = build_many_common_values(num_values=6)
        with system.client() as client:
            f_max = client.submit(Q.psi("k").max("v"))
            deadline = time.monotonic() + 30
            while not order:  # the job has started stepping rounds
                assert time.monotonic() < deadline
                time.sleep(0.001)
            f_psi = client.submit(Q.psi("k"))
            f_psi.add_done_callback(lambda f: order.append("batch"))
            assert sorted(f_psi.result(timeout=60).values) == \
                list(range(1, 7))
            assert len(f_max.result(timeout=60).per_value) == 6
        # 6 value rounds follow the PSI round, so the batch had to land
        # strictly before the interactive query's final round — the
        # drain tick was not blocked across rounds.
        assert "batch" in order
        assert order.index("batch") < len(order) - 1
        assert client.stats["scheduler"]["interactive_rounds"] >= 7

    def test_interactive_error_isolated_to_its_future(self):
        system = build_hospitals()
        with system.client() as client:
            with client.hold():
                good = client.submit(Q.psi("disease"))
                # PSU has no extrema protocol: no dispatch route.
                bad = client.submit(Q.psu("disease").max("age"))
            assert good.result(timeout=60).values == ["Cancer"]
            with pytest.raises(QueryError):
                bad.result(timeout=60)

    def test_failing_interactive_round_poisons_only_its_future(self):
        # Costs (up to 1000) exceed the declared value bound, so the
        # extrema blinding round fails loudly mid-protocol — while the
        # batchable tick-mate keeps succeeding.
        from repro.exceptions import ProtocolError
        system = build_hospitals(value_bound=50)
        with system.client() as client:
            with client.hold():
                good = client.submit(Q.psu("disease"))
                bad = client.submit(Q.psi("disease").max("cost"))
            assert sorted(good.result(timeout=60).values) == \
                ["Cancer", "Fever", "Heart"]
            with pytest.raises(ProtocolError):
                bad.result(timeout=60)

    def test_interactive_session_accounting(self):
        system = build_hospitals()
        with system.client() as client:
            future = client.submit(Q.psi("disease").median("cost"))
            assert future.result(timeout=60).per_value == {"Cancer": 300}
            stats = client.stats
        assert stats["queries"] == 1
        assert stats["by_kind"] == {"psi_median": 1}
        assert stats["interactive_units"] == 1
        assert stats["traffic"]["messages"] > 0
        assert stats["scheduler"]["interactive_jobs"] == 1

    def test_close_drains_interactive_jobs(self):
        system = build_hospitals()
        client = system.client()
        with client.hold():
            future = client.submit(Q.psi("disease").min("age"))
            client.close()  # close overrides the hold and drains the job
        assert future.result(timeout=60).per_value == {"Cancer": 4}
        with pytest.raises(RuntimeError):
            client.submit(Q.psi("disease"))


def test_submit_on_sharded_deployment():
    with build_hospitals(num_shards=2) as system:
        with system.client() as client:
            with client.hold():
                futures = [client.submit(Q.psi("disease")),
                           client.submit(Q.psi("disease").verify())]
            assert futures[0].result(timeout=60).values == ["Cancer"]
            assert futures[1].result(timeout=60).verified
        assert system._shard_runtime.dispatches > 0
