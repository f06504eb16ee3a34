"""Self-healing matrix: kill a pool member, results stay bit-identical.

The acceptance bar of the self-healing layer: with a chaos fault
SIGKILLing one pool member *mid-sweep* (a batch round's frame in
flight) and another one *mid-interactive-round*, every batchable and
interactive kind still returns exactly the seed result — no
:class:`~repro.exceptions.QueryError` — for every ``num_shards ∈
{1, 2, 7}`` × pool size ``∈ {2, 3}``; the pool reports ``degraded``
instead of lying ``ok``.  On top of that, a
:class:`~repro.network.supervisor.HostSupervisor` respawns killed
members, replays the journal so the replacement rejoins *warm*, serves
traffic from the respawned seat, returns health to ``ok``, and leaves
no orphan processes after ``system.close()``; the serving gateway
surfaces all of it through ``healthz``.
"""

from __future__ import annotations

import os
import signal
import time

import pytest
from chaos import ChaosInjector, Fault
from test_multihost_matrix import (
    build,
    needs_fork,
    run_batchable,
    run_interactive,
)

from repro import GatewayClient, ProtocolError, QueryError
from repro.exceptions import GatewayDisconnected
from repro.network.host import launch_forked_pools, pools_spec
from repro.network.supervisor import HostSupervisor
from repro.serving.gateway import Gateway

SHARD_COUNTS = [1, 2, 7]
POOL_SIZES = [2, 3]


@pytest.fixture(scope="module")
def expected():
    """The seed result: single shard, in-process."""
    with build() as system:
        return {"batch": run_batchable(system),
                "interactive": run_interactive(system)}


def _reap(processes):
    for process in processes:
        process.terminate()
    for process in processes:
        process.join(timeout=10)


# -- the kill matrix ----------------------------------------------------------


@needs_fork
class TestSelfHealMatrix:
    @pytest.mark.parametrize("num_shards", SHARD_COUNTS)
    @pytest.mark.parametrize("pool_size", POOL_SIZES)
    def test_single_member_kill_is_bit_identical(
            self, expected, pool_size, num_shards):
        """SIGKILL mid-sweep and mid-round → same bits, degraded health."""
        pools, processes = launch_forked_pools([pool_size] * 3)
        try:
            with build(pools_spec(pools), num_shards=num_shards,
                       rpc_timeout=60.0) as system:
                injector = ChaosInjector(system, pools, processes)
                # Kill the last member of role 0 the moment a round-1
                # frame is about to reach it (mid-sweep crash), and the
                # last member of role 1 when an extrema round first
                # addresses it (mid-interactive-round crash).
                injector.arm(
                    Fault(role=0, member=pool_size - 1,
                          kind="indicator_round", action="sigkill"),
                    Fault(role=1, member=pool_size - 1,
                          kind="extrema_collect", action="sigkill"),
                )
                assert run_batchable(system) == expected["batch"]
                assert run_interactive(system) == expected["interactive"]
                assert injector.fired == 2
                health = system.pool_health()
                assert health["status"] == "degraded"
                for role in (0, 1):
                    pool = health["pools"][role]
                    assert pool["status"] == "degraded"
                    assert pool["ejections"] >= 1
                # At least one kill landed with a frame in flight: the
                # retransmit path, not just the lazy eject, ran.
                assert sum(pool["failovers"]
                           for pool in health["pools"]) >= 1
        finally:
            _reap(processes)

    def test_slow_member_times_out_then_rejoins(self, expected):
        """SIGSTOP + timed SIGCONT: timeout-eject, then probe rejoins."""
        pools, processes = launch_forked_pools([2, 1, 1])
        injector = None
        try:
            with build(pools_spec(pools), rpc_timeout=2.0) as system:
                injector = ChaosInjector(system, pools, processes)
                # The stall must outlast rpc_timeout: a member that
                # resumes sooner just replies late-but-in-time and is
                # never ejected.
                injector.arm(Fault(role=0, member=1, kind="indicator_round",
                                   action="slow", resume_after=4.0))
                channel = system._channels[0]
                # Round-robin eventually addresses the armed seat; the
                # stalled reply times out (rpc_timeout), ejects it, and
                # the frame retransmits to the survivor mid-query.
                deadline = time.monotonic() + 20
                while injector.fired == 0 and time.monotonic() < deadline:
                    assert system.psi("k", querier=0).membership.tolist() \
                        == expected["batch"]["psi"]
                assert injector.fired == 1
                assert channel.health()["ejections"] >= 1
                # The member resumes after ~4s; half-open probes (run
                # on query traffic) must return it to rotation.
                deadline = time.monotonic() + 20
                while (channel.health()["status"] != "ok"
                       and time.monotonic() < deadline):
                    assert system.psi("k", querier=0).membership.tolist() \
                        == expected["batch"]["psi"]
                    time.sleep(0.1)
                assert channel.health()["status"] == "ok"
                assert channel.health()["rejoins"] >= 1
        finally:
            if injector is not None:
                injector.resume_all()
            _reap(processes)

    def test_hung_seat_is_not_revived_by_later_calls(self, expected):
        """A timed-out seat stays out until its breaker probe is due.

        A SIGSTOPped single host fails one query after ``rpc_timeout``;
        the next query and ``close()`` must not replay the journal into
        the still-stopped host and wait out the deadline again.
        """
        pools, processes = launch_forked_pools([1, 1, 1])
        victim = processes[0]
        stopped = False
        try:
            with build(pools_spec(pools), rpc_timeout=1.0) as system:
                psi = expected["batch"]["psi"]
                assert system.psi("k", querier=0).membership.tolist() == psi
                channel = system._channels[0]

                def stop_and_time_out():
                    nonlocal stopped
                    os.kill(victim.pid, signal.SIGSTOP)
                    stopped = True
                    with pytest.raises(QueryError, match="server pool"):
                        system.psi("k", querier=0)

                stop_and_time_out()
                started = time.monotonic()
                with pytest.raises(QueryError, match="server pool"):
                    system.psi("k", querier=0)
                assert time.monotonic() - started < 0.3
                assert channel.health()["status"] == "down"

                # Resumed, the host is healed by the breaker's probe.
                os.kill(victim.pid, signal.SIGCONT)
                stopped = False
                deadline = time.monotonic() + 20
                while (channel.health()["status"] != "ok"
                       and time.monotonic() < deadline):
                    time.sleep(0.1)
                    try:
                        system.psi("k", querier=0)
                    except QueryError:
                        pass
                assert channel.health()["status"] == "ok"
                assert channel.health()["rejoins"] >= 1
                assert system.psi("k", querier=0).membership.tolist() == psi

                stop_and_time_out()
                started = time.monotonic()
                system.close()
                assert time.monotonic() - started < 0.3
        finally:
            if stopped:
                os.kill(victim.pid, signal.SIGCONT)
            _reap(processes)

    def test_injected_disconnect_fails_over(self, expected):
        """A pure transport fault (no process touched) fails over too."""
        pools, processes = launch_forked_pools([2, 1, 1])
        try:
            with build(pools_spec(pools), rpc_timeout=60.0) as system:
                injector = ChaosInjector(system, pools, processes)
                injector.arm(Fault(role=0, member=0, kind="indicator_round",
                                   action="disconnect"))
                assert system.psi("k", querier=0).membership.tolist() == \
                    expected["batch"]["psi"]
                assert injector.fired == 1
                health = system._channels[0].health()
                assert health["failovers"] >= 1
                # The host process is alive, so the next probe rejoins
                # the seat over a fresh connection.
                deadline = time.monotonic() + 20
                while (system._channels[0].health()["status"] != "ok"
                       and time.monotonic() < deadline):
                    system.psi("k", querier=0)
                    time.sleep(0.1)
                assert system._channels[0].health()["status"] == "ok"
        finally:
            _reap(processes)


# -- supervised respawn -------------------------------------------------------


@needs_fork
class TestSupervisedRecovery:
    def test_respawn_replays_journal_and_serves(self, expected):
        """SIGKILL mid-benchmark → respawn, warm rejoin, same bits."""
        pools, processes = launch_forked_pools([2, 2, 2])
        supervisor = None
        all_processes = list(processes)
        try:
            with build(pools_spec(pools), rpc_timeout=60.0) as system:
                supervisor = HostSupervisor(
                    system, pools, processes,
                    poll_interval=0.05).start()
                assert run_batchable(system) == expected["batch"]
                victim = supervisor.process_for(0, 1)
                os.kill(victim.pid, signal.SIGKILL)
                victim.join(10)
                # Queries keep succeeding bit-identically while the
                # supervisor respawns the seat in the background.
                assert run_batchable(system) == expected["batch"]
                deadline = time.monotonic() + 30
                while time.monotonic() < deadline:
                    stats = supervisor.stats
                    if (stats["respawns"] >= 1
                            and system.pool_health()["status"] == "ok"):
                        break
                    time.sleep(0.1)
                stats = supervisor.stats
                assert stats["respawns"] >= 1
                assert stats["last_recovery_seconds"] is not None
                assert system.pool_health()["status"] == "ok"
                channel = system._channels[0]
                assert channel.health()["rejoins"] >= 1
                # The respawned seat serves traffic: its request
                # counter grows across a further benchmark run.
                before = channel.stats["members"][1]["requests"]
                assert run_batchable(system) == expected["batch"]
                assert channel.stats["members"][1]["requests"] > before
                all_processes = supervisor.processes
            # system.close() (context exit) closed the supervisor too:
            # nothing it ever owned — original or respawned — survives.
            deadline = time.monotonic() + 10
            while (any(p.is_alive() for p in all_processes)
                   and time.monotonic() < deadline):
                time.sleep(0.05)
            assert not any(p.is_alive() for p in all_processes)
        finally:
            if supervisor is not None:
                supervisor.close()
            _reap(all_processes)

    def test_supervised_pool_of_one_heals(self, expected):
        """A single-host role's death fails typed, then rejoins warm."""
        pools, processes = launch_forked_pools([1, 1, 1])
        supervisor = None
        all_processes = list(processes)
        try:
            with build(pools_spec(pools), rpc_timeout=60.0) as system:
                # Driven by poll(), not a watch thread: the failure is
                # observed before any respawn can hide it.
                supervisor = HostSupervisor(system, pools, processes)
                assert run_batchable(system) == expected["batch"]
                victim = supervisor.process_for(1, 0)
                os.kill(victim.pid, signal.SIGKILL)
                victim.join(10)
                started = time.monotonic()
                with pytest.raises(QueryError, match="server pool member"):
                    system.psi("k", querier=0)
                assert time.monotonic() - started < 10  # far below rpc_timeout
                assert system.pool_health()["status"] == "down"
                supervisor.poll()
                assert supervisor.stats["respawns"] == 1
                channel = system._channels[1]
                assert channel.health()["rejoins"] == 1
                events = system.transport.stats.events
                assert events["pool-eject"] >= 1
                assert events["pool-rejoin"] == events["pool-respawn"] == 1
                # Warm: the journal replay re-created the role's shares.
                assert run_batchable(system) == expected["batch"]
                assert system.pool_health()["status"] == "ok"
                all_processes = supervisor.processes
        finally:
            if supervisor is not None:
                supervisor.close()
            _reap(all_processes)

    def test_interactive_program_resumes_after_failover(self, expected):
        """ConnectionLost mid-round → the program re-runs only that round."""
        from repro.core.interactive import ExtremaProgram
        from repro.network.dispatch import ConnectionLost

        with build() as system:
            baseline = ExtremaProgram(system, "k", "amt", kind="max").run()
        with build() as system:
            original = system.servers[0].extrema_collect
            state = {"calls": 0}

            def flaky(shares):
                state["calls"] += 1
                if state["calls"] == 2:
                    raise ConnectionLost("chaos: mid-round loss")
                return original(shares)

            system.servers[0].extrema_collect = flaky
            program = ExtremaProgram(system, "k", "amt", kind="max")
            result = program.run()
            assert result.per_value == baseline.per_value
            assert result.holders == baseline.holders
            assert program.rounds_resumed == 1

    def test_interactive_resume_is_bounded(self):
        """A pool that never heals surfaces the failure, not a spin."""
        from repro.core.interactive import ExtremaProgram
        from repro.network.dispatch import ConnectionLost

        with build() as system:
            def always_dead(shares):
                raise ConnectionLost("chaos: permanent loss")

            system.servers[0].extrema_collect = always_dead
            program = ExtremaProgram(system, "k", "amt", kind="max")
            with pytest.raises(ConnectionLost):
                program.run()
            assert program.rounds_resumed == program.max_resumes


# -- gateway surface ----------------------------------------------------------


TENANTS = {"tok-heal": "heal"}


@needs_fork
class TestGatewaySelfHealing:
    def _register(self, gw):
        from repro import Domain
        from test_multihost_matrix import relations
        return gw.register_dataset(
            "heal", "kv", relations(), Domain.integer_range("k", 16),
            "k", agg_attributes=("amt",), with_verification=True, seed=3)

    def test_healthz_degraded_then_ok_after_rejoin(self):
        """healthz: ok → degraded while ejected → ok after respawn."""
        gw = Gateway(TENANTS, deployment="forked-tcp:2").start()
        try:
            dataset = self._register(gw)
            supervisor = dataset.system.supervisor
            assert supervisor is not None
            with GatewayClient("127.0.0.1", gw.port, "tok-heal",
                               dataset="kv",
                               request_timeout=60.0) as client:
                assert client.healthz()["status"] == "ok"
                supervisor.pause()
                victim = supervisor.process_for(0, 0)
                os.kill(victim.pid, signal.SIGKILL)
                victim.join(10)
                # Queries succeed via failover; the traffic is what
                # surfaces the ejection in the health report.
                for _ in range(3):
                    client.execute(
                        "SELECT k FROM a INTERSECT SELECT k FROM b "
                        "INTERSECT SELECT k FROM c")
                report = client.healthz()
                assert report["status"] == "degraded"
                assert report["pools"]["heal/kv"]["status"] == "degraded"
                assert dataset.stats["pool_health"] == "degraded"
                supervisor.resume()
                deadline = time.monotonic() + 30
                while (client.healthz()["status"] != "ok"
                       and time.monotonic() < deadline):
                    time.sleep(0.2)
                assert client.healthz()["status"] == "ok"
                assert supervisor.stats["respawns"] >= 1
        finally:
            gw.shutdown()

    def test_gateway_death_raises_typed_disconnect(self):
        """The gateway dying mid-session raises GatewayDisconnected."""
        gw = Gateway(TENANTS).start()
        port = gw.port
        self._register(gw)
        client = GatewayClient("127.0.0.1", port, "tok-heal", dataset="kv",
                               request_timeout=10.0)
        try:
            assert client.ping()
            gw.shutdown()
            with pytest.raises(GatewayDisconnected) as excinfo:
                deadline = time.monotonic() + 10
                while time.monotonic() < deadline:
                    client.healthz()
                    time.sleep(0.05)
            assert excinfo.value.address == f"127.0.0.1:{port}"
            assert isinstance(excinfo.value, ProtocolError)
        finally:
            client.close()
