"""The three closed-loop workloads.

Each workload owns a fleet shape, a list of query forms (SQL text or
:class:`repro.Q` builders, each with its oracle check), and the
deployment it measures.  A caller runs its forms in blocks: every block
holds each form exactly once, so any whole number of blocks is the same
multiset of work whatever the seed.

* ``scan_refresh`` — local deployment, forked shard workers, a refresh
  (new relations + ``PrismSystem.outsource``) after every 45 reads.
* ``gateway_tcp`` — a resident gateway with three forked entity hosts,
  two tenants' sessions on one shared dataset.
* ``rounds_tcp`` — a direct client over three forked entity hosts,
  interactive multi-round forms only.
"""

from __future__ import annotations

import socket

import numpy as np

from perfbench.fleet import FleetShape
from repro import Gateway, GatewayClient, PrismClient, PrismSystem, Q
from repro.core.results import (
    AggregateResult,
    CountResult,
    ExtremaResult,
    MedianResult,
    SetResult,
)
from repro.network.host import launch_forked_hosts
from repro.serving.tenancy import reap_processes

#: Master seed of every deployment's parameters and share randomness.
#: Fixed, so the workload seed changes the data and nothing else.
SYSTEM_SEED = 7

#: Initiator value bound (sizes the extrema modulus).
VALUE_BOUND = 100_000


def _sql(projection: str, op: str, owners: int) -> str:
    return f" {op} ".join(f"SELECT {projection} FROM o{i}"
                          for i in range(owners))


def _close(a: dict, b: dict) -> bool:
    return a.keys() == b.keys() and all(
        abs(a[k] - b[k]) <= 1e-9 * max(1.0, abs(b[k])) for k in a)


def set_forms(owners: int) -> list[tuple[str, object, object]]:
    """The ten batchable forms: ``(name, query, check(result, oracle))``."""
    psi = _sql("OK", "INTERSECT", owners)
    psu = _sql("OK", "UNION", owners)
    return [
        ("psi", psi, lambda r, o: isinstance(r, SetResult) and r.values == o["psi"]),
        ("psu", psu, lambda r, o: isinstance(r, SetResult) and r.values == o["psu"]),
        ("psi_count", _sql("COUNT(OK)", "INTERSECT", owners),
         lambda r, o: isinstance(r, CountResult) and r.count == o["psi_count"]),
        ("psu_count", _sql("COUNT(OK)", "UNION", owners),
         lambda r, o: isinstance(r, CountResult) and r.count == o["psu_count"]),
        ("psi_sum", _sql("OK, SUM(DT)", "INTERSECT", owners),
         lambda r, o: isinstance(r, AggregateResult)
         and r.per_value == o["psi_sum"]),
        ("psi_avg", Q.psi("OK").avg("DT"),
         lambda r, o: isinstance(r, AggregateResult)
         and _close(r.per_value, o["psi_avg"])),
        ("psu_sum", Q.psu("OK").sum("DT"),
         lambda r, o: isinstance(r, AggregateResult)
         and r.per_value == o["psu_sum"]),
        ("psi_verified", psi + " VERIFY",
         lambda r, o: isinstance(r, SetResult) and r.verified
         and r.values == o["psi"]),
        ("psu_verified", Q.psu("OK").verify(),
         lambda r, o: isinstance(r, SetResult) and r.verified
         and r.values == o["psu"]),
        ("psi_sum_verified", Q.psi("OK").sum("DT").verify(),
         lambda r, o: isinstance(r, AggregateResult) and r.verified
         and r.per_value == o["psi_sum"]),
    ]


def _holders_ok(result, expected: dict, all_holders: bool) -> bool:
    if all_holders:
        return result.holders == expected
    return all(len(result.holders[k]) == 1 and result.holders[k][0] in v
               for k, v in expected.items())


def round_forms() -> list[tuple[str, object, object]]:
    """The five interactive forms of ``rounds_tcp``."""
    return [
        ("max_holders", Q.psi("OK").max("DT"),
         lambda r, o: isinstance(r, ExtremaResult) and r.per_value == o["max"]
         and _holders_ok(r, o["max_holders"], True)),
        ("max_verified", Q.psi("OK").max("DT").verify().reveal_holders(False),
         lambda r, o: isinstance(r, ExtremaResult) and r.per_value == o["max"]
         and _holders_ok(r, o["max_holders"], False)),
        ("min", Q.psi("OK").min("DT").reveal_holders(False),
         lambda r, o: isinstance(r, ExtremaResult) and r.per_value == o["min"]
         and _holders_ok(r, o["min_holders"], False)),
        ("median", Q.psi("OK").median("DT"),
         lambda r, o: isinstance(r, MedianResult) and r.per_value == o["median"]),
        ("bucketized_psi", Q.psi("OK").bucketized(),
         lambda r, o: isinstance(r, tuple) and isinstance(r[0], SetResult)
         and r[0].values == o["psi"]
         and r[1]["actual_domain_size"] == o["bucketized_cells"]),
    ]


class Workload:
    """One deployment shape and the forms its callers run."""

    name = ""
    shape: FleetShape
    callers = 1
    #: Reads between refreshes (``None``: no refreshes).
    refresh_every: int | None = None
    #: The highest percentile printed, and the reads that leave at least
    #: ten samples beyond it.  ``BENCHMARK.json`` guards p90 instead:
    #: this far out, one slow stretch of the host moved the figure by
    #: twice the median's spread.
    tail_pct = 95.0
    min_reads = 200
    #: Reads per second on the 2-vCPU VM this was tuned on (one CPU
    #: pinned); sizes the fixed work so a run takes about ``--seconds``.
    nominal_qps = 10.0
    #: Whether each caller's block order is drawn from the seed.
    seeded_order = True
    #: Set-ups per untraced run; ``setup_s`` is their median.
    setups = 5

    def __init__(self):
        self.forms = self.make_forms()

    def make_forms(self):
        raise NotImplementedError

    def reads_per_caller(self, seconds: float) -> int:
        """Fixed reads per caller: whole blocks, enough for the tail."""
        block = len(self.forms)
        want = max(seconds * self.nominal_qps, self.min_reads)
        blocks = -(-int(want) // (block * self.callers))
        return blocks * block

    def sequences(self, seed: int, reads: int) -> list[list[int]]:
        """Form indices per caller: ``reads // len(forms)`` whole blocks."""
        block = len(self.forms)
        out = []
        for caller in range(self.callers):
            rng = np.random.default_rng((seed, 1000 + caller))
            order = []
            for _ in range(reads // block):
                order.extend(rng.permutation(block).tolist()
                             if self.seeded_order else range(block))
            out.append(order)
        return out

    def refreshes(self, reads: int) -> int:
        if self.refresh_every is None:
            return 0
        return (reads - 1) // self.refresh_every

    # -- deployment lifecycle (overridden) ------------------------------------

    def start(self, fleet) -> None:
        """Build the deployment; queries may run afterwards."""
        raise NotImplementedError

    def execute(self, caller: int, query):
        raise NotImplementedError

    def refresh(self, fleet) -> None:
        raise NotImplementedError

    def stop(self) -> None:
        raise NotImplementedError

    # -- counters the runner reads --------------------------------------------

    def system(self):
        raise NotImplementedError

    def model_bytes(self) -> int:
        return self.system().transport.stats.total_bytes

    def socket_bytes(self) -> int:
        return 0

    def fusion(self) -> tuple[int, int]:
        """``(submitted, ticks)`` of a coalescing scheduler, else ``(0, 0)``."""
        return 0, 0

    def rejected(self) -> tuple[int, int]:
        """``(admitted, rejected)`` by gateway admission, else ``(0, 0)``."""
        return 0, 0


class ScanRefresh(Workload):
    """Large sweeps, PSU masks, union decoding, and a periodic refresh."""

    name = "scan_refresh"
    shape = FleetShape(domain_size=262_144, fanout=8, num_owners=5,
                       rows=32_768, common=2_048, shared=2_048,
                       private=10_240)
    refresh_every = 45
    min_reads = 200
    nominal_qps = 10.0
    setups = 3

    def make_forms(self):
        return set_forms(self.shape.num_owners)

    def start(self, fleet) -> None:
        self._system = PrismSystem.build(
            fleet.relations, fleet.domain, "OK", agg_attributes=("DT",),
            with_verification=True, num_shards="auto", seed=SYSTEM_SEED,
            value_bound=VALUE_BOUND)
        self._client = PrismClient(self._system)

    def execute(self, caller: int, query):
        return self._client.execute(query)

    def refresh(self, fleet) -> None:
        for owner, relation in zip(self._system.owners, fleet.relations):
            owner.relation = relation
        self._system.outsource("OK", ("DT",), with_verification=True)

    def stop(self) -> None:
        self._client.close()
        self._system.close()

    def system(self):
        return self._system


class RoundsTcp(Workload):
    """Sequential interactive rounds over real sockets, no gateway."""

    name = "rounds_tcp"
    shape = FleetShape(domain_size=32_768, fanout=8, num_owners=8,
                       rows=2_572, common=6, shared=128, private=1_024)
    min_reads = 200
    nominal_qps = 22.0
    # A fixed order keeps the owners' blinding draws, and so the
    # big-integer share sizes, identical across seeds.
    seeded_order = False

    def make_forms(self):
        return round_forms()

    def start(self, fleet) -> None:
        spec, self._processes = launch_forked_hosts(3)
        try:
            self._system = PrismSystem.build(
                fleet.relations, fleet.domain, "OK", agg_attributes=("DT",),
                with_verification=True, seed=SYSTEM_SEED,
                value_bound=VALUE_BOUND, deployment=spec)
            self._system.outsource_bucketized("OK", fanout=self.shape.fanout)
        except BaseException:
            reap_processes(self._processes)
            raise
        self._client = PrismClient(self._system)

    def execute(self, caller: int, query):
        return self._client.execute(query)

    def stop(self) -> None:
        self._client.close()
        self._system.close()
        reap_processes(self._processes)

    def system(self):
        return self._system

    def socket_bytes(self) -> int:
        stats = self._system.channel_stats()
        return stats["bytes_sent"] + stats["bytes_received"]


class GatewayTcp(Workload):
    """Two tenants' sessions through the serving gateway."""

    name = "gateway_tcp"
    shape = FleetShape(domain_size=4_096, fanout=8, num_owners=10,
                       rows=32_768, common=256, shared=64, private=128)
    callers = 2
    setups = 9
    tail_pct = 99.0
    min_reads = 1_000
    nominal_qps = 145.0
    tenants = {"tok-alpha": "alpha", "tok-beta": "beta"}
    sessions = (("tok-alpha", "fleet"), ("tok-beta", "alpha/fleet"))

    def make_forms(self):
        return set_forms(self.shape.num_owners)

    def start(self, fleet) -> None:
        self._gateway = Gateway(self.tenants, deployment="forked-tcp")
        self._clients = []
        try:
            self._dataset = self._gateway.register_dataset(
                "alpha", "fleet", fleet.relations, fleet.domain, "OK",
                agg_attributes=("DT",), with_verification=True, shared=True,
                seed=SYSTEM_SEED, value_bound=VALUE_BOUND)
            self._gateway.start()
            for token, ref in self.sessions:
                self._clients.append(GatewayClient(
                    "127.0.0.1", self._gateway.port, token, dataset=ref))
        except BaseException:
            self.stop()
            raise

    def execute(self, caller: int, query):
        return self._clients[caller].execute(query)

    def stop(self) -> None:
        for client in self._clients:
            client.close()
        # Closing a listening socket does not wake a thread blocked in
        # accept() on Linux, so Gateway.shutdown would wait out its
        # 5 s join timeout on the accept thread; shutting the listener
        # down first wakes it.
        listener = self._gateway._listener
        if listener is not None:
            try:
                listener.shutdown(socket.SHUT_RDWR)
            except OSError:
                pass
        self._gateway.shutdown()

    def system(self):
        return self._dataset.system

    def socket_bytes(self) -> int:
        stats = self._dataset.system.channel_stats()
        total = stats["bytes_sent"] + stats["bytes_received"]
        for client in self._clients:
            transport = client.stats["transport"]
            total += transport["bytes_sent"] + transport["bytes_received"]
        return total

    def fusion(self) -> tuple[int, int]:
        scheduler = self._dataset.client.stats["scheduler"]
        return scheduler["submitted"], scheduler["ticks"]

    def rejected(self) -> tuple[int, int]:
        stats = self._gateway.admission.stats
        return (stats["admitted"],
                stats["rejected_rate_limit"] + stats["rejected_queue_full"])


WORKLOADS = {cls.name: cls for cls in (ScanRefresh, GatewayTcp, RoundsTcp)}
