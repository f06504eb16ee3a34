"""The high-level Prism facade.

:class:`PrismSystem` wires up a full deployment — initiator, ``m`` owners,
three servers, announcer, transport — and exposes one method per supported
query (Table 4): ``psi``, ``psu``, ``psi_count``, ``psu_count``,
``psi_sum``, ``psi_average``, ``psi_max``, ``psi_min``, ``psi_median``,
plus their PSU-aggregation variants and bucketized PSI.

These methods are thin shims: each builds one :class:`~repro.api.builder.Q`
and runs it through the single :class:`~repro.api.executor.Executor`
(:meth:`PrismSystem._run`), so *every*
query — including a lone ``system.psi(...)`` call — executes as a batch
of one through the fused 2-D server kernels and the indicator-share
cache.  Results match the plaintext oracles and their wire transcripts
are pinned (``tests/test_batch.py``, ``tests/test_api.py``,
``tests/test_golden_transcripts.py``).  For a session-style surface
with per-session stats, use
:meth:`client` / :class:`repro.api.PrismClient`.

Typical use::

    from repro import PrismSystem, Relation, Domain

    domain = Domain("disease", ["cancer", "fever", "heart"])
    system = PrismSystem.build([rel1, rel2, rel3], domain,
                               psi_attribute="disease",
                               agg_attributes=("cost", "age"))
    print(system.psi("disease").values)
    print(system.psi_sum("disease", "cost")["cost"].per_value)
"""

from __future__ import annotations

import threading

from repro.api.builder import Q
from repro.core.bucketized import (
    BucketTree,
    outsource_bucketized,
)
from repro.core.results import (
    AggregateResult,
    CountResult,
    ExtremaResult,
    MedianResult,
    SetResult,
)
from repro.core.sharding import attach_sharding, resolve_shards
from repro.crypto.groups import DEFAULT_ALPHA
from repro.crypto.shamir import DEFAULT_FIELD_PRIME
from repro.data.domain import Domain, ProductDomain
from repro.data.relation import Relation
from repro.entities.announcer import Announcer
from repro.entities.initiator import Initiator
from repro.entities.owner import DBOwner
from repro.entities.server import PrismServer
from repro.exceptions import ParameterError, ProtocolError
from repro.network.transport import LocalTransport

#: Number of servers a full deployment instantiates (2 additive + 1 extra
#: Shamir point for degree-2 reconstruction, §3.2).
NUM_SERVERS = 3


def _server_spec(factory) -> tuple[str | None, dict]:
    """(dotted path, constructor kwargs) for a remote host bootstrap.

    TCP hosts construct the entity themselves, so the factory must be a
    class, a dotted path string, or a ``(class_or_path, kwargs)`` tuple
    — the fault-injection classes of :mod:`repro.entities.adversary`
    qualify (e.g. ``{2: (DropAggregateServer, {"cells": (2,)})}``);
    closures cannot travel.
    """
    kwargs: dict = {}
    if isinstance(factory, tuple):
        factory, kwargs = factory
        kwargs = dict(kwargs)
    if factory is PrismServer:
        return None, kwargs
    if isinstance(factory, str):
        return factory, kwargs
    if isinstance(factory, type) and issubclass(factory, PrismServer):
        return f"{factory.__module__}.{factory.__qualname__}", kwargs
    raise ParameterError(
        "tcp deployments need server *classes* (or dotted path strings) in "
        "server_factories — the remote host constructs the entity and "
        "cannot execute a local callable"
    )


def _callable_factory(factory):
    """Normalise a server_factories entry to ``factory(index, params)``."""
    from repro.network.host import _resolve_server_class
    kwargs: dict = {}
    if isinstance(factory, tuple):
        factory, kwargs = factory
        kwargs = dict(kwargs)
    if isinstance(factory, str):
        factory = _resolve_server_class(factory)
    if kwargs:
        return lambda index, params, _cls=factory, _kw=kwargs: \
            _cls(index, params, **_kw)
    return factory


def _pool_event_hook(transport):
    """Dispatch-layer health transitions → ``transport``'s event counters.

    Closes over the transport, not the system: a hook bound to the
    system would make every channel ↔ system pair a reference cycle, so
    a closed deployment's shares and tables would stay in memory until
    a full garbage collection.
    """
    def hook(event: str, member: str) -> None:
        transport.stats.count_event(f"pool-{event}")
    return hook


class PrismSystem:
    """A complete in-process Prism deployment.

    Most callers should use :meth:`build`, which also runs Phase 1
    (outsourcing).  The constructor only wires entities.

    Args:
        relations: one private relation per owner.
        domain: the PSI/PSU attribute domain.
        seed: master seed for all parameters and share randomness.
        num_shards: default span count of every server sweep (an ``int``
            of at least 1).  ``> 1`` partitions every share vector into
            that many contiguous shards and runs the kernels
            shard-parallel on a persistent thread pool shared by all
            three servers.  ``"auto"`` picks the shard
            count from the χ length and the CPUs this process may use,
            with the threshold measured by
            ``benchmarks/bench_sharding.py``
            (:func:`repro.core.sharding.auto_shard_plan`).  Results are
            bit-identical to the unsharded path.  Call :meth:`close` (or
            use the system as a context manager) to join the pool.
        deployment: where the server entities live — ``"local"`` (this
            process, zero-copy; the default and the historical
            behaviour), ``"subprocess"`` (each server hosted in a forked
            worker, frames over a socketpair), ``"shm"`` (the same, with
            share vectors in shared-memory arenas), or
            ``"tcp://host:port,host:port,host:port"`` (standalone
            ``repro-entity-host`` processes, length-prefixed codec
            frames over TCP).  Each tcp server role also accepts a
            *pool* of replica hosts —
            ``"tcp://h:p,h:p/h:p/h:p,h:p,h:p"`` separates the three
            roles with ``/`` and pool members with ``,`` — whose
            replicas share the role's requests, one whole-round frame
            each (:class:`~repro.network.dispatch.PooledChannel`).  A parsed
            :class:`~repro.network.rpc.Deployment` works too.  Owners,
            initiator, and announcer stay in this process; non-local
            deployments expose each server through a
            :class:`~repro.entities.remote.RemoteServer` proxy, and
            results are bit-identical across all modes and pool sizes.
        delta: override the additive-group prime.
        alpha: the ``eta' = alpha * eta`` multiplier.
        field_prime: Shamir field prime.
        value_bound: max aggregation-attribute value (sizes the extrema
            modulus).
        server_factories: optional per-index server constructors, e.g. to
            inject malicious servers:
            ``{1: lambda i, p: SkipCellsServer(i, p)}``.
        announcer_knows_eta: deal ``eta`` to the announcer, enabling
            announcer-driven bucket traversal (§6.6 note) at the cost of
            the announcer learning which bucket nodes are common.
        serialize_transport: round-trip every message through the binary
            wire codec (conformance mode; slower, byte-exact accounting).
        rpc_timeout: per-request timeout in seconds for every
            out-of-process host, tcp or forked (``None``: wait forever).
            A host that hangs past the deadline is ejected from its
            role's pool and the request fails over; once no member
            answers, a typed :class:`~repro.exceptions.QueryError`
            naming the pool surfaces instead of a deadlocked query — for
            a single-host role (every forked one), the first time its
            host fails.
    """

    def __init__(self, relations: list[Relation], domain: Domain | ProductDomain,
                 seed: int = 0, num_shards: int | str = 1,
                 delta: int | None = None, alpha: int = DEFAULT_ALPHA,
                 field_prime: int = DEFAULT_FIELD_PRIME,
                 value_bound: int = 10_000,
                 server_factories: dict | None = None,
                 announcer_knows_eta: bool = False,
                 serialize_transport: bool = False,
                 deployment: str = "local",
                 rpc_timeout: float | None = None):
        from repro.network.rpc import Deployment
        if len(relations) < 2:
            raise ParameterError("Prism needs at least two owners")
        if num_shards is None:
            raise ParameterError("num_shards=None defers to a deployment "
                                 "default; a deployment needs 'auto' or "
                                 "an int >= 1")
        self.domain = domain
        self.num_shards = resolve_shards(num_shards, domain.size)
        self.rpc_timeout = rpc_timeout
        self.deployment = Deployment.parse(deployment,
                                           num_servers=NUM_SERVERS)
        self.initiator = Initiator(len(relations), domain, seed=seed,
                                   delta=delta, alpha=alpha,
                                   field_prime=field_prime,
                                   value_bound=value_bound)
        self.transport = LocalTransport(serialize=serialize_transport)
        # Dispatch/supervision layers count the exceptions their
        # survival guards deliberately swallow against this transport's
        # stats (``swallowed-<site>:<ExcType>`` events).
        from repro.network.dispatch import register_event_sink
        register_event_sink(self.transport)
        #: Optional :class:`~repro.network.supervisor.HostSupervisor`
        #: (set by whoever forked the pools; closed with the system).
        self.supervisor = None
        owner_params = self.initiator.owner_params()
        self.owners = [
            DBOwner(i, owner_params, relation=rel, seed=seed)
            for i, rel in enumerate(relations)
        ]
        factories = server_factories or {}
        self._channels: list = []
        #: Forked entity hosts and their shared-memory arenas, owned by
        #: this system and released by :meth:`close`.
        self._processes: list = []
        self._arenas: list = []
        if self.deployment.is_local:
            self.servers = [
                _callable_factory(factories.get(i, PrismServer))(
                    i, self.initiator.server_params(i))
                for i in range(NUM_SERVERS)
            ]
        else:
            self.servers = self._connect_servers(factories)
        self.announcer = Announcer(
            self.initiator.announcer_params(include_eta=announcer_knows_eta),
            seed=seed,
        )
        self._executor = None
        self._nonce = 0
        self._nonce_lock = threading.Lock()
        self._bucket_trees: dict[str, BucketTree] = {}
        self._shard_runtime = None
        if self.deployment.is_local:
            self._shard_runtime = attach_sharding(self.servers,
                                                  self.num_shards)
        else:
            # Remote stores are out of reach of a local thread pool:
            # each proxy ships the shard count and the hosts execute it
            # (bit-identical either way).
            for server in self.servers:
                server.num_shards = self.num_shards

    def _connect_servers(self, factories: dict) -> list:
        """Build the server proxies of a non-local deployment."""
        from repro.entities.remote import RemoteServer
        from repro.network.dispatch import PooledChannel
        from repro.network.rpc import (
            CONSTRUCT,
            RpcMessage,
            server_params_to_wire,
        )
        servers = []
        try:
            for i in range(NUM_SERVERS):
                params = self.initiator.server_params(i)
                factory = factories.get(i, PrismServer)
                tcp = self.deployment.mode == "tcp"
                if tcp:
                    server_class, ctor_kwargs = _server_spec(factory)
                    # Every pool member (one, for a single-host role)
                    # hosts a full replica of this server role; the
                    # CONSTRUCT below broadcasts.
                    channel = PooledChannel.connect(
                        self.deployment.pools[i],
                        request_timeout=self.rpc_timeout)
                else:
                    channel = self._fork_server(
                        lambda i=i, params=params,
                        make=_callable_factory(factory): make(i, params))
                channel.on_event = _pool_event_hook(self.transport)
                self._channels.append(channel)
                if tcp:
                    channel.send(RpcMessage(CONSTRUCT, {
                        "entity": "server",
                        "index": i,
                        "params": server_params_to_wire(params),
                        "server_class": server_class,
                        "kwargs": ctor_kwargs,
                    }))
                servers.append(RemoteServer(i, params, channel))
        except BaseException:
            # A later server failing to come up must not leak the
            # channels (and forked children) already opened: the
            # half-built system is unreachable and close() never runs.
            self._close_channels()
            self._channels.clear()
            raise
        return servers

    def _fork_server(self, make):
        """A pool of one forked host running ``make()`` after the fork,
        so arbitrary callables (malicious-server lambdas included) work.
        ``"shm"`` maps a pair of shared-memory arenas before the fork,
        so share vectors skip the socket."""
        from repro.network.dispatch import PooledChannel, _MuxConnection
        from repro.network.host import fork_host
        arenas = (None, None)
        if self.deployment.mode == "shm":
            from repro.network.shm import ShmArena
            arenas = (ShmArena(), ShmArena())
            self._arenas += arenas
        sock, process = fork_host(make, arenas)
        self._processes.append(process)
        conn = _MuxConnection(sock, f"forked host {process.pid}", arenas)
        return PooledChannel([conn], request_timeout=self.rpc_timeout)

    def _close_channels(self) -> None:
        """Close every channel; forked hosts are shut down and reaped,
        and their arenas unmapped (TCP hosts keep running)."""
        from repro.network.host import reap_processes
        for channel in self._channels:
            if self.deployment.mode == "tcp":
                channel.close()
            else:
                channel.shutdown_remote()
        reap_processes(self._processes)
        self._processes.clear()
        for arena in self._arenas:
            arena.close()
        self._arenas.clear()

    # -- lifecycle ------------------------------------------------------------

    @classmethod
    def build(cls, relations, domain, psi_attribute,
              agg_attributes=(), with_verification: bool = False,
              mask_zeros: bool = False, **kwargs) -> "PrismSystem":
        """Construct a system and run Phase 1 outsourcing in one step."""
        system = cls(relations, domain, **kwargs)
        system.outsource(psi_attribute, agg_attributes, with_verification,
                         mask_zeros=mask_zeros)
        return system

    def outsource(self, psi_attribute, agg_attributes=(),
                  with_verification: bool = False,
                  mask_zeros: bool = False) -> None:
        """Phase 1: every owner ships its Table-11 share columns.

        ``mask_zeros`` enables the footnote-1 hardening (random values in
        absent χ cells); PSI-only, incompatible with verification.
        """
        for owner in self.owners:
            owner.outsource(self.servers, psi_attribute,
                            tuple(agg_attributes), with_verification,
                            transport=self.transport,
                            mask_zeros=mask_zeros)
        # The outsourced snapshot changed: previously dealt indicator
        # shares no longer correspond to current query results.
        self.initiator.indicator_cache.invalidate()

    def outsource_bucketized(self, psi_attribute, fanout: int = 10) -> BucketTree:
        """Phase 1 for bucketized PSI: per-level χ columns (§6.6)."""
        # The leaf level is the ordinary PSI column; ensure it exists.
        if not self.servers[0].owners_with(
                psi_attribute if isinstance(psi_attribute, str)
                else "*".join(psi_attribute)):
            self.outsource(psi_attribute)
        tree = outsource_bucketized(self, psi_attribute, fanout)
        key = psi_attribute if isinstance(psi_attribute, str) \
            else "*".join(psi_attribute)
        self._bucket_trees[key] = tree
        return tree

    def bucket_tree(self, attribute) -> BucketTree:
        """The §6.6 bucket tree for ``attribute`` (raises if not built)."""
        key = attribute if isinstance(attribute, str) else "*".join(attribute)
        if key not in self._bucket_trees:
            raise ParameterError(
                f"call outsource_bucketized({key!r}) before bucketized_psi"
            )
        return self._bucket_trees[key]

    def next_nonce(self) -> int:
        """Fresh query nonce (PSU mask stream freshness).

        Locked: concurrent submitters (``client.submit`` from many
        threads, parallel ``execute_many`` calls) must never draw the same
        nonce — a duplicate would replay an Eq. 18 mask stream.
        """
        with self._nonce_lock:
            self._nonce += 1
            return self._nonce

    def close(self) -> None:
        """Release execution resources: pools, and — remotely — channels.

        Idempotent.  Joins every pool thread; local deployments stay
        usable afterwards (pools are re-created lazily), so this is a
        quiesce as much as a teardown.  Non-local deployments
        additionally close their channels (forked hosts are shut down
        and reaped, and their arenas unmapped; TCP hosts keep running
        for the next client), after which the system can no longer
        query.
        """
        # The executor refers back to this system; dropping it breaks
        # the cycle, so a closed system (shares, tables) is freed with
        # its last reference.  A reused local system rebuilds it lazily.
        self._executor = None
        if self.supervisor is not None:
            # Stop the watch loop *before* closing channels: a respawn
            # racing the teardown would resurrect a host we are about
            # to orphan.
            self.supervisor.close()
        if self._shard_runtime is not None:
            self._shard_runtime.close()
        for server in self.servers:
            close = getattr(server, "close", None)
            if close is not None:
                try:
                    close()
                except Exception:
                    if self.deployment.is_local:
                        raise
                    # A dead channel must not block teardown of the rest.
        self._close_channels()

    def pool_health(self) -> dict:
        """Aggregated liveness of the deployment's server-role pools.

        ``ok`` while every member of every pool is up, ``degraded``
        while any pool runs ejected members (queries still succeed via
        failover), ``down`` when some pool has no live member at all.
        Every out-of-process role is a pool (a forked role, a pool of
        one); local deployments — no pools — always report ``ok``.
        """
        pools = [channel.health() for channel in self._channels]
        statuses = [pool["status"] for pool in pools]
        if any(status == "down" for status in statuses):
            status = "down"
        elif any(status != "ok" for status in statuses):
            status = "degraded"
        else:
            status = "ok"
        report = {"status": status, "pools": pools}
        if self.supervisor is not None:
            report["supervisor"] = self.supervisor.stats
        return report

    def channel_stats(self) -> dict:
        """Wire accounting of a non-local deployment's channels.

        ``bytes_sent``/``bytes_received`` count actual framed bytes on
        the wire (empty totals under ``deployment="local"``, which moves
        no bytes); the transport's :class:`TrafficStats` remain the
        protocol-level model either way.
        """
        per_channel = [channel.stats for channel in self._channels]
        return {
            "mode": self.deployment.mode,
            "channels": per_channel,
            "requests": sum(s["requests"] for s in per_channel),
            "bytes_sent": sum(s["bytes_sent"] for s in per_channel),
            "bytes_received": sum(s["bytes_received"] for s in per_channel),
        }

    def __enter__(self) -> "PrismSystem":
        return self

    def __exit__(self, *exc_info) -> None:
        self.close()

    @property
    def relations(self) -> list[Relation]:
        return [owner.relation for owner in self.owners]

    def client(self, num_shards: int | str | None = None):
        """Open a session-style :class:`repro.api.PrismClient` on this
        deployment (per-session query/traffic stats, ``EXPLAIN``, fluent
        builders, concurrent ``submit`` with batch coalescing)."""
        from repro.api.client import PrismClient
        return PrismClient(self, num_shards=num_shards)

    # -- the unified execution path -------------------------------------------

    @property
    def executor(self):
        """The deployment's :class:`~repro.api.executor.Executor`.

        Imported lazily: :mod:`repro.api` sits *above* the core layer
        (its executor dispatches into :mod:`repro.core.batch`), so a
        module-level import here would be circular.
        """
        if self._executor is None:
            from repro.api.executor import Executor
            self._executor = Executor(self)
        return self._executor

    def _run(self, query, options: dict):
        """Run a kind method's query: ``querier`` / ``owner_ids`` land
        on the builder, every other option (``num_shards``, runner
        options) goes to :meth:`Executor.execute
        <repro.api.executor.Executor.execute>`."""
        options = dict(options)
        query = query.querier(options.pop("querier", 0))
        owner_ids = options.pop("owner_ids", None)
        if owner_ids is not None:
            query = query.owners(owner_ids)
        return self.executor.execute(query.plan(), **options)

    def _per_attribute(self, query, fn: str, agg_attributes,
                       options: dict) -> dict[str, AggregateResult]:
        """A SUM/AVG method: ``fn`` over every attribute, keyed by
        attribute even when there is only one."""
        if not agg_attributes:
            raise ProtocolError("no aggregation attributes given")
        if isinstance(agg_attributes, str):
            agg_attributes = [agg_attributes]
        attrs = list(dict.fromkeys(agg_attributes))
        out = self._run(getattr(query, fn.lower())(*attrs), options)
        if len(attrs) == 1:
            return {attrs[0]: out}
        return {a: out[f"{fn}({a})"] for a in attrs}

    # -- set queries -----------------------------------------------------------

    def psi(self, attribute, verify: bool = False, **kwargs) -> SetResult:
        """Private set intersection over ``attribute`` (§5.1/§5.2)."""
        return self._run(Q.psi(attribute).verify(verify), kwargs)

    def psu(self, attribute, verify: bool = False, **kwargs) -> SetResult:
        """Private set union over ``attribute`` (§7), optionally verified."""
        return self._run(Q.psu(attribute).verify(verify), kwargs)

    def psi_count(self, attribute, verify: bool = False, **kwargs) -> CountResult:
        """Intersection cardinality only (§6.5)."""
        return self._run(Q.psi(attribute).count().verify(verify), kwargs)

    def psu_count(self, attribute, **kwargs) -> CountResult:
        """Union cardinality only (§6.5 applied to PSU)."""
        return self._run(Q.psu(attribute).count(), kwargs)

    # -- summary aggregations ----------------------------------------------------

    def psi_sum(self, attribute, agg_attributes, verify: bool = False,
                **kwargs) -> dict[str, AggregateResult]:
        """Sum per common value (§6.1); multi-attribute per Table 12."""
        return self._per_attribute(Q.psi(attribute).verify(verify), "SUM",
                                   agg_attributes, kwargs)

    def psi_average(self, attribute, agg_attributes, verify: bool = False,
                    **kwargs) -> dict[str, AggregateResult]:
        """Average per common value (§6.2)."""
        return self._per_attribute(Q.psi(attribute).verify(verify), "AVG",
                                   agg_attributes, kwargs)

    def psu_sum(self, attribute, agg_attributes, verify: bool = False,
                **kwargs) -> dict[str, AggregateResult]:
        """Sum per union value (aggregation over PSU, §2)."""
        return self._per_attribute(Q.psu(attribute).verify(verify), "SUM",
                                   agg_attributes, kwargs)

    def psu_average(self, attribute, agg_attributes, verify: bool = False,
                    **kwargs) -> dict[str, AggregateResult]:
        """Average per union value (aggregation over PSU)."""
        return self._per_attribute(Q.psu(attribute).verify(verify), "AVG",
                                   agg_attributes, kwargs)

    # -- exemplar aggregations -----------------------------------------------------

    def psi_max(self, attribute, agg_attribute, reveal_holders: bool = True,
                verify: bool = False, **kwargs) -> ExtremaResult:
        """Maximum per common value, with optional holder identities (§6.3).

        ``verify=True`` reruns the announcer round under fresh blinding
        and requires agreement (the re-blinding consistency check).
        """
        return self._run(Q.psi(attribute).max(agg_attribute).verify(verify)
                         .reveal_holders(reveal_holders), kwargs)

    def psi_min(self, attribute, agg_attribute, reveal_holders: bool = True,
                verify: bool = False, **kwargs) -> ExtremaResult:
        """Minimum per common value (§6.3 with FindMin)."""
        return self._run(Q.psi(attribute).min(agg_attribute).verify(verify)
                         .reveal_holders(reveal_holders), kwargs)

    def psi_median(self, attribute, agg_attribute, verify: bool = False,
                   **kwargs) -> MedianResult:
        """Median across owners of per-owner group totals (§6.4).

        ``verify=True`` raises :class:`~repro.exceptions.QueryError`
        ("MEDIAN has no verification stream") — the same typed rejection
        the plan IR and :class:`~repro.core.interactive.MedianProgram`
        produce, so every path fails alike.
        """
        return self._run(Q.psi(attribute).median(agg_attribute)
                         .verify(verify), kwargs)

    # -- bucketized PSI -------------------------------------------------------------

    def bucketized_psi(self, attribute, **kwargs) -> tuple[SetResult, dict]:
        """Bucketized PSI (§6.6); requires :meth:`outsource_bucketized`.

        Keyword options reach the program: ``announcer_driven=True``
        routes the upper levels' outputs through the announcer (§6.6
        note; needs ``announcer_knows_eta``).  Returns the leaf-level
        :class:`SetResult` and the traversal's stats dict
        (:class:`~repro.core.interactive.BucketizedPsiProgram`).
        """
        return self._run(Q.psi(attribute).bucketized(), kwargs)
