"""Client-side proxy for a server entity living behind a channel.

:class:`RemoteServer` mirrors the callable surface of
:class:`~repro.entities.server.PrismServer` — the storage interface,
the fused 2-D kernels, the extrema machinery — and forwards every call
through a :class:`~repro.network.rpc.Channel` as a framed RPC.  The
orchestration layer (:mod:`repro.core`) therefore runs unchanged
whether ``system.servers[i]`` is an in-process server object or a proxy
to an entity three sockets away; results are bit-identical because the
hosted entity executes the very same kernels over the very same shares.

Kernel calls name their columns, never ship shares: the host fetches
them from its own store.  :meth:`RemoteServer.fetch_additive` /
:meth:`~RemoteServer.fetch_shamir` bring a column's shares over the wire
for a caller that reads them, each checked to arrive at the width of
its modulus.  Shard counts travel: a local thread pool cannot reach a
remote store, so the proxy ships a sweep's ``num_shards`` and the host
executes it on its own pool — bit-identical by the sharding layer's
span contract.  Each kernel round is one whole-round frame: a host pool
spreads rounds across its replicas, never one round across hosts.
"""

from __future__ import annotations

import threading

from repro.core.params import ServerParams
from repro.crypto.widths import as_shares, check_stream
from repro.data.storage import ShareKind
from repro.exceptions import ProtocolError
from repro.network.message import Endpoint, Role


class RemoteServer:
    """Proxy speaking the PrismServer RPC surface over one channel.

    Args:
        index: server id (mirrors the remote entity's).
        params: the server's §4 knowledge view, kept client-side to
            check every reply against the width of its modulus.
        channel: the :class:`~repro.network.rpc.Channel` to the host.
    """

    #: Marks the proxy for layers that must not touch a local store.
    is_remote = True

    def __init__(self, index: int, params: ServerParams, channel):
        self.index = index
        self.params = params
        self.channel = channel
        self.endpoint = Endpoint(Role.SERVER, index)
        #: Deployment-default span count of the batched sweeps (the
        #: runtime, if any, lives host-side).
        self.num_shards = 1
        #: Rounds sent by :meth:`issue` and not yet collected, keyed by
        #: ``(thread id, kernel)``.
        self._issued: dict = {}

    def __repr__(self) -> str:  # pragma: no cover - debugging aid
        return f"RemoteServer(index={self.index}, channel={self.channel!r})"

    # -- storage surface ------------------------------------------------------

    def receive_shares(self, owner_id: int, column: str, values, kind) -> None:
        """Phase 1: forward one outsourced share vector to the host."""
        values = as_shares(values, self.params.modulus_of(kind),
                           f"owner {owner_id}'s {kind.value} column "
                           f"{column!r}")
        self.channel.call("receive_shares", int(owner_id), column, values,
                          kind.value)

    def owners_with(self, column: str) -> list[int]:
        """Owner ids that outsourced ``column`` on the hosted store."""
        return list(self.channel.call("owners_with", column))

    def fetch_additive(self, column: str, owner_ids=None) -> list:
        return self._fetch("fetch_additive", ShareKind.ADDITIVE, column,
                           owner_ids)

    def fetch_shamir(self, column: str, owner_ids=None) -> list:
        return self._fetch("fetch_shamir", ShareKind.SHAMIR, column,
                           owner_ids)

    def _fetch(self, method: str, kind, column: str, owner_ids) -> list:
        modulus = self.params.modulus_of(kind)
        return [check_stream(share, modulus,
                             f"fetched share of column {column!r}")
                for share in self.channel.call(method, column,
                                               self._owners(owner_ids))]

    # -- issue, then collect --------------------------------------------------

    def issue(self, kernel: str, *args, **kwargs) -> None:
        """Send one ``kernel`` round's frame now; this thread's next
        ``kernel`` call with the very same arguments collects it.

        ``kernel`` is ``"indicator_round"`` or
        ``"aggregate_round_batch"``.  The batch engine issues every
        server's round before it collects any, so the hosts of all
        roles compute together.  A call with other arguments drops the
        issued round and sends its own.
        """
        collect = getattr(self, "_issue_" + kernel)(*args, **kwargs)
        self._issued[(threading.get_ident(), kernel)] = (args, kwargs,
                                                         collect)

    def _collect(self, kernel: str, *args, **kwargs):
        """The reply of this thread's issued ``kernel`` round, if it was
        issued with these very arguments; else a fresh round's."""
        entry = self._issued.pop((threading.get_ident(), kernel), None)
        if (entry is not None and entry[1] == kwargs
                and len(entry[0]) == len(args)
                and all(mine is theirs
                        for mine, theirs in zip(entry[0], args))):
            return entry[2]()
        return getattr(self, "_issue_" + kernel)(*args, **kwargs)()

    def _issue(self, kind: str, args: list, num_shards: int | None):
        """Send one whole-round ``kind`` frame carrying the round's
        shard count (:meth:`Channel.issue
        <repro.network.rpc.Channel.issue>`); returns the call that
        collects its reply's payload."""
        from repro.network.rpc import RpcMessage
        collect = self.channel.issue(RpcMessage(kind, {
            "a": args, "k": {"num_shards": self._shards(num_shards)}}))
        return lambda: collect().payload

    # -- fused 2-D kernels ----------------------------------------------------

    def indicator_round(self, sweeps, num_shards: int | None = None):
        """Round 1 in one frame: every Eq. 3/7 and Eq. 18 sweep together.

        ``sweeps`` are :meth:`PrismServer.indicator_round
        <repro.entities.server.PrismServer.indicator_round>` dicts; the
        host runs them in order on its own thread pool and replies one
        matrix per sweep, each row already permuted as its sweep asks.
        A bucketized level is one ``"cells"`` sweep: only the active
        cell *indices* travel, never the χ shares.
        """
        return self._collect("indicator_round", sweeps,
                             num_shards=num_shards)

    def _issue_indicator_round(self, sweeps, num_shards: int | None = None):
        """Send :meth:`indicator_round`'s frame now; returns the call
        that collects and checks its outputs."""
        sweeps = list(sweeps)
        pending = self._issue("indicator_round", [sweeps], num_shards)

        def collect() -> list:
            reply = pending()
            if not (isinstance(reply, list) and len(reply) == len(sweeps)):
                raise ProtocolError(
                    f"an indicator round of {len(sweeps)} sweeps needs one "
                    f"output per sweep in a list")
            return [self._additive_out(out) if sweep.get("family") == "psu"
                    else self._group_out(out)
                    for sweep, out in zip(sweeps, reply)]
        return collect

    def aggregate_round_batch(self, columns, z_matrix, owner_ids=None,
                              num_shards: int | None = None):
        """Fused Eq. 11 sweep in one frame, with the querier-dealt
        indicator-share matrix."""
        return self._collect("aggregate_round_batch", columns, z_matrix,
                             owner_ids, num_shards=num_shards)

    def _issue_aggregate_round_batch(self, columns, z_matrix, owner_ids=None,
                                     num_shards: int | None = None):
        """Send :meth:`aggregate_round_batch`'s frame now; returns the
        call that collects and checks its output."""
        pending = self._issue(
            "aggregate_round_batch",
            [list(columns), self._z(z_matrix), self._owners(owner_ids)],
            num_shards)
        return lambda: self._shamir_out(pending())

    # -- extrema machinery ----------------------------------------------------

    def extrema_collect(self, owner_shares: dict) -> list[int]:
        return list(self.channel.call(
            "extrema_collect",
            {int(owner): int(share)
             for owner, share in owner_shares.items()}))

    def fpos_round(self, alpha_shares: dict) -> list[int]:
        return list(self.channel.call(
            "fpos_round",
            {int(owner): int(share)
             for owner, share in alpha_shares.items()}))

    def forward(self, payload):
        return self.channel.call("forward", payload)

    # -- lifecycle ------------------------------------------------------------

    def ping(self) -> dict:
        """Host liveness + identity check."""
        from repro.network.rpc import PING, RpcMessage
        return self.channel.send(RpcMessage(PING)).payload

    def healthy(self) -> bool:
        """Whether the role currently answers its liveness probe.

        Bounded by the channel's lifecycle/probe deadline (never the
        session-wide ``rpc_timeout``), and never raises: a dead or
        fully-ejected pool reports ``False``.
        """
        from repro.exceptions import ProtocolError, QueryError
        try:
            self.ping()
        except (ProtocolError, QueryError, OSError):
            return False
        return True

    def close(self) -> None:
        """Quiesce the remote entity's execution pools (channel stays up)."""
        self.channel.call("close")

    # -- marshalling helpers --------------------------------------------------
    #
    # Every kernel reply is a received stream: it must arrive at exactly
    # the width of its modulus with every value below it, or the call
    # fails with a ProtocolError — never a silent wrap or widening.

    def _group_out(self, out):
        return check_stream(out, self.params.group.eta_prime,
                            f"server {self.index}'s group-element output")

    def _additive_out(self, out):
        return check_stream(out, self.params.delta,
                            f"server {self.index}'s PSU output")

    def _shamir_out(self, out):
        return check_stream(out, self.params.field_prime,
                            f"server {self.index}'s aggregation output")

    def _z(self, z):
        return as_shares(z, self.params.field_prime, "indicator shares")

    @staticmethod
    def _owners(owner_ids):
        return list(owner_ids) if owner_ids is not None else None

    def _shards(self, num_shards: int | None) -> int:
        return num_shards or self.num_shards
