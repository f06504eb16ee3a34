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
span contract.
"""

from __future__ import annotations

import threading

import numpy as np

from repro.core.params import ServerParams
from repro.crypto.widths import as_shares, check_stream
from repro.data.storage import ShareKind
from repro.entities.server import permute_rows
from repro.exceptions import ProtocolError
from repro.network.codec import FULL_SPAN
from repro.network.message import Endpoint, Role


#: Minimum cells *per span* before a round over a host pool is split
#: into span-scoped frames.  Span frames go only across a pool: a host
#: serves a connection's frames one after another, so on a single host
#: span frames would cost one round trip each while the host can
#: thread-shard a whole round itself — a single host always gets one
#: whole-round frame carrying ``num_shards``.  Across a pool, a span
#: earns its frame only when it carries real work.  Tests lower this to
#: exercise the span path end to end at toy sizes.
SPAN_DISPATCH_MIN_CELLS = 2048


def _sweep_length(sweep: dict, b: int) -> int:
    """The length a span frame windows: ``b``, or a cells sweep's cell
    count (0, never split, for cells the host will refuse anyway)."""
    if sweep.get("family") != "cells":
        return b
    cells = sweep.get("cells")
    return len(cells) if isinstance(cells, list) or np.ndim(cells) == 1 else 0


def _span_sweep(sweep: dict, lo: int, hi: int) -> dict:
    """One sweep as the ``(lo, hi)`` span frame carries it: a cells
    sweep with its window's block of cell indices, any other sweep
    unpermuted (the proxy permutes after concatenating)."""
    if sweep.get("family") == "cells":
        return dict(sweep, cells=sweep["cells"][lo:hi])
    return dict(sweep, permute=None)


class RemoteServer:
    """Proxy speaking the PrismServer RPC surface over one channel.

    Args:
        index: server id (mirrors the remote entity's).
        params: the server's §4 knowledge view.  Kept client-side too:
            a pooled dispatch applies the post-sweep ``PF_s1`` /
            ``PF_s2`` permutations itself after concatenating span
            replies, and the initiator dealt these parameters in the
            first place.
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
        #: Whether a round over a host pool may be issued as span-scoped
        #: RPC frames (one request per span, concatenated
        #: client-side).  Hosts serve span frames only for
        #: an unmodified base-class server — a malicious / instrumented
        #: subclass's seam may depend on absolute positions, which a
        #: span window shifts — so :class:`~repro.core.system.PrismSystem`
        #: enables it exactly for the servers it built without a custom
        #: factory.
        self.span_dispatch = False
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

    # -- span fan-out ---------------------------------------------------------

    def _span_bounds(self, lengths, num_shards):
        """Span decomposition for a round whose sweeps have ``lengths``,
        or ``None``.

        ``None`` means "send one whole-sweep request" (shipping the
        shard *count* for the host to decompose locally).  A span
        decomposition is only worth its frames when the channel fans
        them out over a host pool, every sweep of the round has the
        same length (``lengths`` is read only then), and every span
        clears the :data:`SPAN_DISPATCH_MIN_CELLS` floor.
        """
        fan_out = int(getattr(self.channel, "fan_out", 1) or 1)
        if not self.span_dispatch or fan_out <= 1:
            return None
        lengths = set(lengths)
        if len(lengths) != 1:
            return None
        length = lengths.pop()
        fan = max(num_shards, fan_out)
        if fan > length or length < fan * SPAN_DISPATCH_MIN_CELLS:
            return None
        from repro.core.sharding import shard_bounds
        return shard_bounds(int(length), fan)

    def _issue(self, kind: str, frames):
        """Send ``(payload, span)`` frames of one kind now
        (:meth:`Channel.issue <repro.network.rpc.Channel.issue>`);
        returns the call that collects their replies' payloads, in
        order."""
        from repro.network.rpc import RpcMessage
        collect = self.channel.issue([RpcMessage(kind, payload, span=span)
                                      for payload, span in frames])
        return lambda: [reply.payload for reply in collect()]

    # -- issue, then collect --------------------------------------------------

    def issue(self, kernel: str, *args, **kwargs) -> None:
        """Send one ``kernel`` round's frames now; this thread's next
        ``kernel`` call with the very same arguments collects them.

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

    # -- fused 2-D kernels ----------------------------------------------------

    def indicator_round(self, sweeps, num_shards: int | None = None):
        """Round 1 in one frame: every Eq. 3/7 and Eq. 18 sweep together.

        ``sweeps`` are :meth:`PrismServer.indicator_round
        <repro.entities.server.PrismServer.indicator_round>` dicts; the
        host runs them in order and replies one matrix per sweep.  A
        bucketized level is one ``"cells"`` sweep: only the active cell
        *indices* travel, never the χ shares.  Over a pooled channel
        against an unmodified host (:attr:`span_dispatch`), the round's
        sweep length — χ, or the cells array of a cells round — splits
        into one span-scoped frame per pool member (or per shard,
        whichever is finer), each carrying the whole round *unpermuted*
        and each cells sweep only its span's block of cell indices.  Each
        sweep's replies concatenate bit-identically to the whole sweep
        — the sharding layer's span contract, now spanning hosts — and
        each row's ``PF_s1`` / ``PF_s2`` then applies once, here, with
        the very parameters the initiator dealt this proxy.  The χ
        length is known client-side: ``PF`` permutes the χ table, so
        ``params.pf.size`` *is* b.
        """
        return self._collect("indicator_round", sweeps,
                             num_shards=num_shards)

    def _issue_indicator_round(self, sweeps, num_shards: int | None = None):
        """Send :meth:`indicator_round`'s frames now; returns the call
        that collects, checks and assembles its outputs."""
        sweeps = list(sweeps)
        num_shards = self._shards(num_shards)
        bounds = self._span_bounds(
            (_sweep_length(sweep, self.params.pf.size) for sweep in sweeps),
            num_shards)
        if bounds is None:
            pending = self._issue("indicator_round", [
                ({"a": [sweeps], "k": {"num_shards": num_shards}},
                 FULL_SPAN)])
        else:
            pending = self._issue("indicator_round", [
                ({"a": [[_span_sweep(sweep, lo, hi) for sweep in sweeps]],
                  "k": {}}, (lo, hi))
                for lo, hi in bounds])

        def collect() -> list:
            replies = pending()
            if not all(isinstance(reply, list) and len(reply) == len(sweeps)
                       for reply in replies):
                raise ProtocolError(
                    f"an indicator round of {len(sweeps)} sweeps needs one "
                    f"output per sweep in a list")
            outs = []
            for index, sweep in enumerate(sweeps):
                parts = [reply[index] for reply in replies]
                out = np.concatenate(parts, axis=1) if bounds else parts[0]
                out = (self._additive_out(out)
                       if sweep.get("family") == "psu"
                       else self._group_out(out))
                outs.append(permute_rows(self.params, out,
                                         sweep.get("permute"))
                            if bounds else out)
            return outs
        return collect

    def aggregate_round_batch(self, columns, z_matrix, owner_ids=None,
                              num_shards: int | None = None):
        """Fused Eq. 11 sweep, fanned out across a host pool.

        Each span frame ships only its own slice of the querier-dealt
        indicator-share matrix, so the z traffic shards with the sweep
        instead of being replicated per member.
        """
        return self._collect("aggregate_round_batch", columns, z_matrix,
                             owner_ids, num_shards=num_shards)

    def _issue_aggregate_round_batch(self, columns, z_matrix, owner_ids=None,
                                     num_shards: int | None = None):
        """Send :meth:`aggregate_round_batch`'s frames now; returns the
        call that collects and checks its output."""
        columns = list(columns)
        z_matrix = self._z(z_matrix)
        num_shards = self._shards(num_shards)
        bounds = None
        if columns and z_matrix.ndim == 2 and z_matrix.shape[0] == len(columns):
            bounds = self._span_bounds([int(z_matrix.shape[1])], num_shards)
        if bounds is None:
            pending = self._issue("aggregate_round_batch", [
                ({"a": [columns, z_matrix, self._owners(owner_ids)],
                  "k": {"num_shards": num_shards}}, FULL_SPAN)])
        else:
            pending = self._issue("aggregate_round_batch", [
                ({"a": [columns, z_matrix[:, lo:hi],
                        self._owners(owner_ids)],
                  "k": {}}, (lo, hi))
                for lo, hi in bounds
            ])

        def collect():
            replies = pending()
            return self._shamir_out(
                np.concatenate(replies, axis=1) if bounds else replies[0])
        return collect

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
