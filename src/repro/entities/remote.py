"""Client-side proxy for a server entity living behind a channel.

:class:`RemoteServer` mirrors the callable surface of
:class:`~repro.entities.server.PrismServer` — the storage interface,
the 1-D and fused 2-D kernels, the extrema machinery — and forwards
every call through a :class:`~repro.network.rpc.Channel` as a framed
RPC.  The orchestration layer (:mod:`repro.core`) therefore runs
unchanged whether ``system.servers[i]`` is an in-process server object
or a proxy to an entity three sockets away; results are bit-identical
because the hosted entity executes the very same kernels over the very
same shares.

Two deliberate translations happen at this boundary:

* **Fetches are lazy.**  The sequential runners fetch share lists
  client-side only to hand them straight back to the same server's
  kernel; shipping the full χ table both ways would be absurd.
  :meth:`RemoteServer.fetch_additive` returns a :class:`LazyShares`
  handle instead — if the caller only passes it back to a kernel, the
  proxy sends ``shares=None`` and the host re-fetches locally (free:
  the store memoises fetches); if the caller actually *reads* the
  shares (the bucketized runner slices active nodes), the handle
  materialises them over the wire on first access.
* **Shard plans become shard counts.**  A local thread pool cannot
  reach a remote store; the proxy ships the
  :class:`~repro.core.sharding.ShardPlan`'s shard *count* and the host
  executes it on its own pool — bit-identical by the sharding layer's
  span contract.
"""

from __future__ import annotations

import numpy as np

from repro.core.params import ServerParams
from repro.exceptions import ProtocolError
from repro.network.message import Endpoint, Role


class LazyShares:
    """A deferred server-side share fetch (see module docstring)."""

    def __init__(self, channel, method: str, column: str, owner_ids):
        self._channel = channel
        self._method = method
        self._column = column
        self._owner_ids = owner_ids
        self._data: list | None = None

    @property
    def materialized(self) -> bool:
        return self._data is not None

    def materialize(self) -> list:
        """Fetch the share vectors over the wire (memoised)."""
        if self._data is None:
            self._data = list(self._channel.call(
                self._method, self._column, self._owner_ids))
        return self._data

    def __iter__(self):
        return iter(self.materialize())

    def __len__(self) -> int:
        return len(self.materialize())

    def __getitem__(self, index):
        return self.materialize()[index]


def _wire_shares(shares):
    """What a kernel call ships for its ``shares`` argument."""
    if shares is None:
        return None
    if isinstance(shares, LazyShares):
        # Never materialised client-side: let the host fetch locally.
        return shares._data
    return list(shares)


#: Minimum active cells *per shard* before a sharded remote sweep is
#: split into span-scoped frames.  Below this, one whole-sweep RPC
#: shipping ``num_shards`` is strictly cheaper: the channel admits one
#: in-flight request, so span frames serialise into ``num_shards``
#: round-trips while the host can thread-shard a whole sweep itself.
#: Span frames earn their round-trips only when each span carries real
#: work (or once a multi-connection dispatcher spreads them over
#: several hosts).  Tests lower this to exercise the span path end to
#: end at toy sizes.
SPAN_DISPATCH_MIN_CELLS = 2048


class RemoteServer:
    """Proxy speaking the PrismServer RPC surface over one channel.

    Args:
        index: server id (mirrors the remote entity's).
        params: the server's §4 knowledge view.  Kept client-side too:
            the orchestrator performs a few server-side steps itself in
            the sequential runners (e.g. the ``PF_s1`` permutation of
            PSU-Count), and the initiator dealt these parameters in the
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
        #: Deployment-default shard plan (shard *count* only; the
        #: runtime, if any, lives host-side).
        self.shard_plan = None
        #: Whether sharded cell-restricted sweeps may be issued as
        #: span-scoped RPC frames (one request per shard span,
        #: concatenated client-side).  Only sound against an unmodified
        #: base-class server — the span path reads the hosted store
        #: directly and must never bypass a malicious / instrumented
        #: subclass — so :class:`~repro.core.system.PrismSystem` enables
        #: it exactly for the servers it built without a custom factory.
        self.span_dispatch = False

    def __repr__(self) -> str:  # pragma: no cover - debugging aid
        return f"RemoteServer(index={self.index}, channel={self.channel!r})"

    # -- storage surface ------------------------------------------------------

    def receive_shares(self, owner_id: int, column: str, values, kind) -> None:
        """Phase 1: forward one outsourced share vector to the host."""
        self.channel.call("receive_shares", int(owner_id), column,
                          np.asarray(values, dtype=np.int64), kind.value)

    def owners_with(self, column: str) -> list[int]:
        """Owner ids that outsourced ``column`` on the hosted store."""
        return list(self.channel.call("owners_with", column))

    def fetch_additive(self, column: str, owner_ids=None) -> LazyShares:
        return LazyShares(self.channel, "fetch_additive", column,
                          list(owner_ids) if owner_ids is not None else None)

    def fetch_shamir(self, column: str, owner_ids=None) -> LazyShares:
        return LazyShares(self.channel, "fetch_shamir", column,
                          list(owner_ids) if owner_ids is not None else None)

    # -- 1-D kernels ----------------------------------------------------------

    def psi_round(self, column, num_threads: int = 1, owner_ids=None,
                  shares=None):
        return self.channel.call("psi_round", column, num_threads,
                                 self._owners(owner_ids),
                                 shares=_wire_shares(shares))

    def verification_round(self, column, num_threads: int = 1, owner_ids=None,
                           shares=None):
        return self.channel.call("verification_round", column, num_threads,
                                 self._owners(owner_ids),
                                 shares=_wire_shares(shares))

    def psu_round(self, column, query_nonce: int, num_threads: int = 1,
                  owner_ids=None, shares=None):
        return self.channel.call("psu_round", column, int(query_nonce),
                                 num_threads, self._owners(owner_ids),
                                 shares=_wire_shares(shares))

    def count_round(self, column, num_threads: int = 1, owner_ids=None,
                    shares=None, use_pf_s2: bool = False):
        return self.channel.call("count_round", column, num_threads,
                                 self._owners(owner_ids),
                                 shares=_wire_shares(shares),
                                 use_pf_s2=bool(use_pf_s2))

    def count_verification_round(self, column, num_threads: int = 1,
                                 owner_ids=None, shares=None):
        return self.channel.call("count_verification_round", column,
                                 num_threads, self._owners(owner_ids),
                                 shares=_wire_shares(shares))

    def aggregate_round(self, column, z_share, num_threads: int = 1,
                        owner_ids=None, shares=None):
        return self.channel.call("aggregate_round", column,
                                 np.asarray(z_share, dtype=np.int64),
                                 num_threads, self._owners(owner_ids),
                                 shares=_wire_shares(shares))

    # -- span fan-out ---------------------------------------------------------

    def _span_bounds(self, length: int, num_shards, pool_only: bool):
        """Span decomposition for a length-``length`` sweep, or ``None``.

        ``None`` means "send one whole-sweep request" (shipping the
        shard *count* for the host to decompose locally).  A span
        decomposition is only worth its frames when the channel can
        serve them concurrently — always when it fans out over a host
        pool, and (for the cell-restricted bucketized sweeps,
        ``pool_only=False``) when an explicit shard plan asks for
        span-scoped wire traffic on a single host.  Every span must
        clear the :data:`SPAN_DISPATCH_MIN_CELLS` floor.
        """
        if not self.span_dispatch or length <= 0:
            return None
        fan_out = int(getattr(self.channel, "fan_out", 1) or 1)
        fan = max(num_shards or 1, fan_out)
        if pool_only and fan_out <= 1:
            return None
        if fan <= 1 or fan > length or length < fan * SPAN_DISPATCH_MIN_CELLS:
            return None
        from repro.core.sharding import shard_bounds
        return shard_bounds(int(length), fan)

    def _scatter_spans(self, kind: str, frames):
        """Issue span frames concurrently; concatenate replies in order."""
        from repro.network.rpc import RpcMessage
        messages = [RpcMessage(kind, payload, span=span)
                    for payload, span in frames]
        replies = self.channel.scatter(messages)
        return np.concatenate([reply.payload for reply in replies], axis=1)

    def _scatter_psi(self, columns, owner_ids, subtract_m, bounds):
        frames = [
            ({"a": [columns, 1, self._owners(owner_ids)],
              "k": {"subtract_m": subtract_m}}, (lo, hi))
            for lo, hi in bounds
        ]
        return self._scatter_spans("psi_round_batch", frames)

    # -- fused 2-D kernels ----------------------------------------------------

    def psi_round_batch(self, columns, num_threads: int = 1, owner_ids=None,
                        subtract_m=None, shard_plan=None):
        """Fused Eq. 3 / Eq. 7 sweep, fanned out across a host pool.

        Over a pooled channel against an unmodified host
        (:attr:`span_dispatch`), the χ length splits into one
        span-scoped frame per pool member (or per shard, whichever is
        finer) and the concurrent replies concatenate bit-identically
        to the whole sweep — the sharding layer's span contract, now
        spanning hosts.  The χ length is known client-side: ``PF``
        permutes the χ table, so ``params.pf.size`` *is* b.
        """
        columns = list(columns)
        num_shards = self._shards(shard_plan)
        bounds = self._span_bounds(self.params.pf.size, num_shards,
                                   pool_only=True) if columns else None
        if bounds is not None:
            return self._scatter_psi(columns, owner_ids,
                                     self._flags(subtract_m), bounds)
        return self.channel.call(
            "psi_round_batch", columns, num_threads,
            self._owners(owner_ids),
            subtract_m=self._flags(subtract_m),
            num_shards=num_shards)

    def psi_cells_round_batch(self, columns, cells, num_threads: int = 1,
                              owner_ids=None, subtract_m=None,
                              shard_plan=None):
        """Cell-restricted Eq. 3 sweep; only the cell *indices* travel.

        The bucketized per-level rounds call this instead of
        materialising χ shares client-side.  Under a shard plan or a
        host pool against an unmodified host (:attr:`span_dispatch`),
        the sweep is issued as one span-scoped RPC frame per shard of
        the cells array — scattered concurrently across the channel
        (pipelined on one host, fanned out over a pool) — and the
        replies concatenate bit-identically to the whole sweep.
        Otherwise the shard *count* ships and the host decomposes
        locally (bit-identical either way).
        """
        cells = np.asarray(cells, dtype=np.int64)
        num_shards = self._shards(shard_plan)
        bounds = self._span_bounds(int(cells.size), num_shards,
                                   pool_only=False) if len(columns) else None
        if bounds is not None:
            # Each frame carries only its own slice of the cells array
            # (span over the slice), so a cell index travels and is
            # validated exactly once across the shard frames.
            frames = [
                ({"a": [list(columns), cells[lo:hi], num_threads,
                        self._owners(owner_ids)],
                  "k": {"subtract_m": self._flags(subtract_m)}},
                 (0, hi - lo))
                for lo, hi in bounds
            ]
            return self._scatter_spans("psi_cells_round_batch", frames)
        return self.channel.call(
            "psi_cells_round_batch", list(columns), cells, num_threads,
            self._owners(owner_ids), subtract_m=self._flags(subtract_m),
            num_shards=num_shards)

    def count_round_batch(self, columns, num_threads: int = 1, owner_ids=None,
                          subtract_m=None, use_pf_s2=None, shard_plan=None):
        """Fused §6.5 sweep: pooled fan-out + client-side permutation.

        The §6.5 sweep is the Eq. 3 sweep followed by a *post-sweep*
        row permutation (``PF_s1`` / ``PF_s2``) — not span-local, so a
        pooled dispatch fans out the psi spans and applies the
        permutation after concatenation, exactly as the sequential
        runners already do with the very parameters the initiator
        dealt this proxy (see the class docstring).  Bit-identical: the
        permutation commutes with span concatenation by construction.
        """
        columns = list(columns)
        num_shards = self._shards(shard_plan)
        bounds = self._span_bounds(self.params.pf.size, num_shards,
                                   pool_only=True) if columns else None
        if bounds is not None:
            flags = self._flags(use_pf_s2) or [False] * len(columns)
            if len(flags) != len(columns):
                raise ProtocolError(
                    "use_pf_s2 flags must match the column count")
            out = self._scatter_psi(columns, owner_ids,
                                    self._flags(subtract_m), bounds)
            for row, flag in enumerate(flags):
                pf = self.params.pf_s2 if flag else self.params.pf_s1
                out[row] = pf.apply(out[row])
            return out
        return self.channel.call(
            "count_round_batch", columns, num_threads,
            self._owners(owner_ids),
            subtract_m=self._flags(subtract_m),
            use_pf_s2=self._flags(use_pf_s2),
            num_shards=num_shards)

    def psu_round_batch(self, columns, query_nonces, num_threads: int = 1,
                        owner_ids=None, permute=None, shard_plan=None):
        """Fused Eq. 18 sweep, fanned out across a host pool.

        Span frames request the *unpermuted* masked sweep (each host
        seeks the counter-mode PRG to its own span of every row's mask
        stream); the post-sweep ``PF_s1`` of permute-flagged rows is
        applied after concatenation, mirroring the host kernel's own
        order of operations.
        """
        columns = list(columns)
        nonces = [int(nonce) for nonce in query_nonces]
        num_shards = self._shards(shard_plan)
        bounds = self._span_bounds(self.params.pf.size, num_shards,
                                   pool_only=True) if columns else None
        if bounds is not None:
            frames = [
                ({"a": [columns, nonces, 1, self._owners(owner_ids)],
                  "k": {}}, (lo, hi))
                for lo, hi in bounds
            ]
            out = self._scatter_spans("psu_round_batch", frames)
            flags = self._flags(permute)
            if flags is not None:
                if len(flags) != len(columns):
                    raise ProtocolError(
                        "permute flags must match the column count")
                for row, flag in enumerate(flags):
                    if flag:
                        out[row] = self.params.pf_s1.apply(out[row])
            return out
        return self.channel.call(
            "psu_round_batch", columns, nonces, num_threads,
            self._owners(owner_ids), permute=self._flags(permute),
            num_shards=num_shards)

    def aggregate_round_batch(self, columns, z_matrix, num_threads: int = 1,
                              owner_ids=None, shard_plan=None):
        """Fused Eq. 11 sweep, fanned out across a host pool.

        Each span frame ships only its own slice of the querier-dealt
        indicator-share matrix, so the z traffic shards with the sweep
        instead of being replicated per member.
        """
        columns = list(columns)
        z_matrix = np.asarray(z_matrix, dtype=np.int64)
        num_shards = self._shards(shard_plan)
        bounds = None
        if columns and z_matrix.ndim == 2 and z_matrix.shape[0] == len(columns):
            bounds = self._span_bounds(int(z_matrix.shape[1]), num_shards,
                                       pool_only=True)
        if bounds is not None:
            frames = [
                ({"a": [columns, z_matrix[:, lo:hi], 1,
                        self._owners(owner_ids)],
                  "k": {}}, (lo, hi))
                for lo, hi in bounds
            ]
            return self._scatter_spans("aggregate_round_batch", frames)
        return self.channel.call(
            "aggregate_round_batch", columns, z_matrix, num_threads,
            self._owners(owner_ids), num_shards=num_shards)

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

    @staticmethod
    def _owners(owner_ids):
        return list(owner_ids) if owner_ids is not None else None

    @staticmethod
    def _flags(flags):
        return [bool(flag) for flag in flags] if flags is not None else None

    def _shards(self, shard_plan):
        plan = shard_plan if shard_plan is not None else self.shard_plan
        if plan is None or plan.num_shards <= 1:
            return None
        return int(plan.num_shards)
