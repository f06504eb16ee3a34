"""Round-decomposed interactive kernels (§6.3, §6.4, §6.6).

The interactive Table-4 kinds — MAX/MIN, MEDIAN, bucketized PSI — are
multi-round protocols: every round ends at an entity hand-off (owners →
servers → announcer → owners, or one bucket-tree level), and the next
round's inputs depend on the previous round's outputs.  They can never
fuse into one data-independent sweep, but each round's *server-side
sweep* is exactly as shard-parallel as the batchable kernels' sweeps.

This module makes both facts structural:

* Every interactive kind is an :class:`InteractiveProgram` — an explicit
  state machine whose :meth:`~InteractiveProgram.step` executes one
  round and whose cross-round state lives on the program object.  The
  :class:`~repro.api.executor.Executor` owns the round loop (and the
  client scheduler interleaves rounds of in-flight interactive queries
  with fused batch ticks); ``PrismSystem``'s kind methods build a
  :class:`~repro.api.builder.Q` and run it through that executor.
* The per-round sweeps dispatch through the one round verb,
  :meth:`~repro.entities.server.PrismServer.indicator_round`: round 1
  (PSI) runs as one ``"psi"`` sweep and each bucket-tree level as one
  ``"cells"`` sweep, so a deployment's span count (its thread pool,
  local or on the entity host), the post-sweep tamper seam of malicious
  server subclasses and the one frame per server per round of remote
  deployments apply to interactive traffic exactly as they do to batch
  traffic.  Outputs are
  bit-identical to the historical single-threaded sweeps for every
  shard count and deployment mode (pinned by
  ``tests/test_interactive_matrix.py``).

The owner/announcer round bodies are unchanged from the sequential
runners — same call order, same PRG draws — which is what keeps results
bit-identical to the seed implementation.

Timing caveat: the per-round sweeps fetch shares inside the batched
kernels, so — exactly like the fused batch engine (see
:mod:`repro.core.batch`) — the data-fetch step is folded into the
``server`` phase of :class:`~repro.core.results.PhaseTimings`; the
``fetch`` phase of an interactive result is therefore empty.
"""

from __future__ import annotations

import time

import numpy as np

from repro.core.bucketized import BucketTree, level_column
from repro.core.psi import psi_column_name
from repro.core.results import (
    ExtremaResult,
    MedianResult,
    PhaseTimings,
    SetResult,
)
from repro.exceptions import ProtocolError, QueryError, VerificationError


class InteractiveProgram:
    """One interactive query as an explicit, executor-driven state machine.

    Subclasses implement :meth:`_rounds` as a generator that yields once
    per protocol round and leaves the final result in ``self._result``.
    The driver — the executor, the client scheduler, or a direct caller
    via :meth:`run` — calls :meth:`step` until
    :attr:`done`; cross-round state lives in the generator frame and on
    the program object, never inside a kernel-owned loop.

    **Mid-round failover.**  Round state commits to the program object
    only at the *end* of a round — after the last entity hand-off,
    right before the ``yield`` — so a round that dies mid-flight with
    :class:`~repro.network.dispatch.ConnectionLost` (a pool member
    crashed faster than the dispatch layer could fail over) leaves no
    partial state behind.  :meth:`step` then discards the generator and
    the next step re-enters :meth:`_rounds`, which skips every
    committed round and re-runs only the torn one.  Re-running is safe:
    the server-side sweeps are idempotent reads of replicated state,
    and blinding randomness is drawn fresh per round — the verify path
    proves independent blindings recover identical values, which is
    exactly why a re-blinded retry stays bit-identical in the fields
    results compare.
    """

    #: How many transport failures one program absorbs before the
    #: failure surfaces (guards against a pool that never heals).
    max_resumes = 3

    def __init__(self):
        self._generator = None
        self._result = None
        self._done = False
        self._failed = False
        #: Rounds completed so far (scheduler stats / tests).
        self.rounds_completed = 0
        #: Mid-round failovers absorbed so far (health / tests).
        self.rounds_resumed = 0

    @property
    def done(self) -> bool:
        """Whether every round has executed and the result is ready."""
        return self._done

    def step(self) -> None:
        """Execute exactly one protocol round.

        Raises whatever the round raises (e.g.
        :class:`~repro.exceptions.VerificationError`); a program whose
        round raised is poisoned — further stepping raises loudly
        instead of draining the dead generator into a ``None`` result.
        The exception: a transport-level :class:`ConnectionLost` is
        absorbed up to :attr:`max_resumes` times — the torn round is
        re-entered on the next step (see the class docstring).
        """
        if self._done:
            raise ProtocolError("interactive program already finished")
        if self._failed:
            raise ProtocolError(
                "interactive program failed in an earlier round")
        if self._generator is None:
            self._generator = self._rounds()
        try:
            next(self._generator)
        except StopIteration:
            self._done = True
        except BaseException as exc:
            if self._resumable(exc):
                self.rounds_resumed += 1
                self._generator = None
                # Give an ejected pool seat (or its supervisor) a beat
                # before re-entering — resumes are capped, so a pool
                # that heals in milliseconds must not burn them all.
                time.sleep(min(0.1 * self.rounds_resumed, 0.5))
                return
            self._failed = True
            raise
        else:
            self.rounds_completed += 1

    def _resumable(self, exc: BaseException) -> bool:
        if self.rounds_resumed >= self.max_resumes:
            return False
        from repro.network.dispatch import ConnectionLost
        return isinstance(exc, ConnectionLost)

    def result(self):
        """The final result object (only after :attr:`done`)."""
        if not self._done:
            raise ProtocolError(
                "interactive program still has rounds to run")
        return self._result

    def run(self):
        """Drive the program to completion; returns the result."""
        while not self._done:
            self.step()
        return self.result()

    def _rounds(self):
        raise NotImplementedError


# -- shared round-1 sweep ------------------------------------------------------


def sharded_psi_round(system, attribute, num_shards, timings, querier: int):
    """Round 1 of an interactive kernel: the Eq. 3 sweep, shard-parallel.

    Dispatches through :meth:`indicator_round` (one PSI sweep of one
    row, one frame per server remotely), so the deployment's span count
    — or ``num_shards`` as a per-call override — applies, with the full
    fallback ladder.  Returns the decoded common values, exactly as the
    owners learn them.
    """
    transport = system.transport
    column = psi_column_name(attribute)
    owner = system.owners[querier]
    receivers = [o.endpoint for o in system.owners]
    transport.begin_round("psi")
    sweep = {"family": "psi", "columns": [column]}
    outputs = []
    for server in system.servers[:2]:
        with timings.measure("server"):
            out = server.indicator_round([sweep],
                                         num_shards=num_shards)[0][0]
        transport.broadcast(server.endpoint, receivers, "psi-output", out)
        outputs.append(out)
    with timings.measure("owner"):
        fop = owner.finalize_psi(outputs[0], outputs[1])
        member = owner.psi_membership(fop)
        return owner.decode_cells(member, attribute)


# -- extrema / median round bodies (§6.3–6.4) ----------------------------------


def collect_blinded_shares(system, owners, psi_attribute, agg_attribute,
                           value, kind, timings):
    """Steps 3–4 share collection: owner → servers, with traffic recorded.

    Returns per-server dicts ``owner_id -> share`` plus each owner's local
    value (kept for the 5b round; never transmitted).
    """
    transport = system.transport
    server_shares = [dict(), dict()]
    local_values = {}
    for owner in owners:
        with timings.measure("owner"):
            if kind == "min":
                local = owner.local_group_min(psi_attribute, agg_attribute, value)
            elif kind == "median":
                local = owner.local_group_sum(psi_attribute, agg_attribute, value)
            else:
                local = owner.local_group_max(psi_attribute, agg_attribute, value)
            if local is None:
                raise ProtocolError(
                    f"owner {owner.owner_id} has no tuples for common value "
                    f"{value!r}; PSI guarantees it should"
                )
            blinded = owner.blind_value(int(local))
            shares = owner.extrema_shares(blinded)
        local_values[owner.owner_id] = int(local)
        for phi, server in enumerate(system.servers[:2]):
            transport.transfer(owner.endpoint, server.endpoint,
                               "extrema-share", shares[phi])
            server_shares[phi][owner.owner_id] = shares[phi]
    return server_shares, local_values


def announce(system, server_shares, kind, timings):
    """Step 4 at servers + announcer; returns the announcer's share dict."""
    transport = system.transport
    permuted = []
    for phi, server in enumerate(system.servers[:2]):
        with timings.measure("server"):
            arr = server.extrema_collect(server_shares[phi])
        transport.transfer(server.endpoint, system.announcer.endpoint,
                           "extrema-array", arr)
        permuted.append(arr)
    with timings.measure("announcer"):
        if kind == "min":
            return system.announcer.announce_min(permuted[0], permuted[1])
        if kind == "median":
            return system.announcer.announce_median(permuted[0], permuted[1])
        return system.announcer.announce_max(permuted[0], permuted[1])


def route_back(system, share_pair):
    """Announcer → servers → owners share forwarding, with accounting."""
    transport = system.transport
    s1, s2 = share_pair
    for phi, share in ((0, s1), (1, s2)):
        server = system.servers[phi]
        transport.transfer(system.announcer.endpoint, server.endpoint,
                           "announce-share", share)
        for owner in system.owners:
            transport.transfer(server.endpoint, owner.endpoint,
                               "announce-share", server.forward(share))
    return s1, s2


class ExtremaProgram(InteractiveProgram):
    """§6.3 MAX/MIN as rounds: one PSI round, then one round per value.

    Each per-value round runs Steps 3–5 (plus the optional verification
    re-blinding and the Steps 5b–7 identity round) for one common value.

    Args:
        system: a :class:`~repro.core.system.PrismSystem`.
        attribute: the PSI attribute ``A_c``.
        agg_attribute: the attribute ``A_x`` whose extremum is sought.
        kind: ``"max"`` or ``"min"``.
        reveal_holders: run the optional identity round (Steps 5b–7).
        verify: run the extremum round twice with independent blinding
            randomness and require both inverted results to agree — a
            server or announcer tampering with the share arrays cannot
            produce *consistent* wrong answers across two blindings of
            values it never sees in the clear.  (Ties may announce a
            different permuted index each round, so only the extremum
            value is compared.)
        querier: owner used for PSI bookkeeping.
        common_values: skip the PSI round and use these values (lets
            benches isolate round-2 cost).
        num_shards: span count of the PSI sweep (``None``: the
            deployment's default).
    """

    def __init__(self, system, attribute, agg_attribute, kind: str = "max",
                 reveal_holders: bool = True, verify: bool = False,
                 *, querier: int = 0, common_values=None,
                 num_shards: int | None = None):
        super().__init__()
        if kind not in ("max", "min"):
            raise ProtocolError(f"unknown extremum kind {kind!r}")
        self.system = system
        self.attribute = attribute
        self.agg_attribute = agg_attribute
        self.kind = kind
        self.reveal_holders = reveal_holders
        self.verify = verify
        self.querier = querier
        self.common_values = common_values
        self.num_shards = num_shards
        self.timings = PhaseTimings()
        # Committed per-round state (survives a mid-round resume; a
        # value present here is never re-run).
        self._per_value: dict = {}
        self._holders: dict = {}

    def _rounds(self):
        system = self.system
        transport = system.transport
        owners = system.owners
        timings = self.timings
        kind = self.kind
        if self.common_values is None:
            self.common_values = sharded_psi_round(
                system, self.attribute, self.num_shards, timings,
                self.querier)
            yield

        per_value = self._per_value
        holders = self._holders
        for value in self.common_values:
            if value in per_value:
                continue  # committed before a resume re-entered
            transport.begin_round(f"extrema-{kind}")
            server_shares, local_values = collect_blinded_shares(
                system, owners, self.attribute, self.agg_attribute, value,
                kind, timings)
            announced = announce(system, server_shares, kind, timings)
            v1, v2 = route_back(system, announced["value"])
            i1, i2 = route_back(system, announced["index"])

            with timings.measure("owner"):
                extremum = owners[self.querier].recover_extremum(v1, v2)
                first_holder = owners[self.querier].recover_owner_identity(
                    i1, i2)
            value_holders = [first_holder]

            if self.verify:
                transport.begin_round(f"extrema-{kind}-verify")
                shares2, _ = collect_blinded_shares(
                    system, owners, self.attribute, self.agg_attribute,
                    value, kind, timings)
                announced2 = announce(system, shares2, kind, timings)
                w1, w2 = route_back(system, announced2["value"])
                with timings.measure("owner"):
                    recheck = owners[self.querier].recover_extremum(w1, w2)
                if recheck != extremum:
                    raise VerificationError(
                        f"extrema verification failed for {value!r}: "
                        f"{extremum} vs {recheck} across independent blindings"
                    )

            if self.reveal_holders:
                transport.begin_round("extrema-fpos")
                alpha = [dict(), dict()]
                for owner in owners:
                    with timings.measure("owner"):
                        holds = owner.holds_extremum(
                            local_values[owner.owner_id], extremum)
                        shares = owner.alpha_shares(holds)
                    for phi, server in enumerate(system.servers[:2]):
                        transport.transfer(owner.endpoint, server.endpoint,
                                           "alpha-share", shares[phi])
                        alpha[phi][owner.owner_id] = shares[phi]
                fpos = []
                for phi, server in enumerate(system.servers[:2]):
                    with timings.measure("server"):
                        vec = server.fpos_round(alpha[phi])
                    for owner in owners:
                        transport.transfer(server.endpoint, owner.endpoint,
                                           "fpos", vec)
                    fpos.append(vec)
                with timings.measure("owner"):
                    flags = owners[self.querier].finalize_fpos(fpos[0],
                                                               fpos[1])
                value_holders = [i for i, f in enumerate(flags) if f == 1]
            # Commit point: every hand-off for this value succeeded.
            per_value[value] = extremum
            holders[value] = value_holders
            yield

        self._result = ExtremaResult(per_value=per_value, holders=holders,
                                     timings=timings,
                                     traffic=transport.stats.summary())


class MedianProgram(InteractiveProgram):
    """§6.4 MEDIAN as rounds: one PSI round, then one round per value.

    ``verify`` is rejected with the same typed error the plan IR raises
    (:class:`~repro.exceptions.QueryError`) — the median protocol has no
    verification stream, and the shim and API paths must fail alike.
    """

    def __init__(self, system, attribute, agg_attribute,
                 verify: bool = False, *, querier: int = 0,
                 common_values=None, num_shards: int | None = None):
        super().__init__()
        if verify:
            raise QueryError("MEDIAN has no verification stream")
        self.system = system
        self.attribute = attribute
        self.agg_attribute = agg_attribute
        self.querier = querier
        self.common_values = common_values
        self.num_shards = num_shards
        self.timings = PhaseTimings()
        self._per_value: dict = {}

    def _rounds(self):
        system = self.system
        transport = system.transport
        owners = system.owners
        timings = self.timings
        if self.common_values is None:
            self.common_values = sharded_psi_round(
                system, self.attribute, self.num_shards, timings,
                self.querier)
            yield

        per_value = self._per_value
        for value in self.common_values:
            if value in per_value:
                continue  # committed before a resume re-entered
            transport.begin_round("median")
            server_shares, _ = collect_blinded_shares(
                system, owners, self.attribute, self.agg_attribute, value,
                "median", timings)
            announced = announce(system, server_shares, "median", timings)
            low = route_back(system, announced["low"])
            with timings.measure("owner"):
                low_value = owners[self.querier].recover_extremum(*low)
            if announced["high"] is None:
                per_value[value] = low_value
            else:
                high = route_back(system, announced["high"])
                with timings.measure("owner"):
                    high_value = owners[self.querier].recover_extremum(*high)
                per_value[value] = (low_value + high_value) / 2
            yield

        self._result = MedianResult(per_value=per_value, timings=timings,
                                    traffic=transport.stats.summary())


class BucketizedPsiProgram(InteractiveProgram):
    """§6.6 bucketized PSI as rounds: one round per bucket-tree level.

    Each level's sweep is one ``"cells"`` sweep of
    :meth:`~repro.entities.server.PrismServer.indicator_round`
    restricted to the active nodes — shard-parallel under the
    deployment's (or the per-call) span count, server-side on remote
    deployments (the active cell indices travel, never the χ shares),
    and bit-identical to the historical slice-then-sweep path.

    With ``announcer_driven=True`` the per-level outputs go to the
    announcer, which determines the surviving nodes and instructs the
    servers directly — removing the owners from the traversal loop (the
    §6.6 note).  Requires an announcer dealt ``eta``
    (``PrismSystem(..., announcer_knows_eta=True)``); the announcer then
    learns which bucket *nodes* are common, a documented trade-off.
    Either way the final leaf round is finalised by the owners.

    The result is the final :class:`SetResult` (leaf-level
    intersection) plus a stats dict with ``actual_domain_size`` (nodes
    PSI executed on), ``rounds``, ``numbers_sent`` (per server, one
    direction — the paper's "12 instead of 16" accounting) and
    ``flat_domain_size``.
    """

    def __init__(self, system, attribute, tree: BucketTree,
                 *, querier: int = 0, announcer_driven: bool = False,
                 num_shards: int | None = None):
        super().__init__()
        self.system = system
        self.attribute = attribute
        self.tree = tree
        self.querier = querier
        self.announcer_driven = announcer_driven
        self.num_shards = num_shards
        self.timings = PhaseTimings()
        # Committed per-round cursor: which level runs next and which
        # nodes are active there.  Counters commit with the cursor at
        # each round's end, so a mid-round resume re-runs the torn
        # level without double-counting it.
        self._level = tree.top_level
        self._active = np.arange(tree.level_sizes[tree.top_level],
                                 dtype=np.int64)
        self._actual_domain_size = 0
        self._numbers_sent = 0
        self._rounds_run = 0

    def _rounds(self):
        system = self.system
        tree = self.tree
        transport = system.transport
        owner = system.owners[self.querier]
        timings = self.timings

        while self._level >= 0 and self._active.size:
            level = self._level
            active = self._active
            column = (psi_column_name(self.attribute) if level == 0
                      else level_column(self.attribute, level))
            transport.begin_round(f"bucketized-psi-L{level}")
            outputs = []
            numbers_sent_round = 0
            route_to_announcer = self.announcer_driven and level > 0
            receivers = ([system.announcer.endpoint] if route_to_announcer
                         else [o.endpoint for o in system.owners])
            sweep = {"family": "cells", "columns": [column], "cells": active}
            for server in system.servers[:2]:
                with timings.measure("server"):
                    out = server.indicator_round(
                        [sweep], num_shards=self.num_shards)[0][0]
                for receiver in receivers:
                    transport.transfer(server.endpoint, receiver,
                                       f"bucketized-output-L{level}", out)
                numbers_sent_round += int(out.size)
                outputs.append(out)
            if route_to_announcer:
                with timings.measure("announcer"):
                    common = system.announcer.find_common_cells(outputs[0],
                                                                outputs[1])
                    common_nodes = active[np.asarray(common, dtype=np.int64)] \
                        if common else np.asarray([], dtype=np.int64)
            else:
                with timings.measure("owner"):
                    fop = owner.finalize_psi(outputs[0], outputs[1])
                    common_nodes = active[fop == 1]
            # Commit point: every hand-off for this level succeeded.
            self._rounds_run += 1
            self._actual_domain_size += int(active.size)
            self._numbers_sent += numbers_sent_round
            if level == 0:
                member = np.zeros(tree.level_sizes[0], dtype=bool)
                member[common_nodes] = True
                values = owner.decode_cells(member, self.attribute)
                result = SetResult(values=values, membership=member,
                                   timings=timings,
                                   traffic=transport.stats.summary())
                self._result = (result, self._level_stats())
                self._level = -1
                # Yield so the leaf round is counted like every other
                # round (the generator finishes on the next step).
                yield
                return
            self._active = tree.children_of(level, common_nodes)
            self._level = level - 1
            yield

        # No active nodes survived above the leaves: empty intersection
        # (unless a resume re-entered after the leaf round committed).
        if self._result is None:
            member = np.zeros(tree.level_sizes[0], dtype=bool)
            result = SetResult(values=[], membership=member, timings=timings,
                               traffic=transport.stats.summary())
            self._result = (result, self._level_stats())

    def _level_stats(self) -> dict:
        return {
            "actual_domain_size": self._actual_domain_size,
            "numbers_sent": self._numbers_sent,
            "rounds": self._rounds_run,
            "flat_domain_size": self.tree.level_sizes[0],
        }
