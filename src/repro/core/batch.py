"""The query engine: every batchable query runs through here.

Every SQL, ``Q``, :class:`~repro.core.system.PrismSystem` and gateway
query lowers to ``(plan, unit)`` pairs and runs as a :class:`QueryBatch`;
a single query is a batch of one.  Running N queries one sweep each
would be wasteful twice over: every query would pay the fixed
Python/numpy dispatch cost of its own sweep, and queries that touch the
same stored column would redo identical work.  This module turns N
heterogeneous queries into a handful of *fused* sweeps:

1. The caller lowers each query to a
   :class:`~repro.api.plan.LogicalPlan` and hands over its batchable
   ``(plan, unit)`` pairs: the unit names the kind and aggregation
   attributes, the plan the attribute, verification, owner subset and
   querier.
2. :class:`QueryBatch` plans the batch: every unit is expanded into the
   kernel rows it needs, rows are deduplicated, and rows are grouped by
   **kernel family** and owner group — PSI/verification sweeps (Eq. 3 /
   Eq. 7), count sweeps (§6.5: Eq. 3 rows permuted by ``PF_s1`` /
   ``PF_s2``), PSU sweeps (Eq. 18), and aggregation sweeps (Eq. 11).
3. Each (family, owner group) becomes one fused sweep: its rows stacked
   into a 2-D matrix over which the server makes one chunked,
   branch-free pass over the χ length, so access-pattern hiding is
   preserved — the servers' instruction sequence depends on the batch
   shape only, never on the data.  The protocol has two rounds and the
   engine sends each as one request per server: every indicator sweep
   travels in one
   :meth:`~repro.entities.server.PrismServer.indicator_round` call per
   additive server, every Eq. 11 sweep of a querier's owner group in
   one :meth:`~repro.entities.server.PrismServer.aggregate_round_batch`
   call per server.
4. Owners finalise each query from its own rows
   (:meth:`QueryBatch._finalize_indicator`,
   :meth:`QueryBatch._assemble_aggregate`, where the §5–§7 owner math
   lives), so a unit's result is the same whether it runs alone or
   fused with others.

Aggregation queries additionally route their Phase-2 indicator-share
generation through the initiator's
:class:`~repro.entities.initiator.IndicatorShareCache`, so repeated or
overlapping queries skip the Shamir dealing round entirely.

Extrema (max/min) and median queries are announcer-interactive — their
per-common-value rounds cannot be fused into a data-independent sweep —
and are therefore not batchable; the executor routes them to the
interactive programs of :mod:`repro.core.interactive`.

Caveats on result metadata: all results of one batch share a single
:class:`~repro.core.results.PhaseTimings` object (family sweeps are timed
once, not per query, and the data-fetch step is folded into server time),
and ``traffic`` summaries are cumulative transport counters.
"""

from __future__ import annotations

import dataclasses

import numpy as np

from repro.core.aggregate import indicator_shares, require_decodable
from repro.core.psi import psi_column_name
from repro.core.results import (
    AggregateResult,
    CountResult,
    PhaseTimings,
    SetResult,
)
from repro.core.sharding import resolve_shards
from repro.exceptions import QueryError, VerificationError
from repro.network.message import batch_kind

#: Every batchable unit kind: the set/count kinds (one indicator
#: sweep) and the aggregation kinds (indicator sweep + Eq. 11 round).
KINDS = ("psi", "psu", "psi_count", "psu_count",
         "psi_sum", "psi_average", "psu_sum", "psu_average")

_PSU_BASED = ("psu", "psu_count", "psu_sum", "psu_average")

#: Round-1 sweep families, in the order the round runs and broadcasts
#: them.
_FAMILIES = ("psi", "count", "psu")


@dataclasses.dataclass
class _AggRow:
    """One *unique* Eq. 11 row of the fused aggregation sweep."""

    column: str
    z_shares: list


@dataclasses.dataclass(frozen=True)
class _AggUse:
    """One query's claim on a unique aggregation row."""

    query_index: int
    purpose: str  # "sum" | "vsum" | "count"
    agg_attribute: str | None
    row: int  # index into the group's unique rows


class QueryBatch:
    """Planner and executor for a batch of heterogeneous queries.

    Args:
        system: a :class:`~repro.core.system.PrismSystem`.
        units: ``(plan, unit)`` pairs — a
            :class:`~repro.api.plan.LogicalPlan` and one of its batchable
            :class:`~repro.api.plan.PlanUnit` objects (``unit.kind`` in
            :data:`KINDS`).  Read by attribute only.
        num_shards: span count of this batch's sweeps (default: the
            servers' deployment default; ``1`` forces the unsharded
            sweep for this batch only; ``"auto"`` resolves from the χ
            length and core count).  Under a
            non-local deployment the count travels over the channel and
            the entity hosts shard the sweep themselves.

    After :meth:`execute`, :attr:`stats` reports how much work fusion
    saved: sweep counts per family, deduplicated rows, and the
    indicator-cache counters.
    """

    def __init__(self, system, units,
                 num_shards: int | str | None = None):
        self.system = system
        self.units = list(units)
        for _, unit in self.units:
            if unit.kind not in KINDS:
                raise QueryError(
                    f"{unit.kind!r} is not a batchable unit; expected one "
                    f"of {', '.join(KINDS)}")
        # None = defer to each server's deployment-default span count.
        self.num_shards = resolve_shards(num_shards, system.domain.size)
        self.timings = PhaseTimings()
        self.stats: dict = {}
        self._plan_built = False
        # (family, owner group) → row key → row index (dedup maps).
        self._rows: dict = {}
        # PSU rows in query-submission order, for per-execution nonce
        # draws (Eq. 18 masks must be fresh on every run).
        self._psu_order: list[tuple] = []
        self._psu_nonces: dict = {}
        # per-query handles into the family outputs.
        self._handles: list[dict] = []

    # -- planning -------------------------------------------------------------

    def plan(self) -> dict:
        """Expand queries into deduplicated kernel rows, grouped by family.

        Returns a summary dict (also stored in :attr:`stats`): rows per
        family and how many per-query rows fusion deduplicated away.
        """
        if self._plan_built:
            return self.stats["plan"]
        requested = 0

        def row(family, group, column, subtract=True, permute=None):
            """Claim a kernel row; returns its ``(family, index)`` handle."""
            nonlocal requested
            requested += 1
            rows = self._rows.setdefault((family, group), {})
            key = (column, subtract, permute)
            if family == "psu":
                # Never deduplicated: each PSU row masks with its own
                # fresh nonce.
                key += (len(rows),)
                self._psu_order.append((group, len(rows)))
            return family, rows.setdefault(key, len(rows))

        for plan, unit in self.units:
            kind = unit.kind
            group = plan.owner_ids
            base = psi_column_name(plan.attribute)
            handle: dict = {"group": group}
            if kind == "psi":
                handle["data"] = row("psi", group, base)
                if plan.verify:
                    handle["proof"] = row("psi", group, "v" + base,
                                          subtract=False)
            elif kind == "psu":
                handle["data"] = row("psu", group, base)
                if plan.verify:
                    # The "nobody holds it" stream: Eq. 3 over the complement.
                    handle["proof"] = row("psi", group, "v" + base)
            elif kind == "psi_count":
                column = ("c" + base) if plan.verify else base
                handle["data"] = row("count", group, column, permute="pf_s1")
                if plan.verify:
                    handle["proof"] = row("count", group, "cv" + base,
                                          subtract=False, permute="pf_s2")
            elif kind == "psu_count":
                handle["data"] = row("psu", group, base, permute="pf_s1")
            else:  # aggregation kinds: round 1 is an unverified PSI/PSU.
                owner = self.system.owners[plan.querier]
                require_decodable(owner.params.domain, kind)
                handle["data"] = row("psu" if kind in _PSU_BASED else "psi",
                                     group, base)
            self._handles.append(handle)

        per_family = {family: sum(len(rows) for (f, _), rows
                                  in self._rows.items() if f == family)
                      for family in _FAMILIES}
        fused = sum(per_family.values())
        summary = {
            "queries": len(self.units),
            "psi_rows": per_family["psi"],
            "count_rows": per_family["count"],
            "psu_rows": per_family["psu"],
            "rows_requested": requested,
            "fused_rows": fused,
            "rows_deduplicated": requested - fused,
            # Each (family, owner-group) fuses into one sweep on each of
            # the two additive-share servers; known before execution, so
            # EXPLAIN can report it without running the query.
            "indicator_sweeps_planned": 2 * len(self._rows),
        }
        self.stats["plan"] = summary
        self._plan_built = True
        return summary

    # -- execution ------------------------------------------------------------

    def execute(self) -> list:
        """Run the batch; returns one result per unit, in input order.

        Set and count units yield a :class:`SetResult` /
        :class:`CountResult`; SUM/AVG units an attribute-keyed dict of
        :class:`AggregateResult` (the executor shapes these per plan).
        """
        if not self.units:
            return []
        self.plan()
        # Fresh timings per execution: result objects of one run share a
        # PhaseTimings instance, which a later run must not mutate.
        self.timings = PhaseTimings()
        # Fresh Eq. 18 nonces per execution, drawn in query-submission
        # order; re-running the same plan must never replay a mask
        # stream.
        self._psu_nonces = {group: [None] * len(rows)
                            for (family, group), rows in self._rows.items()
                            if family == "psu"}
        for group, row in self._psu_order:
            self._psu_nonces[group][row] = self.system.next_nonce()
        outputs = self._run_indicator_sweeps()
        results: list = [None] * len(self.units)
        members: dict[int, np.ndarray] = {}
        # One traffic snapshot per phase: batched results share metadata.
        traffic = self.system.transport.stats.summary()
        with self.timings.measure("owner"):
            for index in range(len(self.units)):
                member = self._finalize_indicator(index, outputs, results,
                                                  traffic)
                if member is not None:
                    members[index] = member
        self._run_aggregate_sweeps(members, results)
        self.stats["cache"] = dict(self._cache_stats())
        return results

    def _cache_stats(self) -> dict:
        cache = getattr(getattr(self.system, "initiator", None),
                        "indicator_cache", None)
        return cache.stats if cache is not None else {}

    @staticmethod
    def _owner_list(group):
        return list(group) if group is not None else None

    def _sweep_servers(self, servers, kernel: str, args) -> list:
        """One ``kernel`` call per server; outputs in server order.

        ``args[i]`` are ``servers[i]``'s positional arguments.  Against
        a non-local deployment every call is wire I/O and the hosts
        compute in their own processes, so each proxy first sends its
        request (:meth:`RemoteServer.issue
        <repro.entities.remote.RemoteServer.issue>`), and only once
        every server's request is out does this thread collect the
        replies, through the kernel calls, in server order (each role's
        host pool additionally fans its spans out).  The first error is
        raised after every issued reply has settled.  In-process servers
        share this interpreter, so they run one after another
        (bit-identical either way: the sweeps are independent).
        """
        remote = all(getattr(server, "is_remote", False)
                     for server in servers)
        outs, error = [], None
        with self.timings.measure("server"):
            if remote:
                issued = 0
                for server, call_args in zip(servers, args):
                    try:
                        server.issue(kernel, *call_args,
                                     num_shards=self.num_shards)
                    except Exception as exc:  # noqa: BLE001 - re-raised below
                        error = exc
                        break
                    issued += 1
                servers, args = servers[:issued], args[:issued]
            for server, call_args in zip(servers, args):
                try:
                    outs.append(getattr(server, kernel)(
                        *call_args, num_shards=self.num_shards))
                except Exception as exc:  # noqa: BLE001 - re-raised below
                    if not remote:
                        raise
                    error = error or exc
        if error is not None:
            raise error
        return outs

    def _run_indicator_sweeps(self) -> dict:
        """Round 1: one :meth:`indicator_round` request per additive server.

        The round carries one sweep per (family, owner group) — PSI
        groups, then count groups (PSI sweeps with permuted rows), then
        PSU groups — and both servers run it; their outputs are then
        broadcast sweep by sweep, server 0 before server 1.

        Returns ``outputs[(family, group, server_index)]`` → (Q, b) matrix.
        """
        system = self.system
        transport = system.transport
        keys = sorted(self._rows, key=lambda key: _FAMILIES.index(key[0]))
        sweeps = [self._sweep(family, group) for family, group in keys]
        self.stats["indicator_sweeps"] = 2 * len(sweeps)
        if not sweeps:
            return {}
        transport.begin_round("batch-indicator")
        servers = system.servers[:2]
        replies = self._sweep_servers(servers, "indicator_round",
                                      [(sweeps,)] * len(servers))
        receivers = [o.endpoint for o in system.owners]
        outputs: dict = {}
        for index, (family, group) in enumerate(keys):
            for s_index, server in enumerate(servers):
                out = replies[s_index][index]
                transport.broadcast(
                    server.endpoint, receivers,
                    batch_kind(f"{family}-output",
                               len(sweeps[index]["columns"])), out)
                outputs[(family, group, s_index)] = out
        return outputs

    def _sweep(self, family, group) -> dict:
        """One (family, owner group)'s :meth:`indicator_round` sweep."""
        rows = list(self._rows[(family, group)])  # in row-index order
        sweep = {"family": "psu" if family == "psu" else "psi",
                 "columns": [column for column, *_ in rows],
                 "owner_ids": self._owner_list(group),
                 "permute": [key[2] for key in rows]}
        if family == "psu":
            sweep["nonces"] = self._psu_nonces[group]
        else:
            sweep["subtract_m"] = [key[1] for key in rows]
        return sweep

    def _handle_rows(self, handle_entry, group, outputs):
        """The two servers' output rows behind one per-query handle."""
        family, row = handle_entry
        return (outputs[(family, group, 0)][row],
                outputs[(family, group, 1)][row])

    def _finalize_indicator(self, index, outputs, results, traffic):
        """Per-query owner math of the one-round kinds.

        **PSI** (§5.1): each owner multiplies the two servers' Eq. 3
        rows pointwise modulo ``eta`` (Eq. 4) and reads off the cells
        equal to 1.  Its verification stream (§5.2) is the Eq. 7 sweep
        over the ``PF_db1``-permuted complement table; the owner
        un-permutes it and checks ``r1 * r2 == 1 (mod eta)`` per cell
        (Eq. 8–10), which detects skipped, replayed and injected cells.

        **PSU** (§7): the owner adds the two Eq. 18 rows modulo
        ``delta`` (Eq. 19): zero means no owner holds the value, any
        nonzero (masked) value that at least one does — without
        revealing *how many*.  Its verification stream is the Eq. 3
        sweep, *with* the ``⊖ A(m)`` term, over the ``PF_db1``-permuted
        complement table ``vA``: that cell equals 1 iff every owner
        holds the complement, i.e. iff *no* owner holds the value, so
        union membership must be its exact negation, cell by cell.  A
        server tampering with the PSU stream cannot patch the
        complement stream consistently because ``PF_db1`` hides the
        complement's cell positions (the 1/b² argument of §5.2).

        **Counts** (§6.5): the servers permute the PSI (or PSU) rows
        with ``PF_s1``, unknown to owners, before they leave the server;
        owners still count the ones but can no longer map positions
        back to domain values.  Verified PSI-Count uses the Eq. (1)
        quadruple: the data stream runs over χ pre-permuted with
        ``PF_db1`` (column ``cA``) and leaves permuted by ``PF_s1``,
        the complement stream over χ̄ pre-permuted with ``PF_db2``
        (column ``cvA``) and leaves permuted by ``PF_s2``.  Both arrive
        permuted by the same unknown ``PF_i``, so the owner pairs cell
        *i* of the result with cell *i* of the proof and checks
        ``r1 * r2 == 1 (mod eta)`` without learning any positions.

        Fills ``results[index]`` for set and count queries; returns the
        membership vector for aggregation queries (finalised later).
        """
        system = self.system
        plan, unit = self.units[index]
        kind = unit.kind
        owner = system.owners[plan.querier]
        handle = self._handles[index]
        group = handle["group"]
        r0, r1 = self._handle_rows(handle["data"], group, outputs)

        if kind == "psi":
            fop = owner.finalize_psi(r0, r1)
            member = owner.psi_membership(fop)
            verified = False
            if plan.verify:
                v0, v1 = self._handle_rows(handle["proof"], group, outputs)
                owner.verify_psi(fop, v0, v1)
                verified = True
            values = owner.decode_cells(member, plan.attribute)
            results[index] = SetResult(values=values, membership=member,
                                       timings=self.timings, traffic=traffic,
                                       verified=verified)
            return None
        if kind == "psu":
            member = owner.finalize_psu(r0, r1)
            verified = False
            if plan.verify:
                v0, v1 = self._handle_rows(handle["proof"], group, outputs)
                absent_fop = owner.finalize_psi(v0, v1)
                absent = owner.params.pf_db1.invert(absent_fop) == 1
                bad = np.nonzero(member == absent)[0]
                if bad.size:
                    raise VerificationError(
                        f"PSU verification failed at {bad.size} of "
                        f"{member.size} cells",
                        failed_cells=bad.tolist(),
                    )
                verified = True
            values = owner.decode_cells(member, plan.attribute)
            results[index] = SetResult(values=values, membership=member,
                                       timings=self.timings, traffic=traffic,
                                       verified=verified)
            return None
        if kind == "psi_count":
            fop = owner.finalize_psi(r0, r1)
            count = int(np.count_nonzero(fop == 1))
            if plan.verify:
                owner.verify_count(fop, *self._handle_rows(
                    handle["proof"], group, outputs))
            results[index] = CountResult(count=count, timings=self.timings,
                                         traffic=traffic)
            return None
        if kind == "psu_count":
            member = owner.finalize_psu(r0, r1)
            results[index] = CountResult(count=int(np.count_nonzero(member)),
                                         timings=self.timings, traffic=traffic)
            return None
        # Aggregation kinds: round 1 only establishes the membership.
        if kind in _PSU_BASED:
            return owner.finalize_psu(r0, r1)
        return owner.psi_membership(owner.finalize_psi(r0, r1))

    # -- the Eq. 11 family ----------------------------------------------------

    def _run_aggregate_sweeps(self, members: dict, results: list) -> None:
        """Fused Eq. 11 sweeps for every aggregation query in the batch.

        Rows are grouped by (owner group, querier): each group stacks its
        indicator-share vectors into one 2-D matrix per server and runs a
        single :meth:`aggregate_round_batch` call on all three servers.
        Rows with the same column and the same dealt indicator shares
        (overlapping queries whose ``z`` came out of the cache) are fused
        into one row — identical inputs give identical totals.
        """
        system = self.system
        transport = system.transport
        receivers = [o.endpoint for o in system.owners]
        groups: dict[tuple, list[_AggRow]] = {}
        uses: dict[tuple, list[_AggUse]] = {}
        row_keys: dict[tuple, dict] = {}
        deduped = 0

        with self.timings.measure("owner"):
            for index, member in members.items():
                plan, unit = self.units[index]
                owner = system.owners[plan.querier]
                owner_ids = self._owner_list(plan.owner_ids)
                base = psi_column_name(plan.attribute)
                z = indicator_shares(system, owner, base, owner_ids, member)
                vz = (indicator_shares(system, owner, base, owner_ids,
                                       member, permuted=True)
                      if plan.verify else None)
                group_key = (plan.owner_ids, plan.querier)
                rows = groups.setdefault(group_key, [])
                keys = row_keys.setdefault(group_key, {})
                claims = uses.setdefault(group_key, [])

                def claim(column, shares, purpose, agg):
                    nonlocal deduped
                    key = (column, id(shares))
                    row = keys.get(key)
                    if row is None:
                        row = keys[key] = len(rows)
                        rows.append(_AggRow(column, shares))
                    else:
                        deduped += 1
                    claims.append(_AggUse(index, purpose, agg, row))

                for agg in unit.agg_attributes:
                    claim(agg, z, "sum", agg)
                    if plan.verify:
                        claim("v" + agg, vz, "vsum", agg)
                if unit.kind.endswith("average"):
                    claim("a" + base, z, "count", None)

        sweeps = 0
        row_totals: dict[tuple, list[np.ndarray]] = {}
        for group_key, rows in groups.items():
            group, querier = group_key
            transport.begin_round("batch-agg")
            owner = system.owners[querier]
            owner_ids = self._owner_list(group)
            columns = [row.column for row in rows]
            servers = system.servers[:3]
            z_matrices = []
            for s_index, server in enumerate(servers):
                z_matrix = np.stack([row.z_shares[s_index] for row in rows])
                transport.transfer(owner.endpoint, server.endpoint,
                                   batch_kind("z-shares", len(rows)), z_matrix)
                z_matrices.append(z_matrix)
            outs = self._sweep_servers(
                servers, "aggregate_round_batch",
                [(columns, z, owner_ids) for z in z_matrices])
            for s_index, out in enumerate(outs):
                sweeps += 1
                transport.broadcast(servers[s_index].endpoint, receivers,
                                    batch_kind("agg-output", len(rows)), out)
            with self.timings.measure("owner"):
                totals_by_row = [
                    owner.finalize_aggregate(
                        [outs[0][r], outs[1][r], outs[2][r]])
                    for r in range(len(rows))
                ]
                for use in uses[group_key]:
                    row_totals.setdefault(
                        (use.query_index, use.purpose), []).append(
                        (use.agg_attribute, totals_by_row[use.row]))
        self.stats["aggregate_sweeps"] = sweeps
        self.stats["aggregate_rows_deduplicated"] = deduped

        traffic = transport.stats.summary()
        with self.timings.measure("owner"):
            for index, member in members.items():
                results[index] = self._assemble_aggregate(index, member,
                                                          row_totals, traffic)

    def _assemble_aggregate(self, index, member, row_totals, traffic) -> dict:
        """Per-query owner math of the two-round aggregations (§6.1–6.2).

        Round 1 (a PSI or PSU row, finalised by
        :meth:`_finalize_indicator`) establishes which cells are in the
        result set; the querier rebuilds the 0/1 indicator ``z`` from
        it and deals degree-1 Shamir shares of ``z`` to the three
        servers.  In round 2 each server computes
        ``Σ_j S(x_i2)_j × S(z_i)`` per cell (Eq. 11); owners reconstruct
        the degree-2 totals by Lagrange interpolation at the three
        points.  Average also aggregates the per-owner tuple-count
        column ``aA`` (the paper's ``aOK``) and divides.

        Verification (the full version's Table 11 ``v`` columns): owners
        also outsourced ``PF_db1``-permuted copies of each aggregation
        column, and the querier deals a second indicator, ``z``
        permuted by ``PF_db1``.  The verified totals must equal the
        ``PF_db1``-permuted primary totals cell by cell; a server
        dropping or replaying Eq. 11 cells cannot fake the pair without
        knowing ``PF_db1``.
        """
        system = self.system
        plan, unit = self.units[index]
        owner = system.owners[plan.querier]
        sums = dict(row_totals.get((index, "sum"), []))
        vsums = dict(row_totals.get((index, "vsum"), []))
        count_rows = row_totals.get((index, "count"), [])
        counts = count_rows[0][1] if count_rows else None

        results: dict[str, AggregateResult] = {}
        for agg in unit.agg_attributes:
            totals = sums[agg]
            verified = False
            if plan.verify:
                vtotals = vsums[agg]
                expect = owner.params.pf_db1.apply(totals)
                bad = np.nonzero(vtotals != expect)[0]
                if bad.size:
                    raise VerificationError(
                        f"aggregation verification failed for {agg!r} at "
                        f"{bad.size} cells",
                        failed_cells=bad.tolist(),
                    )
                verified = True
            per_value = owner.aggregate_per_value(member, totals, counts)
            results[agg] = AggregateResult(per_value=per_value,
                                           timings=self.timings,
                                           traffic=traffic, verified=verified)
        return results

