"""Seed-invariant synthetic fleets and their plaintext oracle.

A fleet is ``m`` owners' LineItem-style relations (columns ``OK`` and
``DT``) over the integer domain ``{1, ..., b}``.  Its *shape* is fixed by
:class:`FleetShape` alone:

* ``common`` keys are held by every owner (exact ``|∩|``);
* ``shared`` keys are held by owners ``i`` and ``i + 1`` (mod ``m``) for
  every ``i`` — never by all, since ``m >= 3``;
* ``private`` keys are held by one owner each;
* every owner has exactly ``rows`` rows, spread over its keys in a fixed
  pattern, so ``|∪| = common + m * (shared + private)``.

The keys start from one fixed layout (drawn with a constant seed), and
the workload seed only relabels them with a random automorphism of the
``fanout``-ary bucket tree over the domain: the children of every
internal node are permuted.  An automorphism maps bucket nodes to bucket
nodes, so beyond the counts above it also preserves, level by level, how
many nodes are common to all owners — the work bucketized PSI does.
Values of the aggregation attribute at the common keys depend only on
the key's rank among the common keys, so the per-value extrema rounds
blind the same numbers in the same order whatever the seed.

Each refresh ``version`` is another relabelling of the same shape.
:func:`oracle` computes every answer the benchmark checks, in plaintext.
"""

from __future__ import annotations

import dataclasses
import statistics

import numpy as np

from repro.data.domain import Domain
from repro.data.relation import Relation

#: Seed of the fixed base layout (not the workload seed).
BASE_SEED = 20210620

#: The aggregation attribute's values lie in ``[1, VALUE_MAX]``.
VALUE_MAX = 10


@dataclasses.dataclass(frozen=True)
class FleetShape:
    """Everything the protocols' work depends on, and nothing else."""

    domain_size: int
    fanout: int
    num_owners: int
    rows: int
    common: int
    shared: int
    private: int

    def __post_init__(self):
        if self.fanout ** self.depth != self.domain_size:
            raise ValueError("domain_size must be a power of fanout")
        if self.num_owners < 3:
            raise ValueError("the shared-key ring needs at least 3 owners")
        if self.rows < self.keys_per_owner:
            raise ValueError("every key needs at least one row")
        if self.union > self.domain_size:
            raise ValueError("more keys than domain cells")

    @property
    def depth(self) -> int:
        return round(np.log(self.domain_size) / np.log(self.fanout))

    @property
    def keys_per_owner(self) -> int:
        return self.common + 2 * self.shared + self.private

    @property
    def union(self) -> int:
        return self.common + self.num_owners * (self.shared + self.private)

    def domain(self) -> Domain:
        return Domain.integer_range("OK", self.domain_size)


def _base_layout(shape: FleetShape) -> list[np.ndarray]:
    """Per-owner base cells: common, left pair, right pair, private."""
    rng = np.random.default_rng(BASE_SEED)
    m = shape.num_owners
    cells = rng.permutation(shape.domain_size)[: shape.union]
    common = cells[: shape.common]
    pairs = cells[shape.common: shape.common + m * shape.shared]
    pairs = pairs.reshape(m, shape.shared)
    private = cells[shape.common + m * shape.shared:].reshape(m, shape.private)
    return [np.concatenate([common, pairs[i], pairs[(i - 1) % m], private[i]])
            for i in range(m)]


def tree_automorphism(shape: FleetShape, rng: np.random.Generator
                      ) -> np.ndarray:
    """``new_cell[old_cell]`` for a random bucket-tree automorphism."""
    k, depth = shape.fanout, shape.depth
    cells = np.arange(shape.domain_size, dtype=np.int64)
    old_prefix = np.zeros_like(cells)
    new_prefix = np.zeros_like(cells)
    for level in range(depth):
        perms = np.argsort(rng.random((k ** level, k)), axis=1)
        digit = (cells // k ** (depth - 1 - level)) % k
        new_prefix = new_prefix * k + perms[old_prefix, digit]
        old_prefix = old_prefix * k + digit
    return new_prefix


@dataclasses.dataclass
class Fleet:
    """One version of a fleet: relations plus the plaintext it encodes."""

    shape: FleetShape
    relations: list[Relation]
    owner_keys: list[np.ndarray]       # distinct keys per owner
    common_keys: list[int]             # ascending

    @property
    def domain(self) -> Domain:
        return self.shape.domain()


def make_fleet(shape: FleetShape, seed: int, version: int = 0) -> Fleet:
    """Version ``version`` of the fleet for workload seed ``seed``."""
    rng = np.random.default_rng((seed, version))
    relabel = tree_automorphism(shape, rng)
    base = _base_layout(shape)
    common = np.sort(relabel[base[0][: shape.common]]) + 1
    common_rank = {int(key): rank for rank, key in enumerate(common)}
    per_key, extra = divmod(shape.rows, shape.keys_per_owner)
    relations, owner_keys = [], []
    for owner, cells in enumerate(base):
        keys = relabel[cells] + 1
        counts = np.full(keys.size, per_key, dtype=np.int64)
        counts[:extra] += 1
        ok = np.repeat(keys, counts)
        dt = rng.integers(1, VALUE_MAX + 1, size=ok.size)
        # Common keys get rank-determined values (see the module doc).
        row = 0
        for key, count in zip(keys.tolist(), counts.tolist()):
            rank = common_rank.get(key)
            if rank is not None:
                dt[row: row + count] = [
                    1 + (rank * 7 + owner * 3 + r * 5) % VALUE_MAX
                    for r in range(count)]
            row += count
        relations.append(Relation(f"owner{owner}",
                                  {"OK": ok.tolist(), "DT": dt.tolist()}))
        owner_keys.append(np.unique(keys))
    return Fleet(shape, relations, owner_keys, common.tolist())


def check_shape(fleet: Fleet) -> None:
    """Raise unless the fleet has exactly its shape's pinned counts."""
    shape = fleet.shape
    keys = fleet.owner_keys
    common = set(keys[0].tolist()).intersection(*(k.tolist() for k in keys[1:]))
    union = set().union(*(k.tolist() for k in keys))
    facts = {
        "common": (len(common), shape.common),
        "union": (len(union), shape.union),
        "rows": ({r.num_rows for r in fleet.relations}, {shape.rows}),
        "keys_per_owner": ({k.size for k in keys}, {shape.keys_per_owner}),
    }
    for name, (got, want) in facts.items():
        if got != want:
            raise AssertionError(f"fleet {name}: got {got}, want {want}")


def bucket_pattern(fleet: Fleet) -> list[int]:
    """Nodes common to all owners at each bucket-tree level, leaves first."""
    shape = fleet.shape
    pattern = []
    nodes = [k - 1 for k in fleet.owner_keys]
    for _ in range(shape.depth):
        common = set(nodes[0].tolist()).intersection(
            *(n.tolist() for n in nodes[1:]))
        pattern.append(len(common))
        nodes = [np.unique(n // shape.fanout) for n in nodes]
    return pattern


def oracle(fleet: Fleet) -> dict:
    """Plaintext answers for every query form the workloads run."""
    rels = fleet.relations
    sums = [r.group_by_sum("OK", "DT") for r in rels]
    counts = [r.group_by_count("OK") for r in rels]
    maxima = [r.group_by_max("OK", "DT") for r in rels]
    minima = [r.group_by_min("OK", "DT") for r in rels]
    common = fleet.common_keys
    union = sorted(set().union(*(k.tolist() for k in fleet.owner_keys)))

    def total(groups, key):
        return sum(g.get(key, 0) for g in groups)

    def extremum(groups, pick):
        out, holders = {}, {}
        for key in common:
            best = pick(g[key] for g in groups)
            out[key] = best
            holders[key] = [i for i, g in enumerate(groups) if g[key] == best]
        return out, holders

    # Bucketized PSI sweeps the top level (κ nodes, as b is a power of κ)
    # and then the κ children of every common node below it.
    pattern = bucket_pattern(fleet)
    bucketized_cells = fleet.shape.fanout * (1 + sum(pattern[1:]))
    max_of, max_holders = extremum(maxima, max)
    min_of, min_holders = extremum(minima, min)
    return {
        "psi": common,
        "psu": union,
        "psi_count": len(common),
        "psu_count": len(union),
        "psi_sum": {k: total(sums, k) for k in common},
        "psi_avg": {k: total(sums, k) / total(counts, k) for k in common},
        "psu_sum": {k: total(sums, k) for k in union},
        "max": max_of,
        "max_holders": max_holders,
        "min": min_of,
        "min_holders": min_holders,
        "median": {k: statistics.median(g[k] for g in sums) for k in common},
        "bucket_pattern": pattern,
        "bucketized_cells": bucketized_cells,
    }
