"""Bucketization-based PSI over large / multi-attribute domains (§6.6).

A κ-ary *bucket tree* is built bottom-up over the χ cells: a node is 1 iff
any of its children is 1.  PSI then proceeds top-down: run the §5.1 kernel
over one level's (active) nodes, keep only the common ones, and descend
into their children.  Sparse data prunes most of the domain; dense data
degenerates to (slightly worse than) flat PSI — the trade-off Fig. 5
quantifies via the *actual domain size*: the total number of nodes on
which PSI executes, versus the real domain size ``b``.

Two artefacts live here:

* :class:`BucketTree` and :func:`outsource_bucketized` — the tree shape
  and the per-level χ tables owners outsource for the real multi-round
  protocol, which runs as
  :class:`~repro.core.interactive.BucketizedPsiProgram`
  (``PrismSystem.bucketized_psi``).
* :func:`simulate_actual_domain_size` — the pure counting model behind
  Fig. 5, usable at the paper's 100M scale because it never materialises
  shares.
"""

from __future__ import annotations

import numpy as np

from repro.core.psi import psi_column_name
from repro.exceptions import ParameterError


class BucketTree:
    """Shape of a κ-ary bucket tree over ``num_leaves`` cells.

    ``level_sizes[0]`` is the leaf level (``num_leaves``); the last level
    is the highest one with more than one node (the root itself is never
    queried — PSI starts at the root's children).
    """

    def __init__(self, num_leaves: int, fanout: int):
        if fanout < 2:
            raise ParameterError("bucket-tree fanout must be at least 2")
        if num_leaves < 1:
            raise ParameterError("bucket tree needs at least one leaf")
        self.fanout = fanout
        self.level_sizes = [num_leaves]
        while self.level_sizes[-1] > fanout:
            size = (self.level_sizes[-1] + fanout - 1) // fanout
            self.level_sizes.append(size)

    @property
    def num_levels(self) -> int:
        return len(self.level_sizes)

    @property
    def top_level(self) -> int:
        return self.num_levels - 1

    def parent_level(self, indicator: np.ndarray) -> np.ndarray:
        """One level up: node is 1 iff any child is 1."""
        k = self.fanout
        n = indicator.shape[0]
        padded = np.zeros(((n + k - 1) // k) * k, dtype=indicator.dtype)
        padded[:n] = indicator
        return (padded.reshape(-1, k).max(axis=1) > 0).astype(np.int64)

    def all_levels(self, leaf_indicator: np.ndarray) -> list[np.ndarray]:
        """Per-level indicator vectors, leaves first."""
        leaf_indicator = np.asarray(leaf_indicator, dtype=np.int64)
        if leaf_indicator.shape[0] != self.level_sizes[0]:
            raise ParameterError(
                f"leaf indicator length {leaf_indicator.shape[0]} does not "
                f"match tree with {self.level_sizes[0]} leaves"
            )
        levels = [leaf_indicator]
        for size in self.level_sizes[1:]:
            up = self.parent_level(levels[-1])
            levels.append(up[:size])
        return levels

    def children_of(self, level: int, nodes: np.ndarray) -> np.ndarray:
        """Child cell indices (at ``level - 1``) of the given nodes."""
        k = self.fanout
        child_size = self.level_sizes[level - 1]
        kids = (nodes[:, None] * k + np.arange(k)[None, :]).ravel()
        return kids[kids < child_size]


def level_column(attribute, level: int) -> str:
    """Stored-column name for one bucket-tree level of an attribute."""
    return f"{psi_column_name(attribute)}@L{level}"


def outsource_bucketized(system, attribute, fanout: int) -> BucketTree:
    """Phase 1 for bucketized PSI: per-level χ shares to the servers.

    The leaf level reuses the ordinary PSI column; upper levels are stored
    as ``A@L<level>``.
    """
    tree = BucketTree(system.domain.size, fanout)
    from repro.data.storage import ShareKind  # local to avoid cycle at import
    for owner in system.owners:
        leaf = owner.build_indicator(attribute)
        levels = tree.all_levels(leaf)
        for level in range(1, tree.num_levels):
            for server, share in zip(
                    system.servers[:2],
                    owner.additive_shares_of(levels[level])):
                system.transport.transfer(owner.endpoint, server.endpoint,
                                          f"outsource:L{level}", share)
                server.receive_shares(owner.owner_id,
                                      level_column(attribute, level),
                                      share, ShareKind.ADDITIVE)
    return tree


def simulate_actual_domain_size(num_leaves: int, fanout: int,
                                fill_factor: float, seed: int = 0) -> int:
    """The Fig. 5 counting model: nodes PSI executes on, given a fill factor.

    A random leaf bitmap with ``fill_factor`` fraction of ones (the data
    common to all owners, as in the paper's randomly-generated experiment)
    is rolled up the tree; PSI is executed on every child of a common node
    plus the whole top level.

    Args:
        num_leaves: real domain size (paper: 100M).
        fanout: κ (paper: 10).
        fill_factor: fraction of leaf cells holding a one, in [0, 1].
        seed: bitmap randomness.

    Returns:
        The actual domain size (total nodes examined).
    """
    if not 0.0 <= fill_factor <= 1.0:
        raise ParameterError("fill factor must lie in [0, 1]")
    tree = BucketTree(num_leaves, fanout)
    rng = np.random.default_rng(seed)
    num_ones = int(round(num_leaves * fill_factor))
    leaf = np.zeros(num_leaves, dtype=np.int64)
    if num_ones:
        leaf[rng.choice(num_leaves, size=num_ones, replace=False)] = 1
    levels = tree.all_levels(leaf)
    # Top level: every node is examined.  Below: κ children per common node.
    total = tree.level_sizes[tree.top_level]
    for level in range(tree.top_level, 0, -1):
        common = int(np.count_nonzero(levels[level]))
        total += min(common * fanout, tree.level_sizes[level - 1])
    return total
