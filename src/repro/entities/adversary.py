"""Malicious server behaviours for fault injection (§5.2 threat list).

The paper's verification method must detect servers that (i) skip
processing shares, (ii) replace the result of cell *i* with the result of
cell *j*, (iii) inject fake values, or (iv) tamper with the verification
stream itself.  Each behaviour is a :class:`PrismServer` subclass that
misbehaves in exactly one way, so tests (and the failure-injection bench)
can assert that :meth:`DBOwner.verify_psi` catches each one.

Every adversary overrides the one post-sweep seam,
:meth:`PrismServer.tamper`, which receives each output row of the real
(fused, possibly compiled and sharded) sweep before any server-side
permutation — so the attacks run against the same kernels honest
deployments run.
"""

from __future__ import annotations

import numpy as np

from repro.entities.server import PrismServer


class SkipCellsServer(PrismServer):
    """Attack (i): process only the first cell and replicate its result.

    The lazy-server attack the paper motivates the χ̄ permutation with: if
    the complement table were not permuted, replicating cell 0 everywhere
    would still produce a "legal" proof.
    """

    def tamper(self, kind, column, row):
        if kind in ("psi", "verification"):
            return np.full_like(row, row[0])
        return row


class ReplaySwapServer(PrismServer):
    """Attack (ii): swap the results of two cells in the PSI output.

    Args:
        swap: pair of cell indices whose results are exchanged.
    """

    def __init__(self, index, params, swap=(0, 1)):
        super().__init__(index, params)
        self.swap = swap

    def tamper(self, kind, column, row):
        if kind == "psi":
            i, j = self.swap
            row[i], row[j] = row[j], row[i]
        return row


class InjectFakeServer(PrismServer):
    """Attack (iii): overwrite output cells with forged group elements.

    Writing ``1`` (= ``g^0``) into its own output is the strongest move a
    single server has toward forging membership; verification still fails
    because the complement stream no longer pairs up.

    Args:
        cells: which output cells to overwrite.
        forged_value: the injected value (default ``1``).
    """

    def __init__(self, index, params, cells=(0,), forged_value=1):
        super().__init__(index, params)
        self.cells = tuple(cells)
        self.forged_value = int(forged_value)

    def tamper(self, kind, column, row):
        if kind == "psi":
            for c in self.cells:
                row[c] = self.forged_value
        return row


class FalsifyVerificationServer(PrismServer):
    """Attack (iv): tamper with PSI output *and* the verification stream.

    The server tries to mask a forged PSI cell by also patching cells of
    the complement output — but it does not know ``PF_db1``, so it cannot
    find which complement position corresponds to the forged cell (success
    probability 1/b² per the paper); it patches a pseudorandom guess.

    Args:
        cell: the PSI output cell to forge.
        guess_seed: seed for the (wrong, with high probability) guess.
    """

    def __init__(self, index, params, cell=0, guess_seed=1234):
        super().__init__(index, params)
        self.cell = int(cell)
        self.guess_seed = guess_seed

    def tamper(self, kind, column, row):
        if kind == "psi":
            row[self.cell] = 1
        elif kind == "verification":
            rng = np.random.default_rng(self.guess_seed)
            row[int(rng.integers(0, row.shape[0]))] = 1
        return row


class DropAggregateServer(PrismServer):
    """Aggregation attack: zero out cells of the Eq. 11 sum output.

    Used to show the replicated (permuted-copy) aggregation verification
    detecting dropped contributions.
    """

    def __init__(self, index, params, cells=(0,)):
        super().__init__(index, params)
        self.cells = tuple(cells)

    def tamper(self, kind, column, row):
        if kind == "aggregate" and not column.startswith("v"):
            for c in self.cells:
                row[c] = 0
        return row
