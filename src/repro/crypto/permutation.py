"""Permutation functions (§3.1, §4).

Prism uses permutations in three places:

* ``PF`` — known to servers *and* owners; servers permute the extrema-share
  array before handing it to the announcer, owners invert it to learn the
  identity of the owner holding the maximum (§6.3).
* ``PF_s1`` — known to servers only; applied to the PSI output before
  returning it so owners learn the *cardinality* but not the positions
  (PSI-Count, §6.5).
* The Eq. (1) quadruple ``PF_s1 ⊙ PF_db1 = PF_s2 ⊙ PF_db2 = PF_i`` — split
  knowledge between servers (``PF_s*``) and owners (``PF_db*``) such that
  the composition is a fixed permutation neither side fully controls.

Permutations are stored as index arrays: ``apply`` maps element ``i`` of
the input to position ``perm[i]`` of the output, i.e. ``out[perm[i]] =
in[i]``, so ``compose(q, p)`` is "apply p, then q".
"""

from __future__ import annotations

import numpy as np

from repro.crypto.prg import SeededPRG, derive_seed
from repro.exceptions import ParameterError


class Permutation:
    """A bijection on ``{0, ..., n-1}`` with numpy-vectorised application."""

    def __init__(self, mapping: np.ndarray):
        mapping = np.asarray(mapping, dtype=np.int64)
        if mapping.ndim != 1:
            raise ParameterError("permutation mapping must be 1-D")
        n = mapping.size
        # The range check guards the scatter (a negative index would
        # wrap); in range, n values fill every slot iff none repeats.
        seen = np.zeros(n, dtype=bool)
        if n and mapping.min() == 0 and mapping.max() == n - 1:
            seen[mapping] = True
        if not seen.all():
            raise ParameterError("mapping is not a permutation of range(n)")
        self._mapping = mapping
        self._mapping.setflags(write=False)

    @classmethod
    def identity(cls, n: int) -> "Permutation":
        """The identity permutation on ``n`` elements."""
        return cls(np.arange(n, dtype=np.int64))

    @classmethod
    def random(cls, n: int, seed: int, label: str = "PF") -> "Permutation":
        """Deterministic pseudorandom permutation from a seed + label."""
        prg = SeededPRG(derive_seed(seed, label), label)
        return cls(prg.shuffle_indices(n))

    @property
    def size(self) -> int:
        return int(self._mapping.size)

    @property
    def mapping(self) -> np.ndarray:
        return self._mapping

    def apply(self, values: np.ndarray) -> np.ndarray:
        """Permute a vector: ``out[mapping[i]] = values[i]``."""
        values = np.asarray(values)
        if values.shape[0] != self.size:
            raise ParameterError(
                f"vector of length {values.shape[0]} does not match "
                f"permutation of size {self.size}"
            )
        out = np.empty_like(values)
        out[self._mapping] = values
        return out

    def invert(self, values: np.ndarray) -> np.ndarray:
        """Undo :meth:`apply`: ``out[i] = values[mapping[i]]``."""
        values = np.asarray(values)
        if values.shape[0] != self.size:
            raise ParameterError(
                f"vector of length {values.shape[0]} does not match "
                f"permutation of size {self.size}"
            )
        return values[self._mapping]

    def apply_index(self, index: int) -> int:
        """Where a single position lands under the permutation."""
        return int(self._mapping[index])

    def invert_index(self, index: int) -> int:
        """Which input position maps to ``index`` (the ``RPF`` of §6.3)."""
        return int(np.nonzero(self._mapping == index)[0][0])

    def inverse(self) -> "Permutation":
        """The inverse permutation as a new object."""
        inv = np.empty(self.size, dtype=np.int64)
        inv[self._mapping] = np.arange(self.size, dtype=np.int64)
        return Permutation(inv)

    def compose(self, other: "Permutation") -> "Permutation":
        """``self ⊙ other``: apply ``other`` first, then ``self``."""
        if other.size != self.size:
            raise ParameterError("cannot compose permutations of different sizes")
        return Permutation(self._mapping[other._mapping])

    def __eq__(self, other: object) -> bool:
        return (isinstance(other, Permutation)
                and np.array_equal(self._mapping, other._mapping))

    def __hash__(self) -> int:
        return hash(self._mapping.tobytes())

    def __repr__(self) -> str:  # pragma: no cover - debugging aid
        return f"Permutation(n={self.size})"


def equation1_quadruple(n: int, seed: int) -> dict[str, Permutation]:
    """Generate ``PF_s1, PF_db1, PF_s2, PF_db2, PF_i`` satisfying Eq. (1).

    ``PF_s1 ⊙ PF_db1 = PF_s2 ⊙ PF_db2 = PF_i``.  We draw ``PF_i``,
    ``PF_db1`` and ``PF_db2`` pseudorandomly and solve for the server-side
    halves: ``PF_s = PF_i ⊙ PF_db^{-1}``.

    Returns a dict with keys ``pf_s1, pf_db1, pf_s2, pf_db2, pf_i``.
    """
    pf_i = Permutation.random(n, seed, "PF_i")
    pf_db1 = Permutation.random(n, seed, "PF_db1")
    pf_db2 = Permutation.random(n, seed, "PF_db2")
    pf_s1 = pf_i.compose(pf_db1.inverse())
    pf_s2 = pf_i.compose(pf_db2.inverse())
    return {
        "pf_s1": pf_s1,
        "pf_db1": pf_db1,
        "pf_s2": pf_s2,
        "pf_db2": pf_db2,
        "pf_i": pf_i,
    }
