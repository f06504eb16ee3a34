"""Shared machinery for the §8 experiments.

Scaling: the paper ran 5M/20M-value domains on an AWS testbed; this
reproduction defaults to 20k/80k cells so every experiment finishes on a
laptop, and multiplies all sizes by the ``REPRO_SCALE`` environment
variable (set ``REPRO_SCALE=10`` for 200k/800k, etc.).  All claims the
experiments check are shape claims (linearity, ratios, crossovers), which
are scale-invariant.
"""

from __future__ import annotations

import contextlib
import gc
import os
import time

from repro.core.system import PrismSystem
from repro.data.tpch import generate_fleet, lineitem_domain

#: Unscaled domain sizes standing in for the paper's 5M / 20M.
SMALL_DOMAIN = 20_000
LARGE_DOMAIN = 80_000

#: Default owner count for Exp 1 (the paper fixes 10 owners there).
DEFAULT_OWNERS = 10

#: Rows each owner generates, as a fraction of the domain size.
ROWS_FRACTION = 0.25


def scale() -> float:
    """The ``REPRO_SCALE`` multiplier (default 1.0)."""
    return float(os.environ.get("REPRO_SCALE", "1.0"))


def scaled(size: int) -> int:
    """Apply the global scale factor to a base size."""
    return max(16, int(size * scale()))


def small_domain_size() -> int:
    """Scaled stand-in for the paper's 5M OK domain."""
    return scaled(SMALL_DOMAIN)


def large_domain_size() -> int:
    """Scaled stand-in for the paper's 20M OK domain."""
    return scaled(LARGE_DOMAIN)


def build_system(num_owners: int = DEFAULT_OWNERS,
                 domain_size: int | None = None,
                 agg_attributes: tuple = ("DT", "PK", "LN", "SK"),
                 with_verification: bool = False,
                 seed: int = 7,
                 rows_per_owner: int | None = None,
                 **system_kwargs) -> PrismSystem:
    """A ready-to-query deployment over synthetic LineItem fragments.

    Extra keyword arguments reach :meth:`PrismSystem.build` directly —
    e.g. ``deployment="subprocess"`` or ``num_shards="auto"`` for the
    deployment/sharding benches.
    """
    domain_size = domain_size if domain_size is not None else small_domain_size()
    rows = rows_per_owner if rows_per_owner is not None else max(
        64, int(domain_size * ROWS_FRACTION))
    domain = lineitem_domain(domain_size)
    relations = generate_fleet(num_owners, domain, rows, seed=seed)
    return PrismSystem.build(
        relations, domain, "OK", agg_attributes=agg_attributes,
        with_verification=with_verification, seed=seed,
        # LineItem values are small; per-group sums stay far below this.
        value_bound=100_000,
        **system_kwargs,
    )


@contextlib.contextmanager
def gc_paused():
    """Keep the cyclic garbage collector out of a timed region, as
    :mod:`timeit` does.  Late in a long process a full collection walks
    every live object, and its allocation-count trigger can land on
    the same point of every repeat, which no minimum over repeats
    removes."""
    enabled = gc.isenabled()
    gc.disable()
    try:
        yield
    finally:
        if enabled:
            gc.enable()


def timed(fn, *args, **kwargs) -> tuple[float, object]:
    """Wall-clock one call, the garbage collector paused; returns
    (seconds, result)."""
    with gc_paused():
        start = time.perf_counter()
        result = fn(*args, **kwargs)
        return time.perf_counter() - start, result


def one_common_value(system: PrismSystem) -> list:
    """A single common value for isolating §6.3/§6.4 round-2 cost.

    The paper's extrema exposition assumes one common item; benches follow
    it so the per-value announcer round is measured once.
    """
    result = system.psi("OK")
    if not result.values:
        raise RuntimeError("fleet has an empty intersection; raise overlap")
    return [result.values[0]]
