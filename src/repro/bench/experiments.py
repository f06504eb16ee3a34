"""The seven §8 experiments, each regenerating a paper table or figure.

Every function returns a structured payload (also JSON-dumpable) and a
``text`` field rendered the way the paper presents the artefact.  The
pytest-benchmark targets in ``benchmarks/`` wrap the same building blocks
with statistical repetition; these functions are the one-shot "print the
paper's rows" harness behind ``python -m repro.bench``.
"""

from __future__ import annotations

import time

from repro.baselines.bloom import bloom_psi
from repro.baselines.dh_psi import dh_psi
from repro.baselines.freedman import FreedmanPSI
from repro.baselines.naive import plaintext_intersection
from repro.bench.harness import (
    build_system,
    gc_paused,
    large_domain_size,
    one_common_value,
    scaled,
    small_domain_size,
    timed,
)
from repro.bench.reporting import format_series, format_table
from repro.core.bucketized import simulate_actual_domain_size
from repro.data.tpch import generate_fleet, lineitem_domain

#: The operation suite of Fig. 3, in the paper's legend order.
EXP1_OPERATIONS = ("PSI", "PSU", "PSI Count", "PSI Sum", "PSI Avg",
                   "PSI Median", "PSI Max")


def _run_operation(system, op: str, threads: int, common=None):
    """Run one Fig.-3 operation on ``threads`` server sweep spans;
    returns its PhaseTimings."""
    if op == "PSI":
        return system.psi("OK", num_shards=threads).timings
    if op == "PSU":
        return system.psu("OK", num_shards=threads).timings
    if op == "PSI Count":
        return system.psi_count("OK", num_shards=threads).timings
    if op == "PSI Sum":
        return system.psi_sum("OK", "DT", num_shards=threads)["DT"].timings
    if op == "PSI Avg":
        return system.psi_average("OK", "DT",
                                  num_shards=threads)["DT"].timings
    if op == "PSI Median":
        return system.psi_median("OK", "PK", num_shards=threads,
                                 common_values=common).timings
    if op == "PSI Max":
        return system.psi_max("OK", "PK", num_shards=threads,
                              common_values=common).timings
    raise ValueError(f"unknown operation {op!r}")


def exp1_threads(domain_size: int | None = None, num_owners: int = 10,
                 thread_counts=(1, 2, 3, 4, 5), seed: int = 7) -> dict:
    """Fig. 3: operation latency vs server thread count (10 owners).

    A server thread is one span of the deployment's shard runtime, so
    each thread count runs as the per-call ``num_shards``.  For the
    extrema/median rows the PSI round runs threaded and the
    announcer round runs once (single common value, per the §6.3
    exposition), so the threading effect shows on the dominant kernel.
    """
    domain_size = domain_size or small_domain_size()
    system = build_system(num_owners=num_owners, domain_size=domain_size,
                          seed=seed)
    common = one_common_value(system)
    series: dict[str, list] = {op: [] for op in EXP1_OPERATIONS}
    series["Data Fetch Time"] = []
    for threads in thread_counts:
        for op in EXP1_OPERATIONS:
            needs_common = op in ("PSI Median", "PSI Max")
            timings = _run_operation(system, op, threads,
                                     common if needs_common else None)
            total = timings.server_seconds
            if needs_common:
                # PSI max/median with explicit common values skip the
                # PSI round; add back the PSI row at this thread count
                # so the row reflects the full query.
                total += timings.announcer_seconds + series["PSI"][-1][1]
            series[op].append((threads, total))
        # The fused sweep folds data fetch into server time, so the
        # paper's separate fetch phase is timed on its own: both
        # servers' (memoised) store fetch of the PSI column.
        series["Data Fetch Time"].append((threads, sum(
            timed(server.fetch_additive, "OK")[0]
            for server in system.servers[:2])))
    text = format_series(
        series, "threads", "time (s)",
        title=f"Fig. 3 — Prism multi-threaded performance "
              f"(domain={domain_size}, owners={num_owners})")
    return {"experiment": "fig3", "domain_size": domain_size,
            "num_owners": num_owners, "series": series, "text": text}


def exp2_multiattr(domain_sizes=None, attr_counts=(1, 2, 3, 4),
                   num_owners: int = 10, seed: int = 7) -> dict:
    """Table 12: sum/max over 1–4 aggregation attributes."""
    domain_sizes = domain_sizes or [small_domain_size(), large_domain_size()]
    attrs = ("DT", "PK", "LN", "SK")
    rows = []
    payload = {}
    for b in domain_sizes:
        system = build_system(num_owners=num_owners, domain_size=b, seed=seed)
        common = one_common_value(system)
        sums, maxes = [], []
        # The sums run back to back, so a change of machine speed
        # rarely lands between two of them.  Each is the first query of
        # its own store version: every point pays the same fixed work
        # (the PSI round's owner sum, the querier's indicator shares)
        # plus k Shamir owner sums and k Eq. 11 rows.
        for k in attr_counts:
            system.outsource("OK")
            secs, _ = timed(system.psi_sum, "OK", list(attrs[:k]))
            sums.append(secs)
        for k in attr_counts:
            start = time.perf_counter()
            system.psi("OK")  # round 1 of the extrema query
            for a in attrs[:k]:
                system.psi_max("OK", a, reveal_holders=False,
                               common_values=common)
            maxes.append(time.perf_counter() - start)
        rows.append([b] + [f"{s:.3f}" for s in sums] + [f"{m:.3f}" for m in maxes])
        payload[b] = {"sum": sums, "max": maxes}
    headers = (["Domain size"]
               + [f"Sum x{k}" for k in attr_counts]
               + [f"Max x{k}" for k in attr_counts])
    text = format_table(headers, rows,
                        title="Table 12 — multi-column aggregation (seconds)")
    return {"experiment": "table12", "attr_counts": list(attr_counts),
            "results": payload, "text": text}


def exp3_owners(owner_counts=(10, 20, 30, 40, 50),
                domain_size: int | None = None, seed: int = 7) -> dict:
    """Fig. 4: server processing time vs number of DB owners.

    Each operation is timed as the first query of its own store version,
    the paper's setting: a server keeps one owner-summed vector per
    column and store version, so an operation timed after another on
    the same column would read the vector the first one built and carry
    no per-owner work.  Re-outsourcing (untimed) starts a new version.
    """
    domain_size = domain_size or small_domain_size()
    ops = ("PSI", "PSU", "PSI Count", "PSI Sum")
    series: dict[str, list] = {op: [] for op in ops}
    for m in owner_counts:
        system = build_system(num_owners=m, domain_size=domain_size,
                              agg_attributes=("DT",), seed=seed)
        for op in ops:
            system.outsource("OK")
            with gc_paused():
                timings = _run_operation(system, op, 1)
            series[op].append((m, timings.server_seconds))
        system.close()
    text = format_series(
        series, "#DB owners", "server time (s)",
        title=f"Fig. 4 — scaling with DB owners (domain={domain_size})")
    return {"experiment": "fig4", "domain_size": domain_size,
            "series": series, "text": text}


def exp4_owner_time(domain_sizes=None, num_owners: int = 10,
                    seed: int = 7) -> dict:
    """Table 14: DB-owner processing time in result construction."""
    domain_sizes = domain_sizes or [small_domain_size(), large_domain_size()]
    ops = ("PSI", "Count", "Sum", "Avg", "Max", "PSU")
    per_domain = {}
    for b in domain_sizes:
        system = build_system(num_owners=num_owners, domain_size=b, seed=seed)
        common = one_common_value(system)
        times = {
            "PSI": system.psi("OK").timings.owner_seconds,
            "Count": system.psi_count("OK").timings.owner_seconds,
            "Sum": system.psi_sum("OK", "DT")["DT"].timings.owner_seconds,
            "Avg": system.psi_average("OK", "DT")["DT"].timings.owner_seconds,
            "Max": system.psi_max("OK", "PK", reveal_holders=False,
                                  common_values=common).timings.owner_seconds,
            "PSU": system.psu("OK").timings.owner_seconds,
        }
        per_domain[b] = times
    rows = [[op] + [f"{per_domain[b][op]:.4f}" for b in domain_sizes]
            for op in ops]
    headers = ["Operation"] + [f"b={b}" for b in domain_sizes]
    text = format_table(
        headers, rows,
        title="Table 14 — owner-side result-construction time (seconds)")
    return {"experiment": "table14", "results": per_domain, "text": text}


def exp5_bucketization(fill_factors=(1.0, 0.1, 0.01, 0.001, 0.0001),
                       num_leaves: int | None = None, fanout: int = 10,
                       seed: int = 7) -> dict:
    """Fig. 5: bucketization actual-domain-size vs fill factor."""
    num_leaves = num_leaves or scaled(1_000_000)
    with_bucket = []
    without = []
    for ff in fill_factors:
        actual = simulate_actual_domain_size(num_leaves, fanout, ff, seed)
        with_bucket.append((f"{ff * 100:g}%", actual))
        without.append((f"{ff * 100:g}%", num_leaves))
    series = {"W Bucketization": with_bucket, "W/O Bucketization": without}
    text = format_series(
        series, "fill factor", "actual domain size",
        title=f"Fig. 5 — impact of bucketization "
              f"(leaves={num_leaves}, fanout={fanout})")
    return {"experiment": "fig5", "num_leaves": num_leaves, "fanout": fanout,
            "series": series, "text": text}


def exp6_comparison(prism_domain: int | None = None, freedman_n: int = 96,
                    seed: int = 7) -> dict:
    """Table 13: Prism (2 owners) against the baseline families.

    Freedman PSI is O(n²) Paillier exponentiations, so it runs at a small
    ``n`` and the per-element cost column is what carries the comparison —
    matching how the paper cites the competitors' own reported numbers.
    """
    prism_domain = prism_domain or small_domain_size()
    system = build_system(num_owners=2, domain_size=prism_domain, seed=seed)
    prism_secs, prism_result = timed(system.psi, "OK")
    sets = [rel.distinct("OK") for rel in system.relations]

    plain_secs, plain_result = timed(plaintext_intersection, sets)
    bloom_secs, bloom_result = timed(bloom_psi, [sets[0], sets[1]])
    dh_secs, dh_result = timed(dh_psi, sets[0], sets[1], seed)

    small_sets = [sorted(sets[0])[:freedman_n], sorted(sets[1])[:freedman_n]]
    freedman = FreedmanPSI(key_bits=96, seed=seed)
    freedman_secs, freedman_result = timed(
        freedman.intersect, small_sets[0], small_sets[1])

    rows = [
        ["Prism (this work)", prism_domain, f"{prism_secs:.3f}",
         f"{prism_secs / prism_domain * 1e6:.3f}", "PSI/PSU/aggr", "Yes", "No"],
        ["Freedman+Paillier [23,39]", freedman_n, f"{freedman_secs:.3f}",
         f"{freedman_secs / freedman_n * 1e6:.0f}", "PSI", "No", "N/A"],
        ["DH-PSI ([19]-style)", len(sets[0]), f"{dh_secs:.3f}",
         f"{dh_secs / len(sets[0]) * 1e6:.1f}", "PSI", "No", "N/A"],
        ["Bloom-filter PSI [47]", len(sets[0]), f"{bloom_secs:.3f}",
         f"{bloom_secs / len(sets[0]) * 1e6:.3f}", "PSI", "No", "N/A"],
        ["Plaintext (insecure, [37]-like)", len(sets[0]), f"{plain_secs:.4f}",
         f"{plain_secs / len(sets[0]) * 1e6:.4f}", "all (leaks)", "No", "N/A"],
    ]
    headers = ["System", "n", "time (s)", "us/element", "operations",
               "verification", "server comm"]
    text = format_table(headers, rows,
                        title="Table 13 — comparison with other approaches "
                              "(2 DB owners)")
    return {
        "experiment": "table13",
        "prism": {"n": prism_domain, "seconds": prism_secs,
                  "result_size": len(prism_result)},
        "freedman": {"n": freedman_n, "seconds": freedman_secs,
                     "result_size": len(freedman_result)},
        "dh": {"n": len(sets[0]), "seconds": dh_secs,
               "result_size": len(dh_result)},
        "bloom": {"n": len(sets[0]), "seconds": bloom_secs,
                  "result_size": len(bloom_result)},
        "plaintext": {"n": len(sets[0]), "seconds": plain_secs,
                      "result_size": len(plain_result)},
        "text": text,
    }


def exp7_sharegen(domain_size: int | None = None, num_owners: int = 2,
                  seed: int = 7) -> dict:
    """§8.1 prose: share-generation time, data vs verification columns."""
    domain_size = domain_size or small_domain_size()
    domain = lineitem_domain(domain_size)
    rows = max(64, int(domain_size * 0.25))
    relations = generate_fleet(num_owners, domain, rows, seed=seed)

    from repro.core.system import PrismSystem
    system_plain = PrismSystem(relations, domain, seed=seed,
                               value_bound=100_000)
    data_secs, _ = timed(system_plain.outsource, "OK",
                         ("DT", "PK", "LN", "SK"), False)
    system_verif = PrismSystem(relations, domain, seed=seed,
                               value_bound=100_000)
    all_secs, _ = timed(system_verif.outsource, "OK",
                        ("DT", "PK", "LN", "SK"), True)
    verification_secs = max(0.0, all_secs - data_secs)
    per_vcolumn = verification_secs / 5  # vOK..vDT as in Table 11

    rows_out = [
        ["5 data columns + aOK", f"{data_secs:.3f}"],
        ["5 verification columns (total)", f"{verification_secs:.3f}"],
        ["per verification column", f"{per_vcolumn:.3f}"],
    ]
    text = format_table(["Share generation step", "time (s)"], rows_out,
                        title=f"§8.1 — share-generation time "
                              f"(domain={domain_size}, owners={num_owners})")
    return {"experiment": "sharegen", "domain_size": domain_size,
            "data_seconds": data_secs,
            "verification_seconds": verification_secs,
            "per_verification_column": per_vcolumn, "text": text}


#: CLI name → experiment function.
EXPERIMENTS = {
    "fig3": exp1_threads,
    "table12": exp2_multiattr,
    "fig4": exp3_owners,
    "table14": exp4_owner_time,
    "fig5": exp5_bucketization,
    "table13": exp6_comparison,
    "sharegen": exp7_sharegen,
}
