"""End-to-end benchmark of the Prism reproduction.

Run from the root of a checkout::

    python3 perfbench/run.py --workload scan_refresh --seed 1 --seconds 35 --trace 0
    python3 perfbench/run.py --workload gateway_tcp --seed 1 --seconds 35 --trace 1
    python3 perfbench/run.py --steadiness 5 --workload scan_refresh,gateway_tcp

``BENCHMARK.json`` names ``scan_refresh`` and ``gateway_tcp``.
``rounds_tcp`` runs the same way but is left out of it: on the 2-vCPU
VM this was tuned on, its throughput drifted by a quarter and more
between runs minutes apart (its ~190 sequential RPCs per query make it
the most sensitive to the neighbouring load), wider than any bound the
benchmark may set.

A run sets the deployment up several times (``setup_s`` is the median),
checks the shape of its seed-invariant fleet, then drives a fixed number
of closed-loop reads and checks every answer against a plaintext oracle
computed before timing starts.  The last line of standard output is one
JSON object: ``correct``, ``attempted``, ``failed`` and ``metrics`` —
the end-to-end metrics with ``--trace 0``, the per-layer metrics of the
traced run with ``--trace 1``.  Lines before it print every figure by
name and unit, plus diagnostics (host, Python, numpy, kernel tier, a
spin-loop drift probe, setup samples).

``--steadiness N`` runs ``2 N`` untraced runs of each workload as child
processes, alternating between two sets with different seeds, and prints
each end-to-end metric's relative median difference between the sets
and its spread (IQR over median) against the bound in ``BENCHMARK.json``.

The repository's default configuration is measured: ``REPRO_KERNELS``
and ``REPRO_SCALE`` are removed from the environment.
"""

from __future__ import annotations

import argparse
import json
import os
import platform
import statistics
import subprocess
import sys
import threading
import time

ROOT = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))
OUT_DIR = os.path.join(ROOT, ".perfbench_out")

#: End-to-end metrics, reported with ``--trace 0`` on every workload.
END_TO_END = {
    "qps": "1/s",
    "lat_p50_ms": "ms",
    "lat_p90_ms": "ms",
    "setup_s": "s",
    "cpu_ms_per_query": "ms",
    "model_bytes_per_query": "B",
    "peak_rss_mb": "MiB",
}

#: Per-layer metrics of the traced run, reported with ``--trace 1``.
PER_LAYER = {
    "serving.self_ms_per_query": "ms",
    "serving.admission_wait_ms_per_query": "ms",
    "serving.rejected_frac": "ratio",
    "api.plan_ms_per_query": "ms",
    "api.queue_wait_ms_per_query": "ms",
    "api.fusion_ratio": "ratio",
    "core.batch_self_ms_per_query": "ms",
    "core.rows_dedup_frac": "ratio",
    "core.indicator_cache_hit_frac": "ratio",
    "core.shard_run_ms_per_query": "ms",
    "core.shard_prewarm_ms_per_refresh": "ms",
    "core.rounds_per_query": "count",
    "core.round_self_ms": "ms",
    "entities.sweep_ms_per_query": "ms",
    "entities.cells_swept_per_query": "count",
    "entities.owner_ms_per_query": "ms",
    "entities.announcer_ms_per_query": "ms",
    "entities.outsource_ms_per_refresh": "ms",
    "network.rpc_per_query": "count",
    "network.rpc_wait_ms_per_query": "ms",
    "network.codec_ms_per_query": "ms",
    "network.socket_bytes_per_query": "B",
    "network.events_swallowed": "count",
    "crypto.prg_ms_per_query": "ms",
    "crypto.prg_bytes_per_query": "B",
    "crypto.share_ms_per_refresh": "ms",
    "kernels.native_span_calls": "count",
    "trace.coverage_frac": "ratio",
    "trace.overhead_frac": "ratio",
    "trace.missing_wraps": "count",
}


def _bootstrap() -> None:
    """Import the program from this checkout's ``src``; default config."""
    src = os.path.join(ROOT, "src")
    if not os.path.isfile(os.path.join(src, "repro", "__init__.py")):
        sys.exit(f"perfbench: no program sources under {src}; run from the "
                 f"root of a full checkout")
    sys.path[:0] = [src, ROOT]
    for variable in ("REPRO_KERNELS", "REPRO_SCALE"):
        os.environ.pop(variable, None)


# -- one run ------------------------------------------------------------------


class Phase:
    """What the timed closed loop observed."""

    def __init__(self, callers: int, deadline_ns: int):
        self.deadline_ns = deadline_ns
        self.reads = [[] for _ in range(callers)]  # (start, end, ok, traced)
        self.refresh_ns: list[int] = []
        self.refresh_traced = 0
        self.refresh_bytes = 0
        self.errors: list[str] = []
        self.threads: set[int] = set()


def _run_caller(workload, caller, order, fleets, oracles, phase, tracer):
    """One closed-loop caller; caller 0 also refreshes and toggles tracing."""
    phase.threads.add(threading.get_ident())
    block = len(workload.forms)
    version = 0
    out = phase.reads[caller]
    for i, form in enumerate(order):
        if i % block == 0 and time.perf_counter_ns() > phase.deadline_ns:
            break  # a host far slower than the nominal rate: whole blocks
        if caller == 0:
            if tracer is not None and i % block == 0:
                tracer.set_enabled((i // block) % 2 == 0)
            if workload.refresh_every and i and i % workload.refresh_every == 0:
                version += 1
                before = workload.model_bytes()
                start = time.perf_counter_ns()
                workload.refresh(fleets[version])
                phase.refresh_ns.append(time.perf_counter_ns() - start)
                phase.refresh_bytes += workload.model_bytes() - before
                phase.refresh_traced += bool(tracer and tracer.enabled)
        name, query, check = workload.forms[form]
        traced = bool(tracer and tracer.enabled)
        start = time.perf_counter_ns()
        try:
            result = workload.execute(caller, query)
        except Exception as exc:  # a failed read is counted, not fatal
            result = exc
        end = time.perf_counter_ns()
        error = _check(check, result, oracles[version])
        if error:
            phase.errors.append(f"{name}: {error}")
        out.append((start, end, not error, traced))
    if caller == 0 and tracer is not None:
        tracer.set_enabled(False)


def _check(check, result, oracle) -> str | None:
    """Why ``result`` is wrong, or ``None`` when the oracle agrees."""
    if isinstance(result, Exception):
        return f"{type(result).__name__}: {result}"
    try:
        if check(result, oracle):
            return None
    except (KeyError, TypeError, AttributeError) as exc:
        return f"malformed answer ({type(exc).__name__}: {exc})"
    return "answer differs from the oracle"


def _warm_up(workload, oracle) -> list[str]:
    """Each form once on each caller; returns what went wrong."""
    errors = []
    for caller in range(workload.callers):
        for name, query, check in workload.forms:
            error = _check(check, workload.execute(caller, query), oracle)
            if error:
                errors.append(f"warm-up {name}: {error}")
    return errors


def _timed_phase(workload, orders, fleets, oracles, tracer):
    """Drive every caller's fixed reads; returns the phase and its totals.

    The reads are fixed in advance; a caller stops early, at a block
    boundary, only once twice their time at the nominal rate has passed.
    """
    from perfbench import measure

    system = workload.system()
    cache = system.initiator.indicator_cache
    cache0 = dict(cache.stats)
    model0, socket0 = workload.model_bytes(), workload.socket_bytes()
    fusion0, rejected0 = workload.fusion(), workload.rejected()
    cpu = measure.CpuMeter()
    start = time.perf_counter_ns()
    expected = sum(map(len, orders)) / workload.nominal_qps
    phase = Phase(workload.callers, start + int(2e9 * expected))
    threads = [threading.Thread(target=_run_caller, name=f"caller-{c}",
                                args=(workload, c, orders[c], fleets,
                                      oracles, phase, tracer))
               for c in range(1, workload.callers)]
    for thread in threads:
        thread.start()
    _run_caller(workload, 0, orders[0], fleets, oracles, phase, tracer)
    for thread in threads:
        thread.join()
    elapsed = (time.perf_counter_ns() - start) / 1e9
    cpu_s = cpu.seconds()
    peak_rss = measure.peak_rss_mb()
    model = workload.model_bytes() - model0 - phase.refresh_bytes
    sockets = workload.socket_bytes() - socket0
    submitted, ticks = (a - b for a, b in zip(workload.fusion(), fusion0))
    admitted, rejected = (a - b for a, b in zip(workload.rejected(),
                                                 rejected0))
    hits = cache.stats["hits"] - cache0["hits"]
    misses = cache.stats["misses"] - cache0["misses"]
    reads = sum(len(caller) for caller in phase.reads)
    counters = {
        "rejected_frac": rejected / (admitted + rejected)
        if admitted + rejected else 0.0,
        "fusion_ratio": submitted / ticks if ticks else 1.0,
        "cache_hit_frac": hits / (hits + misses) if hits + misses else 0.0,
        "socket_bytes_per_query": sockets / reads,
        "events_swallowed": sum(
            n for kind, n in system.transport.stats.events.items()
            if kind.startswith("swallowed-")),
    }
    return phase, (elapsed, cpu_s, peak_rss, model, counters)


def run_once(workload_name: str, seed: int, seconds: float,
             trace: bool) -> dict:
    import numpy as np

    from perfbench import measure
    from perfbench.fleet import check_shape, make_fleet, oracle
    from perfbench.workloads import WORKLOADS
    from repro import kernels

    # One CPU for the whole deployment (children inherit the mask):
    # cross-CPU wake-ups and the first CPU's interrupt load made
    # throughput swing by up to a third between runs on a 2-vCPU VM.
    allowed = os.sched_getaffinity(0)
    os.sched_setaffinity(0, {max(allowed)})
    workload = WORKLOADS[workload_name]()
    report = {"workload": workload_name, "seed": seed, "trace": trace,
              "cpu_count": os.cpu_count(),
              "cpus_allowed": len(allowed),
              "cpu_pinned": max(allowed),
              "python": platform.python_version(),
              "numpy": np.__version__,
              "kernel_tier": kernels.active_backend(),
              "spin_before_s": measure.spin_seconds()}

    # Inputs and answers, all before any timing.
    reads = workload.reads_per_caller(seconds)
    orders = workload.sequences(seed, reads)
    fleets = [make_fleet(workload.shape, seed, version)
              for version in range(1 + workload.refreshes(reads))]
    for fleet in fleets:
        check_shape(fleet)
    oracles = [oracle(fleet) for fleet in fleets]
    report["bucket_pattern"] = oracles[0]["bucket_pattern"]
    if any(o["bucket_pattern"] != report["bucket_pattern"] for o in oracles):
        raise AssertionError("refresh versions differ in bucket pattern")

    tracer = None
    if trace:
        from perfbench.trace import Tracer, install
        tracer = Tracer(os.path.join(OUT_DIR, f"trace-{os.getpid()}"))
        install(tracer, workload.shape.domain_size)

    # Set up from nothing to answered warm-up queries, several times; the
    # last deployment stays up for the timed phase.
    errors: list[str] = []
    setups = []
    count = 1 if trace else workload.setups
    for attempt in range(count):
        start = time.perf_counter()
        workload.start(fleets[0])
        try:
            errors += _warm_up(workload, oracles[0])
        except BaseException:
            workload.stop()
            raise
        setups.append(time.perf_counter() - start)
        if attempt < count - 1:
            workload.stop()
            errors += [f"after setup: {left}" for left in measure.leftovers()]
    try:
        phase, observed = _timed_phase(workload, orders, fleets, oracles,
                                       tracer)
    finally:
        workload.stop()
    errors += [f"after teardown: {left}" for left in measure.leftovers()]
    report["spin_after_s"] = measure.spin_seconds()
    elapsed, cpu_s, peak_rss, model, counters = observed

    samples = [r for caller in phase.reads for r in caller]
    attempted = len(samples)
    failed = sum(1 for r in samples if not r[2])
    latencies = [(r[1] - r[0]) / 1e6 for r in samples if r[2]]
    tail = workload.tail_pct
    if measure.beyond(len(latencies), tail) < 10:
        errors.append(f"only {len(latencies)} samples for p{tail:g}")
    report.update({
        "setup_samples_s": setups,
        "reads": attempted,
        "refreshes": len(phase.refresh_ns),
        "elapsed_s": elapsed,
        "failed_frac": failed / attempted,
        f"lat_p{tail:g}_ms": measure.percentile(latencies, tail),
        "refresh_p50_ms": (statistics.median(phase.refresh_ns) / 1e6
                           if phase.refresh_ns else None),
        "socket_bytes_per_query": counters["socket_bytes_per_query"],
        "errors": errors[:20] + phase.errors[:20],
    })
    metrics = {
        "qps": attempted / elapsed,
        "lat_p50_ms": measure.percentile(latencies, 50),
        "lat_p90_ms": measure.percentile(latencies, 90),
        "setup_s": statistics.median(setups),
        "cpu_ms_per_query": cpu_s * 1000 / attempted,
        "model_bytes_per_query": model / attempted,
        "peak_rss_mb": peak_rss,
    }
    if tracer is not None:
        metrics = _layer_metrics(tracer, workload, phase, counters, report)
    report["correct"] = not errors and not failed
    report["attempted"] = attempted
    report["failed"] = failed
    report["metrics"] = metrics
    return report


def _layer_metrics(tracer, workload, phase, counters, report) -> dict:
    from perfbench.trace import layer_metrics

    traced = [r for caller in phase.reads for r in caller if r[3]]
    untraced = [r for caller in phase.reads for r in caller if not r[3]]
    traced_ns = sum(hi - lo for lo, hi in tracer.windows)
    first = min(r[0] for caller in phase.reads for r in caller)
    last = max(r[1] for caller in phase.reads for r in caller)
    untraced_ns = (last - first) - traced_ns
    qps_traced = len(traced) / (traced_ns / 1e9)
    qps_untraced = len(untraced) / (untraced_ns / 1e9)
    tracer.uninstall()
    spans = tracer.collect()
    report.update({"qps_traced": qps_traced, "qps_untraced": qps_untraced,
                   "spans": sum(len(s) for s in spans.values()),
                   "span_processes": len(spans),
                   "missing_wraps": tracer.missing})
    roots = ({"serving.client"} if workload.callers > 1
             else {"api.execute", "core.refresh"})
    return layer_metrics(
        tracer, spans, traced_reads=len(traced),
        traced_refreshes=phase.refresh_traced, caller_threads=phase.threads,
        roots=roots, qps_traced=qps_traced, qps_untraced=qps_untraced,
        counters=counters)


def print_report(report: dict) -> None:
    units = PER_LAYER if report["trace"] else END_TO_END
    for key, value in report.items():
        if key not in ("metrics", "errors"):
            print(f"# {key}: {value}")
    for error in report["errors"]:
        print(f"# error: {error}")
    for name, value in report["metrics"].items():
        print(f"{name:40s} {value:16.6f} {units[name]}")
    print(json.dumps({
        "correct": report["correct"],
        "attempted": report["attempted"],
        "failed": report["failed"],
        "metrics": {name: {"value": value, "unit": units[name]}
                    for name, value in report["metrics"].items()},
    }))


# -- steadiness ---------------------------------------------------------------


def _child_run(workload: str, seed: int, seconds: int) -> dict:
    command = [sys.executable, os.path.abspath(__file__),
               "--workload", workload, "--seed", str(seed),
               "--seconds", str(seconds), "--trace", "0"]
    done = subprocess.run(command, cwd=ROOT, capture_output=True, text=True,
                          timeout=600)
    lines = done.stdout.strip().splitlines()
    if done.returncode or not lines:
        raise RuntimeError(f"{workload} seed {seed} failed:\n{done.stderr}")
    result = json.loads(lines[-1])
    # The drift probe rides along as a pseudo-metric for the listing.
    spins = [float(line.split(":")[1]) for line in lines
             if line.startswith(("# spin_before_s:", "# spin_after_s:"))]
    result["metrics"]["spin_s"] = {"value": statistics.mean(spins),
                                   "unit": "s"}
    return result


def _spread(values) -> float:
    q1, _, q3 = statistics.quantiles(values, n=4)
    median = statistics.median(values)
    return (q3 - q1) / median if median else 0.0


def steadiness(workloads, runs: int, seconds: int) -> bool:
    """Two alternating sets of ``runs`` runs per workload, against bounds."""
    with open(os.path.join(ROOT, "BENCHMARK.json")) as handle:
        spec = json.load(handle)
    bounds = {m["name"]: (m["bound"], m["better"]) for m in spec["end_to_end"]}
    steady = True
    for workload in workloads:
        sets: dict[str, list[dict]] = {"A": [], "B": []}
        for i in range(runs):
            for label, base in (("A", 1000), ("B", 2000)):
                result = _child_run(workload, base + i, seconds)
                steady &= result["correct"] and not result["failed"]
                sets[label].append(result["metrics"])
        print(f"\n{workload}: {runs} runs per set, seeds 1000+i (A) and "
              f"2000+i (B), alternating")
        for name in [*bounds, "spin_s"]:
            print(f"  {name:24s} A " + " ".join(
                f"{m[name]['value']:.6g}" for m in sets["A"]) + "  B " +
                " ".join(f"{m[name]['value']:.6g}" for m in sets["B"]))
        print(f"{'metric':24s} {'unit':5s} {'bound':>6s} {'median A':>14s} "
              f"{'median B':>14s} {'B vs A':>8s} {'IQR/med A':>9s} "
              f"{'IQR/med B':>9s} {'IQR/med all':>11s}")
        for name, (bound, better) in bounds.items():
            a = [m[name]["value"] for m in sets["A"]]
            b = [m[name]["value"] for m in sets["B"]]
            med_a, med_b = statistics.median(a), statistics.median(b)
            diff = (med_b - med_a) / med_a if med_a else 0.0
            worse = -diff if better == "higher" else diff
            pooled = _spread(a + b)
            ok = worse <= bound and (name == "setup_s"
                                     or max(_spread(a), _spread(b)) <= bound)
            steady &= ok
            print(f"{name:24s} {sets['A'][0][name]['unit']:5s} {bound:6.3f} "
                  f"{med_a:14.4f} {med_b:14.4f} {diff:+8.2%} "
                  f"{_spread(a):9.2%} {_spread(b):9.2%} {pooled:11.2%}"
                  f"{'' if ok else '  OUT OF BOUND'}"
                  f"{'' if name == 'setup_s' or pooled < bound / 3 else '  (> bound/3)'}")
    return steady


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", default="all",
                        help="a workload, a comma-separated list, or all")
    parser.add_argument("--seed", type=int, default=1)
    parser.add_argument("--seconds", type=int, default=35)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--steadiness", type=int, default=0, metavar="N",
                        help="run two alternating sets of N runs each")
    args = parser.parse_args(argv)
    _bootstrap()
    from perfbench.workloads import WORKLOADS

    names = (list(WORKLOADS) if args.workload == "all"
             else args.workload.split(","))
    unknown = [name for name in names if name not in WORKLOADS]
    if unknown:
        parser.error(f"unknown workload {unknown[0]!r}; "
                     f"choose from {sorted(WORKLOADS)} or all")
    if args.steadiness:
        return 0 if steadiness(names, args.steadiness, args.seconds) else 1
    if len(names) != 1:
        parser.error("a single run needs one --workload")
    report = run_once(names[0], args.seed, args.seconds, bool(args.trace))
    print_report(report)
    return 0


if __name__ == "__main__":
    sys.exit(main())
