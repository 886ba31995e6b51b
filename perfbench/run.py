#!/usr/bin/env python3
"""Layered serving benchmark for the Sieve reproduction.

Usage (from the repository root)::

    python3 perfbench/run.py --workload classify_device_skewed \\
        --seed 1 --seconds 30 --trace 0

``--trace 0`` prints the end-to-end metrics of ``BENCHMARK.json``;
``--trace 1`` runs the same workload untraced and then traced and
prints the per-layer metrics.  The last stdout line is one JSON object
``{"correct", "attempted", "failed", "metrics"}``; the lines before it
hold the run record.  Every answer is checked against the scalar host
reference; any mismatch, failure or counter drift between the traced
and untraced passes makes ``correct`` false and the exit code 1.
Every end-to-end metric comes from offline samples; host times and
rates are reported at a fixed reference host speed (``speed.py``), and
the run record keeps the raw wall-clock figures.  On an open-loop
workload, ``--trace 1`` adds a fixed-rate open loop whose latencies
are per-layer ``loadgen.*`` metrics.  See ``perfbench/README.md``.
"""

from __future__ import annotations

import argparse
import gc
import hashlib
import json
import os
import platform
import shutil
import statistics
import subprocess
import sys
from pathlib import Path
from typing import Any, Dict, List, Optional

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
SRC = ROOT / "src"
OUT = HERE / "out"

#: Set-up is timed in groups spread over the run (before serving, after
#: the first cycle of samples and at the end), so that its median spans
#: the run as the serving metrics do.  A group builds at least once and
#: keeps building until it has spent SETUP_GROUP_S (at most
#: SETUP_MAX_REPEATS builds): one cheap set-up is too short to time
#: alone.  ``setup_s`` is the median.
SETUP_GROUP_S = 0.6
SETUP_MAX_REPEATS = 25
#: A traced run of an open-loop workload adds a fixed-rate part of this
#: share of ``--seconds``, served untraced and then traced.
FIXED_RATE_SHARE = 0.5
#: A p99 needs ten samples beyond it: latency tails are taken per
#: window of this many requests.
P99_WINDOW = 1000
#: Offline runs cycle through this many distinct samples, so each
#: read's reference answer is computed once however long the run.
DISTINCT_SAMPLES = 6


def _fail(message: str) -> None:
    print(f"perfbench: {message}", file=sys.stderr)
    sys.exit(2)


def parse_args(argv: Optional[List[str]]) -> argparse.Namespace:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument(
        "--slow-sieve", type=float, default=1.0, metavar="FACTOR",
        help="stretch every sieve backend call by FACTOR; the instrument "
        "self-test uses it",
    )
    args = parser.parse_args(argv)
    if args.seconds <= 0 or args.seed < 0:
        parser.error("--seconds must be positive and --seed non-negative")
    if args.slow_sieve < 1.0:
        parser.error("--slow-sieve must be >= 1")
    return args


def percentile(values: List[float], p: float) -> float:
    """Nearest-rank percentile (the service histogram's definition)."""
    ordered = sorted(values)
    rank = -(-p * len(ordered) // 100)
    return ordered[min(len(ordered), max(1, int(rank))) - 1]


def window_p99s(values: List[float]) -> List[float]:
    """p99 of each consecutive ``P99_WINDOW``-request window (a short
    tail window is folded into the one before), so each keeps ten
    samples beyond its p99."""
    n = max(1, len(values) // P99_WINDOW)
    bounds = [i * P99_WINDOW for i in range(n)] + [len(values)]
    return [percentile(values[a:b], 99) for a, b in zip(bounds, bounds[1:])]


def windowed_p99(values: List[float]) -> float:
    """Median of the window p99s: one host stall moves one window's
    tail, not the reported value."""
    return statistics.median(window_p99s(values))


def _ratio(num: float, den: float) -> float:
    return num / den if den else 0.0


def _sum_counters(units) -> Dict[str, float]:
    total: Dict[str, float] = {}
    for unit in units:
        for key, value in unit.counters.items():
            total[key] = total.get(key, 0) + value
    return total


def _vm_hwm_kb(pid: str) -> int:
    try:
        with open(f"/proc/{pid}/status", encoding="ascii") as status:
            for line in status:
                if line.startswith("VmHWM:"):
                    return int(line.split()[1])
    except OSError:
        pass
    return 0


def _peak_rss_mb(worker_pids: List[int]) -> float:
    kb = _vm_hwm_kb("self")
    if kb == 0:
        import resource

        kb = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss
    return (kb + sum(_vm_hwm_kb(str(pid)) for pid in worker_pids)) / 1e3


def run_record(args, kernel_impl: str) -> Dict[str, Any]:
    import numpy

    rev = "none"
    if (ROOT / ".git").exists():
        proc = subprocess.run(
            ["git", "-C", str(ROOT), "rev-parse", "HEAD"],
            capture_output=True, text=True, check=False,
        )
        rev = proc.stdout.strip() or "none"
    digest = hashlib.sha256()
    for path in sorted((SRC / "repro").rglob("*.py")):
        digest.update(path.relative_to(SRC).as_posix().encode())
        digest.update(path.read_bytes())
    return {
        "workload": args.workload,
        "seed": args.seed,
        "seconds": args.seconds,
        "trace": args.trace,
        "slow_sieve": args.slow_sieve,
        "nproc": os.cpu_count(),
        "python": platform.python_version(),
        "numpy": numpy.__version__,
        "kernel_implementation": kernel_impl,
        "git_revision": rev,
        "src_sha256": digest.hexdigest(),
    }


# -- passes -------------------------------------------------------------------


def offline_pass(
    rig, seed, budget_s=None, count=None, recorder=None, slow_sieve=1.0,
    after_cycle=None, first=0,
):
    """Serve fresh samples, from sample number ``first`` on, until
    ``budget_s`` of serving and one full cycle of the distinct samples
    (or exactly ``count`` samples).

    Returns the served samples and the peak RSS (MB) at the end of the
    first cycle (0 if the pass does not end it): a fixed amount of work,
    so a faster program does not read as a bigger one.  ``after_cycle``
    is called once, just after that reading.
    """
    from scenarios import serve

    units, spent, peak_mb = [], 0.0, 0.0
    while (
        len(units) < count
        if count is not None
        else spent < budget_s or first + len(units) < DISTINCT_SAMPLES
    ):
        i = first + len(units)
        reads = rig.reads(
            seed, 1 + i % DISTINCT_SAMPLES, rig.workload.sample_reads, keep=True
        )
        units.append(serve(rig, reads, recorder=recorder, slow_sieve=slow_sieve))
        spent += units[-1].wall_s
        if i + 1 == DISTINCT_SAMPLES:
            peak_mb = _peak_rss_mb(rig.worker_pids())
            if after_cycle is not None:
                after_cycle()
    return units, peak_mb


def fixed_rate_pass(rig, seed, duration_s, recorder=None, slow_sieve=1.0):
    """The open loop: Poisson requests at the workload's fixed rate for
    ``duration_s``, sent as consecutive units of ``P99_WINDOW`` requests
    (a short tail joins the unit before)."""
    from scenarios import poisson_offsets, serve

    w = rig.workload
    n = max(1, int(w.fixed_rps * duration_s))
    reads = rig.reads(seed, 10_001, n)
    offsets = poisson_offsets(seed, 10_002, w.fixed_rps, n)
    cuts = [i * P99_WINDOW for i in range(max(1, n // P99_WINDOW))] + [n]
    return [
        serve(
            rig, reads[a:b], offsets[a:b] - offsets[a],
            recorder=recorder, slow_sieve=slow_sieve,
        )
        for a, b in zip(cuts, cuts[1:])
    ]


# -- metrics --------------------------------------------------------------------


def end_to_end(w, setup_s, samples, peak_mb, scaled=True):
    """The end-to-end metrics of the offline samples.  Host times are
    taken to the reference host speed with each sample's ``scale``, and
    rates divided by it (``scaled=False`` gives the raw wall-clock
    figures the run record keeps)."""

    def scale(unit):
        return unit.scale if scaled else 1.0

    lat = [
        x * scale(u) if x is not None else float("inf")
        for u in samples for x in u.latency_ms
    ]
    good = sum(sum(u.ok) for u in samples)
    serve_s = sum(u.wall_s * scale(u) for u in samples)
    attempted = sum(u.reads for u in samples)
    bad = sum(u.failed + u.wrong for u in samples)
    return {
        "setup_s": (setup_s, "s"),
        "reads_per_s": (good / serve_s, "1/s"),
        "ns_per_kmer": (serve_s * 1e9 / sum(u.kmers for u in samples), "ns"),
        "latency_p50_ms": (percentile(lat, 50), "ms"),
        "latency_p99_ms": (windowed_p99(lat), "ms"),
        "slo_met_frac": (
            sum(u.within(w.limit_ms / scale(u)) for u in samples) / len(lat), "frac"
        ),
        # Offline, the drain rate: every sample is served at full load.
        "sustained_rps": (good / serve_s, "1/s"),
        "success_frac": ((attempted - bad) / attempted, "frac"),
        "peak_rss_mb": (peak_mb, "MB"),
    }, lat


def sim_clock(counters) -> Dict[str, float]:
    served = counters.get("service.kmers_total", 0)
    return {
        "sim_ns_per_kmer": _ratio(counters.get("clocks.sim_time_ns", 0), served),
        "sim_nj_per_kmer": _ratio(counters.get("clocks.sim_energy_nj", 0), served),
    }


def per_layer(units, recorder, observer, untraced_loadgen, overhead):
    """Per-layer metrics of the traced pass.  Shares are of its wall
    time; per-unit times are taken to the reference host speed with the
    pass's overall scale (loadgen lag, a scheduling delay, stays raw)."""
    from spans import self_times, top_level_ns

    spans = recorder.spans
    st = self_times(spans)
    wall_ns = sum(u.wall_s for u in units) * 1e9
    ref = sum(u.ref_s for u in units) * 1e9 / wall_ns

    def tot(name):
        return st.get(name, {}).get("total_ns", 0)

    def own(name):
        return st.get(name, {}).get("self_ns", 0)

    def cnt(name):
        return st.get(name, {}).get("count", 0)

    def units_of(name):
        return st.get(name, {}).get("units", 0)

    c = _sum_counters(units)
    backend_ns = tot("sieve.query") + tot("genomics.query") + tot("cluster.query")
    covered = (
        backend_ns + tot("mapping.extend") + tot("service.submit")
        + own("workloads.loadgen") + tot("loop.idle")
    )
    unattributed = wall_ns - top_level_ns(spans)
    waits = [x * ref / 1e6 for x in observer.queue_wait_ns] or [0.0]
    batches = c.get("service.batches_total", 0)
    lookups = c.get("cache.lookup_kmers", 0)
    workers = [v for k, v in c.items() if k.startswith("cluster.worker")]
    lags, sent, latency = untraced_loadgen
    sim = sim_clock(c)
    m = {
        "loadgen.lag_p99_ms": (percentile(lags, 99), "ms"),
        "loadgen.sent": (sent, "count"),
        "loadgen.latency_samples": (len(latency), "count"),
        "loadgen.latency_p50_ms": (percentile(latency, 50), "ms"),
        "loadgen.latency_p99_ms": (windowed_p99(latency), "ms"),
        "service.submit_us_per_read": (
            _ratio(tot("service.submit"), cnt("service.submit")) * ref / 1e3, "us"
        ),
        "service.queue_wait_ms_p50": (percentile(waits, 50), "ms"),
        "service.queue_wait_ms_p99": (percentile(waits, 99), "ms"),
        "service.batches": (batches, "count"),
        "service.kmers_per_batch": (_ratio(c.get("service.kmers_total", 0), batches), "kmers"),
        "service.reads_per_batch": (_ratio(c.get("service.completed_total", 0), batches), "reads"),
        "service.self_s_frac": ((wall_ns - covered) / wall_ns, "frac"),
        "service.rejected": (c.get("service.rejected_total", 0), "count"),
        "service.expired": (c.get("service.deadline_expired_total", 0), "count"),
        "service.cache.hit_frac": (_ratio(c.get("cache.hit_kmers", 0), lookups), "frac"),
        "service.cache.dedup_frac": (_ratio(c.get("cache.dedup_kmers", 0), lookups), "frac"),
        "service.cache.device_frac": (_ratio(c.get("cache.device_kmers", 0), lookups), "frac"),
        "service.cache.evictions": (c.get("cache.evictions", 0), "count"),
        "sieve.query_calls": (cnt("sieve.query"), "count"),
        "sieve.kmers_per_call": (_ratio(units_of("sieve.query"), cnt("sieve.query")), "kmers"),
        "sieve.busy_frac": (tot("sieve.query") / wall_ns, "frac"),
        "sieve.ns_per_kmer": (
            _ratio(tot("sieve.query"), units_of("sieve.query")) * ref, "ns"
        ),
        "sieve.match_all_s_frac": (_ratio(tot("sieve.match_all"), tot("sieve.query")), "frac"),
        "sieve.load_query_batch_s_frac": (
            _ratio(tot("sieve.load_query_batch"), tot("sieve.query")), "frac"
        ),
        "sieve.self_s_frac": (_ratio(own("sieve.query"), tot("sieve.query")), "frac"),
        "sieve.row_activations_per_kmer": (
            _ratio(c.get("sieve.row_activations", 0), c.get("sieve.queries", 0)), "count"
        ),
        "sieve.hit_frac": (_ratio(c.get("sieve.hits", 0), c.get("sieve.queries", 0)), "frac"),
        "sieve.sim_ns_per_kmer": (sim["sim_ns_per_kmer"], "sim_ns"),
        "sieve.sim_nj_per_kmer": (sim["sim_nj_per_kmer"], "sim_nJ"),
        "genomics.lookup_ns_per_kmer": (
            _ratio(tot("genomics.query"), units_of("genomics.query")) * ref, "ns"
        ),
        "genomics.busy_frac": (tot("genomics.query") / wall_ns, "frac"),
        "cluster.query_calls": (cnt("cluster.query"), "count"),
        "cluster.ns_per_kmer": (
            _ratio(tot("cluster.query"), units_of("cluster.query")) * ref, "ns"
        ),
        "cluster.busy_frac": (tot("cluster.query") / wall_ns, "frac"),
        "cluster.worker_kmer_imbalance": (
            _ratio(max(workers), statistics.mean(workers)) if workers else 0.0, "ratio"
        ),
        "mapping.extend_us_per_read": (
            _ratio(tot("mapping.extend"), cnt("mapping.extend")) * ref / 1e3, "us"
        ),
        "mapping.busy_frac": (tot("mapping.extend") / wall_ns, "frac"),
        "mapping.seed_index_frac": (
            _ratio(tot("mapping.candidates"), tot("mapping.extend")), "frac"
        ),
        "mapping.candidates_per_read": (
            _ratio(c.get("mapping.candidates", 0), c.get("mapping.reads", 0)), "count"
        ),
        "mapping.mapped_per_candidate": (
            _ratio(c.get("mapping.mapped", 0), c.get("mapping.candidates", 0)), "frac"
        ),
        "mapping.dp_cells_per_read": (
            _ratio(c.get("mapping.dp_cells", 0), c.get("mapping.reads", 0)), "count"
        ),
        "loop.idle_frac": (tot("loop.idle") / wall_ns, "frac"),
    }
    m["trace.overhead_frac"] = (overhead, "frac")
    m["trace.unattributed_frac"] = (unattributed / wall_ns, "frac")
    layer_self = {"unattributed": unattributed / 1e9}
    for name, row in st.items():
        layer = name.rsplit(".", 1)[0] if not name.startswith("service.") else "service"
        layer_self[layer] = layer_self.get(layer, 0) + row["self_ns"] / 1e9
    return m, layer_self


# -- main -----------------------------------------------------------------------


def setup_group(workload, seed, workdir, keep):
    """Time one group of set-ups, probing host speed before and after
    it; returns each one's stage times at the reference speed, the
    group's scale and, when ``keep``, the last rig built (still open)."""
    from scenarios import Rig
    from speed import probe_s, scale_of

    rows, rig, spent = [], None, 0.0
    probes = [probe_s()]
    while not rows or (
        spent < SETUP_GROUP_S and len(rows) < SETUP_MAX_REPEATS
    ):
        if rig is not None:
            rig.close()
            rig = None
            gc.collect()
        rig = Rig(workload, seed, workdir)
        rows.append(dict(rig.stages))
        spent += rig.setup_s
    probes.append(probe_s())
    scale = scale_of(probes)
    rows = [{k: v * scale for k, v in row.items()} for row in rows]
    if not keep:
        rig.close()
        rig = None
    return rows, scale, rig


def median_setup(rows):
    """The median set-up's total and its stage times (which add up to it)."""
    row = sorted(rows, key=lambda r: sum(r.values()))[len(rows) // 2]
    return sum(row.values()), row


def traced_run(args, rig, samples, fixed, record, problems):
    """Replay the untraced pass's offline samples (and fixed-rate part)
    with every span source installed; returns the per-layer metrics and
    the traced units.  Counter drift, or spans that do not tile the
    measured windows, are appended to ``problems``."""
    from spans import SpanRecorder, TracedPass, accounting_errors

    lag_unit = fixed or samples
    untraced_loadgen = (
        [x for u in lag_unit for x in u.lag_ms],
        sum(u.reads for u in lag_unit),
        [x if x is not None else float("inf") for u in lag_unit for x in u.latency_ms],
    )
    recorder = SpanRecorder()
    with TracedPass(recorder, rig.extender) as traced:
        t_samples, _ = offline_pass(
            rig, args.seed, count=len(samples), recorder=recorder,
            slow_sieve=args.slow_sieve,
        )
        t_units = list(t_samples)
        if fixed:
            t_units += fixed_rate_pass(
                rig, args.seed, args.seconds * FIXED_RATE_SHARE,
                recorder=recorder, slow_sieve=args.slow_sieve,
            )
    untraced_counters = _sum_counters(samples)
    traced_counters = _sum_counters(t_samples)
    if traced_counters != untraced_counters:
        drift = sorted(
            k for k in set(traced_counters) | set(untraced_counters)
            if traced_counters.get(k) != untraced_counters.get(k)
        )
        problems.append(f"counters differ between traced and untraced: {drift}")
    overhead = sum(u.ref_s for u in t_samples) / sum(u.ref_s for u in samples) - 1
    layer, layer_self = per_layer(
        t_units, recorder, traced.observer, untraced_loadgen, overhead
    )
    for error in accounting_errors(recorder.spans, [u.window_ns for u in t_units]):
        problems.append(f"span accounting: {error}")
    record["layer_self_s"] = layer_self
    OUT.mkdir(parents=True, exist_ok=True)
    recorder.write_jsonl(OUT / f"{args.workload}-seed{args.seed}-spans.jsonl")
    return {k: {"value": v, "unit": u} for k, (v, u) in layer.items()}, t_units


def main(argv: Optional[List[str]] = None) -> int:
    args = parse_args(argv)
    if not (SRC / "repro" / "__init__.py").is_file():
        _fail(f"no program sources at {SRC / 'repro'}; run from a full checkout")
    if os.environ.get("SIEVE_SANITIZE"):
        _fail("refusing to time with SIEVE_SANITIZE set (sanitizers change timing)")
    sys.path.insert(0, str(SRC))
    import repro

    if Path(repro.__file__).resolve().parent != (SRC / "repro").resolve():
        _fail(f"imported repro from {repro.__file__}, not from {SRC}")
    from repro.sieve.kernels import default_implementation

    from scenarios import WORKLOADS

    if args.workload not in WORKLOADS:
        _fail(f"unknown workload {args.workload!r}; one of {sorted(WORKLOADS)}")
    workload = WORKLOADS[args.workload]
    record = run_record(args, default_implementation())
    workdir = OUT / f"work-{os.getpid()}"
    problems: List[str] = []
    rig = None
    try:
        setup_rows, scale, rig = setup_group(workload, args.seed, workdir, keep=True)
        setup_scales = [scale]

        def time_setups():
            # Spare set-ups get their own directory: the live rig's
            # backends map the segments under ``workdir``.
            rows, scale, _ = setup_group(
                workload, args.seed, workdir / "spare", keep=False
            )
            setup_rows.extend(rows)
            setup_scales.append(scale)

        samples, peak_mb = offline_pass(
            rig, args.seed, args.seconds, slow_sieve=args.slow_sieve,
            after_cycle=time_setups,
        )
        fixed = []
        if args.trace and workload.fixed_rps:
            fixed = fixed_rate_pass(
                rig, args.seed, args.seconds * FIXED_RATE_SHARE,
                slow_sieve=args.slow_sieve,
            )
        units = samples + fixed
        gaps = [g for u in units for g in u.program_gap_ms]
        record["latency_minus_program_ms_p50"] = percentile(gaps, 50) if gaps else 0.0
        offline_counters = _sum_counters(samples)
        record["sim_clock"] = sim_clock(offline_counters)
        record["latency_samples"] = sum(len(u.latency_ms) for u in samples)
        record["sample_reads_per_s"] = [round(sum(u.ok) / u.wall_s, 1) for u in samples]
        record["unit_scales"] = [round(u.scale, 4) for u in units]
        record["cache_hit_rate"] = _ratio(
            offline_counters.get("cache.hit_kmers", 0),
            offline_counters.get("cache.lookup_kmers", 0),
        )
        record["sieve_kmer_hit_rate"] = _ratio(
            offline_counters.get("sieve.hits", 0), offline_counters.get("sieve.queries", 0)
        )
        if args.trace:
            metrics, traced_units = traced_run(
                args, rig, samples, fixed, record, problems
            )
            units += traced_units
        rig.close()
        rig = None
        time_setups()
        setup_s, stages = median_setup(setup_rows)
        record["setup_totals_s"] = [sum(r.values()) for r in setup_rows]
        record["setup_scales"] = setup_scales
        e2e, lat = end_to_end(workload, setup_s, samples, peak_mb)
        wall_e2e, _ = end_to_end(workload, setup_s, samples, peak_mb, scaled=False)
        # Raw wall-clock figures; set-up is only kept at reference speed.
        record["wall_clock"] = {k: v for k, (v, _) in wall_e2e.items() if k != "setup_s"}
        record["latency_window_p99_ms"] = window_p99s(lat)
        if args.trace:
            for stage, value in stages.items():
                metrics[f"setup.{stage}_s"] = {"value": value, "unit": "s"}
        else:
            metrics = {k: {"value": v, "unit": u} for k, (v, u) in e2e.items()}
    finally:
        if rig is not None:
            rig.close()
        shutil.rmtree(workdir, ignore_errors=True)
    attempted = sum(u.reads for u in units)
    failed = sum(u.failed + u.wrong for u in units)
    if failed:
        problems.append(f"{failed} of {attempted} requests failed or were wrong")
    correct = not problems
    record["problems"] = problems
    record["end_to_end"] = {k: v for k, (v, _) in e2e.items()}
    OUT.mkdir(parents=True, exist_ok=True)
    (OUT / f"{args.workload}-seed{args.seed}-trace{args.trace}.json").write_text(
        json.dumps(record, indent=2, sort_keys=True) + "\n", encoding="utf-8"
    )
    print("perfbench record: " + json.dumps(record, sort_keys=True))
    for problem in problems:
        print(f"perfbench: {problem}", file=sys.stderr)
    print(
        json.dumps(
            {
                "correct": correct,
                "attempted": attempted,
                "failed": failed,
                "metrics": metrics,
            }
        )
    )
    return 0 if correct else 1


if __name__ == "__main__":
    sys.exit(main())
