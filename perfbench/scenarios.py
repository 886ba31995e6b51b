"""The benchmark's three workloads: set-up, seeded inputs, serving, checks.

Every workload drives :class:`repro.service.ClassificationService` on
one event loop in this process with ``executor_threads=0``; only
``map_cluster`` adds processes (two cluster workers).  Inputs are pure
functions of ``--seed``: the reference (``build_dataset``) and every
sample or arrival schedule draw from ``SeedSequence([seed, stream])``.
"""

from __future__ import annotations

import asyncio
import gc
import shutil
import time
from dataclasses import dataclass, field, replace
from pathlib import Path
from typing import Any, Dict, List, Optional, Tuple

import numpy as np

from repro import serialization
from repro.api import classification_from_results
from repro.cluster import ClusterBackend
from repro.genomics import KmerDatabase, build_dataset
from repro.mapping import MappingConfig, ReadMapper, SeedExtender, SeedIndex
from repro.service import ClassificationService, ServiceConfig, ServiceError
from repro.service.config import ClusterConfig
from repro.sieve import SieveDevice, SubarrayLayout
from repro.workloads import generate_trace

from spans import BACKEND_LAYER, IdleSelector, LayerProxy, SpanRecorder
from speed import probe_s, scale_of

#: Reference shape shared by all workloads: k=13, 12 genomes of 2.5 kb,
#: about 30k distinct k-mer records.
DATASET = dict(
    k=13, num_species=12, genome_length=2_500, num_reads=1,
    read_length=70, error_rate=0.005,
)
READS = dict(read_length=70, error_rate=0.005)
#: Many small subarrays (the layout the legacy bench scenarios use), so
#: index routing and per-subarray batching are exercised.
DEVICE_LAYOUT = dict(row_bits=1152, rows_per_subarray=256, layers=3)
#: No served unit takes near this long; reaching it means a hang.
SERVE_TIMEOUT_S = 60.0
SETUP_STAGES = ("dataset", "segments", "backends", "cluster_spawn", "seed_index")


@dataclass(frozen=True)
class Workload:
    name: str
    backend: str  # "device" | "host" | "cluster"
    config: ServiceConfig
    #: Reads per offline sample (one fresh service serves each sample).
    sample_reads: int
    #: ``generate_trace`` traffic shape (arrival stamps are not used).
    traffic: Dict[str, float]
    #: Latency limit for ``slo_met_frac``.
    limit_ms: float
    mapping: bool = False
    #: Open loop of traced runs: fixed Poisson rate.
    fixed_rps: float = 0.0


WORKLOADS = {
    w.name: w
    for w in (
        # Sieve does almost all the work; the only simulated clock.
        Workload(
            name="classify_device_skewed",
            backend="device",
            config=ServiceConfig(
                num_shards=2, max_batch_kmers=512, max_linger_s=0.0,
                queue_depth=300, dedup=True, cache_capacity=2048,
            ),
            sample_reads=300,
            traffic=dict(zipf_s=1.4, novel_fraction=0.5, burst_mean=8.0),
            limit_ms=2_500.0,
        ),
        # Cheap backend: service, cache planning and k-mer extraction
        # set the latency; low sharing makes the cache pure cost.
        Workload(
            name="classify_host_open",
            backend="host",
            config=ServiceConfig(
                num_shards=2, max_batch_kmers=512, max_linger_s=0.002,
                queue_depth=4096, dedup=True, cache_capacity=4096,
            ),
            sample_reads=1000,
            traffic=dict(zipf_s=0.0, novel_fraction=0.25, burst_mean=1.0),
            limit_ms=1_500.0,
            fixed_rps=400.0,
        ),
        # The only workload with cluster fan-out/RPC/merge and mapping.
        Workload(
            name="map_cluster",
            backend="cluster",
            config=ServiceConfig(
                num_shards=1, max_batch_kmers=512, max_linger_s=0.0,
                queue_depth=400,
            ),
            sample_reads=400,
            traffic=dict(zipf_s=0.8, novel_fraction=0.1, burst_mean=4.0),
            limit_ms=1_500.0,
            mapping=True,
        ),
    )
}


def stream_seed(seed: int, stream: int) -> int:
    """Independent seed for one input stream of a run."""
    return int(np.random.SeedSequence([seed, stream]).generate_state(1)[0])


class Rig:
    """What set-up builds: reference, backends, extender, cluster."""

    def __init__(self, workload: Workload, seed: int, workdir: Path) -> None:
        self.workload = workload
        self.stages = dict.fromkeys(SETUP_STAGES, 0.0)
        self.cluster: Optional[ClusterBackend] = None
        self.extender: Optional[SeedExtender] = None
        self.segdir: Optional[Path] = None
        self._mapper: Optional[ReadMapper] = None
        self._reference: Dict[str, Any] = {}
        self._kept: Dict[Any, List[Any]] = {}
        try:
            self._build(seed, workdir)
        except BaseException:
            self.close()
            raise

    def _stage(self, name: str, start: float) -> None:
        self.stages[name] = time.perf_counter() - start

    def _build(self, seed: int, workdir: Path) -> None:
        w = self.workload
        t = time.perf_counter()
        self.dataset = build_dataset(seed=stream_seed(seed, 0), **DATASET)
        self._stage("dataset", t)
        if w.backend in ("host", "cluster"):
            t = time.perf_counter()
            workdir.mkdir(parents=True, exist_ok=True)
            self.segdir = workdir / "segments"
            serialization.save_segments(self.dataset.database, self.segdir)
            self._stage("segments", t)
        t = time.perf_counter()
        n = w.config.num_shards
        if w.backend == "device":
            layout = SubarrayLayout(k=self.dataset.k, **DEVICE_LAYOUT)
            self.backends = [
                SieveDevice.from_database(self.dataset.database, layout=layout)
                for _ in range(n)
            ]
            self._stage("backends", t)
        elif w.backend == "host":
            self.backends = [KmerDatabase.open_mmap(self.segdir) for _ in range(n)]
            self._stage("backends", t)
        else:
            self.cluster = ClusterBackend(str(self.segdir), ClusterConfig(workers=2))
            self.backends = [self.cluster]
            self._stage("cluster_spawn", t)
        if w.mapping:
            t = time.perf_counter()
            index = SeedIndex.from_genomes(self.dataset.genomes, self.dataset.k)
            self._stage("seed_index", t)
            config = MappingConfig(band=3, max_edits=3)
            self.extender = SeedExtender(index, self.dataset.genomes, config)
            self._mapper = ReadMapper(
                self.dataset.database,
                SeedExtender(index, self.dataset.genomes, config),
            )

    @property
    def setup_s(self) -> float:
        return sum(self.stages.values())

    def worker_pids(self) -> List[int]:
        if self.cluster is None:
            return []
        rows = self.cluster.cluster_stats()["workers"]
        return [row["pid"] for row in rows if "pid" in row]

    def close(self) -> None:
        if self.cluster is not None:
            self.cluster.close()
        if self.segdir is not None:
            shutil.rmtree(self.segdir, ignore_errors=True)

    # -- inputs ------------------------------------------------------------

    def reads(self, seed: int, stream: int, n: int, keep: bool = False) -> List[Any]:
        """Seeded reads of one input stream; ``keep`` caches them (and,
        through :meth:`check`, their reference answers) for reuse."""
        key = (seed, stream, n)
        reads = self._kept.get(key)
        if reads is None:
            reads = generate_trace(
                self.dataset, n, seed=stream_seed(seed, stream),
                label=f"{self.workload.name}-{stream}",
                **READS, **self.workload.traffic,
            ).reads()
            if keep:
                self._kept[key] = reads
        return reads

    # -- counters ------------------------------------------------------------

    def counters(self) -> Dict[str, float]:
        """Cumulative program counters of the rig's long-lived objects."""
        out: Dict[str, float] = {}
        for b in self.backends:
            if isinstance(b, SieveDevice):
                for key in ("queries", "hits", "row_activations", "write_commands"):
                    out["sieve." + key] = out.get("sieve." + key, 0) + getattr(b.stats, key)
        if self.extender is not None:
            for key, value in self.extender.stats.as_dict().items():
                out["mapping." + key] = value
        if self.cluster is not None:
            rows = self.cluster.cluster_stats()["workers"]
            for row in rows:
                out[f"cluster.worker{row['worker']}.queries"] = row.get("queries", 0)
        return out

    # -- reference answers ---------------------------------------------------

    def reference(self, read, keep: bool) -> Any:
        """Scalar host answer for ``read``: its classification from
        ``KmerDatabase.query(batched=False)`` and, for mapping rigs, the
        payload :class:`ReadMapper` over the host database produces."""
        cached = self._reference.get(read.seq_id)
        if cached is None:
            db = self.dataset.database
            classification = classification_from_results(
                read.seq_id,
                db.query(read.kmer_list(db.k), batched=False),
                true_taxon=read.taxon_id,
            )
            mapping = None
            if self._mapper is not None:
                mapping = self._mapper.map_read(read).to_payload()
            cached = (classification, mapping)
            if keep:
                self._reference[read.seq_id] = cached
        return cached

    def check(self, reads, responses) -> List[bool]:
        """Per request: answered and equal to the scalar host reference."""
        keep = any(reads is kept for kept in self._kept.values())
        ok = []
        for read, resp in zip(reads, responses):
            if resp is None:
                ok.append(False)
                continue
            classification, mapping = self.reference(read, keep)
            same = resp.classification == classification
            if mapping is not None:
                same = same and resp.mapping is not None and (
                    resp.mapping.to_payload() == mapping
                )
            ok.append(same)
        return ok


@dataclass
class Served:
    """One served unit: an offline sample or an open-loop phase."""

    wall_s: float
    #: ``perf_counter_ns`` interval the unit was measured over.
    window_ns: Tuple[int, int]
    reads: int
    kmers: int
    #: Per request: from its due time to when the benchmark saw its
    #: response resolve (None when it failed).
    latency_ms: List[Optional[float]]
    #: Per answered request: the benchmark's latency minus the
    #: program's own (send lag plus ``ServiceResponse.wall_ms``).
    program_gap_ms: List[float]
    lag_ms: List[float]
    #: Per request: answered and equal to the reference.
    ok: List[bool] = field(default_factory=list)
    #: Rejected at admission, expired or raised.
    failed: int = 0
    wrong: int = 0
    counters: Dict[str, float] = field(default_factory=dict)
    #: Host-speed factor from the probes just before and after the
    #: window (``speed.scale_of``): host time x scale = reference time.
    scale: float = 1.0

    @property
    def ref_s(self) -> float:
        """Serving time at the reference host speed."""
        return self.wall_s * self.scale

    def within(self, limit_ms: float) -> int:
        """Requests answered correctly within ``limit_ms`` of their due time."""
        return sum(
            1 for x, good in zip(self.latency_ms, self.ok)
            if good and x is not None and x <= limit_ms
        )


def _service_counters(service: ClassificationService) -> Dict[str, float]:
    stats = service.stats()
    out = {"service." + k: v for k, v in stats["metrics"]["counters"].items()}
    for key in ("lookup_kmers", "hit_kmers", "dedup_kmers", "device_kmers",
                "insertions", "evictions"):
        out["cache." + key] = stats.get("cache", {}).get(key, 0)
    out["clocks.sim_time_ns"] = stats["clocks"]["sim_time_ns"]
    out["clocks.sim_energy_nj"] = stats["clocks"]["sim_energy_nj"]
    return out


def serve(
    rig: Rig,
    reads: List[Any],
    offsets: Optional[np.ndarray] = None,
    recorder: Optional[SpanRecorder] = None,
    slow_sieve: float = 1.0,
) -> Served:
    """Serve ``reads`` through a fresh service over the rig's backends.

    ``offsets is None``: offline — the whole sample is enqueued at its
    due time t0, then the service starts (zero-linger batches are then
    a pure function of the sample).  Otherwise open loop — request i is
    sent at ``t0 + offsets[i]`` from this loop whatever the backlog, and
    its latency counts from that due time.  A request's latency ends
    when its future's done callback runs on this loop, which is when a
    caller awaiting it would resume.
    """
    backends = rig.backends
    if recorder is not None or slow_sieve != 1.0:
        backends = [
            LayerProxy(
                b, recorder,
                slow_sieve if BACKEND_LAYER[b.capabilities().kind] == "sieve" else 1.0,
            )
            for b in backends
        ]
    config = rig.workload.config
    if offsets is None:
        # A pre-enqueued sample never leaves the queue dry, so lingering
        # buys nothing; zero linger also makes batch composition (and
        # every counter) a pure function of the sample.
        config = replace(config, max_linger_s=0.0)
    service = ClassificationService(backends, config, extender=rig.extender)
    submit = service.submit_mapping if rig.extender is not None else service.submit
    before = rig.counters()
    n = len(reads)
    futures: List[Optional[asyncio.Future]] = [None] * n
    lag = [0.0] * n
    due_at = [0.0] * n
    done_at = [0.0] * n
    failed = 0

    def send(i: int, due: float, now: float) -> None:
        nonlocal failed
        lag[i] = now - due
        due_at[i] = due
        index = recorder.begin("service.submit", i) if recorder else None
        try:
            futures[i] = submit(reads[i])
        except ServiceError:
            failed += 1
        finally:
            if recorder:
                recorder.end(index, 1)
        if futures[i] is not None:
            futures[i].add_done_callback(
                lambda _, i=i: done_at.__setitem__(i, loop.time())
            )

    async def run():
        if offsets is None:
            if recorder:
                recorder.active = True
            start_ns = time.perf_counter_ns()
            t0 = loop.time()
            for i in range(n):
                send(i, t0, loop.time())
            await service.start()
        else:
            await service.start()
            if recorder:
                recorder.active = True
            start_ns = time.perf_counter_ns()
            t0 = loop.time()
            for i in range(n):
                due = t0 + float(offsets[i])
                delay = due - loop.time()
                if delay > 0:
                    await asyncio.sleep(delay)
                tick = recorder.begin("workloads.loadgen", i) if recorder else None
                send(i, due, loop.time())
                if recorder:
                    recorder.end(tick, 1)
        # A dead shard task would leave futures pending forever.
        results = await asyncio.wait_for(
            asyncio.gather(
                *(f for f in futures if f is not None), return_exceptions=True
            ),
            SERVE_TIMEOUT_S,
        )
        end_ns = time.perf_counter_ns()
        if recorder:
            recorder.active = False
        await service.stop()
        return results, (start_ns, end_ns)

    # Collect and freeze the heap first: a full collection scanning the
    # benchmark's own inputs would otherwise land in some windows and
    # not others, and set the latency tail by itself.
    gc.collect()
    gc.freeze()
    selector = IdleSelector()
    selector.recorder = recorder
    loop = asyncio.SelectorEventLoop(selector)
    probes = [probe_s()]
    try:
        results, window_ns = loop.run_until_complete(run())
    finally:
        probes.append(probe_s())
        loop.close()
        gc.unfreeze()
    if recorder is not None and recorder.open_spans():
        raise RuntimeError(f"spans left open: {recorder.open_spans()}")

    responses: List[Any] = [None] * n
    latency: List[Optional[float]] = [None] * n
    gap: List[float] = []
    it = iter(results)
    for i, fut in enumerate(futures):
        if fut is None:
            continue
        res = next(it)
        if isinstance(res, BaseException):
            failed += 1
            continue
        responses[i] = res
        latency[i] = (done_at[i] - due_at[i]) * 1e3
        gap.append(latency[i] - (lag[i] * 1e3 + res.wall_ms))
    served = Served(
        wall_s=(window_ns[1] - window_ns[0]) * 1e-9,
        window_ns=window_ns,
        reads=n,
        kmers=sum(r.kmer_count(rig.dataset.k) for r in reads),
        latency_ms=latency,
        program_gap_ms=gap,
        lag_ms=[x * 1e3 for x in lag],
        failed=failed,
        scale=scale_of(probes),
    )
    served.ok = rig.check(reads, responses)
    served.wrong = sum(
        1 for r, good in zip(responses, served.ok) if r is not None and not good
    )
    after = rig.counters()
    served.counters = {k: after[k] - before.get(k, 0) for k in after}
    served.counters.update(_service_counters(service))
    return served


def poisson_offsets(seed: int, stream: int, rate: float, n: int) -> np.ndarray:
    """Send offsets (s) of ``n`` Poisson arrivals at ``rate`` per second."""
    gaps = np.random.default_rng(stream_seed(seed, stream)).exponential(1.0 / rate, n)
    return np.concatenate(([0.0], np.cumsum(gaps[:-1])))
