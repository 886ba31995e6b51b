"""Property test: the batched query engine is bit-identical to the
scalar command-by-command path.

``SieveSubarraySim.match_all`` computes outcomes analytically (one
vectorized pass over the layer's Region-1 bit matrix) instead of
replaying every row activation, so its correctness rests entirely on
equivalence with the scalar reference.  These tests drive randomized —
but seeded, hence deterministic — layouts, reference databases, and
query batches through both paths and require *everything* observable to
agree:

* the full ``MatchOutcome`` dataclass per slot (hit, payload, column,
  ``rows_activated`` under the one-row-late ETM interrupt, flush
  cycles, early-termination flag, the CF result),
* the subarray's ``SubarrayStats`` (activations, precharges, reads,
  writes),
* the post-batch microarchitectural state: matcher latches and compare
  count, ETM cycle count, segment-OR, BSR, and SR chain — so a batched
  match can be followed by scalar commands and vice versa.

The suite-wide DRAM protocol sanitizer (see ``conftest.py``) is active
throughout, so the batched path's accounting is also sanitizer-checked.
"""

from __future__ import annotations

import numpy as np
import pytest

from repro.sieve.functional import SieveSubarraySim
from repro.sieve.layout import LayoutError, SubarrayLayout

TRIAL_SEEDS = list(range(12))


def _random_kmer(rng: np.random.Generator, space: int) -> int:
    """Uniform draw from ``range(space)``, including spaces wider than
    numpy's int64 (k > 31), assembled from 32-bit limbs."""
    if space <= 1 << 62:
        return int(rng.integers(0, space))
    value = 0
    for _ in range(-(-(space.bit_length() - 1) // 32)):
        value = (value << 32) | int(rng.integers(0, 1 << 32))
    return value % space


def random_trial(rng: np.random.Generator, k_range=(3, 8)):
    """One random (layout, records, queries, etm, layer) configuration.

    ``k`` is drawn from ``range(*k_range)``.  Returns None when the
    sampled geometry does not fit a subarray — the caller resamples
    rather than constraining the space up front.
    """
    k = int(rng.integers(*k_range))
    refs_per_group = int(rng.integers(4, 14))
    queries_per_group = int(rng.integers(1, 5))
    num_groups = int(rng.integers(1, 4))
    layers = int(rng.integers(1, 3))
    row_bits = (refs_per_group + queries_per_group) * num_groups
    if row_bits < 32:  # Region 2/3 need a 32-bit offset/payload per row
        return None
    try:
        layout = SubarrayLayout(
            k=k,
            row_bits=row_bits,
            rows_per_subarray=240,
            refs_per_group=refs_per_group,
            queries_per_group=queries_per_group,
            layers=layers,
        )
    except LayoutError:
        return None

    space = 1 << (2 * k)
    capacity = min(layout.refs_per_subarray, space)
    num_records = int(rng.integers(1, capacity + 1))
    if space <= 1 << 62:
        kmers = [int(kmer) for kmer in rng.choice(space, num_records, replace=False)]
    else:
        wide = set()
        while len(wide) < num_records:
            wide.add(_random_kmer(rng, space))
        kmers = sorted(wide)
    records = [
        (kmer, int(rng.integers(0, 2**16))) for kmer in sorted(kmers)
    ]

    batch_size = int(rng.integers(1, layout.queries_per_group + 1))
    queries = []
    for _ in range(batch_size):
        if records and rng.random() < 0.5:
            queries.append(records[int(rng.integers(0, len(records)))][0])
        else:
            queries.append(_random_kmer(rng, space))
    etm_enabled = bool(rng.random() < 0.8)
    return layout, records, queries, etm_enabled


def run_both(layout, records, queries, etm_enabled):
    """Load the same batch into two identical sims; match both ways."""
    scalar = SieveSubarraySim(layout, records, etm_enabled=etm_enabled)
    batched = SieveSubarraySim(layout, records, etm_enabled=etm_enabled)
    layer = scalar.route_layer(queries[0])
    scalar.load_query_batch(queries, layer)
    batched.load_query_batch(queries, layer)
    scalar_outcomes = [scalar.match_slot(slot) for slot in range(len(queries))]
    batched_outcomes = batched.match_all().outcomes()
    return scalar, batched, scalar_outcomes, batched_outcomes


def assert_equivalent(scalar, batched, scalar_outcomes, batched_outcomes):
    assert batched_outcomes == scalar_outcomes
    assert batched.array.stats == scalar.array.stats
    assert batched.matchers.compare_count == scalar.matchers.compare_count
    assert np.array_equal(batched.matchers.latches, scalar.matchers.latches)
    assert batched.etm.cycles == scalar.etm.cycles
    assert np.array_equal(batched.etm.bsr, scalar.etm.bsr)
    assert np.array_equal(batched.etm._segment_or, scalar.etm._segment_or)
    assert np.array_equal(batched.etm._sr, scalar.etm._sr)


@pytest.mark.parametrize("seed", TRIAL_SEEDS)
def test_random_batches_bit_identical(seed):
    rng = np.random.default_rng(1_000 + seed)
    trial = None
    while trial is None:
        trial = random_trial(rng)
    layout, records, queries, etm_enabled = trial
    scalar, batched, s_out, b_out = run_both(
        layout, records, queries, etm_enabled
    )
    assert_equivalent(scalar, batched, s_out, b_out)


@pytest.mark.parametrize("etm_enabled", [True, False])
def test_hit_miss_mix_exhaustive_small_layout(small_layout, etm_enabled):
    """Deterministic corner mix on the shared fixture layout: exact hit,
    first-row divergence, last-row divergence, and a near-miss that
    shares all but the final bit with a reference."""
    space = 1 << (2 * small_layout.k)
    records = [(key, 100 + key % 7) for key in range(17, space, 9871)][
        : small_layout.refs_per_subarray
    ]
    near_miss = records[0][0] ^ 1  # flips the last (LSB) k-mer bit
    first_row_miss = records[0][0] ^ (space >> 1)
    queries = [records[0][0], near_miss, first_row_miss, records[-1][0]][
        : small_layout.queries_per_group
    ]
    scalar, batched, s_out, b_out = run_both(
        small_layout, records, queries, etm_enabled
    )
    assert_equivalent(scalar, batched, s_out, b_out)
    assert s_out[0].hit and s_out[0].payload == records[0][1]
    assert not s_out[1].hit


def test_batch_then_scalar_interleaving(small_layout):
    """State restored by the batched path supports continued scalar use:
    match a batch vectorized, then rematch slot 0 scalar on the same sim
    and compare against an all-scalar twin."""
    space = 1 << (2 * small_layout.k)
    records = [(key, key % 11) for key in range(3, space, 7001)][
        : small_layout.refs_per_subarray
    ]
    queries = [records[1][0], records[2][0] ^ 5][
        : small_layout.queries_per_group
    ]
    mixed = SieveSubarraySim(small_layout, records)
    twin = SieveSubarraySim(small_layout, records)
    mixed.load_query_batch(queries, 0)
    twin.load_query_batch(queries, 0)
    mixed.match_all()
    [twin.match_slot(slot) for slot in range(len(queries))]
    assert mixed.match_slot(0) == twin.match_slot(0)
    assert mixed.array.stats == twin.array.stats


def test_match_all_slot_subset(small_layout):
    """``match_all(slots=...)`` matches only the requested slots, in
    the requested order, identical to the scalar slots."""
    space = 1 << (2 * small_layout.k)
    records = [(key, key % 5) for key in range(1, space, 12345)][
        : small_layout.refs_per_subarray
    ]
    queries = [records[0][0], records[0][0] ^ 3][
        : small_layout.queries_per_group
    ]
    reference = SieveSubarraySim(small_layout, records)
    subset = SieveSubarraySim(small_layout, records)
    reference.load_query_batch(queries, 0)
    subset.load_query_batch(queries, 0)
    want = reference.match_slot(len(queries) - 1)
    got = subset.match_all(slots=[len(queries) - 1]).outcomes()
    assert got == [want]


def test_device_level_batched_equals_scalar(small_layout, small_dataset):
    """Whole-device equivalence: ``query`` batched vs scalar on
    the shared synthetic dataset — responses and DeviceStats."""
    from repro.sieve import SieveDevice

    queries = sorted(
        {
            kmer
            for read in small_dataset.reads
            for kmer in read.kmers(small_dataset.k)
        }
    )
    fast = SieveDevice.from_database(small_dataset.database, layout=small_layout)
    slow = SieveDevice.from_database(small_dataset.database, layout=small_layout)
    fast_responses = fast.query(queries, batched=True)
    slow_responses = slow.query(queries, batched=False)
    assert fast_responses == slow_responses
    assert fast.stats == slow.stats
    for sid in fast.subarrays:
        assert fast.subarrays[sid].array.stats == slow.subarrays[sid].array.stats


def _subarray_state(sim):
    """Everything a device call leaves behind in one subarray."""
    return (
        sim.array.stats,
        sim.array.peek_rows(0, sim.array.rows).tobytes(),
        sim.matchers.latches.tobytes(),
        sim.matchers.compare_count,
        sim.etm.cycles,
        sim.etm.bsr.tobytes(),
        sim.etm._segment_or.tobytes(),
        sim.etm._sr.tobytes(),
        sim.batch_loads,
        sim.write_commands,
    )


def _reference_query(device, kmers):
    """``SieveDevice.query`` spelled out with the scalar path: route
    through the host index, then the subarray's layer table; group per
    (subarray, layer) in first-appearance order; batches of up to
    ``queries_per_group``; one ``match_slot`` and one histogram count
    per k-mer, in order."""
    from repro.api import BackendResult

    stats = device.stats
    responses = [None] * len(kmers)
    groups = {}
    for pos, kmer in enumerate(kmers):
        sid = device.index.route(kmer)
        if sid is None:
            stats.queries += 1
            stats.index_filtered += 1
            stats.rows_histogram[0] += 1
            responses[pos] = BackendResult(kmer, False, None, None, 0, 0)
        else:
            layer = device.subarrays[sid].route_layer(kmer)
            groups.setdefault((sid, layer), []).append(pos)
    size = device.layout.queries_per_group
    for (sid, layer), positions in groups.items():
        sim = device.subarrays[sid]
        for start in range(0, len(positions), size):
            batch = positions[start : start + size]
            stats.write_commands += sim.load_query_batch(
                [kmers[pos] for pos in batch], layer
            )
            stats.batches += 1
            for slot, pos in enumerate(batch):
                out = sim.match_slot(slot)
                stats.queries += 1
                stats.hits += out.hit
                stats.row_activations += out.rows_activated
                stats.rows_histogram[out.rows_activated] += 1
                responses[pos] = BackendResult(
                    out.query, out.hit, out.payload, sid,
                    out.rows_activated, out.etm_flush_cycles,
                )
    return responses


def test_device_batched_equals_scalar_under_faults():
    """Device-level identity under load-time bit flips, over several
    calls on a 64-query-slot layout: one destination gets more than 64
    k-mers, one call spans two layers of one subarray (the later layer
    first), one mixes reads with index-filtered k-mers.  ``query``
    batched, ``query`` scalar and a spelled-out reference dispatch
    must agree on the responses, DeviceStats (histogram order
    included), every subarray's counters, pipeline state and stored
    cells, and the injector's stats and fault schedule."""
    from repro.faults import FaultInjector, FaultModel, fault_injection
    from repro.genomics import build_dataset
    from repro.sieve import SieveDevice

    k = 9
    dataset = build_dataset(
        k=k, num_species=4, genome_length=1200, num_reads=12,
        read_length=60, error_rate=0.02, seed=31,
    )
    layout = SubarrayLayout(k=k, row_bits=1152, rows_per_subarray=256, layers=3)
    records = dataset.database.sorted_records()
    per_layer = layout.refs_per_layer
    assert len(records) > layout.refs_per_subarray  # two subarrays
    assert not dataset.database.canonical
    rng = np.random.default_rng(5)
    layer0 = [kmer for kmer, _ in records[:per_layer]]
    layer1 = [kmer for kmer, _ in records[per_layer : 2 * per_layer]]
    space = 4**k
    calls = [
        # > 64 k-mers to subarray 0, layer 0 (two batches), with
        # in-range misses mixed in.
        [layer0[i] for i in rng.integers(0, per_layer, 90)]
        + [layer0[i] + 1 for i in rng.integers(0, per_layer, 20)],
        # Two layers of subarray 0, interleaved, layer 1 first.
        [kmer for pair in zip(layer1[::40], layer0[::40]) for kmer in pair],
        # Reads plus k-mers the host index filters.
        [kmer for read in dataset.reads[:4] for kmer in read.kmers(k)]
        + [space - 1, 0],
    ]
    assert records[0][0] > 0 and records[-1][0] < space - 1

    def run(query):
        injector = FaultInjector(FaultModel(bit_flip_rate=2e-3, seed=77))
        with fault_injection(injector):
            device = SieveDevice.from_database(dataset.database, layout=layout)
            responses = [query(device, call) for call in calls]
        state = {
            sid: _subarray_state(sim) for sid, sim in device.subarrays.items()
        }
        return (
            responses,
            device.stats,
            list(device.stats.rows_histogram.items()),
            state,
            injector.stats,
            injector.schedule_digest(),
        )

    fast = run(lambda device, kmers: device.query(kmers, batched=True))
    slow = run(lambda device, kmers: device.query(kmers, batched=False))
    reference = run(_reference_query)
    stats, injector_stats = reference[1], reference[4]
    assert injector_stats.bits_flipped > 0
    assert stats.index_filtered >= 2
    assert 0 < stats.hits < stats.queries
    assert fast == reference
    assert slow == reference
