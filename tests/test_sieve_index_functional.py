"""Tests for the subarray index and the bit-accurate functional simulator."""

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from repro.dram import Subarray
from repro.faults import FaultInjector, FaultModel, StuckCell, fault_injection
from repro.sieve import (
    INDEX_ENTRY_BYTES,
    FunctionalError,
    IndexEntry,
    LayoutError,
    SieveSubarraySim,
    SubarrayIndex,
    SubarrayLayout,
)
from repro.sieve.functional import _int_to_bits
from repro.sieve.index import IndexError_
from repro.sieve.layout import OFFSET_BITS, PAYLOAD_BITS


class TestSubarrayIndex:
    def test_build_and_route(self):
        kmers = list(range(0, 100, 3))
        index, chunks = SubarrayIndex.build(kmers, refs_per_subarray=10)
        assert len(index) == len(chunks) == 4
        for sid, chunk in enumerate(chunks):
            for kmer in chunk:
                assert index.route(kmer) == sid

    def test_route_gap_is_none(self):
        index, _ = SubarrayIndex.build([10, 20, 30, 40], refs_per_subarray=2)
        # 25 falls inside subarray 1's range [30, 40]? No: ranges are
        # [10,20] and [30,40]; 25 is a guaranteed miss.
        assert index.route(25) is None
        assert index.route(5) is None
        assert index.route(45) is None

    def test_route_inside_range_but_absent(self):
        """Values inside a range but not stored still route (the device
        must check them)."""
        index, _ = SubarrayIndex.build([10, 20, 30, 40], refs_per_subarray=2)
        assert index.route(15) == 0
        assert index.route(35) == 1

    def test_boundaries_inclusive(self):
        index, _ = SubarrayIndex.build([10, 20, 30, 40], refs_per_subarray=2)
        assert index.route(10) == 0
        assert index.route(20) == 0
        assert index.route(30) == 1
        assert index.route(40) == 1

    def test_unsorted_rejected(self):
        with pytest.raises(IndexError_):
            SubarrayIndex.build([3, 1, 2], refs_per_subarray=2)

    def test_duplicates_rejected(self):
        with pytest.raises(IndexError_):
            SubarrayIndex.build([1, 1, 2], refs_per_subarray=2)

    def test_overlapping_entries_rejected(self):
        with pytest.raises(IndexError_):
            SubarrayIndex([IndexEntry(0, 0, 10), IndexEntry(1, 5, 20)])

    def test_entry_validation(self):
        with pytest.raises(IndexError_):
            IndexEntry(0, 10, 5)

    def test_size_scales_linearly_with_capacity(self):
        """Section IV-D: table size is linear in capacity, not in k."""
        index, _ = SubarrayIndex.build(list(range(0, 7168 * 4, 2)), 7168)
        assert index.size_bytes() == 2 * INDEX_ENTRY_BYTES

    def test_naive_index_explodes_with_k(self):
        """Section IV-D: the rejected direct table grows exponentially
        with k; the range index does not depend on k at all."""
        assert SubarrayIndex.naive_index_bytes(16) > 2**34  # > 16 GB
        assert (
            SubarrayIndex.naive_index_bytes(31)
            / SubarrayIndex.naive_index_bytes(16)
            == 4 ** 15
        )
        index, _ = SubarrayIndex.build(list(range(0, 1000, 2)), 100)
        assert index.size_bytes() < 1024  # independent of k
        with pytest.raises(IndexError_):
            SubarrayIndex.naive_index_bytes(0)

    def test_paper_size_claim_at_32gb(self):
        """A subarray-granular index for a 32 GB device stays small."""
        subarrays = 16 * 8 * 128  # SIEVE_32GB
        assert subarrays * INDEX_ENTRY_BYTES < 2 * 2**20  # < 2 MB

    @given(st.sets(st.integers(0, 10_000), min_size=2, max_size=300))
    def test_route_property(self, kmers):
        sorted_kmers = sorted(kmers)
        index, chunks = SubarrayIndex.build(sorted_kmers, refs_per_subarray=16)
        membership = {}
        for sid, chunk in enumerate(chunks):
            for kmer in chunk:
                membership[kmer] = sid
        for kmer in sorted_kmers:
            assert index.route(kmer) == membership[kmer]


class TestFunctionalSim:
    def test_every_stored_kmer_hits(self, small_layout, sorted_records):
        records = sorted_records[: small_layout.refs_per_subarray]
        sim = SieveSubarraySim(small_layout, records)
        for kmer, payload in records:
            outcome = sim.match_query(kmer)
            assert outcome.hit
            assert outcome.payload == payload

    def test_absent_kmers_miss(self, small_layout, sorted_records, rng):
        records = sorted_records[: small_layout.refs_per_subarray]
        stored = {k for k, _ in records}
        sim = SieveSubarraySim(small_layout, records)
        misses = 0
        while misses < 20:
            q = int(rng.integers(0, 4**small_layout.k))
            if q in stored:
                continue
            outcome = sim.match_query(q)
            assert not outcome.hit
            assert outcome.payload is None
            misses += 1

    def test_hit_activates_all_rows_plus_payload(self, small_layout, sorted_records):
        records = sorted_records[: small_layout.refs_per_subarray]
        sim = SieveSubarraySim(small_layout, records)
        outcome = sim.match_query(records[0][0])
        assert outcome.rows_activated == small_layout.kmer_rows + 2

    def test_etm_terminates_misses_early(self, small_layout, sorted_records, rng):
        records = sorted_records[: small_layout.refs_per_subarray]
        stored = {k for k, _ in records}
        sim = SieveSubarraySim(small_layout, records)
        early = 0
        for _ in range(30):
            q = int(rng.integers(0, 4**small_layout.k))
            if q in stored:
                continue
            outcome = sim.match_query(q)
            if outcome.etm_terminated_early:
                early += 1
                assert outcome.rows_activated < small_layout.kmer_rows
        assert early > 0  # random misses overwhelmingly terminate early

    def test_etm_disabled_scans_everything(self, small_layout, sorted_records, rng):
        records = sorted_records[: small_layout.refs_per_subarray]
        stored = {k for k, _ in records}
        sim = SieveSubarraySim(small_layout, records, etm_enabled=False)
        q = next(
            int(x) for x in rng.integers(0, 4**small_layout.k, size=100)
            if int(x) not in stored
        )
        outcome = sim.match_query(q)
        assert not outcome.hit
        assert outcome.rows_activated == small_layout.kmer_rows
        assert not outcome.etm_terminated_early

    def test_batch_slots_independent(self, small_layout, sorted_records, rng):
        records = sorted_records[: small_layout.refs_per_subarray]
        sim = SieveSubarraySim(small_layout, records)
        layer0 = records[: small_layout.refs_per_layer]
        miss = next(
            int(x) for x in rng.integers(0, 4**small_layout.k, size=200)
            if int(x) not in {k for k, _ in records}
            and sim.route_layer(int(x)) == 0
        )
        batch = [layer0[0][0], miss, layer0[-1][0]]
        sim.load_query_batch(batch, layer=0)
        results = [sim.match_slot(i) for i in range(3)]
        assert results[0].hit and results[0].payload == layer0[0][1]
        assert not results[1].hit
        assert results[2].hit and results[2].payload == layer0[-1][1]

    def test_write_command_accounting(self, small_layout, sorted_records):
        records = sorted_records[: small_layout.refs_per_subarray]
        sim = SieveSubarraySim(small_layout, records)
        commands = sim.load_query_batch([records[0][0]], layer=0)
        assert commands == small_layout.batch_write_commands
        assert sim.write_commands == commands
        sim.load_query_batch([records[0][0]], layer=0)
        assert sim.write_commands == 2 * commands
        assert sim.batch_loads == 2

    def test_layers_route_correctly(self, small_layout, sorted_records):
        records = sorted_records[: small_layout.refs_per_subarray]
        if len(records) <= small_layout.refs_per_layer:
            pytest.skip("dataset too small for two layers")
        sim = SieveSubarraySim(small_layout, records)
        assert sim.num_layers_used == 2
        layer1_first = records[small_layout.refs_per_layer][0]
        assert sim.route_layer(layer1_first) == 1
        assert sim.route_layer(records[0][0]) == 0
        outcome = sim.match_query(layer1_first)
        assert outcome.hit and outcome.layer == 1

    def test_records_must_be_sorted_unique(self, small_layout):
        with pytest.raises(FunctionalError):
            SieveSubarraySim(small_layout, [(5, 1), (3, 2)])
        with pytest.raises(FunctionalError):
            SieveSubarraySim(small_layout, [(5, 1), (5, 2)])

    def test_capacity_enforced(self, small_layout):
        too_many = [(i, i) for i in range(small_layout.refs_per_subarray + 1)]
        with pytest.raises(LayoutError):
            SieveSubarraySim(small_layout, too_many)

    def test_empty_batch_rejected(self, small_layout, sorted_records):
        sim = SieveSubarraySim(small_layout, sorted_records[:4])
        with pytest.raises(FunctionalError):
            sim.load_query_batch([])

    def test_bad_slot_rejected(self, small_layout, sorted_records):
        sim = SieveSubarraySim(small_layout, sorted_records[:4])
        sim.load_query_batch([sorted_records[0][0]])
        with pytest.raises(FunctionalError):
            sim.match_slot(1)

    def test_bad_layer_rejected(self, small_layout, sorted_records):
        sim = SieveSubarraySim(small_layout, sorted_records[:4])
        with pytest.raises(FunctionalError):
            sim.load_query_batch([1], layer=5)

    @settings(deadline=None, max_examples=25)
    @given(st.data())
    def test_matches_reference_dict(self, data):
        """Property: the functional subarray agrees with a plain dict."""
        k = 6
        layout = SubarrayLayout(
            k=k, row_bits=40, rows_per_subarray=160,
            refs_per_group=8, queries_per_group=2, layers=2,
        )
        kmers = data.draw(
            st.sets(st.integers(0, 4**k - 1), min_size=1, max_size=layout.refs_per_subarray)
        )
        records = [(kmer, 1000 + i) for i, kmer in enumerate(sorted(kmers))]
        table = dict(records)
        sim = SieveSubarraySim(layout, records)
        queries = data.draw(
            st.lists(st.integers(0, 4**k - 1), min_size=1, max_size=8)
        )
        for q in queries:
            outcome = sim.match_query(q)
            assert outcome.hit == (q in table)
            assert outcome.payload == table.get(q)


#: Weak cells plus a stuck cell: both fault kinds the load path applies.
BLOCK_FAULTS = FaultModel(
    bit_flip_rate=5e-2,
    stuck_cells=(StuckCell(unit="unit0", row=1, col=3, value=1),),
    seed=4242,
)


def _loaded(write, faulty):
    """Run ``write`` (which builds and returns an object holding a
    ``Subarray``) under a fresh injector of ``BLOCK_FAULTS``, or none.

    Returns the object, the stored cells and the injector's
    (stats, schedule digest) -- or None without an injector.
    """
    if not faulty:
        obj = write()
        array = getattr(obj, "array", obj)
        return obj, array.peek_rows(0, array.rows).copy(), None
    injector = FaultInjector(BLOCK_FAULTS)
    with fault_injection(injector):
        obj = write()
    array = getattr(obj, "array", obj)
    log = (injector.stats.as_dict(), injector.schedule_digest())
    return obj, array.peek_rows(0, array.rows).copy(), log


class TestBlockWrite:
    """``Subarray.load_block`` against a per-slice ``load_bits`` loop:
    same cells and, under a fault injector, the same ``stats.loads``,
    ``bits_flipped`` and fault schedule."""

    @pytest.mark.parametrize("faulty", [False, True])
    def test_block_equals_load_bits_loop(self, faulty):
        rng = np.random.default_rng(7)
        starts = [2, 15, 30]
        width = 6
        # Values 0..3: both paths store bits modulo 2.
        bits = rng.integers(0, 4, size=(4, len(starts) * width)).astype(np.uint8)

        def block():
            sub = Subarray(8, 40)
            sub.load_block(1, np.array(starts), width, bits)
            return sub

        def loop():
            sub = Subarray(8, 40)
            for i in range(bits.shape[0]):
                for j, start in enumerate(starts):
                    sub.load_bits(
                        1 + i, start, bits[i, j * width : (j + 1) * width]
                    )
            return sub

        _, got_cells, got_log = _loaded(block, faulty)
        _, want_cells, want_log = _loaded(loop, faulty)
        assert np.array_equal(got_cells, want_cells)
        assert got_log == want_log
        if faulty:
            assert got_log[0]["loads"] == 4 * len(starts)
            assert got_log[0]["bits_flipped"] > 0

    def test_block_bounds(self):
        sub = Subarray(4, 16)
        with pytest.raises(IndexError):
            sub.load_block(3, np.array([0]), 4, np.ones((2, 4), dtype=np.uint8))
        with pytest.raises(IndexError):
            sub.load_block(0, np.array([14]), 4, np.ones((1, 4), dtype=np.uint8))
        with pytest.raises(ValueError):
            sub.load_block(0, np.array([0, 8]), 4, np.ones((1, 4), dtype=np.uint8))

    @pytest.mark.parametrize("faulty", [False, True])
    def test_reference_install_equals_per_slot_loop(
        self, small_layout, sorted_records, faulty
    ):
        """Regions 1-3 as the simulator installs them (one block per
        region) versus one ``load_row`` per Region-1 row and one
        ``load_bits`` per Region-2/3 slot, in the same order."""
        layout = small_layout
        # A partial last layer: its Region-2/3 rows are partly filled.
        records = sorted_records[: layout.refs_per_layer + 5]

        def loop():
            sub = Subarray(layout.rows_per_subarray, layout.row_bits)
            per_layer = layout.refs_per_layer
            for layer in range(-(-len(records) // per_layer)):
                chunk = records[layer * per_layer : (layer + 1) * per_layer]
                matrix = layout.ref_bit_matrix([k for k, _ in chunk])
                base = layout.layer_base_row(layer)
                for bit in range(layout.kmer_rows):
                    sub.load_row(base + bit, matrix[bit])
                for slot in range(len(chunk)):
                    row, col = layout.offset_location(layer, slot)
                    sub.load_bits(row, col, _int_to_bits(slot, OFFSET_BITS))
                for slot, (_, payload) in enumerate(chunk):
                    row, col = layout.payload_location(layer, slot)
                    sub.load_bits(row, col, _int_to_bits(payload, PAYLOAD_BITS))
            return sub

        _, got_cells, got_log = _loaded(
            lambda: SieveSubarraySim(layout, records), faulty
        )
        _, want_cells, want_log = _loaded(loop, faulty)
        assert np.array_equal(got_cells, want_cells)
        assert got_log == want_log

    @pytest.mark.parametrize("faulty", [False, True])
    def test_query_batches_equal_per_group_loop(
        self, small_layout, sorted_records, faulty
    ):
        """A full batch, then shorter ones (stale slot columns must be
        re-zeroed), on both layers: ``load_query_batch`` versus one
        ``load_bits`` per (row, group) of the full-width image."""
        layout = small_layout
        records = sorted_records[: layout.refs_per_subarray]
        kmers = [k for k, _ in records]
        batches = [
            (kmers[: layout.queries_per_group], 0),
            (kmers[-2:], 1),
            (kmers[5:6], 0),
        ]

        def block():
            sim = SieveSubarraySim(layout, records)
            for queries, layer in batches:
                sim.load_query_batch(queries, layer)
            return sim

        def loop():
            sim = SieveSubarraySim(layout, records)
            for queries, layer in batches:
                matrix = layout.query_bit_matrix(queries)
                base = layout.layer_base_row(layer)
                for bit in range(layout.kmer_rows):
                    for group in range(layout.num_groups):
                        cols = layout.query_columns(group)
                        sim.array.load_bits(
                            base + bit,
                            cols.start,
                            matrix[bit, cols.start : cols.stop],
                        )
            return sim

        sim, got_cells, got_log = _loaded(block, faulty)
        _, want_cells, want_log = _loaded(loop, faulty)
        assert np.array_equal(got_cells, want_cells)
        assert got_log == want_log
        if not faulty:
            # Layer 0's last batch held one query: slots 1.. are zero.
            base = layout.layer_base_row(0)
            stale = layout.query_column_matrix[:, 1:].ravel()
            region1 = got_cells[base : base + layout.kmer_rows]
            assert not region1[:, stale].any()
