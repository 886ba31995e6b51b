"""Bit-accurate functional simulator of one Sieve subarray (Type-2/3).

This model executes the paper's k-mer matching walkthrough
(Section IV-A) literally, on top of the behavioral DRAM array:

1. reference k-mers are transposed onto bitlines (Region 1 of each
   layer), offsets and payloads installed row-major in Regions 2/3;
2. a query batch is written into the query columns of every pattern
   group of the destination layer;
3. per query, that layer's Region-1 rows are activated one at a time;
   matchers fold XNOR results into their latches; the ETM steps once per
   row cycle and interrupts activation (one row late — the interrupt
   races the next ACT) once every candidate has died;
4. on a hit, the ETM pipeline flushes, the Column Finder locates the hit
   column, and the offset + payload are fetched with two more row
   activations.

Everything the trace-driven performance model needs (rows activated,
flush cycles, CF cycles, write commands) falls out of this simulation,
and the test suite checks the outcomes against a plain
:class:`~repro.genomics.database.KmerDatabase`.
"""

from __future__ import annotations

import bisect
from dataclasses import dataclass
from typing import Dict, List, NamedTuple, Optional, Sequence, Tuple

import numpy as np

from ..dram.subarray import Subarray
from . import kernels
from .column_finder import ColumnFinder, ColumnFindResult
from .etm import EtmPipeline
from .layout import OFFSET_BITS, PAYLOAD_BITS, LayoutError, SubarrayLayout
from .matcher import MatcherArray

class FunctionalError(RuntimeError):
    """Raised on protocol errors in the functional simulator."""


@dataclass(frozen=True)
class MatchOutcome:
    """Result of matching one query k-mer in one subarray."""

    query: int
    hit: bool
    payload: Optional[int]
    column: Optional[int]
    layer: int
    rows_activated: int
    etm_flush_cycles: int
    cf: Optional[ColumnFindResult]
    etm_terminated_early: bool


def _int_to_bits(value: int, width: int) -> np.ndarray:
    """MSB-first bit vector of ``value`` (vectorized via unpackbits)."""
    if value < 0 or value >= (1 << width):
        raise FunctionalError(f"value {value} does not fit in {width} bits")
    num_bytes = -(-width // 8)
    raw = np.frombuffer(value.to_bytes(num_bytes, "big"), dtype=np.uint8)
    return np.unpackbits(raw, bitorder="big")[8 * num_bytes - width :]


def _bits_to_int(bits: np.ndarray) -> int:
    """Integer from an MSB-first bit vector (vectorized via packbits)."""
    bits = np.asarray(bits, dtype=np.uint8)
    pad = (-bits.size) % 8
    if pad:
        bits = np.concatenate([np.zeros(pad, dtype=np.uint8), bits])
    return int.from_bytes(np.packbits(bits, bitorder="big").tobytes(), "big")


def _bit_rows_to_ints(bits: np.ndarray) -> np.ndarray:
    """Row-wise :func:`_bits_to_int` over an ``(N, width)`` bit matrix.

    ``width`` must be a multiple of 8 and at most 64 (Region-2/3
    entries are 32 bits).
    """
    bits = np.asarray(bits, dtype=np.uint8)
    if bits.shape[1] % 8 or bits.shape[1] > 64:
        raise FunctionalError(
            f"row width must be a multiple of 8 up to 64, got {bits.shape[1]}"
        )
    packed = np.packbits(bits, axis=1, bitorder="big")
    words = np.zeros((bits.shape[0], 8), dtype=np.uint8)
    words[:, 8 - packed.shape[1] :] = packed
    return words.view(">u8").ravel().astype(np.int64)


def _ints_to_bit_rows(values: Sequence[int], width: int) -> np.ndarray:
    """Row-wise :func:`_int_to_bits`: ``(N, width)`` bits, ``width <= 64``."""
    for value in values:
        if value < 0 or value >= (1 << width):
            raise FunctionalError(f"value {value} does not fit in {width} bits")
    words = np.asarray(values, dtype=np.uint64).astype(">u8")
    bits = np.unpackbits(words.view(np.uint8).reshape(-1, 8), axis=1)
    return bits[:, 64 - width :]


def _sr_chain(seg_max: np.ndarray, steps: int) -> np.ndarray:
    """SR chain contents after ``steps`` ETM pipeline steps (closed form).

    Unrolling ``SR[i](t) = seg_or[i](t) | SR[i-1](t-1)`` with
    ``SR[*](0) = 1`` and ``seg_or[g](t) = (seg_max[g] >= t)`` gives
    ``SR[i] = i >= t or max_{g<=i}(seg_max[g] - g) >= t - i``: the
    preset 1 has not drained, or some segment ``g`` was still live
    ``i - g`` steps before the end.  ``seg_max`` is ``(segments,)`` or
    ``(queries, segments)``.
    """
    seg_idx = np.arange(seg_max.shape[-1])
    prefix = np.maximum.accumulate(seg_max - seg_idx, axis=-1)
    return (seg_idx >= steps) | (prefix >= steps - seg_idx)


@dataclass(frozen=True, eq=False)
class MatchColumns:
    """Columnar result of :meth:`SieveSubarraySim.match_all`.

    One entry per matched slot, in request order.  Misses carry
    ``payload == 0``, ``column == -1`` and ``etm_flush_cycles == 0``;
    :meth:`outcomes` expands the columns into the
    :class:`MatchOutcome` list the scalar path returns.
    """

    layer: int
    segment_size: int
    #: Object dtype, so k-mers wider than 64 bits stay exact.
    query: np.ndarray
    hit: np.ndarray
    payload: np.ndarray
    column: np.ndarray
    rows_activated: np.ndarray
    etm_flush_cycles: np.ndarray
    etm_terminated_early: np.ndarray

    def __len__(self) -> int:
        return int(self.hit.size)

    def outcomes(self) -> List[MatchOutcome]:
        """Per-slot :class:`MatchOutcome` records (API and test view)."""
        size = self.segment_size
        outcomes: List[MatchOutcome] = []
        for query, hit, payload, column, rows, flush, early in zip(
            self.query.tolist(),
            self.hit.tolist(),
            self.payload.tolist(),
            self.column.tolist(),
            self.rows_activated.tolist(),
            self.etm_flush_cycles.tolist(),
            self.etm_terminated_early.tolist(),
        ):
            cf = None
            if hit:
                segment = column // size
                # Closed-form ColumnFinder run: the shifter stops at the
                # first live latch (strict=False), which is the lowest
                # hit column since reference columns ascend.
                cf = ColumnFindResult(
                    column=column,
                    segment=segment,
                    bsr_shift_cycles=segment + 1,
                    copy_cycles=1,
                    rs_shift_cycles=column - segment * size + 1,
                )
            outcomes.append(
                MatchOutcome(
                    query=query,
                    hit=hit,
                    payload=payload if hit else None,
                    column=column if hit else None,
                    layer=self.layer,
                    rows_activated=rows,
                    etm_flush_cycles=flush,
                    cf=cf,
                    etm_terminated_early=early,
                )
            )
        return outcomes


class _LayerImage(NamedTuple):
    """One layer's match tables, built from the stored cells (so
    load-time fault corruption is included) and frozen: shared by every
    later match and by forked fleet workers."""

    #: Occupied Region-1 columns as packed uint64 words.
    ref_words: np.ndarray
    #: Per-group reference slot boundaries.
    group_bounds: np.ndarray
    #: Occupied ETM segments and their reduceat starts.
    seg_ids: np.ndarray
    seg_starts: np.ndarray
    #: Region-2 entry of every reference slot, wrapped into the layer.
    offsets: np.ndarray
    #: Region-3 entry of every payload index.
    payloads: np.ndarray


class SieveSubarraySim:
    """One Sieve-enhanced subarray, loaded with sorted reference records.

    Records fill layers in sorted order; the subarray controller keeps
    each layer's first k-mer so it can select the destination layer for
    a routed query (the host index is subarray-granular).
    """

    def __init__(
        self,
        layout: SubarrayLayout,
        records: Sequence[Tuple[int, int]],
        etm_enabled: bool = True,
    ) -> None:
        if len(records) > layout.refs_per_subarray:
            raise LayoutError(
                f"{len(records)} records exceed capacity {layout.refs_per_subarray}"
            )
        for (a, _), (b, _) in zip(records, records[1:]):
            if b <= a:
                raise FunctionalError("records must be sorted by k-mer, unique")
        self.layout = layout
        self.etm_enabled = etm_enabled
        self.records = list(records)
        self.array = Subarray(layout.rows_per_subarray, layout.row_bits)
        self.matchers = MatcherArray(layout.row_bits)
        self.etm = EtmPipeline(layout.row_bits)
        self.finder = ColumnFinder(self.etm)
        self._batch: List[int] = []
        self._batch_layer = 0
        self.batch_loads = 0
        self.write_commands = 0
        #: Match-Enable masks keyed by (layer, record count); rebuilt when
        #: references are (re)loaded.
        self._enable_cache: Dict[Tuple[int, int], np.ndarray] = {}
        #: Per-layer match tables (:class:`_LayerImage`), built lazily
        #: from the stored cells and invalidated with the enable cache
        #: when references are (re)loaded.  Query columns are re-packed
        #: per batch (they change on every load).
        self._layer_images: Dict[int, _LayerImage] = {}
        # Layer occupancy and first-kmer table (subarray controller state).
        per_layer = layout.refs_per_layer
        self._layer_records: List[List[Tuple[int, int]]] = [
            self.records[i : i + per_layer]
            for i in range(0, len(self.records), per_layer)
        ]
        self._layer_firsts = [chunk[0][0] for chunk in self._layer_records]
        self._load_references()

    @property
    def num_layers_used(self) -> int:
        return len(self._layer_records)

    @property
    def layer_firsts(self) -> List[int]:
        """First k-mer of every occupied layer (ascending): the
        subarray controller's layer-selection table."""
        return list(self._layer_firsts)

    # -- load paths ---------------------------------------------------------

    def _load_references(self) -> None:
        layout = self.layout
        self._enable_cache.clear()
        self._layer_images.clear()
        for layer, chunk in enumerate(self._layer_records):
            base = layout.layer_base_row(layer)
            ref_matrix = layout.ref_bit_matrix([k for k, _ in chunk])
            self.array.load_block(base, [0], layout.row_bits, ref_matrix)
            # Region 2: offset of each slot's payload (identity mapping
            # here, but fetched through the array like the real device).
            offsets_row = base + layout.kmer_rows
            self._load_entries(offsets_row, range(len(chunk)), OFFSET_BITS)
            # Region 3: payloads.
            payloads_row = offsets_row + layout.offset_rows
            self._load_entries(
                payloads_row, [payload for _, payload in chunk], PAYLOAD_BITS
            )

    def _load_entries(
        self, first_row: int, values: Sequence[int], width: int
    ) -> None:
        """Install ``width``-bit entries row-major from ``first_row``
        (Regions 2/3): the full rows as one block, then the partial last
        row.  A fault injector sees one run per entry, in entry order."""
        per_row = self.layout.row_bits // width
        bits = _ints_to_bit_rows(values, width)
        full = len(bits) // per_row
        starts = np.arange(per_row) * width
        if full:
            block = bits[: full * per_row].reshape(full, per_row * width)
            self.array.load_block(first_row, starts, width, block)
        rest = bits[full * per_row :]
        if len(rest):
            self.array.load_block(
                first_row + full, starts[: len(rest)], width, rest.reshape(1, -1)
            )

    def route_layer(self, kmer: int) -> int:
        """Layer whose sorted range should contain ``kmer``."""
        pos = bisect.bisect_right(self._layer_firsts, kmer) - 1
        return max(pos, 0)

    def load_query_batch(self, queries: Sequence[int], layer: int = 0) -> int:
        """Write a batch into every group's query block of ``layer``;
        returns the number of prefetch-width write commands charged
        (Section IV-A: groups x 2k)."""
        if not queries:
            raise FunctionalError("query batch must be non-empty")
        if not 0 <= layer < self.num_layers_used:
            raise FunctionalError(
                f"layer {layer} out of range [0, {self.num_layers_used})"
            )
        layout = self.layout
        self.array.load_block(
            layout.layer_base_row(layer),
            layout.query_column_matrix[:, 0],
            layout.queries_per_group,
            layout.query_block(queries),
        )
        self._batch = list(queries)
        self._batch_layer = layer
        self.batch_loads += 1
        commands = layout.batch_write_commands
        self.write_commands += commands
        return commands

    def _layer_enable(self, layer: int) -> np.ndarray:
        """Match-Enable mask: only occupied reference columns of a layer.

        The mask is a pure function of (layer, record count), so it is
        cached and only rebuilt when the layer's references change
        (:meth:`_load_references` invalidates the cache).
        """
        key = (layer, len(self._layer_records[layer]))
        mask = self._enable_cache.get(key)
        if mask is None:
            mask = self.layout.match_enable_mask(key[1])
            # Frozen on entry: the cached mask is shared by every later
            # match (and by forked fleet workers), so no caller may
            # mutate it in place.
            mask.setflags(write=False)
            self._enable_cache[key] = mask
        return mask

    # -- matching ------------------------------------------------------------

    def match_slot(self, batch_slot: int) -> MatchOutcome:
        """Match one query of the loaded batch against the batch's layer."""
        if not 0 <= batch_slot < len(self._batch):
            raise FunctionalError(
                f"batch slot {batch_slot} out of range [0, {len(self._batch)})"
            )
        layout = self.layout
        layer = self._batch_layer
        query = self._batch[batch_slot]
        self.matchers.set_enable(self._layer_enable(layer))
        self.matchers.reset()
        self.etm.reset()
        rows_activated = 0
        terminated_early = False
        total_rows = layout.kmer_rows
        base = layout.layer_base_row(layer)
        bit = 0
        while bit < total_rows:
            bits = self.array.activate(base + bit)
            qvec = self._query_vector(bits, batch_slot)
            self.matchers.compare_per_column(bits, qvec)
            self.array.precharge()
            rows_activated += 1
            self.etm.step(self.matchers.latches)
            if self.etm_enabled and self.etm.terminated and bit < total_rows - 1:
                # The interrupt races the already-issued next activation:
                # one more row opens before activation stops.
                self.array.activate(base + bit + 1)
                self.array.precharge()
                rows_activated += 1
                terminated_early = True
                break
            bit += 1
        if self.matchers.any_match():
            return self._retrieve(query, layer, rows_activated)
        return MatchOutcome(
            query=query,
            hit=False,
            payload=None,
            column=None,
            layer=layer,
            rows_activated=rows_activated,
            etm_flush_cycles=0,
            cf=None,
            etm_terminated_early=terminated_early,
        )

    def match_query(self, query: int) -> MatchOutcome:
        """Convenience: route, load a single-query batch, match it."""
        layer = self.route_layer(query)
        self.load_query_batch([query], layer)
        return self.match_slot(0)

    def _query_vector(self, row_bits: np.ndarray, batch_slot: int) -> np.ndarray:
        """Per-column query bit: each group broadcasts its own replica of
        the selected query's current bit on its shared bus."""
        layout = self.layout
        qvec = np.zeros(layout.row_bits, dtype=np.uint8)
        for g in range(layout.num_groups):
            qcol = layout.query_columns(g)[batch_slot]
            base = layout.group_base(g)
            qvec[base : base + layout.group_width] = row_bits[qcol]
        return qvec

    def _retrieve(self, query: int, layer: int, rows_activated: int) -> MatchOutcome:
        """Hit path: ETM flush, Column Finder, offset + payload fetch."""
        flush = self.etm.flush_cycles_after_last_row()
        # strict=False: the shifter takes the first live latch; duplicate
        # latches only arise under fault injection.
        cf = self.finder.find(np.asarray(self.matchers.latches), strict=False)
        payload = self._fetch_record(layer, cf)
        return MatchOutcome(
            query=query,
            hit=True,
            payload=payload,
            column=cf.column,
            layer=layer,
            rows_activated=rows_activated + 2,
            etm_flush_cycles=flush,
            cf=cf,
            etm_terminated_early=False,
        )

    def _fetch_record(self, layer: int, cf: ColumnFindResult) -> int:
        """Region-2/3 fetch for a located hit column; returns the payload."""
        layout = self.layout
        slot = layout.column_to_ref_slot(cf.column)
        # Region 2: fetch the payload offset.
        orow, ocol = layout.offset_location(layer, slot)
        bits = self.array.activate(orow)
        offset = _bits_to_int(bits[ocol : ocol + OFFSET_BITS])
        self.array.precharge()
        return self._fetch_payload(layer, offset)

    def _fetch_payload(self, layer: int, offset: int) -> int:
        layout = self.layout
        # The payload decoder wraps: with pristine cells the offset is
        # always in range, but a fault-corrupted Region-2 word must still
        # address *some* Region-3 slot rather than fall off the layer.
        offset %= layout.refs_per_layer
        # Region 3: fetch the payload at that offset.
        prow, pcol = layout.payload_location(layer, offset)
        bits = self.array.activate(prow)
        payload = _bits_to_int(bits[pcol : pcol + PAYLOAD_BITS])
        self.array.precharge()
        return payload

    # -- batched matching -----------------------------------------------------

    def _layer_image(self, layer: int) -> _LayerImage:
        """The layer's match tables, cached until
        :meth:`_load_references` invalidates them."""
        image = self._layer_images.get(layer)
        if image is None:
            layout = self.layout
            base = layout.layer_base_row(layer)
            enable_cols = layout.ref_slot_columns[
                : len(self._layer_records[layer])
            ]
            region1 = self.array.peek_rows(base, base + layout.kmer_rows)
            seg_ids, seg_starts = np.unique(
                enable_cols // self.etm.segment_size, return_index=True
            )
            offsets_row = base + layout.kmer_rows
            # The payload decoder wraps: with pristine cells the offset is
            # always in range, but a fault-corrupted Region-2 word must
            # still address *some* Region-3 slot.
            offsets = self._decode_entries(
                offsets_row, layout.offset_rows, OFFSET_BITS
            ) % layout.refs_per_layer
            image = _LayerImage(
                ref_words=kernels.pack_bit_columns(region1[:, enable_cols]),
                group_bounds=np.searchsorted(
                    layout.column_group_index[: enable_cols.size],
                    np.arange(layout.num_groups + 1),
                ),
                seg_ids=seg_ids,
                seg_starts=seg_starts,
                offsets=offsets,
                payloads=self._decode_entries(
                    offsets_row + layout.offset_rows,
                    layout.payload_rows,
                    PAYLOAD_BITS,
                ),
            )
            for array in image:
                array.setflags(write=False)
            self._layer_images[layer] = image
        return image

    def _decode_entries(self, first_row: int, rows: int, width: int) -> np.ndarray:
        """The layer's ``width``-bit Region-2/3 entries, row-major from
        ``first_row``, decoded from the stored cells."""
        per_row = self.layout.row_bits // width
        cells = self.array.peek_rows(first_row, first_row + rows)
        entries = cells[:, : per_row * width].reshape(-1, width)
        return _bit_rows_to_ints(entries)[: self.layout.refs_per_layer]

    def match_all(self, slots: Optional[Sequence[int]] = None) -> MatchColumns:
        """Match loaded batch slots in one vectorized pass.

        Fast path equivalent to ``[self.match_slot(s) for s in slots]``
        (returned as :class:`MatchColumns`; ``.outcomes()`` gives that
        list): instead of replaying row activations one Python-level
        DRAM command at a time, it computes every query's per-column
        *first-divergence* row over bit-packed ``uint64`` words
        (:mod:`repro.sieve.kernels`), packing and comparing only the
        requested slots.  Layouts whose rows fit one word (``k <= 32``)
        reduce the raw XOR matrix per ETM segment with
        :func:`~repro.sieve.kernels.segment_divergence`; wider layouts
        run one :func:`~repro.sieve.kernels.first_divergence` call per
        pattern group.  Everything observable is then synthesized
        batch-wide in closed form, bit for bit as the scalar path
        produces it (property-test enforced,
        tests/test_kernels_properties.py):

        * every :class:`MatchOutcome` field, including
          ``rows_activated`` under the ETM's one-row-late interrupt
          semantics and the SR drain (``etm_flush_cycles``) from
          :func:`_sr_chain`;
        * :class:`~repro.dram.subarray.SubarrayStats` counters (ACT/PRE
          pairs charged analytically);
        * matcher / ETM pipeline state after the final query.
        """
        batch_len = len(self._batch)
        if slots is None:
            slot_arr = np.arange(batch_len, dtype=np.intp)
        else:
            slot_arr = np.asarray(slots, dtype=np.intp).reshape(-1)
            bad = np.flatnonzero((slot_arr < 0) | (slot_arr >= batch_len))
            if bad.size:
                raise FunctionalError(
                    f"batch slot {int(slot_arr[bad[0]])} out of range "
                    f"[0, {batch_len})"
                )
        layout = self.layout
        layer = self._batch_layer
        self.matchers.set_enable(self._layer_enable(layer))
        num_queries = slot_arr.size
        num_refs = len(self._layer_records[layer])
        total_rows = layout.kmer_rows
        base = layout.layer_base_row(layer)
        image = self._layer_image(layer)
        enable_cols = layout.ref_slot_columns[:num_refs]
        seg_max = np.full(
            (num_queries, self.etm.num_segments), -1, dtype=np.int64
        )

        # Pack the requested slots' query replicas (each group
        # broadcasts its own -- possibly fault-corrupted -- replica, so
        # replicas are packed per group): (words, groups, queries).
        region1 = self.array.peek_rows(base, base + total_rows)
        qcols = layout.query_column_matrix[:, slot_arr]
        num_words = kernels.words_for(total_rows)
        qwords = kernels.pack_bit_columns(region1[:, qcols.ravel()]).reshape(
            num_words, layout.num_groups, num_queries
        )
        bounds = image.group_bounds.tolist()
        if num_words == 1:
            # Single-word fast path (every k <= 32 packs into one
            # uint64 word): kernels.segment_divergence reduces the raw
            # XOR matrix per segment without materializing the full
            # per-column divergence matrix.  Each group's reference
            # columns are contiguous and compare against that group's
            # replica; the (query, column) orientation keeps the scans
            # contiguous.
            xor = np.empty((num_queries, num_refs), dtype=np.uint64)
            for g in range(layout.num_groups):
                lo, hi = bounds[g], bounds[g + 1]
                np.bitwise_xor(
                    qwords[0, g][:, None],
                    image.ref_words[0, lo:hi],
                    out=xor[:, lo:hi],
                )
            seg_div = kernels.segment_divergence(xor, total_rows, image.seg_starts)
            seg_max[:, image.seg_ids] = seg_div
            last_div = seg_div.max(axis=1)
        else:
            div = np.empty((num_queries, num_refs), dtype=np.int64)
            for g in range(layout.num_groups):
                lo, hi = bounds[g], bounds[g + 1]
                if lo == hi:
                    continue
                div[:, lo:hi] = kernels.first_divergence(
                    image.ref_words[:, lo:hi], qwords[:, g], total_rows
                )
            last_div = div.max(axis=1)
            seg_max[:, image.seg_ids] = np.maximum.reduceat(
                div, image.seg_starts, axis=1
            )
        # Tail bits past total_rows are zero on both sides, so a
        # divergence reaches total_rows only on an exact match: a query
        # hits iff its maximum divergence does.  Only hit queries need
        # their matching columns; the first is the one the Column
        # Finder reports.
        any_hit = last_div == total_rows
        hit_pos = np.flatnonzero(any_hit)
        if num_words == 1:
            matches = xor[hit_pos] == np.uint64(0)
        else:
            matches = div[hit_pos] == total_rows
        ref_slot = matches.argmax(axis=1)

        # Batch-wide outcome synthesis: the scalar path's ETM closed
        # forms, applied to all queries at once.  A hit activates every
        # pattern row plus one Region-2 and one Region-3 row.
        if self.etm_enabled:
            early = ~any_hit & (last_div <= total_rows - 2)
        else:
            early = np.zeros(num_queries, dtype=bool)
        rows_act = np.where(
            any_hit, total_rows + 2, np.where(early, last_div + 2, total_rows)
        )
        self.array.charge_untimed_accesses(int(rows_act.sum()))

        # Hits: SR drain after the final row, and the Region-2/3 fetch
        # (offset, then payload at that offset) from the decoded cells.
        live = _sr_chain(seg_max[hit_pos], total_rows)
        flush = np.zeros(num_queries, dtype=np.int64)
        flush[hit_pos] = np.where(
            live.any(axis=1), self.etm.num_segments - live.argmax(axis=1), 0
        )
        payloads = np.zeros(num_queries, dtype=np.int64)
        payloads[hit_pos] = image.payloads[image.offsets[ref_slot]]
        columns = np.full(num_queries, -1, dtype=np.int64)
        columns[hit_pos] = enable_cols[ref_slot]

        # Matcher/ETM state after the batch: a per-slot replay's final
        # load_state wins, so only the last slot's state is installed.
        if num_queries:
            latches = np.zeros(layout.row_bits, dtype=np.uint8)
            if any_hit[-1]:
                latches[enable_cols[matches[-1]]] = 1
            steps = total_rows if not early[-1] else int(last_div[-1]) + 1
            self._sync_pipeline_state(seg_max[-1], steps, latches)
        return MatchColumns(
            layer=layer,
            segment_size=self.etm.segment_size,
            query=np.array([self._batch[s] for s in slot_arr.tolist()], dtype=object),
            hit=any_hit,
            payload=payloads,
            column=columns,
            rows_activated=rows_act,
            etm_flush_cycles=flush,
            etm_terminated_early=early,
        )

    def _sync_pipeline_state(self, seg_max: np.ndarray, steps: int,
                             latches: np.ndarray) -> None:
        """Leave matcher/ETM state exactly as a scalar replay would."""
        self.matchers.load_state(latches, steps)
        segment_or = (seg_max >= steps).astype(np.uint8)
        self.etm.load_state(segment_or, _sr_chain(seg_max, steps), steps)
