"""Property suite for ``repro.sieve.kernels`` and the packed engine.

Three layers of bit-identity, all hypothesis-driven with deterministic
settings so CI never flakes:

* **kernel proper** — ``pack_bit_columns`` round-trips arbitrary bit
  matrices (including odd widths whose last word carries zero tail
  bits), ``bit_length64`` agrees with Python's ``int.bit_length``,
  ``first_divergence`` agrees with a scalar reference sweep, and
  ``segment_divergence`` (the single-word min-trick) agrees with the
  per-segment max of the full divergence matrix;
* **helper round trips** — the vectorized ``_int_to_bits`` /
  ``_bits_to_int`` / ``_bit_rows_to_ints`` conversions invert each
  other and match Python's binary formatting;
* **engine** — ``match_all`` on both of its sweeps (the single-word
  ``segment_divergence`` fast path for k <= 32, the general
  ``first_divergence`` sweep for k = 33..40) produces outcomes, stats,
  and microarchitectural state bit-identical to the scalar path — with
  and without a nonzero :class:`FaultInjector` bit-flip rate corrupting
  the loaded arrays.
"""

from __future__ import annotations

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.faults import FaultInjector, FaultModel, fault_injection
from repro.sieve import kernels
from repro.sieve.functional import (
    SieveSubarraySim,
    _bit_rows_to_ints,
    _bits_to_int,
    _int_to_bits,
)
from repro.sieve.kernels import KernelError
from repro.sieve.layout import SubarrayLayout

from .test_batched_equivalence import (
    assert_equivalent,
    random_trial,
)

SETTINGS = settings(derandomize=True, deadline=None, max_examples=40)


def _random_bits(seed: int, rows: int, cols: int) -> np.ndarray:
    rng = np.random.default_rng(seed)
    return rng.integers(0, 2, size=(rows, cols), dtype=np.uint8)


def _unpack_bit(packed: np.ndarray, row: int) -> np.ndarray:
    word, bit = divmod(row, kernels.WORD_BITS)
    shift = np.uint64(kernels.WORD_BITS - 1 - bit)
    return ((packed[word] >> shift) & np.uint64(1)).astype(np.uint8)


def _reference_first_divergence(
    ref_bits: np.ndarray, query_bits: np.ndarray
) -> np.ndarray:
    """Scalar reference: first row where each (query, column) differs."""
    rows, num_refs = ref_bits.shape
    num_queries = query_bits.shape[1]
    out = np.full((num_queries, num_refs), rows, dtype=np.int64)
    for n in range(num_queries):
        for r in range(num_refs):
            for row in range(rows):
                if ref_bits[row, r] != query_bits[row, n]:
                    out[n, r] = row
                    break
    return out


class TestPacking:
    # Widths straddle the word boundary on purpose: 63/64/65/130 cover
    # the full-word, exact-fit, and odd-tail cases.
    @SETTINGS
    @given(
        seed=st.integers(0, 2**31 - 1),
        rows=st.sampled_from([1, 7, 31, 63, 64, 65, 100, 128, 130]),
        cols=st.integers(1, 12),
    )
    def test_pack_round_trip(self, seed, rows, cols):
        bits = _random_bits(seed, rows, cols)
        packed = kernels.pack_bit_columns(bits)
        assert packed.shape == (kernels.words_for(rows), cols)
        for row in range(rows):
            assert np.array_equal(_unpack_bit(packed, row), bits[row])

    @SETTINGS
    @given(
        seed=st.integers(0, 2**31 - 1),
        rows=st.sampled_from([1, 63, 65, 100, 130]),
        cols=st.integers(1, 8),
    )
    def test_tail_bits_are_zero(self, seed, rows, cols):
        packed = kernels.pack_bit_columns(_random_bits(seed, rows, cols))
        for row in range(rows, packed.shape[0] * kernels.WORD_BITS):
            assert not _unpack_bit(packed, row).any()

    def test_zero_rows(self):
        packed = kernels.pack_bit_columns(np.zeros((0, 5), dtype=np.uint8))
        assert packed.shape == (0, 5)

    def test_words_for(self):
        assert [kernels.words_for(r) for r in (0, 1, 64, 65, 128, 129)] == [
            0, 1, 1, 2, 2, 3,
        ]
        with pytest.raises(KernelError):
            kernels.words_for(-1)

    def test_non_2d_rejected(self):
        with pytest.raises(KernelError):
            kernels.pack_bit_columns(np.zeros(4, dtype=np.uint8))


class TestBitLength:
    @SETTINGS
    @given(st.lists(st.integers(0, 2**64 - 1), min_size=1, max_size=40))
    def test_matches_python(self, values):
        words = np.array(values, dtype=np.uint64)
        expected = np.array([v.bit_length() for v in values], dtype=np.int64)
        assert np.array_equal(kernels.bit_length64(words), expected)

    def test_popcount_fallback_matches(self, monkeypatch):
        """The pre-numpy-2 byte-table path stays identical to
        ``np.bitwise_count``."""
        words = np.array(
            [0, 1, 2**63, 2**64 - 1, 0xDEADBEEF, 3], dtype=np.uint64
        )
        fast = kernels.bit_length64(words)
        monkeypatch.setattr(kernels, "_HAVE_BITWISE_COUNT", False)
        assert np.array_equal(kernels.bit_length64(words), fast)


class TestFirstDivergence:
    @SETTINGS
    @given(
        seed=st.integers(0, 2**31 - 1),
        rows=st.sampled_from([1, 5, 26, 63, 64, 65, 100, 130]),
        num_refs=st.integers(1, 10),
        num_queries=st.integers(1, 6),
    )
    def test_matches_scalar_reference(self, seed, rows, num_refs, num_queries):
        ref_bits = _random_bits(seed, rows, num_refs)
        query_bits = _random_bits(seed + 1, rows, num_queries)
        # Plant exact matches so the rows sentinel is exercised too.
        if num_refs > 1:
            query_bits[:, 0] = ref_bits[:, num_refs // 2]
        div = kernels.first_divergence(
            kernels.pack_bit_columns(ref_bits),
            kernels.pack_bit_columns(query_bits),
            rows,
        )
        assert np.array_equal(
            div, _reference_first_divergence(ref_bits, query_bits)
        )

    @SETTINGS
    @given(
        seed=st.integers(0, 2**31 - 1),
        rows=st.integers(1, kernels.WORD_BITS),
        num_refs=st.integers(1, 24),
        num_queries=st.integers(1, 6),
        data=st.data(),
    )
    def test_segment_divergence_is_per_segment_max(
        self, seed, rows, num_refs, num_queries, data
    ):
        ref_bits = _random_bits(seed, rows, num_refs)
        query_bits = _random_bits(seed + 1, rows, num_queries)
        query_bits[:, 0] = ref_bits[:, 0]
        segment_size = data.draw(st.integers(1, num_refs))
        seg_starts = np.arange(0, num_refs, segment_size)
        ref_words = kernels.pack_bit_columns(ref_bits)
        query_words = kernels.pack_bit_columns(query_bits)
        xor = query_words[0][:, None] ^ ref_words[0][None, :]
        got = kernels.segment_divergence(xor, rows, seg_starts)
        full = kernels.first_divergence(ref_words, query_words, rows)
        assert np.array_equal(
            got, np.maximum.reduceat(full, seg_starts, axis=1)
        )

    def test_word_count_mismatch_rejected(self):
        ref = np.zeros((2, 3), dtype=np.uint64)
        query = np.zeros((1, 2), dtype=np.uint64)
        with pytest.raises(KernelError):
            kernels.first_divergence(ref, query, 65)
        with pytest.raises(KernelError):
            kernels.first_divergence(ref, ref, 64)

    def test_segment_divergence_validation(self):
        xor = np.zeros((2, 4), dtype=np.uint64)
        starts = np.array([0, 2])
        with pytest.raises(KernelError):
            kernels.segment_divergence(xor[0], 8, starts)
        with pytest.raises(KernelError):
            kernels.segment_divergence(xor, 65, starts)
        with pytest.raises(KernelError):
            kernels.segment_divergence(xor, 0, starts)


class TestIntBitsRoundTrip:
    @SETTINGS
    @given(data=st.data(), width=st.integers(1, 64))
    def test_round_trip(self, data, width):
        value = data.draw(st.integers(0, 2**width - 1))
        bits = _int_to_bits(value, width)
        assert bits.shape == (width,)
        assert np.array_equal(
            bits,
            np.array([int(c) for c in format(value, f"0{width}b")],
                     dtype=np.uint8),
        )
        assert _bits_to_int(bits) == value

    @SETTINGS
    @given(
        seed=st.integers(0, 2**31 - 1),
        num_bytes=st.integers(1, 6),
        rows=st.integers(1, 10),
    )
    def test_bit_rows_to_ints_matches_scalar(self, seed, num_bytes, rows):
        bits = _random_bits(seed, rows, 8 * num_bytes)
        got = _bit_rows_to_ints(bits)
        assert np.array_equal(
            got,
            np.array([_bits_to_int(bits[r]) for r in range(rows)],
                     dtype=np.int64),
        )

    def test_bit_rows_to_ints_rejects_odd_width(self):
        from repro.sieve.functional import FunctionalError

        with pytest.raises(FunctionalError):
            _bit_rows_to_ints(np.zeros((2, 7), dtype=np.uint8))


#: The packed engine's two sweeps, each keyed by the layouts that reach
#: it (``match_all`` chooses from ``kernels.words_for(rows)``):
#: ``"packed"`` — k = 3..7, one uint64 word, the ``segment_divergence``
#: fast path; ``"packed-numpy"`` — k = 33..40, two words, the general
#: per-group numpy ``first_divergence`` sweep.
SWEEP_K_RANGES = {"packed": (3, 8), "packed-numpy": (33, 41)}


def _trial(seed: int, sweep: str):
    rng = np.random.default_rng(20_000 + seed)
    k_range = SWEEP_K_RANGES[sweep]
    trial = None
    while trial is None:
        trial = random_trial(rng, k_range)
    layout, records, queries, etm_enabled = trial
    if kernels.words_for(layout.kmer_rows) > 1:
        # Near misses: flip one low bit of a stored k-mer (a row past
        # the first word) so some divergences land in the second word.
        tail_bits = layout.kmer_rows - kernels.WORD_BITS
        queries = [
            query
            if i % 2 == 0
            else records[i % len(records)][0]
            ^ (1 << int(rng.integers(0, tail_bits)))
            for i, query in enumerate(queries)
        ]
    return layout, records, queries, etm_enabled


class TestEngineBitIdentity:
    @pytest.mark.parametrize("sweep", sorted(SWEEP_K_RANGES))
    @pytest.mark.parametrize("seed", range(6))
    def test_every_kernel_matches_scalar(self, sweep, seed):
        layout, records, queries, etm_enabled = _trial(seed, sweep)
        assert (kernels.words_for(layout.kmer_rows) == 1) == (
            sweep == "packed"
        )
        scalar = SieveSubarraySim(layout, records, etm_enabled=etm_enabled)
        fast = SieveSubarraySim(layout, records, etm_enabled=etm_enabled)
        layer = scalar.route_layer(queries[0])
        scalar.load_query_batch(queries, layer)
        fast.load_query_batch(queries, layer)
        s_out = [scalar.match_slot(s) for s in range(len(queries))]
        f_out = fast.match_all().outcomes()
        assert_equivalent(scalar, fast, s_out, f_out)

    @pytest.mark.parametrize("sweep", sorted(SWEEP_K_RANGES))
    @pytest.mark.parametrize("seed", range(4))
    def test_bit_identity_under_faults(self, sweep, seed):
        """Load-time bit flips corrupt every replica identically (same
        seeded model, fresh injector per build), so the packed engine
        must reproduce the scalar path's answers on the *corrupted*
        arrays too."""
        layout, records, queries, etm_enabled = _trial(100 + seed, sweep)
        model = FaultModel(bit_flip_rate=2e-2, seed=9_000 + seed)

        def build(match):
            injector = FaultInjector(model)
            with fault_injection(injector):
                sim = SieveSubarraySim(
                    layout, records, etm_enabled=etm_enabled
                )
                sim.load_query_batch(queries, sim.route_layer(queries[0]))
                outcomes = match(sim)
            return sim, outcomes, injector

        scalar, s_out, s_inj = build(
            lambda sim: [sim.match_slot(s) for s in range(len(queries))]
        )
        fast, f_out, f_inj = build(lambda sim: sim.match_all().outcomes())
        assert f_inj.stats.bits_flipped == s_inj.stats.bits_flipped
        assert_equivalent(scalar, fast, s_out, f_out)
