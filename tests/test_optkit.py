"""Pruning, quantization and the run-length codec."""

import re

import numpy as np
import pytest
from hypothesis import assume, example, given, settings
from hypothesis import strategies as st
from hypothesis.extra import numpy as hnp

import dnncost as dc
from dnncost.optkit import (MAX_VALUE, CodecError, _budget, _drain, _keep_mask, _pair_codes,
                            _word_error, compression_ratio, prune_network, quantize_uniform,
                            rle_decode, rle_encode, rle_pair_count, rle_word_count)
from oracles import reference_rle_encode, reference_rle_pair_count

MAX_FLOAT = np.finfo(float).max
# magnitudes from the smallest normal float to the largest
NORMAL_MAGNITUDES = st.floats(min_value=np.finfo(float).tiny, max_value=MAX_FLOAT)
word_lists = st.lists(st.integers(min_value=0, max_value=65535), max_size=300)

# zero runs around the 32-word filler boundary, and literals up to MAX_VALUE
zero_runs = st.sampled_from([31, 32, 33, 63, 64, 65]) | st.integers(min_value=0, max_value=70)
literals = st.sampled_from([1, MAX_VALUE]) | st.integers(min_value=1, max_value=MAX_VALUE)
run_streams = st.lists(st.tuples(zero_runs, st.lists(literals, max_size=3)), max_size=8).map(
    lambda segments: [w for run, lits in segments for w in [0] * run + lits])

# words of every type the codec may be handed: each either encodes like the
# reference or fails with its message
HOSTILE_WORDS = [True, np.uint16(MAX_VALUE), np.int8(-1), np.uint64(2**64 - 1), 2**70,
                 1.5, np.float64(2.0), "a", None, [1], b"\x01", np.array([1]),
                 np.True_, np.array(3)]

# lists mixing the word types numpy converts to one dtype in different ways
# (np.int64 with np.uint64 gives float64), in range and out of it
in_range = st.integers(min_value=0, max_value=MAX_VALUE)
mixed_words = st.lists(st.one_of(
    in_range, st.booleans(), in_range.map(np.int64), in_range.map(np.uint64),
    st.integers(min_value=-2**70, max_value=2**70),
    st.integers(min_value=-2**63, max_value=2**63 - 1).map(np.int64),
    st.integers(min_value=0, max_value=2**64 - 1).map(np.uint64),
    st.sampled_from([0.0, 1.0, 2.5]) | st.floats(allow_nan=False)), max_size=40)


def prune_one(weights, fraction):
    """(pruned copy, keep-mask) of one array, pruned as a one-layer network."""
    return prune_network({"w": weights}, fraction)["w"]


class TestPruneMagnitude:
    def test_worked_example(self):
        pruned, mask = prune_one([0.1, -0.5, 0.3, -0.2], 0.5)
        np.testing.assert_allclose(pruned, [0.0, -0.5, 0.3, 0.0])
        np.testing.assert_array_equal(mask, [False, True, True, False])

    def test_fraction_bounds(self):
        arr = [1.0, 2.0]
        pruned, mask = prune_one(arr, 0.0)
        assert mask.all()
        pruned, mask = prune_one(arr, 1.0)
        assert not mask.any()
        np.testing.assert_array_equal(pruned, [0.0, 0.0])
        with pytest.raises(ValueError, match="fraction"):
            prune_one(arr, 1.5)
        with pytest.raises(ValueError, match="fraction"):
            prune_one(arr, -0.1)

    def test_ties_zero_earlier_indices_first(self):
        pruned, mask = prune_one([1.0, 1.0, 1.0, 1.0], 0.5)
        np.testing.assert_array_equal(mask, [False, False, True, True])

    def test_preserves_shape(self):
        rng = np.random.default_rng(0)
        w = rng.standard_normal((4, 3, 2))
        pruned, mask = prune_one(w, 0.25)
        assert pruned.shape == w.shape == mask.shape
        assert (~mask).sum() == int(0.25 * w.size)
        # survivors never lie below the pruned magnitudes
        assert np.abs(pruned[mask]).min() >= np.abs(w[~mask]).max()

    def test_scalar_weight(self):
        for fraction in (0.0, 1.0):
            pruned, mask = prune_one(-np.nan, fraction)
            assert isinstance(pruned, np.ndarray)
            assert_bit_identical(pruned, np.where(mask, -np.nan, 0.0))


class TestPruneNetwork:
    def test_global_competition_matches_concatenation(self):
        rng = np.random.default_rng(1)
        layers = {"a": rng.standard_normal(20), "b": rng.standard_normal(30)}
        out = prune_network(layers, 0.4)
        flat = np.concatenate([layers["a"], layers["b"]])
        _, ref_mask = prune_one(flat, 0.4)
        got = np.concatenate([out["a"][1], out["b"][1]])
        np.testing.assert_array_equal(got, ref_mask)

    def test_ordered_drain_empties_expensive_layers_first(self):
        layers = {"cheap": np.arange(1.0, 5.0), "costly": np.arange(1.0, 5.0)}
        out = prune_network(layers, 0.5, order={"cheap": 1.0, "costly": 9.0})
        assert not out["costly"][1].any()  # all four pruned
        assert out["cheap"][1].all()

    def test_ordered_drain_spends_exact_budget(self):
        rng = np.random.default_rng(2)
        layers = {f"l{i}": rng.standard_normal(17) for i in range(4)}
        order = {f"l{i}": float(i) for i in range(4)}
        out = prune_network(layers, 0.6, order=order)
        zeroed = sum(int((~mask).sum()) for _, mask in out.values())
        assert zeroed == int(0.6 * 68)

    def test_order_must_cover_all_layers(self):
        with pytest.raises(ValueError, match="order lacks keys"):
            prune_network({"a": np.ones(3)}, 0.5, order={})

    def test_empty_network(self):
        assert prune_network({}, 0.5) == {}

    @pytest.mark.parametrize("order", [None, {"a": 1.0, "b": 3.0, "c": 2.0}],
                             ids=["magnitude", "drain-b-c-a"])
    def test_layers_come_back_in_input_order(self, order):
        rng = np.random.default_rng(4)
        layers = {name: rng.standard_normal(5) for name in "abc"}
        assert list(prune_network(layers, 0.5, order=order)) == list(layers)


def stable_argsort_prune(weights, fraction, order=None):
    """Reference pruning: drop the first k of a full stable argsort of the
    magnitudes, globally or layer by layer in descending order key."""
    budget = int(fraction * sum(w.size for w in weights.values()))
    names = list(weights)
    if order is None:
        mags = np.concatenate([np.abs(weights[nm]).ravel() for nm in names])
        keep = np.ones(mags.size, dtype=bool)
        keep[np.argsort(mags, kind="stable")[:budget]] = False
        cuts = np.cumsum([weights[nm].size for nm in names])[:-1]
        masks = dict(zip(names, np.split(keep, cuts)))
    else:
        masks = {}
        for nm in sorted(names, key=lambda n: (-order[n], n)):
            k = min(budget, weights[nm].size)
            keep = np.ones(weights[nm].size, dtype=bool)
            keep[np.argsort(np.abs(weights[nm].ravel()), kind="stable")[:k]] = False
            masks[nm] = keep
            budget -= k
    out = {}
    for nm in names:
        mask = masks[nm].reshape(weights[nm].shape)
        out[nm] = (np.where(mask, weights[nm], 0.0), mask)
    return out


def nan_with(bits):
    return np.array([bits], dtype=np.int64).view(np.float64)[0]


# quiet NaNs with a sign bit or a payload, beside the infinities and both zeros
ODD_FLOATS = [np.nan, -np.nan, nan_with(0x7FF8_0000_0000_0123), nan_with(-0x7_FFFF_FFFF_FFF7),
              np.inf, -np.inf, 0.0, -0.0]


def _layer_sets():
    odd = np.random.default_rng(7).standard_normal(48)
    odd[::3] = ODD_FLOATS * 2
    grid = np.round(np.random.default_rng(8).standard_normal((6, 5)), 1)
    rng = np.random.default_rng(5)
    normal = {f"l{i}": rng.standard_normal(n) for i, n in enumerate((7, 40, 1, 23))}
    special = {nm: w.copy() for nm, w in normal.items()}
    special["l1"][::3] = [np.nan, np.inf, -np.inf, -0.0, 0.0, np.nan, 0.0,
                          -0.0, np.inf, np.nan, -0.0, 0.0, np.nan, 1.0]
    return {
        "distinct": normal,
        "ties": {nm: np.round(w, 1) for nm, w in normal.items()},
        "zeros": {nm: np.where(np.abs(w) < 0.7, 0.0, np.round(w)) for nm, w in normal.items()},
        "special": special,
        "shaped": {"conv": np.round(rng.standard_normal((3, 2, 3, 3)), 1),
                   "fc": np.round(rng.standard_normal((4, 5)), 1)},
        "odd": {"a": odd[:20], "b": odd[20:].reshape(4, 7)},
        "all-tied": {"a": np.tile([1.5, -1.5], 9), "b": np.full((3, 4), -1.5),
                     "c": np.array([0.0, -0.0] * 5)},
        "strided": {"a": grid[:, ::2], "b": np.asfortranarray(grid)},
    }


LAYER_SETS = _layer_sets()


def fraction_for(k, n):
    """A fraction whose floor(fraction * n) is exactly k."""
    return 1.0 if k == n else (k + 0.5) / n


def assert_bit_identical(got, want):
    assert got.shape == want.shape and got.dtype == want.dtype
    assert got.tobytes() == want.tobytes()


class TestPruneAgainstStableArgsort:
    @pytest.mark.parametrize("name", LAYER_SETS)
    @pytest.mark.parametrize("order", [None, "distinct", "tied"])
    def test_network_matches_oracle(self, name, order):
        weights = LAYER_SETS[name]
        keys = {"distinct": {nm: float(i) for i, nm in enumerate(weights)},
                "tied": {nm: float(i % 2) for i, nm in enumerate(weights)}}.get(order)
        n = sum(w.size for w in weights.values())
        for k in (0, 1, 2, n // 2, n - 1, n):
            fraction = fraction_for(k, n)
            got = prune_network(weights, fraction, order=keys)
            want = stable_argsort_prune(weights, fraction, order=keys)
            assert set(got) == set(want)
            for nm in want:
                assert_bit_identical(got[nm][1], want[nm][1])
                assert_bit_identical(got[nm][0], want[nm][0])
            assert sum(int((~m).sum()) for _, m in got.values()) == k

    @pytest.mark.parametrize("name", LAYER_SETS)
    def test_magnitude_matches_oracle(self, name):
        for nm, w in LAYER_SETS[name].items():
            for k in sorted({0, 1, w.size // 3, w.size}):
                fraction = fraction_for(k, w.size)
                pruned, mask = prune_one(w, fraction)
                want_pruned, want_mask = stable_argsort_prune({nm: w}, fraction)[nm]
                assert_bit_identical(mask, want_mask)
                assert_bit_identical(pruned, want_pruned)


class TestPruneRules:
    """The budget, tie and drain rules that prune_network and the CLI compose,
    each against the stable-argsort oracle."""

    @pytest.mark.parametrize("fraction", [1.5, -0.1, float("nan"), float("inf")])
    def test_budget_rejects_fraction_outside_unit_interval(self, fraction):
        with pytest.raises(ValueError,
                           match=re.escape(f"fraction must be in [0, 1], got {fraction}")):
            _budget(fraction, 10)

    @pytest.mark.parametrize("fraction", [True, "0.5", None])
    def test_a_fraction_that_is_not_a_number_is_rejected(self, fraction):
        """A bool is not read as 0 or 1, and a string or None is a ValueError,
        not a TypeError from the comparison."""
        match = re.escape(f"fraction must be in [0, 1], got {fraction!r}") + "$"
        with pytest.raises(ValueError, match=match):
            _budget(fraction, 10)
        with pytest.raises(ValueError, match=match):
            prune_network({"a": [1.0, 2.0]}, fraction)

    def test_budget_floors(self):
        assert [_budget(f, 7) for f in (0.0, 0.5, 0.99, 1.0)] == [0, 3, 6, 7]

    @pytest.mark.parametrize("name", LAYER_SETS)
    def test_keep_mask_matches_oracle(self, name):
        weights = LAYER_SETS[name]
        mags = np.concatenate([np.abs(w).ravel() for w in weights.values()])
        for k in (0, 1, 2, mags.size // 2, mags.size - 1, mags.size):
            want = stable_argsort_prune(weights, fraction_for(k, mags.size))
            assert_bit_identical(_keep_mask(mags, k),
                                 np.concatenate([mask.ravel() for _, mask in want.values()]))

    @pytest.mark.parametrize("name", LAYER_SETS)
    @pytest.mark.parametrize("tied", [False, True])
    def test_drain_then_keep_mask_matches_oracle(self, name, tied):
        weights = LAYER_SETS[name]
        keys = {nm: float(i % 2 if tied else i) for i, nm in enumerate(weights)}
        sizes = {nm: w.size for nm, w in weights.items()}
        n = sum(sizes.values())
        for k in (0, 1, 2, n // 2, n - 1, n):
            want = stable_argsort_prune(weights, fraction_for(k, n), order=keys)
            lost = _drain(sizes, k, keys)
            assert list(lost) == sorted(weights, key=lambda nm: (-keys[nm], nm))
            for nm, w in weights.items():
                assert lost[nm] == int((~want[nm][1]).sum())
                assert_bit_identical(_keep_mask(np.abs(w).ravel(), lost[nm]),
                                     want[nm][1].ravel())

    def test_drain_needs_every_key(self):
        with pytest.raises(ValueError, match=re.escape("order lacks keys for layers ['b']")):
            _drain({"a": 2, "b": 3}, 1, {"a": 1.0})

    @pytest.mark.parametrize("key", [float("nan"), None, True, "2"],
                             ids=["nan", "None", "True", "str"])
    def test_drain_needs_a_number_for_every_key(self, key):
        # a NaN key left the order to the sizes' order: the largest key kept everything
        with pytest.raises(ValueError, match=re.escape(
                f"layer 'b': order must be a number, not NaN, got {key!r}") + "$"):
            _drain({"a": 2, "b": 2, "c": 2}, 3, {"a": 1.0, "b": key, "c": 2.0})

    def test_drain_takes_infinite_keys(self):
        inf = float("inf")
        assert _drain({"a": 2, "b": 2, "c": 2}, 3, {"a": -inf, "b": 1, "c": inf}) == {
            "c": 2, "b": 1, "a": 0}


class TestQuantizeUniform:
    def test_worked_example(self):
        out = quantize_uniform([-1.0, 0.3, 1.0], 2)
        np.testing.assert_allclose(out, [-1.0, 0.0, 1.0])

    def test_peak_maps_to_top_level(self):
        out = quantize_uniform([0.0, 0.5, 2.0], 8)
        assert out.max() == pytest.approx(2.0)

    def test_one_bit_clamps_to_sign_levels(self):
        out = quantize_uniform([-3.0, -0.4, 0.0, 0.4, 3.0], 1)
        assert set(np.round(out, 12)) <= {-3.0, 0.0, 3.0}

    def test_all_zero_stays_zero(self):
        np.testing.assert_array_equal(quantize_uniform(np.zeros(5), 4),
                                      np.zeros(5))

    def test_bits_bounds(self):
        with pytest.raises(ValueError, match="bits"):
            quantize_uniform([1.0], 0)
        with pytest.raises(ValueError, match="bits"):
            quantize_uniform([1.0], 17)

    @given(st.lists(st.floats(min_value=-100, max_value=100, allow_nan=False,
                              allow_subnormal=False), min_size=1, max_size=64),
           st.integers(min_value=1, max_value=16))
    @settings(deadline=None, max_examples=100)
    def test_idempotent(self, values, bits):
        once = quantize_uniform(values, bits)
        twice = quantize_uniform(once, bits)
        np.testing.assert_allclose(twice, once, atol=1e-9)

    @given(st.lists(st.floats(allow_nan=False, allow_infinity=False), max_size=31),
           NORMAL_MAGNITUDES, st.booleans(), st.integers(min_value=1, max_value=16))
    @settings(deadline=None, max_examples=300)
    def test_requantizing_a_normal_peak_is_bit_identical(self, values, peak, negative, bits):
        # the tensor's peak is at least the added normal magnitude
        once = quantize_uniform(values + [-peak if negative else peak], bits)
        assert_bit_identical(quantize_uniform(once, bits), once)

    def test_requantizing_a_subnormal_step_can_move_values(self):
        values = [-5e-323, -4.4e-323, -5e-323, -4e-323, -2.2e-322, 9e-323, 1e-323, 1e-323]
        once = quantize_uniform(values, 4)
        assert once[4] == -2.37e-322
        assert quantize_uniform(once, 4)[4] == -2.4e-322

    @given(st.lists(st.sampled_from([MAX_FLOAT, -MAX_FLOAT, 5e-324, -5e-324, 2.2e-308])
                    | st.floats(allow_nan=False, allow_infinity=False), min_size=1, max_size=32),
           st.integers(min_value=1, max_value=16))
    @example([MAX_FLOAT], 3)
    @example([5e-324, 0.0], 16)
    @settings(deadline=None, max_examples=300)
    def test_finite_input_gives_finite_output(self, values, bits):
        assert np.isfinite(quantize_uniform(values, bits)).all()

    def test_extreme_steps(self):
        # a step that underflows to zero leaves every value as it is
        assert_bit_identical(quantize_uniform([5e-324, -0.0], 16), np.array([5e-324, -0.0]))
        assert type(quantize_uniform(np.float64(-5e-324), 16)) is np.float64
        # a top level past the largest float takes the step one ulp lower
        assert quantize_uniform([MAX_FLOAT], 3).tolist() == [np.nextafter(MAX_FLOAT, 0.0)]


def reference_quantize(a, bits):
    """``round(a / d) * d`` with d the peak magnitude over the top level.
    Where that is not finite for finite input, ``extreme_step`` holds."""
    a = np.asarray(a, dtype=float)
    peak = float(np.max(np.abs(a))) if a.size else 0.0
    if peak == 0.0:
        return np.zeros_like(a)
    d = peak / max((1 << (bits - 1)) - 1, 1)
    return np.round(a / d) * d


QUANT_INPUTS = {
    "normal": np.random.default_rng(8).standard_normal(300),
    "odd": np.array(ODD_FLOATS + [1.0, -2.5, 3.25]),
    "nan-first": np.array([-np.nan, 1.0, -3.0]),
    "inf": np.array([-np.inf, 0.5, -0.0]),
    "negative-peak": np.array([-4.0, 1.0, -0.0, 3.0]),
    "zeros": np.array([0.0, -0.0, -0.0]),
    "empty": np.zeros(0),
    "fortran": np.asfortranarray(np.random.default_rng(9).standard_normal((5, 4))),
    "strided": np.arange(-10.0, 10.0)[::3],
}


def extreme_step(a, bits):
    """Whether a finite, nonzero peak's step underflows to zero or its top
    level overflows to inf: the inputs ``quantize_uniform`` keeps finite
    where ``reference_quantize`` gives NaN or inf."""
    a = np.asarray(a, dtype=float)
    peak = float(np.max(np.abs(a))) if a.size else 0.0
    if not 0.0 < peak < np.inf:  # False for a NaN peak
        return False
    levels = max((1 << (bits - 1)) - 1, 1)
    return peak / levels == 0.0 or levels * (peak / levels) == np.inf


@np.errstate(all="ignore")  # inf / inf and inf * 0 on infinite input
def quantized_pair(a, bits):
    return quantize_uniform(a, bits), reference_quantize(a, bits)


class TestQuantizeIsBitIdentical:
    """``quantize_uniform`` is ``reference_quantize`` bit for bit, except on
    the input ``extreme_step`` names, which ``TestQuantizeUniform`` covers."""

    @pytest.mark.parametrize("name", QUANT_INPUTS)
    @pytest.mark.parametrize("bits", [1, 2, 8, 16])
    def test_matches_round_of_quotient(self, name, bits):
        assert_bit_identical(*quantized_pair(QUANT_INPUTS[name], bits))

    @pytest.mark.parametrize("value", [2.5, -0.0, -np.nan, -np.inf])
    def test_scalar(self, value):
        got, want = quantized_pair(value, 4)
        assert type(got) is type(want)
        assert np.float64(got).view(np.int64) == np.float64(want).view(np.int64)

    @given(st.lists(st.floats(allow_nan=True, allow_infinity=True), max_size=32),
           st.integers(min_value=1, max_value=16))
    @settings(deadline=None, max_examples=200)
    def test_property(self, values, bits):
        assume(not extreme_step(values, bits))
        assert_bit_identical(*quantized_pair(np.array(values, dtype=float), bits))


class TestCodec:
    def test_byte_frozen_encoding(self):
        # (run 3, value 5) -> 00011 0000000000000101 padded to 24 bits
        assert rle_encode([0, 0, 0, 5]) == b"\x18\x00\x28"

    def test_pair_counts(self):
        assert rle_pair_count([0, 0, 0, 5]) == 1
        assert rle_pair_count([0] * 35 + [7]) == 2
        assert rle_pair_count([0] * 64) == 2
        assert rle_pair_count([1, 2]) == 2
        assert rle_pair_count([]) == 0

    def test_round_trip_worked_cases(self):
        for words in ([], [0], [5], [0, 0, 0, 5], [0] * 33, [0] * 64,
                      [65535, 0, 65535], list(range(40)), [7] + [0] * 31):
            assert rle_decode(rle_encode(words)) == list(words)

    def test_compression_ratios(self):
        assert compression_ratio([0] * 64) == pytest.approx(1024 / 42)
        assert compression_ratio([1, 2]) == pytest.approx(16 / 21)
        with pytest.raises(CodecError, match="empty"):
            compression_ratio([])

    def test_decode_rejects_truncation(self):
        with pytest.raises(CodecError, match="truncated"):
            rle_decode(b"\xff")

    # bytes() would read an int as that many zero bytes and a list of ints as
    # those bytes, so anything but a byte stream is refused by its type
    @pytest.mark.parametrize("data", [21, np.int64(21), [0, 0, 0], [300], "abc", None])
    def test_decode_takes_only_a_byte_stream(self, data):
        for fn in (rle_decode, rle_word_count):
            with pytest.raises(CodecError) as info:
                fn(data)
            assert str(info.value) == f"a stream must be bytes, got {type(data).__name__}"

    def test_decode_takes_bytearray_and_memoryview(self):
        data = rle_encode([0, 0, 7, 0, MAX_VALUE])
        for stream in (data, bytearray(data), memoryview(data)):
            assert rle_decode(stream) == [0, 0, 7, 0, MAX_VALUE]
            assert rle_word_count(stream) == 5

    def test_decode_rejects_dirty_padding(self):
        dirty = bytearray(rle_encode([0, 0, 0, 5]))
        dirty[-1] |= 0x01
        with pytest.raises(CodecError, match="padding"):
            rle_decode(bytes(dirty))

    def test_word_validation(self):
        for bad in ([65536], [-1], [1.5]):
            with pytest.raises(CodecError, match="integers"):
                rle_encode(bad)

    def test_first_bad_word_is_named(self):
        for words, bad in (([0, 65536, "a"], 65536), ([0, "a", 65536], "a"),
                           ([1, 2**70, -1], 2**70)):
            for fn in (rle_encode, rle_pair_count, compression_ratio):
                with pytest.raises(CodecError) as info:
                    fn(words)
                assert str(info.value) == \
                    f"stream words must be integers in [0, {MAX_VALUE}], got {bad!r}"

    @pytest.mark.parametrize("fn, words", [(rle_encode, iter([1, 2, 3])),
                                           (rle_pair_count, (x for x in [0, 5])),
                                           (compression_ratio, iter([1]))],
                             ids=["encode", "pair_count", "ratio"])
    def test_one_shot_iterable_rejected(self, fn, words):
        with pytest.raises(CodecError, match="stream words must be a sequence, got"):
            fn(words)

    def test_relu_like_stream_compresses(self):
        rng = np.random.default_rng(3)
        words = [int(v) if rng.random() > 0.7 else 0
                 for v in rng.integers(1, 65536, size=4096)]
        ratio = compression_ratio(words)
        assert ratio > 1.5
        assert rle_decode(rle_encode(words)) == words

    @given(word_lists)
    @settings(deadline=None, max_examples=200)
    def test_round_trip_property(self, words):
        encoded = rle_encode(words)
        assert rle_decode(encoded) == words
        if words:
            pairs = rle_pair_count(words)
            assert len(encoded) == (21 * pairs + 7) // 8
            assert pairs <= len(words)  # never more pairs than words


def assert_codec_matches_scan(words):
    """The codec accepts exactly the words the per-word type scan of the
    reference accepts, and rejects the rest with the reference's message."""
    try:
        want = reference_rle_encode(words)
    except CodecError as exc:
        for fn in (rle_encode, rle_pair_count, compression_ratio):
            with pytest.raises(CodecError) as info:
                fn(words)
            assert str(info.value) == str(exc)
    else:
        assert rle_encode(words) == want
        assert rle_pair_count(words) == reference_rle_pair_count(words)


class TestCodecAgainstReference:
    @given(run_streams)
    @settings(deadline=None, max_examples=300)
    @example([0] * 31)
    @example([0] * 32)
    @example([0] * 33)
    @example([0] * 63)
    @example([0] * 64)
    @example([0] * 65)
    @example([0] * 33 + [9])
    @example([9] + [0] * 65)
    @example([0] * 64 + [9] + [0] * 32 + [9] + [0] * 31)
    @example([MAX_VALUE] * 9)
    @example([MAX_VALUE, 0, MAX_VALUE])
    def test_matches_reference(self, words):
        assert rle_encode(words) == reference_rle_encode(words)
        assert rle_pair_count(words) == reference_rle_pair_count(words)

    @pytest.mark.parametrize("value", HOSTILE_WORDS, ids=repr)
    def test_hostile_word(self, value):
        assert_codec_matches_scan([0, 5, value, 0])


class TestCodecInputTypes:
    @given(mixed_words)
    @settings(deadline=None, max_examples=300)
    @example([np.int64(1), np.uint64(2)])
    @example([np.uint64(2**64 - 1), np.int64(1)])
    @example([True, np.uint64(5), 0])
    @example([2**63, 1])
    @example([-1, 2**64])
    def test_mixed_lists_match_the_scan(self, words):
        assert_codec_matches_scan(words)

    @given(st.sampled_from(["i1", "u1", "i2", "u2", "i4", "u4", "i8", "u8"]).flatmap(
        lambda dtype: hnp.arrays(dtype, st.integers(min_value=0, max_value=40))))
    @settings(deadline=None, max_examples=200)
    def test_integer_arrays_match_the_scan(self, arr):
        assert_codec_matches_scan(arr)
        if arr.size and arr.min() >= 0 and arr.max() <= MAX_VALUE:
            np.testing.assert_array_equal(_pair_codes(arr), _pair_codes(arr.tolist()))

    @pytest.mark.parametrize("arr", [np.array([0, 1], dtype=bool), np.array([0.0, 1.0]),
                                     np.array([[0, 1]]), np.array([0, 1], dtype=object),
                                     np.array([1, 2**70], dtype=object)],
                             ids=["bool", "float", "2-d", "object", "object-huge"])
    def test_other_arrays_match_the_scan(self, arr):
        assert_codec_matches_scan(arr)

    def test_array_is_not_copied_or_scanned(self, monkeypatch):
        want = rle_encode([0, 0, 7, 0])

        def refuse(*args):
            raise AssertionError("the list path ran")

        monkeypatch.setattr(np, "fromiter", refuse)  # the list path's conversion
        monkeypatch.setattr(dc.optkit, "map", refuse, raising=False)  # and its type scan
        assert rle_encode(np.array([0, 0, 7, 0], dtype=np.int64)) == want

    def test_word_error_without_a_bad_word(self):
        # the caller found a bad word; a scan that finds none still gives an error
        assert str(_word_error([0, 1])) == f"stream words must be integers in [0, {MAX_VALUE}]"
        assert str(_word_error([0, -1])) == \
            f"stream words must be integers in [0, {MAX_VALUE}], got -1"


class TestCodecHostileInput:
    @given(st.binary(max_size=200))
    @settings(deadline=None, max_examples=300)
    def test_arbitrary_bytes(self, data):
        try:
            words = rle_decode(data)
        except CodecError:
            return
        assert rle_decode(rle_encode(words)) == words

    @pytest.mark.parametrize("leftover", range(1, 8))
    def test_dirty_pad_bits_rejected(self, leftover):
        length = next(n for n in range(1, 22) if 8 * n % 21 == leftover)
        assert rle_decode(bytes(length)) == [0] * (8 * length // 21)
        for bit in range(leftover):
            dirty = bytes(length - 1) + bytes([1 << bit])
            with pytest.raises(CodecError, match="padding"):
                rle_decode(dirty)
        # the bit above the padding belongs to the last pair's literal
        assert rle_decode(bytes(length - 1) + bytes([1 << leftover]))[-1] == 1

    def test_empty_stream(self):
        assert rle_decode(b"") == []
        assert rle_word_count(b"") == 0

    @given(st.binary(max_size=200))
    @settings(deadline=None, max_examples=300)
    def test_word_count_is_the_decoded_length(self, data):
        try:
            words = rle_decode(data)
        except CodecError as exc:
            with pytest.raises(CodecError, match=f"^{re.escape(str(exc))}$"):
                rle_word_count(data)
        else:
            assert rle_word_count(data) == len(words)

    def test_word_count_of_filler_pairs(self):
        # 256 zeros encode as 8 (31, 0) pairs, exactly 21 bytes
        filler = rle_encode([0] * 256)
        assert len(filler) == 21
        assert rle_word_count(filler * 12_500) == 3_200_000

    def test_million_word_round_trip(self):
        rng = np.random.default_rng(4)
        values = rng.integers(1, 65536, size=1 << 20)
        values[rng.random(values.size) < 0.7] = 0
        words = values.tolist()
        assert rle_decode(rle_encode(words)) == words


class TestPackageSurface:
    def test_reexports(self):
        assert dc.rle_encode is rle_encode
        assert dc.CodecError is CodecError
