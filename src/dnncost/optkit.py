"""Approximation toolkit: pruning, quantization, sparse-stream compression.

Pruned copies are made by a branch-free select: each weight's float64 bits
are ANDed with all ones where it is kept and with zero where it is dropped,
so the copies are bit for bit ``np.where(keep, weights, 0.0)`` without a
branch per weight for a random mask to mispredict.

The compression codec targets post-activation streams, which are mostly
zeros: each encoded pair is a 5-bit zero-run length (0..31) followed by one
16-bit literal, packed big-endian and zero-padded to a byte boundary. A pair
is 21 bits, so a dense stream expands by at most 21/16 while a zero run of
up to 32 words collapses into one pair.

Both directions are array operations. The encoder turns a gap of g zeros
before a literal into g >> 5 filler (31, 0) pairs of 32 zeros each and the
literal with run g & 31, then bit-packs the 21-bit codes with numpy. Words
must come as a sequence, not a one-shot iterator: they are read repeatedly.
"""

from __future__ import annotations

import math
from typing import Sequence

import numpy as np

from .netmodel import (MAX_RUN, MAX_VALUE, PAIR_BITS, RUN_BITS, VALUE_BITS, _budget, _drain,
                       _require_int)


def _keep_mask(mags: np.ndarray, k: int) -> np.ndarray:
    """Mask over the 1-D ``mags`` that is False at its k smallest entries.

    The tie rule of every prune: the k smallest are the first k of a stable
    argsort, that is every entry below the k-th value, then the lowest-index
    ties at that value, with NaN last.
    """
    if k == 0:
        return np.ones(mags.size, dtype=bool)
    kth = np.partition(mags, k - 1)[k - 1]
    if np.isnan(kth):  # a sort puts NaN last, after every number
        keep = tied = np.isnan(mags)
    else:
        keep, tied = ~(mags < kth), mags == kth  # `mags >= kth` would drop NaN
    below = mags.size - np.count_nonzero(keep)
    keep[np.flatnonzero(tied)[:k - below]] = False
    return keep


def _masked(arr: np.ndarray, keep: np.ndarray):
    """A copy of the float64 ``arr`` that is +0.0 where ``keep`` is False,
    and ``keep`` in ``arr``'s shape. The copy is the branch-free select of
    the module docstring: bit for bit ``np.where(keep, arr, 0.0)``, -0.0,
    infinities and NaN payloads included.
    """
    keep = keep.reshape(arr.shape)
    bits = keep.astype(np.int64)
    np.negative(bits, out=bits)  # 1 -> all ones; `out` keeps a 0-d result an array
    bits &= arr.view(np.int64)
    return bits.view(np.float64), keep


def prune_network(layer_weights: dict[str, np.ndarray], fraction: float,
                  order: dict[str, float] | None = None):
    """Prune a per-layer weight dictionary to a global fraction.

    With ``order`` absent, magnitudes compete globally across all layers.
    With ``order`` given (for example energy per weight from an energy
    report), layers are drained greedily in descending key order: the most
    expensive layers lose their smallest weights first until the global
    budget floor(fraction * total) is spent. Either way the result maps each
    layer, in the order of ``layer_weights``, to its ``_masked`` pair.
    """
    arrays = {name: np.asarray(w, dtype=float) for name, w in layer_weights.items()}
    sizes = {name: a.size for name, a in arrays.items()}
    budget = _budget(fraction, sum(sizes.values()))
    if order is not None:
        lost = _drain(sizes, budget, order)
        keeps = (np.full(a.size, not lost[name]) if lost[name] in (0, a.size)  # whole or empty
                 else _keep_mask(np.abs(a).reshape(-1), lost[name])
                 for name, a in arrays.items())
    else:
        # every layer's magnitudes, written into one buffer in layer order
        bounds = np.cumsum([0, *sizes.values()])
        mags = np.empty(bounds[-1])
        for a, begin, end in zip(arrays.values(), bounds, bounds[1:]):
            np.abs(a, out=mags[begin:end].reshape(a.shape))
        keeps = np.split(_keep_mask(mags, budget), bounds[1:-1])
        del mags  # before the pruned copies, so that it does not raise the peak
    return {name: _masked(a, keep) for (name, a), keep in zip(arrays.items(), keeps)}


def quantize_uniform(tensor, bits: int) -> np.ndarray:
    """Symmetric uniform quantization to 2**(bits-1) - 1 magnitude levels.

    The step is the peak magnitude over the level count, so the peak maps to
    the top level, whose value may differ from the peak in the last bit:
    [7.37] at 4 bits gives 7.370000000000001. For a normal peak, requantizing
    keeps every value on its level, bit for bit. A subnormal step keeps only a
    few significant bits, so its top level can miss the peak by far more than
    one ulp, and requantizing can move values: at 4 bits, a peak of -2.2e-322
    maps to -2.37e-322, which maps to -2.4e-322. An all-zero tensor stays all
    zero. At bits = 1 the
    level count degenerates; it is clamped to one level, leaving outputs in
    {-peak, 0, +peak}. Finite input gives finite output: a step that
    underflows to zero returns the values as they are, each its own nearest
    level, and a step whose top level would overflow is taken one ulp lower.
    """
    _require_int(bits, 1, "", "bits", ValueError, 16)
    arr = np.asarray(tensor, dtype=float)
    # the largest magnitude without an array of magnitudes; a NaN peak is
    # taken from the magnitudes, since NaN outputs carry its sign and payload
    peak = float(max(arr.max(), -arr.min())) if arr.size else 0.0
    if np.isnan(peak):
        peak = float(np.max(np.abs(arr)))
    if peak == 0.0:
        return np.zeros_like(arr)
    levels = max((1 << (bits - 1)) - 1, 1)
    delta = peak / levels
    if delta == 0.0:  # a subnormal peak: the step is below the float spacing
        return arr * 1.0  # a copy, and a scalar for a 0-d tensor as below
    if math.isinf(levels * delta) and not math.isinf(peak):  # delta rounded up
        delta = math.nextafter(delta, 0.0)
    out = arr / delta
    if not out.ndim:  # a 0-d tensor divides to a scalar, which has no buffer
        return np.round(out) * delta
    np.round(out, out=out)  # round(arr / delta) * delta, in the quotient's buffer
    out *= delta
    return out


class CodecError(ValueError):
    """Invalid source words or a corrupt encoded stream."""


def _word_error(words) -> CodecError:
    """The error naming the first word that is not an integer in
    [0, MAX_VALUE]; without such a word, one naming none."""
    message = f"stream words must be integers in [0, {MAX_VALUE}]"
    for value in words:
        if not isinstance(value, (int, np.integer)) or not 0 <= value <= MAX_VALUE:
            return CodecError(f"{message}, got {value!r}")
    return CodecError(message)


def _pair_codes(words: Sequence[int]) -> np.ndarray:
    """Validate the words and return their pair codes, run << 16 | value.

    A 1-D integer ndarray is taken as it is: its words are all numpy
    integers, so only their range is checked. Any other sequence has each
    word's type checked before numpy converts it, because numpy would also
    convert a float, a numpy bool or a 0-d array that the codec rejects.
    """
    try:
        n = len(words)
    except TypeError:
        raise CodecError(f"stream words must be a sequence, got {type(words).__name__}") from None
    if type(words) is np.ndarray and words.ndim == 1 and words.dtype.kind in "iu":
        arr = words.astype(np.int64, copy=False)  # a uint64 past int64 wraps negative
    elif not all(issubclass(t, (int, np.integer)) for t in set(map(type, words))):
        raise _word_error(words)
    else:
        try:
            arr = np.fromiter(words, np.int64, count=n)
        except OverflowError:  # beyond int64
            raise _word_error(words) from None
    if n and (arr.min() < 0 or arr.max() > MAX_VALUE):
        raise _word_error(words)
    literals = np.flatnonzero(arr != 0)  # numpy scans a bool array without a branch per word
    if n and not arr[-1]:  # trailing zeros end in a literal zero
        literals = np.append(literals, n - 1)
    gaps = np.diff(literals, prepend=-1) - 1
    ends = np.cumsum((gaps >> RUN_BITS) + 1)
    codes = np.full(ends[-1] if n else 0, MAX_RUN << VALUE_BITS, dtype=np.int64)
    codes[ends - 1] = ((gaps & MAX_RUN) << VALUE_BITS) | arr[literals]
    return codes


def _pack(codes: np.ndarray) -> bytes:
    """Bit-pack 21-bit pair codes big-endian, zero-padded to a byte boundary."""
    octets = codes.astype(">u4").view(np.uint8).reshape(-1, 4)
    bits = np.unpackbits(octets, axis=1)[:, 32 - PAIR_BITS:]
    return np.packbits(bits).tobytes()


def _ratio(pairs: int, length: int) -> float:
    if not pairs:
        raise CodecError("ratio undefined for an empty stream")
    return (VALUE_BITS * length) / (PAIR_BITS * pairs)


def rle_pair_count(words: Sequence[int]) -> int:
    return _pair_codes(words).size


def rle_encode(words: Sequence[int]) -> bytes:
    """Encode 16-bit words into the bit-packed run-length stream."""
    return _pack(_pair_codes(words))


def _pairs(data: bytes) -> np.ndarray:
    """The 21-bit pairs of a packed stream. Rejects dangling or dirty pad bits."""
    if not isinstance(data, (bytes, bytearray, memoryview)):
        raise CodecError(f"a stream must be bytes, got {type(data).__name__}")
    data = bytes(data)
    npairs, leftover = divmod(8 * len(data), PAIR_BITS)
    if leftover >= 8:
        raise CodecError(f"truncated pair: {leftover} dangling bits")
    if leftover and data[-1] & ((1 << leftover) - 1):
        raise CodecError("nonzero padding bits")
    # one big-endian 4-byte window per byte offset; pair i starts at bit 21 i
    windows = np.ndarray(len(data), dtype=">u4", buffer=data + bytes(3), strides=(1,))
    start = np.arange(npairs, dtype=np.int64) * PAIR_BITS
    window = windows[start >> 3].astype(np.int64)
    return (window >> (32 - PAIR_BITS - (start & 7))) & ((1 << PAIR_BITS) - 1)


def rle_word_count(data: bytes) -> int:
    """Words ``rle_decode(data)`` returns, counted from the pairs alone."""
    pairs = _pairs(data)
    return pairs.size + int((pairs >> VALUE_BITS).sum())


def _word_array(data: bytes) -> np.ndarray:
    """The int64 words of a packed stream. Rejects dangling or dirty pad bits."""
    pairs = _pairs(data)
    # each pair is `run` zeros then its literal
    ends = np.cumsum((pairs >> VALUE_BITS) + 1)
    words = np.zeros(int(ends[-1]) if ends.size else 0, dtype=np.int64)
    words[ends - 1] = pairs & MAX_VALUE
    return words


def rle_decode(data: bytes) -> list[int]:
    """Invert rle_encode. Rejects streams with dangling or dirty pad bits."""
    return _word_array(data).tolist()


def compression_ratio(words: Sequence[int]) -> float:
    """Raw bits over encoded pair bits; byte padding is not charged."""
    return _ratio(rle_pair_count(words), len(words))  # words checked before len()
