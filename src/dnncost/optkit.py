"""Approximation toolkit: pruning, quantization, sparse-stream compression.

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

from dataclasses import dataclass
from typing import Sequence

import numpy as np

PAIR_BITS = 21
RUN_BITS = 5
VALUE_BITS = 16
MAX_RUN = (1 << RUN_BITS) - 1
MAX_VALUE = (1 << VALUE_BITS) - 1


@dataclass(frozen=True)
class SparseStats:
    elements: int
    zeros: int

    @property
    def density(self) -> float:
        return 1.0 if self.elements == 0 else 1.0 - self.zeros / self.elements


def sparse_stats(tensor) -> SparseStats:
    arr = np.asarray(tensor)
    return SparseStats(elements=arr.size, zeros=int(np.count_nonzero(arr == 0)))


def _smallest(mags: np.ndarray, k: int) -> np.ndarray:
    """Flat indices of the k smallest entries of the 1-D ``mags``.

    The set equals the first k of a stable argsort: every index below the
    k-th value, then the lowest-index ties at that value.
    """
    if k == 0:
        return np.empty(0, dtype=np.intp)
    kth = np.partition(mags, k - 1)[k - 1]
    if np.isnan(kth):  # a sort puts NaN last, after every number
        before, tied = ~np.isnan(mags), np.isnan(mags)
    else:
        before, tied = mags < kth, mags == kth
    below = np.flatnonzero(before)
    return np.concatenate((below, np.flatnonzero(tied)[:k - below.size]))


def _keep_mask(mags: np.ndarray, k: int) -> np.ndarray:
    """Mask over the 1-D ``mags`` that is False at its k smallest entries."""
    mask = np.ones(mags.size, dtype=bool)
    mask[_smallest(mags, k)] = False
    return mask


def prune_magnitude(weights, fraction: float):
    """Zero the floor(fraction * n) smallest-magnitude weights.

    Ties break toward the lower flat index. Returns the pruned copy and the
    boolean keep-mask.
    """
    if not 0.0 <= fraction <= 1.0:
        raise ValueError(f"fraction must be in [0, 1], got {fraction}")
    arr = np.asarray(weights, dtype=float)
    mask = _keep_mask(np.abs(arr).reshape(-1), int(fraction * arr.size)).reshape(arr.shape)
    return np.where(mask, arr, 0.0), mask


def prune_network(layer_weights: dict[str, np.ndarray], fraction: float,
                  order: dict[str, float] | None = None):
    """Prune a per-layer weight dictionary to a global fraction.

    With ``order`` absent, magnitudes compete globally across all layers.
    With ``order`` given (for example energy per weight from an energy
    report), layers are drained greedily in descending key order: the most
    expensive layers lose their smallest weights first until the global
    budget floor(fraction * total) is spent.
    """
    if not 0.0 <= fraction <= 1.0:
        raise ValueError(f"fraction must be in [0, 1], got {fraction}")
    arrays = {name: np.asarray(w, dtype=float) for name, w in layer_weights.items()}
    total = sum(a.size for a in arrays.values())
    budget = int(fraction * total)
    out: dict[str, tuple[np.ndarray, np.ndarray]] = {}

    if order is None:
        if not arrays:
            return out
        mask = _keep_mask(np.concatenate([np.abs(a).reshape(-1) for a in arrays.values()]),
                          budget)
        offset = 0
        for name, a in arrays.items():
            m = mask[offset:offset + a.size].reshape(a.shape)
            out[name] = (np.where(m, a, 0.0), m)
            offset += a.size
        return out

    missing = set(arrays) - set(order)
    if missing:
        raise ValueError(f"order lacks keys for layers {sorted(missing)}")
    remaining = budget
    # descending key; name breaks ties deterministically
    for name in sorted(arrays, key=lambda nm: (-order[nm], nm)):
        a = arrays[name]
        k = min(remaining, a.size)
        mask = _keep_mask(np.abs(a).reshape(-1), k).reshape(a.shape)
        out[name] = (np.where(mask, a, 0.0), mask)
        remaining -= k
    return out


def quantize_uniform(tensor, bits: int) -> np.ndarray:
    """Symmetric uniform quantization to 2**(bits-1) - 1 magnitude levels.

    The peak magnitude maps exactly to the top level, so requantizing a
    quantized tensor is the identity. An all-zero tensor stays all zero.
    At bits = 1 the level count degenerates; it is clamped to one level,
    leaving outputs in {-peak, 0, +peak}.
    """
    if not 1 <= bits <= 16:
        raise ValueError(f"bits must be in [1, 16], got {bits}")
    arr = np.asarray(tensor, dtype=float)
    peak = float(np.max(np.abs(arr))) if arr.size else 0.0
    if peak == 0.0:
        return np.zeros_like(arr)
    levels = max((1 << (bits - 1)) - 1, 1)
    delta = peak / levels
    return np.round(arr / delta) * delta


class CodecError(ValueError):
    """Invalid source words or a corrupt encoded stream."""


def _word_error(words) -> CodecError:
    value = next(v for v in words
                 if not isinstance(v, (int, np.integer)) or not 0 <= v <= MAX_VALUE)
    return CodecError(f"stream words must be integers in [0, {MAX_VALUE}], got {value!r}")


def _pair_codes(words: Sequence[int]) -> np.ndarray:
    """Validate the words and return their pair codes, run << 16 | value."""
    try:
        n = len(words)
    except TypeError:
        raise CodecError(f"stream words must be a sequence, got {type(words).__name__}") from None
    if not all(issubclass(t, (int, np.integer)) for t in set(map(type, words))):
        raise _word_error(words)
    try:
        arr = np.fromiter(words, np.int64, count=n)
    except OverflowError:  # beyond int64
        raise _word_error(words) from None
    if n and (arr.min() < 0 or arr.max() > MAX_VALUE):
        raise _word_error(words)
    literals = np.flatnonzero(arr)
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


def rle_decode(data: bytes) -> list[int]:
    """Invert rle_encode. Rejects streams with dangling or dirty pad bits."""
    data = bytes(data)
    npairs, leftover = divmod(8 * len(data), PAIR_BITS)
    if leftover >= 8:
        raise CodecError(f"truncated pair: {leftover} dangling bits")
    if leftover and data[-1] & ((1 << leftover) - 1):
        raise CodecError("nonzero padding bits")
    if not npairs:
        return []
    # one big-endian 4-byte window per byte offset; pair i starts at bit 21 i
    windows = np.ndarray(len(data), dtype=">u4", buffer=data + bytes(3), strides=(1,))
    start = np.arange(npairs, dtype=np.int64) * PAIR_BITS
    window = windows[start >> 3].astype(np.int64)
    pairs = (window >> (32 - PAIR_BITS - (start & 7))) & ((1 << PAIR_BITS) - 1)
    # each pair is `run` zeros then its literal
    ends = np.cumsum((pairs >> VALUE_BITS) + 1)
    words = np.zeros(int(ends[-1]), dtype=np.int64)
    words[ends - 1] = pairs & MAX_VALUE
    return words.tolist()


def compression_ratio(words: Sequence[int]) -> float:
    """Raw bits over encoded pair bits; byte padding is not charged."""
    return _ratio(rle_pair_count(words), len(words))  # words checked before len()
