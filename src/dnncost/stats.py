"""Storage and compute tallies: per layer and per network, and the scalar
multiplications of each convolution transform.

Conventions: one MAC is one multiply-accumulate. A layer's counts are its
``ResolvedLayer.stats``, a ``LayerStats`` taken at its batch size: MACs and
the feature-map volumes grow with the batch, weights do not. Pool, act,
concat, and add layers carry zero weights and zero MACs.

``mult_count`` estimates the multiplications of the transforms that
``kernels`` implements from the problem size alone, so it needs no arrays
and this module imports no numpy.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import NamedTuple

from .names import MULT_METHODS
from .netmodel import WEIGHTED_KINDS, LayerStats, ResolvedLayer, ResolvedNetwork


@dataclass(frozen=True)
class NetworkStats:
    """Per-layer rows (conv and fc only) plus subtotals and grand totals."""

    network: str
    batch: int
    layers: tuple[LayerStats, ...]
    conv_layers: int
    conv_weights: int
    conv_macs: int
    fc_layers: int
    fc_weights: int
    fc_macs: int

    @property
    def total_weights(self) -> int:
        return self.conv_weights + self.fc_weights

    @property
    def total_macs(self) -> int:
        return self.conv_macs + self.fc_macs


def layer_stats(layer: ResolvedLayer) -> LayerStats:
    """Storage and compute counts for one resolved layer: ``layer.stats``."""
    return layer.stats


def network_stats(net: ResolvedNetwork) -> NetworkStats:
    """Aggregate counts over a resolved network.

    Only conv and fc layers appear in the per-layer list; everything else is
    zero cost and would only pad the report.
    """
    rows = tuple(layer.stats for layer in net.layers if layer.kind in WEIGHTED_KINDS)
    conv = [r for r in rows if r.kind == "conv"]
    fc = [r for r in rows if r.kind == "fc"]
    return NetworkStats(
        network=net.name,
        batch=net.batch,
        layers=rows,
        conv_layers=len(conv),
        conv_weights=sum(r.weights for r in conv),
        conv_macs=sum(r.macs for r in conv),
        fc_layers=len(fc),
        fc_weights=sum(r.weights for r in fc),
        fc_macs=sum(r.macs for r in fc),
    )


# multiplications per 2x2 output tile: elementwise product of two 4x4 tiles
WINOGRAD_TILE_MULTS = 16
# the same tile computed directly: 4 outputs x 9 taps
DIRECT_TILE_MULTS = 36


def next_pow2(n: int) -> int:
    """Smallest power of two >= n."""
    if n < 1:
        raise ValueError(f"need a positive size, got {n}")
    return 1 << (n - 1).bit_length()


class MultCount(NamedTuple):
    """Scalar multiplication count of one method at one problem size."""

    method: str
    count: int
    params: dict


# largest size mult_count accepts, so that every count stays far below the
# 4,300 digits Python converts an int to a string with
MAX_COUNT_SIZE = 1 << 20


def mult_count(method: str, out_size: int | None = None,
               filter_size: int | None = None,
               matrix_size: int | None = None) -> MultCount:
    """Multiplication-count estimate for one transform method.

    Convolution methods (direct, im2col, fft, winograd) take a square output
    size No and filter size Nf; winograd is the 3x3, 2x2-tile variant only.
    Strassen takes a power-of-two matrix size N. No size may exceed
    MAX_COUNT_SIZE, and a size the method does not read is an error.
    """
    if method not in MULT_METHODS:
        raise ValueError(f"unknown method {method!r}; choose from {MULT_METHODS}")
    if method != "strassen" and matrix_size is not None:
        raise ValueError("matrix_size needs method 'strassen'")

    if method == "strassen":
        for name, value in (("out_size", out_size), ("filter_size", filter_size)):
            if value is not None:
                raise ValueError(f"{name} needs a convolution method")
        if matrix_size is None or matrix_size < 1 or matrix_size & (matrix_size - 1):
            raise ValueError("strassen needs a power-of-two matrix_size")
        if matrix_size > MAX_COUNT_SIZE:
            raise ValueError(f"strassen matrix_size must be <= {MAX_COUNT_SIZE}")
        exponent = matrix_size.bit_length() - 1
        return MultCount(method=method, count=7 ** exponent,
                         params={"matrix_size": matrix_size})

    if out_size is None or filter_size is None or out_size < 1 or filter_size < 1:
        raise ValueError(f"{method} needs positive out_size and filter_size")
    if max(out_size, filter_size) > MAX_COUNT_SIZE:
        raise ValueError(f"{method} out_size and filter_size must be <= {MAX_COUNT_SIZE}")
    direct = out_size * out_size * filter_size * filter_size
    params = {"out_size": out_size, "filter_size": filter_size}
    if method in ("direct", "im2col"):
        # the lowering reorders the same multiplications, it removes none
        return MultCount(method=method, count=direct, params=params)
    if method == "fft":
        n = next_pow2(out_size + filter_size - 1)
        count = 3 * n * n * (n.bit_length() - 1) + n * n
        return MultCount(method=method, count=count, params={**params, "fft_size": n})
    # winograd, fixed 2.25x reduction of the 3x3 direct count
    if filter_size != 3:
        raise ValueError("winograd count is defined for 3x3 filters only")
    count = direct * WINOGRAD_TILE_MULTS // DIRECT_TILE_MULTS
    return MultCount(method=method, count=count, params=params)
