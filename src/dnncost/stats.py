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

from collections import namedtuple
from dataclasses import dataclass, field

from .netmodel import (MULT_METHODS, MULT_SIZES, WEIGHTED_KINDS, LayerStats, ResolvedLayer,
                       ResolvedNetwork, _require_int)


@dataclass(frozen=True)
class NetworkStats:
    """Per-layer rows plus subtotals and grand totals. The constructor derives
    the conv and fc subtotals from the rows, so a report built by hand or by
    ``dataclasses.replace`` is totalled from its own rows."""

    network: str
    batch: int
    layers: tuple[LayerStats, ...]
    conv_layers: int = field(init=False)
    conv_weights: int = field(init=False)
    conv_macs: int = field(init=False)
    fc_layers: int = field(init=False)
    fc_weights: int = field(init=False)
    fc_macs: int = field(init=False)

    def __post_init__(self):
        for kind in WEIGHTED_KINDS:
            rows = [r for r in self.layers if r.kind == kind]
            object.__setattr__(self, f"{kind}_layers", len(rows))
            object.__setattr__(self, f"{kind}_weights", sum(r.weights for r in rows))
            object.__setattr__(self, f"{kind}_macs", sum(r.macs for r in rows))

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
    return NetworkStats(net.name, net.batch, tuple(layer.stats for layer, _ in net.weighted))


# multiplications per 2x2 output tile: elementwise product of two 4x4 tiles
WINOGRAD_TILE_MULTS = 16
# the same tile computed directly: 4 outputs x 9 taps
DIRECT_TILE_MULTS = 36


def next_pow2(n: int) -> int:
    """Smallest power of two >= n."""
    _require_int(n, 1, "", "n", ValueError)
    return 1 << (n - 1).bit_length()


class MultCount(namedtuple("MultCount", "method count params")):
    """Scalar multiplication count of one method at one problem size, given
    as the dict ``params``."""

    __slots__ = ()


# largest size mult_count accepts, so that every count stays far below the
# 4,300 digits Python converts an int to a string with
MAX_COUNT_SIZE = 1 << 20


def mult_count(method: str, out_size: int | None = None,
               filter_size: int | None = None,
               matrix_size: int | None = None) -> MultCount:
    """Multiplication-count estimate for one transform method.

    Convolution methods (direct, im2col, fft, winograd) take a square output
    size No and filter size Nf; winograd is the 3x3, 2x2-tile variant only,
    counted for an even No: at an odd No, conv_winograd_f22_33 pads to whole
    tiles and forms ceil(No/2)^2 * 16 products, more than this count. fft
    transforms at fft_size, the power of two >= No + Nf - 1 that conv_fft
    uses. Strassen takes a power-of-two matrix size N. A size the method does
    not read (netmodel.MULT_SIZES) is an error, the first in argument order
    named; each it reads is an int in [1, MAX_COUNT_SIZE].
    """
    if method not in MULT_METHODS:
        raise ValueError(f"unknown method {method!r}; choose from {MULT_METHODS}")
    sizes = {"out_size": out_size, "filter_size": filter_size, "matrix_size": matrix_size}
    for name, size in sizes.items():
        if size is not None and name not in MULT_SIZES[method]:
            raise ValueError(f"{name} is not read by method {method!r}")
    for name in MULT_SIZES[method]:
        _require_int(sizes[name], 1, "", name, ValueError, MAX_COUNT_SIZE)

    if method == "strassen":
        if matrix_size & (matrix_size - 1):
            raise ValueError("strassen needs a power-of-two matrix_size")
        exponent = matrix_size.bit_length() - 1
        return MultCount(method=method, count=7 ** exponent,
                         params={"matrix_size": matrix_size})

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
