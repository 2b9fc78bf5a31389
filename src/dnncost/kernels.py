"""Reference convolution kernels and multiplication-count estimators.

Four numerically equivalent routes compute the same strided 2-D
cross-correlation over a C x H x W input and an M x C x R x S filter bank:

* ``conv_direct``          the literal window dot product (the oracle)
* ``conv_im2col``          lowering to one matrix multiply
* ``conv_winograd_f22_33`` minimal filtering for 3x3 kernels, 2x2 output
                           tiles, interpolation points {0, 1, -1}
* ``conv_fft``             pointwise product of real Fourier transforms

Equivalence is exact in exact arithmetic; float64 keeps the routes within
1e-6 relative of each other for well-scaled inputs. ``mult_count`` estimates
scalar multiplication counts for the classic transform arguments without
running anything.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .netmodel import out_extent

_WG_G = np.array([[1.0, 0.0, 0.0],
                  [0.5, 0.5, 0.5],
                  [0.5, -0.5, 0.5],
                  [0.0, 0.0, 1.0]])
_WG_BT = np.array([[1.0, 0.0, -1.0, 0.0],
                   [0.0, 1.0, 1.0, 0.0],
                   [0.0, -1.0, 1.0, 0.0],
                   [0.0, 1.0, 0.0, -1.0]])
_WG_AT = np.array([[1.0, 1.0, 1.0, 0.0],
                   [0.0, 1.0, -1.0, -1.0]])

# multiplications per 2x2 output tile: elementwise product of two 4x4 tiles
WINOGRAD_TILE_MULTS = 16
# the same tile computed directly: 4 outputs x 9 taps
DIRECT_TILE_MULTS = 36


def _check_operands(x, w):
    x = np.asarray(x, dtype=float)
    w = np.asarray(w, dtype=float)
    if x.ndim != 3:
        raise ValueError(f"input must be C x H x W, got shape {x.shape}")
    if w.ndim != 4:
        raise ValueError(f"filters must be M x C x R x S, got shape {w.shape}")
    if w.shape[1] != x.shape[0]:
        raise ValueError(
            f"channel mismatch: input has {x.shape[0]} channels, filters expect {w.shape[1]}")
    return x, w


def _pad(x, pad):
    if pad == 0:
        return x
    c, h, w = x.shape
    padded = np.zeros((c, h + 2 * pad, w + 2 * pad))
    padded[:, pad:pad + h, pad:pad + w] = x
    return padded


def conv_direct(x, w, stride: int = 1, pad: int = 0) -> np.ndarray:
    """Strided 2-D cross-correlation as the literal window dot product."""
    x, w = _check_operands(x, w)
    if stride < 1 or pad < 0:
        raise ValueError("stride must be >= 1 and pad >= 0")
    c, h, wd = x.shape
    m, _, r, s = w.shape
    e = out_extent(h, r, stride, pad)
    f = out_extent(wd, s, stride, pad)
    xp = _pad(x, pad)
    flat = w.reshape(m, -1)
    out = np.empty((m, e, f))
    for ei in range(e):
        for fi in range(f):
            patch = xp[:, ei * stride:ei * stride + r, fi * stride:fi * stride + s]
            out[:, ei, fi] = flat @ patch.reshape(-1)
    return out


def im2col_matrix(x, kernel: tuple[int, int], stride: int = 1, pad: int = 0) -> np.ndarray:
    """Lower an input to the patch matrix: one column of C*R*S values per
    output position, E*F columns in row-major output order."""
    x = np.asarray(x, dtype=float)
    if x.ndim != 3:
        raise ValueError(f"input must be C x H x W, got shape {x.shape}")
    r, s = kernel
    c, h, wd = x.shape
    e = out_extent(h, r, stride, pad)
    f = out_extent(wd, s, stride, pad)
    xp = _pad(x, pad)
    cols = np.empty((c * r * s, e * f))
    for ei in range(e):
        for fi in range(f):
            patch = xp[:, ei * stride:ei * stride + r, fi * stride:fi * stride + s]
            cols[:, ei * f + fi] = patch.reshape(-1)
    return cols


def conv_im2col(x, w, stride: int = 1, pad: int = 0) -> np.ndarray:
    """The same cross-correlation as one matrix multiply over the lowering."""
    x, w = _check_operands(x, w)
    m, _, r, s = w.shape
    cols = im2col_matrix(x, (r, s), stride, pad)
    c, h, wd = x.shape
    e = out_extent(h, r, stride, pad)
    f = out_extent(wd, s, stride, pad)
    return (w.reshape(m, -1) @ cols).reshape(m, e, f)


def conv_winograd_f22_33(x, w) -> np.ndarray:
    """Minimal-filtering convolution for 3x3 kernels at stride 1.

    Works on 4x4 input tiles producing 2x2 output tiles; odd output extents
    are handled by zero-padding the input on the high side and cropping.
    Each tile costs 16 elementwise multiplications against 36 for the direct
    route, a 2.25x reduction.
    """
    x, w = _check_operands(x, w)
    m, c, r, s = w.shape
    if (r, s) != (3, 3):
        raise ValueError(f"requires 3x3 filters, got {r}x{s}")
    _, h, wd = x.shape
    e = h - 2
    f = wd - 2
    if e < 1 or f < 1:
        raise ValueError(f"input {h}x{wd} too small for 3x3 filters")
    ep = e + (e & 1)
    fp = f + (f & 1)
    xp = np.zeros((c, ep + 2, fp + 2))
    xp[:, :h, :wd] = x

    # filter transform: U[m, c] = G g G^T
    u = np.einsum("ij,mcjk,lk->mcil", _WG_G, w, _WG_G)
    out = np.zeros((m, ep, fp))
    for ty in range(0, ep, 2):
        for tx in range(0, fp, 2):
            d = xp[:, ty:ty + 4, tx:tx + 4]
            v = np.einsum("ij,cjk,lk->cil", _WG_BT, d, _WG_BT)
            prod = np.einsum("mcij,cij->mij", u, v)
            out[:, ty:ty + 2, tx:tx + 2] = np.einsum("ij,mjk,lk->mil", _WG_AT, prod, _WG_AT)
    return out[:, :e, :f]


def next_pow2(n: int) -> int:
    """Smallest power of two >= n."""
    if n < 1:
        raise ValueError(f"need a positive size, got {n}")
    return 1 << (n - 1).bit_length()


def conv_fft(x, w) -> np.ndarray:
    """The cross-correlation by pointwise product in the frequency domain.

    Both operands are zero-padded per spatial dimension to the next power of
    two >= H + R - 1, so the circular convolution never wraps; the valid
    region is cropped from the full linear convolution. Stride 1 only.
    """
    x, w = _check_operands(x, w)
    c, h, wd = x.shape
    m, _, r, s = w.shape
    e = h - r + 1
    f = wd - s + 1
    if e < 1 or f < 1:
        raise ValueError(f"filters {r}x{s} do not fit input {h}x{wd}")
    nh = next_pow2(h + r - 1)
    nw = next_pow2(wd + s - 1)

    fx = np.fft.rfft2(x, (nh, nw))
    # cross-correlation = convolution with the spatially flipped filter
    fw = np.fft.rfft2(w[:, :, ::-1, ::-1], (nh, nw))
    prod = np.einsum("cij,mcij->mij", fx, fw)
    full = np.fft.irfft2(prod, (nh, nw))
    return full[:, r - 1:r - 1 + e, s - 1:s - 1 + f]


@dataclass(frozen=True)
class MultCount:
    """Scalar multiplication count of one method at one problem size."""

    method: str
    count: int
    params: dict


MULT_METHODS = ("direct", "im2col", "fft", "winograd", "strassen")


def mult_count(method: str, out_size: int | None = None,
               filter_size: int | None = None,
               matrix_size: int | None = None) -> MultCount:
    """Multiplication-count estimate for one transform method.

    Convolution methods (direct, im2col, fft, winograd) take a square output
    size No and filter size Nf; winograd is the 3x3, 2x2-tile variant only.
    Strassen takes a power-of-two matrix size N.
    """
    if method not in MULT_METHODS:
        raise ValueError(f"unknown method {method!r}; choose from {MULT_METHODS}")

    if method == "strassen":
        if matrix_size is None or matrix_size < 1 or matrix_size & (matrix_size - 1):
            raise ValueError("strassen needs a power-of-two matrix_size")
        exponent = matrix_size.bit_length() - 1
        return MultCount(method=method, count=7 ** exponent,
                         params={"matrix_size": matrix_size})

    if out_size is None or filter_size is None or out_size < 1 or filter_size < 1:
        raise ValueError(f"{method} needs positive out_size and filter_size")
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
