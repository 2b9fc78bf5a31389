"""Reference convolution kernels.

Four numerically equivalent routes compute the same strided 2-D
cross-correlation over a C x H x W input and an M x C x R x S filter bank:

* ``conv_direct``          the oracle, no transform: each filter tap's
                           products added into the output, tap by tap
* ``conv_im2col``          lowering to one matrix multiply
* ``conv_winograd_f22_33`` minimal filtering for 3x3 kernels, 2x2 output
                           tiles, interpolation points {0, 1, -1}
* ``conv_fft``             pointwise product of real Fourier transforms,
                           summed over channels per frequency bin before the
                           filters' transform along their R taps

All but ``conv_fft`` read one strided window view of the zero-padded input.
Equivalence is exact in exact arithmetic; float64 keeps the routes within
1e-6 relative of each other for well-scaled inputs. The multiplication counts
of these methods, which need no arrays, are ``stats.mult_count``; its ``fft``
count models the textbook three-transform method at the n ``conv_fft`` uses.
``conv_fft`` does R*M*(C+1) complex multiply-adds per frequency bin in place
of M*C filter-plane FFT columns: fewer when R <= C, more when C < R.
"""

from __future__ import annotations

import numpy as np
from numpy.lib.stride_tricks import sliding_window_view

from .netmodel import _require_int, out_extent
from .stats import next_pow2

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
# the same transforms on row-major flattened tiles, since P X Q^T flattens
# to kron(P, Q) times the flattened X: G g G^T, B^T d B and A^T y A
_WG_U = np.kron(_WG_G, _WG_G)
_WG_V = np.kron(_WG_BT, _WG_BT)
_WG_Y = np.kron(_WG_AT, _WG_AT)


def _check_input(x):
    x = np.asarray(x, dtype=float)
    if x.ndim != 3:
        raise ValueError(f"input must be C x H x W, got shape {x.shape}")
    if not x.size:
        raise ValueError(f"input has an empty axis, shape {x.shape}")
    return x


def _check_operands(x, w):
    x = _check_input(x)
    w = np.asarray(w, dtype=float)
    if w.ndim != 4:
        raise ValueError(f"filters must be M x C x R x S, got shape {w.shape}")
    if not w.size:
        raise ValueError(f"filters have an empty axis, shape {w.shape}")
    if w.shape[1] != x.shape[0]:
        raise ValueError(
            f"channel mismatch: input has {x.shape[0]} channels, filters expect {w.shape[1]}")
    return x, w


def _windows(x, kernel, stride, pad):
    """The C x E x F x R x S view of every R x S window of ``x``, zero-padded
    by ``pad`` on each side, with windows ``stride`` apart."""
    _require_int(stride, 1, "", "stride", ValueError)
    _require_int(pad, 0, "", "pad", ValueError)
    r, s = kernel
    _, h, wd = x.shape
    # out_extent rejects a kernel that does not fit; the view has its E x F windows
    out_extent(h, r, stride, pad)
    out_extent(wd, s, stride, pad)
    xp = np.pad(x, ((0, 0), (pad, pad), (pad, pad)))
    return sliding_window_view(xp, (r, s), axis=(1, 2))[:, ::stride, ::stride]


def _columns(win):
    """The C*R*S x E*F patch matrix of a window view, C-contiguous for BLAS."""
    c, e, f, r, s = win.shape
    return np.ascontiguousarray(win.transpose(0, 3, 4, 1, 2)).reshape(c * r * s, e * f)


def conv_direct(x, w, stride: int = 1, pad: int = 0) -> np.ndarray:
    """Strided 2-D cross-correlation with no transform: one (M x C) by
    (C x E x F) product per filter tap, accumulated over the R*S taps."""
    x, w = _check_operands(x, w)
    m, _, r, s = w.shape
    win = _windows(x, (r, s), stride, pad)
    out = np.zeros((m, *win.shape[1:3]))
    for i, j in np.ndindex(r, s):
        out += np.tensordot(w[:, :, i, j], win[..., i, j], axes=1)
    return out


def conv_im2col(x, w, stride: int = 1, pad: int = 0) -> np.ndarray:
    """The same cross-correlation as one matrix multiply over the lowering."""
    x, w = _check_operands(x, w)
    m = w.shape[0]
    win = _windows(x, w.shape[2:], stride, pad)
    return (w.reshape(m, -1) @ _columns(win)).reshape(m, *win.shape[1:3])


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
    e, f = out_extent(h, 3, 1, 0), out_extent(wd, 3, 1, 0)
    xp = np.pad(x, ((0, 0), (0, e & 1), (0, f & 1)))
    tiles = _windows(xp, (4, 4), 2, 0)  # C x TY x TX x 4 x 4, 2 apart
    _, ty, tx, _, _ = tiles.shape
    u = _WG_U @ w.reshape(m * c, 9).T  # 16 x M*C
    v = _WG_V @ tiles.transpose(3, 4, 0, 1, 2).reshape(16, -1)  # 16 x C*TY*TX
    # per tile position, the elementwise product summed over channels
    prod = u.reshape(16, m, c) @ v.reshape(16, c, ty * tx)
    y = (_WG_Y @ prod.reshape(16, -1)).reshape(2, 2, m, ty, tx)
    return y.transpose(2, 3, 0, 4, 1).reshape(m, 2 * ty, 2 * tx)[:, :e, :f]


def _dft(n: int, taps: int, bins: int) -> np.ndarray:
    """The taps x bins block of the n-point DFT matrix, exp(-2 pi i t b / n)."""
    # t * b is reduced mod n before scaling, so the angles stay below 2 pi
    turns = np.outer(np.arange(taps), np.arange(bins)) % n
    return np.exp(turns * (-2j * np.pi / n))


def conv_fft(x, w) -> np.ndarray:
    """The cross-correlation by pointwise product in the frequency domain.

    Both operands are zero-padded per spatial dimension to the next power of
    two n >= H, the fft_size of stats.mult_count. The full linear convolution
    is H + R - 1 long, so the circular one wraps at most its last R - 1 rows,
    onto rows < R - 1, which the crop to the valid region drops. Stride 1 only.

    The M*C filter planes are never transformed whole. Per bin of the W-axis
    transform, the input's C x nh spectrum is multiplied by the S-tap DFT of
    the flipped filters (R*M x C), which sums over the channels, and a DFT
    along the R taps then completes the filters' transform. That is
    R*M*(C+1) complex multiply-adds per frequency bin, against M*C FFT
    columns and M*C products for the whole filter-bank spectrum: cheaper when
    R <= C, dearer when C < R. A 3-channel 230 x 230 input under 64 7x7
    filters takes about 205 ms against 150 ms the other way (one BLAS
    thread, 2-core x86-64).
    """
    x, w = _check_operands(x, w)
    c, h, wd = x.shape
    m, _, r, s = w.shape
    e, f = out_extent(h, r, 1, 0), out_extent(wd, s, 1, 0)
    nh, nw = next_pow2(h), next_pow2(wd)
    bins = nw // 2 + 1

    fx = np.fft.rfft2(x, (nh, nw)).transpose(2, 0, 1)  # bins x C x nh
    # cross-correlation = convolution with the spatially flipped filter
    rows = w[:, :, ::-1, ::-1].reshape(-1, s) @ _dft(nw, s, bins)  # M*C*R x bins
    rows = rows.reshape(m, c, r, bins).transpose(3, 2, 0, 1).reshape(bins, r * m, c)
    z = rows @ fx  # each bin's products summed over channels: bins x R*M x nh
    prod = np.einsum("rk,lrmk->mkl", _dft(nh, r, nh), z.reshape(bins, r, m, nh))
    full = np.fft.irfft2(prod, (nh, nw))
    return full[:, r - 1:r - 1 + e, s - 1:s - 1 + f]
