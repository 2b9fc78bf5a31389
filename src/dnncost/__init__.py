"""Analytical cost modeling for neural-network inference hardware.

The package answers three questions about running a trained network on a
spatial accelerator, without simulating cycles:

* how much storage and compute each layer needs,
* how much data movement and energy each mapping policy spends on it,
* what fast convolution transforms and compression buy on top.
"""

from importlib import import_module

from .archmodel import (ArchConfig, ArchError, EnergyTable, default_arch,
                        parse_arch, serialize_arch)
from .dataflow import (AccessCounts, DataflowKind, ReuseFactors, TypeReuse,
                       access_counts, layer_access_counts, reuse_factors)
from .energy import (ComparisonReport, DataflowComparison, EnergyReport,
                     Modifiers, compare_dataflows, layer_energy,
                     network_energy)
from .netmodel import (LayerSpec, NetworkError, NetworkSemanticError,
                       NetworkSpec, NetworkSyntaxError, ResolvedLayer,
                       ResolvedNetwork, ShapeError, parse_network,
                       resolve_shapes, serialize_network)
from .stats import (LayerStats, MultCount, NetworkStats, layer_stats,
                    mult_count, network_stats, next_pow2, wired_pairs)
from .zoo import BUILTIN_NAMES, builtin, builtin_document

__version__ = "0.1.0"

__all__ = [
    "ArchConfig", "ArchError", "EnergyTable", "default_arch", "parse_arch",
    "serialize_arch",
    "AccessCounts", "DataflowKind", "ReuseFactors", "TypeReuse",
    "access_counts", "layer_access_counts", "reuse_factors",
    "ComparisonReport", "DataflowComparison", "EnergyReport", "Modifiers",
    "compare_dataflows", "layer_energy", "network_energy",
    "MultCount", "conv_direct", "conv_fft", "conv_im2col",
    "conv_winograd_f22_33", "im2col_matrix", "mult_count", "next_pow2",
    "LayerSpec", "NetworkError", "NetworkSemanticError", "NetworkSpec",
    "NetworkSyntaxError", "ResolvedLayer", "ResolvedNetwork", "ShapeError",
    "parse_network", "resolve_shapes", "serialize_network",
    "CodecError", "SparseStats", "compression_ratio", "prune_magnitude",
    "prune_network", "quantize_uniform", "rle_decode", "rle_encode",
    "rle_pair_count", "sparse_stats",
    "LayerStats", "NetworkStats", "layer_stats", "network_stats",
    "wired_pairs",
    "BUILTIN_NAMES", "builtin", "builtin_document",
    "__version__",
]

# The array code (and with it numpy) is imported on first use of one of its
# names, so that the numpy-free commands start without it: name -> module.
_LAZY = {
    **dict.fromkeys(("kernels", "conv_direct", "conv_fft", "conv_im2col",
                     "conv_winograd_f22_33", "im2col_matrix"), "kernels"),
    **dict.fromkeys(("optkit", "CodecError", "SparseStats", "compression_ratio",
                     "prune_magnitude", "prune_network", "quantize_uniform",
                     "rle_decode", "rle_encode", "rle_pair_count",
                     "sparse_stats"), "optkit"),
}


def __getattr__(name):
    if name not in _LAZY:
        raise AttributeError(f"module {__name__!r} has no attribute {name!r}")
    module = import_module(f".{_LAZY[name]}", __name__)
    value = module if name == _LAZY[name] else getattr(module, name)
    globals()[name] = value
    return value


def __dir__():
    return sorted(globals().keys() | _LAZY.keys())
