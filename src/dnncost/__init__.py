"""Analytical cost modeling for neural-network inference hardware.

The package answers three questions about running a trained network on a
spatial accelerator, without simulating cycles:

* how much storage and compute each layer needs,
* how much data movement and energy each mapping policy spends on it,
* what fast convolution transforms and compression buy on top.
"""

from .archmodel import (ArchConfig, ArchError, EnergyTable, default_arch,
                        parse_arch, serialize_arch)
from .dataflow import (AccessCounts, DataflowKind, ReuseFactors, TypeReuse,
                       access_counts, layer_access_counts, reuse_factors)
from .energy import (ComparisonReport, DataflowComparison, EnergyReport,
                     Modifiers, compare_dataflows, layer_energy,
                     network_energy)
from .kernels import (MultCount, conv_direct, conv_fft, conv_im2col,
                      conv_winograd_f22_33, im2col_matrix, mult_count,
                      next_pow2)
from .netmodel import (LayerSpec, NetworkError, NetworkSemanticError,
                       NetworkSpec, NetworkSyntaxError, ResolvedLayer,
                       ResolvedNetwork, ShapeError, parse_network,
                       resolve_shapes, serialize_network)
from .optkit import (CodecError, SparseStats, compression_ratio,
                     prune_magnitude, prune_network, quantize_uniform,
                     rle_decode, rle_encode, rle_pair_count, sparse_stats)
from .stats import (LayerStats, NetworkStats, layer_stats, network_stats,
                    wired_pairs)
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
