"""Analytical cost modeling for neural-network inference hardware.

The package answers three questions about running a trained network on a
spatial accelerator, without simulating cycles:

* how much storage and compute each layer needs,
* how much data movement and energy each mapping policy spends on it,
* what fast convolution transforms and compression buy on top.
"""

from importlib import import_module

__version__ = "0.1.0"

# Every public name, and every submodule by its own name -> the submodule
# that defines it. A submodule is imported on first use of one of its names,
# so a command loads only the modules it runs, and numpy only with
# ``kernels`` or ``optkit``.
_LAZY = {
    **dict.fromkeys(("archmodel", "ArchConfig", "ArchError", "EnergyTable",
                     "default_arch", "parse_arch", "serialize_arch"), "archmodel"),
    **dict.fromkeys(("dataflow", "AccessCounts", "ReuseFactors", "TypeReuse",
                     "access_counts", "layer_access_counts", "reuse_factors"), "dataflow"),
    **dict.fromkeys(("energy", "ComparisonReport", "DataflowComparison", "EnergyReport",
                     "Modifiers", "compare_dataflows", "layer_energy",
                     "network_energy"), "energy"),
    **dict.fromkeys(("kernels", "conv_direct", "conv_fft", "conv_im2col",
                     "conv_winograd_f22_33"), "kernels"),
    **dict.fromkeys(("names", "DataflowKind"), "names"),
    **dict.fromkeys(("netmodel", "LayerSpec", "LayerStats", "NetworkError",
                     "NetworkSemanticError", "NetworkSpec", "NetworkSyntaxError",
                     "ResolvedLayer", "ResolvedNetwork", "ShapeError", "parse_network",
                     "resolve_shapes", "serialize_network"), "netmodel"),
    **dict.fromkeys(("optkit", "CodecError", "compression_ratio", "prune_network",
                     "quantize_uniform", "rle_decode", "rle_encode", "rle_pair_count",
                     "rle_word_count"), "optkit"),
    **dict.fromkeys(("stats", "MultCount", "NetworkStats", "layer_stats", "mult_count",
                     "network_stats", "next_pow2"), "stats"),
    **dict.fromkeys(("zoo", "BUILTIN_NAMES", "builtin", "builtin_document"), "zoo"),
}

__all__ = [name for name, module in _LAZY.items() if name != module] + ["__version__"]


def __getattr__(name):
    if name not in _LAZY:
        raise AttributeError(f"module {__name__!r} has no attribute {name!r}")
    module = import_module(f".{_LAZY[name]}", __name__)
    value = module if name == _LAZY[name] else getattr(module, name)
    globals()[name] = value
    return value


def __dir__():
    return sorted(globals().keys() | _LAZY.keys())
