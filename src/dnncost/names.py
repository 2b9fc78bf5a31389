"""The closed sets of names that the command line offers as choices when it
loads: the dataflow policies and the multiplication-count methods.

They live apart from ``dataflow`` and ``stats``, which act on them, so that
declaring the commands loads neither module.
"""

from enum import Enum


class DataflowKind(str, Enum):
    WS = "ws"
    OS = "os"
    NLR = "nlr"
    RS = "rs"


# the transforms stats.mult_count counts, each with the sizes it reads
_CONV_SIZES = ("out_size", "filter_size")
MULT_SIZES = {"direct": _CONV_SIZES, "im2col": _CONV_SIZES, "fft": _CONV_SIZES,
              "winograd": _CONV_SIZES, "strassen": ("matrix_size",)}
MULT_METHODS = tuple(MULT_SIZES)
