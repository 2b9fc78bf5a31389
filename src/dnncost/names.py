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


# the transforms stats.mult_count counts
MULT_METHODS = ("direct", "im2col", "fft", "winograd", "strassen")
