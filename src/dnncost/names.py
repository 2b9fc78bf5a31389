"""The closed sets of names that the command line offers as choices when it
loads: the dataflow policies and the multiplication-count methods; and the
widths of the run-length codec, from which the command line derives its
stream file caps.

They live apart from ``dataflow``, ``stats`` and ``optkit``, which act on
them, so that declaring the commands loads none of these modules, nor numpy.
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

# the codec of optkit: each pair is a RUN_BITS zero-run length (0..MAX_RUN)
# followed by one VALUE_BITS literal (0..MAX_VALUE)
RUN_BITS = 5
VALUE_BITS = 16
PAIR_BITS = RUN_BITS + VALUE_BITS
MAX_RUN = (1 << RUN_BITS) - 1
MAX_VALUE = (1 << VALUE_BITS) - 1
