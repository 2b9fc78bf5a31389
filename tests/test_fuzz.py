"""Arbitrary nested JSON against both description parsers and the commands
that read description files, and arbitrary words and bytes against the codec
command: only the documented errors and exit codes may come out, never a
traceback or a non-finite number in a report."""

import json
from unittest import mock

from click.testing import CliRunner
from hypothesis import example, given, settings
from hypothesis import strategies as st

import dnncost as dc
from dnncost import cli
from dnncost.archmodel import LEVELS, ArchError
from dnncost.netmodel import LAYER_KINDS, NetworkError

# the keys both description formats know, so that nested objects reach past
# the first unknown-key check more often than random text would
KEYS = sorted({"name", "input", "inputs", "layers", "channels", "height", "width", "type",
               "out_channels", "kernel", "stride", "pad", "groups", "bias", "connections",
               "pe_count", "word_bits", "energy", "mac_energy", "rs_channels_per_pe",
               "nlr_lane_width", *LEVELS})

LEAVES = (st.none() | st.booleans() | st.integers() | st.integers(0, 8) | st.floats()
          | st.text(max_size=3) | st.sampled_from(LAYER_KINDS + ("a", "b")))

JSON = st.recursive(
    LEAVES,
    lambda children: (st.lists(children, max_size=4)
                      | st.dictionaries(st.sampled_from(KEYS) | st.text(max_size=3),
                                        children, max_size=6)),
    max_leaves=24)


def mostly(values, otherwise=JSON):
    """``values`` fifteen times in sixteen, ``otherwise`` the rest."""
    return st.sampled_from(range(16)).flatmap(lambda i: otherwise if i == 15 else values)


# mostly small sizes; now and then one up to 10**4000, whose counts pass both
# netmodel.COUNT_BUDGET and Python's 4,300-digit int-to-str limit
SIZES = mostly(st.integers(1, 8), st.integers(1, 10**4000))


# network-shaped documents whose fields hold mostly valid values, so that many
# of them parse and resolve and the commands get as far as pricing them
LAYER_FIELDS = {"out_channels": SIZES,
                "kernel": st.lists(st.integers(1, 3), min_size=2, max_size=2),
                "stride": st.integers(1, 2), "pad": st.integers(0, 1), "bias": st.booleans()}
# the fields each kind reads; any other field is an error
KIND_FIELDS = {"conv": ("out_channels", "kernel", "stride", "pad", "bias"),
               "fc": ("out_channels", "bias"), "pool": ("kernel", "stride", "pad"), "act": ()}
LAYERS = st.lists(
    st.sampled_from(sorted(KIND_FIELDS)).flatmap(lambda kind: st.fixed_dictionaries(
        {"type": mostly(st.just(kind)),
         **{key: mostly(LAYER_FIELDS[key]) for key in KIND_FIELDS[kind]}})),
    min_size=1, max_size=3).map(
        lambda layers: [{"name": f"l{i}", **layer} for i, layer in enumerate(layers)])
NETWORK_DOCS = JSON | st.fixed_dictionaries({
    "name": mostly(st.just("fuzz")),
    "input": st.fixed_dictionaries({key: mostly(SIZES)
                                    for key in ("channels", "height", "width")}),
    "layers": mostly(LAYERS),
})

# hardware documents in the same way; large costs reach the overflow checks
COSTS = st.floats(0.5, 1e308)
ARCH_DOCS = JSON | st.fixed_dictionaries({}, optional={
    "pe_count": mostly(st.integers(1, 1024)), "word_bits": mostly(st.integers(1, 64)),
    "rs_channels_per_pe": mostly(st.integers(1, 8)), "nlr_lane_width": mostly(st.integers(1, 32)),
    "mac_energy": mostly(COSTS),
    "energy": mostly(st.fixed_dictionaries({}, optional={lv: mostly(COSTS) for lv in LEVELS})),
})

# text for `compress --encode`: mostly whitespace-separated integers, in and
# out of the 16-bit range, past int64 and past Python's 4,300-digit limit on
# reading an int; now and then any text
TOKENS = ((st.integers(0, 65535) | st.integers()).map(str)
          | st.sampled_from(["-1", "65536", str(2**63), "9" * 4301]))
WORD_TEXT = mostly(st.lists(TOKENS | st.text(max_size=3), max_size=40).map(" ".join), st.text())
# streams for `compress --decode`: arbitrary bytes, and encodings of valid words
STREAMS = st.binary(max_size=200) | st.lists(st.integers(0, 65535), max_size=80).map(dc.rle_encode)


def _reject_constant(token):
    raise AssertionError(f"report holds {token}")


class TestParsers:
    @settings(deadline=None, max_examples=150)
    @given(value=NETWORK_DOCS)
    @example(value={"name": "n", "input": {"channels": 1, "height": 1, "width": float("nan")},
                    "layers": [{"type": "act", "name": "a"}]})
    def test_parse_network_raises_only_network_errors(self, value):
        try:
            dc.resolve_shapes(dc.parse_network(json.dumps(value)))
        except NetworkError:
            pass

    @settings(deadline=None, max_examples=150)
    @given(value=ARCH_DOCS)
    @example(value={"energy": {"dram": float("inf")}})
    def test_parse_arch_raises_only_arch_errors(self, value):
        try:
            dc.parse_arch(json.dumps(value))
        except ArchError:
            pass


class TestCommands:
    """Each command ends in exit 0, 1 or 2, and a report it prints parses
    with every number finite."""

    runner = CliRunner()

    def _run(self, args):
        result = self.runner.invoke(cli.main, args)
        # an uncaught exception also exits 1, so it is told apart here
        assert result.exception is None or isinstance(result.exception, SystemExit), \
            result.exception
        assert result.exit_code in (0, 1, 2)
        if result.exit_code:
            assert result.stdout == ""
        return result

    def _check(self, args):
        result = self._run([*args, "--format", "json"])
        if result.exit_code == 0:
            json.loads(result.stdout, parse_constant=_reject_constant)

    @settings(deadline=None, max_examples=40)
    @given(value=NETWORK_DOCS)
    @example(value={"name": "wide", "input": {"channels": 10**4000, "height": 1, "width": 1},
                    "layers": [{"type": "fc", "name": "f", "out_channels": 10**4000}]})
    def test_network_files(self, tmp_path_factory, value):
        path = tmp_path_factory.mktemp("net") / "net.json"
        path.write_text(json.dumps(value))
        for command in ("stats", "analyze", "compare"):
            self._check([command, "--net", str(path)])
        # a small weight cap keeps what prune may draw for a fuzzed network small;
        # the cap itself is tested in test_cli.py
        with mock.patch.object(cli, "MAX_PRUNE_WEIGHTS", 4096):
            self._check(["prune", "--net", str(path)])

    @settings(deadline=None, max_examples=40)
    @given(value=ARCH_DOCS)
    @example(value={"mac_energy": 1e308, "energy": {"dram": 1e308}})
    def test_arch_files(self, tmp_path_factory, value):
        path = tmp_path_factory.mktemp("arch") / "arch.json"
        path.write_text(json.dumps(value))
        for command in ("analyze", "compare"):
            self._check([command, "--builtin", "lenet5", "--arch", str(path)])
        self._check(["prune", "--builtin", "lenet5", "--order", "energy", "--arch", str(path)])

    @settings(deadline=None, max_examples=60)
    @given(text=WORD_TEXT)
    @example(text="")
    @example(text="1 " + "9" * 4301)
    def test_encode_text(self, tmp_path_factory, text):
        folder = tmp_path_factory.mktemp("encode")
        source, packed = folder / "words.txt", folder / "packed.bin"
        source.write_text(text, encoding="utf-8")
        result = self._run(["compress", "--encode", str(source), "--out", str(packed)])
        # every check comes before the packed stream is written
        assert packed.exists() == (result.exit_code == 0)

    @settings(deadline=None, max_examples=60)
    @given(data=STREAMS)
    @example(data=b"\xff")
    def test_decode_bytes(self, tmp_path_factory, data):
        path = tmp_path_factory.mktemp("decode") / "packed.bin"
        path.write_bytes(data)
        self._run(["compress", "--decode", str(path)])
