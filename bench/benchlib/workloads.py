"""The benchmark's three workloads.

Each workload builds its inputs from the seed in ``setup``, hands out whole
rounds of op items, runs one op per item and checks its output apart from
the timed op. Every op of a workload does the same amount of work; the seed
changes only the content. The package is reached through its submodules
(``dc.energy.compare_dataflows``), so the traced run's wrappers see the calls.
"""

from __future__ import annotations

import json
import os
import resource
import subprocess
import sys
import time
import tracemalloc
from pathlib import Path

import numpy as np

from . import OUT, ROOT, child_env
from .checks import (check_cli_analyze, check_cli_compare,
                     check_cli_compress, check_cli_count, check_cli_prune,
                     check_cli_stats, check_codec, check_comparison, check_conv,
                     check_network_stats, check_prune, check_quantized,
                     conv_reference, drain_counts, require, rle_pairs)
from .netdoc import KERNEL_LAYER, cifar_resnet_doc, recount

BUILTINS = ("lenet5", "alexnet", "vgg16", "googlenet", "resnet50")
CHILD = Path(__file__).resolve().parent / "clichild.py"


def self_peak_rss_mb() -> float:
    return resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024


class Workload:
    name = ""
    tail = 0.5      # percentile reported as op_tail_ms
    loop_reference = False  # rescale ops by the harness's loop, not its interpreter

    def setup(self, dc, seed: int) -> None:
        raise NotImplementedError

    def round(self) -> list:
        """Items of one round; a run always attempts whole rounds."""
        return [None]

    def run(self, item, tracer=None):
        raise NotImplementedError

    def check(self, item, out) -> None:
        raise NotImplementedError

    def trace_extra(self, out) -> dict[str, float]:
        """Per-op figures of the traced run that no span gives."""
        return {}

    def probe_round(self) -> list:
        """A short round for the traced run of another workload."""
        return self.round()

    def peak_rss_mb(self) -> float:
        return self_peak_rss_mb()

    def close(self) -> None:
        pass


# -- cli_cold ------------------------------------------------------------------

class CliCold(Workload):
    """One op is one cold ``dnncost`` process, spawn to the last byte of stdout."""

    name = "cli_cold"
    tail = 0.90    # needs 100 ops, so every run attempts three whole rounds

    def setup(self, dc, seed):
        rng = np.random.default_rng(seed)
        self.docs = {name: json.loads(dc.zoo.builtin_document(name)) for name in BUILTINS}
        self.net_doc = cifar_resnet_doc()
        self.net_path = OUT / f"cli-net-{os.getpid()}.json"
        self.net_path.write_text(json.dumps(self.net_doc, indent=2), encoding="utf-8")
        self.env = child_env()
        self.max_rss_mb = 0.0
        items = []
        for command in ("stats", "analyze", "compare"):
            for net in BUILTINS:
                for fmt in ("table", "csv", "json"):
                    args = [command, "--builtin", net, "--format", fmt]
                    item = {"kind": command, "fmt": fmt, "net": net, "batch": 1}
                    if command == "stats":
                        item["batch"] = int(rng.integers(1, 3))
                        args += ["--batch", str(item["batch"])]
                    else:
                        item["bits"] = int(rng.choice([8, 12, 16]))
                        args += ["--bits", str(item["bits"])]
                    if command == "analyze":
                        args += ["--dataflow", str(rng.choice(["ws", "os", "nlr", "rs"]))]
                    item["rows"] = recount(self.docs[net], item["batch"])
                    items.append((args, item))
        items.append((["stats", "--net", str(self.net_path), "--format", "json"],
                      {"kind": "stats", "fmt": "json", "net": self.net_doc["name"],
                       "batch": 1, "rows": recount(self.net_doc)}))
        method = str(rng.choice(["direct", "im2col", "fft", "winograd"]))
        out_size = int(rng.integers(8, 225))
        items.append((["kernels", "count", "--method", method, "--out-size",
                       str(out_size), "--filter-size", "3"],
                      {"kind": "count", "method": method, "out_size": out_size}))
        stream_seed = int(rng.integers(0, 2**31))
        items.append((["compress", "--n", "4096", "--sparsity", "0.7", "--seed",
                       str(stream_seed)], {"kind": "compress", **_cli_stream(stream_seed)}))
        fraction = float(rng.choice([0.3, 0.5, 0.7, 0.9]))
        items.append((["prune", "--builtin", "lenet5", "--fraction", str(fraction),
                       "--order", str(rng.choice(["magnitude", "energy"])), "--seed",
                       str(int(rng.integers(0, 2**31))), "--format", "json"],
                      {"kind": "prune", "fraction": fraction,
                       "rows": recount(self.docs["lenet5"])}))
        self.items = [items[i] for i in rng.permutation(len(items))]

    def round(self):
        return self.items

    def run(self, item, tracer=None):
        args, _ = item
        if tracer is not None:
            env = {**self.env, "BENCH_SPAWN_NS": str(time.monotonic_ns())}
            proc = subprocess.run([sys.executable, str(CHILD), *args], cwd=ROOT,
                                  env=env, capture_output=True, check=False)
            lines = proc.stderr.decode("utf-8", "replace").splitlines()
            timings = json.loads(lines[-1]) if lines else {}
            return proc.returncode, proc.stdout, {**timings,
                                                  "cli.stdout_bytes": len(proc.stdout)}
        proc = subprocess.Popen(
            [sys.executable, "-c", "import sys; from dnncost.cli import main; sys.exit(main())",
             *args], cwd=ROOT, env=self.env, stdout=subprocess.PIPE,
            stderr=subprocess.STDOUT)
        with proc.stdout:
            out = proc.stdout.read()
        _, status, usage = os.wait4(proc.pid, 0)
        proc.returncode = os.waitstatus_to_exitcode(status)
        self.max_rss_mb = max(self.max_rss_mb, usage.ru_maxrss / 1024)
        return proc.returncode, out, {}

    def check(self, item, out):
        _, spec = item
        code, stdout, _ = out
        text = stdout.decode("utf-8")
        require(code == 0, f"exit code {code}: {text[-300:]}")
        kind = spec["kind"]
        if kind == "stats":
            check_cli_stats(spec["fmt"], text, spec["rows"], spec["net"], spec["batch"])
        elif kind == "analyze":
            check_cli_analyze(spec["fmt"], text, spec["rows"], spec["bits"])
        elif kind == "compare":
            check_cli_compare(spec["fmt"], text, spec["rows"], spec["bits"])
        elif kind == "count":
            check_cli_count(text, spec["method"], spec["out_size"], 3)
        elif kind == "compress":
            check_cli_compress(text, spec["n"], spec["zeros"], spec["pairs"])
        else:
            check_cli_prune(text, spec["rows"], spec["fraction"])

    def trace_extra(self, out):
        return out[2]

    def probe_round(self):
        """The built-in reports on resnet50 in JSON, and every other command."""
        return [(args, spec) for args, spec in self.items
                if spec.get("net", "resnet50") in ("resnet50", "resnet56_cifar")
                and spec.get("fmt", "json") == "json"]

    def peak_rss_mb(self):
        return self.max_rss_mb

    def close(self):
        self.net_path.unlink(missing_ok=True)


def _cli_stream(seed: int, n: int = 4096, sparsity: float = 0.7) -> dict:
    """The synthetic stream ``compress --seed`` draws, recounted here."""
    rng = np.random.default_rng(seed)
    values = rng.integers(1, 65536, size=n)
    zero = rng.random(n) < sparsity
    words = [0 if z else int(v) for z, v in zip(zero, values)]
    return {"n": n, "zeros": int(zero.sum()), "pairs": rle_pairs(words)}


# -- dse_sweep -----------------------------------------------------------------

class DseSweep(Workload):
    """One op is one seeded design point priced on all five built-ins."""

    name = "dse_sweep"
    tail = 0.95
    loop_reference = True

    def setup(self, dc, seed):
        self.dc = dc
        self.rng = np.random.default_rng(seed)
        docs = {name: json.loads(dc.zoo.builtin_document(name)) for name in BUILTINS}
        self.rows = {(name, batch): recount(doc, batch)
                     for name, doc in docs.items() for batch in (1, 2, 4)}

    def round(self):
        rng = self.rng
        noc = 1.0 + 3.0 * rng.random()
        buf = noc + 10.0 * rng.random()
        doc = {"pe_count": int(rng.choice([64, 128, 168, 256, 512, 1024])),
               "word_bits": 16,
               "mac_energy": 0.5 + 1.5 * rng.random(),
               "energy": {"rf": 1.0, "noc": noc, "buf": buf,
                          "dram": 100.0 + 300.0 * rng.random()},
               "rs_channels_per_pe": int(rng.integers(1, 9)),
               "nlr_lane_width": int(rng.choice([4, 8, 16, 32]))}
        mods = self.dc.energy.Modifiers(
            density_in=0.3 + 0.7 * rng.random(), density_w=0.3 + 0.7 * rng.random(),
            bits_in=int(rng.choice([4, 8, 12, 16])), bits_w=int(rng.choice([4, 8, 12, 16])))
        return [(json.dumps(doc), doc, mods, int(rng.choice([1, 2, 4])))]

    def run(self, item, tracer=None):
        text, _, mods, batch = item
        dc = self.dc
        arch = dc.archmodel.parse_arch(text)
        results = []
        for name in BUILTINS:
            net = dc.netmodel.resolve_shapes(dc.zoo.builtin(name), batch=batch)
            results.append((name, dc.stats.network_stats(net),
                            dc.energy.compare_dataflows(net, arch, mods)))
        return arch, results

    def check(self, item, out):
        _, doc, mods, batch = item
        arch, results = out
        parsed = (arch.pe_count, arch.mac_energy, arch.rs_channels_per_pe,
                  arch.nlr_lane_width, arch.energy.rf, arch.energy.noc,
                  arch.energy.buf, arch.energy.dram)
        wanted = (doc["pe_count"], doc["mac_energy"], doc["rs_channels_per_pe"],
                  doc["nlr_lane_width"], *doc["energy"].values())
        require(parsed == wanted, f"parse_arch gave {parsed}, document says {wanted}")
        for name, report, comparison in results:
            rows = self.rows[(name, batch)]
            check_network_stats(report, rows, batch)
            check_comparison(comparison, rows, arch, mods)


# -- approx_kit ----------------------------------------------------------------

PRUNE_FRACTION = 0.5
STREAM_WORDS = 64 * 1024
STREAM_SPARSITY = 0.7
QUANT_BITS = 8
CONV_ROUTES = (("conv_direct", 1e-9), ("conv_im2col", 1e-9),
               ("conv_winograd_f22_33", 1e-6), ("conv_fft", 1e-6))


class ApproxKit(Workload):
    """One op is one fixed bundle: codec round trip, two prunes, quantization
    and the four convolution routes at one 3x3 layer of a CIFAR ResNet-56."""

    name = "approx_kit"
    tail = 0.75

    def setup(self, dc, seed):
        self.dc = dc
        rng = np.random.default_rng(seed)
        doc = cifar_resnet_doc()
        self.net_path = OUT / f"approx-net-{os.getpid()}.json"
        self.net_path.write_text(json.dumps(doc, indent=2), encoding="utf-8")
        net = dc.netmodel.resolve_shapes(
            dc.netmodel.parse_network(self.net_path.read_text(encoding="utf-8")))
        rows = recount(doc)
        self.weights = {row["name"]: rng.standard_normal(row["d_w"]) for row in rows}
        reports, _ = dc.energy.network_energy(net, dc.dataflow.DataflowKind.RS,
                                              dc.archmodel.default_arch())
        self.order = {rep.layer: rep.total / self.weights[rep.layer].size for rep in reports}
        self.lost = drain_counts({nm: w.size for nm, w in self.weights.items()},
                                 self.order, PRUNE_FRACTION)
        self.flat = np.concatenate(list(self.weights.values()))
        values = rng.integers(1, 65536, size=STREAM_WORDS)
        zero = rng.random(STREAM_WORDS) < STREAM_SPARSITY
        self.words = [0 if z else int(v) for z, v in zip(zero, values)]
        self.pairs = rle_pairs(self.words)
        layer = next(row for row in rows if row["name"] == KERNEL_LAYER)
        c, h, w = layer["in_shape"]
        m = layer["d_w"] // (c * 9)
        self.x = np.pad(rng.standard_normal((c, h, w)), ((0, 0), (1, 1), (1, 1)))
        self.filters = rng.standard_normal((m, c, 3, 3))
        self.conv_ref = conv_reference(self.x, self.filters)

    def run(self, item, tracer=None):
        opt, ker = self.dc.optkit, self.dc.kernels
        encoded = opt.rle_encode(self.words)
        pairs = opt.rle_pair_count(self.words)
        decoded = opt.rle_decode(encoded)
        by_magnitude = opt.prune_network(self.weights, PRUNE_FRACTION)
        by_energy = opt.prune_network(self.weights, PRUNE_FRACTION, order=self.order)
        quantized = opt.quantize_uniform(self.flat, QUANT_BITS)
        convs = {route: getattr(ker, route)(self.x, self.filters) for route, _ in CONV_ROUTES}
        return encoded, pairs, decoded, by_magnitude, by_energy, quantized, convs

    def trace_extra(self, out):
        return {"optkit.encoded_bytes": len(out[0])}

    def alloc_peaks_mb(self) -> dict[str, float]:
        """Peak bytes allocated (tracemalloc) by the two prunes and conv_fft."""
        opt, ker = self.dc.optkit, self.dc.kernels
        tracemalloc.start()
        try:
            opt.prune_network(self.weights, PRUNE_FRACTION)
            prune = tracemalloc.get_traced_memory()[1]
            tracemalloc.reset_peak()
            opt.prune_network(self.weights, PRUNE_FRACTION, order=self.order)
            prune = max(prune, tracemalloc.get_traced_memory()[1])
            tracemalloc.reset_peak()
            ker.conv_fft(self.x, self.filters)
            fft = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        return {"optkit.prune_alloc_peak_mb": prune / 2**20,
                "kernels.conv_fft_alloc_peak_mb": fft / 2**20}

    def check(self, item, out):
        encoded, pairs, decoded, by_magnitude, by_energy, quantized, convs = out
        check_codec(self.words, encoded, decoded, pairs, self.pairs)
        check_prune(self.weights, by_magnitude, PRUNE_FRACTION)
        check_prune(self.weights, by_energy, PRUNE_FRACTION, self.lost)
        check_quantized(quantized, self.dc.optkit.quantize_uniform(quantized, QUANT_BITS))
        for route, tol in CONV_ROUTES:
            check_conv(route, convs[route], self.conv_ref, tol)

    def close(self):
        self.net_path.unlink(missing_ok=True)


WORKLOADS = {cls.name: cls for cls in (CliCold, DseSweep, ApproxKit)}
