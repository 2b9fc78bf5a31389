"""Reference figures, outside the timed workloads, written into bench/README.md.

    python3 bench/reference.py

Records the machine, ``rle_decode`` against ``rle_encode`` from 10^4 words
up, ``prune_network`` time and peak RSS on alexnet and resnet50 in both
orders (each in its own process), and the four convolution routes on a
64-channel 56x56 input with 64 3x3 filters. It takes about two minutes and
peaks above 2 GB while pruning alexnet. vgg16 is never pruned here: by the
alexnet figures it would need about 5 GB.
"""

from __future__ import annotations

import json
import os
import platform
import re
import subprocess
import sys
import time
from pathlib import Path

import numpy as np

from benchlib import ROOT, SetupError, child_env, use_checkout

README = Path(__file__).resolve().parent / "README.md"
BEGIN, END = "<!-- reference:begin -->", "<!-- reference:end -->"
CODEC_WORDS = (10_000, 16_384, 32_768, 65_536, 131_072, 262_144)
PRUNE_CASES = [(net, order) for net in ("alexnet", "resnet50")
               for order in ("magnitude", "energy")]


def machine() -> list[str]:
    cpu = "unknown cpu"
    mem_gb = float("nan")
    try:
        with open("/proc/cpuinfo", encoding="utf-8") as fh:
            cpu = next((line.split(":", 1)[1].strip() for line in fh
                        if line.startswith("model name")), cpu)
        with open("/proc/meminfo", encoding="utf-8") as fh:
            mem_gb = int(re.search(r"MemTotal:\s+(\d+)", fh.read()).group(1)) / 2**20
    except OSError:
        pass
    blas = np.show_config(mode="dicts")["Build Dependencies"]["blas"]
    return [f"- cpu: {cpu}, {len(os.sched_getaffinity(0))} cores usable "
            f"of {os.cpu_count()}",
            f"- memory: {mem_gb:.1f} GiB",
            f"- python {platform.python_version()} on {platform.system()} {platform.release()}",
            f"- numpy {np.__version__}, BLAS {blas.get('name')} {blas.get('version')}, "
            f"pinned to 1 thread"]


def codec_scaling(dc) -> list[str]:
    rng = np.random.default_rng(0)
    lines = ["| words | encode s | decode s | decode / encode |", "|---|---|---|---|"]
    for n in CODEC_WORDS:
        values = rng.integers(1, 65536, size=n)
        zero = rng.random(n) < 0.7
        words = [0 if z else int(v) for z, v in zip(zero, values)]
        t0 = time.perf_counter()
        data = dc.rle_encode(words)
        t1 = time.perf_counter()
        if dc.rle_decode(data) != words:
            raise RuntimeError(f"codec round trip failed at {n} words")
        t2 = time.perf_counter()
        lines.append(f"| {n:,} | {t1 - t0:.3f} | {t2 - t1:.3f} | {(t2 - t1) / (t1 - t0):.1f} |")
    return lines


def prune_once(dc, network: str, order: str) -> float:
    """Prune as ``dnncost prune --builtin NET --order ORDER`` does; seconds."""
    net = dc.resolve_shapes(dc.builtin(network))
    weighted = [layer for layer in net.layers if layer.kind in ("conv", "fc")]
    rng = np.random.default_rng(0)
    weights = {layer.name: rng.standard_normal(dc.layer_stats(layer).dw)
               for layer in weighted}
    ranking = None
    if order == "energy":
        reports, _ = dc.network_energy(net, dc.DataflowKind.RS, dc.default_arch())
        ranking = {rep.layer: rep.total / weights[rep.layer].size for rep in reports}
    t0 = time.perf_counter()
    dc.prune_network(weights, 0.5, order=ranking)
    return time.perf_counter() - t0


def prune_table() -> list[str]:
    lines = ["| network | order | weights | prune s | peak RSS MB |", "|---|---|---|---|---|"]
    for network, order in PRUNE_CASES:
        proc = subprocess.Popen([sys.executable, __file__, "--prune", network, order],
                                cwd=ROOT, env=child_env(), stdout=subprocess.PIPE)
        with proc.stdout:
            out = proc.stdout.read()
        _, status, usage = os.wait4(proc.pid, 0)
        proc.returncode = os.waitstatus_to_exitcode(status)
        if proc.returncode != 0:
            raise RuntimeError(f"prune {network} {order} exited {proc.returncode}")
        result = json.loads(out)
        lines.append(f"| {network} | {order} | {result['weights']:,} | "
                     f"{result['seconds']:.2f} | {usage.ru_maxrss / 1024:.0f} |")
    return lines


def conv_table(dc) -> list[str]:
    rng = np.random.default_rng(0)
    x = rng.standard_normal((64, 56, 56))
    w = rng.standard_normal((64, 64, 3, 3))
    lines = ["| route | seconds |", "|---|---|"]
    for route in ("conv_direct", "conv_im2col", "conv_winograd_f22_33", "conv_fft"):
        t0 = time.perf_counter()
        getattr(dc.kernels, route)(x, w)
        lines.append(f"| {route} | {time.perf_counter() - t0:.3f} |")
    return lines


def main(argv: list[str]) -> int:
    try:
        dc = use_checkout()
    except SetupError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2
    if argv[:1] == ["--prune"]:
        network, order = argv[1], argv[2]
        seconds = prune_once(dc, network, order)
        weights = sum(dc.layer_stats(layer).dw
                      for layer in dc.resolve_shapes(dc.builtin(network)).layers
                      if layer.kind in ("conv", "fc"))
        print(json.dumps({"seconds": seconds, "weights": weights}))
        return 0
    sections = [
        f"Measured {time.strftime('%Y-%m-%d')} with `python3 bench/reference.py`.", "",
        "Machine:", "", *machine(), "",
        "`rle_encode` and `rle_decode` at sparsity 0.7 (seed 0):", "", *codec_scaling(dc), "",
        "`prune_network` at fraction 0.5, seed-0 Gaussian weights, each case in a fresh "
        "process (peak RSS is that process's):", "", *prune_table(), "",
        "Convolution routes, 64 x 56 x 56 input, 64 filters of 3 x 3, stride 1, no pad:", "",
        *conv_table(dc),
    ]
    text = README.read_text(encoding="utf-8")
    head, rest = text.split(BEGIN, 1)
    tail = rest.split(END, 1)[1]
    README.write_text(f"{head}{BEGIN}\n" + "\n".join(sections) + f"\n{END}{tail}",
                      encoding="utf-8")
    print("\n".join(sections))
    return 0


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
