"""Acceptance gate: one test per published claim the tool must reproduce.

Each test prints a single summary line; `pytest -v` therefore yields one
pass/fail verdict per criterion. Tolerances are pinned here, not imported,
so a library change that moves a result past its bound fails loudly.
"""

import math
import time

import numpy as np
import pytest

import dnncost as dc
from dnncost.archmodel import LEVELS
from dnncost.dataflow import DATA_TYPES, DataflowKind
from dnncost.energy import Modifiers
from dnncost.kernels import (conv_direct, conv_fft, conv_im2col,
                             conv_winograd_f22_33)
from dnncost.optkit import (compression_ratio, rle_decode, rle_encode,
                            rle_pair_count)
from dnncost.stats import DIRECT_TILE_MULTS, WINOGRAD_TILE_MULTS, mult_count
from oracles import make_conv, simulate_accesses

KINDS = list(DataflowKind)

# Published storage/compute table: (weights, MACs, relative tolerance).
PUBLISHED = {
    "lenet5": (60e3, 341e3, 0.05),
    "alexnet": (61e6, 724e6, 0.05),
    "vgg16": (138e6, 15.5e9, 0.05),
    "googlenet": (7e6, 1.43e9, 0.10),
    "resnet50": (25.5e6, 3.9e9, 0.10),
}


def test_criterion_01_storage_compute_table():
    start = time.perf_counter()
    results = {}
    for name in dc.BUILTIN_NAMES:
        net = dc.resolve_shapes(dc.builtin(name))
        report = dc.network_stats(net)
        results[name] = (report.total_weights, report.total_macs)
    elapsed = time.perf_counter() - start

    worst = 0.0
    for name, (weights, macs) in results.items():
        ref_w, ref_m, tol = PUBLISHED[name]
        dev_w = abs(weights - ref_w) / ref_w
        dev_m = abs(macs - ref_m) / ref_m
        worst = max(worst, dev_w, dev_m)
        assert dev_w <= tol, f"{name} weights {weights} vs {ref_w} ({dev_w:.2%})"
        assert dev_m <= tol, f"{name} MACs {macs} vs {ref_m} ({dev_m:.2%})"
    assert elapsed < 1.0
    print(f"criterion 1: five-network table reproduced, worst deviation "
          f"{worst:.2%}, {elapsed * 1e3:.0f} ms")


def test_criterion_02_winograd_saving():
    assert DIRECT_TILE_MULTS == 36
    assert WINOGRAD_TILE_MULTS == 16
    for out_size in (2, 4, 8, 16, 56, 224):
        direct = mult_count("direct", out_size=out_size, filter_size=3).count
        wino = mult_count("winograd", out_size=out_size, filter_size=3).count
        assert direct / wino == 2.25
    print("criterion 2: 3x3 tiling saves exactly 2.25x "
          "(36 -> 16 multiplications per tile)")


def test_criterion_03_transform_agreement():
    start = time.perf_counter()
    rng = np.random.default_rng(1234)
    worst_all = 0.0
    worst_lowering = 0.0
    for _ in range(200):
        c = int(rng.integers(1, 5))
        m = int(rng.integers(1, 5))
        h = int(rng.integers(3, 17))
        w = int(rng.integers(3, 17))
        x = rng.standard_normal((c, h, w))
        filt = rng.standard_normal((m, c, 3, 3))
        ref = conv_direct(x, filt)
        scale = max(float(np.max(np.abs(ref))), 1e-30)
        for candidate in (conv_im2col, conv_winograd_f22_33, conv_fft):
            dev = float(np.max(np.abs(candidate(x, filt) - ref))) / scale
            worst_all = max(worst_all, dev)
            if candidate is conv_im2col:
                worst_lowering = max(worst_lowering, dev)
    elapsed = time.perf_counter() - start
    assert worst_all <= 1e-6
    assert worst_lowering <= 1e-9
    assert elapsed < 10.0
    print(f"criterion 3: 200 random problems, four methods agree "
          f"(worst {worst_all:.2e}, lowering {worst_lowering:.2e}), "
          f"{elapsed:.1f} s")


def test_criterion_04_dataflow_ranking():
    net = dc.resolve_shapes(dc.builtin("alexnet"))
    arch = dc.default_arch()
    report = dc.compare_dataflows(net, arch)
    entries = {e.kind: e for e in report.entries}
    conv_names = [l.name for l in net.layers if l.kind == "conv"]
    per_layer = {kind.value: {rep.layer: rep.total
                              for rep in dc.network_energy(net, kind, arch)[0]}
                 for kind in dc.DataflowKind}

    assert report.conv_winner == "rs"
    wins = sum(
        all(per_layer["rs"][name] <= per_layer[k][name]
            for k in ("ws", "os", "nlr"))
        for name in conv_names)
    assert wins >= 4, f"rs cheapest on only {wins}/5 conv layers"

    ratios = {k: entries[k].conv_ratio for k in ("ws", "os", "nlr")}
    for kind, ratio in ratios.items():
        assert 1.1 <= ratio <= 3.5, f"{kind} conv ratio {ratio:.3f}"
    print(f"criterion 4: rs wins conv energy on {wins}/5 layers; "
          f"competitor ratios " +
          ", ".join(f"{k} {r:.2f}x" for k, r in ratios.items()))


def test_criterion_05_simulator_cross_check():
    start = time.perf_counter()
    arch = dc.default_arch()
    checked = 0
    for batch in (1, 2, 3):
        for c in (1, 2, 3):
            for m in (1, 2, 3):
                for h in (1, 2, 3):
                    for w in (1, 2, 3):
                        for r in range(1, min(h, 2) + 1):
                            for s in range(1, min(w, 2) + 1):
                                layer = make_conv(c, h, w, m, r, s, batch=batch)
                                for kind in KINDS:
                                    counts = dc.layer_access_counts(kind, layer, arch)
                                    rf, dram = simulate_accesses(
                                        kind.value, batch, c, m, h, w, r, s)
                                    for dtype in DATA_TYPES:
                                        assert counts.acc[dtype]["rf"] \
                                            == rf[dtype], (kind, dtype)
                                        assert counts.acc[dtype]["dram"] \
                                            == dram[dtype], (kind, dtype)
                                    checked += 1
    elapsed = time.perf_counter() - start
    assert elapsed < 30.0
    print(f"criterion 5: loop-nest simulator matches engine on "
          f"{checked} shape/dataflow cases, {elapsed:.1f} s")


def test_criterion_06_traffic_conservation():
    arch = dc.default_arch()
    layers_checked = 0
    for name in dc.BUILTIN_NAMES:
        net = dc.resolve_shapes(dc.builtin(name))
        for kind in KINDS:
            reports, agg = dc.network_energy(net, kind, arch)
            for layer in net.layers:
                if layer.kind not in ("conv", "fc"):
                    continue
                st = dc.layer_stats(layer)
                acc = dc.layer_access_counts(kind, layer, arch).acc
                assert acc["input"]["dram"] == st.di
                assert acc["weight"]["dram"] == st.dw
                assert acc["psum"]["dram"] == st.do
                layers_checked += 1
            for rep in reports + [agg]:
                movement = rep.movement_total
                assert math.isclose(sum(rep.by_type.values()), movement,
                                    rel_tol=1e-9)
                assert math.isclose(sum(rep.by_level.values()), movement,
                                    rel_tol=1e-9)
    print(f"criterion 6: DRAM traffic equals unique volumes and both "
          f"breakdowns agree over {layers_checked} layer/dataflow cases")


def test_criterion_07_codec():
    rng = np.random.default_rng(77)
    streams = 10_000
    for _ in range(streams):
        n = int(rng.integers(0, 129))
        sparsity = float(rng.uniform(0.3, 0.95))
        words = [0 if rng.random() < sparsity else int(v)
                 for v in rng.integers(1, 65536, size=n)]
        encoded = rle_encode(words)
        assert rle_decode(encoded) == words
        pairs = rle_pair_count(words)
        assert pairs <= len(words)
        assert len(encoded) == (21 * pairs + 7) // 8

    target = [0 if rng.random() < 0.7 else int(v)
              for v in rng.integers(1, 65536, size=10_000)]
    sparse_ratio = compression_ratio(target)
    assert sparse_ratio >= 1.5

    dense = [int(v) for v in rng.integers(1, 65536, size=4096)]
    dense_bytes = len(rle_encode(dense))
    assert dense_bytes <= math.ceil(len(dense) * 2 * 21 / 16)

    relu_like = [0 if rng.random() < 0.6 else int(v)
                 for v in rng.integers(1, 65536, size=10_000)]
    relu_ratio = compression_ratio(relu_like)  # reported, not asserted
    print(f"criterion 7: {streams} streams round-trip losslessly; "
          f"70%-zero ratio {sparse_ratio:.2f}x, dense expansion <= 21/16, "
          f"relu-like ratio {relu_ratio:.2f}x")


def test_criterion_08_quantized_compute():
    net = dc.resolve_shapes(dc.builtin("lenet5"))
    arch = dc.default_arch()
    _, base = dc.network_energy(net, DataflowKind.RS, arch)
    _, eight = dc.network_energy(net, DataflowKind.RS, arch,
                                 Modifiers(bits_in=8, bits_w=8))
    _, ten = dc.network_energy(net, DataflowKind.RS, arch,
                               Modifiers(bits_in=10, bits_w=10))
    assert eight.compute == 0.25 * base.compute
    assert ten.compute == 0.390625 * base.compute
    print("criterion 8: compute energy scales exactly 0.25x at 8 bits "
          "and 0.390625x at 10 bits")


def test_criterion_09_comparison_runtime():
    arch = dc.default_arch()
    start = time.perf_counter()
    winners = {}
    for name in dc.BUILTIN_NAMES:
        net = dc.resolve_shapes(dc.builtin(name))
        winners[name] = dc.compare_dataflows(net, arch).winner
    elapsed = time.perf_counter() - start
    assert elapsed < 10.0
    assert set(winners) == set(dc.BUILTIN_NAMES)
    print(f"criterion 9: all five networks compared in {elapsed:.2f} s; "
          f"winners " + ", ".join(f"{n} {w}" for n, w in winners.items()))
