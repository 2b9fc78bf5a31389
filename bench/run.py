"""dnncost benchmark: one workload, one seed, one result line.

    python3 bench/run.py --workload cli_cold --seed 1 --seconds 30 --trace 0

Run from the root of a checkout; the package under ``src/`` is measured.
With ``--trace 0`` the last line of stdout is a JSON object with the
end-to-end metrics; with ``--trace 1`` it holds the per-layer metrics of a
separate traced run, and the spans go to ``bench/out/trace-<workload>-<seed>.json``.
See ``bench/README.md`` for the workloads, metrics and checks.
"""

from __future__ import annotations

import argparse
import json
import statistics
import sys
import time

from benchlib import OUT, SetupError, use_checkout
from benchlib.harness import (end_to_end, ops_for_tail, result_line, run_pass,
                              timing_metrics)
from benchlib.tracing import Tracer, median_by_key
from benchlib.workloads import WORKLOADS

# traced-run figures taken as they come from the spans; the rest are derived
PER_LAYER_SPANS = (
    "cli.interp_start_ms", "cli.import_ms", "cli.numpy_import_ms", "cli.main_ms",
    "cli.stdout_bytes",
    "zoo.builtin_ms", "netmodel.parse_network_ms", "netmodel.resolve_shapes_ms",
    "stats.network_stats_ms", "archmodel.parse_arch_ms",
    "dataflow.reuse_factors_ms", "dataflow.access_counts_ms",
    "energy.layer_energy_ms", "energy.network_energy_ms", "energy.compare_dataflows_ms",
    "energy.compare_dataflows_ms.googlenet", "energy.compare_dataflows_ms.resnet50",
    "optkit.rle_encode_ms", "optkit.rle_decode_ms", "optkit.rle_pair_count_ms",
    "optkit.encoded_bytes", "optkit.prune_magnitude_order_ms",
    "optkit.prune_energy_order_ms", "optkit.quantize_uniform_ms",
    "kernels.conv_direct_ms", "kernels.conv_im2col_ms", "kernels.conv_winograd_ms",
    "kernels.conv_fft_ms",
)
UNITS = {"_ms": "ms", "_mb": "MB", "_bytes": "bytes", "_evals": "count"}
# seconds of each untraced and each traced block of the traced run
TRACE_BLOCK_S = 2.0
# ops each other workload runs traced, so that every layer reports
PROBE_ROUNDS = {"cli_cold": 1, "dse_sweep": 10, "approx_kit": 3}


def _unit(name: str) -> str:
    base = name.split(".googlenet")[0].split(".resnet50")[0]
    return next(unit for suffix, unit in UNITS.items() if base.endswith(suffix))


def _end_to_end_run(dc, workload, seed, seconds):
    workload.setup(dc, seed)
    run_pass(workload, 0, 1, items=workload.round()[:1])  # fills caches, uncounted
    measured = run_pass(workload, seconds, ops_for_tail(workload.tail), seed=seed)
    wall = timing_metrics(workload, measured.wall, measured.setup_wall)
    print(f"{workload.name}: {measured.attempted} ops, {measured.failed} failed, "
          f"p{workload.tail * 100:g} over {len(measured.times)} samples; reference "
          f"median {statistics.median(measured.ref) * 1e3:.3f} ms; as measured, before "
          f"rescaling: " + ", ".join(f"{name} {m['value']:.4g} {m['unit']}"
                                     for name, m in wall.items()), file=sys.stderr)
    return [measured], measured.wrong == 0, end_to_end(workload, measured)


def _traced_run(dc, workload, seed, seconds):
    """Untraced and traced blocks of the workload in turn, so that a drift in
    host speed does not show as tracing overhead, then short traced passes of
    the others so that every layer reports."""
    workload.setup(dc, seed)
    run_pass(workload, 0, 1, items=workload.round()[:1])
    tracers = {workload.name: Tracer()}
    passes = []
    start = time.perf_counter()
    while time.perf_counter() - start < seconds:
        passes.append(run_pass(workload, TRACE_BLOCK_S, 1))
        with tracers[workload.name].patch(dc):
            passes.append(run_pass(workload, TRACE_BLOCK_S, 1, tracer=tracers[workload.name]))
    plain = [t for p in passes[0::2] for t in p.times]
    traced = [t for p in passes[1::2] for t in p.times]
    figures = {}
    for name, cls in WORKLOADS.items():
        if name == workload.name:
            figures.update(median_by_key(tracers[name].ops))
            if name == "approx_kit":
                figures.update(workload.alloc_peaks_mb())
            continue
        other = cls()
        other.setup(dc, seed)
        try:
            tracers[name] = Tracer()
            with tracers[name].patch(dc):
                passes.append(run_pass(other, 0, 1, tracer=tracers[name],
                                       items=other.probe_round() * PROBE_ROUNDS[name]))
            figures.update(median_by_key(tracers[name].ops))
            if name == "approx_kit":
                figures.update(other.alloc_peaks_mb())
        finally:
            other.close()
    figures["dataflow.layer_evals"] = figures["dataflow.access_counts.calls"]
    figures["trace.overhead_ms"] = (statistics.median(traced)
                                    - statistics.median(plain)) * 1e3
    names = PER_LAYER_SPANS + ("dataflow.layer_evals", "optkit.prune_alloc_peak_mb",
                               "kernels.conv_fft_alloc_peak_mb", "trace.overhead_ms")
    metrics = {name: {"value": figures[name], "unit": _unit(name)} for name in names}
    path = OUT / f"trace-{workload.name}-{seed}.json"
    with open(path, "w", encoding="utf-8") as fh:
        json.dump({"workload": workload.name, "seed": seed, "metrics": metrics,
                   "tracers": {name: tr.dump() for name, tr in tracers.items()}}, fh)
    print(f"{workload.name}: spans written to {path}", file=sys.stderr)
    return passes, all(p.wrong == 0 for p in passes), metrics


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", choices=sorted(WORKLOADS), required=True)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, default=30.0)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--setup-probe", action="store_true", help=argparse.SUPPRESS)
    args = parser.parse_args(argv)
    try:
        dc = use_checkout()
    except SetupError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2
    workload = WORKLOADS[args.workload]()
    if args.setup_probe:
        workload.setup(dc, args.seed)
        workload.close()
        return 0
    run = _traced_run if args.trace else _end_to_end_run
    try:
        passes, correct, metrics = run(dc, workload, args.seed, args.seconds)
    finally:
        workload.close()
    print(result_line(correct, passes, metrics))
    return 0


if __name__ == "__main__":
    sys.exit(main())
