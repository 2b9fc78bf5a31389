"""Timed loop, set-up probes and the result line.

One closed-loop client in one process: the next op starts when the previous
one has finished and been checked. A pass attempts whole rounds until it has
run for the requested seconds and attempted enough ops that the workload's
tail percentile has at least ``TAIL_BEYOND`` samples beyond it. The set-up
probes of an end-to-end pass are spread evenly over its first ``seconds``,
between ops, so that they see the same machine as the ops do.

A shared host can run the same code 1.5 times slower for minutes at a time.
So every ``REF_EVERY_S``, between ops, the pass times a reference: a fresh
interpreter that runs nothing. Op and set-up times are reported rescaled to
the host speed at which the reference takes ``REF_NOMINAL_S``, by the median
of the last three references before them. Ops of a workload with
``loop_reference`` set are pure Python; they are rescaled instead by a fixed
loop timed just before and just after each op, which tracks such code
closely and is cheap enough to run that often. ``bench/README.md`` gives
the measurements behind both.
"""

from __future__ import annotations

import json
import math
import statistics
import subprocess
import sys
import time
import traceback
from dataclasses import dataclass, field
from pathlib import Path

from . import ROOT, child_env
from .tracing import Tracer

TAIL_BEYOND = 10
SETUP_PROBES = 9
# a pass stops after the round that crosses this, whatever it has attempted
PASS_LIMIT_S = 140.0
REF_NOMINAL_S = 0.040
REF_EVERY_S = 2.0
LOOP_NOMINAL_S = 0.002
RUN_PY = Path(__file__).resolve().parents[1] / "run.py"


def nearest_rank(sorted_values: list[float], p: float) -> float:
    """The p-quantile as the ceil(p * n)-th smallest value."""
    return sorted_values[max(math.ceil(p * len(sorted_values)) - 1, 0)]


def ops_for_tail(p: float) -> int:
    """Fewest samples that leave TAIL_BEYOND of them above the p-quantile."""
    n = 1
    while n - math.ceil(p * n) < TAIL_BEYOND:
        n += 1
    return n


@dataclass
class Pass:
    """Op and set-up times rescaled to the nominal host speed, and as measured."""
    times: list[float] = field(default_factory=list)
    setup: list[float] = field(default_factory=list)
    wall: list[float] = field(default_factory=list)
    setup_wall: list[float] = field(default_factory=list)
    ref: list[float] = field(default_factory=list)
    attempted: int = 0
    failed: int = 0
    wrong: int = 0

    @property
    def scale(self) -> float:
        """Rescaling by the median of the last three references."""
        return REF_NOMINAL_S / statistics.median(self.ref[-3:])


def reference_seconds() -> float:
    """Fastest of three fresh interpreters that run nothing, spawn to exit.

    It shares no code with the package, so a change to the package cannot
    move it; about 40 ms at full host speed.
    """
    best = math.inf
    for _ in range(3):
        t0 = time.perf_counter()
        subprocess.run([sys.executable, "-c", "pass"], cwd=ROOT, env=child_env(), check=True)
        best = min(best, time.perf_counter() - t0)
    return best


def loop_seconds() -> float:
    """Fastest of three runs of a fixed dict-update loop that shares no code
    with the package; about 2 ms at full host speed."""
    best = math.inf
    for _ in range(3):
        t0 = time.perf_counter()
        table: dict[int, int] = {}
        for i in range(20000):
            table[i & 255] = table.get(i & 255, 0) + i
        best = min(best, time.perf_counter() - t0)
    return best


def run_pass(workload, seconds: float, min_ops: int, tracer: Tracer | None = None,
             items=None, seed: int | None = None) -> Pass:
    """Run whole rounds of ``workload`` (or of ``items``), checking each op.

    With a ``seed``, the pass also takes ``SETUP_PROBES`` set-up probes.
    """
    result = Pass(ref=[reference_seconds()])
    loop = loop_seconds() if workload.loop_reference else None
    probes = SETUP_PROBES if seed is not None else 0
    start = last_ref = time.perf_counter()
    while True:
        for item in (workload.round() if items is None else items):
            now = time.perf_counter()
            if now - last_ref >= REF_EVERY_S:
                result.ref.append(reference_seconds())
                last_ref = now
            if len(result.setup) < probes and now - start >= len(result.setup) * seconds / probes:
                _take_setup_probe(result, workload.name, seed)
            result.attempted += 1
            if tracer is not None:
                tracer.begin_op()
            t0 = time.perf_counter()
            try:
                out = workload.run(item, tracer)
            except Exception:  # an op that raises counts as failed; the run goes on
                result.failed += 1
                print(f"{workload.name}: op failed\n{traceback.format_exc()}",
                      file=sys.stderr)
                if tracer is not None:
                    tracer.end_op()
                continue
            elapsed = time.perf_counter() - t0
            scale = result.scale
            if loop is not None:
                after = loop_seconds()
                scale = LOOP_NOMINAL_S / ((loop + after) / 2)
                loop = after
            if tracer is not None:
                tracer.end_op(workload.trace_extra(out), scale)
            try:
                workload.check(item, out)
            except Exception as exc:  # a wrong or unreadable output fails the op
                result.failed += 1
                result.wrong += 1
                print(f"{workload.name}: check failed: {exc!r}", file=sys.stderr)
            else:
                result.times.append(elapsed * scale)
                result.wall.append(elapsed)
            del out
        wall = time.perf_counter() - start
        done = wall >= seconds and result.attempted >= min_ops
        if done or wall >= PASS_LIMIT_S:
            break
    while len(result.setup) < probes:
        _take_setup_probe(result, workload.name, seed)
    return result


def _take_setup_probe(result: Pass, workload: str, seed: int) -> None:
    elapsed = setup_probe(workload, seed)
    result.setup_wall.append(elapsed)
    result.setup.append(elapsed * result.scale)


def setup_probe(workload: str, seed: int) -> float:
    """Wall time of a fresh interpreter that imports dnncost and builds the
    workload's inputs, spawn to exit."""
    t0 = time.perf_counter()
    proc = subprocess.run([sys.executable, str(RUN_PY), "--workload", workload,
                           "--seed", str(seed), "--setup-probe"],
                          cwd=ROOT, env=child_env(), capture_output=True, check=False)
    elapsed = time.perf_counter() - t0
    if proc.returncode != 0:
        raise RuntimeError(f"set-up probe failed:\n{proc.stderr.decode()}")
    return elapsed


def timing_metrics(workload, times: list[float], setup: list[float]) -> dict:
    """Set-up and op-time metrics of one pass, from times in seconds."""
    ordered = sorted(times) or [math.nan]
    return {
        "setup_s": {"value": statistics.median(setup), "unit": "s"},
        "op_p50_ms": {"value": statistics.median(ordered) * 1e3, "unit": "ms"},
        "op_tail_ms": {"value": nearest_rank(ordered, workload.tail) * 1e3, "unit": "ms"},
        "ops_per_s": {"value": len(times) / sum(ordered), "unit": "1/s"},
    }


def end_to_end(workload, measured: Pass) -> dict:
    metrics = timing_metrics(workload, measured.times, measured.setup)
    metrics["peak_rss_mb"] = {"value": workload.peak_rss_mb(), "unit": "MB"}
    return metrics


def result_line(correct: bool, passes: list[Pass], metrics: dict) -> str:
    return json.dumps({"correct": correct,
                       "attempted": sum(p.attempted for p in passes),
                       "failed": sum(p.failed for p in passes),
                       "metrics": metrics})

