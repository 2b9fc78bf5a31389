"""Spans around calls into dnncost's public functions, for the traced run.

``Tracer.patch`` replaces module attributes with timing wrappers for as long
as its context lasts. The package calls its own functions through module
globals, so wrapping ``dataflow.reuse_factors`` also times the calls that
``layer_access_counts`` makes. Spans are kept in memory: every op adds its
per-name totals, and the first ``KEEP_OPS`` ops keep their raw spans, which
``dump`` returns with self times and per-network-layer times.
"""

from __future__ import annotations

import functools
from collections import defaultdict
from contextlib import contextmanager
from time import perf_counter_ns

# (module, attribute, span name, attributes of the call)
TRACE_POINTS = [
    ("zoo", "builtin", "zoo.builtin", None),
    ("zoo", "parse_network", "netmodel.parse_network", None),
    ("netmodel", "resolve_shapes", "netmodel.resolve_shapes", None),
    ("stats", "network_stats", "stats.network_stats", None),
    ("archmodel", "parse_arch", "archmodel.parse_arch", None),
    ("energy", "compare_dataflows", "energy.compare_dataflows",
     lambda args, kw: {"network": args[0].name}),
    ("energy", "network_energy", "energy.network_energy", None),
    ("energy", "layer_access_counts", "dataflow.layer_access_counts",
     lambda args, kw: {"layer": args[1].name}),
    ("dataflow", "reuse_factors", "dataflow.reuse_factors", None),
    ("dataflow", "access_counts", "dataflow.access_counts", None),
    ("energy", "layer_energy", "energy.layer_energy",
     lambda args, kw: {"layer": args[0].layer}),
    ("optkit", "rle_encode", "optkit.rle_encode", None),
    ("optkit", "rle_decode", "optkit.rle_decode", None),
    ("optkit", "rle_pair_count", "optkit.rle_pair_count", None),
    ("optkit", "prune_network", "optkit.prune_network",
     lambda args, kw: {"order": "magnitude" if kw.get("order") is None else "energy"}),
    ("optkit", "quantize_uniform", "optkit.quantize_uniform", None),
    ("kernels", "conv_direct", "kernels.conv_direct", None),
    ("kernels", "conv_im2col", "kernels.conv_im2col", None),
    ("kernels", "conv_winograd_f22_33", "kernels.conv_winograd", None),
    ("kernels", "conv_fft", "kernels.conv_fft", None),
]
KEEP_OPS = 2


class Tracer:
    """Records spans (id, parent, name, start, end, attrs) of traced ops."""

    def __init__(self):
        self.spans: list[tuple] = []
        self.ops: list[dict[str, float]] = []
        self.layer_ms: list[dict[str, float]] = []
        self._stack: list[tuple[int, dict]] = []
        self._next = 0
        self._op: dict[str, float] | None = None
        self._layers: dict[str, float] | None = None

    def begin_op(self) -> None:
        self._op = defaultdict(float)
        self._layers = defaultdict(float)

    def end_op(self, extra: dict[str, float] | None = None, scale: float = 1.0) -> None:
        """Close the op; its times (names holding ``_ms``) are multiplied by
        ``scale``, the harness's rescaling to the nominal host speed."""
        op = dict(self._op)
        op.update(extra or {})
        self.ops.append({key: value * scale if "_ms" in key else value
                         for key, value in op.items()})
        self.layer_ms.append({key: value * scale for key, value in self._layers.items()})
        self._op = self._layers = None

    def _wrap(self, fn, name, attrs_of):
        tracer = self

        @functools.wraps(fn)
        def traced(*args, **kwargs):
            if tracer._op is None:
                return fn(*args, **kwargs)
            attrs = attrs_of(args, kwargs) if attrs_of else {}
            sid = tracer._next
            tracer._next += 1
            parent = tracer._stack[-1][0] if tracer._stack else None
            tracer._stack.append((sid, attrs))
            start = perf_counter_ns()
            try:
                return fn(*args, **kwargs)
            finally:
                end = perf_counter_ns()
                tracer._stack.pop()
                tracer._record(sid, parent, name, start, end, attrs)
        return traced

    def _record(self, sid, parent, name, start, end, attrs):
        ms = (end - start) / 1e6
        op = self._op
        op[f"{name}_ms"] += ms
        op[f"{name}.calls"] += 1
        if "order" in attrs:
            op[f"optkit.prune_{attrs['order']}_order_ms"] += ms
        if "network" in attrs:
            op[f"{name}_ms.{attrs['network']}"] += ms
        if "layer" in attrs:
            network = next((a["network"] for _, a in reversed(self._stack)
                            if "network" in a), "")
            self._layers[f"{network}/{attrs['layer']}"] += ms
        if len(self.ops) < KEEP_OPS:
            self.spans.append((sid, parent, name, start, end, attrs))

    @contextmanager
    def patch(self, dc):
        """Wrap every trace point of the package ``dc`` while the context lasts."""
        saved = []
        try:
            for module_name, attr, name, attrs_of in TRACE_POINTS:
                module = getattr(dc, module_name)
                original = getattr(module, attr)
                saved.append((module, attr, original))
                setattr(module, attr, self._wrap(original, name, attrs_of))
            yield self
        finally:
            for module, attr, original in reversed(saved):
                setattr(module, attr, original)

    def dump(self) -> dict:
        """Raw spans of the first ops with self times, and per-layer medians."""
        child_ns = defaultdict(int)
        for _, parent, _, start, end, _ in self.spans:
            if parent is not None:
                child_ns[parent] += end - start
        spans = [{"id": sid, "parent": parent, "name": name, "start_ns": start,
                  "end_ns": end, "self_ns": end - start - child_ns[sid], **attrs}
                 for sid, parent, name, start, end, attrs in self.spans]
        return {"layer_ms": median_by_key(self.layer_ms), "spans": spans}


def median_by_key(records: list[dict[str, float]]) -> dict[str, float]:
    """Median of each key over records, a missing key counting as 0."""
    keys = sorted({key for rec in records for key in rec})
    out = {}
    for key in keys:
        values = sorted(rec.get(key, 0.0) for rec in records)
        mid = len(values) // 2
        out[key] = values[mid] if len(values) % 2 else (values[mid - 1] + values[mid]) / 2
    return out
