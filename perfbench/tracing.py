"""Spans around the calls into each ``lecplast`` layer, recorded from outside.

``Tracer.install`` swaps the public callables that ``lecplast.cli``,
``lecplast.witness`` and ``lecplast.verify`` reach for thin wrappers that
record a span (name, start, end, parent span, run id, family, command) and,
where it matters, a size (levels, points, dimension, computed n^3).  The
program's own files are untouched; ``uninstall`` restores every attribute.

Span names are ``<layer>.<call>``; the layer is the part before the first
dot.  ``derive`` turns the spans of one traced pass into the per-layer
metrics listed in ``LAYER_METRICS``.
"""

from __future__ import annotations

import functools
import json
from collections import defaultdict
from time import perf_counter

import numpy as np

CHECKS = (
    "form_preservation",
    "nonexpansive",
    "strict_contraction",
    "rayleigh_bounds",
    "min_attained",
    "finite_dim_plasticity",
    "extremal_invariance",
)
LAYERS = ("cli", "spectrum", "plasticity", "witness", "measures", "verify")

_SCREEN = "screen"
_TV = "transport_verify"
_PV = "point_verify"

#: (metric, unit, end-to-end metric and workload it should move)
LAYER_METRICS = [
    ("cli.self_s", "s", f"latency_s.p50, descriptors_per_s on {_SCREEN}"),
    ("cli.report_bytes", "count", f"latency_s.p50, descriptors_per_s on {_SCREEN}"),
    ("spectrum.parse_s", "s", f"latency_s.p50 on {_SCREEN}"),
    ("spectrum.parse_calls", "count", f"latency_s.p50 on {_SCREEN}"),
    ("spectrum.truncate_s", "s", f"latency_s.p50 on {_PV}"),
    ("spectrum.truncated_dim_sum", "count", f"latency_s.p50 on {_PV}"),
    ("plasticity.classify_s", "s", f"latency_s.p50 on {_SCREEN}"),
    ("plasticity.classify_calls", "count", f"latency_s.p50 on {_SCREEN}"),
    ("witness.shift_build_s", "s", f"latency_s.p50 on {_SCREEN}"),
    ("witness.transport_build_s", "s", f"descriptors_per_s, latency_s.p90 on {_SCREEN}"),
    ("witness.serialize_s", "s", f"descriptors_per_s, latency_s.p90 on {_SCREEN}"),
    ("measures.quantile_s", "s", f"descriptors_per_s, latency_s.p50 on {_TV}; latency_s.p90 on {_SCREEN}"),
    ("measures.quantile_calls", "count", f"descriptors_per_s, latency_s.p50 on {_TV}"),
    ("measures.quantile_levels", "count", f"descriptors_per_s, latency_s.p50 on {_TV}"),
    ("measures.cdf_calls", "count", f"descriptors_per_s on {_TV}"),
    ("measures.cdf_points", "count", f"descriptors_per_s on {_TV}"),
    ("measures.cdf_calls_per_quantile", "ratio", f"descriptors_per_s on {_TV}"),
    ("measures.cantor_s", "s", f"descriptors_per_s on {_TV} (Cantor share)"),
    ("measures.cantor_calls", "count", f"descriptors_per_s on {_TV} (Cantor share)"),
    ("measures.transport_s", "s", f"descriptors_per_s on {_TV}"),
    ("measures.transport_calls", "count", f"descriptors_per_s on {_TV}"),
    ("measures.quadrature_calls", "count", f"descriptors_per_s on {_TV}"),
    ("verify.form_preservation_s", "s", f"latency_s.p50 on {_TV}"),
    ("verify.nonexpansive_s", "s", f"latency_s.p50 on {_TV}"),
    ("verify.strict_contraction_s", "s", f"latency_s.p50 on {_TV}"),
    ("verify.rayleigh_bounds_s", "s", f"latency_s.p50 on {_PV}"),
    ("verify.min_attained_s", "s", f"latency_s.p50 on {_PV}"),
    ("verify.finite_dim_plasticity_s", "s", "near-constant on every verify workload"),
    ("verify.extremal_invariance_s", "s", f"latency_s.p50, peak_rss_mb on {_PV}"),
    ("verify.transport_tables_s", "s", f"descriptors_per_s on {_TV}"),
    ("verify.transport_tables_calls", "count", f"descriptors_per_s on {_TV}"),
    ("verify.quadrature_calls_per_witness", "ratio", f"descriptors_per_s on {_TV}"),
    ("verify.linalg_calls", "count", f"latency_s.p50, peak_rss_mb on {_PV}"),
    ("verify.linalg_n3_sum", "n3-computed", f"latency_s.p50, peak_rss_mb on {_PV}"),
    ("verify.samples", "count", "none: a drop means a check was weakened"),
    ("verify.checks_failed", "count", "failed runs on every verify workload"),
    ("spectrum.self_s", "s", f"latency_s.p50 on {_SCREEN}"),
    ("plasticity.self_s", "s", f"latency_s.p50 on {_SCREEN}"),
    ("witness.self_s", "s", f"latency_s.p50 on {_SCREEN}"),
    ("measures.self_s", "s", f"descriptors_per_s on {_TV} and {_SCREEN}"),
    ("verify.self_s", "s", f"latency_s.p50 on {_TV} and {_PV}"),
    ("trace_overhead_frac", "frac", "none: cost of tracing itself"),
]

#: Metrics that count work; two traced passes over one seed must agree exactly.
EXACT_SUFFIXES = ("_calls", "_points", "_levels", "_n3_sum", "_dim_sum", "report_bytes", "samples")


def is_exact(name: str) -> bool:
    return name.endswith(EXACT_SUFFIXES)


def _size_arg(position):
    return lambda args, kwargs, result: int(np.size(args[position]))


def _n3(args, kwargs, result):
    shape = np.shape(args[0])
    m, n = shape[-2], shape[-1]
    return int(m * n * min(m, n))


def _nodes(args, kwargs, result):
    return int(kwargs["nodes"] if "nodes" in kwargs else args[2])


class _Proxy:
    """Attribute view of a module with a few names replaced."""

    def __init__(self, target, **overrides):
        self._target = target
        self.__dict__.update(overrides)

    def __getattr__(self, name):
        return getattr(self._target, name)


class Tracer:
    """In-memory span recorder; one instance per traced pass."""

    def __init__(self):
        # [name, start, end, parent index, run id, family, command, size]
        self.spans: list[list] = []
        self.context: tuple = (None, None, None)
        self._stack: list[int] = []
        self._saved: list[tuple] = []

    def wrap(self, name, fn, size=None):
        spans, stack = self.spans, self._stack

        @functools.wraps(fn)
        def traced(*args, **kwargs):
            record = [name, 0.0, 0.0, stack[-1] if stack else -1, *self.context, 0]
            stack.append(len(spans))
            spans.append(record)
            record[1] = perf_counter()
            try:
                result = fn(*args, **kwargs)
            finally:
                record[2] = perf_counter()
                stack.pop()
            if size is not None:
                record[7] = size(args, kwargs, result)
            return result

        return traced

    def _patch(self, owner, attr, new):
        raw = owner.__dict__[attr] if isinstance(owner, type) else getattr(owner, attr)
        self._saved.append((owner, attr, raw))
        setattr(owner, attr, new)

    def install(self, lp) -> None:
        """Wrap the callables of the imported ``lecplast`` package ``lp``."""
        cli, measures, verify, witness = lp.cli, lp.measures, lp.verify, lp.witness
        w = self.wrap
        self._patch(cli, "main", w("cli.main", cli.main))
        self._patch(cli, "parse_descriptor", w("spectrum.parse", cli.parse_descriptor))
        self._patch(cli, "serialize_descriptor",
                    w("spectrum.serialize", cli.serialize_descriptor))
        self._patch(cli, "classify", w("plasticity.classify", cli.classify))
        self._patch(cli, "build_shift_witness",
                    w("witness.shift_build", cli.build_shift_witness))
        self._patch(cli, "build_transport_witness",
                    w("witness.transport_build", cli.build_transport_witness))
        self._patch(cli, "witness_to_dict", w("witness.serialize", cli.witness_to_dict))
        for check in CHECKS:
            attr = f"check_{check}"
            self._patch(cli, attr, w(f"verify.{check}", getattr(cli, attr)))

        space = verify.TruncatedQuadraticSpace
        self._patch(space, "from_descriptor", classmethod(w(
            "spectrum.truncate", space.__dict__["from_descriptor"].__func__,
            lambda args, kwargs, result: result.dimension)))
        tables = verify._TransportTables
        self._patch(tables, "__init__", w("verify.transport_tables", tables.__init__))
        self._patch(verify, "quadrature_nodes",
                    w("measures.quadrature@verify", verify.quadrature_nodes, _nodes))
        self._patch(witness, "quadrature_nodes",
                    w("measures.quadrature@witness", witness.quadrature_nodes, _nodes))

        for cls in (measures.MeasureSpec, measures.RestrictedMeasure):
            self._patch(cls, "quantile", w("measures.quantile", cls.quantile, _size_arg(1)))
            self._patch(cls, "cdf", w("measures.cdf", cls.cdf, _size_arg(1)))
        self._patch(measures.TransportMap, "__call__",
                    w("measures.transport", measures.TransportMap.__call__, _size_arg(1)))
        self._patch(measures, "cantor_function",
                    w("measures.cantor", measures.cantor_function, _size_arg(0)))

        linalg = np.linalg
        svd = w("verify.linalg.svd", linalg.svd, _n3)
        qr = w("verify.linalg.qr", linalg.qr, _n3)
        norm2 = w("verify.linalg.norm2", linalg.norm, _n3)

        def norm(x, ord=None, *args, **kwargs):
            # Only the matrix 2-norm runs an SVD; vector norms stay untraced.
            if ord == 2 and np.ndim(x) == 2:
                return norm2(x, ord, *args, **kwargs)
            return linalg.norm(x, ord, *args, **kwargs)

        self._patch(verify, "np", _Proxy(np, linalg=_Proxy(linalg, svd=svd, qr=qr, norm=norm)))

    def uninstall(self) -> None:
        for owner, attr, raw in reversed(self._saved):
            setattr(owner, attr, raw)
        self._saved.clear()

    def dump(self, path: str) -> None:
        """Write the spans as JSON lines, with durations and self times."""
        self_times = _self_times(self.spans)
        keys = ("name", "start", "end", "parent", "run", "family", "command", "size")
        with open(path, "w", encoding="utf-8") as handle:
            for i, span in enumerate(self.spans):
                doc = dict(zip(keys, span), id=i, self=self_times[i])
                handle.write(json.dumps(doc) + "\n")


def _self_times(spans) -> list[float]:
    child = [0.0] * len(spans)
    for name, start, end, parent, *_ in spans:
        if parent >= 0:
            child[parent] += end - start
    return [s[2] - s[1] - child[i] for i, s in enumerate(spans)]


def _outermost(spans) -> list[bool]:
    """True for a span with no ancestor of the same name (nested cdf calls)."""
    out = []
    for span in spans:
        parent = span[3]
        while parent >= 0 and spans[parent][0] != span[0]:
            parent = spans[parent][3]
        out.append(parent < 0)
    return out


def derive(spans, harness: dict) -> dict[str, float]:
    """Per-layer metrics of one traced pass.

    ``harness`` carries what the benchmark measures outside the spans:
    report bytes, report sample counts, failed checks and the number of
    transport witnesses that went through verification.
    """
    self_times = _self_times(spans)
    outer = _outermost(spans)
    time_of, calls, size = defaultdict(float), defaultdict(int), defaultdict(int)
    layer_self = defaultdict(float)
    for i, span in enumerate(spans):
        name = span[0]
        layer_self[name.split(".", 1)[0]] += self_times[i]
        if not outer[i]:
            continue
        for key in {name, name.split("@", 1)[0]}:
            time_of[key] += span[2] - span[1]
            calls[key] += 1
            size[key] += span[7]
    linalg = [k for k in calls if k.startswith("verify.linalg.")]
    m = {
        "cli.self_s": layer_self["cli"],
        "cli.report_bytes": harness["report_bytes"],
        "spectrum.parse_s": time_of["spectrum.parse"],
        "spectrum.parse_calls": calls["spectrum.parse"],
        "spectrum.truncate_s": time_of["spectrum.truncate"],
        "spectrum.truncated_dim_sum": size["spectrum.truncate"],
        "plasticity.classify_s": time_of["plasticity.classify"],
        "plasticity.classify_calls": calls["plasticity.classify"],
        "witness.shift_build_s": time_of["witness.shift_build"],
        "witness.transport_build_s": time_of["witness.transport_build"],
        "witness.serialize_s": time_of["witness.serialize"],
        "measures.quantile_s": time_of["measures.quantile"],
        "measures.quantile_calls": calls["measures.quantile"],
        "measures.quantile_levels": size["measures.quantile"],
        "measures.cdf_calls": calls["measures.cdf"],
        "measures.cdf_points": size["measures.cdf"],
        "measures.cdf_calls_per_quantile":
            calls["measures.cdf"] / calls["measures.quantile"] if calls["measures.quantile"] else 0.0,
        "measures.cantor_s": time_of["measures.cantor"],
        "measures.cantor_calls": calls["measures.cantor"],
        "measures.transport_s": time_of["measures.transport"],
        "measures.transport_calls": calls["measures.transport"],
        "measures.quadrature_calls": calls["measures.quadrature"],
    }
    for check in CHECKS:
        m[f"verify.{check}_s"] = time_of[f"verify.{check}"]
    witnesses = harness["transport_witnesses_verified"]
    m.update({
        "verify.transport_tables_s": time_of["verify.transport_tables"],
        "verify.transport_tables_calls": calls["verify.transport_tables"],
        "verify.quadrature_calls_per_witness":
            calls["measures.quadrature@verify"] / witnesses if witnesses else 0.0,
        "verify.linalg_calls": sum(calls[k] for k in linalg),
        "verify.linalg_n3_sum": sum(size[k] for k in linalg),
        "verify.samples": harness["samples"],
        "verify.checks_failed": harness["checks_failed"],
    })
    for layer in LAYERS[1:]:
        m[f"{layer}.self_s"] = layer_self[layer]
    return m


def breakdown(spans) -> list[dict]:
    """Mean wall time and per-layer self time per (family, command) row."""
    self_times = _self_times(spans)
    rows: dict[tuple, dict] = {}
    for i, span in enumerate(spans):
        key = (span[5], span[6])
        row = rows.setdefault(key, {"family": key[0], "command": key[1], "runs": 0,
                                    "wall_s": 0.0, **{f"{l}_s": 0.0 for l in LAYERS}})
        if span[3] < 0:
            row["runs"] += 1
            row["wall_s"] += span[2] - span[1]
        row[f"{span[0].split('.', 1)[0]}_s"] += self_times[i]
    out = []
    for row in rows.values():
        n = max(row["runs"], 1)
        out.append({k: (v / n if k.endswith("_s") else v) for k, v in row.items()})
    return sorted(out, key=lambda r: (r["family"], r["command"]))
