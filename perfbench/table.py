"""Reproduce the ROADMAP baseline table: one traced `all` run per row.

Usage, from the root of a checkout (about four minutes at this revision,
most of it in the last row):

    PYTHONPATH=src OPENBLAS_NUM_THREADS=1 python3 perfbench/table.py

Each row prints its wall time, the self time of each layer and the hot
kernels the ROADMAP names (cantor_function, quantile bisection, transport
map, the transport tables and dense SVD/QR in the space checks).
"""

from __future__ import annotations

import json
import os
import sys
import tempfile
import time

sys.path.insert(0, os.path.dirname(os.path.abspath(__file__)))

import tracing  # noqa: E402

SEQS = {"sequences": [
    {"limit": 1.0, "direction": "dec", "offset": 1.0, "ratio": 0.5, "multiplicity": 1},
    {"limit": 2.0, "direction": "inc", "offset": 1.0, "ratio": 0.5, "multiplicity": 1},
]}
LEBESGUE = {"continuous": [{"kind": "density", "support": [1.0, 2.0], "coeffs": [1.0]}]}
CANTOR = {"continuous": [{"kind": "cantor", "support": [1.0, 2.0], "mass": 1.0}]}
TWO_ATOMS = {"atoms": [{"value": 1.0, "multiplicity": "inf"},
                       {"value": 2.0, "multiplicity": "inf"}]}
PLASTIC = {"atoms": [{"value": 1.0, "multiplicity": 2}],
           "sequences": [{"limit": 2.0, "direction": "inc", "offset": 1.0, "ratio": 0.5,
                          "multiplicity": 1}]}

ROWS = [
    ("two geometric sequences (shift)", SEQS, []),
    ("Lebesgue density on [1,2] (transport)", LEBESGUE, []),
    ("Cantor on [1,2] (transport)", CANTOR, []),
    ("two infinite atoms (shift)", TWO_ATOMS, []),
    ("plastic atoms + sequence", PLASTIC, []),
    ("two infinite atoms, --per-sequence 128", TWO_ATOMS, ["--per-sequence", "128"]),
    ("two infinite atoms, --per-sequence 256", TWO_ATOMS, ["--per-sequence", "256"]),
]
KERNELS = ("measures.cantor_s", "measures.quantile_s", "measures.transport_s",
           "verify.transport_tables_s", "verify.extremal_invariance_s")


def main() -> int:
    import lecplast as lp
    import lecplast.cli

    with tempfile.TemporaryDirectory(dir=os.getcwd(), prefix=".perfbench-table-") as tmp:
        path, out = os.path.join(tmp, "d.json"), os.path.join(tmp, "r.json")
        for label, doc, flags in ROWS:
            with open(path, "w", encoding="utf-8") as handle:
                json.dump(doc, handle)
            tracer = tracing.Tracer()
            tracer.install(lp)
            try:
                start = time.perf_counter()
                code = lp.cli.main(["all", "--input", path, "--output", out, *flags])
                wall = time.perf_counter() - start
            finally:
                tracer.uninstall()
            with open(out, "rb") as handle:
                report = handle.read()
            checks = json.loads(report).get("checks", ())
            metrics = tracing.derive(tracer.spans, {
                "report_bytes": len(report), "samples": sum(c["samples"] for c in checks),
                "checks_failed": sum(not c["pass"] for c in checks),
                "transport_witnesses_verified": int("continuous" in doc)})
            layers = " ".join(f"{l} {metrics[f'{l}.self_s']:.3f}" for l in tracing.LAYERS)
            kernels = " ".join(f"{k} {metrics[k]:.3f}" for k in KERNELS)
            print(f"{label}: exit {code}, wall {wall:.2f} s\n  self s: {layers}\n"
                  f"  kernels s: {kernels}; cantor_calls {metrics['measures.cantor_calls']}, "
                  f"transport_tables_calls {metrics['verify.transport_tables_calls']}, "
                  f"linalg_calls {metrics['verify.linalg_calls']}", flush=True)
    return 0


if __name__ == "__main__":
    sys.exit(main())
