"""Acceptance suite: one test per criterion, printing one pass/fail line each.

Run with `pytest tests/test_acceptance.py -v -s` to see the lines.
"""

import json
import math
import subprocess
import sys
import time

import mpmath
import numpy as np

from lecplast import (
    INFINITE,
    MeasureSpec,
    Rule,
    TruncatedQuadraticSpace,
    build_shift_witness,
    build_transport_witness,
    check_extremal_invariance,
    check_finite_dim_plasticity,
    check_form_preservation,
    check_min_attained,
    check_rayleigh_bounds,
    check_strict_contraction,
    classify,
)
from lecplast.measures import quadrature_nodes
from lecplast.verify import plasticity_map
from conftest import atom, cantor, density, descriptor, pushforward_check, row_map, seq

mpmath.mp.dps = 40


def _record(criterion, ok, detail=""):
    print(f"ACCEPTANCE {criterion}: {'PASS' if ok else 'FAIL'} {detail}".rstrip())
    assert ok, f"criterion {criterion}: {detail}"


def test_criterion_1_classification_suite():
    corpus = [
        # the six classify examples
        (descriptor(atoms=[atom(1, INFINITE), atom(2, INFINITE)]), False, Rule.TWO_INFINITE_ATOMS),
        (descriptor(atoms=[atom(1, INFINITE)]), True, None),
        (descriptor(sequences=[seq(1, "dec")]), True, None),
        (descriptor(sequences=[seq(1, "dec"), seq(2, "inc")]), False, Rule.NO_MIN_NO_MAX),
        (descriptor(continuous=[density(1, 2)]), False, Rule.CONTINUOUS),
        (descriptor(atoms=[atom(3, INFINITE)], sequences=[seq(2, "inc")]), True, None),
        # six boundary variants
        (descriptor(sequences=[seq(1.5, "dec", offset=0.5), seq(1.5, "inc", offset=0.5)]), True, None),
        (descriptor(atoms=[atom(2, INFINITE)], sequences=[seq(2, "inc")]), True, None),
        (descriptor(atoms=[atom(1, 1)]), True, None),
        (descriptor(atoms=[atom(1, 1), atom(2, 1)]), True, None),
        (descriptor(sequences=[seq(1.2, "dec", offset=0.5), seq(2, "dec")]), True, None),
        (descriptor(atoms=[atom(2.5, INFINITE)], sequences=[seq(1.5, "inc", offset=0.5)]), True, None),
    ]
    start = time.perf_counter()
    matches = 0
    for d, plastic, rule in corpus:
        verdict = classify(d)
        ok = verdict.plastic == plastic
        if rule is not None:
            ok = ok and verdict.certificate.rule is rule
        matches += ok
    elapsed = time.perf_counter() - start
    _record(
        "1 classification-suite",
        matches == len(corpus) and elapsed < 1.0,
        f"({matches}/{len(corpus)} verdicts, {elapsed * 1e3:.1f} ms)",
    )


def test_criterion_2_shift_witness_exactness():
    cases = [
        (
            descriptor(atoms=[atom(1, INFINITE), atom(2, INFINITE)]),
            float(1 - mpmath.sqrt(mpmath.mpf(1) / 2)),
        ),
        (
            descriptor(sequences=[seq(1, "dec"), seq(2, "inc")]),
            float(1 - mpmath.sqrt(mpmath.mpf(5) / 6)),
        ),
    ]
    worst_form = 0.0
    worst_delta_dev = 0.0
    factors_ok = True
    for d, expected_delta in cases:
        w = build_shift_witness(d, classify(d).certificate, K=50)
        report = check_form_preservation(w)
        worst_form = max(worst_form, report.worst_residual)
        factors_ok = factors_ok and bool((w.factors <= 1.0).all())
        delta = 1.0 - check_strict_contraction(w).worst_residual
        worst_delta_dev = max(worst_delta_dev, abs(delta - expected_delta))
    _record(
        "2 shift-witness-exactness",
        worst_form <= 1e-12 and factors_ok and worst_delta_dev <= 1e-12,
        f"(form {worst_form:.2e}, delta dev {worst_delta_dev:.2e})",
    )


def test_criterion_3_closed_form_transport_oracle():
    w = build_transport_witness(density(1.0, 2.0), K=12)
    a, K = w.endpoints, w.window
    # Cells k = -10..10 are rows p = k + K of the stacked multiplier calls.
    rows = np.arange(-10, 11) + K
    ak, ak1, ak2 = (a[rows + shift, None] for shift in range(3))
    nodes = quadrature_nodes(w.cells[:-1], nodes=100)
    oracle = nodes[rows] * (ak1 - ak) / (nodes[rows] * (ak2 - ak1) + ak1**2 - ak * ak2)
    worst = np.abs(w.multiplier_squared(nodes)[rows] - oracle).max()
    ends = w.multiplier_squared(np.stack([a[:-2], a[1:-1]], axis=1))[rows]
    worst_endpoint = max(np.abs(ends[:, :1] - ak / ak1).max(),
                         np.abs(ends[:, 1:] - ak1 / ak2).max())
    _record(
        "3 closed-form-transport-oracle",
        worst <= 1e-9 and worst_endpoint <= 1e-10,
        f"(interior {worst:.2e}, endpoints {worst_endpoint:.2e})",
    )


def _hk_isometry_worst(w, nodes, funcs, rng):
    """Relative norm defect of H_k f = f o G_k * sqrt(M_k/M_{k+1}) per cell."""
    worst = 0.0
    for p in range(2 * w.window - 1):
        rows = slice(p, p + 1)
        s_nodes = quadrature_nodes(w.cells[rows], nodes=nodes)[0]
        t_nodes = quadrature_nodes(w.cells[p + 1:p + 2], nodes=nodes)
        pulled = w.maps[rows](t_nodes)[0]
        du_s, du_t = w.masses[p] / nodes, w.masses[p + 1] / nodes
        ratio = w.masses[p] / w.masses[p + 1]
        lo, span = w.endpoints[p], w.endpoints[p + 1] - w.endpoints[p]
        for _ in range(funcs):
            coeffs = rng.normal(size=4)
            f = lambda t: np.polynomial.polynomial.polyval((t - lo) / span, coeffs)
            lhs = du_t * ratio * float(np.sum(f(pulled) ** 2))
            rhs = du_s * float(np.sum(f(s_nodes) ** 2))
            worst = max(worst, abs(lhs - rhs) / rhs)
    return worst


def test_criterion_4_transport_isometry():
    rng = np.random.default_rng(404)
    w_density = build_transport_witness(density(1.0, 2.0, coeffs=(0.25, 1.0)), K=4)
    worst_density = _hk_isometry_worst(w_density, nodes=4096, funcs=20, rng=rng)
    w_cantor = build_transport_witness(cantor(1.0, 2.0), K=3)
    worst_cantor = _hk_isometry_worst(w_cantor, nodes=4096, funcs=20, rng=rng)
    _record(
        "4 transport-isometry",
        worst_density <= 1e-5 and worst_cantor <= 1e-3,
        f"(density {worst_density:.2e}, cantor {worst_cantor:.2e})",
    )


def test_criterion_5_pushforward_identity():
    rng = np.random.default_rng(505)
    src = MeasureSpec(density(1.0, 2.0, coeffs=(0.0, 2.0)))
    dst = MeasureSpec(density(0.5, 3.0, coeffs=(1.0, 0.5)))
    intervals = np.sort(rng.uniform(0.5, 3.0, size=(100, 2)), axis=1)
    res_density = pushforward_check(src, dst, row_map(src, dst), intervals)

    cantor_m = MeasureSpec(cantor(0.0, 1.0))
    uniform = MeasureSpec(density(0.0, 1.0))
    intervals = np.sort(rng.uniform(0.0, 1.0, size=(100, 2)), axis=1)
    res_cantor = pushforward_check(
        cantor_m, uniform, row_map(cantor_m, uniform), intervals
    )
    quantile_dev = abs(cantor_m.quantile(0.5) - 2.0 / 3.0)
    _record(
        "5 pushforward-identity",
        res_density <= 1e-9 and res_cantor <= 1e-6 and quantile_dev <= 2.0**-20,
        f"(density {res_density:.2e}, cantor {res_cantor:.2e}, F^-1(1/2) dev {quantile_dev:.2e})",
    )


def test_criterion_6_rayleigh_minimizer_suite():
    rng = np.random.default_rng(606)
    all_pass = True
    for i in range(50):
        count = int(rng.integers(2, 17))
        values = np.sort(rng.uniform(0.5, 4.0, size=count))
        mults = rng.integers(1, 5, size=count)
        while mults.sum() > 64:
            mults = np.maximum(1, mults - 1)
        space = TruncatedQuadraticSpace(values, int(mults.sum()))
        rng.integers(1 << 31)  # once the checks' seed; drawn so later spectra stay the same
        all_pass = all_pass and check_rayleigh_bounds(space).passed
        all_pass = all_pass and check_min_attained(space).passed
    _record("6 rayleigh-minimizer-suite", all_pass, "(50 random truncations, n <= 64)")


def test_criterion_7_finite_dim_surrogate():
    lam = np.array([1.0, 2.0])
    norms = []
    for theta in np.linspace(0.0, 2.0 * math.pi, 360, endpoint=False):
        u = np.array(
            [[math.cos(theta), -math.sin(theta)], [math.sin(theta), math.cos(theta)]]
        )
        norms.append(np.linalg.norm(plasticity_map(lam, u), 2))
    norms = np.array(norms)
    never_contracts = bool((norms >= 1.0 - 1e-12).all())

    u45 = np.array(
        [[math.cos(math.pi / 4), -math.sin(math.pi / 4)],
         [math.sin(math.pi / 4), math.cos(math.pi / 4)]]
    )
    oracle_45 = math.sqrt((2.25 + math.sqrt(1.0625)) / 2.0)
    dev_45 = abs(np.linalg.norm(plasticity_map(lam, u45), 2) - 1.28078)
    dev_oracle = abs(np.linalg.norm(plasticity_map(lam, u45), 2) - oracle_45)

    dev_id = max(
        abs(np.linalg.norm(plasticity_map(lam, np.eye(2)), 2) - 1.0),
        abs(np.linalg.norm(plasticity_map(lam, -np.eye(2)), 2) - 1.0),
    )

    rng = np.random.default_rng(707)
    checks_pass = True
    worst = 0.0
    for _ in range(7):
        rng.integers(1 << 31)  # once the checks' seeds; drawn so the spectra stay the same
        fd = check_finite_dim_plasticity()
        count = int(rng.integers(2, 5))
        values = np.sort(rng.uniform(0.5, 2.5, size=count))
        mults = rng.integers(1, 3, size=count)
        space = TruncatedQuadraticSpace(values, int(mults.sum()))
        rng.integers(1 << 31)
        ex = check_extremal_invariance(space)
        checks_pass = checks_pass and fd.passed and ex.passed
        worst = max(worst, fd.worst_residual, ex.worst_residual)
    _record(
        "7 finite-dim-surrogate",
        never_contracts
        and dev_45 <= 1e-4
        and dev_oracle <= 1e-10
        and dev_id <= 1e-9
        and checks_pass
        and worst <= 1e-8,
        f"(|T| min {norms.min():.12f}, pi/4 dev {dev_45:.2e}, residuals {worst:.2e})",
    )


def test_criterion_8_cli_end_to_end(tmp_path):
    input_path = tmp_path / "lebesgue.json"
    input_path.write_text(
        json.dumps({"continuous": [{"kind": "density", "support": [1, 2], "coeffs": [1]}]})
    )
    outputs = []
    codes = []
    for name in ("first.json", "second.json"):
        out = tmp_path / name
        proc = subprocess.run(
            [sys.executable, "-m", "lecplast", "all",
             "--input", str(input_path), "--output", str(out), "--seed", "0"],
            capture_output=True,
            timeout=300,
        )
        codes.append(proc.returncode)
        outputs.append(out.read_bytes())
    report = json.loads(outputs[0])
    all_pass = all(c["pass"] for c in report["checks"])
    _record(
        "8 cli-end-to-end",
        codes == [3, 3] and all_pass and outputs[0] == outputs[1],
        f"(exit codes {codes}, {len(report['checks'])} checks, "
        f"byte-identical={outputs[0] == outputs[1]})",
    )
