import gc
import math
import tracemalloc
import weakref
from fractions import Fraction
from functools import partial

import mpmath
import numpy as np
import pytest

from lecplast import (
    INFINITE,
    MeasureSpec,
    PreconditionError,
    ShiftWitness,
    Rule,
    TransportWitness,
    TruncatedQuadraticSpace,
    build_transport_witness,
    build_shift_witness,
    check_extremal_invariance,
    check_finite_dim_plasticity,
    check_form_preservation,
    check_min_attained,
    check_nonexpansive,
    check_rayleigh_bounds,
    check_strict_contraction,
    classify,
)
from lecplast import measures, verify
from lecplast.verify import (
    FINITE_DIM_SPECTRUM,
    NORM_SLACK,
    PROBE_ANGLES,
    plasticity_map,
)
from lecplast.measures import ROW_BLOCK, quadrature_nodes, row_blocks
from conftest import atom, cantor, density, descriptor, pairs_of, reference_points, seq, space_of

mpmath.mp.dps = 40
DELTA_TWO_ATOMS = float(1 - mpmath.sqrt(mpmath.mpf(1) / 2))
DELTA_NO_MIN_NO_MAX = float(1 - mpmath.sqrt(mpmath.mpf(5) / 6))

#: Distinct values n of a space whose 2(n - 1) extremal pairs span three
#: blocks of whole pairs and whose min's n - 1 pairs span two: n - 1 is 4/3
#: of the pairs in one block.
SPANNING = 4 * (ROW_BLOCK // PROBE_ANGLES.size) // 3 + 1


def spanning_space():
    """SPANNING simple eigenvalues evenly spaced in [1, 2)."""
    return space_of(tuple((1.0 + k / SPANNING, 1) for k in range(SPANNING)))


def shift_two_atoms(K=8):
    d = descriptor(atoms=[atom(1, INFINITE), atom(2, INFINITE)])
    return build_shift_witness(d, classify(d).certificate, K)


def shift_no_min_no_max(K=8):
    d = descriptor(sequences=[seq(1, "dec"), seq(2, "inc")])
    return build_shift_witness(d, classify(d).certificate, K)


@pytest.fixture
def singular_values_spy(monkeypatch):
    """(probes, (sigma_1, sigma_2)) of every call of the operator checks' closed form."""
    calls = []
    singular_values = verify._singular_values

    def recording(t):
        result = singular_values(t)
        calls.append((np.copy(t), result))
        return result

    monkeypatch.setattr(verify, "_singular_values", recording)
    return calls


def dense_lambdas(points):
    """The dense diagonal of the form of (value, multiplicity) points: each
    value repeated by its multiplicity."""
    return np.repeat([v for v, _ in points], [m for _, m in points]).astype(float)


def unblocked_rayleigh_bounds(points, samples, seed):
    """Reference: the sampled rayleigh_bounds on one (samples + n) x n matrix.

    Random unit rows and the eigenbasis; the residual, relative to max
    lambda, is how far the sampled quotients escape [min lambda, max lambda]
    and, for n <= 8 at >= 10^4 samples, how far their extrema stay from
    the bounds beyond 5% of the spectral width.
    """
    rng = np.random.Generator(np.random.Philox(np.random.SeedSequence(seed)))
    lam = dense_lambdas(points)
    vectors = rng.normal(size=(samples, lam.size))
    vectors = vectors / np.linalg.norm(vectors, axis=1, keepdims=True)
    vectors = np.vstack([vectors, np.eye(lam.size)])
    quotients = (vectors * vectors) @ lam
    lo, hi = lam.min(), lam.max()
    worst = max(0.0, lo - quotients.min(), quotients.max() - hi)
    if lam.size <= 8 and samples >= 10_000 and hi > lo:
        band = 0.05 * (hi - lo)
        worst = max(worst, quotients.min() - (lo + band), (hi - band) - quotients.max())
    return float(worst / hi)


def exact_squares(x):
    """Squares of the float entries of x as integers over one common denominator."""
    ratios = [float(v).as_integer_ratio() for v in x]
    denominator = max(d for _, d in ratios)  # every denominator is a power of two
    return [(n * (denominator // d)) ** 2 for n, d in ratios]


def per_sample_space_residuals(points, samples, seed):
    """Reference: sampled rayleigh_bounds and min_attained, one vector at a time.

    Each random vector is divided by its vector norm; its quotient and its
    mass outside the min group are then evaluated exactly in rational
    arithmetic.  Returns the worst rayleigh_bounds residual (escape from
    [min lambda, max lambda]) and the worst min_attained residual ((a) the
    quotient of vectors inside the group minus min lambda, (b) the shortfall
    of the quotient below min lambda + gap * outside mass), both relative to
    max lambda.
    """
    rng = np.random.Generator(np.random.Philox(np.random.SeedSequence(seed)))
    values, group_of = np.unique(dense_lambdas(points), return_inverse=True)
    dimension = group_of.size
    values = [Fraction(v) for v in values]
    lo, hi = values[0], values[-1]
    gap = values[1] - lo if len(values) > 1 else Fraction(0)

    def quotient(x):
        """Exact Rayleigh quotient and outside mass of x / ||x||."""
        shares = [0] * len(values)
        for group, square in zip(group_of, exact_squares(x / np.linalg.norm(x))):
            shares[group] += square
        total = sum(shares)
        return sum(v * s for v, s in zip(values, shares)) / total, Fraction(total - shares[0], total)

    rayleigh = attained = Fraction(0)
    for _ in range(samples):
        q, _ = quotient(rng.normal(size=dimension))
        rayleigh = max(rayleigh, lo - q, q - hi)
    if dimension >= 2:
        inside = group_of == 0
        for _ in range(samples):
            x = np.zeros(dimension)
            x[inside] = rng.normal(size=inside.sum())
            q, _ = quotient(x)
            attained = max(attained, abs(q - lo))
        for _ in range(samples):
            q, outside = quotient(rng.normal(size=dimension))
            attained = max(attained, lo + gap * outside - q)
    return float(rayleigh / hi), float(attained / hi)


#: Two infinite atoms and one simple atom between them at --per-sequence 64.
BENCH_SCALE_POINTS = tuple(reference_points(
    descriptor(atoms=[atom(1.0, INFINITE), atom(1.5, 1), atom(2.0, INFINITE)]), per_sequence=64))
NEAR_DEGENERATE_POINTS = ((1.0, 1), (1.0 + 1e-12, 1))


def rotation_map(theta, lambdas=(1.0, 2.0)):
    u = np.array(
        [[math.cos(theta), -math.sin(theta)], [math.sin(theta), math.cos(theta)]]
    )
    return plasticity_map(np.asarray(lambdas), u)


def rotation_norm_oracle(theta):
    """Closed-form ||T_theta|| for A = diag(1, 2) via trace/det of T^T T."""
    c2, s2 = math.cos(theta) ** 2, math.sin(theta) ** 2
    trace = 2.0 * c2 + 2.5 * s2
    sigma_sq = 0.5 * (trace + math.sqrt(trace**2 - 4.0))
    return math.sqrt(sigma_sq)


class TestFormPreservation:
    def test_shift_residual_vanishes(self):
        report = check_form_preservation(shift_two_atoms())
        assert report.passed and report.worst_residual <= 1e-12

    def test_transport_density(self):
        w = build_transport_witness(density(1.0, 2.0, coeffs=(0.25, 1.0)), 3)
        report = check_form_preservation(w, nodes=2048)
        assert report.passed and report.threshold == 1e-5

    def test_transport_cantor_threshold(self):
        # One tolerance per kind of residual: a Cantor part's quadrature
        # tables take the densities' threshold.
        w = build_transport_witness(cantor(1.0, 2.0), 2)
        for check in (check_form_preservation, check_nonexpansive):
            report = check(w, nodes=1024)
            assert report.passed and report.threshold == 1e-5

    def test_zero_vector_form(self):
        w = shift_two_atoms()
        x = np.zeros(w.lambdas.size)
        assert np.sum(w.lambdas * x * x) == 0.0


class TestNonexpansive:
    def test_shift(self):
        report = check_nonexpansive(shift_no_min_no_max())
        assert report.passed

    def test_single_factor_column(self):
        w = shift_two_atoms()
        x = np.zeros(w.lambdas.size)
        x[w.window + 1] = 1.0
        image = np.zeros_like(x)
        image[:-1] = w.factors * x[1:]  # T shifts slot k onto slot k - 1
        assert np.linalg.norm(image) == pytest.approx(math.sqrt(0.5), abs=1e-15)

    def test_transport(self):
        w = build_transport_witness(density(1.0, 2.0), 3)
        report = check_nonexpansive(w, nodes=1024)
        assert report.passed


class TestStrictContraction:
    def test_two_atoms_delta(self):
        report = check_strict_contraction(shift_two_atoms())
        assert report.passed
        assert 1.0 - report.worst_residual == pytest.approx(DELTA_TWO_ATOMS, abs=1e-12)

    def test_no_min_no_max_delta(self):
        report = check_strict_contraction(shift_no_min_no_max())
        assert 1.0 - report.worst_residual == pytest.approx(DELTA_NO_MIN_NO_MAX, abs=1e-12)

    def test_transport_endpoint_bound(self):
        # worst multiplier on cell 0 is bounded by a_1/a_2 = 14/15
        w = build_transport_witness(density(1.0, 2.0), 2)
        report = check_strict_contraction(w, nodes=4096)
        assert report.passed
        assert 1.0 - report.worst_residual >= 1.0 - math.sqrt(14.0 / 15.0)

    def test_transport_table_freed_with_witness(self):
        w = build_transport_witness(density(1.0, 2.0), 2)
        assert check_strict_contraction(w, nodes=64).passed
        ref = weakref.ref(w)
        del w
        gc.collect()
        assert ref() is None

    def test_failure_on_defective_witness(self):
        lam = np.array([1.0 + 2e-9, 1.0 + 2e-9, 1.0])
        w = ShiftWitness(
            window=1,
            lambdas=lam,
            basis_labels=(("atom", 1, 0), ("atom", 1, 1), ("atom", 0, 0)),
            r=1.0,
            R=1.0 + 2e-9,
            rule=Rule.TWO_INFINITE_ATOMS,
        )
        report = check_strict_contraction(w)
        assert not report.passed
        assert report.worst_residual == pytest.approx(math.sqrt(1.0 / (1.0 + 2e-9)), abs=1e-15)


def per_sample_shift_residuals(w, samples, seed):
    """Reference: the sampled shift checks, one 1-D vector at a time.

    Returns the worst form_preservation residual |q(Tx) - q(x)| over unit
    vectors with slot -K cleared, with both forms evaluated exactly in
    rational arithmetic on the float vector and the rounded image weights
    lambda_{n_{k-1}} * (lambda_{n_k}/lambda_{n_{k-1}}), relative to max
    lambda; and the worst nonexpansive growth (||Tx|| - ||x||)/||x||.
    """
    rng = np.random.Generator(np.random.Philox(np.random.SeedSequence(seed)))
    lam = [Fraction(v) for v in w.lambdas]
    weights = [Fraction(v) for v in w.lambdas[:-1] * (w.lambdas[1:] / w.lambdas[:-1])]
    form = Fraction(0)
    for _ in range(samples):
        x = rng.normal(size=w.lambdas.size)
        x[0] = 0.0
        x /= np.linalg.norm(x)
        sq = exact_squares(x)
        q = sum(v * s for v, s in zip(lam, sq))
        image_q = sum(v * s for v, s in zip(weights, sq[1:]))
        form = max(form, abs(image_q - q) / sum(sq))
    rng = np.random.Generator(np.random.Philox(np.random.SeedSequence(seed)))
    growth = -math.inf
    for _ in range(samples):
        x = rng.normal(size=w.lambdas.size)
        image = np.zeros_like(x)
        image[:-1] = w.factors * x[1:]
        norm = np.linalg.norm(x)
        growth = max(growth, (np.linalg.norm(image) - norm) / norm)
    return float(form / max(lam)), growth


def per_node_transport_residuals(w, samples, seed, nodes):
    """Reference: random cubics evaluated node by node through the transport maps.

    Each sample draws a cubic per cell with a successor, in the coordinate
    of the cell's nodes, and evaluates it at those nodes and at the pulled
    nodes G_p(t) of the successor, with g^2 = G_p(t) / t; no value goes
    through the check tables or ``multiplier_squared``.  Returns the worst
    form_preservation and nonexpansive residuals over the samples.
    """
    rng = np.random.Generator(np.random.Philox(np.random.SeedSequence(seed)))
    K = w.window
    cells = [(quadrature_nodes(w.cells[p:p + 1], nodes=nodes)[0], w.masses[p] / nodes)
             for p in range(2 * K)]
    pulled = [w.maps[p:p + 1](cells[p + 1][0][None])[0] for p in range(2 * K - 1)]
    form, growth = 0.0, -math.inf
    for _ in range(samples):
        q = image_q = norm_sq = image_norm_sq = 0.0
        for p, (x, du) in enumerate(cells[:-1]):
            t, next_du = cells[p + 1]
            gsq = pulled[p] / t
            image_du = next_du * (w.masses[p] / w.masses[p + 1])
            coeffs = rng.normal(size=4)
            f_x, f_pulled = (
                np.polynomial.polynomial.polyval((s - x[0]) / (x[-1] - x[0]), coeffs) ** 2
                for s in (x, pulled[p])
            )
            q += du * float(np.sum(x * f_x))
            image_q += image_du * float(np.sum(t * gsq * f_pulled))
            norm_sq += du * float(np.sum(f_x))
            image_norm_sq += image_du * float(np.sum(gsq * f_pulled))
        form = max(form, abs(image_q - q) / q)
        growth = max(growth, (image_norm_sq**0.5 - norm_sq**0.5) / norm_sq**0.5)
    return form, growth


def nbytes(value):
    """Bytes of the arrays in an object's attributes, lists and tuples."""
    if isinstance(value, np.ndarray):
        return value.nbytes
    if isinstance(value, (list, tuple)):
        return sum(nbytes(v) for v in value)
    if hasattr(value, "__dict__"):
        return sum(nbytes(v) for v in vars(value).values())
    return 0


TRANSPORT_PARTS = {
    "degree0": density(1.0, 2.0),
    "degree1": density(1.0, 2.0, coeffs=(0.25, 1.0)),
    "degree2": density(0.5, 3.0, coeffs=(1.0, 0.5, 2.0)),
    "degree3": density(1.0, 4.0, coeffs=(0.5, 0.0, 0.0, 1.0)),
    "cantor": cantor(1.0, 2.0),
}


class TestAgainstPerSampleLoops:
    @pytest.mark.parametrize("K", [1, 3, 16])
    @pytest.mark.parametrize("part", list(TRANSPORT_PARTS), ids=str)
    def test_transport_suprema_bound_node_loop(self, part, K):
        # The per-node suprema over all functions bound every sampled cubic.
        w = build_transport_witness(TRANSPORT_PARTS[part], K)
        reports = [check(w, nodes=1024)
                   for check in (check_form_preservation, check_nonexpansive)]
        assert [r.samples for r in reports] == [2 * K - 1, 2 * K - 1]
        for seed in (K, K + 1, K + 2):
            sampled = per_node_transport_residuals(w, samples=40, seed=seed, nodes=1024)
            for report, worst in zip(reports, sampled):
                assert report.worst_residual >= worst - 1e-12
                assert report.passed == (worst <= report.threshold)

    @pytest.mark.parametrize(
        "d",
        [
            descriptor(atoms=[atom(1, INFINITE), atom(2, INFINITE)]),
            descriptor(sequences=[seq(1, "dec"), seq(2, "inc")]),
            descriptor(atoms=[atom(1, INFINITE)], sequences=[seq(2, "inc", ratio=0.8)]),
            descriptor(atoms=[atom(2, INFINITE)], sequences=[seq(1, "dec", ratio=0.9)]),
            descriptor(sequences=[seq(1, "dec", offset=0.7, ratio=0.85),
                                  seq(3, "inc", offset=0.7, ratio=0.85)]),
        ],
        ids=["two_atoms", "two_sequences", "atom_min_seq", "seq_atom_max", "rounded_ratios"],
    )
    @pytest.mark.parametrize("K", [1, 8, 16])
    def test_batched_shift_checks_equal_per_sample_loop(self, d, K):
        # The exact per-slot residuals bound every sampled residual.
        w = build_shift_witness(d, classify(d).certificate, K)
        reports = [check(w) for check in (check_form_preservation, check_nonexpansive)]
        assert [r.samples for r in reports] == [2 * K, 2 * K]
        for seed in (K + 11, K + 12, K + 13):
            sampled = per_sample_shift_residuals(w, samples=200, seed=seed)
            for report, worst in zip(reports, sampled):
                assert report.worst_residual >= worst
                assert report.passed == (worst <= report.threshold)

    @pytest.mark.parametrize("n", [1, 3, 17, 33, 129])
    def test_row_norms_equal_vector_norms(self, n):
        # Vectors normalised by their vector norms, quotients evaluated
        # exactly: the exact space residuals bound every sampled one.
        counts = [len(part) for part in np.array_split(np.arange(n), min(n, 4))]
        values = np.linspace(1.0, 2.5, len(counts))
        points = tuple(zip(values, counts))
        space = space_of(points)
        checks = [check_rayleigh_bounds, check_min_attained][: 1 + (n >= 2)]
        reports = [check(space) for check in checks]
        for seed in (n, n + 1, n + 2):
            sampled = per_sample_space_residuals(points, samples=200, seed=seed)
            for report, worst in zip(reports, sampled):
                assert report.worst_residual >= worst
                assert report.passed == (worst <= report.threshold)

    def test_table_build_batches_quantile_calls(self, monkeypatch):
        # every windowed quantile goes through the base measure's solve,
        # once per block of whole rows of at most ROW_BLOCK levels (a Cantor
        # witness calls none: see TestCantorClosedForm)
        K, nodes = 16, 256
        w = build_transport_witness(density(1.0, 2.0, coeffs=(0.25, 1.0)), K)
        calls = []
        solve = MeasureSpec._solve

        def counting_solve(self, levels, offset=0.0):
            calls.append(np.size(levels))
            return solve(self, levels, offset)

        monkeypatch.setattr(MeasureSpec, "_solve", counting_solve)
        verify._TransportTables(w, nodes)
        blocks = lambda rows: math.ceil(rows * nodes / ROW_BLOCK)
        assert len(calls) <= blocks(2 * K) + blocks(2 * K - 1)
        assert sum(calls) == (4 * K - 1) * nodes

    def test_table_size_does_not_grow_with_nodes(self):
        w = build_transport_witness(density(1.0, 2.0), 3)
        small, large = (nbytes(verify._TransportTables(w, n)) for n in (256, 4096))
        assert small == large > 0

    def test_tables_leave_no_arrays_behind(self):
        # Whatever a measure sets up for its quantiles lives and dies with it:
        # 20 witnesses and their tables, built and dropped, give back every
        # array byte, and one table build peaks below 2.5 MB (its one column
        # block of nodes is 1 MB, a row block of g^2 64 kB).
        arrays = [tracemalloc.DomainFilter(True, np.lib.tracemalloc_domain)]
        traced = lambda: sum(t.size for t in tracemalloc.take_snapshot().filter_traces(arrays).traces)
        tracemalloc.start()
        try:
            start = traced()
            for i in range(20):
                w = build_transport_witness(density(1.0 + 0.1 * i, 2.5 + 0.1 * i, (1.0, 0.3, 0.2)), 16)
                tracemalloc.reset_peak()
                before = tracemalloc.get_traced_memory()[0]
                verify._TransportTables(w, 4096)
                assert tracemalloc.get_traced_memory()[1] - before <= 2.5e6
                del w
            assert traced() == start
        finally:
            tracemalloc.stop()


class TestBlockSize:
    """Each row of a stacked evaluation is evaluated alone, so the tables do
    not depend on how many rows share a block."""

    @pytest.mark.parametrize("part, K, nodes", [
        (density(1.0, 2.5, (1.0, 0.3, 0.2)), 16, 4096),
        (density(1.0, 2.0, (0.25, 1.0)), 8, 1024),
        (cantor(1.0, 2.0), 16, 256),
    ], ids=["density-16-4096", "density-8-1024", "cantor-16-256"])
    def test_tables_equal_at_4096_level_blocks(self, monkeypatch, part, K, nodes):
        w = build_transport_witness(part, K)
        tables = verify._TransportTables(w, nodes)
        blocks = len(row_blocks(2 * K, nodes))
        monkeypatch.setattr(measures, "ROW_BLOCK", 4096)
        assert len(row_blocks(2 * K, nodes)) == 2 * K * nodes // 4096 > blocks
        small = verify._TransportTables(w, nodes)
        for name in ("form", "gain", "contraction"):
            large, at_4096 = (np.asarray(getattr(t, name)) for t in (tables, small))
            assert large.tobytes() == at_4096.tobytes(), name


class TestTransportSuprema:
    @pytest.mark.parametrize("K, nodes", [
        *(pytest.param(K, 1024, id=str(K)) for K in (1, 3, 16)),
        # three column blocks, the last of ROW_BLOCK // 2 + 1 nodes
        *(pytest.param(K, 2 * ROW_BLOCK + ROW_BLOCK // 2 + 1, id=f"{K}-spanning") for K in (1, 3)),
    ])
    @pytest.mark.parametrize("part", list(TRANSPORT_PARTS), ids=str)
    def test_cell_suprema_match_one_row_stacks(self, part, K, nodes):
        # Each cell on its own: one-row stacks of nodes and maps, g^2 formed
        # from the inverse map, reduced in a Python loop over the cells.
        w = build_transport_witness(TRANSPORT_PARTS[part], K)
        tables = verify._TransportTables(w, nodes)
        assert tables.form.shape == tables.gain.shape == (2 * K - 1,)
        eps = np.finfo(float).eps
        for p in range(2 * K - 1):
            x, t = (quadrature_nodes(w.cells[q:q + 1], nodes=nodes)[0] for q in (p, p + 1))
            gsq = x / w.maps[p:p + 1].inverse(x[None])[0]
            assert abs(tables.form[p] - max(abs(t * gsq / x - 1.0))) <= 4 * eps
            assert tables.gain[p] == pytest.approx(math.sqrt(max(gsq)), rel=4 * eps, abs=0)
            if p == min(K, 2 * K - 2):  # the indicator of cell k = 0, or the last one at K = 1
                assert tables.contraction == pytest.approx(math.sqrt(math.fsum(gsq) / nodes),
                                                           rel=4 * eps, abs=0)

    def test_contraction_does_not_drift_over_many_column_blocks(self, monkeypatch):
        # 10^5 nodes in column blocks of 16: 6,250 block sums of g^2 on cell 0
        monkeypatch.setattr(measures, "ROW_BLOCK", 16)
        w, nodes = build_transport_witness(density(1.0, 2.0), 1), 10**5
        contraction = verify._TransportTables(w, nodes).contraction
        gsq = w.multiplier_squared(quadrature_nodes(w.cells[:1], nodes=nodes))[0]
        exact = math.sqrt(math.fsum(gsq) / nodes)
        assert abs(contraction - exact) <= np.spacing(exact)

    @pytest.mark.parametrize("part", ["degree1", "cantor"])
    def test_nonexpansive_between_constant_and_multiplier(self, part):
        # Constant f on a cell gives a lower bound; the supremum over every
        # function of the nodes is the largest published multiplier there.
        K, nodes = 8, 512
        w = build_transport_witness(TRANSPORT_PARTS[part], K)
        growth = check_nonexpansive(w, nodes=nodes).worst_residual
        g = w.multiplier(quadrature_nodes(w.cells[:-1], nodes=nodes))
        constant = np.sqrt(np.mean(g**2, axis=1)) - 1.0
        assert constant.max() <= growth == np.max(g) - 1.0 < 0

    @pytest.mark.parametrize("value", [-1.0, 0.0, math.nan, math.inf])
    def test_invalid_multiplier_fails_without_warning(self, monkeypatch, value):
        # One node of cell k = -1 gets a g^2 that is negative, zero or not
        # finite; pytest turns a RuntimeWarning into an error, so a warning
        # fails too.
        multiplier_squared = TransportWitness.multiplier_squared

        def one_bad_node(self, s, rows=slice(0, None)):
            gsq = multiplier_squared(self, s, rows)
            if 0 <= (p := self.window - 1 - rows.start) < len(gsq):
                gsq[p, 100] = value
            return gsq

        monkeypatch.setattr(TransportWitness, "multiplier_squared", one_bad_node)
        w = build_transport_witness(density(1.0, 2.0), 3)
        form, growth = (check(w, nodes=256) for check in (check_form_preservation,
                                                         check_nonexpansive))
        assert not form.passed
        assert growth.passed == math.isfinite(value)

    @pytest.mark.parametrize("part", [density(1.0, 2.0), cantor(1.0, 2.0)],
                             ids=["lebesgue", "cantor"])
    def test_one_node_spike_fails_form_preservation(self, monkeypatch, part):
        # g^2 times 1 + 1e-3 at the middle node of cell k = 0 alone breaks
        # t g^2(x) = x there by 1e-3, and the check must report that node's
        # defect in full, not its share of a cell average.
        K, nodes = 16, 4096
        multiplier_squared = TransportWitness.multiplier_squared

        def spiked(self, s, rows=slice(0, None)):
            gsq = multiplier_squared(self, s, rows)
            if 0 <= (p := self.window - rows.start) < len(gsq):
                gsq[p, nodes // 2] *= 1.0 + 1e-3
            return gsq

        monkeypatch.setattr(TransportWitness, "multiplier_squared", spiked)
        report = check_form_preservation(build_transport_witness(part, K), nodes=nodes)
        assert not report.passed
        assert report.worst_residual == pytest.approx(1e-3, rel=1e-9)

    @pytest.mark.parametrize("part", [density(1.0, 2.0), cantor(1.0, 2.0)],
                             ids=["lebesgue", "cantor"])
    def test_spike_in_later_column_and_row_block_fails(self, monkeypatch, part):
        # The same spike at node ROW_BLOCK + 7 of cell k = 1 at K = 3: in the
        # second of three column blocks, and in the last of its five one-row
        # blocks, so the running maxima carry it and the row offset finds it.
        K, nodes, cell, node = 3, 2 * ROW_BLOCK + 5, 4, ROW_BLOCK + 7
        w = build_transport_witness(part, K)
        [[spot]] = quadrature_nodes(w.cells[cell:cell + 1], nodes=nodes,
                                    columns=slice(node, node + 1))
        multiplier_squared, hits = TransportWitness.multiplier_squared, []

        def spiked(self, s, rows=slice(0, None)):
            gsq = multiplier_squared(self, s, rows)
            if 0 <= (p := cell - rows.start) < len(gsq) and (at := s[p] == spot).any():
                gsq[p, at] *= 1.0 + 1e-3
                hits.append((rows.start, int(at.sum())))
            return gsq

        monkeypatch.setattr(TransportWitness, "multiplier_squared", spiked)
        report = check_form_preservation(w, nodes=nodes)
        assert hits == [(cell, 1)]
        assert not report.passed
        assert report.worst_residual == pytest.approx(1e-3, rel=1e-9)

    def test_transport_checks_draw_nothing(self, monkeypatch):
        def no_generator(*args, **kwargs):
            raise AssertionError("a transport check drew a random number")

        monkeypatch.setattr(np.random, "Generator", no_generator)
        w = build_transport_witness(cantor(1.0, 2.0), 3)
        checks = (check_form_preservation, check_nonexpansive, check_strict_contraction)
        assert all(check(w, nodes=256).passed for check in checks)


#: Transport parts of the sweep: Lebesgue and Cantor of masses 1e-200 and
#: 1e200, each on a unit and on a far support.
SWEEP_PARTS = {
    f"{name}-{support[0]:g}": part
    for support in [(1.0, 2.0), (1e300, 1.5e300)]
    for name, part in [("lebesgue", density(*support)),
                       ("cantor-1e-200", cantor(*support, mass=1e-200)),
                       ("cantor-1e200", cantor(*support, mass=1e200))]
}


@pytest.mark.parametrize("nodes", [16, 256, 4096])
@pytest.mark.parametrize("K", [1, 5, 16, 19])
@pytest.mark.parametrize("part", list(SWEEP_PARTS), ids=str)
def test_transport_checks_pass_across_scales(part, K, nodes):
    # The tables keep no mass step, so tiny and huge masses and far
    # supports read the node identity to rounding on either part kind.
    w = build_transport_witness(SWEEP_PARTS[part], K)
    reports = [check(w, nodes=nodes)
               for check in (check_form_preservation, check_nonexpansive, check_strict_contraction)]
    assert all(r.passed for r in reports)
    assert reports[0].worst_residual <= 1e-10


def three_atoms(scale):
    """Two infinite atoms and a double atom between them, all times scale."""
    return descriptor(
        atoms=[atom(1.0 * scale, INFINITE), atom(1.5 * scale, 2), atom(2.0 * scale, INFINITE)]
    )


def point_side_reports(d, K=8):
    """The four exact point-side checks on d's shift witness and truncation."""
    w = build_shift_witness(d, classify(d).certificate, K)
    space = TruncatedQuadraticSpace.from_descriptor(d, per_sequence=4)
    return [check_form_preservation(w), check_nonexpansive(w),
            check_rayleigh_bounds(space), check_min_attained(space)]


class TestExactPointChecks:
    @pytest.mark.parametrize("scale", [2.0**-20, 2.0**14, 2.0**20])
    def test_residuals_do_not_depend_on_scale(self, scale):
        # A power-of-two scale is exact, so relative residuals are bit for bit equal.
        assert point_side_reports(three_atoms(scale)) == point_side_reports(three_atoms(1.0))

    def test_perturbed_image_eigenvalue_fails_form_preservation(self):
        w = shift_no_min_no_max()
        assert check_form_preservation(w).passed
        factors = w.factors.copy()
        factors[w.window] *= math.sqrt(1.0 + 1e-9)  # slot k = 1 weighs (1 + 1e-9) lambda_{n_1}
        object.__setattr__(w, "factors", factors)
        x = np.zeros(w.lambdas.size)
        x[w.window + 1] = 1.0
        image_weights = w.lambdas[:-1] * factors**2
        q, image_q = np.sum(w.lambdas * x * x), np.sum(image_weights * x[1:] * x[1:])
        assert abs(image_q - q) > 1e-10
        report = check_form_preservation(w)
        assert not report.passed
        assert report.worst_residual == pytest.approx(1e-9 * w.lambdas[w.window + 1]
                                                      / w.lambdas[w.window], rel=1e-6)

    @pytest.mark.parametrize("mutate", [
        lambda w, f: w.lambdas[1:] / w.lambdas[:-1],  # the ratios, without the square root
        lambda w, f: np.where(np.arange(f.size) == w.window, 0.5 * f, f),  # junction halved
        lambda w, f: f * (1.0 - 1e-9),
    ], ids=["no_sqrt", "one_halved", "scaled"])
    @pytest.mark.parametrize("make", [shift_no_min_no_max, shift_two_atoms],
                             ids=["two_sequences", "two_atoms"])
    def test_mutated_factors_fail_form_preservation(self, mutate, make):
        # Every mutant is still non-expansive, so only the form check can see it:
        # lambda_{n_{k-1}} f_k^2 = lambda_{n_k} must hold for the published factors.
        w = make()
        assert check_form_preservation(w).passed
        object.__setattr__(w, "factors", mutate(w, w.factors))
        assert check_nonexpansive(w).passed
        assert not check_form_preservation(w).passed

    def test_factor_above_one_fails_nonexpansive(self):
        w = shift_two_atoms()
        assert check_nonexpansive(w).passed
        factors = w.factors.copy()
        factors[0] = 1.0 + 1e-9
        object.__setattr__(w, "factors", factors)
        report = check_nonexpansive(w)
        assert not report.passed
        assert report.worst_residual == pytest.approx(1e-9, rel=1e-6)

    @pytest.mark.parametrize(
        "points",
        [((1.0, 1), (math.nan, 1), (2.0, 2)), ((math.nan, 2),), ((1.0, 1), (math.inf, 1))],
        ids=["mixed", "alone", "inf"],
    )
    def test_nan_eigenvalue_fails_space_checks(self, points):
        # NaN compares false with every bound, so the space tests the range
        # it accepts rather than the values it rejects.
        with pytest.raises(PreconditionError, match="finite and > 0"):
            space_of(points)

    @pytest.mark.parametrize(
        "points",
        [((1.0, 1.5), (2.0, 1)), ((1.0, math.inf),), ((1.0, 2), (2.0, math.nan))],
        ids=["fraction", "inf", "nan"],
    )
    def test_multiplicity_not_a_whole_number_is_refused(self, points):
        # int() would truncate 1.5 to 1, and raises bare errors on inf and NaN.
        with pytest.raises(PreconditionError, match="^the dimension must be a whole number >= "):
            space_of(points)

    def test_whole_multiplicities_of_any_type(self):
        for m in (np.int64(2), 3.0, 2**60):
            space = TruncatedQuadraticSpace((1.0,), m)
            assert space.dimension == int(m) and type(space.dimension) is int
        space = TruncatedQuadraticSpace((1.0, 2.0, 3.0), 5 + 2**60)
        assert space.dimension == 5 + 2**60 and type(space.dimension) is int

    def test_space_checks_ignore_multiplicities(self):
        # Multiplicities 2**40 times larger hold over 2**50 eigenvalues in all,
        # more than any dense array could; the checks read the distinct values.
        points = ((1.0, 1000), (1.25, 7), (1.5, 3), (2.0, 24))
        space = space_of(points)
        scaled = space_of(tuple((v, m * 2**40) for v, m in points))
        assert scaled.dimension == 1034 * 2**40
        for check in (check_rayleigh_bounds, check_min_attained, check_extremal_invariance):
            assert check(scaled) == check(space) and check(space).passed

    def test_eigenvalue_order_does_not_matter(self):
        # The space takes values in any order; the checks read min and max.
        ordered = space_of(((1.0, 2), (1.5, 1), (2.0, 3)))
        shuffled = space_of(((1.5, 1), (2.0, 3), (1.0, 2)))
        for check in (check_rayleigh_bounds, check_min_attained):
            assert check(shuffled) == check(ordered) and check(ordered).passed

    def test_space_checks_draw_nothing(self, monkeypatch):
        def no_generator(*args, **kwargs):
            raise AssertionError("a point-side check drew a random number")

        monkeypatch.setattr(np.random, "Generator", no_generator)
        reports = point_side_reports(three_atoms(1.0))
        assert all(r.passed for r in reports)
        assert [r.samples for r in reports] == [16, 16, 3 + 4 * PROBE_ANGLES.size,
                                                1 + 2 * PROBE_ANGLES.size]


class TestRayleigh:
    def test_eigenvector_attains_bound(self):
        points = ((1.0, 1), (2.0, 1))
        x = np.array([[1.0, 0.0], [math.sqrt(0.5), math.sqrt(0.5)]])
        q = np.sum(dense_lambdas(points) * x * x, axis=1)
        assert q[0] == 1.0 and q[1] == pytest.approx(1.5, abs=1e-15)

    def test_no_escape_on_random_spectra(self):
        rng = np.random.default_rng(43)
        for _ in range(10):
            values = np.sort(rng.uniform(0.5, 3.0, size=8))
            space = space_of(tuple((v, 1) for v in values))
            rng.integers(1 << 31)  # once the check's seed; drawn so later spectra stay the same
            report = check_rayleigh_bounds(space)
            assert report.passed and report.threshold == 1e-12

    @pytest.mark.parametrize("samples", [0, 1, 1023, 1024, 1025, 10_000])
    @pytest.mark.parametrize(
        "points",
        [((1.0, 3), (1.5, 1), (2.0, 4)), BENCH_SCALE_POINTS],
        ids=["dim_8", "dim_257"],
    )
    def test_matches_unblocked_reference(self, points, samples):
        # The exact residual bounds the sampled one at any sample count.
        space = space_of(points)
        report = check_rayleigh_bounds(space)
        values = sorted({v for v, _ in points})
        assert report.samples == len(values) + 2 * (len(values) - 1) * PROBE_ANGLES.size
        for seed in (29, 30, 31):
            worst = unblocked_rayleigh_bounds(points, samples, seed)
            assert report.worst_residual >= worst
            assert report.passed == (worst <= report.threshold)

    def test_precondition(self):
        with pytest.raises(PreconditionError):
            TruncatedQuadraticSpace((), 0)


class TestMinAttained:
    def test_inside_group_attains(self):
        points = ((1.0, 2), (2.0, 1))
        x = np.array([0.6, 0.8, 0.0])
        assert np.sum(dense_lambdas(points) * x * x) == pytest.approx(1.0, abs=1e-15)

    def test_two_point_equality(self):
        points = ((1.0, 1), (2.0, 1))
        x = np.array([math.sqrt(0.5), math.sqrt(0.5)])
        # quotient = min + gap * outside mass, with equality here
        assert np.sum(dense_lambdas(points) * x * x) == pytest.approx(1.0 + 1.0 * 0.5, abs=1e-15)

    def test_property_over_random_spectra(self):
        rng = np.random.default_rng(47)
        for _ in range(10):
            values = np.sort(rng.uniform(0.5, 3.0, size=5))
            mults = rng.integers(1, 3, size=5)
            space = space_of(tuple(zip(values, mults)))
            rng.integers(1 << 31)  # once the check's seed; drawn so later spectra stay the same
            report = check_min_attained(space)
            assert report.passed


class TestFiniteDimPlasticity:
    def test_quarter_turn_expands(self):
        t = rotation_map(math.pi / 2.0)
        e1 = np.array([1.0, 0.0])
        e2 = np.array([0.0, 1.0])
        assert np.allclose(t @ e1, [0.0, 1.0 / math.sqrt(2.0)], atol=1e-15)
        assert np.allclose(t @ e2, [-math.sqrt(2.0), 0.0], atol=1e-15)
        assert np.linalg.norm(t, 2) == pytest.approx(math.sqrt(2.0), abs=1e-12)
        lam = np.array([1.0, 2.0])
        x = np.array([0.3, -0.7])
        q = lambda v: float(np.sum(lam * v * v))
        assert q(t @ x) == pytest.approx(q(x), abs=1e-14)

    def test_eighth_turn_norm_oracle(self):
        assert np.linalg.norm(rotation_map(math.pi / 4.0), 2) == pytest.approx(
            rotation_norm_oracle(math.pi / 4.0), abs=1e-12
        )
        assert rotation_norm_oracle(math.pi / 4.0) == pytest.approx(
            math.sqrt((2.25 + math.sqrt(1.0625)) / 2.0), abs=1e-15
        )

    def test_identity_is_isometry(self):
        t = rotation_map(0.0)
        assert np.allclose(t, np.eye(2), atol=1e-15)
        assert abs(np.linalg.norm(t, 2) - 1.0) <= 1e-15

    def test_check_passes(self):
        pairs = len(FINITE_DIM_SPECTRUM) * (len(FINITE_DIM_SPECTRUM) + 1) // 2
        report = check_finite_dim_plasticity()
        assert report.passed and report.worst_residual <= 1e-8
        assert report.samples == pairs * PROBE_ANGLES.size

    def test_palette_reaches_isometry_branches(self, singular_values_spy):
        # The spy rebinds a name the kept report is keyed on, so this call
        # computes the report afresh, through the spy.
        assert check_finite_dim_plasticity().passed
        [(_, (sigma, _))] = singular_values_spy
        assert sigma.shape[1:] == PROBE_ANGLES.shape
        values = FINITE_DIM_SPECTRUM
        equal = np.array([lam == mu for i, lam in enumerate(values) for mu in values[i:]])
        # (c): every unequal pair has accepted probes, which must be isometries
        accepted = sigma[~equal] <= 1.0 + NORM_SLACK
        assert accepted.any(axis=1).all() and not accepted.all()
        # (d): equal pairs, whose every probe has norm 1
        assert equal.any() and np.abs(sigma[equal] - 1.0).max() <= 1e-15


    def test_report_is_kept(self, singular_values_spy):
        first = check_finite_dim_plasticity()
        assert check_finite_dim_plasticity() is first
        assert len(singular_values_spy) == 1

    @pytest.mark.parametrize("name, value, changed", [
        ("PROBE_ANGLES", PROBE_ANGLES[:6], lambda r: r.samples == 15 * 6),
        ("FINITE_DIM_SPECTRUM", (0.5, 1.0), lambda r: r.samples == 3 * PROBE_ANGLES.size),
        ("plasticity_map", lambda lam, u: 2.0 * plasticity_map(lam, u), lambda r: not r.passed),
        ("_singular_values", lambda t, closed_form=verify._singular_values:
         [2.0 * s for s in closed_form(t)], lambda r: not r.passed),
        ("NORM_SLACK", 1.0, lambda r: not r.passed),
        ("OPERATOR_TOL", 1e-6, lambda r: r.threshold == 1e-6),
    ], ids=["PROBE_ANGLES", "FINITE_DIM_SPECTRUM", "plasticity_map", "_singular_values",
            "NORM_SLACK", "OPERATOR_TOL"])
    def test_rebinding_a_name_recomputes(self, monkeypatch, name, value, changed):
        # The report is keyed on every module name its computation reads, so
        # rebinding one after a first call computes it afresh, with no
        # cache_clear; restoring the name reads the same report again.
        first = check_finite_dim_plasticity()
        assert first.passed
        monkeypatch.setattr(verify, name, value)
        assert changed(check_finite_dim_plasticity())
        monkeypatch.undo()
        assert check_finite_dim_plasticity() == first


class TestExtremalInvariance:
    def test_block_map_commutes_exactly(self):
        lam = np.array([1.0, 1.0, 2.0])
        p = np.diag([1.0, 1.0, 0.0])
        for theta in (0.3, math.pi / 2, 2.5):
            for sign in (1.0, -1.0):
                u = np.zeros((3, 3))
                u[:2, :2] = rotation_map(theta, (1.0, 1.0))
                u[2, 2] = sign
                t = plasticity_map(lam, u)
                assert np.linalg.norm(t @ p - p @ t, 2) == 0.0
                assert np.array_equal(t[:2, :2], u[:2, :2])

    def test_rank_one_invariance(self):
        norms = np.array([np.linalg.norm(rotation_map(theta), 2) for theta in PROBE_ANGLES])
        accepted = PROBE_ANGLES[norms <= 1.0 + 1e-10]
        assert 0 < accepted.size < PROBE_ANGLES.size
        for theta in accepted:
            assert abs(rotation_map(theta)[1, 0]) <= 1e-8  # T e_1 stays in span(e_1)

    @pytest.mark.parametrize(
        "points",
        [
            ((1.5, 5),),
            ((1.0, 3), (2.0, 4)),
            ((1.0, 2), (1.5, 3), (2.0, 1)),
            ((2.0, 1), (1.0, 2)),
            NEAR_DEGENERATE_POINTS,
            BENCH_SCALE_POINTS,
        ],
        ids=["one_group", "two_groups", "three_groups", "unsorted", "near_degenerate", "dim_257"],
    )
    def test_matches_mpmath_oracle(self, points, singular_values_spy):
        space = space_of(points)
        report = check_extremal_invariance(space)
        values = sorted({v for v, _ in points})
        pairs = [(lam, mu) for lam in (values[0], values[-1]) for mu in values if mu != lam]
        assert report.passed and report.worst_residual <= 1e-14
        assert report.samples == len(pairs) * PROBE_ANGLES.size
        # the probes are divided by kappa = sqrt(max / min); blocks of pairs in order
        calls = [s for _, s in singular_values_spy]
        sigma, least = (np.concatenate([np.empty(0), *(s[i].ravel() for s in calls)])
                        for i in (0, 1))
        probes = [(lam, mu, theta) for lam, mu in pairs for theta in PROBE_ANGLES]
        for (lam, mu, theta), computed, computed_least in zip(probes, sigma, least, strict=True):
            lam, mu, theta = mpmath.mpf(lam), mpmath.mpf(mu), mpmath.mpf(float(theta))
            c, s = mpmath.cos(theta), mpmath.sin(theta)
            t = mpmath.matrix([[c, -s * mpmath.sqrt(mu / lam)], [s * mpmath.sqrt(lam / mu), c]])
            exact_least, exact = sorted(mpmath.svd_r(t, compute_uv=False))
            leak = max(abs(t[0, 1]), abs(t[1, 0]))
            identity = exact - 1 / exact - leak * abs(mu - lam) / max(lam, mu)
            assert abs(identity) <= mpmath.mpf(10) ** -30
            kappa = mpmath.sqrt(max(lam, mu) / min(lam, mu))
            assert abs(computed - exact / kappa) <= 1e-15 * exact / kappa
            assert abs(computed_least - exact_least / kappa) <= 1e-15 * exact_least / kappa

    @pytest.mark.parametrize(
        "check, builder",
        [
            (partial(check_extremal_invariance, space_of(((1.0, 3), (2.0, 4)))),
             "_scaled_probes"),
            (check_finite_dim_plasticity, "plasticity_map"),
        ],
        ids=["extremal_invariance", "finite_dim_plasticity"],
    )
    def test_form_breaking_map_fails(self, monkeypatch, check, builder):
        def unbalanced(lambdas, u):
            lam = np.asarray(lambdas, dtype=float)
            return (lam[..., :, None] ** -0.5) * u * (lam[..., None, :] ** -0.5)

        def unbalanced_scaled(pairs):
            # the same map, divided by kappa = sqrt(max / min) as the extremal probes are
            kappa = np.sqrt(pairs.max(axis=1) / pairs.min(axis=1))[:, None, None, None]
            return unbalanced(pairs[:, None, :], verify._rotations()) / kappa

        mutants = {"plasticity_map": unbalanced, "_scaled_probes": unbalanced_scaled}
        monkeypatch.setattr(verify, builder, mutants[builder])
        report = check()
        assert not report.passed and report.worst_residual >= 0.5

    def test_probes_are_deterministic_two_by_two(self, monkeypatch, singular_values_spy):
        qr_shapes = []
        qr = np.linalg.qr

        def recording_qr(a, *args, **kwargs):
            qr_shapes.append(np.shape(a))
            return qr(a, *args, **kwargs)

        def no_generator(*args, **kwargs):
            raise AssertionError("an operator check drew a random number")

        def no_svd(*args, **kwargs):
            raise AssertionError("an operator check called np.linalg.svd")

        monkeypatch.setattr(np.linalg, "qr", recording_qr)
        monkeypatch.setattr(np.linalg, "svd", no_svd)
        monkeypatch.setattr(np.random, "Generator", no_generator)
        # The spy is installed before either check first runs on the space or
        # under these names; a second call reads the kept table or report.
        space = space_of(((1.0, 3), (1.5, 1), (2.0, 4)))
        samples = []
        for check in (partial(check_extremal_invariance, space), check_finite_dim_plasticity):
            a = check().to_dict()
            b = check().to_dict()
            assert a == b and a["pass"]
            samples.append(a["samples"])
        assert qr_shapes == []
        shapes = [np.shape(t) for t, _ in singular_values_spy]
        assert shapes == [(n // PROBE_ANGLES.size, PROBE_ANGLES.size, 2, 2) for n in samples]
        # Four separated extremal pairs: each has accepted and rejected probes,
        # read on the probes unscaled (times kappa = sqrt(max / min) of each pair).
        pairs = pairs_of(space)
        kappa = np.sqrt(pairs.max(axis=1) / pairs.min(axis=1))[:, None]
        sigma = singular_values_spy[0][1][0] * kappa
        assert sigma.shape == (4, PROBE_ANGLES.size)
        assert ((sigma <= 1.0 + NORM_SLACK).any(axis=1)).all()
        assert ((sigma > 1.0 + NORM_SLACK).any(axis=1)).all()

    def test_multiplicity_pattern(self):
        space = space_of(((1.0, 2), (1.5, 3), (2.0, 1)))
        report = check_extremal_invariance(space)
        assert report.passed and report.worst_residual <= 1e-9

    def test_every_block_is_read(self, monkeypatch):
        # The extremal pairs of the spanning space fill three blocks of whole
        # pairs; a probe doubled only on the last pair, in the last block,
        # must fail.
        space = spanning_space()
        assert len(row_blocks(len(pairs_of(space)), PROBE_ANGLES.size)) == 3
        scaled_probes = verify._scaled_probes

        def doubled_on_last_pair(pairs):
            t = scaled_probes(pairs)
            t[(pairs == pairs_of(space)[-1]).all(axis=1)] *= 2.0
            return t

        # A space's table is built once, so the mutant reads a fresh space.
        assert check_extremal_invariance(space).passed
        monkeypatch.setattr(verify, "_scaled_probes", doubled_on_last_pair)
        assert check_extremal_invariance(spanning_space()).worst_residual >= 0.5


class TestSpaceChecksInBlocks:
    """The three space checks read the probes of their pairs in blocks of
    whole pairs, at most ROW_BLOCK probes each."""

    @pytest.mark.parametrize("check, samples", [
        (check_rayleigh_bounds, 20_000 + 2 * 19_999 * PROBE_ANGLES.size),
        (check_min_attained, 1 + 19_999 * PROBE_ANGLES.size),
        (check_extremal_invariance, 2 * 19_999 * PROBE_ANGLES.size),
    ], ids=["rayleigh_bounds", "min_attained", "extremal_invariance"])
    def test_memory_does_not_grow_with_the_space(self, check, samples):
        # The probes of up to 2 x 19,999 pairs go in blocks of whole pairs,
        # so each check holds one block at a time.
        space = space_of(tuple((1.0 + k / 20_000, 1) for k in range(20_000)))
        tracemalloc.start()
        try:
            report = check(space)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert report.passed and report.samples == samples
        assert peak < 4e6

    def test_space_holds_only_its_values(self):
        # The ratio-0.99999 sequences at --per-sequence 100000: 200,000
        # distinct values, 1.6 MB.  The checks form each block of pairs from
        # the values, so the space keeps no pair table; its build holds at
        # most twice the values and peaks below five times them.
        d = descriptor(sequences=[seq(1, "dec", 0.5, 0.99999), seq(2, "inc", 0.5, 0.99999)])
        tracemalloc.start()
        try:
            space = TruncatedQuadraticSpace.from_descriptor(d, 100_000)
            held, peak = tracemalloc.get_traced_memory()
        finally:
            tracemalloc.stop()
        assert space.values.size == 200_000 and space.dimension == 200_000
        assert held <= 2 * space.values.nbytes and peak <= 5 * space.values.nbytes

    @pytest.mark.parametrize("check, last", [(check_rayleigh_bounds, -1),
                                             (check_min_attained, SPANNING - 2)],
                             ids=["rayleigh_bounds", "min_attained"])
    def test_every_block_is_read(self, monkeypatch, check, last):
        # The spanning space's 2(n - 1) pairs fill three blocks, the min's
        # n - 1 two; a quotient zeroed only on the last pair a check reads,
        # in its last block, must fail it.
        space, lowest = spanning_space(), SPANNING - 1
        assert [len(row_blocks(c, PROBE_ANGLES.size)) for c in (2 * lowest, lowest)] == [3, 2]
        probe_quotients = verify._probe_quotients

        def zeroed_on_last_pair(pairs):
            q = probe_quotients(pairs)
            q[(pairs == pairs_of(space)[last]).all(axis=1)] = 0.0
            return q

        # A space's table is built once, so the mutant reads a fresh space.
        assert check(space).passed
        monkeypatch.setattr(verify, "_probe_quotients", zeroed_on_last_pair)
        assert check(spanning_space()).worst_residual >= 0.4


class TestSpaceTable:
    """The three space checks read one table per space, built in one walk
    over its pairs and dropped with the space."""

    def test_one_walk_per_space(self, monkeypatch):
        walks = []
        pair_blocks = verify._pair_blocks

        def recording(values):
            walks.append(values)
            return pair_blocks(values)

        monkeypatch.setattr(verify, "_pair_blocks", recording)
        spaces = [spanning_space(), space_of(((1.0, 3), (1.5, 1), (2.0, 4)))]
        for space in spaces:
            for check in (check_rayleigh_bounds, check_min_attained, check_extremal_invariance) * 2:
                assert check(space).passed
        assert len(walks) == 2 and all(w is s.values for w, s in zip(walks, spaces))

    def test_table_goes_with_its_space(self):
        space = space_of(((1.0, 3), (1.5, 1), (2.0, 4)))
        assert check_rayleigh_bounds(space).passed
        assert space in verify._TABLES
        ref = weakref.ref(space)
        del space
        gc.collect()
        assert ref() is None

    def test_table_equals_one_walk_per_check(self):
        # Each reduction of the shared table equals the check it replaced,
        # which walked the pairs on its own: the same probes, the same bits.
        space = spanning_space()
        values, lo, hi = space.values, space.values[0], space.values[-1]
        pairs = pairs_of(space)
        quotients = verify._probe_quotients(pairs)
        least, most = min(lo, quotients.min()), max(hi, quotients.max())
        mins = pairs[: values.size - 1]
        violation = ((values[1] - lo) * np.sin(PROBE_ANGLES) ** 2
                     - (verify._probe_quotients(mins) - lo)) / mins[:, 1:]
        assert check_rayleigh_bounds(space).worst_residual == max(abs(least - lo),
                                                                  abs(most - hi)) / hi
        assert check_min_attained(space).worst_residual == max(0.0, violation.max())


class TestDeterminism:
    def test_same_input_same_report(self):
        w = shift_no_min_no_max()
        assert check_form_preservation(w) == check_form_preservation(w)
        space = space_of(((1.0, 3), (2.0, 2)))
        assert check_rayleigh_bounds(space) == check_rayleigh_bounds(space)

    def test_report_serialization_fields(self):
        report = check_strict_contraction(shift_two_atoms())
        doc = report.to_dict()
        assert sorted(doc) == ["name", "pass", "samples", "threshold", "worst_residual"]
