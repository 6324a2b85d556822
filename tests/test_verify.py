import gc
import math
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
from lecplast import verify
from lecplast.verify import (
    FINITE_DIM_SPECTRUM,
    NORM_SLACK,
    PROBE_ANGLES,
    plasticity_map,
)
from lecplast.measures import ROW_BLOCK, quadrature_nodes
from conftest import atom, cantor, density, descriptor, seq

mpmath.mp.dps = 40
DELTA_TWO_ATOMS = float(1 - mpmath.sqrt(mpmath.mpf(1) / 2))
DELTA_NO_MIN_NO_MAX = float(1 - mpmath.sqrt(mpmath.mpf(5) / 6))


def shift_two_atoms(K=8):
    d = descriptor(atoms=[atom(1, INFINITE), atom(2, INFINITE)])
    return build_shift_witness(d, classify(d).certificate, K)


def shift_no_min_no_max(K=8):
    d = descriptor(sequences=[seq(1, "dec"), seq(2, "inc")])
    return build_shift_witness(d, classify(d).certificate, K)


@pytest.fixture
def svd_spy(monkeypatch):
    """(input, singular values) of every np.linalg.svd call."""
    calls = []
    svd = np.linalg.svd

    def recording_svd(a, *args, **kwargs):
        result = svd(a, *args, **kwargs)
        calls.append((np.copy(a), result))
        return result

    monkeypatch.setattr(np.linalg, "svd", recording_svd)
    return calls


def unblocked_rayleigh_bounds(space, samples, seed):
    """Reference: the sampled rayleigh_bounds on one (samples + n) x n matrix.

    Random unit rows and the eigenbasis; the residual, relative to max
    lambda, is how far the sampled quotients escape [min lambda, max lambda]
    and, for n <= 8 at >= 10^4 samples, how far their extrema stay from
    the bounds beyond 5% of the spectral width.
    """
    rng = np.random.Generator(np.random.Philox(np.random.SeedSequence(seed)))
    lam = space.lambdas
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


def per_sample_space_residuals(space, samples, seed):
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
    values, group_of = np.unique(space.lambdas, return_inverse=True)
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
        q, _ = quotient(rng.normal(size=space.dimension))
        rayleigh = max(rayleigh, lo - q, q - hi)
    if space.dimension >= 2:
        inside = group_of == 0
        for _ in range(samples):
            x = np.zeros(space.dimension)
            x[inside] = rng.normal(size=inside.sum())
            q, _ = quotient(x)
            attained = max(attained, abs(q - lo))
        for _ in range(samples):
            q, outside = quotient(rng.normal(size=space.dimension))
            attained = max(attained, lo + gap * outside - q)
    return float(rayleigh / hi), float(attained / hi)


#: Two infinite atoms and one simple atom between them at --per-sequence 64.
BENCH_SCALE_POINTS = tuple(
    TruncatedQuadraticSpace.from_descriptor(
        descriptor(atoms=[atom(1.0, INFINITE), atom(1.5, 1), atom(2.0, INFINITE)]),
        per_sequence=64,
    ).points
)
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
        report = check_form_preservation(shift_two_atoms(), samples=200, seed=1)
        assert report.passed and report.worst_residual <= 1e-12

    def test_transport_density(self):
        w = build_transport_witness(density(1.0, 2.0, coeffs=(0.25, 1.0)), 3)
        report = check_form_preservation(w, samples=20, seed=2, nodes=2048)
        assert report.passed and report.threshold == 1e-5

    def test_transport_cantor_threshold(self):
        w = build_transport_witness(cantor(1.0, 2.0), 2)
        report = check_form_preservation(w, samples=10, seed=3, nodes=1024)
        assert report.passed and report.threshold == 1e-3

    def test_zero_vector_form(self):
        w = shift_two_atoms()
        assert w.form(np.zeros(w.lambdas.size)) == 0.0


class TestNonexpansive:
    def test_shift(self):
        report = check_nonexpansive(shift_no_min_no_max(), samples=500, seed=4)
        assert report.passed

    def test_single_factor_column(self):
        w = shift_two_atoms()
        x = np.zeros(w.lambdas.size)
        x[w.window + 1] = 1.0
        assert np.linalg.norm(w.apply(x)) == pytest.approx(math.sqrt(0.5), abs=1e-15)

    def test_transport(self):
        w = build_transport_witness(density(1.0, 2.0), 3)
        report = check_nonexpansive(w, samples=20, seed=5, nodes=1024)
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
    """Reference: the transport checks' per-sample loop over every node.

    Each sample draws a cubic per cell with a successor, in the coordinate
    of the cell's nodes, and evaluates it at those nodes and at the pulled
    nodes of the successor.  Returns the form_preservation and nonexpansive
    residuals; both checks draw the same coefficients from one seed.
    """
    rng = np.random.Generator(np.random.Philox(np.random.SeedSequence(seed)))
    K = w.window
    cells = [quadrature_nodes(w.cell(k), None, nodes) for k in range(-K, K)]
    pulled = [w.map(k)(cells[k + K + 1][0]) for k in range(-K, K - 1)]
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
    def test_transport_gram_forms_match_per_node_loop(self, part, K):
        w = build_transport_witness(TRANSPORT_PARTS[part], K)
        form, growth = per_node_transport_residuals(w, samples=40, seed=K, nodes=1024)
        reports = [check(w, samples=40, seed=K, nodes=1024)
                   for check in (check_form_preservation, check_nonexpansive)]
        for report, expected in zip(reports, (form, growth)):
            assert report.worst_residual == pytest.approx(expected, rel=0, abs=1e-12)
            assert report.passed == (expected <= report.threshold)

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
        reports = [check(w, seed=K + 11) for check in (check_form_preservation, check_nonexpansive)]
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
        space = TruncatedQuadraticSpace(tuple(zip(values, counts)))
        checks = [check_rayleigh_bounds, check_min_attained][: 1 + (n >= 2)]
        reports = [check(space) for check in checks]
        for seed in (n, n + 1, n + 2):
            sampled = per_sample_space_residuals(space, samples=200, seed=seed)
            for report, worst in zip(reports, sampled):
                assert report.worst_residual >= worst
                assert report.passed == (worst <= report.threshold)

    def test_table_build_batches_quantile_calls(self, monkeypatch):
        # every windowed quantile goes through the base measure's quantile,
        # once per block of whole rows of at most ROW_BLOCK levels
        K, nodes = 16, 256
        w = build_transport_witness(cantor(1.0, 2.0), K)
        calls = []
        quantile = MeasureSpec.quantile

        def counting_quantile(self, u):
            calls.append(np.size(u))
            return quantile(self, u)

        monkeypatch.setattr(MeasureSpec, "quantile", counting_quantile)
        verify._TransportTables(w, nodes)
        blocks = lambda rows: math.ceil(rows * nodes / ROW_BLOCK)
        assert len(calls) <= blocks(2 * K) + blocks(2 * K - 1)
        assert sum(calls) == (4 * K - 1) * nodes

    def test_table_size_does_not_grow_with_nodes(self):
        w = build_transport_witness(density(1.0, 2.0), 3)
        small, large = (nbytes(verify._TransportTables(w, n)) for n in (256, 4096))
        assert small == large > 0


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
        weights = w.image_weights.copy()
        weights[w.window] *= 1.0 + 1e-9  # slot k = 1 weighed by a perturbed lambda_{n_0}
        object.__setattr__(w, "image_weights", weights)
        x = np.zeros(w.lambdas.size)
        x[w.window + 1] = 1.0
        assert abs(w.form_of_image(x) - w.form(x)) > 1e-10
        report = check_form_preservation(w)
        assert not report.passed
        assert report.worst_residual == pytest.approx(1e-9 * w.lambdas[w.window + 1]
                                                      / w.lambdas[w.window], rel=1e-6)

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
        "points", [((1.0, 1), (math.nan, 1), (2.0, 2)), ((math.nan, 2),)], ids=["mixed", "alone"]
    )
    def test_nan_eigenvalue_fails_space_checks(self, points):
        space = TruncatedQuadraticSpace(points)  # the space does not reject NaN
        for check in (check_rayleigh_bounds, check_min_attained):
            report = check(space)
            assert not report.passed and math.isnan(report.worst_residual)

    def test_eigenvalue_order_does_not_matter(self):
        # The space takes values in any order; the checks read min and max.
        ordered = TruncatedQuadraticSpace(((1.0, 2), (1.5, 1), (2.0, 3)))
        shuffled = TruncatedQuadraticSpace(((1.5, 1), (2.0, 3), (1.0, 2)))
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
        space = TruncatedQuadraticSpace(((1.0, 1), (2.0, 1)))
        assert space.form([1.0, 0.0]) == 1.0
        assert space.form([math.sqrt(0.5), math.sqrt(0.5)]) == pytest.approx(1.5, abs=1e-15)

    def test_no_escape_on_random_spectra(self):
        rng = np.random.default_rng(43)
        for _ in range(10):
            values = np.sort(rng.uniform(0.5, 3.0, size=8))
            space = TruncatedQuadraticSpace(tuple((v, 1) for v in values))
            report = check_rayleigh_bounds(space, seed=int(rng.integers(1 << 31)))
            assert report.passed and report.threshold == 1e-12

    @pytest.mark.parametrize("samples", [0, 1, 1023, 1024, 1025, 10_000])
    @pytest.mark.parametrize(
        "points",
        [((1.0, 3), (1.5, 1), (2.0, 4)), BENCH_SCALE_POINTS],
        ids=["dim_8", "dim_257"],
    )
    def test_matches_unblocked_reference(self, points, samples):
        # The exact residual bounds the sampled one at any sample count.
        space = TruncatedQuadraticSpace(points)
        report = check_rayleigh_bounds(space, seed=29)
        values = sorted({v for v, _ in points})
        assert report.samples == len(values) + 2 * (len(values) - 1) * PROBE_ANGLES.size
        for seed in (29, 30, 31):
            worst = unblocked_rayleigh_bounds(space, samples, seed)
            assert report.worst_residual >= worst
            assert report.passed == (worst <= report.threshold)

    def test_precondition(self):
        with pytest.raises(PreconditionError):
            TruncatedQuadraticSpace(())


class TestMinAttained:
    def test_inside_group_attains(self):
        space = TruncatedQuadraticSpace(((1.0, 2), (2.0, 1)))
        assert space.form([0.6, 0.8, 0.0]) == pytest.approx(1.0, abs=1e-15)

    def test_two_point_equality(self):
        space = TruncatedQuadraticSpace(((1.0, 1), (2.0, 1)))
        x = [math.sqrt(0.5), math.sqrt(0.5)]
        # quotient = min + gap * outside mass, with equality here
        assert space.form(x) == pytest.approx(1.0 + 1.0 * 0.5, abs=1e-15)

    def test_property_over_random_spectra(self):
        rng = np.random.default_rng(47)
        for _ in range(10):
            values = np.sort(rng.uniform(0.5, 3.0, size=5))
            mults = rng.integers(1, 3, size=5)
            space = TruncatedQuadraticSpace(tuple(zip(values, mults)))
            report = check_min_attained(space, seed=int(rng.integers(1 << 31)))
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
        for seed in (0, 102, 105):
            report = check_finite_dim_plasticity(seed=seed)
            assert report.passed and report.worst_residual <= 1e-8
            assert report.samples == pairs * PROBE_ANGLES.size and report.seed == seed

    def test_palette_reaches_isometry_branches(self, svd_spy):
        assert check_finite_dim_plasticity().passed
        [(_, singular)] = svd_spy
        sigma = singular[:, 0].reshape(-1, PROBE_ANGLES.size)
        values = FINITE_DIM_SPECTRUM
        equal = np.array([lam == mu for i, lam in enumerate(values) for mu in values[i:]])
        # (c): every unequal pair has accepted probes, which must be isometries
        accepted = sigma[~equal] <= 1.0 + NORM_SLACK
        assert accepted.any(axis=1).all() and not accepted.all()
        # (d): equal pairs, whose every probe has norm 1
        assert equal.any() and np.abs(sigma[equal] - 1.0).max() <= 1e-15


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
    def test_matches_mpmath_oracle(self, points, svd_spy):
        space = TruncatedQuadraticSpace(points)
        report = check_extremal_invariance(space)
        values = sorted({v for v, _ in points})
        pairs = [(lam, mu) for lam in (values[0], values[-1]) for mu in values if mu != lam]
        assert report.passed and report.worst_residual <= 1e-14
        assert report.samples == len(pairs) * PROBE_ANGLES.size
        sigma = svd_spy[0][1][:, 0]
        probes = [(lam, mu, theta) for lam, mu in pairs for theta in PROBE_ANGLES]
        for (lam, mu, theta), computed in zip(probes, sigma, strict=True):
            lam, mu, theta = mpmath.mpf(lam), mpmath.mpf(mu), mpmath.mpf(float(theta))
            c, s = mpmath.cos(theta), mpmath.sin(theta)
            t = mpmath.matrix([[c, -s * mpmath.sqrt(mu / lam)], [s * mpmath.sqrt(lam / mu), c]])
            exact = max(mpmath.svd_r(t, compute_uv=False))
            leak = max(abs(t[0, 1]), abs(t[1, 0]))
            identity = exact - 1 / exact - leak * abs(mu - lam) / max(lam, mu)
            assert abs(identity) <= mpmath.mpf(10) ** -30
            assert abs(computed - exact) <= 1e-15 * exact

    @pytest.mark.parametrize(
        "check",
        [
            partial(check_extremal_invariance, TruncatedQuadraticSpace(((1.0, 3), (2.0, 4)))),
            check_finite_dim_plasticity,
        ],
        ids=["extremal_invariance", "finite_dim_plasticity"],
    )
    def test_form_breaking_map_fails(self, monkeypatch, check):
        def unbalanced(lambdas, u):
            lam = np.asarray(lambdas, dtype=float)
            return (lam[..., :, None] ** -0.5) * u * (lam[..., None, :] ** -0.5)

        monkeypatch.setattr(verify, "plasticity_map", unbalanced)
        report = check()
        assert not report.passed and report.worst_residual >= 0.5

    def test_probes_are_deterministic_two_by_two(self, monkeypatch, svd_spy):
        qr_shapes = []
        qr = np.linalg.qr

        def recording_qr(a, *args, **kwargs):
            qr_shapes.append(np.shape(a))
            return qr(a, *args, **kwargs)

        def no_generator(*args, **kwargs):
            raise AssertionError("an operator check drew a random number")

        monkeypatch.setattr(np.linalg, "qr", recording_qr)
        monkeypatch.setattr(np.random, "Generator", no_generator)
        space = TruncatedQuadraticSpace(((1.0, 3), (1.5, 1), (2.0, 4)))
        samples = []
        for check in (partial(check_extremal_invariance, space), check_finite_dim_plasticity):
            a = check(seed=7).to_dict()
            b = check(seed=8).to_dict()
            assert a.pop("seed") == 7 and b.pop("seed") == 8 and a == b and a["pass"]
            samples += [a["samples"]] * 2
        assert qr_shapes == []
        assert [np.shape(t) for t, _ in svd_spy] == [(n, 2, 2) for n in samples]
        # Four separated extremal pairs: each has accepted and rejected probes.
        sigma = svd_spy[0][1][:, 0].reshape(4, PROBE_ANGLES.size)
        assert ((sigma <= 1.0 + NORM_SLACK).any(axis=1)).all()
        assert ((sigma > 1.0 + NORM_SLACK).any(axis=1)).all()

    def test_multiplicity_pattern(self):
        space = TruncatedQuadraticSpace(((1.0, 2), (1.5, 3), (2.0, 1)))
        report = check_extremal_invariance(space, seed=61)
        assert report.passed and report.worst_residual <= 1e-9


class TestDeterminism:
    def test_same_seed_same_report(self):
        w = shift_no_min_no_max()
        a = check_form_preservation(w, samples=100, seed=17)
        b = check_form_preservation(w, samples=100, seed=17)
        assert a == b
        space = TruncatedQuadraticSpace(((1.0, 3), (2.0, 2)))
        assert check_rayleigh_bounds(space, seed=23) == check_rayleigh_bounds(space, seed=23)

    def test_report_serialization_fields(self):
        report = check_strict_contraction(shift_two_atoms())
        doc = report.to_dict()
        assert sorted(doc) == ["name", "pass", "samples", "seed", "threshold", "worst_residual"]
