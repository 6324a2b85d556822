import mpmath
import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st
from numpy.polynomial import Polynomial

from lecplast import (
    CapacityError,
    DomainError,
    MeasureSpec,
    RangeError,
    RestrictedMeasure,
    TransportMap,
    build_partition,
    build_transport_witness,
)
from lecplast import measures
from lecplast.measures import quadrature_nodes, row_blocks
from lecplast.witness import partition_levels
from conftest import (
    bisect_quantile,
    cantor,
    cantor_oracle,
    density,
    drawn_density,
    integrate,
    level_walk_window_quantile,
    newton_quantile,
    newton_window_quantile,
    pushforward_check,
    reference_cdf,
    reference_quantile,
    reference_transport,
    reference_window_quantile,
    row_map,
    whole,
)

GALOIS_TOL = 2.0**-40
# The Cantor cdf is only Hoelder continuous (exponent ln2/ln3), so an x
# error of 2**-48 in the quantile inflates to ~1.5e-9 on the cdf side.
GALOIS_TOL_CANTOR = 1e-8


class TestTotalMass:
    def test_lebesgue_unit(self, lebesgue_12):
        assert lebesgue_12.total_mass == 1.0

    def test_polynomial_closed_form(self):
        m = MeasureSpec(density(0.5, 1.0, coeffs=(0.0, 2.0)))
        assert m.total_mass == pytest.approx(0.75, abs=1e-15)


class TestCdf:
    def test_affine_on_support(self, lebesgue_12):
        assert lebesgue_12.cdf(1.25) == pytest.approx(0.25, abs=1e-15)

    def test_boundary_clamping(self, lebesgue_12):
        assert lebesgue_12.cdf(0.0) == 0.0
        assert lebesgue_12.cdf(5.0) == 1.0

    def test_cantor_third_matches_recursive_oracle(self, cantor_01):
        # oracle: self-similar recursion at depth 22, independent of the digit walk
        assert cantor_oracle(np.array([1.0 / 3.0]))[0] == 0.5
        assert cantor_01.cdf(1.0 / 3.0) == pytest.approx(0.5, abs=2.0**-20)

    def test_cantor_agrees_with_oracle_on_grid(self, cantor_01):
        x = np.linspace(0, 1, 2001)
        assert np.abs(cantor_01.cdf(x) - cantor_oracle(x)).max() <= 2.0**-20

    def test_relative_accuracy_near_a_zero_at_the_support_start(self):
        # (t - 1)**2 on [1, 2]: cdf(1 + s) = s**3 / 3, far below one ulp of 1/3
        m = MeasureSpec(density(1.0, 2.0, coeffs=(1.0, -2.0, 1.0)))
        for s in (1e-6, 1e-4, 1e-2):
            t = 1.0 + s
            exact = (t - 1.0) ** 3 / 3.0
            assert abs(m.cdf(t) - exact) <= 1e-12 * exact
        assert m.cdf(1.0) == 0.0

    @pytest.mark.parametrize(
        "part",
        [density(0.5, 1.5, coeffs=(0.0, 1.0)), cantor(1.5, 2.5, mass=0.5)],
        ids=["density", "cantor"],
    )
    def test_monotone_on_random_pairs(self, part):
        m = MeasureSpec(part)
        rng = np.random.default_rng(3)
        t = np.sort(rng.uniform(0.0, 3.0, size=(500, 2)), axis=1)
        assert (m.cdf(t[:, 0]) <= m.cdf(t[:, 1])).all()


class TestQuantile:
    def test_affine_inverse(self, lebesgue_12):
        assert lebesgue_12.quantile(0.25) == pytest.approx(1.25, abs=2.0**-45)

    def test_cantor_plateau_sup(self, cantor_01):
        # Brute-force scan of the oracle cdf: sup{x : F(x) <= 1/2} sits at the
        # right end of the middle-third gap.
        grid = np.linspace(0.0, 1.0, 3**8 + 1)
        below = grid[cantor_oracle(grid) <= 0.5]
        assert below.max() == pytest.approx(2.0 / 3.0, abs=2 * 3.0**-8)
        assert cantor_01.quantile(0.5) == pytest.approx(2.0 / 3.0, abs=2.0**-20)

    def test_degenerate_level(self, lebesgue_12):
        assert lebesgue_12.quantile(0.0) == 1.0

    def test_out_of_range(self, lebesgue_12):
        with pytest.raises(RangeError):
            lebesgue_12.quantile(1.5)
        with pytest.raises(RangeError):
            lebesgue_12.quantile(-0.5)

    @given(u=st.floats(0.001, 0.999))
    @settings(max_examples=60, deadline=None)
    def test_galois_density(self, u):
        m = MeasureSpec(density(1.0, 2.0, coeffs=(0.0, 2.0, 0.5)))
        level = u * m.total_mass
        x = m.quantile(level)
        assert m.cdf(x) >= level - GALOIS_TOL
        assert m.cdf(x) <= level + GALOIS_TOL

    @given(t=st.floats(1.01, 1.99))
    @settings(max_examples=60, deadline=None)
    def test_galois_quantile_of_cdf_density(self, t):
        m = MeasureSpec(density(1.0, 2.0, coeffs=(0.0, 2.0, 0.5)))
        assert m.quantile(m.cdf(t)) >= t - GALOIS_TOL

    def test_galois_cantor(self, cantor_01):
        rng = np.random.default_rng(5)
        levels = rng.uniform(0.01, 0.99, 200)
        x = cantor_01.quantile(levels)
        values = cantor_01.cdf(x)
        assert (values <= levels + GALOIS_TOL_CANTOR).all()
        assert (values >= levels - GALOIS_TOL_CANTOR).all()
        t = rng.uniform(0.01, 0.99, 200)
        assert (cantor_01.quantile(cantor_01.cdf(t)) >= t - GALOIS_TOL).all()


# One part of each closed form: densities of degree 0 to 3, and a Cantor part
# whose mass 0.7 makes M * s_k round at the partition levels s_k.
SINGLE_PARTS = {
    "degree_0": density(1.0, 2.0, coeffs=(1.5,)),
    "degree_1": density(1.0, 2.0, coeffs=(0.5, 0.3)),
    "degree_2": density(0.7, 2.9, coeffs=(1.0, 0.0, 0.8)),
    "degree_3": density(0.5, 3.0, coeffs=(1.0, 0.2, 0.3, 0.7)),
    "cantor_0.7": cantor(1.0, 2.0, mass=0.7),
}


# Densities with a zero at the support start, where the cdf is tiny and a
# cdf evaluated as F(t) - F(a) drowns in rounding noise.
ZERO_AT_START = {
    "square_zero_at_a": density(1.0, 2.0, coeffs=(1.0, -2.0, 1.0)),
    "linear_zero_at_a": density(1.0, 2.0, coeffs=(-2.0, 2.0)),
}

# Densities on which one Newton step from the guess leaves most levels open
# (about 70 % of a K=16, 4096-node table), so the safeguarded loop runs:
# (t - 1.5)^2 vanishes inside its support, 1 + 5t + 40t^3 is steep.
LOOP_DENSITIES = {
    "square_zero_inside": density(1.0, 2.0, coeffs=(2.25, -3.0, 1.0)),
    "steep_cubic": density(0.5, 3.0, coeffs=(1.0, 5.0, 0.0, 40.0)),
}


def _single_part_levels(m, count=1000, seed=41):
    rng = np.random.default_rng(seed)
    return np.concatenate([
        m.total_mass * partition_levels(16),
        rng.uniform(0.0, m.total_mass, count),
        [0.0, m.total_mass],
    ])


class TestClosedFormQuantile:
    @pytest.mark.parametrize(
        "part",
        [*SINGLE_PARTS.values(), *ZERO_AT_START.values()],
        ids=[*SINGLE_PARTS, *ZERO_AT_START],
    )
    def test_agrees_with_bisection(self, part):
        m = MeasureSpec(part)
        levels = _single_part_levels(m)
        bisected = bisect_quantile(m, levels)
        a, b = part.support
        assert np.abs(m.quantile(levels) - bisected).max() <= 2.0**-46 * (b - a)

    @pytest.mark.parametrize("part", SINGLE_PARTS.values(), ids=SINGLE_PARTS.keys())
    def test_cdf_of_quantile_never_exceeds_level(self, part):
        m = MeasureSpec(part)
        levels = _single_part_levels(m, count=4000)
        assert (m.cdf(m.quantile(levels)) <= levels).all()
        for u in levels[:40]:
            assert m.cdf(m.quantile(float(u))) <= u

    @pytest.mark.parametrize("part", SINGLE_PARTS.values(), ids=SINGLE_PARTS.keys())
    def test_invariant_on_every_witness_cell(self, part):
        w = build_transport_witness(part, 16)
        # A Cantor witness's cells are closed-form copies; restrict the
        # measure to the same windows.
        cells = RestrictedMeasure(MeasureSpec(part), w.endpoints[:-1], w.endpoints[1:])
        for p in range(32):
            cell = cells[p:p + 1]
            mass = cell.total_mass[:, None]
            levels = np.concatenate(
                [mass * (np.arange(512) + 0.5) / 512, mass * partition_levels(8)], axis=1
            )
            assert (cell.cdf(cell.quantile(levels)) <= levels).all()

    @pytest.mark.parametrize("part", ZERO_AT_START.values(), ids=ZERO_AT_START.keys())
    def test_level_0_is_the_support_start(self, part):
        # (t - 1)^2's Newton step from a = 1 divides by p(1) = 0 inside its
        # errstate; 2(t - 1)'s closed form divides 0 by at least the least
        # normal float.
        assert MeasureSpec(part).quantile(0.0) == part.support[0]

    @pytest.mark.parametrize("part", [*SINGLE_PARTS.values(), *ZERO_AT_START.values()],
                             ids=[*SINGLE_PARTS, *ZERO_AT_START])
    def test_at_most_eight_cdf_calls(self, part, monkeypatch):
        m = MeasureSpec(part)
        levels = _single_part_levels(m)
        calls = []
        cdf = MeasureSpec.cdf

        def counting_cdf(self, t):
            calls.append(1)
            return cdf(self, t)

        monkeypatch.setattr(MeasureSpec, "cdf", counting_cdf)
        m.quantile(levels)
        assert 1 <= len(calls) <= 8
        cell = RestrictedMeasure(m, *m.quantile(m.total_mass * np.array([[0.25], [0.75]])))
        calls.clear()
        cell.quantile(cell.total_mass[:, None] * (np.arange(256) + 0.5) / 256)
        assert 1 <= len(calls) <= 8


# The density draws of the `transport_verify` benchmark strata (perfbench
# corpus, seeds 0 and 1, rounds 0 and 1): support [a, a + w] with a and w in
# [0.5, 2], c_0 in [0.5, 2] and the other coefficients in [0, 1].
STRATA_DENSITIES = [
    density(1.166939, 3.151961, coeffs=(1.656972,)),
    density(1.385881, 2.373727, coeffs=(0.528889, 0.175883)),
    density(1.359961, 2.110157, coeffs=(1.974742, 0.196894, 0.307936)),
    density(0.572879, 1.668238, coeffs=(1.972179,)),
    density(1.109997, 2.030797, coeffs=(0.589398, 0.385627)),
    density(0.703253, 1.231466, coeffs=(0.619228, 0.310793, 0.761009)),
    density(1.213081, 2.352202, coeffs=(1.683687,)),
    density(1.092919, 2.72432, coeffs=(0.815394, 0.219865)),
    density(1.509813, 2.842149, coeffs=(1.378556, 0.699505, 0.334525)),
    density(1.922985, 3.071895, coeffs=(1.458888,)),
    density(1.152392, 1.825512, coeffs=(1.831969, 0.935955)),
    density(1.129717, 1.757269, coeffs=(1.787997, 0.721695, 0.156724)),
]


class TestDensityQuantileBits:
    """Density quantiles give the bits of the reference solve in conftest,
    through ``MeasureSpec.quantile``, ``RestrictedMeasure.quantile`` and
    ``TransportMap`` on the cells of a witness."""

    #: Distance allowed between the window rule and the level walk before it.
    WINDOW_RULE_ULPS = 4
    #: Distance allowed between the closed form of a density of degree <= 1
    #: and the Newton solve before it, on levels and on quadrature nodes; the
    #: largest seen is 3, on the two first examples and a degree-1 draw.
    NEWTON_ULPS = 3

    # The first two inputs, Lebesgue far out, take the closed form; the third
    # takes Newton steps whose square overflows, and tells an error term
    # computed as (e * step) * step from the reference's e * step**2.
    @example(part=density(9.0786e184, 9.0786e184 * (1 + 3.2e-6)), K=1, nodes=1024)
    @example(part=density(1e300, 1.5e300), K=16, nodes=256)
    @example(part=density(1e200, 1.5e200, coeffs=(1.0, 0.0, 1e-300)), K=16, nodes=256)
    @example(part=ZERO_AT_START["linear_zero_at_a"], K=16, nodes=4096)
    @example(part=ZERO_AT_START["square_zero_at_a"], K=16, nodes=4096)
    @example(part=LOOP_DENSITIES["square_zero_inside"], K=16, nodes=4096)
    @example(part=LOOP_DENSITIES["steep_cubic"], K=16, nodes=4096)
    # the degree-2 benchmark draws, at the shape the benchmark runs them
    @example(part=STRATA_DENSITIES[2], K=16, nodes=4096)
    @example(part=STRATA_DENSITIES[5], K=16, nodes=4096)
    @example(part=STRATA_DENSITIES[8], K=16, nodes=4096)
    @example(part=STRATA_DENSITIES[11], K=16, nodes=4096)
    @given(part=drawn_density(), K=st.sampled_from([1, 4, 16]),
           nodes=st.sampled_from([256, 1024]))
    @settings(max_examples=60, deadline=None, derandomize=True)
    def test_same_bits_as_reference(self, part, K, nodes):
        m = MeasureSpec(part)
        total = m.total_mass
        rng = np.random.default_rng(nodes)
        levels = np.concatenate([
            [0.0, total, np.nextafter(0.0, 1.0), np.nextafter(total, 0.0)],
            [-np.nextafter(0.0, 1.0), np.nextafter(total, np.inf)],  # clipped to [0, total]
            total * rng.random(58),
        ])
        same = lambda x, y: x.tobytes() == y.tobytes()
        near = lambda x, y: (np.abs(x - y) <= self.NEWTON_ULPS * np.spacing(y)).all()
        assert same(m.quantile(levels), reference_quantile(part, np.clip(levels, 0.0, total)))
        closed_form = part.antiderivative.size <= 3  # degree <= 1
        if closed_form:
            assert near(m.quantile(levels), newton_quantile(part, np.clip(levels, 0.0, total)))
        try:
            w = build_transport_witness(part, K)
        except CapacityError:
            return  # too narrow for window K, or too light for a witness
        lo, hi = w.endpoints[:-1], w.endpoints[1:]
        assert same(w.endpoints, reference_quantile(part, total * partition_levels(K)))
        mass = np.subtract(*reference_cdf(part, np.stack([hi, lo])))
        assert same(w.cells.total_mass, mass)
        x = quadrature_nodes(w.cells, nodes=nodes)
        u = (np.arange(nodes) + 0.5) * (mass[:, None] / nodes)
        assert same(x, reference_window_quantile(part, lo, hi, u))
        if closed_form:
            assert near(x, newton_window_quantile(part, lo, hi, u))
        assert same(w.cells.quantile(u[:, ::-1]), reference_window_quantile(part, lo, hi, u[:, ::-1]))
        # The window rule before this one solved the base at the largest
        # level c with fl(c - offset) <= u.  Both rules keep F(x) <= c, and
        # they differ by at most 4 ulps of x plus 4 ulps of the level F(x),
        # carried to x by the density (a level ulp moves x by ulp / p(x)).
        walked = level_walk_window_quantile(part, lo, hi, u)
        with np.errstate(divide="ignore"):
            ulp = np.spacing(walked) + np.spacing(reference_cdf(part, walked)) / np.abs(Polynomial(part.coeffs)(walked))
        assert (np.abs(x - walked) <= self.WINDOW_RULE_ULPS * ulp).all()
        cells, succ = (lo[:-1], hi[:-1]), (lo[1:], hi[1:])
        assert same(w.maps(x[1:]), reference_transport(part, cells, succ, x[1:]))
        assert same(w.maps.inverse(x[:-1]), reference_transport(part, succ, cells, x[:-1]))


TINY = np.finfo(float).tiny

# Densities of degree <= 1, which are inverted in closed form, each with the
# MeasureSpec.cdf calls that the Newton solve before it made on the levels of
# TestClosedFormAccuracy.  The three degree-1 extremes catch a discriminant
# A_1^2 + 4 A_2 u that under- or overflows; 2(t - 1) and 2 - t vanish at a
# and at b, where a root formula can cancel.
CLOSED_FORM = {
    "constant_1e-300": (density(1.0, 2.0, coeffs=(1e-300,)), 3),
    "constant_1": (density(1.0, 2.0, coeffs=(1.0,)), 3),
    "constant_1e300": (density(1.0, 2.0, coeffs=(1e300,)), 3),
    "constant_tiny": (density(1.0, 2.0, coeffs=(TINY,)), 2),
    "lebesgue_wide": (density(1.0, 1e300), 2),
    "lebesgue_far": (density(1e300, 1.5e300), 55),
    "increasing": (SINGLE_PARTS["degree_1"], 3),
    "linear_zero_at_a": (ZERO_AT_START["linear_zero_at_a"], 6),
    "linear_zero_at_b": (density(1.0, 2.0, coeffs=(2.0, -1.0)), 5),
    "linear_tiny": (density(1.0, 2.0, coeffs=(TINY, TINY)), 3),
    "linear_1e300": (density(1.0, 2.0, coeffs=(1e300, 1e300)), 3),
    "zero_at_b_far": (density(1e300, 2e300, coeffs=(2.0, -1e-300)), 55),
    **{f"draw{i}": (p, 4 if i == 3 else 3) for i, p in enumerate(STRATA_DENSITIES)
       if len(p.coeffs) <= 2},
}


def exact_quantile(part, u):
    """a + s for the root s of the float cdf A_1 s + A_2 s^2 = u, at 50 digits."""
    A, (a, b) = part.antiderivative, part.support
    with mpmath.workdps(50):
        a1, a2, u = mpmath.mpf(A[1]), mpmath.mpf(A[2] if A.size > 2 else 0.0), mpmath.mpf(u)
        return min(a + 2 * u / (a1 + mpmath.sqrt(a1 * a1 + 4 * a2 * u)), mpmath.mpf(b))


class TestClosedFormAccuracy:
    """Degree <= 1 quantiles keep cdf(x) <= u, lie within max(2, the Newton
    solve's worst) ulps of the exact root, and take no more cdf calls than
    the Newton solve did."""

    @pytest.mark.parametrize("part, newton_calls", CLOSED_FORM.values(), ids=CLOSED_FORM.keys())
    def test_near_the_root_in_few_calls(self, part, newton_calls, monkeypatch):
        m = MeasureSpec(part)
        levels = m.total_mass * np.random.default_rng(7).random(400)
        calls, cdf = [], MeasureSpec.cdf
        monkeypatch.setattr(MeasureSpec, "cdf", lambda self, t: calls.append(1) or cdf(self, t))
        x = m.quantile(levels)
        assert len(calls) <= (2 if part is ZERO_AT_START["linear_zero_at_a"] else newton_calls)
        assert (m.cdf(x) <= levels).all()
        exact = [exact_quantile(part, u) for u in levels]
        ulps = lambda x: max(abs(mpmath.mpf(xi) - r) / np.spacing(xi) for xi, r in zip(x, exact))
        assert ulps(x) <= max(2, ulps(newton_quantile(part, levels)))


class TestOneNewtonStep:
    """A density quantile takes one Newton step from the guess for every
    level; only the levels that step leaves open enter the safeguarded loop."""

    @staticmethod
    def loop_levels(monkeypatch, part, K=16, nodes=4096) -> int:
        """Levels the safeguarded loop receives while a K-window witness's
        quadrature nodes and multiplier are evaluated."""
        w = build_transport_witness(part, K)
        loop, received = measures._safeguarded_newton, []

        def spy(m, x, values, u, *step):
            received.append(u.size)
            return loop(m, x, values, u, *step)

        monkeypatch.setattr(measures, "_safeguarded_newton", spy)
        x = quadrature_nodes(w.cells, nodes=nodes)
        w.multiplier_squared(x[:-1])
        return sum(received)

    @pytest.mark.parametrize("part", STRATA_DENSITIES,
                             ids=[f"draw{i}_degree{len(p.coeffs) - 1}" for i, p in enumerate(STRATA_DENSITIES)])
    def test_no_level_of_the_strata_enters_the_loop(self, monkeypatch, part):
        assert self.loop_levels(monkeypatch, part) == 0

    @pytest.mark.parametrize("part", LOOP_DENSITIES.values(), ids=LOOP_DENSITIES.keys())
    def test_levels_the_step_leaves_open_enter_the_loop(self, monkeypatch, part):
        # (t - 1.5)^2 vanishes at the start of cell 0, where the guess is far
        # off; the steep cubic's error term exceeds an ulp after one step
        assert self.loop_levels(monkeypatch, part) > 0


class TestTransportMap:
    def test_affine_pair(self):
        mu = MeasureSpec(density(0.0, 1.0))
        nu = MeasureSpec(density(0.0, 2.0))
        g = row_map(mu, nu)
        t = np.linspace(0.0, 2.0, 9)
        assert np.abs(g(t) - t / 2.0).max() <= 2.0**-40

    def test_self_transport_is_identity(self, lebesgue_12):
        g = row_map(lebesgue_12, lebesgue_12)
        t = np.linspace(1.0, 2.0, 11)
        assert np.abs(g(t) - t).max() <= 2.0**-40

    def test_quadratic_density_closed_form(self, lebesgue_12):
        # F_nu(t) = (t-1)^2 for the density 2(t-1) on [1,2]; solving
        # F_mu(G) = F_nu gives G(t) = 1 + (t-1)^2.
        nu = MeasureSpec(density(1.0, 2.0, coeffs=(-2.0, 2.0)))
        g = row_map(lebesgue_12, nu)
        t = np.linspace(1.05, 1.95, 10)
        assert np.abs(g(t) - (1.0 + (t - 1.0) ** 2)).max() <= 1e-12

    def test_monotone_on_ordered_pairs(self, cantor_01):
        dst = MeasureSpec(density(0.0, 1.0))
        g = row_map(cantor_01, dst)
        rng = np.random.default_rng(17)
        pairs = np.sort(rng.uniform(0.0, 1.0, size=(1000, 2)), axis=1)
        assert (g(pairs[:, 0]) <= g(pairs[:, 1]) + 2.0**-45).all()

    def test_range_inside_source_support(self, lebesgue_12):
        nu = MeasureSpec(density(0.0, 3.0, coeffs=(0.5, 1.0)))
        g = row_map(lebesgue_12, nu)
        values = g(np.linspace(0.0, 3.0, 200))
        assert (values >= 1.0 - 2.0**-45).all()
        assert (values <= 2.0 + 2.0**-45).all()


class TestPushforward:
    def test_affine_case(self):
        mu = MeasureSpec(density(0.0, 1.0))
        nu = MeasureSpec(density(0.0, 2.0))
        g = row_map(mu, nu)
        assert pushforward_check(mu, nu, g, [[0.0, 0.8]]) <= 1e-12

    def test_self_transport(self, lebesgue_12):
        g = row_map(lebesgue_12, lebesgue_12)
        intervals = [[1.0, 1.3], [1.2, 1.9], [1.5, 2.0]]
        assert pushforward_check(lebesgue_12, lebesgue_12, g, intervals) <= 1e-14

    def test_cantor_to_lebesgue(self, cantor_01):
        dst = MeasureSpec(density(0.0, 1.0))
        g = row_map(cantor_01, dst)
        rng = np.random.default_rng(29)
        intervals = np.sort(rng.uniform(0.0, 1.0, size=(100, 2)), axis=1)
        assert pushforward_check(cantor_01, dst, g, intervals) <= 1e-6

    def test_density_pairs_residual(self):
        src = MeasureSpec(density(1.0, 2.0, coeffs=(0.0, 2.0)))
        dst = MeasureSpec(density(0.5, 3.0, coeffs=(1.0, 0.5)))
        g = row_map(src, dst)
        rng = np.random.default_rng(31)
        intervals = np.sort(rng.uniform(0.5, 3.0, size=(100, 2)), axis=1)
        assert pushforward_check(src, dst, g, intervals) <= 1e-9


class TestIntegrate:
    def test_constant_is_exact(self, lebesgue_12, cantor_01):
        for m in (lebesgue_12, cantor_01):
            for nodes in (16, 100, 1000):
                assert integrate(m, lambda t: np.ones_like(t), nodes=nodes) == pytest.approx(
                    m.total_mass, abs=1e-13
                )

    def test_lebesgue_mean(self, lebesgue_12):
        assert integrate(lebesgue_12, lambda t: t, nodes=1000) == pytest.approx(1.5, abs=1e-6)

    def test_cantor_mean_by_symmetry(self, cantor_01):
        # the Cantor measure is symmetric about 1/2, forcing mean 1/2
        assert integrate(cantor_01, lambda t: t, nodes=4096) == pytest.approx(0.5, abs=1e-3)


class TestStackedWindows:
    """Row p of a stacked call equals the same call on window p alone, bit for bit."""

    @staticmethod
    def windows(part, K=6):
        """The 2K partition cells as one stack and as fresh one-row stacks."""
        m = MeasureSpec(part)
        pts = build_partition(m, K)
        one = [RestrictedMeasure(m, pts[p:p + 1], pts[p + 1:p + 2]) for p in range(2 * K)]
        return RestrictedMeasure(m, pts[:-1], pts[1:]), one

    # At K = ROW_BLOCK // 700 + 1, the 2K rows of 700 levels span three
    # blocks of whole rows (ROW_BLOCK // 700 twice, then 2).
    @pytest.mark.parametrize("n", [33, 700])
    @pytest.mark.parametrize("part", SINGLE_PARTS.values(), ids=SINGLE_PARTS.keys())
    def test_rows_equal_one_window_calls(self, part, n):
        stack, one = self.windows(part, K=measures.ROW_BLOCK // 700 + 1)
        assert len(row_blocks(len(one), n)) == (1 if n == 33 else 3)
        assert stack.total_mass.tolist() == [float(w.total_mass[0]) for w in one]
        lo, hi = stack.support
        t = np.linspace(lo - 0.25 * (hi - lo), hi + 0.25 * (hi - lo), n, axis=-1)
        u = np.concatenate([
            stack.total_mass[:, None] * (np.arange(n - 2) + 0.5) / (n - 2),
            np.zeros((len(one), 1)), stack.total_mass[:, None],
        ], axis=1)
        x = quadrature_nodes(stack, nodes=n)
        g = TransportMap(stack[:-1], stack[1:])
        pulled, pushed = g(x[1:]), g.inverse(x[:-1])
        cdf, quantile = stack.cdf(t), stack.quantile(u)
        for p, w in enumerate(one):
            rows = slice(p, p + 1)
            assert (cdf[rows] == w.cdf(t[rows])).all()
            assert (quantile[rows] == w.quantile(u[rows])).all()
            assert (x[rows] == quadrature_nodes(w, nodes=n)).all()
            assert (stack.cdf(lo)[rows] == w.cdf(lo[rows])).all()
            assert stack[rows].support == w.support
            if p + 1 < len(one):
                single = TransportMap(w, one[p + 1])
                assert (pulled[rows] == single(x[p + 1:p + 2])).all()
                assert (pushed[rows] == single.inverse(x[rows])).all()

    def test_one_window_checks_apply_per_row(self):
        m = MeasureSpec(cantor(0.0, 1.0))
        with pytest.raises(DomainError, match=r"empty restriction window \[0.5, 0.5\]"):
            RestrictedMeasure(m, np.array([0.0, 0.5]), np.array([0.5, 0.5]))
        # (0.4, 0.6) lies inside the middle gap of the Cantor set
        with pytest.raises(DomainError, match=r"restriction to \[0.4, 0.6\] has no mass"):
            RestrictedMeasure(m, np.array([0.0, 0.4]), np.array([0.3, 0.6]))
        stack, _ = self.windows(density(1.0, 2.0), K=2)
        u = np.tile(stack.total_mass[:, None] * 0.5, (1, 3))
        u[2, 1] = 1.5 * stack.total_mass[2]
        with pytest.raises(RangeError, match=f"outside \\[0, {stack.total_mass[2]}\\]"):
            stack.quantile(u)
        with pytest.raises(RangeError):
            stack.cdf(np.ones(3))  # one row short of the four windows

    def test_scalar_window_is_rejected(self, lebesgue_12):
        with pytest.raises(RangeError, match="a stack of windows"):
            RestrictedMeasure(lebesgue_12, 1.25, 1.5)
        with pytest.raises(RangeError, match="a stack of windows"):
            RestrictedMeasure(lebesgue_12, np.array([1.25, 1.5]), np.array([1.5]))
        with pytest.raises(RangeError, match="between two stacks"):
            TransportMap(lebesgue_12, lebesgue_12)
        stack, _ = self.windows(density(1.0, 2.0), K=2)
        with pytest.raises(RangeError, match="between two stacks"):
            TransportMap(stack[:-1], stack)
        with pytest.raises(TypeError, match="by slice"):
            stack[0]
        with pytest.raises(TypeError, match="by slice"):
            TransportMap(stack[:-1], stack[1:])[0]


class TestQuadratureNodes:
    @staticmethod
    def cdf_formula(m, n):
        """Nodes and step from the cdf at both support ends, as an explicit interval."""
        lo, hi = m.support
        u_lo, u_hi = m.cdf(lo), m.cdf(hi)
        du = (u_hi - u_lo) / n
        return m.quantile(u_lo[:, None] + (np.arange(n) + 0.5) * du[:, None]), du

    @pytest.mark.parametrize("n", [33, 256])
    @pytest.mark.parametrize("part", SINGLE_PARTS.values(), ids=SINGLE_PARTS.keys())
    def test_mass_step_equals_cdf_of_support(self, part, n):
        # On its own support a measure's cdf is 0 at the start and its total
        # mass at the end, exactly, so du = total_mass / n loses no bit.
        stack, _ = TestStackedWindows.windows(part)
        for m in (stack, stack[0:1], stack[5:6], whole(MeasureSpec(part))):
            lo, hi = m.support
            assert (m.cdf(lo) == 0.0).all() and (m.cdf(hi) == m.total_mass).all()
            x, du = quadrature_nodes(m, nodes=n), m.total_mass / n
            x_ref, du_ref = self.cdf_formula(m, n)
            assert np.array_equal(du, du_ref) and np.array_equal(x, x_ref)

    def test_nodes_is_keyword_only(self):
        with pytest.raises(TypeError):
            quadrature_nodes(whole(MeasureSpec(density(1.0, 2.0))), None, 16)
        with pytest.raises(RangeError):
            quadrature_nodes(whole(MeasureSpec(density(1.0, 2.0))), nodes=0)
