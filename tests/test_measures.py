import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from lecplast import MeasureSpec, RangeError, TransportMap, build_transport_witness
from lecplast.witness import partition_levels
from conftest import (
    bisect_quantile,
    cantor,
    cantor_oracle,
    density,
    integrate,
    pushforward_check,
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
        for cell in w.cells:
            levels = np.concatenate([
                cell.total_mass * (np.arange(512) + 0.5) / 512,
                cell.total_mass * partition_levels(8),
            ])
            assert (cell.cdf(cell.quantile(levels)) <= levels).all()

    @pytest.mark.parametrize("part", SINGLE_PARTS.values(), ids=SINGLE_PARTS.keys())
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
        cell = m.restrict(*m.quantile(m.total_mass * np.array([0.25, 0.75])))
        calls.clear()
        cell.quantile(cell.total_mass * (np.arange(256) + 0.5) / 256)
        assert 1 <= len(calls) <= 8


class TestTransportMap:
    def test_affine_pair(self):
        mu = MeasureSpec(density(0.0, 1.0))
        nu = MeasureSpec(density(0.0, 2.0))
        g = TransportMap(mu, nu)
        t = np.linspace(0.0, 2.0, 9)
        assert np.abs(g(t) - t / 2.0).max() <= 2.0**-40

    def test_self_transport_is_identity(self, lebesgue_12):
        g = TransportMap(lebesgue_12, lebesgue_12)
        t = np.linspace(1.0, 2.0, 11)
        assert np.abs(g(t) - t).max() <= 2.0**-40

    def test_quadratic_density_closed_form(self, lebesgue_12):
        # F_nu(t) = (t-1)^2 for the density 2(t-1) on [1,2]; solving
        # F_mu(G) = F_nu gives G(t) = 1 + (t-1)^2.
        nu = MeasureSpec(density(1.0, 2.0, coeffs=(-2.0, 2.0)))
        g = TransportMap(lebesgue_12, nu)
        t = np.linspace(1.05, 1.95, 10)
        assert np.abs(g(t) - (1.0 + (t - 1.0) ** 2)).max() <= 1e-12

    def test_monotone_on_ordered_pairs(self, cantor_01):
        dst = MeasureSpec(density(0.0, 1.0))
        g = TransportMap(cantor_01, dst)
        rng = np.random.default_rng(17)
        pairs = np.sort(rng.uniform(0.0, 1.0, size=(1000, 2)), axis=1)
        assert (g(pairs[:, 0]) <= g(pairs[:, 1]) + 2.0**-45).all()

    def test_range_inside_source_support(self, lebesgue_12):
        nu = MeasureSpec(density(0.0, 3.0, coeffs=(0.5, 1.0)))
        g = TransportMap(lebesgue_12, nu)
        values = g(np.linspace(0.0, 3.0, 200))
        assert (values >= 1.0 - 2.0**-45).all()
        assert (values <= 2.0 + 2.0**-45).all()


class TestPushforward:
    def test_affine_case(self):
        mu = MeasureSpec(density(0.0, 1.0))
        nu = MeasureSpec(density(0.0, 2.0))
        g = TransportMap(mu, nu)
        assert pushforward_check(mu, nu, g, [[0.0, 0.8]]) <= 1e-12

    def test_self_transport(self, lebesgue_12):
        g = TransportMap(lebesgue_12, lebesgue_12)
        intervals = [[1.0, 1.3], [1.2, 1.9], [1.5, 2.0]]
        assert pushforward_check(lebesgue_12, lebesgue_12, g, intervals) <= 1e-14

    def test_cantor_to_lebesgue(self, cantor_01):
        dst = MeasureSpec(density(0.0, 1.0))
        g = TransportMap(cantor_01, dst)
        rng = np.random.default_rng(29)
        intervals = np.sort(rng.uniform(0.0, 1.0, size=(100, 2)), axis=1)
        assert pushforward_check(cantor_01, dst, g, intervals) <= 1e-6

    def test_density_pairs_residual(self):
        src = MeasureSpec(density(1.0, 2.0, coeffs=(0.0, 2.0)))
        dst = MeasureSpec(density(0.5, 3.0, coeffs=(1.0, 0.5)))
        g = TransportMap(src, dst)
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
