import math

import mpmath
import numpy as np
import pytest

from lecplast import (
    INFINITE,
    CapacityError,
    MeasureSpec,
    PreconditionError,
    RangeError,
    Rule,
    ViolationCertificate,
    build_partition,
    build_shift_witness,
    build_transport_witness,
    classify,
)
from lecplast.measures import quadrature_nodes
from conftest import atom, cantor, density, descriptor, seq

mpmath.mp.dps = 40
SQRT_5_6 = float(mpmath.sqrt(mpmath.mpf(5) / 6))
SQRT_HALF = float(mpmath.sqrt(mpmath.mpf(1) / 2))


def _witness_for(d, K):
    verdict = classify(d)
    assert not verdict.plastic
    return build_shift_witness(d, verdict.certificate, K)


class TestBuildShift:
    def test_two_infinite_atoms(self):
        w = _witness_for(descriptor(atoms=[atom(1, INFINITE), atom(2, INFINITE)]), 2)
        assert np.array_equal(w.lambdas, [2.0, 2.0, 2.0, 1.0, 1.0])
        assert np.array_equal(w.factors, [1.0, 1.0, math.sqrt(0.5), 1.0])
        assert abs(w.factor(1) - SQRT_HALF) <= 1e-15

    def test_no_min_no_max_chain(self):
        d = descriptor(sequences=[seq(1, "dec"), seq(2, "inc")])
        w = _witness_for(d, 2)
        # D-terms below 1.5 start at term(2); I-terms above 1.25 start at term(1)
        assert w.lambdas[w.window + 1] == 1.25
        assert w.lambdas[w.window + 2] == 1.125
        assert w.lambdas[w.window] == 1.5
        assert w.lambdas[w.window - 1] == 1.75
        assert abs(w.factor(1) - SQRT_5_6) <= 1e-15

    def test_infinite_min_no_max(self):
        d = descriptor(atoms=[atom(1, INFINITE)], sequences=[seq(2, "inc")])
        w = _witness_for(d, 1)
        assert np.array_equal(w.lambdas, [1.75, 1.5, 1.0])
        assert np.allclose(
            w.factors, [math.sqrt(1.5 / 1.75), math.sqrt(1.0 / 1.5)], atol=1e-16
        )

    def test_no_min_infinite_max_mirror(self):
        d = descriptor(atoms=[atom(2, INFINITE)], sequences=[seq(1, "dec")])
        w = _witness_for(d, 2)
        assert (w.lambdas[: w.window + 1] == 2.0).all()
        # forward terms sit below (r+R)/2 = 1.5: term(2) = 1.25 first
        assert w.lambdas[w.window + 1] == 1.25
        assert w.lambdas[w.window + 2] == 1.125

    def test_labels_distinct_and_within_eigenspaces(self):
        d = descriptor(atoms=[atom(1, INFINITE), atom(2, INFINITE)])
        w = _witness_for(d, 50)
        assert len(set(w.basis_labels)) == 101
        kinds = {label[0] for label in w.basis_labels}
        assert kinds == {"atom"}

    @pytest.mark.parametrize(
        "d, labels",
        [
            (
                descriptor(atoms=[atom(1, INFINITE), atom(2, INFINITE)]),
                [("atom", 1, 2), ("atom", 1, 1), ("atom", 1, 0), ("atom", 0, 0), ("atom", 0, 1)],
            ),
            (
                descriptor(atoms=[atom(1, INFINITE)], sequences=[seq(2, "inc")]),
                [("sequence", 0, 3), ("sequence", 0, 2), ("sequence", 0, 1),
                 ("atom", 0, 0), ("atom", 0, 1)],
            ),
            (
                descriptor(atoms=[atom(2, INFINITE)], sequences=[seq(1, "dec")]),
                [("atom", 0, 2), ("atom", 0, 1), ("atom", 0, 0),
                 ("sequence", 0, 2), ("sequence", 0, 3)],
            ),
            (
                descriptor(sequences=[seq(1, "dec"), seq(2, "inc")]),
                [("sequence", 1, 3), ("sequence", 1, 2), ("sequence", 1, 1),
                 ("sequence", 0, 2), ("sequence", 0, 3)],
            ),
        ],
        ids=["two_infinite_atoms", "infinite_min_no_max", "no_min_infinite_max", "no_min_no_max"],
    )
    def test_basis_labels_pinned(self, d, labels):
        # slot k = -2..2; backward labels climb toward R as k decreases
        assert list(_witness_for(d, 2).basis_labels) == labels

    def test_form_identity_per_slot(self):
        d = descriptor(sequences=[seq(1, "dec"), seq(2, "inc")])
        w = _witness_for(d, 8)
        lam = w.lambdas
        ratios = lam[1:] / lam[:-1]
        assert np.abs(lam[:-1] * ratios - lam[1:]).max() <= 1e-15

    def test_continuous_certificate_rejected(self):
        d = descriptor(continuous=[density(1, 2)])
        cert = classify(d).certificate
        with pytest.raises(PreconditionError):
            build_shift_witness(d, cert, 4)

    def test_finite_eigenspace_capacity(self):
        d = descriptor(atoms=[atom(1, 2), atom(2, 2)])
        cert = ViolationCertificate(
            Rule.TWO_INFINITE_ATOMS, 1.0, 2.0, (("atom", 0), ("atom", 1))
        )
        with pytest.raises(CapacityError):
            build_shift_witness(d, cert, 5)


class TestApplyShift:
    @pytest.fixture
    def w(self):
        return _witness_for(descriptor(atoms=[atom(1, INFINITE), atom(2, INFINITE)]), 2)

    def test_single_column_action(self, w):
        x = np.zeros(5)
        x[w.window + 1] = 1.0  # e_{n_1}
        out = w.apply(x)
        expected = np.zeros(5)
        expected[w.window] = math.sqrt(0.5)
        assert np.array_equal(out, expected)

    def test_tail_unchanged(self, w):
        tail = np.array([1.0, -2.0, 0.5])
        out, tail_out = w.apply(np.zeros(5), tail)
        assert np.array_equal(out, np.zeros(5))
        assert tail_out is tail

    def test_top_slot_has_no_preimage(self, w):
        x = np.zeros(5)
        x[-1] = 1.0  # e_{n_K}
        out = w.apply(x)
        assert out[-2] == w.factor(w.window)
        assert out[-1] == 0.0


class TestPartition:
    def test_lebesgue_quantiles(self, lebesgue_12):
        endpoints = build_partition(lebesgue_12, 2)
        assert np.allclose(endpoints, [1.125, 1.25, 1.5, 1.75, 1.875], atol=2.0**-45)

    def test_middle_cell_mass(self):
        m = MeasureSpec(density(1.0, 2.0, coeffs=(0.0, 3.0)))
        endpoints = build_partition(m, 2)
        mid_mass = m.cdf(endpoints[3]) - m.cdf(endpoints[2])
        assert mid_mass == pytest.approx(m.total_mass / 4.0, abs=1e-12)

    def test_cantor_midpoint(self, cantor_01):
        endpoints = build_partition(cantor_01, 1)
        assert endpoints[1] == pytest.approx(2.0 / 3.0, abs=2.0**-20)

    def test_masses_follow_levels(self, cantor_01):
        K = 4
        endpoints = build_partition(cantor_01, K)
        k = np.arange(-K, K + 1)
        levels = np.where(k <= 0, 2.0 ** (k - 1.0), 1.0 - 2.0 ** (-k - 1.0))
        masses = np.diff(cantor_01.cdf(endpoints))
        assert np.abs(masses - np.diff(levels)).max() <= 1e-8


class TestTransportWitness:
    def test_closed_form_multiplier(self, lebesgue_12):
        # the uniform-density case has the explicit multiplier
        # s(a_{k+1}-a_k) / (s(a_{k+2}-a_{k+1}) + a_{k+1}^2 - a_k a_{k+2})
        w = build_transport_witness(density(1.0, 2.0), 4)
        a = w.endpoints
        K = w.window
        for k in range(-K, K - 1):
            nodes, _ = quadrature_nodes(w.cell(k), None, 50)
            ak, ak1, ak2 = a[k + K], a[k + K + 1], a[k + K + 2]
            expected = nodes * (ak1 - ak) / (nodes * (ak2 - ak1) + ak1**2 - ak * ak2)
            assert np.abs(w.multiplier_squared(k, nodes) - expected).max() <= 1e-9

    def test_endpoint_identities(self):
        w = build_transport_witness(density(1.0, 2.0), 2)
        a = w.endpoints
        K = w.window
        for k in range(-K, K - 1):
            ak, ak1, ak2 = a[k + K], a[k + K + 1], a[k + K + 2]
            assert w.multiplier_squared(k, ak) == pytest.approx(ak / ak1, abs=1e-10)
            assert w.multiplier_squared(k, ak1) == pytest.approx(ak1 / ak2, abs=1e-10)

    def test_junction_value(self):
        w = build_transport_witness(density(1.0, 2.0), 2)
        assert w.multiplier_squared(0, 1.5) == pytest.approx(6.0 / 7.0, abs=1e-12)

    def test_multiplier_strictly_contractive_at_nodes(self):
        for part in (density(1.0, 2.0, coeffs=(0.0, 1.0)), cantor(1.0, 2.0)):
            w = build_transport_witness(part, 3)
            for k in range(-3, 2):
                nodes, _ = quadrature_nodes(w.cell(k), None, 64)
                values = w.multiplier_squared(k, nodes)
                assert (values > 0).all() and (values < 1).all()

    def test_cell_masses_positive(self):
        w = build_transport_witness(cantor(1.0, 2.0, mass=0.7), 5)
        assert (w.masses > 0).all()
        assert w.masses.sum() == pytest.approx(
            w.measure.cdf(w.endpoints[-1]) - w.measure.cdf(w.endpoints[0]), abs=1e-12
        )


class TestApplyTransport:
    def test_constant_input_isolates_multiplier(self):
        w = build_transport_witness(density(1.0, 2.0), 2)
        n = 128
        f = np.ones(n)
        out = w.apply(f, 0)
        nodes, _ = quadrature_nodes(w.cell(1), None, n)
        g = w.map(0)(nodes)
        expected = np.sqrt(g / nodes) * math.sqrt(w.cell_mass(0) / w.cell_mass(1))
        assert np.abs(out - expected).max() <= 1e-12

    def test_quadratic_form_cell_identity(self):
        w = build_transport_witness(density(1.0, 2.0, coeffs=(0.5, 1.0)), 3)
        n = 4096
        rng = np.random.default_rng(13)
        for k in (-2, 0, 1):
            src_nodes, du_src = quadrature_nodes(w.cell(k), None, n)
            img_nodes, du_img = quadrature_nodes(w.cell(k + 1), None, n)
            coeffs = rng.normal(size=4)
            f = np.polynomial.polynomial.polyval(src_nodes - src_nodes[0], coeffs)
            out = w.apply(f, k)
            lhs = du_img * np.sum(img_nodes * out**2)
            rhs = du_src * np.sum(src_nodes * f**2)
            assert abs(lhs - rhs) <= 1e-5 * max(1.0, abs(rhs))

    def test_norm_strictly_decreases(self):
        w = build_transport_witness(density(1.0, 2.0), 2)
        n = 1024
        src_nodes, du_src = quadrature_nodes(w.cell(0), None, n)
        _, du_img = quadrature_nodes(w.cell(1), None, n)
        f = 1.0 + 0.3 * np.sin(6.0 * src_nodes)
        out = w.apply(f, 0)
        assert du_img * np.sum(out**2) < du_src * np.sum(f**2)

    def test_node_validation(self):
        w = build_transport_witness(density(1.0, 2.0), 2)
        with pytest.raises(RangeError):
            w.apply(np.ones(4), 0, nodes=np.array([0.0, 1.6, 1.7, 1.8]))
        with pytest.raises(RangeError):
            w.apply(np.ones(4), w.window - 1)  # no successor cell
