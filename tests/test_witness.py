import math
import tracemalloc
from fractions import Fraction

import mpmath
import numpy as np
import pytest

from lecplast import (
    INFINITE,
    CapacityError,
    MeasureSpec,
    PreconditionError,
    RangeError,
    RestrictedMeasure,
    Rule,
    TransportMap,
    ViolationCertificate,
    build_partition,
    build_shift_witness,
    build_transport_witness,
    classify,
)
from lecplast import measures
from lecplast.measures import quadrature_nodes
from lecplast.verify import check_form_preservation, check_nonexpansive, check_strict_contraction
from lecplast.witness import MULTIPLIER_NODES, transport_witness_to_dict
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
        assert abs(w.factors[w.window] - SQRT_HALF) <= 1e-15

    def test_no_min_no_max_chain(self):
        d = descriptor(sequences=[seq(1, "dec"), seq(2, "inc")])
        w = _witness_for(d, 2)
        # D-terms below 1.5 start at term(2); I-terms above 1.25 start at term(1)
        assert w.lambdas[w.window + 1] == 1.25
        assert w.lambdas[w.window + 2] == 1.125
        assert w.lambdas[w.window] == 1.5
        assert w.lambdas[w.window - 1] == 1.75
        assert abs(w.factors[w.window] - SQRT_5_6) <= 1e-15

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

    def test_refused_chain_builds_no_labels(self):
        # Terms past the 54th of a ratio-0.5 sequence round to its limit, so
        # a window of 10^7 is refused; the refusal comes before a label list
        # of 10^7 tuples or an array of 10^7 terms (80 MB) is built.
        d = descriptor(sequences=[seq(1, "dec", 0.5), seq(2, "inc", 0.5)])
        cert = classify(d).certificate
        tracemalloc.start()
        try:
            with pytest.raises(CapacityError, match="^terms 1..10000000 of the sequence"):
                build_shift_witness(d, cert, 10**7)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert peak < 1e6


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
        # row p of the (2K - 1, n) argument lies in cell k = p - K
        w = build_transport_witness(density(1.0, 2.0), 4)
        a = w.endpoints
        nodes = quadrature_nodes(w.cells[:-1], nodes=50)
        ak, ak1, ak2 = a[:-2, None], a[1:-1, None], a[2:, None]
        expected = nodes * (ak1 - ak) / (nodes * (ak2 - ak1) + ak1**2 - ak * ak2)
        assert np.abs(w.multiplier_squared(nodes) - expected).max() <= 1e-9

    def test_endpoint_identities(self):
        w = build_transport_witness(density(1.0, 2.0), 2)
        a = w.endpoints
        ends = w.multiplier_squared(np.stack([a[:-2], a[1:-1]], axis=1))
        assert ends[:, 0] == pytest.approx(a[:-2] / a[1:-1], abs=1e-10)
        assert ends[:, 1] == pytest.approx(a[1:-1] / a[2:], abs=1e-10)

    def test_junction_value(self):
        w = build_transport_witness(density(1.0, 2.0), 2)
        s = w.endpoints[:-2, None]  # every cell's left end; row K is cell 0 = [1.5, 1.75]
        assert s[w.window, 0] == 1.5
        assert w.multiplier_squared(s)[w.window, 0] == pytest.approx(6.0 / 7.0, abs=1e-12)

    def test_multiplier_strictly_contractive_at_nodes(self):
        for part in (density(1.0, 2.0, coeffs=(0.0, 1.0)), cantor(1.0, 2.0)):
            w = build_transport_witness(part, 3)
            nodes = quadrature_nodes(w.cells[:-1], nodes=64)
            values = w.multiplier_squared(nodes)
            assert (values > 0).all() and (values < 1).all()

    def test_multiplier_argument_outside_its_cell(self):
        w = build_transport_witness(density(1.0, 2.0), 2)
        s = np.linspace(*w.maps.source.support, 5, axis=-1)
        s[2, 0] = 1.0  # row 2 is cell 0 = [1.5, 1.75]
        with pytest.raises(RangeError, match="outside cell 0$"):
            w.multiplier(s)

    @pytest.mark.parametrize(
        "part", [density(1.0, 2.0, coeffs=(0.0, 1.0)), cantor(1.0, 2.0)], ids=["density", "cantor"]
    )
    def test_full_tables_equal_per_cell_multipliers(self, part):
        # The tables sit on the checks' nodes, one rule for both.
        w = build_transport_witness(part, 4)
        tables = transport_witness_to_dict(w, full=True)["multiplier_tables"]
        assert [table["cell"] for table in tables] == list(range(-4, 3))
        s = quadrature_nodes(w.cells[:-1], nodes=MULTIPLIER_NODES)
        assert [table["nodes"] for table in tables] == s.tolist()
        assert [table["multiplier"] for table in tables] == w.multiplier(s).tolist()

    @pytest.mark.parametrize("support", [(1.0, 2.0), (0.37, 5.3)], ids=str)
    @pytest.mark.parametrize("K", [4, 16, 19])
    def test_full_tables_stable_under_one_ulp(self, support, K):
        # The affine maps keep the multiplier continuous at and around every
        # node, triadic points of the set included.
        w = build_transport_witness(cantor(*support), K)
        tables = transport_witness_to_dict(w, full=True)["multiplier_tables"]
        s = np.array([table["nodes"] for table in tables])
        for direction in (-np.inf, np.inf):
            moved = w.multiplier(np.nextafter(s, direction))
            assert np.abs(moved - [table["multiplier"] for table in tables]).max() <= 1e-12

    def test_cell_masses_positive(self):
        # The masses are M 2^e exactly; the cdf of the closed-form endpoints
        # is Hoelder-sensitive to their last ulp, that of the generic
        # partition's endpoints is not.
        w = build_transport_witness(cantor(1.0, 2.0, mass=0.7), 5)
        assert (w.masses > 0).all()
        assert w.masses.sum() == pytest.approx(0.7 * (1.0 - 2.0**-5), abs=1e-15)
        ends = build_partition(w.measure, 5)
        assert w.masses.sum() == pytest.approx(
            w.measure.cdf(ends[-1]) - w.measure.cdf(ends[0]), abs=1e-12
        )


class TestFloatHorizon:
    @pytest.mark.parametrize(
        "part, largest",
        [(cantor(1.0, 2.0), 33), (density(1.0, 2.0), 51)],
        ids=["cantor", "lebesgue"],
    )
    def test_collision_names_largest_window(self, part, largest):
        for K in (largest + 1, 60, 80):
            message = (
                f"window K={K} collide in floating point; "
                f"the largest window with distinct endpoints is K={largest}$"
            )
            with pytest.raises(CapacityError, match=message):
                build_transport_witness(part, K)
        build_transport_witness(part, largest)

    def test_two_ulp_support_has_no_window(self):
        with pytest.raises(CapacityError, match="no window has distinct endpoints$"):
            build_transport_witness(density(1.0, 1.0 + 2.0**-51), 1)


#: Cantor parts of the closed-form oracle tests: a unit, a wide and a far support.
CANTOR_PARTS = [cantor(1.0, 2.0), cantor(0.37, 5.3, mass=1.759), cantor(1e300, 1.5e300)]
CANTOR_IDS = ["unit", "wide", "far"]


def _exact_endpoints(part, K):
    """The triadic partition endpoints of a Cantor part in rational arithmetic."""
    a, b = (Fraction(v) for v in part.support)
    return np.array([float(a + 2 * (b - a) * Fraction(3) ** (k - 1) if k <= 0
                           else b - (b - a) / Fraction(3) ** (k + 1)) for k in range(-K, K + 1)])


def _distance_to_cantor_set(z: Fraction, depth: int = 40) -> Fraction:
    """Distance from z to the level-``depth`` interval ends of the standard
    Cantor set, which lie in the set: at most 3**-depth / 2 above the
    distance to the set.  From z <= 1/2 the nearest point is in [0, 1/3]."""
    for _ in range(depth):
        z = 3 * z if z <= Fraction(1, 2) else 3 * z - 2
    return min(abs(z), abs(z - 1)) / Fraction(3) ** depth


class TestCantorClosedForm:
    @pytest.mark.parametrize("part", CANTOR_PARTS, ids=CANTOR_IDS)
    def test_endpoints_match_exact_and_generic_partition(self, part):
        # Each endpoint is within an ulp of its exact value.  The generic
        # quantile is itself up to 3 ulps off it (on [0.37, 5.3] at k = -1).
        m = MeasureSpec(part)
        for K in range(1, 20):
            ends = build_transport_witness(part, K).endpoints
            assert (np.abs(ends - _exact_endpoints(part, K)) <= np.spacing(ends)).all()
            generic = build_partition(m, K)
            assert (np.abs(ends - generic) <= 3 * np.spacing(generic)).all()

    @pytest.mark.parametrize("part", CANTOR_PARTS, ids=CANTOR_IDS)
    def test_masses_are_exact_powers_of_two(self, part):
        m = MeasureSpec(part)
        for K in range(1, 20):
            w = build_transport_witness(part, K)
            k = np.arange(-K, K)
            assert np.array_equal(w.masses, part.mass * 2.0 ** np.where(k < 0, k - 1, -k - 2))
            generic = np.diff(m.cdf(build_partition(m, K)))
            assert (np.abs(w.masses - generic) <= 1e-10 * w.masses).all()

    @pytest.mark.parametrize("part", CANTOR_PARTS, ids=CANTOR_IDS)
    @pytest.mark.parametrize("K", [1, 4, 8])
    def test_affine_maps_match_generic_transport(self, part, K):
        # At the standard-table nodes of an odd node count, without the
        # middle one: its level 1/2 is a gap edge, which the generic map
        # picks by rounding.
        w = build_transport_witness(part, K)
        cells = RestrictedMeasure(w.measure, w.endpoints[:-1], w.endpoints[1:])
        generic = TransportMap(cells[:-1], cells[1:])
        t = np.delete(quadrature_nodes(w.cells, nodes=99)[1:], 49, axis=1)
        width = w.cells.width[:-1, None]
        assert (np.abs(w.maps(t) - generic(t)) <= 1e-8 * width).all()
        s = w.cells.lo[:-1, None] + width * np.array([0.0, 0.2, 0.9, 1.0])
        assert np.allclose(w.maps(w.maps.inverse(s)), s, rtol=1e-15, atol=0)

    def test_node_identity_holds_to_rounding(self):
        # G_k carries node i of cell k + 1 onto node i of cell k within a few
        # ulps, so form_preservation reads rounding (it read 1.5e-6 with
        # nodes picked on gap edges by the generic quantile).
        w = build_transport_witness(cantor(0.696057, 1.592525, mass=1.759262), 16)
        x = quadrature_nodes(w.cells, nodes=256)
        assert (np.abs(w.maps(x[1:]) - x[:-1]) <= 4 * np.spacing(x[:-1])).all()
        assert check_form_preservation(w, nodes=256).worst_residual < 1e-10

    @pytest.mark.parametrize("part", CANTOR_PARTS, ids=CANTOR_IDS)
    @pytest.mark.parametrize("K", [1, 19])
    def test_full_table_nodes_lie_in_the_cantor_set(self, part, K):
        # Each cell's nodes are points of its Cantor copy to rounding, so the
        # table shows the multiplier where the witness acts.
        w = build_transport_witness(part, K)
        tables = transport_witness_to_dict(w, full=True)["multiplier_tables"]
        cells = w.cells[:-1]
        for table, lo, width in zip(tables, cells.lo, cells.width):
            for s in table["nodes"]:
                z = (Fraction(s) - Fraction(lo)) / Fraction(width)
                assert _distance_to_cantor_set(z) * Fraction(width) <= 4 * np.spacing(s)

    def test_witness_and_checks_call_no_cantor_cdf_or_quantile(self, monkeypatch):
        def forbidden(*args, **kwargs):
            raise AssertionError("a Cantor cdf or quantile ran")

        for owner, name in [(MeasureSpec, "cdf"), (MeasureSpec, "quantile"),
                            (RestrictedMeasure, "cdf"), (RestrictedMeasure, "quantile"),
                            (measures, "cantor_function")]:
            monkeypatch.setattr(owner, name, forbidden)
        w = build_transport_witness(cantor(1.0, 2.0, mass=0.7), 16)
        transport_witness_to_dict(w, full=True)
        checks = (check_form_preservation, check_nonexpansive, check_strict_contraction)
        assert all(check(w, nodes=256).passed for check in checks)

    @pytest.mark.parametrize("mass, largest", [(5e-324, 0), (1e-320, 0), (1e-305, 7),
                                               (2.0**-1010, 11)])
    def test_subnormal_cell_masses_name_largest_window(self, mass, largest):
        fits = (f"the largest window with cell masses in the normal float range is K={largest}"
                if largest else "no window has cell masses in the normal float range")
        with pytest.raises(CapacityError, match=f"^cell masses of window K=16 underflow the "
                                                f"normal float range; {fits}$"):
            build_transport_witness(cantor(1.0, 2.0, mass=mass), 16)
        if largest:
            build_transport_witness(cantor(1.0, 2.0, mass=mass), largest)
