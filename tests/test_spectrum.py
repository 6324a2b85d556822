import math
import sys

import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from lecplast import (
    INFINITE,
    CapacityError,
    DomainError,
    PreconditionError,
    SchemaError,
    TruncatedQuadraticSpace,
    canonicalize,
    parse_descriptor,
    serialize_descriptor,
)
from lecplast.spectrum import is_multiplicity
from conftest import (atom, cantor, density, descriptor, random_descriptor,
                      reference_first_index, reference_points, seq)

#: Whole numbers >= 1 of every type a multiplicity may have, and values that are not.
WHOLE = [1, 3, 2**53 + 1, 10**400, 2.0, np.float64(3.0), np.int64(2)]
NOT_WHOLE = [math.inf, math.nan, 1.5, 0, 0.0, -1, np.float64(0.5)]


class TestParse:
    def test_single_infinite_atom(self):
        d = parse_descriptor({"atoms": [{"value": 1, "multiplicity": "inf"}]})
        assert len(d.atoms) == 1
        assert d.atoms[0].value == 1.0
        assert d.atoms[0].is_infinite
        assert not d.sequences and not d.continuous

    def test_sequence_terms(self):
        d = parse_descriptor(
            {
                "sequences": [
                    {"limit": 1, "direction": "dec", "offset": 1, "ratio": 0.5, "multiplicity": 1}
                ]
            }
        )
        assert d.sequences[0].term(1) == 1.5
        assert d.sequences[0].term(2) == 1.25

    def test_negative_value_rejected(self):
        with pytest.raises(DomainError):
            parse_descriptor({"atoms": [{"value": -1, "multiplicity": 1}]})

    def test_bad_ratio_rejected(self):
        with pytest.raises(DomainError):
            parse_descriptor(
                {
                    "sequences": [
                        {"limit": 1, "direction": "dec", "offset": 1, "ratio": 1.5, "multiplicity": 1}
                    ]
                }
            )

    def test_unknown_field_is_schema_error(self):
        with pytest.raises(SchemaError):
            parse_descriptor({"atoms": [{"value": 1, "multiplicity": 1, "extra": 0}]})

    def test_empty_descriptor_rejected(self):
        with pytest.raises(DomainError):
            parse_descriptor({})

    def test_negative_density_rejected(self):
        with pytest.raises(DomainError):
            parse_descriptor(
                {"continuous": [{"kind": "density", "support": [1, 2], "coeffs": [-1]}]}
            )

    @pytest.mark.parametrize(
        "coeffs",
        # (t - 1.3)^2, whose exact minimum rounds to -2.2e-16; (t - 1.5)^2;
        # (t - 1)^2 and 2t - 2, both 0 at the support's start.
        [(1.69, -2.6, 1.0), (2.25, -3.0, 1.0), (1.0, -2.0, 1.0), (-2.0, 2.0)],
        ids=str,
    )
    def test_density_with_zero_minimum_accepted(self, coeffs):
        assert density(1.0, 2.0, coeffs=coeffs).total_mass > 0

    def test_spectral_support_must_avoid_zero(self):
        with pytest.raises(DomainError):
            parse_descriptor(
                {"continuous": [{"kind": "density", "support": [0, 1], "coeffs": [1]}]}
            )


class TestCanonicalize:
    def test_multiplicities_add(self):
        d = descriptor(atoms=[atom(1, 2), atom(1, 3)])
        assert d.atoms == (atom(1, 5),)

    def test_infinite_absorbs(self):
        d = descriptor(atoms=[atom(1, 2), atom(1, INFINITE)])
        assert d.atoms == (atom(1, INFINITE),)

    def test_atoms_sorted(self):
        d = descriptor(atoms=[atom(2, 1), atom(1, 1)])
        assert d.atoms == (atom(1, 1), atom(2, 1))

    def test_idempotent_on_random_descriptors(self):
        rng = np.random.default_rng(7)
        for _ in range(50):
            d = random_descriptor(rng)
            if d.is_empty:
                continue
            assert canonicalize(d) == d


class TestMultiplicityRule:
    """One rule decides a multiplicity for atoms, sequence terms and the
    truncated space; each keeps its own exception and message."""

    @pytest.mark.parametrize("m", WHOLE, ids=repr)
    def test_whole_numbers_of_any_size_and_type(self, m):
        assert is_multiplicity(m)
        assert atom(1.0, m).multiplicity == m
        assert seq(1.0, "dec", mult=m).multiplicity == m
        assert TruncatedQuadraticSpace((1.0,), m).dimension == int(m)

    @pytest.mark.parametrize("m", NOT_WHOLE, ids=repr)
    def test_other_values_are_refused(self, m):
        assert not is_multiplicity(m)
        if m != INFINITE:  # the atom's token for an infinite eigenspace
            with pytest.raises(DomainError, match="^multiplicity must be a positive integer "
                                                  "or INFINITE, got "):
                atom(1.0, m)
        with pytest.raises(DomainError, match="^per-term multiplicity must be a positive "
                                              "integer, got "):
            seq(1.0, "dec", mult=m)
        with pytest.raises(PreconditionError, match="^the dimension must be a whole number "
                                                    ">= 1, the count of distinct eigenvalues, got "):
            TruncatedQuadraticSpace((1.0,), m)

    def test_parsed_multiplicities_past_the_float_range(self):
        doc = {"atoms": [{"value": 1, "multiplicity": 10**400}],
               "sequences": [{"limit": 2, "direction": "inc", "offset": 1, "ratio": 0.5,
                              "multiplicity": 10**400 + 1}]}
        d = parse_descriptor(doc)
        assert d.atoms[0].multiplicity == 10**400
        assert serialize_descriptor(d) == doc


class TestBounds:
    def test_enumerated_points_stay_in_envelope(self):
        rng = np.random.default_rng(11)
        for _ in range(50):
            d = random_descriptor(rng, allow_continuous=False)
            if d.is_empty:
                continue
            # the envelope of the spectrum, unattained sequence limits included
            values = [a.value for a in d.atoms]
            values += [v for q in d.sequences for v in (q.limit, q.term(1))]
            lo, hi = min(values), max(values)
            for depth in (1, 3, 17):
                for value in TruncatedQuadraticSpace.from_descriptor(d, depth).values:
                    assert lo <= value <= hi


def truncation(d, per_sequence):
    """The truncated space's distinct values as a list, and its dimension."""
    space = TruncatedQuadraticSpace.from_descriptor(d, per_sequence)
    return space.values.tolist(), space.dimension


class TestEnumerate:
    def test_infinite_replication_default(self):
        d = descriptor(atoms=[atom(1, INFINITE)])
        assert truncation(d, 3) == ([1.0], 6)

    def test_sequence_terms(self):
        d = descriptor(sequences=[seq(2, "inc")])
        assert truncation(d, 3) == ([1.5, 1.75, 1.875], 3)

    def test_overlay_merge(self):
        d = descriptor(atoms=[atom(1.5, 1)], sequences=[seq(2, "inc")])
        assert truncation(d, 3) == ([1.5, 1.75, 1.875], 4)

    def test_components_agree_with_reference_points(self):
        # The space built from the descriptor's components against the
        # per-point truncation: its values are the points' distinct values
        # and its dimension the sum of their multiplicities.
        rng = np.random.default_rng(19)
        for _ in range(50):
            d = random_descriptor(rng, allow_continuous=False)
            if d.is_empty:
                continue
            for depth in (1, 3, 17):
                points = reference_points(d, depth)
                values = np.unique([v for v, _ in points])
                assert truncation(d, depth) == (values.tolist(), sum(m for _, m in points))

    def test_per_sequence_below_one_is_refused(self):
        with pytest.raises(DomainError, match="^per_sequence must be positive, got 0$"):
            TruncatedQuadraticSpace.from_descriptor(descriptor(atoms=[atom(1.0)]), 0)


class TestSequenceTerms:
    def test_distance_to_limit_is_geometric(self):
        s = seq(2, "inc", offset=1.0, ratio=0.5)
        for j in range(1, 40):
            assert abs(s.term(j) - s.limit) == 1.0 * 0.5**j

    @given(
        limit=st.floats(1.0, 8.0),
        offset=st.floats(0.01, 0.4),
        ratio=st.floats(0.3, 0.9),
    )
    @settings(max_examples=50, deadline=None)
    def test_terms_strictly_monotone(self, limit, offset, ratio):
        # 12 terms keep the geometric increments above float resolution
        s = seq(limit, "dec", offset=offset, ratio=ratio)
        values = s.terms(12)
        assert (np.diff(values) < 0).all()
        assert abs(values[-1] - limit) <= offset * ratio**12 + 1e-15 * limit

    @pytest.mark.parametrize(
        "s, count",
        [
            (seq(1, "dec"), 80),  # 1 + 2**-j rounds to the limit from j = 53
            (seq(2, "inc"), 64),
            (seq(1, "dec", offset=1e-15, ratio=0.99), 2),  # terms 1 and 2 round alike
        ],
        ids=["dec_reaches_limit", "inc_reaches_limit", "neighbours_merge"],
    )
    def test_terms_that_are_not_distinct_floats_raise(self, s, count):
        with pytest.raises(CapacityError):
            s.terms(count)

    @pytest.mark.parametrize("s", [seq(1, "dec"), seq(2, "inc", offset=0.3, ratio=0.9),
                                   seq(1e-300, "dec", offset=1e300, ratio=1e-3)],
                             ids=["halves", "increasing", "far_from_limit"])
    def test_term_and_terms_share_one_step(self, s):
        values = s.terms(40, first=3)
        j = np.arange(3, 43)
        assert values.tobytes() == np.array([s.term(int(k)) for k in j]).tobytes()
        assert s.step(j).tobytes() == (s.offset * s.ratio**j).tobytes()

    # In the first two inputs gap / offset underflows to 0 and overflows to inf;
    # in the third the gap is 1.66e-316 and the ratio 1 - 2.2e-16.
    @example(offset=1e308, ratio=0.5, drop=338.0)
    @example(offset=1e-130, ratio=0.5, drop=-330.0)
    @example(offset=1e-250, ratio=0.9999999999999998, drop=65.78)
    @given(offset=st.floats(-300.0, 300.0).map(lambda e: 10.0**e),
           ratio=st.one_of(st.floats(-300.0, -1e-3).map(lambda e: 10.0**e),
                           st.floats(1.0, 52.0).map(lambda e: 1.0 - 2.0**-e),
                           st.integers(1, 9).map(lambda k: 1.0 - k * 2.0**-53)),
           drop=st.floats(-10.0, 620.0))
    @settings(max_examples=300, deadline=None, derandomize=True)
    def test_first_index_matches_reference_search(self, offset, ratio, drop):
        # gap = offset / 10**drop, down into the subnormal floats
        gap = 10.0 ** min(max(math.log10(offset) - drop, -323.0), 308.0)
        s = seq(1.0, "dec", offset=offset, ratio=ratio)
        try:
            j = s.first_index_below(gap)
        except CapacityError as exc:
            assert str(exc).endswith(" only where ratio**j is not a normal float")
            return
        assert s.step(j) < gap and (j == 1 or not s.step(j - 1) < gap)
        # The reference walks one j per step: where steps near gap are
        # subnormal, or the ratio lies within 1e-15 of 1, one step value
        # holds over up to ~1e8 consecutive j and the walk crawls.
        crawls = gap < sys.float_info.min or ratio > 1.0 - 1e-15
        if 0.0 < gap / offset < math.inf and not crawls:  # the reference's domain
            assert j == reference_first_index(s, gap)

    def test_first_index_needs_a_positive_gap(self):
        with pytest.raises(CapacityError, match="^sequence cannot reach the requested side$"):
            seq(1.0, "dec").first_index_below(0.0)

    def test_enumerate_refuses_merged_terms(self):
        d = descriptor(sequences=[seq(1, "dec"), seq(2, "inc")])
        with pytest.raises(CapacityError):
            TruncatedQuadraticSpace.from_descriptor(d, 64)


class TestRoundTrip:
    def test_parse_serialize_identity(self):
        rng = np.random.default_rng(23)
        for _ in range(50):
            d = random_descriptor(rng)
            if d.is_empty:
                continue
            assert parse_descriptor(serialize_descriptor(d)) == d

    def test_serialized_multiplicity_token(self):
        doc = serialize_descriptor(descriptor(atoms=[atom(1, INFINITE), atom(2, 3)]))
        assert doc["atoms"][0]["multiplicity"] == "inf"
        assert doc["atoms"][1]["multiplicity"] == 3

    def test_serialize_parts(self):
        doc = serialize_descriptor(descriptor(continuous=[cantor(1, 2, mass=0.5)]))
        assert doc["continuous"][0] == {"kind": "cantor", "support": [1.0, 2.0], "mass": 0.5}
