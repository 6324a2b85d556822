import json
import math
import re
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
    RangeError,
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


#: One valid document per component kind.
SCHEMA_DOCS = {
    "atoms": {"atoms": [{"value": 1.0, "multiplicity": "inf"}]},
    "sequence": {"sequences": [{"limit": 1.0, "direction": "dec", "offset": 1.0, "ratio": 0.5,
                                "multiplicity": 1}]},
    "density": {"continuous": [{"kind": "density", "support": [1.0, 2.0], "coeffs": [1.0]}]},
    "cantor": {"continuous": [{"kind": "cantor", "support": [1.0, 2.0], "mass": 1.0}]},
}


def _paths(node, path=()):
    """The path of every value inside a JSON document, as keys and indices."""
    items = node.items() if isinstance(node, dict) else enumerate(node)
    for key, value in items:
        yield (*path, key)
        if isinstance(value, (dict, list)):
            yield from _paths(value, (*path, key))


def _path_name(path):
    """A path as error lines name it, such as continuous[0].support[1]."""
    return "".join(f"[{k}]" if isinstance(k, int) else f".{k}" for k in path).lstrip(".")


def _put(doc, path, value):
    """A deep copy of doc with value at path."""
    doc = json.loads(json.dumps(doc))
    node = doc
    for key in path[:-1]:
        node = node[key]
    node[path[-1]] = value
    return doc


#: (SCHEMA_DOCS key, path, a value of a wrong JSON type there, the error line): one
#: row per field and per entry of each component kind, and one per kind for
#: an unknown field.
WRONG_TYPE = [
    ("atoms", ("atoms", 0), "x", "atoms[0]: expected an object, got str"),
    ("atoms", ("atoms", 0, "extra"), 0,
     "atoms[0]: expected fields ['multiplicity', 'value'], "
     "got ['extra', 'multiplicity', 'value']"),
    ("atoms", ("atoms", 0, "value"), "1", "atoms[0].value: expected a number, got '1'"),
    ("atoms", ("atoms", 0, "multiplicity"), 1.0,
     "atoms[0].multiplicity: expected an integer, got 1.0"),
    ("sequence", ("sequences", 0), [], "sequences[0]: expected an object, got list"),
    ("sequence", ("sequences", 0, "extra"), 0,
     "sequences[0]: expected fields ['direction', 'limit', 'multiplicity', 'offset', "
     "'ratio'], got ['direction', 'extra', 'limit', 'multiplicity', 'offset', 'ratio']"),
    ("sequence", ("sequences", 0, "limit"), None,
     "sequences[0].limit: expected a number, got None"),
    ("sequence", ("sequences", 0, "direction"), 1,
     "sequences[0].direction: expected 'inc' or 'dec'"),
    ("sequence", ("sequences", 0, "offset"), True,
     "sequences[0].offset: expected a number, got True"),
    ("sequence", ("sequences", 0, "ratio"), [], "sequences[0].ratio: expected a number, got []"),
    ("sequence", ("sequences", 0, "multiplicity"), "inf",
     "sequences[0].multiplicity: expected an integer, got 'inf'"),
    ("density", ("continuous", 0), 5, "continuous[0].kind: expected 'density' or 'cantor'"),
    ("density", ("continuous", 0, "mass"), 1.0,
     "continuous[0]: expected fields ['coeffs', 'kind', 'support'], "
     "got ['coeffs', 'kind', 'mass', 'support']"),
    ("density", ("continuous", 0, "kind"), 0,
     "continuous[0].kind: expected 'density' or 'cantor'"),
    ("density", ("continuous", 0, "support"), "1", "continuous[0].support: expected [a, b]"),
    ("density", ("continuous", 0, "support", 0), "1",
     "continuous[0].support[0]: expected a number, got '1'"),
    ("density", ("continuous", 0, "coeffs"), {}, "continuous[0].coeffs: expected a nonempty list"),
    ("density", ("continuous", 0, "coeffs", 0), None,
     "continuous[0].coeffs[0]: expected a number, got None"),
    ("cantor", ("continuous", 0), None, "continuous[0].kind: expected 'density' or 'cantor'"),
    ("cantor", ("continuous", 0, "coeffs"), [1.0],
     "continuous[0]: expected fields ['kind', 'mass', 'support'], "
     "got ['coeffs', 'kind', 'mass', 'support']"),
    ("cantor", ("continuous", 0, "kind"), None,
     "continuous[0].kind: expected 'density' or 'cantor'"),
    ("cantor", ("continuous", 0, "support"), 2.0, "continuous[0].support: expected [a, b]"),
    ("cantor", ("continuous", 0, "support", 1), [2],
     "continuous[0].support[1]: expected a number, got [2]"),
    ("cantor", ("continuous", 0, "mass"), "1", "continuous[0].mass: expected a number, got '1'"),
]


class TestSchema:
    """Every malformed document ends in one of the package's errors, and a
    value of a wrong JSON type in one field names that field."""

    @pytest.mark.parametrize("name, path, value, line", WRONG_TYPE,
                             ids=[f"{name}-{_path_name(path)}" for name, path, _, _ in WRONG_TYPE])
    def test_wrong_json_type_names_the_field(self, name, path, value, line):
        with pytest.raises(SchemaError) as info:
            parse_descriptor(_put(SCHEMA_DOCS[name], path, value))
        assert str(info.value) == line

    @pytest.mark.parametrize("doc, line", [
        ({"atoms": None}, "atoms: expected a list, got NoneType"),
        ({"sequences": 5}, "sequences: expected a list, got int"),
        ({"continuous": 3.5}, "continuous: expected a list, got float"),
        ({"atoms": {"value": 1, "multiplicity": 1}}, "atoms: expected a list, got dict"),
    ], ids=["atoms_null", "sequences_int", "continuous_float", "atoms_object"])
    def test_component_that_is_not_a_list(self, doc, line):
        with pytest.raises(SchemaError) as info:
            parse_descriptor(doc)
        assert str(info.value) == line

    @pytest.mark.parametrize("name", SCHEMA_DOCS)
    def test_any_value_at_any_path_ends_in_a_package_error(self, name):
        doc = SCHEMA_DOCS[name]
        for path in _paths(doc):
            where = _path_name(path)
            for value in [None, True, 0, -1, 10**30, 1.5, 1e308, "", "inf", [], [1, 2], {}]:
                try:
                    parse_descriptor(_put(doc, path, value))
                except SchemaError as exc:  # names the path or a path inside it
                    assert re.match(rf"{re.escape(where)}[:.\[]", str(exc)), (where, value, exc)
                except (DomainError, RangeError, PreconditionError, CapacityError):
                    pass


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

    @pytest.mark.parametrize("m", WHOLE, ids=repr)
    def test_whole_multiplicities_survive_json(self, m):
        d = descriptor(atoms=[atom(1.0, m)], sequences=[seq(1.0, "dec", mult=m)])
        assert parse_descriptor(json.loads(json.dumps(serialize_descriptor(d)))) == d

    def test_float32_values_survive_json(self):
        f = np.float32
        d = descriptor(atoms=[atom(f(0.1), 2)], sequences=[seq(f(3.3), "inc", f(0.7), f(0.2))],
                       continuous=[density(f(4.1), f(5.3), (f(0.3), f(1.7))),
                                   cantor(f(6.1), f(7.9), f(0.9))])
        assert parse_descriptor(json.loads(json.dumps(serialize_descriptor(d)))) == d
