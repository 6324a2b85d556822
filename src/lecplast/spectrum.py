"""Finite descriptors for spectra of bounded positive self-adjoint operators.

A descriptor lists point spectrum data (atoms with multiplicities, geometric
eigenvalue sequences) and continuous parts (polynomial densities or rescaled
Cantor measures).  All values must stay inside a positive interval, which
keeps the induced quadratic form bounded above and below away from zero.
"""

from __future__ import annotations

import math
import numbers
import sys
from dataclasses import dataclass, field
from enum import Enum

import numpy as np
from numpy.polynomial import Polynomial
from numpy.polynomial import polynomial as P

from .errors import CapacityError, DomainError, RangeError, SchemaError

#: Multiplicity token for an infinite-dimensional eigenspace.
INFINITE = math.inf


def is_multiplicity(m) -> bool:
    """Whether m is a whole number >= 1: an integer of any size, or a real such as 2.0."""
    return isinstance(m, numbers.Real) and m >= 1 and (
        isinstance(m, numbers.Integral) or float(m).is_integer())


class Direction(str, Enum):
    INCREASING = "inc"
    DECREASING = "dec"


class PartKind(str, Enum):
    DENSITY = "density"
    CANTOR = "cantor"


@dataclass(frozen=True, order=True)
class EigenAtom:
    """Eigenvalue with multiplicity; ``INFINITE`` marks an infinite eigenspace."""

    value: float
    multiplicity: float = 1

    def __post_init__(self):
        if not self.value > 0:
            raise DomainError(f"atom value must be positive, got {self.value}")
        if self.multiplicity != INFINITE and not is_multiplicity(self.multiplicity):
            raise DomainError(f"multiplicity must be a positive integer or INFINITE, "
                              f"got {self.multiplicity}")

    @property
    def is_infinite(self) -> bool:
        return self.multiplicity == INFINITE


@dataclass(frozen=True, order=True)
class EigenSequence:
    """Strictly monotone eigenvalue sequence term(j) approaching ``limit``.

    term(j) = limit - offset*ratio**j for INCREASING,
              limit + offset*ratio**j for DECREASING,  j = 1, 2, ...
    The limit itself is never a term.
    """

    limit: float
    direction: Direction
    offset: float
    ratio: float
    multiplicity: int = 1

    def __post_init__(self):
        object.__setattr__(self, "direction", Direction(self.direction))
        if not self.limit > 0:
            raise DomainError(f"sequence limit must be positive, got {self.limit}")
        if not self.offset > 0:
            raise DomainError(f"sequence offset must be positive, got {self.offset}")
        if not 0 < self.ratio < 1:
            raise DomainError(f"sequence ratio must lie in (0, 1), got {self.ratio}")
        if not is_multiplicity(self.multiplicity):
            raise DomainError(f"per-term multiplicity must be a positive integer, "
                              f"got {self.multiplicity}")
        if self.direction is Direction.INCREASING and not self.term(1) > 0:
            raise DomainError(
                "increasing sequence has a nonpositive first term "
                f"(limit {self.limit}, offset {self.offset}, ratio {self.ratio})"
            )

    def step(self, j):
        """offset * ratio**j, the distance of term j from the limit; j may be an array."""
        return self.offset * self.ratio**j

    def _term_at(self, step):
        return self.limit - step if self.direction is Direction.INCREASING else self.limit + step

    def term(self, j: int) -> float:
        if j < 1:
            raise RangeError(f"sequence terms are indexed from 1, got {j}")
        return self._term_at(self.step(j))

    def terms(self, count: int, first: int = 1) -> np.ndarray:
        """Terms first..first+count-1; CapacityError if one is past the float
        range, or rounds to the limit or to its neighbour, as it is then not a
        distinct eigenvalue."""
        with np.errstate(over="ignore"):  # a term past the float range is read from its inf
            # The end terms, computed as the array computes them, refuse a run
            # that leaves the float range or reaches the limit before a
            # count-sized array is made; the check below then raises on them.
            values = self._term_at(self.step(np.array([first, first + count - 1])))
            if np.isfinite(values[0]) and values[1] != self.limit:
                values = self._term_at(self.step(np.arange(first, first + count)))
        if (not np.isfinite(values).all() or (values == self.limit).any()
                or (np.diff(values) == 0).any()):
            raise CapacityError(
                f"terms {first}..{first + count - 1} of the sequence with limit "
                f"{self.limit} and ratio {self.ratio} are not distinct finite floats"
            )
        return values

    def first_index_below(self, gap: float) -> int:
        """Smallest j >= 1 with step(j) < gap, from (log gap - log offset) / log ratio;
        CapacityError where ratio**j there is not a normal float, as the step has
        then lost digits (or is 0, so that every j compares below gap).

        step(j) < gap holds from one j on, so a gallop away from the estimate
        brackets that j and a bisection finds it, in O(log) steps even where
        subnormal steps keep one value over many j."""
        if not gap > 0:
            raise CapacityError("sequence cannot reach the requested side")
        logs = math.log(gap) - math.log(self.offset)
        estimate = max(1, math.floor(logs / math.log(self.ratio)))
        if not self.ratio**estimate >= sys.float_info.min:
            raise CapacityError(f"the sequence with limit {self.limit} comes within {gap:g} of it "
                                "only where ratio**j is not a normal float")
        lo, hi, stride = max(0, estimate - 3), max(1, estimate - 2), 1
        while not self.step(hi) < gap:  # from here on, step(hi) < gap
            lo, hi, stride = hi, hi + stride, 2 * stride
        while lo > 0 and self.step(lo) < gap:  # from here on, lo = 0 or step(lo) >= gap
            lo, hi, stride = max(0, lo - stride), lo, 2 * stride
        while hi - lo > 1:
            mid = (lo + hi) // 2
            lo, hi = (lo, mid) if self.step(mid) < gap else (mid, hi)
        return hi


def _nonnegative_on(coeffs: np.ndarray, a: float, b: float) -> bool:
    """Whether p = sum_i coeffs[i] t^i is >= 0 on [a, b], from its exact minimum.

    The minimum lies at a, at b or at a real root of p' inside (a, b); the
    real parts of all roots are read, so a double root that root finding
    splits into a complex pair is still seen.  A value may fall below 0 by
    no more than the rounding of Horner's rule, gamma_2n sum_i |c_i| t^i
    for degree n and t >= 0 (Higham, Accuracy and Stability of Numerical
    Algorithms, section 5.1), so a polynomial whose exact minimum is 0 is
    kept; where that bound overflows, the value itself must be >= 0.
    """
    with np.errstate(all="ignore"):  # an overflow is read from the inf or NaN it leaves
        slope = coeffs[1:] * np.arange(1, coeffs.size)  # p'
        try:
            roots = P.polyroots(slope).real if slope.size else slope
        except np.linalg.LinAlgError:  # coefficient ratios past the float range
            raise DomainError("density coefficients differ too much in scale to locate "
                              "its minimum") from None
        t = np.concatenate([[a, b], roots[(a < roots) & (roots < b)]])
        nu = (coeffs.size - 1) * np.finfo(float).eps  # 2n unit roundoffs
        value, scale = P.polyval(t, np.stack([coeffs, np.abs(coeffs)], axis=1))
        rounding = nu / (1 - nu) * scale
    return bool((value >= -np.where(np.isfinite(rounding), rounding, 0.0)).all())


@dataclass(frozen=True)
class ContinuousPart:
    """Atomless measure component on [a, b].

    DENSITY carries ascending polynomial coefficients (the density, required
    nonnegative on the support with positive total mass).  CANTOR carries the
    total mass of the standard Cantor measure mapped affinely onto [a, b].
    The type allows a >= 0 so it can double as plain measure data; descriptors
    additionally require a > 0 (see SpectralDescriptor).

    A density also gets ``antiderivative``, its cdf as a polynomial in
    s = t - a that vanishes at s = 0.  Evaluating in s rather than as
    F(t) - F(a) keeps the cdf accurate near a zero of the density at a.
    """

    kind: PartKind
    support: tuple[float, float]
    coeffs: tuple[float, ...] | None = None
    mass: float | None = None
    antiderivative: Polynomial | None = field(
        default=None, init=False, repr=False, compare=False
    )

    def __post_init__(self):
        object.__setattr__(self, "kind", PartKind(self.kind))
        object.__setattr__(self, "support", (float(self.support[0]), float(self.support[1])))
        a, b = self.support
        if not (a >= 0 and b > a):
            raise DomainError(f"support must satisfy 0 <= a < b, got [{a}, {b}]")
        if self.kind is PartKind.DENSITY:
            if self.mass is not None:
                raise DomainError("density parts must not declare a mass")
            if not self.coeffs:
                raise DomainError("density parts need a polynomial coefficient list")
            object.__setattr__(self, "coeffs", tuple(float(c) for c in self.coeffs))
            with np.errstate(all="ignore"):  # an overflow is read from the inf or NaN it leaves
                shifted = Polynomial(self.coeffs)(Polynomial([a, 1.0]))
                object.__setattr__(self, "antiderivative", shifted.integ())
                mass = self.total_mass
            if not _nonnegative_on(np.array(self.coeffs), a, b):
                raise DomainError("density is negative on its support")
            if not (np.isfinite(self.antiderivative.coef).all() and np.isfinite(mass)):
                raise DomainError("density overflows in floating point on its support")
            if not mass > 0:
                raise DomainError("density integrates to zero mass")
        else:
            if self.coeffs is not None:
                raise DomainError("cantor parts must not carry coefficients")
            if self.mass is None or not self.mass > 0:
                raise DomainError(f"cantor parts need a positive mass, got {self.mass}")
            object.__setattr__(self, "mass", float(self.mass))

    @property
    def total_mass(self) -> float:
        if self.kind is PartKind.CANTOR:
            return self.mass
        a, b = self.support
        return float(self.antiderivative(b - a))


@dataclass(frozen=True)
class SpectralDescriptor:
    """Complete finite description of a spectrum inside (0, inf)."""

    atoms: tuple[EigenAtom, ...] = ()
    sequences: tuple[EigenSequence, ...] = ()
    continuous: tuple[ContinuousPart, ...] = ()

    def __post_init__(self):
        object.__setattr__(self, "atoms", tuple(self.atoms))
        object.__setattr__(self, "sequences", tuple(self.sequences))
        object.__setattr__(self, "continuous", tuple(self.continuous))
        for part in self.continuous:
            if not part.support[0] > 0:
                raise DomainError(
                    f"spectral continuous parts need support bounded away from 0, "
                    f"got [{part.support[0]}, {part.support[1]}]"
                )

    @property
    def is_empty(self) -> bool:
        return not (self.atoms or self.sequences or self.continuous)

    @property
    def has_point_spectrum(self) -> bool:
        return bool(self.atoms or self.sequences)


def canonicalize(d: SpectralDescriptor) -> SpectralDescriptor:
    """Merge duplicate atoms, then sort every component list.

    Atom multiplicities at equal values add (a DomainError where the sum is
    too long to print); INFINITE absorbs.  Collisions of
    an atom with a sequence term are left in place: the truncated space merges
    them by value (the overlay), terms are never deleted.  Idempotent.
    """
    merged: dict[float, float] = {}
    for atom in d.atoms:
        prior = merged.get(atom.value, 0)
        merged[atom.value] = total = (
            INFINITE if INFINITE in (prior, atom.multiplicity) else prior + atom.multiplicity
        )
        if prior:  # a report prints the sum; str() refuses one past the digit limit
            try:
                str(total)
            except ValueError:
                raise DomainError(f"the atoms at {atom.value} add up to a multiplicity with "
                                  "more digits than a report can print") from None
    atoms = tuple(EigenAtom(v, m) for v, m in sorted(merged.items()))
    return SpectralDescriptor(
        atoms=atoms,
        sequences=tuple(sorted(d.sequences)),
        continuous=tuple(sorted(d.continuous, key=_part_key)),
    )


def _part_key(part: ContinuousPart):
    return (part.support, part.kind.value, part.coeffs or (), part.mass or 0.0)


# ---------------------------------------------------------------------------
# JSON schema (owned by the cli module; field names are part of the contract)
# ---------------------------------------------------------------------------

def _require_number(obj, where: str) -> float:
    """A finite number as a float; JSON also parses to inf, nan and huge ints."""
    if isinstance(obj, bool) or not isinstance(obj, (int, float)):
        raise SchemaError(f"{where}: expected a number, got {obj!r}")
    if not abs(obj) <= sys.float_info.max:
        raise SchemaError(f"{where}: expected a finite number, got {obj!r}")
    return float(obj)


def _require_int(obj, where: str) -> int:
    if isinstance(obj, bool) or not isinstance(obj, int):
        raise SchemaError(f"{where}: expected an integer, got {obj!r}")
    return obj


def _require_support(obj, where: str) -> tuple[float, float]:
    if not isinstance(obj, (list, tuple)) or len(obj) != 2:
        raise SchemaError(f"{where}: expected [a, b]")
    return tuple(_require_number(x, f"{where}[{j}]") for j, x in enumerate(obj))


def _require_coeffs(obj, where: str) -> tuple[float, ...]:
    if not isinstance(obj, list) or not obj:
        raise SchemaError(f"{where}: expected a nonempty list")
    return tuple(_require_number(x, f"{where}[{j}]") for j, x in enumerate(obj))


def _member_field(enum):
    """Reader and writer of a string that names one of enum's values."""
    values = tuple(member.value for member in enum)
    def read(obj, where: str):
        if obj not in values:
            raise SchemaError(f"{where}: expected {' or '.join(map(repr, values))}")
        return enum(obj)
    return read, lambda member: member.value


_NUMBER = (_require_number, float)
_KIND = _member_field(PartKind)
_SUPPORT = (_require_support, list)  # ContinuousPart stores support and coeffs as floats

#: The descriptor JSON: each component list maps its entries' kind ("kind", or
#: None) to the type an entry builds and its fields in reading order, each a
#: reader from JSON (whose SchemaError names the path) and a writer to plain JSON.
_SCHEMA = {
    "atoms": {None: (EigenAtom, {
        "value": _NUMBER,
        "multiplicity": (lambda obj, where: INFINITE if obj == "inf" else _require_int(obj, where),
                         lambda m: "inf" if m == INFINITE else int(m)),
    })},
    "sequences": {None: (EigenSequence, {
        "limit": _NUMBER,
        "direction": _member_field(Direction),
        "offset": _NUMBER,
        "ratio": _NUMBER,
        "multiplicity": (_require_int, int),
    })},
    "continuous": {
        PartKind.DENSITY: (ContinuousPart, {"kind": _KIND, "support": _SUPPORT,
                                            "coeffs": (_require_coeffs, list)}),
        PartKind.CANTOR: (ContinuousPart, {"kind": _KIND, "support": _SUPPORT, "mass": _NUMBER}),
    },
}


def parse_descriptor(document: dict) -> SpectralDescriptor:
    """Validate a descriptor document and return its canonical form."""
    if not isinstance(document, dict):
        raise SchemaError("descriptor document must be a JSON object")
    unknown = document.keys() - _SCHEMA.keys()
    if unknown:
        raise SchemaError(f"unknown top-level fields: {sorted(unknown)}")
    components = {}
    for key, kinds in _SCHEMA.items():
        entries = document.get(key, [])
        if not isinstance(entries, list):
            raise SchemaError(f"{key}: expected a list, got {type(entries).__name__}")
        components[key] = built = []
        for i, entry in enumerate(entries):
            where, kind = f"{key}[{i}]", None
            if None not in kinds:  # the entry's "kind" picks its fields
                kind = _KIND[0](entry.get("kind") if isinstance(entry, dict) else None,
                                f"{where}.kind")
            elif not isinstance(entry, dict):
                raise SchemaError(f"{where}: expected an object, got {type(entry).__name__}")
            build, fields = kinds[kind]
            if entry.keys() != fields.keys():
                raise SchemaError(f"{where}: expected fields {sorted(fields)}, got {sorted(entry)}")
            built.append(build(**{name: read(entry[name], f"{where}.{name}")
                                  for name, (read, _) in fields.items()}))
    descriptor = SpectralDescriptor(**components)
    if descriptor.is_empty:
        raise DomainError("descriptor is empty")
    return canonicalize(descriptor)


def serialize_descriptor(d: SpectralDescriptor) -> dict:
    """Inverse of parse_descriptor on canonical descriptors, in plain JSON types."""
    doc: dict = {}
    for key, kinds in _SCHEMA.items():
        for entry in getattr(d, key):
            _, fields = kinds[getattr(entry, "kind", None)]
            doc.setdefault(key, []).append(
                {name: write(getattr(entry, name)) for name, (_, write) in fields.items()})
    return doc
