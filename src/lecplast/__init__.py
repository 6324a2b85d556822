"""Decide LEC-plasticity of spectral ellipsoids and verify witness operators."""

__version__ = "0.1.0"

from .errors import (
    CapacityError,
    DomainError,
    PreconditionError,
    RangeError,
    SchemaError,
)
from .measures import (
    MeasureSpec,
    RestrictedMeasure,
    TransportMap,
    cantor_function,
)
from .plasticity import Rule, Verdict, ViolationCertificate, classify, find_tau, violating_subset
from .spectrum import (
    INFINITE,
    ContinuousPart,
    Direction,
    EigenAtom,
    EigenSequence,
    PartKind,
    SpectralDescriptor,
    canonicalize,
    parse_descriptor,
    serialize_descriptor,
)
from .verify import (
    TruncatedQuadraticSpace,
    VerificationReport,
    check_extremal_invariance,
    check_finite_dim_plasticity,
    check_form_preservation,
    check_min_attained,
    check_nonexpansive,
    check_rayleigh_bounds,
    check_strict_contraction,
)
from .witness import (
    ShiftWitness,
    TransportWitness,
    build_partition,
    build_shift_witness,
    build_transport_witness,
)
