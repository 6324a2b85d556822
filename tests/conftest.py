import math

import numpy as np
import pytest

from lecplast import (
    INFINITE,
    ContinuousPart,
    Direction,
    EigenAtom,
    EigenSequence,
    MeasureSpec,
    RangeError,
    SpectralDescriptor,
    canonicalize,
)
from lecplast.measures import quadrature_nodes


def atom(value, mult=1):
    return EigenAtom(value, mult)


def seq(limit, direction, offset=1.0, ratio=0.5, mult=1):
    return EigenSequence(limit, Direction(direction), offset, ratio, mult)


def density(a, b, coeffs=(1.0,)):
    return ContinuousPart("density", (a, b), coeffs=tuple(coeffs))


def cantor(a, b, mass=1.0):
    return ContinuousPart("cantor", (a, b), mass=mass)


def descriptor(atoms=(), sequences=(), continuous=()):
    return canonicalize(SpectralDescriptor(tuple(atoms), tuple(sequences), tuple(continuous)))


def random_descriptor(rng, allow_continuous=True):
    """Small random canonical descriptor for property tests."""
    atoms = []
    for _ in range(rng.integers(0, 3)):
        value = float(rng.integers(1, 9)) / 2.0
        mult = INFINITE if rng.random() < 0.4 else int(rng.integers(1, 4))
        atoms.append(EigenAtom(value, mult))
    sequences = []
    for _ in range(rng.integers(0, 3)):
        direction = Direction.INCREASING if rng.random() < 0.5 else Direction.DECREASING
        limit = float(rng.integers(2, 9)) / 2.0
        offset = min(1.0, limit / 2.0)
        sequences.append(EigenSequence(limit, direction, offset, 0.5, int(rng.integers(1, 3))))
    continuous = []
    if allow_continuous and rng.random() < 0.25:
        continuous.append(density(1.0, 2.0))
    d = SpectralDescriptor(tuple(atoms), tuple(sequences), tuple(continuous))
    return canonicalize(d)


@pytest.fixture
def lebesgue_12():
    return MeasureSpec(density(1.0, 2.0))


@pytest.fixture
def cantor_01():
    return MeasureSpec(cantor(0.0, 1.0))


#: Absolute x-tolerance of ``bisect_quantile``.
BISECT_TOL = 2.0**-48


def bisect_quantile(m, u):
    """Reference sup{x : m.cdf(x) <= u} by bisection on the support.

    Brackets each level to BISECT_TOL in x through ``m.cdf`` alone, so it
    lands on the same Cantor grid convention as the closed-form inverse.
    """
    levels = np.atleast_1d(np.asarray(u, dtype=float))
    lo, hi = m.support
    lo_b = np.full_like(levels, lo)
    hi_b = np.full_like(levels, hi)
    iters = max(1, math.ceil(math.log2(max((hi - lo) / BISECT_TOL, 2.0)))) + 1
    for _ in range(iters):
        mid = 0.5 * (lo_b + hi_b)
        below = m.cdf(mid) <= levels
        lo_b = np.where(below, mid, lo_b)
        hi_b = np.where(below, hi_b, mid)
    # sup{x : F(x) <= M} is unbounded; by convention the support top.
    lo_b[levels >= m.total_mass] = hi
    return lo_b


def pushforward_check(src, dst, mapping, intervals) -> float:
    """Max over intervals [s, t] of |dst([s,t]) - (M_dst/M_src) src([G(s), G(t)])|."""
    intervals = np.asarray(intervals, dtype=float)
    if intervals.ndim != 2 or intervals.shape[1] != 2:
        raise RangeError("intervals must be an (n, 2) array of [s, t] pairs")
    ratio = dst.total_mass / src.total_mass
    s, t = intervals[:, 0], intervals[:, 1]
    dst_mass = dst.cdf(t) - dst.cdf(s)
    src_mass = src.cdf(mapping(t)) - src.cdf(mapping(s))
    return float(np.abs(dst_mass - ratio * src_mass).max())


def integrate(m, integrand, nodes: int = 1024) -> float:
    """Stratified inverse-transform rule for integrals against the measure.

    Deterministic for fixed node count; exact for constant integrands.
    """
    x, du = quadrature_nodes(m, None, nodes)
    return float(np.sum(np.asarray(integrand(x), dtype=float)) * du)


def cantor_oracle(x, depth=22):
    """Independent Cantor-function evaluation via the self-similar recursion.

    Distinct from the library's iterative digit walk; error <= 2**-depth.
    """
    x = np.asarray(x, dtype=float)
    if x.size == 0:
        return x.copy()
    if depth == 0:
        return np.clip(x, 0.0, 1.0)
    out = np.empty_like(x)
    left = x < 1.0 / 3.0
    right = x > 2.0 / 3.0
    mid = ~(left | right)
    out[left] = 0.5 * cantor_oracle(3.0 * x[left], depth - 1)
    out[mid] = 0.5
    out[right] = 0.5 + 0.5 * cantor_oracle(3.0 * x[right] - 2.0, depth - 1)
    return out
