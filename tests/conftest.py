import math

import numpy as np
import pytest
from hypothesis import strategies as st
from numpy.polynomial import Polynomial

from lecplast import (
    INFINITE,
    ContinuousPart,
    Direction,
    DomainError,
    EigenAtom,
    EigenSequence,
    MeasureSpec,
    RangeError,
    RestrictedMeasure,
    SpectralDescriptor,
    TransportMap,
    TruncatedQuadraticSpace,
    canonicalize,
)
from lecplast.measures import _GUESS_GRID, _NEWTON_CAP, quadrature_nodes


def atom(value, mult=1):
    return EigenAtom(value, mult)


def seq(limit, direction, offset=1.0, ratio=0.5, mult=1):
    return EigenSequence(limit, Direction(direction), offset, ratio, mult)


def density(a, b, coeffs=(1.0,)):
    return ContinuousPart("density", (a, b), coeffs=tuple(coeffs))


def cantor(a, b, mass=1.0):
    return ContinuousPart("cantor", (a, b), mass=mass)


@st.composite
def drawn_support(draw):
    """[a, a(1 + w)] with a in 10^[-300, 300] and w in 10^[-15, 3]."""
    a = 10.0 ** draw(st.floats(-300.0, 300.0))
    return a, a * (1.0 + 10.0 ** draw(st.floats(-15.0, 3.0)))


@st.composite
def drawn_density(draw):
    """A density part: on a drawn support [a, b], the polynomial
    sum_i r_i (t/b)**i of degree 0-3 (a term whose coefficient overflows is
    left out); or, on [a, 2a] at a power of two a, 2(t - a) or (t - a)**2
    scaled by a power of two, which vanish at the support start."""
    if draw(st.booleans()):
        a, b = draw(drawn_support())
        r = draw(st.lists(st.floats(0.0, 2.0), max_size=3))
        with np.errstate(over="ignore", invalid="ignore"):
            terms = [ri * np.float64(1.0 / b) ** i for i, ri in enumerate(r, 1)]
        coeffs = [draw(st.floats(0.25, 2.0))] + [float(c) if np.isfinite(c) else 0.0 for c in terms]
    else:
        e = draw(st.integers(-500, 500))
        a = b = 2.0**e
        b *= 2.0
        coeffs = (-2.0, 2.0**(1 - e)) if draw(st.booleans()) else (1.0, -2.0**(1 - e), 2.0**(-2 * e))
    return density(a, b, coeffs)


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


def whole(m):
    """The measure ``m`` on its whole support, as a one-row stack."""
    a, b = m.support
    return RestrictedMeasure(m, np.array([a]), np.array([b]))


def row_map(src, dst):
    """The transport map from ``dst`` onto ``src`` between one-row stacks
    over their supports, as a function of a 1-D argument."""
    g = TransportMap(whole(src), whole(dst))
    return lambda t: g(np.asarray(t, dtype=float)[None])[0]


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
    x = quadrature_nodes(whole(m), nodes=nodes)[0]
    return float(np.sum(np.asarray(integrand(x), dtype=float)) * (m.total_mass / nodes))


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


def reference_first_index(seq, threshold):
    """Smallest j >= 1 with offset * ratio**j < threshold: the search as it
    stood in the shift witness before it moved onto the sequence, kept
    verbatim as an oracle.  Its estimate divides threshold by offset."""
    estimate = max(1, math.floor(math.log(threshold / seq.offset) / math.log(seq.ratio)))
    j = max(1, estimate - 2)
    while not seq.offset * seq.ratio**j < threshold:
        j += 1
    while j > 1 and seq.offset * seq.ratio ** (j - 1) < threshold:
        j -= 1
    return j


# The point-spectrum truncation as it stood before the truncated space was
# built from the descriptor's components, kept verbatim as an oracle: one
# (value, multiplicity) point per distinct eigenvalue.


def reference_points(d: SpectralDescriptor, per_sequence: int) -> list[tuple[float, int]]:
    """Finite truncation of the point spectrum, sorted ascending.

    Each sequence contributes its first ``per_sequence`` terms; INFINITE atom
    multiplicities are rendered as 2*per_sequence copies, which set only the
    dimension of the truncated space.  Points sharing a value merge by adding
    multiplicities (the atom/term overlay).
    """
    if per_sequence < 1:
        raise DomainError(f"per_sequence must be positive, got {per_sequence}")
    counts: dict[float, int] = {}
    for atom in d.atoms:
        mult = 2 * per_sequence if atom.is_infinite else int(atom.multiplicity)
        counts[atom.value] = counts.get(atom.value, 0) + mult
    for seq in d.sequences:
        for value in seq.terms(per_sequence):
            value = float(value)
            counts[value] = counts.get(value, 0) + seq.multiplicity
    return sorted(counts.items())


def space_of(points):
    """The truncated space of (value, multiplicity) points: their values, and
    the sum of their multiplicities as its dimension."""
    return TruncatedQuadraticSpace([v for v, _ in points], sum(m for _, m in points))


def pairs_of(space):
    """The whole extremal-pair table of a truncated space, as the space stored
    it before its checks formed each block from the values: (min, mu) for
    every larger mu, then (max, mu) for every smaller mu."""
    values = space.values
    n = values.size - 1
    ends = np.concatenate([np.full(n, values[0]), np.full(n, values[-1])])
    others = np.concatenate([values[1:], values[:-1]])
    return np.stack([ends, others], axis=1)


# Reference density quantiles: the solve as it stood before its arrays were
# updated in place, kept verbatim as an oracle.  The library must give the
# same bits on every input (see tests/test_measures.py::TestDensityQuantileBits).


def _density_quantile(part, cdf, u):
    """Safeguarded Newton solve of cdf(x) = u on the support.

    Starts from the inverse of the cdf interpolated on a coarse grid and
    keeps a bracket [lo, hi] with cdf(lo) <= u < cdf(hi).  A Newton step
    that leaves the bracket, or fails to halve the previous move, is
    replaced by a bisection of the bracket.  A level is done after a Newton
    step whose quadratic error term |p'/2p| * step**2 is below one ulp, or
    once its bracket is within four ulps.  Returns the last iterate with its
    cdf values.
    """
    a, b = part.support
    density = Polynomial(part.coeffs)
    slope = density.deriv()
    grid = np.linspace(a, b, _GUESS_GRID)
    x = np.interp(u, cdf(grid), grid)
    values = cdf(x)
    lo = np.full_like(u, a)
    hi = np.full_like(u, b)
    moved = np.full_like(u, b - a)
    done = np.zeros(u.shape, dtype=bool)
    for _ in range(_NEWTON_CAP):
        below = values <= u
        lo = np.where(below, x, lo)
        hi = np.where(below, hi, x)
        p = density(x)
        # An overflowed step**2 makes the error term inf or nan, which
        # counts as not converged.
        with np.errstate(divide="ignore", over="ignore", invalid="ignore"):
            step = np.where(values == u, 0.0, (u - values) / p)
            error = np.where(step == 0.0, 0.0, np.abs(slope(x) / (2.0 * p)) * step**2)
        newton = x + step
        fast = (lo <= newton) & (newton <= hi) & (np.abs(step) <= 0.5 * moved)
        tight = hi - lo <= 4.0 * np.spacing(x)
        nxt = np.select([done, fast, tight], [x, newton, lo], 0.5 * lo + 0.5 * hi)
        done |= (fast & (error <= np.spacing(x))) | tight
        moved = np.abs(nxt - x)
        x = nxt
        values = cdf(x)
        if done.all():
            break
    return x, values


def _step_left(cdf, x, values, u, floor):
    """Walk x left in doubling ulp steps until cdf(x) <= u.

    ``values`` is cdf(x); the walk stops at ``floor``, where cdf is 0.
    """
    step = np.spacing(x)
    over = values > u
    while over.any():
        x[over] = np.maximum(x[over] - step[over], floor)
        step[over] *= 2.0
        over[over] = cdf(x[over]) > u[over]
    return x


def reference_cdf(part, t):
    """The density's cdf through numpy's ``Polynomial``, clamped to the support."""
    a, b = part.support
    return part.antiderivative(np.clip(np.asarray(t, dtype=float), a, b) - a)


def reference_quantile(part, u):
    """``MeasureSpec.quantile`` of a density on levels already in [0, total_mass]."""
    levels = np.array(u, dtype=float)
    x, values = _density_quantile(part, lambda t: reference_cdf(part, t), levels)
    x = _step_left(lambda t: reference_cdf(part, t), x, values, levels, part.support[0])
    x[levels >= part.total_mass] = part.support[1]
    return x


def reference_window_quantile(part, lo, hi, u):
    """``RestrictedMeasure.quantile`` on windows [lo[p], hi[p]] of a density;
    row p of the (C, n) levels ``u`` lies in [0, mass of window p].  The
    base is solved at offset + u, then walked left while the window's cdf
    exceeds u."""
    offset, upper = reference_cdf(part, np.stack([lo, hi]))
    mass, offset = (upper - offset)[:, None], offset[:, None]
    levels = np.clip(u, 0.0, mass)
    cdf = lambda t: reference_cdf(part, t)
    x, values = _density_quantile(part, cdf, np.clip(offset + levels, 0.0, part.total_mass))
    offset = np.broadcast_to(offset, levels.shape)
    step = np.spacing(x)
    over = values - offset > levels
    while over.any():
        x[over] = np.maximum(x[over] - step[over], part.support[0])
        step[over] *= 2.0
        over[over] = cdf(x[over]) - offset[over] > levels[over]
    x = np.clip(x, lo[:, None], hi[:, None])
    np.copyto(x, hi[:, None], where=levels >= mass)
    return x


def level_walk_window_quantile(part, lo, hi, u):
    """``RestrictedMeasure.quantile`` as it stood before the window walk,
    kept verbatim as a second reference: the base quantile at the largest
    level c with fl(c - offset) <= u, found by a walk over the floats."""
    offset, upper = reference_cdf(part, np.stack([lo, hi]))
    mass, offset = (upper - offset)[:, None], offset[:, None]
    levels = np.clip(u, 0.0, mass)
    c = offset + levels
    while (over := c - offset > levels).any():
        c[over] = np.nextafter(c[over], -np.inf)
    while (fits := np.nextafter(c, np.inf) - offset <= levels).any():
        c[fits] = np.nextafter(c[fits], np.inf)
    x = np.clip(reference_quantile(part, np.clip(c, 0.0, part.total_mass)), lo[:, None], hi[:, None])
    np.copyto(x, hi[:, None], where=levels >= mass)
    return x


def reference_transport(part, source, target, t):
    """``TransportMap(source, target)(t)`` between two stacks of windows of a
    density, each stack given as its (lo, hi) arrays."""
    (s_lo, s_hi), (d_lo, d_hi) = source, target
    s_off, s_up = reference_cdf(part, np.stack([s_lo, s_hi]))
    d_off, d_up = reference_cdf(part, np.stack([d_lo, d_hi]))
    s_mass, d_mass = (s_up - s_off)[:, None], (d_up - d_off)[:, None]
    cdf = reference_cdf(part, np.clip(t, d_lo[:, None], d_hi[:, None])) - d_off[:, None]
    level = (s_mass / d_mass) * cdf
    return reference_window_quantile(part, s_lo, s_hi, np.clip(level, 0.0, s_mass))
