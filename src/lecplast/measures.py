"""Finite atomless Borel measures on positive intervals.

Provides distribution functions F(t) = mu([0, t]), their generalized
inverses in the sup convention F^{-1}(u) = sup{x : F(x) <= u}, the monotone
transport map G = F_src^{-1} o (M_src/M_dst) F_dst between two measures,
an interval-based pushforward residual, and a deterministic inverse-transform
quadrature rule.

Polynomial densities are integrated in closed form, in s = t - a from the
support start a (``ContinuousPart.antiderivative``).  Cantor parts evaluate the classic ternary-digit algorithm
for the Cantor function, affinely rescaled to their support and mass.

A measure of one part, and every window of one, is inverted directly: a
Cantor level maps its binary digits to ternary digits 0/2, and a density
level runs a safeguarded Newton iteration on the closed-form cdf.  Only a
measure of several parts falls back to bisection.  Every quantile keeps the
floating-point invariant cdf(quantile(u)) <= u that bisection has, so a level
on a cdf plateau selects the same plateau end either way.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field
from typing import Callable, Sequence

import numpy as np
from numpy.polynomial import Polynomial

from .errors import DomainError, RangeError
from .spectrum import ContinuousPart, PartKind

#: Ternary digits used when evaluating the Cantor function.
DEFAULT_CANTOR_DEPTH = 40

#: Absolute x-tolerance of the quantile bisection (multi-part measures only).
QUANTILE_TOL = 2.0**-48

#: Iteration cap of the density Newton solve.  A cdf whose rounding noise
#: exceeds a few ulps of x (near a zero of the density) can stop it early;
#: the final ulp walk keeps cdf(quantile(u)) <= u either way.
_NEWTON_CAP = 100

#: Grid points of the interpolated cdf that starts the density Newton solve.
_GUESS_GRID = 65


def cantor_function(x, depth: int = DEFAULT_CANTOR_DEPTH) -> np.ndarray:
    """Standard Cantor function on [0, 1], clamped outside.

    Walks the ternary expansion: digit 2 contributes a binary 1, the first
    digit 1 ends on a plateau value.  After ``depth`` digits the midpoint of
    the remaining bracket is returned (error <= 2**-(depth+1)).
    """
    x = np.asarray(x, dtype=float)
    scalar = x.ndim == 0
    work = np.atleast_1d(x).copy()
    out = np.zeros_like(work)
    done = work <= 0.0
    top = work >= 1.0
    out[top] = 1.0
    done |= top
    bit = 0.5
    for _ in range(depth):
        if done.all():
            break
        work = np.where(done, work, work * 3.0)
        digit = np.floor(work)
        plateau = ~done & (digit == 1.0)
        out[plateau] += bit
        done |= plateau
        upper = ~done & (digit >= 2.0)
        out[upper] += bit
        work = np.where(upper, work - 2.0, work)
        bit *= 0.5
    out[~done] += bit
    return out[0] if scalar else out


def _part_cdf(part: ContinuousPart, t: np.ndarray, depth: int) -> np.ndarray:
    a, b = part.support
    clamped = np.clip(t, a, b)
    if part.kind is PartKind.DENSITY:
        return part.antiderivative(clamped - a)
    return part.mass * cantor_function((clamped - a) / (b - a), depth)


@dataclass(frozen=True, eq=False)
class MeasureSpec:
    """Finite atomless measure assembled from continuous parts."""

    parts: tuple[ContinuousPart, ...]
    cantor_depth: int = DEFAULT_CANTOR_DEPTH
    total_mass: float = field(init=False)
    support: tuple[float, float] = field(init=False)

    def __post_init__(self):
        object.__setattr__(self, "parts", tuple(self.parts))
        if not self.parts:
            raise DomainError("a measure needs at least one continuous part")
        lo = min(p.support[0] for p in self.parts)
        hi = max(p.support[1] for p in self.parts)
        object.__setattr__(self, "support", (lo, hi))
        object.__setattr__(self, "total_mass", sum(p.total_mass for p in self.parts))

    def cdf(self, t):
        """mu([0, t]); 0 below the support, total_mass above it."""
        t = np.asarray(t, dtype=float)
        out = sum(_part_cdf(part, t, self.cantor_depth) for part in self.parts)
        return float(out) if out.ndim == 0 else out

    def quantile(self, u):
        """sup{x : cdf(x) <= u}, the right endpoint of any cdf plateau.

        One part is inverted in closed form, several parts by bisection;
        either way cdf(quantile(u)) <= u holds exactly in floating point.
        """
        if len(self.parts) > 1:
            return _quantile(self.cdf, self.support, self.total_mass, u)
        levels = _levels(u, self.total_mass)
        part = self.parts[0]
        a, b = part.support
        if part.kind is PartKind.CANTOR:
            x = _cantor_quantile(part, levels, self.cantor_depth)
            values = self.cdf(x)
        else:
            x, values = _density_quantile(part, self.cdf, levels)
        x = _step_left(self.cdf, x, values, levels, a)
        x[levels >= self.total_mass] = b
        return _shaped(x, u)

    def restrict(self, lo: float, hi: float) -> "RestrictedMeasure":
        return RestrictedMeasure(self, lo, hi)


@dataclass(frozen=True, eq=False)
class RestrictedMeasure:
    """Restriction of a measure to a window [lo, hi] of its support."""

    base: MeasureSpec
    lo: float
    hi: float
    total_mass: float = field(init=False)
    support: tuple[float, float] = field(init=False)

    def __post_init__(self):
        if not self.lo < self.hi:
            raise DomainError(f"empty restriction window [{self.lo}, {self.hi}]")
        offset = self.base.cdf(self.lo)
        mass = self.base.cdf(self.hi) - offset
        if not mass > 0:
            raise DomainError(
                f"restriction to [{self.lo}, {self.hi}] has no mass"
            )
        object.__setattr__(self, "support", (self.lo, self.hi))
        object.__setattr__(self, "total_mass", float(mass))
        object.__setattr__(self, "_offset", float(offset))

    def cdf(self, t):
        t = np.asarray(t, dtype=float)
        out = self.base.cdf(np.clip(t, self.lo, self.hi)) - self._offset
        return float(out) if np.ndim(out) == 0 else out

    def quantile(self, u):
        """sup{x in [lo, hi] : cdf(x) <= u}, read off the base measure.

        The base level is the largest c with fl(c - offset) <= u, so the
        base's invariant base.cdf(x) <= c carries over to cdf(x) <= u.
        """
        levels = _levels(u, self.total_mass)
        offset = self._offset
        c = offset + levels
        while (over := c - offset > levels).any():
            c[over] = np.nextafter(c[over], -np.inf)
        while (fits := np.nextafter(c, np.inf) - offset <= levels).any():
            c[fits] = np.nextafter(c[fits], np.inf)
        x = np.clip(self.base.quantile(c), self.lo, self.hi)
        x[levels >= self.total_mass] = self.hi
        return _shaped(x, u)


def _levels(u, mass: float) -> np.ndarray:
    """Quantile levels as a new 1-d array, clipped to [0, mass].

    Levels more than 1e-9 * max(1, mass) outside that range raise RangeError.
    """
    levels = np.atleast_1d(np.asarray(u, dtype=float))
    tol = 1e-9 * max(1.0, mass)
    if (levels < -tol).any() or (levels > mass + tol).any():
        raise RangeError(f"quantile level outside [0, {mass}]")
    return np.clip(levels, 0.0, mass)


def _shaped(x: np.ndarray, u):
    """A float for a scalar level u, else the array x."""
    return float(x[0]) if np.ndim(u) == 0 else x


def _quantile(cdf: Callable, support: tuple[float, float], mass: float, u):
    """Monotone bisection for sup{x : cdf(x) <= u} on the support window."""
    levels = _levels(u, mass)
    lo, hi = support
    lo_b = np.full_like(levels, lo)
    hi_b = np.full_like(levels, hi)
    iters = max(1, math.ceil(math.log2(max((hi - lo) / QUANTILE_TOL, 2.0)))) + 1
    for _ in range(iters):
        mid = 0.5 * (lo_b + hi_b)
        below = cdf(mid) <= levels
        lo_b = np.where(below, mid, lo_b)
        hi_b = np.where(below, hi_b, mid)
    # sup{x : F(x) <= M} is unbounded; by convention the support top.
    lo_b[levels >= mass] = hi
    return _shaped(lo_b, u)


def _cantor_quantile(part: ContinuousPart, u: np.ndarray, depth: int) -> np.ndarray:
    """Right plateau end of each Cantor level u, up to a few ulps.

    The Cantor level y is the largest multiple of 2**-(depth+1), the grid
    that ``cantor_function`` values lie on, with fl(mass * y) <= u.  Its
    binary digits b_i become ternary digits 2 b_i:
    x = a + (b - a) * sum_i 2 b_i 3**-i.  The finite (greedy-floor) binary
    expansion gives the sup convention on plateaus.
    """
    a, b = part.support
    scale = 2.0 ** (depth + 1)
    n = np.floor(u / part.mass * scale)  # y = n / scale
    n = np.where(part.mass * (n / scale) > u, n - 1.0, n)
    up = n + 1.0
    n = np.where((up <= scale) & (part.mass * (up / scale) <= u), up, n)
    z = np.zeros_like(u)
    for _ in range(depth + 1):  # least significant digit first
        half = np.floor(0.5 * n)
        z = (z + 2.0 * (n - 2.0 * half)) / 3.0
        n = half
    return np.clip(a + (b - a) * z, a, b)


def _density_quantile(part: ContinuousPart, cdf: Callable, u: np.ndarray):
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
        with np.errstate(divide="ignore", invalid="ignore"):
            step = np.where(values == u, 0.0, (u - values) / p)
            error = np.where(step == 0.0, 0.0, np.abs(slope(x) / (2.0 * p)) * step**2)
        newton = x + step
        fast = (lo <= newton) & (newton <= hi) & (np.abs(step) <= 0.5 * moved)
        tight = hi - lo <= 4.0 * np.spacing(x)
        nxt = np.select([done, fast, tight], [x, newton, lo], 0.5 * (lo + hi))
        done |= (fast & (error <= np.spacing(x))) | tight
        moved = np.abs(nxt - x)
        x = nxt
        values = cdf(x)
        if done.all():
            break
    return x, values


def _step_left(cdf: Callable, x: np.ndarray, values, u: np.ndarray, floor: float):
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


@dataclass(frozen=True, eq=False)
class TransportMap:
    """Monotone map G with dst = (M_dst/M_src) * src o G, dst-support -> src-support."""

    source: MeasureSpec | RestrictedMeasure
    target: MeasureSpec | RestrictedMeasure

    def __call__(self, t):
        level = (self.source.total_mass / self.target.total_mass) * self.target.cdf(t)
        return self.source.quantile(np.clip(level, 0.0, self.source.total_mass))

    @property
    def inverse(self) -> "TransportMap":
        return TransportMap(self.target, self.source)


def transport_map(src, dst) -> TransportMap:
    """Quantile rearrangement src.quantile((M_src/M_dst) * dst.cdf(t))."""
    return TransportMap(src, dst)


def pushforward_check(src, dst, mapping: TransportMap, intervals) -> float:
    """Max over intervals [s, t] of |dst([s,t]) - (M_dst/M_src) src([G(s), G(t)])|."""
    intervals = np.asarray(intervals, dtype=float)
    if intervals.ndim != 2 or intervals.shape[1] != 2:
        raise RangeError("intervals must be an (n, 2) array of [s, t] pairs")
    ratio = dst.total_mass / src.total_mass
    s, t = intervals[:, 0], intervals[:, 1]
    dst_mass = dst.cdf(t) - dst.cdf(s)
    src_mass = src.cdf(mapping(t)) - src.cdf(mapping(s))
    return float(np.abs(dst_mass - ratio * src_mass).max())


def quadrature_nodes(m, interval: tuple[float, float] | None, nodes: int):
    """Inverse-transform nodes: quantiles of midpoint levels on [cdf(s), cdf(t)]."""
    if nodes < 1:
        raise RangeError(f"need at least one node, got {nodes}")
    if interval is None:
        interval = m.support
    u_lo = float(m.cdf(interval[0]))
    u_hi = float(m.cdf(interval[1]))
    du = (u_hi - u_lo) / nodes
    levels = u_lo + (np.arange(nodes) + 0.5) * du
    return m.quantile(levels), du


def integrate(m, integrand: Callable, interval=None, nodes: int = 1024) -> float:
    """Stratified inverse-transform rule for integrals against the measure.

    Deterministic for fixed node count; exact for constant integrands.
    """
    x, du = quadrature_nodes(m, interval, nodes)
    return float(np.sum(np.asarray(integrand(x), dtype=float)) * du)
