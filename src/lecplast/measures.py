"""Finite atomless Borel measures on positive intervals.

Provides distribution functions F(t) = mu([0, t]), their generalized
inverses in the sup convention F^{-1}(u) = sup{x : F(x) <= u}, the monotone
transport map G = F_src^{-1} o (M_src/M_dst) F_dst between two measures,
an interval-based pushforward residual, and a deterministic inverse-transform
quadrature rule.

Polynomial densities are integrated in closed form, so their cdfs carry no
numerical error.  Cantor parts evaluate the classic ternary-digit algorithm
for the Cantor function, affinely rescaled to their support and mass.
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

#: Absolute x-tolerance of the quantile bisection.
QUANTILE_TOL = 2.0**-48


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
        antiderivative = Polynomial(part.coeffs).integ()
        return antiderivative(clamped) - antiderivative(a)
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
        """sup{x : cdf(x) <= u}, the right endpoint of any cdf plateau."""
        return _quantile(self.cdf, self.support, self.total_mass, u)

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
        return _quantile(self.cdf, self.support, self.total_mass, u)


def _quantile(cdf: Callable, support: tuple[float, float], mass: float, u):
    """Monotone bisection for sup{x : cdf(x) <= u} on the support window."""
    u_arr = np.asarray(u, dtype=float)
    scalar = u_arr.ndim == 0
    u_work = np.atleast_1d(u_arr).astype(float).copy()
    tol = 1e-9 * max(1.0, mass)
    if (u_work < -tol).any() or (u_work > mass + tol).any():
        raise RangeError(f"quantile level outside [0, {mass}]")
    np.clip(u_work, 0.0, mass, out=u_work)
    lo, hi = support
    lo_b = np.full_like(u_work, lo)
    hi_b = np.full_like(u_work, hi)
    at_top = u_work >= mass
    iters = max(1, math.ceil(math.log2(max((hi - lo) / QUANTILE_TOL, 2.0)))) + 1
    for _ in range(iters):
        mid = 0.5 * (lo_b + hi_b)
        below = cdf(mid) <= u_work
        lo_b = np.where(below, mid, lo_b)
        hi_b = np.where(below, hi_b, mid)
    # sup{x : F(x) <= M} is unbounded; by convention the support top.
    lo_b[at_top] = hi
    return float(lo_b[0]) if scalar else lo_b


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
