"""The spectral measure of one continuous part, on a positive interval.

Provides its distribution function F(t) = mu([0, t]), the generalized
inverse in the sup convention F^{-1}(u) = sup{x : F(x) <= u}, the same pair
for stacks of windows of the measure, the monotone transport maps
G = F_src^{-1} o (M_src/M_dst) F_dst between two such stacks, and a
deterministic inverse-transform quadrature rule on a stack.

A ``RestrictedMeasure`` holds C windows [lo[p], hi[p]] of one base measure,
and the leading axis of an argument runs over them: row p of a (C, n)
argument is evaluated in window p.  A ``TransportMap`` between two stacks of
C windows is C maps, and ``quadrature_nodes`` gives a table of equal-mass
nodes, C rows by any block of the node indices (``column_blocks``), the one
place where the program reads a transport cell.  A stacked evaluation runs
in blocks of whole rows of at most ``ROW_BLOCK`` levels, so its working set
does not grow with C; row p comes out bit for bit as in a one-row stack,
whatever the block size.  ``ROW_BLOCK`` sits between two limits.  Each call
of the density quantile kernel pays a fixed dispatch, 94 Python-level and 53
C calls on a 32-level row of a degree-2 density (73 and 42 in closed form),
most of them numpy's, so a larger block pays it less often: on one shared
2-vCPU Xeon with numpy 2.4, a degree-2 call on a 32-level row takes 84-163 us
against 226-309 us on a 4,096-level row (closed form: 57-62 against
125-133 us).  A block's temporaries grow with it: a K = 16,
4096-node transport table build, which holds one column block of nodes
(1 MB) and one row block of g^2 at a time, peaks at 1.53 MB traced with
blocks of 4,096 levels, 1.99 MB with 8,192 and 2.92 MB with 16,384, and the
tests pin it below 2.5 MB.

A polynomial density is integrated in closed form, in s = t - a from the
support start a (``ContinuousPart.antiderivative``).  The coefficients of
that cdf, of the density and of its slope (j c_j), and the root scales or the
guess grid of the inverse, are set up once per ``MeasureSpec``; the
polynomials are evaluated by Horner's rule in numpy ``polyval``'s order
(``spectrum.horner``), bit for bit as numpy's ``Polynomial``.  A Cantor part
evaluates the classic ternary-digit algorithm for the Cantor function,
affinely rescaled to its support and mass.

Each part kind is inverted directly: a Cantor level maps its binary digits
to ternary digits 0/2, a density of degree <= 1 takes the root of its cdf in
closed form, and any other density level one Newton step on the cdf from the
cdf interpolated on a fine grid.  Only the levels that this step leaves open
run the safeguarded Newton iteration, and the step finishes a level exactly
where the iteration's first pass would, with its bits.  Every solve ends in
one left walk on the program's own cdf, so every quantile keeps the
floating-point invariant cdf(quantile(u)) <= u: a level on a cdf plateau
selects the plateau's right end, and a window keeps it for its own cdf,
base.cdf(x) - offset, without searching for a base level.

Cut at triadic points, a Cantor part's windows are each an affine copy of
the standard Cantor measure (``CantorCells``): their maps are affine
(``AffineMap``), their nodes one table of standard Cantor points.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field
from typing import Callable, Iterator

import numpy as np

from .errors import DomainError, RangeError
from .spectrum import ContinuousPart, PartKind, horner

#: Ternary digits used when evaluating the Cantor function.
DEFAULT_CANTOR_DEPTH = 40

#: Iteration cap of the density Newton solve.  A cdf whose rounding noise
#: exceeds a few ulps of x (near a zero of the density) can stop it early;
#: the final ulp walk keeps cdf(quantile(u)) <= u either way.
_NEWTON_CAP = 100

#: Grid points of the interpolated cdf that starts the density Newton solve.
_GUESS_GRID = 4097

#: Most levels of one block of a stacked-window evaluation, two rows at the
#: default node count; a row longer than this is a block of its own.  Set by
#: the kernel's per-call dispatch and the table build's traced peak (see the
#: module docstring).
ROW_BLOCK = 8192


def cantor_function(x) -> np.ndarray:
    """Standard Cantor function on [0, 1], clamped outside.

    Walks the ternary expansion: digit 2 contributes a binary 1, the first
    digit 1 ends on a plateau value.  After ``DEFAULT_CANTOR_DEPTH`` digits
    the midpoint of the remaining bracket is returned
    (error <= 2**-(DEFAULT_CANTOR_DEPTH+1)).
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
    for _ in range(DEFAULT_CANTOR_DEPTH):
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


@dataclass(frozen=True, eq=False)
class MeasureSpec:
    """Finite atomless measure of one continuous part, on the part's support."""

    part: ContinuousPart
    total_mass: float = field(init=False)
    support: tuple[float, float] = field(init=False)

    def __post_init__(self):
        object.__setattr__(self, "support", self.part.support)
        object.__setattr__(self, "total_mass", self.part.total_mass)
        if self.part.kind is PartKind.DENSITY:  # set up once for every quantile
            (a, b), A, p = self.support, self.part.antiderivative, np.array(self.part.coeffs)
            slope = p[1:] * np.arange(1, p.size) if p.size > 1 else p * 0.0
            object.__setattr__(self, "_coeffs", (A, p, slope))  # the cdf in s, density p, p'
            if A.size > 3:  # degree >= 2: Newton from the cdf on a guess grid
                grid = np.linspace(a, b, _GUESS_GRID)
                object.__setattr__(self, "_guess", (self.cdf(grid), grid))
            else:  # degree <= 1: s by 2^-e_s ~ 1/(b - a), u and the A_j by 2^e_u ~ 1/M
                e_s, e_u = math.frexp(b - a)[1], -math.frexp(self.total_mass)[1]
                alpha = max(math.ldexp(A[1], e_s + e_u), np.finfo(float).tiny)  # u = 0: s = 0
                beta = math.ldexp(A[2], 2 * e_s + e_u) if A.size == 3 else 0.0
                object.__setattr__(self, "_scaled", (alpha, beta, e_s, e_u))

    def cdf(self, t):
        """mu([0, t]); 0 below the support, total_mass above it."""
        part = self.part
        a, b = self.support
        clamped = np.clip(np.asarray(t, dtype=float), a, b)
        if part.kind is PartKind.DENSITY:
            out = horner(self._coeffs[0], clamped - a)
        else:
            out = part.mass * cantor_function((clamped - a) / (b - a))
        return float(out) if np.ndim(out) == 0 else out

    def quantile(self, u):
        """sup{x : cdf(x) <= u}, the right endpoint of any cdf plateau.

        Inverted in closed form; cdf(quantile(u)) <= u holds exactly in
        floating point.
        """
        levels = _levels(u, self.total_mass)
        x = self._solve(levels)
        x[levels >= self.total_mass] = self.support[1]
        return float(x[0]) if np.ndim(u) == 0 else x

    def _solve(self, levels: np.ndarray, offset=0.0) -> np.ndarray:
        """For each level, an x with fl(cdf(x) - offset) <= level, as a new array.

        A density is solved at offset + level (clipped to [0, total_mass]), a
        Cantor level in closed form; then x walks left while
        fl(cdf(x) - offset) > level.  ``offset`` broadcasts against
        ``levels``.  The caller sets the top level's x.
        """
        a, b = self.support
        if self.part.kind is PartKind.CANTOR:
            x = np.clip(a + (b - a) * _cantor_quantile(levels, self.part.mass, offset), a, b)
            values = self.cdf(x)
        else:
            x, values = _density_quantile(self, np.clip(offset + levels, 0.0, self.total_mass))
        return _step_left(self.cdf, x, values, levels, a, offset)


@dataclass(frozen=True, eq=False)
class RestrictedMeasure:
    """Restrictions of a measure to a stack of C windows [lo[p], hi[p]].

    ``lo``, ``hi`` and ``total_mass`` have shape (C,).  The leading axis of
    every argument runs over the windows: row p of a (C, n) argument, or
    element p of a (C,) one, is evaluated in window p.  ``r[i:j]`` is a
    sub-stack that does not evaluate the base measure again; a one-row
    stack ``r[p:p + 1]`` is window p alone.  The window offsets and masses
    come from one cdf call on both ends.
    """

    base: MeasureSpec
    lo: np.ndarray
    hi: np.ndarray
    total_mass: np.ndarray = field(init=False)
    support: tuple = field(init=False)

    def __post_init__(self):
        lo, hi = np.asarray(self.lo, dtype=float), np.asarray(self.hi, dtype=float)
        if lo.ndim != 1 or lo.shape != hi.shape:
            raise RangeError("a restriction takes a stack of windows: lo and hi of shape (C,)")
        bad = ~(lo < hi)
        if bad.any():
            p = np.argmax(bad)
            raise DomainError(f"empty restriction window [{lo[p]}, {hi[p]}]")
        offset, upper = self.base.cdf(np.stack([lo, hi]))
        mass = upper - offset
        bad = ~(mass > 0)
        if bad.any():
            p = np.argmax(bad)
            raise DomainError(f"restriction to [{lo[p]}, {hi[p]}] has no mass")
        self._set(lo, hi, offset, mass)

    def _set(self, lo, hi, offset, mass) -> None:
        object.__setattr__(self, "lo", lo)
        object.__setattr__(self, "hi", hi)
        object.__setattr__(self, "support", (lo, hi))
        object.__setattr__(self, "total_mass", mass)
        object.__setattr__(self, "_offset", offset)

    def __getitem__(self, rows: slice) -> "RestrictedMeasure":
        """The windows ``rows`` of the stack, as a view."""
        if not isinstance(rows, slice):
            raise TypeError("a stack takes rows by slice, window p as [p:p + 1]")
        view = object.__new__(RestrictedMeasure)
        object.__setattr__(view, "base", self.base)
        view._set(self.lo[rows], self.hi[rows], self._offset[rows], self.total_mass[rows])
        return view

    def outside(self, t) -> np.ndarray:
        """Where t lies outside its window (row p of t against window p)."""
        t = np.asarray(t, dtype=float)
        return (t < _per_row(self.lo, t)) | (t > _per_row(self.hi, t))

    def cdf(self, t):
        return _blockwise(self, self.total_mass, t, RestrictedMeasure._cdf)

    def _cdf(self, t):
        lo, hi, offset = (_per_row(v, t) for v in (self.lo, self.hi, self._offset))
        return self.base.cdf(np.clip(t, lo, hi)) - offset

    def quantile(self, u):
        """sup{x in [lo, hi] : cdf(x) <= u}, solved on the base measure.

        The base is solved at offset + u and walked left while the window's
        own cdf, fl(base.cdf(x) - offset), exceeds u.  Rounding is monotone,
        so fl(F(x) - offset) <= u holds exactly when F(x) <= c, for c the
        largest level with fl(c - offset) <= u: the invariant is the base's
        base.cdf(x) <= c, and no level c is searched for.
        """
        return _blockwise(self, self.total_mass, u, RestrictedMeasure._quantile)

    def _quantile(self, u):
        mass = _per_row(self.total_mass, u)
        levels = _levels(u, mass)
        offset, lo, hi = (_per_row(v, levels) for v in (self._offset, self.lo, self.hi))
        x = np.clip(self.base._solve(levels, offset), lo, hi)
        np.copyto(x, hi, where=levels >= mass)
        return x


def _per_row(values, arg):
    """Per-window ``values`` shaped to broadcast against ``arg``, whose
    leading axis runs over the windows."""
    return values.reshape(values.shape + (1,) * (np.ndim(arg) - 1))


def row_blocks(rows: int, row_size: int) -> list[slice]:
    """Slices of whole rows, at most ``ROW_BLOCK`` levels each (one row at least)."""
    step = max(1, ROW_BLOCK // max(1, row_size))
    return [slice(i, i + step) for i in range(0, rows, step)]


def column_blocks(columns: int) -> Iterator[slice]:
    """Slices of at most ``ROW_BLOCK`` consecutive columns, each made as it
    is read, so that a count past any array size costs nothing up front."""
    return (slice(i, i + ROW_BLOCK) for i in range(0, columns, ROW_BLOCK))


def _blockwise(stack, masses, arg, evaluate: Callable):
    """evaluate(stack, arg) over blocks of whole rows.

    ``masses`` holds one value per window, and the leading axis of ``arg``
    runs over the windows.  Each block of rows goes through ``evaluate``
    with the matching sub-stack ``stack[rows]``.
    """
    arg = np.asarray(arg, dtype=float)
    if arg.shape[:1] != masses.shape:
        raise RangeError(
            f"an argument to {masses.size} stacked windows needs a leading axis of that length"
        )
    blocks = row_blocks(arg.shape[0], math.prod(arg.shape[1:]))
    if len(blocks) == 1:
        return evaluate(stack, arg)
    out = np.empty_like(arg)
    for rows in blocks:
        out[rows] = evaluate(stack[rows], arg[rows])
    return out


def _levels(u, mass) -> np.ndarray:
    """Quantile levels as a new array of at least one axis, clipped to [0, mass].

    ``mass`` is a float or broadcasts against u, one mass per row.  Levels
    more than 1e-9 * max(1, mass) outside that range raise RangeError.
    """
    levels = np.atleast_1d(np.asarray(u, dtype=float))
    tol = 1e-9 * np.maximum(1.0, mass)
    outside = (levels < -tol) | (levels > mass + tol)
    if outside.any():
        bound = np.broadcast_to(mass, levels.shape)[outside][0]
        raise RangeError(f"quantile level outside [0, {bound}]")
    return np.clip(levels, 0.0, mass)


def _cantor_quantile(u: np.ndarray, mass: float, offset=0.0) -> np.ndarray:
    """Right plateau end in [0, 1] of level u of mass * standard Cantor, less
    ``offset``, to ulps.

    The Cantor level y is the largest multiple of 2**-(DEFAULT_CANTOR_DEPTH+1),
    the grid that ``cantor_function`` values lie on, with
    fl(fl(mass * y) - offset) <= u.  Its binary digits b_i become ternary
    digits 2 b_i: z = sum_i 2 b_i 3**-i, a point of the set.  The finite
    (greedy-floor) binary expansion gives the sup convention on plateaus.
    """
    scale = 2.0 ** (DEFAULT_CANTOR_DEPTH + 1)
    n = np.floor((offset + u) / mass * scale)  # y = n / scale
    n = np.where(mass * (n / scale) - offset > u, n - 1.0, n)
    up = n + 1.0
    n = np.where((up <= scale) & (mass * (up / scale) - offset <= u), up, n)
    z = np.zeros_like(u)
    for _ in range(DEFAULT_CANTOR_DEPTH + 1):  # least significant digit first
        half = np.floor(0.5 * n)
        z = (z + 2.0 * (n - 2.0 * half)) / 3.0
        n = half
    return z


def _density_quantile(m: MeasureSpec, u: np.ndarray):
    """Solve m.cdf(x) = u on the support of a density: x and m.cdf(x).

    A density of degree <= 1 takes the root of its cdf A_1 s + A_2 s^2 in
    s = x - a without cancellation (Higham, Accuracy and Stability of
    Numerical Algorithms, section 1.8), s = 2u / (A_1 +
    sqrt(A_1^2 + 4 A_2 u)), which is u / A_1 at degree 0, on s, u and the A_j
    scaled by powers of two (``MeasureSpec``) so that no term overflows, or
    underflows on a level above 2^-1022 M.  Any other density takes one
    Newton step from the inverse of the cdf interpolated on the guess grid.
    A level is finished by that step exactly when the first iteration of
    ``_safeguarded_newton`` would finish it by a Newton step: p > 0, the step
    lands in [a, b], moves at most (b - a)/2, and its error term is at most
    one ulp of x, so such a level gets the loop's own bits.  The other levels
    enter the loop with their guess, its cdf and that step.
    """
    a, b = m.support
    if m._coeffs[0].size <= 3:  # degree <= 1
        alpha, beta, e_s, e_u = m._scaled
        v = np.ldexp(u, e_u)
        root = 2.0 * alpha if not beta else alpha + np.sqrt(
            np.maximum(alpha * alpha + 4.0 * beta * v, 0.0))
        x = np.minimum(a + np.ldexp((v + v) / root, e_s), b)
        return x, m.cdf(x)
    grid_cdf, grid = m._guess
    x = np.interp(u, grid_cdf, grid)
    values = m.cdf(x)
    p, step, error = _newton_step(m, x, values, u)
    newton = x + step
    done = (p > 0) & (a <= newton) & (newton <= b) & (np.abs(step) <= 0.5 * (b - a))
    done &= error <= np.spacing(x)
    if done.all():
        return newton, m.cdf(newton)
    x[done] = newton[done]
    values[done] = m.cdf(x[done])
    open_ = ~done
    x[open_], values[open_] = _safeguarded_newton(
        m, *(v[open_] for v in (x, values, u, step, error)))
    return x, values


def _newton_step(m: MeasureSpec, x: np.ndarray, values: np.ndarray, u: np.ndarray):
    """The density p at x, the Newton step (u - values)/p towards level u
    (0 where values == u) and its quadratic error term |p'/2p| * step**2
    (0 where the step is 0).  ``values`` is m.cdf(x)."""
    _, density, slope = m._coeffs
    p = horner(density, x)
    # An overflowed step**2 makes the error term inf or nan, which counts as
    # not converged.
    with np.errstate(divide="ignore", over="ignore", invalid="ignore"):
        step = (u - values) / p
        np.copyto(step, 0.0, where=values == u)
        error = np.abs(horner(slope, x) / (2.0 * p)) * step**2
    np.copyto(error, 0.0, where=step == 0.0)
    return p, step, error


def _safeguarded_newton(m: MeasureSpec, x, values, u, step, error):
    """Safeguarded Newton solve of m.cdf(x) = u from x, given values = m.cdf(x)
    and the Newton step from x with its error term (``_newton_step``).

    Keeps a bracket [lo, hi] with cdf(lo) <= u < cdf(hi).  A Newton step
    that leaves the bracket, or fails to halve the previous move, is
    replaced by a bisection of the bracket.  A level is done after a Newton
    step whose quadratic error term |p'/2p| * step**2 is below one ulp, or
    once its bracket is within four ulps.  Returns the last iterate with its
    cdf values.  The bracket and the iterate are updated in place.
    """
    a, b = m.support
    lo = np.full_like(u, a)
    hi = np.full_like(u, b)
    moved = np.full_like(u, b - a)
    done = np.zeros(u.shape, dtype=bool)
    for _ in range(_NEWTON_CAP):
        below = values <= u
        np.copyto(lo, x, where=below)
        np.copyto(hi, x, where=~below)
        spacing = np.spacing(x)
        newton = x + step
        fast = (lo <= newton) & (newton <= hi) & (np.abs(step) <= 0.5 * moved)
        tight = hi - lo <= 4.0 * spacing
        nxt = 0.5 * lo + 0.5 * hi
        np.copyto(nxt, lo, where=tight)  # lowest priority first: tight, fast, done
        np.copyto(nxt, newton, where=fast)
        np.copyto(nxt, x, where=done)
        done |= (fast & (error <= spacing)) | tight
        moved = np.abs(nxt - x)
        x = nxt
        values = m.cdf(x)
        if done.all():
            break
        _, step, error = _newton_step(m, x, values, u)
    return x, values


def _step_left(cdf: Callable, x: np.ndarray, values, u: np.ndarray, floor: float, offset=0.0):
    """Walk x left in doubling ulp steps until fl(cdf(x) - offset) <= u.

    ``values`` is cdf(x) and ``offset`` broadcasts against x; the walk stops
    at ``floor``, where cdf is 0; the overshooting levels are gathered once.
    """
    x = np.ascontiguousarray(x)  # so that its flat view writes through
    flat = x.reshape(-1)
    i = np.flatnonzero(values - offset > u)
    walk, levels, offset = flat[i], u.reshape(-1)[i], np.broadcast_to(offset, x.shape).ravel()[i]
    step = np.spacing(walk)
    while i.size:
        flat[i] = walk = np.maximum(walk - step, floor)
        over = cdf(walk) - offset > levels
        if not over.any():
            break
        i, walk, levels, offset, step = (v[over] for v in (i, walk, levels, offset, 2.0 * step))
    return x


@dataclass(frozen=True, eq=False)
class TransportMap:
    """Monotone maps G with dst = (M_dst/M_src) * src o G, dst-window -> src-window.

    Between two stacks of C windows it is C maps: row p of an argument goes
    from target window p to source window p, and ``g[i:j]`` is the maps of
    rows i..j-1.
    """

    source: RestrictedMeasure
    target: RestrictedMeasure

    def __post_init__(self):
        shape = np.shape(self.source.total_mass)
        if len(shape) != 1 or np.shape(self.target.total_mass) != shape:
            raise RangeError("a transport map runs between two stacks of as many windows")

    def __getitem__(self, rows: slice) -> "TransportMap":
        return TransportMap(self.source[rows], self.target[rows])

    def __call__(self, t):
        return _blockwise(self, self.target.total_mass, t, TransportMap._map)

    def _map(self, t):
        source, target = self.source, self.target
        ratio = _per_row(source.total_mass / target.total_mass, t)
        level = ratio * target.cdf(t)
        return source.quantile(np.clip(level, 0.0, _per_row(source.total_mass, t)))

    @property
    def inverse(self) -> "TransportMap":
        return TransportMap(self.target, self.source)


@dataclass(frozen=True, eq=False)
class CantorCells:
    """C windows [lo[p], hi[p]]; window p holds total_mass[p] times the standard
    Cantor measure carried onto [lo[p], lo[p] + width[p]], then a gap."""

    lo: np.ndarray
    hi: np.ndarray
    width: np.ndarray
    total_mass: np.ndarray

    @property
    def support(self) -> tuple:
        return self.lo, self.hi

    def __getitem__(self, rows: slice) -> "CantorCells":
        return CantorCells(self.lo[rows], self.hi[rows], self.width[rows], self.total_mass[rows])

    outside = RestrictedMeasure.outside


@dataclass(frozen=True, eq=False)
class AffineMap:
    """Transports between two stacks of ``CantorCells``: row p is the affine
    G(t) = source.lo + (source.width / target.width)(t - target.lo), which
    carries the Cantor copy of target window p onto that of source window p."""

    source: CantorCells
    target: CantorCells

    def __getitem__(self, rows: slice) -> "AffineMap":
        return AffineMap(self.source[rows], self.target[rows])

    def __call__(self, t):
        s, d = self.source, self.target
        return _per_row(s.lo, t) + _per_row(s.width / d.width, t) * (t - _per_row(d.lo, t))

    @property
    def inverse(self) -> "AffineMap":
        return AffineMap(self.target, self.source)


def quadrature_nodes(m: RestrictedMeasure | CantorCells, *, nodes: int,
                     columns: slice = slice(None)) -> np.ndarray:
    """Inverse-transform nodes: the table of quantiles of the mass midpoints
    (i + 1/2) M_p / nodes in window p, each node of mass M_p / nodes, one
    column per node index i in ``columns`` (all ``nodes`` of them by default).

    All windows share these relative levels.  The table is filled one block
    of whole rows at a time, and each block makes its own levels, so no
    level array spans the table.  On ``CantorCells`` every node is a point
    of its window's Cantor set.
    """
    if nodes < 1:
        raise RangeError(f"need at least one node, got {nodes}")
    index = range(nodes)[columns]
    mid = np.arange(index.start, index.stop, index.step) + 0.5
    if isinstance(m, CantorCells):  # one standard table, carried into every row
        return m.lo[:, None] + m.width[:, None] * _cantor_quantile(mid / nodes, 1.0)
    out = np.empty((m.lo.size, mid.size))
    for rows in row_blocks(m.lo.size, mid.size):
        out[rows] = m[rows].quantile(mid * (m.total_mass[rows, None] / nodes))
    return out
