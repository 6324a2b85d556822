"""Numerical verification of witness and spectral-bound properties.

Every check is deterministic given (inputs, node counts), draws nothing and
reads a supremum over its whole test space off one table, built once per
witness or space and shared by its checks: a shift's lambdas and factors f_k
per slot, a transport's multiplier g at every quadrature node of each cell,
or one pass over the probes cos theta e_lam + sin theta e_mu, theta in
``PROBE_ANGLES``, of a space's extremal pairs.  Form preservation reads
lambda_{n_{k-1}} f_k^2 = lambda_{n_k} and the node identity t g^2(x) = x (it
does not test the pushforward apart from the nodes), non-expansion f_k <= 1
and g <= 1.  The two operator checks read the closed-form singular values of
2 x 2 rotation probes; finite-dimensional plasticity probes a fixed palette,
so its report is computed once per process.

Tolerances follow the kind of arithmetic, not the kind of part: shift and
space identities are exact-arithmetic paths (``POINT_TOL``, 1e-12), the
transport identities go through quadrature (``TRANSPORT_TOL``, 1e-5, on
densities and Cantor parts alike).  A point-side residual is relative to
the largest eigenvalue it involves, so its verdict does not change when A
is scaled; a transport form residual is relative to x at its node.
Residuals are reduced with np.max, np.maximum and np.minimum, which keep
NaN, so a non-finite residual fails its check.
"""

from __future__ import annotations

import functools
import weakref
from dataclasses import dataclass

import numpy as np

from .errors import DomainError, PreconditionError
from .measures import column_blocks, quadrature_nodes, row_blocks
from .spectrum import SpectralDescriptor, is_multiplicity
from .witness import ShiftWitness, TransportWitness, require_window

POINT_TOL = 1e-12
TRANSPORT_TOL = 1e-5
CONTRACTION_MARGIN = 1e-6
OPERATOR_TOL = 1e-8
#: Acceptance band for contraction candidates: ||T|| <= 1 + this.
NORM_SLACK = 1e-10
#: Rotation angles of the point-side probes, pi/2 down to 1.6e-12 in decades:
#: on a pair with gap/sqrt(lam mu) between about 2e-10 and 120, the ladder
#: holds operator probes on both sides of ||T|| = 1 + NORM_SLACK.
PROBE_ANGLES = np.pi / 2 * 10.0 ** -np.arange(13)
Witness = ShiftWitness | TransportWitness


@dataclass(frozen=True)
class VerificationReport:
    name: str
    samples: int
    worst_residual: float
    threshold: float
    passed: bool

    def to_dict(self) -> dict:
        return {"name": self.name, "samples": self.samples, "worst_residual": self.worst_residual,
                "threshold": self.threshold, "pass": self.passed}


def _report(name, samples, worst, threshold) -> VerificationReport:
    return VerificationReport(name, samples, float(worst), threshold, bool(worst <= threshold))


# ---------------------------------------------------------------------------
# Truncated quadratic-form space
# ---------------------------------------------------------------------------

@dataclass(frozen=True, eq=False)
class TruncatedQuadraticSpace:
    """Diagonal model of <x, Ax> on a finite eigenvalue truncation.

    The form is diagonal, so the space is its distinct eigenvalues ``values``
    (ascending; the constructor takes any, and merges equal ones) and the exact
    integer ``dimension``, at least their count; its checks probe its
    extremal pairs block by block (``_pair_blocks``).
    """

    values: np.ndarray
    dimension: int

    def __post_init__(self):
        values = np.unique(np.asarray(self.values, dtype=float))  # NaN sorts last
        if not (values.size and 0 < values[0] and values[-1] < np.inf):
            raise PreconditionError("the truncation needs eigenvalues, each finite and > 0")
        if not (is_multiplicity(self.dimension) and self.dimension >= values.size):
            raise PreconditionError(f"the dimension must be a whole number >= {values.size}, "
                                    f"the count of distinct eigenvalues, got {self.dimension}")
        object.__setattr__(self, "values", values)
        object.__setattr__(self, "dimension", int(self.dimension))

    @classmethod
    def from_descriptor(cls, d: SpectralDescriptor, per_sequence: int) -> "TruncatedQuadraticSpace":
        """Every atom and each sequence's first ``per_sequence`` terms; an INFINITE
        atom counts 2 * per_sequence dimensions.  A value that an atom and a
        term share (the overlay) is one value whose multiplicities add."""
        if per_sequence < 1:
            raise DomainError(f"per_sequence must be positive, got {per_sequence}")
        values = np.concatenate([[atom.value for atom in d.atoms],
                                 *(seq.terms(per_sequence) for seq in d.sequences)])
        dimension = sum(2 * per_sequence if atom.is_infinite else int(atom.multiplicity)
                        for atom in d.atoms)
        dimension += per_sequence * sum(int(seq.multiplicity) for seq in d.sequences)
        return cls(values, dimension)


# ---------------------------------------------------------------------------
# Witness checks
# ---------------------------------------------------------------------------

class _ShiftTable:
    """Per-slot suprema of a shift, read off its published lambdas and factors.

    T e_{n_k} = f_k e_{n_{k-1}} on the slots k = -K+1..K (slot -K leaves the
    window).  Both forms are diagonal, so each ratio is extreme at one slot:
    ``form`` = |lambda_{n_{k-1}} f_k^2 - lambda_{n_k}| / lambda_{n_{k-1}} and
    ``gain`` = f_k; ``contraction`` = f_1 = ||T e_{n_1}|| at the strict drop.
    """

    tol = POINT_TOL

    def __init__(self, w: ShiftWitness):
        lam, f = w.lambdas, w.factors
        self.form = np.abs(lam[:-1] * f**2 - lam[1:]) / lam[:-1]
        self.gain = f
        self.contraction = f[w.window]


class _TransportTables:
    """Per-cell suprema over the nodes, shared by the transport checks.

    The checks range over every function f of the ``quadrature_nodes`` x of
    each cell p with a successor.  Adjacent cells share their relative mass
    levels, so G_p carries node t_i of cell p + 1 onto node x_i of cell p,
    and (Tf)(t_i) = g(x_i) f(x_i) sqrt(M_p / M_{p+1}), with g^2 the published
    ``multiplier_squared``.  Every node weighs M_p / nodes on both sides, so
    q(f) weighs f(x_i)^2 by x_i and q(Tf) by t_i g^2(x_i), and ||f||^2 and
    ||Tf||^2 by 1 and g^2(x_i).  Over the functions of a cell each ratio is
    extreme at one node: ``form[p]`` = max_i |t_i g^2(x_i) / x_i - 1|, the
    defect of the node identity t g^2(x) = x, and ``gain[p]`` = max_i g(x_i).
    ``contraction`` = ||Tx||, the root mean of g^2 on the nodes, for x the
    indicator of cell k = 0 (at K = 1, of the last cell with a successor).

    The nodes come in column blocks of at most ``ROW_BLOCK`` node indices,
    one ``quadrature_nodes`` table of all 2K cells each, and g^2 in blocks of
    whole rows of that table, each read through the published multiplier and
    folded into running maxima and a compensated (Neumaier) cell-0 sum, so
    memory does not grow with ``nodes`` nor the sum drift with the blocks.
    A cell whose nodes are not strictly increasing in the blocks read so far
    raises ``CapacityError`` before its block's g^2, naming the largest
    window that works (a cell's nodes do not depend on K); the run stops at
    the first column block with a repeated node.  No per-node array and no
    reference to the witness outlives the build.
    """

    tol = TRANSPORT_TOL

    def __init__(self, w: TransportWitness, nodes: int):
        K, cells = w.window, 2 * w.window - 1  # the cells with a successor
        self.form, self.gain = np.full(cells, -np.inf), np.full(cells, -np.inf)
        zero, total, lost, last = min(K, cells - 1), -0.0, 0.0, None  # -0.0 + s == s for every s
        for columns in column_blocks(nodes):
            x = quadrature_nodes(w.cells, nodes=nodes, columns=columns)
            increasing = (x[:, 1:] > x[:, :-1]).all(axis=1)
            if last is not None:
                increasing &= x[:, 0] > last
            require_window(K, increasing, f"transport cell k={{k}} at window K={K} is too narrow "
                           f"for --nodes {nodes} distinct quadrature points",
                           "distinct quadrature points")
            last = x[:, -1].copy()
            source, target = x[:-1], x[1:]  # cells with a successor, and the successors
            for rows in row_blocks(cells, x.shape[1]):
                gsq = w.multiplier_squared(source[rows], rows=rows)
                np.maximum(self.gain[rows], np.max(gsq, axis=1), out=self.gain[rows])
                if rows.start <= zero < rows.stop:
                    part = np.sum(gsq[zero - rows.start])
                    old, total = total, total + part  # lost keeps the bits that total drops
                    lost += (old - total) + part if abs(old) >= abs(part) else (part - total) + old
                gsq *= target[rows]  # in place from here on, so that no second g^2 block is made
                gsq /= source[rows]
                gsq -= 1.0
                np.maximum(self.form[rows], np.max(np.abs(gsq, out=gsq), axis=1),
                           out=self.form[rows])
        self.gain = np.sqrt(self.gain)
        self.contraction = np.sqrt((total + lost) / nodes)


#: Tables by witness or space, then by node count (None for a space); each goes with its owner.
_TABLES: weakref.WeakKeyDictionary = weakref.WeakKeyDictionary()


def _table(owner: Witness | TruncatedQuadraticSpace, nodes: int | None = None):
    """A shift's table built afresh (2K + 1 multiplies); a transport's at ``nodes``
    nodes per cell, or a space's, built once and shared by its checks."""
    if isinstance(owner, ShiftWitness):
        return _ShiftTable(owner)
    by_nodes = _TABLES.setdefault(owner, {})
    if nodes not in by_nodes:
        by_nodes[nodes] = _SpaceTable(owner) if nodes is None else _TransportTables(owner, nodes)
    return by_nodes[nodes]


def check_form_preservation(op: Witness, nodes: int = 4096) -> VerificationReport:
    """sup |q(Tx) - q(x)| / q(x) over inputs supported inside the window: the
    largest ``form`` defect, per slot of a shift or per node of a transport."""
    table = _table(op, nodes)
    return _report("form_preservation", table.form.size, np.max(table.form), table.tol)


def check_nonexpansive(op: Witness, nodes: int = 4096) -> VerificationReport:
    """sup (||Tx|| - ||x||)/||x||, at most 0 for a non-expansive T: the
    largest ``gain`` (a factor, or a multiplier g at a node) minus 1."""
    table = _table(op, nodes)
    return _report("nonexpansive", table.gain.size, np.max(table.gain) - 1.0, table.tol)


def check_strict_contraction(op: Witness, nodes: int = 4096) -> VerificationReport:
    """Exhibit a unit direction with ||Tx|| <= 1 - delta, delta >= 1e-6: the
    residual is the table's ``contraction`` ||Tx||, so a witness with no
    contracting direction (a witness bug) yields a failing report."""
    factor = _table(op, nodes).contraction
    return _report("strict_contraction", 1, factor, 1.0 - CONTRACTION_MARGIN)


# ---------------------------------------------------------------------------
# Spectral-bound checks (Rayleigh quotients, minimizers)
# ---------------------------------------------------------------------------

def _pair_blocks(values: np.ndarray):
    """The 2(n - 1) extremal pairs of the n distinct ``values``, as (lam, mu) rows
    in blocks of whole pairs, at most ``ROW_BLOCK`` probes each: (min, mu) for
    every larger mu, then (max, mu) for every smaller mu.  Each block is copied
    from ``values`` when it is read, and comes with its count of pairs with the min."""
    n = values.size - 1
    for rows in row_blocks(2 * n, PROBE_ANGLES.size):
        start, stop = rows.start, min(rows.stop, 2 * n)
        split = min(max(start, n), stop) - start
        block = np.empty((stop - start, 2))
        block[:split, 0], block[split:, 0] = values[0], values[-1]
        block[:split, 1] = values[start + 1:start + split + 1]
        block[split:, 1] = values[start + split - n:stop - n]
        yield block, split


def _probe_quotients(pairs: np.ndarray) -> np.ndarray:
    """Quotients lam cos^2 theta + mu sin^2 theta of cos theta e_lam + sin theta e_mu,
    one row per (lam, mu) pair, one column per theta in ``PROBE_ANGLES``."""
    return pairs[:, :1] * np.cos(PROBE_ANGLES) ** 2 + pairs[:, 1:] * np.sin(PROBE_ANGLES) ** 2


class _SpaceTable:
    """Suprema over the extremal-pair probes of a space, shared by its checks.

    One pass over the 2(n - 1) pairs of the n distinct values, the min's n - 1
    first, in blocks of whole pairs (``_pair_blocks``) keeps ``least`` and
    ``most``, the extrema of the probe quotients and the values; ``attained``,
    the largest min_attained violation (on the min's pairs); and ``defect``,
    the largest extremal-invariance defect.  No per-probe array and no
    reference to the space outlives the build.
    """

    def __init__(self, space: TruncatedQuadraticSpace):
        values = space.values
        lo, (self.least, self.most) = values[0], values[[0, -1]]
        self.attained, self.defect = np.abs(values[0] - lo) / lo, 0.0
        for pairs, split in _pair_blocks(values):
            quotients = _probe_quotients(pairs)
            self.least = np.minimum(self.least, quotients.min())
            self.most = np.maximum(self.most, quotients.max())
            if split:  # the block's pairs with the min
                violation = (values[1] - lo) * np.sin(PROBE_ANGLES) ** 2 - (quotients[:split] - lo)
                self.attained = np.maximum(self.attained, np.max(violation / pairs[:split, 1:]))
            small, big = np.sort(pairs, axis=1).T[..., None]
            t = _scaled_probes(pairs)
            sigma, leak = _singular_values(t)[0], np.abs(t[..., [0, 1], [1, 0]]).max(axis=-1)
            defect = np.abs(sigma - small / big / sigma - leak * ((big - small) / big)) / sigma
            self.defect = np.maximum(self.defect, np.max(defect))


def check_rayleigh_bounds(space: TruncatedQuadraticSpace) -> VerificationReport:
    """Rayleigh quotients span exactly [min lambda, max lambda].

    For a diagonal form q(x)/|x|^2 = sum_v w_v v is a convex combination of
    the distinct eigenvalues v (w_v the share of |x|^2 in Ker(A - v)), so no
    quotient escapes the bounds and the eigenbasis attains both.  The residual
    is the distance of the table's ``least`` and ``most`` quotient from min
    lambda and max lambda, relative to max lambda.
    """
    table, (lo, hi) = _table(space), space.values[[0, -1]]
    worst = np.maximum(np.abs(table.least - lo), np.abs(table.most - hi)) / hi
    samples = space.values.size + 2 * (space.values.size - 1) * PROBE_ANGLES.size
    return _report("rayleigh_bounds", samples, worst, POINT_TOL)


def check_min_attained(space: TruncatedQuadraticSpace) -> VerificationReport:
    """Minimizers of the Rayleigh quotient are exactly the min-eigenvalue group.

    (a) The group's eigenvectors attain lo = min lambda.  (b) A unit vector
    with mass m outside the group exceeds lo by at least gap * m, where gap
    is the distance to the second-smallest value.  Both hold for every x of
    a diagonal form, so the check reads (a) on the eigenbasis and (b) on the
    probes cos theta e_lo + sin theta e_mu, m = sin^2 theta, for every other
    value mu.  Each residual is relative to the largest eigenvalue of its quotient.
    """
    if space.dimension < 2:
        raise PreconditionError("need dimension >= 2")
    samples = 1 + (space.values.size - 1) * PROBE_ANGLES.size
    return _report("min_attained", samples, _table(space).attained, POINT_TOL)


# ---------------------------------------------------------------------------
# Operator checks on 2 x 2 rotation probes
# ---------------------------------------------------------------------------

def plasticity_map(lambdas, u: np.ndarray) -> np.ndarray:
    """T = A^{-1/2} U A^{1/2} for diagonal A: automatically form-preserving.
    Broadcasts over leading axes: lambdas (..., n) with u (..., n, n)."""
    lam = np.asarray(lambdas, dtype=float)
    return (lam[..., :, None] ** -0.5) * u * (lam[..., None, :] ** 0.5)


#: Eigenvalues whose pairs the finite-dimensional plasticity check probes.
FINITE_DIM_SPECTRUM = (0.5, 1.0, 1.5, 2.0, 2.5)


def _rotations() -> np.ndarray:
    """R_theta for every theta in ``PROBE_ANGLES``, shape (angles, 2, 2)."""
    cos, sin = np.cos(PROBE_ANGLES), np.sin(PROBE_ANGLES)
    return np.stack([cos, -sin, sin, cos], axis=-1).reshape(-1, 2, 2)


def _singular_values(t: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """(sigma_1, sigma_2) of each 2 x 2 t[..., :, :] in closed form (Blinn, IEEE CG&A 1996)."""
    a, b, c, d = t[..., 0, 0], t[..., 0, 1], t[..., 1, 0], t[..., 1, 1]
    sigma = (np.hypot(a + d, b - c) + np.hypot(a - d, b + c)) / 2
    return sigma, np.abs(a * d - b * c) / sigma


def _scaled_probes(pairs: np.ndarray) -> np.ndarray:
    """plasticity_map((lam, mu), R_theta) / kappa, kappa = sqrt(max / min), per pair
    and theta: (sqrt(min) / sqrt(lam_i)) R_ij (sqrt(lam_j) / sqrt(max)), no factor above 1."""
    root = np.sqrt(pairs).T  # pairs innermost, so that each product runs along them
    left, right = root.min(axis=0) / root, root / root.max(axis=0)
    return np.moveaxis(left[:, None] * _rotations()[..., None] * right[None, :], -1, 0)


def check_finite_dim_plasticity() -> VerificationReport:
    """Finite-dimensional shadow of ball plasticity for form-preserving maps.

    Every pair lam <= mu of ``FINITE_DIM_SPECTRUM``, equal pairs included, is
    rotated by every theta in ``PROBE_ANGLES``.  On each probe
    T = A^{-1/2} R_theta A^{1/2} with A = diag(lam, mu): (a) the quadratic
    form is preserved, T^T A T = A; (b) ||T|| >= 1 (det T = 1 forces a
    singular value >= 1), so no form-preserving map is a strict contraction;
    (c) a T with ||T|| <= 1 + NORM_SLACK has both singular values within
    tolerance of 1, i.e. is an isometry; (d) lam = mu gives ||T|| = 1.  The
    small angles put probes of unequal pairs into (c).  The palette does not
    depend on the input, so the report is computed once per process, keyed on
    every module name it reads (``PROBE_ANGLES``, which ``_rotations`` reads, by
    its bytes); rebinding one of them computes it afresh.
    """
    return _finite_dim_plasticity(plasticity_map, _singular_values, tuple(FINITE_DIM_SPECTRUM),
                                  PROBE_ANGLES.tobytes(), NORM_SLACK, OPERATOR_TOL)


@functools.lru_cache(maxsize=1)
def _finite_dim_plasticity(transform, singular_values, spectrum, angles, slack, tol):
    pairs = np.take(spectrum, np.transpose(np.triu_indices(len(spectrum))))
    t = transform(pairs[:, None, :], _rotations())  # (pairs, angles, 2, 2)
    norm, least = singular_values(t)
    a = pairs[:, None, :, None] * np.eye(2)
    residuals = [
        np.abs(np.swapaxes(t, -1, -2) @ a @ t - a).max(axis=(-2, -1)),
        1.0 - norm,
        np.where(norm <= 1.0 + slack, np.abs([norm - 1.0, least - 1.0]).max(axis=0), 0.0),
        np.where(pairs[:, :1] == pairs[:, 1:], np.abs(norm - 1.0), 0.0),
    ]
    return _report("finite_dim_plasticity", norm.size, np.max(residuals), tol)


def check_extremal_invariance(space: TruncatedQuadraticSpace) -> VerificationReport:
    """Form-preserving maps leave an extremal eigenspace only by expanding.

    Each extremal value lam (min and max) is paired with every other distinct
    value mu, and each pair's span is rotated by every theta in
    ``PROBE_ANGLES``.  With P the projector onto lam, the leak
    ||TP - PT|| = max(|T_01|, |T_10|) of a probe T and its norm
    sigma = ||T|| satisfy exactly (det T = 1, so sigma >= 1)

        sigma - 1/sigma = leak * |mu - lam| / max(lam, mu).

    So a T with ||T|| <= 1 + NORM_SLACK leaks at most about 2 NORM_SLACK max(lam, mu) /
    |mu - lam|: an accepted contraction leaves each extremal eigenspace invariant up to a
    bound set by the spectral gap (a Davis-Kahan sin-theta bound); close values mix freely.

    The table reads ``_scaled_probes`` T / kappa (1/sigma becomes kappa^-2 / (sigma / kappa)),
    in which the residual, the defect relative to sigma, is the same.  One value, no probe.
    """
    if space.dimension < 2:
        raise PreconditionError("need dimension >= 2")
    samples = 2 * (space.values.size - 1) * PROBE_ANGLES.size
    return _report("extremal_invariance", samples, _table(space).defect, OPERATOR_TOL)
