"""Numerical verification of witness and spectral-bound properties.

Every check is deterministic given (inputs, seed, node counts): sampling
runs on a counter-based Philox generator keyed by the check's seed, so no
check's result depends on which checks ran before it.

Shift-witness identities are exact-arithmetic paths (thresholds 1e-12);
transport identities go through quadrature (1e-5 for densities, 1e-3 when a
Cantor part participates).  Residuals are reduced with np.maximum and
np.minimum, which keep NaN, so a non-finite residual fails its check.
"""

from __future__ import annotations

import weakref
from dataclasses import dataclass, field

import numpy as np

from .errors import PreconditionError
from .measures import quadrature_nodes
from .spectrum import PartKind, SpectralDescriptor, enumerate_points
from .witness import ShiftWitness, TransportWitness

SHIFT_TOL = 1e-12
DENSITY_TOL = 1e-5
CANTOR_TOL = 1e-3
CONTRACTION_MARGIN = 1e-6
SPACE_TOL = 1e-12
OPERATOR_TOL = 1e-8
#: Acceptance band for contraction candidates: ||T|| <= 1 + this.
NORM_SLACK = 1e-10


def _rng(seed: int) -> np.random.Generator:
    return np.random.Generator(np.random.Philox(np.random.SeedSequence(seed)))


@dataclass(frozen=True)
class VerificationReport:
    name: str
    samples: int
    worst_residual: float
    threshold: float
    passed: bool
    seed: int

    def to_dict(self) -> dict:
        return {
            "name": self.name,
            "samples": self.samples,
            "worst_residual": self.worst_residual,
            "threshold": self.threshold,
            "pass": self.passed,
            "seed": self.seed,
        }


def _report(name, samples, worst, threshold, seed) -> VerificationReport:
    worst = float(worst)
    return VerificationReport(name, samples, worst, threshold, worst <= threshold, seed)


# ---------------------------------------------------------------------------
# Truncated quadratic-form space
# ---------------------------------------------------------------------------

@dataclass(frozen=True, eq=False)
class TruncatedQuadraticSpace:
    """Diagonal model of <x, Ax> on a finite eigenvalue truncation.

    Holds the quadratic form q(x) = <x, Ax> and the index groups Ker(A - t).
    """

    points: tuple[tuple[float, int], ...]
    lambdas: np.ndarray = field(init=False)

    def __post_init__(self):
        pts = tuple((float(v), int(m)) for v, m in self.points)
        if not pts:
            raise PreconditionError("the truncation is empty")
        if any(v <= 0 or m < 1 for v, m in pts):
            raise PreconditionError("eigenvalues must be positive with multiplicity >= 1")
        object.__setattr__(self, "points", pts)
        lam = np.repeat([v for v, _ in pts], [m for _, m in pts]).astype(float)
        object.__setattr__(self, "lambdas", lam)

    @classmethod
    def from_descriptor(
        cls, d: SpectralDescriptor, per_sequence: int = 8, replication: int | None = None
    ) -> "TruncatedQuadraticSpace":
        return cls(tuple(enumerate_points(d, per_sequence, replication)))

    @property
    def dimension(self) -> int:
        return self.lambdas.size

    def form(self, x) -> float:
        x = np.asarray(x, dtype=float)
        return float(np.sum(self.lambdas * x * x))

    def group(self, value: float) -> np.ndarray:
        return np.nonzero(self.lambdas == value)[0]


# ---------------------------------------------------------------------------
# Witness checks
# ---------------------------------------------------------------------------

def _transport_tol(w: TransportWitness) -> float:
    return CANTOR_TOL if w.measure.part.kind is PartKind.CANTOR else DENSITY_TOL


class _TransportTables:
    """Per-cell quadrature data shared by the transport checks.

    ``nodes[p]`` and ``du[p]`` hold the inverse-transform nodes of cell p and
    their mass step, one set for each of the 2K cells.  Each cell with a
    successor (p < 2K - 1) also gets the transported successor nodes
    ``pulled[p] = G_p(nodes[p + 1])``, the squared multiplier
    ``gsq[p] = pulled[p] / nodes[p + 1]`` and the image mass step
    ``image_du[p] = du[p + 1] * M_p / M_{p+1}``.  The table keeps no
    reference to the witness.
    """

    def __init__(self, w: TransportWitness, nodes: int):
        self.nodes, self.du = zip(*(quadrature_nodes(cell, None, nodes) for cell in w.cells))
        successors = self.nodes[1:]
        self.pulled = [g(t) for g, t in zip(w.maps, successors)]
        self.gsq = [g / t for g, t in zip(self.pulled, successors)]
        self.image_du = [
            du * (w.masses[p] / w.masses[p + 1]) for p, du in enumerate(self.du[1:])
        ]

    def random_functions(self, rng, degree: int = 3):
        """One random polynomial per source cell, in cell-local coordinates."""
        funcs = []
        for x in self.nodes[:-1]:
            coeffs = rng.normal(size=degree + 1)
            lo = x[0]
            span = x[-1] - lo

            def f(t, coeffs=coeffs, lo=lo, span=span):
                return np.polynomial.polynomial.polyval((t - lo) / span, coeffs)

            funcs.append(f)
        return funcs

    @staticmethod
    def weighted_sum(funcs, at, weights, scales) -> float:
        """sum_p scales[p] * sum_i weights[p][i] * funcs[p](at[p][i])**2."""
        return sum(
            scale * float(np.sum(weight * f(x) ** 2))
            for f, x, weight, scale in zip(funcs, at, weights, scales)
        )


#: Tables by witness, then by node count; an entry goes when its witness does.
_TABLES: weakref.WeakKeyDictionary = weakref.WeakKeyDictionary()


def _tables(w: TransportWitness, nodes: int) -> _TransportTables:
    """The witness's table at ``nodes`` nodes per cell, built on first use.

    Tables live as long as their witness, so all transport checks on one
    witness share a single build.
    """
    by_nodes = _TABLES.setdefault(w, {})
    if nodes not in by_nodes:
        by_nodes[nodes] = _TransportTables(w, nodes)
    return by_nodes[nodes]


def check_form_preservation(
    op: ShiftWitness | TransportWitness,
    samples: int = 200,
    seed: int = 0,
    nodes: int = 4096,
) -> VerificationReport:
    """|q(Tx) - q(x)| over random inputs supported inside the window."""
    rng = _rng(seed)
    worst = 0.0
    if isinstance(op, ShiftWitness):
        for _ in range(samples):
            x = rng.normal(size=op.lambdas.size)
            x[0] = 0.0  # slot k = -K maps outside the window
            x /= np.linalg.norm(x)
            worst = np.maximum(worst, abs(op.form_of_image(x) - op.form(x)))
        return _report("form_preservation", samples, worst, SHIFT_TOL, seed)

    tables = _tables(op, nodes)
    image_weights = [t * g for t, g in zip(tables.nodes[1:], tables.gsq)]
    for _ in range(samples):
        funcs = tables.random_functions(rng)
        q = tables.weighted_sum(funcs, tables.nodes, tables.nodes, tables.du)
        image = tables.weighted_sum(funcs, tables.pulled, image_weights, tables.image_du)
        worst = np.maximum(worst, abs(image - q) * (1.0 / q))
    return _report("form_preservation", samples, worst, _transport_tol(op), seed)


def check_nonexpansive(
    op: ShiftWitness | TransportWitness,
    samples: int = 200,
    seed: int = 0,
    nodes: int = 4096,
) -> VerificationReport:
    """(||Tx|| - ||x||)/||x|| over random inputs; shifts also need factors <= 1."""
    rng = _rng(seed)
    worst = -np.inf
    if isinstance(op, ShiftWitness):
        for _ in range(samples):
            x = rng.normal(size=op.lambdas.size)
            norm = np.linalg.norm(x)
            image = op.apply(x)
            worst = np.maximum(worst, (np.linalg.norm(image) - norm) / norm)
        worst = np.maximum(worst, float(op.factors.max()) - 1.0)
        return _report("nonexpansive", samples, worst, SHIFT_TOL, seed)

    tables = _tables(op, nodes)
    unit = [1.0] * len(tables.gsq)
    for _ in range(samples):
        funcs = tables.random_functions(rng)
        norm = tables.weighted_sum(funcs, tables.nodes, unit, tables.du) ** 0.5
        image = tables.weighted_sum(funcs, tables.pulled, tables.gsq, tables.image_du) ** 0.5
        worst = np.maximum(worst, (image - norm) / norm)
    return _report("nonexpansive", samples, worst, DENSITY_TOL, seed)


def check_strict_contraction(
    op: ShiftWitness | TransportWitness, nodes: int = 4096, seed: int = 0
) -> VerificationReport:
    """Exhibit a unit direction with ||Tx|| <= 1 - delta, delta >= 1e-6.

    The report's residual is the exhibited contraction factor ||Tx||; the
    threshold 1 - 1e-6 encodes the required margin, so a witness with no
    contracting direction (a witness bug) yields a failing report.
    """
    if isinstance(op, ShiftWitness):
        factor = op.factor(1)  # ||T e_{n_1}||; the junction is the strict drop
    else:
        # Indicator of cell k = 0, or at K = 1 (where k = 0 has no successor)
        # of the last cell with one; every g_hat_k is below 1.
        gsq = _tables(op, nodes).gsq
        factor = float(np.mean(gsq[min(op.window, len(gsq) - 1)])) ** 0.5
    return _report("strict_contraction", 1, factor, 1.0 - CONTRACTION_MARGIN, seed)


def contraction_delta(report: VerificationReport) -> float:
    """delta = 1 - ||Tx|| recovered from a strict-contraction report."""
    return 1.0 - report.worst_residual


# ---------------------------------------------------------------------------
# Spectral-bound checks (Rayleigh quotients, minimizers)
# ---------------------------------------------------------------------------

def _unit_rows(rng, count: int, dim: int) -> np.ndarray:
    vectors = rng.normal(size=(count, dim))
    return vectors / np.linalg.norm(vectors, axis=1, keepdims=True)


#: Rows per block of random unit vectors in ``check_rayleigh_bounds``.
_RAYLEIGH_BLOCK = 1024


def check_rayleigh_bounds(
    space: TruncatedQuadraticSpace, samples: int = 10_000, seed: int = 0
) -> VerificationReport:
    """No Rayleigh quotient escapes [min lambda, max lambda].

    The sample set always contains the eigenbasis, which witnesses that the
    bounds are attained; for n <= 8 at >= 10^4 samples the sampled extrema
    must additionally approach the bounds within 5% of the spectral width.

    The ``samples`` random unit rows are drawn and reduced in blocks of
    ``_RAYLEIGH_BLOCK`` rows, so memory stays at O(_RAYLEIGH_BLOCK * n); the
    generator fills the same values as one (samples, n) draw, and every
    draw is read.  The eigenbasis rows are stacked under the last block
    instead of being replaced by their exact quotients lam: a BLAS
    matrix-vector kernel may round the last few rows of a matrix differently
    (OpenBLAS takes rows in fours and the remainder apart), and with the
    eigenbasis last every sample row meets the kernel it met in one
    (samples + n) x n product, on one BLAS thread.
    """
    if space.dimension < 1:
        raise PreconditionError("need dimension >= 1")
    rng = _rng(seed)
    lam = space.lambdas
    last = max(samples - 1, 0) // _RAYLEIGH_BLOCK * _RAYLEIGH_BLOCK  # start of the last block
    q_min, q_max = np.inf, -np.inf
    for start in range(0, last + 1, _RAYLEIGH_BLOCK):
        rows = _unit_rows(rng, min(_RAYLEIGH_BLOCK, samples - start), lam.size)
        if start == last:
            rows = np.vstack([rows, np.eye(lam.size)])
        quotients = (rows * rows) @ lam
        q_min = np.minimum(q_min, quotients.min())
        q_max = np.maximum(q_max, quotients.max())
    lo, hi = lam.min(), lam.max()
    worst = np.max([0.0, lo - q_min, q_max - hi])
    if space.dimension <= 8 and samples >= 10_000 and hi > lo:
        band = 0.05 * (hi - lo)
        worst = np.max([worst, q_min - (lo + band), (hi - band) - q_max])
    return _report("rayleigh_bounds", samples + lam.size, worst, SPACE_TOL, seed)


def check_min_attained(
    space: TruncatedQuadraticSpace, samples: int = 1000, seed: int = 0
) -> VerificationReport:
    """Minimizers of the Rayleigh quotient are exactly the min-eigenvalue group.

    (a) unit vectors inside the group attain the minimum; (b) any unit vector
    with mass m outside the group exceeds it by at least gap * m, where gap
    is the distance to the second-smallest eigenvalue.
    """
    if space.dimension < 2:
        raise PreconditionError("need dimension >= 2")
    rng = _rng(seed)
    lam = space.lambdas
    lo = lam.min()
    group = space.group(lo)
    worst = 0.0

    inside = np.zeros((samples, lam.size))
    inside[:, group] = _unit_rows(rng, samples, group.size)
    worst = np.maximum(worst, np.abs((inside * inside) @ lam - lo).max())

    distinct = np.unique(lam)
    if distinct.size > 1:
        gap = distinct[1] - lo
        mixed = _unit_rows(rng, samples, lam.size)
        quotients = (mixed * mixed) @ lam
        outside_mass = 1.0 - (mixed[:, group] ** 2).sum(axis=1)
        violation = (lo + gap * outside_mass) - quotients
        worst = np.maximum(worst, violation.max())
    return _report("min_attained", 2 * samples, worst, SPACE_TOL, seed)


# ---------------------------------------------------------------------------
# Finite-dimensional plasticity surrogate
# ---------------------------------------------------------------------------

def haar_orthogonal(n: int, rng: np.random.Generator) -> np.ndarray:
    return _haar_from_gaussian(rng.normal(size=(n, n)))


def _haar_from_gaussian(g: np.ndarray) -> np.ndarray:
    """U = Q * sign(diag R) for g = QR: Haar when g is Gaussian (Mezzadri 2007).

    Column 0 of U is exactly g[:, 0] / ||g[:, 0]||.
    """
    q, r = np.linalg.qr(g)
    return q * np.sign(np.diag(r))


def block_orthogonal(lambdas: np.ndarray, rng: np.random.Generator) -> np.ndarray:
    """Random orthogonal matrix that is block-diagonal w.r.t. eigenvalue groups."""
    lambdas = np.asarray(lambdas, dtype=float)
    u = np.zeros((lambdas.size, lambdas.size))
    for value in np.unique(lambdas):
        idx = np.nonzero(lambdas == value)[0]
        u[np.ix_(idx, idx)] = haar_orthogonal(idx.size, rng)
    return u


def plasticity_map(lambdas, u: np.ndarray) -> np.ndarray:
    """T = A^{-1/2} U A^{1/2} for diagonal A: automatically form-preserving."""
    lam = np.asarray(lambdas, dtype=float)
    return (lam[:, None] ** -0.5) * u * (lam[None, :] ** 0.5)


def operator_norm(matrix: np.ndarray) -> float:
    return float(np.linalg.norm(matrix, 2))


def _random_spectrum(n: int, rng: np.random.Generator) -> np.ndarray:
    if rng.random() < 0.5:
        lam = rng.choice([0.5, 1.0, 1.5, 2.0, 2.5], size=n)  # forces multiplicities
    else:
        lam = rng.uniform(0.5, 2.5, size=n)
    return np.sort(lam)


def check_finite_dim_plasticity(
    n: int, trials: int = 100, seed: int = 0
) -> VerificationReport:
    """Finite-dimensional shadow of ball plasticity for form-preserving maps.

    For sampled T = A^{-1/2} U A^{1/2}: (a) the quadratic form is preserved;
    (b) ||T|| >= 1 (|det T| = 1 forces a singular value >= 1), so no
    form-preserving map is a strict contraction; (c) any T with ||T|| <= 1
    is an isometry; (d) block-diagonal U gives ||T|| = 1.
    """
    if not 2 <= n <= 8:
        raise PreconditionError(f"dimension must be in [2, 8], got {n}")
    rng = _rng(seed)
    worst = 0.0
    for _ in range(trials):
        lam = _random_spectrum(n, rng)
        for u, is_block in ((haar_orthogonal(n, rng), False), (block_orthogonal(lam, rng), True)):
            t = plasticity_map(lam, u)
            x = _unit_rows(rng, 4, n)
            q_in = (x * x) @ lam
            q_out = ((x @ t.T) ** 2) @ lam
            worst = np.maximum(worst, np.abs(q_out - q_in).max())
            singulars = np.linalg.svd(t, compute_uv=False)
            norm = singulars.max()
            worst = np.maximum(worst, 1.0 - norm)
            if is_block:
                worst = np.maximum(worst, abs(norm - 1.0))
            if norm <= 1.0 + NORM_SLACK:
                worst = np.maximum(worst, np.abs(singulars - 1.0).max())
    return _report("finite_dim_plasticity", 2 * trials, worst, OPERATOR_TOL, seed)


def check_extremal_invariance(
    space: TruncatedQuadraticSpace, trials: int = 100, seed: int = 0
) -> VerificationReport:
    """Accepted contractions leave the extremal eigenspaces invariant.

    For each accepted T and each extremal group (min and max eigenvalue),
    the projector commutes with T and T restricted to the group is an
    isometry.  Each trial draws two candidates:

    * Block-diagonal U, one Haar block per distinct eigenvalue, ascending,
      as ``block_orthogonal`` draws it.  Its T is accepted by construction
      and commutes with every group projector exactly (TP - PT is 0.0 in
      floating point), so only its two extremal blocks are factored, each
      checked for isometry by an SVD of its own size.  The Gaussians of the
      middle blocks are drawn, in one call, only to keep the stream; they
      are never read.
    * General Haar U, accepted only if ||T|| <= 1 + NORM_SLACK.  Its
      Gaussian g is always drawn; column 0 of U is g[:, 0] / ||g[:, 0]||,
      which gives two O(n) lower bounds before any QR:
      ||T e_0||^2 = lam_0 sum_i u_i0^2 / lam_i on ||T||, and
      ||T^{-T} e_0||^2 = sum_i lam_i u_i0^2 / lam_0 on ||T^{-1}||.
      Since |det T| = |det U| = 1, the product of the singular values is 1,
      so ||T|| <= 1 + NORM_SLACK forces ||T^{-1}|| <= (1 + NORM_SLACK)^(n-1).
      A candidate whose bounds exceed these limits, each widened by a
      rounding margin, is rejected unfactored; with two or more distinct
      eigenvalues that happens almost surely.  A survivor (always, on a
      space with one distinct value) is factored; its largest column norm
      and then its exact norm decide acceptance, and an accepted candidate
      gets the dense commutator and isometry checks.
    """
    if space.dimension < 2:
        raise PreconditionError("need dimension >= 2")
    rng = _rng(seed)
    lam = space.lambdas
    n = lam.size
    values, sizes = np.unique(lam, return_counts=True)
    extremal = [space.group(values[0]), space.group(values[-1])]
    middle = int(np.sum(sizes[1:-1] ** 2))
    # The bounds read column 0 in exact form, the factored path reads LAPACK's
    # and rounds its norms; a few n * eps, scaled by the spread of the weights
    # lam_i / lam_0, covers the difference, so no candidate that the factored
    # path accepts is rejected here.
    margin = 1.0 + 16 * n * np.finfo(float).eps * (values[-1] / values[0])
    norm_limit = ((1.0 + NORM_SLACK) * margin) ** 2
    inverse_limit = ((1.0 + NORM_SLACK) ** (n - 1) * margin**n) ** 2
    worst = 0.0
    for _ in range(trials):
        ends = [(values[0], haar_orthogonal(sizes[0], rng))]
        if values.size > 1:
            rng.normal(size=middle)  # the middle blocks, never read
            ends.append((values[-1], haar_orthogonal(sizes[-1], rng)))
        for value, u in ends:
            block = plasticity_map(np.full(u.shape[0], value), u)
            worst = np.maximum(worst, np.abs(np.linalg.svd(block, compute_uv=False) - 1.0).max())
        g = rng.normal(size=(n, n))
        column = g[:, 0] / np.linalg.norm(g[:, 0])
        mass = column * column
        if lam[0] * np.sum(mass / lam) > norm_limit or np.sum(lam * mass) / lam[0] > inverse_limit:
            continue
        t = plasticity_map(lam, _haar_from_gaussian(g))
        column_bound = np.sqrt((t * t).sum(axis=0)).max()
        if column_bound > 1.0 + NORM_SLACK or operator_norm(t) > 1.0 + NORM_SLACK:
            continue
        for idx in extremal:
            projector = np.zeros((lam.size, lam.size))
            projector[idx, idx] = 1.0
            worst = np.maximum(worst, operator_norm(t @ projector - projector @ t))
            restricted = t[np.ix_(idx, idx)]
            singulars = np.linalg.svd(restricted, compute_uv=False)
            worst = np.maximum(worst, np.abs(singulars - 1.0).max())
    return _report("extremal_invariance", trials, worst, OPERATOR_TOL, seed)
