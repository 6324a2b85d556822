"""Numerical verification of witness and spectral-bound properties.

Every check is deterministic given (inputs, seed, node counts): the sampling
checks draw from a counter-based Philox generator keyed by the check's seed,
so no check's result depends on which checks ran before it.  The two
operator checks, finite-dimensional plasticity and extremal invariance,
draw nothing: they share one set of deterministic 2 x 2 rotation probes and
only record their seed.  The witness checks take all their samples in one
draw; a transport check reads each sample's sums as quadratic forms in its
cubics' coefficients, off per-cell Gram matrices built once per witness.

Shift-witness identities are exact-arithmetic paths (thresholds 1e-12);
transport identities go through quadrature (1e-5 for densities, 1e-3 when a
Cantor part participates).  Residuals are reduced with np.max, np.maximum
and np.minimum, which keep NaN, so a non-finite residual fails its check.
"""

from __future__ import annotations

import weakref
from dataclasses import dataclass, field

import numpy as np

from .errors import CapacityError, PreconditionError
from .measures import quadrature_nodes, row_blocks
from .spectrum import PartKind, SpectralDescriptor, enumerate_points
from .witness import ShiftWitness, TransportWitness, fitting_window

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
        cls, d: SpectralDescriptor, per_sequence: int = 8
    ) -> "TruncatedQuadraticSpace":
        return cls(tuple(enumerate_points(d, per_sequence)))

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

#: Coefficients of the random cubic that a transport check puts on a cell.
_COEFFS = 4


class _TransportTables:
    """Per-cell Gram matrices shared by the transport checks.

    The checks put a random cubic f(z) = sum_j c_j z^j on each cell p with a
    successor, in the coordinate z = (s - x_0) / (x_last - x_0) of the cell's
    inverse-transform nodes x (mass step du).  Each quadrature sum they read
    is then c^T G c with a Gram matrix G[j, l] = sum_i w_i z_i^(j + l):
    ``form[0, p]`` (the form of f) weighs the nodes x by x du, ``form[1, p]``
    (the form of Tf) the pulled nodes G_p(t) of cell p + 1 by
    t g^2 du_{p+1} M_p / M_{p+1}, with g^2 = G_p(t) / t.  ``norm_sq`` drops
    the factor x or t, and ``mean_gsq[p]`` is the mean of g^2.

    The nodes of all cells come from one stacked quadrature call and the
    pulled nodes from one stacked transport call; the sums run over blocks
    of whole rows, as those calls do.  A cell whose nodes are not strictly
    increasing raises ``CapacityError`` before anything is transported, as
    floating point cannot hold that many distinct points in it; a cell's
    nodes do not depend on K, so the message names the largest window that
    works.  No per-node array and no reference to the witness outlives the
    build.
    """

    def __init__(self, w: TransportWitness, nodes: int):
        K = w.window
        x, du = quadrature_nodes(w.cells, None, nodes)
        narrow = np.nonzero(~(np.diff(x, axis=1) > 0).all(axis=1))[0]
        if narrow.size:
            raise CapacityError(
                f"transport cell k={narrow[0] - K} at window K={K} is too narrow for "
                f"--nodes {nodes} distinct quadrature points; "
                + fitting_window(K, narrow, "distinct quadrature points")
            )
        image_du = du[1:] * (w.masses[:-1] / w.masses[1:])
        x, t, du = x[:-1], x[1:], du[:-1]  # cells with a successor, and the successors
        pulled = w.maps(t)
        moments = np.empty((2, 2, 2 * K - 1, 2 * _COEFFS - 1))  # kind, side, cell, order
        self.mean_gsq = np.empty(2 * K - 1)
        for rows in row_blocks(2 * K - 1, nodes):
            xs, ts, gs = x[rows], t[rows], pulled[rows]
            dus, image_dus = du[rows, None], image_du[rows, None]
            gsq = gs / ts
            z = (np.stack([xs, gs]) - xs[:, :1]) / (xs[:, -1:] - xs[:, :1])
            weights = np.stack([[xs * dus, ts * gsq * image_dus],
                                [np.broadcast_to(dus, xs.shape), gsq * image_dus]])
            power = np.ones_like(z)
            for order in range(2 * _COEFFS - 1):
                moments[:, :, rows, order] = (power * weights).sum(axis=-1)
                power = power * z
            self.mean_gsq[rows] = np.mean(gsq, axis=-1)
        j = np.arange(_COEFFS)
        self.form, self.norm_sq = moments[..., j[:, None] + j]  # Hankel: G[j, l] = m[j + l]


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


def _row_norms(x: np.ndarray) -> np.ndarray:
    """Row norms of x, each bit for bit equal to np.linalg.norm(row)."""
    # A (1, n) @ (n, 1) stack runs the dot kernel of a 1-D norm;
    # np.linalg.norm(x, axis=1) sums in another order.
    return np.sqrt((x[:, None, :] @ x[:, :, None])[:, 0, 0])


def _cubic_forms(gram: np.ndarray, samples: int, seed: int) -> np.ndarray:
    """(source, image) forms c^T G c of ``samples`` random cubics per cell."""
    # One draw reads the stream of a size-4 draw per cell, sample by sample.
    coeffs = _rng(seed).normal(size=(samples, gram.shape[1], _COEFFS))
    return np.einsum("scj,kcjl,scl->ks", coeffs, gram, coeffs)


def check_form_preservation(
    op: ShiftWitness | TransportWitness,
    samples: int = 200,
    seed: int = 0,
    nodes: int = 4096,
) -> VerificationReport:
    """|q(Tx) - q(x)| over random inputs supported inside the window.

    Transport inputs are random cubics per cell (``_TransportTables``), and
    their residual is relative to q(x).
    """
    if isinstance(op, ShiftWitness):
        x = _rng(seed).normal(size=(samples, op.lambdas.size))
        x[:, 0] = 0.0  # slot k = -K maps outside the window
        x /= _row_norms(x)[:, None]
        worst = np.max(np.abs(op.form_of_image(x) - op.form(x)), initial=0.0)
        return _report("form_preservation", samples, worst, SHIFT_TOL, seed)

    q, image = _cubic_forms(_tables(op, nodes).form, samples, seed)
    worst = np.max(np.abs(image - q) * (1.0 / q), initial=0.0)
    tol = CANTOR_TOL if op.measure.part.kind is PartKind.CANTOR else DENSITY_TOL
    return _report("form_preservation", samples, worst, tol, seed)


def check_nonexpansive(
    op: ShiftWitness | TransportWitness,
    samples: int = 200,
    seed: int = 0,
    nodes: int = 4096,
) -> VerificationReport:
    """(||Tx|| - ||x||)/||x|| over random inputs; shifts also need factors <= 1."""
    if isinstance(op, ShiftWitness):
        x = _rng(seed).normal(size=(samples, op.lambdas.size))
        norm = _row_norms(x)
        growth = (_row_norms(op.apply(x)) - norm) / norm
        worst = np.max(growth, initial=float(op.factors.max()) - 1.0)
        return _report("nonexpansive", samples, worst, SHIFT_TOL, seed)

    norm, image = _cubic_forms(_tables(op, nodes).norm_sq, samples, seed) ** 0.5
    worst = np.max((image - norm) / norm, initial=-np.inf)
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
        mean_gsq = _tables(op, nodes).mean_gsq
        factor = float(mean_gsq[min(op.window, len(mean_gsq) - 1)]) ** 0.5
    return _report("strict_contraction", 1, factor, 1.0 - CONTRACTION_MARGIN, seed)


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
# Operator checks on 2 x 2 rotation probes
# ---------------------------------------------------------------------------

def plasticity_map(lambdas, u: np.ndarray) -> np.ndarray:
    """T = A^{-1/2} U A^{1/2} for diagonal A: automatically form-preserving.

    Broadcasts over leading axes: lambdas (..., n) with u (..., n, n).
    """
    lam = np.asarray(lambdas, dtype=float)
    return (lam[..., :, None] ** -0.5) * u * (lam[..., None, :] ** 0.5)


#: Rotation angles of the operator probes, pi/2 down to 1.6e-12 in decades:
#: on a pair with gap/sqrt(lam mu) between about 2e-10 and 120, the ladder
#: holds probes on both sides of ||T|| = 1 + NORM_SLACK.
PROBE_ANGLES = np.pi / 2 * 10.0 ** -np.arange(13)

#: Eigenvalues whose pairs the finite-dimensional plasticity check probes.
FINITE_DIM_SPECTRUM = (0.5, 1.0, 1.5, 2.0, 2.5)


def _rotation_probes(pairs):
    """Rotate each (lam, mu) pair's span by every theta in ``PROBE_ANGLES``.

    Returns the (P, 2, 2) probes T = plasticity_map((lam, mu), R_theta),
    pair-major, their singular values (descending, from one batched SVD)
    and the lam and mu of each probe.
    """
    pairs = np.asarray(pairs, dtype=float).reshape(-1, 1, 2)
    cos, sin = np.cos(PROBE_ANGLES), np.sin(PROBE_ANGLES)
    rotations = np.stack([cos, -sin, sin, cos], axis=-1).reshape(-1, 2, 2)
    t = plasticity_map(pairs, rotations).reshape(-1, 2, 2)
    lam, mu = np.repeat(pairs[:, 0], PROBE_ANGLES.size, axis=0).T
    return t, np.linalg.svd(t, compute_uv=False), lam, mu


def check_finite_dim_plasticity(seed: int = 0) -> VerificationReport:
    """Finite-dimensional shadow of ball plasticity for form-preserving maps.

    Every pair lam <= mu of ``FINITE_DIM_SPECTRUM``, equal pairs included, is
    rotated through ``_rotation_probes``.  On each probe
    T = A^{-1/2} R_theta A^{1/2} with A = diag(lam, mu): (a) the quadratic
    form is preserved, T^T A T = A; (b) ||T|| >= 1 (det T = 1 forces a
    singular value >= 1), so no form-preserving map is a strict contraction;
    (c) a T with ||T|| <= 1 + NORM_SLACK has every singular value within
    tolerance of 1, i.e. is an isometry; (d) lam = mu gives ||T|| = 1.  The
    small angles put probes of unequal pairs into (c).  The check draws
    nothing; ``seed`` is only recorded.
    """
    values = FINITE_DIM_SPECTRUM
    t, singular, lam, mu = _rotation_probes(
        [(lam, mu) for i, lam in enumerate(values) for mu in values[i:]]
    )
    a = np.stack([lam, mu], axis=-1)[:, :, None] * np.eye(2)
    norm = singular[:, 0]
    residuals = [
        np.abs(np.swapaxes(t, 1, 2) @ a @ t - a).max(axis=(1, 2)),
        1.0 - norm,
        np.where(norm <= 1.0 + NORM_SLACK, np.abs(singular - 1.0).max(axis=1), 0.0),
        np.where(lam == mu, np.abs(norm - 1.0), 0.0),
    ]
    return _report("finite_dim_plasticity", len(t), np.max(residuals), OPERATOR_TOL, seed)


def check_extremal_invariance(
    space: TruncatedQuadraticSpace, seed: int = 0
) -> VerificationReport:
    """Form-preserving maps leave an extremal eigenspace only by expanding.

    Each extremal value lam (min and max) is paired with every other distinct
    value mu, and ``_rotation_probes`` rotates each pair's span by every
    theta in ``PROBE_ANGLES``.  With P the projector onto lam, the leak
    ||TP - PT|| = max(|T_01|, |T_10|) of a probe T and its norm
    sigma = ||T|| satisfy exactly (det T = 1, so sigma >= 1)

        sigma - 1/sigma = leak * |mu - lam| / max(lam, mu).

    So a T with ||T|| <= 1 + NORM_SLACK leaks at most about
    2 NORM_SLACK max(lam, mu) / |mu - lam|: an accepted contraction leaves
    each extremal eigenspace invariant up to a bound set by the spectral gap
    (a Davis-Kahan sin-theta bound), and close values may mix freely.

    The residual is the largest defect of the identity relative to sigma,
    since an SVD returns sigma to relative accuracy.  A space with one
    distinct value has no probe.  The check draws nothing; ``seed`` is only
    recorded.
    """
    if space.dimension < 2:
        raise PreconditionError("need dimension >= 2")
    values = np.unique(space.lambdas)
    t, singular, lam, mu = _rotation_probes(
        [(lam, mu) for lam in (values[0], values[-1]) for mu in values if mu != lam]
    )
    sigma = singular[:, 0]
    leak = np.maximum(np.abs(t[:, 0, 1]), np.abs(t[:, 1, 0]))
    gap = np.abs(mu - lam) / np.maximum(lam, mu)
    defect = np.abs(sigma - 1.0 / sigma - leak * gap) / sigma
    return _report("extremal_invariance", len(t), np.max(defect, initial=0.0), OPERATOR_TOL, seed)
