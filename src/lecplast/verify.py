"""Numerical verification of witness and spectral-bound properties.

Every check is deterministic given (inputs, seed, node counts).  Only the
transport checks draw: they take all their samples in one draw from a
counter-based Philox generator keyed by the check's seed, so no check's
result depends on which checks ran before it, and read each sample's sums
as quadratic forms in its cubics' coefficients, off per-cell Gram matrices
built once per witness.  Every point-side check is exact and draws nothing;
it only records its seed.  The shift checks read the witness's per-slot
coefficients; the Rayleigh-quotient checks read the eigenbasis and the
probes cos theta e_lam + sin theta e_mu, theta in ``PROBE_ANGLES``, of
extremal pairs of eigenvalues; the two operator checks, finite-dimensional
plasticity and extremal invariance, share 2 x 2 rotation probes over the
same angles.

Shift-witness identities are exact-arithmetic paths (thresholds 1e-12);
transport identities go through quadrature (1e-5 for densities, 1e-3 when a
Cantor part participates).  A point-side residual is relative to the
largest eigenvalue it involves, so its verdict does not change when A is
scaled; a transport form residual is relative to q(x).  Residuals are
reduced with np.max, np.maximum and np.minimum, which keep NaN, so a
non-finite residual fails its check.
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
#: Rotation angles of the point-side probes, pi/2 down to 1.6e-12 in decades:
#: on a pair with gap/sqrt(lam mu) between about 2e-10 and 120, the ladder
#: holds operator probes on both sides of ||T|| = 1 + NORM_SLACK.
PROBE_ANGLES = np.pi / 2 * 10.0 ** -np.arange(13)


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
    """|q(Tx) - q(x)| over inputs supported inside the window.

    On a shift both forms are diagonal, so the supremum over unit x is the
    largest per-slot defect |image_weights_k - lambda_{n_k}| over the slots
    k = -K+1..K (slot -K maps outside the window), each relative to
    lambda_{n_{k-1}}, the larger eigenvalue of the slot.  Nothing is drawn
    and ``samples`` is unused.  Transport inputs are ``samples`` random
    cubics per cell (``_TransportTables``), and their residual is relative
    to q(x).
    """
    if isinstance(op, ShiftWitness):
        defect = np.abs(op.image_weights - op.lambdas[1:]) / op.lambdas[:-1]
        return _report("form_preservation", defect.size, np.max(defect), SHIFT_TOL, seed)

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
    """(||Tx|| - ||x||)/||x||, at most 0 for a non-expansive T.

    A shift's supremum over x is its largest factor minus 1; nothing is
    drawn and ``samples`` is unused.  Transport inputs are ``samples``
    random cubics per cell.
    """
    if isinstance(op, ShiftWitness):
        return _report("nonexpansive", op.factors.size, np.max(op.factors) - 1.0, SHIFT_TOL, seed)

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

def _extremal_pairs(values: np.ndarray, ends) -> np.ndarray:
    """(lam, mu) for each lam in ``ends`` and every other distinct value mu."""
    return np.array([(lam, mu) for lam in ends for mu in values if mu != lam]).reshape(-1, 2)


def _probe_quotients(pairs: np.ndarray) -> np.ndarray:
    """Quotients lam cos^2 theta + mu sin^2 theta of cos theta e_lam + sin theta e_mu.

    One row per (lam, mu) pair, one column per theta in ``PROBE_ANGLES``.
    """
    return pairs[:, :1] * np.cos(PROBE_ANGLES) ** 2 + pairs[:, 1:] * np.sin(PROBE_ANGLES) ** 2


def check_rayleigh_bounds(space: TruncatedQuadraticSpace, seed: int = 0) -> VerificationReport:
    """Rayleigh quotients span exactly [min lambda, max lambda].

    For a diagonal form q(x)/|x|^2 = sum_v w_v v is a convex combination of
    the distinct eigenvalues v (w_v the share of |x|^2 in Ker(A - v)), so no
    quotient escapes the bounds and the eigenbasis attains both.  The check
    reads the quotients of the eigenbasis, which are the distinct values,
    and of every extremal-pair probe: lam the min or the max and mu any other
    value.  Its residual is the distance of the smallest and the largest
    quotient from min lambda and max lambda, relative to max lambda.  It
    draws nothing; ``seed`` is only recorded.
    """
    lam = space.lambdas
    values = np.unique(lam)
    quotients = np.concatenate(
        [values, _probe_quotients(_extremal_pairs(values, values[[0, -1]])).ravel()]
    )
    lo, hi = lam.min(), lam.max()
    worst = np.maximum(np.abs(quotients.min() - lo), np.abs(quotients.max() - hi)) / hi
    return _report("rayleigh_bounds", quotients.size, worst, SPACE_TOL, seed)


def check_min_attained(space: TruncatedQuadraticSpace, seed: int = 0) -> VerificationReport:
    """Minimizers of the Rayleigh quotient are exactly the min-eigenvalue group.

    (a) The group's eigenvectors attain lo = min lambda.  (b) A unit vector
    with mass m outside the group exceeds lo by at least gap * m, where gap
    is the distance to the second-smallest value.  Both hold for every x of
    a diagonal form, so the check reads (a) on the eigenbasis and (b) on the
    probes cos theta e_lo + sin theta e_mu, m = sin^2 theta, for every other
    value mu.  Each residual is relative to the largest eigenvalue of its
    quotient.  The check draws nothing; ``seed`` is only recorded.
    """
    if space.dimension < 2:
        raise PreconditionError("need dimension >= 2")
    lo = space.lambdas.min()
    values = np.unique(space.lambdas)
    residuals = np.abs(values[:1] - lo) / lo  # (a)
    if values.size > 1:
        pairs = _extremal_pairs(values, values[:1])
        excess = _probe_quotients(pairs) - lo
        violation = (values[1] - lo) * np.sin(PROBE_ANGLES) ** 2 - excess
        residuals = np.append(residuals, violation / pairs[:, 1:])
    return _report("min_attained", residuals.size, np.max(residuals), SPACE_TOL, seed)


# ---------------------------------------------------------------------------
# Operator checks on 2 x 2 rotation probes
# ---------------------------------------------------------------------------

def plasticity_map(lambdas, u: np.ndarray) -> np.ndarray:
    """T = A^{-1/2} U A^{1/2} for diagonal A: automatically form-preserving.

    Broadcasts over leading axes: lambdas (..., n) with u (..., n, n).
    """
    lam = np.asarray(lambdas, dtype=float)
    return (lam[..., :, None] ** -0.5) * u * (lam[..., None, :] ** 0.5)


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
    t, singular, lam, mu = _rotation_probes(_extremal_pairs(values, values[[0, -1]]))
    sigma = singular[:, 0]
    leak = np.maximum(np.abs(t[:, 0, 1]), np.abs(t[:, 1, 0]))
    gap = np.abs(mu - lam) / np.maximum(lam, mu)
    defect = np.abs(sigma - 1.0 / sigma - leak * gap) / sigma
    return _report("extremal_invariance", len(t), np.max(defect, initial=0.0), OPERATOR_TOL, seed)
