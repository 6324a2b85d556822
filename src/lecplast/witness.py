"""Witness operators certifying non-plastic verdicts.

Both constructions realize a linear map T that sends the ellipsoid onto
itself bijectively (the quadratic form is preserved) while strictly
contracting some direction, so T cannot be an isometry.

* ShiftWitness: a weighted bilateral shift on eigenvectors e_{n_k},
  T e_{n_k} = sqrt(lambda_{n_k}/lambda_{n_{k-1}}) e_{n_{k-1}}, identity off
  the chain.  The lambda chain decreases across k with a strict drop at
  k = 1, so the junction factor is < 1.

* TransportWitness: for a continuous spectral part, a bilateral quantile
  partition {Delta_k} of the support, per-cell transport maps
  G_k : Delta_{k+1} -> Delta_k, and multipliers
  g_hat_k(s) = sqrt(s / G_k^{-1}(s)) < 1 on Delta_k.  The cell map is
  (Tf)(t) = sqrt(G_k(t)/t) * f(G_k(t)) * sqrt(M_k/M_{k+1}) on Delta_{k+1}.

Truncation semantics: the true operators are bilateral; at window size K the
top chain slot (k = K for the shift, the last cell for the transport) has no
in-window preimage, so bijectivity probes must restrict supports accordingly.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field

import numpy as np

from .errors import CapacityError, PreconditionError, RangeError
from .measures import MeasureSpec, RestrictedMeasure, TransportMap, quadrature_nodes
from .plasticity import ComponentRef, Rule, ViolationCertificate
from .spectrum import ContinuousPart, Direction, EigenSequence, SpectralDescriptor

#: Basis label: (component kind, component index, ordinal or term index).
BasisLabel = tuple[str, int, int]


@dataclass(frozen=True, eq=False)
class ShiftWitness:
    """Weighted bilateral shift on the eigenvector chain e_{n_k}, |k| <= K."""

    window: int
    lambdas: np.ndarray  # position k + window holds lambda_{n_k}
    basis_labels: tuple[BasisLabel, ...]
    r: float
    R: float
    rule: Rule
    factors: np.ndarray = field(init=False)  # position k + window - 1 holds factor(k)
    #: Weight of x_k^2 in the image form, lambda_{n_{k-1}} * (lambda_{n_k}/lambda_{n_{k-1}}),
    #: at position k + window - 1.
    image_weights: np.ndarray = field(init=False)

    def __post_init__(self):
        K = self.window
        lam = np.asarray(self.lambdas, dtype=float)
        object.__setattr__(self, "lambdas", lam)
        if K < 1 or lam.shape != (2 * K + 1,):
            raise PreconditionError("lambda chain must cover k = -K..K")
        if not (lam > 0).all():
            raise PreconditionError("eigenvalues must be positive")
        if not (np.diff(lam) <= 0).all():
            raise PreconditionError("lambda chain must be non-increasing in k")
        if not lam[K + 1] < lam[K]:
            raise PreconditionError("the junction drop lambda_{n_1} < lambda_{n_0} failed")
        if not (lam[K + 1 :] < 0.5 * (self.r + self.R)).all():
            raise PreconditionError("forward chain must stay below (r + R)/2")
        if len(set(self.basis_labels)) != len(self.basis_labels) or len(
            self.basis_labels
        ) != len(lam):
            raise PreconditionError("basis labels must be distinct, one per chain slot")
        ratios = lam[1:] / lam[:-1]
        object.__setattr__(self, "factors", np.sqrt(ratios))
        object.__setattr__(self, "image_weights", lam[:-1] * ratios)

    def factor(self, k: int) -> float:
        """sqrt(lambda_{n_k}/lambda_{n_{k-1}}) for k in -K+1..K."""
        if not -self.window + 1 <= k <= self.window:
            raise RangeError(f"factor index {k} outside window")
        return float(self.factors[k + self.window - 1])

    def apply(self, window_coeffs):
        """Shift window coefficients down one slot, along the last axis.

        Slot k = K receives 0: its in-chain source sits outside the window.
        """
        x = np.asarray(window_coeffs, dtype=float)
        if x.shape[-1:] != self.lambdas.shape:
            raise RangeError("coefficient vectors must cover k = -K..K")
        out = np.zeros_like(x)
        out[..., :-1] = self.factors * x[..., 1:]
        return out

    def form(self, window_coeffs):
        """Quadratic form <x, Ax> of window coefficients, along the last axis."""
        x = np.asarray(window_coeffs, dtype=float)
        return np.sum(np.multiply(t := self.lambdas * x, x, out=t), axis=-1)

    def form_of_image(self, window_coeffs):
        """<Tx, ATx> evaluated with exact eigenvalue ratios, along the last axis.

        Weighs slot k by ``image_weights``, lambda_{n_{k-1}} *
        (lambda_{n_k}/lambda_{n_{k-1}}), not by the rounded square of
        factor(k), so the preservation identity holds to machine precision.
        """
        x = np.asarray(window_coeffs, dtype=float)[..., 1:]
        return np.sum(np.multiply(t := self.image_weights * x, x, out=t), axis=-1)


def _first_geometric_index(seq: EigenSequence, threshold: float) -> int:
    """Smallest j >= 1 with offset * ratio**j < threshold."""
    if not threshold > 0:
        raise CapacityError("sequence cannot reach the requested side")
    estimate = max(1, math.floor(math.log(threshold / seq.offset) / math.log(seq.ratio)))
    j = max(1, estimate - 2)
    while not seq.offset * seq.ratio**j < threshold:
        j += 1
    while j > 1 and seq.offset * seq.ratio ** (j - 1) < threshold:
        j -= 1
    return j


def _component_chain(
    d: SpectralDescriptor, ref: ComponentRef, count: int, bound: float
) -> tuple[np.ndarray, list[BasisLabel]]:
    """``count`` eigenvalues of component ``ref`` strictly past ``bound``.

    An atom repeats its value over distinct ordinals 0..count-1; a sequence
    gives its earliest terms between ``bound`` and its limit, in index order.
    """
    kind, index = ref
    if kind == "atom":
        atom = d.atoms[index]
        if not atom.is_infinite and count > atom.multiplicity:
            raise CapacityError(
                f"eigenspace at {atom.value} holds {atom.multiplicity} vectors, "
                f"needs {count}"
            )
        return np.full(count, atom.value), [("atom", index, o) for o in range(count)]
    seq = d.sequences[index]
    gap = seq.limit - bound if seq.direction is Direction.INCREASING else bound - seq.limit
    first = _first_geometric_index(seq, gap)
    labels = [("sequence", index, j) for j in range(first, first + count)]
    return seq.terms(count, first=first), labels


def build_shift_witness(
    d: SpectralDescriptor, cert: ViolationCertificate, K: int
) -> ShiftWitness:
    """Populate the lambda chain for an eigenvalue-rule certificate.

    The certificate's first component (at r) fills the forward slots
    k = 1..K with eigenvalues below (r + R)/2, descending toward r.  Its
    second component (at R) fills the backward slots k = 0, -1, ..., -K with
    eigenvalues above lambda_{n_1}, climbing toward R; that side is then
    reversed into ascending k.
    """
    if K < 1:
        raise PreconditionError(f"window must be >= 1, got {K}")
    if cert.rule is Rule.CONTINUOUS:
        raise PreconditionError("continuous certificates take the transport witness")
    fwd, fwd_labels = _component_chain(d, cert.components[0], K, 0.5 * (cert.r + cert.R))
    back, back_labels = _component_chain(d, cert.components[1], K + 1, fwd[0])
    return ShiftWitness(
        window=K,
        lambdas=np.concatenate([back[::-1], fwd]),
        basis_labels=tuple(back_labels[::-1] + fwd_labels),
        r=cert.r,
        R=cert.R,
        rule=cert.rule,
    )


# ---------------------------------------------------------------------------
# Transport witness
# ---------------------------------------------------------------------------

def partition_levels(K: int) -> np.ndarray:
    """Cumulative levels s_k, k = -K..K: 2**(k-1) below, 1 - 2**(-k-1) above.

    s_0 = 1/2, s_1 = 3/4; the bilateral limits are 0 and 1, so every cell
    keeps a fixed fraction of the total mass regardless of density gaps.
    """
    k = np.arange(-K, K + 1)
    return np.where(k <= 0, 2.0 ** (k - 1.0), 1.0 - 2.0 ** (-k - 1.0))


def build_partition(m: MeasureSpec | RestrictedMeasure, K: int) -> np.ndarray:
    """Quantile partition endpoints a_k = quantile(M * s_k), k = -K..K."""
    if K < 1:
        raise PreconditionError(f"window must be >= 1, got {K}")
    return m.quantile(m.total_mass * partition_levels(K))


@dataclass(frozen=True, eq=False)
class TransportWitness:
    """Measure-transport witness over a bilateral quantile partition.

    Cells Delta_k = [a_k, a_{k+1}) for k = -K..K-1 are one stack of 2K
    windows of the measure, ``cells``, whose row p is cell k = p - K; their
    masses come from one cdf call on the endpoints.  ``maps`` is the stack
    of the 2K - 1 maps G_k = G_{mu_k, mu_{k+1}} : Delta_{k+1} -> Delta_k,
    k = -K..K-2, row p again for k = p - K.  ``cell(k)`` and ``map(k)`` are
    one-window views of a row; a stacked call runs every cell at once.
    """

    measure: MeasureSpec
    window: int
    endpoints: np.ndarray
    cells: RestrictedMeasure = field(init=False)
    masses: np.ndarray = field(init=False)
    maps: TransportMap = field(init=False)

    def __post_init__(self):
        K = self.window
        pts = np.asarray(self.endpoints, dtype=float)
        object.__setattr__(self, "endpoints", pts)
        if K < 1 or pts.shape != (2 * K + 1,):
            raise PreconditionError("endpoints must cover k = -K..K")
        if not (np.diff(pts) > 0).all():
            raise PreconditionError("partition endpoints must increase strictly")
        cells = self.measure.restrict(pts[:-1], pts[1:])
        object.__setattr__(self, "cells", cells)
        object.__setattr__(self, "masses", cells.total_mass)
        object.__setattr__(self, "maps", TransportMap(cells[:-1], cells[1:]))

    def _cell_pos(self, k: int, need_successor: bool = False) -> int:
        hi = self.window - (2 if need_successor else 1)
        if not -self.window <= k <= hi:
            raise RangeError(f"cell index {k} outside window")
        return k + self.window

    def cell(self, k: int) -> RestrictedMeasure:
        return self.cells[self._cell_pos(k)]

    def cell_mass(self, k: int) -> float:
        return float(self.masses[self._cell_pos(k)])

    def map(self, k: int) -> TransportMap:
        """G_k : Delta_{k+1} -> Delta_k."""
        return self.maps[self._cell_pos(k, need_successor=True)]

    def multiplier_squared(self, k: int | None, s):
        """g_hat_k(s)^2 = s / G_k^{-1}(s) on the closed cell Delta_k.

        With ``k=None``, every cell with a successor at once: row p of s
        lies in cell k = p - K.
        """
        if k is None:
            cells, maps = self.cells[:-1], self.maps
        else:
            p = self._cell_pos(k, need_successor=True)
            cells, maps = self.cells[p], self.maps[p]
        s = np.asarray(s, dtype=float)
        outside = cells.outside(s)
        if outside.any():
            if k is None:
                k = int(np.argwhere(outside)[0][0]) - self.window
            raise RangeError(f"multiplier argument outside cell {k}")
        return s / maps.inverse(s)

    def multiplier(self, k: int | None, s):
        return np.sqrt(self.multiplier_squared(k, s))

    def apply(self, f_values, k: int, nodes=None):
        """Transport node samples on Delta_k to the matching nodes of Delta_{k+1}.

        Inverse-transform nodes of adjacent cells sit at the same relative
        mass levels, so G_k carries node i of Delta_{k+1} onto node i of
        Delta_k (up to quantile tolerance); the input samples line up by
        index while the multiplier is evaluated through the transport map.
        """
        f_values = np.asarray(f_values, dtype=float)
        p = self._cell_pos(k, need_successor=True)
        target = self.cells[p + 1]
        if nodes is None:
            nodes, _ = quadrature_nodes(target, None, f_values.size)
        else:
            nodes = np.asarray(nodes, dtype=float)
            if nodes.size != f_values.size:
                raise RangeError("node and sample counts differ")
            if target.outside(nodes).any():
                raise RangeError(f"node outside cell {k + 1}")
        pulled_back = self.maps[p](nodes)
        mass_ratio = self.masses[p] / self.masses[p + 1]
        return np.sqrt(pulled_back / nodes) * math.sqrt(mass_ratio) * f_values


def fitting_window(K: int, bad: np.ndarray, what: str) -> str:
    """Name the largest window K' < K that holds none of the ``bad`` steps.

    Step p (endpoints p, p + 1, which bound cell k = p - K) lies in window
    K' iff K - K' <= p < K + K'; the windows are nested in K.
    """
    largest = int(np.maximum(K - bad, bad - K + 1).min()) - 1
    if largest:
        return f"the largest window with {what} is K={largest}"
    return f"no window has {what}"


def build_transport_witness(part: ContinuousPart, K: int) -> TransportWitness:
    """Partition the part's measure and wire up per-cell transports.

    Raises ``CapacityError`` when floating point cannot hold 2K + 1 distinct
    endpoints, naming the largest window that can: levels are nested in K,
    window K' taking the middle 2K' + 1 of them.
    """
    m = MeasureSpec(part)
    endpoints = build_partition(m, K)
    collided = np.nonzero(~(np.diff(endpoints) > 0))[0]
    if collided.size:
        raise CapacityError(
            f"partition endpoints of window K={K} collide in floating point; "
            + fitting_window(K, collided, "distinct endpoints")
        )
    return TransportWitness(measure=m, window=K, endpoints=endpoints)


# ---------------------------------------------------------------------------
# Serialization (report JSON)
# ---------------------------------------------------------------------------

def shift_witness_to_dict(w: ShiftWitness) -> dict:
    return {
        "type": "shift",
        "rule": w.rule.value,
        "window": w.window,
        "r": w.r,
        "R": w.R,
        "lambdas": [float(v) for v in w.lambdas],
        "factors": [float(v) for v in w.factors],
        "basis_labels": [list(label) for label in w.basis_labels],
    }


#: Evenly spaced nodes per cell in the ``--full`` multiplier tables.
MULTIPLIER_NODES = 33


def transport_witness_to_dict(w: TransportWitness, full: bool = False) -> dict:
    doc = {
        "type": "transport",
        "window": w.window,
        "support": list(w.measure.support),
        "total_mass": w.measure.total_mass,
        "endpoints": [float(v) for v in w.endpoints],
        "masses": [float(v) for v in w.masses],
    }
    if full:
        lo, hi = w.maps.source.support
        s = np.linspace(lo, hi, MULTIPLIER_NODES, axis=-1)
        multipliers = w.multiplier(None, s)
        doc["multiplier_tables"] = [
            {
                "cell": p - w.window,
                "nodes": [float(v) for v in row],
                "multiplier": [float(v) for v in mult],
            }
            for p, (row, mult) in enumerate(zip(s, multipliers))
        ]
    return doc


def witness_to_dict(w, full: bool = False) -> dict:
    if isinstance(w, ShiftWitness):
        return shift_witness_to_dict(w)
    return transport_witness_to_dict(w, full=full)
