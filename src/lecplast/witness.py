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

from dataclasses import dataclass, field

import numpy as np

from .errors import CapacityError, PreconditionError, RangeError
from .measures import (AffineMap, CantorCells, MeasureSpec, RestrictedMeasure, TransportMap,
                       quadrature_nodes)
from .plasticity import ComponentRef, Rule, ViolationCertificate
from .spectrum import ContinuousPart, PartKind, SpectralDescriptor

#: Basis label: (component kind, component index, ordinal or term index).
BasisLabel = tuple[str, int, int]


@dataclass(frozen=True, eq=False)
class ShiftWitness:
    """Weighted bilateral shift on the eigenvector chain e_{n_k}, |k| <= K.

    T e_{n_k} = f_k e_{n_{k-1}}; a report publishes the lambda chain and the
    factors f_k, and the witness checks read only those.
    """

    window: int
    lambdas: np.ndarray  # position k + window holds lambda_{n_k}
    basis_labels: tuple[BasisLabel, ...]
    r: float
    R: float
    rule: Rule
    factors: np.ndarray = field(init=False)  # sqrt(lambda_{n_k}/lambda_{n_{k-1}}) at k + K - 1

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
        object.__setattr__(self, "factors", np.sqrt(lam[1:] / lam[:-1]))


def _strictly_past(value: float, bound: float, below: bool, what: str) -> None:
    """CapacityError unless the chain value nearest the bound lies strictly past it."""
    if not (value < bound if below else value > bound):
        raise CapacityError(f"no float value of {what} lies strictly "
                            f"{'below' if below else 'above'} the chain bound {bound!r}; "
                            "floating point rounds the two together")


def _component_chain(
    d: SpectralDescriptor, ref: ComponentRef, count: int, bound: float, below: bool
) -> tuple[np.ndarray, list[BasisLabel]]:
    """``count`` eigenvalues of component ``ref`` strictly below (or above) ``bound``.

    An atom repeats its value over distinct ordinals 0..count-1; a sequence
    gives its earliest terms between ``bound`` and its limit, in index order,
    so its first term is the one nearest the bound.
    """
    kind, index = ref
    if kind == "atom":
        atom = d.atoms[index]
        if not atom.is_infinite and count > atom.multiplicity:
            raise CapacityError(
                f"eigenspace at {atom.value} holds {atom.multiplicity} vectors, "
                f"needs {count}"
            )
        _strictly_past(atom.value, bound, below, f"the atom at {atom.value}")
        return np.full(count, atom.value), [("atom", index, o) for o in range(count)]
    seq = d.sequences[index]
    first = seq.first_index_below(bound - seq.limit if below else seq.limit - bound)
    terms = seq.terms(count, first=first)  # refuses before any label is built
    _strictly_past(terms[0], bound, below, f"term {first} of the sequence with limit {seq.limit}")
    return terms, [("sequence", index, j) for j in range(first, first + count)]


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
    fwd, fwd_labels = _component_chain(d, cert.components[0], K, 0.5 * (cert.r + cert.R), True)
    back, back_labels = _component_chain(d, cert.components[1], K + 1, fwd[0], False)
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
    windows of the measure, ``cells``, whose row p is cell k = p - K.
    ``maps`` is the stack of the 2K - 1 maps
    G_k = G_{mu_k, mu_{k+1}} : Delta_{k+1} -> Delta_k, k = -K..K-2, row p
    again for k = p - K.  Every call runs all rows at once.  On a density
    the cells are a ``RestrictedMeasure`` and the maps quantile transports;
    on a Cantor part they are ``CantorCells`` and affine maps, so the
    multiplier is continuous in each cell.
    """

    measure: MeasureSpec
    window: int
    cells: RestrictedMeasure | CantorCells
    maps: TransportMap | AffineMap
    endpoints: np.ndarray = field(init=False)
    masses: np.ndarray = field(init=False)

    def __post_init__(self):
        object.__setattr__(self, "endpoints", np.append(self.cells.lo, self.cells.hi[-1]))
        object.__setattr__(self, "masses", self.cells.total_mass)

    def multiplier_squared(self, s):
        """g_hat_k(s)^2 = s / G_k^{-1}(s) on the closed cells with a successor.

        Row p of s lies in cell k = p - K, for the 2K - 1 cells at once.
        """
        s = np.asarray(s, dtype=float)
        outside = self.cells[:-1].outside(s)
        if outside.any():
            k = int(np.argwhere(outside)[0][0]) - self.window
            raise RangeError(f"multiplier argument outside cell {k}")
        return s / self.maps.inverse(s)

    def multiplier(self, s):
        return np.sqrt(self.multiplier_squared(s))


def require_window(K: int, ok: np.ndarray, failure: str, what: str) -> None:
    """Raise ``CapacityError`` unless ok[p] holds at every step p of window K.

    The message is ``failure``, its {k} the first failing cell, then the
    largest window K' < K that holds no failing step: step p (endpoints
    p, p + 1, which bound cell k = p - K) lies in window K' iff
    K - K' <= p < K + K'; the windows are nested in K.
    """
    bad = np.nonzero(~ok)[0]
    if bad.size:
        largest = int(np.maximum(K - bad, bad - K + 1).min()) - 1
        fits = f"the largest window with {what} is K={largest}"
        raise CapacityError(f"{failure.format(k=bad[0] - K)}; "
                            + (fits if largest else f"no window has {what}"))


def cantor_cells(part: ContinuousPart, K: int) -> CantorCells:
    """The quantile partition of a Cantor part, in closed form (it is triadic).

    On [a, b], a_k is an offset L 3^e from the nearer end, L = b - a:
    a + 2 L 3^(k-1) for k <= 0, b - L 3^(-k-1) for k >= 1.  Cell k holds
    M 2^e times the standard Cantor measure on [a_k, a_k + L 3^e], with
    e = k - 1 for k < 0 and e = -k - 2 for k >= 0.
    """
    a, b = part.support
    k = np.arange(-K, K + 1)
    e = np.where(k <= 0, k - 1, -k - 1)
    offset = (b - a) * 3.0**e
    endpoints = np.where(k <= 0, a + 2.0 * offset, b - offset)
    below = k[:-1] < 0
    return CantorCells(endpoints[:-1], endpoints[1:], np.where(below, offset[:-1], offset[1:]),
                       np.ldexp(part.mass, np.where(below, e[:-1], e[1:])))


def build_transport_witness(part: ContinuousPart, K: int) -> TransportWitness:
    """Partition the part's measure and wire up per-cell transports.

    Raises ``CapacityError`` when a density's mass is not a normal float, or
    when floating point cannot hold 2K + 1 distinct endpoints, or the 2K
    cell masses as normal floats, naming the largest window that can
    (window K' takes the middle 2K' + 1 levels).
    """
    if K < 1:
        raise PreconditionError(f"window must be >= 1, got {K}")
    m = MeasureSpec(part)
    if part.kind is PartKind.DENSITY and m.total_mass < np.finfo(float).tiny:
        raise CapacityError(f"the density's mass {m.total_mass:g} is below the normal float range")
    cantor = cantor_cells(part, K) if part.kind is PartKind.CANTOR else None
    endpoints = build_partition(m, K) if cantor is None else np.append(cantor.lo, cantor.hi[-1])
    require_window(K, np.diff(endpoints) > 0,
                   f"partition endpoints of window K={K} collide in floating point",
                   "distinct endpoints")
    if cantor is None:
        cells = RestrictedMeasure(m, endpoints[:-1], endpoints[1:])
        maps = TransportMap(cells[:-1], cells[1:])
    else:
        cells, maps = cantor, AffineMap(cantor[:-1], cantor[1:])
    # A subnormal cell mass has lost digits: on a Cantor part it is no longer
    # M times an exact power of two.
    require_window(K, cells.total_mass >= np.finfo(float).tiny,
                   f"cell masses of window K={K} underflow the normal float range",
                   "cell masses in the normal float range")
    return TransportWitness(m, K, cells, maps)


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


#: Nodes per cell in the ``--full`` multiplier tables: the cell's
#: ``quadrature_nodes``, where the checks read it, at 32 equal-mass levels.
#: On a Cantor part every node is a point of the set.  Every multiplier is
#: continuous in its cell, so a node moved by an ulp moves its value by ulps.
MULTIPLIER_NODES = 32


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
        s = quadrature_nodes(w.cells[:-1], nodes=MULTIPLIER_NODES)
        doc["multiplier_tables"] = [
            {"cell": p - w.window, "nodes": row.tolist(), "multiplier": mult.tolist()}
            for p, (row, mult) in enumerate(zip(s, w.multiplier(s)))
        ]
    return doc


def witness_to_dict(w, full: bool = False) -> dict:
    if isinstance(w, ShiftWitness):
        return shift_witness_to_dict(w)
    return transport_witness_to_dict(w, full=full)
