"""Executable protocol constructions on top of the channel/fidelity layers.

Covers classically-assisted twirled channels (finite unitary ensembles stand
in for the continuous average, the single-qubit Clifford group exactly; the
twirl is taken on the Choi matrix), teleportation over a shared resource
state, and the greedy extraction of well-transmitted subspaces together with
the phase-averaging fidelity bound.
"""

from __future__ import annotations

from dataclasses import dataclass
from functools import lru_cache
from typing import Sequence

import numpy as np

from .channels import (
    ConnectionGraph,
    KrausChannel,
    block_kraus,
    connection_kraus,
    weyl_operators,
)
from .errors import CapExceededError, PolychanError
from .fidelities import (
    QuadraticOverlap,
    SubspaceBasis,
    _purification_amp,
    group_fidelity,
    min_subspace_fidelity,
)
from .linalg import (
    MAX_DIM,
    UNITARITY_TOL,
    DensityOperator,
    SystemLayout,
    check_finite,
    clip_spectrum,
    eigh,
    haar_unitary,
)


# Eigenvalues of a Choi matrix or resource state below this carry no Kraus operator.
SPECTRUM_FLOOR = 1e-14


class ExtractionError(PolychanError):
    """Greedy subspace extraction could not reach the requested fidelity."""


@dataclass(frozen=True)
class UnitaryEnsemble:
    """A uniformly weighted finite set of equal-dimension unitaries."""

    elements: tuple[np.ndarray, ...]

    def __init__(self, elements: Sequence[np.ndarray]):
        mats = tuple(np.asarray(u, dtype=complex) for u in elements)
        if not mats:
            raise ValueError("ensemble needs at least one unitary")
        d = mats[0].shape[0]
        for u in mats:
            if u.shape != (d, d):
                raise ValueError("ensemble elements must share one dimension")
            check_finite(u, "ensemble element")
            defect = float(np.max(np.abs(u.conj().T @ u - np.eye(d))))
            if defect > UNITARITY_TOL:
                raise ValueError(f"ensemble element is not unitary (defect {defect:.3e})")
        object.__setattr__(self, "elements", mats)

    @property
    def dim(self) -> int:
        return self.elements[0].shape[0]

    def __len__(self) -> int:
        return len(self.elements)


def _canonical_phase(u: np.ndarray) -> np.ndarray:
    # first clearly nonzero entry sets the phase; stable under round-off even
    # when several entries tie in magnitude
    flat = u.reshape(-1)
    k = int(np.flatnonzero(np.abs(flat) > 0.25)[0])
    return u * (flat[k].conjugate() / abs(flat[k]))


@lru_cache(maxsize=1)
def _clifford_1q_elements() -> tuple[np.ndarray, ...]:
    h = np.array([[1, 1], [1, -1]], dtype=complex) / np.sqrt(2.0)
    s = np.array([[1, 0], [0, 1j]], dtype=complex)
    seen: dict[bytes, np.ndarray] = {}

    def key(u: np.ndarray) -> bytes:
        r = np.round(_canonical_phase(u), 6) + 0.0  # +0.0 collapses negative zeros
        return r.tobytes()

    frontier = [np.eye(2, dtype=complex)]
    seen[key(frontier[0])] = frontier[0]
    while frontier:
        nxt = []
        for u in frontier:
            for g in (h, s):
                v = g @ u
                k = key(v)
                if k not in seen:
                    seen[k] = _canonical_phase(v)
                    nxt.append(v)
        frontier = nxt
    return tuple(seen.values())


def clifford_1q() -> UnitaryEnsemble:
    """The 24-element single-qubit Clifford group (modulo global phase)."""
    return UnitaryEnsemble(_clifford_1q_elements())


def haar_ensemble(d: int, size: int, rng: np.random.Generator) -> UnitaryEnsemble:
    """A sampled stand-in ensemble for dimensions without an exact small design."""
    if size < 1:
        raise ValueError("ensemble size must be >= 1")
    return UnitaryEnsemble([haar_unitary(d, rng) for _ in range(size)])


def _scaled_eigenvectors(h: np.ndarray) -> np.ndarray:
    """Rows sqrt(w) v over the eigenpairs of a PSD matrix with w >= SPECTRUM_FLOOR."""
    w, v = eigh(h)
    w = clip_spectrum(w)
    keep = w >= SPECTRUM_FLOOR
    return (v[:, keep] * np.sqrt(w[keep])).T


def twirl_channel(ch: KrausChannel, graph: ConnectionGraph,
                  ensembles: Sequence[UnitaryEnsemble]) -> KrausChannel:
    """Average the channel over per-connection unitary conjugations.

    The message (which unitary was drawn) is averaged out of the Choi matrix J
    one connection at a time; the twirls act on different legs and commute, so
    this is the mixture ``(1/sqrt(N)) U^dag A U`` over the product ensemble.
    At most ``d_in * d_out`` Kraus operators are read off J's spectrum; J must
    be at most ``MAX_DIM`` on a side."""
    if len(ensembles) != graph.size:
        raise ValueError(f"need one ensemble per connection ({graph.size})")
    for i, ens in enumerate(ensembles):
        if ens.dim != graph.dims[i]:
            raise ValueError(
                f"ensemble {i} has dimension {ens.dim}, connection needs {graph.dims[i]}"
            )
    side = ch.in_dim * ch.out_dim
    if side > MAX_DIM:
        raise CapExceededError(f"twirl needs a {side}x{side} Choi matrix (cap {MAX_DIM})")

    vecs = connection_kraus(ch, graph).reshape(ch.num_kraus, side)
    # legs of J: (outputs, inputs) of the row vector, then of the column vector
    choi = (vecs.T @ vecs.conj()).reshape(graph.dims * 4)
    for j, ens in enumerate(ensembles):
        legs = range(j, 4 * graph.size, graph.size)
        u = np.stack(ens.elements)
        factors = (u.conj(), u, u, u.conj())
        if ens.dim ** 8 <= choi.size:
            # one contraction with the superoperator (1/N) sum_U (conj U x U) x (U x conj U)
            sup = np.einsum("nab,ncd,nef,ngh->bdfhaceg", *factors) / len(ens)
            choi = np.moveaxis(np.tensordot(sup, choi, axes=(range(4, 8), legs)),
                               range(4), legs)
            continue
        # a superoperator larger than J is not formed (d = 16 would need 4.3e9
        # entries); the elements are applied one at a time instead
        total = np.zeros_like(choi)
        for mats in zip(*factors):
            term = choi
            for leg, m in zip(legs, mats):
                term = np.moveaxis(np.tensordot(m, term, axes=(0, leg)), 0, leg)
            total += term
        choi = total / len(ens)
    ops = _scaled_eigenvectors(choi.reshape(side, side))
    return KrausChannel(block_kraus(ops, graph), ch.in_layout, ch.out_layout)


def teleport_channel(resource: DensityOperator) -> KrausChannel:
    """Effective channel of generalized-Bell-measurement teleportation over a resource.

    The sender measures (input, first resource leg) in the shifted maximally
    entangled basis; the receiver applies the matching shift-and-clock
    correction.  A maximally entangled resource yields the identity map.
    """
    dims = resource.layout.leg_dims
    if len(dims) != 2 or dims[0] != dims[1]:
        raise ValueError(f"teleportation resource must live on d x d legs, got {dims}")
    d = dims[0]
    chis = _scaled_eigenvectors(resource.matrix).reshape(-1, d, d)
    # u / sqrt(d) is the amplitude matrix of (U x I) |Phi+> over (input, resource A)
    ops = [u @ ((u / np.sqrt(d)).conj() @ chi).T for u in weyl_operators(d) for chi in chis]
    layout = SystemLayout([d])
    return KrausChannel(ops, layout, layout)


def _support_basis(rho: np.ndarray) -> np.ndarray:
    w, v = eigh(rho)
    return v[:, w > 1e-9]


def _min_support_fidelity(ch, graph, conn, support, states, rng, restarts
                          ) -> tuple[float, np.ndarray]:
    """Lowest fidelity over pure states of a support, sent bare on one connection,
    with every other connection purified from its state in ``states``."""
    fixed = {j: _purification_amp(m, j) for j, m in enumerate(states) if j != conn}
    problem = QuadraticOverlap(ch, graph, {conn: support}, fixed)
    value, worst = problem.minimize(rng, restarts, 200)
    return value, worst[0]


def _largest_removable_weight(rho: np.ndarray, phi: np.ndarray) -> float:
    """Largest q keeping rho - q |phi><phi| positive semidefinite: 1 / <phi|rho^+|phi>
    for phi in the support of rho (the eigenvalues above 1e-9, as in
    :func:`_support_basis`, up to a weight 1e-9 outside it), else 0."""
    w, v = eigh(rho)
    c = v.conj().T @ phi
    inside = w > 1e-9
    if np.sum(np.abs(c[~inside]) ** 2) > 1e-9:
        return 0.0
    return 1.0 / float(np.sum(np.abs(c[inside]) ** 2 / w[inside]))


@dataclass
class ExtractionResult:
    subspaces: list[SubspaceBasis]
    alphas: list[float]
    peeled: list[list[tuple[float, np.ndarray]]]
    remainders: list[np.ndarray]


def extract_subspace(ch: KrausChannel, graph: ConnectionGraph, inputs: Sequence,
                     target_eta: float, rng: np.random.Generator,
                     restarts: int = 8) -> ExtractionResult:
    """Greedily peel worst-case directions until each connection's remaining support
    transmits with fidelity at least 1 - target_eta.

    Each step removes the (heuristically) lowest-fidelity pure state from the
    current support with the largest weight that keeps the operator positive
    semidefinite, so the peeled pairs plus the remainder reconstruct the input.
    Each worst-case search runs at most 200 descent iterations per restart; more
    than half of a connection's weight removed is an ``ExtractionError``.
    """
    if len(inputs) != graph.size:
        raise ValueError(f"need one input per connection ({graph.size})")
    # connections not yet processed enter as given, processed ones as their remainders
    states = [
        (s.matrix if isinstance(s, DensityOperator) else np.asarray(s, dtype=complex)).copy()
        for s in inputs
    ]

    subspaces: list[SubspaceBasis] = []
    alphas: list[float] = []
    peeled_all: list[list[tuple[float, np.ndarray]]] = []
    remainders: list[np.ndarray] = []

    for c in range(graph.size):
        rho = states[c].copy()
        removed: list[tuple[float, np.ndarray]] = []
        removed_weight = 0.0
        while True:
            support = _support_basis(rho)
            if support.shape[1] == 0:
                raise ExtractionError(
                    f"connection {c}: support exhausted before reaching eta={target_eta}"
                )
            value, worst = _min_support_fidelity(
                ch, graph, c, support, states, rng, restarts
            )
            if value >= 1.0 - target_eta:
                break
            if removed_weight > 0.5:
                raise ExtractionError(
                    f"connection {c}: removed weight {removed_weight:.3f} exceeds "
                    f"0.5 without reaching eta={target_eta}"
                )
            q = _largest_removable_weight(rho, worst)
            rho = rho - q * np.outer(worst, worst.conj())
            rho = (rho + rho.conj().T) / 2
            removed.append((q, worst))
            removed_weight += q
        subspaces.append(SubspaceBasis(support))
        alphas.append(removed_weight)
        peeled_all.append(removed)
        remainders.append(rho)
        # later connections see this one through its trimmed remaining state
        states[c] = rho / np.real(np.trace(rho))
    return ExtractionResult(subspaces, alphas, peeled_all, remainders)


@dataclass(frozen=True)
class PhaseAverageReport:
    eta: float
    entanglement_fidelity: float
    bound: float


def phase_average_bound(ch: KrausChannel, graph: ConnectionGraph, subspaces: Sequence,
                        rng: np.random.Generator, restarts: int = 32) -> PhaseAverageReport:
    """Check that uniform states on well-transmitting subspaces keep high
    entanglement fidelity: F_e >= 1 - (3/2)^{|G|} eta."""
    bases = [s if isinstance(s, SubspaceBasis) else SubspaceBasis(s) for s in subspaces]
    value, _ = min_subspace_fidelity(ch, graph, bases, rng, restarts=restarts)
    eta = max(0.0, 1.0 - value)
    uniform = [b.uniform_state() for b in bases]
    fe = group_fidelity(ch, uniform, graph)
    bound = 1.0 - (1.5 ** graph.size) * eta
    return PhaseAverageReport(eta=eta, entanglement_fidelity=fe, bound=bound)
