"""Executable protocol constructions on top of the channel/fidelity layers.

Covers classically-assisted twirled channels (finite unitary ensembles stand
in for the continuous average, the single-qubit Clifford group exactly; the
twirl is taken on the Choi matrix), teleportation over a shared resource
state, and the phase-averaging fidelity bound on a channel's worst-case pure-state
fidelity.
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
from .errors import CapExceededError
from .fidelities import group_fidelity, min_subspace_fidelity
from .linalg import (
    MAX_DIM,
    UNITARITY_TOL,
    check_array_rank,
    check_finite,
    clip_spectrum,
    eigh,
    haar_unitary,
)


# Eigenvalues of a Choi matrix or resource state below this carry no Kraus operator.
SPECTRUM_FLOOR = 1e-14


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
    check_array_rank(4 * graph.size, f"connections ({graph.size})")

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


def teleport_channel(resource: np.ndarray, d: int) -> KrausChannel:
    """Effective channel of generalized-Bell-measurement teleportation over a resource
    state on two legs of dimension d.

    The sender measures (input, first resource leg) in the shifted maximally
    entangled basis; the receiver applies the matching shift-and-clock
    correction.  A maximally entangled resource yields the identity map.
    """
    resource = np.asarray(resource, dtype=complex)
    if d < 1 or resource.shape != (d * d, d * d):
        raise ValueError(f"teleportation resource must live on {d} x {d} legs, "
                         f"got shape {resource.shape}")
    chis = _scaled_eigenvectors(resource).reshape(-1, d, d)
    # u / sqrt(d) is the amplitude matrix of (U x I) |Phi+> over (input, resource A)
    ops = [u @ ((u / np.sqrt(d)).conj() @ chi).T for u in weyl_operators(d) for chi in chis]
    return KrausChannel(ops, [d], [d])


@dataclass(frozen=True)
class PhaseAverageReport:
    eta: float
    entanglement_fidelity: float
    bound: float


def phase_average_bound(ch: KrausChannel, graph: ConnectionGraph,
                        rng: np.random.Generator, restarts: int = 32) -> PhaseAverageReport:
    """Check that maximally mixed inputs keep high entanglement fidelity when every
    product pure input is transmitted well: F_e >= 1 - (3/2)^{|G|} eta, with eta one
    minus the worst-case pure-state fidelity."""
    value, _ = min_subspace_fidelity(ch, graph, rng, restarts=restarts)
    eta = max(0.0, 1.0 - value)
    fe = group_fidelity(ch, [np.eye(d) / d for d in graph.dims], graph)
    bound = 1.0 - (1.5 ** graph.size) * eta
    return PhaseAverageReport(eta=eta, entanglement_fidelity=fe, bound=bound)
