"""Fidelity functionals of graph-structured channels.

Two independent evaluation routes are provided for channel fidelities: the
definitional one (purify as one Kronecker product of per-connection
amplitudes, send through the channel with an untouched reference, overlap with
the purification) and Schumacher's closed form ``sum_K |Tr A_K|^2``, taken as
one partial trace of the Kraus stack over the kept connections.  They share
only ``connection_kraus`` and must agree to high precision; the test suite
leans on that.  Both take channels up to ``MAX_DIM`` on a side.

Per-connection references use the canonical eigen-purification
``sum_m sqrt(l_m) |m>|v_m>`` with reference dimension equal to the state's
dimension.  Fidelities do not depend on the choice of purification.

Every product-state fidelity on a stack of rows goes through one kernel,
:class:`QuadraticOverlap`: the Monte Carlo average, stacked
:func:`pure_state_fidelity` calls and both worst-case searches (over product
states of subspaces, :func:`min_subspace_fidelity`, and over one connection's
support with the others held fixed).  The kernel takes per-connection states and
forms their product kets itself, for one row block at a time, so no caller holds
the kets of a whole batch.  :func:`channel_fidelity_report` is the one place that
enumerates connection subsets: it holds every group channel fidelity by the
Kraus route and the exact Haar average built from them.
"""

from __future__ import annotations

import itertools
import math
import string
from dataclasses import dataclass
from typing import Iterable, Sequence

import numpy as np

from ._optim import minimize_product_states
from .channels import ConnectionGraph, KrausChannel, check_graph_compatible, connection_kraus
from .errors import CapExceededError
from .linalg import (
    UNITARITY_TOL,
    DensityOperator,
    SystemLayout,
    _adjoint,
    check_finite,
    clip_spectrum,
    eigh,
    gemm_block_rows,
    kron_all,
    kron_rows,
)

SUBSET_CAP = 16
# Monte Carlo samples drawn per connection at a time; the draws come in this order,
# so changing it changes every seeded estimate.
MC_DRAW_ROWS = 20000


def _as_matrix(state) -> np.ndarray:
    return state.matrix if isinstance(state, DensityOperator) else np.asarray(state, dtype=complex)


def _purification_amp(rho, i: int) -> np.ndarray:
    """Amplitude matrix M[r, a] of the canonical purification of a density operator,
    the input of connection i."""
    m = check_finite(_as_matrix(rho), f"density for connection {i}")
    w, v = eigh(m)
    w = clip_spectrum(w)
    return (v * np.sqrt(w)).T


def _pure_amp(psi, i: int) -> np.ndarray:
    v = check_finite(np.asarray(psi, dtype=complex).reshape(-1), f"state for connection {i}")
    nrm = np.linalg.norm(v)
    if nrm == 0:
        raise ValueError("zero vector is not a state")
    return (v / nrm).reshape(1, -1)


def _check_amps(graph: ConnectionGraph, amps: Sequence[np.ndarray]) -> None:
    if len(amps) != graph.size:
        raise ValueError(f"need one input per connection ({graph.size}), got {len(amps)}")
    for i, amp in enumerate(amps):
        if amp.shape[1] != graph.dims[i]:
            raise ValueError(
                f"input {i} has dimension {amp.shape[1]}, connection needs {graph.dims[i]}"
            )


def _overlap_fidelity(ch: KrausChannel, graph: ConnectionGraph, amps: Sequence[np.ndarray],
                      keep: Iterable[int] | None = None) -> float:
    """Overlap of the channel output with the product purification, on kept connections.

    The purification is the Kronecker product of the per-connection amplitude
    matrices ``M_i[r, a]``: its rows run over the references ``R_0..R_{g-1}``
    and its columns over the inputs, both in connection order.  It is sent
    through ``I_R (x) A_K`` with the Kraus operators in connection order, so
    its inputs and the outputs share one leg order.  Connections outside
    ``keep`` are traced out: their reference and output legs stay open in the
    overlap with the product of the kept connections' amplitudes.  Each
    product is at most ``MAX_DIM`` on a side.  Raises ``CapExceededError``
    beyond 25 connections, before any contraction.
    """
    check_graph_compatible(ch, graph)
    _check_amps(graph, amps)
    g = graph.size
    # the overlap einsum labels the Kraus index and 2g reference/output legs, below 52
    if 2 * g + 1 > 52:
        raise CapExceededError(f"too many connections for the overlap contraction ({g})")
    keep_set = set(range(g)) if keep is None else set(int(k) for k in keep)
    if not keep_set or not keep_set.issubset(range(g)):
        raise ValueError(f"invalid connection subset {sorted(keep_set)}")
    kept = sorted(keep_set)

    ket = kron_all(amps)
    ref_dims = [amp.shape[0] for amp in amps]
    d = graph.total_dim()
    kraus = connection_kraus(ch, graph).reshape(-1, d, d)
    # legs of the sent states: Kraus index, R_0..R_{g-1}, B_0..B_{g-1}
    sent = (ket.reshape(-1, d) @ kraus.swapaxes(1, 2)).reshape(-1, *ref_dims, *graph.dims)
    kept_legs = [1 + i for i in kept] + [1 + g + i for i in kept]
    open_legs = [0] + [leg for leg in range(1, 2 * g + 1) if leg not in kept_legs]
    bra = ket if len(kept) == g else kron_all([amps[i] for i in kept])
    bra = bra.conj().reshape([sent.shape[leg] for leg in kept_legs])
    overlaps = np.einsum(sent, list(range(2 * g + 1)), bra, kept_legs, open_legs)
    return float(np.sum(overlaps.real ** 2 + overlaps.imag ** 2))


def entanglement_fidelity(ch: KrausChannel, inputs: Sequence, graph: ConnectionGraph) -> float:
    """Overlap of (I x channel) applied to the purified product input with that purification."""
    amps = [_purification_amp(rho, i) for i, rho in enumerate(inputs)]
    return _overlap_fidelity(ch, graph, amps)


def group_fidelity(ch: KrausChannel, inputs: Sequence, graph: ConnectionGraph,
                   keep: Iterable[int]) -> float:
    """Entanglement fidelity after tracing everything outside the kept connections."""
    amps = [_purification_amp(rho, i) for i, rho in enumerate(inputs)]
    return _overlap_fidelity(ch, graph, amps, keep=keep)


def local_entanglement_fidelity(ch: KrausChannel, inputs: Sequence, graph: ConnectionGraph,
                                i: int) -> float:
    return group_fidelity(ch, inputs, graph, keep=[i])


def pure_state_fidelity(ch: KrausChannel, graph: ConnectionGraph, states: Sequence
                        ) -> float | np.ndarray:
    """Transmission fidelity of a product pure input, identified per connection.

    Per-connection stacks of states, shape (rows, d_i), give one fidelity per row.
    """
    vecs = [np.asarray(psi, dtype=complex) for psi in states]
    if not vecs or any(v.ndim != 2 for v in vecs):
        return _overlap_fidelity(ch, graph, [_pure_amp(v, i) for i, v in enumerate(vecs)])
    check_graph_compatible(ch, graph)
    _check_amps(graph, vecs)
    for i, v in enumerate(vecs):
        check_finite(v, f"state stack for connection {i}")
    if len({v.shape[0] for v in vecs}) != 1:
        raise ValueError(f"state stacks differ in length: {[v.shape[0] for v in vecs]}")
    norms = [np.linalg.norm(v, axis=1, keepdims=True) for v in vecs]
    if any(np.any(nrm == 0) for nrm in norms):
        raise ValueError("zero vector is not a state")
    problem = QuadraticOverlap(ch, graph, {i: np.eye(d) for i, d in enumerate(graph.dims)}, {})
    return problem._values([v / nrm for v, nrm in zip(vecs, norms)])


def mixed_fidelity(ch: KrausChannel, graph: ConnectionGraph,
                   entries: Sequence[tuple[str, np.ndarray]]) -> float:
    """Fidelity with a mix of per-connection roles: ('pure', vector) connections are
    sent bare, ('mixed', density) connections keep an entangled reference."""
    amps = []
    for i, (kind, val) in enumerate(entries):
        if kind == "pure":
            amps.append(_pure_amp(val, i))
        elif kind == "mixed":
            amps.append(_purification_amp(val, i))
        else:
            raise ValueError(f"unknown entry kind {kind!r}")
    return _overlap_fidelity(ch, graph, amps)


def _me_amps(graph: ConnectionGraph) -> list[np.ndarray]:
    return [np.eye(d, dtype=complex) / np.sqrt(d) for d in graph.dims]


def _kraus_group_fidelity(ch: KrausChannel, graph: ConnectionGraph,
                          keep_set: frozenset[int]) -> float:
    """Kraus route for channel fidelities at maximally entangled inputs.

    Schumacher's ``sum_K |Tr A_K|^2 / d^2``, with the trace taken over the kept
    connections only: one partial trace of the connection-ordered Kraus stack,
    in which each kept connection's input leg takes the label of its output
    leg.  The traced-out connections' legs stay open, and the value is
    ``sum |traced|^2 / (d_kept d)``.
    """
    check_graph_compatible(ch, graph)
    g = graph.size
    # labels: 0 for the Kraus index, 1..g for the outputs, then one per open input;
    # einsum takes labels below 52, and at least one connection is kept
    if g > 26:
        raise CapExceededError(f"too many connections for the contraction ({g})")
    open_ins = [i for i in range(g) if i not in keep_set]
    in_labels = [1 + i for i in range(g)]
    for n, i in enumerate(open_ins):
        in_labels[i] = 1 + g + n
    traced = np.einsum(connection_kraus(ch, graph), [0, *range(1, g + 1), *in_labels],
                       [0, *(1 + i for i in open_ins), *(in_labels[i] for i in open_ins)])
    d_kept = math.prod(graph.dims[i] for i in keep_set)
    return float(np.sum(traced.real ** 2 + traced.imag ** 2)) / (d_kept * graph.total_dim())


def group_channel_fidelity_kraus(ch: KrausChannel, graph: ConnectionGraph,
                                 keep: Iterable[int]) -> float:
    keep_set = frozenset(int(k) for k in keep)
    if not keep_set or not keep_set.issubset(range(graph.size)):
        raise ValueError(f"invalid connection subset {sorted(keep_set)}")
    return _kraus_group_fidelity(ch, graph, keep_set)


def channel_fidelity(ch: KrausChannel, graph: ConnectionGraph,
                     mode: str = "definition") -> float:
    """Entanglement fidelity at maximally entangled inputs, by either route."""
    if mode == "definition":
        return _overlap_fidelity(ch, graph, _me_amps(graph))
    if mode == "kraus_trace":
        return _kraus_group_fidelity(ch, graph, frozenset(range(graph.size)))
    raise ValueError(f"unknown mode {mode!r} (use 'definition' or 'kraus_trace')")


def average_fidelity_exact(ch: KrausChannel, graph: ConnectionGraph) -> float:
    """Haar average of the pure-state fidelity, from the subset decomposition
    into group channel fidelities."""
    return channel_fidelity_report(ch, graph).average


def average_fidelity_mc(ch: KrausChannel, graph: ConnectionGraph, samples: int,
                        rng: np.random.Generator) -> tuple[float, float]:
    """Monte Carlo estimate of the average fidelity over independent Haar product
    states; returns (mean, standard error).

    The states are drawn ``MC_DRAW_ROWS`` samples per connection at a time.  At
    once it holds one such draw block of per-connection states and the
    per-sample values; :class:`QuadraticOverlap` forms the product kets for one
    of its row blocks at a time.
    """
    check_graph_compatible(ch, graph)
    if samples < 2:
        raise ValueError("need at least 2 samples for a standard error")
    problem = QuadraticOverlap(ch, graph, {i: np.eye(d) for i, d in enumerate(graph.dims)}, {})
    vals = np.empty(samples)
    for lo in range(0, samples, MC_DRAW_ROWS):
        b = min(MC_DRAW_ROWS, samples - lo)
        states = []
        for d in graph.dims:
            z = rng.standard_normal((b, d)) + 1j * rng.standard_normal((b, d))
            states.append(z / np.linalg.norm(z, axis=1, keepdims=True))
        vals[lo : lo + b] = problem._values(states)
    mean = float(np.mean(vals))
    stderr = float(np.std(vals, ddof=1) / np.sqrt(samples))
    return mean, stderr


@dataclass(frozen=True)
class SubspaceBasis:
    """Orthonormal columns spanning a subspace of an ambient space."""

    vectors: np.ndarray

    def __init__(self, vectors: np.ndarray):
        v = np.asarray(vectors, dtype=complex)
        if v.ndim != 2 or v.shape[1] == 0:
            raise ValueError("subspace basis must be a nonempty matrix of column vectors")
        check_finite(v, "subspace basis")
        gram = v.conj().T @ v
        if np.max(np.abs(gram - np.eye(v.shape[1]))) > UNITARITY_TOL:
            raise ValueError("subspace basis columns are not orthonormal")
        object.__setattr__(self, "vectors", v)

    @property
    def dim(self) -> int:
        return self.vectors.shape[1]

    @property
    def ambient_dim(self) -> int:
        return self.vectors.shape[0]

    def projector(self) -> np.ndarray:
        return self.vectors @ self.vectors.conj().T

    def uniform_state(self, layout=None) -> DensityOperator:
        layout = layout if layout is not None else SystemLayout([self.ambient_dim])
        return DensityOperator(self.projector() / self.dim, layout)


class QuadraticOverlap:
    """The one kernel for product-state fidelities, and its exact gradient.

    For fixed inputs elsewhere, each Kraus overlap is ``m_K = phi^dag R_K phi``
    with ``phi`` the product ket of the varying connections' states (in
    connection-index order).  ``R_K`` is the connection-ordered Kraus tensor
    with every fixed connection's Gram matrix ``amp^dag amp`` folded into its
    legs; the Kraus tensors are stacked and folded once, at construction, in a
    single einsum.  Every evaluation is then one contraction with that reduced
    stack ``red`` of shape ``(K, D_var, D_var)``: ``u = red phi``,
    ``m = phi^dag u`` and the fidelity ``sum_K |m_K|^2``.  The gradient reuses
    ``u`` and ``w = red^dag phi``: part i's derivative is
    ``B_i^dag (sum_K conj(m_K) u_{K,i} + m_K w_{K,i})``, where ``u_{K,i}``
    contracts ``u_K`` with the other parts' conjugated states.  Values and
    gradients both take stacks of rows, one product point per row.

    With every connection varying over its whole space (identity bases, no
    fixed amplitudes), ``_values`` on per-connection state stacks (each
    ``(rows, d_i)``) gives the pure-state fidelities of
    :func:`average_fidelity_mc` and of stacked :func:`pure_state_fidelity`
    calls.  :meth:`minimize` runs the worst-case search over the bases'
    product states, used by :func:`min_subspace_fidelity` and, with the other
    connections fixed, by ``protocols.extract_subspace``.

    Products with ``red`` are stacks of K matmuls of shape (D_var, D_var) by
    (D_var, B), over row blocks of B rows kept under
    ``linalg.GEMM_SINGLE_THREAD_MNK``: a larger product wakes a second BLAS
    thread, which adds CPU time without saving wall time.  The product kets
    exist for one such block at a time: :meth:`_blocks` forms them from the
    block's rows of the per-part states.
    """

    def __init__(self, ch: KrausChannel, graph: ConnectionGraph,
                 bases: dict[int, np.ndarray], fixed_amps: dict[int, np.ndarray]):
        check_graph_compatible(ch, graph)
        g = graph.size
        if set(bases) | set(fixed_amps) != set(range(g)) or set(bases) & set(fixed_amps):
            raise ValueError("bases and fixed_amps must partition the connections")
        for i, basis in bases.items():
            if np.ndim(basis) != 2 or np.shape(basis)[0] != graph.dims[i]:
                raise ValueError(f"subspace basis for connection {i} has shape "
                                 f"{np.shape(basis)}, connection needs {graph.dims[i]} rows")
        for j, amp in fixed_amps.items():
            if np.ndim(amp) != 2 or np.shape(amp)[1] != graph.dims[j]:
                raise ValueError(f"fixed amplitude for connection {j} has shape "
                                 f"{np.shape(amp)}, connection needs {graph.dims[j]} columns")
        self.varying = sorted(bases)
        self.bases = [np.asarray(bases[i], dtype=complex) for i in self.varying]
        self.part_dims = [b.shape[1] for b in self.bases]
        self.var_dims = tuple(graph.dims[i] for i in self.varying)
        d_var = int(np.prod(self.var_dims))
        self.block_rows = gemm_block_rows(d_var, d_var)

        labels = string.ascii_letters
        out, inn, kraus = labels[:g], labels[g : 2 * g], labels[2 * g]
        fixed = sorted(fixed_amps)
        fold = ",".join([kraus + out + inn] + [out[j] + inn[j] for j in fixed]) + "->" + (
            kraus + "".join(out[i] for i in self.varying) + "".join(inn[i] for i in self.varying))
        grams = [fixed_amps[j].conj().T @ fixed_amps[j] for j in fixed]
        stack = connection_kraus(ch, graph)
        self.red = np.ascontiguousarray(np.einsum(fold, stack, *grams).reshape(-1, d_var, d_var))
        self.red_adj = np.ascontiguousarray(_adjoint(self.red))

        # per part i: the row-wise ket tensors contracted with the other parts' states
        n = len(self.varying)
        out, row = labels[:n], labels[2 * g + 1]
        self.loo_specs = []
        for i in range(n):
            rest = [j for j in range(n) if j != i]
            self.loo_specs.append(",".join([row + out] + [row + out[j] for j in rest])
                                  + "->" + row + out[i])

    def _blocks(self, psis: Sequence[np.ndarray]):
        """Per block of rows of the per-part states ``psis`` (each ``(rows, d_i)``):
        its slice, the block's product kets phi, u = red phi and the overlaps
        m = phi^dag u, shaped (B, D_var), (K, D_var, B) and (K, B)."""
        for lo in range(0, psis[0].shape[0], self.block_rows):
            rows = slice(lo, lo + self.block_rows)
            phi = kron_rows([p[rows] for p in psis])
            u = self.red @ phi.T
            yield rows, phi, u, np.einsum("kdb,bd->kb", u, phi.conj())

    def _values(self, psis: Sequence[np.ndarray]) -> np.ndarray:
        out = np.empty(psis[0].shape[0])
        for rows, _, _, m in self._blocks(psis):
            out[rows] = np.sum(m.real ** 2 + m.imag ** 2, axis=0)
        return out

    def batch_values(self, parts: Sequence[np.ndarray]) -> np.ndarray:
        """Fidelities for per-part coordinate batches of shape (rows, part_dims[i])."""
        return self._values([c @ b.T for c, b in zip(parts, self.bases)])

    def packed_gradient(self, parts: Sequence[np.ndarray]) -> list[np.ndarray]:
        """dF/d conj(c_i) per part, for per-part coordinate batches of shape
        (rows, part_dims[i]); the result has the same shapes."""
        psis = [c @ b.T for c, b in zip(parts, self.bases)]
        v = np.empty((psis[0].shape[0], self.red.shape[1]), dtype=complex)
        for rows, phi, u, m in self._blocks(psis):
            w = self.red_adj @ phi.T
            v[rows] = np.einsum("kb,kdb->bd", m.conj(), u) + np.einsum("kb,kdb->bd", m, w)
        v = v.reshape(-1, *self.var_dims)
        bras = [p.conj() for p in psis]
        return [np.einsum(spec, v, *bras[:i], *bras[i + 1 :]) @ b.conj()
                for i, (spec, b) in enumerate(zip(self.loo_specs, self.bases))]

    def minimize(self, rng: np.random.Generator, restarts: int, max_iters: int
                 ) -> tuple[float, list[np.ndarray]]:
        """Heuristic minimum over the varying parts' product states: the best of a
        multi-restart descent.  Returns the value and the minimizing states in the
        ambient spaces, one per varying connection in index order."""
        result = minimize_product_states(
            self.batch_values, self.part_dims, rng, restarts=restarts,
            max_iters=max_iters, gradient=self.packed_gradient,
        )
        return result.value, [b @ c for b, c in zip(self.bases, result.states)]


def min_subspace_fidelity(ch: KrausChannel, graph: ConnectionGraph, subspaces: Sequence,
                          rng: np.random.Generator, restarts: int = 32,
                          max_iters: int = 300) -> tuple[float, list[np.ndarray]]:
    """Heuristic minimum of the pure-state fidelity over product states drawn from
    the given subspaces.

    Multi-restart L-BFGS descent on the spheres; the returned value is an upper
    bound on the true minimum (up to optimizer slack).  Also returns the
    minimizing per-connection states in the ambient spaces.  Deterministic for
    a fixed rng state.
    """
    check_graph_compatible(ch, graph)
    bases = [(s if isinstance(s, SubspaceBasis) else SubspaceBasis(s)).vectors for s in subspaces]
    if len(bases) != graph.size:
        raise ValueError(f"need one subspace per connection ({graph.size})")
    problem = QuadraticOverlap(ch, graph, dict(enumerate(bases)), {})
    return problem.minimize(rng, restarts, max_iters)


@dataclass(frozen=True)
class FidelityReport:
    """Channel fidelities of every connection subset, at maximally entangled inputs,
    and the exact Haar average of the pure-state fidelity built from them."""

    global_value: float
    local_values: tuple[float, ...]
    group_values: dict
    average: float

    def check(self, tol: float = 1e-9) -> None:
        vals = [self.global_value, *self.local_values, *self.group_values.values()]
        for v in vals:
            if not -tol <= v <= 1.0 + tol:
                raise ValueError(f"fidelity {v} outside [0, 1]")
        for key, v in self.group_values.items():
            if self.global_value > v + tol:
                raise ValueError(
                    f"global fidelity {self.global_value} exceeds group {set(key)} value {v}"
                )


def channel_fidelity_report(ch: KrausChannel, graph: ConnectionGraph) -> FidelityReport:
    """Every group channel fidelity by the Kraus route, and the Haar average from the
    subset decomposition: sum over removed subsets S of (d / prod_{j in S} d_j) times
    the fidelity of the kept group (1 for the empty group), over prod_i (d_i + 1)."""
    g = graph.size
    if g > SUBSET_CAP:
        raise CapExceededError(f"subset enumeration capped at {SUBSET_CAP} connections")
    groups = {}
    for r in range(1, g + 1):
        for kept in itertools.combinations(range(g), r):
            groups[frozenset(kept)] = _kraus_group_fidelity(ch, graph, frozenset(kept))
    dims = graph.dims
    d_total = float(np.prod(dims))
    total = 0.0
    for r in range(g + 1):
        for removed in itertools.combinations(range(g), r):
            coeff = d_total / float(np.prod([dims[j] for j in removed])) if removed else d_total
            total += coeff * groups.get(frozenset(range(g)) - frozenset(removed), 1.0)
    return FidelityReport(
        global_value=groups[frozenset(range(g))],
        local_values=tuple(groups[frozenset([i])] for i in range(g)),
        group_values=groups,
        average=total / float(np.prod([d + 1 for d in dims])),
    )
