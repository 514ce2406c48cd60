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
:func:`group_fidelity` is the definitional route's one entry for arbitrary
product inputs; there a pure state, given as a 1-D vector, is sent with no
reference.

Every product-state fidelity on a stack of rows goes through one kernel,
:class:`QuadraticOverlap`: the Monte Carlo average,
:func:`pure_state_fidelity` and the worst-case search over product pure inputs,
:func:`min_subspace_fidelity`.  Its values are taken in real coordinates:
each state enters through the ``d_i^2`` real numbers of its density matrix, and a
row costs ``2 K D^2`` real multiply-adds, one real GEMM per row block.  The kernel
takes per-connection states and forms their coordinates (for the gradient, their
product kets) itself, one row block at a time, so no caller holds them for a
whole batch.  :func:`channel_fidelity_report` is the one place that
enumerates connection subsets: it holds every group channel fidelity by the
Kraus route and the exact Haar average built from them.
"""

from __future__ import annotations

import itertools
import math
from dataclasses import dataclass
from typing import Iterable, Sequence

import numpy as np

from ._optim import minimize_product_states
from .channels import ConnectionGraph, KrausChannel, connection_kraus
from .errors import CapExceededError
from .linalg import (
    _adjoint,
    block_rows,
    check_density,
    check_einsum_labels,
    check_finite,
    clip_spectrum,
    contract_rows_except,
    eigh,
    kron_all,
    kron_rows,
)

SUBSET_CAP = 16
# The value kernel's real GEMMs have row and column counts that are multiples of
# this: the coefficient matrix gets zero rows at construction, and a block shorter
# than that gets zero columns.  OpenBLAS splits a large dgemm between threads, and
# the split changes the rounding past the last multiple of 8 (0.3.31 with 2 and 4
# threads: of the columns with its SkylakeX and Cooperlake kernels, of the rows
# with its Haswell and Zen ones); aligned, the values are the same bytes whatever
# OPENBLAS_NUM_THREADS is.
GEMM_ALIGN = 8
# Monte Carlo samples drawn per connection at a time; the draws come in this order,
# so changing it changes every seeded estimate.
MC_DRAW_ROWS = 20000


def _purification_amp(rho, i: int) -> np.ndarray:
    """Amplitude matrix M[r, a] of the canonical purification of a density operator,
    the input of connection i."""
    m = check_finite(np.asarray(rho, dtype=complex), f"density for connection {i}")
    w, v = eigh(m)
    w = clip_spectrum(w)
    return (v * np.sqrt(w)).T


def _pure_amp(psi) -> np.ndarray:
    v = np.asarray(psi, dtype=complex).reshape(-1)
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
    _check_amps(graph, amps)
    g = graph.size
    check_einsum_labels(2 * g + 1, f"connections ({g})")
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


def group_fidelity(ch: KrausChannel, inputs: Sequence, graph: ConnectionGraph,
                   keep: Iterable[int] | None = None) -> float:
    """Fidelity of a product input sent through the channel, on the kept connections
    (all by default) with everything else traced out.

    A 2-D input is a density matrix, checked by ``linalg.check_density`` and purified
    with an entangled reference; a 1-D input is a pure state sent with no reference.
    """
    amps = []
    for i, x in enumerate(inputs):
        m = check_finite(np.asarray(x, dtype=complex), f"input for connection {i}")
        amps.append(_pure_amp(m) if m.ndim == 1 else _purification_amp(check_density(m), i))
    return _overlap_fidelity(ch, graph, amps, keep=keep)


def pure_state_fidelity(ch: KrausChannel, graph: ConnectionGraph, states: Sequence
                        ) -> np.ndarray:
    """Transmission fidelities of product pure inputs, one per row: ``states[i]`` is
    connection i's stack of states, shape (rows, d_i).

    One product state, as 1-D vectors, goes through :func:`group_fidelity`.
    """
    vecs = [np.asarray(psi, dtype=complex) for psi in states]
    if any(v.ndim != 2 for v in vecs):
        raise ValueError("pure_state_fidelity takes one (rows, d_i) stack per connection; "
                         "pass a single product state to group_fidelity")
    _check_amps(graph, vecs)
    for i, v in enumerate(vecs):
        check_finite(v, f"state stack for connection {i}")
    if len({v.shape[0] for v in vecs}) != 1:
        raise ValueError(f"state stacks differ in length: {[v.shape[0] for v in vecs]}")
    norms = [np.linalg.norm(v, axis=1, keepdims=True) for v in vecs]
    if any(np.any(nrm == 0) for nrm in norms):
        raise ValueError("zero vector is not a state")
    problem = QuadraticOverlap(ch, graph)
    return problem.batch_values([v / nrm for v, nrm in zip(vecs, norms)])


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
    g = graph.size
    # labels: 0 for the Kraus index, 1..g for the outputs, then one per open input;
    # at least one connection is kept, so 2g labels at most
    check_einsum_labels(2 * g, f"connections ({g})")
    open_ins = [i for i in range(g) if i not in keep_set]
    in_labels = [1 + i for i in range(g)]
    for n, i in enumerate(open_ins):
        in_labels[i] = 1 + g + n
    traced = np.einsum(connection_kraus(ch, graph), [0, *range(1, g + 1), *in_labels],
                       [0, *(1 + i for i in open_ins), *(in_labels[i] for i in open_ins)])
    d_kept = math.prod(graph.dims[i] for i in keep_set)
    return float(np.sum(traced.real ** 2 + traced.imag ** 2)) / (d_kept * graph.total_dim())


def channel_fidelity(ch: KrausChannel, graph: ConnectionGraph,
                     mode: str = "definition") -> float:
    """Entanglement fidelity at maximally entangled inputs, by either route."""
    if mode == "definition":
        return _overlap_fidelity(ch, graph, _me_amps(graph))
    if mode == "kraus_trace":
        return _kraus_group_fidelity(ch, graph, frozenset(range(graph.size)))
    raise ValueError(f"unknown mode {mode!r} (use 'definition' or 'kraus_trace')")


def average_fidelity_mc(ch: KrausChannel, graph: ConnectionGraph, samples: int,
                        rng: np.random.Generator) -> tuple[float, float]:
    """Monte Carlo estimate of the average fidelity over independent Haar product
    states; returns (mean, standard error).

    The states are drawn ``MC_DRAW_ROWS`` samples per connection at a time, the
    real parts then the imaginary parts of each connection's block.  At once it
    holds one such draw block of per-connection states and the per-sample values;
    :class:`QuadraticOverlap` forms the real coordinates for one of its row
    blocks at a time.
    """
    if samples < 2:
        raise ValueError("need at least 2 samples for a standard error")
    problem = QuadraticOverlap(ch, graph)
    vals = np.empty(samples)
    for lo in range(0, samples, MC_DRAW_ROWS):
        b = min(MC_DRAW_ROWS, samples - lo)
        states = []
        for d in graph.dims:
            # filled in place: a sum of the two draws would hold three temporaries
            z = np.empty((b, d), dtype=complex)
            z.real = rng.standard_normal((b, d))
            z.imag = rng.standard_normal((b, d))
            z /= np.linalg.norm(z, axis=1, keepdims=True)
            states.append(z)
        vals[lo : lo + b] = problem.batch_values(states)
    mean = float(np.mean(vals))
    stderr = float(np.std(vals, ddof=1) / np.sqrt(samples))
    return mean, stderr


class QuadraticOverlap:
    """The one kernel for product-state fidelities, and its exact gradient.

    Each Kraus overlap is ``m_K = phi^dag R_K phi`` with ``phi`` the product ket
    of the connections' states (in connection-index order) and ``R_K`` the
    connection-ordered Kraus operator; the operators are stacked once, at
    construction, into ``red`` of shape ``(K, D, D)``.

    Values are taken in real coordinates.  A connection's state
    ``psi_i`` enters only through ``rho_i = psi_i psi_i^dag``, and its real
    coordinates ``s_i`` (``d_i^2`` of them) are ``Re rho_i[p, q]`` for
    ``p <= q`` and ``Im rho_i[p, q]`` for ``p > q``.  So
    ``m_K = tr(R_K rho) = (C (x)_i s_i)_K`` with one complex matrix ``C``, the
    traces of ``red`` against each connection's basis of Hermitian matrices
    (:func:`_hermitian_trace`), built once, connection by connection.  The
    fidelity is ``sum_K |m_K|^2 = sum_j (C_r y)_j^2``, where ``C_r`` stacks
    ``Re C`` over ``Im C`` and ``y = (x)_i s_i``: ``2 K D^2`` real
    multiply-adds per row.  The connections are split into a leading
    group and a trailing group, the trailing one the fewest last connections
    with ``2 K s_R >= s_L`` (``s_L`` and ``s_R`` the groups' coordinate
    counts).  A row block is then one real GEMM of the ``(2 K s_R, s_L)``
    matrix with the leading group's ``y_L``, whose result is multiplied by the
    trailing group's ``y_R`` and summed over its ``s_R`` coordinates.

    The gradient stays complex.  It takes ``u = red phi`` and
    ``w = red^dag phi`` from one GEMM per row block against the stack of
    ``red`` over ``red^dag``, built on the first gradient call and taken in its
    real form, so that both paths' GEMMs are real and aligned to
    ``GEMM_ALIGN``: connection i's derivative is
    ``sum_K conj(m_K) u_{K,i} + m_K w_{K,i}``, where ``u_{K,i}`` contracts
    ``u_K`` with the other connections' conjugated states.
    Values and gradients both take per-connection state stacks, each
    ``(rows, d_i)`` with one product state per row, in row blocks whose
    temporaries stay under ``linalg.BLOCK_BYTES`` (``value_rows``, a multiple
    of ``GEMM_ALIGN``, and ``gradient_rows``).  The values serve
    :func:`average_fidelity_mc`, :func:`pure_state_fidelity` and, with the
    gradient, the worst-case search of :func:`min_subspace_fidelity`.
    """

    def __init__(self, ch: KrausChannel, graph: ConnectionGraph):
        # no more connections than the definitional route, which every value is checked
        # against, takes in its overlap einsum
        check_einsum_labels(2 * graph.size + 1, f"connections ({graph.size})")
        self.dims = graph.dims
        d_total = graph.total_dim()
        self.red = connection_kraus(ch, graph).reshape(-1, d_total, d_total)
        self._real_stack = None

        # C[K, (a_0, a_1, ...)] = tr(R_K (x)_i B_{a_i}), one connection's leg pair at a
        # time; its coordinate a joins the end of the last axis
        k = self.red.shape[0]
        coef, rest, coords = self.red[..., None], d_total, 1
        for d in self.dims:
            rest //= d
            coef = _hermitian_trace(coef.reshape(k, d, rest, d, rest, coords))
            coef = coef.transpose(0, 2, 4, 5, 1, 3)
            coords *= d * d
        # the trailing group: the fewest last connections with 2 K s_R >= s_L, leaving
        # at least one connection in the leading group
        self.lead, s_r = len(self.dims), 1
        while self.lead > 1 and 2 * k * s_r < coords // s_r:
            self.lead -= 1
            s_r *= self.dims[self.lead] ** 2
        s_l = coords // s_r
        coef = coef.reshape(k, s_l, s_r)
        coef = np.concatenate([coef.real, coef.imag]).transpose(0, 2, 1).reshape(-1, s_l)
        self.coef_rows = len(coef)
        self.coef = _align(coef, axis=0)

        # a value row holds the GEMM's 2 K s_R results, y_L, y_R and the largest
        # connection's complex rho; a gradient row holds u and w (2 K D), phi and
        # its derivative
        self.value_rows = block_rows(
            8 * (2 * k * s_r + s_l + s_r) + 16 * max(self.dims) ** 2, GEMM_ALIGN)
        self.gradient_rows = block_rows(16 * (2 * k + 2) * d_total, GEMM_ALIGN)
        # per connection: each coordinate's entry of rho, and 1 where it is Im (p > q)
        self.gathers = [(np.arange(d * d), np.greater(*np.divmod(np.arange(d * d), d))
                         .astype(np.intp)) for d in self.dims]

    def _coords(self, psis: Sequence[np.ndarray]) -> tuple[np.ndarray, np.ndarray]:
        """The leading and trailing groups' real coordinates y_L and y_R, shaped
        (s_L, B) and (s_R, B), of the B rows of the per-part states ``psis``."""
        cols = []
        for psi, (coord, imag) in zip(psis, self.gathers):
            t = psi.T
            # rho[p, q, b] = psi[b, p] conj(psi[b, q]); its float view holds (re, im) last
            rho = np.multiply(t[:, None, :], t[None, :, :].conj(), order="C")
            cols.append(rho.view(float).reshape(len(coord), -1, 2)[coord, :, imag])
        rows = psis[0].shape[0]
        return _column_kron(cols[: self.lead], rows), _column_kron(cols[self.lead :], rows)

    def batch_values(self, psis: Sequence[np.ndarray]) -> np.ndarray:
        """Fidelities of per-connection state stacks of shape (rows, d_i)."""
        rows = psis[0].shape[0]
        out = np.empty(rows)
        for lo in range(0, rows, self.value_rows):
            block = slice(lo, lo + self.value_rows)
            y_l, y_r = self._coords([p[block] for p in psis])
            b = y_l.shape[1]
            z = (self.coef @ _align(y_l, axis=1))[: self.coef_rows, :b].reshape(-1, *y_r.shape)
            m = np.einsum("jsb,sb->jb", z, y_r)
            out[block] = np.einsum("jb,jb->b", m, m)
        return out

    def packed_gradient(self, psis: Sequence[np.ndarray]) -> list[np.ndarray]:
        """dF/d conj(psi_i) per connection, for per-connection state stacks of shape
        (rows, d_i); the result has the same shapes."""
        k, d_total = self.red.shape[:2]
        if self._real_stack is None:
            # the real form of the (2 K D, D) stack S of red over red^dag: the float view
            # of a row phi times it is the float view of the row (S phi)^T
            stack = np.concatenate([self.red, _adjoint(self.red)]).reshape(-1, d_total).T
            real = np.stack([np.stack([stack.real, stack.imag], axis=-1),
                             np.stack([-stack.imag, stack.real], axis=-1)], axis=1)
            self._real_stack = _align(real.reshape(2 * d_total, -1), axis=1)
        v = np.empty((psis[0].shape[0], d_total), dtype=complex)
        for lo in range(0, v.shape[0], self.gradient_rows):
            block = slice(lo, lo + self.gradient_rows)
            phi = kron_rows([p[block] for p in psis])
            b = len(phi)
            uw = (_align(phi, axis=0).view(float) @ self._real_stack)[:b, : 4 * k * d_total]
            uw = uw.view(complex).reshape(b, 2, k, d_total)
            m = np.einsum("bkd,bd->bk", uw[:, 0], phi.conj())
            v[block] = np.einsum("bjk,bjkd->bd", np.stack([m.conj(), m], axis=1), uw)
        v = v.reshape(-1, *self.dims)
        bras = [p.conj() for p in psis]
        return [contract_rows_except(v, bras, i) for i in range(len(psis))]


def _hermitian_trace(r: np.ndarray) -> np.ndarray:
    """tr(R B_a) for the real coordinates a = (p, q) of a Hermitian rho = sum_a s[a] B_a,
    s[p, q] being Re rho[p, q] for p <= q and Im rho[p, q] for p > q.

    ``r`` has one connection's out leg on axis 1 and its in leg on axis 3; the
    result holds ``a``'s p on axis 1 and q on axis 3.  With ``t`` the legs swapped,
    tr(R B_a) is ``r`` on the diagonal, ``r + t`` above it and ``i (t - r)`` below.
    """
    t = r.swapaxes(1, 3)
    p = np.arange(r.shape[1]).reshape(1, -1, 1, 1, 1, 1)
    q = p.reshape(1, 1, 1, -1, 1, 1)
    return np.where(p < q, r + t, np.where(p > q, 1j * (t - r), r))


def _align(a: np.ndarray, axis: int) -> np.ndarray:
    """``a`` with zeros appended along ``axis`` up to a multiple of ``GEMM_ALIGN``."""
    shape = list(a.shape)
    shape[axis] = -shape[axis] % GEMM_ALIGN
    return np.concatenate([a, np.zeros(shape, a.dtype)], axis=axis) if shape[axis] else a


def _column_kron(cols: Sequence[np.ndarray], rows: int) -> np.ndarray:
    """Column-wise Kronecker product of (n_j, rows) arrays; ones of shape (1, rows)
    for none."""
    if not cols:
        return np.ones((1, rows))
    out = cols[0]
    for c in cols[1:]:
        out = (out[:, None, :] * c[None, :, :]).reshape(-1, rows)
    return out


def min_subspace_fidelity(ch: KrausChannel, graph: ConnectionGraph,
                          rng: np.random.Generator, restarts: int = 32
                          ) -> tuple[float, list[np.ndarray]]:
    """Heuristic minimum of the pure-state fidelity over product pure inputs.

    Multi-restart L-BFGS descent on the spheres, at most ``_optim.MAX_ITERS``
    iterations per restart; the returned value is an upper bound on the true
    minimum (up to optimizer slack).  Also returns the minimizing per-connection
    states, one per connection in index order.  Deterministic for a fixed rng
    state.
    """
    problem = QuadraticOverlap(ch, graph)
    result = minimize_product_states(problem.batch_values, graph.dims, rng,
                                     restarts=restarts, gradient=problem.packed_gradient)
    return result.value, result.states


@dataclass(frozen=True)
class FidelityReport:
    """Channel fidelities of every connection subset, at maximally entangled inputs,
    and the exact Haar average of the pure-state fidelity built from them."""

    global_value: float
    group_values: dict
    average: float

    def check(self) -> None:
        vals = [self.global_value, *self.group_values.values()]
        for v in vals:
            if not -1e-9 <= v <= 1.0 + 1e-9:
                raise ValueError(f"fidelity {v} outside [0, 1]")
        for key, v in self.group_values.items():
            if self.global_value > v + 1e-9:
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
        group_values=groups,
        average=total / float(np.prod([d + 1 for d in dims])),
    )
