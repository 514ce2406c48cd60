"""Coherent information and achievable rate regions.

The region sampler ascends the weighted sum of per-connection coherent
informations over product input purifications (one pure state per sender) fed
into the n-fold channel, then reports per-use rates.  All points returned are
achievable inner-bound points: the rates are the coherent informations
evaluated at the returned state, up to optimizer suboptimality.

The objective is evaluated for a whole batch of candidate states at once
(every line-search point of a descent step): each connection's channel
marginal is precomputed as a superoperator.  Since the input is a product
across senders, every other sender enters a connection only through its input
marginal, which is folded into the superoperator row by row; the folded map
then acts on the state of the one sender that holds the connection.  Stacked
matmuls and one batched eigenvalue call per spectrum finish the job, in row
blocks of bounded memory.  Its exact gradient, on the same row blocks, pulls
I_R (x) log2 rho_B - log2 rho_RB back onto each sender's own legs (see
``_RegionProblem``).
"""

from __future__ import annotations

import functools
import math
from dataclasses import dataclass
from typing import Sequence

import numpy as np

from ._optim import minimize_product_states
from .channels import (
    ConnectionGraph,
    KrausChannel,
    connection_kraus,
    copy_grouping,
)
from .errors import CapExceededError
from .linalg import (
    MAX_DIM,
    _adjoint,
    block_rows,
    check_factor,
    clip_spectrum,
    contract_rows_except,
    eigh,
    entropy_of_spectrum,
    float_or_stack,
    kron_all,
    kron_rows,
    maximally_entangled_vector,
    permute_legs_vector,
    uhlmann_fidelity,
)

BLOCKLENGTH_CAP = 3


def _b_rows(phi: np.ndarray, a_dim: int) -> np.ndarray:
    """A factor (..., D, K), rows over (A, B) with A first, as M[..., b, (a, k)]:
    rho_B = M M^dag."""
    if phi.ndim < 2 or a_dim < 1 or phi.shape[-2] % a_dim:
        raise ValueError(f"factor of shape {phi.shape} has rows that do not split into "
                         f"A of dimension {a_dim} and B")
    lead, (d, k) = phi.shape[:-2], phi.shape[-2:]
    return phi.reshape(lead + (a_dim, d // a_dim, k)).swapaxes(-3, -2).reshape(
        lead + (d // a_dim, a_dim * k))


def _gram(m: np.ndarray) -> np.ndarray:
    """The smaller of m m^dag and m^dag m, which share their nonzero spectrum."""
    return m @ _adjoint(m) if m.shape[-2] <= m.shape[-1] else _adjoint(m) @ m


def coherent_information(phi: np.ndarray, a_dim: int) -> float | np.ndarray:
    """I_c(A>B) = S(rho_B) - S(rho_AB), in bits, of rho = phi phi^dag; one value per
    factor of a stack.

    ``phi`` has shape (..., D, K), its rows over (A, B) with A first and of
    dimension ``a_dim``, so no D x D matrix is formed: rho_AB has the nonzero
    spectrum of phi^dag phi, and rho_B = M M^dag (see ``_b_rows``) that of
    M^dag M; the smaller of each pair is taken.
    """
    phi = check_factor(np.asarray(phi, dtype=complex))
    s_b = entropy_of_spectrum(eigh(_gram(_b_rows(phi, a_dim)), vectors=False)[0])
    return s_b - entropy_of_spectrum(eigh(_gram(phi), vectors=False)[0])


def check_dpi(phi: np.ndarray, a_dim: int, kraus: np.ndarray) -> float | np.ndarray:
    """Margin I_c(before) - I_c(after postprocessing on B); nonnegative up to round-off.

    ``phi`` is a factor as in :func:`coherent_information`.  ``kraus`` holds the
    (J, out, in) Kraus operators of a channel on B; a (..., J, out, in) array gives
    each factor of a stack its own.  The postprocessed state has the factor
    [(I_A (x) B_j) phi]_j, with rows (a, out) and J K columns.
    """
    kraus = np.asarray(kraus)
    m = _b_rows(np.asarray(phi, dtype=complex), a_dim)
    if kraus.shape[-1] != m.shape[-2]:
        raise ValueError(f"postprocessing input dimension {kraus.shape[-1]} does not match "
                         f"the B side's {m.shape[-2]}")
    out = kraus @ m[..., None, :, :]
    lead, (j, d_out) = out.shape[:-3], out.shape[-3:-1]
    out = out.reshape(lead + (j, d_out, a_dim, -1)).swapaxes(-4, -2)
    return coherent_information(phi, a_dim) - coherent_information(
        out.reshape(lead + (a_dim * d_out, -1)), a_dim)


def continuity_gap(phi: np.ndarray, chi: np.ndarray, a_dim: int
                   ) -> tuple[float | np.ndarray, float | np.ndarray]:
    """(|delta I_c|, 4 sqrt(1-F) log2(d_A) + 2) for two states on the same (A, B)
    systems, A first and of dimension ``a_dim``, given by their factors, or factor by
    factor for two stacks."""
    lhs = np.abs(coherent_information(phi, a_dim) - coherent_information(chi, a_dim))
    f = np.maximum(0.0, 1.0 - uhlmann_fidelity(phi, chi))
    rhs = 4.0 * np.sqrt(f) * np.log2(a_dim) + 2.0
    return float_or_stack(lhs), float_or_stack(rhs)


@dataclass(frozen=True)
class RateTuple:
    """Rates (bits per channel use) achieved by a concrete product input purification."""

    rates: tuple[float, ...]
    dims: tuple[int, ...]
    blocklength: int
    weights: tuple[float, ...]
    objective: float
    sender_states: tuple[np.ndarray, ...]
    restart_index: int

    def __post_init__(self):
        for r, d in zip(self.rates, self.dims):
            bound = np.log2(d) + 1e-6
            if not -bound <= r <= bound:
                raise ValueError(f"rate {r} outside the coherent-information range for d={d}")

    @property
    def achievable(self) -> tuple[float, ...]:
        """Rates clamped at zero (zero is always achievable)."""
        return tuple(max(0.0, r) for r in self.rates)


class _RegionProblem:
    """Product-input bookkeeping and the batched weighted coherent-information objective.

    Each connection i has a marginal superoperator: the map from the joint
    input to output block B_i with the other outputs traced out, a
    (d_i^2, d_in^2) matrix acting on row-major vectorized operators.  At
    blocklength n it is the n-th Kronecker power of the one-use map, which one
    contraction builds from the K Kraus operators; neither the n-fold Kraus set
    nor the full Liouville matrix is ever formed.

    The input is a product across senders, so a sender w other than s(i), the
    one that holds connection i, enters B_i only through its input marginal
    rho_{A_w} = Tr_{R_w} |psi_w><psi_w|.  For each row,
    :meth:`coherent_infos` folds those marginals into the superoperator; the
    folded map acts on sender s(i)'s inputs alone and is applied to
    sigma_i = Tr_{refs of s(i) other than R_i} |psi_s><psi_s|.  One batched
    eigenvalue call per spectrum follows.  A single-sender graph folds over an
    empty product and takes the same path.  :meth:`packed_gradient` reuses the
    folded map, sigma_i and the marginals, with eigenvectors.

    The fold reads each superoperator in fold order (``fold_ops``): one
    (other senders' input pairs, (b, b')) matrix per input pair (a, a') of
    s(i).  Rows are evaluated in blocks whose sigma_i, folded-map and rho_RB
    stacks stay under ``linalg.BLOCK_BYTES`` (32 rows on a qubit pair at
    n = 2, about 16 KB per row), so a long batch does not raise peak memory.
    Every product is a stack of small matmuls or an einsum, never one tall 2-D
    GEMM, which would wake a second BLAS thread.
    """

    def __init__(self, ch: KrausChannel, graph: ConnectionGraph, n: int):
        if n < 1:
            raise ValueError("blocklength must be >= 1")
        if n > BLOCKLENGTH_CAP or graph.total_dim() ** n > MAX_DIM:
            raise CapExceededError(f"blocklength {n} exceeds the cap {BLOCKLENGTH_CAP} or takes "
                                   f"the input dimension past {MAX_DIM}")
        self.graph = graph.powered(n)
        g = self.graph.size
        self.block_dims = self.graph.dims  # per-connection dims at blocklength n
        self.groups = [grp for grp in self.graph.sender_groups() if grp]
        # a sender's part holds its ref blocks, then its input blocks, in connection order
        self.input_legs = [[self.block_dims[i] for i in grp] for grp in self.groups]
        self.input_dims = [int(np.prod(legs)) for legs in self.input_legs]
        self.part_dims = [d * d for d in self.input_dims]
        self.sender = [w for i in range(g) for w, grp in enumerate(self.groups) if i in grp]
        # per connection: its sender's part legs -> (R_i, the sender's other refs, its inputs)
        self.ref_axes = []
        for i, w in enumerate(self.sender):
            grp = self.groups[w]
            p = grp.index(i)
            axes = [0, 1 + p] + [1 + q for q in range(len(grp)) if q != p] + [1 + len(grp)]
            self.ref_axes.append((axes, np.argsort(axes)))
        kraus, dims = connection_kraus(ch, graph), graph.dims
        # the n-use power's legs, copy after copy -> each leg's n copies together
        axes = copy_grouping(2, n) + [2 * n + a for a in copy_grouping(2 * g, n)]
        # a sender's (a, a') input legs among the superoperator's (x, x', (b, b')) legs
        in_legs = [grp + [g + j for j in grp] for grp in self.groups]
        self.fold_ops = []
        for i in range(g):
            d = self.block_dims[i]
            # one use: sup1[(b, b'), (x, x')] = sum over k and the other outputs c of
            # A_k[(b, c), x] conj(A_k[(b', c), x']), x the joint input in index order
            ops = np.moveaxis(kraus, 1 + i, 1).reshape(len(kraus), dims[i], -1, graph.total_dim())
            sup1 = np.einsum("kbcx,kBcX->bBxX", ops, ops.conj()).reshape(dims[i] ** 2, -1)
            power = functools.reduce(np.kron, [sup1] * n)
            sup = power.reshape([dims[i]] * 2 * n + list(dims) * 2 * n).transpose(axes)
            # fold order: [(a, a'), (o, o'), (b, b')], a over s(i)'s inputs and o over the
            # other senders' inputs, sender after sender, each sender's (o, o') together
            s = self.sender[i]
            order = in_legs[s] + [a for w, ax in enumerate(in_legs) if w != s for a in ax]
            legs = sup.reshape(d * d, -1).T.reshape(*self.block_dims * 2, d * d)
            legs = np.ascontiguousarray(legs.transpose(order + [2 * g]))
            self.fold_ops.append(legs.reshape(self.part_dims[s], -1, d * d))
        # a block row holds sigma_i and the folded map, d_i^2 D_s^2 entries each, and rho_RB
        # with the untransposed rho it is copied from, d_i^4 entries each
        row_bytes = max(32 * d * d * (self.part_dims[w] + d * d)
                        for d, w in zip(self.block_dims, self.sender))
        self.block_rows = block_rows(row_bytes)

    def coherent_infos(self, parts: Sequence[np.ndarray]) -> np.ndarray:
        """I_c(R_i > B_i) per connection for a stack of product inputs, in bits.

        ``parts[w]`` holds sender w's unit vectors, shape (rows, part_dims[w]);
        the result has shape (rows, connections).
        """
        rows = parts[0].shape[0]
        out = np.empty((rows, self.graph.size))
        for lo in range(0, rows, self.block_rows):
            hi = lo + self.block_rows
            out[lo:hi] = self._block_infos([p[lo:hi] for p in parts])
        return out

    def _block_infos(self, parts: list[np.ndarray]) -> np.ndarray:
        marginals = self._input_marginals(parts)
        infos = np.empty((parts[0].shape[0], self.graph.size))
        for i in range(self.graph.size):
            rho_rb, rho_b = self._folded_states(parts, marginals, i)[3:]
            s_rb = entropy_of_spectrum(eigh(rho_rb, vectors=False)[0])
            s_b = entropy_of_spectrum(eigh(rho_b, vectors=False)[0])
            infos[:, i] = s_b - s_rb
        return infos

    def _input_marginals(self, parts: list[np.ndarray]) -> list[np.ndarray]:
        """Each sender's rho_{A_w}[row, (a, a')] = sum_r psi_w[r, a] conj(psi_w[r, a'])."""
        out = []
        for part, d in zip(parts, self.input_dims):
            psi = part.reshape(-1, d, d)
            out.append((psi.swapaxes(1, 2) @ psi.conj()).reshape(-1, d * d))
        return out

    def _sender_legs(self, part: np.ndarray, i: int, inverse: bool = False) -> np.ndarray:
        """Sender s(i)'s rows (rows, D_s^2) -> psi[row, r, o, a] for connection i, or back.

        r runs over R_i, o over the sender's other refs and a over its inputs.
        With ``inverse`` an array shaped like psi goes back to the sender's rows.
        """
        w = self.sender[i]
        axes, back = self.ref_axes[i]
        rows, dims = part.shape[0], [*self.input_legs[w], self.input_dims[w]]
        if inverse:
            return part.reshape(rows, *(dims[a - 1] for a in axes[1:])).transpose(back).reshape(
                rows, -1)
        legs = part.reshape(rows, *dims).transpose(axes)
        return legs.reshape(rows, self.block_dims[i], -1, dims[-1])

    def _folded_states(self, parts: list[np.ndarray], marginals: list[np.ndarray], i: int
                       ) -> tuple[np.ndarray, ...]:
        """psi, sigma_i, the folded map, rho_RB and rho_B of connection i on a block of rows.

        sigma[row, (r, r'), (a, a')] = sum_o psi[r, o, a] conj(psi[r', o, a']),
        fold[row, (a, a'), (b, b')] and rho_RB has shape (rows, d^2, d^2).
        """
        s = self.sender[i]
        psi = self._sender_legs(parts[s], i)
        rows, d = psi.shape[:2]
        # one small matmul per (row, r, r') so the input pair lands contiguous for the map
        sigma = (psi.swapaxes(2, 3)[:, :, None] @ psi.conj()[:, None]).reshape(rows, d * d, -1)
        # the other senders' marginals, one Kronecker product per row (ones when there are none),
        # folded in by one (rows, P) @ (P, d^2) product per input pair (a, a')
        rho_o = kron_rows([np.ones((rows, 1))] + [m for w, m in enumerate(marginals) if w != s])
        fold = (rho_o @ self.fold_ops[i]).swapaxes(0, 1)
        rho = (sigma @ fold).reshape(rows, d, d, d, d)
        rho_rb = rho.transpose(0, 1, 3, 2, 4).reshape(rows, d * d, d * d)
        return psi, sigma, fold, rho_rb, np.trace(rho, axis1=1, axis2=2)

    def packed_gradient(self, parts: Sequence[np.ndarray], weights: np.ndarray
                        ) -> list[np.ndarray]:
        """Exact gradient of -sum_i w_i I_c(R_i > B_i) at a stack of product points.

        With X_i = I_R (x) log2 rho_B - log2 rho_RB, d(-I_c) = tr[X_i d rho_RB]
        (the trace terms of dS cancel between the two entropies).  The adjoint
        of the folded map pulls X_i back to Y_i on (R_i, the inputs of s(i)),
        and df/d conj(psi_s) gets w_i (Y_i (x) I) psi_s.  Every other sender w
        gets Q_w on its inputs alone, with tr[X_i rho_RB] = tr[Q_w^T rho_{A_w}]:
        the superoperator contracted with conj(X_i), sigma_i and the remaining
        marginals.  df/d conj(psi_w) gets w_i (I_R (x) Q_w^T) psi_w.
        Eigenvalues are floored inside the log:
        <k|d rho|k> = 0 on ker rho along every direction, so the floor
        multiplies zero and the gradient stays exact at rank-deficient points.
        ``parts[w]`` holds sender w's unit vectors, shape (rows, part_dims[w]);
        the result is df/d conj(c_w) per sender, in the same shapes.
        """
        rows = parts[0].shape[0]
        blocks = [self._block_gradient([p[lo : lo + self.block_rows] for p in parts], weights)
                  for lo in range(0, rows, self.block_rows)]
        return [np.concatenate(g) for g in zip(*blocks)]

    def _block_gradient(self, parts: list[np.ndarray], weights: np.ndarray
                        ) -> list[np.ndarray]:
        marginals = self._input_marginals(parts)
        grads = [np.zeros_like(p) for p in parts]
        rows = parts[0].shape[0]
        for i, d in enumerate(self.block_dims):
            if weights[i] == 0:
                continue
            s = self.sender[i]
            psi, sigma, fold, rho_rb, rho_b = self._folded_states(parts, marginals, i)
            da = psi.shape[3]
            # X[(r, r'), (b, b')] = delta_rr' log2 rho_B[b, b'] - log2 rho_RB[(r, b), (r', b')]
            log_rb = _log2m(rho_rb).reshape(rows, d, d, d, d).transpose(0, 1, 3, 2, 4)
            x_rr = np.eye(d)[:, :, None, None] * _log2m(rho_b)[:, None, None] - log_rb
            x_rr = x_rr.reshape(rows, d * d, d * d)
            # pulled back through the folded map's adjoint to Y[r, a, (r', a')]
            y = (x_rr @ fold.conj().swapaxes(1, 2)).reshape(rows, d, d, da, da)
            y = y.transpose(0, 1, 3, 2, 4).reshape(rows, d, da, d * da)
            # (Y (x) I_o) psi: sum over (r', a'), stacked over rows and r -> [r, a, o]
            y_psi = y @ psi.swapaxes(2, 3).reshape(rows, 1, d * da, -1)
            grads[s] += weights[i] * self._sender_legs(y_psi.swapaxes(2, 3), i, inverse=True)
            others = [w for w in range(len(parts)) if w != s]
            if not others:
                continue
            # H[(a, a'), row, (b, b')] = sum_rr' sigma[(r, r'), (a, a')] conj(X)[(r, r'), (b, b')],
            # then q[row, (o, o')] = sum over (a, a') and (b, b') of fold_ops[(a, a'), (o, o'),
            # (b, b')] H: one (rows, d^2) @ (d^2, P) product per input pair (a, a')
            h = (sigma.swapaxes(1, 2) @ x_rr.conj()).swapaxes(0, 1)
            q = (h @ self.fold_ops[i].swapaxes(1, 2)).sum(axis=0)
            q = q.reshape(rows, *(self.part_dims[w] for w in others))
            for k, w in enumerate(others):
                # contract the remaining marginals, leaving Q_w[row, (a, a')]
                dw = self.input_dims[w]
                q_w = contract_rows_except(q, [marginals[v] for v in others], k).reshape(
                    rows, dw, dw)
                grads[w] += weights[i] * (parts[w].reshape(rows, dw, dw) @ q_w).reshape(rows, -1)
        return grads


def _log2m(rho: np.ndarray) -> np.ndarray:
    """log2 of a density matrix, or of each in a stack, with zero eigenvalues
    floored to the smallest float."""
    w, v = eigh(rho)
    w = np.maximum(clip_spectrum(w), np.finfo(float).tiny)
    return (v * np.log2(w)[..., None, :]) @ _adjoint(v)


def _lift_sender_states(states, graph: ConnectionGraph, n: int) -> list[np.ndarray]:
    """The blocklength-n product input: n copies of each sender's one-use state."""
    lifted = []
    for state, grp in zip(states, (grp for grp in graph.sender_groups() if grp)):
        dims = [graph.dims[i] for i in grp] * 2
        lifted.append(permute_legs_vector(kron_all([state] * n), dims * n,
                                          copy_grouping(len(dims), n)))
    return lifted


def region_sample(ch: KrausChannel, graph: ConnectionGraph, n: int,
                  weights: Sequence[float], rng: np.random.Generator,
                  restarts: int = 16) -> RateTuple:
    """Best found rate tuple for one weight vector at blocklength n, from a descent of
    at most ``_optim.MAX_ITERS`` iterations per restart."""
    weights = tuple(float(x) for x in weights)
    if len(weights) != graph.size:
        raise ValueError(f"need {graph.size} weights, got {len(weights)}")
    if not all(0.0 <= x < math.inf for x in weights) or not any(x > 0 for x in weights):
        raise ValueError(f"weights must be finite, nonnegative and not all zero, got {weights}")
    problem = _RegionProblem(ch, graph, n)
    wvec = np.array(weights)

    def objective_batch(parts: list[np.ndarray]) -> np.ndarray:
        return -(problem.coherent_infos(parts) @ wvec)

    def gradient(parts: list[np.ndarray]) -> list[np.ndarray]:
        return problem.packed_gradient(parts, wvec)

    # the product of a sender's maximally entangled (ref, input) pairs, refs first,
    # is the maximally entangled state of its composite system
    warm = [[maximally_entangled_vector(int(np.prod([problem.block_dims[i] for i in grp])))
             for grp in problem.groups]]
    if n > 1:
        base = region_sample(ch, graph, 1, weights, rng.spawn(1)[0],
                             restarts=max(4, restarts // 2))
        warm.append(_lift_sender_states(base.sender_states, graph, n))

    result = minimize_product_states(
        objective_batch, problem.part_dims, rng, gradient, restarts=restarts, warm_starts=warm,
    )
    infos = problem.coherent_infos([s[None, :] for s in result.states])[0]
    rates = tuple(v / n for v in infos)
    return RateTuple(
        rates=rates,
        dims=graph.dims,
        blocklength=n,
        weights=weights,
        objective=float(np.dot(wvec, rates)),
        sender_states=tuple(result.states),
        restart_index=result.restart_index,
    )


def region_sweep(ch: KrausChannel, graph: ConnectionGraph, n: int,
                 weight_grid: Sequence[Sequence[float]], rng: np.random.Generator,
                 restarts: int = 16) -> list[RateTuple]:
    """One :func:`region_sample` per weight vector, in grid order, each on its own
    stream of ``rng.spawn(len(weight_grid))``."""
    grid = [tuple(float(x) for x in w) for w in weight_grid]
    if not grid:
        raise ValueError("weight grid is empty")
    return [region_sample(ch, graph, n, w, s, restarts=restarts)
            for w, s in zip(grid, rng.spawn(len(grid)))]


def simplex_weight_grid(size: int, count: int, rng: np.random.Generator
                        ) -> list[tuple[float, ...]]:
    """Deterministic, distinct weight vectors on the simplex.

    Two connections: the even sweep of ``max(count, 3)`` points from (1, 0) to
    (0, 1), vertices first; it holds the center (0.5, 0.5) when the count is
    odd.  Three or more: the vertices, the center, then seeded Dirichlet points
    up to ``count``.  One connection: its single vertex.
    """
    if size == 1:
        return [(1.0,)]
    if size == 2:
        ts = np.linspace(0.0, 1.0, max(count, 3))
        return [(1.0, 0.0), (0.0, 1.0)] + [(float(t), float(1.0 - t)) for t in ts[1:-1]]
    grid: list[tuple[float, ...]] = []
    for i in range(size):
        w = [0.0] * size
        w[i] = 1.0
        grid.append(tuple(w))
    grid.append(tuple(1.0 / size for _ in range(size)))
    for _ in range(count - len(grid)):
        w = rng.dirichlet(np.ones(size))
        grid.append(tuple(float(x) for x in w))
    return grid
