"""Coherent information and achievable rate regions.

The region sampler ascends the weighted sum of per-connection coherent
informations over product input purifications (one pure state per sender) fed
into the n-fold channel, then reports per-use rates.  All points returned are
achievable inner-bound points: the rates are the coherent informations
evaluated at the returned state, up to optimizer suboptimality.

The objective is evaluated for a whole batch of candidate states at once
(every line-search point of a descent step): each connection's channel
marginal is precomputed as a superoperator, and the reduced states of all
rows come from stacked matmuls and one batched eigenvalue call per spectrum,
in row blocks of bounded memory.  Its exact gradient at one point pulls
I_R (x) log2 rho_B - log2 rho_RB back through the adjoint superoperators (see
``_RegionProblem``).
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Iterable, Sequence

import numpy as np

from ._optim import complex_parts, minimize_product_states
from .channels import (
    ConnectionGraph,
    KrausChannel,
    _leg_grouping_index,
    apply_with_reference,
    check_graph_compatible,
    tensor_power,
)
from .errors import CapExceededError
from .linalg import (
    DensityOperator,
    SystemLayout,
    clip_spectrum,
    eigh,
    entropy,
    entropy_of_spectrum,
    kron_all,
    partial_trace,
    permute_legs_vector,
    uhlmann_fidelity,
)

BLOCKLENGTH_CAP = 3

# Largest sigma_i stack (bytes) one block of the batched region objective may hold.
OBJECTIVE_BLOCK_BYTES = 1 << 19


@dataclass(frozen=True)
class BipartiteSplit:
    """A disjoint covering split of a layout's legs into an A and a B side."""

    layout: SystemLayout
    a_legs: frozenset[int]
    b_legs: frozenset[int]

    def __init__(self, layout, a_legs: Iterable[int], b_legs: Iterable[int]):
        layout = layout if isinstance(layout, SystemLayout) else SystemLayout(layout)
        a = frozenset(int(i) for i in a_legs)
        b = frozenset(int(i) for i in b_legs)
        if a & b:
            raise ValueError(f"split sides overlap on legs {sorted(a & b)}")
        if a | b != set(range(layout.num_legs)):
            raise ValueError("split sides must cover all legs")
        object.__setattr__(self, "layout", layout)
        object.__setattr__(self, "a_legs", a)
        object.__setattr__(self, "b_legs", b)

    @property
    def a_dim(self) -> int:
        return int(np.prod([self.layout.leg_dims[i] for i in sorted(self.a_legs)] or [1]))

    @property
    def b_dim(self) -> int:
        return int(np.prod([self.layout.leg_dims[i] for i in sorted(self.b_legs)] or [1]))


def coherent_information(rho: DensityOperator, split: BipartiteSplit) -> float:
    """I_c(A>B) = S(rho_B) - S(rho_AB), in bits."""
    if rho.layout != split.layout:
        raise ValueError("state layout does not match the split's layout")
    s_ab = entropy(rho)
    rho_b = partial_trace(rho.matrix, rho.layout, split.b_legs)
    return entropy(rho_b) - s_ab


def check_dpi(rho: DensityOperator, split: BipartiteSplit, post: KrausChannel) -> float:
    """Margin I_c(before) - I_c(after postprocessing on B); nonnegative up to round-off."""
    before = coherent_information(rho, split)
    a_sorted = sorted(split.a_legs)
    b_sorted = sorted(split.b_legs)
    perm = a_sorted + b_sorted
    moved = rho.permuted(perm)
    b_dim = split.b_dim
    if post.in_dim != b_dim:
        raise ValueError(f"postprocessing input {post.in_dim} does not match B dimension {b_dim}")
    out = apply_with_reference(post, moved, ref_legs=len(a_sorted))
    na = len(a_sorted)
    split_after = BipartiteSplit(
        out.layout, range(na), range(na, out.layout.num_legs)
    )
    return before - coherent_information(out, split_after)


def continuity_gap(rho: DensityOperator, sigma: DensityOperator,
                   split: BipartiteSplit) -> tuple[float, float]:
    """(|delta I_c|, 4 sqrt(1-F) log2(d_A) + 2) for two states on the same split."""
    if rho.dim != sigma.dim:
        raise ValueError(f"dimension mismatch: {rho.dim} vs {sigma.dim}")
    lhs = abs(coherent_information(rho, split) - coherent_information(sigma, split))
    f = max(0.0, 1.0 - uhlmann_fidelity(rho, sigma))
    rhs = 4.0 * np.sqrt(f) * np.log2(split.a_dim) + 2.0
    return lhs, float(rhs)


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

    Each connection i has a marginal superoperator, built once from the Kraus
    operators: the map from the joint input to output block B_i with the other
    outputs traced out, a (d_i^2, d_in^2) matrix acting on row-major
    vectorized operators.  The full d_out^2 x d_in^2 Liouville matrix is never
    formed.  :meth:`coherent_infos` evaluates a stack of inputs at once:
    sigma_i = Tr_{R != i} |psi><psi| by a stacked matmul, then the
    superoperator, then one batched eigenvalue call per spectrum.
    :meth:`packed_gradient` reuses the same leg view and reduced states at one
    point, with eigenvectors.

    Rows are evaluated in blocks whose sigma_i stack stays under
    ``OBJECTIVE_BLOCK_BYTES`` (8 rows on a qubit pair at n = 2, about 64 KB per
    row), so a long batch does not raise peak memory.  Every product is a stack
    of small matmuls, never one tall 2-D GEMM, which would wake a second BLAS
    thread.
    """

    def __init__(self, ch: KrausChannel, graph: ConnectionGraph, n: int):
        check_graph_compatible(ch, graph)
        if n < 1:
            raise ValueError("blocklength must be >= 1")
        if n > BLOCKLENGTH_CAP:
            raise CapExceededError(f"blocklength {n} exceeds the cap {BLOCKLENGTH_CAP}")
        block_ch = KrausChannel(
            ch.kraus_ops, SystemLayout(graph.in_block_dims), SystemLayout(graph.out_block_dims)
        )
        ch_n = tensor_power(block_ch, n) if n > 1 else block_ch
        self.graph = graph.powered(n)
        g = self.graph.size
        self.block_dims = self.graph.dims  # per-connection dims at blocklength n
        self.groups = [grp for grp in self.graph.sender_groups() if grp]
        # sender part dimensions: refs then inputs, one pair of blocks per connection
        self.part_dims = [
            int(np.prod([self.block_dims[i] for i in grp])) ** 2 for grp in self.groups
        ]
        # joint legs (sender-major): per sender, ref blocks then input blocks
        leg_dims: list[int] = []
        tags: list[tuple[str, int]] = []
        for grp in self.groups:
            for i in grp:
                leg_dims.append(self.block_dims[i])
                tags.append(("R", i))
            for i in grp:
                leg_dims.append(self.block_dims[i])
                tags.append(("A", i))
        pos = {t: p for p, t in enumerate(tags)}
        inputs = [pos[("A", j)] for j in self.graph.input_order]
        self.joint_leg_dims = leg_dims
        # per connection: sender-major legs -> (R_i, the other refs, the input blocks)
        self.leg_axes = []
        for i in range(g):
            refs = [pos[("R", i)]] + [pos[("R", j)] for j in range(g) if j != i]
            axes = [0] + [1 + p for p in refs + inputs]
            self.leg_axes.append((axes, [leg_dims[a - 1] for a in axes[1:]], np.argsort(axes)))
        self.d_in = d_in = ch_n.in_dim
        out_dims = [self.block_dims[j] for j in self.graph.output_order]
        kraus = ch_n.kraus_stack().reshape(-1, *out_dims, d_in)
        self.superops_t = []
        self.adjoints = []
        for i in range(g):
            d = self.block_dims[i]
            axis = 1 + self.graph.output_order.index(i)
            # per Kraus operator A_k[(b, c), x]: rows (b, x), columns c over the other outputs
            ops = np.moveaxis(kraus, axis, 1)
            ops = np.moveaxis(ops.reshape(len(ops), d, -1, d_in), 3, 2).reshape(
                len(ops), d * d_in, -1)
            s = np.zeros((d * d_in, d * d_in), dtype=complex)
            for a in ops:  # once per problem; small products stay single-threaded
                s += a @ a.conj().T
            sup = s.reshape(d, d_in, d, d_in).transpose(0, 2, 1, 3).reshape(d * d, d_in * d_in)
            # stored transposed and contiguous: it multiplies vectorized operators from the right
            self.superops_t.append(np.ascontiguousarray(sup.T))
            # the adjoint map is sup^dag, stored as adj[x][(b, b'), x'] = conj(sup)[(b, b'), (x, x')]
            self.adjoints.append(np.ascontiguousarray(
                sup.conj().reshape(d * d, d_in, d_in).transpose(1, 0, 2)))
        widest = max(d * d_in for d in self.block_dims)
        self.block_rows = max(1, OBJECTIVE_BLOCK_BYTES // (16 * widest**2))

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
        ket = _product_kets(parts)
        infos = np.empty((ket.shape[0], self.graph.size))
        for i in range(self.graph.size):
            rho_rb, rho_b = self._output_states(self._connection_legs(ket, i), i)
            s_rb = entropy_of_spectrum(eigh(rho_rb, vectors=False)[0])
            s_b = entropy_of_spectrum(eigh(rho_b, vectors=False)[0])
            infos[:, i] = s_b - s_rb
        return infos

    def _connection_legs(self, ket: np.ndarray, i: int, inverse: bool = False) -> np.ndarray:
        """Sender-major kets (rows, D) -> psi[row, r, o, x] for connection i, or back.

        r runs over R_i, o over the other refs, x over the joint input (blocks
        in the graph's input order).  With ``inverse`` an array shaped like psi
        goes back to sender-major rows.
        """
        axes, dims, back = self.leg_axes[i]
        rows = ket.shape[0]
        if inverse:
            return ket.reshape(rows, *dims).transpose(back).reshape(rows, -1)
        legs = ket.reshape(rows, *self.joint_leg_dims).transpose(axes)
        return legs.reshape(rows, dims[0], -1, self.d_in)

    def _output_states(self, psi: np.ndarray, i: int) -> tuple[np.ndarray, np.ndarray]:
        """rho_RB, shape (rows, d^2, d^2), and rho_B of connection i from psi[row, r, o, x]."""
        rows, d = psi.shape[:2]
        # sigma[r, r', x, x'] = sum_o psi[r, o, x] conj(psi[r', o, x']), one small
        # matmul per (row, r, r') so the input pair lands contiguous for the superoperator
        sigma = psi.swapaxes(2, 3)[:, :, None] @ psi.conj()[:, None]
        rho = (sigma.reshape(rows, d * d, -1) @ self.superops_t[i]).reshape(rows, d, d, d, d)
        rho_rb = rho.transpose(0, 1, 3, 2, 4).reshape(rows, d * d, d * d)
        return rho_rb, np.trace(rho, axis1=1, axis2=2)

    def packed_gradient(self, x: np.ndarray, weights: np.ndarray) -> np.ndarray:
        """Exact gradient of -sum_i w_i I_c(R_i > B_i) at one packed point.

        With X_i = I_R (x) log2 rho_B - log2 rho_RB, d(-I_c) = tr[X_i d rho_RB]
        (the trace terms of dS cancel between the two entropies).  The adjoint
        superoperator pulls X_i back to Y_i on (R_i, input), and
        df/d conj(psi) = sum_i w_i (Y_i (x) I) psi.  Eigenvalues are floored
        inside the log: <k|d rho|k> = 0 on ker rho along every direction, so
        the floor multiplies zero and the gradient stays exact at rank-deficient
        points.  Packed like ``QuadraticOverlap.packed_gradient``: twice the
        (re, im) of df/d conj(c_w), sender by sender.
        """
        parts = complex_parts(x[None, :], self.part_dims, normalize=False)
        ket = _product_kets(parts)
        grad = np.zeros_like(ket)
        d_in = self.d_in
        for i, (d, adj) in enumerate(zip(self.block_dims, self.adjoints)):
            if weights[i] == 0:
                continue
            psi = self._connection_legs(ket, i)
            rho_rb, rho_b = self._output_states(psi, i)
            # X[(r, r'), (b, b')] = delta_rr' log2 rho_B[b, b'] - log2 rho_RB[(r, b), (r', b')]
            log_rb = _log2m(rho_rb[0]).reshape(d, d, d, d).transpose(0, 2, 1, 3)
            x_rr = (np.eye(d)[:, :, None, None] * _log2m(rho_b[0]) - log_rb).reshape(d * d, -1)
            # pulled back to Y[x, (r, r'), x']; every product is a stack of small matmuls
            # (a wide 2-D GEMM wakes a second BLAS thread)
            y = (x_rr @ adj).reshape(d_in, d, d, d_in).transpose(1, 0, 2, 3)
            # (Y (x) I_o) psi: sum over (r', x'), stacked over r -> [r, x, o]
            y_psi = y.reshape(d, d_in, d * d_in) @ psi[0].swapaxes(1, 2).reshape(d * d_in, -1)
            grad += weights[i] * self._connection_legs(y_psi.swapaxes(1, 2)[None], i, inverse=True)
        grad = grad.reshape(self.part_dims)
        senders = range(len(parts))
        out = []
        for w in senders:
            args = [grad, list(senders)]
            for v in senders:
                if v != w:
                    args += [parts[v][0].conj(), [v]]
            out.append(np.einsum(*args, [w]))
        return 2.0 * np.concatenate(out).view(float)

    def me_sender_state(self, w: int) -> np.ndarray:
        """Product of maximally entangled ref-input pairs for one sender."""
        grp = self.groups[w]
        vec = kron_all(
            [np.eye(self.block_dims[i], dtype=complex).reshape(-1) / np.sqrt(self.block_dims[i])
             for i in grp]
        )
        pair_dims = [d for i in grp for d in (self.block_dims[i], self.block_dims[i])]
        c = len(grp)
        order = [2 * j for j in range(c)] + [2 * j + 1 for j in range(c)]
        return permute_legs_vector(vec, pair_dims, order)


def _product_kets(parts: Sequence[np.ndarray]) -> np.ndarray:
    """Row-wise tensor product of per-sender state batches, in sender order."""
    ket = parts[0]
    for p in parts[1:]:
        ket = (ket[:, :, None] * p[:, None, :]).reshape(ket.shape[0], -1)
    return ket


def _log2m(rho: np.ndarray) -> np.ndarray:
    """log2 of a density matrix, with its zero eigenvalues floored to the smallest float."""
    w, v = eigh(rho)
    w = np.maximum(clip_spectrum(w), np.finfo(float).tiny)
    return (v * np.log2(w)) @ v.conj().T


def region_sample(ch: KrausChannel, graph: ConnectionGraph, n: int,
                  weights: Sequence[float], rng: np.random.Generator,
                  restarts: int = 16, max_iters: int = 300) -> RateTuple:
    """Best found rate tuple for one weight vector at blocklength n."""
    weights = tuple(float(x) for x in weights)
    if len(weights) != graph.size:
        raise ValueError(f"need {graph.size} weights, got {len(weights)}")
    if any(x < 0 for x in weights) or not any(x > 0 for x in weights):
        raise ValueError("weights must be nonnegative and not all zero")
    problem = _RegionProblem(ch, graph, n)
    wvec = np.array(weights)

    def objective_batch(x_block: np.ndarray) -> np.ndarray:
        parts = complex_parts(x_block, problem.part_dims, normalize=False)
        return -(problem.coherent_infos(parts) @ wvec)

    def gradient(x: np.ndarray) -> np.ndarray:
        return problem.packed_gradient(x, wvec)

    warm = [[problem.me_sender_state(w) for w in range(len(problem.groups))]]
    if n > 1:
        base = region_sample(ch, graph, 1, weights, rng.spawn(1)[0],
                             restarts=max(4, restarts // 2), max_iters=max_iters)
        lifted = []
        for w, grp in enumerate(problem.groups):
            single = base.sender_states[w]
            single_dims = [graph.dims[i] for i in grp] * 2
            # regroup n copies so the per-connection blocks stay contiguous
            vec = kron_all([single] * n)
            idx = _leg_grouping_index(single_dims, n)
            lifted.append(vec[idx])
        warm.append(lifted)

    result = minimize_product_states(
        objective_batch, problem.part_dims, rng, gradient, restarts=restarts,
        max_iters=max_iters, warm_starts=warm,
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


def _dominates(a: Sequence[float], b: Sequence[float], tol: float = 1e-9) -> bool:
    return all(x >= y - tol for x, y in zip(a, b)) and any(x > y + tol for x, y in zip(a, b))


def region_pareto(ch: KrausChannel, graph: ConnectionGraph, n: int,
                  weight_grid: Sequence[Sequence[float]], rng: np.random.Generator,
                  restarts: int = 16, max_iters: int = 300) -> list[RateTuple]:
    """Scalarize over a grid of weight vectors; deduplicated, Pareto-filtered."""
    grid = [tuple(float(x) for x in w) for w in weight_grid]
    if not grid:
        raise ValueError("weight grid is empty")
    streams = rng.spawn(len(grid))
    points = [
        region_sample(ch, graph, n, w, s, restarts=restarts, max_iters=max_iters)
        for w, s in zip(grid, streams)
    ]
    seen = set()
    unique = []
    for p in points:
        key = tuple(round(r, 9) for r in p.achievable)
        if key not in seen:
            seen.add(key)
            unique.append(p)
    frontier = [
        p for p in unique
        if not any(_dominates(q.achievable, p.achievable) for q in unique if q is not p)
    ]
    return frontier


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
