"""Projected gradient descent over products of unit spheres.

Shared by the worst-case fidelity search and the rate-region sampler.  States
are packed as flat real vectors (interleaved re/im per complex amplitude);
each part is kept on its sphere by renormalizing after every step.  Callers
may pass an exact gradient (the worst-case fidelity search does); otherwise
gradients are central differences, evaluated through the batched objective so
callers can vectorize.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Callable, Sequence

import numpy as np

GRAD_STEP = 1e-5


def pack_states(states: Sequence[np.ndarray]) -> np.ndarray:
    """Complex part vectors -> one flat real parameter vector."""
    chunks = []
    for s in states:
        s = np.asarray(s, dtype=complex).reshape(-1)
        chunks.append(np.column_stack([s.real, s.imag]).reshape(-1))
    return np.concatenate(chunks)


def unpack_states(x: np.ndarray, part_dims: Sequence[int], normalize: bool = True
                  ) -> list[np.ndarray]:
    """Flat real parameters -> complex unit vectors, one per part."""
    out = []
    pos = 0
    for d in part_dims:
        chunk = x[pos : pos + 2 * d].reshape(d, 2)
        v = chunk[:, 0] + 1j * chunk[:, 1]
        if normalize:
            nrm = np.linalg.norm(v)
            if nrm < 1e-12:
                v = np.zeros(d, dtype=complex)
                v[0] = 1.0
            else:
                v = v / nrm
        out.append(v)
        pos += 2 * d
    return out


def renormalize_rows(x_block: np.ndarray, part_dims: Sequence[int]) -> np.ndarray:
    """Normalize every part of every packed row (rows of zeros get a basis state)."""
    out = np.array(x_block, dtype=float, copy=True)
    if out.ndim == 1:
        out = out[None, :]
    pos = 0
    for d in part_dims:
        sl = out[:, pos : pos + 2 * d]
        nrm = np.linalg.norm(sl, axis=1)
        bad = nrm < 1e-12
        if np.any(bad):
            sl[bad] = 0.0
            sl[bad, 0] = 1.0
            nrm = np.linalg.norm(sl, axis=1)
        sl /= nrm[:, None]
        pos += 2 * d
    return out


def complex_parts(x_block: np.ndarray, part_dims: Sequence[int],
                  normalize: bool = True) -> list[np.ndarray]:
    """Packed rows -> per-part complex batches of shape (B, d)."""
    rows = renormalize_rows(x_block, part_dims) if normalize else np.atleast_2d(x_block)
    out = []
    pos = 0
    for d in part_dims:
        chunk = rows[:, pos : pos + 2 * d].reshape(rows.shape[0], d, 2)
        out.append(chunk[..., 0] + 1j * chunk[..., 1])
        pos += 2 * d
    return out


def _renormalize(x: np.ndarray, part_dims: Sequence[int]) -> np.ndarray:
    return renormalize_rows(x, part_dims)[0]


@dataclass
class SphereResult:
    value: float
    states: list[np.ndarray]
    restart_index: int


def project_tangent(x: np.ndarray, grad: np.ndarray, part_dims: Sequence[int]) -> np.ndarray:
    """Remove per-part radial components (x assumed normalized per part)."""
    out = grad.copy()
    pos = 0
    for d in part_dims:
        sl = slice(pos, pos + 2 * d)
        out[sl] -= np.dot(x[sl], out[sl]) * x[sl]
        pos += 2 * d
    return out


def minimize_product_states(
    objective_batch: Callable[[np.ndarray], np.ndarray],
    part_dims: Sequence[int],
    rng: np.random.Generator,
    restarts: int = 32,
    max_iters: int = 300,
    warm_starts: Sequence[Sequence[np.ndarray]] = (),
    grad_step: float = GRAD_STEP,
    gradient: Callable[[np.ndarray], np.ndarray] | None = None,
) -> SphereResult:
    """Minimize a smooth objective over product pure states.

    ``objective_batch`` maps a (B, n_params) block of packed parameters to B
    objective values; parts are normalized before evaluation, so the objective
    must be scale-invariant per part (callers normalize inside as well).
    ``gradient``, when given, returns the exact tangent gradient at one packed
    point; otherwise central differences are used.  Deterministic for a fixed
    rng state.  The returned value is the best local minimum found, an upper
    bound on the true minimum.
    """
    part_dims = tuple(int(d) for d in part_dims)
    n = 2 * sum(part_dims)
    starts: list[np.ndarray] = [
        _renormalize(pack_states([np.asarray(s, dtype=complex) for s in ws]), part_dims)
        for ws in warm_starts
    ]
    for _ in range(restarts):
        x0 = rng.standard_normal(n)
        starts.append(_renormalize(x0, part_dims))

    best_val = np.inf
    best_x = starts[0]
    best_idx = 0
    for idx, x0 in enumerate(starts):
        val, x = _descend(objective_batch, x0, part_dims, max_iters, grad_step, gradient)
        if val < best_val - 1e-15:
            best_val, best_x, best_idx = val, x, idx
    return SphereResult(
        value=float(best_val),
        states=unpack_states(best_x, part_dims),
        restart_index=best_idx,
    )


def _descend(objective_batch, x0, part_dims, max_iters, grad_step, gradient):
    x = x0
    fx = float(objective_batch(x[None, :])[0])
    step = 0.5
    n = x.size
    for _ in range(max_iters):
        if gradient is not None:
            grad = gradient(x)
        else:
            # central differences, one batched call
            pts = np.repeat(x[None, :], 2 * n, axis=0)
            idx = np.arange(n)
            pts[2 * idx, idx] += grad_step
            pts[2 * idx + 1, idx] -= grad_step
            vals = objective_batch(pts)
            grad = (vals[0::2] - vals[1::2]) / (2 * grad_step)
        grad = project_tangent(x, grad, part_dims)
        gnorm = float(np.linalg.norm(grad))
        if gnorm < 1e-12:
            break
        # best-of-grid line search: one batched call over a geometric step ladder,
        # so badly conditioned valleys cannot trap the step size
        trials = step * 2.0 ** np.arange(3, -14, -1)
        cands = renormalize_rows(x[None, :] - trials[:, None] * grad[None, :], part_dims)
        vals = objective_batch(cands)
        k = int(np.argmin(vals))
        if vals[k] >= fx - 1e-16:
            break
        x, fx = cands[k], float(vals[k])
        step = float(np.clip(trials[k], 1e-12, 1e7))
    return fx, x
