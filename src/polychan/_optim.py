"""Projected gradient descent over products of unit spheres.

Shared by the worst-case fidelity search and the rate-region sampler.  A point
is a list of complex unit vectors, one per part; a batch of points is a list
of ``(rows, d_w)`` arrays, every row unit-norm per part.  Callers supply the
objective on such batches and its exact gradient at one point as the complex
derivative df/d conj(c_w) per part; the descent takes the real gradient
(twice that derivative) and projects it onto each sphere's tangent space.
The batched objective evaluates the whole line-search ladder of a step in one
call.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Callable, Sequence

import numpy as np


@dataclass
class SphereResult:
    value: float
    states: list[np.ndarray]
    restart_index: int


def minimize_product_states(
    objective_batch: Callable[[list[np.ndarray]], np.ndarray],
    part_dims: Sequence[int],
    rng: np.random.Generator,
    gradient: Callable[[list[np.ndarray]], list[np.ndarray]],
    restarts: int = 32,
    max_iters: int = 300,
    warm_starts: Sequence[Sequence[np.ndarray]] = (),
) -> SphereResult:
    """Minimize a smooth objective over product pure states.

    ``objective_batch`` maps a list of per-part ``(B, part_dims[w])`` complex
    arrays to B objective values.  Every row it receives (the starts and the
    line-search candidates) is unit-norm per part, so it need not normalize.
    ``gradient`` maps one point (a list of unit vectors) to the list of
    per-part complex derivatives df/d conj(c_w); the factor 2 and the radial
    projection are applied here.  Deterministic for a fixed rng state.  The
    returned value is the best local minimum found, an upper bound on the true
    minimum.
    """
    splits = np.cumsum([int(d) for d in part_dims])[:-1]
    starts = [[np.asarray(s, dtype=complex) for s in ws] for ws in warm_starts]
    for _ in range(restarts):
        # consecutive real draws are the (re, im) of one amplitude
        z = rng.standard_normal(2 * int(np.sum(part_dims))).view(complex)
        starts.append(np.split(z, splits))
    starts = [[c / np.linalg.norm(c) for c in x] for x in starts]

    best_val = np.inf
    best_x = starts[0]
    best_idx = 0
    for idx, x0 in enumerate(starts):
        val, x = _descend(objective_batch, gradient, x0, max_iters)
        if val < best_val - 1e-15:
            best_val, best_x, best_idx = val, x, idx
    return SphereResult(value=float(best_val), states=best_x, restart_index=best_idx)


def _descend(objective_batch, gradient, x0, max_iters):
    x = x0
    fx = float(objective_batch([c[None, :] for c in x])[0])
    step = 0.5
    for _ in range(max_iters):
        # real gradient 2 df/d conj(c), minus its radial part Re<c, g> c on each sphere
        grad = [2.0 * (g - np.vdot(c, g).real * c) for c, g in zip(x, gradient(x))]
        gnorm = np.sqrt(sum(np.vdot(g, g).real for g in grad))
        if gnorm < 1e-12:
            break
        # best-of-grid line search: one batched call over a geometric step ladder,
        # so badly conditioned valleys cannot trap the step size
        trials = step * 2.0 ** np.arange(3, -14, -1)
        # a tangent step only grows each part's norm, so no row is ever zero
        cands = [c[None, :] - trials[:, None] * g[None, :] for c, g in zip(x, grad)]
        cands = [p / np.linalg.norm(p, axis=1, keepdims=True) for p in cands]
        vals = objective_batch(cands)
        k = int(np.argmin(vals))
        if vals[k] >= fx - 1e-16:
            break
        x, fx = [p[k] for p in cands], float(vals[k])
        step = float(np.clip(trials[k], 1e-12, 1e7))
    return fx, x
