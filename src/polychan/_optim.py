"""Projected gradient descent over products of unit spheres.

Shared by the worst-case fidelity search and the rate-region sampler.  A batch
of points is a list of per-part ``(rows, d_w)`` complex arrays, every row
unit-norm per part.  Callers supply the objective on such batches and its
exact gradient on such batches, as the complex derivative df/d conj(c_w) per
part; the descent takes the real gradient (twice that derivative) and projects
it onto each sphere's tangent space.

All restarts descend together, one row each.  Every iteration makes one
gradient call on the rows still descending and one objective call on the five
steps of their line-search windows (4, 2, 1, 1/2 and 1/4 times each row's last
accepted step).  Only the rows whose window finds no decrease get a second
call, on the other 12 steps of the 17-step ladder, and take the best of all
17; a row stops ``no_decrease`` only when no ladder step lowers its value.
Each row keeps its own step size and stops on its own, so it follows the path
it would follow alone.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Callable, Sequence

import numpy as np

# line-search ladder: multiples 2^3 ... 2^-13 of a row's last accepted step; the window
# 2^2 ... 2^-2 is tried first, the other 12 steps only where the window finds no decrease
LADDER = 2.0 ** np.arange(3, -14, -1)
WINDOW = LADDER[1:6]
OUTSIDE = np.delete(LADDER, np.s_[1:6])


@dataclass
class SphereResult:
    """The best restart, and per-restart certificates (warm starts first).

    ``stops[r]`` says why restart r ended: ``grad_norm`` (tangent gradient
    below 1e-12), ``no_decrease`` (none of the 17 ladder steps lowered the
    value) or ``max_iters``.  ``value`` lies within 1e-12 of the lowest of
    ``values``.  ``agreement`` counts the restarts within 1e-9 of the best
    value, the only evidence of how far a heuristic minimum can be trusted.
    """

    value: float
    states: list[np.ndarray]
    restart_index: int
    values: np.ndarray
    iterations: np.ndarray
    stops: tuple[str, ...]
    agreement: int


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
    ``gradient`` maps such a batch to the per-part ``(B, part_dims[w])``
    complex derivatives df/d conj(c_w); the factor 2 and the radial projection
    are applied here.  Deterministic for a fixed rng state.  The returned value
    is a local minimum within 1e-12 of the best found, an upper bound on the
    true minimum: among the restarts within 1e-12 of the lowest value, the
    lowest index wins, so round-off between restarts that reach the same
    optimum does not decide it.  Raises ``ValueError`` for negative
    ``restarts`` or when there is no start at all.
    """
    if restarts < 0 or restarts + len(warm_starts) == 0:
        raise ValueError(f"need restarts >= 0 and at least one start, got restarts {restarts} "
                         f"and {len(warm_starts)} warm starts")
    splits = np.cumsum([int(d) for d in part_dims])[:-1]
    starts = [[np.asarray(s, dtype=complex) for s in ws] for ws in warm_starts]
    # consecutive real draws are the (re, im) of one amplitude
    draws = rng.standard_normal((restarts, 2 * int(np.sum(part_dims)))).view(complex)
    starts += [np.split(z, splits) for z in draws]
    x = [np.array([c / np.linalg.norm(c) for c in part]) for part in zip(*starts)]

    values, iterations, stops = _descend(objective_batch, gradient, x, max_iters)
    best = int(np.argmax(values <= np.min(values) + 1e-12))
    return SphereResult(
        value=float(values[best]), states=[p[best] for p in x], restart_index=best,
        values=values, iterations=iterations, stops=tuple(stops),
        agreement=int(np.sum(values <= values[best] + 1e-9)),
    )


def _descend(objective_batch, gradient, x, max_iters):
    """Descend every row of the per-part arrays ``x`` (updated in place) together.

    Returns each row's final value, its number of accepted steps and why it stopped.
    """
    rows = len(x[0])
    fx = np.array(objective_batch(x), dtype=float)
    step = np.full(rows, 0.5)
    iterations = np.zeros(rows, dtype=int)
    stops = np.full(rows, "max_iters", dtype=object)
    active = np.arange(rows)
    for _ in range(max_iters):
        xa = [p[active] for p in x]
        # real gradient 2 df/d conj(c), minus its radial part Re<c, g> c on each sphere
        grad = [2.0 * (g - np.einsum("ri,ri->r", c.conj(), g).real[:, None] * c)
                for c, g in zip(xa, gradient(xa))]
        gnorm = np.sqrt(sum(np.einsum("ri,ri->r", g.conj(), g).real for g in grad))
        flat = gnorm < 1e-12
        stops[active[flat]] = "grad_norm"
        active, xa, grad = active[~flat], [c[~flat] for c in xa], [g[~flat] for g in grad]
        if not active.size:
            break
        # best-of-grid line search on each row's five-step window, all rows in one
        # batched call, so badly conditioned valleys cannot trap the step size
        best_x, best, best_t = _best_step(objective_batch, xa, grad, step[active, None] * WINDOW)
        # rows whose window finds no decrease try the other 12 ladder steps in one more
        # call; any decrease there is the best of all 17, so such a row stops only when
        # no ladder step lowers its value
        low = np.flatnonzero(best >= fx[active] - 1e-16)
        if low.size:
            more_x, best[low], best_t[low] = _best_step(
                objective_batch, [c[low] for c in xa], [g[low] for g in grad],
                step[active[low], None] * OUTSIDE)
            for b, m in zip(best_x, more_x):
                b[low] = m
        done = best >= fx[active] - 1e-16
        stops[active[done]] = "no_decrease"
        moved, active = ~done, active[~done]
        for p, b in zip(x, best_x):
            p[active] = b[moved]
        fx[active] = best[moved]
        step[active] = np.clip(best_t[moved], 1e-12, 1e7)
        iterations[active] += 1
        if not active.size:
            break
    return fx, iterations, stops


def _best_step(objective_batch, xa, grad, trials):
    """Each row's best step among ``trials`` (rows, k) from ``xa`` against the tangent
    gradient ``grad``: the renormalized point per part, its value and its step."""
    # a tangent step only grows each part's norm, so no row is ever zero
    cands = [c[:, None] - trials[:, :, None] * g[:, None] for c, g in zip(xa, grad)]
    cands = [p / np.linalg.norm(p, axis=2, keepdims=True) for p in cands]
    vals = objective_batch([p.reshape(-1, p.shape[2]) for p in cands]).reshape(trials.shape)
    pick = np.arange(len(trials)), np.argmin(vals, axis=1)
    return [p[pick] for p in cands], vals[pick], trials[pick]
