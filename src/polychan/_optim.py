"""Projected gradient descent over products of unit spheres.

Shared by the worst-case fidelity search and the rate-region sampler.  A batch
of points is a list of per-part ``(rows, d_w)`` complex arrays, every row
unit-norm per part.  Callers supply the objective on such batches and its
exact gradient on such batches, as the complex derivative df/d conj(c_w) per
part; the descent takes the real gradient (twice that derivative) and projects
it onto each sphere's tangent space.

All restarts descend together, one row each.  Every iteration makes one
gradient call on the rows still descending and one objective call on all of
their line-search ladders; each row keeps its own step size and stops on its
own, so it follows the path it would follow alone.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Callable, Sequence

import numpy as np

# line-search ladder: multiples 2^3 ... 2^-13 of a row's last accepted step
LADDER = 2.0 ** np.arange(3, -14, -1)


@dataclass
class SphereResult:
    """The best restart, and per-restart certificates (warm starts first).

    ``stops[r]`` says why restart r ended: ``grad_norm`` (tangent gradient
    below 1e-12), ``no_decrease`` (no ladder step lowered the value) or
    ``max_iters``.  ``agreement`` counts the restarts within 1e-9 of the best
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
    is the best local minimum found, an upper bound on the true minimum; ties
    within 1e-15 go to the lowest restart index.  Raises ``ValueError`` for
    negative ``restarts`` or when there is no start at all.
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
    best = 0
    for idx in range(1, len(values)):
        if values[idx] < values[best] - 1e-15:
            best = idx
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
        # best-of-grid line search over a geometric step ladder per row, all rows in
        # one batched call, so badly conditioned valleys cannot trap the step size
        trials = step[active, None] * LADDER
        # a tangent step only grows each part's norm, so no row is ever zero
        cands = [c[:, None] - trials[:, :, None] * g[:, None] for c, g in zip(xa, grad)]
        cands = [p / np.linalg.norm(p, axis=2, keepdims=True) for p in cands]
        vals = objective_batch([p.reshape(-1, p.shape[2]) for p in cands])
        vals = vals.reshape(len(active), LADDER.size)
        pick = np.arange(len(active)), np.argmin(vals, axis=1)
        done = vals[pick] >= fx[active] - 1e-16
        stops[active[done]] = "no_decrease"
        moved, active = ~done, active[~done]
        for p, c in zip(x, cands):
            p[active] = c[pick][moved]
        fx[active] = vals[pick][moved]
        step[active] = np.clip(trials[pick][moved], 1e-12, 1e7)
        iterations[active] += 1
        if not active.size:
            break
    return fx, iterations, stops
