"""Riemannian L-BFGS over products of unit spheres.

Shared by the worst-case fidelity search and the rate-region sampler.  A batch
of points is a list of per-part ``(rows, d_w)`` complex arrays, every row
unit-norm per part.  Callers supply the objective on such batches and its
exact gradient on such batches, as the complex derivative df/d conj(c_w) per
part; the descent takes the real gradient (twice that derivative) and projects
it onto each sphere's tangent space.

All restarts descend together, one row each, with one gradient call per
iteration.  A row keeps its last ``MEMORY`` (s, y) pairs, moved onto each new
tangent space by the same projection, and a new pair only if <s, y> > 1e-12
|s| |y|.  Its direction is the two-loop recursion scaled by <s, y>/<y, y> of
the newest pair, or, with no pairs or no descent, its gradient times its last
gradient step.  One objective call tries every row's ``WINDOW`` 4 ... 1/4 times
its direction.  A row whose window finds no decrease drops its memory and
tries the 17-step ``LADDER`` 8 ... 2^-13 times its gradient step in one more
call; it stops ``no_decrease`` only when that finds none either.  A decrease
is a value lower by more than max(``FTOL`` |f|, 1e-16), ``FTOL`` = 1e-13: the
objective's own rounding is not a decrease, so a row that has converged to
rounding stops instead of creeping on for ``MAX_ITERS`` iterations.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Callable, Sequence

import numpy as np

# pairs (s, y) each row keeps; the relative decrease a step must beat; multiples of the
# direction the window tries first, and of the gradient step the ladder tries where the
# window finds no decrease; the iterations a restart takes at most
MEMORY = 8
FTOL = 1e-13
LADDER = 2.0 ** np.arange(3, -14, -1)
WINDOW = LADDER[1:6]
MAX_ITERS = 300


@dataclass
class SphereResult:
    """The best restart, and per-restart certificates (warm starts first).

    ``stops[r]`` says why restart r ended: ``grad_norm`` (tangent gradient
    below 1e-12), ``no_decrease`` (neither the window along the L-BFGS direction
    nor the 17 gradient ladder steps lowered the value by more than
    max(``FTOL`` |f|, 1e-16)) or ``max_iters`` (``MAX_ITERS`` iterations taken).
    ``value`` lies within 1e-12 of the lowest of ``values``.  ``agreement``
    counts the restarts within 1e-9 of the best value, the only evidence of how
    far a heuristic minimum can be trusted.
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
    warm_starts: Sequence[Sequence[np.ndarray]] = (),
) -> SphereResult:
    """Minimize a smooth objective over product pure states.

    ``objective_batch`` maps a list of per-part ``(B, part_dims[w])`` complex
    arrays to B objective values.  Every row it receives (the starts and the
    line-search candidates) is unit-norm per part, so it need not normalize.
    ``gradient`` maps such a batch to the per-part ``(B, part_dims[w])``
    complex derivatives df/d conj(c_w); the factor 2 and the radial projection
    are applied here.  Each restart descends by L-BFGS, with the window along
    its direction and the gradient ladder as the stop test (module docstring).
    Deterministic for a fixed rng state.  The returned value
    is a local minimum within 1e-12 of the best found, an upper bound on the
    true minimum: among the restarts within 1e-12 of the lowest value, the
    lowest index wins, so round-off between restarts that reach the same
    optimum does not decide it.  Raises ``ValueError`` for negative
    ``restarts`` or when there is no start at all.
    """
    if restarts < 0 or restarts + len(warm_starts) == 0:
        raise ValueError(f"need restarts >= 0 and at least one start, got restarts {restarts} "
                         f"and {len(warm_starts)} warm starts")
    starts = [[np.asarray(s, dtype=complex) for s in ws] for ws in warm_starts]
    # consecutive real draws are the (re, im) of one amplitude
    draws = rng.standard_normal((restarts, 2 * int(np.sum(part_dims)))).view(complex)
    starts += [_parts(z, part_dims) for z in draws]
    x = [np.array([c / np.linalg.norm(c) for c in part]) for part in zip(*starts)]

    values, iterations, stops = _descend(objective_batch, gradient, x)
    best = int(np.argmax(values <= np.min(values) + 1e-12))
    return SphereResult(
        value=float(values[best]), states=[p[best] for p in x], restart_index=best,
        values=values, iterations=iterations, stops=tuple(stops),
        agreement=int(np.sum(values <= values[best] + 1e-9)),
    )


def _descend(objective_batch, gradient, x):
    """Descend every row of the per-part arrays ``x`` (updated in place) together, for
    at most ``MAX_ITERS`` iterations.

    Returns each row's final value, its number of accepted steps and why it stopped.
    """
    dims = [p.shape[1] for p in x]
    z = np.concatenate(x, axis=1)
    rows, size = z.shape
    fx = np.array(objective_batch(x), dtype=float)
    step = np.full(rows, 0.5)
    iterations = np.zeros(rows, dtype=int)
    stops = np.full(rows, "max_iters", dtype=object)
    # (s, y) pairs newest first, with weights 1/<s, y> (0 in an empty slot), and the last
    # accepted move with the gradient it started from (zero before the first move)
    mem, last = np.zeros((2, rows, MEMORY, size), complex), np.zeros((2, rows, size), complex)
    rho, gamma = np.zeros((rows, MEMORY)), np.zeros(rows)
    active = np.arange(rows)
    for _ in range(MAX_ITERS):
        za = z[active]
        grad = _tangent(za, 2.0 * np.concatenate(gradient(_parts(za, dims)), axis=1), dims)
        flat = np.sqrt(_dot(grad, grad)) < 1e-12
        stops[active[flat]] = "grad_norm"
        active, za, grad = active[~flat], za[~flat], grad[~flat]
        if not active.size:
            break
        # carry the pairs and the last move to this point; a new pair must have curvature
        mem[:, active] = _tangent(za[:, None], mem[:, active], dims)
        s, y = _tangent(za, last[:, active], dims)
        y = grad - y
        sy = _dot(s, y)
        keep = sy > 1e-12 * np.sqrt(_dot(s, s) * _dot(y, y))
        new = active[keep]
        mem[:, new] = np.concatenate([np.stack([s, y])[:, keep, None], mem[:, new, :-1]], axis=2)
        rho[new] = np.concatenate([1.0 / sy[keep, None], rho[new, :-1]], axis=1)
        gamma[new] = sy[keep] / _dot(y[keep], y[keep])
        # two-loop recursion over the slots any row fills (the filled slots come first);
        # an empty slot has weight 0 and a row without pairs gets 0
        d, (ms, my), r = grad.copy(), mem[:, active], rho[active]
        used = np.count_nonzero(r, axis=1).max()
        alpha = np.zeros((active.size, used))
        for i in range(used):
            alpha[:, i] = r[:, i] * _dot(ms[:, i], d)
            d -= alpha[:, i, None] * my[:, i]
        d *= gamma[active, None]
        for i in reversed(range(used)):
            d += (alpha[:, i] - r[:, i] * _dot(my[:, i], d))[:, None] * ms[:, i]
        plain = ~(_dot(d, grad) > 0)
        d[plain] = step[active[plain], None] * grad[plain]
        best_z, best, best_t = _best_step(objective_batch, _parts(za, dims), _parts(d, dims),
                                          WINDOW)
        # a decrease must beat the objective's rounding, FTOL |f|, to count
        target = fx[active] - np.maximum(FTOL * np.abs(fx[active]), 1e-16)
        # rows whose window finds no decrease drop their memory and try the whole ladder
        # along the gradient in one more call
        low = np.flatnonzero(best >= target)
        if low.size:
            rho[active[low]], gamma[active[low]], plain[low] = 0.0, 0.0, True
            d[low] = step[active[low], None] * grad[low]
            best_z[low], best[low], best_t[low] = _best_step(
                objective_batch, _parts(za[low], dims), _parts(d[low], dims), LADDER)
        done = best >= target
        stops[active[done]] = "no_decrease"
        taken = active[plain & ~done]
        step[taken] = np.clip(best_t[plain & ~done] * step[taken], 1e-12, 1e7)
        moved, active = ~done, active[~done]
        z[active], fx[active] = best_z[moved], best[moved]
        last[:, active] = -best_t[moved, None] * d[moved], grad[moved]
        iterations[active] += 1
        if not active.size:
            break
    for p, v in zip(x, _parts(z, dims)):
        p[:] = v
    return fx, iterations, stops


def _best_step(objective_batch, xa, d, trials):
    """Each row's best point among ``xa - t d`` (per-part arrays) over the multiples
    ``trials``, each part renormalized: the flat points, their values and multiples."""
    # a tangent step only grows each part's norm, so no part is ever zero
    cands = [p / np.linalg.norm(p, axis=2, keepdims=True)
             for p in (c[:, None] - trials[:, None] * dw[:, None] for c, dw in zip(xa, d))]
    vals = objective_batch([p.reshape(-1, p.shape[2]) for p in cands]).reshape(len(d[0]), -1)
    rows, k = np.arange(len(d[0])), np.argmin(vals, axis=1)
    return np.concatenate([p[rows, k] for p in cands], axis=1), vals[rows, k], trials[k]


def _parts(v, dims):
    return np.split(v, np.cumsum(dims)[:-1], axis=-1)


def _dot(a, b):
    """The real inner product Re <a, b> over the last axis."""
    return np.einsum("...i,...i->...", a.conj(), b).real


def _tangent(c, v, dims):
    """``v`` minus its radial part Re <c_w, v_w> c_w on each part's unit sphere at ``c``:
    the gradient's projection and the memory's transport."""
    return np.concatenate([vw - _dot(cw, vw)[..., None] * cw
                           for cw, vw in zip(_parts(c, dims), _parts(v, dims))], axis=-1)
