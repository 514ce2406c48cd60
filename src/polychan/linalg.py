"""Dense complex linear algebra over multi-leg tensor systems.

Everything here works on plain complex numpy arrays.  A state is a density
matrix (or a factor of one); the structure of its system is a tuple of leg
dimensions, passed alongside wherever legs matter, as to :func:`partial_trace`.
:func:`check_density` and :func:`check_factor` state the density invariants.

All entropic quantities are in bits (log base 2).
"""

from __future__ import annotations

from typing import Iterable, Sequence

import numpy as np

from .errors import CapExceededError

# Desk-scale limits: matrices never exceed this dimension.
MAX_DIM = 4096

# Tolerances for structural invariants.
HERMITICITY_TOL = 1e-10
EIGENVALUE_TOL = 1e-10
TRACE_TOL = 1e-10
UNITARITY_TOL = 1e-10

# Byte budget for the temporaries of one row block of a batched kernel: the region
# objective and its gradient, the product-state fidelity kernel, and verify's sweeps.
BLOCK_BYTES = 1 << 19

PAULI_X = np.array([[0, 1], [1, 0]], dtype=complex)
PAULI_Y = np.array([[0, -1j], [1j, 0]], dtype=complex)
PAULI_Z = np.array([[1, 0], [0, -1]], dtype=complex)


def make_rng(seed: int) -> np.random.Generator:
    """Seedable counter-based random stream (Philox)."""
    return np.random.Generator(np.random.Philox(np.random.SeedSequence(seed)))


def block_rows(row_bytes: int, align: int = 1) -> int:
    """Rows per block of a batched kernel whose rows hold ``row_bytes`` each: the most
    that fit in ``BLOCK_BYTES``, a multiple of ``align``, and at least ``align``."""
    return align * max(1, BLOCK_BYTES // align // row_bytes)


def check_finite(m: np.ndarray, what: str = "matrix") -> np.ndarray:
    if not np.all(np.isfinite(m)):
        raise ValueError(f"{what} contains non-finite entries")
    return m


def kron(a: np.ndarray, b: np.ndarray) -> np.ndarray:
    """Kronecker product, at most ``MAX_DIM`` on a side."""
    rows = a.shape[0] * b.shape[0]
    cols = (a.shape[1] if a.ndim == 2 else 1) * (b.shape[1] if b.ndim == 2 else 1)
    if max(rows, cols) > MAX_DIM:
        raise CapExceededError(
            f"kron result {rows}x{cols} exceeds the configured maximum {MAX_DIM}"
        )
    return np.kron(a, b)


def kron_all(mats: Sequence[np.ndarray]) -> np.ndarray:
    out = np.asarray(mats[0], dtype=complex)
    for m in mats[1:]:
        out = kron(out, m)
    return out


def contract_rows_except(t: np.ndarray, vecs: Sequence[np.ndarray], skip: int) -> np.ndarray:
    """Row-wise contraction of a (rows, n_0, ..., n_{m-1}) tensor with the (rows, n_j)
    vectors ``vecs[j]`` on every axis j but ``skip``; the result has shape (rows, n_skip)."""
    others = [arg for j, v in enumerate(vecs) if j != skip for arg in (v, [0, j + 1])]
    return np.einsum(t, list(range(len(vecs) + 1)), *others, [0, skip + 1])


def kron_rows(batches: Sequence[np.ndarray]) -> np.ndarray:
    """Row-wise Kronecker product of state batches, each of shape (rows, d_j)."""
    out = batches[0]
    for b in batches[1:]:
        out = (out[:, :, None] * b[:, None, :]).reshape(out.shape[0], -1)
    return out


def permute_legs_vector(vec: np.ndarray, dims: Sequence[int], order: Sequence[int]) -> np.ndarray:
    """Reorder the tensor legs of a state vector; ``order[p]`` is the old leg at new position ``p``."""
    dims = tuple(dims)
    order = tuple(order)
    if sorted(order) != list(range(len(dims))):
        raise ValueError(f"order {order} is not a permutation of {len(dims)} legs")
    return np.transpose(vec.reshape(dims), axes=order).reshape(-1)


def check_einsum_labels(count: int, what: str) -> None:
    """Raise ``CapExceededError`` naming ``what`` when an einsum needs ``count``
    labels, more than the 52 numpy takes."""
    if count > 52:
        raise CapExceededError(f"too many {what} for one einsum ({count} labels, numpy takes 52)")


# The most axes numpy gives one array.
MAX_ARRAY_RANK = 64 if int(np.__version__.split(".")[0]) >= 2 else 32


def check_array_rank(rank: int, what: str) -> None:
    """Raise ``CapExceededError`` naming ``what`` when an array needs ``rank`` axes,
    more than ``MAX_ARRAY_RANK``."""
    if rank > MAX_ARRAY_RANK:
        raise CapExceededError(
            f"too many {what} for one array ({rank} axes, numpy takes {MAX_ARRAY_RANK})")


def partial_trace(m: np.ndarray, dims: Sequence[int], keep: Iterable[int]) -> np.ndarray:
    """Trace out all legs of a matrix on legs of dimensions ``dims`` except ``keep``;
    kept legs stay in their original relative order."""
    dims = tuple(dims)
    n = len(dims)
    d = int(np.prod(dims))
    if m.shape != (d, d):
        raise ValueError(f"matrix shape {m.shape} does not match leg dimension {d}")
    keep = sorted(set(int(k) for k in keep))
    if keep and (keep[0] < 0 or keep[-1] >= n):
        raise ValueError(f"keep indices {keep} out of range for {n} legs")
    check_einsum_labels(n + len(keep), f"legs ({n})")
    check_array_rank(2 * n, f"legs ({n})")
    # row legs 0..n-1; a traced column leg shares its row leg's label, a kept one
    # takes the next of n, n + 1, ...
    col = list(range(n))
    for p, j in enumerate(keep):
        col[j] = n + p
    dk = int(np.prod([dims[j] for j in keep])) if keep else 1
    return np.einsum(m.reshape(dims + dims), [*range(n), *col],
                     [*keep, *range(n, n + len(keep))]).reshape(dk, dk)


def _adjoint(m: np.ndarray) -> np.ndarray:
    """Conjugate transpose of a matrix, or of every matrix in a stack."""
    return m.conj().swapaxes(-1, -2)


def eigh(h: np.ndarray, vectors: bool = True) -> tuple[np.ndarray, np.ndarray | None]:
    """Eigendecomposition of a Hermitian matrix: ascending eigenvalues, eigenvector columns.

    ``h`` may be a stack of matrices (the last two axes); the result is then
    stacked the same way.  Inputs with a Hermiticity defect up to ``HERMITICITY_TOL``
    are symmetrized first; a worse defect in any member is rejected.  With
    ``vectors=False`` only the eigenvalues are computed and ``None`` stands
    in for the eigenvectors.
    """
    adj = _adjoint(h)
    defect = float(np.max(np.abs(h - adj))) if h.size else 0.0
    if defect > HERMITICITY_TOL:
        raise ValueError(f"matrix is not Hermitian (defect {defect:.3e} > {HERMITICITY_TOL:.1e})")
    sym = (h + adj) / 2.0
    if not vectors:
        return np.linalg.eigvalsh(sym), None
    w, v = np.linalg.eigh(sym)
    return w, v


def clip_spectrum(w: np.ndarray) -> np.ndarray:
    """Clip eigenvalues in [-EIGENVALUE_TOL, 0) to zero; reject any lower (in any row)."""
    low = float(np.min(w)) if w.size else 0.0
    if low < -EIGENVALUE_TOL:
        raise ValueError(f"spectrum has eigenvalue {low:.3e} below -{EIGENVALUE_TOL:.1e}")
    return np.clip(w, 0.0, None)


def check_density(m: np.ndarray) -> np.ndarray:
    """Check that a matrix is a density matrix: square, finite, Hermitian, unit trace
    and positive semidefinite.

    Raises ``ValueError`` naming the first failed check; returns ``m``.
    """
    if m.ndim != 2 or m.shape[0] != m.shape[1]:
        raise ValueError(f"density operator must be a square matrix, got shape {m.shape}")
    check_finite(m, "density operator")
    adj = _adjoint(m)
    defect = float(np.max(np.abs(m - adj)))
    if defect > HERMITICITY_TOL:
        raise ValueError(f"density operator not Hermitian (defect {defect:.3e})")
    tr = np.trace(m)
    if abs(tr - 1.0) > TRACE_TOL:
        raise ValueError(f"density operator trace {complex(tr)} differs from 1")
    low = float(np.linalg.eigvalsh((m + adj) / 2.0)[0])
    if low < -EIGENVALUE_TOL:
        raise ValueError(f"density operator has negative eigenvalue {low:.3e}")
    return m


def check_factor(phi: np.ndarray) -> np.ndarray:
    """Check that a (d, K) matrix, or every one in a stack (leading axes), is a factor of
    a density matrix rho = phi phi^dag: finite, with tr rho = ||phi||_F^2 = 1.

    rho is Hermitian and positive semidefinite by construction.  Raises
    ``ValueError`` naming the first failed check; returns ``phi``.
    """
    check_finite(phi, "density factor")
    tr = np.sum(phi.real**2 + phi.imag**2, axis=(-2, -1))
    off = np.abs(tr - 1.0) > TRACE_TOL
    if np.any(off):
        raise ValueError(f"density factor trace {float(tr[off].flat[0]):.12g} differs from 1")
    return phi


def maximally_entangled_vector(d: int) -> np.ndarray:
    """(1/sqrt(d)) sum_g |g>|g> on d x d."""
    v = np.zeros(d * d, dtype=complex)
    v[np.arange(d) * d + np.arange(d)] = 1.0 / np.sqrt(d)
    return v


def float_or_stack(x) -> float | np.ndarray:
    """A 0-d result as a Python float; a stacked result as its array."""
    x = np.asarray(x)
    return float(x) if x.ndim == 0 else x


def entropy_of_spectrum(w: np.ndarray) -> float | np.ndarray:
    """Shannon entropy in bits of a spectrum, or of each row of a stack of spectra."""
    w = clip_spectrum(np.asarray(w, dtype=float))
    return float_or_stack(-np.sum(w * np.log2(np.where(w > 0, w, 1.0)), axis=-1))


def entropy(rho: np.ndarray) -> float | np.ndarray:
    """Von Neumann entropy in bits, with 0*log(0) = 0; one value per member of a stack."""
    return entropy_of_spectrum(eigh(np.asarray(rho, dtype=complex), vectors=False)[0])


def haar_unitary(d: int, rng: np.random.Generator) -> np.ndarray:
    """Haar-distributed unitary via QR of a complex Ginibre matrix.

    The R-diagonal phases are divided out so the distribution is exactly
    invariant, not just approximately.
    """
    if d < 1:
        raise ValueError("dimension must be >= 1")
    z = (rng.standard_normal((d, d)) + 1j * rng.standard_normal((d, d))) / np.sqrt(2.0)
    q, r = np.linalg.qr(z)
    diag = np.diagonal(r).copy()
    diag[diag == 0] = 1.0
    return q * (diag / np.abs(diag))


def haar_state(d: int, rng: np.random.Generator) -> np.ndarray:
    """Haar-random pure state vector of dimension d."""
    z = rng.standard_normal(d) + 1j * rng.standard_normal(d)
    return z / np.linalg.norm(z)


def uhlmann_fidelity(phi, chi) -> float | np.ndarray:
    """Squared Uhlmann fidelity (tr |sqrt(rho) sqrt(sigma)|)^2 in [0, 1] of rho = phi phi^dag
    and sigma = chi chi^dag, from their factors: ||phi^dag chi||_1^2.

    ``phi`` (..., d, K) and ``chi`` (..., d, L) may be two stacks of equal
    length, which give one fidelity per pair of members.
    """
    a, b = np.asarray(phi, dtype=complex), np.asarray(chi, dtype=complex)
    if a.ndim < 2 or a.shape[:-1] != b.shape[:-1]:
        raise ValueError(f"factor shapes {a.shape} and {b.shape} do not match")
    # the squared singular values of phi^dag chi: the spectrum of sqrt(rho) sigma sqrt(rho)
    x = _adjoint(a) @ b
    w = clip_spectrum(eigh(x @ _adjoint(x), vectors=False)[0])
    # zero modes carry eigensolver noise that the square root would amplify
    w[w < 1e-14 * np.maximum(1.0, w[..., -1:])] = 0.0
    val = np.sum(np.sqrt(w), axis=-1) ** 2
    # round-off just above 1 is clipped; a larger excess is returned as it is
    return float_or_stack(np.where(val <= 1.0 + 1e-9, np.minimum(val, 1.0), val))
