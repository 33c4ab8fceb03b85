"""Deterministic dense linear algebra: thin SVD, orthogonal projections, PCA.

The SVD works on the Gram matrix of the smaller side (the embedding use case
is n >> d with d <= ~1024, so the d x d eigenproblem is cheap) and
diagonalizes it with LAPACK's symmetric eigensolver (`np.linalg.eigh`), run
with numpy's bundled OpenBLAS pinned to one thread: a multi-threaded
eigensolve changes the last bits of its result with the thread count, a
single-threaded one does not. Identical inputs therefore produce
bit-identical outputs whatever the BLAS thread-pool setting. Sign ambiguity is
resolved by a fixed convention: in every column of V the entry of largest
magnitude is non-negative, with U following from V.

`jacobi_eigh` is a scalar cyclic-Jacobi eigensolver kept as a public,
LAPACK-free reference; the SVD does not use it.
"""

from __future__ import annotations

import contextlib
import ctypes
import functools
import math
import threading
from pathlib import Path

import numpy as np

from .core import SvdResult
from .errors import (
    DimensionError,
    InvalidMatrix,
    InvalidVector,
    NumericalFailure,
    RankError,
    ZeroVectorError,
)

# Sweep budget for the Jacobi eigensolver. Exceeding it is a reported error,
# never a silent best-effort result.
MAX_SWEEPS = 100

_CONVERGENCE_RTOL = 1e-14
# Residual tolerance of project_out: inputs whose projection coefficients are
# already below this (relative to the input norm) are returned unchanged, so
# repeated removal is an exact fixed point even through 32-bit storage.
_RESIDUAL_RTOL = 1e-6


def as_matrix(m) -> np.ndarray:
    """Validate and convert input to a finite 2-D float64 array."""
    a = np.asarray(m, dtype=np.float64)
    if a.ndim != 2:
        raise InvalidMatrix(f"expected a 2-D matrix, got ndim={a.ndim}")
    if a.shape[0] < 1 or a.shape[1] < 1:
        raise InvalidMatrix("matrix must have at least one row and one column")
    if not np.all(np.isfinite(a)):
        raise InvalidMatrix("matrix has non-finite entries")
    return a


def _as_rows(v) -> np.ndarray:
    a = np.asarray(v, dtype=np.float64)
    if a.ndim not in (1, 2) or a.shape[-1] == 0:
        raise InvalidVector("expected a non-empty 1-D vector or an n x d matrix of row vectors")
    if not np.all(np.isfinite(a)):
        raise InvalidVector("vector has non-finite entries")
    return a


def _as_basis(b, dim: int) -> np.ndarray:
    a = np.asarray(b, dtype=np.float64)
    if a.ndim != 2:
        raise InvalidMatrix("basis must be a 2-D d x r matrix")
    if not np.all(np.isfinite(a)):
        raise InvalidMatrix("basis has non-finite entries")
    if a.shape[0] != dim:
        raise DimensionError(
            f"vector dimension {dim} != basis dimension {a.shape[0]}"
        )
    return a


def jacobi_eigh(a, max_sweeps: int = MAX_SWEEPS) -> tuple[np.ndarray, np.ndarray]:
    """Eigendecomposition of a symmetric matrix by cyclic Jacobi rotations.

    Returns (eigenvalues, eigenvectors) in matrix order (unsorted); the
    eigenvectors are the columns of the second array. Rotations run in a
    fixed row-cyclic order, so the result is deterministic. Raises
    NumericalFailure (carrying the sweep count) if the off-diagonal mass has
    not fallen below 1e-14 of the Frobenius norm within `max_sweeps` sweeps.
    """
    a = as_matrix(a)
    n = a.shape[0]
    if a.shape[1] != n:
        raise InvalidMatrix("matrix is not square")
    scale = float(np.max(np.abs(a))) if a.size else 0.0
    if np.max(np.abs(a - a.T)) > 1e-10 * (1.0 + scale):
        raise InvalidMatrix("matrix is not symmetric")

    a = 0.5 * (a + a.T)  # exact symmetry for the rotation updates
    v = np.eye(n)
    threshold = _CONVERGENCE_RTOL * float(np.linalg.norm(a))

    def off_norm(m: np.ndarray) -> float:
        # Summing only the off-diagonal entries avoids the cancellation a
        # sum(m^2) - sum(diag^2) formulation hits once they are tiny.
        off = m.copy()
        np.fill_diagonal(off, 0.0)
        return float(np.linalg.norm(off))

    for _sweep in range(max_sweeps):
        if off_norm(a) <= threshold:
            break
        for p in range(n - 1):
            for q in range(p + 1, n):
                apq = float(a[p, q])
                if apq == 0.0:
                    continue
                diff = float(a[q, q] - a[p, p])
                if abs(apq) < 1e-150 * (1.0 + abs(diff)):
                    # Angle below resolvable precision; dropping the entry
                    # perturbs the matrix by a negligible |apq|.
                    a[p, q] = 0.0
                    a[q, p] = 0.0
                    continue
                tau = diff / (2.0 * apq)
                if tau >= 0.0:
                    t = 1.0 / (tau + math.sqrt(1.0 + tau * tau))
                else:
                    t = -1.0 / (-tau + math.sqrt(1.0 + tau * tau))
                c = 1.0 / math.sqrt(1.0 + t * t)
                s = t * c
                cp = a[:, p].copy()
                cq = a[:, q].copy()
                a[:, p] = c * cp - s * cq
                a[:, q] = s * cp + c * cq
                rp = a[p, :].copy()
                rq = a[q, :].copy()
                a[p, :] = c * rp - s * rq
                a[q, :] = s * rp + c * rq
                a[p, q] = 0.0
                a[q, p] = 0.0
                vp = v[:, p].copy()
                vq = v[:, q].copy()
                v[:, p] = c * vp - s * vq
                v[:, q] = s * vp + c * vq
    else:
        if off_norm(a) > threshold:
            raise NumericalFailure(
                f"Jacobi eigensolver did not converge within {max_sweeps} sweeps",
                iterations=max_sweeps,
            )
    return np.diag(a).copy(), v


def _gram_schmidt(w: np.ndarray, floor: float, degenerate, done=None) -> np.ndarray:
    """Orthonormalize the columns of w in order, two projection passes each.

    The columns are also made orthogonal to the orthonormal columns of
    `done`. One whose residual norm is not above `floor` is replaced by
    `degenerate(prior)`, prior being the columns before it; the callback
    returns the replacement column or raises. The result keeps w's memory
    layout, which fixes the BLAS kernels and so the bits of the result.
    """
    start = 0 if done is None else done.shape[1]
    out = np.zeros_like(w) if done is None else np.hstack([done, np.zeros_like(w)])
    for i in range(start, out.shape[1]):
        col = w[:, i - start].copy()
        for _ in range(2):
            col -= out[:, :i] @ (out[:, :i].T @ col)
        nrm = float(np.linalg.norm(col))
        out[:, i] = col / nrm if nrm > floor else degenerate(out[:, :i])
    return out[:, start:]


def _first_free_axis(prior: np.ndarray) -> np.ndarray:
    # Deterministic null-space completion: the first coordinate axis whose residual
    # against prior is comfortably non-degenerate (a degenerate one comes back zero).
    m = prior.shape[0]
    for j in range(m):
        axis = np.zeros((m, 1))
        axis[j] = 1.0
        col = _gram_schmidt(axis, 0.5 / np.sqrt(m), lambda _: 0.0, prior)
        if col.any():
            return col[:, 0]
    raise NumericalFailure("could not complete an orthonormal basis", iterations=m)


def _recover_side(a: np.ndarray, basis: np.ndarray, sigma: np.ndarray) -> np.ndarray:
    """The other orthonormal factor from a @ basis; columns of near-zero
    singular values are completed deterministically."""
    top = float(sigma[0]) if sigma.size else 0.0
    return _gram_schmidt(a @ basis, 1e-8 * (top if top > 0.0 else 1.0), _first_free_axis)


@functools.cache
def _openblas_threads():
    """(get, set) for the thread count of numpy's bundled OpenBLAS, or None.

    numpy wheels ship OpenBLAS as `numpy.libs/libscipy_openblas*.so` and it
    exports `scipy_openblas_{get,set}_num_threads64_`. Loading the same file
    again returns the copy numpy already uses, so the setting reaches numpy's
    calls. With any other BLAS build the pin is a no-op, and results are only
    guaranteed to be thread-count independent where that BLAS's eigensolver
    is itself thread-count independent.
    """
    libs = Path(np.__file__).resolve().parent.parent / "numpy.libs"
    for lib in sorted(libs.glob("libscipy_openblas*.so*")):
        try:
            handle = ctypes.CDLL(str(lib))
            get = handle.scipy_openblas_get_num_threads64_
            set_ = handle.scipy_openblas_set_num_threads64_
        except (OSError, AttributeError):
            continue
        get.argtypes = []
        get.restype = ctypes.c_int
        set_.argtypes = [ctypes.c_int]
        set_.restype = None
        return get, set_
    return None


# Serializes the read-set-restore of the process-wide BLAS thread count, so
# concurrent callers cannot restore each other's pinned value.
_PIN_LOCK = threading.Lock()


@contextlib.contextmanager
def _one_blas_thread():
    """Pin numpy's OpenBLAS to one thread, restoring the caller's count after."""
    controls = _openblas_threads()
    if controls is None:
        yield
        return
    get, set_ = controls
    with _PIN_LOCK:
        previous = get()
        set_(1)
        try:
            yield
        finally:
            set_(previous)


def _gram_eigh(gram: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """Eigenvalues (descending) and eigenvectors of a symmetric Gram matrix."""
    if not np.all(np.isfinite(gram)):
        raise InvalidMatrix("matrix entries too large: the Gram matrix overflows")
    try:
        with _one_blas_thread():
            w, vecs = np.linalg.eigh(gram)
    except np.linalg.LinAlgError as exc:
        # LAPACK does not report how many iterations it spent.
        raise NumericalFailure(f"eigensolver failed: {exc}", iterations=0) from exc
    return w[::-1].copy(), np.ascontiguousarray(vecs[:, ::-1])


def _right_factor(a: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """Singular values and sign-oriented right singular vectors (thin V).

    For n >= d V comes straight from the d x d Gram matrix; otherwise the
    n x n Gram matrix gives U and V is recovered from it. Either way each
    column of V has its largest-magnitude entry (first on ties) non-negative.
    """
    n, d = a.shape
    w, vecs = _gram_eigh(a.T @ a if n >= d else a @ a.T)
    sigma = np.sqrt(np.maximum(w, 0.0))
    v = vecs if n >= d else _recover_side(a.T, vecs, sigma)
    for i in range(v.shape[1]):
        j = int(np.argmax(np.abs(v[:, i])))
        if v[j, i] < 0.0:
            v[:, i] = -v[:, i]
    return sigma, v


def svd(m) -> SvdResult:
    """Thin SVD of a dense matrix via the Gram matrix of the smaller side.

    For an n x d input this eigendecomposes the min(n, d)-sized Gram matrix
    with thread-pinned LAPACK `eigh` (raising NumericalFailure if it fails),
    takes V from it and recovers U from m V. This is cheap and stable in the
    n >> d regime this package targets. The contract is the usual one either
    way: sigma non-negative and non-increasing, orthonormal factors, and
    reconstruction to 1e-6 relative Frobenius error.
    """
    a = as_matrix(m)
    sigma, v = _right_factor(a)
    return SvdResult(u=_recover_side(a, v, sigma), sigma=sigma, v=v)


def project_out(v, basis) -> np.ndarray:
    """Remove the component of each row of v (a vector or an n x d matrix)
    lying in the span of the basis columns: v - basis (basis^T v).

    A row already orthogonal to the basis (all coefficients within 1e-6 of its
    norm) comes back unchanged, so repeated application is an exact fixed
    point; a d x 0 basis is the identity. einsum rounds every row alike, so a
    row's bits depend neither on its position, the row count nor the BLAS
    thread count.
    """
    x = _as_rows(v)
    b = _as_basis(basis, x.shape[-1])
    coef = np.einsum("...j,jk->...k", x, b)
    nrm = np.sqrt(np.einsum("...j,...j->...", x, x))
    fixed = np.max(np.abs(coef), axis=-1, initial=0.0) <= _RESIDUAL_RTOL * nrm
    out = np.einsum("...k,jk->...j", coef, b)
    np.subtract(x, out, out=out)  # in the back-projection's buffer: no third n x d array
    np.copyto(out, x, where=fixed[..., None])
    return out


def project_out_scaled(v, basis) -> np.ndarray:
    """Remove the basis component with coefficients divided by ||v||_2.

    Returns v - basis (basis^T v) / ||v||_2 for each row of v, as project_out
    does, exactly as written: this variant only coincides with the orthogonal
    projection on unit vectors and is not idempotent off the unit sphere (e.g.
    with a basis column c, the input 2c maps to c, not to zero).
    """
    x = _as_rows(v)
    b = _as_basis(basis, x.shape[-1])
    nrm = np.sqrt(np.einsum("...j,...j->...", x, x))
    if np.any(nrm == 0.0):
        raise ZeroVectorError("norm-scaled removal is undefined for a zero vector")
    coef = np.einsum("...j,jk->...k", x, b) / nrm[..., None]
    return x - np.einsum("...k,jk->...j", coef, b)


def pca_project(m, k: int) -> np.ndarray:
    """Principal-component scores after centering the columns of m.

    The scores are the centered rows times the first k right singular
    vectors, which equals the first k columns of U diag(sigma) without
    building U. Deterministic via the SVD sign convention; the product, like
    the eigensolve, runs on one BLAS thread (and touches no second one's buffer)."""
    a = as_matrix(m)
    if a.shape[0] < 2:
        raise RankError("PCA projection needs at least two rows")
    return _pca_scores(a - a.mean(axis=0), k)


def _pca_scores(centered: np.ndarray, k: int) -> np.ndarray:
    """pca_project's scores of an already centered matrix of at least two
    rows; a k outside [1, min(n, d)] raises before any factorization."""
    n, d = centered.shape
    if not 1 <= k <= min(n, d):
        raise RankError(f"k={k} outside valid range [1, {min(n, d)}]")
    _, v = _right_factor(centered)
    with _one_blas_thread():
        return centered @ v[:, :k]
