"""Complex linear algebra kernel, dense and sparse.

Everything downstream funnels its factorizations and basis growth through
this module: LU with an explicit singularity threshold, block solves with
plain-transpose support, and append-only orthonormalization with deflation.

The storage type of the operator picks the LU: a 2-d ndarray is factored
by LAPACK ``getrf``, a ``scipy.sparse`` matrix by SuperLU (``splu``, sparse
LU with partial pivoting). Both return the same ``LUFactorization`` and
obey the same singularity rule, so callers never branch on the storage.
Sparse operators stay sparse: ``SparseOperator`` is the CSC type assembled
full-order operators come in.
"""

import numpy as np
import scipy.linalg
import scipy.sparse

from .errors import DimensionMismatchError, SingularMatrixError

__all__ = [
    "LUFactorization",
    "SparseOperator",
    "lu_factor",
    "orthonormalize_append",
    "gram_deviation",
]

_EPS = np.finfo(np.float64).eps
# The LAPACK routines behind scipy.linalg.lu_factor/lu_solve, called directly:
# the same arithmetic without the per-call wrapper cost, which dominates the
# small reduced systems solved at every estimator sample.
_GETRF, _GETRS = scipy.linalg.get_lapack_funcs(("getrf", "getrs"), dtype=np.complex128)


def _as_complex_matrix(a, name="matrix", finite=True):
    a = np.asarray(a)
    if a.ndim == 1:
        a = a.reshape(-1, 1)
    if a.ndim != 2:
        raise DimensionMismatchError(f"{name} must be 2-d, got shape {a.shape}")
    a = a.astype(np.complex128, copy=False)
    if finite and not np.isfinite(a).all():
        raise ValueError(f"{name} contains non-finite entries")
    return a


class SparseOperator(scipy.sparse.csc_array):
    """Complex CSC matrix whose ``nbytes`` counts the bytes it stores.

    scipy's sparse arrays report no ``nbytes``; this one reports its data,
    row indices and column pointers, as an ndarray reports its buffer.
    """

    @property
    def nbytes(self):
        return self.data.nbytes + self.indices.nbytes + self.indptr.nbytes


class LUFactorization:
    """LU factorization with partial pivoting of a square complex matrix.

    Holds the factors, either packed LAPACK factors ``(lu, piv)`` or a
    SuperLU object, and exposes block solves for ``A X = B`` and, with
    ``transpose=True``, for ``A^T X = B`` (plain transpose, no
    conjugation), so one factorization serves both a system and its dual.
    """

    def __init__(self, factors, dim, max_abs):
        self._factors = factors
        self.dim = dim
        self.max_abs = max_abs

    def solve(self, rhs, transpose=False):
        """Solve ``A X = rhs`` (or ``A^T X = rhs``) for a vector or block."""
        rhs = np.asarray(rhs)
        squeeze = rhs.ndim == 1
        b = _as_complex_matrix(rhs, "right-hand side")
        if b.shape[0] != self.dim:
            raise DimensionMismatchError(
                f"right-hand side has {b.shape[0]} rows, factorization has dimension {self.dim}"
            )
        if self.dim == 0:
            x = b
        elif isinstance(self._factors, tuple):
            lu, piv = self._factors
            x, _ = _GETRS(lu, piv, b, trans=1 if transpose else 0)
        else:
            x = self._factors.solve(b, trans="T" if transpose else "N")
        return x[:, 0] if squeeze else x


def lu_factor(a):
    """Factor a square dense or sparse matrix, raising SingularMatrixError on rank loss.

    The factorization is rejected when the smallest pivot magnitude falls
    below ``dim * eps * max|A|``, which catches exact and numerical
    singularity alike (scipy alone only warns on exact zero pivots), and
    when an entry is not finite (an overflow in assembly, say).
    """
    sparse = scipy.sparse.issparse(a)
    if sparse:
        a = scipy.sparse.csc_array(a).astype(np.complex128, copy=False)
        entries = a.data
    else:
        a = entries = _as_complex_matrix(a, finite=False)
    n, m = a.shape
    if n != m:
        raise DimensionMismatchError(f"cannot factor a {n}x{m} matrix")
    if not np.isfinite(entries).all():
        raise SingularMatrixError(f"matrix of dimension {n} has non-finite entries")
    max_abs = float(np.max(np.abs(entries))) if entries.size else 0.0
    if n == 0:
        return LUFactorization(None, 0, 0.0)
    if max_abs == 0.0:
        raise SingularMatrixError(f"matrix of dimension {n} is identically zero")
    if sparse:
        # imported here, so dense-only runs never load scipy.sparse.linalg
        from scipy.sparse.linalg import splu

        try:
            factors = splu(a)
        except RuntimeError as exc:  # SuperLU stops at an exact zero pivot
            raise SingularMatrixError(f"matrix of dimension {n} is singular ({exc})") from exc
        pivots = factors.U.diagonal()
    else:
        # exact zero pivots (LAPACK info > 0) are reported through the exception below
        lu, piv, _ = _GETRF(a)
        factors, pivots = (lu, piv), np.diag(lu)
    min_pivot = float(np.min(np.abs(pivots)))
    threshold = n * _EPS * max_abs
    if not np.isfinite(min_pivot) or min_pivot < threshold:
        raise SingularMatrixError(
            f"matrix of dimension {n} is singular to working precision "
            f"(min pivot {min_pivot:.3e} < threshold {threshold:.3e})"
        )
    return LUFactorization(factors, n, max_abs)


def orthonormalize_append(basis, block, deflation_tol=1e-10):
    """Extend an orthonormal basis by the directions a block adds.

    Modified Gram-Schmidt with one re-orthogonalization pass. Existing
    columns of ``basis`` are returned unchanged; each column of ``block``
    is orthogonalized against everything accepted so far and dropped when
    its remaining norm is at most ``deflation_tol`` times its original
    norm. ``basis`` may be None or have zero columns.

    Returns the extended matrix with unitarily orthonormal columns
    (``V^H V = I``).
    """
    block = _as_complex_matrix(block, "block")
    n = block.shape[0]
    if basis is None:
        basis = np.zeros((n, 0), dtype=np.complex128)
    else:
        basis = _as_complex_matrix(basis, "basis")
        if basis.shape[0] != n:
            raise DimensionMismatchError(
                f"basis has {basis.shape[0]} rows, block has {n}"
            )
    columns = [basis[:, j] for j in range(basis.shape[1])]
    n_existing = len(columns)
    for j in range(block.shape[1]):
        v = block[:, j].copy()
        original_norm = np.linalg.norm(v)
        if original_norm == 0.0:
            continue
        for _ in range(2):
            for u in columns:
                v -= (u.conj() @ v) * u
        remaining = np.linalg.norm(v)
        if remaining <= deflation_tol * original_norm:
            continue
        columns.append(v / remaining)
    if len(columns) == n_existing:
        return basis
    return np.column_stack(columns)


def gram_deviation(v):
    """Max-magnitude deviation of ``V^H V`` from the identity."""
    v = _as_complex_matrix(v, "basis")
    r = v.shape[1]
    if r == 0:
        return 0.0
    g = v.conj().T @ v
    return float(np.max(np.abs(g - np.eye(r))))
