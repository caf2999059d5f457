"""Complex linear algebra kernel, dense and sparse.

Everything downstream funnels its factorizations and basis growth through
this module: LU with an explicit singularity threshold, block solves whose
``transposed()`` view solves with ``A^T`` on the same factors, and
append-only orthonormalization, deflating at ``DEFLATION_TOL``, by block
classical Gram-Schmidt run twice, so basis growth runs in matrix products.

The storage type of the operator picks the LU: a 2-d ndarray is factored
by LAPACK ``getrf``, a ``scipy.sparse`` matrix by SuperLU (``splu``, sparse
LU with partial pivoting). Both return the same ``LUFactorization`` and
obey the same singularity rule, so callers never branch on the storage.
Sparse operators stay sparse: ``SparseOperator`` is the CSC type assembled
full-order operators come in. ``ShiftedSchur`` serves many shifts of one
dense matrix from a single Schur form, and ``lu_solve_stack`` a stack of
small systems, one per sample point, both under the same singularity rule.
"""

import threading

import numpy as np
import scipy.linalg
import scipy.sparse

from .errors import DimensionMismatchError, SingularMatrixError

__all__ = [
    "LUFactorization",
    "ShiftedSchur",
    "SparseOperator",
    "lu_factor",
    "lu_solve_stack",
    "scaled_stack",
    "orthonormalize_append",
    "gram_deviation",
]

_EPS = np.finfo(np.float64).eps
#: A column keeping at most this fraction of its norm adds no direction.
DEFLATION_TOL = 1e-10
# The LAPACK routines behind scipy.linalg.lu_factor/lu_solve, called directly:
# the same arithmetic without the per-call wrapper cost, which dominates the
# small reduced systems solved at every estimator sample.
_GETRF, _GETRS, _TRTRS = scipy.linalg.get_lapack_funcs(
    ("getrf", "getrs", "trtrs"), dtype=np.complex128
)


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
    SuperLU object, and exposes block solves for ``A X = B``.
    ``transposed()`` is the factorization of ``A^T`` (plain transpose, no
    conjugation) on the same factors, so one factorization serves both a
    system and its dual.
    """

    def __init__(self, factors, dim, max_abs, transposed=False):
        self._factors = factors
        self.dim = dim
        self.max_abs = max_abs
        self._transposed = transposed

    def transposed(self):
        """The factorization of ``A^T``: the same factors, solved the other way round."""
        return LUFactorization(self._factors, self.dim, self.max_abs, not self._transposed)

    def solve(self, rhs):
        """Solve ``A X = rhs`` for a vector or block."""
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
            x, _ = _GETRS(lu, piv, b, trans=1 if self._transposed else 0)
        else:
            x = self._factors.solve(b, trans="T" if self._transposed else "N")
        return x[:, 0] if squeeze else x


def lu_factor(a):
    """Factor a square dense or sparse matrix, raising SingularMatrixError on rank loss.

    The factorization is rejected by the rule of ``_nonsingular``: when an
    entry is not finite, or the smallest pivot magnitude falls below
    ``dim * eps * max|A|``.
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
    # NaN propagates through the max, so a non-finite entry makes max_abs non-finite
    max_abs = float(np.max(np.abs(entries))) if entries.size else 0.0
    if n == 0:
        return LUFactorization(None, 0, 0.0)
    _check_nonsingular(n, max_abs)
    if sparse:
        # imported here, so dense-only runs never load scipy.sparse.linalg
        from scipy.sparse.linalg import splu

        try:
            factors = splu(a)
        except RuntimeError as exc:  # SuperLU stops at an exact zero pivot
            raise SingularMatrixError(f"matrix of dimension {n} is singular ({exc})") from exc
        pivots = factors.U.diagonal()
    else:
        # exact zero pivots (LAPACK info > 0) are reported through the rule below
        lu, piv, _ = _GETRF(a)
        factors, pivots = (lu, piv), np.diag(lu)
    _check_nonsingular(n, max_abs, pivots)
    return LUFactorization(factors, n, max_abs)


def _nonsingular(n, max_abs, min_pivot=None):
    """The singularity rule of every factorization here, elementwise over arrays.

    A matrix of dimension ``n`` with largest entry magnitude ``max_abs`` is
    rejected when that magnitude is not finite (an overflow in assembly,
    say) or zero, and, once its smallest pivot magnitude ``min_pivot`` is
    known, when that pivot is not finite or falls below ``n * eps *
    max_abs``. That catches exact and numerical singularity alike (scipy
    alone only warns on exact zero pivots). Returns True where a matrix
    passes.
    """
    usable = np.isfinite(max_abs) & (max_abs != 0.0)
    if min_pivot is not None:
        usable &= np.isfinite(min_pivot) & (min_pivot >= n * _EPS * max_abs)
    return usable


def _check_nonsingular(n, max_abs, pivots=None):
    """Raise SingularMatrixError, naming the reason, where ``_nonsingular`` rejects one matrix."""
    min_pivot = None if pivots is None else float(np.min(np.abs(pivots)))
    if _nonsingular(n, max_abs, min_pivot):
        return
    if not np.isfinite(max_abs):
        raise SingularMatrixError(f"matrix of dimension {n} has non-finite entries")
    if max_abs == 0.0:
        raise SingularMatrixError(f"matrix of dimension {n} is identically zero")
    raise SingularMatrixError(
        f"matrix of dimension {n} is singular to working precision "
        f"(min pivot {min_pivot:.3e} < threshold {n * _EPS * max_abs:.3e})"
    )


def scaled_stack(values, matrix, out=None):
    """The stack ``values[i] * matrix`` over samples ``i``, an (m, rows, cols) array.

    Each sample is bitwise ``complex(values[i]) * matrix``. The matrix gets an
    explicit unit sample axis before it is broadcast: broadcast from 2-d
    against a single 1 x 1 sample, numpy's one-element path multiplies
    without the fused multiply-add of its vector loops, and the product
    would depend on how many samples are stacked. ``out`` as in numpy.
    """
    return np.multiply(values[:, None, None], matrix[None], out=out)


def lu_solve_stack(a, b):
    """Solve ``a[i] x[i] = b[i]`` for every sample ``i`` of a stack of small systems.

    ``a`` is (m, n, n), every sample laid out Fortran-contiguous (as
    ``AffineMatrix.assemble_stack`` builds it), and is overwritten by the LU
    factors; ``b`` is (m, n, p). A sample is usable when its matrix passes
    the rule of ``lu_factor`` and its right-hand side is finite. Only usable
    samples reach LAPACK, one ``getrf`` and one ``getrs`` each, so each
    solution is bitwise the one ``lu_factor(a[i]).solve(b[i])`` gives.
    Returns the solutions, laid out per sample as ``getrs`` returns them and
    zero where a sample is unusable, and the boolean usable mask.
    """
    m, n, p = b.shape
    x = np.zeros((m, p, n), dtype=np.complex128).transpose(0, 2, 1)
    if n == 0:
        return x, np.ones(m, dtype=bool)
    max_abs = np.max(np.abs(a), axis=(1, 2))
    usable = _nonsingular(n, max_abs) & np.isfinite(b).all(axis=(1, 2))
    pivots = {}
    for i in np.flatnonzero(usable):
        _, pivots[i], _ = _GETRF(a[i], overwrite_a=True)
    min_pivot = np.min(np.abs(np.diagonal(a, axis1=1, axis2=2)), axis=1)
    usable &= _nonsingular(n, max_abs, min_pivot)
    for i in np.flatnonzero(usable):
        x[i], _ = _GETRS(a[i], pivots[i], b[i])
    return x, usable


class ShiftedSchur:
    """Schur form ``A = Z T Z^H`` of a dense square matrix, for many shifted solves.

    Laub's frequency-response method (Laub 1981, "Efficient multivariable
    frequency response computations"): one O(n^3) reduction, after which
    ``A + shift*I = Z (T + shift*I) Z^H`` is triangular in the coordinates
    ``Z^H x``, so each shift costs an O(n^2) triangular solve per column.
    A real ``A`` takes the real Schur form and ``rsf2csf``, which is faster
    than the complex reduction; a complex one takes the complex Schur form.
    Only ``T`` (Fortran order, as LAPACK reads it) and ``Z`` are kept, plus
    O(n) data for the singularity rule.

    ``solve`` writes the shifted pivots onto the diagonal of the stored
    ``T`` in place, under a lock, so threads may share one form.
    """

    def __init__(self, a):
        a = _as_complex_matrix(a, "matrix")
        if np.any(a.imag):
            t, z = scipy.linalg.schur(a, output="complex")
        else:
            t, z = scipy.linalg.rsf2csf(*scipy.linalg.schur(a.real, output="real"))
        self._T = np.asfortranarray(t, dtype=np.complex128)
        self.Z = z
        self.dim = a.shape[0]
        self._eigenvalues = np.diag(t).copy()
        # max|A + shift*I| in O(n): the diagonal moves with the shift, the rest does not
        self._diagonal = np.diag(a).copy()
        off_diagonal = np.abs(a)
        np.fill_diagonal(off_diagonal, 0.0)
        self._off_diagonal_max = float(np.max(off_diagonal, initial=0.0))
        self._lock = threading.Lock()

    def solve(self, shift, rhs):
        """Solve ``(T + shift*I) y = rhs`` for a block given in Schur coordinates.

        ``rhs`` is ``Z^H b`` and ``Z y`` solves ``(A + shift*I) x = b``.
        Raises SingularMatrixError by the rule ``lu_factor`` applies to
        ``A + shift*I``, with pivots ``diag(T) + shift``; a shift that is not
        finite makes the matrix non-finite.
        """
        b = _as_complex_matrix(rhs, "right-hand side")
        max_abs = float(np.max(np.abs(self._diagonal + shift), initial=self._off_diagonal_max))
        pivots = self._eigenvalues + shift
        _check_nonsingular(self.dim, max_abs, pivots)
        with self._lock:
            self._T[np.diag_indices(self.dim)] = pivots
            y, _ = _TRTRS(self._T, b)
        return y


def orthonormalize_append(basis, block):
    """Extend an orthonormal basis by the directions a block adds.

    Block classical Gram-Schmidt run twice (CGS2; Giraud, Langou &
    Rozložník 2005): the whole block is projected against the existing
    columns in two matrix-matrix passes. Its columns are then taken in order
    and each is projected twice against the block's columns accepted before
    it. When that in-block step removes more than half of a column's norm,
    the roundoff it leaves along the existing columns is no longer small
    relative to what remains, so the column gets one more pass against the
    whole basis ("twice is enough"). A column is dropped when its remaining
    norm is at most ``DEFLATION_TOL`` times its original norm; zero columns
    are skipped. ``basis`` may be None or have zero columns.

    Existing columns come back bitwise unchanged, and ``basis`` itself comes
    back when the block adds nothing. Otherwise the result is the leading
    columns of one new Fortran-ordered array, sized for the whole block, with
    unitarily orthonormal columns (``V^H V = I``).
    """
    block = _as_complex_matrix(block, "block")
    n, m = block.shape
    if basis is None:
        basis = np.zeros((n, 0), dtype=np.complex128)
    else:
        basis = _as_complex_matrix(basis, "basis")
        if basis.shape[0] != n:
            raise DimensionMismatchError(
                f"basis has {basis.shape[0]} rows, block has {n}"
            )
    k = basis.shape[1]
    original_norms = np.linalg.norm(block, axis=0)
    out = np.empty((n, k + m), dtype=np.complex128, order="F")
    out[:, :k] = basis
    out[:, k:] = block
    for _ in range(2):
        _project_out(out[:, k:], out[:, :k])
    kept = k
    for j in range(m):
        if original_norms[j] == 0.0:
            continue
        v = out[:, k + j]
        before = np.linalg.norm(v)
        for _ in range(2):
            _project_out(v, out[:, k:kept])
        remaining = np.linalg.norm(v)
        if remaining < 0.5 * before:
            _project_out(v, out[:, :kept])
            remaining = np.linalg.norm(v)
        if remaining <= DEFLATION_TOL * original_norms[j]:
            continue
        out[:, kept] = v / remaining
        kept += 1
    if kept == k:
        return basis
    return out[:, :kept]


def _project_out(v, q):
    """One classical Gram-Schmidt pass in place: ``v -= q (q^H v)``.

    ``q^H v`` is formed as ``(v^H q)^H``, which conjugates a copy of ``v``
    rather than of the (larger) ``q``.
    """
    v -= q @ (v.conj().T @ q).conj().T


def gram_deviation(v):
    """Max-magnitude deviation of ``V^H V`` from the identity."""
    v = _as_complex_matrix(v, "basis")
    r = v.shape[1]
    if r == 0:
        return 0.0
    g = v.conj().T @ v
    return float(np.max(np.abs(g - np.eye(r))))
