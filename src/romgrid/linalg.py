"""Complex linear algebra kernel, dense and sparse.

Everything downstream funnels its factorizations and basis growth through
this module: LU with an explicit singularity threshold, block solves whose
``transposed()`` view solves with ``A^T`` on the same factors, and basis
growth.

One routine grows every orthonormal basis: ``_extend``, block classical
Gram-Schmidt run twice, so basis growth runs in matrix products. It hands
back the grown basis and the block's coordinates in it, and drops a column
whose remainder is at most a threshold times the column's own norm. Its two
callers need two thresholds. The trial bases grow through
``orthonormalize_append`` at ``DEFLATION_TOL`` and ignore the coordinates.
The residual bases of ``estimators.GrowingWorkspace`` grow at ``max(n, m) *
eps`` of an ``n x m`` block, so a tiny affine piece with a huge coefficient
keeps its direction, and keep the coordinates as the residual factors.

The operator's structure picks the LU, with no setting: a 2-d ndarray is
factored by LAPACK ``getrf``; a ``scipy.sparse`` matrix whose band holds at
least half nonzeros (``band_layout``, read from its pattern) by LAPACK's
band LU ``gbtrf``; any other sparse matrix by SuperLU (``splu``, sparse LU
with partial pivoting). Sparse operators stay sparse: ``SparseOperator`` is
the CSC type assembled full-order operators come in.

One factor contract: every kernel that hands out factorizations does so
through ``_factor_stack``, the one routine that applies the singularity
rule (``_nonsingular``) to a stack of samples and returns, per sample, an
``LUFactorization`` or the SingularMatrixError the rule gives. Callers
never branch on the kernel, and every solve goes through
``LUFactorization.solve``. ``lu_factor`` is a stack of one, whichever of
its three kernels runs; ``band_lu_stack`` factors the entries of many
operators that share one banded pattern, one ``gbtrf`` each, with no
sparse object and no pattern scan per operator; ``ShiftedSchur.factor``
factors many shifts of one dense matrix from a single Schur form, each
solving with one triangular solve. Each sample's factors are bitwise the
ones a call on that sample alone gives. A Schur form can be stored and
reused: ``ShiftedSchur`` takes a stored ``(T, Z)`` in place of the O(n^3)
reduction once an O(n^2) check (Freivalds' random vector test of ``A Z =
Z T`` and ``Z^H Z = I``) accepts it, and raises ValueError where the
check refuses it.

One roundoff rule judges every identity checked against a system:
``identity_holds``. The Schur form's check here, ``projection``'s check of
a reduced model and ``estimators``' check of stored residual factors all
decide through it.

``lu_solve_stack``, which solves a stack of small dense systems, one per
sample point, applies the same rule vectorized over the stack and hands
out solutions rather than factorizations: per-sample factor objects would
double its cost per sample.
"""

import contextlib
import threading
from typing import NamedTuple

import numpy as np
import scipy.linalg
import scipy.sparse

from .errors import DimensionMismatchError, SingularMatrixError

__all__ = [
    "BandLayout",
    "LUFactorization",
    "ShiftedSchur",
    "SparseOperator",
    "band_layout",
    "band_lu_stack",
    "lu_factor",
    "lu_solve_stack",
    "scaled_stack",
    "orthonormalize_append",
    "gram_deviation",
    "identity_holds",
]

_EPS = np.finfo(np.float64).eps
_TINY = np.finfo(np.float64).tiny
#: A trial-basis column keeping at most this fraction of its norm adds no direction.
DEFLATION_TOL = 1e-10
#: An identity checked against a system may miss by this many ``n * eps`` of the
#: magnitudes its sums add up (``identity_holds``).
ROUNDOFF = 10
#: Bytes of stacked entries per pass of a stacked kernel: 16 reduced operators at
#: r = 80 in ``estimators.evaluate``, one point of a 20 000-node ladder in
#: ``ParametricSystem.transfer_function``.
_CHUNK_BYTES = 16 * 80 * 80 * np.dtype(np.complex128).itemsize
# The LAPACK routines behind scipy.linalg.lu_factor/lu_solve, called directly:
# the same arithmetic without the per-call wrapper cost, which dominates the
# small reduced systems solved at every estimator sample.
_GETRF, _GETRS, _TRTRS, _GBTRF, _GBTRS = scipy.linalg.get_lapack_funcs(
    ("getrf", "getrs", "trtrs", "gbtrf", "gbtrs"), dtype=np.complex128
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
    """A factorization of a square complex matrix that passed the singularity rule.

    Holds the solve of one kernel's factors: packed LAPACK factors (general
    or band), a SuperLU object, or a shifted Schur triangle, which solves
    in Schur coordinates. Only ``_factor_stack`` makes one of a nonempty
    matrix. ``solve`` is the one place a kernel's solve is called: it checks
    the right-hand side's shape and finiteness first. ``transposed()`` is
    the factorization of ``A^T`` (plain transpose, no conjugation) on the
    same factors, so one factorization serves both a system and its dual.
    """

    def __init__(self, kernel_solve, dim, transposed=False):
        # kernel_solve(b, trans) solves with A (trans 0) or A^T (trans 1)
        self._kernel_solve = kernel_solve
        self.dim = dim
        self._transposed = transposed

    def transposed(self):
        """The factorization of ``A^T``: the same factors, solved the other way round."""
        return LUFactorization(self._kernel_solve, self.dim, not self._transposed)

    def solve(self, rhs):
        """Solve ``A X = rhs`` for a vector or block."""
        rhs = np.asarray(rhs)
        squeeze = rhs.ndim == 1
        b = _as_complex_matrix(rhs, "right-hand side")
        if b.shape[0] != self.dim:
            raise DimensionMismatchError(
                f"right-hand side has {b.shape[0]} rows, factorization has dimension {self.dim}"
            )
        x = self._kernel_solve(b, int(self._transposed)) if self.dim else b
        return x[:, 0] if squeeze else x


def lu_factor(a):
    """Factor a square dense or sparse matrix, raising SingularMatrixError on rank loss.

    A dense matrix goes to ``getrf``. A sparse one goes to the band LU
    ``gbtrf`` when ``band_layout`` finds its band at least half full, and
    to SuperLU otherwise. Whichever kernel runs, the matrix is a stack of
    one for ``_factor_stack``, and is rejected by the rule of
    ``_nonsingular``: when an entry is not finite, or the smallest pivot
    magnitude (the diagonal of ``U``) falls below ``dim * eps * max|A|``.
    """
    sparse = scipy.sparse.issparse(a)
    if sparse:
        if a.format != "csc" or a.dtype != np.complex128:
            a = scipy.sparse.csc_array(a).astype(np.complex128, copy=False)
        entries = a.data
    else:
        a = entries = _as_complex_matrix(a, finite=False)
    n, m = a.shape
    if n != m:
        raise DimensionMismatchError(f"cannot factor a {n}x{m} matrix")
    if n == 0:
        return LUFactorization(None, 0)

    def factor(_):
        if not sparse:
            return _dense_lu(a)
        a.sum_duplicates()  # in place, as splu does; a no-op on canonical CSC
        layout = band_layout(a.indices, a.indptr)
        return _superlu(a, n) if layout is None else _band_lu(a.data, layout)

    # NaN propagates through the max, so a non-finite entry makes max|A| non-finite
    (lu,) = _factor_stack(n, [np.max(np.abs(entries), initial=0.0)], factor)
    if isinstance(lu, SingularMatrixError):
        raise lu
    return lu


def _dense_lu(a):
    """``getrf`` of a dense matrix: the solve and the pivots, the diagonal of ``U``.

    Exact zero pivots (``info > 0``) are reported through the singularity rule.
    """
    lu, piv, _ = _GETRF(a)

    def kernel_solve(b, trans):
        return _GETRS(lu, piv, b, trans=trans)[0]

    return kernel_solve, np.diag(lu)


def _factor_stack(n, max_abs, factor):
    """Apply the singularity rule to a stack of samples of dimension ``n``: its one home.

    ``max_abs[i]`` is sample ``i``'s largest entry magnitude, and
    ``factor(i)`` factors the sample, returning the kernel's solve
    (``kernel_solve(b, trans)``, as ``LUFactorization`` holds it) and its
    pivots, the diagonal of ``U``. The rule runs per sample, its two stages
    in order: a sample whose ``max_abs`` fails is never factored, and the
    smallest pivot magnitude of one that is decides the rest. Samples are
    factored in order, so each kernel makes the same LAPACK calls on the
    same operands as one call per sample would. Returns a list aligned with
    the samples: sample ``i``'s ``LUFactorization``, or the
    SingularMatrixError of ``_singular_error``. A kernel that stops at an
    exact zero pivot of its own (SuperLU) raises its error instead.

    The rule is applied to scalars, not vectorized over the stack: most
    stacks here are ``lu_factor``'s stack of one, where array set-up costs
    more than the rule itself.
    """
    out = []
    for i, max_abs_i in enumerate(max_abs):
        error = _singular_error(n, max_abs_i)
        if error is None:
            kernel_solve, pivots = factor(i)
            error = _singular_error(n, max_abs_i, np.min(np.abs(pivots)))
        out.append(error or LUFactorization(kernel_solve, n))
    return out


class BandLayout(NamedTuple):
    """Where the stored entries of a square CSC pattern go in LAPACK band storage.

    The storage is a Fortran-ordered ``(2 * kl + ku + 1, n)`` array for
    bandwidths ``kl`` (lower) and ``ku`` (upper): entry ``(i, j)`` sits in
    row ``kl + ku + i - j`` of column ``j``, under ``kl`` rows left for the
    fill of row pivoting. ``positions`` holds that place, as an index into
    the flattened array, for every stored entry in CSC order.
    """

    positions: np.ndarray
    n: int
    kl: int
    ku: int


def band_layout(indices, indptr):
    """The ``BandLayout`` of a canonical square CSC pattern, or None when it is not banded.

    The bandwidths are read from the pattern in O(nnz). The pattern counts
    as banded when its band is at least half full, ``nnz >= (kl + ku + 1)
    * n / 2``: the rule MATLAB's sparse backslash applies to choose its band
    solver (Davis, "Direct Methods for Sparse Linear Systems", 2006).
    """
    n = len(indptr) - 1
    cols = np.repeat(np.arange(n), np.diff(indptr))
    offsets = indices - cols  # row minus column of every stored entry
    kl, ku = int(offsets.max(initial=0)), -int(offsets.min(initial=0))
    if 2 * indices.size < (kl + ku + 1) * n:
        return None
    return BandLayout(kl + ku + offsets + cols * (2 * kl + ku + 1), n, kl, ku)


def _band_lu(data, layout):
    """``gbtrf`` of the CSC entries ``data`` stored by ``layout``.

    Returns the solve and the pivots, the diagonal of ``U``, which sits in
    row ``kl + ku`` of the factored storage; exact zero pivots (``info >
    0``) are reported through the singularity rule.
    """
    _, n, kl, ku = layout
    ab = np.zeros((2 * kl + ku + 1) * n, dtype=np.complex128)
    ab[layout.positions] = data
    lu, piv, _ = _GBTRF(ab.reshape((2 * kl + ku + 1, n), order="F"), kl, ku, overwrite_ab=True)

    def kernel_solve(b, trans):
        return _GBTRS(lu, kl, ku, b, piv, trans=trans)[0]

    return kernel_solve, lu[kl + ku]


def band_lu_stack(entries, layout):
    """Factor a stack of operators that share one banded pattern, each as ``lu_factor`` would.

    Row ``i`` of ``entries`` holds operator ``i``'s stored entries in the
    order of the CSC pattern ``layout`` was read from (``band_layout``).
    ``max|A_i|`` is taken for the whole stack at once; ``_factor_stack``
    then applies the rule, with one ``gbtrf`` (``_band_lu``) for each
    sample whose ``max|A_i|`` passes. Returns a list aligned with the rows:
    sample ``i``'s ``LUFactorization``, the same factors to the bit as
    ``lu_factor`` gives for the operator, or the SingularMatrixError it
    raises.
    """
    max_abs = np.max(np.abs(entries), axis=1, initial=0.0)
    return _factor_stack(layout.n, max_abs, lambda i: _band_lu(entries[i], layout))


def _superlu(a, n):
    """SuperLU factors of a CSC matrix: the solve and the diagonal of ``U``."""
    # imported here, so runs without a SuperLU operator never load scipy.sparse.linalg
    from scipy.sparse.linalg import splu

    try:
        factors = splu(a)
    except RuntimeError as exc:  # SuperLU stops at an exact zero pivot
        raise SingularMatrixError(f"matrix of dimension {n} is singular ({exc})") from exc

    def kernel_solve(b, trans):
        return factors.solve(b, trans="T" if trans else "N")

    return kernel_solve, factors.U.diagonal()


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


def _singular_error(n, max_abs, min_pivot=None):
    """The SingularMatrixError, naming the reason, where ``_nonsingular`` rejects one matrix.

    None where the matrix passes.
    """
    if _nonsingular(n, max_abs, min_pivot):
        return None
    if not np.isfinite(max_abs):
        return SingularMatrixError(f"matrix of dimension {n} has non-finite entries")
    if max_abs == 0.0:
        return SingularMatrixError(f"matrix of dimension {n} is identically zero")
    return SingularMatrixError(
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
    the rule of ``lu_factor``; the mask says nothing of ``b``. Only usable
    samples reach LAPACK, one ``getrf`` and one ``getrs`` each, so each
    solution is bitwise the one ``lu_factor(a[i]).solve(b[i])`` gives. A
    right-hand side that is not finite, which ``solve`` refuses, is solved
    as it is, into a solution that is not finite: the caller's finiteness
    check meets it. Returns the solutions, laid out per sample as ``getrs``
    returns them and zero where a sample is unusable, and the boolean
    usable mask.

    This is the one kernel outside ``_factor_stack``: it runs the rule's
    two stages itself, each vectorized over the stack, and makes no
    factorization object. Sent through ``_factor_stack`` and per-sample
    ``LUFactorization`` solves, with the same bits, a stack of 60 samples
    at r = 15 cost about twice as much per sample (18 against 8 us, one
    BLAS thread), and the estimator sweeps solve hundreds of such stacks
    per reduction.
    """
    m, n, p = b.shape
    x = np.zeros((m, p, n), dtype=np.complex128).transpose(0, 2, 1)
    if n == 0:
        return x, np.ones(m, dtype=bool)
    max_abs = np.max(np.abs(a), axis=(1, 2))
    usable = _nonsingular(n, max_abs)
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

    ``form`` hands out ``(T, Z)`` for writing, and a pair so written and
    read back, passed as ``form`` to the constructor, skips the reduction.
    ``_is_schur_form`` must accept it as a Schur form of ``A``; any other
    pair raises ValueError. An accepted pair is taken over as it is (a
    solve writes on its ``T``), so it solves bit for bit as the form it was
    written from.

    ``factor`` takes a stack of shifts and hands out one factorization of
    ``T + shift*I`` each. Each solve writes its shift's pivots onto the
    diagonal of the stored ``T`` in place and runs one ``trtrs``, under a
    lock, so threads may share one form.
    """

    def __init__(self, a, form=None):
        a = _as_complex_matrix(a, "matrix")
        if form is not None:
            if not _is_schur_form(a, *form):
                raise ValueError("the stored pair is not a Schur form of the matrix")
            t, z = form
        elif np.any(a.imag):
            t, z = scipy.linalg.schur(a, output="complex")
        else:
            t, z = scipy.linalg.rsf2csf(*scipy.linalg.schur(a.real, output="real"))
        self._T = np.asfortranarray(t, dtype=np.complex128)
        self.Z = z
        self.dim = a.shape[0]
        self._diagonal_at = np.diag_indices(self.dim)
        self._eigenvalues = np.diag(t).copy()
        # max|A + shift*I| in O(n): the diagonal moves with the shift, the rest does not
        self._diagonal = np.diag(a).copy()
        off_diagonal = np.abs(a)
        np.fill_diagonal(off_diagonal, 0.0)
        self._off_diagonal_max = float(np.max(off_diagonal, initial=0.0))
        self._lock = threading.Lock()

    @contextlib.contextmanager
    def form(self):
        """``(T, Z)`` as built, held under the lock for the ``with`` block: to write, not to keep.

        The eigenvalues go back onto the diagonal that a solve overwrites;
        the stored arrays themselves are handed out, so no copy is made.
        """
        with self._lock:
            self._T[self._diagonal_at] = self._eigenvalues
            yield self._T, self.Z

    def factor(self, shifts):
        """Factor ``A + shifts[i]*I`` for every shift of a 1-d stack, in Schur coordinates.

        Each shift is judged by the rule ``lu_factor`` applies to ``A +
        shift*I``, with pivots ``diag(T) + shift`` (``_factor_stack``); a
        shift that is not finite makes the matrix non-finite. Returns a list
        aligned with the shifts, holding the SingularMatrixError of a shift
        or its ``LUFactorization`` of ``T + shift*I``: its ``solve(Z^H b)``
        is ``y`` with ``Z y = (A + shift*I)^{-1} b``, one triangular solve.
        """
        shifts = np.asarray(shifts, dtype=np.complex128)
        max_abs = np.max(
            np.abs(self._diagonal + shifts[:, None]), axis=1, initial=self._off_diagonal_max
        )
        pivots = self._eigenvalues + shifts[:, None]
        return _factor_stack(self.dim, max_abs, lambda i: (self._solver(pivots[i]), pivots[i]))

    def _solver(self, pivots):
        """The solve with ``T`` whose diagonal is ``pivots``, written onto it under the lock."""

        def kernel_solve(b, trans):
            with self._lock:
                self._T[self._diagonal_at] = pivots
                return _TRTRS(self._T, b, trans=trans)[0]

        return kernel_solve


def _is_schur_form(a, t, z):
    """Whether ``(t, z)`` is a Schur form ``a = z t z^H`` to working precision, in O(n^2).

    Both must be complex arrays of ``a``'s shape, as built, and ``t`` must
    be finite and upper triangular. Then Freivalds' check with one
    fixed-seed vector ``v``: ``identity_holds`` must accept ``z (t v)``
    against ``a (z v)`` and ``z^H (z v)`` against ``v``.
    """
    n = a.shape[0]
    if any(m.dtype != np.complex128 or m.shape != a.shape for m in (t, z)):
        return False
    if not np.isfinite(t).all() or scipy.linalg.bandwidth(t)[0]:
        return False
    v = np.random.default_rng(0).standard_normal(n)
    zv = z @ v
    # z^H (z v), without a copy of z^H
    return identity_holds(a @ zv, z @ (t @ v), n) and identity_holds(v, (zv.conj() @ z).conj(), n)


def identity_holds(full, small, n, magnitude=None):
    """Whether ``small`` equals ``full`` to the roundoff of length-``n`` sums: the one rule.

    ``full`` is an identity's side computed from the system's own arrays,
    ``small`` the side computed from what is checked against them (a
    reduced model, stored factors, a Schur form); both are arrays of one
    shape, or scalars. The rule accepts when ``max|full - small| <=
    ROUNDOFF * n * eps * max(magnitude)``. The error bound of an inner
    product of length ``n`` grows like ``n * eps`` times the magnitudes
    summed (Higham 2002, section 3.1): ``magnitude`` holds them, ``|X| |y|``
    for ``full = X y``. Without it the rule takes ``|full|``, which holds
    where the sums do not cancel, as for the generic vectors of Freivalds'
    test. The rule is scale-free and has no absolute floor, and it refuses
    a deviation that is not finite.
    """
    with np.errstate(over="ignore", invalid="ignore"):  # a non-finite deviation is refused
        deviation = np.abs(full - small).max(initial=0.0)
    magnitude = np.abs(full) if magnitude is None else np.asarray(magnitude)
    bound = ROUNDOFF * n * _EPS * magnitude.max(initial=0.0)
    return bool(deviation <= bound < np.inf)  # False for a NaN, and for an infinite bound


def orthonormalize_append(basis, block):
    """Extend an orthonormal trial basis by the directions a block adds.

    The one append routine, ``_extend``, at ``DEFLATION_TOL``: block
    classical Gram-Schmidt run twice, dropping a column whose remainder is
    at most 1e-10 of its norm. Existing columns come back bitwise
    unchanged, and ``basis`` itself comes back when the block adds nothing.
    The trial bases grow only through this name; the block's coordinates
    are not kept.
    """
    return _extend(basis, block, DEFLATION_TOL)[0]


def _extend(basis, block, tol):
    """Extend an orthonormal basis by a block's directions; the one append routine.

    Returns the grown basis ``G`` and the block's coordinates ``C`` in it, a
    ``(G.shape[1], m)`` array with ``G C = block`` up to each dropped
    column's remainder and roundoff.

    Block classical Gram-Schmidt run twice (CGS2; Giraud, Langou &
    Rozložník 2005): the whole block is projected against the existing
    columns in two matrix-matrix passes. Its columns are then taken in order
    and each is projected twice against the block's columns accepted before
    it. When that in-block step removes more than half of a column's norm,
    the roundoff it leaves along the existing columns is no longer small
    relative to what remains, so the column gets one more pass against the
    whole basis ("twice is enough"). A column is dropped when its remaining
    norm is at most ``tol`` times its original norm, however small that norm
    is beside the other columns' (an affine piece can be tiny and still carry
    a huge coefficient); zero columns are skipped. The coordinates gather
    what every pass removed, and a kept column's remaining norm is its
    diagonal entry. ``basis`` may be None or have zero columns.

    Block entries below the smallest normal float are set to zero first.
    Moment vectors of long, slowly decaying chains (a 20 000-node ladder)
    hold tens of thousands of subnormal entries, on which every later
    product and factorization runs an order of magnitude slower. Such an
    entry is below 1e-146 of its column's norm, or the column's norm
    squares to zero and the column is skipped as zero anyway.

    Existing columns come back bitwise unchanged, and ``basis`` itself comes
    back when the block adds nothing. Otherwise the basis is the leading
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
    for part in (out[:, k:].real, out[:, k:].imag):
        part[np.abs(part) < _TINY] = 0.0
    coordinates = np.zeros((k + m, m), dtype=np.complex128)
    for _ in range(2):
        coordinates[:k] += _project_out(out[:, k:], out[:, :k])
    kept = k
    for j in range(m):
        if original_norms[j] == 0.0:
            continue
        v = out[:, k + j]
        before = np.linalg.norm(v)
        for _ in range(2):
            coordinates[k:kept, j] += _project_out(v, out[:, k:kept])
        remaining = np.linalg.norm(v)
        if remaining < 0.5 * before:
            coordinates[:kept, j] += _project_out(v, out[:, :kept])
            remaining = np.linalg.norm(v)
        if remaining <= tol * original_norms[j]:
            continue
        out[:, kept] = v / remaining
        coordinates[kept, j] = remaining
        kept += 1
    return (basis if kept == k else out[:, :kept]), coordinates[:kept]


def _project_out(v, q):
    """One classical Gram-Schmidt pass in place: ``v -= q (q^H v)``; returns ``q^H v``.

    ``q^H v`` is formed as ``(v^H q)^H``, which conjugates a copy of ``v``
    rather than of the (larger) ``q``.
    """
    step = (v.conj().T @ q).conj().T
    v -= q @ step
    return step


def gram_deviation(v):
    """Max-magnitude deviation of ``V^H V`` from the identity."""
    v = _as_complex_matrix(v, "basis")
    r = v.shape[1]
    if r == 0:
        return 0.0
    g = v.conj().T @ v
    return float(np.max(np.abs(g - np.eye(r))))
