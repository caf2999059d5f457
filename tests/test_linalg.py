import numpy as np
import pytest
import scipy.linalg
from hypothesis import HealthCheck, example, given, settings
from hypothesis import strategies as st

from romgrid.errors import SingularMatrixError
from romgrid.linalg import (
    _as_complex_matrix,
    gram_deviation,
    lu_factor,
    lu_solve_stack,
    orthonormalize_append,
)

import oracles
from conftest import complex_randn, random_orthonormal

_EPS = np.finfo(np.float64).eps


@pytest.mark.parametrize("seed", range(5))
@pytest.mark.parametrize("n", [1, 7, 40])
def test_lu_solve_matches_numpy(seed, n):
    rng = np.random.default_rng(seed)
    a = np.eye(n) + 0.5 * complex_randn(rng, n, n) / np.sqrt(n)
    rhs = complex_randn(rng, n, 3)
    lu = lu_factor(a)
    assert np.allclose(lu.solve(rhs), np.linalg.solve(a, rhs), atol=1e-12)


@pytest.mark.parametrize("seed", range(5))
def test_lu_transpose_solve_is_plain_transpose(seed):
    # trans solves must use A^T, not the conjugate transpose
    rng = np.random.default_rng(seed)
    n = 12
    a = np.eye(n) + 0.5 * complex_randn(rng, n, n) / np.sqrt(n)
    rhs = complex_randn(rng, n, 2)
    lu = lu_factor(a)
    # the transposed view is the factorization of A^T on the same factors
    got = lu.transposed().solve(rhs)
    assert np.allclose(got, np.linalg.solve(a.T, rhs), atol=1e-12)
    assert not np.allclose(got, np.linalg.solve(a.conj().T, rhs), atol=1e-8)
    # bitwise LAPACK's own transposed solve (getrs, trans=1) on the same factors
    assert np.array_equal(got, scipy.linalg.lu_solve(scipy.linalg.lu_factor(a), rhs, trans=1))
    assert np.array_equal(lu.transposed().transposed().solve(rhs), lu.solve(rhs))


def _fortran_stack(matrices):
    # the layout AffineMatrix.assemble_stack gives: every sample Fortran-contiguous
    m, n = len(matrices), matrices[0].shape[0]
    out = np.empty((m, n, n), dtype=np.complex128).transpose(0, 2, 1)
    out[...] = matrices
    return out


@pytest.mark.parametrize("n", [1, 6])
def test_lu_solve_stack_is_lu_factor_per_sample(n):
    rng = np.random.default_rng(n)
    regular = [np.eye(n) + 0.4 * complex_randn(rng, n, n) / np.sqrt(n) for _ in range(3)]
    overflowed = regular[0].copy()
    overflowed[0, 0] = np.inf
    rank_deficient = regular[1].copy()
    rank_deficient[:, 0] = 0.0
    matrices = [regular[0], np.zeros((n, n)), overflowed, rank_deficient, regular[1], regular[2]]
    rhs = complex_randn(rng, len(matrices), n, 2)
    rhs[5, 0, 1] = np.nan  # a regular operator with a non-finite right-hand side
    x, usable = lu_solve_stack(_fortran_stack(matrices), rhs)
    # the mask is the LU rule's alone: a non-finite right-hand side is solved as it is
    assert usable.tolist() == [True, False, False, False, True, True]
    for i, a in enumerate(matrices):
        if not usable[i]:
            assert not np.any(x[i])
            with pytest.raises(SingularMatrixError):
                lu_factor(a)
        elif np.isfinite(rhs[i]).all():
            assert np.array_equal(x[i], lu_factor(a).solve(rhs[i]))
        else:
            assert not np.isfinite(x[i][:, 1]).any()


def test_lu_solve_stack_applies_the_pivot_threshold():
    # a pivot just below n*eps*max|A| is rejected by both paths, one above it by neither
    n, eps = 3, np.finfo(float).eps
    near = [np.diag([1.0, 1.0, factor * n * eps]) for factor in (0.5, 2.0)]
    _, usable = lu_solve_stack(_fortran_stack(near), np.ones((2, n, 1), dtype=complex))
    assert usable.tolist() == [False, True]
    with pytest.raises(SingularMatrixError, match="singular to working precision"):
        lu_factor(near[0])
    lu_factor(near[1])


def test_lu_vector_rhs_keeps_shape():
    rng = np.random.default_rng(0)
    a = np.eye(5) + 0.1 * complex_randn(rng, 5, 5)
    x = lu_factor(a).solve(complex_randn(rng, 5))
    assert x.shape == (5,)


def test_lu_rejects_singular():
    with pytest.raises(SingularMatrixError):
        lu_factor(np.zeros((4, 4)))
    v = np.arange(1.0, 5.0).reshape(-1, 1)
    with pytest.raises(SingularMatrixError):
        lu_factor(v @ v.T)  # rank one


def test_lu_near_singular_threshold_scales_with_magnitude():
    # a matrix with one tiny pivot relative to its largest entry
    a = np.diag([1.0, 1.0, 1e-18])
    with pytest.raises(SingularMatrixError):
        lu_factor(a)
    # the same pivot is fine when the whole matrix lives at that scale
    lu_factor(np.diag([1e-18, 1e-18, 1e-18]))


def test_lu_empty_matrix():
    lu = lu_factor(np.zeros((0, 0)))
    assert lu.solve(np.zeros((0, 2))).shape == (0, 2)


def test_as_complex_matrix_promotes_vectors():
    m = _as_complex_matrix(np.arange(3.0), "x")
    assert m.shape == (3, 1)
    assert m.dtype == np.complex128


def test_as_complex_matrix_rejects_nonfinite():
    with pytest.raises(ValueError):
        _as_complex_matrix(np.array([1.0, np.nan]), "x")
    with pytest.raises(ValueError):
        _as_complex_matrix(np.array([[np.inf]]), "x")


@pytest.mark.parametrize("seed", range(4))
def test_orthonormalize_append_extends_span(seed):
    rng = np.random.default_rng(seed)
    n = 30
    basis = random_orthonormal(rng, n, 4)
    block = complex_randn(rng, n, 3)
    out = orthonormalize_append(basis, block)
    assert out.shape == (n, 7)
    assert gram_deviation(out) < 1e-10
    # leading columns are untouched
    assert np.array_equal(out[:, :4], basis)
    # new span covers the block
    proj = out @ (out.conj().T @ block)
    assert np.allclose(proj, block, atol=1e-10 * np.abs(block).max())


def test_orthonormalize_append_deflates_dependent_columns():
    rng = np.random.default_rng(7)
    n = 20
    basis = random_orthonormal(rng, n, 5)
    # columns already inside the span must be dropped, identically
    block = basis @ complex_randn(rng, 5, 4)
    out = orthonormalize_append(basis, block)
    assert out is basis
    # a mix keeps only the genuinely new direction
    fresh = complex_randn(rng, n, 1)
    mixed = np.hstack([basis[:, :1], fresh, basis @ complex_randn(rng, 5, 1)])
    out = orthonormalize_append(basis, mixed)
    assert out.shape == (n, 6)


def test_orthonormalize_scales_are_respected():
    # deflation compares against the original column norm, so a tiny but
    # genuinely new column survives
    n = 10
    basis = np.zeros((n, 0), dtype=np.complex128)
    tiny = np.zeros((n, 1), dtype=np.complex128)
    tiny[3, 0] = 1e-14
    out = orthonormalize_append(basis, tiny)
    assert out.shape == (n, 1)
    assert np.isclose(np.linalg.norm(out[:, 0]), 1.0)


def test_orthonormalize_append_sets_subnormal_entries_to_zero():
    # a slowly decaying chain vector ends in subnormals, on which products run
    # in slow microcode; they are zeroed before any arithmetic, which keeps
    # the result bitwise that of the block without them
    rng = np.random.default_rng(3)
    n = 420
    decay = np.exp(-np.arange(n) * 1.8)[:, None]  # below 2.2e-308 from row 394
    block = complex_randn(rng, n, 2) * decay
    tiny = np.finfo(np.float64).tiny
    assert np.any((np.abs(block.real) < tiny) & (block.real != 0))
    flushed = block.copy()
    for part in (flushed.real, flushed.imag):
        part[np.abs(part) < tiny] = 0.0
    out = orthonormalize_append(None, block)
    assert np.array_equal(out, orthonormalize_append(None, flushed))
    assert out.shape == (n, 2) and gram_deviation(out) < 1e-13
    parts = np.concatenate([out.real.ravel(), out.imag.ravel()])
    assert not np.any((parts != 0) & (np.abs(parts) < tiny))


def test_gram_deviation_detects_skew():
    rng = np.random.default_rng(1)
    q = random_orthonormal(rng, 15, 5)
    assert gram_deviation(q) < 1e-12
    assert gram_deviation(1.01 * q) > 1e-3


# How a drawn block column relates to what comes before it: a random
# direction, zero, or a unit combination of the existing basis ("basis") or
# of the basis and the block's earlier columns ("block") plus ``gap`` times
# a unit vector orthogonal to the basis and all earlier columns. Gap 0 puts
# the column in the span (it must be dropped); 1.1e-10 is 1.1 times the
# deflation tolerance.
_RELATIONS = ("random", "zero", "basis", "block")
_GAPS = (0.0, 1.1e-10, 1e-7, 1e-3, 0.5)


@st.composite
def append_cases(draw):
    n = draw(st.integers(4, 40))
    k = draw(st.integers(0, n // 2))
    m = draw(st.integers(1, min(6, n - k - 1)))
    column = st.tuples(st.sampled_from(_RELATIONS), st.sampled_from(_GAPS))
    columns = draw(st.lists(column, min_size=m, max_size=m))
    return n, k, draw(st.booleans()), tuple(columns), draw(st.integers(0, 2**32 - 1))


def _append_case(n, k, is_complex, columns, seed):
    """The basis (complex storage, real values unless ``is_complex``) and block of a case."""
    rng = np.random.default_rng(seed)

    def draw(*shape):
        return complex_randn(rng, *shape) if is_complex else rng.standard_normal(shape)

    basis = np.linalg.qr(draw(n, k))[0].astype(np.complex128)
    block = np.zeros((n, len(columns)), dtype=basis.dtype if is_complex else float)
    for j, (relation, gap) in enumerate(columns):
        if relation == "zero":
            continue
        before = np.hstack([basis, block[:, :j]])
        if not is_complex:
            before = before.real
        span = before[:, :k] if relation == "basis" else before
        if relation == "random" or not np.any(span):
            column = draw(n)
        else:
            inside = span @ draw(span.shape[1])
            outside = np.linalg.qr(before, mode="complete")[0][:, before.shape[1]]
            column = inside / np.linalg.norm(inside) + gap * outside
        block[:, j] = 10.0 ** rng.uniform(-6, 6) * column
    return basis, block


# a block whose second column repeats its first up to 1.1 times the deflation
# tolerance: the in-block step removes nearly all of it, and without a last pass
# against the whole basis the column keeps roundoff along the existing columns
_IN_BLOCK_NEAR_DEPENDENT = (40, 12, True, (("basis", 0.5), ("block", 1.1e-10), ("block", 1e-7)), 3)


@settings(max_examples=150, deadline=None, derandomize=True, database=None,
          suppress_health_check=[HealthCheck.too_slow])
@example(case=_IN_BLOCK_NEAR_DEPENDENT)
@given(case=append_cases())
def test_orthonormalize_append_matches_column_by_column_oracle(case):
    basis, block = _append_case(*case)
    k = basis.shape[1]
    got = orthonormalize_append(basis, block)
    expected = oracles.orthonormalize_append(basis, block)
    # every drawn column is in the span or 1.1 x the tolerance clear of it
    assert got.shape == expected.shape
    if expected is basis:
        assert got is basis
        return
    assert np.array_equal(got[:, :k], basis)
    assert gram_deviation(got) <= 1e-14
    # equal spans, up to the roundoff the narrowest kept gap amplifies
    kept_gaps = [gap for relation, gap in case[3] if relation in ("basis", "block") and gap > 0]
    narrowest = min(kept_gaps, default=1.0)
    difference = got @ got.conj().T - expected @ expected.conj().T
    assert np.linalg.norm(difference, 2) <= 1e3 * _EPS / narrowest
