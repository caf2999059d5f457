import numpy as np
import pytest

from romgrid.errors import SingularMatrixError
from romgrid.linalg import (
    _as_complex_matrix,
    gram_deviation,
    lu_factor,
    lu_solve_stack,
    orthonormalize_append,
)

from conftest import complex_randn, random_orthonormal


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
    got = lu.solve(rhs, transpose=True)
    assert np.allclose(got, np.linalg.solve(a.T, rhs), atol=1e-12)
    assert not np.allclose(got, np.linalg.solve(a.conj().T, rhs), atol=1e-8)


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
    assert usable.tolist() == [True, False, False, False, True, False]
    for i, a in enumerate(matrices):
        if usable[i]:
            assert np.array_equal(x[i], lu_factor(a).solve(rhs[i]))
        else:
            assert not np.any(x[i])
            if np.isfinite(rhs[i]).all():
                with pytest.raises(SingularMatrixError):
                    lu_factor(a)


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


def test_gram_deviation_detects_skew():
    rng = np.random.default_rng(1)
    q = random_orthonormal(rng, 15, 5)
    assert gram_deviation(q) < 1e-12
    assert gram_deviation(1.01 * q) > 1e-3
