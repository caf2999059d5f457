import numpy as np
import pytest
import scipy.linalg
import scipy.sparse
from hypothesis import HealthCheck, example, given, settings
from hypothesis import strategies as st

from romgrid.errors import SingularMatrixError
from romgrid.linalg import (
    DEFLATION_TOL,
    ROUNDOFF,
    ShiftedSchur,
    _as_complex_matrix,
    _extend,
    band_layout,
    band_lu_stack,
    gram_deviation,
    identity_holds,
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


VERDICT_N = 4
# one diagonal per case; every kernel below sees the same max|A| and the
# same pivots (the diagonal of an upper triangular matrix), so the rule
# must give each the same verdict, and a rejection the same message
VERDICT_CASES = {
    "regular": [2.0, 3.0, 4.0, 5.0],
    "zero": [0.0] * VERDICT_N,
    "non_finite": [2.0, 3.0, np.inf, 5.0],
    "pivot_below_threshold": [1.0, 1.0, 1.0, 0.9 * VERDICT_N * _EPS],
}


def _upper(diagonal, corner):
    """``diag(diagonal)`` plus entry ``(0, corner)``, 0.5 where the matrix is not zero."""
    a = np.diag(np.asarray(diagonal, dtype=complex))
    a[0, corner] = 0.5 if np.any(a) else 0.0
    return a


def _stored(dense, corner):
    """``dense`` as CSC storing the diagonal and entry ``(0, corner)``, zeros included."""
    rows = np.r_[np.arange(VERDICT_N), 0]
    cols = np.r_[np.arange(VERDICT_N), corner]
    return scipy.sparse.csc_array((dense[rows, cols], (rows, cols)), shape=dense.shape)


def _outcome(f, *args):
    try:
        return f(*args)
    except SingularMatrixError as exc:
        return exc


@pytest.mark.parametrize("case", sorted(VERDICT_CASES))
def test_every_kernel_gives_one_verdict(case):
    diagonal = VERDICT_CASES[case]
    # (0, 1) keeps the pattern banded (kl = 0, ku = 1); (0, n - 1) fills too
    # little of its band, so SuperLU factors it
    band, general = _upper(diagonal, 1), _upper(diagonal, VERDICT_N - 1)
    band_sparse, general_sparse = _stored(band, 1), _stored(general, VERDICT_N - 1)
    assert band_layout(band_sparse.indices, band_sparse.indptr) is not None
    assert band_layout(general_sparse.indices, general_sparse.indptr) is None
    # the Schur form cannot hold a non-finite matrix: a non-finite shift makes one
    schur_base = _upper(np.where(np.isfinite(diagonal), diagonal, 0.0), 1)
    shift = np.inf if case == "non_finite" else 0.0
    layout = band_layout(band_sparse.indices, band_sparse.indptr)
    stack = np.stack([_stored(_upper(VERDICT_CASES["regular"], 1), 1).data, band_sparse.data])
    outcomes = {
        "dense": _outcome(lu_factor, band),
        "band": _outcome(lu_factor, band_sparse),
        "superlu": _outcome(lu_factor, general_sparse),
        "band_lu_stack": band_lu_stack(stack, layout)[1],
        "schur": ShiftedSchur(schur_base).factor([0.5j, shift])[1],
    }
    singular = {name: isinstance(out, SingularMatrixError) for name, out in outcomes.items()}
    _, usable = lu_solve_stack(_fortran_stack([band]), np.ones((1, VERDICT_N, 1), dtype=complex))
    assert set(singular.values()) == {case != "regular"}
    assert usable.tolist() == [case == "regular"]
    with ShiftedSchur(schur_base).form() as (_, z):
        assert np.array_equal(z, np.eye(VERDICT_N))  # so Schur coordinates are the plain ones
    if case != "regular":
        assert {type(out) for out in outcomes.values()} == {SingularMatrixError}
        assert len({str(out) for out in outcomes.values()}) == 1
        return
    rhs = complex_randn(np.random.default_rng(3), VERDICT_N, 2)
    x, _ = lu_solve_stack(_fortran_stack([band]), rhs[None])
    assert np.array_equal(x[0], outcomes["dense"].solve(rhs))
    dense_general = lu_factor(general)
    for transposed in (False, True):
        solved = {
            name: (lu.transposed() if transposed else lu).solve(rhs)
            for name, lu in {**outcomes, "dense_general": dense_general}.items()
        }
        assert np.array_equal(solved["band_lu_stack"], solved["band"])
        for name in ("band", "schur"):
            assert np.allclose(solved[name], solved["dense"], rtol=0, atol=1e-14)
        assert np.allclose(solved["superlu"], solved["dense_general"], rtol=0, atol=1e-14)


def test_a_schur_factorization_solves_bitwise_as_lu_factor_of_its_shifted_triangle():
    rng = np.random.default_rng(9)
    n = 12
    schur = ShiftedSchur(2.0 * np.eye(n) + rng.standard_normal((n, n)) / np.sqrt(n))
    with schur.form() as (t, _):
        t = t.copy()
    shifts = [0.3j, 1.0 - 2.0j, -0.5]
    rhs = complex_randn(rng, n, 3)
    for shift, lu in zip(shifts, schur.factor(shifts)):
        triangle = lu_factor(t + shift * np.eye(n))
        assert np.array_equal(lu.solve(rhs), triangle.solve(rhs))
        assert np.array_equal(lu.transposed().solve(rhs), triangle.transposed().solve(rhs))


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


def _remainders(grown, coordinates, block):
    """Each block column's distance from its coordinates' image, and its norm."""
    return zip(np.linalg.norm(block - grown @ coordinates, axis=0), np.linalg.norm(block, axis=0))


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
    # a column half the tolerance clear of the span is dropped, and its
    # coordinates leave that half, the part no kept direction holds
    inside = basis @ complex_randn(rng, 5, 1)
    outside = fresh - basis @ (basis.conj().T @ fresh)
    near = inside / np.linalg.norm(inside) + 0.5 * DEFLATION_TOL * outside / np.linalg.norm(outside)
    grown, coordinates = _extend(basis, near, DEFLATION_TOL)
    assert grown is basis and coordinates.shape == (5, 1)
    ((remainder, norm),) = _remainders(grown, coordinates, near)
    assert 0.49 * DEFLATION_TOL * norm <= remainder <= DEFLATION_TOL * norm


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
    # at the residual bases' threshold, an affine piece scaled by 1e-12 beside
    # unit pieces keeps its own direction, and its coordinates reproduce it to
    # roundoff of its own norm, not of the unit pieces'
    rng = np.random.default_rng(4)
    n = 30
    basis = random_orthonormal(rng, n, 3)
    block = complex_randn(rng, n, 4)
    block[:, 2] *= 1e-12
    grown, coordinates = _extend(basis, block, max(block.shape) * _EPS)
    assert grown.shape == (n, 7) and gram_deviation(grown) <= 1e-14
    assert np.array_equal(grown[:, :3], basis)
    for remainder, norm in _remainders(grown, coordinates, block):
        assert remainder <= ROUNDOFF * n * _EPS * norm


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


@pytest.mark.parametrize("scale", [1e-300, 1e-9, 1.0, 1e9, 1e300])
def test_the_identity_rule_is_scale_free_and_refuses_what_is_not_finite(scale):
    full = scale * np.random.default_rng(2).standard_normal(50)
    n, allowed = 50, ROUNDOFF * 50 * np.finfo(float).eps
    assert identity_holds(full, full, n) and identity_holds(0.0 * full, 0.0 * full, n)
    assert identity_holds(full, full * (1 + 0.5 * allowed), n)
    assert not identity_holds(full, full * (1 + 2 * allowed), n)
    assert not identity_holds(0.0 * full, np.full(50, 1e-300), n)  # no absolute floor
    for bad in (np.nan, np.inf):
        small = full.copy()
        small[3] = bad
        assert not identity_holds(full, small, n) and not identity_holds(small, small, n)


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
    # the trial path is the one routine's basis, whose coordinates reproduce
    # each kept column to roundoff and leave of a dropped one at most the tolerance
    grown, coordinates = _extend(basis, block, DEFLATION_TOL)
    assert grown is basis if got is basis else np.array_equal(grown, got)
    assert coordinates.shape == (grown.shape[1], block.shape[1])
    for (relation, gap), (remainder, norm) in zip(case[3], _remainders(grown, coordinates, block)):
        kept = relation == "random" or gap > 0
        assert remainder <= (ROUNDOFF * case[0] * _EPS if kept else DEFLATION_TOL) * norm
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
