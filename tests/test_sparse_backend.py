"""The sparse full-order backend against the dense one.

Every random family is built twice from the same matrices: once with
``scipy.sparse`` operator pieces, once with dense ones. The storage picks
the LU kernel (SuperLU or LAPACK), so the two twins run every full-order
step on different code, and every result must agree to roundoff. A stack
of points, in one pass or several, must give each point's one-point
transfer function and true error to the bit; on a banded family, whose
stack is factored by one band pass, also the ``lu_factor(Q(p))`` route's.
"""

import contextlib
import os
import pathlib
import subprocess
import sys
import textwrap
import warnings

import numpy as np
import pytest
import scipy.linalg
import scipy.sparse
from hypothesis import HealthCheck, given, settings
from hypothesis import strategies as st

import romgrid as rg
from romgrid import linalg
from romgrid.errors import SingularMatrixError
from romgrid.linalg import SparseOperator, lu_factor

import oracles
from conftest import (
    assert_stack_is_one_point_bitwise,
    bits,
    complex_randn,
    full_workspace,
    one_point_response,
    random_orthonormal,
)

KINDS = ["delta_r", "delta1", "delta1pr", "delta2", "delta2pr", "delta3", "delta3pr"]
BASIS_KEYS = ("V", "V_du", "V_rdu", "V_rpr", "V_rrpr")

SRC = pathlib.Path(__file__).resolve().parents[1] / "src"

PROPERTY = settings(
    max_examples=30,
    deadline=None,
    derandomize=True,
    database=None,
    suppress_health_check=[HealthCheck.too_slow],
)


def twin_systems(rng, n, ports, parametric):
    """The same random family with sparse and with dense operator pieces.

    ``Q = Q0 + s Q1`` (parametric: ``+ d Q2 + s d^-1 Q3``, and ``B``, ``C``
    with affine terms too). Each piece has about three entries per row; Q0
    is the identity plus a small complex piece, Q1 and Q3 are real, so the
    sparse twin keeps real pieces real.
    """

    def piece(scale, real=False):
        values = rng.standard_normal((n, n)) if real else complex_randn(rng, n, n)
        return scale * np.where(rng.random((n, n)) < 3.0 / n, values, 0.0) / np.sqrt(3.0)

    s, d = rg.Monomial(1.0, {"s": 1}), rg.Monomial(1.0, {"d": 1})
    base = np.eye(n) + piece(0.35)
    terms = [(s, piece(0.2, real=True))]
    B_terms, C_terms, names = [], [], ["s"]
    if parametric:
        terms += [(d, piece(0.15)), (rg.Monomial(1.0, {"s": 1, "d": -1}), piece(0.1, real=True))]
        B_terms = [(d, complex_randn(rng, n, ports))]
        C_terms = [(s, complex_randn(rng, ports, n))]
        names.append("d")
    B = rg.AffineMatrix((n, ports), base=complex_randn(rng, n, ports), terms=B_terms)
    C = rg.AffineMatrix((ports, n), base=complex_randn(rng, ports, n), terms=C_terms)

    def build(store):
        Q = rg.AffineMatrix((n, n), base=store(base), terms=[(m, store(p)) for m, p in terms])
        return rg.ParametricSystem(Q, B, C, parameter_names=names)

    return build(scipy.sparse.csc_array), build(np.asarray)


def sample_point(rng, parametric):
    point = {"s": (0.5 + rng.uniform()) * np.exp(2j * np.pi * rng.uniform())}
    if parametric:
        point["d"] = complex(0.6 + 0.8 * rng.uniform(), 0.3 * rng.standard_normal())
    return point


def draw_bases(rng, n, petrov):
    out = {}
    for key in BASIS_KEYS:
        k = int(rng.integers(1, 6))
        out[key] = random_orthonormal(rng, n, k)
        out["W" + key[1:]] = random_orthonormal(rng, n, k) if petrov else out[key]
    return out


cases = st.fixed_dictionaries({
    "seed": st.integers(0, 2**32 - 1),
    "n": st.integers(16, 40),
    "ports": st.integers(1, 3),
    "parametric": st.booleans(),
    "petrov": st.booleans(),
})


@PROPERTY
@given(case=cases)
def test_sparse_and_dense_twins_agree(case):
    rng = np.random.default_rng(case["seed"])
    sparse, dense = twin_systems(rng, case["n"], case["ports"], case["parametric"])
    assert sparse.Q.is_sparse and not dense.Q.is_sparse
    assert not sparse.B.is_sparse and not sparse.C.is_sparse
    point = sample_point(rng, case["parametric"])
    assert isinstance(sparse.Q.assemble(point), SparseOperator)
    bases = draw_bases(rng, case["n"], case["petrov"])

    for kind in KINDS:
        ws_s, ws_d = full_workspace(sparse, kind, bases), full_workspace(dense, kind, bases)
        got = rg.evaluate(kind, ws_s, sparse, point, rng_seed=case["seed"] % 97)
        want = rg.evaluate(kind, ws_d, dense, point, rng_seed=case["seed"] % 97)
        tol = 1e-10 * max(want.part1, want.part2)
        for name in ("total", "part1", "part2"):
            assert getattr(got, name) == pytest.approx(getattr(want, name), abs=tol), (kind, name)
        assert got.aux.keys() == want.aux.keys()
        for name, value in got.aux.items():
            assert value == pytest.approx(want.aux[name], rel=1e-10), (kind, name)

    exact = rg.true_error(sparse, ws_s, point, verify_identity=True)
    assert exact == pytest.approx(rg.true_error(dense, ws_d, point), rel=1e-10)
    # a stack with a huge coefficient, which may overflow the operator (and,
    # in the parametric family, the input map), in one pass and across passes
    huge = dict(point, s=1.5e308j) if not case["parametric"] else dict(point, d=1.7e308)
    more = [sample_point(rng, case["parametric"]) for _ in range(2)]
    stack = [point, more[0], huge, more[1]]
    with np.errstate(over="ignore", invalid="ignore"):
        for sys, ws in ((sparse, ws_s), (dense, ws_d)):
            for chunk in (None, 1, 3):
                usable = assert_stack_is_one_point_bitwise(
                    sys, ws, stack, reference=one_point_response, chunk_points=chunk
                )
                assert usable[0]

    q = 1 if case["parametric"] else 2
    for side_s, side_d in ((sparse, dense), (sparse.dual(), dense.dual())):
        got = rg.expansion_block(side_s, point, q)
        want = rg.expansion_block(side_d, point, q)
        assert got.shape == want.shape
        scale = np.max(np.abs(want), axis=0)
        assert np.all(np.max(np.abs(got - want), axis=0) <= 1e-10 * scale)


@PROPERTY
@given(case=cases)
def test_dual_block_from_the_primal_lu_matches_its_own_lu(case):
    # the greedy loop builds dual blocks on the transposed primal LU; the
    # block must be the one a factorization of Q^T gives, to roundoff
    rng = np.random.default_rng(case["seed"])
    q = 1 if case["parametric"] else 2
    for sys in twin_systems(rng, case["n"], case["ports"], case["parametric"]):
        point = sample_point(rng, case["parametric"])
        shared = rg.expansion_block(sys.dual(), point, q, lu=sys.operator_lu(point).transposed())
        own = rg.expansion_block(sys.dual(), point, q)
        assert shared.shape == own.shape
        assert np.max(np.abs(shared - own)) <= 1e-12 * np.max(np.abs(own))


def _random_sparse(rng, n, density=0.3):
    """Complex sparse matrix with a dominant diagonal, as a CSC array."""
    mask = rng.random((n, n)) < density
    a = np.where(mask, complex_randn(rng, n, n), 0.0) / np.sqrt(density * n)
    return scipy.sparse.csc_array(np.eye(n) * (2.0 + 1j) + a)


@PROPERTY
@given(seed=st.integers(0, 2**32 - 1), n=st.integers(2, 30))
def test_sparse_solves_match_dense_and_transpose_is_plain(seed, n):
    rng = np.random.default_rng(seed)
    a = _random_sparse(rng, n)
    rhs = complex_randn(rng, n, 2)
    lu = lu_factor(a)
    assert lu.dim == n
    dense = a.toarray()
    x = lu.solve(rhs)
    assert np.allclose(x, np.linalg.solve(dense, rhs), rtol=0, atol=1e-12)
    xt = lu.transposed().solve(rhs)
    assert np.allclose(xt, np.linalg.solve(dense.T, rhs), rtol=0, atol=1e-12)
    assert np.max(np.abs(dense.T @ xt - rhs)) <= 1e-12
    assert np.max(np.abs(dense.conj().T @ xt - rhs)) > 1e-6  # not the conjugate transpose
    assert lu.solve(rhs[:, 0]).shape == (n,)


@PROPERTY
@given(seed=st.integers(0, 2**32 - 1), n=st.integers(3, 30), exact=st.booleans())
def test_sparse_lu_rejects_singular_operators(seed, n, exact):
    rng = np.random.default_rng(seed)
    a = _random_sparse(rng, n).tolil()
    j = int(rng.integers(n))
    if exact:
        a[:, j] = 0.0  # structurally singular: SuperLU stops at the zero pivot
    else:
        # column j is a combination of two others: singular to roundoff
        i, k = [c for c in range(n) if c != j][:2]
        a[:, j] = 0.7 * a[:, [i]].toarray() - (0.2 + 0.3j) * a[:, [k]].toarray()
    with pytest.raises(SingularMatrixError):
        lu_factor(a.tocsc())
    with pytest.raises(SingularMatrixError):
        lu_factor(a.toarray())  # the dense kernel keeps the same rule


def test_sparse_lu_rejects_zero_and_nonfinite_operators():
    with pytest.raises(SingularMatrixError, match="identically zero"):
        lu_factor(scipy.sparse.csc_array((4, 4)))
    a = scipy.sparse.eye_array(4, format="csc") * (1.0 + 0j)
    a.data[2] = np.inf
    with pytest.raises(SingularMatrixError, match="non-finite"):
        lu_factor(a)
    with pytest.raises(SingularMatrixError, match="non-finite"):
        lu_factor(a.toarray())


assembly_cases = st.fixed_dictionaries({
    "seed": st.integers(0, 2**32 - 1),
    "rows": st.integers(1, 12),
    "cols": st.integers(1, 12),
    "terms": st.integers(0, 3),
    "density": st.sampled_from([0.0, 0.2, 0.6, 1.0]),
    "complex_pieces": st.booleans(),
    "explicit_zeros": st.booleans(),
    "cancelling_pair": st.booleans(),
    "infinite_coefficient": st.booleans(),
})


@PROPERTY
@given(case=assembly_cases)
def test_union_pattern_assembly_is_the_sparse_add_loop_bitwise(case):
    # the union-pattern assembly against scipy's term-by-term sparse sums, on
    # the family and on its dual (the CSR views of transposed()), through
    # explicit zeros stored in the pieces, terms cancelling to exact zeros
    # and a non-finite coefficient: every entry scipy stores is stored, to
    # the bit, and every other entry of the union pattern is a stored +0.
    # The assembly raises no RuntimeWarning, even where an infinite
    # coefficient meets a stored zero
    rng = np.random.default_rng(case["seed"])
    shape = (case["rows"], case["cols"])

    def piece():
        values = complex_randn(rng, *shape) if case["complex_pieces"] else rng.standard_normal(shape)
        matrix = scipy.sparse.csc_array(np.where(rng.random(shape) < case["density"], values, 0))
        if case["explicit_zeros"]:
            rows, cols = rng.integers(shape[0], size=3), rng.integers(shape[1], size=3)
            matrix = matrix + scipy.sparse.csc_array(  # stored zeros, of either sign
                (np.array([0.0, -0.0, 0.0]) * matrix.dtype.type(1), (rows, cols)), shape=shape
            )
            matrix.sum_duplicates()
            matrix.data[rng.random(matrix.nnz) < 0.3] = -0.0
        return matrix

    monomial = lambda k: rg.Monomial(complex(*rng.standard_normal(2)), {"s": k})  # noqa: E731
    terms = [(monomial(k + 1), piece()) for k in range(case["terms"])]
    if case["cancelling_pair"]:
        shared, m = piece(), monomial(2)
        terms += [(m, shared), (m.scaled(-1.0), shared)]
    if case["infinite_coefficient"]:
        terms.append((rg.Monomial(np.inf, {"s": 1}), piece()))
    family = rg.AffineMatrix(shape, base=piece(), terms=terms)
    point = {"s": complex(*rng.standard_normal(2))}
    for side in (family, family.transposed()):
        for _ in range(2):  # the first call builds the pattern, the second reuses it
            with warnings.catch_warnings():
                warnings.simplefilter("error", RuntimeWarning)
                got = side.assemble(point)
            with np.errstate(invalid="ignore"):  # scipy's product warns at inf * 0
                want = oracles.sparse_assemble(side, point)
            assert isinstance(got, SparseOperator) and got.shape == want.shape
            assert got.has_canonical_format
            assert got.indices.size == side.pattern.indices.size
            stored = [_csc_keys(m) for m in (got, want)]
            at = np.searchsorted(*stored)
            assert np.array_equal(stored[0][np.minimum(at, stored[0].size - 1)], stored[1])
            assert np.array_equal(bits(got.data[at]), bits(want.data))
            rest = np.delete(got.data, at)
            assert np.array_equal(bits(rest), bits(np.zeros_like(rest)))


def _csc_keys(matrix):
    """``column * rows + row`` of every stored entry of a CSC matrix, in its order."""
    columns = np.repeat(np.arange(matrix.shape[1]), np.diff(matrix.indptr))
    return columns * matrix.shape[0] + matrix.indices


def test_union_pattern_assembly_adds_to_a_dropped_entry_as_to_an_absent_one():
    # base (-0-0j) plus (1+1j) * (-0-0j) is (+0-0j): scipy drops that entry, and
    # the next term's (-1) * (-2.0) = (2-0j) lands on an absent entry, giving
    # 0 + (2-0j) = (2+0j); added onto the kept (+0-0j) it would give (2-0j)
    zero = complex(-0.0, -0.0)
    at = ([0], [0])
    base = scipy.sparse.csc_array((np.array([zero]), at), shape=(1, 1))
    terms = [
        (rg.Monomial(1 + 1j), scipy.sparse.csc_array((np.array([zero]), at), shape=(1, 1))),
        (rg.Monomial(-1.0), scipy.sparse.csc_array((np.array([-2.0]), at), shape=(1, 1))),
    ]
    got = rg.AffineMatrix((1, 1), base=base, terms=terms).assemble({})
    want = oracles.sparse_assemble(rg.AffineMatrix((1, 1), base=base, terms=terms), {})
    assert np.array_equal(bits(got.data), bits(want.data))
    assert got.data[0] == 2.0 and not np.signbit(got.data[0].imag)


def test_family_storage_follows_its_pieces():
    n = 5
    sparse = scipy.sparse.eye_array(n, format="csc")
    s = rg.Monomial(1.0, {"s": 1})
    family = rg.AffineMatrix((n, n), base=sparse, terms=[(s, 2 * sparse)])
    assert family.is_sparse and all(m.dtype == np.float64 for _, m in family.monomial_pieces())
    transposed = family.transposed()  # views of the same stored entries, not copies
    assert transposed.is_sparse and np.shares_memory(transposed.base.data, family.base.data)
    assembled = family.assemble({"s": 1j})
    assert isinstance(assembled, SparseOperator) and assembled.dtype == np.complex128
    stored = (assembled.data, assembled.indices, assembled.indptr)
    assert assembled.nbytes == sum(array.nbytes for array in stored)
    # any dense piece makes the whole family dense
    mixed = rg.AffineMatrix((n, n), base=np.eye(n), terms=[(s, 2 * sparse)])
    assert not mixed.is_sparse
    assert isinstance(mixed.terms[0][1], np.ndarray)
    assert np.array_equal(mixed.assemble({"s": 1j}), assembled.toarray())


@pytest.mark.parametrize("n", [200, 2000])
def test_sparse_derivative_without_terms_stays_sparse(n):
    # no term of the ladder depends on "d": its derivative is a zero family,
    # stored in O(n) bytes instead of a dense n x n array
    zero = rg.rc_ladder(n).Q.diff("d")
    assert zero.is_sparse and not zero.terms
    assembled = zero.assemble({"s": 1.0})
    assert isinstance(assembled, SparseOperator) and assembled.nnz == 0
    assert assembled.nbytes <= 8 * (n + 1)


def test_large_sparse_ladder_reduces_with_sparse_full_order_work(monkeypatch):
    # a 20 000-dof ladder: a dense operator alone would take 6.4 GB
    n = 20_000
    sys = rg.rc_ladder(n)
    kinds = []
    original = rg.AffineMatrix.assemble

    def spy(self, point):
        result = original(self, point)
        if self.shape == (n, n):
            kinds.append(type(result))
        return result

    monkeypatch.setattr(rg.AffineMatrix, "assemble", spy)
    cfg = rg.GreedyConfig(
        kind="delta2", training_set=rg.parse_grid("f:1e-3:1e1:12:log"), tolerance=1e-8
    )
    res = rg.run_greedy(sys, cfg)
    assert res.converged
    assert res.trace[-1].max_estimate <= 1e-8
    assert kinds and all(kind is SparseOperator for kind in kinds)


# ---------------------------------------------------------------------------
# the band kernel


def _band_matrix(rng, n, kl, ku, dominance=1.0):
    """A complex matrix whose every entry inside bandwidths ``kl``, ``ku`` is stored."""
    offsets = np.subtract.outer(np.arange(n), np.arange(n))  # row minus column
    inside = (offsets <= kl) & (-offsets <= ku)
    dense = np.where(inside, complex_randn(rng, n, n), 0.0) + dominance * np.eye(n)
    return scipy.sparse.csc_array(dense), dense


@contextlib.contextmanager
def kernels_called():
    """Yields the list of sparse kernels ``lu_factor`` calls meanwhile, with their bandwidths."""
    called = []
    with pytest.MonkeyPatch.context() as patch:
        for name in ("_band_lu", "_superlu"):
            original = getattr(linalg, name)

            def spy(*args, original=original, name=name):
                layout = args[1] if name == "_band_lu" else None
                called.append(("band", layout.kl, layout.ku) if layout else ("superlu",))
                return original(*args)

            patch.setattr(linalg, name, spy)
        yield called


band_cases = st.fixed_dictionaries({
    "seed": st.integers(0, 2**32 - 1),
    "n": st.integers(1, 60),
    "kl": st.integers(0, 4),
    "ku": st.integers(0, 4),
})


@PROPERTY
@given(case=band_cases)
def test_band_lu_matches_dense_getrf_and_transpose_is_plain(case):
    rng = np.random.default_rng(case["seed"])
    n = case["n"]
    a, dense = _band_matrix(rng, n, case["kl"], case["ku"])
    rhs = complex_randn(rng, n, 2)
    with kernels_called() as called:
        lu = lu_factor(a)
    # the kernel reads the pattern's own bandwidths, at most the ones drawn
    assert called == [("band", min(case["kl"], n - 1), min(case["ku"], n - 1))]
    factors = scipy.linalg.lu_factor(dense)
    tol = 1e-13 * np.linalg.cond(dense)
    for view, trans in ((lu, 0), (lu.transposed(), 1)):
        want = scipy.linalg.lu_solve(factors, rhs, trans=trans)
        got = view.solve(rhs)
        assert np.max(np.abs(got - want)) <= tol * np.max(np.abs(want))
    xt = lu.transposed().solve(rhs)
    assert np.max(np.abs(dense.T @ xt - rhs)) <= tol * np.max(np.abs(rhs))
    if n > 1 and case["kl"] + case["ku"] > 0:  # not the conjugate transpose
        assert np.max(np.abs(dense.conj().T @ xt - rhs)) > 1e-6


@PROPERTY
@given(case=band_cases, defect=st.sampled_from(["zero_column", "dependent_row", "non_finite"]))
def test_band_lu_rejects_singular_operators_by_the_dense_rule(case, defect):
    rng = np.random.default_rng(case["seed"])
    n = max(case["n"], 3)
    band, dense = _band_matrix(rng, n, case["kl"], case["ku"], dominance=2.0)
    j = int(rng.integers(n - 1))
    if defect == "zero_column":
        dense[:, j] = 0.0
    elif defect == "dependent_row":
        # rows j and j + 1 equal, nonzero only in one column c inside both
        # rows' bands, and column c zero in every other row (both rows zero
        # where the bands share no column): elimination before column c
        # leaves the two rows as they are, and at column c one of them
        # cancels the other exactly, so either kernel ends at an exact zero
        # pivot (a roundoff-level pivot is not reproducible across kernels,
        # whose operations come in different orders)
        shared = range(max(j + 1 - case["kl"], 0), min(j + case["ku"], n - 1) + 1)
        dense[[j, j + 1]] = 0.0
        if len(shared):
            c = int(rng.choice(shared))
            dense[:, c] = 0.0
            dense[[j, j + 1], c] = complex_randn(rng, 1)[0]
    else:
        dense[j, j] = complex(np.inf, 0.0)
    # the damaged operator on the undamaged band pattern, its zeros stored
    columns = np.repeat(np.arange(n), np.diff(band.indptr))
    entries = dense[band.indices, columns]
    operator = scipy.sparse.csc_array((entries, band.indices, band.indptr), shape=(n, n))
    message = "non-finite" if defect == "non_finite" else "singular"
    with kernels_called() as called, pytest.raises(SingularMatrixError, match=message):
        lu_factor(operator)
    # a non-finite operator is rejected before any kernel runs
    assert [kernel for kernel, *_ in called] == ([] if defect == "non_finite" else ["band"])
    with pytest.raises(SingularMatrixError, match=message):
        lu_factor(dense)


def test_band_lu_stack_gives_each_operator_its_lu_factor_verdict():
    # one banded pattern, four operators: regular, a zero column (an exact
    # zero pivot in every kernel), a non-finite entry, identically zero
    rng = np.random.default_rng(17)
    n = 9
    a, _ = _band_matrix(rng, n, 2, 1, dominance=2.0)
    stack = np.stack([a.data, a.data, a.data, np.zeros_like(a.data)])
    cols = np.repeat(np.arange(n), np.diff(a.indptr))
    stack[1, cols == 4] = 0.0
    stack[2, 5] = np.inf
    rhs = complex_randn(rng, n, 2)
    stacked = linalg.band_lu_stack(stack, linalg.band_layout(a.indices, a.indptr))
    for entries, got in zip(stack, stacked):
        operator = scipy.sparse.csc_array((entries, a.indices, a.indptr), shape=(n, n))
        outcomes = []
        for matrix in (operator, operator.toarray()):
            try:
                outcomes.append(lu_factor(matrix))
            except SingularMatrixError as exc:
                outcomes.append(exc)
        band, full = outcomes
        if isinstance(band, SingularMatrixError):
            assert type(got) is type(band) is type(full) is SingularMatrixError
            assert str(got) == str(band) == str(full)
            continue
        assert isinstance(full, linalg.LUFactorization)
        for view in (lambda lu: lu, lambda lu: lu.transposed()):
            assert np.array_equal(view(got).solve(rhs), view(band).solve(rhs))
    assert [isinstance(got, SingularMatrixError) for got in stacked] == [False, True, True, True]


band_family_cases = st.fixed_dictionaries({
    "seed": st.integers(0, 2**32 - 1),
    "n": st.integers(3, 40),
    "kl": st.integers(0, 3),
    "ku": st.integers(0, 3),
    "ports": st.integers(1, 3),
    "parametric": st.booleans(),
})


@PROPERTY
@given(case=band_family_cases)
def test_banded_family_stack_is_the_one_point_lu_route_bitwise(case):
    # Q = A0 + 4s I (+ d A2) on a banded pattern, B = B0 + s^2 B1: the
    # stacked pass forms every point's entries at once and factors them by
    # the band LU; each H must be the one lu_factor(Q(p)) gives, to the bit.
    # The stack holds a singular point (s = d = 0), a point where the
    # diagonal entry k cancels exactly (a stored +0 of the family's pattern,
    # so in the band stack too), an overflowing coefficient and an input map
    # that is not finite; points whose input map fails are not factored
    rng = np.random.default_rng(case["seed"])
    n, ports = case["n"], case["ports"]
    _, A0 = _band_matrix(rng, n, case["kl"], case["ku"], dominance=2.0)
    # rows and columns j, j + 1 hold only the block [[1, 1], [1, 1]]: every
    # operation of the elimination on it is exact, so it ends at a zero pivot
    j = int(rng.integers(n - 1))
    A0[[j, j + 1], :] = A0[:, [j, j + 1]] = 0.0
    A0[j : j + 2, j : j + 2] = 1.0
    k = int(rng.integers(n))
    s, d = rg.Monomial(4.0, {"s": 1}), rg.Monomial(1.0, {"d": 1})
    terms = [(s, scipy.sparse.eye_array(n, format="csc"))]
    names = ["s"]
    if case["parametric"]:
        terms.append((d, scipy.sparse.csc_array(np.where(A0 != 0, complex_randn(rng, n, n), 0))))
        names.append("d")
    Q = rg.AffineMatrix((n, n), base=scipy.sparse.csc_array(A0), terms=terms)
    B = rg.AffineMatrix(
        (n, ports),
        base=complex_randn(rng, n, ports),
        terms=[(rg.Monomial(1.0, {"s": 2}), complex_randn(rng, n, ports))],
    )
    sys = rg.ParametricSystem(
        Q, B, rg.AffineMatrix.constant(complex_randn(rng, ports, n)), parameter_names=names
    )
    V = random_orthonormal(rng, n, min(n, 3))
    ws = rg.EstimatorWorkspace.from_bases(sys, "delta1", V, V_du=V)
    extra, off = ({"d": 0.7}, {"d": 0.0}) if case["parametric"] else ({}, {})
    stack = [
        {"s": 0.3 + 0.8j, **extra},
        {"s": 0.0, **off},
        {"s": -A0[k, k] / 4.0, **off},
        {"s": 1e308j, **extra},
        {"s": 1e200j, **extra},
        {"s": -0.5 + 1.1j, **extra},
    ]
    cancelled = sys.Q.assemble(stack[2])
    assert cancelled.nnz == sys.Q.pattern.indices.size and not cancelled.data.all()
    stacks, band_lu_stack = [], linalg.band_lu_stack

    def counting(entries, layout):
        stacks.append(len(entries))
        return band_lu_stack(entries, layout)

    with pytest.MonkeyPatch.context() as patch:
        patch.setattr(linalg, "band_lu_stack", counting)
        with np.errstate(over="ignore", invalid="ignore"):
            for chunk in (None, 1, 2):
                usable = assert_stack_is_one_point_bitwise(
                    sys, ws, stack, reference=one_point_response, chunk_points=chunk
                )
                assert usable == [True, False, usable[2], False, False, True]
        # s^2 overflows in B at the last two extreme points: four points are factored
        stacks.clear()
        sys.transfer_function(stack)
    # a small family whose rows j, j + 1 were cleared may no longer fill half its band
    assert stacks == ([4] if sys.Q.pattern.band is not None else [])


def test_a_point_whose_entry_cancels_is_factored_on_its_family_pattern():
    # the union pattern, a diagonal and entries (0, 2) and (1, 2), fills half
    # its band exactly (2 * 6 = (0 + 2 + 1) * 4): banded. Where s cancels
    # entry (1, 2), the entry stays a stored +0 of that pattern, so the band
    # LU factors that point too, in a stack as in a one-point call
    n = 4
    a0 = np.diag([2.0, 3.0, 4.0, 5.0]).astype(complex)
    a0[0, 2], a0[1, 2] = 0.5, 0.25 - 1j
    at = scipy.sparse.csc_array((np.array([1.0]), ([1], [2])), shape=(n, n))
    Q = rg.AffineMatrix(
        (n, n), base=scipy.sparse.csc_array(a0), terms=[(rg.Monomial(1.0, {"s": 1}), at)]
    )
    B, C = rg.AffineMatrix.constant(np.ones((n, 1))), rg.AffineMatrix.constant(np.ones((1, n)))
    sys = rg.ParametricSystem(Q, B, C)
    stack = [{"s": 1.5j}, {"s": -a0[1, 2]}, {"s": 0.5}]
    ws = rg.EstimatorWorkspace.from_bases(sys, "delta1", np.eye(n)[:, :2], V_du=np.eye(n)[:, :2])
    with kernels_called() as called:
        H = sys.transfer_function(stack)
        sys.operator_lu(stack[1])
    assert called == [("band", 0, 2)] * 4
    assert all(h is not None for h in H)
    assert all(assert_stack_is_one_point_bitwise(sys, ws, stack, reference=one_point_response))


def test_sparse_kernel_follows_the_band_density():
    # tridiagonal: 3n - 2 entries in a band of 3n, the band kernel; the 2-d
    # five-point Laplacian on an 8 x 8 grid: 288 entries in a band of 17 * 64
    # (bandwidths 8), SuperLU
    chain = scipy.sparse.diags_array([-1.0, 2.0, -1.0], offsets=[-1, 0, 1], shape=(8, 8))
    grid = scipy.sparse.kronsum(chain, chain, format="csc")
    tridiagonal = scipy.sparse.diags_array(
        [-1.0, 2.0, -1.0], offsets=[-1, 0, 1], shape=(64, 64), format="csc"
    )
    rhs = complex_randn(np.random.default_rng(0), 64, 2)
    for matrix, kernel in ((tridiagonal, ("band", 1, 1)), (grid, ("superlu",))):
        with kernels_called() as called:
            lu = lu_factor(matrix)
        assert called == [kernel]
        want = np.linalg.solve(matrix.toarray(), rhs)
        assert np.allclose(lu.solve(rhs), want, rtol=0, atol=1e-12 * np.max(np.abs(want)))


def test_a_ladder_reduce_and_validate_never_load_superlu():
    # every ladder operator is tridiagonal, so the band kernel factors all of
    # them and scipy.sparse.linalg, where SuperLU lives, is never imported;
    # the last factorization, of a non-banded operator, does import it
    script = textwrap.dedent(
        """
        import contextlib, io, sys, tempfile
        import scipy.sparse
        from romgrid import lu_factor
        from romgrid.cli import main

        with tempfile.TemporaryDirectory() as run, contextlib.redirect_stdout(io.StringIO()):
            assert main(["reduce", "--synthetic", "rc_ladder:200", "--estimator", "delta2",
                         "--tol", "1e-8", "--true-errors", "on", "--out", run]) == 0
            assert main(["validate", run, "--grid", "f:2e-3:8e0:9:log"]) == 0
        print("scipy.sparse.linalg" in sys.modules)
        lu_factor(scipy.sparse.random_array((30, 30), density=0.5, rng=0) + scipy.sparse.eye_array(30))
        print("scipy.sparse.linalg" in sys.modules)
        """
    )
    env = dict(os.environ, PYTHONPATH=os.pathsep.join([str(SRC), os.environ.get("PYTHONPATH", "")]))
    done = subprocess.run(
        [sys.executable, "-c", script], capture_output=True, text=True, env=env, timeout=120
    )
    assert done.returncode == 0, done.stderr
    assert done.stdout.split() == ["False", "True"]
