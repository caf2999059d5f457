"""The sparse full-order backend against the dense one.

Every random family is built twice from the same matrices: once with
``scipy.sparse`` operator pieces, once with dense ones. The storage picks
the LU kernel (SuperLU or LAPACK), so the two twins run every full-order
step on different code, and every result must agree to roundoff.
"""

import numpy as np
import pytest
import scipy.sparse
from hypothesis import HealthCheck, given, settings
from hypothesis import strategies as st

import romgrid as rg
from romgrid.errors import SingularMatrixError
from romgrid.linalg import SparseOperator, lu_factor

from conftest import complex_randn, full_workspace, random_orthonormal

KINDS = ["delta_r", "delta1", "delta1pr", "delta2", "delta2pr", "delta3", "delta3pr"]
BASIS_KEYS = ("V", "V_du", "V_rdu", "V_rpr", "V_rrpr")

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
    if case["ports"] == 1:
        got = vars(rg.sensitivity_report(sparse, ws_s, point))
        want = vars(rg.sensitivity_report(dense, ws_d, point))
        tol = 1e-10 * max(want.values())
        for name, value in got.items():
            assert value == pytest.approx(want[name], abs=tol), name

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


def test_family_storage_follows_its_pieces():
    n = 5
    sparse = scipy.sparse.eye_array(n, format="csc")
    s = rg.Monomial(1.0, {"s": 1})
    family = rg.AffineMatrix((n, n), base=sparse, terms=[(s, 2 * sparse)])
    assert family.is_sparse and all(m.dtype == np.float64 for m in family.pieces())
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
