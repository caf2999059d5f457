import numpy as np
import pytest

import romgrid as rg
from romgrid.errors import (
    DimensionMismatchError,
    ProjectionMismatchError,
    RomgridError,
    SingularReducedSystemError,
)
from romgrid.linalg import gram_deviation
from romgrid.projection import _check_commutation

import oracles
from conftest import (
    complex_randn,
    dense_at,
    random_orthonormal,
    random_point,
    random_system,
)


def test_basis_empty_and_append(rng):
    b = rg.Basis.empty(10)
    assert b.dim == 0 and b.rows == 10
    grown = b.appended(complex_randn(rng, 10, 3))
    assert grown.dim == 3
    assert gram_deviation(grown.columns) < 1e-10
    # appending dependent directions returns the same object
    again = grown.appended(grown.columns @ complex_randn(rng, 3, 2))
    assert again is grown


def test_basis_append_preserves_leading_columns(rng):
    b = rg.Basis.empty(12).appended(complex_randn(rng, 12, 4))
    grown = b.appended(complex_randn(rng, 12, 2))
    assert np.array_equal(grown.columns[:, :4], b.columns)


@pytest.mark.parametrize("petrov", [False, True])
def test_reduced_transfer_matches_oracle(rng, petrov):
    sys = random_system(rng, 20, n_in=2, n_out=2)
    V = random_orthonormal(rng, 20, 5)
    W = random_orthonormal(rng, 20, 5) if petrov else V
    rom = rg.reduce_system(sys, V, W=W)
    for _ in range(3):
        pt = random_point(rng)
        Q, B, C = dense_at(sys, pt)
        assert np.allclose(
            rom.transfer_function(pt),
            oracles.reduced_transfer(Q, B, C, V, W),
            atol=1e-12,
        )


def test_reduce_accepts_basis_objects(rng):
    sys = random_system(rng, 15)
    V = rg.Basis.empty(15).appended(complex_randn(rng, 15, 4))
    rom = rg.reduce_system(sys, V)
    assert rom.dim == 4
    assert rom.system.order == 4


def test_reduced_system_keeps_affine_structure(rng):
    # projecting termwise means the reduced family assembles anywhere
    sys = random_system(rng, 18)
    V = random_orthonormal(rng, 18, 4)
    rom = rg.reduce_system(sys, V)
    assert rom.system.parameter_names == sys.parameter_names
    pt = random_point(rng)
    Q, _, _ = dense_at(sys, pt)
    assert np.allclose(
        rom.system.Q.assemble(pt), V.T @ Q @ V, atol=1e-12
    )


def test_corrupted_reduced_term_fails_commutation_check(rng):
    # a reduced affine term that no longer matches its full-order term is
    # reported as a romgrid error, not a bare AssertionError
    sys = random_system(rng, 12)
    rom = rg.reduce_system(sys, random_orthonormal(rng, 12, 3))
    _check_commutation(sys, rom)
    _, term = rom.system.Q.terms[0]
    term[0, 0] += 1e-3
    with pytest.raises(ProjectionMismatchError) as err:
        _check_commutation(sys, rom)
    assert isinstance(err.value, RomgridError)
    assert "commutation" in str(err.value)


def test_reduce_rejects_wrong_rows(rng):
    sys = random_system(rng, 10)
    with pytest.raises(DimensionMismatchError):
        rg.reduce_system(sys, random_orthonormal(rng, 11, 3))


def test_reduced_solve_with_and_without_rhs(rng):
    sys = random_system(rng, 16, n_in=2)
    V = random_orthonormal(rng, 16, 6)
    W = random_orthonormal(rng, 16, 6)
    rom = rg.reduce_system(sys, V, W=W)
    pt = random_point(rng)
    Q, B, _ = dense_at(sys, pt)
    _, lifted = rom.solve(pt)
    assert np.allclose(lifted, oracles.lifted_solve(Q, B, V, W), atol=1e-11)
    rhs = complex_randn(rng, 16, 1)
    z, lifted = rom.solve(pt, rhs=rhs)
    assert np.allclose(lifted, oracles.lifted_solve(Q, rhs, V, W), atol=1e-11)
    # an already compressed right-hand side stays in reduced coordinates
    z_reduced, nothing = rom.solve(pt, W.T @ rhs, reduced=True)
    assert nothing is None
    assert np.array_equal(z_reduced, z)
    z_input, nothing = rom.solve(pt, reduced=True)
    assert nothing is None
    assert np.array_equal(z_input, rom.solve(pt)[0])


def test_singular_reduced_operator_raises():
    # diagonal system with orthogonal trial/test pair zeroes the projection
    n = 4
    sys = rg.ParametricSystem(
        rg.AffineMatrix.constant(np.eye(n)),
        rg.AffineMatrix.constant(np.ones((n, 1))),
        rg.AffineMatrix.constant(np.ones((1, n))),
    )
    V = np.zeros((n, 1)); V[0, 0] = 1.0
    W = np.zeros((n, 1)); W[1, 0] = 1.0
    rom = rg.reduce_system(sys, V, W=W)
    with pytest.raises(SingularReducedSystemError):
        rom.solve({})


def test_residual_helpers_match_definitions(rng):
    sys = random_system(rng, 14, n_in=2, n_out=2)
    V = random_orthonormal(rng, 14, 4)
    rom = rg.reduce_system(sys, V)
    pt = random_point(rng)
    Q, B, C = dense_at(sys, pt)
    _, lifted = rom.solve(pt)
    r_pr = oracles.primal_residual(sys, pt, lifted)
    assert np.allclose(r_pr, B - Q @ lifted, atol=1e-12)
    dual = rg.reduce_system(sys.dual(), V)
    _, lifted_du = dual.solve(pt)
    r_du = oracles.dual_residual(sys, pt, lifted_du)
    assert np.allclose(r_du, C.T - Q.T @ lifted_du, atol=1e-12)


def test_interpolation_when_state_is_in_range(rng):
    # if the exact solution lies in the trial space, the reduced transfer
    # reproduces the full one at that sample, whatever the test basis
    sys = random_system(rng, 25)
    pt = random_point(rng)
    x = sys.solve_primal(pt)
    V = np.linalg.qr(np.hstack([x, complex_randn(rng, 25, 2)]))[0]
    for _ in range(3):
        W = random_orthonormal(rng, 25, V.shape[1])
        rom = rg.reduce_system(sys, V, W=W)
        H = sys.transfer_function(pt)
        assert np.allclose(rom.transfer_function(pt), H, atol=1e-10 * max(1.0, np.abs(H).max()))
