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
from romgrid.projection import ProjectionState, check_reduction

import oracles
from conftest import (
    bits,
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
    check_reduction(sys, rom)
    _, term = rom.system.Q.terms[0]
    term[0, 0] += 1e-3
    with pytest.raises(ProjectionMismatchError) as err:
        check_reduction(sys, rom)
    assert isinstance(err.value, RomgridError)
    assert "commutation" in str(err.value)


@pytest.mark.parametrize("letter", "QBC")
@pytest.mark.parametrize("scale", [1e-9, 1e-6, 1.0, 1e6])
def test_the_reduction_check_is_scale_free(rng, scale, letter):
    # the tolerance follows the size of the full side: a fresh reduction
    # passes reduce_system's own check, and with the operator scaled by 1e-9
    # a reduced piece off by 1e-6 of itself is refused too, W^T B included
    sys = rg.mimo_block(60, 2)
    Q = sys.Q.map_matrices(lambda m: scale * m)
    scaled = rg.ParametricSystem(Q, sys.B, sys.C, parameter_names=sys.parameter_names)
    rom = rg.reduce_system(scaled, random_orthonormal(rng, 60, 6))
    getattr(rom.system, letter).monomial_pieces()[0][1][...] *= 1 + 1e-6
    with pytest.raises(ProjectionMismatchError, match=f"{letter}_r"):
        check_reduction(scaled, rom)


@pytest.mark.parametrize("letter", "QBC")
@pytest.mark.parametrize("scale", [1e-9, 1e6])
def test_the_reduction_check_follows_the_test_basis_scale(rng, scale, letter):
    # a Petrov-Galerkin W is taken as given, orthonormal or not, and the bound
    # of |W^T| |y| grows with its longest column: with W scaled by 1e6 a
    # fresh reduction passes reduce_system's own check, and with W scaled by
    # 1e-9 a reduced piece off by 1e-6 of itself is still refused
    sys = rg.mimo_block(60, 2)
    V, W = random_orthonormal(rng, 60, 6), scale * random_orthonormal(rng, 60, 6)
    rom = rg.reduce_system(sys, V, W)
    assert rom.W.column_norm == pytest.approx(scale)
    getattr(rom.system, letter).monomial_pieces()[0][1][...] *= 1 + 1e-6
    with pytest.raises(ProjectionMismatchError, match=f"{letter}_r"):
        check_reduction(sys, rom)


def test_an_output_map_orthogonal_to_the_trial_basis_is_accepted(rng):
    # both sides of the C_r check are then roundoff: the rule measures their
    # deviation against |C| |V v|, the magnitudes the sum adds up, not |C V v|
    sys = random_system(rng, 40)
    V = random_orthonormal(rng, 40, 5)
    c = sys.C.base - (sys.C.base @ V) @ V.conj().T
    orthogonal = rg.ParametricSystem(sys.Q, sys.B, rg.AffineMatrix.constant(c))
    assert np.abs(c @ V).max() < 1e-14
    rom = rg.reduce_system(orthogonal, V)
    assert np.abs(rom.transfer_function(random_point(rng))).max() < 1e-13


def test_a_dual_probes_with_its_primal_operator_transposed():
    # one assembly of Q at the probe point serves a system and its dual
    sys = rg.mimo_block(60, 2)
    calls = []
    assemble = rg.AffineMatrix.assemble

    def spy(family, point):
        calls.append((family, point))
        return assemble(family, point)

    config = rg.GreedyConfig(kind="delta2", training_set=rg.parse_grid(["f:1e-2:1e1:8:log"]),
                             tolerance=1e-8, record_true_errors=False)
    with pytest.MonkeyPatch.context() as mp:
        mp.setattr(rg.AffineMatrix, "assemble", spy)
        rg.run_greedy(sys, config)
    point, probe, *_ = sys._probe
    full_order = (sys.Q, sys.dual().Q)
    assert [f for f, p in calls if p == point and any(f is q for q in full_order)] == [sys.Q]
    assert np.shares_memory(sys.dual()._probe[1], probe)


@pytest.mark.parametrize("base", [True, False])
def test_reduced_operator_pieces_are_fortran_ordered_and_assemble_as_c_ordered(rng, base):
    # LAPACK's layout changes no bit: each piece only scales and adds
    # entrywise, so a C-ordered copy of the family assembles to the same
    # stack, one point or many (without a base, the reduced family has none either)
    sys = random_system(rng, 16)
    if not base:
        sys = rg.ParametricSystem(
            rg.AffineMatrix(sys.Q.shape, terms=list(sys.Q.terms)
                            + [(rg.Monomial(1.0, {"s": 2}), 0.1 * np.eye(16))]),
            sys.B, sys.C,
        )
    state = ProjectionState(sys)
    V = rg.Basis.empty(16)
    for width in (3, 2, 4):
        V = V.appended(complex_randn(rng, 16, width))
        Q = rg.reduce_system(sys, V, state=state).system.Q
        assert all(piece.flags.f_contiguous for _, piece in Q.monomial_pieces())
        assert len(Q.terms) == len(sys.Q.terms)
        copy = Q.map_matrices(np.ascontiguousarray)
        assert not any(piece.flags.f_contiguous for _, piece in copy.monomial_pieces())
        for m in (1, 2, 7):
            coefficients = Q.coefficients([random_point(rng) for _ in range(m)])
            assert np.array_equal(
                bits(Q.assemble_stack(coefficients)), bits(copy.assemble_stack(coefficients))
            )
        point = random_point(rng)
        assert np.array_equal(bits(Q.assemble(point)), bits(copy.assemble(point)))


@pytest.mark.parametrize("narrower", ["V", "W"])
def test_projection_state_rejects_narrower_bases(rng, narrower):
    sys = random_system(rng, 12)
    V = rg.Basis(random_orthonormal(rng, 12, 3))
    W = rg.Basis(random_orthonormal(rng, 12, 3))
    state = ProjectionState(sys)
    rg.reduce_system(sys, V, W, state=state)
    bases = {"V": V, "W": W}
    bases[narrower] = rg.Basis(bases[narrower].columns[:, :2])
    with pytest.raises(ValueError, match="at least as wide"):
        rg.reduce_system(sys, bases["V"], bases["W"], state=state)


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
    assert np.allclose(V @ rom.solve(pt), oracles.lifted_solve(Q, B, V, W), atol=1e-11)


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
    lifted = V @ rom.solve(pt)
    r_pr = oracles.primal_residual(sys, pt, lifted)
    assert np.allclose(r_pr, B - Q @ lifted, atol=1e-12)
    dual = rg.reduce_system(sys.dual(), V)
    lifted_du = V @ dual.solve(pt)
    r_du = oracles.dual_residual(sys, pt, lifted_du)
    assert np.allclose(r_du, C.T - Q.T @ lifted_du, atol=1e-12)


def test_interpolation_when_state_is_in_range(rng):
    # if the exact solution lies in the trial space, the reduced transfer
    # reproduces the full one at that sample, whatever the test basis
    sys = random_system(rng, 25)
    pt = random_point(rng)
    x = sys.operator_lu(pt).solve(sys.B.assemble(pt))
    V = np.linalg.qr(np.hstack([x, complex_randn(rng, 25, 2)]))[0]
    for _ in range(3):
        W = random_orthonormal(rng, 25, V.shape[1])
        rom = rg.reduce_system(sys, V, W=W)
        H = sys.transfer_function(pt)
        assert np.allclose(rom.transfer_function(pt), H, atol=1e-10 * max(1.0, np.abs(H).max()))
