import numpy as np
import pytest

import romgrid as rg
from romgrid import moments

import oracles
from conftest import complex_randn, random_orthonormal, random_system


def test_krylov_block_levels_are_resolvent_directions(rng):
    # hand-checkable: level 0 solves against B, level k multiplies by Q^{-1}E
    sys = random_system(rng, 10, n_in=2)
    s0 = 0.4 + 1.1j
    Q = sys.Q.assemble({"s": s0})
    E = sys.Q.diff(rg.LAPLACE).assemble({"s": s0})
    B = sys.B.assemble({"s": s0})
    lvl0 = np.linalg.solve(Q, B)
    lvl1 = np.linalg.solve(Q, E @ lvl0)
    lvl2 = np.linalg.solve(Q, E @ lvl1)
    block = rg.krylov_block(sys, s0, 3)
    assert block.shape == (10, 6)
    assert np.allclose(block, np.hstack([lvl0, lvl1, lvl2]), atol=1e-12)


def test_krylov_block_validates_and_caps(rng, monkeypatch):
    sys = random_system(rng, 10)
    with pytest.raises(ValueError):
        rg.krylov_block(sys, 1.0j, 0)
    assert rg.krylov_block(sys, 1.0j, 200).shape[1] <= moments.MAX_BLOCK_COLUMNS
    monkeypatch.setattr(moments, "MAX_BLOCK_COLUMNS", 7)
    capped = rg.krylov_block(sys, 1.0j, 50)
    assert capped.shape == (10, 7)


def test_dual_krylov_block_is_transposed_family(rng):
    # on the dual system, level 0 solves Q^T against C^T and level 1
    # multiplies by Q^{-T} E^T
    sys = random_system(rng, 12, n_out=2)
    s0 = 0.8j
    Q = sys.Q.assemble({"s": s0})
    E = sys.Q.diff(rg.LAPLACE).assemble({"s": s0})
    C = sys.C.assemble({"s": s0})
    lvl0 = np.linalg.solve(Q.T, C.T)
    lvl1 = np.linalg.solve(Q.T, E.T @ lvl0)
    got = rg.krylov_block(sys.dual(), s0, 2)
    assert got.shape == (12, 4)  # dual inherits n_out columns per level
    assert np.allclose(got, np.hstack([lvl0, lvl1]), atol=1e-12)


def test_one_sided_moment_matching(rng):
    # V spanning q resolvent levels pins the first q Taylor coefficients,
    # for any test basis
    n, q = 40, 3
    sys = random_system(rng, n)
    s0 = 0.6 + 0.8j
    V = np.linalg.qr(rg.krylov_block(sys, s0, q))[0]
    W = random_orthonormal(rng, n, V.shape[1])
    rom = rg.reduce_system(sys, V, W=W)
    cf = oracles.taylor_coefficients(
        lambda z: sys.transfer_function({"s": z})[0, 0], s0, q, radius=0.2
    )
    cr = oracles.taylor_coefficients(
        lambda z: rom.transfer_function({"s": z})[0, 0], s0, q, radius=0.2
    )
    for a, b in zip(cf, cr):
        assert abs(a - b) <= 1e-10 * max(1.0, abs(a))


def test_two_sided_moment_matching(rng):
    # dual-side test basis doubles the matched count to 2q
    n, q = 40, 3
    sys = random_system(rng, n)
    s0 = 0.6 + 0.8j
    V = np.linalg.qr(rg.krylov_block(sys, s0, q))[0]
    W = np.linalg.qr(rg.krylov_block(sys.dual(), s0, q))[0]
    rom = rg.reduce_system(sys, V, W=W)
    cf = oracles.taylor_coefficients(
        lambda z: sys.transfer_function({"s": z})[0, 0], s0, 2 * q, radius=0.2
    )
    cr = oracles.taylor_coefficients(
        lambda z: rom.transfer_function({"s": z})[0, 0], s0, 2 * q, radius=0.2
    )
    for a, b in zip(cf, cr):
        assert abs(a - b) <= 1e-8 * max(1.0, abs(a))


def _toy_parametric(rng, n):
    q0 = np.eye(n) + 0.3 * complex_randn(rng, n, n) / np.sqrt(n)
    q1 = 0.2 * complex_randn(rng, n, n) / np.sqrt(n)
    q2 = 0.2 * complex_randn(rng, n, n) / np.sqrt(n)
    b0 = complex_randn(rng, n, 1)
    b1 = complex_randn(rng, n, 1)
    Q = rg.AffineMatrix(
        (n, n),
        base=q0,
        terms=[
            (rg.Monomial(1.0, {"s": 1}), q1),
            (rg.Monomial(1.0, {"d": 1}), q2),
        ],
    )
    B = rg.AffineMatrix(
        (n, 1), base=b0, terms=[(rg.Monomial(1.0, {"d": 1}), b1)]
    )
    C = rg.AffineMatrix.constant(complex_randn(rng, 1, n))
    return rg.ParametricSystem(Q, B, C)


def test_multimoment_block_levels(rng):
    sys = _toy_parametric(rng, 12)
    pt = {"s": 0.5 + 0.7j, "d": 1.2}
    Q = sys.Q.assemble(pt)
    pieces = [m for _, m in sys.B.monomial_pieces()]
    lvl0 = np.linalg.solve(Q, np.hstack(pieces))
    terms = [m for _, m in sys.Q.terms]
    lvl1 = np.hstack([-np.linalg.solve(Q, t @ lvl0) for t in terms])
    got0 = rg.multimoment_block(sys, pt, 0)
    got1 = rg.multimoment_block(sys, pt, 1)
    assert np.allclose(got0, lvl0, atol=1e-12)
    assert np.allclose(got1, np.hstack([lvl0, lvl1]), atol=1e-12)
    with pytest.raises(ValueError):
        rg.multimoment_block(sys, pt, -1)


def test_multimoment_cap_truncates_levels(rng, monkeypatch):
    monkeypatch.setattr(moments, "MAX_BLOCK_COLUMNS", 9)
    sys = _toy_parametric(rng, 12)
    pt = {"s": 0.5 + 0.7j, "d": 1.2}
    block = rg.multimoment_block(sys, pt, 5)
    assert block.shape == (12, 9)


def test_multimoment_interpolates_value_and_parameter_slopes(rng):
    # q=1 block reproduces the transfer function and all its first
    # parameter derivatives at the expansion point
    sys = _toy_parametric(rng, 30)
    pt = {"s": 0.5 + 0.7j, "d": 1.2}
    V = np.linalg.qr(rg.multimoment_block(sys, pt, 1))[0]
    rom = rg.reduce_system(sys, V)

    for name in ("s", "d"):
        def full(z, name=name):
            moved = dict(pt); moved[name] = z
            return sys.transfer_function(moved)[0, 0]

        def red(z, name=name):
            moved = dict(pt); moved[name] = z
            return rom.transfer_function(moved)[0, 0]

        cf = oracles.taylor_coefficients(full, pt[name], 2, radius=0.1)
        cr = oracles.taylor_coefficients(red, pt[name], 2, radius=0.1)
        for a, b in zip(cf, cr):
            assert abs(a - b) <= 1e-9 * max(1.0, abs(a))


def test_expansion_block_dispatch(rng):
    freq = random_system(rng, 10)
    par = _toy_parametric(rng, 10)
    pt = {"s": 1.0j}
    assert np.array_equal(
        rg.expansion_block(freq, pt, 2), rg.krylov_block(freq, 1.0j, 2)
    )
    ppt = {"s": 0.5j, "d": 1.0}
    assert np.array_equal(
        rg.expansion_block(par, ppt, 1), rg.multimoment_block(par, ppt, 1)
    )
    assert np.array_equal(
        rg.expansion_block(freq.dual(), pt, 2), rg.krylov_block(freq.dual(), 1.0j, 2)
    )
    assert np.array_equal(
        rg.expansion_block(par.dual(), ppt, 1), rg.multimoment_block(par.dual(), ppt, 1)
    )
    with pytest.raises(ValueError):
        rg.expansion_block(freq, pt, 0)
    with pytest.raises(ValueError):
        rg.expansion_block(par, ppt, -1)


def test_a_ladder_run_builds_one_derivative_family_per_side(monkeypatch):
    # every Krylov block reads Q's s-derivative; the family (and the sparse
    # pattern it assembles on) is built once per side, not once per block
    returned = []
    original = rg.AffineMatrix.diff

    def spy(self, name):
        family = original(self, name)
        returned.append(family)
        return family

    monkeypatch.setattr(rg.AffineMatrix, "diff", spy)
    sys = rg.rc_ladder(300)
    cfg = rg.GreedyConfig(
        kind="delta2", training_set=rg.parse_grid("f:1e-3:1e1:40:log"), tolerance=1e-8
    )
    rg.run_greedy(sys, cfg)
    assert len(returned) > 2
    built = {id(family): family for family in returned}
    assert len(built) == 2
    assert set(built) == {id(sys.Q.diff("s")), id(sys.dual().Q.diff("s"))}
