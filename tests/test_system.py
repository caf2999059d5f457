import warnings

import numpy as np
import pytest

import romgrid as rg
from romgrid.errors import (
    DimensionMismatchError,
    MissingParameterError,
    SingularAtSampleError,
    ZeroToNegativePowerError,
)

from conftest import bits, complex_randn, dense_at, random_point, random_system


# ---------------------------------------------------------------------------
# monomials


def test_monomial_evaluates_products_of_powers():
    m = rg.Monomial(2.5, {"s": 2, "d": -1})
    assert m({"s": 3.0, "d": 0.5}) == pytest.approx(2.5 * 9.0 / 0.5)
    assert m({"s": 1j, "d": 2.0}) == pytest.approx(2.5 * (1j) ** 2 / 2.0)


def test_monomial_missing_parameter():
    with pytest.raises(MissingParameterError):
        rg.Monomial(1.0, {"s": 1})({"d": 2.0})


def test_monomial_zero_to_negative_power():
    with pytest.raises(ZeroToNegativePowerError):
        rg.Monomial(1.0, {"d": -2})({"d": 0.0})


def test_monomial_constant_and_names():
    assert rg.Monomial(4.0, {}).is_constant
    assert rg.Monomial(4.0, {}).names() == ()
    assert not rg.Monomial(4.0, {"s": 1}).is_constant
    assert rg.Monomial(1.0, {"d": 1, "alpha": 2}).names() == ("alpha", "d")


def test_monomial_derivative():
    m = rg.Monomial(3.0, {"s": 3, "d": 1})
    ds = m.diff("s")
    pt = {"s": 1.7, "d": 0.4}
    assert ds(pt) == pytest.approx(9.0 * 1.7**2 * 0.4)
    assert m.diff("absent") is None
    # derivative in d removes the d factor entirely
    dd = m.diff("d")
    assert dd(pt) == pytest.approx(3.0 * 1.7**3)


# ---------------------------------------------------------------------------
# affine families


def test_affine_assemble_is_hand_sum():
    rng = np.random.default_rng(3)
    base = complex_randn(rng, 4, 4)
    t1 = complex_randn(rng, 4, 4)
    t2 = complex_randn(rng, 4, 4)
    fam = rg.AffineMatrix(
        (4, 4),
        base=base,
        terms=[
            (rg.Monomial(1.0, {"s": 1}), t1),
            (rg.Monomial(-2.0, {"s": 2, "d": 1}), t2),
        ],
    )
    pt = {"s": 0.3 + 1j, "d": 1.5}
    s, d = pt["s"], pt["d"]
    expected = base + s * t1 - 2.0 * s**2 * d * t2
    assert np.allclose(fam.assemble(pt), expected, atol=1e-14)
    assert fam.parameter_names() == ("d", "s")


@pytest.mark.parametrize("shape, terms", [((1, 1), 1), ((1, 1), 3), ((4, 4), 0), ((5, 2), 2)])
@pytest.mark.parametrize("samples", [1, 3])
def test_affine_assemble_stack_is_assemble_bitwise(shape, terms, samples):
    rng = np.random.default_rng(terms + 10 * samples)
    monomials = [rg.Monomial(complex(*rng.standard_normal(2)), {"s": k + 1}) for k in range(terms)]
    fam = rg.AffineMatrix(
        shape,
        base=complex_randn(rng, *shape),
        terms=[(m, complex_randn(rng, *shape)) for m in monomials],
    )
    points = [{"s": complex(*rng.standard_normal(2))} for _ in range(samples)]
    coefficients = np.array([[m(p) for m in monomials] for p in points], dtype=complex)
    stack = fam.assemble_stack(coefficients.reshape(samples, terms))
    assert stack.shape == (samples, *shape)
    for i, point in enumerate(points):
        assert stack[i].flags.f_contiguous
        assert np.array_equal(stack[i], fam.assemble(point))


@pytest.mark.parametrize("terms", [0, 1, 2])
def test_dense_assemble_is_the_one_point_stack(terms):
    # a dense family at one point is the one-row stack, bit for bit, signed
    # zeros and the NaNs of an overflowing coefficient (s**5 at s = 1e70)
    # included; both are the first product, plus the base, plus the rest in
    # order, and neither lets numpy warn
    rng = np.random.default_rng(40 + terms)
    base = complex_randn(rng, 3, 4)
    base[0, :2] = [complex(-0.0, -0.0), complex(-0.0, 0.0)]
    monomials = [rg.Monomial(1.0, {"s": 5}), rg.Monomial(-2.0 + 1j, {"s": 1, "d": -1})][:terms]
    pieces = [complex_randn(rng, 3, 4) for _ in monomials]
    for piece in pieces:
        piece[0, :2] = [complex(-0.0, 0.0), 0.0]
    fam = rg.AffineMatrix((3, 4), base=base, terms=list(zip(monomials, pieces)))
    for point in ({"s": 0.5 - 1j, "d": 2.0}, {"s": 0.0, "d": -1.0}, {"s": 1e70, "d": 0.5}):
        coefficients = fam.coefficients([point])
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            one = fam.assemble(point)
            stack = fam.assemble_stack(coefficients)
        assert one.shape == (3, 4) and one.flags.f_contiguous
        assert np.array_equal(bits(one), bits(stack[0])), point
        with np.errstate(over="ignore", invalid="ignore"):
            want = base if not terms else coefficients[0, 0] * pieces[0] + base
            for c, piece in zip(coefficients[0, 1:], pieces[1:]):
                want = want + c * piece
        assert np.array_equal(bits(one), bits(want)), point
        assert np.isfinite(one).all() == (point["s"] != 1e70 or not terms)


def test_affine_transpose_and_scale_and_plus():
    rng = np.random.default_rng(4)
    a = rg.AffineMatrix.constant(complex_randn(rng, 3, 3))
    b = rg.AffineMatrix.constant(complex_randn(rng, 3, 3))
    pt = {"s": 2.0}
    s_a = a.scaled_by(rg.Monomial(1.0, {"s": 1}))
    combined = s_a.plus(b, factor=-1.0)
    expected = 2.0 * a.assemble(pt) - b.assemble(pt)
    assert np.allclose(combined.assemble(pt), expected, atol=1e-14)
    assert np.allclose(combined.transposed().assemble(pt), expected.T, atol=1e-14)


def test_affine_pieces_and_diff():
    rng = np.random.default_rng(5)
    base = complex_randn(rng, 3, 2)
    t = complex_randn(rng, 3, 2)
    fam = rg.AffineMatrix((3, 2), base=base, terms=[(rg.Monomial(2.0, {"s": 3}), t)])
    pieces = fam.monomial_pieces()
    assert len(pieces) == 2
    assert pieces[0][0].is_constant and np.array_equal(pieces[0][1], base)
    d = fam.diff("s")
    pt = {"s": 1.1}
    assert np.allclose(d.assemble(pt), 6.0 * 1.1**2 * t, atol=1e-13)


def test_affine_constant_accepts_vectors():
    fam = rg.AffineMatrix.constant(np.arange(3.0))
    assert fam.shape == (3, 1)


# ---------------------------------------------------------------------------
# systems


def test_dual_swaps_roles(rng):
    sys = random_system(rng, 12, n_in=2, n_out=3)
    dual = sys.dual()
    pt = random_point(rng)
    Q, B, C = dense_at(sys, pt)
    Qd, Bd, Cd = dense_at(dual, pt)
    assert np.array_equal(Qd, Q.T)
    assert np.array_equal(Bd, C.T)
    assert np.array_equal(Cd, B.T)
    assert dual.n_inputs == 3 and dual.n_outputs == 2
    # dual transfer is the plain transpose of the original
    assert np.allclose(dual.transfer_function(pt), sys.transfer_function(pt).T, atol=1e-12)


def test_dual_is_built_once(rng):
    sys = random_system(rng, 8)
    dual = sys.dual()
    assert sys.dual() is dual
    assert dual.dual() is sys
    assert dual.dual().dual() is dual


def test_solves_match_dense(rng):
    sys = random_system(rng, 15, n_in=2, n_out=2)
    pt = random_point(rng)
    Q, B, C = dense_at(sys, pt)
    x = sys.operator_lu(pt).solve(sys.B.assemble(pt))
    assert np.allclose(x, np.linalg.solve(Q, B), atol=1e-11)
    x_du = sys.operator_lu(pt).transposed().solve(C.T)
    assert np.allclose(x_du, np.linalg.solve(Q.T, C.T), atol=1e-11)
    assert np.allclose(
        sys.transfer_function(pt), C @ np.linalg.solve(Q, B), atol=1e-11
    )


def test_singular_sample_reports_point():
    a = rg.AffineMatrix(
        (2, 2),
        base=-np.eye(2),
        terms=[(rg.Monomial(1.0, {"s": 1}), np.eye(2))],
    )
    sys = rg.ParametricSystem(
        a, rg.AffineMatrix.constant(np.eye(2)), rg.AffineMatrix.constant(np.eye(2))
    )
    with pytest.raises(SingularAtSampleError) as err:
        sys.operator_lu({"s": 1.0})
    assert err.value.point == {"s": 1.0}


def test_first_order_realization():
    rng = np.random.default_rng(8)
    n = 6
    E = complex_randn(rng, n, n) + 3 * np.eye(n)
    A = complex_randn(rng, n, n)
    b = complex_randn(rng, n, 1)
    c = complex_randn(rng, 1, n)
    sys = rg.from_first_order(E, A, b, c)
    s = 0.4 + 0.9j
    assert np.allclose(sys.Q.assemble({"s": s}), s * E - A, atol=1e-14)
    href = c @ np.linalg.solve(s * E - A, b)
    assert np.allclose(sys.transfer_function({"s": s}), href, atol=1e-11)


def test_second_order_realization():
    rng = np.random.default_rng(9)
    n = 5
    M = complex_randn(rng, n, n) + 4 * np.eye(n)
    D = complex_randn(rng, n, n)
    T = complex_randn(rng, n, n) + 4 * np.eye(n)
    b = complex_randn(rng, n, 1)
    c = complex_randn(rng, 1, n)
    sys = rg.from_second_order(M, D, T, b, c)
    s = -0.2 + 1.3j
    assert np.allclose(sys.Q.assemble({"s": s}), s * s * M + s * D + T, atol=1e-13)


def test_mismatched_shapes_rejected():
    q = rg.AffineMatrix.constant(np.eye(3))
    b = rg.AffineMatrix.constant(np.ones((4, 1)))
    c = rg.AffineMatrix.constant(np.ones((1, 3)))
    with pytest.raises(DimensionMismatchError):
        rg.ParametricSystem(q, b, c)


def test_frequency_point_mapping():
    pt = rg.frequency_point(0.5)
    assert pt == {rg.LAPLACE: 2j * np.pi * 0.5}


# ---------------------------------------------------------------------------
# generators, pinned against hand-built matrices and frozen samples


def test_rc_ladder_structure_and_value():
    sys = rg.rc_ladder(6)
    n = 6
    lap = 2.0 * np.eye(n) - np.eye(n, k=1) - np.eye(n, k=-1)
    G = lap
    Cm = np.eye(n) + 0.3 * lap
    b = np.zeros((n, 1))
    b[0, 0] = 1.0
    s = 2j * np.pi * 0.5
    assert np.allclose(sys.Q.assemble({"s": s}).toarray(), s * Cm + G, atol=1e-14)
    got = sys.transfer_function({"s": s})[0, 0]
    assert np.allclose(
        got, (b.T @ np.linalg.solve(s * Cm + G, b))[0, 0], atol=1e-13
    )
    # frozen sample guards against silent drift in the generator
    assert got == pytest.approx(0.06098894180859367 - 0.18236191296761553j, rel=1e-12)
    # the operator family is symmetric with matching ports
    Q = sys.Q.assemble({"s": 1.0 + 0.5j}).toarray()
    assert np.array_equal(Q, Q.T)
    assert np.array_equal(sys.B.assemble({}), sys.C.assemble({}).T)


def test_random_stable_is_stable_and_frozen():
    sys = rg.random_stable(12, seed=5)
    # eigenvalues of the drift matrix sit strictly in the left half plane
    A = -sys.Q.assemble({"s": 0.0})
    assert np.max(np.linalg.eigvals(A).real) < 0
    got = sys.transfer_function({"s": 1j})[0, 0]
    assert got == pytest.approx(-0.7086450586003306 - 0.2880310002130368j, rel=1e-12)
    # reproducible: same seed, same system
    again = rg.random_stable(12, seed=5)
    assert np.array_equal(A, -again.Q.assemble({"s": 0.0}))


def test_symmetric_second_order_structure_and_frozen():
    sys = rg.symmetric_second_order(8, seed=2)
    assert sys.is_parametric
    assert sys.parameter_names == ("alpha", "beta", "d", "s")
    pt = {"s": -0.1 + 2.0j, "d": 1.5, "alpha": 0.02, "beta": 0.05}
    Q = sys.Q.assemble(pt)
    assert np.allclose(Q, Q.T, atol=0)
    assert np.array_equal(sys.B.assemble(pt), sys.C.assemble(pt).T)
    got = sys.transfer_function(pt)[0, 0]
    assert got == pytest.approx(-0.520535618619165 + 0.04147126812252905j, rel=1e-12)


def test_mimo_block_shapes_and_frozen():
    sys = rg.mimo_block(10, ports=2, seed=3)
    assert sys.n_inputs == 2 and sys.n_outputs == 2
    H = sys.transfer_function({"s": 2j})
    assert H.shape == (2, 2)
    assert H[0, 0] == pytest.approx(-0.9835950577052425 + 0.8476093994218109j, rel=1e-12)
    assert H[1, 1] == pytest.approx(0.2606136119082048 - 0.631828919636368j, rel=1e-12)


def test_a_greedy_run_scans_each_family_base_at_most_once(monkeypatch):
    # families are not modified after construction, so whether the base is
    # nonzero is read once per family, however often its pieces are listed
    families, scans = [], []
    init, any_ = rg.AffineMatrix.__init__, np.any

    def spy_init(family, *args, **kwargs):
        init(family, *args, **kwargs)
        families.append(family)

    def spy_any(a, *args, **kwargs):
        scans.append(a)  # held, so no id is reused while the run lasts
        return any_(a, *args, **kwargs)

    monkeypatch.setattr(rg.AffineMatrix, "__init__", spy_init)
    monkeypatch.setattr(np, "any", spy_any)
    sys = rg.mimo_block(60, 2)
    config = rg.GreedyConfig(kind="delta3pr", training_set=rg.parse_grid("f:1e-2:1e1:20:log"))
    rg.run_greedy(sys, config)
    monkeypatch.undo()
    bases = {id(family.base.data if family.is_sparse else family.base) for family in families}
    scanned = [id(a) for a in scans if id(a) in bases]
    assert scanned and len(scanned) == len(set(scanned))


def test_generate_synthetic_parses_specs():
    direct = rg.rc_ladder(8)
    parsed = rg.generate_synthetic("rc_ladder:8")
    pt = {"s": 1.0 + 1.0j}
    assert np.array_equal(direct.Q.assemble(pt).toarray(), parsed.Q.assemble(pt).toarray())
    seeded = rg.generate_synthetic("random_stable:12", seed=7)
    ref = rg.random_stable(12, seed=7)
    assert np.array_equal(seeded.Q.assemble(pt), ref.Q.assemble(pt))
    with pytest.raises(ValueError):
        rg.generate_synthetic("unknown_generator:4")
