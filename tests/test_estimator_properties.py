"""Property tests: the online estimators against the full-order oracle chains.

``evaluate`` works on reduced quantities only (projections of the affine
pieces made once per workspace); ``oracles`` assembles the dense operator
and forms every residual in full. Hypothesis draws the system family,
port count, basis dimensions, Galerkin or Petrov-Galerkin test bases and
the sample point; every kind must agree with its chain. The last two
properties hold ``evaluate`` on a list of points to exactly what it gives
one point at a time, whatever else the list holds.
"""

from unittest import mock

import numpy as np
import pytest
from hypothesis import HealthCheck, given, settings
from hypothesis import strategies as st

import romgrid as rg
from romgrid.errors import SingularReducedSystemError
from romgrid import linalg
from romgrid.estimators import ESTIMATORS, PRIMAL

import oracles
from conftest import complex_randn, dense_at, full_workspace, random_orthonormal

KINDS = ["delta_r", "delta1", "delta1pr", "delta2", "delta2pr", "delta3", "delta3pr"]
BASIS_KEYS = ("V", "V_du", "V_rdu", "V_rpr", "V_rrpr")
_EPS = np.finfo(np.float64).eps

PROPERTY = settings(
    max_examples=30,
    deadline=None,
    derandomize=True,
    database=None,
    suppress_health_check=[HealthCheck.too_slow],
)


def affine_system(rng, n, ports, parametric):
    """Well-conditioned family: identity plus small affine pieces.

    Frequency-only: ``Q = Q0 + s Q1`` with constant B and C. Parametric:
    ``Q = Q0 + s Q1 + d Q2 + s d^-1 Q3``, ``B = B0 + d B1`` and ``C = C0 +
    s C1``, so input and output pieces carry coefficients too.
    """

    def small(scale):
        return scale * complex_randn(rng, n, n) / np.sqrt(n)

    s = rg.Monomial(1.0, {"s": 1})
    Q_terms = [(s, small(0.2))]
    B_terms, C_terms = [], []
    names = ["s"]
    if parametric:
        d = rg.Monomial(1.0, {"d": 1})
        Q_terms += [(d, small(0.15)), (rg.Monomial(1.0, {"s": 1, "d": -1}), small(0.1))]
        B_terms = [(d, complex_randn(rng, n, ports))]
        C_terms = [(s, complex_randn(rng, ports, n))]
        names.append("d")
    Q = rg.AffineMatrix((n, n), base=np.eye(n) + small(0.35), terms=Q_terms)
    B = rg.AffineMatrix((n, ports), base=complex_randn(rng, n, ports), terms=B_terms)
    C = rg.AffineMatrix((ports, n), base=complex_randn(rng, ports, n), terms=C_terms)
    return rg.ParametricSystem(Q, B, C, parameter_names=names)


def sample_point(rng, parametric):
    point = {"s": (0.5 + rng.uniform()) * np.exp(2j * np.pi * rng.uniform())}
    if parametric:
        point["d"] = complex(0.6 + 0.8 * rng.uniform(), 0.3 * rng.standard_normal())
    return point


def draw_bases(rng, n, petrov, first=None):
    """Random orthonormal bases; ``first`` maps keys to columns they must contain."""
    out = {}
    for key in BASIS_KEYS:
        k = int(rng.integers(1, 6))
        extra = complex_randn(rng, n, k)
        if first and key in first:
            extra = np.hstack([first[key], extra])
        out[key] = np.linalg.qr(extra)[0]
        out["W" + key[1:]] = random_orthonormal(rng, n, out[key].shape[1]) if petrov else out[key]
    return out


def oracle_parts(kind, Q, B, C, bases, xi):
    if kind == "delta_r":
        return oracles.parts_delta_r(Q, B, C, bases, xi)
    return oracles.PART_FUNCS[kind](Q, B, C, bases)


cases = st.fixed_dictionaries({
    "seed": st.integers(0, 2**32 - 1),
    "n": st.integers(16, 40),
    "ports": st.integers(1, 3),
    "parametric": st.booleans(),
    "petrov": st.booleans(),
})


@PROPERTY
@given(case=cases, kind=st.sampled_from(KINDS))
def test_online_evaluate_matches_oracle_chains(case, kind):
    rng = np.random.default_rng(case["seed"])
    sys = affine_system(rng, case["n"], case["ports"], case["parametric"])
    bases = draw_bases(rng, case["n"], case["petrov"])
    point = sample_point(rng, case["parametric"])
    ws = full_workspace(sys, kind, bases)
    got = rg.evaluate(rg.EstimatorKind.from_name(kind), ws, sys, point, rng_seed=case["seed"] % 97)

    Q, B, C = dense_at(sys, point)
    xi = np.random.default_rng(case["seed"] % 97).standard_normal(20)
    p1, p2 = oracle_parts(kind, Q, B, C, bases, xi)
    scale = max(np.max(p1), 0.0 if p2 is None else np.max(p2))
    tol = 1e-10 * scale
    assert got.part1 == pytest.approx(np.max(p1), abs=tol)
    assert got.part2 == pytest.approx(0.0 if p2 is None else np.max(p2), abs=tol)
    assert got.total == pytest.approx(np.max(p1 if p2 is None else p1 + p2), abs=tol)
    norms = oracles.residual_norms(Q, B, C, bases)
    for name, value in got.aux.items():
        assert value == pytest.approx(norms[name], rel=1e-10), name


@PROPERTY
@given(case=cases)
def test_residual_norms_near_convergence(case):
    # bases that contain the exact primal and dual solutions at the sample:
    # every residual is roundoff, and the reduced norms must stay at that
    # level instead of the sqrt(eps) floor of a Gram-matrix form
    rng = np.random.default_rng(case["seed"])
    n = case["n"]
    sys = affine_system(rng, n, case["ports"], case["parametric"])
    point = sample_point(rng, case["parametric"])
    Q, B, C = dense_at(sys, point)
    x_pr = np.linalg.solve(Q, B)
    x_du = np.linalg.solve(Q.T, C.T)
    bases = draw_bases(rng, n, False, first={"V": x_pr, "V_du": x_du, "V_rpr": x_pr})
    got = {}
    for kind in ("delta1", "delta1pr"):
        ws = full_workspace(sys, kind, bases)
        got.update(rg.evaluate(rg.EstimatorKind.from_name(kind), ws, sys, point).aux)
    norms = oracles.residual_norms(Q, B, C, bases)
    floor = 1e3 * n * _EPS * max(np.linalg.norm(B, 2), np.linalg.norm(C, 2))
    for name in ("r_pr_norm", "r_du_norm", "r_rpr_norm"):
        assert abs(got[name] - norms[name]) <= floor, name
        assert got[name] <= floor, name


def test_workspace_evaluated_against_two_systems(rng):
    # system b differs from a only off the span of every basis: both give
    # the same reduced models, but different full-order residuals. Each
    # evaluation must answer for the system it is given, in any order.
    n, ports = 30, 2
    sys_a = affine_system(rng, n, ports, parametric=True)
    bases = draw_bases(rng, n, False)
    U = np.linalg.qr(np.hstack([bases[key] for key in BASIS_KEYS]))[0]
    left = np.eye(n) - U.conj() @ U.T  # W^T left = 0 for W in span(U)
    right = np.eye(n) - U @ U.conj().T  # right V = 0 for V in span(U)
    sys_b = rg.ParametricSystem(
        rg.AffineMatrix((n, n), base=sys_a.Q.base + left @ complex_randn(rng, n, n) @ right,
                        terms=sys_a.Q.terms),
        rg.AffineMatrix((n, ports), base=sys_a.B.base + left @ complex_randn(rng, n, ports),
                        terms=sys_a.B.terms),
        rg.AffineMatrix((ports, n), base=sys_a.C.base + complex_randn(rng, ports, n) @ right,
                        terms=sys_a.C.terms),
        parameter_names=sys_a.parameter_names,
    )
    point = sample_point(rng, True)
    for kind in KINDS[1:]:
        ws = full_workspace(sys_a, kind, bases)
        answers = {}
        for label, system in (("a", sys_a), ("b", sys_b), ("a", sys_a), ("b", sys_b)):
            got = rg.evaluate(rg.EstimatorKind.from_name(kind), ws, system, point)
            Q, B, C = dense_at(system, point)
            p1, p2 = oracle_parts(kind, Q, B, C, bases, None)
            total = np.max(p1 if p2 is None else p1 + p2)
            assert got.total == pytest.approx(total, rel=1e-10), (kind, label)
            norms = oracles.residual_norms(Q, B, C, bases)
            for name, value in got.aux.items():
                assert value == pytest.approx(norms[name], rel=1e-10), (kind, label, name)
            answers[label] = got.aux["r_pr_norm"]
        assert abs(answers["a"] - answers["b"]) > 1e-3 * answers["a"], kind


@pytest.mark.parametrize("petrov", [False, True])
def test_tiny_pieces_with_huge_coefficients(rng, petrov):
    # every s-piece is 1e-14 of its family's base but is evaluated at
    # |s| = 1e14, so its term is as large as the base's: no piece may be
    # cut from the factorization of a residual for being small beside another
    n, ports, tiny = 24, 2, 1e-14
    s, d = rg.Monomial(1.0, {"s": 1}), rg.Monomial(1.0, {"d": 1})

    def small(*shape):
        return 0.2 * complex_randn(rng, *shape) / np.sqrt(n)

    sys = rg.ParametricSystem(
        rg.AffineMatrix((n, n), base=np.eye(n) + small(n, n),
                        terms=[(s, tiny * small(n, n)), (d, small(n, n))]),
        rg.AffineMatrix((n, ports), base=complex_randn(rng, n, ports),
                        terms=[(s, tiny * complex_randn(rng, n, ports))]),
        rg.AffineMatrix((ports, n), base=complex_randn(rng, ports, n),
                        terms=[(s, tiny * complex_randn(rng, ports, n))]),
        parameter_names=["s", "d"],
    )
    point = {"s": 1.5e14 * np.exp(0.7j), "d": 0.8 + 0.1j}
    bases = draw_bases(rng, n, petrov)
    Q, B, C = dense_at(sys, point)
    norms = oracles.residual_norms(Q, B, C, bases)
    for kind in KINDS:
        ws = full_workspace(sys, kind, bases)
        got = rg.evaluate(rg.EstimatorKind.from_name(kind), ws, sys, point, rng_seed=3)
        xi = np.random.default_rng(3).standard_normal(20)
        p1, p2 = oracle_parts(kind, Q, B, C, bases, xi)
        total = np.max(p1 if p2 is None else p1 + p2)
        assert got.total == pytest.approx(total, rel=1e-10), kind
        for name, value in got.aux.items():
            assert value == pytest.approx(norms[name], rel=1e-10), (kind, name)


def passes_of(chunk, kind, ws):
    """Patch ``evaluate``'s byte budget so that each pass on ``ws`` takes ``chunk`` samples."""
    models = (PRIMAL,) + ESTIMATORS[rg.EstimatorKind.from_name(kind)].models
    largest = max(getattr(ws, model.field).dim for model in models)
    return mock.patch.object(linalg, "_CHUNK_BYTES", chunk * 16 * largest**2)


def one_at_a_time(kind, ws, sys, points, seed):
    """``evaluate`` at each point on its own, None where it raises."""
    out = []
    for point in points:
        try:
            out.append(rg.evaluate(kind, ws, sys, point, rng_seed=seed))
        except SingularReducedSystemError:
            out.append(None)
    return out


def assert_batch_independent(kind, ws, sys, points, seed, rng):
    """Whole, shuffled and sliced lists give each point's own breakdown, field by field."""
    single = one_at_a_time(kind, ws, sys, points, seed)
    assert rg.evaluate(kind, ws, sys, points, rng_seed=seed) == single
    order = rng.permutation(len(points))
    shuffled = rg.evaluate(kind, ws, sys, [points[i] for i in order], rng_seed=seed)
    assert shuffled == [single[i] for i in order]
    lo, hi = sorted(int(i) for i in rng.integers(0, len(points) + 1, size=2))
    assert rg.evaluate(kind, ws, sys, points[lo:hi], rng_seed=seed) == single[lo:hi]
    return single


@PROPERTY
@given(
    case=cases,
    kind=st.sampled_from(KINDS),
    chunk=st.integers(1, 16),
    count=st.integers(1, 2 * 16 + 3),
)
def test_batch_evaluation_matches_one_point_at_a_time(case, kind, chunk, count):
    rng = np.random.default_rng(case["seed"])
    sys = affine_system(rng, case["n"], case["ports"], case["parametric"])
    bases = draw_bases(rng, case["n"], case["petrov"])
    ws = full_workspace(sys, kind, bases)
    points = [sample_point(rng, case["parametric"]) for _ in range(count)]
    for index in rng.choice(count, size=count // 8, replace=False):
        points[index] = dict(points[index], s=1.5e308j)
    with passes_of(chunk, kind, ws):
        assert_batch_independent(kind, ws, sys, points, case["seed"] % 97, rng)


def resonant_system(n, ports, rng):
    """``2 s I - diag(1..n)``: on coordinate bases each reduced operator is
    ``diag(2 s - k)`` over the basis's indices k, singular exactly at s = k/2,
    and ``2 s`` overflows at ``s = 1.5e308j``."""
    b = rng.standard_normal((n, ports))
    return rg.from_first_order(2.0 * np.eye(n), np.diag(np.arange(1.0, n + 1.0)), b, b.T)


@PROPERTY
@given(
    seed=st.integers(0, 2**32 - 1),
    ports=st.integers(1, 3),
    kind=st.sampled_from(KINDS),
    chunk=st.integers(1, 16),
    count=st.integers(1, 2 * 16 + 3),
)
def test_singular_and_nonfinite_samples_are_none_in_place(seed, ports, kind, chunk, count):
    rng = np.random.default_rng(seed)
    n = 12
    sys = resonant_system(n, ports, rng)
    indices = {key: rng.choice(n, int(rng.integers(1, 5)), replace=False) for key in BASIS_KEYS}
    bases = {key: np.eye(n)[:, chosen] for key, chosen in indices.items()}
    ws = full_workspace(sys, kind, bases)
    used = ["V"] + [model.key for model in ESTIMATORS[rg.EstimatorKind.from_name(kind)].models]
    resonant = {int(k) + 1 for key in used for k in indices[key]}
    points = [{"s": complex(0.3, w)} for w in rng.uniform(0.1, 4.0, count)]
    expected = set()
    for index in rng.choice(count, size=count // 3, replace=False):
        if rng.random() < 0.5:
            points[index] = {"s": 1.5e308j}
        else:
            points[index] = {"s": complex(int(rng.integers(1, n + 1)) / 2.0)}
            if int(2 * points[index]["s"].real) not in resonant:
                continue
        expected.add(int(index))
    with passes_of(chunk, kind, ws):
        single = assert_batch_independent(kind, ws, sys, points, seed % 97, rng)
    assert {i for i, breakdown in enumerate(single) if breakdown is None} == expected
