"""Shared builders for the test suite.

Random inputs are always drawn from an explicitly seeded generator so
every failure replays. Systems built here are deliberately well
conditioned (identity plus a contraction) so that estimator chains and
envelope checks run at O(1) scales where absolute tolerances mean
something.
"""

import numpy as np
import pytest

import romgrid as rg

# registry the acceptance tests append to; printed at the end of the run
ACCEPTANCE_LINES = []


def pytest_terminal_summary(terminalreporter):
    if not ACCEPTANCE_LINES:
        return
    terminalreporter.write_sep("=", "acceptance criteria")
    for line in ACCEPTANCE_LINES:
        terminalreporter.write_line(line)


def complex_randn(rng, *shape):
    return (rng.standard_normal(shape) + 1j * rng.standard_normal(shape)) / np.sqrt(2.0)


def bits(array):
    """The bytes of an array, so that signed zeros and NaN payloads compare too."""
    return np.ascontiguousarray(array).view(np.uint8)


def one_point_response(sys, point):
    """``H(p)`` by the one-point route: assemble ``Q(p)``, ``lu_factor``, solve, apply ``C(p)``."""
    return sys._map_at("C", point) @ sys.operator_lu(point).solve(sys._map_at("B", point))


def _breakdown_bits(breakdown):
    """The bytes of every field of an EstimateBreakdown."""
    fields = [breakdown.total, breakdown.part1, breakdown.part2, *breakdown.aux.values()]
    return bits(np.array(fields, dtype=np.float64))


def assert_stack_is_one_point_bitwise(sys, ws, points, reference=None, chunk_points=None):
    """``transfer_function``, ``true_error`` and ``evaluate`` over a stack match one-point calls.

    Every stacked ``H``, true error and breakdown (of ``ws.kind``) equals
    the one-point result to the bit, and is None exactly where the
    one-point call raises, with an error that names the point; ``H`` also
    equals ``reference(sys, point)`` to the bit when one is given. With
    ``chunk_points`` the stacked calls run in passes of that many points.
    Returns the mask of points whose ``H`` is usable.
    """
    from romgrid import linalg
    from romgrid.errors import SingularAtSampleError, SingularReducedSystemError

    with pytest.MonkeyPatch.context() as patch:
        if chunk_points is not None:
            patch.setattr(linalg, "_CHUNK_BYTES", chunk_points * sys._kernel.sample_bytes)
        stacked = sys.transfer_function(points)
        errors = rg.true_error(sys, ws, points)
        estimates = rg.evaluate(ws.kind, ws, sys, points)
    assert len(stacked) == len(errors) == len(estimates) == len(points)
    usable = []
    for point, H, error, estimate in zip(points, stacked, errors, estimates):
        try:
            want_estimate = rg.evaluate(ws.kind, ws, sys, point)
            assert np.array_equal(_breakdown_bits(estimate), _breakdown_bits(want_estimate)), point
        except SingularReducedSystemError as exc:
            assert estimate is None and repr(point) in str(exc), point
        try:
            want = sys.transfer_function(point)
        except SingularAtSampleError as exc:
            assert H is None and error is None and repr(point) in str(exc), point
            usable.append(False)
            continue
        assert np.array_equal(bits(H), bits(want)), point
        if reference is not None:
            assert np.array_equal(bits(H), bits(reference(sys, point))), point
        try:
            want_error = rg.true_error(sys, ws, point)
            assert np.array_equal(bits(np.float64(error)), bits(np.float64(want_error))), point
        except SingularReducedSystemError as exc:
            assert error is None and repr(point) in str(exc), point
        usable.append(True)
    return usable


def decoupled_system(overflowing=None):
    """``Q(s) = s I - diag(1, 2, 3, 4, -1, -1)``, exactly singular at s = 1, and a basis.

    ``B = C^T`` is one on the first four coordinates. ``overflowing``
    (``"B"`` or ``"C"``) adds ``s^5 M1`` to that map, ``M1`` 1e150 on the
    last two coordinates, which Q decouples: at s = 1e32j the term is 1e310.
    The basis spans ``e1 + e2`` and ``e3 + e4``, so reduced maps never see
    ``M1`` and every reduced operator is regular away from s = 1.5 and 3.5.
    """
    n = 6
    Q = rg.AffineMatrix(
        (n, n),
        base=-np.diag([1.0, 2.0, 3.0, 4.0, -1.0, -1.0]),
        terms=[(rg.Monomial(1.0, {"s": 1}), np.eye(n))],
    )
    near = np.r_[np.ones(4), 0.0, 0.0][:, None]
    far = [(rg.Monomial(1.0, {"s": 5}), np.r_[np.zeros(4), 1e150, 1e150][:, None])]
    B = rg.AffineMatrix((n, 1), base=near, terms=far if overflowing == "B" else ())
    C = rg.AffineMatrix((n, 1), base=near, terms=far if overflowing == "C" else ()).transposed()
    V = np.zeros((n, 2))
    V[:2, 0] = V[2:4, 1] = np.sqrt(0.5)
    return rg.ParametricSystem(Q, B, C, name="decoupled"), V


def random_point(rng):
    """A frequency sample away from zero, |s| around one."""
    radius = 0.5 + rng.uniform(0.0, 1.0)
    angle = rng.uniform(0.0, 2.0 * np.pi)
    return {"s": radius * np.exp(1j * angle)}


def random_system(rng, n, n_in=1, n_out=1, symmetric=False):
    """Affine family Q(s) = Q0 + s Q1, nonsingular for |s| <= 2.

    Q0 is the identity plus a scaled Gaussian, Q1 a smaller one, so the
    spectrum stays near one and condition numbers stay single-digit.
    """
    g0 = complex_randn(rng, n, n) / np.sqrt(n)
    g1 = complex_randn(rng, n, n) / np.sqrt(n)
    if symmetric:
        g0 = (g0 + g0.T) / 2.0
        g1 = (g1 + g1.T) / 2.0
    q0 = np.eye(n) + 0.35 * g0
    q1 = 0.2 * g1
    b = complex_randn(rng, n, n_in)
    c = complex_randn(rng, n_out, n)
    if symmetric:
        c = b.T
    Q = rg.AffineMatrix((n, n), base=q0, terms=[(rg.Monomial(1.0, {rg.LAPLACE: 1}), q1)])
    return rg.ParametricSystem(
        Q,
        rg.AffineMatrix.constant(b),
        rg.AffineMatrix.constant(c),
        name=f"random{n}",
    )


def reduced_resonance_system():
    """``Q(s) = (s - 1) I + [[0, 1], [1, 0]]`` with ``B = C^T = e1``.

    ``Q(1)`` is regular, but on ``V = e2`` the reduced operator is ``s - 1``:
    a reduced model that is singular where the full system is not.
    """
    swap = np.array([[0.0, 1.0], [1.0, 0.0]])
    e1 = np.array([[1.0], [0.0]])
    return rg.from_first_order(np.eye(2), np.eye(2) - swap, e1, e1.T, name="swap")


def random_orthonormal(rng, n, k):
    q, _ = np.linalg.qr(complex_randn(rng, n, k))
    return q


BASIS_KEYS = ("V", "V_du", "V_rdu", "V_rpr", "V_rrpr")


def random_bases(rng, n, dims=(4, 3, 3, 4, 3), petrov=False):
    """Dict of trial (and test) bases for a full estimator workspace.

    ``petrov=False`` sets every test basis equal to its trial basis;
    otherwise test bases are drawn independently.
    """
    out = {}
    for key, k in zip(BASIS_KEYS, dims):
        out[key] = random_orthonormal(rng, n, k)
        wkey = "W" + key[1:]
        out[wkey] = random_orthonormal(rng, n, k) if petrov else out[key]
    return out


def full_workspace(sys, kind, bases):
    if isinstance(kind, str):
        kind = rg.EstimatorKind.from_name(kind)
    return rg.EstimatorWorkspace.from_bases(sys, kind, **bases)


def dense_at(sys, point):
    return (
        sys.Q.assemble(point),
        sys.B.assemble(point),
        sys.C.assemble(point),
    )


def moment_bases(rng, sys, points, q=2, dims=None):
    """Realistic bases grown from actual expansion blocks at given points.

    Every basis sees the same primal/dual blocks, so the workspace behaves
    like a mid-greedy snapshot rather than a random subspace.
    """
    n = sys.order
    V = rg.Basis.empty(n, "V")
    V_du = rg.Basis.empty(n, "V_du")
    for pt in points:
        blk = rg.krylov_block(sys, pt[rg.LAPLACE], q)
        dblk = rg.krylov_block(sys.dual(), pt[rg.LAPLACE], q)
        V = V.appended(blk)
        V_du = V_du.appended(dblk)
    # auxiliary bases: perturbed copies so nothing degenerates to zero
    def jiggle(base, k):
        cols = base.columns
        extra = random_orthonormal(rng, n, k)
        return rg.Basis(np.linalg.qr(np.hstack([cols, extra]))[0])

    return {
        "V": V,
        "W": V,
        "V_du": V_du,
        "W_du": V_du,
        "V_rdu": jiggle(V_du, 1),
        "W_rdu": None,
        "V_rpr": jiggle(V, 1),
        "W_rpr": None,
        "V_rrpr": jiggle(V, 2),
        "W_rrpr": None,
    }


@pytest.fixture
def rng():
    return np.random.default_rng(2026)
