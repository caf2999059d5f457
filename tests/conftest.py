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
