"""The append-only offline state: a workspace grown step by step is the one-shot workspace.

``GrowingWorkspace`` owns a run's bases: ``append`` grows them and
``extend`` projects and factors only the columns they gained since its last
call; ``EstimatorWorkspace.from_bases`` is one extension of an owner built
on all of them. Hypothesis grows bases through ``append`` the way the greedy
loop does (each basis receives the blocks of the bases it contains, then its
own) over 2-4 steps, on dense and sparse, MIMO and parametric families, with
blocks that add nothing to a basis and blocks whose operator images already
lie in the residual basis. At every step every kind must agree with the
one-shot build and with the dense oracle chains, and so must a one-shot
Petrov-Galerkin build on the grown trial bases. A spy on a ladder run checks that each greedy iteration projects
and factors its new columns only, that every n-row array the run holds
is held through its one owner, the ``GrowingWorkspace``, and that the
workspace it returns holds no n-row array besides its bases.
"""

import numpy as np
import pytest
import scipy.sparse
from hypothesis import HealthCheck, given, settings
from hypothesis import strategies as st

import romgrid as rg
from romgrid import estimators, greedy, projection
from romgrid.estimators import REDUCED_MODELS, GrowingWorkspace
from romgrid.linalg import ROUNDOFF, gram_deviation

import oracles
from conftest import complex_randn
from test_estimator_properties import KINDS, affine_system, oracle_parts, sample_point

EPS = np.finfo(np.float64).eps

PROPERTY = settings(
    max_examples=40,
    deadline=None,
    derandomize=True,
    database=None,
    suppress_health_check=[HealthCheck.too_slow],
)

cases = st.fixed_dictionaries({
    "seed": st.integers(0, 2**32 - 1),
    "n": st.integers(36, 56),
    "ports": st.integers(1, 3),
    "parametric": st.booleans(),
    "sparse": st.booleans(),
    "petrov": st.booleans(),
    "steps": st.integers(2, 4),
})


def sparse_system(rng, n, ports, parametric):
    """``affine_system`` with every operator piece a sparse matrix of the same family."""
    dense = affine_system(rng, n, ports, parametric)

    def thinned(matrix):
        mask = rng.random(matrix.shape) < 0.15
        np.fill_diagonal(mask, True)
        return scipy.sparse.csc_array(np.where(mask, matrix, 0.0))

    Q = rg.AffineMatrix(
        dense.Q.shape,
        base=thinned(dense.Q.base),
        terms=[(monomial, thinned(matrix)) for monomial, matrix in dense.Q.terms],
    )
    return rg.ParametricSystem(Q, dense.B, dense.C, parameter_names=dense.parameter_names)


def grow_step(rng, growth, n, step, last_own):
    """Append one greedy-like step's blocks through ``growth.append``; returns each basis's own block.

    Each basis first receives the blocks of the bases it contains, then its
    own. A block has 0-2 random columns (at least one at the first step, so
    that no model is empty). With some probability it also takes a column of
    a basis it already holds (which deflates) or, for V, V_rpr's own last
    block moved by 1e-13 to 1e-6 of its size: the operator images of those
    columns lie in the primal residual basis up to that distance, so their
    remainders are tiny or truncated.
    """
    own = {}
    for model in REDUCED_MODELS:
        for key in model.contains:
            growth.append(model.key, own[key])
        basis = growth.bases[model.key]
        block = complex_randn(rng, n, int(rng.integers(0 if step else 1, 3)))
        if basis.dim and rng.random() < 0.3:
            block = np.hstack([block, basis.columns[:, -1:] * 2.0])
        if model.key == "V" and "V_rpr" in last_own and rng.random() < 0.5:
            near = last_own["V_rpr"]
            near = near + 10.0 ** rng.uniform(-13, -6) * complex_randn(rng, *near.shape)
            block = np.hstack([block, near])
        own[model.key] = block
        growth.append(model.key, block)
    return own


def as_arrays(trial, test):
    """The oracle chains' basis dict: V, W, V_du, W_du, ... as ndarrays."""
    out = {}
    for key, basis in trial.items():
        out[key] = basis.columns
        out["W" + key[1:]] = test.get(key, basis).columns
    return out


def assert_same(got, want, tol):
    assert got.total == pytest.approx(want.total, abs=tol)
    assert got.part1 == pytest.approx(want.part1, abs=tol)
    assert got.part2 == pytest.approx(want.part2, abs=tol)
    assert got.aux.keys() == want.aux.keys()
    for name, value in got.aux.items():
        assert value == pytest.approx(want.aux[name], rel=1e-10), name


def assert_oracle(kind, sys, points, arrays, workspace, one_shot=None):
    """The workspace's breakdowns at ``points`` match the dense oracle chains on ``arrays``.

    With ``one_shot`` they also match that workspace's, to the same
    tolerance: 1e-10 of the estimate. ``delta1pr`` alone, ``|C x_rpr_hat|``,
    also has the roundoff of what it is formed from, ``ROUNDOFF * n * eps *
    ||C|| ||r_pr||``: where V nearly contains V_rpr (a block moved by 1e-13
    of its size), ``W_rpr^T r_pr`` cancels to that distance, and no float64
    route meets 1e-10 of the estimate. In one such drawn case (seed 53,
    n = 36, sparse, step 2) the estimate is 6.5e-6 against ``||r_pr||`` of
    16, and grown, one-shot and oracle estimates miss its value computed
    with 50 digits (mpmath) by 1.6e-10, 4.2e-10 and 7.0e-10 of it.
    """
    got = rg.evaluate(kind, workspace, sys, points, rng_seed=5)
    want = None if one_shot is None else rg.evaluate(kind, one_shot, sys, points, rng_seed=5)
    for i, (point, breakdown) in enumerate(zip(points, got)):
        Q, B, C = (m.toarray() if scipy.sparse.issparse(m) else m for m in (
            sys.Q.assemble(point), sys.B.assemble(point), sys.C.assemble(point)))
        xi = np.random.default_rng(5).standard_normal(20)
        p1, p2 = oracle_parts(kind.value, Q, B, C, arrays, xi)
        scale = max(np.max(p1), 0.0 if p2 is None else np.max(p2))
        norms = oracles.residual_norms(Q, B, C, arrays)
        tol = 1e-10 * scale
        if kind is rg.EstimatorKind.DELTA_1PR:
            tol += ROUNDOFF * len(Q) * EPS * np.linalg.norm(C, 2) * norms["r_pr_norm"]
        if want is not None:
            assert_same(breakdown, want[i], tol)
        assert breakdown.total == pytest.approx(np.max(p1 if p2 is None else p1 + p2), abs=tol)
        for name, value in breakdown.aux.items():
            assert value == pytest.approx(norms[name], rel=1e-10), name


@PROPERTY
@given(case=cases, kind=st.sampled_from(KINDS))
def test_grown_workspace_matches_one_shot_build_and_oracle(case, kind):
    # growth is Galerkin-only; a Petrov-Galerkin case builds one-shot
    # workspaces on random test bases of the grown widths at every step
    rng = np.random.default_rng(case["seed"])
    n = case["n"]
    build = sparse_system if case["sparse"] else affine_system
    sys = build(rng, n, case["ports"], case["parametric"])
    points = [sample_point(rng, case["parametric"]) for _ in range(3)]
    kind = rg.EstimatorKind(kind)
    growth = GrowingWorkspace(
        sys, kind, {model.key: rg.Basis.empty(n) for model in REDUCED_MODELS}
    )
    last_own = {}
    for step in range(case["steps"]):
        last_own = grow_step(rng, growth, n, step, last_own)
        grown = growth.extend()
        for side, U in growth.residual_bases.items():
            assert gram_deviation(U) <= 1e-13, side
        trial = dict(growth.bases)
        one_shot = rg.EstimatorWorkspace.from_bases(
            sys, kind, **{key: basis.columns for key, basis in trial.items()}
        )
        for model in REDUCED_MODELS:
            a = getattr(grown, model.field).system.Q.assemble(points[0])
            b = getattr(one_shot, model.field).system.Q.assemble(points[0])
            assert np.allclose(a, b, rtol=0.0, atol=1e-12 * max(1.0, np.max(np.abs(b))))
        assert_oracle(kind, sys, points, as_arrays(trial, {}), grown, one_shot)
        if case["petrov"]:
            test = {
                key: rg.Basis.empty(n).appended(complex_randn(rng, n, basis.dim))
                for key, basis in trial.items()
            }
            petrov = rg.EstimatorWorkspace.from_bases(
                sys, kind, **{key: basis.columns for key, basis in trial.items()},
                **{"W" + key[1:]: basis.columns for key, basis in test.items()},
            )
            assert_oracle(kind, sys, points, as_arrays(trial, test), petrov)


def test_only_galerkin_bases_grow():
    sys = rg.rc_ladder(20)
    V = rg.Basis.empty(20).appended(np.eye(20)[:, :2])
    growth = GrowingWorkspace(sys, "delta1pr", {"V": V, "V_rpr": V}, {"V": V})
    assert growth.append("V_rpr", np.eye(20)[:, 2:3]) == 1
    with pytest.raises(ValueError, match="test basis"):
        growth.append("V", np.eye(20)[:, 2:3])


def n_row_arrays(obj, n, skip, seen=None):
    """Every ndarray with ``n`` rows reachable from ``obj`` other than through ``skip``."""
    seen = set() if seen is None else seen
    if id(obj) in seen or any(obj is other for other in skip):
        return []
    seen.add(id(obj))
    if isinstance(obj, np.ndarray):
        return [obj] if obj.ndim and obj.shape[0] == n else []
    if isinstance(obj, dict):
        children = list(obj.values())
    elif isinstance(obj, (list, tuple)):
        children = list(obj)
    else:
        children = list(getattr(obj, "__dict__", {}).values())
    return [array for child in children for array in n_row_arrays(child, n, skip, seen)]


def test_greedy_projects_and_factors_only_the_columns_each_iteration_adds(monkeypatch):
    sys = rg.rc_ladder(150)
    events = []
    extend, append = projection.ProjectionState.extend, estimators.GrowingWorkspace._append
    workspace = greedy._GreedyState.workspace

    def spy_extend(state, V, W):
        model = extend(state, V, W)
        if state.added:  # the products M_j V_new of the columns V gained
            events.append(("products", state.added[0].shape[1]))
        return model

    def spy_append(growth, side, block):  # the residual factors grow by the block's coordinates
        events.append(("factor", block.shape[1]))
        return append(growth, side, block)

    def owned_by_growth(state):
        # every n-row array of the run, other than the system's, is the owner's
        skip = [sys, sys.dual()]
        owned = n_row_arrays(state.growth, sys.order, skip)
        found = n_row_arrays(state, sys.order, skip)
        return found and all(any(array is other for other in owned) for array in found)

    def spy_workspace(state):
        events.append(("iteration", {key: basis.dim for key, basis in state.growth.bases.items()}))
        assert owned_by_growth(state)
        ws = workspace(state)
        assert owned_by_growth(state)
        return ws

    monkeypatch.setattr(projection.ProjectionState, "extend", spy_extend)
    monkeypatch.setattr(estimators.GrowingWorkspace, "_append", spy_append)
    monkeypatch.setattr(greedy._GreedyState, "workspace", spy_workspace)
    config = rg.GreedyConfig(
        kind="delta2",
        training_set=rg.parse_grid("f:1e-3:1e1:30:log"),
        tolerance=1e-8,
        record_true_errors=False,
    )
    result = rg.run_greedy(sys, config)
    assert result.converged and len(result.trace) >= 3

    pieces = len(sys.Q.monomial_pieces())
    iterations = []
    for kind, value in events:
        if kind == "iteration":
            iterations.append((value, []))
        else:
            iterations[-1][1].append((kind, value))
    assert len(iterations) == len(result.trace)
    previous = dict.fromkeys(iterations[0][0], 0)
    for number, (dims, calls) in enumerate(iterations):
        added = {key: dims[key] - previous[key] for key in dims}
        # one product per grown basis, in the order the models are built
        want = [("products", added[key]) for key in ("V", "V_du", "V_rdu") if added[key]]
        # r_pr: the input piece once, then the new operator images; r_du likewise
        for key, ports in (("V", sys.n_inputs), ("V_du", sys.n_outputs)):
            if number == 0:
                want.append(("factor", ports))
            if added[key]:
                want.append(("factor", pieces * added[key]))
        assert sorted(calls) == sorted(want), number
        previous = dims

    ws = result.workspace
    bases = [
        basis.columns
        for model in REDUCED_MODELS
        if getattr(ws, model.field) is not None
        for basis in (getattr(ws, model.field).V, getattr(ws, model.field).W)
    ]
    found = n_row_arrays(ws, sys.order, skip=[sys, sys.dual()])
    assert found and all(any(array is basis for basis in bases) for array in found)
