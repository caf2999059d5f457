import tracemalloc
import warnings

import numpy as np
import pytest
import scipy.sparse

import romgrid as rg
from romgrid.errors import (
    AllSamplesSingularError,
    SingularAtSampleError,
    SingularReducedSystemError,
)
from romgrid.linalg import gram_deviation

from conftest import decoupled_system, random_system, reduced_resonance_system


def _breakdown(kind, total, part1=None, part2=0.0, aux=None):
    if part1 is None:
        part1 = total
    return rg.EstimateBreakdown(
        kind=rg.EstimatorKind.from_name(kind),
        total=total,
        part1=part1,
        part2=part2,
        aux=aux or {},
    )


# ---------------------------------------------------------------------------
# configuration and point selection


def test_config_validation():
    grid = [{"s": 1j}, {"s": 2j}]
    with pytest.raises(ValueError):
        rg.GreedyConfig(kind="delta2", training_set=grid, tolerance=-1.0)
    with pytest.raises(ValueError):
        rg.GreedyConfig(kind="delta2", training_set=grid, max_iterations=0)
    with pytest.raises(ValueError):
        rg.GreedyConfig(kind="delta3", training_set=grid, symmetric_variant=True)
    cfg = rg.GreedyConfig(kind="delta2", training_set=grid)
    assert cfg.kind is rg.EstimatorKind.DELTA_2


def test_select_points_main_is_argmax_total():
    bs = [_breakdown("delta1", t) for t in (0.1, 0.7, 0.3)]
    sel = rg.select_points("delta1", False, bs)
    assert sel.main == 1
    assert sel.alpha is None and sel.beta is None and sel.gamma is None


def test_select_points_tie_goes_to_lowest_index():
    bs = [_breakdown("delta1", 0.5), _breakdown("delta1", 0.5)]
    assert rg.select_points("delta1", False, bs).main == 0


def test_select_points_alpha_rules():
    bs = [
        _breakdown("delta2", 1.0, part1=0.9, part2=0.1),
        _breakdown("delta2", 0.5, part1=0.1, part2=0.4),
    ]
    sel = rg.select_points("delta2", False, bs)
    assert sel.main == 0 and sel.alpha == 1  # alpha chases part2

    bs = [
        _breakdown("delta1pr", 1.0, aux={"r_rpr_norm": 0.1}),
        _breakdown("delta1pr", 0.2, aux={"r_rpr_norm": 0.8}),
    ]
    sel = rg.select_points("delta1pr", False, bs)
    assert sel.main == 0 and sel.alpha == 1  # alpha chases the deep residual

    bs = [
        _breakdown("delta3", 1.0, part1=0.2, part2=0.8),
        _breakdown("delta3", 0.9, part1=0.7, part2=0.2),
    ]
    sel = rg.select_points("delta3", False, bs)
    assert sel.main == 0 and sel.alpha == 1  # alpha chases part1


def test_select_points_beta_and_gamma():
    bs = [
        _breakdown("delta3pr", 1.0, part1=0.9, part2=0.1),
        _breakdown("delta3pr", 0.8, part1=0.1, part2=0.7),
    ]
    sel = rg.select_points("delta3pr", False, bs)
    assert sel.main == 0 and sel.alpha == 0 and sel.beta == 1

    bs = [
        _breakdown("delta1", 1.0, aux={"r_du_norm": 0.1}),
        _breakdown("delta1", 0.5, aux={"r_du_norm": 0.9}),
    ]
    sel = rg.select_points("delta1", True, bs)
    assert sel.main == 0 and sel.gamma == 1

    bs = [
        _breakdown("delta2", 1.0, part1=0.2, part2=0.8),
        _breakdown("delta2", 0.9, part1=0.8, part2=0.1),
    ]
    sel = rg.select_points("delta2", True, bs)
    assert sel.main == 0 and sel.alpha == 0 and sel.gamma == 1


def test_select_points_skips_none_and_raises_when_empty():
    bs = [None, _breakdown("delta1", 0.2), None]
    assert rg.select_points("delta1", False, bs).main == 1
    with pytest.raises(AllSamplesSingularError):
        rg.select_points("delta1", False, [None, None])


# ---------------------------------------------------------------------------
# full runs


def _ladder_grid(count=30, lo=1e-4, hi=1e1):
    return rg.parse_grid([f"f:{lo}:{hi}:{count}:log"])


def test_greedy_converges_on_ladder():
    sys = rg.rc_ladder(150)
    cfg = rg.GreedyConfig(kind="delta2", training_set=_ladder_grid(), tolerance=1e-4)
    res = rg.run_greedy(sys, cfg)
    assert res.converged
    assert res.stop_reason is rg.StopReason.TOLERANCE_MET
    assert res.trace[-1].max_estimate <= 1e-4
    assert res.trace[-1].max_true_error <= 1e-3
    dims = [row.rom_dimension for row in res.trace]
    assert dims == sorted(dims) and dims[0] >= 1
    assert [row.iteration for row in res.trace] == list(range(1, len(res.trace) + 1))
    assert res.workspace.kind is rg.EstimatorKind.DELTA_2


def test_greedy_huge_tolerance_stops_after_one_iteration():
    sys = rg.rc_ladder(80)
    cfg = rg.GreedyConfig(kind="delta1pr", training_set=_ladder_grid(12), tolerance=1e6)
    res = rg.run_greedy(sys, cfg)
    assert res.converged and len(res.trace) == 1


def test_greedy_iteration_cap():
    sys = rg.rc_ladder(150)
    cfg = rg.GreedyConfig(
        kind="delta2", training_set=_ladder_grid(), tolerance=1e-14, max_iterations=2
    )
    res = rg.run_greedy(sys, cfg)
    assert not res.converged
    assert res.stop_reason is rg.StopReason.MAX_ITERATIONS
    assert len(res.trace) == 2


def test_greedy_stagnates_when_points_exhausted():
    # two training samples, unreachable tolerance: once both points'
    # blocks are absorbed nothing new can be added
    sys = rg.rc_ladder(40)
    grid = rg.parse_grid(["f=0.01,1.0"])
    cfg = rg.GreedyConfig(
        kind="delta2", training_set=grid, tolerance=1e-300, max_iterations=30
    )
    res = rg.run_greedy(sys, cfg)
    assert not res.converged
    assert res.stop_reason is rg.StopReason.STAGNATION_ALL_POINTS_USED
    assert len(res.trace) < 30


def test_greedy_true_error_recording_switch():
    sys = rg.rc_ladder(60)
    cfg = rg.GreedyConfig(
        kind="delta2",
        training_set=_ladder_grid(10),
        tolerance=1e-3,
        record_true_errors=False,
    )
    res = rg.run_greedy(sys, cfg)
    assert all(row.max_true_error is None for row in res.trace)


@pytest.mark.parametrize(
    "kind, symmetric, points, lus, blocks",
    [
        # V and V_du at the main point share one LU; V_rdu has its own point
        ("delta2", False, {"main": 0, "alpha": 5}, 2, 3),
        # V and V_rpr at one sample share the LU and the block
        ("delta3pr", False, {"main": 3, "alpha": 3, "beta": 7}, 2, 2),
        # V_du and V_rdu at the gamma point share the LU and the dual block
        ("delta2", True, {"main": 0, "alpha": 4, "gamma": 4}, 2, 2),
    ],
)
def test_grow_factors_each_sample_once_and_builds_each_block_once(
    monkeypatch, kind, symmetric, points, lus, blocks
):
    import romgrid.greedy as greedy_module
    import romgrid.linalg as linalg_module

    sys = rg.rc_ladder(60)
    cfg = rg.GreedyConfig(kind=kind, training_set=_ladder_grid(10), symmetric_variant=symmetric)
    state = greedy_module._GreedyState(sys, cfg)
    state.points.update(points)
    factored, built = [], []
    lu_factor, expansion_block = linalg_module.lu_factor, greedy_module.expansion_block

    def counting_lu(a):
        if a.shape[0] == sys.order:
            factored.append(a)
        return lu_factor(a)

    def counting_block(side_sys, point, *args, **kwargs):
        built.append((side_sys is sys, tuple(point.items())))
        return expansion_block(side_sys, point, *args, **kwargs)

    monkeypatch.setattr(linalg_module, "lu_factor", counting_lu)
    monkeypatch.setattr(greedy_module, "expansion_block", counting_block)
    state.grow()
    assert len(factored) == lus == len({state.points[state._role(m)] for m in state.models})
    assert len(built) == blocks == len(set(built))
    assert state.growth.bases["V"].dim > 0


def test_true_errors_factor_each_training_sample_once(monkeypatch):
    # H(p) of a training sample never changes, so a run factors the
    # full-order operator once per sample for true-error recording: the
    # stacked transfer-function pass (``_responses``, which keeps each
    # skipped sample's cause) gets only the samples not seen before, and
    # factors each of them once
    from romgrid import linalg

    sys = rg.rc_ladder(60)
    grid = _ladder_grid(10)
    inside, passed, factored = [], [], []
    responses, band_lu = sys._responses, linalg._band_lu

    def tracked(points):
        inside.append(True)
        passed.extend(tuple(sorted(point.items())) for point in points)
        try:
            return responses(points)
        finally:
            inside.pop()

    def counting_band_lu(*args):
        if inside:
            factored.append(args)
        return band_lu(*args)

    monkeypatch.setattr(sys, "_responses", tracked)
    monkeypatch.setattr(linalg, "_band_lu", counting_band_lu)
    cfg = rg.GreedyConfig(
        kind="delta2", training_set=grid, tolerance=1e-8, record_true_errors=True
    )
    res = rg.run_greedy(sys, cfg)
    assert len(res.trace) >= 2
    assert len(passed) == len(set(passed)) == len(grid)
    assert len(factored) == len(grid)
    monkeypatch.undo()
    fresh = max(rg.true_error(sys, res.workspace, p) for p in grid)
    assert res.trace[-1].max_true_error == fresh


def test_greedy_bases_stay_orthonormal_and_nested():
    sys = rg.rc_ladder(120)
    cfg = rg.GreedyConfig(kind="delta3pr", training_set=_ladder_grid(20), tolerance=1e-5)
    res = rg.run_greedy(sys, cfg)
    ws = res.workspace
    V = ws.rom_primal.V
    assert gram_deviation(V.columns) <= 1e-10
    for rom in (ws.rom_primal_residual, ws.rom_primal_residual_residual):
        U = rom.V
        assert gram_deviation(U.columns) <= 1e-10
        # the primal span is contained in every downstream residual span
        proj = U.columns @ (U.columns.conj().T @ V.columns)
        assert np.linalg.norm(proj - V.columns) <= 1e-9


def test_greedy_interpolates_at_selected_points():
    sys = rg.random_stable(90, seed=4)
    cfg = rg.GreedyConfig(
        kind="delta2", training_set=_ladder_grid(20, 1e-3, 1e1), tolerance=1e-8, q=3
    )
    res = rg.run_greedy(sys, cfg)
    rom = res.workspace.rom_primal
    for row in res.trace:
        H = sys.transfer_function(row.main_point)
        Hr = rom.transfer_function(row.main_point)
        assert np.max(np.abs(H - Hr)) <= 1e-8 * max(1.0, np.max(np.abs(H)))


def test_symmetric_variant_records_gamma():
    sys = rg.rc_ladder(100)
    cfg = rg.GreedyConfig(
        kind="delta1",
        training_set=_ladder_grid(20),
        tolerance=1e-5,
        symmetric_variant=True,
        max_iterations=6,
    )
    res = rg.run_greedy(sys, cfg)
    assert all(row.gamma_point is not None for row in res.trace)
    # separate dual points keep the estimate from collapsing to zero
    assert res.trace[0].max_estimate > 1e-12


def test_plain_delta1_collapses_on_symmetric_systems():
    # same trial and dual spaces on a symmetric system: the estimate is
    # numerically zero while the true error is not
    sys = rg.rc_ladder(100)
    cfg = rg.GreedyConfig(kind="delta1", training_set=_ladder_grid(20), tolerance=1e-5)
    res = rg.run_greedy(sys, cfg)
    assert res.converged and len(res.trace) == 1
    assert res.trace[0].max_estimate <= 1e-12
    assert res.trace[0].max_true_error > 1e-3


def test_parametric_greedy_converges():
    sys = rg.symmetric_second_order(40, seed=1)
    svals = [complex(-0.05 * w, w) for w in np.geomspace(0.2, 5.0, 6)]
    grid = rg.parse_grid([
        "s=" + ",".join(f"{v.real:.17g}{v.imag:+.17g}i" for v in svals),
        "d=0.5,2.0",
        "alpha=0.02",
        "beta=0.05",
    ])
    cfg = rg.GreedyConfig(kind="delta2", training_set=grid, tolerance=1e-6, max_iterations=8)
    res = rg.run_greedy(sys, cfg)
    assert res.converged
    assert res.trace[-1].max_true_error <= 1e-5


# ---------------------------------------------------------------------------
# singular samples


def _resonant_system(n=12):
    # s I - diag(1..n) is exactly singular at integer frequencies
    A = np.diag(np.arange(1.0, n + 1.0))
    b = np.ones((n, 1))
    return rg.from_first_order(np.eye(n), A, b, b.T)


# The singular samples sit where the expansion points start: main at 0,
# beta and gamma at the middle (4), alpha at the last index (8). Each case
# names the basis whose block build first meets each of them.
_SINGULAR_CASES = [
    ("delta_r", False, {0: "V"}),
    ("delta1", False, {0: "V"}),
    ("delta1pr", False, {0: "V", 8: "V_rpr"}),
    ("delta2", False, {0: "V", 8: "V_rdu"}),
    ("delta2pr", False, {0: "V", 8: "V_rpr"}),
    ("delta3", False, {0: "V", 8: "V_rpr"}),
    ("delta3pr", False, {0: "V", 8: "V_rpr", 4: "V_rrpr"}),
    ("delta1", True, {0: "V", 4: "V_du"}),
    ("delta2", True, {0: "V", 4: "V_du", 8: "V_rdu"}),
    ("delta2pr", True, {0: "V", 4: "V_du", 8: "V_rpr"}),
]


@pytest.mark.parametrize(
    "kind, symmetric, expansions",
    [
        pytest.param(kind, symmetric, expansions, id=kind + ("-symmetric" if symmetric else ""))
        for kind, symmetric, expansions in _SINGULAR_CASES
    ],
)
def test_singular_training_sample_is_skipped_with_warning(kind, symmetric, expansions):
    sys = _resonant_system()
    grid = [{"s": 0.5 + 1j * w} for w in np.linspace(0.3, 4.0, 9)]
    grid[0], grid[len(grid) // 2], grid[-1] = {"s": 1.0}, {"s": 2.0}, {"s": 3.0}
    cfg = rg.GreedyConfig(
        kind=kind,
        training_set=grid,
        tolerance=1e-6,
        max_iterations=6,
        symmetric_variant=symmetric,
    )
    with pytest.warns(RuntimeWarning) as caught:
        res = rg.run_greedy(sys, cfg)
    assert res.converged
    assert res.skipped_samples == [0, 4, 8]
    messages = [str(w.message) for w in caught]
    for index, basis in expansions.items():
        assert any(
            m.startswith(f"skipping training sample {index} ")
            and m.endswith(f"during expansion of {basis}")
            for m in messages
        ), (index, basis, messages)
    singular = [grid[0], grid[4], grid[-1]]
    for row in res.trace:
        for point in (row.main_point, row.alpha_point, row.beta_point, row.gamma_point):
            assert point not in singular


def test_all_singular_samples_raise():
    sys = _resonant_system(4)
    grid = [{"s": 1.0}, {"s": 2.0}, {"s": 3.0}]
    cfg = rg.GreedyConfig(kind="delta1", training_set=grid, tolerance=1e-6)
    with pytest.warns(RuntimeWarning):
        with pytest.raises(AllSamplesSingularError):
            rg.run_greedy(sys, cfg)


def test_sweep_with_every_reduced_operator_singular_raises():
    # the only sample's full operator is regular, its reduced one is not
    sys = reduced_resonance_system()
    cfg = rg.GreedyConfig(kind="delta1pr", training_set=[{"s": 1.0}], tolerance=1e-6, q=1)
    with pytest.warns(RuntimeWarning) as caught:
        with pytest.raises(
            AllSamplesSingularError,
            match="no training sample produced a usable estimate this iteration",
        ):
            rg.run_greedy(sys, cfg)
    assert [str(w.message) for w in caught] == [
        "training sample 0: reduced operator singular this iteration; sample skipped for the sweep"
    ]


# An operator that overflows in assembly: s * C_mat is infinite at this s.
_EXTREME = {"s": 1.5e308j}


def _ladder(storage, n=40):
    sys = rg.rc_ladder(n)
    if storage == "dense":
        sys = rg.ParametricSystem(sys.Q.densified(), sys.B, sys.C, name=sys.name)
    assert sys.Q.is_sparse == (storage == "sparse")
    return sys


def test_primal_only_kinds_never_build_the_dual(monkeypatch):
    # delta1pr and delta3pr grow, reduce and evaluate primal-side models only,
    # so neither the greedy loop nor validation may reach the transposed system
    grid = _ladder_grid(12)
    config = dict(training_set=grid, tolerance=1e-8, max_iterations=3)

    def no_dual():
        raise AssertionError("dual system requested")

    for kind in ("delta1pr", "delta3pr"):
        sys = _ladder("dense")
        monkeypatch.setattr(sys, "dual", no_dual)
        result = rg.run_greedy(sys, rg.GreedyConfig(kind=kind, **config))
        assert rg.validate(sys, result, grid).rows
    # a kind with a dual-side model builds the dual, once, and reuses it
    sys = _ladder("dense")
    original, duals = sys.dual, []

    def counted_dual():
        duals.append(original())
        return duals[-1]

    monkeypatch.setattr(sys, "dual", counted_dual)
    rg.run_greedy(sys, rg.GreedyConfig(kind="delta2", **config))
    assert duals and all(dual is duals[0] for dual in duals)
    assert duals[0].dual() is sys


@pytest.mark.parametrize("storage", ["sparse", "dense"])
def test_nonfinite_operator_is_a_sample_error_naming_the_point(storage):
    sys = _ladder(storage)
    with warnings.catch_warnings():  # the rules report the overflow; numpy says nothing
        warnings.simplefilter("error", RuntimeWarning)
        with pytest.raises(SingularAtSampleError, match=r"1\.5e\+308j.*non-finite"):
            sys.operator_lu(_EXTREME)
        # on the first two nodes the reduced C_mat has diagonal 1.6, so s * C_r overflows too
        rom = rg.reduce_system(sys, rg.Basis(np.eye(sys.order)[:, :2]))
        with pytest.raises(SingularReducedSystemError, match=r"1\.5e\+308j.*non-finite"):
            rom.operator_lu(_EXTREME)


def test_overflowing_coefficient_is_a_sample_error():
    # s**2 overflows in the coefficient itself, before any matrix is touched
    sys = rg.symmetric_second_order(6)
    point = {"s": 1.5e308j, "d": 1.0, "alpha": 0.01, "beta": 0.01}
    with pytest.raises(SingularAtSampleError, match="non-finite"):
        sys.operator_lu(point)


def _overflowing_map(letter):
    """Dense ``Q = -A0 + s I`` whose input (``"B"``) or output (``"C"``) map is
    ``M + 1e-3 s^2 M``: at ``s = 1.5e200j`` only that map overflows."""
    base = rg.random_stable(40)
    maps = {"B": base.B, "C": base.C}
    M = maps[letter].base
    maps[letter] = rg.AffineMatrix(M.shape, base=M, terms=[(rg.Monomial(1e-3, {"s": 2}), M)])
    return rg.ParametricSystem(base.Q, maps["B"], maps["C"], name="overflowing"), {"s": 1.5e200j}


def _nonfinite_case(case):
    if case == "input_map":
        return _overflowing_map("B")
    return _ladder(case), _EXTREME


@pytest.mark.parametrize("letter, role", [("B", "input"), ("C", "output")])
def test_nonfinite_map_is_a_sample_error_naming_the_point(letter, role):
    sys, point = _overflowing_map(letter)
    assert np.isfinite(sys.Q.assemble(point)).all()
    named = rf"{role} map .*1\.5e\+200j"
    with pytest.raises(SingularAtSampleError, match=named):
        sys.transfer_function(point)  # the Schur-form path
    with pytest.raises(SingularAtSampleError, match=named):
        if letter == "B":
            rg.krylov_block(sys, point["s"], 2)  # a block build
        else:
            sys.operator_lu(point).transposed().solve(sys._map_at("C", point).T)
    V = np.linalg.qr(rg.krylov_block(sys, 1j, 2))[0]
    if letter == "B":
        rom = rg.reduce_system(sys, V)
        with pytest.raises(SingularReducedSystemError, match=r"1\.5e\+200j"):
            rom.solve(point)
    for kind in ("delta1pr", "delta2"):  # C enters as an output map, and as the dual input map
        ws = rg.EstimatorWorkspace.from_bases(sys, kind, V, V_du=V, V_rdu=V, V_rpr=V)
        with pytest.raises(SingularAtSampleError, match=named):
            rg.true_error(sys, ws, point)
        with pytest.raises(SingularReducedSystemError, match=r"1\.5e\+200j"):
            rg.evaluate(kind, ws, sys, point)
        assert rg.evaluate(kind, ws, sys, [point, {"s": 1j}])[0] is None
    # the full-order diagnostics name the point too, whichever map overflows
    ws = rg.EstimatorWorkspace.from_bases(sys, "delta3pr", V, V_du=V, V_rdu=V, V_rpr=V, V_rrpr=V)
    with pytest.raises(SingularAtSampleError, match=named):
        rg.sensitivity_report(sys, ws, point)
    with pytest.raises(SingularAtSampleError, match=named):
        rg.true_error(sys, ws, point, verify_identity=True)


def _kernel_system(kernel, base, B, C, n=6):
    """``Q(s) = base * I + s * I`` on the transfer-function kernel ``kernel``.

    ``"schur"`` stores it dense (the Schur form), ``"band"`` sparse (a
    diagonal pattern, the band stack) and ``"per-point"`` dense with the
    term written as ``(s / 2) * (2 I)`` (``operator_lu`` at each point).
    """
    sparse = kernel == "band"
    eye = scipy.sparse.eye_array(n, format="csc") if sparse else np.eye(n)
    term = (rg.Monomial(1.0, {"s": 1}), eye)
    if kernel == "per-point":
        term = (rg.Monomial(0.5, {"s": 1}), 2.0 * eye)
    Q = rg.AffineMatrix((n, n), base=base * eye, terms=[term])
    sys = rg.ParametricSystem(Q, B, C, name=f"{kernel}-kernel")
    assert type(sys._kernel).__name__ == ("_SchurKernel" if kernel == "schur" else "_LUKernel")
    assert (getattr(sys._kernel, "band", None) is not None) == sparse
    return sys


_KERNELS = ["schur", "band", "per-point"]


@pytest.mark.parametrize("kernel", _KERNELS)
def test_nonfinite_response_is_a_sample_error_naming_the_point(kernel):
    # Q(0) = 1e-300 I passes the singularity rule, but 1e10 / 1e-300 overflows
    n = 6
    B = rg.AffineMatrix.constant(np.full((n, 1), 1e10))
    sys = _kernel_system(kernel, 1e-300, B, rg.AffineMatrix.constant(np.ones((1, n))))
    point = {"s": 0.0}
    sys.operator_lu(point)
    with pytest.raises(SingularAtSampleError, match=r"transfer function .*non-finite.*'s': 0\.0"):
        sys.transfer_function(point)
    stack = [{"s": 0.5j}, point, {"s": 1j}]
    H = sys.transfer_function(stack)
    assert H[1] is None and np.isfinite(H[0]).all() and np.isfinite(H[2]).all()
    V = np.eye(n)[:, :2]
    ws = rg.EstimatorWorkspace.from_bases(sys, "delta1", V, V_du=V)
    errors = rg.true_error(sys, ws, stack)
    assert errors[1] is None and errors[0] is not None and errors[2] is not None
    with pytest.raises(SingularAtSampleError, match=r"'s': 0\.0"):
        rg.true_error(sys, ws, point)


@pytest.mark.parametrize("kernel", _KERNELS)
def test_one_error_order_on_every_kernel(kernel):
    # at s = 1e200j, s^2 overflows in both maps: the input map is named first
    n = 6
    rng = np.random.default_rng(7)
    s2 = rg.Monomial(1.0, {"s": 2})
    B = rg.AffineMatrix((n, 2), base=rng.standard_normal((n, 2)), terms=[(s2, np.ones((n, 2)))])
    C = rg.AffineMatrix((1, n), base=rng.standard_normal((1, n)), terms=[(s2, np.ones((1, n)))])
    sys = _kernel_system(kernel, 3.0, B, C)
    point = {"s": 1e200j}
    sys.operator_lu(point)
    with pytest.raises(SingularAtSampleError, match=r"input map .*1e\+200j"):
        sys.transfer_function(point)
    H = sys.transfer_function([{"s": 0.5j}, point])
    assert H[1] is None and np.isfinite(H[0]).all()


def test_overflowing_moment_block_skips_the_sample():
    # Q(s) = 1e-300 I + 2s I: at s = 0 every level of the Krylov block overflows
    n = 6
    Q = rg.AffineMatrix(
        (n, n), base=1e-300 * np.eye(n), terms=[(rg.Monomial(2.0, {"s": 1}), np.eye(n))]
    )
    sys = rg.ParametricSystem(
        Q,
        rg.AffineMatrix.constant(np.full((n, 1), 1e10)),
        rg.AffineMatrix.constant(np.ones((1, n))),
        name="overflowing",
    )
    with pytest.raises(SingularAtSampleError, match=r"non-finite entries at \{'s': 0j\}"):
        rg.krylov_block(sys, 0.0, 2)
    lu = sys.operator_lu({"s": 0.0})
    with pytest.raises(SingularAtSampleError, match=r"non-finite entries at \{'s': 0j\}"):
        rg.krylov_block(sys.dual(), 0.0, 2, lu=lu.transposed())
    training = [{"s": 0}, {"s": 0.5j}, {"s": 1j}]
    cfg = rg.GreedyConfig(kind="delta2", training_set=training, tolerance=1e-6)
    with pytest.warns(RuntimeWarning) as caught:
        res = rg.run_greedy(sys, cfg)
    assert res.trace and res.skipped_samples == [0]
    messages = [str(w.message) for w in caught]
    assert any(
        m.startswith("skipping training sample 0 ({'s': 0})") and "non-finite" in m
        and "operator singular" not in m
        for m in messages
    ), messages


def test_true_error_skips_name_each_samples_cause():
    # Q(s) = s I - diag(1, ..., 4, -1, -1) is exactly singular at s = 1.
    # C(s) = C0 + s^5 C1 with C1 only in the last two columns, which Q
    # decouples and B does not feed. The expansion point is s = 0, where C1's
    # first four moments vanish, so every basis is zero in those rows and
    # the sweep reads C1 only as C1 V = 0; at s = 1e32j only the full-order
    # C(s) = 1e160 * 1e150 overflows. Both samples pass the sweep and are
    # first met by the true-error recording. (An input map that overflows
    # cannot get that far: the sweep's primal residual carries B's pieces
    # times their coefficients, so it overflows too.)
    n = 6
    Q = rg.AffineMatrix(
        (n, n),
        base=-np.diag([1.0, 2.0, 3.0, 4.0, -1.0, -1.0]),
        terms=[(rg.Monomial(1.0, {"s": 1}), np.eye(n))],
    )
    C1 = np.zeros((1, n))
    C1[0, 4:] = 1e150
    C = rg.AffineMatrix(
        (1, n),
        base=np.r_[np.ones(4), 0.0, 0.0][None, :],
        terms=[(rg.Monomial(1.0, {"s": 5}), C1)],
    )
    B = rg.AffineMatrix.constant(np.r_[np.ones(4), 0.0, 0.0][:, None])
    sys = rg.ParametricSystem(Q, B, C, name="two_causes")
    training = [{"s": s} for s in (0.0, 1.0, 1e32j, 3j, 4j, 5j, 6j)]
    cfg = rg.GreedyConfig(
        kind="delta1pr", training_set=training, tolerance=1e-12, max_iterations=1,
        record_true_errors=True,
    )
    with pytest.warns(RuntimeWarning) as caught:
        res = rg.run_greedy(sys, cfg)
    assert res.skipped_samples == [1, 2]
    messages = [str(w.message) for w in caught]
    assert not any(" encountered in " in m for m in messages), messages  # none of numpy's
    singular, overflow = (
        [m for m in messages if m.startswith(f"skipping training sample {i} ")] for i in (1, 2)
    )
    assert len(singular) == len(overflow) == 1, messages
    assert singular[0].endswith("during true-error recording")
    assert overflow[0].endswith("during true-error recording")
    assert "operator of 'two_causes' is singular at {'s': 1.0}" in singular[0]
    assert "output map of 'two_causes' has non-finite entries at {'s': 1e+32j}" in overflow[0]
    assert not any("operator singular or H not finite" in m for m in messages)


def test_sweep_warning_names_a_non_finite_reduced_quantity():
    # B(s) = B0 + s^5 B1 with B1 = 1e150 on the rows Q decouples: at s = 1e32j
    # every reduced operator passes the LU rule, but the primal residual
    # carries B1's piece times 1e160 and its coordinates overflow, so the
    # sweep masks the sample for a reduced quantity, not for its operator
    sys, _ = decoupled_system("B")
    training = [{"s": s} for s in (0.0, 1e32j, 0.5j, 1j, 2j)]
    cfg = rg.GreedyConfig(
        kind="delta1pr", training_set=training, tolerance=1e-12, max_iterations=1,
        record_true_errors=False,
    )
    with pytest.warns(RuntimeWarning) as caught:
        res = rg.run_greedy(sys, cfg)
    assert [str(w.message) for w in caught] == [
        "training sample 1: reduced quantity not finite this iteration; "
        "sample skipped for the sweep"
    ]
    assert res.skipped_samples == []


@pytest.mark.parametrize("case", ["sparse", "dense", "input_map"])
def test_nonfinite_samples_are_skipped_by_sweep_and_validation(case):
    sys, extreme = _nonfinite_case(case)
    grid = _ladder_grid(12)
    # index 0 is the first main point (its expansion fails for good);
    # index 3 is no initial point, so only the sweep meets it, every iteration
    grid[0] = grid[3] = extreme
    cfg = rg.GreedyConfig(kind="delta2", training_set=grid, tolerance=1e-6)
    with pytest.warns(RuntimeWarning) as caught:
        res = rg.run_greedy(sys, cfg)
        report = rg.validate(sys, res, [extreme] + _ladder_grid(4))
    assert res.converged
    assert res.skipped_samples == [0]
    messages = [str(w.message) for w in caught]
    assert any(m.startswith("skipping training sample 0 ") for m in messages)
    # the ladders' reduced operators overflow at the extreme point; the input
    # map case's reduced operator is regular and its right-hand side overflows
    cause = "reduced quantity not finite" if case == "input_map" else "reduced operator singular"
    assert f"training sample 3: {cause} this iteration; sample skipped for the sweep" in messages
    assert report.skipped_singular == 1
    assert len(report.rows) == 4


# ---------------------------------------------------------------------------
# validation sweep


def test_validate_reports_effectivities():
    sys = rg.rc_ladder(150)
    train = _ladder_grid(25)
    cfg = rg.GreedyConfig(kind="delta2", training_set=train, tolerance=1e-4)
    res = rg.run_greedy(sys, cfg)
    check = rg.parse_grid(["f:2e-4:8e0:17:log"])
    report = rg.validate(sys, res, check)
    assert len(report.rows) == 17
    assert report.min_eff_filtered is not None
    assert 1e-2 <= report.min_eff_filtered <= report.max_eff_filtered <= 1e2
    assert report.skipped_singular == 0


def test_validate_flags_fully_converged_band():
    # an exact-width basis drives both estimate and error to roundoff,
    # which the report surfaces instead of dividing noise by noise
    sys = rg.rc_ladder(12)
    train = _ladder_grid(10)
    cfg = rg.GreedyConfig(kind="delta2", training_set=train, tolerance=1e-300, max_iterations=12)
    res = rg.run_greedy(sys, cfg)  # saturates at full order
    report = rg.validate(sys, res, _ladder_grid(6))
    assert report.all_below_threshold
    assert report.min_eff_filtered is None


def test_validate_counts_singular_validation_samples():
    sys = _resonant_system()
    train = [{"s": 0.5 + 1j * w} for w in np.linspace(0.3, 4.0, 8)]
    cfg = rg.GreedyConfig(kind="delta2", training_set=train, tolerance=1e-5, max_iterations=6)
    res = rg.run_greedy(sys, cfg)
    report = rg.validate(sys, res, [{"s": 2.0}, {"s": 0.5 + 1j}])
    assert report.skipped_singular == 1
    assert len(report.rows) == 1


def test_validation_sweep_memory_is_bounded_by_the_chunk():
    # The benchmark's mimo_validate workspace (r = 60/68/78) on its 150-sample
    # grid. One stack over all 150 samples peaks near 28 MB, chunks of 16
    # samples near 3 MB, and one sample at a time near 0.3 MB.
    sys = rg.mimo_block(300, 4)
    train = rg.parse_grid(["f:1e-2:1e1:40:log"])
    cfg = rg.GreedyConfig(kind="delta3pr", training_set=train, tolerance=1e-6,
                          record_true_errors=False)
    res = rg.run_greedy(sys, cfg)
    grid = rg.parse_grid(["f:1.07e-2:9.3e0:150:log"])
    rg.validate(sys, res, grid[:1])  # builds the Schur form the true errors share
    tracemalloc.start()
    try:
        report = rg.validate(sys, res, grid)
        _, peak = tracemalloc.get_traced_memory()
    finally:
        tracemalloc.stop()
    assert len(report.rows) == 150
    assert peak < 4e6, f"validation sweep peaked at {peak / 1e6:.2f} MB"


def test_validate_accepts_workspace_or_result():
    sys = rg.rc_ladder(60)
    cfg = rg.GreedyConfig(kind="delta1pr", training_set=_ladder_grid(10), tolerance=1e-3)
    res = rg.run_greedy(sys, cfg)
    grid = _ladder_grid(5)
    a = rg.validate(sys, res, grid)
    b = rg.validate(sys, res.workspace, grid, kind="delta1pr")
    assert [r.estimate for r in a.rows] == [r.estimate for r in b.rows]

