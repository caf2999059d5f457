"""The Schur-form frequency response against the LU oracle.

A dense frequency-only system ``Q(s) = A0 + c*s*I`` gets ``H(s)`` from one
Schur form of ``A0`` (``ParametricSystem.transfer_function``); every other
family factors ``Q(s)`` at each point. Hypothesis draws real and complex
``A0``, the coefficient ``c`` and 1-3 ports: the response and the true
error must match ``C @ lu_factor(Q).solve(B)``, and both singularity rules
must give the same verdict at exact eigenvalues and where ``c*s``
overflows. The same points as one stack, and stacks cut into passes, must
give each point's one-point response and true error to the bit. Spies on
``linalg.ShiftedSchur`` and ``linalg.lu_factor`` show which families build
a form and that validation factors nothing per sample. ``romgrid
validate`` solves with the form ``romgrid reduce`` stored in
``workspace.npz`` and writes the same bytes as with a form it builds; a spy
on the Schur reduction shows it builds none, and a stale, damaged or
foreign form is never used: it refuses the whole file.
"""

import contextlib
import json
import re
import threading
from sys import getswitchinterval, setswitchinterval

import numpy as np
import pytest
import scipy.io
from hypothesis import HealthCheck, given, settings
from hypothesis import strategies as st

import romgrid as rg
from romgrid import greedy, linalg
from romgrid.cli import main
from romgrid.errors import DimensionMismatchError, SingularAtSampleError, SingularMatrixError

from conftest import (
    assert_stack_is_one_point_bitwise,
    complex_randn,
    random_orthonormal,
    resave_workspace,
    schur_reductions,
)

_EPS = np.finfo(np.float64).eps

PROPERTY = settings(
    max_examples=30,
    deadline=None,
    derandomize=True,
    database=None,
    suppress_health_check=[HealthCheck.too_slow],
)


def shifted_system(A0, c, B, C):
    """``Q(s) = A0 + c*s*I`` with constant input and output maps."""
    n = A0.shape[0]
    Q = rg.AffineMatrix((n, n), base=A0, terms=[(rg.Monomial(c, {"s": 1}), np.eye(n))])
    return rg.ParametricSystem(Q, rg.AffineMatrix.constant(B), rg.AffineMatrix.constant(C))


def draw_system(seed, n, complex_base, n_in, n_out, c):
    # spectrum of A0 in a disc of radius about 1 around 2, so Q(s) stays
    # well conditioned for Re(c*s) >= 0
    rng = np.random.default_rng(seed)
    g = complex_randn(rng, n, n) if complex_base else rng.standard_normal((n, n))
    A0 = 2.0 * np.eye(n) + g / np.sqrt(n)
    return shifted_system(A0, c, complex_randn(rng, n, n_in), complex_randn(rng, n_out, n))


def lu_response(sys, point):
    return sys.C.assemble(point) @ rg.lu_factor(sys.Q.assemble(point)).solve(sys.B.assemble(point))


def verdict(f):
    """None when ``f`` runs, else the message of the singularity it raised."""
    try:
        f()
    except SingularMatrixError as exc:
        return str(exc)
    return None


@contextlib.contextmanager
def spies(order):
    """Count Schur forms built, and full-order LUs made inside ``true_error``."""
    counts = {"forms": 0, "lu_under_true_error": 0}
    inside = []
    build, factor, true_error = linalg.ShiftedSchur, linalg.lu_factor, greedy.true_error

    class CountingSchur(build):
        def __init__(self, a, form=None):
            counts["forms"] += 1
            super().__init__(a, form)

    def counting_lu(a):
        if inside and a.shape[0] == order:
            counts["lu_under_true_error"] += 1
        return factor(a)

    def tracked_true_error(*args, **kwargs):
        inside.append(True)
        try:
            return true_error(*args, **kwargs)
        finally:
            inside.pop()

    with pytest.MonkeyPatch.context() as mp:
        mp.setattr(linalg, "ShiftedSchur", CountingSchur)
        mp.setattr(linalg, "lu_factor", counting_lu)
        mp.setattr(greedy, "true_error", tracked_true_error)
        yield counts


systems = st.tuples(
    st.integers(0, 2**31 - 1),
    st.integers(2, 24),
    st.booleans(),
    st.integers(1, 3),
    st.integers(1, 3),
    st.floats(0.25, 4.0),
)


@PROPERTY
@given(
    drawn=systems,
    shifts=st.lists(
        st.tuples(st.floats(0.0, 2.0), st.floats(-6.0, 6.0)), min_size=1, max_size=4
    ),
)
def test_schur_response_matches_lu_oracle(drawn, shifts):
    seed, n, complex_base, n_in, n_out, c = drawn
    sys = draw_system(seed, n, complex_base, n_in, n_out, c)
    V = random_orthonormal(np.random.default_rng(seed + 1), n, max(1, n // 3))
    ws = rg.EstimatorWorkspace.from_bases(sys, "delta1", V, V_du=V)
    with spies(n) as counts:
        for real, imag in shifts:
            point = {"s": complex(real, imag)}
            H = lu_response(sys, point)
            bound = 1e3 * n * _EPS * np.max(np.abs(H))
            assert np.max(np.abs(sys.transfer_function(point) - H)) <= bound
            H_hat = ws.rom_primal.transfer_function(point)
            exact = float(np.max(np.abs(H - H_hat)))
            assert abs(rg.true_error(sys, ws, point) - exact) <= bound
            assert abs(rg.true_error(sys, ws, point, verify_identity=True) - exact) <= bound
        # the same shifts as one stack, with one that overflows, in one pass and across passes
        points = [{"s": complex(real, imag)} for real, imag in shifts] + [{"s": 1.5e308j}]
        with np.errstate(over="ignore", invalid="ignore"):
            for chunk in (None, 1, 2):
                assert_stack_is_one_point_bitwise(sys, ws, points, chunk_points=chunk)
    assert counts["forms"] == 1


def _resonant_system(n=12):
    # s I - diag(1..n) is exactly singular at integer frequencies
    A = np.diag(np.arange(1.0, n + 1.0))
    b = np.ones((n, 1))
    return rg.from_first_order(np.eye(n), A, b, b.T)


@pytest.mark.parametrize("s", [1.0, 2.0, 12.0, 2.5, 0.5 + 1j])
def test_rules_agree_on_the_resonant_family(s):
    sys = _resonant_system()
    point = {"s": s}
    lu = verdict(lambda: sys.operator_lu(point))
    schur = verdict(lambda: sys.transfer_function(point))
    assert (lu is None) == (schur is None) == (s not in (1.0, 2.0, 12.0))
    if lu is None:
        assert np.max(np.abs(sys.transfer_function(point) - lu_response(sys, point))) <= (
            1e3 * sys.order * _EPS * np.max(np.abs(lu_response(sys, point)))
        )
    else:
        with pytest.raises(SingularAtSampleError, match=re.escape(repr(point))):
            sys.transfer_function(point)


@PROPERTY
@given(
    seed=st.integers(0, 2**31 - 1),
    n=st.integers(1, 12),
    complex_base=st.booleans(),
    c=st.sampled_from([0.5, 1.0, 2.0]),
)
def test_rules_agree_at_eigenvalues_of_a_diagonal_base(seed, n, complex_base, c):
    rng = np.random.default_rng(seed)
    d = complex_randn(rng, n) if complex_base else rng.standard_normal(n)
    sys = shifted_system(np.diag(d), c, np.ones((n, 1)), np.ones((1, n)))
    # c is a power of two, so c * s == -d[k] exactly: a zero pivot on both paths
    for k in range(n):
        point = {"s": complex(-d[k] / c)}
        assert verdict(lambda: sys.operator_lu(point)) is not None
        assert verdict(lambda: sys.transfer_function(point)) is not None
    # every eigenvalue in one stack, between two regular points
    stack = [{"s": 5.0 + 1j}] + [{"s": complex(-d[k] / c)} for k in range(n)] + [{"s": -5.0j}]
    V = random_orthonormal(rng, n, 1)
    ws = rg.EstimatorWorkspace.from_bases(sys, "delta1", V, V_du=V)
    usable = assert_stack_is_one_point_bitwise(sys, ws, stack)
    assert not any(usable[1:-1])


@pytest.mark.parametrize("s, singular", [(1e-12, True), (1e-8, False)])
def test_rules_agree_where_the_scale_is_off_the_diagonal(s, singular):
    # Q(s) = [[1 + s, 1e6], [0, s]]: the pivot s is tiny against the
    # diagonal but, at s = 1e-12, below the threshold 2 * eps * 1e6
    sys = shifted_system(np.array([[1.0, 1e6], [0.0, 0.0]]), 1.0, np.ones((2, 1)), np.ones((1, 2)))
    point = {"s": s}
    assert (verdict(lambda: sys.operator_lu(point)) is not None) == singular
    assert (verdict(lambda: sys.transfer_function(point)) is not None) == singular


@PROPERTY
@given(drawn=systems)
def test_rules_agree_where_the_coefficient_overflows(drawn):
    seed, n, complex_base, n_in, n_out, c = drawn
    sys = draw_system(seed, n, complex_base, n_in, n_out, c)
    point = {"s": 1.5e308j}
    with np.errstate(over="ignore", invalid="ignore"):
        lu = verdict(lambda: sys.operator_lu(point))
        schur = verdict(lambda: sys.transfer_function(point))
    assert (lu is None) == (schur is None)
    if c * 1.5e308 > np.finfo(np.float64).max:
        assert "non-finite" in lu and "non-finite" in schur
    # an input map B(s) = B0 + s^2 B1, not finite where s^2 overflows, in a
    # stack with a singular operator's overflow, in one pass and across passes
    rng = np.random.default_rng(seed + 1)
    B = rg.AffineMatrix(
        (n, n_in),
        base=complex_randn(rng, n, n_in),
        terms=[(rg.Monomial(1.0, {"s": 2}), complex_randn(rng, n, n_in))],
    )
    sys = rg.ParametricSystem(sys.Q, B, sys.C)
    V = random_orthonormal(rng, n, max(1, n // 3))
    ws = rg.EstimatorWorkspace.from_bases(sys, "delta1", V, V_du=V)
    stack = [{"s": 0.5j}, {"s": 1e200j}, point, {"s": 1.0 - 2.0j}]
    with np.errstate(over="ignore", invalid="ignore"):
        for chunk in (None, 1, 3):
            usable = assert_stack_is_one_point_bitwise(sys, ws, stack, chunk_points=chunk)
            assert usable[0] and not usable[1] and usable[3]
    with pytest.raises(SingularAtSampleError, match="input map"):
        sys.transfer_function({"s": 1e200j})


def test_threads_share_one_form():
    # a factorization's solve writes its shifted pivots onto the stored
    # triangle; with the lock taken away, a switch between that write and
    # the solve mixes shifts
    rng = np.random.default_rng(5)
    n = 40
    form = linalg.ShiftedSchur(2.0 * np.eye(n) + rng.standard_normal((n, n)) / np.sqrt(n))
    rhs = complex_randn(rng, n, 2)
    shifts = [1j * k for k in range(8)]
    expected = [lu.solve(rhs) for lu in form.factor(shifts)]
    mismatches = []

    def work(offset):
        for step in range(300):
            k = (offset + step) % len(shifts)
            if not np.array_equal(form.factor(shifts[k : k + 1])[0].solve(rhs), expected[k]):
                mismatches.append(k)

    interval = getswitchinterval()
    setswitchinterval(1e-6)
    try:
        threads = [threading.Thread(target=work, args=(i,)) for i in range(4)]
        for thread in threads:
            thread.start()
        for thread in threads:
            thread.join(timeout=60)
    finally:
        setswitchinterval(interval)
    assert not any(thread.is_alive() for thread in threads)
    assert mismatches == []


def test_a_right_hand_side_with_the_wrong_row_count_is_refused():
    # trtrs reports a bad leading dimension only through its info flag; the
    # factorization checks the shape first, as every kernel's does
    n = 6
    (lu,) = linalg.ShiftedSchur(2.0 * np.eye(n) + np.eye(n, k=1)).factor([1j])
    for view in (lu, lu.transposed()):
        with pytest.raises(DimensionMismatchError, match=f"{n - 1} rows"):
            view.solve(np.ones((n - 1, 1)))


def _dense_ladder():
    sys = rg.rc_ladder(30)
    return rg.ParametricSystem(sys.Q.densified(), sys.B, sys.C, name=sys.name)


@pytest.mark.parametrize(
    "build, point",
    [
        (_dense_ladder, {"s": 0.3j}),
        (lambda: rg.rc_ladder(30), {"s": 0.3j}),
        (
            lambda: rg.symmetric_second_order(20),
            {"s": 0.3j, "d": 1.0, "alpha": 0.01, "beta": 0.01},
        ),
    ],
    ids=["dense-ladder", "sparse-ladder", "symmetric-second-order"],
)
def test_other_families_build_no_form(build, point):
    sys = build()
    V = random_orthonormal(np.random.default_rng(0), sys.order, 3)
    ws = rg.EstimatorWorkspace.from_bases(sys, "delta1", V, V_du=V)
    with spies(sys.order) as counts:
        H = sys.transfer_function(point)
        rg.true_error(sys, ws, point)
    assert counts["forms"] == 0
    np.testing.assert_allclose(H, lu_response(sys, point), rtol=1e-12)
    stack = [dict(point, s=s) for s in (0.3j, 0.01j, 2.0j, 0.3j)]
    for chunk in (None, 1, 3):
        assert all(assert_stack_is_one_point_bitwise(sys, ws, stack, chunk_points=chunk))


def test_validate_factors_nothing_per_sample():
    sys = rg.mimo_block(60, 2)
    train = rg.parse_grid("f:1e-2:1e1:12:log")
    cfg = rg.GreedyConfig(
        kind="delta1pr", training_set=train, tolerance=1e-6, record_true_errors=False
    )
    result = rg.run_greedy(sys, cfg)
    with spies(sys.order) as counts:
        report = rg.validate(sys, result, rg.parse_grid("f:1.07e-2:9.3e0:20:log"))
    assert len(report.rows) == 20
    assert counts == {"forms": 1, "lu_under_true_error": 0}


def test_a_stored_form_solves_bitwise_as_the_built_one():
    rng = np.random.default_rng(11)
    n = 30
    a = 2.0 * np.eye(n) + rng.standard_normal((n, n)) / np.sqrt(n)
    built = linalg.ShiftedSchur(a)
    pristine = built._T.copy()
    shifts, rhs = [0.5j, 2.0 - 1.0j], [complex_randn(rng, n, 2)] * 2
    # leaves the last shift's pivots on the diagonal
    expected = [lu.solve(b) for lu, b in zip(built.factor(shifts), rhs)]
    with built.form() as (t, z):
        assert t is built._T and z is built.Z  # handed out, not copied
        assert np.array_equal(t, pristine)
        stored = t.copy(), z.copy()
    with schur_reductions() as reductions:
        loaded = linalg.ShiftedSchur(a, stored)
    assert reductions == []
    solved = [lu.solve(b) for lu, b in zip(loaded.factor(shifts), rhs)]
    assert all(np.array_equal(x, y) for x, y in zip(solved, expected))
    # the check refuses a form of another matrix, and nothing is built
    with schur_reductions() as reductions, pytest.raises(ValueError, match="Schur form"):
        linalg.ShiftedSchur(a + 1e-6 * np.eye(n, k=3), stored)
    assert reductions == []


GRID = "f:1.07e-2:9.3e0:20:log"


def _reduce(run_dir, *source, true_errors="on"):
    argv = ["reduce", *source, "--estimator", "delta2", "--tol", "1e-8",
            "--train", "f:1e-2:1e1:12:log", "--true-errors", true_errors, "--out", str(run_dir)]
    assert main(argv) in (0, 3)


def _validate(run_dir):
    """Schur reductions made by ``romgrid validate`` on ``run_dir``, and the bytes it writes."""
    with schur_reductions() as reductions:
        assert main(["validate", str(run_dir), "--grid", GRID]) == 0
    written = [(run_dir / name).read_bytes() for name in ("effectivity.json", "effectivity.csv")]
    return len(reductions), written


def _stored_arrays(run_dir):
    with np.load(run_dir / "workspace.npz") as stored:
        return stored.files


def _drop_form(arrays):
    del arrays["schur.T"], arrays["schur.Z"]


@pytest.mark.parametrize("spec", ["mimo_block:60,2,0", "random_stable:40,3"])
def test_validate_reuses_the_form_reduce_stored(tmp_path, spec):
    run_dir = tmp_path / "run"
    _reduce(run_dir, "--synthetic", spec)
    loaded = _validate(run_dir)
    # the same workspace without the form, recorded: the workspace is still taken
    resave_workspace(run_dir, _drop_form, record=True)
    built = _validate(run_dir)
    assert loaded[0] == 0 and built[0] == 1
    assert loaded[1] == built[1]


def test_only_a_built_schur_kernel_is_stored(tmp_path):
    run_dir = tmp_path / "run"
    _reduce(run_dir, "--synthetic", "mimo_block:60,2,0")
    assert {"schur.T", "schur.Z"} <= set(_stored_arrays(run_dir))
    # true errors off build no form, and a rerun into the same directory
    # leaves no form from the earlier run behind
    _reduce(run_dir, "--synthetic", "mimo_block:60,2,0", true_errors="off")
    assert not any(name.startswith("schur.") for name in _stored_arrays(run_dir))
    assert _validate(run_dir)[0] == 1
    _reduce(tmp_path / "ladder", "--synthetic", "rc_ladder:40")
    assert not any(name.startswith("schur.") for name in _stored_arrays(tmp_path / "ladder"))
    assert not list(tmp_path.glob("*/schur.npz"))


def _dense_manifest(directory, system):
    """``system`` (``E = I``) as a first-order manifest of array-format, hence dense, matrices."""
    directory.mkdir()
    matrices = {"E": np.eye(system.order), "A": -system.Q.base.real,
                "B": system.B.base.real, "C": system.C.base.real}
    for role, matrix in matrices.items():
        scipy.io.mmwrite(str(directory / f"{role}.mtx"), matrix, precision=17)
    entries = [{"role": role, "file": f"{role}.mtx"} for role in matrices]
    (directory / "manifest.json").write_text(
        json.dumps({"form": "first-order", "n": system.order, "n_inputs": system.n_inputs,
                    "n_outputs": system.n_outputs, "matrices": entries})
    )
    return directory / "manifest.json"


def _edit_form(edit, record=False):
    """Damage that edits the stored form; ``record`` writes the edited file's digest to run.json."""

    def edit_arrays(arrays):
        arrays["schur.T"], arrays["schur.Z"] = edit(arrays["schur.T"], arrays["schur.Z"])

    def damage(run_dir, model):
        resave_workspace(run_dir, edit_arrays, record=record)

    return damage


def _edit_manifest(run_dir, model):
    a = scipy.io.mmread(str(model / "A.mtx"))
    a[3, 7] += 0.5
    scipy.io.mmwrite(str(model / "A.mtx"), a, precision=17)


def _perturb(t, z):
    t[0, -1] += 1e-3
    return t, z


def _not_triangular(t, z):
    # another unitary similarity, A = (Z G) (G^H T G) (Z G)^H, with a full leading 2 x 2 block
    g = np.eye(len(t), dtype=complex)
    g[:2, :2] = [[0.6, -0.8], [0.8, 0.6]]
    return g.conj().T @ t @ g, z @ g


def _not_finite(t, z):
    t[2, 5] = np.nan
    return t, z


def _not_unitary(t, z):
    return t, 1.5 * z  # A (1.5 Z) = (1.5 Z) T still holds


def _wrong_shape(t, z):
    return t[:-1, :-1], z[:-1, :-1]


def _foreign(t, z):
    other = linalg.ShiftedSchur(-rg.mimo_block(60, 2, seed=1).Q.base)
    with other.form() as form:
        return form


def _truncate(run_dir, model):
    path = run_dir / "workspace.npz"
    path.write_bytes(path.read_bytes()[: path.stat().st_size // 2])


STRUCTURAL = {"T_entry": _perturb, "T_not_triangular": _not_triangular,
              "T_not_finite": _not_finite, "Z_not_unitary": _not_unitary,
              "wrong_shape": _wrong_shape, "foreign": _foreign}
#: Each damage, with whether it reaches ``_is_schur_form``: an edit the
#: digest in run.json does not record is refused before the form is looked at.
DAMAGES = {"stale": (_edit_manifest, True), "truncated": (_truncate, False)}
DAMAGES.update({name: (_edit_form(edit), False) for name, edit in STRUCTURAL.items()})
DAMAGES.update({f"{name}_recorded": (_edit_form(edit, record=True), True)
                for name, edit in STRUCTURAL.items()})


@pytest.mark.parametrize("damage, checked", DAMAGES.values(), ids=DAMAGES.keys())
def test_a_bad_stored_form_is_never_used(tmp_path, damage, checked):
    model = _dense_manifest(tmp_path / "model", rg.mimo_block(60, 2))
    run_dir = tmp_path / "run"
    _reduce(run_dir, "--manifest", str(model))
    assert "schur.T" in _stored_arrays(run_dir)
    damage(run_dir, model.parent)
    verdicts, check = [], linalg._is_schur_form

    def spy(*args):
        verdicts.append(check(*args))
        return verdicts[-1]

    with pytest.MonkeyPatch.context() as mp:
        mp.setattr(linalg, "_is_schur_form", spy)
        reductions, written = _validate(run_dir)
    assert verdicts == ([False] if checked else [])
    # the whole file is refused: the rebuild writes the same bytes
    (run_dir / "workspace.npz").unlink()
    assert reductions == 1
    assert written == _validate(run_dir)[1]
