"""The online workspace ``romgrid reduce`` stores and ``romgrid validate`` evaluates.

``reduce`` writes the greedy's final workspace as ``workspace.npz``, with
the Schur form its true errors built where they built one, and records the
SHA-256 of the file's zip directory in ``run.json``; ``validate`` evaluates
it where the acceptance rule takes the file and rebuilds the workspace from
the bases where it does not.
"""

import contextlib
import hashlib
import io
import json
import shutil

import numpy as np
import pytest
import scipy.io
import scipy.linalg
import scipy.sparse

import romgrid as rg
from romgrid.cli import main
from romgrid.errors import ProjectionMismatchError
from romgrid.estimators import REDUCED_MODELS
from romgrid.reports import write_report

from conftest import _breakdown_bits, bits, resave_workspace, schur_reductions

TRAIN = "f:1e-2:1e1:12:log"
GRID = "f:1.07e-2:9.3e0:20:log"
KINDS = ("delta_r", "delta1", "delta1pr", "delta2", "delta2pr", "delta3", "delta3pr")


def _reduce(run_dir, *source, estimator="delta2", tol="1e-8"):
    argv = ["reduce", *source, "--estimator", estimator, "--tol", tol, "--train", TRAIN,
            "--true-errors", "on", "--out", str(run_dir)]
    assert main(argv) in (0, 3)


@contextlib.contextmanager
def rebuilds():
    """Yields the list of ``EstimatorWorkspace.from_bases`` calls made meanwhile."""
    calls = []
    build = rg.EstimatorWorkspace.from_bases.__func__
    with pytest.MonkeyPatch.context() as patch:
        patch.setattr(
            rg.EstimatorWorkspace, "from_bases",
            classmethod(lambda cls, *args, **kwargs: calls.append(1) or build(cls, *args, **kwargs)),
        )
        yield calls


def _validate(run_dir):
    """The workspaces ``romgrid validate`` rebuilds on ``run_dir``, and the bytes it writes."""
    with rebuilds() as calls:
        assert main(["validate", str(run_dir), "--grid", GRID]) == 0
    written = [(run_dir / name).read_bytes() for name in ("effectivity.json", "effectivity.csv")]
    return len(calls), written


def _rebuilt(run_dir):
    """The bytes ``romgrid validate`` writes on ``run_dir`` without its stored state."""
    (run_dir / "workspace.npz").unlink(missing_ok=True)
    return _validate(run_dir)[1]


@pytest.mark.parametrize("spec, estimator", [("mimo_block:60,2,0", "delta2"),
                                             ("rc_ladder:80", "delta3pr")])
def test_cli_validate_writes_what_in_process_validate_writes(tmp_path, spec, estimator):
    run_dir = tmp_path / "run"
    _reduce(run_dir, "--synthetic", spec, estimator=estimator)
    rebuilt, written = _validate(run_dir)
    assert rebuilt == 0
    system = rg.generate_synthetic(spec)
    config = rg.GreedyConfig(kind=estimator, training_set=rg.parse_grid([TRAIN]),
                             tolerance=1e-8, record_true_errors=True)
    result = rg.run_greedy(system, config)
    report = rg.validate(system, result, rg.parse_grid([GRID]))
    write_report(report, csv_path=tmp_path / "report.csv", json_path=tmp_path / "report.json")
    assert written == [(tmp_path / name).read_bytes() for name in ("report.json", "report.csv")]


class _Unusable:
    """A full-order array the online step must not touch: every use raises."""

    def _used(self, *args, **kwargs):
        raise AssertionError("the online step used a full-order array")

    __array__ = __matmul__ = __rmatmul__ = __mul__ = __rmul__ = __add__ = __radd__ = _used
    __getitem__ = __len__ = __iter__ = _used

    def __getattr__(self, name):
        self._used()


def _make_unusable(system):
    """Replace every full-order array of ``system`` and of its dual, in place, by ``_Unusable``."""
    for side in (system, system.dual()):
        for letter in "QBC":
            family = getattr(side, letter)
            family.base = _Unusable()
            family.terms = tuple((monomial, _Unusable()) for monomial, _ in family.terms)
            vars(family).pop("pattern", None)
        vars(side).pop("_kernel", None)


def _bits(breakdown):
    return None if breakdown is None else _breakdown_bits(breakdown).tobytes()


PARAMETRIC = (["f:1e-2:1e0:8:log", "d=0.5,1,2", "alpha=0.02", "beta=0.05"],
              ["f:1.3e-2:0.9:5:log", "d=0.7,1.5", "alpha=0.02", "beta=0.05"])
FREQUENCY = ([TRAIN], [GRID])
STORED_CASES = [("random_stable:30,2", kind, FREQUENCY) for kind in KINDS] + [
    (spec, kind, grids)
    for spec, grids in (("rc_ladder:60", FREQUENCY), ("symmetric_second_order:20", PARAMETRIC))
    for kind in ("delta2", "delta3pr")
]


@pytest.mark.parametrize("spec, kind, grids", STORED_CASES,
                         ids=[f"{spec}-{kind}" for spec, kind, _ in STORED_CASES])
def test_a_loaded_workspace_evaluates_as_the_one_reduce_held(spec, kind, grids):
    system = rg.generate_synthetic(spec)
    train, grid = (rg.parse_grid(specs) for specs in grids)
    config = rg.GreedyConfig(kind=kind, training_set=train, tolerance=1e-6, max_iterations=8,
                             record_true_errors=False)
    held = rg.run_greedy(system, config).workspace
    want = rg.evaluate(kind, held, system, grid)
    stored = io.BytesIO()
    np.savez(stored, **held.to_arrays())
    stored.seek(0)
    with np.load(stored) as arrays:
        loaded = rg.EstimatorWorkspace.from_arrays(system, held.bases, dict(arrays))
    assert loaded.kind is held.kind and loaded.bases.keys() == held.bases.keys()
    # the reduced operators load in the layout they were grown in
    for model in REDUCED_MODELS:
        rom = getattr(loaded, model.field)
        if rom is not None:
            assert all(piece.flags.f_contiguous for _, piece in rom.system.Q.monomial_pieces())
            rom.V = rom.W = _Unusable()
    _make_unusable(system)
    got = rg.evaluate(kind, loaded, system, grid)
    assert [_bits(b) for b in got] == [_bits(b) for b in want]
    assert _bits(rg.evaluate(kind, loaded, system, grid[0])) == _bits(want[0])


def _without_bases(n=20):
    """``symmetric_second_order(n)`` with ``B = d B_1`` and ``C = C_1 / d``: terms and no base."""
    system = rg.symmetric_second_order(n)
    b = system.B.base
    B = rg.AffineMatrix(b.shape, terms=[(rg.Monomial(1.0, {"d": 1}), b)])
    C = rg.AffineMatrix(b.T.shape, terms=[(rg.Monomial(1.0, {"d": -1}), b.T)])
    return rg.ParametricSystem(system.Q, B, C, parameter_names=system.parameter_names)


@pytest.mark.parametrize("kind", ["delta2", "delta3pr"])
def test_maps_without_a_base_are_stored_by_their_pieces(tmp_path, kind):
    # the stored members follow monomial_pieces: <key>.B.0 is the term and no
    # zero base is stored, and validate takes that state bit for bit
    model, run_dir = tmp_path / "model", tmp_path / "run"
    rg.save_system(_without_bases(), model)
    train, grid = PARAMETRIC
    assert main(["reduce", "--manifest", str(model / "manifest.json"), "--estimator", kind,
                 "--tol", "1e-6", "--max-iter", "8", "--true-errors", "on", "--out", str(run_dir),
                 *(a for spec in train for a in ("--train", spec))]) in (0, 3)
    system = rg.load_system(model / "manifest.json")
    config = rg.GreedyConfig(kind=kind, training_set=rg.parse_grid(train), tolerance=1e-6,
                             max_iterations=8, record_true_errors=True)
    result = rg.run_greedy(system, config)
    with np.load(run_dir / "workspace.npz") as stored:
        for model_role in REDUCED_MODELS:
            rom = getattr(result.workspace, model_role.field)
            for letter in "BC" if rom is not None else "":
                key = f"{model_role.key}.{letter}."
                assert [name for name in stored.files if name.startswith(key)] == [key + "0"]
                term = getattr(rom.system, letter).terms[0][1]
                assert np.array_equal(bits(stored[key + "0"]), bits(term))
    grid_args = [a for spec in grid for a in ("--grid", spec)]
    with rebuilds() as calls:
        assert main(["validate", str(run_dir), *grid_args]) == 0
    assert calls == []
    report = rg.validate(system, result, rg.parse_grid(grid))
    write_report(report, csv_path=tmp_path / "report.csv", json_path=tmp_path / "report.json")
    for suffix in ("json", "csv"):
        want = (tmp_path / f"report.{suffix}").read_bytes()
        assert (run_dir / f"effectivity.{suffix}").read_bytes() == want


def test_a_reduced_base_that_is_exactly_zero_is_still_a_stored_piece():
    # C's base reads only coordinates that V has none of, so C_0 V is exactly
    # zero; it is stored as V.C.0 all the same, in C's monomial_pieces order
    n, s = 6, rg.Monomial(1.0, {"s": 1})
    Q = rg.AffineMatrix((n, n), base=-np.diag(np.arange(1.0, n + 1)), terms=[(s, np.eye(n))])
    B = rg.AffineMatrix.constant(np.r_[1.0, 1.0, 1.0, 0, 0, 0][:, None])
    C = rg.AffineMatrix((1, n), base=np.r_[0, 0, 0, 0, 1.0, 1.0][None, :],
                        terms=[(s, np.eye(n)[:1])])
    system = rg.ParametricSystem(Q, B, C)
    bases = {"V": rg.Basis(np.eye(n)[:, :3]), "V_du": rg.Basis(np.eye(n)[:, 2:])}
    held = rg.EstimatorWorkspace.from_bases(system, "delta1", bases["V"], V_du=bases["V_du"])
    arrays = held.to_arrays()
    assert not np.any(arrays["V.C.0"]) and np.array_equal(arrays["V.C.1"], [[1.0, 0, 0]])
    loaded = rg.EstimatorWorkspace.from_arrays(system, bases, arrays)
    point = {"s": 0.3 + 1j}
    assert _bits(rg.evaluate("delta1", loaded, system, point)) == _bits(
        rg.evaluate("delta1", held, system, point))


def _nudge(name):
    def edit(arrays):
        arrays[name][0, 0] += 1e-3
    return edit


def _missing(run_dir, model):
    (run_dir / "workspace.npz").unlink()


def _truncated(run_dir, model):
    path = run_dir / "workspace.npz"
    path.write_bytes(path.read_bytes()[: path.stat().st_size // 2])


def _edited_array(run_dir, model):
    resave_workspace(run_dir, _nudge("T.r_pr"))


def _byte_flipped(run_dir, model):
    # one byte of an array's data, in place: the zip directory is unchanged,
    # and np.load's CRC-32 check refuses the member as it reads it
    path = run_dir / "workspace.npz"
    data = bytearray(path.read_bytes())
    with np.load(path) as stored:
        at = data.find(stored["T.r_pr"].tobytes()[:64])
    assert at > 0
    data[at + 9] ^= 0x40
    path.write_bytes(bytes(data))


def _piece_edited_and_recorded(name):
    return lambda run_dir, model: resave_workspace(run_dir, _nudge(name), record=True)


def _not_finite_and_recorded(name):
    def edit(arrays):
        arrays[name][0, 0] = np.nan
    return lambda run_dir, model: resave_workspace(run_dir, edit, record=True)


def _foreign(run_dir, model):
    other = run_dir.parent / "other"
    _reduce(other, "--manifest", str(model / "manifest.json"), tol="1e-4")
    shutil.copyfile(other / "workspace.npz", run_dir / "workspace.npz")


def _manifest_edited(run_dir, model):
    path = str(model / "Q_base.mtx")
    a = scipy.io.mmread(path).tocsc()
    a[3, 3] += 0.5
    scipy.io.mmwrite(path, a, precision=17)


def _other_kind(run_dir, model):
    meta = json.loads((run_dir / "run.json").read_text())
    meta["estimator"] = "delta1"  # its bases, V and V_du, are stored
    (run_dir / "run.json").write_text(json.dumps(meta))


@pytest.mark.parametrize(
    "damage",
    [_missing, _truncated, _edited_array, _byte_flipped, _foreign, _manifest_edited, _other_kind,
     _piece_edited_and_recorded("V.Q.0"), _piece_edited_and_recorded("V_du.B.0"),
     _piece_edited_and_recorded("V_rdu.C.0"), _piece_edited_and_recorded("T.r_pr"),
     _piece_edited_and_recorded("R_B.r_du"),
     _piece_edited_and_recorded("XU.rom_dual_residual.W.dual"),
     _not_finite_and_recorded("T.r_pr"), _not_finite_and_recorded("XU.rom_dual_residual.W.dual")],
    ids=["missing", "truncated", "array_edited", "byte_flipped", "foreign", "manifest_edited",
         "other_kind", "Q_piece_recorded", "dual_B_piece_recorded", "dual_C_piece_recorded",
         "T_factor_recorded", "R_B_factor_recorded", "projection_recorded",
         "T_factor_nan_recorded", "projection_nan_recorded"],
)
def test_a_bad_stored_workspace_falls_back_to_the_rebuild(tmp_path, damage):
    model = tmp_path / "model"
    rg.save_system(rg.mimo_block(60, 2), model)
    run_dir = tmp_path / "run"
    _reduce(run_dir, "--manifest", str(model / "manifest.json"))
    assert _validate(run_dir)[0] == 0
    damage(run_dir, model)
    rebuilt, written = _validate(run_dir)
    assert rebuilt == 1
    assert written == _rebuilt(run_dir)


def test_stale_residual_factors_fall_back_to_the_rebuild(tmp_path):
    # Q_base += 0.5 u e_7^T with a real u that every stored basis X meets in
    # X^T u = 0: every reduced map W^T Q V, W^T B and C V stays as it was, and
    # only the residual factors (R_B, T) of [B_k | Q_j V] go stale
    model = tmp_path / "model"
    rg.save_system(rg.mimo_block(300, 2), model)
    run_dir = tmp_path / "run"
    _reduce(run_dir, "--manifest", str(model / "manifest.json"))
    assert _validate(run_dir)[0] == 0
    with np.load(run_dir / "bases.npz") as stored:
        bases = {key: rg.Basis(stored[key]) for key in stored.files}
    span = scipy.linalg.orth(np.hstack([part(b.columns) for b in bases.values()
                                        for part in (np.real, np.imag)]))
    u = np.random.default_rng(7).standard_normal(300)
    for _ in range(2):
        u -= span @ (span.T @ u)
    assert all(np.abs(b.columns.T @ u).max() < 1e-13 for b in bases.values())
    a = scipy.io.mmread(str(model / "Q_base.mtx")).toarray()
    a[:, 7] += 0.5 * u / np.linalg.norm(u)
    scipy.io.mmwrite(str(model / "Q_base.mtx"), scipy.sparse.coo_matrix(a), precision=17)
    system = rg.load_system(model / "manifest.json")
    with np.load(run_dir / "workspace.npz") as stored:
        arrays = dict(stored)
    with pytest.raises(ProjectionMismatchError, match="r_pr"):
        rg.EstimatorWorkspace.from_arrays(system, bases, arrays)
    arrays = {key: a for key, a in arrays.items() if not key.startswith(("T.", "R_B.", "XU."))}
    maps_only = rg.EstimatorWorkspace.from_arrays(system, bases, arrays)  # the maps all pass
    assert maps_only.kind is rg.EstimatorKind.DELTA_2
    rebuilt, written = _validate(run_dir)
    assert rebuilt == 1
    assert written == _rebuilt(run_dir)


@pytest.mark.parametrize("spec", ["mimo_block:60,2,0", "rc_ladder:80"])
def test_a_fresh_run_is_validated_from_its_stored_state(tmp_path, spec):
    run_dir = tmp_path / "run"
    _reduce(run_dir, "--synthetic", spec)
    with schur_reductions() as reductions:
        rebuilt, _ = _validate(run_dir)
    assert rebuilt == 0 and reductions == []


def test_a_run_directory_from_before_the_one_file_validates_by_the_rebuild(tmp_path):
    # the earlier layout: the Schur form in schur.npz, and run.json holding
    # the SHA-256 of workspace.npz's bytes
    run_dir = tmp_path / "run"
    _reduce(run_dir, "--synthetic", "mimo_block:60,2,0")
    with np.load(run_dir / "workspace.npz") as stored:
        arrays = dict(stored)
    np.savez(run_dir / "schur.npz", T=arrays.pop("schur.T"), Z=arrays.pop("schur.Z"))
    np.savez(run_dir / "workspace.npz", **arrays)
    meta = json.loads((run_dir / "run.json").read_text())
    del meta["workspace_directory_sha256"]
    meta["workspace_sha256"] = hashlib.sha256((run_dir / "workspace.npz").read_bytes()).hexdigest()
    (run_dir / "run.json").write_text(json.dumps(meta))
    with schur_reductions() as reductions:
        rebuilt, written = _validate(run_dir)
    assert rebuilt == 1 and len(reductions) == 1
    (run_dir / "schur.npz").unlink()
    assert written == _rebuilt(run_dir)
