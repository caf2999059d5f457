import contextlib
import io
import json
import shutil
import subprocess
import sys

import numpy as np
import pytest

import romgrid as rg
from romgrid.cli import main
from romgrid.reports import read_trace


def test_reduce_synthetic_writes_run_directory(tmp_path, capsys):
    out = tmp_path / "run"
    code = main([
        "reduce",
        "--synthetic", "rc_ladder:60",
        "--estimator", "delta2",
        "--tol", "1e-3",
        "--train", "f:1e-3:1e1:20:log",
        "--out", str(out),
    ])
    assert code == 0
    printed = capsys.readouterr().out
    assert "converged" in printed
    for name in ("trace.csv", "trace.json", "bases.npz", "run.json"):
        assert (out / name).exists()
    assert (out / "rom" / "manifest.json").exists()

    meta = json.loads((out / "run.json").read_text())
    assert meta["converged"] is True
    assert meta["estimator"] == "delta2"
    assert meta["n"] == 60
    assert meta["rom_dim"] >= 1

    trace = read_trace(out / "trace.csv")
    assert trace[-1].max_estimate <= 1e-3
    doc = json.loads((out / "trace.json").read_text())
    assert doc["stop_reason"] == "tolerance_met"

    bases = np.load(out / "bases.npz")
    assert {"V", "V_du", "V_rdu"} <= set(bases.files)

    # the stored reduced system reproduces the workspace transfer function
    rom = rg.load_system(out / "rom" / "manifest.json")
    assert rom.order == meta["rom_dim"]


def test_reduce_trace_table_follows_redirected_stdout():
    buffer = io.StringIO()
    with contextlib.redirect_stdout(buffer):
        code = main([
            "reduce", "--synthetic", "rc_ladder:40", "--tol", "1e-3",
            "--train", "f:1e-3:1e1:10:log",
        ])
    assert code == 0
    lines = buffer.getvalue().splitlines()
    assert lines[0].split() == ["iter", "max", "estimate", "max", "true", "err", "rom", "dim"]
    assert lines[1].split()[0] == "1"
    assert "converged" in lines[-1]


def test_reduce_exit_code_on_no_convergence(tmp_path):
    code = main([
        "reduce",
        "--synthetic", "rc_ladder:80",
        "--tol", "1e-13",
        "--max-iter", "1",
        "--train", "f:1e-3:1e1:10:log",
    ])
    assert code == 3


def test_reduce_unknown_generator_fails_cleanly(capsys):
    code = main(["reduce", "--synthetic", "nosuch:5"])
    assert code == 1
    assert "nosuch" in capsys.readouterr().err


def test_reduce_missing_training_parameter(capsys):
    # parametric system with a frequency-only grid must fail loudly
    code = main([
        "reduce",
        "--synthetic", "symmetric_second_order:10",
        "--train", "f:0.1:1:4:log",
    ])
    assert code == 1
    err = capsys.readouterr().err
    assert "parameter" in err.lower()


def test_validate_reads_run_back(tmp_path, capsys):
    out = tmp_path / "run"
    assert main([
        "reduce",
        "--synthetic", "rc_ladder:60",
        "--train", "f:1e-3:1e1:15:log",
        "--out", str(out),
    ]) == 0
    capsys.readouterr()
    code = main(["validate", str(out), "--grid", "f:2e-3:8e0:9:log"])
    assert code == 0
    printed = capsys.readouterr().out
    assert "effectivity" in printed.lower()
    assert (out / "effectivity.csv").exists()
    doc = json.loads((out / "effectivity.json").read_text())
    assert len(doc["rows"]) == 9


def test_compare_prints_table_and_csv(tmp_path, capsys):
    csv_path = tmp_path / "cmp.csv"
    code = main([
        "compare",
        "--synthetic", "rc_ladder:80",
        "--estimators", "delta1pr,delta2",
        "--train", "f:1e-3:1e1:12:log",
        "--out", str(csv_path),
    ])
    assert code == 0
    printed = capsys.readouterr().out
    assert "delta1pr" in printed and "delta2" in printed
    header = csv_path.read_text().splitlines()[0].split(",")
    assert header[0] == "iteration"
    assert "delta1pr_max_estimate" in header
    assert "delta2_max_true_error" in header


def test_demo_runs(capsys):
    assert main(["demo"]) == 0
    assert "converged" in capsys.readouterr().out


def test_manifest_source_round_trip(tmp_path, capsys):
    saved = rg.save_system(rg.rc_ladder(40), tmp_path / "model")
    out = tmp_path / "run"
    code = main([
        "reduce",
        "--manifest", str(saved),
        "--train", "f:1e-3:1e1:10:log",
        "--out", str(out),
    ])
    assert code == 0
    meta = json.loads((out / "run.json").read_text())
    assert meta["n"] == 40


def test_cli_argparse_rejects_unknown_estimator():
    with pytest.raises(SystemExit) as err:
        main(["reduce", "--synthetic", "rc_ladder:10", "--estimator", "delta9"])
    assert err.value.code == 2


def test_cli_requires_a_source():
    with pytest.raises(SystemExit) as err:
        main(["reduce"])
    assert err.value.code == 2


def test_module_entry_point_runs():
    proc = subprocess.run(
        [sys.executable, "-m", "romgrid", "--help"],
        capture_output=True, text=True, timeout=120,
    )
    assert proc.returncode == 0
    assert "reduce" in proc.stdout
    assert "validate" in proc.stdout


@pytest.mark.parametrize("estimator", ["delta2", "delta_r"])
def test_reduce_reruns_are_byte_identical(tmp_path, estimator):
    args = [
        "reduce",
        "--synthetic", "random_stable:40,2",
        "--estimator", estimator,
        "--tol", "1e-6",
        "--train", "f:1e-3:1e1:16:log",
        "--seed", "5",
    ]
    first, second = tmp_path / "first", tmp_path / "second"
    main([*args, "--out", str(first)])
    main([*args, "--out", str(second)])
    written = (first / "trace.csv").read_bytes()
    assert len(read_trace(first / "trace.csv")) >= 2
    assert written == (second / "trace.csv").read_bytes()


@pytest.fixture(scope="module")
def finished_run(tmp_path_factory):
    out = tmp_path_factory.mktemp("finished") / "run"
    assert main([
        "reduce", "--synthetic", "rc_ladder:40", "--estimator", "delta2",
        "--train", "f:1e-3:1e1:10:log", "--out", str(out),
    ]) == 0
    return out


def _edit_run_json(edit):
    def damage(run_dir):
        meta = json.loads((run_dir / "run.json").read_text())
        edit(meta)
        (run_dir / "run.json").write_text(json.dumps(meta))
    return damage


def _drop_basis(run_dir):
    with np.load(run_dir / "bases.npz") as stored:
        kept = {key: stored[key] for key in stored.files if key != "V_du"}
    np.savez(run_dir / "bases.npz", **kept)


@pytest.mark.parametrize(
    "damage, named",
    [
        (lambda run_dir: (run_dir / "bases.npz").unlink(), "bases.npz"),
        (lambda run_dir: (run_dir / "bases.npz").write_bytes(b"not an archive"), "bases.npz"),
        (_edit_run_json(lambda meta: meta.pop("system")), "system"),
        (_edit_run_json(lambda meta: meta.update(system={})), "system"),
        (_edit_run_json(lambda meta: meta.update(system="my_synthetic_case")), "system"),
        (_edit_run_json(lambda meta: meta.pop("estimator")), "estimator"),
        (_edit_run_json(lambda meta: meta.pop("train")), "train"),
        (_edit_run_json(lambda meta: meta.update(seed=None)), "seed"),
        (lambda run_dir: (run_dir / "run.json").write_text("[]\n"), "run.json"),
        (_drop_basis, "V_du"),
    ],
    ids=[
        "bases_missing", "bases_unreadable", "no_system", "empty_system", "string_system",
        "no_estimator", "no_train", "null_seed", "not_an_object", "basis_missing",
    ],
)
def test_validate_reports_damaged_run_directory(tmp_path, capsys, finished_run, damage, named):
    run_dir = tmp_path / "run"
    shutil.copytree(finished_run, run_dir)
    damage(run_dir)
    capsys.readouterr()
    assert main(["validate", str(run_dir)]) == 1
    err = capsys.readouterr().err
    assert err.startswith("error:")
    assert str(run_dir) in err and named in err
    assert "Traceback" not in err


def test_validate_after_manifest_moved(tmp_path, capsys):
    saved = rg.save_system(rg.rc_ladder(40), tmp_path / "model")
    out = tmp_path / "run"
    assert main([
        "reduce", "--manifest", str(saved), "--train", "f:1e-3:1e1:10:log", "--out", str(out),
    ]) == 0
    stored = json.loads((out / "run.json").read_text())["system"]["manifest"]
    (tmp_path / "model").rename(tmp_path / "moved")
    capsys.readouterr()
    assert main(["validate", str(out)]) == 1
    err = capsys.readouterr().err
    assert err.startswith("error:") and "Traceback" not in err
    assert f"cannot read manifest {stored}" in err
