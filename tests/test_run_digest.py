"""The committed run-equivalence digest: reruns give identical results.

``tools/run_digest.py`` prints one SHA-256 per fixed reduce + validate
scenario, so two checkouts can be compared run by run. Here one scenario
runs twice in one process and must give the same digest and the same
values, and the values comparator must flag a point that moved.
"""

import copy
import importlib.util
import json
import pathlib

import numpy as np

import romgrid as rg
from romgrid import linalg

ROOT = pathlib.Path(__file__).resolve().parents[1]


def _run_digest():
    spec = importlib.util.spec_from_file_location("run_digest", ROOT / "tools" / "run_digest.py")
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module


def test_scenario_rerun_has_the_same_digest():
    tool = _run_digest()
    assert len(tool.SCENARIOS) == 26
    name = "rc_ladder:300 delta2 symmetric"
    first = tool.digest(name)
    assert len(first) == 64
    assert tool.digest(name) == first


def test_scenario_values_are_reproducible_and_a_moved_point_is_flagged():
    tool = _run_digest()
    name = "rc_ladder:300 delta2 symmetric"
    first = tool.values(name)
    # the dump survives JSON, as --values writes it and --compare reads it
    assert json.loads(json.dumps(first)) == first
    assert tool.values(name) == first
    assert first["iterations"] and first["validation_estimates"]
    assert len(first["validation_samples"]) == len(first["validation_estimates"]) == 25
    assert first["validation_skipped"] == 0
    same = tool.compare({name: first}, {name: first})[name]
    assert same["structure"] == [] and same["points"] == []
    assert same["max_estimate"] == same["validation_true_errors"] == 0.0
    assert same["gram_deviation"] <= 1e-13
    assert first["residual_dims"] and same["residual_dims"] == []

    moved = copy.deepcopy(first)
    moved["iterations"][1]["points"]["alpha"] = moved["iterations"][0]["points"]["main"]
    moved["iterations"][-1]["max_estimate"] *= 1.5
    found = tool.compare({name: first}, {name: moved})[name]
    assert found["points"] == [(2, "alpha")]
    assert found["structure"] == []
    assert 0.0 < found["max_estimate"] < 1.0


def test_compare_exits_nonzero_when_structure_or_points_differ(tmp_path, capsys):
    tool = _run_digest()
    name = "rc_ladder:300 delta2 symmetric"
    first = tool.values(name)
    dumps = {"parent": first}
    moved = dumps["moved_point"] = copy.deepcopy(first)
    moved["iterations"][1]["points"]["alpha"] = moved["iterations"][0]["points"]["main"]
    dumps["other_dim"] = dict(copy.deepcopy(first), rom_dim=first["rom_dim"] + 1)
    # one more validation sample skipped: the remaining rows' values could
    # all agree after the shift, so the changed row set itself must fail
    skipped = dumps["one_more_skipped"] = copy.deepcopy(first)
    for key in ("validation_samples", "validation_estimates", "validation_true_errors"):
        del skipped[key][0]
    skipped["validation_skipped"] += 1
    moved_sample = dumps["other_sample"] = copy.deepcopy(first)
    moved_sample["validation_samples"][0] = moved_sample["validation_samples"][1]
    # an estimate that moves, with the same points and structure, passes
    nudged = dumps["nudged_estimate"] = copy.deepcopy(first)
    nudged["iterations"][-1]["max_estimate"] *= 1.0 + 1e-9
    # a residual basis of another size is information, not structure
    grown = dumps["grown_residual_basis"] = copy.deepcopy(first)
    residual = next(iter(grown["residual_dims"]))
    grown["residual_dims"][residual] += 2
    paths = {}
    for label, dump in dumps.items():
        paths[label] = tmp_path / f"{label}.json"
        paths[label].write_text(json.dumps({name: dump}))
    expected = {
        "parent": 0, "nudged_estimate": 0, "grown_residual_basis": 0, "moved_point": 1,
        "other_dim": 1, "one_more_skipped": 1, "other_sample": 1,
    }
    for label, code in expected.items():
        assert tool.main(["--compare", str(paths["parent"]), str(paths[label])]) == code, label
        out = capsys.readouterr().out
        assert name in out
        assert (f"residual dims {residual} " in out) == (label == "grown_residual_basis"), label


def test_permuted_ladder_is_the_ladder_factored_by_superlu(monkeypatch):
    # the one scenario whose sparse operator is not banded keeps SuperLU
    # covered; it is the same system, so its run matches the ladder's
    permuted = _run_digest().permuted_ladder()
    kernels = []
    for name in ("_band_lu", "_superlu"):
        original = getattr(linalg, name)
        monkeypatch.setattr(
            linalg, name, lambda *args, f=original, name=name: kernels.append(name) or f(*args)
        )
    point = rg.frequency_point(0.37)
    got = permuted.transfer_function(point)
    assert kernels == ["_superlu"]
    want = rg.rc_ladder(300).transfer_function(point)
    assert np.allclose(got, want, rtol=1e-12, atol=0)
