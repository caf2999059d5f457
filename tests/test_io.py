import json

import numpy as np
import pytest

import romgrid as rg
from romgrid.errors import DimensionMismatchError, ManifestError, UnknownParameterNameError
from romgrid.manifest import read_matrix, write_matrix
from romgrid.reports import (
    TRACE_HEADER,
    format_point,
    parse_point,
    read_report,
    read_trace,
    write_report,
    write_trace_csv,
    write_trace_json,
)

from conftest import complex_randn, random_system


# ---------------------------------------------------------------------------
# point formatting


def test_format_point_sorted_and_parseable():
    pt = {"s": 1.0 + 2.0j, "d": -1.5}
    text = format_point(pt)
    assert text == "d=-1.5+0i;s=1+2i"
    back = parse_point(text)
    assert back == {"d": complex(-1.5, 0.0), "s": complex(1.0, 2.0)}


def test_format_point_full_precision():
    pt = {"s": complex(1.0 / 3.0, -2.0 / 7.0)}
    assert parse_point(format_point(pt))["s"] == pt["s"]


def test_format_point_none_is_empty():
    assert format_point(None) == ""
    assert parse_point("") is None


# ---------------------------------------------------------------------------
# traces


def _trace(rows):
    out = []
    for i in range(rows):
        out.append(
            rg.IterationRecord(
                iteration=i + 1,
                main_point={"s": complex(0.1 * (i + 1), 1.0)},
                alpha_point={"s": complex(0.2, -0.5)} if i % 2 == 0 else None,
                beta_point=None,
                gamma_point=None,
                max_estimate=10.0 ** (-i),
                max_true_error=0.5 * 10.0 ** (-i),
                rom_dimension=3 * (i + 1),
            )
        )
    return out


def _assert_round_trip(tmp_path, trace):
    write_trace_csv(tmp_path / "trace.csv", trace)
    write_trace_json(tmp_path / "trace.json", trace)
    assert read_trace(tmp_path / "trace.csv") == read_trace(tmp_path / "trace.json") == trace


def test_trace_csv_round_trip(tmp_path):
    trace = _trace(7)
    _assert_round_trip(tmp_path, trace)
    lines = (tmp_path / "trace.csv").read_text().splitlines()
    assert lines[0] == ",".join(TRACE_HEADER)
    assert len(lines) == 8  # header + one row per iteration


@pytest.mark.parametrize(
    "settings",
    [
        {"symmetric_variant": True, "record_true_errors": True},
        {"record_true_errors": False},
    ],
    ids=["symmetric_true_errors", "no_true_errors"],
)
def test_real_run_trace_round_trip(tmp_path, settings):
    config = rg.GreedyConfig(
        kind="delta2", training_set=rg.parse_grid(["f:1e-3:1e1:12:log"]), tolerance=1e-8,
        **settings,
    )
    trace = rg.run_greedy(rg.rc_ladder(40), config).trace
    assert len(trace) >= 2
    if settings.get("symmetric_variant"):
        assert all(record.gamma_point is not None for record in trace)
    else:
        assert all(record.max_true_error is None for record in trace)
    _assert_round_trip(tmp_path, trace)


def test_empty_trace_writes_header_only(tmp_path):
    path = tmp_path / "trace.csv"
    write_trace_csv(path, [])
    assert path.read_text() == ",".join(TRACE_HEADER) + "\n"
    assert read_trace(path) == []


def test_trace_json_round_trip(tmp_path):
    trace = _trace(3)
    path = tmp_path / "trace.json"
    write_trace_json(path, trace, extra={"estimator": "delta2", "converged": True})
    doc = json.loads(path.read_text())
    assert doc["estimator"] == "delta2"
    assert doc["converged"] is True
    assert len(doc["trace"]) == 3
    assert read_trace(path) == trace


def test_read_trace_rejects_foreign_header(tmp_path):
    path = tmp_path / "bad.csv"
    path.write_text("a,b,c\n1,2,3\n")
    with pytest.raises(ValueError):
        read_trace(path)


# ---------------------------------------------------------------------------
# effectivity reports


def test_effectivity_report_filtering():
    rows = [
        rg.EffectivityRow(sample={"s": 1j}, estimate=1.0, true_error=0.5, effectivity=2.0),
        rg.EffectivityRow(sample={"s": 2j}, estimate=1e-13, true_error=1e-13, effectivity=1.0),
        rg.EffectivityRow(sample={"s": 3j}, estimate=0.1, true_error=0.0, effectivity=None),
    ]
    rep = rg.EffectivityReport.from_rows(rows, skipped_singular=2)
    assert rep.min_eff_all == 1.0 and rep.max_eff_all == 2.0
    # only the first row survives the noise filter
    assert rep.min_eff_filtered == rep.max_eff_filtered == 2.0
    assert rep.max_true_error == 0.5
    assert rep.skipped_singular == 2
    assert not rep.all_below_threshold


def test_effectivity_report_all_noise():
    rows = [
        rg.EffectivityRow(sample={"s": 1j}, estimate=1e-14, true_error=1e-14, effectivity=1.0)
    ]
    rep = rg.EffectivityReport.from_rows(rows)
    assert rep.all_below_threshold
    assert rep.min_eff_filtered is None


def test_effectivity_report_without_rows_claims_nothing():
    # every sample skipped: no row is below the threshold, none is above it
    rep = rg.EffectivityReport.from_rows([], skipped_singular=2)
    assert not rep.all_below_threshold
    assert rep.skipped_singular == 2 and rep.min_eff_filtered is None


def test_report_round_trip(tmp_path):
    rows = [
        rg.EffectivityRow(sample={"s": 1j}, estimate=1.0, true_error=0.5, effectivity=2.0),
        rg.EffectivityRow(sample={"s": 2j}, estimate=0.2, true_error=0.4, effectivity=0.5),
    ]
    rep = rg.EffectivityReport.from_rows(rows)
    csv_path = tmp_path / "eff.csv"
    json_path = tmp_path / "eff.json"
    write_report(rep, csv_path=csv_path, json_path=json_path)
    assert csv_path.read_text().splitlines()[0] == "sample,estimate,true_error,effectivity"
    back = read_report(json_path)
    assert back.min_eff_all == 0.5
    assert back.max_eff_all == 2.0
    assert back.rows == rows


# ---------------------------------------------------------------------------
# grids


def test_frequency_grid_maps_to_laplace_samples():
    grid = rg.parse_grid(["f:0.01:1.0:5:log"])
    assert len(grid) == 5
    freqs = np.geomspace(0.01, 1.0, 5)
    for pt, f in zip(grid, freqs):
        assert set(pt) == {"s"}
        assert pt["s"] == pytest.approx(2j * np.pi * f)


def test_linear_spacing_and_explicit_lists():
    grid = rg.parse_grid(["w:1:3:3:lin"])
    assert [pt["w"] for pt in grid] == [pytest.approx(1.0), pytest.approx(2.0), pytest.approx(3.0)]
    grid = rg.parse_grid(["s=0.5+1i,-0.25-2i"])
    assert grid[0]["s"] == complex(0.5, 1.0)
    assert grid[1]["s"] == complex(-0.25, -2.0)


def test_grid_cross_product_order():
    grid = rg.parse_grid(["a=1,2", "b=10,20"])
    assert len(grid) == 4
    assert grid[0] == {"a": 1.0 + 0j, "b": 10.0 + 0j}
    # first component varies slowest
    assert grid[1]["a"] == 1.0 + 0j and grid[1]["b"] == 20.0 + 0j
    assert grid[2]["a"] == 2.0 + 0j


def test_grid_rejects_duplicates_and_garbage():
    with pytest.raises(ValueError):
        rg.parse_grid(["f:1:2:3:log", "f=1,2"])
    with pytest.raises(ValueError):
        rg.parse_grid(["f:1:2"])
    with pytest.raises(ValueError):
        rg.parse_grid(["f:-1:2:3:log"])  # log spacing needs positive endpoints
    with pytest.raises(ValueError):
        rg.parse_grid(["s=,"])


@pytest.mark.parametrize(
    "spec",
    ["f:nan:1:3:lin", "f:1:inf:3:log", "w:-inf:1:3:lin", "s=nan", "d=1,inf", "f:1:1e308:2:lin"],
)
def test_grid_rejects_values_that_are_not_finite(spec):
    # the last one overflows only when f is mapped to s = 2*pi*f*1j
    with pytest.raises(ValueError, match="not finite") as raised:
        rg.parse_grid(["d=1", spec])
    assert repr(spec) in str(raised.value)


def test_default_spec_parses_to_sixty_points():
    grid = rg.parse_grid([rg.DEFAULT_FREQUENCY_SPEC])
    assert len(grid) == 60


# ---------------------------------------------------------------------------
# matrix files and manifests


def test_matrix_round_trip_dense_complex(tmp_path, rng):
    m = complex_randn(rng, 5, 3)
    path = tmp_path / "m.mtx"
    write_matrix(path, m)
    assert np.array_equal(read_matrix(path).toarray(), m)


def test_matrix_round_trip_real_downcast(tmp_path):
    m = np.array([[1.0, 0.5], [0.25, -2.0]])
    path = tmp_path / "m.mtx"
    write_matrix(path, m.astype(np.complex128))
    text = path.read_text()
    assert "complex" not in text
    assert np.array_equal(read_matrix(path).toarray(), m.astype(np.complex128))


def test_symmetric_matrix_market_expands_both_triangles(tmp_path):
    path = tmp_path / "sym.mtx"
    path.write_text(
        "%%MatrixMarket matrix coordinate real symmetric\n"
        "3 3 4\n"
        "1 1 2.0\n"
        "2 1 -1.0\n"
        "2 2 2.0\n"
        "3 2 -0.5\n"
    )
    m = read_matrix(path).toarray()
    assert np.array_equal(m, m.T)
    assert m[0, 1] == -1.0 and m[1, 0] == -1.0
    assert m[1, 2] == -0.5


def _symmetry_classes(rng, n):
    a = complex_randn(rng, n, n)
    return {
        "symmetric": a + a.T,
        "skew-symmetric": a - a.T,
        "hermitian": a + a.conj().T,
        "general": a,
        "real symmetric": (a + a.T).real,
        "real skew-symmetric": (a - a.T).real,
        "real general": a.real,
        "triangular": np.triu(a),
    }


@pytest.mark.parametrize("n", [1, 5, 99])
def test_write_matrix_symmetry_matches_scipys_own_choice(tmp_path, rng, n):
    # the symmetry is decided by whole-array comparisons and passed to mmwrite;
    # the files must be the bytes scipy writes when it decides by itself
    import scipy.io
    import scipy.sparse

    headers = set()
    for name, matrix in _symmetry_classes(rng, n).items():
        ours, scipys = tmp_path / f"{name}-ours.mtx", tmp_path / f"{name}-scipy.mtx"
        write_matrix(ours, matrix)
        coo = scipy.sparse.coo_matrix(matrix.real if not np.any(matrix.imag) else matrix)
        scipy.io.mmwrite(str(scipys), coo, precision=17)
        assert ours.read_bytes() == scipys.read_bytes(), name
        headers.add(ours.read_text().splitlines()[0])
    if n > 1:
        assert {header.split()[-1] for header in headers} == {
            "symmetric", "skew-symmetric", "hermitian", "general"
        }


def test_read_matrix_reports_bad_files(tmp_path):
    path = tmp_path / "junk.mtx"
    path.write_text("not a matrix market file\n")
    with pytest.raises(ManifestError):
        read_matrix(path)
    with pytest.raises(ManifestError):
        read_matrix(tmp_path / "missing.mtx")


def test_save_load_round_trip(tmp_path, rng):
    sys = random_system(rng, 9, n_in=2, n_out=2)
    manifest = rg.save_system(sys, tmp_path / "model")
    loaded = rg.load_system(manifest)
    assert loaded.order == 9
    assert loaded.n_inputs == 2 and loaded.n_outputs == 2
    for _ in range(10):
        radius = 0.5 + rng.uniform(0.0, 1.0)
        pt = {"s": radius * np.exp(1j * rng.uniform(0.0, 2 * np.pi))}
        a = sys.transfer_function(pt)
        b = loaded.transfer_function(pt)
        assert np.max(np.abs(a - b)) <= 1e-13 * max(1.0, np.max(np.abs(a)))


def test_save_load_round_trip_parametric(tmp_path):
    sys = rg.symmetric_second_order(6, seed=3)
    manifest = rg.save_system(sys, tmp_path / "model")
    loaded = rg.load_system(manifest)
    pt = {"s": -0.1 + 1.2j, "d": 0.8, "alpha": 0.01, "beta": 0.02}
    assert np.allclose(
        loaded.transfer_function(pt), sys.transfer_function(pt), atol=1e-12
    )


def test_identity_manifest_has_unit_transfer(tmp_path):
    n = 4
    write_matrix(tmp_path / "Q.mtx", np.eye(n))
    e1 = np.zeros((n, 1)); e1[0, 0] = 1.0
    write_matrix(tmp_path / "B.mtx", e1)
    write_matrix(tmp_path / "C.mtx", e1.T)
    (tmp_path / "manifest.json").write_text(json.dumps({
        "name": "unit",
        "form": "affine-q",
        "n": n,
        "matrices": [
            {"role": "Q", "file": "Q.mtx"},
            {"role": "B", "file": "B.mtx"},
            {"role": "C", "file": "C.mtx"},
        ],
    }))
    sys = rg.load_system(tmp_path / "manifest.json")
    rng = np.random.default_rng(0)
    for _ in range(5):
        pt = {"s": complex(rng.uniform(-1, 1), rng.uniform(-1, 1))}
        assert sys.transfer_function(pt)[0, 0] == pytest.approx(1.0)


def test_first_order_manifest_with_parameter_terms(tmp_path):
    # E(d) = I + d K, A constant; checks monomial plumbing end to end
    n = 3
    rng = np.random.default_rng(1)
    K = rng.standard_normal((n, n)) * 0.1
    A = -np.eye(n) * 2.0
    b = np.ones((n, 1))
    write_matrix(tmp_path / "E0.mtx", np.eye(n))
    write_matrix(tmp_path / "E1.mtx", K)
    write_matrix(tmp_path / "A.mtx", A)
    write_matrix(tmp_path / "B.mtx", b)
    write_matrix(tmp_path / "C.mtx", b.T)
    (tmp_path / "manifest.json").write_text(json.dumps({
        "form": "first-order",
        "n": n,
        "parameters": ["d"],
        "matrices": [
            {"role": "E", "file": "E0.mtx"},
            {"role": "E", "file": "E1.mtx", "exponents": {"d": 1}},
            {"role": "A", "file": "A.mtx"},
            {"role": "B", "file": "B.mtx"},
            {"role": "C", "file": "C.mtx"},
        ],
    }))
    sys = rg.load_system(tmp_path / "manifest.json")
    pt = {"s": 1.0j, "d": 0.7}
    expected = 1.0j * (np.eye(n) + 0.7 * K) - A
    assert np.allclose(sys.Q.assemble(pt).toarray(), expected, atol=1e-13)


def test_manifest_error_paths(tmp_path):
    bad = tmp_path / "manifest.json"
    bad.write_text("{ not json")
    with pytest.raises(ManifestError) as err:
        rg.load_system(bad)
    assert "line" in str(err.value)

    bad.write_text(json.dumps({"form": "hexagonal", "n": 2, "matrices": []}))
    with pytest.raises(ManifestError):
        rg.load_system(bad)

    bad.write_text(json.dumps({
        "form": "affine-q", "n": 2,
        "matrices": [{"role": "Z", "file": "x.mtx"}],
    }))
    with pytest.raises(ManifestError):
        rg.load_system(bad)

    # missing role
    write_matrix(tmp_path / "Q.mtx", np.eye(2))
    bad.write_text(json.dumps({
        "form": "affine-q", "n": 2,
        "matrices": [{"role": "Q", "file": "Q.mtx"}],
    }))
    with pytest.raises(ManifestError):
        rg.load_system(bad)


def test_manifest_undeclared_parameter(tmp_path):
    write_matrix(tmp_path / "Q.mtx", np.eye(2))
    write_matrix(tmp_path / "B.mtx", np.ones((2, 1)))
    write_matrix(tmp_path / "C.mtx", np.ones((1, 2)))
    (tmp_path / "manifest.json").write_text(json.dumps({
        "form": "affine-q", "n": 2,
        "matrices": [
            {"role": "Q", "file": "Q.mtx", "exponents": {"mystery": 1}},
            {"role": "B", "file": "B.mtx"},
            {"role": "C", "file": "C.mtx"},
        ],
    }))
    with pytest.raises(UnknownParameterNameError):
        rg.load_system(tmp_path / "manifest.json")


def test_manifest_shape_mismatch(tmp_path):
    write_matrix(tmp_path / "Q.mtx", np.eye(3))
    write_matrix(tmp_path / "B.mtx", np.ones((2, 1)))
    write_matrix(tmp_path / "C.mtx", np.ones((1, 2)))
    (tmp_path / "manifest.json").write_text(json.dumps({
        "form": "affine-q", "n": 2,
        "matrices": [
            {"role": "Q", "file": "Q.mtx"},
            {"role": "B", "file": "B.mtx"},
            {"role": "C", "file": "C.mtx"},
        ],
    }))
    with pytest.raises(DimensionMismatchError):
        rg.load_system(tmp_path / "manifest.json")


def _same_files(first, second):
    names = sorted(p.name for p in first.iterdir())
    assert names == sorted(p.name for p in second.iterdir())
    for name in names:
        assert (first / name).read_bytes() == (second / name).read_bytes(), name


def test_sparse_system_round_trip_stays_sparse(tmp_path):
    sys = rg.rc_ladder(30)
    loaded = rg.load_system(rg.save_system(sys, tmp_path / "a"))
    assert loaded.Q.is_sparse
    # real data stays real
    assert all(m.dtype == np.float64 for _, m in loaded.Q.monomial_pieces())
    assert not loaded.B.is_sparse and not loaded.C.is_sparse
    for pt in ({"s": 0.3 + 0.7j}, {"s": 2j * np.pi * 1e-3}):
        got, want = loaded.Q.assemble(pt), sys.Q.assemble(pt)
        assert isinstance(got, rg.linalg.SparseOperator)
        assert (got != want).nnz == 0
        assert np.array_equal(loaded.transfer_function(pt), sys.transfer_function(pt))
    rg.save_system(loaded, tmp_path / "b")
    _same_files(tmp_path / "a", tmp_path / "b")


def test_dense_system_round_trip_writes_identical_files(tmp_path, rng):
    # matrix files hold coordinate data, so the loaded operator is sparse;
    # its pieces equal the dense ones, and saving it again writes the same bytes
    sys = random_system(rng, 9, n_in=2, n_out=2)
    loaded = rg.load_system(rg.save_system(sys, tmp_path / "a"))
    assert loaded.Q.is_sparse
    for (m_got, got), (m_want, want) in zip(loaded.Q.monomial_pieces(), sys.Q.monomial_pieces()):
        assert m_got == m_want
        assert np.array_equal(got.toarray(), want)
    assert np.array_equal(loaded.B.base, sys.B.base)
    assert np.array_equal(loaded.C.base, sys.C.base)
    pt = {"s": 0.3 + 0.7j}
    want = sys.Q.assemble(pt)
    eps = np.finfo(np.float64).eps
    # elementwise products may round differently in numpy's vector and scalar loops
    assert np.max(np.abs(loaded.Q.assemble(pt).toarray() - want)) <= 2 * eps * np.max(np.abs(want))
    rg.save_system(loaded, tmp_path / "b")
    _same_files(tmp_path / "a", tmp_path / "b")


def test_reduced_manifest_round_trip_writes_identical_files(tmp_path):
    from romgrid.cli import main

    out = tmp_path / "run"
    assert main([
        "reduce", "--synthetic", "mimo_block:30,2", "--estimator", "delta1",
        "--tol", "1e-4", "--train", "f:1e-2:1e1:8:log", "--out", str(out),
    ]) == 0
    rom = rg.load_system(out / "rom" / "manifest.json")
    rg.save_system(rom, tmp_path / "again")
    _same_files(out / "rom", tmp_path / "again")


def test_write_matrix_accepts_sparse(tmp_path):
    import scipy.sparse

    dense = np.array([[0.0, 1.5, 0.0], [-2.0, 0.0, 0.25]])
    write_matrix(tmp_path / "dense.mtx", dense)
    write_matrix(tmp_path / "csc.mtx", scipy.sparse.csc_array(dense))
    write_matrix(tmp_path / "csr.mtx", scipy.sparse.csr_array(dense.astype(np.complex128)))
    reference = (tmp_path / "dense.mtx").read_bytes()
    assert (tmp_path / "csc.mtx").read_bytes() == reference
    assert (tmp_path / "csr.mtx").read_bytes() == reference
    back = read_matrix(tmp_path / "csc.mtx")
    assert scipy.sparse.issparse(back) and back.dtype == np.float64
    assert np.array_equal(back.toarray(), dense)


def test_array_format_reads_dense(tmp_path):
    path = tmp_path / "array.mtx"
    path.write_text("%%MatrixMarket matrix array real general\n2 2\n1.0\n0.0\n-3.0\n4.5\n")
    m = read_matrix(path)
    assert isinstance(m, np.ndarray) and m.dtype == np.complex128
    assert np.array_equal(m, [[1.0, -3.0], [0.0, 4.5]])
