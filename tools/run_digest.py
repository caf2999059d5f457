"""Print one SHA-256 digest per fixed reduce + validate scenario, or their values.

    python tools/run_digest.py
    python tools/run_digest.py --values > change.json
    python tools/run_digest.py --compare parent.json change.json

Run it from the root of a checkout; it imports romgrid from ``src/``. Each
scenario is a ``romgrid reduce`` followed by ``romgrid validate``, both run
in process through ``romgrid.cli.main`` into a temporary run directory. Its
digest covers ``trace.csv``, ``trace.json``, ``effectivity.json`` and the
arrays of ``bases.npz`` (member names and bytes, not the zip container,
whose entries carry the time they were written). ``workspace.npz`` is left
out on purpose: it is the run's stored state, the greedy's last online
workspace and the Schur form ``reduce`` built for its true errors, which
``validate`` evaluates when it accepts the file, so the digested true
errors and ``effectivity.json`` already depend on it. ``run.json``, which
records the digest of that file's zip directory, is not digested either.
The output is one ``<digest>  <scenario>`` line per
scenario; two checkouts whose outputs are equal produce byte-identical
run results on this machine. Run as a script it pins BLAS to one thread,
as the benchmark does: a threaded BLAS sums in another order, and every
digest changes with the thread count.

``--values`` prints, as one JSON object keyed by scenario, the numbers a
change that reorders arithmetic may move: per iteration the points of every
role, ``rom_dim``, ``max_estimate`` and ``max_true_error``; the final
``rom_dim``, convergence and stop reason; the sample, estimate and true
error of every validation row, and the number of validation samples
skipped as singular; the dimension and ``gram_deviation`` of every
stored basis; and, per residual, the row count of its stored factor
(``T.<name>`` in ``workspace.npz``), the size of its residual basis.
``--compare`` reads two such dumps and prints one line per scenario:
structural mismatches (iteration count, ``rom_dim`` per iteration,
convergence, stop reason, final basis dimensions, the validation rows'
samples, the skip count), the (iteration, role) pairs whose points differ,
the largest deviation of the estimates (per iteration and in validation)
relative to the run's largest estimate, the same for the true errors, the
largest ``gram_deviation``, and the residual-basis sizes that differ. It
exits with status 1 when any scenario's structure or points differ, so the
comparison can gate a change. The residual-basis sizes are information,
not structure: a change to how residual bases grow moves them while every
run result holds.

The set:

- all seven estimators on ``rc_ladder:300`` and on ``random_stable:80``;
- the separate-dual-point variant of ``delta1``, ``delta2``, ``delta2pr``
  on ``rc_ladder:300``;
- all seven estimators on ``symmetric_second_order:40`` over a grid of
  frequencies times damping values ``d``;
- ``delta3pr`` on ``mimo_block:300,4`` with true errors on, validated on
  150 samples (the ``mimo_validate`` benchmark workload);
- ``delta2`` on ``rc_ladder:300`` with its nodes in a fixed permuted order,
  read from a manifest written into the run's temporary directory. Every
  other sparse operator in the set is tridiagonal and factored by the band
  LU; this one is not banded, so SuperLU factors it. Its values match the
  unpermuted ``rc_ladder:300 delta2`` run's to roundoff.

26 scenarios in all.

Byte identity is the bar for a change that keeps the order of every
floating-point operation. A change that reorders arithmetic cannot meet
it, and cannot be held to a 1e-12 relative tolerance either: on the
symmetric ``delta2`` ladder run over ``f:1e-3:1e1:40:log`` at tolerance
1e-8, changing the ladder's ``coupling`` by one ulp moves the iteration-2
maximum estimate by about 7e-9 of itself, because near convergence the
estimate is a difference of nearly equal reduced quantities. The MIMO
scenario is more sensitive still: changing one entry of its ``A`` or ``B``
by one ulp (``np.nextafter``; entries ``A[0,0]``, ``A[17,123]``,
``A[299,1]``, ``B[0,0]``) moves its iteration-3 maximum estimate by 7.4e-6
to 6.7e-5 of itself, 1.1e-8 to 9.5e-8 of the run's largest estimate, and
its last estimate by 2.5% to 7.4% of itself, while the points stay the same
and the true errors agree to 1.6e-13 of the largest. Such a change needs
its own stated roundoff bound, measured against this sensitivity, and a
check that the greedy picks the same points: ``--values`` and
``--compare`` give both.
"""

import argparse
import contextlib
import hashlib
import io
import json
import os
import pathlib
import sys
import tempfile
import zipfile

if __name__ == "__main__":  # before numpy is loaded; an importer keeps its own settings
    for name in ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS"):
        os.environ[name] = "1"

ROOT = pathlib.Path(__file__).resolve().parent.parent
sys.path.insert(0, str(ROOT / "src"))

import numpy as np  # noqa: E402

from romgrid import cli  # noqa: E402
from romgrid.generators import rc_ladder  # noqa: E402
from romgrid.linalg import gram_deviation  # noqa: E402
from romgrid.manifest import save_system  # noqa: E402
from romgrid.reports import ROLES  # noqa: E402
from romgrid.system import ParametricSystem  # noqa: E402

KINDS = ("delta_r", "delta1", "delta1pr", "delta2", "delta2pr", "delta3", "delta3pr")
_LADDER = (["--train", "f:1e-3:1e1:40:log", "--tol", "1e-8"], ["--grid", "f:1.3e-3:8e0:25:log"])
_STABLE = (["--train", "f:1e-2:1e1:40:log", "--tol", "1e-6"], ["--grid", "f:1.07e-2:9.3e0:25:log"])
_PARAMETRIC = (
    ["--train", "f:1e-2:1e0:8:log", "--train", "d=0.5,1,2",
     "--train", "alpha=0.02", "--train", "beta=0.05", "--tol", "1e-6", "--max-iter", "8"],
    ["--grid", "f:1.3e-2:0.9:5:log", "--grid", "d=0.7,1.5",
     "--grid", "alpha=0.02", "--grid", "beta=0.05"],
)
_MIMO = (
    ["--train", "f:1e-2:1e1:40:log", "--tol", "1e-6", "--true-errors", "on"],
    ["--grid", "f:1.07e-2:9.3e0:150:log"],
)


def _scenarios():
    """Scenario name -> (reduce arguments, validate arguments)."""
    runs = [("rc_ladder:300", kind, _LADDER, []) for kind in KINDS]
    runs += [("random_stable:80", kind, _STABLE, []) for kind in KINDS]
    runs += [
        ("rc_ladder:300", kind, _LADDER, ["--symmetric-variant"])
        for kind in ("delta1", "delta2", "delta2pr")
    ]
    runs += [("symmetric_second_order:40", kind, _PARAMETRIC, []) for kind in KINDS]
    runs += [("mimo_block:300,4,0", "delta3pr", _MIMO, [])]
    scenarios = {}
    for system, kind, (train, grid), extra in runs:
        name = " ".join([system, kind] + (["symmetric"] if extra else []))
        scenarios[name] = (["--synthetic", system, "--estimator", kind, *extra, *train], grid)
    scenarios["rc_ladder:300 permuted delta2"] = (
        ["--manifest", _PERMUTED_LADDER, "--estimator", "delta2", *_LADDER[0]], _LADDER[1]
    )
    return scenarios


#: Stands for the manifest of ``permuted_ladder()``, written when a scenario runs.
_PERMUTED_LADDER = "<permuted rc_ladder:300 manifest>"
SCENARIOS = _scenarios()


def permuted_ladder(n=300):
    """``rc_ladder(n)`` with its nodes renumbered by a fixed permutation.

    The system ``P Q P^T x = P B``, ``y = C P^T x``: the same transfer
    function, on an operator whose bandwidths are close to ``n``.
    """
    ladder = rc_ladder(n)
    order = np.random.default_rng(0).permutation(n)
    return ParametricSystem(
        ladder.Q.map_matrices(lambda m: m[order][:, order]),
        ladder.B.map_matrices(lambda m: m[order]),
        ladder.C.map_matrices(lambda m: m[:, order]),
        parameter_names=ladder.parameter_names,
        name=f"rc_ladder_{n}_permuted",
    )


@contextlib.contextmanager
def _run(name):
    """Reduce and validate one scenario into a temporary run directory; yields its path."""
    reduce_args, validate_args = SCENARIOS[name]
    with tempfile.TemporaryDirectory(prefix="run-digest-") as run_dir:
        if _PERMUTED_LADDER in reduce_args:
            manifest = str(save_system(permuted_ladder(), pathlib.Path(run_dir) / "system"))
            reduce_args = [manifest if a == _PERMUTED_LADDER else a for a in reduce_args]
        with contextlib.redirect_stdout(io.StringIO()):
            code = cli.main(["reduce", *reduce_args, "--out", run_dir])
            if code not in (0, 3):  # 3: stopped without converging, still a result
                raise RuntimeError(f"{name}: romgrid reduce exited with {code}")
            code = cli.main(["validate", run_dir, *validate_args])
            if code != 0:
                raise RuntimeError(f"{name}: romgrid validate exited with {code}")
        yield pathlib.Path(run_dir)


def digest(name):
    """SHA-256 of one scenario's run results (see the module docstring)."""
    sha = hashlib.sha256()
    with _run(name) as run:
        for file_name in ("trace.csv", "trace.json", "effectivity.json"):
            sha.update(file_name.encode() + b"\0" + (run / file_name).read_bytes())
        with zipfile.ZipFile(run / "bases.npz") as stored:
            for member in sorted(stored.namelist()):
                sha.update(member.encode() + b"\0" + stored.read(member))
    return sha.hexdigest()


def values(name):
    """One scenario's run results as plain JSON values (see the module docstring)."""
    with _run(name) as run:
        trace = json.loads((run / "trace.json").read_text())
        report = json.loads((run / "effectivity.json").read_text())
        with np.load(run / "bases.npz") as stored:
            bases = {key: stored[key] for key in sorted(stored.files)}
        with np.load(run / "workspace.npz") as stored:
            factors = {
                key[2:]: stored[key].shape[0]
                for key in sorted(stored.files)
                if key.startswith("T.")
            }
    rows = trace["trace"]
    return {
        "iterations": [
            {
                "points": {role: row[f"{role}_point"] for role in ROLES},
                "rom_dim": row["rom_dim"],
                "max_estimate": row["max_estimate"],
                "max_true_error": row["max_true_error"],
            }
            for row in rows
        ],
        "rom_dim": rows[-1]["rom_dim"],
        "converged": trace["converged"],
        "stop_reason": trace["stop_reason"],
        "validation_samples": [row["sample"] for row in report["rows"]],
        "validation_skipped": report["summary"]["skipped_singular"],
        "validation_estimates": [row["estimate"] for row in report["rows"]],
        "validation_true_errors": [row["true_error"] for row in report["rows"]],
        "basis_dims": {key: basis.shape[1] for key, basis in bases.items()},
        "gram_deviation": {key: gram_deviation(basis) for key, basis in bases.items()},
        "residual_dims": factors,
    }


def _largest(*series):
    """Largest magnitude in the given value series, None entries skipped; 0.0 if none."""
    return max((abs(v) for values in series for v in values if v is not None), default=0.0)


def _deviation(first, second, scale):
    """Largest ``|a - b|`` over aligned entries, divided by ``scale``.

    Entries that are None on both sides are skipped; None on one side only
    counts as an infinite deviation. 0.0 when ``scale`` is zero.
    """
    worst = 0.0
    for a, b in zip(first, second):
        if a is None and b is None:
            continue
        if a is None or b is None:
            return float("inf")
        worst = max(worst, abs(a - b))
    return worst / scale if scale else 0.0


def compare(parent, change):
    """Scenario name -> the differences between two ``values`` dumps.

    Each entry holds ``structure`` (list of mismatch descriptions),
    ``points`` (list of ``(iteration, role)`` pairs whose points differ),
    the deviations of ``max_estimate`` and the validation estimates relative
    to the run's largest estimate, those of ``max_true_error`` and the
    validation true errors relative to the run's largest true error (largest
    over trace and validation, both dumps), ``gram_deviation``, the
    largest over both dumps' bases, and ``residual_dims``, the residuals
    whose basis sizes differ as ``(name, parent size, change size)``, None
    where a dump has no such residual (a dump written before the sizes were
    recorded has none).
    """
    out = {}
    for name in parent:
        a, b = parent[name], change[name]
        structure = [
            f"{key} {a[key]!r} != {b[key]!r}"
            for key in ("converged", "stop_reason", "rom_dim", "basis_dims", "validation_skipped")
            if a[key] != b[key]
        ]
        # the validation deviations below pair rows by position: only valid on the same samples
        if a["validation_samples"] != b["validation_samples"]:
            structure.append(
                f"validation samples differ ({len(a['validation_samples'])} rows "
                f"!= {len(b['validation_samples'])})"
            )
        if len(a["iterations"]) != len(b["iterations"]):
            structure.append(f"iterations {len(a['iterations'])} != {len(b['iterations'])}")
        pairs = list(zip(a["iterations"], b["iterations"]))
        points = []
        for iteration, (row_a, row_b) in enumerate(pairs, start=1):
            if row_a["rom_dim"] != row_b["rom_dim"]:
                structure.append(
                    f"iteration {iteration} rom_dim {row_a['rom_dim']} != {row_b['rom_dim']}"
                )
            points += [
                (iteration, role)
                for role in ROLES
                if row_a["points"][role] != row_b["points"][role]
            ]
        found = {"structure": structure, "points": points}
        for trace_key, validation_key in (
            ("max_estimate", "validation_estimates"),
            ("max_true_error", "validation_true_errors"),
        ):
            trace_a = [row[trace_key] for row in a["iterations"]]
            trace_b = [row[trace_key] for row in b["iterations"]]
            scale = _largest(trace_a, trace_b, a[validation_key], b[validation_key])
            found[trace_key] = _deviation(trace_a, trace_b, scale)
            found[validation_key] = _deviation(a[validation_key], b[validation_key], scale)
        found["gram_deviation"] = max(
            [*a["gram_deviation"].values(), *b["gram_deviation"].values()]
        )
        sizes_a, sizes_b = a.get("residual_dims", {}), b.get("residual_dims", {})
        found["residual_dims"] = [
            (key, sizes_a.get(key), sizes_b.get(key))
            for key in sorted(sizes_a.keys() | sizes_b.keys())
            if sizes_a.get(key) != sizes_b.get(key)
        ]
        out[name] = found
    return out


def _print_comparison(parent_path, change_path):
    """Print the comparison table; returns 1 when a structure or a point differs, else 0."""
    with open(parent_path) as handle:
        parent = json.load(handle)
    with open(change_path) as handle:
        change = json.load(handle)
    differs = False
    for name, found in compare(parent, change).items():
        differs = differs or bool(found["structure"] or found["points"])
        structure = "; ".join(found["structure"]) or "same"
        points = ", ".join(f"{role}@{iteration}" for iteration, role in found["points"]) or "same"
        sizes = ", ".join(f"{key} {a} -> {b}" for key, a, b in found["residual_dims"]) or "same"
        print(
            f"{name}: structure {structure}; points {points}; "
            f"max_estimate {found['max_estimate']:.2e}; "
            f"max_true_error {found['max_true_error']:.2e}; "
            f"validation estimates {found['validation_estimates']:.2e}, "
            f"true errors {found['validation_true_errors']:.2e}; "
            f"gram_deviation {found['gram_deviation']:.1e}; "
            f"residual dims {sizes}"
        )
    return 1 if differs else 0


def main(argv=None):
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    mode = parser.add_mutually_exclusive_group()
    mode.add_argument("--values", action="store_true", help="print every scenario's values as JSON")
    mode.add_argument(
        "--compare", nargs=2, metavar=("PARENT", "CHANGE"), help="compare two --values dumps"
    )
    args = parser.parse_args(argv)
    if args.compare:
        return _print_comparison(*args.compare)
    if args.values:
        print(json.dumps({name: values(name) for name in SCENARIOS}, indent=1))
    else:
        for name in SCENARIOS:
            print(f"{digest(name)}  {name}", flush=True)
    return 0


if __name__ == "__main__":
    raise SystemExit(main())
