"""Print one SHA-256 digest per fixed reduce + validate scenario.

    python tools/run_digest.py

Run it from the root of a checkout; it imports romgrid from ``src/``. Each
scenario is a ``romgrid reduce`` followed by ``romgrid validate``, both run
in process through ``romgrid.cli.main`` into a temporary run directory. Its
digest covers ``trace.csv``, ``trace.json``, ``effectivity.json`` and the
arrays of ``bases.npz`` (member names and bytes, not the zip container,
whose entries carry the time they were written). The output is one
``<digest>  <scenario>`` line per scenario; two checkouts whose outputs
are equal produce byte-identical run results on this machine. Run as a
script it pins BLAS to one thread, as the benchmark does: a threaded BLAS
sums in another order, and every digest changes with the thread count.

The set:

- all seven estimators on ``rc_ladder:300`` and on ``random_stable:80``;
- the separate-dual-point variant of ``delta1``, ``delta2``, ``delta2pr``
  on ``rc_ladder:300``;
- all seven estimators on ``symmetric_second_order:40`` over a grid of
  frequencies times damping values ``d``;
- ``delta3pr`` on ``mimo_block:300,4`` with true errors on, validated on
  150 samples (the ``mimo_validate`` benchmark workload).

Byte identity is the bar for a change that keeps the order of every
floating-point operation. A change that reorders arithmetic cannot meet
it, and cannot be held to a 1e-12 relative tolerance either: on the
symmetric ``delta2`` ladder run over ``f:1e-3:1e1:40:log`` at tolerance
1e-8, changing the ladder's ``coupling`` by one ulp moves the iteration-2
maximum estimate by about 7e-9 of itself, because near convergence the
estimate is a difference of nearly equal reduced quantities. Such a change
needs its own stated roundoff bound and a check that the greedy picks the
same points.
"""

import contextlib
import hashlib
import io
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

from romgrid import cli  # noqa: E402

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
    return scenarios


SCENARIOS = _scenarios()


def digest(name):
    """SHA-256 of one scenario's run results (see the module docstring)."""
    reduce_args, validate_args = SCENARIOS[name]
    sha = hashlib.sha256()
    with tempfile.TemporaryDirectory(prefix="run-digest-") as run_dir:
        with contextlib.redirect_stdout(io.StringIO()):
            code = cli.main(["reduce", *reduce_args, "--out", run_dir])
            if code not in (0, 3):  # 3: stopped by the iteration cap, still a result
                raise RuntimeError(f"{name}: romgrid reduce exited with {code}")
            code = cli.main(["validate", run_dir, *validate_args])
            if code != 0:
                raise RuntimeError(f"{name}: romgrid validate exited with {code}")
        run = pathlib.Path(run_dir)
        for file_name in ("trace.csv", "trace.json", "effectivity.json"):
            sha.update(file_name.encode() + b"\0" + (run / file_name).read_bytes())
        with zipfile.ZipFile(run / "bases.npz") as stored:
            for member in sorted(stored.namelist()):
                sha.update(member.encode() + b"\0" + stored.read(member))
    return sha.hexdigest()


def main():
    for name in SCENARIOS:
        print(f"{digest(name)}  {name}", flush=True)


if __name__ == "__main__":
    main()
