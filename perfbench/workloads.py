"""The benchmark's workloads: build a system, reduce it to tolerance, validate.

Each workload runs as a user would. ``setup`` builds the system from its
spec, ``reduce`` runs the greedy loop to the tolerance, ``validate``
measures estimates against true errors on a held-out grid, and ``check``
(untimed) returns the correctness problems of one repetition. The seed
feeds ``mimo_block``'s seed and ``rng_seed``; romgrid only sees the
generated inputs. ``rc_ladder`` is deterministic, so on ``ladder_sweep`` the
seed changes nothing but ``rng_seed``, which ``delta2`` does not use.

``tiny=True`` shrinks every workload for the smoke check.
"""

import contextlib
import json
import os
import pathlib
import shutil
import sys
import tempfile

import numpy as np

import romgrid
from romgrid import cli
from romgrid.reports import read_report

#: Number of validation samples on which the error identity is verified.
IDENTITY_SAMPLES = 3


class Workload:
    name = None
    #: Validation max true error allowed, as a multiple of the tolerance.
    error_factor = None
    #: Lowest filtered effectivity allowed on the validation grid.
    effectivity_floor = None

    def __init__(self, seed, tiny, scratch):
        self.seed = seed
        self.scratch = scratch

    def cleanup(self, handle):
        pass

    def _check_report(self, report, converged, ws, system, grid):
        problems = []
        if not converged:
            problems.append("greedy loop did not converge by tolerance")
        bound = self.error_factor * self.tolerance
        if report.max_true_error > bound:
            problems.append(f"validation max true error {report.max_true_error:.3e} > {bound:.3e}")
        floor = report.min_eff_filtered
        if floor is not None and floor < self.effectivity_floor:
            problems.append(f"filtered effectivity {floor:.3g} < floor {self.effectivity_floor}")
        if report.skipped_singular:
            problems.append(f"{report.skipped_singular} validation samples singular")
        picks = np.linspace(0, len(grid) - 1, IDENTITY_SAMPLES).round().astype(int)
        for i in picks:
            try:
                romgrid.true_error(system, ws, grid[i], verify_identity=True)
            except ArithmeticError as exc:
                problems.append(f"validation sample {i}: {exc}")
        return problems


class LadderSweep(Workload):
    """Sparse, symmetric RC ladder with a frequency sweep and small r, driven
    through the Python API (``run_greedy`` + ``validate``)."""

    name = "ladder_sweep"
    tolerance = 1e-8
    error_factor = 10.0
    effectivity_floor = 0.5

    def __init__(self, seed, tiny, scratch):
        super().__init__(seed, tiny, scratch)
        self.order = 60 if tiny else 600
        self.training = romgrid.parse_grid("f:1e-3:1e1:15:log" if tiny else "f:1e-3:1e1:60:log")
        self.validation = romgrid.parse_grid("f:1.3e-3:8e0:5:log" if tiny else "f:1.3e-3:8e0:12:log")

    def setup(self):
        return romgrid.rc_ladder(self.order)

    def reduce(self, system):
        config = romgrid.GreedyConfig(
            kind="delta2",
            training_set=self.training,
            tolerance=self.tolerance,
            record_true_errors=False,
            rng_seed=self.seed,
        )
        return romgrid.run_greedy(system, config)

    def validate(self, system, result):
        return romgrid.validate(system, result, self.validation, rng_seed=self.seed)

    def rom_dim(self, result):
        return result.workspace.rom_primal.dim

    def check(self, system, result, report):
        return self._check_report(report, result.converged, result.workspace, system, self.validation)


@contextlib.contextmanager
def _stdout_to(path):
    """Send file descriptor 1 to ``path``; catches prints bound to the old stream."""
    sys.stdout.flush()
    saved = os.dup(1)
    try:
        with open(path, "a") as sink:
            os.dup2(sink.fileno(), 1)
            try:
                yield
            finally:
                sys.stdout.flush()
                os.dup2(saved, 1)
    finally:
        os.close(saved)


class MimoValidate(Workload):
    """Dense MIMO system reduced and validated through the CLI, in process."""

    name = "mimo_validate"
    tolerance = 1e-6
    error_factor = 10.0
    effectivity_floor = 0.5

    def __init__(self, seed, tiny, scratch):
        super().__init__(seed, tiny, scratch)
        self.order = 40 if tiny else 300
        ports = 2 if tiny else 4
        self.spec = f"mimo_block:{self.order},{ports},{seed}"
        self.train = "f:1e-2:1e1:12:log" if tiny else "f:1e-2:1e1:40:log"
        # log grid whose samples fall between the training frequencies
        self.grid = "f:1.07e-2:9.3e0:20:log" if tiny else "f:1.07e-2:9.3e0:150:log"

    def setup(self):
        return romgrid.generate_synthetic(self.spec)

    def reduce(self, system):
        run_dir = pathlib.Path(tempfile.mkdtemp(prefix="run-", dir=self.scratch))
        argv = [
            "reduce", "--synthetic", self.spec, "--estimator", "delta3pr",
            "--tol", repr(self.tolerance), "--train", self.train, "--true-errors", "on",
            "--seed", str(self.seed), "--out", str(run_dir),
        ]
        with _stdout_to(run_dir / "stdout.txt"):
            code = cli.main(argv)
        if code != 0:
            raise RuntimeError(f"romgrid reduce exited with {code}")
        return run_dir

    def validate(self, system, run_dir):
        with _stdout_to(run_dir / "stdout.txt"):
            code = cli.main(["validate", str(run_dir), "--grid", self.grid])
        if code != 0:
            raise RuntimeError(f"romgrid validate exited with {code}")
        return None  # check reads the report the CLI wrote

    def rom_dim(self, run_dir):
        return json.loads((run_dir / "run.json").read_text())["rom_dim"]

    def check(self, system, run_dir, report):
        report = read_report(run_dir / "effectivity.json")
        meta = json.loads((run_dir / "run.json").read_text())
        with np.load(run_dir / "bases.npz") as stored:
            bases = {key: stored[key] for key in stored.files}
        ws = romgrid.EstimatorWorkspace.from_bases(
            system, meta["estimator"], bases["V"],
            V_du=bases.get("V_du"), V_rdu=bases.get("V_rdu"),
            V_rpr=bases.get("V_rpr"), V_rrpr=bases.get("V_rrpr"),
        )
        grid = romgrid.parse_grid(self.grid)
        return self._check_report(report, meta["converged"], ws, system, grid)

    def cleanup(self, run_dir):
        shutil.rmtree(run_dir, ignore_errors=True)


WORKLOADS = {w.name: w for w in (LadderSweep, MimoValidate)}
