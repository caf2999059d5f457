"""Command-line interface.

Subcommands: ``reduce`` (greedy reduction of a manifest or synthetic
system), ``validate`` (effectivity study of a finished run on a fresh
grid), ``compare`` (several estimators side by side on one system), and
``demo`` (``reduce`` on a fixed ladder). Run directories written by
``reduce`` contain the trace (CSV + JSON), the bases (NPZ), the reduced
model as an affine manifest, one stored state, ``workspace.npz``, and
``run.json`` with enough metadata for ``validate`` to rebuild the system and
the workspace. ``workspace.npz`` holds the greedy's last online workspace
(``EstimatorWorkspace.to_arrays``) and, where the true errors built one,
the Schur form they used (``schur.T`` and ``schur.Z``); ``run.json``
records the SHA-256 of the file's zip directory: each member's name,
CRC-32 and size.

``validate`` rebuilds the system and reads the bases, then takes the stored
state by one rule, whole or not at all: the directory digest is the one
``run.json`` records (and ``np.load`` checks every member's CRC-32 as it
reads it), the workspace is for the estimator ``run.json`` names, and every
array group passes its identity against the rebuilt system and the bases:
the Schur form ``linalg._is_schur_form``, each reduced model
``projection.check_reduction``, and the residual factors
``estimators._check_factors``. All three judge by one scale-free roundoff
rule, ``linalg.identity_holds``, which refuses a non-finite deviation, and
``reduce`` holds every model it builds to the same rule. Its effectivity
report is then the one ``greedy.validate`` gives in the process that
reduced, bit for bit. Otherwise it rebuilds the workspace from the bases
(``EstimatorWorkspace.from_bases``) and the Schur form from the system; the
rebuild's offline step rounds differently, so the estimates and true errors
agree to roundoff.
"""

import argparse
import contextlib
import hashlib
import json
import pathlib
import sys as _sys
import zipfile

import numpy as np

from . import __version__
from .errors import RomgridError
from .estimators import REDUCED_MODELS, EstimatorKind, EstimatorWorkspace, models_of
from .generators import generate_synthetic
from .greedy import GreedyConfig, run_greedy, validate as validate_workspace
from .grids import DEFAULT_FREQUENCY_SPEC, parse_grid
from .manifest import load_system, save_system
from .projection import Basis
from .reports import write_report, write_trace_csv, write_trace_json
from .system import _SchurKernel

__all__ = ["main"]

#: The run.json fields ``validate`` reads, each with the test of the type ``reduce`` writes it as.
_RUN_FIELDS = {
    "system": lambda value: isinstance(value, dict),
    "estimator": lambda value: isinstance(value, str),
    "train": lambda value: isinstance(value, list) and all(isinstance(v, str) for v in value),
    "seed": lambda value: isinstance(value, int),
}


def _add_system_arguments(parser):
    source = parser.add_mutually_exclusive_group(required=True)
    source.add_argument("--manifest", help="path to a system manifest (JSON)")
    source.add_argument(
        "--synthetic",
        help="synthetic system spec, e.g. rc_ladder:200 or random_stable:60,3",
    )


def _add_greedy_arguments(parser):
    parser.add_argument(
        "--estimator",
        default="delta2",
        choices=[k.value for k in EstimatorKind],
        help="error estimator driving the greedy loop",
    )
    parser.add_argument("--tol", type=float, default=1e-3, help="greedy stopping tolerance")
    parser.add_argument("--q", type=int, default=None, help="moment level (default 3 / 1)")
    parser.add_argument("--max-iter", type=int, default=30, help="iteration cap")
    parser.add_argument(
        "--train",
        action="append",
        default=None,
        metavar="SPEC",
        help="training-grid component (repeatable), e.g. f:1e-3:1e1:60:log or d=1,1.5,2",
    )
    parser.add_argument(
        "--symmetric-variant",
        action="store_true",
        help="give the dual basis its own expansion point (nearly symmetric systems)",
    )
    parser.add_argument("--seed", type=int, default=0, help="seed for the randomized estimator")
    parser.add_argument(
        "--true-errors",
        choices=["auto", "on", "off"],
        default="auto",
        help="record max true error each iteration (auto: only for n <= 1000)",
    )


def _load_source(args):
    if args.manifest:
        return load_system(args.manifest), {"manifest": str(pathlib.Path(args.manifest).resolve())}
    return generate_synthetic(args.synthetic), {"synthetic": args.synthetic}


def _training_set(args, system):
    specs = args.train if args.train else [DEFAULT_FREQUENCY_SPEC]
    grid = parse_grid(specs)
    missing = [n for n in system.parameter_names if n not in grid[0]]
    if missing:
        raise RomgridError(
            f"training grid misses parameters {missing}; pass --train components for them"
        )
    return specs, grid


def _greedy_config(args, grid, kind=None):
    record = {"auto": None, "on": True, "off": False}[args.true_errors]
    return GreedyConfig(
        kind=kind if kind is not None else EstimatorKind(args.estimator),
        training_set=grid,
        tolerance=args.tol,
        max_iterations=args.max_iter,
        q=args.q,
        symmetric_variant=args.symmetric_variant,
        record_true_errors=record,
        rng_seed=args.seed,
    )


def _print_trace(trace):
    print(f"{'iter':>4}  {'max estimate':>13}  {'max true err':>13}  {'rom dim':>7}")
    for record in trace:
        true_text = "-" if record.max_true_error is None else f"{record.max_true_error:13.6e}"
        print(
            f"{record.iteration:>4}  {record.max_estimate:13.6e}  {true_text:>13}  "
            f"{record.rom_dimension:>7}"
        )


def _save_run(out_dir, system, source, args, specs, result):
    out = pathlib.Path(out_dir)
    out.mkdir(parents=True, exist_ok=True)
    write_trace_csv(out / "trace.csv", result.trace)
    write_trace_json(
        out / "trace.json",
        result.trace,
        extra={
            "converged": result.converged,
            "stop_reason": result.stop_reason.value,
            "estimator": result.workspace.kind.value,
        },
    )
    ws = result.workspace
    np.savez(out / "bases.npz", **{key: basis.columns for key, basis in ws.bases.items()})
    save_system(ws.rom_primal.system, out / "rom", name=f"{system.name}_reduced")
    for name in ("effectivity.csv", "effectivity.json"):  # an earlier run's files
        (out / name).unlink(missing_ok=True)
    kernel = vars(system).get("_kernel")  # cached once built: true errors build it
    form = kernel.schur.form() if isinstance(kernel, _SchurKernel) else contextlib.nullcontext(())
    with form as schur:
        np.savez(out / "workspace.npz", **ws.to_arrays(),
                 **dict(zip(("schur.T", "schur.Z"), schur)))
    run_meta = {
        "version": __version__,
        "system": source,
        "estimator": ws.kind.value,
        "tol": args.tol,
        "q": args.q,
        "max_iter": args.max_iter,
        "train": specs,
        "symmetric_variant": args.symmetric_variant,
        "seed": args.seed,
        "n": system.order,
        "rom_dim": ws.rom_primal.dim,
        "converged": result.converged,
        "stop_reason": result.stop_reason.value,
        "workspace_directory_sha256": _directory_sha256(out / "workspace.npz"),
    }
    (out / "run.json").write_text(json.dumps(run_meta, indent=2) + "\n")


def _cmd_reduce(args):
    system, source = _load_source(args)
    specs, grid = _training_set(args, system)
    config = _greedy_config(args, grid)
    result = run_greedy(system, config)
    _print_trace(result.trace)
    print(
        f"{'converged' if result.converged else 'stopped'} after {len(result.trace)} "
        f"iteration(s) ({result.stop_reason.value}); reduced dimension "
        f"{result.workspace.rom_primal.dim}"
    )
    if args.out:
        _save_run(args.out, system, source, args, specs, result)
        print(f"run written to {args.out}")
    return 0 if result.converged else 3


def _rebuild_workspace(run_dir):
    run_dir = pathlib.Path(run_dir)
    try:
        meta = json.loads((run_dir / "run.json").read_text())
    except OSError as exc:
        raise RomgridError(f"not a run directory (missing run.json): {exc}") from exc
    except ValueError as exc:
        raise RomgridError(f"run directory {run_dir}: unreadable run.json: {exc}") from exc
    if not isinstance(meta, dict):
        meta = {}
    wrong = [key for key, valid in _RUN_FIELDS.items() if not valid(meta.get(key))]
    if wrong:
        raise RomgridError(f"run directory {run_dir}: run.json lacks valid fields {wrong}")
    source = meta["system"]
    if "manifest" in source:
        system = load_system(source["manifest"])
    elif "synthetic" in source:
        system = generate_synthetic(source["synthetic"])
    else:
        raise RomgridError(f"run directory {run_dir}: run.json field 'system' names no source")
    kind = EstimatorKind(meta["estimator"])
    try:
        with np.load(run_dir / "bases.npz") as stored:
            missing = [model.key for model in models_of(kind) if model.key not in stored.files]
            if missing:
                raise RomgridError(
                    f"run directory {run_dir}: bases.npz lacks {missing}, "
                    f"which estimator {kind.value} needs"
                )
            bases = {
                model.key: Basis(stored[model.key])
                for model in REDUCED_MODELS
                if model.key in stored.files
            }
    except (OSError, ValueError, zipfile.BadZipFile) as exc:
        raise RomgridError(f"run directory {run_dir}: unreadable bases.npz: {exc}") from exc
    workspace = _stored_state(run_dir / "workspace.npz", meta, system, kind, bases)
    return system, workspace or EstimatorWorkspace.from_bases(system, kind, **bases), meta


def _stored_state(path, meta, system, kind, bases):
    """The workspace ``reduce`` stored at ``path``, or None where the file is refused.

    The file is taken whole or not at all (see the module docstring): its
    directory digest must be the one in ``meta``, its workspace ``kind``'s,
    a stored Schur form one of ``system``'s operator (``linalg.ShiftedSchur``
    refuses any other), and ``EstimatorWorkspace.from_arrays`` must accept
    the reduced models and residual factors against ``system`` and
    ``bases``. An accepted form becomes ``system``'s Schur kernel.
    """
    try:  # np.load leaves a file it opened unclosed when a truncated archive fails to open
        with open(path, "rb") as handle, np.load(handle) as stored:
            if _directory_sha256(handle) != meta.get("workspace_directory_sha256"):
                return None
            arrays = dict(stored)
        form = [arrays.pop("schur.T"), arrays.pop("schur.Z")] if "schur.T" in arrays else None
        kernel = _SchurKernel.of(system, form) if form else None
        if str(arrays["kind"]) != kind.value or (form and kernel is None):
            return None
        workspace = EstimatorWorkspace.from_arrays(system, bases, arrays)
    except (OSError, KeyError, ValueError, EOFError, RomgridError, zipfile.BadZipFile):
        return None
    if kernel is not None:
        system._kernel = kernel  # the cached kernel transfer_function would pick
    return workspace


def _directory_sha256(file):
    """SHA-256 of a zip archive's directory: every member's name, CRC-32 and size.

    ``file`` is the archive's path or an open binary file, which stays open.
    """
    with zipfile.ZipFile(file) as archive:
        listing = [(info.filename, info.CRC, info.file_size) for info in archive.infolist()]
    return hashlib.sha256(json.dumps(listing).encode()).hexdigest()


def _cmd_validate(args):
    system, workspace, meta = _rebuild_workspace(args.run_dir)
    specs = args.grid if args.grid else meta["train"]
    report = validate_workspace(system, workspace, parse_grid(specs), rng_seed=meta["seed"])
    out = pathlib.Path(args.run_dir)
    write_report(report, csv_path=out / "effectivity.csv", json_path=out / "effectivity.json")
    summary = report.summary()
    for key in (
        "min_eff_all",
        "max_eff_all",
        "min_eff_filtered",
        "max_eff_filtered",
        "max_true_error",
        "skipped_singular",
    ):
        print(f"{key}: {summary[key]}")
    if not report.rows:
        print("note: no validation sample was usable; the grid says nothing about the model")
    elif report.all_below_threshold:
        print(
            f"note: every true error is below {report.filter_threshold:g}; "
            f"filtered effectivities are meaningless (model is exact on this grid)"
        )
    print(f"effectivity report written to {out / 'effectivity.csv'}")
    return 0


def _cmd_compare(args):
    system, _ = _load_source(args)
    _, grid = _training_set(args, system)
    kinds = [EstimatorKind(token.strip()) for token in args.estimators.split(",")]
    runs = {kind: run_greedy(system, _greedy_config(args, grid, kind=kind)) for kind in kinds}
    depth = max(len(r.trace) for r in runs.values())
    columns = ("max_estimate", "max_true_error", "rom_dim")
    header = ["iteration"] + [f"{kind.value}_{column}" for kind in kinds for column in columns]
    rows = []
    for i in range(depth):
        row = [str(i + 1)]
        for kind in kinds:
            if i < len(runs[kind].trace):
                record = runs[kind].trace[i]
                true_text = "" if record.max_true_error is None else f"{record.max_true_error:.17g}"
                row += [f"{record.max_estimate:.17g}", true_text, str(record.rom_dimension)]
            else:
                row += ["", "", ""]
        rows.append(row)
    print("  ".join(f"{name:>24}" for name in header))
    for row in rows:
        print("  ".join(f"{cell:>24}" for cell in row))
    for kind in kinds:
        result = runs[kind]
        print(
            f"{kind.value}: {'converged' if result.converged else 'stopped'} "
            f"({result.stop_reason.value}) after {len(result.trace)} iteration(s), "
            f"rom dim {result.workspace.rom_primal.dim}"
        )
    if args.out:
        out = pathlib.Path(args.out)
        out.parent.mkdir(parents=True, exist_ok=True)
        with open(out, "w") as handle:
            handle.write(",".join(header) + "\n")
            for row in rows:
                handle.write(",".join(row) + "\n")
        print(f"comparison table written to {out}")
    return 0


def _cmd_demo(args):
    print("demo: RC ladder (n=200), two-part dual-residual estimator, tol 1e-3")
    return _cmd_reduce(build_parser().parse_args(["reduce", "--synthetic", "rc_ladder:200"]))


def build_parser():
    parser = argparse.ArgumentParser(
        prog="romgrid",
        description="Greedy moment-matching model reduction with residual-based error estimators.",
    )
    parser.add_argument("--version", action="version", version=f"%(prog)s {__version__}")
    commands = parser.add_subparsers(dest="command", required=True)

    reduce_cmd = commands.add_parser("reduce", help="run the greedy reduction")
    _add_system_arguments(reduce_cmd)
    _add_greedy_arguments(reduce_cmd)
    reduce_cmd.add_argument("--out", help="directory for trace, bases, and reduced model")
    reduce_cmd.set_defaults(handler=_cmd_reduce)

    validate_cmd = commands.add_parser("validate", help="effectivity study of a finished run")
    validate_cmd.add_argument("run_dir", help="directory written by reduce --out")
    validate_cmd.add_argument(
        "--grid", action="append", default=None, metavar="SPEC",
        help="validation-grid component (repeatable); defaults to the training grid",
    )
    validate_cmd.set_defaults(handler=_cmd_validate)

    compare_cmd = commands.add_parser("compare", help="run several estimators side by side")
    _add_system_arguments(compare_cmd)
    _add_greedy_arguments(compare_cmd)
    compare_cmd.add_argument(
        "--estimators",
        default="delta1pr,delta2,delta2pr,delta3,delta3pr",
        help="comma-separated estimator names",
    )
    compare_cmd.add_argument("--out", help="CSV file for the comparison table")
    compare_cmd.set_defaults(handler=_cmd_compare)

    demo_cmd = commands.add_parser("demo", help="self-contained end-to-end example")
    demo_cmd.set_defaults(handler=_cmd_demo)
    return parser


def main(argv=None):
    parser = build_parser()
    args = parser.parse_args(argv)
    try:
        return args.handler(args)
    except (RomgridError, ValueError, OSError) as exc:
        print(f"error: {exc}", file=_sys.stderr)
        return 1


if __name__ == "__main__":
    raise SystemExit(main())
