"""Command-line interface.

Subcommands: ``reduce`` (greedy reduction of a manifest or synthetic
system), ``validate`` (effectivity study of a finished run on a fresh
grid), ``compare`` (several estimators side by side on one system), and
``demo`` (a self-contained end-to-end example). Run directories written by
``reduce`` contain the trace (CSV + JSON), the bases (NPZ), the reduced
model as an affine manifest, and ``run.json`` with enough metadata for
``validate`` to rebuild the workspace.
"""

import argparse
import json
import pathlib
import sys as _sys
import zipfile

import numpy as np

from . import __version__
from .errors import RomgridError
from .estimators import ESTIMATORS, PRIMAL, REDUCED_MODELS, EstimatorKind, EstimatorWorkspace
from .generators import generate_synthetic
from .greedy import GreedyConfig, run_greedy, validate as validate_workspace
from .grids import DEFAULT_FREQUENCY_SPEC, parse_grid
from .manifest import load_system, save_system
from .projection import Basis
from .reports import write_report, write_trace_csv, write_trace_json
from .system import ParametricSystem

__all__ = ["main"]

#: The run.json fields ``validate`` reads, with the type ``reduce`` writes each as.
_RUN_FIELDS = {"system": dict, "estimator": str, "train": list, "seed": int}


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
        kind=kind if kind is not None else EstimatorKind.from_name(args.estimator),
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


def _save_run(out_dir, system, source, args, result):
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
    arrays = {
        model.key: getattr(ws, model.field).V.columns
        for model in REDUCED_MODELS
        if getattr(ws, model.field) is not None
    }
    np.savez(out / "bases.npz", **arrays)
    save_system(ws.rom_primal.system, out / "rom", name=f"{system.name}_reduced")
    run_meta = {
        "version": __version__,
        "system": source,
        "estimator": ws.kind.value,
        "tol": args.tol,
        "q": args.q,
        "max_iter": args.max_iter,
        "train": args.train if args.train else [DEFAULT_FREQUENCY_SPEC],
        "symmetric_variant": args.symmetric_variant,
        "seed": args.seed,
        "n": system.order,
        "rom_dim": ws.rom_primal.dim,
        "converged": result.converged,
        "stop_reason": result.stop_reason.value,
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
        _save_run(args.out, system, source, args, result)
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
    wrong = [key for key, kind in _RUN_FIELDS.items() if not isinstance(meta.get(key), kind)]
    if wrong:
        raise RomgridError(f"run directory {run_dir}: run.json lacks valid fields {wrong}")
    source = meta["system"]
    if "manifest" in source:
        system = load_system(source["manifest"])
    elif "synthetic" in source:
        system = generate_synthetic(source["synthetic"])
    else:
        raise RomgridError(f"run directory {run_dir}: run.json field 'system' names no source")
    kind = EstimatorKind.from_name(meta["estimator"])
    needed = [model.key for model in (PRIMAL,) + ESTIMATORS[kind].models]
    try:
        with np.load(run_dir / "bases.npz") as stored:
            missing = [key for key in needed if key not in stored.files]
            if missing:
                raise RomgridError(
                    f"run directory {run_dir}: bases.npz lacks {missing}, "
                    f"which estimator {kind.value} needs"
                )
            bases = {
                model.key: Basis(stored[model.key], label=model.key)
                for model in REDUCED_MODELS
                if model.key in stored.files
            }
    except (OSError, ValueError, zipfile.BadZipFile) as exc:
        raise RomgridError(f"run directory {run_dir}: unreadable bases.npz: {exc}") from exc
    workspace = EstimatorWorkspace.from_bases(system, kind, **bases)
    return system, workspace, meta


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
    if report.all_below_threshold:
        print(
            f"note: every true error is below {report.filter_threshold:g}; "
            f"filtered effectivities are meaningless (model is exact on this grid)"
        )
    print(f"effectivity report written to {out / 'effectivity.csv'}")
    return 0


def _cmd_compare(args):
    system, _ = _load_source(args)
    specs, grid = _training_set(args, system)
    kinds = [EstimatorKind.from_name(token.strip()) for token in args.estimators.split(",")]
    runs = {}
    for kind in kinds:
        config = _greedy_config(args, grid, kind=kind)
        runs[kind] = run_greedy(system, config)
    depth = max(len(r.trace) for r in runs.values())
    header = ["iteration"]
    for kind in kinds:
        header += [f"{kind.value}_max_estimate", f"{kind.value}_max_true_error", f"{kind.value}_rom_dim"]
    rows = []
    for i in range(depth):
        row = [str(i + 1)]
        for kind in kinds:
            trace = runs[kind].trace
            if i < len(trace):
                record = trace[i]
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
    system = generate_synthetic("rc_ladder:200")
    grid = parse_grid([DEFAULT_FREQUENCY_SPEC])
    config = GreedyConfig(
        kind=EstimatorKind.DELTA_2,
        training_set=grid,
        tolerance=1e-3,
    )
    result = run_greedy(system, config)
    _print_trace(result.trace)
    print(
        f"{'converged' if result.converged else 'stopped'} after {len(result.trace)} "
        f"iteration(s); reduced dimension {result.workspace.rom_primal.dim} of {system.order}"
    )
    return 0 if result.converged else 3


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
    except (RomgridError, ValueError) as exc:
        print(f"error: {exc}", file=_sys.stderr)
        return 1


if __name__ == "__main__":
    raise SystemExit(main())
