"""romgrid benchmark: reduce and validate two workloads, end to end or traced.

    python3 perfbench/run.py --workload ladder_sweep --seed 0 --seconds 50 --trace 0
    python3 perfbench/run.py --smoke

Run from the root of a checkout. A run makes one untimed warm-up
repetition, then repeats set-up (several builds; ``setup_s`` is the median)
and reduce + validate while another round still fits in ``--seconds``, and
reports medians. ``--trace 1`` alternates
untraced and traced repetitions and reports the per-layer figures of the
last traced one. The last line of standard output is one JSON object with
``correct``, ``attempted``, ``failed`` and ``metrics``. ``--smoke`` runs a
tiny instance of every workload and fails when a wrapped name, a wrapper's
calls or a named metric is missing. See README.md in this directory.
"""

import os
import sys

# Fixed before numpy loads; ROMGRID_THREADS stays unset so the default
# single-threaded sweep is what gets measured.
THREAD_ENV = {"OPENBLAS_NUM_THREADS": "1", "OMP_NUM_THREADS": "1", "MKL_NUM_THREADS": "1"}
os.environ.update(THREAD_ENV)
os.environ.pop("ROMGRID_THREADS", None)

import argparse  # noqa: E402
import contextlib  # noqa: E402
import json  # noqa: E402
import pathlib  # noqa: E402
import platform  # noqa: E402
import resource  # noqa: E402
import shutil  # noqa: E402
import statistics  # noqa: E402
import tempfile  # noqa: E402
import time  # noqa: E402
import warnings  # noqa: E402

HERE = pathlib.Path(__file__).resolve().parent
ROOT = HERE.parent
OUT = HERE / "out"
DEFAULT_SEED = 0
SETUP_PER_REPETITION = 5
#: Timed repetitions a run makes even when they overrun ``--seconds``.
MIN_REPETITIONS = 3
# Layers that run on every workload; system.dual (not needed by delta3pr)
# and the run-directory I/O (CLI only) must run on at least one.
EVERYWHERE_EXEMPT = {"system.dual", "reports.write", "manifest.save", "cli.main"}


def _parse_args(argv):
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload")
    parser.add_argument("--seed", type=int, default=DEFAULT_SEED)
    parser.add_argument("--seconds", type=float, default=50.0)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--smoke", action="store_true", help="tiny run of every workload")
    args = parser.parse_args(argv)
    if not args.smoke and not args.workload:
        parser.error("--workload is required unless --smoke is given")
    return args


class Repetition:
    """Outcome of one reduce + validate pass."""

    def __init__(self):
        self.reduce_s = None
        self.validate_s = None
        self.rom_dim = None
        self.skipped_samples = 0
        self.problems = []


def _repeat(workload, system, tracer=None):
    rep = Repetition()
    handle = None
    with warnings.catch_warnings(record=True) as caught:
        warnings.simplefilter("always")
        try:
            with tracer if tracer is not None else contextlib.nullcontext():
                if tracer is not None:
                    tracer.phase = "setup"
                    system = workload.setup()
                    tracer.phase = "reduce"
                start = time.perf_counter()
                handle = workload.reduce(system)
                rep.reduce_s = time.perf_counter() - start
                if tracer is not None:
                    tracer.phase = "validate"
                start = time.perf_counter()
                report = workload.validate(system, handle)
                rep.validate_s = time.perf_counter() - start
            rep.problems = workload.check(system, handle, report)
            rep.rom_dim = workload.rom_dim(handle)
        except Exception as exc:  # a failed repetition is counted, not fatal
            rep.problems.append(f"{type(exc).__name__}: {exc}")
        finally:
            if handle is not None:
                workload.cleanup(handle)
    rep.skipped_samples = sum("training sample" in str(w.message) for w in caught)
    return rep


def _median(values):
    # 0.0 only when every repetition failed, which the result reports anyway
    return statistics.median(values) if values else 0.0


def _machine_record():
    import numpy
    import scipy

    blas = numpy.show_config(mode="dicts").get("Build Dependencies", {}).get("blas", {})
    return {
        "nproc": os.cpu_count(),
        "affinity_cpus": len(os.sched_getaffinity(0)),
        "python": platform.python_version(),
        "numpy": numpy.__version__,
        "scipy": scipy.__version__,
        "blas": f"{blas.get('name')} {blas.get('version')}",
        "threads": {key: os.environ.get(key) for key in (*THREAD_ENV, "ROMGRID_THREADS")},
    }


def run_workload(workload, seconds, trace, spans_path=None):
    """Measure one workload; returns (metrics, attempted, failed, notes, sample counts)."""
    from tracer import Tracer, layer_metrics

    setup_s, plain, traced, tracer = [], [], [], None
    begin = time.perf_counter()
    # untimed warm-up; its correctness still counts
    warmup = _repeat(workload, workload.setup())
    minimum = MIN_REPETITIONS if seconds > 0 else 1
    round_s = 0.0
    # start a round only if it is expected to end within the budget
    while len(plain) < minimum or time.perf_counter() - begin + round_s < seconds:
        round_start = time.perf_counter()
        # set-up is timed between repetitions, so it sees the same machine
        # conditions as the timings it is compared with
        for _ in range(SETUP_PER_REPETITION):
            start = time.perf_counter()
            system = workload.setup()
            setup_s.append(time.perf_counter() - start)
        plain.append(_repeat(workload, system))
        if trace:
            tracer = Tracer(workload.order)
            traced.append(_repeat(workload, system, tracer))
        round_s = time.perf_counter() - round_start

    reps = [warmup] + plain + traced
    first_dim = next((r.rom_dim for r in reps if r.rom_dim is not None), 0)
    failed = sum(1 for r in reps if r.problems or r.rom_dim not in (None, first_dim))
    notes = sorted({p for r in reps for p in r.problems})
    if any(r.rom_dim not in (None, first_dim) for r in reps):
        notes.append("rom_dim differs between repetitions")

    reduce_s = [r.reduce_s for r in plain if r.reduce_s is not None]
    if not trace:
        metrics = {
            "setup_s": _median(setup_s),
            "reduce_s": _median(reduce_s),
            "validate_s": _median([r.validate_s for r in plain if r.validate_s is not None]),
            "peak_rss_mb": resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0,
            "rom_dim": first_dim,
        }
        samples = {"setup_s": len(setup_s), "reduce_s": len(reduce_s)}
        return metrics, len(reps), failed, notes, samples

    last = traced[-1]
    metrics = layer_metrics(tracer.spans, last.reduce_s, last.validate_s)
    metrics["greedy.skipped_samples"] = last.skipped_samples
    metrics["trace.spans"] = len(tracer.spans)
    traced_s = [r.reduce_s for r in traced if r.reduce_s is not None]
    metrics["trace.overhead_s"] = _median(traced_s) - _median(reduce_s)
    if spans_path is not None:
        tracer.write(spans_path)
    samples = {"traced": len(traced), "untraced": len(plain)}
    return metrics, len(reps), failed, notes, samples


def _declared():
    spec = json.loads((ROOT / "BENCHMARK.json").read_text())
    units = {m["name"]: m["unit"] for m in spec["end_to_end"] + spec["per_layer"]}
    return spec, units


def _print_table(title, metrics, units):
    print(title)
    width = max(len(name) for name in metrics)
    for name, value in metrics.items():
        print(f"  {name:<{width}}  {value:>16.6g}  {units[name]}")


def measure(args):
    from workloads import WORKLOADS

    spec, units = _declared()
    names = [m["name"] for m in spec["per_layer" if args.trace else "end_to_end"]]
    if args.workload not in WORKLOADS:
        raise SystemExit(f"unknown workload {args.workload!r}; choose from {sorted(WORKLOADS)}")
    OUT.mkdir(exist_ok=True)
    scratch = tempfile.mkdtemp(prefix="scratch-", dir=OUT)
    try:
        workload = WORKLOADS[args.workload](args.seed, False, scratch)
        spans_path = OUT / f"spans-{args.workload}-seed{args.seed}.jsonl" if args.trace else None
        metrics, attempted, failed, notes, samples = run_workload(
            workload, args.seconds, args.trace, spans_path
        )
    finally:
        shutil.rmtree(scratch, ignore_errors=True)

    print(f"machine: {json.dumps(_machine_record())}")
    print(
        f"workload: {args.workload}  seed: {args.seed} (default {DEFAULT_SEED})  "
        f"samples: {json.dumps(samples)}"
    )
    for note in notes:
        print(f"failure: {note}")
    ordered = {name: metrics[name] for name in names}
    _print_table("per-layer (traced)" if args.trace else "end-to-end (medians)", ordered, units)
    result = {
        "correct": failed == 0,
        "attempted": attempted,
        "failed": failed,
        "metrics": {name: {"value": value, "unit": units[name]} for name, value in ordered.items()},
    }
    print(json.dumps(result))
    return 0


def smoke():
    """Tiny run of every workload; fails when a wrapper or metric went missing."""
    from tracer import SPAN_NAMES
    from workloads import WORKLOADS

    spec, _ = _declared()
    errors = []
    calls = dict.fromkeys(SPAN_NAMES, 0)
    OUT.mkdir(exist_ok=True)
    for name, cls in WORKLOADS.items():
        scratch = tempfile.mkdtemp(prefix="smoke-", dir=OUT)
        try:
            workload = cls(DEFAULT_SEED, True, scratch)
            for trace, section in ((0, "end_to_end"), (1, "per_layer")):
                metrics, _, failed, notes, _ = run_workload(workload, 0.0, trace)
                if failed:
                    errors.append(f"{name}: {failed} failed repetition(s): {notes}")
                missing = [m["name"] for m in spec[section] if m["name"] not in metrics]
                if missing:
                    errors.append(f"{name}: metrics missing from the output: {missing}")
            for span in SPAN_NAMES:
                count = metrics[f"{span}.calls"]
                calls[span] += count
                if count == 0 and span not in EVERYWHERE_EXEMPT:
                    errors.append(f"{name}: wrapper {span} recorded no calls")
        finally:
            shutil.rmtree(scratch, ignore_errors=True)
    errors += [f"wrapper {span} recorded no calls on any workload" for span, n in calls.items() if n == 0]
    for error in errors:
        print(f"smoke: {error}", file=sys.stderr)
    print("smoke: ok" if not errors else f"smoke: {len(errors)} problem(s)")
    return 1 if errors else 0


def main(argv=None):
    args = _parse_args(argv)
    source = ROOT / "src" / "romgrid" / "__init__.py"
    if not source.is_file():
        print(f"error: romgrid sources not found at {source.parent}", file=sys.stderr)
        return 2
    sys.path.insert(0, str(ROOT / "src"))
    sys.path.insert(0, str(HERE))
    return smoke() if args.smoke else measure(args)


if __name__ == "__main__":
    raise SystemExit(main())
