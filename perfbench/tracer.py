"""Span tracer that wraps romgrid's public functions from outside the package.

Every wrapped call becomes a span (name, start, end, parent, phase, attrs)
kept in memory; ``write`` dumps them as JSON lines once the run ends. A
layer's self time is its span duration minus the durations of its direct
children, which are nested inside it.

Wrappers are installed at every binding site: the defining module, every
``romgrid`` module that imported the function by name (``greedy`` imports
``evaluate``/``true_error``/the block builders, ``estimators`` imports
``reduce_system``, ``cli`` imports ``run_greedy``/``validate``/...), and the
package namespace. Installation fails loudly when a target no longer exists
or when any ``romgrid`` module still binds an unwrapped original afterwards.
"""

import functools
import json
import sys
import time

import numpy as np

# (module, attribute or Class.method, span name). A span name of None means
# the wrapper picks full- or reduced-order by the array shapes it sees.
TARGETS = [
    ("romgrid.system", "AffineMatrix.assemble", None),
    ("romgrid.system", "ParametricSystem.dual", "system.dual"),
    ("romgrid.linalg", "lu_factor", None),
    ("romgrid.linalg", "orthonormalize_append", "linalg.orthonormalize"),
    ("romgrid.moments", "krylov_block", "moments.block"),
    ("romgrid.moments", "multimoment_block", "moments.block"),
    ("romgrid.projection", "reduce_system", "projection.reduce"),
    ("romgrid.projection", "ReducedModel.solve", "projection.rom_solve"),
    ("romgrid.estimators", "evaluate", "estimators.evaluate"),
    ("romgrid.estimators", "true_error", "estimators.true_error"),
    ("romgrid.greedy", "run_greedy", "greedy.run"),
    ("romgrid.greedy", "validate", "greedy.validate"),
    ("romgrid.reports", "write_trace_csv", "reports.write"),
    ("romgrid.reports", "write_trace_json", "reports.write"),
    ("romgrid.reports", "write_report", "reports.write"),
    ("romgrid.manifest", "save_system", "manifest.save"),
    ("romgrid.generators", "rc_ladder", "generators.build"),
    ("romgrid.generators", "symmetric_second_order", "generators.build"),
    ("romgrid.generators", "mimo_block", "generators.build"),
    ("romgrid.generators", "generate_synthetic", "generators.build"),
    ("romgrid.cli", "main", "cli.main"),
]

# Every span name the wrappers can emit; the smoke check requires each to
# record at least one call across the workloads.
SPAN_NAMES = sorted(
    {name for _, _, name in TARGETS if name}
    | {"system.assemble_full", "system.assemble_reduced", "linalg.lu_full", "linalg.lu_reduced"}
)


class Span:
    __slots__ = ("name", "start", "end", "parent", "phase", "attrs", "child_s")

    def __init__(self, name, start, parent, phase):
        self.name = name
        self.start = start
        self.end = None
        self.parent = parent
        self.phase = phase
        self.attrs = {}
        self.child_s = 0.0

    @property
    def duration(self):
        return self.end - self.start

    @property
    def self_s(self):
        return self.duration - self.child_s


class Tracer:
    """Holds the spans of one traced repetition and the installed wrappers.

    ``full_order`` is the dimension of the workload's full system; arrays
    with that many rows or columns are full-order, everything else reduced.
    """

    def __init__(self, full_order):
        self.full_order = full_order
        self.spans = []
        self.phase = None
        self._stack = []
        self._patched = []  # (owner, attribute, original)

    # -- recording -----------------------------------------------------------

    def _open(self, name):
        parent = self._stack[-1] if self._stack else None
        span = Span(name, time.perf_counter(), parent, self.phase)
        self.spans.append(span)
        self._stack.append(span)
        return span

    def _close(self, span):
        span.end = time.perf_counter()
        self._stack.pop()
        if span.parent is not None:
            span.parent.child_s += span.duration

    def _wrap(self, original, name):
        tracer = self
        n = self.full_order

        @functools.wraps(original)
        def wrapper(*args, **kwargs):
            span_name = name
            if name is None:
                first = args[0]
                shape = getattr(first, "shape", None) or np.shape(first)
                full = n in shape
                if original.__name__ == "assemble":
                    span_name = "system.assemble_full" if full else "system.assemble_reduced"
                else:
                    span_name = "linalg.lu_full" if full else "linalg.lu_reduced"
            span = tracer._open(span_name)
            try:
                result = original(*args, **kwargs)
            finally:
                tracer._close(span)
            _annotate(span, args, result)
            return result

        return wrapper

    # -- installation --------------------------------------------------------

    def install(self):
        modules = {
            name: module
            for name, module in sys.modules.items()
            if name == "romgrid" or name.startswith("romgrid.")
        }
        for module_name, attribute, span_name in TARGETS:
            module = modules.get(module_name)
            if module is None:
                raise LookupError(f"module {module_name} is not loaded")
            if "." in attribute:
                class_name, method = attribute.split(".")
                owner = getattr(module, class_name, None)
                if owner is None or method not in vars(owner):
                    raise LookupError(f"{module_name}.{attribute} no longer exists")
                original = vars(owner)[method]
                self._patch(owner, method, original, self._wrap(original, span_name))
                continue
            original = getattr(module, attribute, None)
            if original is None:
                raise LookupError(f"{module_name}.{attribute} no longer exists")
            wrapper = self._wrap(original, span_name)
            for site in modules.values():
                for bound_name, value in list(vars(site).items()):
                    if value is original:
                        self._patch(site, bound_name, original, wrapper)
        for site_name, site in modules.items():
            for bound_name, value in vars(site).items():
                if any(value is original for _, _, original in self._patched):
                    raise LookupError(f"{site_name}.{bound_name} still binds an unwrapped original")

    def _patch(self, owner, attribute, original, wrapper):
        setattr(owner, attribute, wrapper)
        self._patched.append((owner, attribute, original))

    def uninstall(self):
        for owner, attribute, original in reversed(self._patched):
            setattr(owner, attribute, original)
        self._patched.clear()

    def __enter__(self):
        try:
            self.install()
        except LookupError:
            self.uninstall()
            raise
        return self

    def __exit__(self, *exc):
        self.uninstall()
        return False

    # -- output --------------------------------------------------------------

    def write(self, path):
        index = {id(span): i for i, span in enumerate(self.spans)}
        with open(path, "w") as handle:
            for i, span in enumerate(self.spans):
                record = {
                    "id": i,
                    "name": span.name,
                    "start": span.start,
                    "end": span.end,
                    "parent": None if span.parent is None else index[id(span.parent)],
                    "phase": span.phase,
                }
                record.update(span.attrs)
                handle.write(json.dumps(record) + "\n")


def _annotate(span, args, result):
    """Attach the counts a span's layer reports (computed from shapes)."""
    name = span.name
    if name == "system.assemble_full":
        matrix = args[0]
        operands = 1 + len(matrix.terms)
        span.attrs["bytes_computed"] = (operands + 1) * result.nbytes
    elif name == "linalg.lu_full":
        dim = np.shape(args[0])[0]
        span.attrs["flops_computed"] = 8.0 / 3.0 * dim**3
    elif name == "linalg.orthonormalize":
        basis, block = args[0], np.asarray(args[1])
        offered = 1 if block.ndim == 1 else block.shape[1]
        before = 0 if basis is None else np.shape(basis)[1]
        span.attrs["deflated_cols"] = offered - (result.shape[1] - before)
    elif name == "moments.block":
        span.attrs["cols"] = result.shape[1]
    elif name == "greedy.run":
        span.attrs["iterations"] = len(result.trace)
        span.attrs["rom_dim"] = result.workspace.rom_primal.dim


def _quantile(values, q):
    return float(np.quantile(np.asarray(values), q)) if values else 0.0


def layer_metrics(spans, reduce_s, validate_s):
    """Per-layer figures of one traced repetition, keyed by metric name.

    The shares divide self (or, for ``true_error``, inclusive) time of the
    named layers by the traced repetition's reduce and validate wall times.
    """
    by_name = {}
    for span in spans:
        by_name.setdefault(span.name, []).append(span)

    def calls(name):
        return len(by_name.get(name, ()))

    def self_s(name, phase=None):
        return sum(s.self_s for s in by_name.get(name, ()) if phase is None or s.phase == phase)

    def attr_sum(name, key):
        return sum(s.attrs.get(key, 0) for s in by_name.get(name, ()))

    lu_full = by_name.get("linalg.lu_full", [])

    def lu_calls_under(parent_name):
        return sum(1 for s in lu_full if s.parent is not None and s.parent.name == parent_name)

    probe, block = lu_calls_under("greedy.run"), lu_calls_under("moments.block")
    blocks = calls("moments.block")
    evaluate_us = [s.duration * 1e6 for s in by_name.get("estimators.evaluate", ())]
    runs = by_name.get("greedy.run", [])

    m = {}
    for layer in SPAN_NAMES:
        m[f"{layer}.calls"] = calls(layer)
        m[f"{layer}.self_s"] = self_s(layer)
    m["system.assemble_full.bytes_computed"] = attr_sum("system.assemble_full", "bytes_computed")
    m["linalg.lu_full.flops_computed"] = attr_sum("linalg.lu_full", "flops_computed")
    m["linalg.lu_full.probe_calls"] = probe
    m["linalg.lu_full.block_calls"] = block
    m["linalg.lu_full.true_error_calls"] = lu_calls_under("estimators.true_error")
    m["linalg.orthonormalize.deflated_cols"] = attr_sum("linalg.orthonormalize", "deflated_cols")
    m["moments.block.cols"] = attr_sum("moments.block", "cols")
    m["moments.lu_per_block"] = (probe + block) / blocks if blocks else 0.0
    m["estimators.evaluate.p50_us"] = _quantile(evaluate_us, 0.50)
    m["estimators.evaluate.p95_us"] = _quantile(evaluate_us, 0.95)
    m["estimators.true_error.incl_s"] = sum(s.duration for s in by_name.get("estimators.true_error", ()))
    m["greedy.iterations"] = sum(s.attrs.get("iterations", 0) for s in runs)
    m["greedy.rom_dim"] = runs[-1].attrs.get("rom_dim", 0) if runs else 0

    full_order = self_s("system.assemble_full", "reduce") + self_s("linalg.lu_full", "reduce")
    reduced_side = sum(
        self_s(layer, "reduce")
        for layer in ("linalg.lu_reduced", "linalg.orthonormalize",
                      "projection.reduce", "system.assemble_reduced")
    )
    # a repetition that failed before validation has no wall times to divide by
    total = reduce_s + validate_s if reduce_s and validate_s else 0.0
    m["share.full_order_of_reduce"] = full_order / reduce_s if total else 0.0
    m["share.reduced_side_of_reduce"] = reduced_side / reduce_s if total else 0.0
    m["share.true_error_of_total"] = m["estimators.true_error.incl_s"] / total if total else 0.0
    return m
