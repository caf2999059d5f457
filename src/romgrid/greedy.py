"""Greedy reduced-model construction driven by an error estimator.

Each iteration grows the bases with moment-matching blocks at the current
expansion points, rebuilds the reduced models, sweeps the training set with
the chosen estimator, and moves the expansion points to the samples where
the estimate (or the relevant part of it) is worst:

* the main point follows the full estimate and grows the primal basis V
  (and, in the standard variant, the dual basis V_du);
* the alpha and beta points grow the auxiliary bases behind the
  estimator's parts;
* with ``symmetric_variant`` the dual basis gets its own gamma point
  instead of sharing the main point, the fix for (nearly) symmetric
  systems where shared points make the dual basis collapse onto the
  primal one and Delta1-type estimates vanish spuriously. A run whose
  estimate vanished that way stops with ``StopReason.ESTIMATE_COLLAPSED``
  instead of converging (see ``run_greedy``).

Which bases a kind grows, and which breakdown quantity each of its points
maximizes, is read from ``estimators.ESTIMATORS``; which point grows which
basis, from ``estimators.REDUCED_MODELS``. Auxiliary bases always contain
the bases they serve: the same raw blocks appended to V are appended to
V_rpr and V_rrpr, and the raw dual blocks to V_rdu, before their own points
contribute. That keeps the span-containment rules exact at every iteration.
"""

import warnings
from dataclasses import dataclass, field
from enum import Enum

from .errors import AllSamplesSingularError, SingularAtSampleError, SingularReducedSystemError
from .estimators import (
    ESTIMATORS,
    EstimatorKind,
    EstimatorWorkspace,
    GrowingWorkspace,
    evaluate,
    models_of,
    true_error,
)
from .moments import expansion_block
from .projection import Basis
from .reports import ROLES, EffectivityReport, EffectivityRow, IterationRecord

__all__ = [
    "GreedyConfig",
    "GreedyResult",
    "StopReason",
    "SelectedPoints",
    "run_greedy",
    "select_points",
    "validate",
]

@dataclass
class GreedyConfig:
    kind: EstimatorKind
    training_set: list
    tolerance: float = 1e-3
    max_iterations: int = 30
    q: int | None = None
    symmetric_variant: bool = False
    record_true_errors: bool | None = None
    rng_seed: int = 0

    def __post_init__(self):
        self.kind = EstimatorKind(self.kind)
        self.training_set = [dict(p) for p in self.training_set]
        if not self.training_set:
            raise ValueError("training set must not be empty")
        if not self.tolerance > 0:
            raise ValueError(f"tolerance must be positive, got {self.tolerance}")
        if self.max_iterations < 1:
            raise ValueError("max_iterations must be at least 1")
        if self.symmetric_variant and ESTIMATORS[self.kind].gamma is None:
            symmetric = [k.value for k, spec in ESTIMATORS.items() if spec.gamma is not None]
            raise ValueError(
                "the separate-dual-point variant is only defined for "
                f"{symmetric}, not {self.kind.value}"
            )


class StopReason(Enum):
    TOLERANCE_MET = "tolerance_met"
    MAX_ITERATIONS = "max_iterations"
    STAGNATION_ALL_POINTS_USED = "stagnation_all_points_used"
    ESTIMATE_COLLAPSED = "estimate_collapsed"


@dataclass
class GreedyResult:
    workspace: EstimatorWorkspace
    trace: list
    converged: bool
    stop_reason: StopReason
    skipped_samples: list = field(default_factory=list)


@dataclass(frozen=True)
class SelectedPoints:
    """Training-set indices chosen for the next iteration's expansions."""

    main: int
    alpha: int | None = None
    beta: int | None = None
    gamma: int | None = None


def _argmax(scores):
    """Index of the largest non-None score; ties break to the lowest index."""
    best, best_index = None, None
    for i, value in enumerate(scores):
        if value is None:
            continue
        if best is None or value > best:
            best, best_index = value, i
    return best_index


def select_points(kind, symmetric_variant, breakdowns):
    """Expansion-point indices from a sweep's per-sample breakdowns.

    ``breakdowns`` is aligned with the training set; entries may be None
    for samples skipped as singular. The main point maximizes the total
    estimate; the auxiliary points maximize the quantity their basis is
    meant to improve (the estimator's second part, a residual norm, or
    its first part).
    """
    kind = EstimatorKind(kind)
    spec = ESTIMATORS[kind]

    def across(name):
        if name is None:
            return None
        return _argmax([b.quantity(name) if b is not None else None for b in breakdowns])

    main = across("total")
    if main is None:
        raise AllSamplesSingularError("no usable sample in the training set")
    return SelectedPoints(
        main=main,
        alpha=across(spec.alpha),
        beta=across(spec.beta),
        gamma=across(spec.gamma) if symmetric_variant else None,
    )


class _GreedyState:
    """Mutable bookkeeping for one run: samples, active flags and expansion points.

    ``growth`` owns every n-row array of the run: the bases, which grow
    through it, and the offline state the workspaces are extended from, so
    each iteration projects and factors only the columns it adds. It lives
    as long as the run.
    """

    def __init__(self, sys, config):
        self.sys = sys
        self.config = config
        self.kind = config.kind
        self.samples = config.training_set
        self.active = [True] * len(self.samples)
        self.q = config.q if config.q is not None else (1 if sys.is_parametric else 3)
        self.models = models_of(self.kind)
        self.growth = GrowingWorkspace(
            sys, self.kind, {model.key: Basis.empty(sys.order) for model in self.models}
        )

        # main starts at the first sample, alpha at the last, beta and gamma at the middle one
        last, middle = len(self.samples) - 1, len(self.samples) // 2
        self.points = dict(zip(ROLES, (0, last, middle, middle)))
        # the expansion points this run uses; only these reach the trace
        self.roles = {self._role(model) for model in self.models}

    def _role(self, model):
        if model.point == "gamma" and not self.config.symmetric_variant:
            return "main"
        return model.point

    def _skip(self, index, reason, where):
        """Deactivate a sample for good, warning once with ``reason`` and ``where``."""
        if self.active[index]:
            self.active[index] = False
            warnings.warn(
                f"skipping training sample {index} ({self.samples[index]!r}): "
                f"{reason} during {where}",
                RuntimeWarning,
                stacklevel=3,
            )
        if not any(self.active):
            raise AllSamplesSingularError(
                "every training sample renders the operator singular"
            )

    def _fallback(self, index):
        m = len(self.samples)
        for step in range(1, m):
            for candidate in (index + step, index - step):
                if 0 <= candidate < m and self.active[candidate]:
                    return candidate
        raise AllSamplesSingularError("every training sample renders the operator singular")

    def _block(self, model, lus, blocks):
        """Expansion block for ``model`` at its point, replacing singular samples.

        ``lus`` maps a sample index to the LU of ``Q`` there and ``blocks`` a
        (side, index) pair to its block; both are filled on first use, so
        one grow step factors each sample once and builds each block once.
        A dual block solves with the primal LU transposed. A sample whose
        operator is singular, or whose block is not finite, is deactivated
        for good and the nearest active sample takes its place as the
        model's point.
        """
        role = self._role(model)
        index = self.points[role]
        while True:
            if not self.active[index]:
                index = self._fallback(index)
            key = (model.side, index)
            try:
                if key not in blocks:
                    point = self.samples[index]
                    if index not in lus:
                        lus[index] = self.sys.operator_lu(point)
                    lu = lus[index] if model.side == "primal" else lus[index].transposed()
                    blocks[key] = expansion_block(model.system_of(self.sys), point, self.q, lu=lu)
            except SingularAtSampleError as exc:
                self._skip(index, exc, f"expansion of {model.key}")
                continue
            self.points[role] = index
            return blocks[key]

    def grow(self):
        """Append this iteration's blocks; returns number of new columns.

        Each basis first receives the blocks of the bases it contains, then
        its own block, so auxiliary bases always contain the ones they serve.
        The factorizations and blocks shared between bases live only for
        this call.
        """
        added = 0
        lus, blocks, own = {}, {}, {}
        for model in self.models:
            for key in model.contains:
                if key in own:
                    added += self.growth.append(model.key, own[key])
            own[model.key] = self._block(model, lus, blocks)
            added += self.growth.append(model.key, own[model.key])
        return added

    def point(self, role):
        """The sample at expansion point ``role``, or None when it is unused."""
        return dict(self.samples[self.points[role]]) if role in self.roles else None

    def workspace(self):
        """The workspace on the current bases, extended by this iteration's new columns."""
        return self.growth.extend()

    def sweep(self, ws):
        """Evaluate the estimator at every active sample (None where skipped).

        One stacked ``evaluate`` call covers the active samples. The sweep
        factors reduced operators only: a singular one, or a reduced quantity
        that is not finite, skips the sample for this iteration (reduced
        resonances move as the basis grows), with a warning naming the cause
        that a one-point ``evaluate`` of the sample raises. A singular
        full-order operator, or a full-order solution that is not finite, is
        met, and deactivates a sample for good, in the block builds and the
        true-error recording.
        """
        active = [index for index, ok in enumerate(self.active) if ok]
        points = [self.samples[index] for index in active]
        seed = self.config.rng_seed
        evaluated = evaluate(self.kind, ws, self.sys, points, rng_seed=seed)
        breakdowns = [None] * len(self.samples)
        for index, breakdown in zip(active, evaluated):
            if breakdown is None:
                try:
                    evaluate(self.kind, ws, self.sys, self.samples[index], rng_seed=seed)
                except SingularReducedSystemError as exc:
                    warnings.warn(
                        f"training sample {index}: {exc.cause} this iteration; "
                        f"sample skipped for the sweep",
                        RuntimeWarning,
                        stacklevel=2,
                    )
            breakdowns[index] = breakdown
        if all(b is None for b in breakdowns):
            raise AllSamplesSingularError(
                "no training sample produced a usable estimate this iteration"
            )
        return breakdowns


def run_greedy(sys, config):
    """Run the estimator-driven greedy loop; see the module docstring.

    Stops when the worst estimate over the training set falls to the
    configured tolerance, when ``max_iterations`` is exhausted, or with
    ``StopReason.STAGNATION_ALL_POINTS_USED`` when an iteration's blocks
    add no column to any basis, the first iteration's included: the
    workspace on the unchanged bases is the result, and a run that stops
    so at its first iteration has an empty trace and empty bases. A run
    that converges while its recorded max true error exceeds the tolerance
    still converges, with a RuntimeWarning naming the true error, the
    estimate and the tolerance: the estimate missed the error.

    An estimate that meets the tolerance only because it is zero by
    construction does not converge: where ``delta1`` or ``delta_r`` (the
    kinds whose row reads the dual model alone) would converge while
    ``span(V_du)`` lies in ``span(V)`` and ``V`` does not fill the space
    (``GrowingWorkspace.collapsed``), the run stops with
    ``StopReason.ESTIMATE_COLLAPSED``, ``converged`` False, and one
    RuntimeWarning naming the remedy: the symmetric variant for ``delta1``
    without it, else a two-part kind (``delta_r`` has no variant). That is
    the shared-point collapse on symmetric systems (``Q^T = Q``, ``C^T =
    B``).

    With true errors recorded, each iteration makes one stacked
    ``true_error`` call over the samples with an estimate. A training
    sample's full-order ``H`` does not change, so it is computed once per
    run: each iteration gets the samples not seen before in one stacked
    ``transfer_function`` pass, which hands back the cause of each sample
    it skips for the skip warning; the cause stays in the cache in place of
    ``H``, and ``true_error`` passes it on as that sample's outcome.
    """
    state = _GreedyState(sys, config)
    record_true = config.record_true_errors
    if record_true is None:
        record_true = sys.order <= 1000

    trace = []
    exact = {}  # training-sample index -> H(p) or its SingularAtSampleError; once per run
    converged = False
    stop_reason = StopReason.MAX_ITERATIONS
    for iteration in range(1, config.max_iterations + 1):
        added = state.grow()
        ws = state.workspace()
        if added == 0:
            stop_reason = StopReason.STAGNATION_ALL_POINTS_USED
            break
        breakdowns = state.sweep(ws)
        max_estimate = max(b.total for b in breakdowns if b is not None)
        max_true = None
        if record_true:
            usable = [i for i, b in enumerate(breakdowns) if b is not None]
            unseen = [i for i in usable if i not in exact]
            for i, H in zip(unseen, sys._responses([state.samples[i] for i in unseen])):
                if isinstance(H, SingularAtSampleError):
                    state._skip(i, H, "true-error recording")
                exact[i] = H
            errors = true_error(
                sys, ws, [state.samples[i] for i in usable], responses=[exact[i] for i in usable]
            )
            true_values = [error for error in errors if error is not None]
            max_true = max(true_values) if true_values else None
        trace.append(
            IterationRecord(
                iteration=iteration,
                **{f"{role}_point": state.point(role) for role in ROLES},
                max_estimate=max_estimate,
                max_true_error=max_true,
                rom_dimension=state.growth.bases["V"].dim,
            )
        )
        if max_estimate <= config.tolerance and state.growth.collapsed():
            stop_reason = StopReason.ESTIMATE_COLLAPSED
            remedy = "symmetric_variant=True (--symmetric-variant)"
            if ESTIMATORS[config.kind].gamma is None or config.symmetric_variant:
                remedy = "a two-part kind"
            warnings.warn(
                f"{config.kind.value} estimate {max_estimate:.3e} collapsed: span(V_du) lies in "
                f"span(V), so Galerkin orthogonality zeroes it whatever the error; use {remedy}",
                RuntimeWarning,
                stacklevel=2,
            )
            break
        if max_estimate <= config.tolerance:
            converged = True
            stop_reason = StopReason.TOLERANCE_MET
            if max_true is not None and max_true > config.tolerance:
                warnings.warn(
                    f"converged on a max estimate of {max_estimate:.3e}, within tolerance "
                    f"{config.tolerance:.3e}, but the recorded max true error is {max_true:.3e}",
                    RuntimeWarning,
                    stacklevel=2,
                )
            break
        chosen = select_points(config.kind, config.symmetric_variant, breakdowns)
        for role in ROLES:
            index = getattr(chosen, role)
            if index is not None:
                state.points[role] = index
    return GreedyResult(
        workspace=ws,
        trace=trace,
        converged=converged,
        stop_reason=stop_reason,
        skipped_samples=[i for i, ok in enumerate(state.active) if not ok],
    )


def validate(sys, result, validation_set, rng_seed=0):
    """Measure estimate vs true error on an independent sample set.

    ``result`` may be a GreedyResult or a bare workspace; the estimator is
    the workspace's own kind. Returns an
    EffectivityReport with per-sample rows and min/max effectivities, both
    overall and restricted to samples whose true error is at least the
    rounding-noise threshold 1e-11 (below it, ratios measure noise).
    The estimates come from one stacked ``evaluate`` call over the set,
    the true errors from one stacked ``true_error`` call over the samples
    with an estimate. Samples where the full or the reduced operator is
    singular or not finite, or an input or output map is not finite, are
    skipped and counted in ``skipped_singular``; a report without rows
    claims nothing about the model.
    """
    ws = getattr(result, "workspace", result)
    points = list(validation_set)
    breakdowns = evaluate(ws.kind, ws, sys, points, rng_seed=rng_seed)
    usable = [(point, b) for point, b in zip(points, breakdowns) if b is not None]
    errors = true_error(sys, ws, [point for point, _ in usable])
    rows = [
        EffectivityRow(
            sample=dict(point),
            estimate=breakdown.total,
            true_error=exact,
            effectivity=breakdown.total / exact if exact > 0 else None,
        )
        for (point, breakdown), exact in zip(usable, errors)
        if exact is not None
    ]
    return EffectivityReport.from_rows(rows, skipped_singular=len(points) - len(rows))
