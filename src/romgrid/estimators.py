"""Output error estimators for reduced transfer functions.

All estimators are built from the same ingredients: the reduced primal
solution's residual ``r_pr = B - Q x_pr_hat``, approximate dual solutions,
and approximate solutions of residual systems (linear systems whose
right-hand side is one of those residuals). None of them needs an inf-sup
or smallest-singular-value computation, and none needs a full-order
factorization; full-order solves appear only in the diagnostic routines
``true_error`` (optionally) and ``sensitivity_report``.

The exact error obeys ``H - H_hat = x_du^T r_pr`` with the full dual
solution ``Q^T x_du = C^T``; every estimator replaces ``x_du`` (or the
output functional applied to the error) by reduced surrogates. The table
``ESTIMATORS`` holds everything that differs between the seven kinds: the
reduced models each one needs, the formulas of its two parts, and the
breakdown quantities its greedy expansion points chase.

For systems with several inputs/outputs every bilinear form is an
(n_outputs x n_inputs) matrix and estimates take the max over channels.
"""

import enum
from dataclasses import dataclass, field
from functools import cached_property

import numpy as np

from .errors import MissingWorkspaceRomError
from .projection import reduce_system

__all__ = [
    "EstimatorKind",
    "ESTIMATORS",
    "REDUCED_MODELS",
    "EstimatorWorkspace",
    "EstimateBreakdown",
    "SensitivityReport",
    "evaluate",
    "true_error",
    "delta_r",
    "sensitivity_report",
]

_EPS = np.finfo(np.float64).eps


class EstimatorKind(enum.Enum):
    """The seven estimator variants, keyed by their CLI names."""

    DELTA_R = "delta_r"
    DELTA_1 = "delta1"
    DELTA_1PR = "delta1pr"
    DELTA_2 = "delta2"
    DELTA_2PR = "delta2pr"
    DELTA_3 = "delta3"
    DELTA_3PR = "delta3pr"

    @classmethod
    def from_name(cls, name):
        for kind in cls:
            if kind.value == name:
                return kind
        raise ValueError(
            f"unknown estimator {name!r}; choose from "
            f"{[k.value for k in cls]}"
        )


@dataclass(frozen=True)
class ReducedModelRole:
    """One reduced model an estimator can use, and how the greedy grows it.

    ``field`` is the EstimatorWorkspace attribute, ``key`` the basis name
    (the ``bases.npz`` key and the ``from_bases`` keyword), ``side`` the
    system it reduces (``"primal"`` or ``"dual"``, the transposed family).
    ``point`` names the greedy expansion point that grows the basis; the
    dual model's ``"gamma"`` point is the main point unless the symmetric
    variant is on. ``contains`` lists the bases whose own blocks this basis
    also receives, in order, so the span containments stay exact.
    """

    field: str
    key: str
    side: str
    point: str
    contains: tuple = ()


PRIMAL = ReducedModelRole("rom_primal", "V", "primal", "main")
DUAL = ReducedModelRole("rom_dual", "V_du", "dual", "gamma")
DUAL_RESIDUAL = ReducedModelRole("rom_dual_residual", "V_rdu", "dual", "alpha", ("V_du",))
PRIMAL_RESIDUAL = ReducedModelRole("rom_primal_residual", "V_rpr", "primal", "alpha", ("V",))
PRIMAL_RESIDUAL_RESIDUAL = ReducedModelRole(
    "rom_primal_residual_residual", "V_rrpr", "primal", "beta", ("V", "V_rpr")
)
#: Every reduced model, in the order bases are grown and stored.
REDUCED_MODELS = (PRIMAL, DUAL, DUAL_RESIDUAL, PRIMAL_RESIDUAL, PRIMAL_RESIDUAL_RESIDUAL)


class _SampleTerms:
    """Full-order ingredients of the estimators at one sample point.

    The operator, input and output maps and the primal residual are formed
    on construction; every other term on first use, so each kind forms
    exactly the products its row in ``ESTIMATORS`` reads.
    """

    def __init__(self, workspace, sys, point, n_random, rng_seed, xi):
        self.workspace = workspace
        self.point = point
        self.Q = sys.Q.assemble(point)
        self.B = sys.B.assemble(point)
        self.C = sys.C.assemble(point)
        self._n_random = n_random
        self._rng_seed = rng_seed
        self._xi = xi
        _, xhat_pr = workspace.rom_primal.solve(point)
        self.r_pr = self.B - self.Q @ xhat_pr

    def solve(self, model, rhs=None):
        """Lifted solution of one of the workspace's reduced models."""
        return getattr(self.workspace, model.field).solve(self.point, rhs=rhs)[1]

    @cached_property
    def xhat_du(self):
        return self.solve(DUAL)

    @cached_property
    def delta1(self):
        return self.xhat_du.T @ self.r_pr

    @cached_property
    def r_du(self):
        return self.C.T - self.Q.T @ self.xhat_du

    @cached_property
    def xhat_rpr(self):
        return self.solve(PRIMAL_RESIDUAL, self.r_pr)

    @cached_property
    def r_rpr(self):
        return self.r_pr - self.Q @ self.xhat_rpr

    @cached_property
    def xi(self):
        if self._xi is None:
            return np.random.default_rng(self._rng_seed).standard_normal(int(self._n_random))
        return np.asarray(self._xi, dtype=np.float64)


def _delta_r_parts(t):
    accum = np.zeros(t.delta1.shape, dtype=np.float64)
    for weight in t.xi:
        accum += np.abs(weight * t.delta1) ** 2
    return np.sqrt(accum) / t.xi.size, None


@dataclass(frozen=True)
class EstimatorSpec:
    """What one estimator kind needs and computes; see ``ESTIMATORS``.

    ``models`` are the reduced models beyond the primal one. ``parts`` maps
    the sample terms to the (part1, part2) magnitude matrices, part2 None
    for one-part kinds. ``residuals`` are the residuals whose worst-column
    norms ``aux`` reports as ``<name>_norm``. ``alpha``, ``beta`` and
    ``gamma`` name the breakdown quantity each greedy point maximizes
    (None: the point is unused); a gamma of None also means the symmetric
    variant is not defined for the kind.
    """

    models: tuple
    parts: object
    residuals: tuple
    alpha: str | None = None
    beta: str | None = None
    gamma: str | None = None


#: The estimator family. ``x_rdu_hat``, ``x_rpr_hat`` and ``x_rrpr_hat``
#: solve reduced residual systems with right-hand sides ``W^T r_du``,
#: ``W^T r_pr`` and ``W^T r_rpr`` (``r_rpr = r_pr - Q x_rpr_hat``).
ESTIMATORS = {
    # (1/K) sqrt(sum_i |xi_i x_du_hat^T r_pr|^2), seeded normal weights xi
    EstimatorKind.DELTA_R: EstimatorSpec(
        models=(DUAL,),
        parts=_delta_r_parts,
        residuals=("r_pr", "r_du"),
    ),
    # |x_du_hat^T r_pr|
    EstimatorKind.DELTA_1: EstimatorSpec(
        models=(DUAL,),
        parts=lambda t: (np.abs(t.delta1), None),
        residuals=("r_pr", "r_du"),
        gamma="r_du_norm",
    ),
    # |C x_rpr_hat|
    EstimatorKind.DELTA_1PR: EstimatorSpec(
        models=(PRIMAL_RESIDUAL,),
        parts=lambda t: (np.abs(t.C @ t.xhat_rpr), None),
        residuals=("r_pr", "r_rpr"),
        alpha="r_rpr_norm",
    ),
    # Delta1 + |x_rdu_hat^T r_pr|
    EstimatorKind.DELTA_2: EstimatorSpec(
        models=(DUAL, DUAL_RESIDUAL),
        parts=lambda t: (np.abs(t.delta1), np.abs(t.solve(DUAL_RESIDUAL, t.r_du).T @ t.r_pr)),
        residuals=("r_pr", "r_du"),
        alpha="part2",
        gamma="part1",
    ),
    # Delta1 + |r_du^T x_rpr_hat|
    EstimatorKind.DELTA_2PR: EstimatorSpec(
        models=(DUAL, PRIMAL_RESIDUAL),
        parts=lambda t: (np.abs(t.delta1), np.abs(t.r_du.T @ t.xhat_rpr)),
        residuals=("r_pr", "r_du"),
        alpha="part2",
        gamma="part1",
    ),
    # Delta1Pr + |x_du_hat^T r_rpr|
    EstimatorKind.DELTA_3: EstimatorSpec(
        models=(DUAL, PRIMAL_RESIDUAL),
        parts=lambda t: (np.abs(t.C @ t.xhat_rpr), np.abs(t.xhat_du.T @ t.r_rpr)),
        residuals=("r_pr", "r_du", "r_rpr"),
        alpha="part1",
    ),
    # Delta1Pr + |C x_rrpr_hat|
    EstimatorKind.DELTA_3PR: EstimatorSpec(
        models=(PRIMAL_RESIDUAL, PRIMAL_RESIDUAL_RESIDUAL),
        parts=lambda t: (
            np.abs(t.C @ t.xhat_rpr),
            np.abs(t.C @ t.solve(PRIMAL_RESIDUAL_RESIDUAL, t.r_rpr)),
        ),
        residuals=("r_pr", "r_rpr"),
        alpha="part1",
        beta="part2",
    ),
}


@dataclass
class EstimatorWorkspace:
    """The reduced models one estimator kind needs, bundled.

    ``rom_primal`` approximates the state equation; the optional members
    approximate the dual equation and the residual equations. Which are
    required depends on the kind and is checked at construction.
    """

    kind: EstimatorKind
    rom_primal: object
    rom_dual: object = None
    rom_dual_residual: object = None
    rom_primal_residual: object = None
    rom_primal_residual_residual: object = None

    def __post_init__(self):
        if isinstance(self.kind, str):
            object.__setattr__(self, "kind", EstimatorKind.from_name(self.kind))
        _require_models(self, self.kind)

    @staticmethod
    def required_roms(kind):
        return [model.field for model in ESTIMATORS[kind].models]

    @classmethod
    def from_bases(
        cls,
        sys,
        kind,
        V,
        V_du=None,
        V_rdu=None,
        V_rpr=None,
        V_rrpr=None,
        W=None,
        W_du=None,
        W_rdu=None,
        W_rpr=None,
        W_rrpr=None,
        validate=True,
    ):
        """Project the system onto whichever bases are supplied.

        Dual-side models are reductions of the transposed system, so the
        same Galerkin/Petrov-Galerkin machinery serves both sides. Bases
        beyond the kind's requirements are projected too (diagnostics use
        them); missing required ones raise at construction.
        """
        trial = {"V": V, "V_du": V_du, "V_rdu": V_rdu, "V_rpr": V_rpr, "V_rrpr": V_rrpr}
        test = {"V": W, "V_du": W_du, "V_rdu": W_rdu, "V_rpr": W_rpr, "V_rrpr": W_rrpr}
        supplied = [model for model in REDUCED_MODELS if trial[model.key] is not None]
        systems = {"primal": sys}
        if any(model.side == "dual" for model in supplied):
            systems["dual"] = sys.dual()
        return cls(
            kind=kind,
            **{
                model.field: reduce_system(
                    systems[model.side], trial[model.key], W=test[model.key], validate=validate
                )
                for model in supplied
            },
        )


@dataclass
class EstimateBreakdown:
    """One estimator evaluation at one sample point.

    ``total`` is the estimate; two-part kinds split it into ``part1`` and
    ``part2`` (``part2`` is 0 otherwise), and ``aux`` carries the residual
    norms the greedy point-selection rules consume. For single-output,
    single-input systems ``total == part1 + part2`` exactly; with several
    channels each field is the max over channels of its own quantity, so
    ``total <= part1 + part2``.
    """

    kind: EstimatorKind
    total: float
    part1: float
    part2: float = 0.0
    aux: dict = field(default_factory=dict)

    def quantity(self, name):
        """``total``, ``part1``, ``part2`` or an ``aux`` entry (None if absent)."""
        if name in ("total", "part1", "part2"):
            return getattr(self, name)
        return self.aux.get(name)


@dataclass
class SensitivityReport:
    """Full-order diagnostic quantities for the error-envelope statements.

    Each ``epsilonX``/``deltaX_term`` pairs with the corresponding
    estimator to bracket the true error, e.g. ``Delta1 - epsilon1 <= err
    <= Delta1 + epsilon1``. All quantities need full-order solves, so this
    is a test-and-diagnosis tool, not an online estimator.

    ``epsilon3`` is ``|(x_du - x_du_hat)^T r_pr|`` and coincides with
    ``epsilon1`` by definition; the companion ``epsilon3_residual``
    replaces ``r_pr`` by ``r_rpr`` and is the slack that provably closes
    the upper envelope of Delta3.
    """

    epsilon1: float
    epsilon1_pr: float
    epsilon2: float
    epsilon2_pr: float
    epsilon3: float
    epsilon3_residual: float
    epsilon3_pr: float
    delta2_term: float
    delta2_pr_term: float
    delta3_term: float
    delta3_pr_term: float
    true_error: float


def _column_norm(block):
    # residual "norm" convention for blocks: worst column 2-norm
    if block.size == 0:
        return 0.0
    return float(np.max(np.linalg.norm(block, axis=0)))


def _max_abs(matrix):
    return float(np.max(np.abs(matrix)))


def _require_models(workspace, kind):
    missing = [
        name for name in EstimatorWorkspace.required_roms(kind) if getattr(workspace, name) is None
    ]
    if missing:
        raise MissingWorkspaceRomError(
            f"estimator {kind.value} requires {missing} in the workspace"
        )


def _channel_parts(kind, workspace, sys, point, n_random, rng_seed, xi):
    """Magnitude matrices (n_outputs x n_inputs) of the estimator parts."""
    _require_models(workspace, kind)
    spec = ESTIMATORS[kind]
    terms = _SampleTerms(workspace, sys, point, n_random, rng_seed, xi)
    part1_mat, part2_mat = spec.parts(terms)
    aux = {f"{name}_norm": _column_norm(getattr(terms, name)) for name in spec.residuals}
    return part1_mat, part2_mat, aux


def evaluate(kind, workspace, sys, point, n_random=20, rng_seed=0, xi=None):
    """Evaluate one estimator at one sample point.

    ``n_random``/``rng_seed``/``xi`` only affect the randomized kind: the
    weights are drawn once from the seed (or taken verbatim from ``xi``),
    so a sweep with a fixed seed uses the same weights at every sample.
    For several channels each field is the max over (output, input) pairs.
    """
    if not isinstance(kind, EstimatorKind):
        kind = EstimatorKind.from_name(kind)
    part1_mat, part2_mat, aux = _channel_parts(
        kind, workspace, sys, point, n_random, rng_seed, xi
    )
    total_mat = part1_mat if part2_mat is None else part1_mat + part2_mat
    return EstimateBreakdown(
        kind=kind,
        total=_max_abs(total_mat),
        part1=_max_abs(part1_mat),
        part2=0.0 if part2_mat is None else _max_abs(part2_mat),
        aux=aux,
    )


def delta_r(workspace, sys, point, n_samples=20, rng_seed=0, xi=None):
    """Randomized estimate: seeded-normal sketch of the dual-weighted residual.

    ``(1/K) * sqrt(sum_i |xi_i * (x_du_hat^T r_pr)|^2)`` with K =
    ``n_samples`` standard-normal weights drawn once from ``rng_seed``
    (or injected via ``xi`` for diagnostics). Factors exactly into
    ``||xi||_2 / K`` times the Delta1 estimate.
    """
    return evaluate(
        EstimatorKind.DELTA_R,
        workspace,
        sys,
        point,
        n_random=n_samples,
        rng_seed=rng_seed,
        xi=xi,
    ).total


def true_error(sys, workspace, point, verify_identity=False):
    """Exact output error ``max_ij |H_ij - H_hat_ij|`` at one sample point.

    Needs a full-order factorization. With ``verify_identity`` the direct
    difference of transfer functions is cross-checked against the exact
    identity ``H - H_hat = x_du^T r_pr`` (full dual solution against the
    reduced primal residual); disagreement beyond rounding raises.
    """
    lu = sys.operator_lu(point)
    Bp = sys.B.assemble(point)
    Cp = sys.C.assemble(point)
    H = Cp @ lu.solve(Bp)
    H_hat = workspace.rom_primal.transfer_function(point)
    err_mat = H - H_hat
    direct = _max_abs(err_mat)
    if verify_identity:
        Qp = sys.Q.assemble(point)
        _, xhat_pr = workspace.rom_primal.solve(point)
        r_pr = Bp - Qp @ xhat_pr
        x_du = lu.solve(Cp.T, transpose=True)
        identity_mat = x_du.T @ r_pr
        deviation = _max_abs(err_mat - identity_mat)
        scale = max(_max_abs(H), _max_abs(H_hat))
        floor = 1e3 * sys.order * _EPS * scale
        allowed = 1e-10 * max(direct, _max_abs(identity_mat)) + floor
        if deviation > allowed:
            raise ArithmeticError(
                f"error identity violated: direct vs dual-weighted residual "
                f"differ by {deviation:.3e} (allowed {allowed:.3e})"
            )
    return direct


def sensitivity_report(sys, workspace, point):
    """All envelope diagnostics at one sample point (single-channel systems).

    Solves the full primal, dual, and residual systems once each (sharing
    one LU) and returns every epsilon/delta scalar alongside the true
    error. Requires a workspace carrying all four optional reduced models.
    """
    if sys.n_inputs != 1 or sys.n_outputs != 1:
        raise ValueError("sensitivity diagnostics are defined for single-channel systems")
    ws = workspace
    missing = [model.field for model in REDUCED_MODELS if getattr(ws, model.field) is None]
    if missing:
        raise MissingWorkspaceRomError(f"sensitivity diagnostics require {missing}")

    lu = sys.operator_lu(point)
    Qp = sys.Q.assemble(point)
    Bp = sys.B.assemble(point)
    Cp = sys.C.assemble(point)

    x_pr = lu.solve(Bp)
    _, xhat_pr = ws.rom_primal.solve(point)
    r_pr = Bp - Qp @ xhat_pr

    x_du = lu.solve(Cp.T, transpose=True)
    _, xhat_du = ws.rom_dual.solve(point)
    r_du = Cp.T - Qp.T @ xhat_du

    x_rdu = lu.solve(r_du, transpose=True)
    _, xhat_rdu = ws.rom_dual_residual.solve(point, rhs=r_du)

    x_rpr = lu.solve(r_pr)
    _, xhat_rpr = ws.rom_primal_residual.solve(point, rhs=r_pr)
    r_rpr = r_pr - Qp @ xhat_rpr

    x_rrpr = lu.solve(r_rpr)
    _, xhat_rrpr = ws.rom_primal_residual_residual.solve(point, rhs=r_rpr)

    def scalar(matrix):
        return float(np.abs(matrix[0, 0]))

    du_gap = x_du - xhat_du
    rpr_gap = x_rpr - xhat_rpr
    return SensitivityReport(
        epsilon1=scalar(du_gap.T @ r_pr),
        epsilon1_pr=scalar(Cp @ rpr_gap),
        epsilon2=scalar((x_rdu - xhat_rdu).T @ r_pr),
        epsilon2_pr=scalar(r_du.T @ rpr_gap),
        epsilon3=scalar(du_gap.T @ r_pr),
        epsilon3_residual=scalar(du_gap.T @ r_rpr),
        epsilon3_pr=scalar(Cp @ (x_rrpr - xhat_rrpr)),
        delta2_term=scalar(xhat_rdu.T @ r_pr),
        delta2_pr_term=scalar(r_du.T @ xhat_rpr),
        delta3_term=scalar(xhat_du.T @ r_rpr),
        delta3_pr_term=scalar(Cp @ xhat_rrpr),
        true_error=scalar((Cp @ x_pr) - (Cp @ xhat_pr)),
    )
