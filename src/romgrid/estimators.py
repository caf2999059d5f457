"""Output error estimators for reduced transfer functions.

All estimators are built from the same ingredients: the reduced primal
solution's residual ``r_pr = B - Q x_pr_hat``, approximate dual solutions,
and approximate solutions of residual systems (linear systems whose
right-hand side is one of those residuals). None of them needs an inf-sup
or smallest-singular-value computation, and none needs a full-order
factorization; full-order solves appear only in the diagnostic routines
``true_error`` and ``sensitivity_report``.

The exact error obeys ``H - H_hat = x_du^T r_pr`` with the full dual
solution ``Q^T x_du = C^T``; every estimator replaces ``x_du`` (or the
output functional applied to the error) by reduced surrogates. The table
``ESTIMATORS`` holds everything that differs between the seven kinds: the
reduced models each one needs, the formulas of its two parts, and the
breakdown quantities its greedy expansion points chase.

Evaluation is split into an offline and an online step. Every residual is
a stack of full-order pieces times a small coefficient block,
``r(p) = P F(p)``: ``r_pr`` stacks ``[B_k | Q_j V]``, ``r_du`` stacks
``[C_k^T | Q_j^T V_du]`` and ``r_rpr`` stacks the ``r_pr`` pieces and
``[Q_j V_rpr]``. The offline step runs once per (workspace, kind, system),
on the first ``evaluate``. It factors each stack as ``P = U R`` (``U``
orthonormal, ``R`` triangular; a piece is dropped from ``U`` only where it
depends on the others to roundoff of its own norm, so a tiny piece with a
huge coefficient keeps its term) and keeps only small arrays: ``R`` and
the projections ``X^T U`` onto the bases that read the residual; the n-row
``U`` is dropped again. The online step evaluates the monomial
coefficients, solves the reduced models, assembling their own reduced
maps, and multiplies small matrices, so its cost does not depend on the
full order n: a residual is ``r = U y`` with coordinates ``y = R F``, a
bilinear form ``X^T r`` is ``(X^T U) y`` and ``||r|| = ||y||``. That is
the numerically stable form of Buhr, Engwer, Ohlberger & Rave (2014); the
Gram form ``F^H P^H P F`` would lose all accuracy below about sqrt(eps)
times the norm of the pieces. ``r_rpr`` extends the factorization of
``r_pr`` block by block and its coordinates are formed from those of
``r_pr``, so like the full-order chain ``r_rpr = r_pr - Q x_rpr_hat`` it
stays accurate relative to ``r_pr``, not to the pieces.

The online step runs on a stack of sample points, so a greedy sweep or a
validation is one ``evaluate`` call. The monomial coefficients are
evaluated once per call, as a (samples x pieces) array per family; every
online quantity then carries a leading sample axis. Reduced operators are
assembled as a stack and factored with one LAPACK ``getrf`` and ``getrs``
per sample (``linalg.lu_solve_stack``); products are ``np.matmul`` over the
stack, which calls the same BLAS kernel per sample as a 2-d product. Each
sample thus sees the same operations in the same order as when it is
evaluated alone, and its breakdown does not depend on the other points,
to the bit. A sample whose reduced operator is singular, or whose reduced
quantities are not finite, is masked instead of raising. The points are
taken in chunks of ``_CHUNK`` samples. A chunk bounds the memory of the
stacked operators: the 150-sample validation of a model with r = 78
peaks near 3 MB in chunks of 16, against 28 MB in one stack. A chunk is
still large enough to spread the fixed Python cost of a pass, about 0.25
ms on a ladder with r = 15, where a sample's own work is about 0.045 ms.

For systems with several inputs/outputs every bilinear form is an
(n_outputs x n_inputs) matrix and estimates take the max over channels.
"""

import enum
from collections.abc import Mapping
from dataclasses import dataclass, field
from functools import cached_property

import numpy as np
import scipy.linalg

from .errors import MissingWorkspaceRomError, SingularReducedSystemError
from .linalg import lu_solve_stack, scaled_stack
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
#: Samples per stacked pass of ``evaluate``.
_CHUNK = 16


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
        """The kind whose CLI name is ``name``; a kind comes back as it is."""
        if isinstance(name, cls):
            return name
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
    also receives, in order, so the span containments stay exact. ``rhs``
    names the residual the model is solved against (None: the side's input
    map), and ``residual`` the name of the model's own residual, if an
    estimator reads it.
    """

    field: str
    key: str
    side: str
    point: str
    contains: tuple = ()
    rhs: str | None = None
    residual: str | None = None

    def system_of(self, sys):
        """The system this model reduces: ``sys`` itself, or ``sys.dual()`` on the dual side."""
        return sys if self.side == "primal" else sys.dual()


PRIMAL = ReducedModelRole("rom_primal", "V", "primal", "main", residual="r_pr")
DUAL = ReducedModelRole("rom_dual", "V_du", "dual", "gamma", residual="r_du")
DUAL_RESIDUAL = ReducedModelRole(
    "rom_dual_residual", "V_rdu", "dual", "alpha", ("V_du",), rhs="r_du"
)
PRIMAL_RESIDUAL = ReducedModelRole(
    "rom_primal_residual", "V_rpr", "primal", "alpha", ("V",), rhs="r_pr", residual="r_rpr"
)
PRIMAL_RESIDUAL_RESIDUAL = ReducedModelRole(
    "rom_primal_residual_residual", "V_rrpr", "primal", "beta", ("V", "V_rpr"), rhs="r_rpr"
)
#: Every reduced model, in the order bases are grown and stored.
REDUCED_MODELS = (PRIMAL, DUAL, DUAL_RESIDUAL, PRIMAL_RESIDUAL, PRIMAL_RESIDUAL_RESIDUAL)
#: The model whose residual each residual name denotes.
_RESIDUAL_OF = {model.residual: model for model in REDUCED_MODELS if model.residual}


def _side_by_side(blocks):
    """The blocks' columns in one column-major array, which LAPACK factors in place."""
    out = np.empty(
        (blocks[0].shape[0], sum(block.shape[1] for block in blocks)),
        dtype=np.complex128,
        order="F",
    )
    start = 0
    for block in blocks:
        out[:, start : start + block.shape[1]] = block
        start += block.shape[1]
    return out


def _orthonormal_factor(block, norms=None):
    """``block = U T`` with orthonormal ``U`` of the block's numerical rank; overwrites ``block``.

    Column-pivoted QR of the block with every column scaled by its entry of
    ``norms`` (default: the column's own norm), truncated where the diagonal
    falls below roundoff; the scales go back into ``T``. A column is so
    dropped only where it depends on the kept ones to roundoff of its own
    norm, however small that norm is beside the other columns' (an affine
    piece can be tiny and still carry a huge coefficient). Being
    rank-revealing, it pads ``U`` with no arbitrary unit columns, which need
    not be orthogonal to an earlier block.
    """
    if norms is None:
        norms = np.linalg.norm(block, axis=0)
    norms = np.where(norms > 0.0, norms, 1.0)
    block /= norms
    U, T, order = scipy.linalg.qr(block, overwrite_a=True, mode="economic", pivoting=True)
    rank = int(np.count_nonzero(np.abs(np.diag(T)) > max(block.shape) * _EPS))
    return U[:, :rank], T[:rank, np.argsort(order)] * norms


@dataclass
class _OfflineTerms:
    """Reduced images of one system's affine pieces, for one estimator kind.

    ``monomials`` maps each primal family letter to the coefficient
    monomials of its pieces. ``factors`` maps a residual to the blocks
    ``(R_B, S, T)`` of its triangular factor and ``projections`` a (model
    field, ``"V"`` or ``"W"``, residual) key to ``X^T [U_h | U]``; see
    ``_offline_terms``. The reduced output maps are the models' own.
    """

    sys: object
    monomials: dict
    factors: dict
    projections: dict


def _offline_terms(workspace, spec, sys):
    """The offline step of one kind against ``sys``: every small array, in one pass.

    The residual of model M is ``r = [h | Q_1 V_M | ... | Q_J V_M] F`` with
    ``h`` the side's input pieces ``B_k`` (factored as ``U_h R_B``) or, for
    a residual model, the residual M is solved against (its basis ``U_h``
    and coordinates ``y_h``). The stack is factored block by block:
    ``S = U_h^H Q_j V_M`` (one reorthogonalization pass) and ``U T`` the
    rank-revealing QR factorization of what remains, so ``r = [U_h | U] y``
    with orthonormal columns and coordinates ``y = [y_h + S F_tail; T
    F_tail]``. The n-row bases ``[U_h | U]`` live only in this function.
    What is kept of them is their projections onto the test basis of the
    model solved against them, and onto the trial basis of every model of
    the other side: a bilinear form ``x_hat^T r`` always weighs a residual
    with a solution of the opposite side.
    """
    models = (PRIMAL,) + spec.models
    wanted = set(spec.residuals) | {model.rhs for model in models if model.rhs}
    monomials = {
        letter: [m for m, _ in getattr(sys, letter).monomial_pieces()] for letter in "BQC"
    }
    factors, bases = {}, {}
    for model in REDUCED_MODELS:
        name = model.residual
        if name not in wanted:
            continue
        side = model.system_of(sys)
        R_B = None
        if model.rhs is None:
            head, R_B = _orthonormal_factor(
                _side_by_side([matrix for _, matrix in side.B.monomial_pieces()])
            )
        else:
            head = bases[model.rhs]
        V = getattr(workspace, model.field).V.columns
        rest = _side_by_side([matrix @ V for _, matrix in side.Q.monomial_pieces()])
        norms = np.linalg.norm(rest, axis=0)
        S = np.zeros((head.shape[1], rest.shape[1]), dtype=np.complex128)
        for _ in range(2):
            step = head.conj().T @ rest
            rest -= head @ step
            S += step
        U, T = _orthonormal_factor(rest, norms)
        del rest
        bases[name] = np.hstack([head, U])
        factors[name] = (R_B, S, T)
    projections = {}
    for model in spec.models:
        rom = getattr(workspace, model.field)
        for name, basis in bases.items():
            if _RESIDUAL_OF[name].side != model.side:
                projections[model.field, "V", name] = rom.V.columns.T @ basis
        if model.rhs is not None:
            projections[model.field, "W", model.rhs] = rom.W.columns.T @ bases[model.rhs]
    return _OfflineTerms(sys, monomials, factors, projections)


class _StackTerms:
    """Online ingredients of the estimators at a stack of sample points.

    Reduced solutions ``z``, residual coordinates ``y`` and the bilinear
    forms built from them, each with a leading sample axis and formed on
    first use, so every kind forms exactly what its row in ``ESTIMATORS``
    reads. ``coefficients`` maps each primal family letter to its (samples
    x pieces) monomial values; the dual side reads the same arrays, since
    its ``Q``, ``B`` and ``C`` are the primal ``Q``, ``C`` and ``B``
    transposed piece by piece. ``usable`` marks the samples whose reduced
    solves have all succeeded. Nothing here has n rows.
    """

    def __init__(self, workspace, offline, coefficients, n_random, rng_seed, xi):
        self.workspace = workspace
        self.offline = offline
        self._coefficients = coefficients
        self._n_random = n_random
        self._rng_seed = rng_seed
        self._xi = xi
        self.usable = np.ones(len(coefficients["Q"]), dtype=bool)
        self._z = {}
        self._y = {}

    def coefficients(self, side, letter):
        """Values at the points of the monomials of one family's pieces."""
        if side == "dual":
            letter = {"B": "C", "C": "B"}.get(letter, letter)
        return self._coefficients[letter]

    def _assembled(self, family, side, letter):
        # the family's terms are its trailing pieces (see monomial_pieces)
        values = self.coefficients(side, letter)
        return family.assemble_stack(values[:, values.shape[1] - len(family.terms) :])

    def z(self, model):
        """Reduced coordinates of the model's solutions at the points."""
        if model.field not in self._z:
            system = getattr(self.workspace, model.field).system
            if model.rhs is None:
                rhs = self._assembled(system.B, model.side, "B")
            else:
                rhs = self.offline.projections[model.field, "W", model.rhs] @ self.y(model.rhs)
            operators = self._assembled(system.Q, model.side, "Q")
            self._z[model.field], usable = lu_solve_stack(operators, rhs)
            self.usable &= usable
        return self._z[model.field]

    def y(self, name):
        """Coordinates of residual ``name`` in its orthonormal basis."""
        if name not in self._y:
            model = _RESIDUAL_OF[name]
            R_B, S, T = self.offline.factors[name]
            if model.rhs is None:
                ports = np.eye(model.system_of(self.offline.sys).n_inputs)
                head = R_B @ np.concatenate(
                    [scaled_stack(c, ports) for c in self.coefficients(model.side, "B").T], axis=1
                )
            else:
                head = self.y(model.rhs)
            z = self.z(model)
            tail = np.concatenate(
                [-c[:, None, None] * z for c in self.coefficients(model.side, "Q").T], axis=1
            )
            self._y[name] = np.concatenate([head + S @ tail, T @ tail], axis=1)
        return self._y[name]

    def pair(self, model, name):
        """``x_hat^T r`` of the model's solutions and a residual, (samples x n_out x n_in)."""
        tested = self.offline.projections[model.field, "V", name] @ self.y(name)
        value = np.swapaxes(self.z(model), -1, -2) @ tested
        return np.swapaxes(value, -1, -2) if model.side == "primal" else value

    def output(self, model):
        """``C x_hat`` of the model's solutions, by its own reduced output map."""
        system = getattr(self.workspace, model.field).system
        return self._assembled(system.C, model.side, "C") @ self.z(model)

    def norm(self, name):
        """Worst column 2-norm of the residual: the norm of its coordinates."""
        return np.max(np.linalg.norm(self.y(name), axis=-2), axis=-1)

    @cached_property
    def delta1(self):
        return self.pair(DUAL, "r_pr")

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
    the online terms of a stack of samples to the (part1, part2) stacks of
    magnitude matrices (samples x n_outputs x n_inputs), part2 None for
    one-part kinds. ``residuals`` are the residuals whose worst-column
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
#: ``W^T r_pr`` and ``W^T r_rpr`` (``r_rpr = r_pr - Q x_rpr_hat``). In the
#: formulas, ``t.pair(X, r)`` is ``x_X_hat^T r`` and ``t.output(X)`` is
#: ``C x_X_hat``.
ESTIMATORS = {
    # (1/K) sqrt(sum_i |xi_i x_du_hat^T r_pr|^2), seeded normal weights xi
    EstimatorKind.DELTA_R: EstimatorSpec(
        models=(DUAL,),
        parts=_delta_r_parts,
        residuals=("r_pr",),
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
        parts=lambda t: (np.abs(t.output(PRIMAL_RESIDUAL)), None),
        residuals=("r_pr", "r_rpr"),
        alpha="r_rpr_norm",
    ),
    # Delta1 + |x_rdu_hat^T r_pr|
    EstimatorKind.DELTA_2: EstimatorSpec(
        models=(DUAL, DUAL_RESIDUAL),
        parts=lambda t: (np.abs(t.delta1), np.abs(t.pair(DUAL_RESIDUAL, "r_pr"))),
        residuals=("r_pr", "r_du"),
        alpha="part2",
        gamma="part1",
    ),
    # Delta1 + |r_du^T x_rpr_hat|
    EstimatorKind.DELTA_2PR: EstimatorSpec(
        models=(DUAL, PRIMAL_RESIDUAL),
        parts=lambda t: (np.abs(t.delta1), np.abs(t.pair(PRIMAL_RESIDUAL, "r_du"))),
        residuals=("r_pr", "r_du"),
        alpha="part2",
        gamma="part1",
    ),
    # Delta1Pr + |x_du_hat^T r_rpr|
    EstimatorKind.DELTA_3: EstimatorSpec(
        models=(DUAL, PRIMAL_RESIDUAL),
        parts=lambda t: (np.abs(t.output(PRIMAL_RESIDUAL)), np.abs(t.pair(DUAL, "r_rpr"))),
        residuals=("r_pr", "r_rpr"),
        alpha="part1",
    ),
    # Delta1Pr + |C x_rrpr_hat|
    EstimatorKind.DELTA_3PR: EstimatorSpec(
        models=(PRIMAL_RESIDUAL, PRIMAL_RESIDUAL_RESIDUAL),
        parts=lambda t: (
            np.abs(t.output(PRIMAL_RESIDUAL)),
            np.abs(t.output(PRIMAL_RESIDUAL_RESIDUAL)),
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
    required depends on the kind and is checked at construction. The
    workspace also caches, per kind, the offline terms of the last system
    it was evaluated against (see the module docstring).
    """

    kind: EstimatorKind
    rom_primal: object
    rom_dual: object = None
    rom_dual_residual: object = None
    rom_primal_residual: object = None
    rom_primal_residual_residual: object = None
    _offline: dict = field(default_factory=dict, init=False, repr=False, compare=False)

    def __post_init__(self):
        self.kind = EstimatorKind.from_name(self.kind)
        _require_models(self, self.kind)

    @staticmethod
    def required_roms(kind):
        return [model.field for model in ESTIMATORS[kind].models]

    def _offline_terms(self, kind, sys):
        """The kind's offline terms against ``sys``, rebuilt when the system changes."""
        terms = self._offline.get(kind)
        if terms is None or terms.sys is not sys:
            terms = self._offline[kind] = _offline_terms(self, ESTIMATORS[kind], sys)
        return terms

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
        return cls(
            kind=kind,
            **{
                model.field: reduce_system(model.system_of(sys), trial[model.key], test[model.key])
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


def _max_abs(matrix):
    return float(np.max(np.abs(matrix)))


def _stack_max_abs(matrices):
    return np.max(np.abs(matrices), axis=(-2, -1))


def _require_models(workspace, kind):
    missing = [
        name for name in EstimatorWorkspace.required_roms(kind) if getattr(workspace, name) is None
    ]
    if missing:
        raise MissingWorkspaceRomError(
            f"estimator {kind.value} requires {missing} in the workspace"
        )


def _stack_breakdowns(kind, terms):
    """The breakdowns at one stack of samples, None where a sample is unusable."""
    spec = ESTIMATORS[kind]
    # an unusable sample carries infinities and NaNs through the stack; it is dropped below
    with np.errstate(over="ignore", invalid="ignore"):
        part1, part2 = spec.parts(terms)
        total = part1 if part2 is None else part1 + part2
        fields = {"total": _stack_max_abs(total), "part1": _stack_max_abs(part1)}
        if part2 is not None:
            fields["part2"] = _stack_max_abs(part2)
        aux = {f"{name}_norm": terms.norm(name) for name in spec.residuals}
    usable = terms.usable & np.isfinite([*fields.values(), *aux.values()]).all(axis=0)
    return [
        EstimateBreakdown(
            kind=kind,
            **{key: float(values[i]) for key, values in fields.items()},
            aux={key: float(values[i]) for key, values in aux.items()},
        )
        if ok
        else None
        for i, ok in enumerate(usable)
    ]


def evaluate(kind, workspace, sys, point, n_random=20, rng_seed=0, xi=None):
    """Evaluate one estimator at one sample point or at a sequence of them.

    Given one point (a mapping), returns its EstimateBreakdown; a reduced
    operator that is singular there, or a reduced quantity that is not
    finite, raises SingularReducedSystemError naming the point. Given a
    sequence of points, returns a list aligned with it, None where a point
    would raise. Both go through the same stacked pass, so a point's
    breakdown does not depend on the points evaluated with it.

    ``n_random``/``rng_seed``/``xi`` only affect the randomized kind: the
    weights are drawn once from the seed (or taken verbatim from ``xi``),
    so a sweep with a fixed seed uses the same weights at every sample.
    For several channels each field is the max over (output, input) pairs.
    The first call for a (workspace, kind, system) also runs the offline
    step; later calls work on reduced quantities only.
    """
    kind = EstimatorKind.from_name(kind)
    _require_models(workspace, kind)
    offline = workspace._offline_terms(kind, sys)
    single = isinstance(point, Mapping)
    points = [point] if single else list(point)
    coefficients = {
        letter: np.array(
            [[monomial(p) for monomial in monomials] for p in points], dtype=np.complex128
        ).reshape(len(points), len(monomials))
        for letter, monomials in offline.monomials.items()
    }
    breakdowns = []
    for start in range(0, len(points), _CHUNK):
        chunk = {letter: values[start : start + _CHUNK] for letter, values in coefficients.items()}
        terms = _StackTerms(workspace, offline, chunk, n_random, rng_seed, xi)
        breakdowns += _stack_breakdowns(kind, terms)
    if not single:
        return breakdowns
    if breakdowns[0] is None:
        raise SingularReducedSystemError(
            f"estimator {kind.value}: a reduced operator is singular or a reduced quantity "
            f"is not finite at {point!r}"
        )
    return breakdowns[0]


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


def true_error(sys, workspace, point, verify_identity=False, cache=None):
    """Exact output error ``max_ij |H_ij - H_hat_ij|`` at one sample point.

    ``H`` comes from ``sys.transfer_function``: one triangular solve on a
    dense frequency-only system (its Schur form is built once), one
    full-order factorization on any other. With ``verify_identity`` the
    direct difference of transfer functions is cross-checked against the
    exact identity ``H - H_hat = x_du^T r_pr`` (full dual solution from a
    full-order LU, against the reduced primal residual); disagreement
    beyond rounding raises. ``cache`` is a dict the caller keeps for one
    system: it maps sample points to the full-order ``H(p)``, so a point
    seen before costs no full-order work.
    """
    key = tuple(sorted(point.items()))
    if cache is not None and key in cache and not verify_identity:
        H = cache[key]
    else:
        H = sys.transfer_function(point)
        if cache is not None:
            cache[key] = H
    H_hat = workspace.rom_primal.transfer_function(point)
    err_mat = H - H_hat
    direct = _max_abs(err_mat)
    if verify_identity:
        *_, r_pr, x_du = _full_order_chain(sys, workspace, point)
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


def _full_order_chain(sys, workspace, point):
    """``(lu, Q(p), C(p), r_pr, x_du)``: the full-order terms of ``H - H_hat = x_du^T r_pr``.

    The maps are assembled before the reduced solve, so a singular operator
    or a map that is not finite raises SingularAtSampleError naming the point.
    """
    lu = sys.operator_lu(point)
    Bp = sys._map_at("B", point)
    Cp = sys._map_at("C", point)
    Qp = sys.Q.assemble(point)
    _, xhat_pr = workspace.rom_primal.solve(point)
    r_pr = Bp - Qp @ xhat_pr
    x_du = lu.transposed().solve(Cp.T)
    return lu, Qp, Cp, r_pr, x_du


def sensitivity_report(sys, workspace, point):
    """All envelope diagnostics at one sample point (single-channel systems).

    Solves the full dual and residual systems once each (sharing one LU)
    and returns every epsilon/delta scalar alongside the true error, taken
    as ``|C x_rpr|``. Requires a workspace carrying all four optional
    reduced models.
    """
    if sys.n_inputs != 1 or sys.n_outputs != 1:
        raise ValueError("sensitivity diagnostics are defined for single-channel systems")
    ws = workspace
    missing = [model.field for model in REDUCED_MODELS if getattr(ws, model.field) is None]
    if missing:
        raise MissingWorkspaceRomError(f"sensitivity diagnostics require {missing}")

    lu, Qp, Cp, r_pr, x_du = _full_order_chain(sys, ws, point)

    _, xhat_du = ws.rom_dual.solve(point)
    r_du = Cp.T - Qp.T @ xhat_du

    x_rdu = lu.transposed().solve(r_du)
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
        true_error=scalar(Cp @ x_rpr),
    )
