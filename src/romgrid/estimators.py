"""Output error estimators for reduced transfer functions.

All estimators are built from the same ingredients: the reduced primal
solution's residual ``r_pr = B - Q x_pr_hat``, approximate dual solutions,
and approximate solutions of residual systems (linear systems whose
right-hand side is one of those residuals). None of them needs an inf-sup
or smallest-singular-value computation, and none needs a full-order
factorization; full-order solves appear only in ``true_error``.

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
``[Q_j V_rpr]``. The offline step factors each stack as ``P = U R`` (``U``
orthonormal, one append-only basis per side; a piece is dropped from ``U``
only where it depends on the others to roundoff of its own norm, so a tiny
piece with a huge coefficient keeps its term), and the workspace keeps only
small arrays: ``R`` and the projections ``X^T U`` onto the bases that read
the residuals. The offline step grows with the bases, and one object owns
every n-row array of a run: ``GrowingWorkspace`` holds the bases, grows them
by ``append`` and keeps the n-row products and ``U``, and each greedy
iteration projects and factors only the columns it adds (the standard
incremental reduced-basis offline step, as in Haasdonk's 2017 tutorial).
``EstimatorWorkspace.from_bases`` is the same step on all the columns at
once. ``EstimatorWorkspace.to_arrays`` and ``from_arrays`` hand a workspace
to a later process as its r-sized arrays, which then evaluates it bit for
bit without the offline step. The online step evaluates the monomial coefficients, solves the
reduced models, assembling their own reduced maps, and multiplies small
matrices, so its cost does not depend on the full order n: a residual is
``r = U y`` with coordinates ``y = R F``, a bilinear form ``X^T r`` is
``(X^T U) y`` and ``||r|| = ||y||``. That is the numerically stable form
of Buhr, Engwer, Ohlberger & Rave (2014); the Gram form ``F^H P^H P F``
would lose all accuracy below about sqrt(eps) times the norm of the
pieces. The coordinates of ``r_rpr`` are formed from those of ``r_pr`` in
the same basis, so like the full-order chain ``r_rpr = r_pr - Q
x_rpr_hat`` it stays accurate relative to ``r_pr``, not to the pieces.

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
quantities are not finite, is masked instead of raising; one point is a
stack of one, which raises its sample's cause. The points are taken in
passes sized by bytes: as many samples as keep the stacked operators at
the largest reduced dimension within ``linalg._CHUNK_BYTES``, the size of
16 samples at r = 80. That bounds the memory of a pass: the
150-sample validation of a model with r = 78 peaks near 3 MB in passes of
16, against 28 MB in one stack. A small model takes many samples per pass
(455 at r = 15, so a 60-sample ladder sweep is one pass), which spreads
the fixed Python cost of a pass, about 0.25 ms, where a sample's own work
on that ladder is about 0.045 ms.

For systems with several inputs/outputs every bilinear form is an
(n_outputs x n_inputs) matrix and estimates take the max over channels.
"""

import enum
from dataclasses import dataclass, field
from functools import cached_property

import numpy as np

from . import linalg, projection
from .errors import MissingWorkspaceRomError, RomgridError, SingularReducedSystemError
from .linalg import lu_solve_stack, scaled_stack
from .projection import ProjectionState, _commutes, bordered, reduce_system
from .system import _outcome, _point_or_stack

__all__ = [
    "EstimatorKind",
    "ESTIMATORS",
    "REDUCED_MODELS",
    "EstimatorWorkspace",
    "EstimateBreakdown",
    "evaluate",
    "true_error",
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
    def _missing_(cls, name):
        raise ValueError(f"unknown estimator {name!r}; choose from {[k.value for k in cls]}")


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


def _merged_by_piece(T, block, pieces):
    """The columns of ``T`` and ``block``, both piece-major, merged piece by piece.

    Column ``j * r + i`` of a factor ``T`` belongs to piece j times basis
    column i; ``block`` holds the same for the new basis columns. The result
    has ``block``'s rows, zero where ``T`` has none.
    """
    rows, old, new = block.shape[0], T.shape[1] // pieces, block.shape[1] // pieces
    out = np.zeros((rows, pieces, old + new), dtype=np.complex128)
    out[: T.shape[0], :, :old] = T.reshape(T.shape[0], pieces, old)
    out[:, :, old:] = block.reshape(rows, pieces, new)
    return out.reshape(rows, pieces * (old + new))


def _sum_rows(a, b):
    """``a + b`` for stacks whose row counts differ, the shorter one zero below its rows."""
    if a.shape[-2] < b.shape[-2]:
        a, b = b, a
    out = a.copy()
    out[..., : b.shape[-2], :] += b
    return out


@dataclass
class _OfflineTerms:
    """Reduced images of one system's affine pieces, for one estimator kind.

    ``factors`` maps a residual to the blocks ``(R_B, T)`` of its
    coordinates in its side's residual basis ``U``: ``R_B`` for the input
    pieces (None for a residual model's residual) and ``T`` for the
    operator pieces times the model's basis, piece by piece.
    Each block has the rows of the columns of ``U`` there were when it last
    grew; the coordinates along later columns are zero. ``projections``
    maps a (model field, ``"V"`` or ``"W"``, side) key to ``X^T U``. See
    ``GrowingWorkspace``; the reduced output maps are the models' own.
    """

    sys: object
    factors: dict
    projections: dict


class GrowingWorkspace:
    """The one owner of a run's n-row state, for one kind and system.

    ``bases`` maps each model's key to its trial basis and ``test`` to its
    test basis (None or absent: Galerkin), each a ``Basis`` or an array as
    ``reduce_system`` takes it. They are the bases the owner is built from:
    empty ones in the greedy loop, the supplied ones in ``from_bases`` and
    in the offline step for another kind or system. A trial basis grows only
    through ``append``, by ``Basis.appended``, which keeps its leading
    columns; nothing else hands a basis in, so no one checks that a basis
    extends an earlier one. Growth is Galerkin-only, since no caller grows a
    test basis: a model with one is built once. ``extend`` builds the
    workspace on the current bases and works on the columns gained since its
    last call only:

    * each model is extended by ``reduce_system`` through its
      ``ProjectionState``, which forms the new products ``M_j V_new``;
    * the new stack columns of each residual (the input pieces once, then
      ``M_j V_new``) are appended to the side's residual basis ``U`` by
      ``linalg._extend``, the routine that grows the trial bases, at a
      threshold of ``max(n, m) * eps`` of each column's own norm, and the
      residual's factor grows by the columns' coordinates in the grown ``U``;
    * each projection ``X^T U`` onto a basis that reads the residuals grows
      by its new rows and columns.

    The residual of model M is ``r = [h | Q_1 V_M | ... | Q_J V_M] F`` with
    ``h`` the side's input pieces ``B_k`` or, for a residual model, the
    residual M is solved against. Each side (primal, dual) keeps one
    append-only orthonormal residual basis in ``residual_bases``, and every
    residual of the side has its coordinates in it, ``r = U y``. A residual
    model's residual starts from the coordinates of the residual it is
    solved against, in the same basis, so ``r_rpr``'s coordinates extend
    those of ``r_pr``: like the full-order chain ``r_rpr = r_pr - Q
    x_rpr_hat`` it stays accurate relative to ``r_pr``, not to the pieces.
    One basis per side keeps that true while ``r_pr`` grows under an
    existing ``r_rpr``: new ``r_pr`` columns are orthogonalized against
    ``r_rpr``'s too, and ``r_pr`` gets coordinates along them.

    Per iteration this costs O(nnz Δr + n r Δr) for Δr new columns. The
    owner holds the bases, for every model the products ``M_j V`` (J n-row
    columns per basis column, in its ``ProjectionState``) and, per side,
    ``U``; the workspaces ``extend`` returns hold only small arrays besides
    their bases. ``from_bases`` is one ``extend`` of an owner built on all
    the columns.
    """

    def __init__(self, sys, kind, bases, test=None):
        self.sys = sys
        self.kind = EstimatorKind(kind)
        _require_models(self.kind, bases)
        spec = ESTIMATORS[self.kind]
        self.models = [model for model in REDUCED_MODELS if model.key in bases]
        self.bases = dict(bases)
        self.test = test or {}
        self.states = {model.key: ProjectionState(model.system_of(sys)) for model in self.models}
        wanted = set(spec.residuals) | {model.rhs for model in spec.models if model.rhs}
        self.residuals = [model for model in REDUCED_MODELS if model.residual in wanted]
        self.readers = spec.models
        self.residual_bases = {
            model.side: np.zeros((sys.order, 0), dtype=np.complex128) for model in self.residuals
        }
        self.factors = {}
        self.projections = {}

    def append(self, key, block):
        """Grow trial basis ``key`` by the directions ``block`` adds; returns how many it added."""
        if self.test.get(key) is not None:
            raise ValueError(f"basis {key} has a test basis; only Galerkin bases grow")
        before = self.bases[key].dim
        self.bases[key] = self.bases[key].appended(block)
        return self.bases[key].dim - before

    def extend(self):
        """The workspace on the current bases.

        Only the columns gained since the last call are projected and factored.
        """
        models = {
            model.field: reduce_system(
                model.system_of(self.sys),
                self.bases[model.key],
                self.test.get(model.key),
                state=self.states[model.key],
            )
            for model in self.models
        }
        for model in self.residuals:
            self._grow_residual(model)
        for model in self.readers:
            rom = models[model.field]
            for side in self.residual_bases:
                if side != model.side:
                    self._grow_projection((model.field, "V", side), rom.V)
            if model.rhs is not None:
                self._grow_projection((model.field, "W", model.side), rom.W)
        workspace = EstimatorWorkspace(kind=self.kind, **models)
        workspace._offline[self.kind] = _OfflineTerms(
            self.sys, dict(self.factors), dict(self.projections)
        )
        return workspace

    def collapsed(self):
        """Whether the kind's estimate is zero by construction, whatever the error.

        A kind whose row reads the dual model alone estimates ``x_du_hat^T
        r_pr``. When ``V`` does not fill the space and ``span(V_du)`` lies in
        ``span(V)`` (``V_du`` adds no column to ``V`` at ``DEFLATION_TOL``),
        Galerkin orthogonality, ``V^T r_pr = 0``, makes that vanish.
        """
        V, V_du = self.bases["V"], self.bases.get("V_du")
        if ESTIMATORS[self.kind].models != (DUAL,) or V.dim == V.rows:
            return False
        return linalg._extend(V.columns, V_du.columns, linalg.DEFLATION_TOL)[0].shape[1] == V.dim

    def _append(self, side, block):
        """Extend a side's residual basis by ``block``; returns the block's coordinates in it."""
        U, coordinates = linalg._extend(self.residual_bases[side], block, max(block.shape) * _EPS)
        self.residual_bases[side] = U
        return coordinates

    def _grow_residual(self, model):
        """Extend the factor ``(R_B, T)`` of the model's residual by its new stack columns."""
        state = self.states[model.key]
        R_B, T = self.factors.get(model.residual, (None, np.zeros((0, 0), dtype=np.complex128)))
        if model.rhs is None and R_B is None:
            inputs = model.system_of(self.sys).B.monomial_pieces()
            R_B = self._append(model.side, np.hstack([matrix for _, matrix in inputs]))
        if state.added:
            block = self._append(model.side, np.hstack(state.added))
            T = _merged_by_piece(T, block, len(state.added))
        self.factors[model.residual] = (R_B, T)

    def _grow_projection(self, key, basis):
        """Extend ``X^T U`` of a basis X and a side's residual basis by new rows and columns."""
        U = self.residual_bases[key[2]]
        old = self.projections.get(key, np.zeros((0, 0), dtype=np.complex128))
        rows, cols = old.shape
        below = [basis.columns[:, rows:].T @ U[:, :cols]]
        self.projections[key] = bordered(old, below, basis.columns.T @ U[:, cols:])


class _StackTerms:
    """Online ingredients of the estimators at a stack of sample points.

    Reduced solutions ``z``, residual coordinates ``y`` and the bilinear
    forms built from them, each with a leading sample axis and formed on
    first use, so every kind forms exactly what its row in ``ESTIMATORS``
    reads. ``coefficients`` maps each primal family letter to its (samples
    x pieces) monomial values; the dual side reads the same arrays, since
    its ``Q``, ``B`` and ``C`` are the primal ``Q``, ``C`` and ``B``
    transposed piece by piece. ``regular`` marks the samples whose reduced
    operators have all passed the LU rule; a right-hand side that is not
    finite is solved all the same, and the finiteness check of
    ``_stack_breakdowns`` meets what it gives. Nothing here has n rows.
    """

    def __init__(self, workspace, offline, coefficients, n_random, rng_seed):
        self.workspace = workspace
        self.offline = offline
        self._coefficients = coefficients
        self._n_random = n_random
        self._rng_seed = rng_seed
        self.regular = np.ones(len(coefficients["Q"]), dtype=bool)
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
                rhs = self._tested((model.field, "W", model.side), self.y(model.rhs))
            operators = self._assembled(system.Q, model.side, "Q")
            self._z[model.field], regular = lu_solve_stack(operators, rhs)
            self.regular &= regular
        return self._z[model.field]

    def y(self, name):
        """Coordinates of residual ``name`` in its side's orthonormal residual basis."""
        if name not in self._y:
            model = _RESIDUAL_OF[name]
            R_B, T = self.offline.factors[name]
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
            self._y[name] = _sum_rows(head, T @ tail)
        return self._y[name]

    def _tested(self, key, y):
        """``X^T r`` from the projection ``X^T U`` under ``key`` and coordinates ``y``."""
        return self.offline.projections[key][:, : y.shape[-2]] @ y

    def pair(self, model, name):
        """``x_hat^T r`` of the model's solutions and a residual, (samples x n_out x n_in)."""
        tested = self._tested((model.field, "V", _RESIDUAL_OF[name].side), self.y(name))
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
        return np.random.default_rng(self._rng_seed).standard_normal(int(self._n_random))


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


def models_of(kind):
    """The reduced models estimator ``kind`` reads: the primal one, then those of its row."""
    return (PRIMAL,) + ESTIMATORS[kind].models


@dataclass
class EstimatorWorkspace:
    """The reduced models one estimator kind needs, bundled.

    ``rom_primal`` approximates the state equation; the optional members
    approximate the dual equation and the residual equations. Which are
    required depends on the kind and is checked at construction. The
    workspace also holds, per kind, the offline terms of the last system
    it was built for or evaluated against (see the module docstring).
    """

    kind: EstimatorKind
    rom_primal: object
    rom_dual: object = None
    rom_dual_residual: object = None
    rom_primal_residual: object = None
    rom_primal_residual_residual: object = None
    _offline: dict = field(default_factory=dict, init=False, repr=False, compare=False)

    def __post_init__(self):
        self.kind = EstimatorKind(self.kind)
        _require_models(self.kind, self.bases)

    @property
    def bases(self):
        """The trial basis of every reduced model present, by basis key."""
        return {
            model.key: getattr(self, model.field).V
            for model in REDUCED_MODELS
            if getattr(self, model.field) is not None
        }

    def _offline_terms(self, kind, sys):
        """The kind's offline terms against ``sys``, built anew for another kind or system.

        ``from_bases`` and the greedy loop leave the terms of their own kind
        and system here; any other pair runs the offline step on this
        workspace's bases, in one ``GrowingWorkspace`` extension.
        """
        terms = self._offline.get(kind)
        if terms is None or terms.sys is not sys:
            models = models_of(kind)
            trial = {model.key: getattr(self, model.field).V for model in models}
            test = {model.key: getattr(self, model.field).W for model in models}
            growth = GrowingWorkspace(sys, kind, trial, test)
            terms = self._offline[kind] = growth.extend()._offline[kind]
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
        """Project the system onto whichever bases are supplied, and run the offline step.

        Dual-side models are reductions of the transposed system, so the
        same Galerkin/Petrov-Galerkin machinery serves both sides. Bases
        beyond the kind's requirements are projected too (``evaluate``
        reads them for another kind); missing required ones raise. This is
        one extension of an empty ``GrowingWorkspace`` by all the columns,
        the same code the greedy loop extends by each iteration's new
        columns; the workspace comes back with the offline terms of ``kind``
        against ``sys``.
        """
        trial = {"V": V, "V_du": V_du, "V_rdu": V_rdu, "V_rpr": V_rpr, "V_rrpr": V_rrpr}
        test = {"V": W, "V_du": W_du, "V_rdu": W_rdu, "V_rpr": W_rpr, "V_rrpr": W_rrpr}
        supplied = {key: basis for key, basis in trial.items() if basis is not None}
        return GrowingWorkspace(sys, kind, supplied, test).extend()

    def to_arrays(self):
        """The online workspace of the workspace's own kind, as named arrays for ``np.savez``.

        Every reduced model's ``pieces``, in the ``monomial_pieces`` order of
        the family it reduces (a reduced base that is exactly zero is a piece
        where that family has a base), and the kind's offline factors and
        projections: all r-sized. ``from_arrays`` reads them back.
        """
        offline = self._offline[self.kind]
        arrays = {"kind": np.array(self.kind.value)}
        for model in REDUCED_MODELS:
            rom = getattr(self, model.field)
            for letter in "QBC" if rom is not None else "":
                for j, matrix in enumerate(rom.pieces[letter]):
                    arrays[f"{model.key}.{letter}.{j}"] = matrix
        for name, (R_B, T) in offline.factors.items():
            arrays.update({f"T.{name}": T} if R_B is None else {f"T.{name}": T, f"R_B.{name}": R_B})
        arrays.update({".".join(("XU", *key)): xu for key, xu in offline.projections.items()})
        return arrays

    @classmethod
    def from_arrays(cls, sys, bases, arrays):
        """The workspace ``to_arrays`` wrote, on ``sys`` and Galerkin bases ``{key: Basis}``.

        ``arrays`` lists the arrays in the order ``to_arrays`` wrote them, as
        ``np.load`` hands them back. The workspace carries its kind's offline
        terms against ``sys`` and holds the arrays as they are, so it
        evaluates bit for bit as the workspace that wrote them. A model is
        taken where ``bases`` holds its basis, and only if its stored pieces
        match ``sys``'s families in number and it passes
        ``projection.check_reduction`` against ``sys`` and that basis; the
        offline terms are taken only if they pass ``_check_factors``. Else
        ValueError, KeyError or ProjectionMismatchError.
        """

        def stored(prefix):
            # the arrays whose names start with ``prefix``, by the rest of the name
            return {key[len(prefix) :]: a for key, a in arrays.items() if key.startswith(prefix)}

        models = {}
        for model in (model for model in REDUCED_MODELS if model.key in bases):
            side, basis = model.system_of(sys), bases[model.key]
            pieces = {letter: list(stored(f"{model.key}.{letter}.").values()) for letter in "QBC"}
            models[model.field] = projection.reduced_model(side, pieces, basis, basis)
            projection.check_reduction(side, models[model.field])
        workspace = cls(kind=str(arrays["kind"]), **models)
        factors = {name: (stored("R_B.").get(name), T) for name, T in stored("T.").items()}
        projections = {tuple(key.split(".")): xu for key, xu in stored("XU.").items()}
        terms = _OfflineTerms(sys, factors, projections)
        _check_factors(models, terms)
        workspace._offline[workspace.kind] = terms
        return workspace


def _check_factors(models, terms):
    """Raise ProjectionMismatchError unless ``terms`` factor the residual pieces of ``models``.

    ``models`` maps each model's field to its ``ReducedModel``. For a
    workspace read from a file: ``U`` is not stored, so each residual
    is checked through what ``U`` being orthonormal implies. Fixed-seed
    weights ``f`` over its pieces ``P`` (``[B_k | Q_j V]``, or ``[Q_j V]``
    alone where ``R_B`` is None) must give ``||P f|| = ||y||`` with ``y =
    [R_B | T] f``, and ``X^T P f = (X^T U) y`` for every stored projection
    onto the residual's side, each under the one roundoff rule
    (``linalg.identity_holds`` at the side's order): O(n^2 + n r) per
    residual on a dense system.
    """
    rng = np.random.default_rng(0)
    for name, (R_B, T) in terms.factors.items():
        model = _RESIDUAL_OF[name]
        side, V = model.system_of(terms.sys), models[model.field].V.columns
        inputs = [] if R_B is None else [matrix for _, matrix in side.B.monomial_pieces()]
        pieces = [matrix for _, matrix in side.Q.monomial_pieces()]
        g = rng.standard_normal((len(inputs), side.n_inputs, 1))
        f = rng.standard_normal((len(pieces), V.shape[1], 1))
        Pf = sum(m @ w for m, w in zip(inputs, g)) + sum(m @ (V @ w) for m, w in zip(pieces, f))
        y = T @ f.reshape(-1, 1)
        if R_B is not None:
            y = _sum_rows(R_B @ g.reshape(-1, 1), y)
        _commutes(name, np.linalg.norm(Pf), np.linalg.norm(y), len(Pf))
        for (field, letter, of_side), xu in terms.projections.items():
            if of_side == model.side:
                X = getattr(models[field], letter).columns
                _commutes(name, X.T @ Pf, xu[:, : len(y)] @ y, len(Pf))


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


def _max_abs(matrix):
    return float(np.max(np.abs(matrix)))


def _stack_max_abs(matrices):
    return np.max(np.abs(matrices), axis=(-2, -1))


def _require_models(kind, keys):
    """Raise unless ``keys`` holds the basis key of every reduced model ``kind`` reads."""
    missing = [model.field for model in models_of(kind) if model.key not in keys]
    if missing:
        raise MissingWorkspaceRomError(
            f"estimator {kind.value} requires {missing} in the workspace"
        )


def _stack_breakdowns(kind, terms, points):
    """Per point of one stack, its breakdown or the SingularReducedSystemError naming its cause.

    The cause is the LU rule where it rejected one of the point's reduced
    operators, else a reduced quantity that is not finite.
    """
    spec = ESTIMATORS[kind]
    # an unusable sample carries infinities and NaNs through the stack; it is dropped below
    with np.errstate(over="ignore", invalid="ignore"):
        part1, part2 = spec.parts(terms)
        total = part1 if part2 is None else part1 + part2
        fields = {"total": _stack_max_abs(total), "part1": _stack_max_abs(part1)}
        if part2 is not None:
            fields["part2"] = _stack_max_abs(part2)
        aux = {f"{name}_norm": terms.norm(name) for name in spec.residuals}
    finite = np.isfinite([*fields.values(), *aux.values()]).all(axis=0)
    return [
        EstimateBreakdown(
            kind=kind,
            **{key: float(values[i]) for key, values in fields.items()},
            aux={key: float(values[i]) for key, values in aux.items()},
        )
        if regular and finite[i]
        else _masked(kind, point, regular)
        for i, (point, regular) in enumerate(zip(points, terms.regular))
    ]


def _masked(kind, point, regular):
    """The SingularReducedSystemError of a masked point, naming the point and its cause."""
    cause = "reduced quantity not finite" if regular else "reduced operator singular"
    return SingularReducedSystemError(f"estimator {kind.value}: {cause} at {point!r}", cause)


def evaluate(kind, workspace, sys, point, n_random=20, rng_seed=0):
    """Evaluate one estimator at one sample point or at a sequence of them.

    Given one point (a mapping), returns its EstimateBreakdown. It raises
    SingularReducedSystemError naming the point where the LU rule rejects
    one of the point's reduced operators (its ``cause`` reads "reduced
    operator singular") or, failing that, where a reduced quantity is not
    finite ("reduced quantity not finite"). Given a sequence of points,
    returns a list aligned with it, None where a point would raise. One
    point is a stack of one (``system._point_or_stack``): both go through
    the same stacked pass, so a point's breakdown does not depend on the
    points evaluated with it.

    ``n_random``/``rng_seed`` only affect the randomized kind: its
    ``n_random`` normal weights are drawn once from the seed, so a sweep
    with a fixed seed uses the same weights at every sample. The
    coefficient monomials are read from ``sys``'s families.
    For several channels each field is the max over (output, input) pairs.
    A workspace from ``from_bases`` or ``run_greedy`` carries the offline
    terms of its own kind and system; the first call for another pair runs
    the offline step. Every call then works on reduced quantities only.
    """
    kind = EstimatorKind(kind)
    _require_models(kind, workspace.bases)
    offline = workspace._offline_terms(kind, sys)
    largest = max(1, *(getattr(workspace, model.field).dim for model in models_of(kind)))
    step = max(1, linalg._CHUNK_BYTES // (np.dtype(np.complex128).itemsize * largest**2))

    def stacked(points):
        coefficients = {}
        for letter in "BQC":
            monomials = [m for m, _ in getattr(sys, letter).monomial_pieces()]
            coefficients[letter] = np.array(
                [[monomial(p) for monomial in monomials] for p in points], dtype=np.complex128
            ).reshape(len(points), len(monomials))
        out = []
        for start in range(0, len(points), step):
            chunk = {letter: c[start : start + step] for letter, c in coefficients.items()}
            terms = _StackTerms(workspace, offline, chunk, n_random, rng_seed)
            out += _stack_breakdowns(kind, terms, points[start : start + step])
        return out

    return _point_or_stack(point, stacked)


def true_error(sys, workspace, point, verify_identity=False, responses=None):
    """Exact output error ``max_ij |H_ij - H_hat_ij|`` at one sample point or at a sequence of them.

    Given one point (a mapping), returns its error; a singular full-order
    operator or a non-finite map raises SingularAtSampleError, a singular
    reduced one SingularReducedSystemError. Given a sequence of points,
    returns a list aligned with it, None where a point would raise. One
    point is a stack of one (``system._point_or_stack``). The full-order
    ``H`` comes from one stacked ``sys.transfer_function`` pass over the
    points (one triangular solve per point on a dense frequency-only
    system, one band LU per point on a banded sparse one), unless the
    caller already holds it and passes ``responses``, a list aligned with
    the sequence as that pass returns it. ``H_hat`` comes per point from
    the reduced primal model. With ``verify_identity`` the direct
    difference of transfer functions is cross-checked at every point against
    the exact identity ``H - H_hat = x_du^T r_pr`` (full dual solution from a
    full-order LU, against the reduced primal residual); disagreement beyond
    rounding raises. That check keeps its own tolerance, not
    ``linalg.identity_holds``: it compares two full-order solves, ``H``
    and ``x_du``, whose errors grow with the operator's conditioning, not
    two products of the same arrays, whose errors the rule bounds.
    """

    def stacked(points):
        exact = sys._responses(points) if responses is None else responses
        return [
            H if isinstance(H, RomgridError)
            else _outcome(_true_error, sys, workspace, p, H, verify_identity)
            for p, H in zip(points, exact)
        ]

    return _point_or_stack(point, stacked)


def _true_error(sys, workspace, point, H, verify_identity):
    """The true error at one point whose full-order ``H`` is known."""
    H_hat = workspace.rom_primal.transfer_function(point)
    err_mat = H - H_hat
    direct = _max_abs(err_mat)
    if verify_identity:
        # a singular operator or a map that is not finite raises SingularAtSampleError
        # naming the point
        lu, Bp, Cp = sys.operator_lu(point), sys._map_at("B", point), sys._map_at("C", point)
        rom = workspace.rom_primal
        r_pr = Bp - sys.Q.assemble(point) @ (rom.V.columns @ rom.solve(point))
        identity_mat = lu.transposed().solve(Cp.T).T @ r_pr
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
