"""Projection bases and reduced models.

Reduction is termwise: each affine piece of the operator family is
compressed as ``W^T M_j V`` (plain transpose), so the reduced family has the
same coefficients as the full one and assembles at any sample point without
touching full-order data. Galerkin (W = V) is the default; passing a
separate test basis gives the Petrov-Galerkin variant. Bases only grow by
appending, so a ``ProjectionState`` keeps the products ``M_j V`` and
extends a reduced model by its border blocks (``bordered``) when the bases
grow. The state holds no basis of its own: it reads the old columns from the
model it built last, and whoever grows the bases (the estimators'
``GrowingWorkspace``) hands the grown ones to ``reduce_system``. Every
model ``reduce_system`` builds, and every one read back from a file, is
checked against the system by ``check_reduction``, under the one roundoff
rule ``linalg.identity_holds``.
"""

from functools import cached_property

import numpy as np

from . import linalg
from .errors import (
    DimensionMismatchError,
    ProjectionMismatchError,
    SingularMatrixError,
    SingularReducedSystemError,
)
from .system import AffineMatrix, ParametricSystem

__all__ = [
    "Basis",
    "ProjectionState",
    "ReducedModel",
    "reduce_system",
]


class Basis:
    """Orthonormal column block.

    Immutable by convention: ``appended`` returns a new Basis whose leading
    columns are exactly the old ones, which is what keeps span-containment
    arguments across greedy iterations exact. A basis built from given
    columns keeps them as they are, orthonormal or not; ``column_norm``
    is their largest 2-norm.
    """

    def __init__(self, columns):
        self.columns = linalg._as_complex_matrix(columns, "basis")

    @classmethod
    def empty(cls, rows):
        return cls(np.zeros((rows, 0), dtype=np.complex128))

    @property
    def rows(self):
        return self.columns.shape[0]

    @property
    def dim(self):
        return self.columns.shape[1]

    @cached_property
    def column_norm(self):
        """The largest column 2-norm, 1 for orthonormal columns: entrywise,
        ``|W^T| |y| <= column_norm * ||y||``."""
        return _largest_norm(self.columns)

    def appended(self, block):
        """New basis extended by the directions ``block`` adds (may be none)."""
        extended = linalg.orthonormalize_append(self.columns, block)
        if extended is self.columns:
            return self
        grown = Basis(extended)
        grown.column_norm = max(self.column_norm, _largest_norm(extended[:, self.dim :]))
        return grown

    def __repr__(self):
        return f"Basis({self.rows}x{self.dim})"


def _largest_norm(columns):
    return float(np.linalg.norm(columns, axis=0).max(initial=0.0))


class ReducedModel:
    """Projected system together with its trial/test bases.

    ``system`` is the reduced ParametricSystem (same coefficients, small
    matrices); ``V``/``W`` are the full-order bases used to build it.
    ``pieces`` maps each family letter to ``system``'s matrices in the
    ``monomial_pieces`` order of the family they reduce, the one list of
    them: a reduced base is a piece where that family's base is one, even
    where it came out exactly zero. Solves return reduced coordinates
    ``z``; the full-order state is ``V.columns @ z``.
    """

    def __init__(self, system, V, W, pieces):
        self.system = system
        self.V = V
        self.W = W
        self.pieces = pieces

    @property
    def dim(self):
        return self.system.order

    def operator_lu(self, point):
        try:
            return linalg.lu_factor(self.system.Q.assemble(point))
        except SingularMatrixError as exc:
            raise SingularReducedSystemError(
                f"reduced operator ({self.dim} dofs) is singular at {point!r}: {exc}"
            ) from exc

    def solve(self, point):
        """Reduced coordinates ``z`` of the solution at ``point``, against the reduced input map.

        A singular operator, or an input map that is not finite, raises
        SingularReducedSystemError naming the point.
        """
        lu = self.operator_lu(point)
        reduced_rhs = self.system.B.assemble(point)
        if not np.isfinite(reduced_rhs).all():
            raise SingularReducedSystemError(
                f"reduced input map ({self.dim} dofs) has non-finite entries at {point!r}"
            )
        return lu.solve(reduced_rhs)

    def transfer_function(self, point):
        """Reduced ``H_hat(p) = C_r(p) Q_r(p)^{-1} B_r(p)``; a singular reduced
        operator raises SingularReducedSystemError."""
        z = self.solve(point)
        return self.system.C.assemble(point) @ z


class ProjectionState:
    """The n-row products behind one reduced model, kept so that it grows by its borders.

    For every piece ``M_j`` of the operator family (``monomial_pieces``
    order) it keeps ``P_j = M_j V`` as column blocks, one per extension that
    added trial columns, and the reduced pieces ``W^T M_j V``, ``W^T B_k``
    and ``C_k V`` of the model built last. The bases themselves are the last
    model's: ``reduce_system`` extends the state by the columns V and W
    gained beyond that model's, which the caller keeps in place (bases grow
    by ``Basis.appended``, whose leading columns are the old ones), and a
    basis narrower than the model's is refused. An extension forms one
    product ``M_j V_new`` per piece (a sparse-times-block product for a
    sparse piece, one GEMM for a dense one), the border blocks ``W^T P_j[:,
    new]`` and ``W_new^T P_j[:, old]``, new rows ``W_new^T B_k`` and new
    columns ``C_k V_new``. ``added`` holds the blocks ``M_j V_new`` of the
    last extension (empty when V did not grow), which the estimators'
    residual factorizations read. The reduced operator pieces are grown
    Fortran-contiguous, the layout ``assemble_stack`` writes and LAPACK
    reads, so assembling a reduced operator reads and writes contiguously;
    every other product keeps numpy's default layout, under which its
    matmuls round as they always have. The state forms nothing for the
    check of the model it builds: ``check_reduction`` needs the bases and
    the system only.
    """

    def __init__(self, sys):
        self.sys = sys
        self.model = None
        self.added = []
        self._pieces = {
            letter: [matrix for _, matrix in getattr(sys, letter).monomial_pieces()]
            for letter in "QBC"
        }
        self.products = [[] for _ in self._pieces["Q"]]
        self._Q = [np.zeros((0, 0), dtype=np.complex128) for _ in self._pieces["Q"]]
        self._B = [np.zeros((0, sys.n_inputs), dtype=np.complex128) for _ in self._pieces["B"]]
        self._C = [np.zeros((sys.n_outputs, 0), dtype=np.complex128) for _ in self._pieces["C"]]

    def extend(self, V, W):
        """The reduced model on V and W, projecting only the columns gained since the last one."""
        v0, w0 = (0, 0) if self.model is None else (self.model.V.dim, self.model.W.dim)
        if V.dim < v0 or W.dim < w0:
            raise ValueError("a projection state grows only by bases at least as wide as its own")
        self.added = []
        if self.model is not None and (V.dim, W.dim) == (v0, w0):
            return self.model
        v_new, w_new = V.columns[:, v0:], W.columns[:, w0:]
        wt = W.columns.T
        if V.dim > v0:
            self.added = [matrix @ v_new for matrix in self._pieces["Q"]]
        for j, kept in enumerate(self.products):
            new = wt @ self.added[j] if self.added else np.zeros((W.dim, 0), dtype=np.complex128)
            self._Q[j] = bordered(self._Q[j], [w_new.T @ block for block in kept], new, order="F")
            if self.added:
                kept.append(self.added[j])
        self._B = [np.concatenate([old, w_new.T @ m]) for old, m in zip(self._B, self._pieces["B"])]
        self._C = [
            np.concatenate([old, m @ v_new], axis=1) for old, m in zip(self._C, self._pieces["C"])
        ]
        self.model = reduced_model(self.sys, {"Q": self._Q, "B": self._B, "C": self._C}, V, W)
        return self.model


def bordered(old, below, right, order="C"):
    """``old`` grown by new rows and columns: ``[[old, right_top], [below, right_bottom]]``.

    ``right`` holds the new columns over all rows; ``below`` lists the new
    rows' entries under ``old``'s columns as column blocks, left to right,
    which together span those columns. ``order`` is the result's layout.
    """
    rows, cols = old.shape
    out = np.empty((right.shape[0], cols + right.shape[1]), dtype=np.complex128, order=order)
    out[:rows, :cols] = old
    start = 0
    for block in below:
        out[rows:, start : start + block.shape[1]] = block
        start += block.shape[1]
    out[:, cols:] = right
    return out


def reduced_model(sys, pieces, V, W):
    """The ReducedModel on V and W whose families take ``sys``'s coefficients.

    ``pieces`` maps each family letter to its reduced matrices, in the
    order of ``sys``'s ``monomial_pieces``.
    """
    pieces = {letter: list(pieces[letter]) for letter in "QBC"}  # the caller may refill its lists
    families = [_family(getattr(sys, letter), pieces[letter]) for letter in "QBC"]
    reduced = ParametricSystem(
        *families, parameter_names=sys.parameter_names, name=f"{sys.name}:reduced"
    )
    return ReducedModel(reduced, V, W, pieces)


def _family(family, matrices):
    """``family``'s coefficients on new matrices, given in its ``monomial_pieces`` order."""
    pieces = list(zip(family.monomial_pieces(), matrices, strict=True))
    base = pieces.pop(0)[1] if len(pieces) > len(family.terms) else None
    terms = [(monomial, matrix) for (monomial, _), matrix in pieces]
    return AffineMatrix(matrices[0].shape, base=base, terms=terms)


def reduce_system(sys, V, W=None, state=None):
    """Project a system onto trial basis V (and test basis W, default V).

    Every affine piece is compressed with the plain transpose of W, as ``W^T
    (M_j V)``; the reduced input map is ``W^T B`` and the reduced output map
    ``C V``. ``state`` is the ``ProjectionState`` of an earlier reduction of
    ``sys`` onto leading columns of V and W: only the columns gained since
    are projected and the state is updated in place; bases narrower than the
    state's raise ValueError. Without it the whole bases are projected,
    through a new state. Every model built is checked by ``check_reduction``,
    as a model read from a file is; a state whose bases did not grow hands
    back its last model, already checked.
    """
    if not isinstance(V, Basis):
        V = Basis(V)
    if W is None:
        W = V
    elif not isinstance(W, Basis):
        W = Basis(W)
    if V.rows != sys.order or W.rows != sys.order:
        raise DimensionMismatchError(
            f"bases with {V.rows}/{W.rows} rows do not match system order {sys.order}"
        )
    if state is None:
        state = ProjectionState(sys)
    elif state.sys is not sys:
        raise ValueError("the projection state belongs to another system")
    built = state.model
    model = state.extend(V, W)
    if model is not built:
        check_reduction(sys, model)
    return model


def check_reduction(sys, model):
    """Raise ProjectionMismatchError unless ``model`` is ``sys`` projected onto its bases.

    Freivalds' form of the commutation check, with fixed-seed vectors ``v``
    and ``u``, at the system's probe point, where ``ParametricSystem._probe``
    holds ``Q``, ``B`` and ``C``: ``W^T (Q (V v))``, ``W^T (B u)`` and ``C (V
    v)`` must match the reduced operator, input and output maps times ``v``
    or ``u`` under the one roundoff rule, ``linalg.identity_holds`` at the
    system's order. Each is measured against the magnitudes its last sum
    adds up, ``|X| |y|`` for ``X y``: ``|C| |V v|``, and for ``W^T y`` the
    bound ``W.column_norm * ||y||`` of ``|W^T| |y|`` (Cauchy-Schwarz, column
    by column), which scales with W whether or not its columns are
    orthonormal. So an output map orthogonal to the trial basis, whose ``C
    (V v)`` is roundoff, is judged by the size of ``C`` and ``V v``. O(n^2 +
    n r) on a dense system. Bases whose shapes do not fit the model raise
    ValueError.
    """
    (point, Q, B, C), rng = sys._probe, np.random.default_rng(0)
    v, u = rng.standard_normal(model.dim), rng.standard_normal(sys.n_inputs)
    wt, Vv, reduced = model.W.columns.T, model.V.columns @ v, model.system
    QVv, Bu, w = Q @ Vv, B @ u, model.W.column_norm
    checks = (
        ("Q_r", wt @ QVv, reduced.Q.assemble(point) @ v, w * np.linalg.norm(QVv)),
        ("B_r", wt @ Bu, reduced.B.assemble(point) @ u, w * np.linalg.norm(Bu)),
        ("C_r", C @ Vv, reduced.C.assemble(point) @ v, np.abs(C) @ np.abs(Vv)),
    )
    for what, full, small, magnitude in checks:
        _commutes(what, full, small, sys.order, magnitude, point)


def _commutes(what, full, small, n, magnitude=None, point=None):
    """Raise ProjectionMismatchError naming ``what``, and ``point`` if given, unless
    ``linalg.identity_holds`` accepts; the message is formatted only then."""
    if not linalg.identity_holds(full, small, n, magnitude):
        where = "" if point is None else f" at {point!r}"
        raise ProjectionMismatchError(f"projection/assembly commutation of {what}{where} fails")
