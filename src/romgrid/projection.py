"""Projection bases and reduced models.

Reduction is termwise: each affine piece of the operator family is
compressed as ``W^T M_j V`` (plain transpose), so the reduced family has the
same coefficients as the full one and assembles at any sample point without
touching full-order data. Galerkin (W = V) is the default; passing a
separate test basis gives the Petrov-Galerkin variant.
"""

import numpy as np

from . import linalg
from .errors import (
    DimensionMismatchError,
    ProjectionMismatchError,
    SingularMatrixError,
    SingularReducedSystemError,
)
from .system import ParametricSystem

__all__ = [
    "Basis",
    "ReducedModel",
    "reduce_system",
]


class Basis:
    """Orthonormal column block with a role label.

    Immutable by convention: ``appended`` returns a new Basis whose leading
    columns are exactly the old ones, which is what keeps span-containment
    arguments across greedy iterations exact.
    """

    def __init__(self, columns, label="V"):
        self.columns = linalg._as_complex_matrix(columns, "basis")
        self.label = label

    @classmethod
    def empty(cls, rows, label="V"):
        return cls(np.zeros((rows, 0), dtype=np.complex128), label=label)

    @property
    def rows(self):
        return self.columns.shape[0]

    @property
    def dim(self):
        return self.columns.shape[1]

    def appended(self, block, deflation_tol=1e-10):
        """New basis extended by the directions ``block`` adds (may be none)."""
        extended = linalg.orthonormalize_append(self.columns, block, deflation_tol)
        if extended is self.columns:
            return self
        return Basis(extended, label=self.label)

    def orthonormality_deviation(self):
        return linalg.gram_deviation(self.columns)

    def __repr__(self):
        return f"Basis({self.label!r}, {self.rows}x{self.dim})"


class ReducedModel:
    """Projected system together with its trial/test bases.

    ``system`` is the reduced ParametricSystem (same coefficients, small
    matrices); ``V``/``W`` are the full-order bases used to build it. Solves
    return both the reduced coordinates and the lifted full-order vector.
    """

    def __init__(self, system, V, W):
        self.system = system
        self.V = V
        self.W = W

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

    def solve(self, point, rhs=None, reduced=False):
        """Solve the reduced system and lift.

        With ``rhs=None`` the right-hand side is the reduced input map
        evaluated at ``point``; otherwise ``rhs`` is a full-order block that
        is compressed as ``W^T rhs``. Returns ``(z, lifted)`` where
        ``lifted = V z``. With ``reduced=True`` the call stays in reduced
        coordinates: ``rhs`` is an already compressed block (``dim`` rows)
        and ``lifted`` is None, so nothing of full-order size is formed. A
        singular operator, or a non-finite input map where ``rhs`` is None,
        raises SingularReducedSystemError naming the point.
        """
        lu = self.operator_lu(point)
        if rhs is None:
            reduced_rhs = self.system.B.assemble(point)
            if not np.isfinite(reduced_rhs).all():
                raise SingularReducedSystemError(
                    f"reduced input map ({self.dim} dofs) has non-finite entries at {point!r}"
                )
        else:
            rhs = np.asarray(rhs, dtype=np.complex128)
            if rhs.ndim == 1:
                rhs = rhs.reshape(-1, 1)
            reduced_rhs = rhs if reduced else self.W.columns.T @ rhs
        z = lu.solve(reduced_rhs)
        return z, None if reduced else self.V.columns @ z

    def transfer_function(self, point):
        """Reduced ``H_hat(p) = C_r(p) Q_r(p)^{-1} B_r(p)``; a singular reduced
        operator raises SingularReducedSystemError."""
        z, _ = self.solve(point, reduced=True)
        return self.system.C.assemble(point) @ z


def reduce_system(sys, V, W=None, validate=True):
    """Project a system onto trial basis V (and test basis W, default V).

    Every affine piece is compressed with the plain transpose of W; the
    reduced input map is ``W^T B`` and the reduced output map ``C V``. When
    ``validate`` is set, assembly-then-projection is checked against
    projection-then-assembly at one nonzero sample point.
    """
    if not isinstance(V, Basis):
        V = Basis(V)
    if W is None:
        W = V
    elif not isinstance(W, Basis):
        W = Basis(W, label="W")
    if V.rows != sys.order or W.rows != sys.order:
        raise DimensionMismatchError(
            f"bases with {V.rows}/{W.rows} rows do not match system order {sys.order}"
        )
    wt = W.columns.T
    v = V.columns
    Q_r = sys.Q.map_matrices(lambda m: wt @ m @ v)
    B_r = sys.B.map_matrices(lambda m: wt @ m)
    C_r = sys.C.map_matrices(lambda m: m @ v)
    reduced = ParametricSystem(
        Q_r, B_r, C_r, parameter_names=sys.parameter_names, name=f"{sys.name}:reduced"
    )
    model = ReducedModel(reduced, V, W)
    if validate and V.dim > 0:
        _check_commutation(sys, model)
    return model


def _check_commutation(sys, model, tol=1e-12):
    # Projecting the assembled operator must match assembling the projected
    # family; a probe at one generic point guards the termwise build.
    rng = np.random.default_rng(12345)
    point = {
        name: complex(0.5 + rng.random(), rng.random())
        for name in sys.parameter_names
    }
    full = model.W.columns.T @ sys.Q.assemble(point) @ model.V.columns
    small = model.system.Q.assemble(point)
    scale = max(float(np.max(np.abs(full))), 1.0)
    deviation = float(np.max(np.abs(full - small)))
    if deviation > tol * scale:
        raise ProjectionMismatchError(
            f"projection/assembly commutation off by {deviation:.3e} (scale {scale:.3e}) "
            f"at {point!r}"
        )

