"""Moment-matching basis blocks.

Two builders, both reusing a single LU of the operator at the expansion
point for every level:

* ``krylov_block`` -- frequency-only systems. With ``Q(s) = s E - A`` the
  levels are ``span{Q^{-1}B, (Q^{-1}E) Q^{-1}B, ...}``, which matches
  derivatives of the state with respect to s at the expansion point.
* ``multimoment_block`` -- parametric systems in affine form. Shifting every
  coefficient to the expansion point turns the state into a Neumann-type
  series whose level-k blocks are products of ``M_j = -Q(p)^{-1} Q_j``
  applied to ``R_0 = Q(p)^{-1} [pieces of B]``; the block stacks levels 0..q.

Every block is capped at ``MAX_BLOCK_COLUMNS`` columns, read at each call.
``expansion_block`` picks the builder for a system. Dual-side blocks come
from running the same builders on ``sys.dual()``. Every builder takes the
factorization of the operator at the point, so a caller can factor once
and serve several blocks: a dual block reuses the primal LU of ``Q(p)``
through its ``transposed()`` view, a solve with ``Q(p)^T`` on the same
factors, instead of factoring ``Q(p)^T`` again. Every level, the first
included, is one ``_level`` solve: a level, or the right-hand side it
solves for, that is not finite (a solve that overflows) raises
SingularAtSampleError naming the point, as a singular operator does, by
the system's one finiteness rule.
"""

import numpy as np

from .errors import DimensionMismatchError
from .system import LAPLACE

__all__ = [
    "krylov_block",
    "multimoment_block",
    "expansion_block",
]

#: Hard cap on the number of columns a single block may contribute.
MAX_BLOCK_COLUMNS = 64


def krylov_block(sys, s, q, lu=None):
    """Levels 0..q-1 of the shifted Krylov sequence at frequency ``s``.

    Requires a system whose only parameter is the Laplace variable. Level 0
    is ``Q(s)^{-1} B``; each next level multiplies by ``Q(s)^{-1} E`` where
    ``E`` is the s-derivative of the operator family (the descriptor matrix
    for first-order realizations). ``q >= 1`` counts levels, so the block has
    ``q * n_inputs`` columns before the ``MAX_BLOCK_COLUMNS`` cap. ``lu`` is
    the factorization of ``Q(s)``, computed here when not given.
    """
    if q < 1:
        raise ValueError(f"level count q must be >= 1, got {q}")
    point = {LAPLACE: complex(s)}
    if lu is None:
        lu = sys.operator_lu(point)
    e_matrix = sys.Q.diff(LAPLACE).assemble(point)
    level = _level(sys, point, lu, sys._map_at("B", point))
    levels = [level]
    total = level.shape[1]
    for _ in range(1, q):
        if total >= MAX_BLOCK_COLUMNS:
            break
        level = _level(sys, point, lu, e_matrix @ level)
        levels.append(level)
        total += level.shape[1]
    return np.hstack(levels)[:, :MAX_BLOCK_COLUMNS]


def multimoment_block(sys, point, q, lu=None):
    """Levels 0..q of the multi-parameter moment recursion at ``point``.

    Level 0 solves the operator against every constituent matrix of the
    input family (so affine inputs contribute one block per piece); level k
    applies every ``M_j = -Q(p)^{-1} Q_j`` to level k-1, one j per affine
    term of the operator. ``q >= 0`` is the highest level index; q=0 keeps
    only level 0. Column growth is geometric in the number of operator
    terms, so the ``MAX_BLOCK_COLUMNS`` cap truncates the highest level.
    ``lu`` is the factorization of ``Q(p)``, computed here when not given.
    """
    if q < 0:
        raise ValueError(f"highest level index q must be >= 0, got {q}")
    if lu is None:
        lu = sys.operator_lu(point)
    if not (sys.B.has_base or sys.B.terms):
        raise DimensionMismatchError("input family has no nonzero pieces")
    level = _level(sys, point, lu, np.hstack([m for _, m in sys.B.monomial_pieces()]))
    blocks = [level]
    total = level.shape[1]
    operator_terms = [matrix for _, matrix in sys.Q.terms]
    for _ in range(1, q + 1):
        if total >= MAX_BLOCK_COLUMNS or not operator_terms:
            break
        level = np.hstack([-_level(sys, point, lu, t @ level) for t in operator_terms])
        room = MAX_BLOCK_COLUMNS - total
        level = level[:, :room]
        blocks.append(level)
        total += level.shape[1]
    return np.hstack(blocks)


def _level(sys, point, lu, rhs):
    """``Q(p)^{-1} rhs`` from the factorization ``lu``, both checked finite."""
    return sys._finite(point, lu.solve(sys._finite(point, rhs, "moment block")), "moment block")


def expansion_block(sys, point, q, lu=None):
    """Moment block of ``sys`` at ``point``, picking the builder by system kind.

    Frequency-only systems use the Krylov builder (``q`` counts levels, at
    least one); parametric systems use the multimoment builder (``q`` is
    the highest level). For a dual-side block pass ``sys.dual()``, and, to
    reuse a factorization of the primal operator, its ``transposed()``.
    """
    if sys.is_parametric:
        return multimoment_block(sys, point, q, lu)
    return krylov_block(sys, point[LAPLACE], q, lu)
