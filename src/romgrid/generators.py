"""Synthetic benchmark systems at desk scale.

Stand-ins for the usual large benchmark families: a symmetric RC ladder
(the "nearly symmetric" regime where naive dual bases collapse), dense
random stable state-space models, a parametric second-order form with
proportional damping, and a multi-port variant.
"""

import numpy as np
import scipy.sparse

from .system import AffineMatrix, Monomial, from_first_order, from_second_order

__all__ = [
    "rc_ladder",
    "random_stable",
    "symmetric_second_order",
    "mimo_block",
    "generate_synthetic",
]


def rc_ladder(n, conductance=1.0, capacitance=1.0, coupling=0.3):
    """Grounded resistor/capacitor chain, driven and measured at node 1.

    ``Q(s) = s*C_mat + G`` with both matrices symmetric tridiagonal and
    positive definite, ``B = e_1`` and ``C = B^T``, so ``Q(s)^T = Q(s)``
    exactly: the estimator-degeneracy regime for shared expansion points.
    ``G`` and ``C_mat`` are real sparse (CSC) matrices, so the operator
    family is sparse and every full-order step (assembly, LU, products)
    costs O(n) per sample.
    """
    if n < 2:
        raise ValueError("ladder needs at least 2 nodes")
    laplacian = scipy.sparse.diags_array(
        [-1.0, 2.0, -1.0], offsets=[-1, 0, 1], shape=(n, n), format="csc"
    )
    G = conductance * laplacian
    C_mat = capacitance * scipy.sparse.eye_array(n, format="csc") + coupling * laplacian
    b = np.zeros((n, 1))
    b[0, 0] = 1.0
    return from_first_order(C_mat, -G, b, b.T, name=f"rc_ladder_{n}")


def _shifted_stable(rng, n):
    # symmetric part is -(P^T P) - I, so the numerical range (and hence the
    # spectrum) stays left of Re = -1 for any skew part
    p = rng.standard_normal((n, n)) / np.sqrt(n)
    k = rng.standard_normal((n, n)) / np.sqrt(n)
    return -(p.T @ p) - np.eye(n) + 0.5 * (k - k.T)


def random_stable(n, seed=0):
    """Dense nonsymmetric SISO system with spectrum in the open left half-plane."""
    if n < 2:
        raise ValueError("n must be at least 2")
    rng = np.random.default_rng(seed)
    a = _shifted_stable(rng, n)
    b = rng.standard_normal((n, 1))
    c = rng.standard_normal((1, n))
    return from_first_order(np.eye(n), a, b, c, name=f"random_stable_{n}")


def _spd(rng, n, shift=1.0):
    r = rng.standard_normal((n, n))
    return r @ r.T / n + shift * np.eye(n)


def symmetric_second_order(n, seed=0):
    """Parametric second-order family with proportional damping.

    ``Q = s^2 M(d) + s D + T(d)`` with ``M(d) = M_1 + d M_2``,
    ``T(d) = T_1 + T_2/d + d T_3`` (all five matrices symmetric positive
    definite) and ``D = alpha*M(d) + beta*T(d)``. Parameters: ``s``, ``d``
    (nonzero), ``alpha``, ``beta``; ``C = B^T`` keeps the family exactly
    symmetric.
    """
    if n < 2:
        raise ValueError("n must be at least 2")
    rng = np.random.default_rng(seed)
    m1, m2 = _spd(rng, n), _spd(rng, n)
    t1, t2, t3 = _spd(rng, n), _spd(rng, n), _spd(rng, n)
    d_mon = Monomial(1.0, {"d": 1})
    d_inv = Monomial(1.0, {"d": -1})
    mass = AffineMatrix((n, n), base=m1, terms=[(d_mon, m2)])
    stiffness = AffineMatrix((n, n), base=t1, terms=[(d_inv, t2), (d_mon, t3)])
    alpha = Monomial(1.0, {"alpha": 1})
    beta = Monomial(1.0, {"beta": 1})
    damping = mass.scaled_by(alpha).plus(stiffness.scaled_by(beta))
    b = rng.standard_normal((n, 1))
    return from_second_order(
        mass, damping, stiffness, b, b.T, name=f"symmetric_second_order_{n}"
    )


def mimo_block(n, ports=2, seed=0):
    """Dense stable system with ``ports`` inputs and ``ports`` outputs."""
    if n < 2:
        raise ValueError("n must be at least 2")
    if ports < 1 or ports > n:
        raise ValueError("ports must be between 1 and n")
    rng = np.random.default_rng(seed)
    a = _shifted_stable(rng, n)
    b = rng.standard_normal((n, ports))
    c = rng.standard_normal((ports, n))
    return from_first_order(np.eye(n), a, b, c, name=f"mimo_block_{n}x{ports}")


_GENERATORS = {
    "rc_ladder": (rc_ladder, 1),
    "random_stable": (random_stable, 1),
    "symmetric_second_order": (symmetric_second_order, 1),
    "mimo_block": (mimo_block, 2),
}


def generate_synthetic(spec, seed=None):
    """Build a generator system from a spec string like ``rc_ladder:200``.

    Format: ``name:arg,arg,...`` with integer arguments; generators taking
    a seed use ``seed`` (default 0) unless the spec supplies it explicitly,
    e.g. ``random_stable:60,3`` or ``mimo_block:40,4,7``.
    """
    name, _, tail = str(spec).partition(":")
    name = name.strip()
    if name not in _GENERATORS:
        raise ValueError(
            f"unknown synthetic system {name!r}; choose from {sorted(_GENERATORS)}"
        )
    factory, n_required = _GENERATORS[name]
    args = [int(a) for a in tail.split(",") if a.strip()] if tail else []
    if len(args) < n_required:
        raise ValueError(f"{name} needs at least {n_required} integer argument(s)")
    if factory is not rc_ladder and len(args) == n_required and seed is not None:
        args = args + [int(seed)]
    return factory(*args)
