"""Reference implementations the tests compare the package against.

Everything in this module recomputes quantities from dense ndarrays with
numpy.linalg, sharing no solver or projection code with the library. The
oracle chain is deliberately flat-footed: assemble, solve, subtract. Tests
feed both implementations the same inputs and demand agreement.

All transposes are plain (bilinear) transposes, never conjugated; the
library's identities only hold in that convention.
"""

import numpy as np
import scipy.sparse

# ---------------------------------------------------------------------------
# dense projection and solves


def project(Q, B, C, V, W):
    """Reduced operator triple via the test/trial bases, plain transpose."""
    return W.T @ Q @ V, W.T @ B, C @ V


def transfer(Q, B, C):
    return C @ np.linalg.solve(Q, B)


def reduced_transfer(Q, B, C, V, W):
    Qr, Br, Cr = project(Q, B, C, V, W)
    return Cr @ np.linalg.solve(Qr, Br)


def lifted_solve(Q, rhs, V, W):
    """Reduced solve of Q x = rhs projected onto (V, W), lifted back."""
    return V @ np.linalg.solve(W.T @ Q @ V, W.T @ rhs)


def lifted_dual_solve(Q, rhs, V, W):
    """Reduced solve of Q^T x = rhs, same convention."""
    return V @ np.linalg.solve(W.T @ Q.T @ V, W.T @ rhs)


def primal_residual(sys, point, lifted_state):
    """Residual ``B(p) - Q(p) x_hat`` of a lifted approximate state block."""
    return sys.B.assemble(point) - sys.Q.assemble(point) @ lifted_state


def dual_residual(sys, point, lifted_dual):
    """Residual ``C(p)^T - Q(p)^T x_du_hat`` of a lifted approximate dual block."""
    return sys.C.assemble(point).T - sys.Q.assemble(point).T @ lifted_dual


def sparse_assemble(family, point):
    """A sparse family at one point by scipy's sparse sums, as a CSC array.

    The term-by-term loop the library's union-pattern assembly replaced:
    the base cast to complex, then each term added by scipy's sparse add,
    which drops every entry that comes out exactly zero.
    """
    out = family.base.astype(np.complex128)
    for monomial, matrix in family.terms:
        out = out + monomial(point) * matrix
    return scipy.sparse.csc_array(out)


# ---------------------------------------------------------------------------
# basis growth


def orthonormalize_append(basis, block, deflation_tol=1e-10):
    """Modified Gram-Schmidt, one column at a time, two passes over every kept column.

    The column-by-column reference for ``linalg.orthonormalize_append``:
    same contract (existing columns unchanged, a column dropped when its
    remaining norm is at most ``deflation_tol`` times its original norm,
    zero columns skipped, ``basis`` itself returned when nothing is added).
    """
    block = np.asarray(block, dtype=np.complex128).reshape(np.shape(block)[0], -1)
    columns = [basis[:, j] for j in range(basis.shape[1])]
    n_existing = len(columns)
    for j in range(block.shape[1]):
        v = block[:, j].copy()
        original_norm = np.linalg.norm(v)
        if original_norm == 0.0:
            continue
        for _ in range(2):
            for u in columns:
                v -= (u.conj() @ v) * u
        remaining = np.linalg.norm(v)
        if remaining <= deflation_tol * original_norm:
            continue
        columns.append(v / remaining)
    if len(columns) == n_existing:
        return basis
    return np.column_stack(columns)


# ---------------------------------------------------------------------------
# estimator chains
#
# Each function returns the two nonnegative part matrices (n_O x n_I); the
# scalar estimate is max over entries of their sum. Bases arrive as a dict
# with keys V, W, V_du, W_du, V_rdu, W_rdu, V_rpr, W_rpr, V_rrpr, W_rrpr
# (only the ones a chain needs have to be present).


def _primal_pieces(Q, B, b):
    xhat_pr = lifted_solve(Q, B, b["V"], b["W"])
    r_pr = B - Q @ xhat_pr
    return xhat_pr, r_pr


def _dual_pieces(Q, C, b):
    xhat_du = lifted_dual_solve(Q, C.T, b["V_du"], b["W_du"])
    r_du = C.T - Q.T @ xhat_du
    return xhat_du, r_du


def parts_delta1(Q, B, C, b):
    _, r_pr = _primal_pieces(Q, B, b)
    xhat_du, _ = _dual_pieces(Q, C, b)
    return np.abs(xhat_du.T @ r_pr), None


def parts_delta2(Q, B, C, b):
    _, r_pr = _primal_pieces(Q, B, b)
    xhat_du, r_du = _dual_pieces(Q, C, b)
    xhat_rdu = lifted_dual_solve(Q, r_du, b["V_rdu"], b["W_rdu"])
    return np.abs(xhat_du.T @ r_pr), np.abs(xhat_rdu.T @ r_pr)


def parts_delta2pr(Q, B, C, b):
    _, r_pr = _primal_pieces(Q, B, b)
    xhat_du, r_du = _dual_pieces(Q, C, b)
    xhat_rpr = lifted_solve(Q, r_pr, b["V_rpr"], b["W_rpr"])
    return np.abs(xhat_du.T @ r_pr), np.abs(r_du.T @ xhat_rpr)


def parts_delta1pr(Q, B, C, b):
    _, r_pr = _primal_pieces(Q, B, b)
    xhat_rpr = lifted_solve(Q, r_pr, b["V_rpr"], b["W_rpr"])
    return np.abs(C @ xhat_rpr), None


def parts_delta3(Q, B, C, b):
    _, r_pr = _primal_pieces(Q, B, b)
    xhat_du, _ = _dual_pieces(Q, C, b)
    xhat_rpr = lifted_solve(Q, r_pr, b["V_rpr"], b["W_rpr"])
    r_rpr = r_pr - Q @ xhat_rpr
    return np.abs(C @ xhat_rpr), np.abs(xhat_du.T @ r_rpr)


def parts_delta3pr(Q, B, C, b):
    _, r_pr = _primal_pieces(Q, B, b)
    xhat_rpr = lifted_solve(Q, r_pr, b["V_rpr"], b["W_rpr"])
    r_rpr = r_pr - Q @ xhat_rpr
    xhat_rrpr = lifted_solve(Q, r_rpr, b["V_rrpr"], b["W_rrpr"])
    return np.abs(C @ xhat_rpr), np.abs(C @ xhat_rrpr)


PART_FUNCS = {
    "delta1": parts_delta1,
    "delta2": parts_delta2,
    "delta2pr": parts_delta2pr,
    "delta1pr": parts_delta1pr,
    "delta3": parts_delta3,
    "delta3pr": parts_delta3pr,
}


def parts_delta_r(Q, B, C, b, xi):
    """Seeded sketch of delta1: (1/K) sqrt(sum_i |xi_i delta1|^2)."""
    p1, _ = parts_delta1(Q, B, C, b)
    return np.sqrt(sum(np.abs(w * p1) ** 2 for w in xi)) / len(xi), None


def estimate(kind, Q, B, C, b):
    p1, p2 = PART_FUNCS[kind](Q, B, C, b)
    total = p1 if p2 is None else p1 + p2
    return float(np.max(total))


def residual_norms(Q, B, C, b):
    """Worst column 2-norms of r_pr, r_du (with V_du) and r_rpr (with V_rpr)."""

    def worst(block):
        return float(np.max(np.linalg.norm(block, axis=0)))

    _, r_pr = _primal_pieces(Q, B, b)
    out = {"r_pr_norm": worst(r_pr)}
    if b.get("V_du") is not None:
        out["r_du_norm"] = worst(_dual_pieces(Q, C, b)[1])
    if b.get("V_rpr") is not None:
        xhat_rpr = lifted_solve(Q, r_pr, b["V_rpr"], b["W_rpr"])
        out["r_rpr_norm"] = worst(r_pr - Q @ xhat_rpr)
    return out


# ---------------------------------------------------------------------------
# exact error, identity, sensitivity terms (SISO scalars)


def true_error_matrix(Q, B, C, b):
    return np.abs(transfer(Q, B, C) - reduced_transfer(Q, B, C, b["V"], b["W"]))


def identity_matrix(Q, B, C, b):
    """Error rewritten through the full dual solution and primal residual."""
    _, r_pr = _primal_pieces(Q, B, b)
    x_du = np.linalg.solve(Q.T, C.T)
    return np.abs(x_du.T @ r_pr)


def sensitivity_terms(Q, B, C, b):
    """All envelope ingredients for a SISO workspace, as a plain dict.

    These are the full-order sensitivity terms of the paper's envelope
    statements, which ``envelope`` reads; the library does not compute them,
    since they need the full solutions its estimators avoid.
    """
    if B.shape[1] != 1 or C.shape[0] != 1:
        raise ValueError("sensitivity oracle is single-input single-output only")
    xhat_pr, r_pr = _primal_pieces(Q, B, b)
    xhat_du, r_du = _dual_pieces(Q, C, b)
    x_du = np.linalg.solve(Q.T, C.T)

    x_rdu = np.linalg.solve(Q.T, r_du)  # equals x_du - xhat_du exactly
    xhat_rdu = lifted_dual_solve(Q, r_du, b["V_rdu"], b["W_rdu"])

    x_rpr = np.linalg.solve(Q, r_pr)
    xhat_rpr = lifted_solve(Q, r_pr, b["V_rpr"], b["W_rpr"])
    r_rpr = r_pr - Q @ xhat_rpr

    x_rrpr = np.linalg.solve(Q, r_rpr)  # equals x_rpr - xhat_rpr exactly
    xhat_rrpr = lifted_solve(Q, r_rpr, b["V_rrpr"], b["W_rrpr"])

    def mag(m):
        return float(np.max(np.abs(m)))

    return {
        "epsilon1": mag((x_du - xhat_du).T @ r_pr),
        "epsilon1_pr": mag(C @ (x_rpr - xhat_rpr)),
        "epsilon2": mag((x_rdu - xhat_rdu).T @ r_pr),
        "epsilon2_pr": mag(r_du.T @ (x_rpr - xhat_rpr)),
        "epsilon3": mag((x_du - xhat_du).T @ r_pr),
        "epsilon3_residual": mag((x_du - xhat_du).T @ r_rpr),
        "epsilon3_pr": mag(C @ (x_rrpr - xhat_rrpr)),
        "delta2_term": mag(xhat_rdu.T @ r_pr),
        "delta2_pr_term": mag(r_du.T @ xhat_rpr),
        "delta3_term": mag(xhat_du.T @ r_rpr),
        "delta3_pr_term": mag(C @ xhat_rrpr),
        "true_error": mag(true_error_matrix(Q, B, C, b)),
    }


def envelope(kind, est_total, terms):
    """(lower, upper) band that must contain the true error for this kind."""
    if kind == "delta1":
        return est_total - terms["epsilon1"], est_total + terms["epsilon1"]
    if kind == "delta2":
        return (
            est_total - terms["delta2_term"] - terms["epsilon1"],
            est_total + terms["epsilon2"],
        )
    if kind == "delta2pr":
        return (
            est_total - terms["delta2_pr_term"] - terms["epsilon1"],
            est_total + terms["epsilon2_pr"],
        )
    if kind == "delta1pr":
        return est_total - terms["epsilon1_pr"], est_total + terms["epsilon1_pr"]
    if kind == "delta3":
        return (
            est_total - terms["delta3_term"] - terms["epsilon1_pr"],
            est_total + terms["epsilon3_residual"],
        )
    if kind == "delta3pr":
        return (
            est_total - terms["delta3_pr_term"] - terms["epsilon1_pr"],
            est_total + terms["epsilon3_pr"],
        )
    raise ValueError(f"no envelope for kind {kind!r}")


# ---------------------------------------------------------------------------
# moment extraction via contour integrals
#
# The k-th Taylor coefficient of an analytic matrix function around a point
# is a circle average of H(z)/(z - z0)^k; the trapezoid rule on the circle
# converges spectrally, so 64 nodes are plenty at the scales tested.


def taylor_coefficients(evaluate, center, count, radius=0.25, nodes=64):
    theta = 2.0 * np.pi * np.arange(nodes) / nodes
    ring = center + radius * np.exp(1j * theta)
    samples = np.array([evaluate(z) for z in ring])
    coeffs = []
    for k in range(count):
        weights = np.exp(-1j * k * theta) / radius**k
        coeffs.append(np.tensordot(weights, samples, axes=(0, 0)) / nodes)
    return coeffs
