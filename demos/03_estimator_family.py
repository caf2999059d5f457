"""All seven output-error estimators on one shared workspace.

Each estimator trades sharpness against the number of auxiliary reduced
models it needs. The cheap end reuses a dual basis; the expensive end
solves small systems for the primal residual and even for the residual of
that solve. None of them touches an inf-sup or stability constant.

Stages and what they cost, roughly:

  delta1    dual ROM
  delta2    dual ROM + correction ROM for the dual residual
  delta2pr  dual ROM + ROM for the primal residual
  delta1pr  primal-residual ROM only
  delta3    delta1pr's ROM + dual ROM
  delta3pr  primal-residual ROM + ROM for ITS residual
  delta_r   dual ROM, output weighted by a random sketch
"""

import numpy as np

import romgrid as rg


def krylov_basis(sys, freqs, q, dual=False):
    target = sys.dual() if dual else sys
    V = rg.Basis.empty(sys.order)
    for f in freqs:
        V = V.appended(rg.krylov_block(target, 2j * np.pi * f, q))
    return V


def main():
    sys = rg.rc_ladder(200)
    probe = rg.frequency_point(0.3)

    # moment-matching bases at deliberately different point sets per stage,
    # mimicking a mid-run greedy workspace
    V = krylov_basis(sys, (1e-2, 1.0), q=2)
    V_du = krylov_basis(sys, (3e-2, 2.0), q=2, dual=True)
    V_rdu = krylov_basis(sys, (1e-1,), q=2, dual=True)
    V_rpr = krylov_basis(sys, (5e-3, 0.5), q=2)
    V_rrpr = krylov_basis(sys, (8e-2,), q=2)

    H = sys.transfer_function(probe)
    true_err = None

    print(f"probe f = 0.3 Hz, |H| = {abs(H[0, 0]):.4e}")
    print(f"{'kind':>8} {'part1':>10} {'part2':>10} {'total':>10} {'effectivity':>12}")
    for kind in ("delta1", "delta2", "delta2pr", "delta1pr", "delta3", "delta3pr"):
        ws = rg.EstimatorWorkspace.from_bases(
            sys, kind, V, V_du=V_du, V_rdu=V_rdu, V_rpr=V_rpr, V_rrpr=V_rrpr
        )
        if true_err is None:
            rom = ws.rom_primal
            true_err = np.abs(H - rom.transfer_function(probe)).max()
        est = rg.evaluate(kind, ws, sys, probe)
        print(f"{kind:>8} {est.part1:>10.3e} {est.part2:>10.3e} "
              f"{est.total:>10.3e} {est.total / true_err:>12.3f}")
    print(f"{'true':>8} {'':>10} {'':>10} {true_err:>10.3e}")

    # the randomized variant scales delta1 by the norm of a Gaussian sketch
    print()
    ws = rg.EstimatorWorkspace.from_bases(sys, "delta_r", V, V_du=V_du)
    for K in (5, 20, 80):
        val = rg.evaluate("delta_r", ws, sys, probe, n_random=K, rng_seed=1).total
        print(f"delta_r with {K:>3} sketch samples: {val:.3e}")

    # the exact identity every estimator above approximates from reduced data,
    # H - H_hat = x_du^T r_pr, checked with full-order solves; a violation raises
    print()
    err = rg.true_error(sys, ws, probe, verify_identity=True)
    print(f"true error {err:.3e} equals |x_du^T r_pr| with the full dual solution x_du")


if __name__ == "__main__":
    main()
