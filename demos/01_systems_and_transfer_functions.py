"""Tour of the system layer: affine families, evaluation, and file I/O.

Every model in romgrid is a parametric linear system

    Q(p) x = B(p) u,    y = C(p) x

where Q, B, C are sums of constant matrices times scalar monomials in the
parameters. The Laplace variable ``s`` is just another parameter, so a
standard first-order realization (sE - A) becomes a two-term family.
"""

import pathlib
import tempfile

import numpy as np

import romgrid as rg


def main():
    print("== built-in RC ladder ==")
    sys = rg.rc_ladder(8)
    print(f"name={sys.name}  order={sys.order}  parameters={sys.parameter_names}")

    # transfer_function assembles Q at the point, solves, applies C
    point = rg.frequency_point(0.5)
    H = sys.transfer_function(point)
    print(f"H at f=0.5 Hz: {H[0, 0]:.6f}")

    # the same number computed by hand; the ladder's operator is sparse,
    # so densify it for numpy's dense solver
    Q = sys.Q.assemble(point).toarray()
    B = sys.B.assemble(point)
    C = sys.C.assemble(point)
    print(f"by hand:       {(C @ np.linalg.solve(Q, B))[0, 0]:.6f}")

    print()
    print("== custom parametric family ==")
    # a 4-dof system whose operator shifts with a design parameter d
    rng = np.random.default_rng(3)
    K = rng.standard_normal((4, 4)) * 0.1
    Q = rg.AffineMatrix((4, 4), base=np.eye(4), terms=[
        (rg.Monomial(0.2, {"s": 1}), np.eye(4)),
        (rg.Monomial(1.0, {"d": 1}), K),
    ])
    sys2 = rg.ParametricSystem(Q, rg.AffineMatrix.constant(np.ones((4, 1))),
                               rg.AffineMatrix.constant(np.ones((1, 4))), name="toy")
    for d in (0.5, 1.0, 2.0):
        val = sys2.transfer_function({"s": 1j, "d": d})[0, 0]
        print(f"  d={d:<4}  H(1j) = {val:.6f}")

    print()
    print("== manifest round trip ==")
    with tempfile.TemporaryDirectory() as tmp:
        manifest = rg.save_system(sys2, pathlib.Path(tmp) / "toy")
        files = sorted(p.name for p in manifest.parent.iterdir())
        print(f"  wrote {files}")
        back = rg.load_system(manifest)
        dev = abs(back.transfer_function({"s": 1j, "d": 2.0})[0, 0]
                  - sys2.transfer_function({"s": 1j, "d": 2.0})[0, 0])
        print(f"  reload deviation: {dev:.2e}")


if __name__ == "__main__":
    main()
