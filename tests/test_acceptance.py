"""End-to-end acceptance gates for the library.

Each test checks one numbered criterion at its stated tolerance and
registers a single [PASS]/[FAIL]/[SKIP] line that the terminal summary
prints after the run. Tolerances here are contractual; loosening them is
never the fix for a failure.
"""

import os
import pathlib
import time
from contextlib import contextmanager

import numpy as np
import pytest

import romgrid as rg

import oracles
from conftest import (
    ACCEPTANCE_LINES,
    complex_randn,
    dense_at,
    full_workspace,
    random_bases,
    random_orthonormal,
    random_point,
    random_system,
)


@contextmanager
def criterion(number, label):
    detail = []
    try:
        yield detail
    except pytest.skip.Exception as exc:
        ACCEPTANCE_LINES.append(f"[SKIP] criterion {number}: {label} ({exc})")
        raise
    except BaseException:
        ACCEPTANCE_LINES.append(f"[FAIL] criterion {number}: {label}")
        raise
    suffix = f" ({'; '.join(detail)})" if detail else ""
    ACCEPTANCE_LINES.append(f"[PASS] criterion {number}: {label}{suffix}")


def test_criterion_1_error_identity():
    # |H - H_hat| equals |x_du^T r_pr| with the full dual solution, over
    # 200 random (system, basis, point) triples, n in [10, 100], 1e-10
    # relative, within 30 seconds
    with criterion(1, "exact output-error identity") as detail:
        rng = np.random.default_rng(10)
        start = time.time()
        worst = 0.0
        for trial in range(200):
            n = int(rng.integers(10, 101))
            n_in = int(rng.integers(1, 4)) if trial % 3 == 0 else 1
            n_out = int(rng.integers(1, 4)) if trial % 3 == 0 else 1
            sys = random_system(rng, n, n_in=n_in, n_out=n_out)
            k = int(rng.integers(1, 9))
            V = random_orthonormal(rng, n, k)
            W = random_orthonormal(rng, n, k) if trial % 2 else V
            rom = rg.reduce_system(sys, V, W=W)
            pt = random_point(rng)
            Q, B, C = dense_at(sys, pt)
            direct = np.abs(sys.transfer_function(pt) - rom.transfer_function(pt))
            x_du = np.linalg.solve(Q.T, C.T)
            r_pr = B - Q @ oracles.lifted_solve(Q, B, V, W)
            via_dual = np.abs(x_du.T @ r_pr)
            scale = max(direct.max(), via_dual.max(), 1e-300)
            dev = np.max(np.abs(direct - via_dual)) / scale
            worst = max(worst, dev)
            assert dev <= 1e-10, f"trial {trial}: deviation {dev:.2e}"
        elapsed = time.time() - start
        assert elapsed <= 30.0
        detail.append(f"200 triples, worst rel dev {worst:.1e}, {elapsed:.1f}s")


def test_criterion_2_degeneracy_zeros():
    # reusing a basis for the next stage collapses that stage to zero:
    # V_du=V kills the dual-weighted estimate, V_rdu=V_du its correction,
    # V_rpr=V the residual solve, V_rrpr=V_rpr the second-level solve
    with criterion(2, "degenerate basis choices collapse to zero") as detail:
        rng = np.random.default_rng(20)
        worst = {"delta1": 0.0, "delta2_part2": 0.0, "x_rpr": 0.0, "x_rrpr": 0.0}
        for _ in range(50):
            n = int(rng.integers(10, 40))
            pt = random_point(rng)

            sym = random_system(rng, n, symmetric=True)
            Q, B, C = dense_at(sym, pt)
            nb, nc = np.linalg.norm(B, 2), np.linalg.norm(C, 2)
            V = random_orthonormal(rng, n, 4)
            ws = rg.EstimatorWorkspace.from_bases(sym, rg.EstimatorKind.DELTA_1, V, V_du=V)
            val = rg.evaluate(rg.EstimatorKind.DELTA_1, ws, sym, pt).total
            assert val <= 1e-12 * nc * nb
            worst["delta1"] = max(worst["delta1"], val / (nc * nb))

            V_du = random_orthonormal(rng, n, 3)
            ws = rg.EstimatorWorkspace.from_bases(
                sym, rg.EstimatorKind.DELTA_2, V, V_du=V_du, V_rdu=V_du
            )
            val = rg.evaluate(rg.EstimatorKind.DELTA_2, ws, sym, pt).part2
            assert val <= 1e-12 * nc * nb
            worst["delta2_part2"] = max(worst["delta2_part2"], val / (nc * nb))

            # worked in lifted coordinates: the residual-stage solution
            # itself must vanish, not only the output functional of it
            xhat_pr = oracles.lifted_solve(Q, B, V, V)
            r_pr = B - Q @ xhat_pr
            xhat_rpr = oracles.lifted_solve(Q, r_pr, V, V)
            val = np.linalg.norm(xhat_rpr)
            assert val <= 1e-12 * nb
            worst["x_rpr"] = max(worst["x_rpr"], val / nb)

            V_rpr = random_orthonormal(rng, n, 4)
            xhat_rpr = oracles.lifted_solve(Q, r_pr, V_rpr, V_rpr)
            r_rpr = r_pr - Q @ xhat_rpr
            xhat_rrpr = oracles.lifted_solve(Q, r_rpr, V_rpr, V_rpr)
            val = np.linalg.norm(xhat_rrpr)
            assert val <= 1e-12 * nb
            worst["x_rrpr"] = max(worst["x_rrpr"], val / nb)
        detail.append(
            "50 instances each; worst normalized magnitudes "
            + ", ".join(f"{k}={v:.1e}" for k, v in worst.items())
        )


def test_criterion_3_sensitivity_envelopes():
    # the true error always lies between estimate minus the correction
    # terms and estimate plus the matching sensitivity, 1e-12 slack
    with criterion(3, "error envelopes around every estimator") as detail:
        rng = np.random.default_rng(30)
        kinds = ["delta1", "delta2", "delta2pr", "delta1pr", "delta3", "delta3pr"]
        checked = 0
        for trial in range(200):
            n = int(rng.integers(10, 61))
            sys = random_system(rng, n)
            bases = random_bases(rng, n, petrov=(trial % 2 == 1))
            pt = random_point(rng)
            # the full-order terms come from the dense oracle, as in the paper's proofs
            terms = oracles.sensitivity_terms(*dense_at(sys, pt), bases)
            err = terms["true_error"]
            for kind in kinds:
                wsk = full_workspace(sys, kind, bases)
                est = rg.evaluate(rg.EstimatorKind(kind), wsk, sys, pt).total
                lo, hi = oracles.envelope(kind, est, terms)
                assert lo - 1e-12 <= err <= hi + 1e-12, (
                    f"trial {trial} {kind}: err {err:.6e} outside [{lo:.6e}, {hi:.6e}]"
                )
                checked += 1
        detail.append(f"200 workspaces x 6 envelopes = {checked} containments")


def test_criterion_4_estimator_orderings():
    # two-part estimators dominate the one-part estimate they extend, at
    # every sample, by construction of their nonnegative parts
    with criterion(4, "two-part estimates dominate their base") as detail:
        rng = np.random.default_rng(40)
        samples = 0
        for trial in range(50):
            n = int(rng.integers(10, 50))
            n_in = 2 if trial % 4 == 0 else 1
            sys = random_system(rng, n, n_in=n_in, n_out=n_in)
            bases = random_bases(rng, n, petrov=(trial % 2 == 0))
            ws = {k: full_workspace(sys, k, bases)
                  for k in ("delta1", "delta2", "delta2pr", "delta1pr", "delta3", "delta3pr")}
            for _ in range(4):
                pt = random_point(rng)
                val = {
                    k: rg.evaluate(rg.EstimatorKind(k), w, sys, pt).total
                    for k, w in ws.items()
                }
                assert val["delta2"] >= val["delta1"]
                assert val["delta2pr"] >= val["delta1"]
                assert val["delta3"] >= val["delta1pr"]
                assert val["delta3pr"] >= val["delta1pr"]
                samples += 1
        detail.append(f"4 orderings at {samples} samples")


def test_criterion_5_randomized_factorization():
    # the sketched estimate factors exactly into (norm of weights / K)
    # times the dual-weighted estimate
    with criterion(5, "randomized estimate factors through delta1") as detail:
        rng = np.random.default_rng(50)
        n = 24
        sys = random_system(rng, n)
        bases = random_bases(rng, n)
        ws1 = full_workspace(sys, "delta1", bases)
        wsr = full_workspace(sys, "delta_r", bases)
        checked = 0
        for K in (10, 20):
            for seed in range(20):
                pt = random_point(rng)
                d1 = rg.evaluate(rg.EstimatorKind.DELTA_1, ws1, sys, pt).total
                got = rg.evaluate("delta_r", wsr, sys, pt, n_random=K, rng_seed=seed).total
                xi = np.random.default_rng(seed).standard_normal(K)
                want = np.linalg.norm(xi) / K * d1
                assert got == pytest.approx(want, rel=1e-13)
                checked += 1
        detail.append(f"{checked} (K, seed) pairs exact to 1e-13")


def test_criterion_6_interpolation_at_selected_points():
    # replay each greedy run: right after a point's block lands in the
    # trial basis, the reduced transfer matches the full one there
    with criterion(6, "selected points are interpolated on arrival") as detail:
        worst = 0.0

        def replay(sys, trace, q):
            nonlocal worst
            V = rg.Basis.empty(sys.order)
            for row in trace:
                V = V.appended(rg.expansion_block(sys, row.main_point, q))
                rom = rg.reduce_system(sys, V)
                H = sys.transfer_function(row.main_point)
                dev = np.max(np.abs(H - rom.transfer_function(row.main_point)))
                bound = 1e-8 * max(1.0, np.max(np.abs(H)))
                assert dev <= bound, f"dev {dev:.2e} at {row.main_point}"
                worst = max(worst, dev / bound)

        sys = rg.random_stable(80, seed=4)
        grid = rg.parse_grid(["f:1e-3:1e1:24:log"])
        cfg = rg.GreedyConfig(kind="delta2", training_set=grid, tolerance=1e-9, q=3)
        res = rg.run_greedy(sys, cfg)
        assert len(res.trace) >= 2
        replay(sys, res.trace, q=3)

        par = rg.symmetric_second_order(40, seed=7)
        svals = [complex(-0.05 * w, w) for w in np.geomspace(0.2, 5.0, 6)]
        pgrid = rg.parse_grid([
            "s=" + ",".join(f"{v.real:.17g}{v.imag:+.17g}i" for v in svals),
            "d=0.5,2.0", "alpha=0.02", "beta=0.05",
        ])
        pcfg = rg.GreedyConfig(kind="delta1pr", training_set=pgrid, tolerance=1e-8,
                               max_iterations=6, q=1)
        pres = rg.run_greedy(par, pcfg)
        assert len(pres.trace) >= 2
        replay(par, pres.trace, q=1)
        detail.append(
            f"{len(res.trace)} + {len(pres.trace)} points, worst dev/bound {worst:.1e}"
        )


def test_criterion_7_end_to_end_convergence():
    # five estimator-driven greedy runs on the 500-dof ladder all reach
    # the tolerance on a 60-point log grid, quickly
    with criterion(7, "greedy convergence on the 500-dof ladder") as detail:
        sys = rg.rc_ladder(500)
        grid = rg.parse_grid([rg.DEFAULT_FREQUENCY_SPEC])
        assert len(grid) == 60
        iters = {}
        for kind in ("delta2", "delta2pr", "delta1pr", "delta3", "delta3pr"):
            start = time.time()
            cfg = rg.GreedyConfig(kind=kind, training_set=grid, tolerance=1e-3)
            res = rg.run_greedy(sys, cfg)
            elapsed = time.time() - start
            assert res.converged, kind
            assert len(res.trace) <= 12, kind
            assert res.trace[-1].max_true_error <= 1e-2, kind
            assert elapsed <= 120.0, kind
            iters[kind] = len(res.trace)
        detail.append(
            "iterations " + ", ".join(f"{k}={v}" for k, v in iters.items())
        )


def test_criterion_8_symmetric_underestimation_and_fix():
    # sharing the trial basis with the dual side on a symmetric system
    # drives the estimate to noise; separate dual expansion points restore
    # a usable effectivity
    with criterion(8, "symmetric collapse vs separate dual points") as detail:
        sys = rg.rc_ladder(300)
        grid = rg.parse_grid(["f:1e-6:1e1:50:log"])

        plain = rg.run_greedy(sys, rg.GreedyConfig(
            kind="delta1", training_set=grid, tolerance=1e-4, max_iterations=8,
        ))
        assert not plain.converged and plain.stop_reason is rg.StopReason.ESTIMATE_COLLAPSED
        rep_plain = rg.validate(sys, plain, grid)
        assert rep_plain.min_eff_filtered is not None
        assert rep_plain.min_eff_filtered < 0.1

        split = rg.run_greedy(sys, rg.GreedyConfig(
            kind="delta1", training_set=grid, tolerance=1e-4, max_iterations=8,
            symmetric_variant=True,
        ))
        rep_split = rg.validate(sys, split, grid)
        assert rep_split.min_eff_filtered is not None
        assert rep_split.min_eff_filtered >= 10.0 * rep_plain.min_eff_filtered
        detail.append(
            f"min effectivity {rep_plain.min_eff_filtered:.1e} -> "
            f"{rep_split.min_eff_filtered:.1e}"
        )


def _cdplayer_system():
    root = os.environ.get("ROMGRID_CDPLAYER_DIR")
    candidates = []
    if root:
        candidates.append(pathlib.Path(root))
    candidates.append(pathlib.Path(__file__).parent / "data" / "cdplayer")
    for directory in candidates:
        manifest = directory / "manifest.json"
        if manifest.is_file():
            return rg.load_system(manifest)
        names = {}
        for role in ("A", "B", "C"):
            for pattern in (f"{role}.mtx", f"cdplayer.{role}.mtx", f"CDplayer.{role}.mtx"):
                if (directory / pattern).is_file():
                    names[role] = directory / pattern
                    break
        if len(names) == 3:
            from romgrid.manifest import read_matrix

            A = read_matrix(names["A"])
            B = read_matrix(names["B"])
            C = read_matrix(names["C"])
            return rg.from_first_order(np.eye(A.shape[0]), A, B, C, name="cdplayer")
    return None


def test_criterion_9_cdplayer_benchmark():
    with criterion(9, "external 120-dof benchmark") as detail:
        sys = _cdplayer_system()
        if sys is None:
            pytest.skip(
                "benchmark matrices not present; set ROMGRID_CDPLAYER_DIR "
                "or populate tests/data/cdplayer/"
            )
        assert sys.order == 120
        grid = rg.parse_grid(["f:1e0:1e4:60:log"])
        cfg = rg.GreedyConfig(kind="delta1pr", training_set=grid, tolerance=1e-3, q=3)
        res = rg.run_greedy(sys, cfg)
        assert res.converged
        assert len(res.trace) <= 9
        rep = rg.validate(sys, res, grid)
        assert rep.min_eff_filtered is not None
        assert 0.5 <= rep.min_eff_filtered <= rep.max_eff_filtered <= 2.0
        detail.append(
            f"{len(res.trace)} iterations, effectivity "
            f"[{rep.min_eff_filtered:.3f}, {rep.max_eff_filtered:.3f}]"
        )
