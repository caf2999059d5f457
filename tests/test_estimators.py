import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

import romgrid as rg
from romgrid.errors import (
    MissingWorkspaceRomError,
    SingularAtSampleError,
    SingularReducedSystemError,
)
from romgrid.estimators import models_of

import oracles
from conftest import (
    assert_stack_is_one_point_bitwise,
    complex_randn,
    decoupled_system,
    dense_at,
    full_workspace,
    moment_bases,
    random_bases,
    random_orthonormal,
    random_point,
    random_system,
    reduced_resonance_system,
)

DETERMINISTIC_KINDS = ["delta1", "delta2", "delta2pr", "delta1pr", "delta3", "delta3pr"]


# ---------------------------------------------------------------------------
# bookkeeping


def test_kind_names_round_trip():
    for name in DETERMINISTIC_KINDS + ["delta_r"]:
        assert rg.EstimatorKind.from_name(name).value == name
    with pytest.raises(ValueError):
        rg.EstimatorKind.from_name("delta9")


def test_required_roms_per_kind():
    def req(kind):
        return [model.field for model in models_of(kind)]

    K = rg.EstimatorKind
    assert req(K.DELTA_1) == ["rom_primal", "rom_dual"]
    assert req(K.DELTA_R) == ["rom_primal", "rom_dual"]
    assert req(K.DELTA_2) == ["rom_primal", "rom_dual", "rom_dual_residual"]
    assert req(K.DELTA_2PR) == ["rom_primal", "rom_dual", "rom_primal_residual"]
    assert req(K.DELTA_1PR) == ["rom_primal", "rom_primal_residual"]
    assert req(K.DELTA_3) == ["rom_primal", "rom_dual", "rom_primal_residual"]
    assert req(K.DELTA_3PR) == [
        "rom_primal", "rom_primal_residual", "rom_primal_residual_residual"
    ]


def test_estimator_table_points_match_bases():
    # a row chases an alpha or beta point exactly when one of its bases is
    # grown there, and only kinds with a dual basis have a gamma rule
    from romgrid.estimators import DUAL, ESTIMATORS

    assert set(ESTIMATORS) == set(rg.EstimatorKind)
    for kind, spec in ESTIMATORS.items():
        points = {model.point for model in spec.models}
        assert (spec.alpha is not None) == ("alpha" in points), kind
        assert (spec.beta is not None) == ("beta" in points), kind
        assert spec.gamma is None or DUAL in spec.models, kind


def test_missing_rom_raises(rng):
    sys = random_system(rng, 10)
    V = random_orthonormal(rng, 10, 3)
    with pytest.raises(MissingWorkspaceRomError):
        rg.EstimatorWorkspace.from_bases(sys, rg.EstimatorKind.DELTA_2, V, V_du=V)


# ---------------------------------------------------------------------------
# agreement with the dense reference chains


@pytest.mark.parametrize("kind", DETERMINISTIC_KINDS)
@pytest.mark.parametrize("seed", [0, 1, 2])
@pytest.mark.parametrize("petrov", [False, True])
def test_estimate_matches_oracle(kind, seed, petrov):
    rng = np.random.default_rng(100 + seed)
    n = int(rng.integers(12, 40))
    sys = random_system(rng, n)
    bases = random_bases(rng, n, petrov=petrov)
    ws = full_workspace(sys, kind, bases)
    pt = random_point(rng)
    got = rg.evaluate(rg.EstimatorKind.from_name(kind), ws, sys, pt).total
    ref = oracles.estimate(kind, *dense_at(sys, pt), bases)
    assert got == pytest.approx(ref, rel=1e-12)


@pytest.mark.parametrize("zero", ["B", "C"])
def test_zero_port_map_gives_zero_estimates(rng, zero):
    # a family with no nonzero piece still has its (zero) base as a piece
    sys = random_system(rng, 12)
    maps = {"B": sys.B, "C": sys.C}
    maps[zero] = rg.AffineMatrix(maps[zero].shape)
    sys = rg.ParametricSystem(sys.Q, maps["B"], maps["C"])
    bases = random_bases(rng, 12)
    pt = random_point(rng)
    for kind in DETERMINISTIC_KINDS + ["delta_r"]:
        b = rg.evaluate(rg.EstimatorKind.from_name(kind), full_workspace(sys, kind, bases), sys, pt)
        assert b.total == 0.0, kind


def test_breakdown_parts_sum_for_single_channel(rng):
    sys = random_system(rng, 20)
    bases = random_bases(rng, 20)
    ws = full_workspace(sys, "delta3", bases)
    b = rg.evaluate(rg.EstimatorKind.DELTA_3, ws, sys, random_point(rng))
    assert b.total == b.part1 + b.part2
    assert b.part1 >= 0 and b.part2 >= 0


def test_one_part_kinds_have_zero_part2(rng):
    sys = random_system(rng, 15)
    bases = random_bases(rng, 15)
    ws = full_workspace(sys, "delta1", bases)
    b = rg.evaluate(rg.EstimatorKind.DELTA_1, ws, sys, random_point(rng))
    assert b.part2 == 0.0
    assert b.total == b.part1


def test_aux_contains_residual_norms(rng):
    sys = random_system(rng, 18, n_in=2)
    bases = random_bases(rng, 18)
    ws = full_workspace(sys, "delta3", bases)
    pt = random_point(rng)
    b = rg.evaluate(rg.EstimatorKind.DELTA_3, ws, sys, pt)
    Q, B, C = dense_at(sys, pt)
    xhat = oracles.lifted_solve(Q, B, bases["V"], bases["W"])
    r_pr = B - Q @ xhat
    assert b.aux["r_pr_norm"] == pytest.approx(
        max(np.linalg.norm(r_pr[:, j]) for j in range(r_pr.shape[1])), rel=1e-12
    )
    assert "r_rpr_norm" in b.aux
    ws1 = full_workspace(sys, "delta1", bases)
    assert "r_du_norm" in rg.evaluate(rg.EstimatorKind.DELTA_1, ws1, sys, pt).aux


def test_kinds_without_dual_residual_rules_skip_it(rng, monkeypatch):
    # delta_r and delta3 read x_du_hat but no point rule reads r_du, so
    # their evaluation never touches the transposed system
    sys = random_system(rng, 16)
    bases = random_bases(rng, 16)
    pt = random_point(rng)
    workspaces = {kind: full_workspace(sys, kind, bases) for kind in ("delta_r", "delta3", "delta1")}

    def no_dual():
        raise AssertionError("dual system requested")

    monkeypatch.setattr(sys, "dual", no_dual)
    for kind in ("delta_r", "delta3"):
        b = rg.evaluate(rg.EstimatorKind.from_name(kind), workspaces[kind], sys, pt)
        assert "r_du_norm" not in b.aux
    with pytest.raises(AssertionError):
        rg.evaluate(rg.EstimatorKind.DELTA_1, workspaces["delta1"], sys, pt)


# ---------------------------------------------------------------------------
# several inputs/outputs


def test_mimo_estimates_are_channelwise(rng):
    # the (i, k) entry of every part matrix equals the single-channel
    # estimate for input k and output i
    n, n_in, n_out = 22, 3, 2
    sys = random_system(rng, n, n_in=n_in, n_out=n_out)
    bases = random_bases(rng, n, petrov=True)
    pt = random_point(rng)
    Q, B, C = dense_at(sys, pt)
    for kind in ("delta1", "delta3pr"):
        ws = full_workspace(sys, kind, bases)
        total = rg.evaluate(rg.EstimatorKind.from_name(kind), ws, sys, pt).total
        per_channel = np.zeros((n_out, n_in))
        for i in range(n_out):
            for k in range(n_in):
                per_channel[i, k] = oracles.estimate(
                    kind, Q, B[:, [k]], C[[i], :], bases
                )
        assert total == pytest.approx(per_channel.max(), rel=1e-12)


def test_mimo_total_bounded_by_part_sums(rng):
    sys = random_system(rng, 20, n_in=2, n_out=2)
    bases = random_bases(rng, 20)
    ws = full_workspace(sys, "delta2", bases)
    b = rg.evaluate(rg.EstimatorKind.DELTA_2, ws, sys, random_point(rng))
    assert b.total <= b.part1 + b.part2 + 1e-15 * b.total


# ---------------------------------------------------------------------------
# degeneracies: reusing a basis for the next stage collapses that stage


def test_shared_primal_dual_basis_kills_delta1(rng):
    for _ in range(5):
        n = int(rng.integers(10, 30))
        sys = random_system(rng, n, symmetric=True)
        V = random_orthonormal(rng, n, 4)
        ws = rg.EstimatorWorkspace.from_bases(
            sys, rg.EstimatorKind.DELTA_1, V, V_du=V
        )
        pt = random_point(rng)
        Q, B, C = dense_at(sys, pt)
        bound = 1e-12 * np.linalg.norm(C, 2) * np.linalg.norm(B, 2)
        assert rg.evaluate(rg.EstimatorKind.DELTA_1, ws, sys, pt).total <= bound


def test_shared_dual_residual_basis_kills_delta2_correction(rng):
    for _ in range(5):
        n = int(rng.integers(10, 30))
        sys = random_system(rng, n)
        V = random_orthonormal(rng, n, 4)
        V_du = random_orthonormal(rng, n, 3)
        ws = rg.EstimatorWorkspace.from_bases(
            sys, rg.EstimatorKind.DELTA_2, V, V_du=V_du, V_rdu=V_du
        )
        pt = random_point(rng)
        Q, B, C = dense_at(sys, pt)
        bound = 1e-12 * np.linalg.norm(C, 2) * np.linalg.norm(B, 2)
        assert rg.evaluate(rg.EstimatorKind.DELTA_2, ws, sys, pt).part2 <= bound


def test_reusing_primal_basis_zeroes_residual_solution(rng):
    # with V_rpr = V the compressed residual right-hand side vanishes
    for _ in range(5):
        n = int(rng.integers(10, 30))
        sys = random_system(rng, n)
        V = random_orthonormal(rng, n, 4)
        ws = rg.EstimatorWorkspace.from_bases(
            sys, rg.EstimatorKind.DELTA_1PR, V, V_rpr=V
        )
        pt = random_point(rng)
        _, B, _ = dense_at(sys, pt)
        assert rg.evaluate(rg.EstimatorKind.DELTA_1PR, ws, sys, pt).total <= (
            1e-12 * np.linalg.norm(B, 2)
        )


# ---------------------------------------------------------------------------
# randomized estimator


def test_delta_r_scales_delta1_by_weight_norm(rng):
    sys = random_system(rng, 20)
    bases = random_bases(rng, 20)
    pt = random_point(rng)
    ws1 = full_workspace(sys, "delta1", bases)
    d1 = rg.evaluate(rg.EstimatorKind.DELTA_1, ws1, sys, pt).total
    wsr = full_workspace(sys, "delta_r", bases)
    for n_samples in (10, 20):
        for seed in range(5):
            got = rg.delta_r(wsr, sys, pt, n_samples=n_samples, rng_seed=seed)
            xi = np.random.default_rng(seed).standard_normal(n_samples)
            expected = np.linalg.norm(xi) / n_samples * d1
            assert got == pytest.approx(expected, rel=1e-13)


def test_delta_r_with_unit_weights(rng):
    # all-ones sketch weights reduce to delta1 / sqrt(K)
    sys = random_system(rng, 15)
    bases = random_bases(rng, 15)
    pt = random_point(rng)
    d1 = rg.evaluate(
        rg.EstimatorKind.DELTA_1, full_workspace(sys, "delta1", bases), sys, pt
    ).total
    wsr = full_workspace(sys, "delta_r", bases)
    K = 16
    got = rg.delta_r(wsr, sys, pt, n_samples=K, xi=np.ones(K))
    assert got == pytest.approx(d1 * np.sqrt(K) / K, rel=1e-13)


def test_delta_r_deterministic_given_seed(rng):
    sys = random_system(rng, 15)
    bases = random_bases(rng, 15)
    wsr = full_workspace(sys, "delta_r", bases)
    pt = random_point(rng)
    a = rg.delta_r(wsr, sys, pt, rng_seed=42)
    b = rg.delta_r(wsr, sys, pt, rng_seed=42)
    assert a == b


# ---------------------------------------------------------------------------
# exact error, identity guard, diagnostics


def test_true_error_matches_direct_computation(rng):
    sys = random_system(rng, 25, n_in=2, n_out=2)
    bases = random_bases(rng, 25)
    ws = full_workspace(sys, "delta1", bases)
    pt = random_point(rng)
    got = rg.true_error(sys, ws, pt)
    Q, B, C = dense_at(sys, pt)
    ref = float(np.max(oracles.true_error_matrix(Q, B, C, bases)))
    assert got == pytest.approx(ref, rel=1e-11)
    # the dual-residual identity gives the same number
    assert rg.true_error(sys, ws, pt, verify_identity=True) == pytest.approx(ref, rel=1e-11)


def test_true_error_identity_guard_trips_on_inconsistency(rng):
    # evaluating with a workspace built for a different output map breaks
    # the identity and must be reported, not silently returned
    sys = random_system(rng, 20)
    other = random_system(rng, 20)
    bases = random_bases(rng, 20)
    ws = full_workspace(sys, "delta1", bases)
    mixed = rg.ParametricSystem(sys.Q, sys.B, other.C)
    with pytest.raises(ArithmeticError):
        rg.true_error(mixed, ws, random_point(rng), verify_identity=True)


def test_true_error_reports_a_singular_reduced_operator():
    sys = reduced_resonance_system()
    e1, e2 = np.eye(2)[:, :1], np.eye(2)[:, 1:]
    ws = rg.EstimatorWorkspace.from_bases(sys, "delta1", e2, V_du=e1)
    point = {"s": 1.0}
    sys.transfer_function(point)  # the full operator is regular here
    with pytest.raises(SingularReducedSystemError, match=r"reduced operator .* \{'s': 1\.0\}"):
        rg.true_error(sys, ws, point)
    with pytest.raises(SingularReducedSystemError):
        rg.evaluate("delta1", ws, sys, point)


_NOT_FINITE, _SINGULAR = "reduced quantity not finite", "reduced operator singular"
_FULL, _REDUCED = SingularAtSampleError, SingularReducedSystemError
#: case -> the error types a one-point ``transfer_function`` and ``true_error``
#: raise (None: a value), and per kind the cause a one-point ``evaluate`` raises
_ONE_POINT_CASES = {
    "singular full operator": (_FULL, _FULL, {"delta1pr": None, "delta2": None}),
    # C is the dual side's input map, which delta2 reads
    "non-finite map": (_FULL, _FULL, {"delta1pr": None, "delta2": _NOT_FINITE}),
    "singular reduced operator": (None, _REDUCED, {"delta1pr": _SINGULAR, "delta2": _SINGULAR}),
    "non-finite reduced quantity": (_FULL, _FULL, {"delta1pr": _NOT_FINITE, "delta2": _NOT_FINITE}),
}


def _one_point_case(case):
    """The system, basis and point of one of ``_ONE_POINT_CASES``."""
    if case == "singular reduced operator":
        return reduced_resonance_system(), np.eye(2)[:, 1:], {"s": 1.0}
    if case == "singular full operator":
        return *decoupled_system(), {"s": 1.0}
    return *decoupled_system("C" if case == "non-finite map" else "B"), {"s": 1e32j}


@settings(max_examples=16, deadline=None, derandomize=True, database=None)
@given(
    case=st.sampled_from(sorted(_ONE_POINT_CASES)),
    kind=st.sampled_from(["delta1pr", "delta2"]),
    others=st.lists(st.floats(0.1, 3.0), max_size=4),
    at=st.integers(0, 4),
)
def test_one_point_calls_raise_their_cause_and_stacks_match_them(case, kind, others, at):
    # a one-point call is a stack of one: it raises the error type it always
    # raised, naming the point (and, for evaluate, the cause), and a stack
    # around that point gives None there and every other point's own value
    sys, V, point = _one_point_case(case)
    response, error, causes = _ONE_POINT_CASES[case]
    ws = rg.EstimatorWorkspace.from_bases(sys, kind, V, V_du=V, V_rdu=V, V_rpr=V)
    one_point = [(sys.transfer_function, response), (lambda p: rg.true_error(sys, ws, p), error)]
    for call, raised in one_point:
        if raised is None:
            call(point)
            continue
        with pytest.raises(raised) as info:
            call(point)
        assert type(info.value) is raised and repr(point) in str(info.value)
    if causes[kind] is None:
        rg.evaluate(kind, ws, sys, point)
    else:
        with pytest.raises(_REDUCED) as info:
            rg.evaluate(kind, ws, sys, point)
        assert type(info.value) is _REDUCED and info.value.cause == causes[kind]
        assert repr(point) in str(info.value)
    stack = [{"s": 1j * y} for y in others]
    stack.insert(min(at, len(stack)), point)
    usable = assert_stack_is_one_point_bitwise(sys, ws, stack)
    assert usable == [p is not point or response is None for p in stack]


def test_exact_dual_rom_makes_delta1_exact(rng):
    # a full-rank dual basis solves the dual problem exactly, so delta1
    # coincides with the true error
    n = 12
    sys = random_system(rng, n)
    bases = random_bases(rng, n)
    bases["V_du"] = random_orthonormal(rng, n, n)
    bases["W_du"] = bases["V_du"]
    ws = full_workspace(sys, "delta1", bases)
    pt = random_point(rng)
    d1 = rg.evaluate(rg.EstimatorKind.DELTA_1, ws, sys, pt).total
    err = rg.true_error(sys, ws, pt)
    assert d1 == pytest.approx(err, rel=1e-9)
    rep = rg.sensitivity_report(sys, ws, pt)
    assert rep.epsilon1 <= 1e-9 * max(1.0, d1)


def test_sensitivity_report_matches_oracle(rng):
    sys = random_system(rng, 24)
    bases = random_bases(rng, 24, petrov=True)
    ws = full_workspace(sys, "delta3pr", bases)
    pt = random_point(rng)
    rep = rg.sensitivity_report(sys, ws, pt)
    terms = oracles.sensitivity_terms(*dense_at(sys, pt), bases)
    for key, val in terms.items():
        assert getattr(rep, key) == pytest.approx(val, rel=1e-10, abs=1e-14), key
    # the two epsilon3 flavors agree with their definitions
    assert rep.epsilon3 == pytest.approx(rep.epsilon1, rel=1e-12)


def test_sensitivity_report_rejects_multichannel(rng):
    sys = random_system(rng, 12, n_in=2)
    bases = random_bases(rng, 12)
    ws = full_workspace(sys, "delta1", bases)
    with pytest.raises(ValueError):
        rg.sensitivity_report(sys, ws, random_point(rng))


def test_sensitivity_report_requires_all_stages(rng):
    sys = random_system(rng, 12)
    V = random_orthonormal(rng, 12, 3)
    ws = rg.EstimatorWorkspace.from_bases(sys, rg.EstimatorKind.DELTA_1, V, V_du=V)
    with pytest.raises(MissingWorkspaceRomError):
        rg.sensitivity_report(sys, ws, random_point(rng))


# ---------------------------------------------------------------------------
# orderings and envelopes (module-scale; the acceptance suite widens these)


@pytest.mark.parametrize("seed", range(4))
def test_two_part_estimates_dominate_their_base(seed):
    rng = np.random.default_rng(500 + seed)
    n = int(rng.integers(12, 36))
    sys = random_system(rng, n, n_in=2, n_out=2)
    bases = random_bases(rng, n, petrov=(seed % 2 == 0))
    pt = random_point(rng)
    vals = {}
    for kind in DETERMINISTIC_KINDS:
        ws = full_workspace(sys, kind, bases)
        vals[kind] = rg.evaluate(rg.EstimatorKind.from_name(kind), ws, sys, pt).total
    assert vals["delta2"] >= vals["delta1"]
    assert vals["delta2pr"] >= vals["delta1"]
    assert vals["delta3"] >= vals["delta1pr"]
    assert vals["delta3pr"] >= vals["delta1pr"]


@pytest.mark.parametrize("seed", range(4))
def test_error_envelopes_contain_truth(seed):
    rng = np.random.default_rng(900 + seed)
    n = int(rng.integers(12, 36))
    sys = random_system(rng, n)
    bases = random_bases(rng, n, petrov=(seed % 2 == 1))
    ws = full_workspace(sys, "delta3pr", bases)
    pt = random_point(rng)
    rep = rg.sensitivity_report(sys, ws, pt)
    terms = {k: getattr(rep, k) for k in (
        "epsilon1", "epsilon1_pr", "epsilon2", "epsilon2_pr",
        "epsilon3_residual", "epsilon3_pr",
        "delta2_term", "delta2_pr_term", "delta3_term", "delta3_pr_term",
    )}
    for kind in DETERMINISTIC_KINDS:
        wsk = full_workspace(sys, kind, bases)
        est = rg.evaluate(rg.EstimatorKind.from_name(kind), wsk, sys, pt).total
        lo, hi = oracles.envelope(kind, est, terms)
        assert lo - 1e-12 <= rep.true_error <= hi + 1e-12, kind


def test_realistic_workspace_estimates_track_error(rng):
    # moment-based bases: the estimate should be within a couple orders of
    # magnitude of the truth, not merely an upper/lower artifact
    sys = random_system(rng, 50)
    pts = [random_point(rng) for _ in range(2)]
    bases = moment_bases(rng, sys, pts, q=2)
    ws = rg.EstimatorWorkspace.from_bases(sys, rg.EstimatorKind.DELTA_2, **{
        k: v for k, v in bases.items() if v is not None
    })
    probe = random_point(rng)
    est = rg.evaluate(rg.EstimatorKind.DELTA_2, ws, sys, probe).total
    err = rg.true_error(sys, ws, probe)
    if err > 1e-13:
        assert 1e-3 <= est / err <= 1e3
