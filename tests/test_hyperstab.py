import json
import math
from fractions import Fraction

import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from qbanach.cli import parse_config
from qbanach.fixedpoint import _term_multiplier
from qbanach.hyperstab import (ErrorComponent, ErrorModel, ExperimentConfig,
                               HyperstabConstants, compute_Qm, constants,
                               expand_T_power, find_M0, radical_iteration_spec,
                               run_experiment, s_multiplier, scale_powers,
                               sequences, theorem_bound)
from qbanach.radical import EquationParams, Term, VectorFunction, make_solution
from qbanach.spaces import SpaceDescriptor, cross_2norm, power_space
from test_report_golden import check_bound_table

E1 = np.array([1.0, 0.0, 0.0])
Y_DIR = np.array([1.0, 1.0, 0.0])
WITNESSES = [np.array([0.0, 1.0, 0.0]), np.array([0.0, 0.0, 1.0]), np.array([1.0, 1.0, 1.0])]


def reference_model(c3=2.0e4, c4=2.0e4, p1=-1.0, p2=-1.0, p3=-2.0, p4=-2.0):
    return ErrorModel(
        components=(ErrorComponent(1.0, p1, Y_DIR), ErrorComponent(1.0, p2, Y_DIR),
                    ErrorComponent(c3, p3, Y_DIR), ErrorComponent(c4, p4, Y_DIR)),
        aux_space=cross_2norm(),
    )


def test_sequences_values():
    u, v, w = sequences(1.0, 1.0, 2)
    assert u == pytest.approx(2.0, abs=1e-15)
    assert v == pytest.approx(-1.912931183, abs=1e-9)
    assert w == pytest.approx(2.466212074, abs=1e-9)


def test_sequences_identities():
    coeffs = [-2.0, -1.0, 1.0, 2.0, 3.0]
    for a in coeffs:
        for b in coeffs:
            for m in range(2, 51):
                u, v, w = sequences(a, b, m)
                scale = max(abs(a * u ** 3), abs(b * v ** 3), 1.0)
                assert abs(a * u ** 3 + b * v ** 3 - 1.0) <= 1e-12 * scale
                assert abs(a * u ** 3 - b * v ** 3 - w ** 3) <= 1e-12 * scale
    # the (1,1,2) difference identity: 8 - (-7) = 15 = w^3
    u, v, w = sequences(1.0, 1.0, 2)
    assert u ** 3 - v ** 3 == pytest.approx(15.0, rel=1e-14)


def test_sequences_rejects_small_m():
    with pytest.raises(ValueError):
        sequences(1.0, 1.0, 1)


def parsed_model(model: ErrorModel, aux_space: dict):
    """The model that a ``hyperstab`` config builds from ``model``'s config
    section, its auxiliary space given as the config's ``aux_space``."""
    em = {"alpha": model.alpha,
          "components": [{"c": c.c, "p": c.p, "y": c.y.tolist()} for c in model.components],
          "g_map": "IDENTITY" if model.g_matrix is None else {"matrix": model.g_matrix.tolist()}}
    payload = {"space": {"family": "CROSS_2NORM"}, "aux_space": aux_space, "error_model": em,
               "equation": {"a": 1.0, "b": 1.0, "c": 2.0, "d": 2.0}, "grid": [1.0]}
    return parse_config(json.dumps({"command": "HYPERSTAB", "payload": payload})).inputs.model


def same_model(a: ErrorModel, b: ErrorModel) -> bool:
    return (a.alpha == b.alpha and a.aux_space == b.aux_space
            and [(c.c, c.p, c.y.tolist()) for c in a.components]
            == [(c.c, c.p, c.y.tolist()) for c in b.components]
            and np.array_equal(a.g_matrix if a.g_matrix is not None else np.eye(3),
                               b.g_matrix if b.g_matrix is not None else np.eye(3)))


def test_error_model_alpha_is_the_aux_beta():
    # the majorant is measured in the auxiliary (2, alpha)-norm, so alpha is
    # that space's beta
    aux = power_space(cross_2norm(), 0.5)
    model = ErrorModel(components=reference_model().components, aux_space=aux)
    assert model.alpha == 0.5
    aux_doc = {"family": "POWERED", "beta": 0.5, "base": {"family": "CROSS_2NORM"}}
    assert same_model(parsed_model(model, aux_doc), model)


def test_s_multiplier_closed_form():
    comp = ErrorComponent(1.0, -1.0, Y_DIR)
    assert s_multiplier(comp, 8.0, alpha=1.0) == pytest.approx(0.125)
    for p in (-2.0, -0.5, 0.7):
        assert s_multiplier(ErrorComponent(1.0, p, Y_DIR), 1.0, alpha=0.5) == 1.0
    with pytest.raises(ValueError):
        s_multiplier(comp, 0.0, alpha=1.0)


def test_constants_reference_value():
    eq = EquationParams(1, 1, 2, 2)
    cst = constants(eq, reference_model(), cross_2norm(), 2)
    # independently coded one-line evaluation of the displayed formula
    oracle_A = 2 * 8 ** -2 + 2 * 7 ** -2 + 15 ** -2
    assert oracle_A == pytest.approx(0.07651077097505668, abs=1e-15)
    assert cst.A == pytest.approx(oracle_A, abs=1e-12)
    assert cst.B == pytest.approx(oracle_A, abs=1e-12)  # p3 = -2: same multipliers
    assert cst.C == pytest.approx(oracle_A, abs=1e-12)
    assert cst.P == pytest.approx(oracle_A, abs=1e-12)
    assert cst.sigma == pytest.approx(max(1 / 56, 1 / 64, 1 / 49), abs=1e-15)
    assert cst.in_M0


def test_constants_match_one_line_formulas():
    rng = np.random.default_rng(6)
    for _ in range(40):
        a, b = float(rng.uniform(0.5, 2)), float(rng.uniform(0.5, 2))
        c, d = float(rng.uniform(0.5, 3)), float(rng.uniform(0.5, 3))
        kappa = float(rng.uniform(1.0, 2.0))
        beta = float(rng.uniform(0.3, 1.0))
        alpha = beta
        ps = rng.uniform(-2.5, -0.2, 4)
        aux = power_space(cross_2norm(), beta) if beta != 1.0 else cross_2norm()
        model = ErrorModel(
            components=tuple(ErrorComponent(1.0, float(p), Y_DIR) for p in ps),
            aux_space=aux,
        )
        m = int(rng.integers(2, 9))
        eq = EquationParams(a, b, c, d)
        # a declared kappa over the powered cross norm: only kappa and beta enter
        space = SpaceDescriptor("POWERED", beta=beta, kappa=kappa, base=cross_2norm())
        cst = constants(eq, model, space, m)
        up, vp, wp = scale_powers(a, b, m)
        s = lambda p, rho: abs(rho) ** (alpha * p)
        k1, k2, k3 = kappa * abs(c) ** beta, kappa ** 2 * abs(d) ** beta, kappa ** 2
        A = k1 * s(ps[0] + ps[1], up) + k2 * s(ps[0] + ps[1], vp) + k3 * s(ps[0] + ps[1], wp)
        B = k1 * s(ps[2], up) + k2 * s(ps[2], vp) + k3 * s(ps[2], wp)
        C = k1 * s(ps[3], up) + k2 * s(ps[3], vp) + k3 * s(ps[3], wp)
        assert cst.A == pytest.approx(A, rel=1e-12)
        assert cst.B == pytest.approx(B, rel=1e-12)
        assert cst.C == pytest.approx(C, rel=1e-12)
        assert cst.P == pytest.approx(max(A, B, C), rel=1e-12)


def test_constants_decay_with_m():
    eq = EquationParams(1, 1, 2, 2)
    model = reference_model()
    assert constants(eq, model, cross_2norm(), 50).P < 1e-3


def test_find_M0_reference():
    eq = EquationParams(1, 1, 2, 2)
    res = find_M0(eq, reference_model(), cross_2norm(), 12)
    assert res.min_member == 2
    assert res.members == list(range(2, 13))
    assert res.sigma_decreasing
    assert all(res.limit_conditions.values())


def test_find_M0_empty_for_flat_model():
    # p_i = 0 makes every multiplier 1: P = kappa|c|^beta + kappa^2|d|^beta + kappa^2 >= 3
    eq = EquationParams(1, 1, 2, 2)
    model = reference_model(p1=0.0, p2=0.0, p3=0.0, p4=0.0, c3=1.0, c4=1.0)
    res = find_M0(eq, model, cross_2norm(), 8)
    assert res.members == []
    assert res.min_member is None
    assert not any(res.limit_conditions.values())


def test_find_M0_members_match_brute_filter():
    eq = EquationParams(2.0, 1.0, 8.0, 2.0)
    model = reference_model()
    res = find_M0(eq, model, cross_2norm(), 10)
    brute = [m for m in range(2, 11) if constants(eq, model, cross_2norm(), m).P < 1.0]
    assert res.members == brute


def test_expand_T_power_structure():
    eq = EquationParams(1, 1, 2, 3)
    for n in (0, 1, 2, 7):
        t = expand_T_power(eq, 2, n)
        assert len(t.coeffs) == len(t.scales) == (n + 1) * (n + 2) // 2
    t0 = expand_T_power(eq, 2, 0)
    assert t0.coeffs.tolist() == [1.0] and t0.scales.tolist() == [1.0]

    t1 = expand_T_power(eq, 2, 1)
    u, v, w = sequences(1.0, 1.0, 2)
    got = sorted(zip(t1.scales.tolist(), t1.coeffs.tolist()))
    want = sorted([(u, 2.0), (v, 3.0), (w, -1.0)])
    for (gs, gc), (ws, wc) in zip(got, want):
        assert gs == ws
        assert gc == pytest.approx(wc, rel=1e-14)

    t2 = expand_T_power(EquationParams(1, 1, 2, 2), 2, 2)
    assert t2.sextic_identity_error() <= 1e-12

    with pytest.raises(ValueError):
        expand_T_power(eq, 2, 41)
    with pytest.raises(ValueError):
        expand_T_power(eq, 1, 2)


def test_sextic_identity_exact_over_grid():
    for (a, b) in [(1.0, 1.0), (2.0, 1.0), (1.0, 3.0)]:
        eq = EquationParams(a, b, 2 * a * a, 2 * b * b)
        for m in range(2, 51):
            for n in range(0, 13):
                assert expand_T_power(eq, m, n).sextic_identity_error() <= 1e-9


def test_table_apply_fixes_sextic():
    # float-path application is well conditioned only for small n (the x^6
    # component cancels at ~451^n scale); the identity itself is certified by
    # the exact-rational path at every order
    eq = EquationParams(1, 1, 2, 2)
    f0 = make_solution(eq, 1.0, None, E1)
    t1 = expand_T_power(eq, 2, 1)
    assert np.abs(t1.apply(f0, 1.3) - f0(1.3)).max() <= 1e-11 * (1 + 1.3 ** 6)
    assert _term_multiplier(radical_iteration_spec(eq, 2, None), 6.0, False) ** 2 == \
        pytest.approx(1.0, abs=1e-9)
    for n in (1, 2, 4):
        assert expand_T_power(eq, 2, n).sextic_identity_error() <= 1e-12


def test_expansion_vs_recursion_term_family():
    """Float-path equivalence on the experiments' perturbation family
    (ABS-mode terms, exponents in [-6, 0])."""
    rng = np.random.default_rng(40)
    for _ in range(60):
        a, b = [(1.0, 1.0), (2.0, 1.0), (1.0, 3.0)][int(rng.integers(0, 3))]
        eq = EquationParams(a, b, 2 * a * a, 2 * b * b)
        m = int(rng.choice([2, 3, 5]))
        n = int(rng.integers(0, 7))
        s = float(rng.uniform(-6.0, 0.0))
        x = float(rng.uniform(0.3, 3.0)) * float(rng.choice([-1.0, 1.0]))
        tab = expand_T_power(eq, m, n)
        f = VectorFunction(terms=[Term(coef=1.0, exponent=s, mode="ABS", direction=E1)])
        got = tab.apply(f, x)[0]

        u, v, w = sequences(a, b, m)
        def rec(nn, t):
            if nn == 0:
                return abs(t) ** s
            return (eq.c * rec(nn - 1, u * t) + eq.d * rec(nn - 1, v * t)
                    - rec(nn - 1, w * t))
        want = rec(n, x)
        assert got == pytest.approx(want, rel=1e-10)


def test_inductive_error_bound_closed_form():
    # Lambda_m^n eps_m <= P_m^n sigma_m [h1 h2 + h3 + h4] for n <= 8
    eq = EquationParams(1, 1, 2, 2)
    model = reference_model()
    kappa = beta = 1.0
    cst = constants(eq, model, cross_2norm(), 2)
    up, vp, wp = scale_powers(1.0, 1.0, 2)
    ps = [c.p for c in model.components]
    cs = [c.c for c in model.components]
    rng = np.random.default_rng(8)
    L = [kappa * abs(eq.c) ** beta, kappa ** 2 * abs(eq.d) ** beta, kappa ** 2]
    powers = [up, vp, wp]
    for _ in range(20):
        x = float(rng.uniform(0.3, 3.0))
        z = rng.uniform(-2, 2, 3)
        weights = [model.h(i + 1, 1.0, z) for i in range(4)]  # c_i |y,z|^p factors
        if not all(math.isfinite(wgt) for wgt in weights):
            continue
        # eps_m as three power terms of |x^3|, coefficients with z folded in
        terms = [
            (weights[0] * weights[1] * abs(up) ** ps[0] * abs(vp) ** ps[1], ps[0] + ps[1]),
            (weights[2] * abs(up) ** ps[2], ps[2]),
            (weights[3] * abs(vp) ** ps[3], ps[3]),
        ]
        bracket = model.gamma(x ** 3, x ** 3, z)
        for n in range(9):
            lam_n = sum(cc * abs(x ** 3) ** s for cc, s in terms)
            assert lam_n <= cst.P ** n * cst.sigma * bracket * (1 + 1e-12)
            terms = [(cc * sum(Li * abs(pw) ** s for Li, pw in zip(L, powers)), s)
                     for cc, s in terms]


def test_compute_Qm_exact_solution_is_fixed():
    eq = EquationParams(1, 1, 2, 2)
    f0 = make_solution(eq, 1.0, None, E1)
    grid = [0.5, 1.0, 2.0]
    res = compute_Qm(eq, f0, 2, grid, tol=1e-12, n_max=10,
                     space=cross_2norm(), witnesses=WITNESSES, residual_pairs=200, seed=1)
    assert res.converged
    assert res.iterations <= 3
    for x, val in zip(grid, res.values):
        assert np.abs(np.array(val) - f0(x)).max() == 0.0
    assert res.sup_residual_scaled <= 1e-12


def test_compute_Qm_contracts_perturbation():
    eq = EquationParams(1, 1, 2, 2)
    f0 = make_solution(eq, 1.0, None, E1)
    f = VectorFunction(terms=list(f0.terms) + [Term(coef=0.1, exponent=-3.0, mode="ABS", direction=E1)])
    grid = [0.5, 1.0, 1.5, 2.0]
    res = compute_Qm(eq, f, 2, grid, tol=1e-12, n_max=60,
                     space=cross_2norm(), witnesses=WITNESSES, residual_pairs=500, seed=3)
    assert res.converged and res.iterations <= 60
    for x, val in zip(grid, res.values):
        assert np.abs(np.array(val) - f0(x)).max() <= 1e-6 * abs(x) ** 6
    assert res.sup_residual_scaled <= 1e-8


def test_compute_Qm_divergent_multiplier_reported():
    eq = EquationParams(1, 1, 2, 2)
    # positive exponent 9: multiplier c u^3 + d v^3 - w^3 at cube level > 1
    f = VectorFunction(terms=[Term(coef=1.0, exponent=9.0, mode="ABS", direction=E1)])
    res = compute_Qm(eq, f, 2, [1.0], tol=1e-10, n_max=15, space=cross_2norm(),
                     witnesses=WITNESSES, residual_pairs=0, seed=0)
    assert not res.converged


def test_compute_Qm_overflow_raises_instead_of_converging():
    # the same multiplier run long enough overflows; max(step, nan) dropping
    # the NaN used to read the run as converged with Q_m(1) = [inf, nan, nan]
    eq = EquationParams(1, 1, 2, 2)
    f = VectorFunction(terms=[Term(coef=1.0, exponent=9.0, mode="ABS", direction=E1)])
    with pytest.raises(ValueError, match=r"iteration step \d+: non-finite iterate"):
        compute_Qm(eq, f, 2, [1.0], tol=1e-10, n_max=200, space=cross_2norm(),
                   witnesses=WITNESSES, residual_pairs=0, seed=0)
    with pytest.raises(ValueError, match=r"iteration step \d+: non-finite iterate"):
        compute_Qm(eq, f, 2, [1.0], tol=1e-10, n_max=200, space=cross_2norm(),
                   witnesses=[[0.0, 1.0, 0.0]], residual_pairs=0, seed=0)


def test_theorem_bound_values():
    model = ErrorModel(
        components=(ErrorComponent(0.0, -1.0, Y_DIR), ErrorComponent(0.0, -1.0, Y_DIR),
                    ErrorComponent(2.0, 0.0, Y_DIR), ErrorComponent(0.0, 0.0, Y_DIR)),
        aux_space=cross_2norm(),
    )  # bracket = 2 everywhere
    cst = HyperstabConstants(m=2, u=2.0, v=-1.9, w=2.4, A=0.5, B=0.5, C=0.5,
                             P=0.5, sigma=0.5, in_M0=True)
    z = np.array([0.0, 0.0, 1.0])
    assert theorem_bound(model, cst, 1.0, 1.0, 1.3, z) == pytest.approx(2.0, rel=1e-12)

    cst0 = HyperstabConstants(m=2, u=2.0, v=-1.9, w=2.4, A=0.5, B=0.5, C=0.5,
                              P=0.5, sigma=0.0, in_M0=True)
    assert theorem_bound(model, cst0, 1.0, 1.0, 1.3, z) == 0.0

    vals = []
    for P in (0.1, 0.5, 0.9):
        cstP = HyperstabConstants(m=2, u=2.0, v=-1.9, w=2.4, A=P, B=P, C=P,
                                  P=P, sigma=0.5, in_M0=True)
        vals.append(theorem_bound(model, cstP, 1.0, 1.0, 1.3, z))
    assert vals[0] < vals[1] < vals[2]

    bad = HyperstabConstants(m=2, u=2.0, v=-1.9, w=2.4, A=1.2, B=0.5, C=0.5,
                             P=1.2, sigma=0.5, in_M0=False)
    with pytest.raises(ValueError):
        theorem_bound(model, bad, 1.0, 1.0, 1.3, z)


def reference_config(eta=0.1, seed=7, m_values=(2, 3, 5)):
    return ExperimentConfig(
        space=cross_2norm(), equation=EquationParams(1, 1, 2, 2),
        model=reference_model(),
        solution={"theta_coef": 1.0, "w": None, "direction": [1.0, 0.0, 0.0]},
        perturbation={"eta": eta, "exponent": -3.0, "mode": "ABS", "direction": [1.0, 0.0, 0.0]},
        grid=[0.5, 0.75, 1.0, 1.25, 1.5, 2.0], m_values=list(m_values), m_max=12,
        witnesses=WITNESSES, qm_tol=1e-12, qm_n_max=60, residual_pairs=400, seed=seed,
    )


def test_run_experiment_exact_input():
    report = run_experiment(reference_config(eta=0.0))
    assert report.feasible
    assert report.m0.min_member == 2
    for rec in report.per_m:
        assert rec["qm"].converged
        assert rec["sup_f_minus_Qm"] <= 1e-12
        assert rec["K_observed"] is not None
    assert not report.consistency["exceeds_gamma"]


def test_run_experiment_perturbed_input():
    report = run_experiment(reference_config(eta=0.1))
    assert report.feasible
    sups = [rec["sup_f_minus_Qm"] for rec in report.per_m]
    # Q_m recovers f0 for every m, so the gap is the perturbation itself,
    # constant in m: sup over grid of 0.1 |x|^-3 = 0.1 / 0.5^3
    assert all(s == pytest.approx(0.8, rel=1e-6) for s in sups)
    for rec in report.per_m:
        assert rec["qm"].converged
        assert rec["sup_dev_from_f0_rel"] < 1e-6
        assert rec["K_observed"] is not None
        assert rec["K_observed"] <= 1 + 1e-6
    assert report.consistency["exceeds_gamma"]
    assert report.consistency["max_residual_gamma_ratio"] > 1.0


def test_run_experiment_bound_tables_hold_at_K_observed():
    # the reference experiment at m = 2, 3, 5, and the same with a zero error
    # model, whose right sides are all 0 under nonzero deviations
    zero = reference_model()
    zero.components = tuple(ErrorComponent(0.0, comp.p, comp.y) for comp in zero.components)
    for model in (reference_model(), zero):
        cfg = reference_config(eta=0.1)
        cfg.model = model
        report = run_experiment(cfg)
        assert [rec["m"] for rec in report.per_m] == [2, 3, 5]
        for rec in report.per_m:
            assert set(rec["bound_entries"][0]) == {"x", "witness", "lhs_pow_theta", "rhs_unit_K"}
            unbudgeted = report.unbudgeted[rec["m"]]
            assert (rec["K_observed"] is None) == (model is zero) == bool(unbudgeted)
            check_bound_table(rec["K_observed"], rec["bound_entries"], unbudgeted)


def test_run_experiment_infeasible_model():
    cfg = reference_config()
    cfg.model = reference_model(p1=0.0, p2=0.0, p3=0.0, p4=0.0, c3=1.0, c4=1.0)
    report = run_experiment(cfg)
    assert not report.feasible
    assert report.per_m == []
    assert any("M0 is empty" in w for w in report.warnings)


def test_run_experiment_projection_fallback():
    cfg = reference_config()
    cfg.equation = EquationParams(1.0, 1.0, 3.0, 1.0)  # no exact continuous solution
    report = run_experiment(cfg)
    assert any("projection f0 = 0" in w for w in report.warnings)


def test_run_experiment_deterministic():
    r1 = run_experiment(reference_config())
    r2 = run_experiment(reference_config())
    assert r1 == r2


def test_quintic_root_machinery():
    # odd-root generalization: identities, eigen-identity and Q_m recovery
    eq = EquationParams(1.0, 1.0, 2.0, 2.0, root_n=5)
    u, v, w = sequences(1.0, 1.0, 2, root_n=5)
    assert 1.0 * u ** 5 + 1.0 * v ** 5 == pytest.approx(1.0, abs=1e-12)
    assert u ** 5 - v ** 5 == pytest.approx(w ** 5, rel=1e-14)
    for m in (2, 5, 20):
        assert expand_T_power(eq, m, 1).sextic_identity_error() == 0.0
    f0 = make_solution(eq, 1.0, None, E1)
    f = VectorFunction(terms=list(f0.terms)
                       + [Term(coef=0.1, exponent=-3.0, mode="ABS", direction=E1)])
    grid = [0.5, 1.0, 2.0]
    res = compute_Qm(eq, f, 2, grid, tol=1e-12, n_max=60,
                     space=cross_2norm(), witnesses=WITNESSES,
                     residual_pairs=300, seed=5)
    assert res.converged
    for x, val in zip(grid, res.values):
        assert np.abs(np.array(val) - f0(x)).max() <= 1e-6 * max(abs(x) ** 10, 1.0)
    assert res.sup_residual_scaled <= 1e-8


def test_run_experiment_asymmetric_equation():
    """(a,b,c,d) = (2,1,8,2): m = 2 lies in M0 for the error machinery, but
    the |x|^-3 perturbation is not contracted by T_2 (its eigenvalue is
    8/4 + 2/7 - 1/15 > 1); the report must say so honestly while m = 3, 5
    still recover the exact solution."""
    eq = EquationParams(2.0, 1.0, 8.0, 2.0)
    cfg = ExperimentConfig(
        space=cross_2norm(), equation=eq, model=reference_model(),
        solution={"theta_coef": 1.0, "w": None, "direction": [1.0, 0.0, 0.0]},
        perturbation={"eta": 0.1, "exponent": -3.0, "mode": "ABS",
                      "direction": [1.0, 0.0, 0.0]},
        grid=[0.5, 1.0, 1.5, 2.0], m_values=[2, 3, 5], m_max=10, witnesses=WITNESSES,
        qm_tol=1e-10, qm_n_max=60, residual_pairs=300, seed=13,
    )
    report = run_experiment(cfg)
    assert report.feasible
    by_m = {rec["m"]: rec for rec in report.per_m}
    assert 2 in by_m and not by_m[2]["qm"].converged
    f0 = make_solution(eq, 1.0, None, E1)
    for m in (3, 5):
        rec = by_m[m]
        assert rec["qm"].converged
        assert rec["sup_dev_from_f0_rel"] < 1e-6
        assert rec["qm"].sup_residual_scaled <= 1e-8
    assert report.consistency["exceeds_gamma"]


def test_randomized_recovery_sweep():
    """Across random admissible configs, Q_m recovery must match what the
    per-term contraction factors predict: the perturbation dies iff its
    eigenvalue under T_m has modulus < 1."""
    from qbanach.fixedpoint import _term_multiplier
    from qbanach.hyperstab import radical_iteration_spec

    rng = np.random.default_rng(2718)
    for _ in range(12):
        a = float(rng.choice([1.0, 2.0, 0.5]))
        b = float(rng.choice([1.0, 3.0]))
        eq = EquationParams(a, b, 2 * a * a, 2 * b * b)
        exponent = float(rng.choice([-1.5, -3.0, -4.5]))
        eta = float(rng.uniform(0.01, 0.3))
        m = int(rng.integers(2, 7))
        f0 = make_solution(eq, 1.0, None, E1)
        f = VectorFunction(terms=list(f0.terms)
                           + [Term(coef=eta, exponent=exponent, mode="ABS", direction=E1)])
        spec = radical_iteration_spec(eq, m, None)
        mults = [_term_multiplier(spec, t.exponent, t.mode == "SIGNED") for t in f.terms]
        assert mults[0] == pytest.approx(1.0, abs=1e-12)  # exact-solution eigenvalue
        grid = [0.5, 1.0, 2.0]
        try:
            res = compute_Qm(eq, f, m, grid, tol=1e-10, n_max=200,
                             space=cross_2norm(), witnesses=WITNESSES,
                             residual_pairs=100, seed=int(rng.integers(1e6)))
        except ValueError as exc:
            # a divergent step whose norm overflows before n_max is named
            assert abs(mults[1]) > 1.05 and "non-finite iterate" in str(exc), (a, b, m, mults)
            continue
        if abs(mults[1]) < 0.95:
            assert res.converged, (a, b, m, exponent, mults)
            for x, val in zip(grid, res.values):
                assert np.abs(np.array(val) - f0(x)).max() <= 1e-6 * max(abs(x) ** 6, 1.0)
            assert res.sup_residual_scaled <= 1e-7
        elif abs(mults[1]) > 1.05:
            assert not res.converged, (a, b, m, exponent, mults)


def test_experiment_config_wires_aux_space():
    d = {
        "space": {"family": "CROSS_2NORM"},
        "aux_space": {"family": "POWERED", "beta": 0.5, "kappa": 1.0,
                      "base": {"family": "CROSS_2NORM"}},
        "equation": {"a": 1.0, "b": 1.0, "c": 2.0, "d": 2.0},
        "error_model": {"alpha": 0.5, "components": [
            {"c": 1.0, "p": -1.0, "y": [1.0, 1.0, 0.0]} for _ in range(4)]},
        "grid": [1.0, 2.0],
    }
    cfg = parse_config(json.dumps({"command": "HYPERSTAB", "payload": d})).inputs
    assert cfg.model.aux_space.family == "POWERED"
    assert cfg.model.alpha == 0.5
    assert cfg.space.family == "CROSS_2NORM"
    # without aux_space the majorant is measured in the space itself
    del d["aux_space"], d["error_model"]["alpha"]
    cfg = parse_config(json.dumps({"command": "HYPERSTAB", "payload": d})).inputs
    assert cfg.model.aux_space == cfg.space and cfg.model.alpha == 1.0


def test_error_model_fixed_linear_g_map():
    # witnesses are pushed through a fixed linear map before the aux norm
    g = np.array([[0.0, 1.0, 0.0], [0.0, 0.0, 1.0], [1.0, 0.0, 0.0]])
    model = ErrorModel(
        components=tuple(ErrorComponent(1.0, -1.0, Y_DIR) for _ in range(4)),
        aux_space=cross_2norm(), g_matrix=g,
    )
    z = np.array([0.3, -1.2, 2.0])
    ident = reference_model(c3=1.0, c4=1.0, p3=-1.0, p4=-1.0)
    assert model.h(1, 2.0, z) == pytest.approx(ident.h(1, 2.0, g @ z), rel=1e-14)
    again = parsed_model(model, {"family": "CROSS_2NORM"})
    assert again.g_matrix.tolist() == g.tolist() and same_model(again, model)
    assert again.h(3, 1.5, z) == pytest.approx(model.h(3, 1.5, z), rel=1e-14)
    for bad in ([[1.0, 0.0], [0.0, 1.0]], np.full((3, 3), np.inf), "NOPE"):
        with pytest.raises(ValueError, match="3x3 array of finite numbers"):
            ErrorModel(model.components, cross_2norm(), g_matrix=bad)


def test_error_model_validation_and_flags():
    model = reference_model()
    assert model.feasibility_flags == {"p1+p2<0": True, "p3<0": True, "p4<0": True}
    with pytest.raises(ValueError):
        ErrorModel(components=model.components[:3], aux_space=cross_2norm())
    assert same_model(parsed_model(model, {"family": "CROSS_2NORM"}), model)


def test_sextic_term_multiplier_to_the_nth_is_exactly_one():
    # c u^6 + d v^6 - w^6 = 1 holds exactly in the cube values, so the sextic
    # eigen-multiplier of T_m^n is exactly 1 at every order
    for a, b in [(1.0, 1.0), (1.0, 3.0)]:
        eq = EquationParams(a, b, 2 * a * a, 2 * b * b)
        for m in (2, 3, 6, 12):
            spec = radical_iteration_spec(eq, m, None)
            for n in (2, 4, 5, 8):
                assert _term_multiplier(spec, 6.0, False) ** n == 1.0


def sextic_identity_oracle(eq: EquationParams, m: int, n: int) -> float:
    """|sum coeff * scale^(2r) - 1| over the T_m^n table, r = root_n, summed
    entry by entry in exact rationals (inf beyond the float range)."""
    a, b = Fraction(eq.a), Fraction(eq.b)
    mn = Fraction(m) ** eq.root_n
    up, vp, wp = mn / a, (1 - mn) / b, 2 * mn - 1
    # (c u^2r)^i, (d v^2r)^j, (-w^2r)^k for 0..n
    U, V, W = ([q ** k for k in range(n + 1)] for q in (
        Fraction(eq.c) * up * up, Fraction(eq.d) * vp * vp, -wp * wp))
    total = Fraction(0)
    for i in range(n + 1):
        for j in range(n + 1 - i):
            total += math.comb(n, i) * math.comb(n - i, j) * U[i] * V[j] * W[n - i - j]
    try:
        return abs(float(total - 1))
    except OverflowError:
        return math.inf


_NONZERO = st.builds(lambda sign, e: sign * 10.0 ** e, st.sampled_from([-1.0, 1.0]),
                     st.floats(-6.0, 6.0))


@settings(max_examples=200, derandomize=True, deadline=None)
@given(a=_NONZERO, b=_NONZERO, c=_NONZERO, d=_NONZERO, solvable=st.booleans(),
       root_n=st.sampled_from([3, 5]), m=st.integers(2, 60), n=st.integers(0, 12))
@example(a=1e-6, b=1.0, c=1e6, d=1.0, solvable=False, root_n=5, m=60, n=12)  # inf
def test_sextic_identity_from_one_step_equals_the_table_sum(a, b, c, d, solvable, root_n, m, n):
    # the multinomial theorem: the table sum is q^n for the one-step sum q;
    # c = 2a^2, d = 2b^2 make q = 1 up to the rounding of those two floats
    if solvable:
        c, d = 2 * a * a, 2 * b * b
    eq = EquationParams(a, b, c, d, root_n=root_n)
    assert expand_T_power(eq, m, n).sextic_identity_error() == sextic_identity_oracle(eq, m, n)


def test_sextic_identity_error_beyond_the_float_range_is_inf():
    eq = EquationParams(0.7, 1.1, 1.5, 2.0)
    assert math.isfinite(expand_T_power(eq, 50, 30).sextic_identity_error())
    for n in (31, 40):
        assert expand_T_power(eq, 50, n).sextic_identity_error() == math.inf


def test_expand_T_power_beyond_the_float_range_names_the_order():
    # c = 1e10: the largest coefficient of T^30 is 1.0e300, and T^31's is past
    # the float range (math.exp raised a bare OverflowError)
    eq = EquationParams(1.0, 1.0, 1e10, 1.0)
    assert np.isfinite(expand_T_power(eq, 2, 30).coeffs).all()
    with pytest.raises(ValueError, match=r"order n = 31: a coefficient is beyond the float range"):
        expand_T_power(eq, 2, 31)


def test_table_apply_equals_callable_orbit_level_bit_for_bit():
    # ExpansionTable.apply and fixedpoint's callable-phi orbit share one level
    # builder and one evaluator, so T_m^n phi agrees to the last bit
    from qbanach.fixedpoint import ScalarErrorFn, iterate
    from qbanach.hyperstab import radical_iteration_spec
    phi = lambda x: np.array([abs(x) ** -3.0, 0.5 * x, math.sin(x)])
    eps = ScalarErrorFn([(1.0, -3.0)])
    for a, b in [(1.0, 1.0), (2.0, 1.0), (1.0, 3.0)]:
        eq = EquationParams(a, b, 2 * a * a, 2 * b * b)
        for m in range(2, 13):
            spec = radical_iteration_spec(eq, m, cross_2norm())
            for n in range(7):
                table = expand_T_power(eq, m, n)
                for x in (0.7, -1.3):
                    rep = iterate(spec, phi, eps, [x], WITNESSES, tol=0.0, n_max=n)
                    assert table.apply(phi, x).tolist() == rep.psi_values[x], (a, b, m, n, x)


def test_compute_Qm_without_witnesses_raises_instead_of_converging():
    # |x|^9 grows under T_2; with no witnesses every sup-step read 0 and the
    # run was reported converged after 3 iterations
    eq = EquationParams(1, 1, 2, 2)
    f = VectorFunction(terms=[Term(coef=1.0, exponent=9.0, mode="ABS", direction=E1)])
    with pytest.raises(ValueError, match="step 1: no witnesses"):
        compute_Qm(eq, f, 2, [1.0], tol=1e-10, n_max=50, space=cross_2norm(), witnesses=[],
                   residual_pairs=0, seed=0)
    qm = compute_Qm(eq, f, 2, [1.0], tol=1e-10, n_max=20, space=cross_2norm(),
                    witnesses=WITNESSES, residual_pairs=0, seed=0)
    assert not qm.converged
    # further on the step stays finite while its norm overflows: named, not a warning
    with pytest.raises(ValueError, match=r"step 48: non-finite iterate"):
        compute_Qm(eq, f, 2, [1.0], tol=1e-10, n_max=50, space=cross_2norm(),
                   witnesses=WITNESSES, residual_pairs=0, seed=0)
