"""Acceptance suite: one test per exit criterion, each printing a PASS line.

Run with ``pytest tests/test_acceptance.py -v -s`` to see the per-criterion
lines.  Tolerances are pinned here, not configurable.
"""

import json
import time

import numpy as np
import pytest

from qbanach.envelope import check_p_triangle, envelope_norm, theta
from qbanach.fixedpoint import Branch, IterationSpec, ScalarErrorFn, iterate
from qbanach.hyperstab import expand_T_power, run_experiment, sequences
from qbanach.radical import (EquationParams, Term, VectorFunction, check_structure,
                             make_solution, real_root)
from qbanach.spaces import (check_axioms, cross_2norm, estimate_kappa, eval_norm,
                            lp_cross, power_space)
from test_cli import REFERENCE_HYPERSTAB_PAYLOAD, make_config, parse_config, run

E1 = np.array([1.0, 0.0, 0.0])
WITNESSES = [np.array([0.0, 1.0, 0.0]), np.array([0.0, 0.0, 1.0])]

AB_GRID = [(1.0, 1.0), (2.0, 1.0), (1.0, 3.0)]


def _report(n, text):
    print(f"CRITERION {n}: PASS: {text}")


def test_criterion_1_axiom_suite():
    spaces = [
        cross_2norm(),
        power_space(cross_2norm(), 0.25),
        power_space(cross_2norm(), 0.5),
        power_space(cross_2norm(), 1.0),
        lp_cross(0.5),
    ]
    start = time.perf_counter()
    for space in spaces:
        rep = check_axioms(space, 10_000, seed=101)
        assert rep.total_violations == 0, (space.family, space.beta, rep)
    elapsed = time.perf_counter() - start
    assert elapsed < 5.0, f"axiom suite took {elapsed:.2f}s"
    _report(1, f"0 violations across 5 spaces x 10^4 trials in {elapsed:.2f}s")


def test_criterion_2_kappa_estimation():
    est_cross = estimate_kappa(cross_2norm(), 100_000, seed=202)
    assert 1 - 1e-9 <= est_cross <= 1 + 1e-9, est_cross
    est_lp = estimate_kappa(lp_cross(0.5), 100_000, seed=202)
    assert 1.5 <= est_lp <= 2 + 1e-9, est_lp
    _report(2, f"kappa(CROSS_2NORM) = {est_cross:.12f}, kappa(LP_CROSS(0.5)) = {est_lp:.6f}")


def test_criterion_3_theta_and_envelope():
    assert abs(theta(1.0, 1.0) - 1.0) <= 1e-15
    assert abs(theta(1.0, 2.0) - 0.5) <= 1e-15

    rng = np.random.default_rng(303)
    spaces = [cross_2norm(), lp_cross(0.5), lp_cross(0.5, kappa=1.0)]
    for i in range(1000):
        space = spaces[i % len(spaces)]
        x = rng.uniform(-3.0, 3.0, 3)
        z = rng.uniform(-3.0, 3.0, 3)
        res = envelope_norm(space, x, z, budget=12, seed=i)
        parts = np.asarray(res.certificate)
        assert parts.shape[0] <= 8
        assert np.abs(parts.sum(axis=0) - x).max() <= 1e-9 * (1 + np.abs(x).max())
        r = res.p / space.beta
        recomputed = sum(eval_norm(space, prt, z) ** r for prt in parts) ** (1 / r)
        assert res.value == pytest.approx(recomputed, rel=1e-12, abs=1e-300)
        base = eval_norm(space, x, z)
        assert res.value <= base + 1e-12 * (1 + base)

    for space in (cross_2norm(), power_space(cross_2norm(), 0.5)):
        rep = check_p_triangle(space, 10_000, seed=303, budget=4)
        assert rep.violations == 0, (space.family, rep)
    _report(3, "theta exact; 10^3 certificates valid; 0 p-triangle violations "
               "on 2 kappa=1 spaces x 10^4 samples")


def test_criterion_4_geometric_fixed_point():
    spec = IterationSpec([Branch(scale=2.0, coef=0.5, kappa_exp=1)], cross_2norm())
    eps_val = 0.15
    eps = ScalarErrorFn([(eps_val, 0.0)])
    phi1 = VectorFunction(terms=[Term(coef=1.0, exponent=1.0, mode="SIGNED", direction=E1)],
                          constant=0.3 * E1)      # |T phi - phi, y| = 0.15 exactly
    phi2 = VectorFunction(terms=[Term(coef=1.0, exponent=1.0, mode="SIGNED", direction=E1)],
                          constant=-0.2 * E1)
    rng = np.random.default_rng(404)
    samples = list(rng.uniform(0.2, 4.0, 50)) + list(-rng.uniform(0.2, 4.0, 50))
    tol = 1e-11
    r1 = iterate(spec, phi1, eps, samples, WITNESSES, tol=tol, n_max=100)
    r2 = iterate(spec, phi2, eps, samples, WITNESSES, tol=tol, n_max=100)
    assert r1.converged and r2.converged
    bound = eps_val / (1 - 0.5) * (1 + 1e-6)
    for x in samples:
        phi_x = phi1(x)
        psi_x = np.array(r1.psi_values[x])
        for y in WITNESSES:
            assert eval_norm(spec.space, phi_x - psi_x, y) <= bound
        gap = np.abs(psi_x - np.array(r2.psi_values[x])).max()
        assert gap <= 2 * tol
    _report(4, f"converged in {r1.iterations} iterations; deviation <= eps/(1-q) "
               f"on {len(samples)} samples; two starts agree within 2*tol")


def test_criterion_5_sextic_eigen_identity():
    worst = 0.0
    for a, b in AB_GRID:
        eq = EquationParams(a, b, 2 * a * a, 2 * b * b)
        for m in range(2, 51):
            worst = max(worst, expand_T_power(eq, m, 1).sextic_identity_error())
    assert worst < 1e-9, worst
    _report(5, f"|c u^6 + d v^6 - w^6 - 1| <= {worst:.1e} over m in 2..50, 3 (a,b) pairs")


def test_criterion_6_expansion_oracle():
    rng = np.random.default_rng(606)
    worst = 0.0
    for _ in range(100):
        a, b = AB_GRID[int(rng.integers(0, 3))]
        eq = EquationParams(a, b, 2 * a * a, 2 * b * b)
        m = int(rng.choice([2, 3, 5]))
        n = int(rng.integers(0, 7))
        s = float(rng.uniform(-6.0, 0.0))   # experiments' perturbation family
        coef = float(rng.uniform(0.2, 2.0))
        x = float(rng.uniform(0.3, 3.0)) * float(rng.choice([-1.0, 1.0]))
        tab = expand_T_power(eq, m, n)
        f = VectorFunction(terms=[Term(coef=coef, exponent=s, mode="ABS", direction=E1)])
        got = tab.apply(f, x)[0]

        u, v, w = sequences(a, b, m)

        def rec(nn, t):
            if nn == 0:
                return coef * abs(t) ** s
            return (eq.c * rec(nn - 1, u * t) + eq.d * rec(nn - 1, v * t)
                    - rec(nn - 1, w * t))

        want = rec(n, x)
        rel = abs(got - want) / max(abs(got), abs(want))
        worst = max(worst, rel)
    assert worst <= 1e-10, worst
    _report(6, f"table vs 3^n recursion: worst relative gap {worst:.1e} over 100 functions")


def _reference_experiment_config():
    payload = json.loads(json.dumps(REFERENCE_HYPERSTAB_PAYLOAD))
    payload["tolerances"]["residual_pairs"] = 1000
    return parse_config(make_config("HYPERSTAB", payload)).inputs


def test_criterion_7_hyperstability_recovery():
    start = time.perf_counter()
    report = run_experiment(_reference_experiment_config(), 707)
    elapsed = time.perf_counter() - start

    assert report.feasible
    assert report.m0.min_member == 2
    p2 = next(c for c in report.m0.constants if c.m == 2).P
    # direct evaluation of the contraction formula: 2*8^-2 + 2*7^-2 + 15^-2
    assert p2 == pytest.approx(0.07651077097505668, abs=1e-6)

    assert [rec["m"] for rec in report.per_m] == [2, 3, 5]
    for rec in report.per_m:
        assert rec["qm"].converged and rec["qm"].iterations <= 60
        assert rec["sup_dev_from_f0_rel"] < 1e-6
        assert rec["qm"].residual_pairs == 1000
        assert rec["qm"].sup_residual_scaled <= 1e-8
        assert rec["K_observed"] is not None
        assert rec["K_observed"] <= 1 + 1e-6
    assert elapsed < 30.0, f"experiment took {elapsed:.2f}s"
    _report(7, f"min M0 = 2, P2 = {p2:.9f}; Q_m recovered for m in {{2,3,5}} "
               f"(K <= {max(r['K_observed'] for r in report.per_m):.4f}) in {elapsed:.2f}s")


def test_criterion_8_sequence_identities():
    worst = 0.0
    for a, b in AB_GRID:
        for m in range(2, 51):
            u, v, w = sequences(a, b, m)
            scale = max(abs(a * u ** 3), abs(b * v ** 3), 1.0)
            worst = max(worst, abs(a * u ** 3 + b * v ** 3 - 1.0) / scale)
            worst = max(worst, abs(a * u ** 3 - b * v ** 3 - w ** 3) / scale)
    assert worst <= 1e-12, worst
    _report(8, f"sum/difference identities within {worst:.1e} relative over the grid")


def test_criterion_9_solution_structure():
    worst_law = 0.0
    for a, b in AB_GRID:
        eq = EquationParams(a, b, 2 * a * a, 2 * b * b)
        f = make_solution(eq, 1.0, None, E1)
        rep = check_structure(eq, f, [0.5, 0.8, 1.0, 1.3, 2.0, 3.0])
        worst_law = max(worst_law, rep.max_deviation())
    assert worst_law <= 1e-10, worst_law

    # general-quadratic correspondence g(t) = f(root(t, 3))
    eq = EquationParams(1.0, 1.0, 2.0, 2.0)
    f = make_solution(eq, 1.0, None, E1)
    g = lambda t: f(real_root(t, 3))
    rng = np.random.default_rng(909)
    worst_corr = 0.0
    for _ in range(10_000):
        x, y = rng.uniform(-3.0, 3.0, 2)
        lhs = g(eq.a * x + eq.b * y) + g(eq.a * x - eq.b * y)
        rhs = eq.c * g(x) + eq.d * g(y)
        scale = max((abs(eq.a * x) + abs(eq.b * y)) ** 2, 1.0)
        worst_corr = max(worst_corr, float(np.abs(lhs - rhs).max()) / scale)
    assert worst_corr <= 1e-9, worst_corr
    _report(9, f"structure laws within {worst_law:.1e}; correspondence residual "
               f"within {worst_corr:.1e} on 10^4 pairs")


def test_criterion_10_determinism(tmp_path):
    doc = make_config("HYPERSTAB", REFERENCE_HYPERSTAB_PAYLOAD, seed=42)
    bodies = []
    for name in ("run1", "run2"):
        out = tmp_path / name
        cfg = parse_config(doc)
        assert run(cfg, out_dir=str(out)) == 0
        loaded = json.loads((out / "hyperstab_report.json").read_text())
        loaded.pop("metadata")
        bodies.append(json.dumps(loaded, sort_keys=True, indent=2))
    assert bodies[0] == bodies[1]
    _report(10, "two runs byte-identical modulo the metadata timestamp")
