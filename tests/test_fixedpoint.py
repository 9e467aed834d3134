import math

import numpy as np
import pytest

from qbanach.fixedpoint import (MAX_ORBIT_TERMS, Branch, IterationSpec, ScalarErrorFn,
                                apply_Lambda, apply_T, check_uniqueness_condition,
                                epsilon_star, geometric_bound, iterate, load_sample_grid)
from qbanach.hyperstab import radical_iteration_spec, sequences
from qbanach.radical import EquationParams, Term, VectorFunction
from qbanach.fixedpoint import _sup_step
from qbanach.spaces import cross_2norm, eval_norm, lp_cross, power_space, scaled_space

E1 = np.array([1.0, 0.0, 0.0])
WITNESSES = [np.array([0.0, 1.0, 0.0]), np.array([0.0, 0.0, 1.0])]


def radical_spec(a=1.0, b=1.0, c=2.0, d=2.0, m=2):
    return radical_iteration_spec(EquationParams(a, b, c, d), m, cross_2norm())


def f0_sextic():
    return VectorFunction(terms=[Term(coef=1.0, exponent=6.0, mode="ABS", direction=E1)])


def test_apply_T_identity_branch():
    spec = IterationSpec([Branch(scale=1.0, coef=1.0)], cross_2norm())
    f = lambda x: np.array([x, 0.0, 0.0])
    assert np.allclose(apply_T(spec, f, 1.7), f(1.7))


def test_apply_T_radical_spec_fixes_sextic():
    spec = radical_spec()
    f0 = f0_sextic()
    for x in (0.5, 1.0, -1.3, 2.0):
        out = apply_T(spec, f0, x)
        assert np.abs(out - f0(x)).max() <= 1e-12 * (1 + abs(x) ** 6)


def test_apply_T_constant():
    spec = radical_spec()
    out = apply_T(spec, lambda x: E1.copy(), 1.0)
    assert np.allclose(out, 3.0 * E1)  # 2 + 2 - 1


def test_apply_T_rejects_zero():
    spec = radical_spec()
    with pytest.raises(ValueError):
        apply_T(spec, f0_sextic(), 0.0)


def test_apply_Lambda_single_branch():
    spec = IterationSpec([Branch(scale=2.0, coef=1.0, kappa_exp=1)], cross_2norm())
    delta = ScalarErrorFn([(1.0, -3.0)])
    value, image = apply_Lambda(spec, delta, 1.0)
    assert value == pytest.approx(0.125)
    assert image.terms == [(0.125, -3.0)]


def test_apply_Lambda_zero():
    spec = radical_spec()
    value, image = apply_Lambda(spec, ScalarErrorFn([(0.0, -1.0)]), 2.0)
    assert value == 0.0
    assert image.eval(3.0) == 0.0


def test_lambda_closed_form_matches_direct_recursion():
    rng = np.random.default_rng(31)
    worst = 0.0
    for _ in range(1000):
        branches = [Branch(scale=float(rng.uniform(0.3, 3.0) * rng.choice([-1, 1])),
                           coef=float(rng.uniform(-2, 2) or 1.0),
                           kappa_exp=int(rng.integers(1, 3)))
                    for _ in range(int(rng.integers(1, 4)))]
        spec = IterationSpec(branches, cross_2norm())
        delta = ScalarErrorFn([(float(rng.uniform(0, 2)), float(rng.uniform(-3, 2)))])
        x = float(rng.uniform(0.2, 3.0) * rng.choice([-1, 1]))
        value, image = apply_Lambda(spec, delta, x)
        L = spec.weights
        direct = sum(Li * delta.eval(br.scale * x) for Li, br in zip(L, spec.branches))
        worst = max(worst, abs(image.eval(x) - direct) / max(abs(direct), 1e-30))
        assert value == pytest.approx(direct, rel=1e-12, abs=1e-300)
    assert worst < 1e-12


def test_lambda_iterates_closed_form_vs_recursive():
    # n-fold closed-form power-term image vs direct recursive evaluation
    rng = np.random.default_rng(77)
    for _ in range(50):
        spec = IterationSpec(
            [Branch(scale=float(rng.uniform(0.5, 2.5)), coef=float(rng.uniform(0.2, 1.5)),
                    kappa_exp=1)
             for _ in range(2)],
            cross_2norm(),
        )
        eps = ScalarErrorFn([(float(rng.uniform(0.1, 2.0)), float(rng.uniform(-3, 1)))])
        x = float(rng.uniform(0.3, 2.0))

        def recursive(n, xx):
            if n == 0:
                return eps.eval(xx)
            return sum(Li * recursive(n - 1, br.scale * xx)
                       for Li, br in zip(spec.weights, spec.branches))

        img = eps
        for n in range(1, 9):
            img = img.lambda_image(spec)
            assert img.eval(x) == pytest.approx(recursive(n, x), rel=1e-10)


def test_epsilon_star_geometric():
    spec = IterationSpec([Branch(scale=1.0, coef=0.5, kappa_exp=1)], cross_2norm())
    res = epsilon_star(spec, ScalarErrorFn([(1.0, 0.0)]), 1.0, 1.0)
    assert res.converged
    assert res.value == pytest.approx(2.0, rel=1e-9)


def test_epsilon_star_q_zero():
    spec = IterationSpec([Branch(scale=1.0, coef=1e-300, kappa_exp=1)], cross_2norm())
    res = epsilon_star(spec, ScalarErrorFn([(1.5, 0.0)]), 1.0, 0.5)
    assert res.converged
    assert res.value == pytest.approx(1.5 ** 0.5, rel=1e-9)


def test_epsilon_star_divergence_reported():
    spec = IterationSpec([Branch(scale=1.0, coef=1.0, kappa_exp=1)], cross_2norm())
    res = epsilon_star(spec, ScalarErrorFn([(1.0, 0.0)]), 1.0, 1.0, n_max=64)
    assert not res.converged
    assert res.value == math.inf


def test_geometric_bound_values():
    assert geometric_bound(1.0, 0.5, 1.0).bound == pytest.approx(2.0)
    for th in (0.25, 0.5, 1.0):
        assert geometric_bound(1.0, 0.0, th).bound == pytest.approx(1.0)
    gb = geometric_bound(2.0, 0.5, 0.5)
    assert gb.bound == pytest.approx(2 ** 0.5 / (1 - 0.5 ** 0.5), abs=1e-8)
    assert gb.bound == pytest.approx(4.82842712, abs=1e-7)
    # concavity: q^th + (1-q)^th >= 1, so the theta-powered series dominates
    assert gb.bound >= gb.crude_bound
    assert geometric_bound(1.0, 0.5, 1.0).bound == geometric_bound(1.0, 0.5, 1.0).crude_bound


def test_geometric_bound_rejects_q_one():
    with pytest.raises(ValueError):
        geometric_bound(1.0, 1.0, 1.0)


def test_iterate_exact_fixed_point():
    spec = radical_spec()
    f0 = f0_sextic()
    eps = ScalarErrorFn([(0.0, 0.0)])
    samples = [0.5, 1.0, 2.0]
    rep = iterate(spec, f0, eps, samples, WITNESSES, tol=1e-9, n_max=20)
    assert rep.converged
    assert rep.iterations <= 3
    assert rep.K_observed == 0.0
    assert rep.sup_residual <= 1e-11
    for x in samples:
        assert np.abs(np.array(rep.psi_values[x]) - f0(x)).max() <= 1e-12 * (1 + abs(x) ** 6)


def test_iterate_radical_perturbation_contracts():
    spec = radical_spec()
    f0 = f0_sextic()
    phi = VectorFunction(
        terms=[Term(coef=1.0, exponent=6.0, mode="ABS", direction=E1),
               Term(coef=0.1, exponent=-3.0, mode="ABS", direction=E1)],
    )
    # per-step contraction factor for the |x|^-3 term: 2/8 + 2/7 - 1/15
    factor = 2 / 8 + 2 / 7 - 1 / 15
    assert factor == pytest.approx(0.469048, abs=1e-6)
    eps = ScalarErrorFn([(abs(1 - factor) * 0.1, -3.0)])
    samples = [0.5, 1.0, 1.5, 2.0]
    rep = iterate(spec, phi, eps, samples, WITNESSES, tol=1e-9, n_max=60)
    assert rep.converged
    assert rep.iterations <= 60
    assert rep.sup_residual <= 1e-9       # converged implies residual below tol
    assert rep.K_observed <= 1 + 1e-6     # kappa = 1 space
    assert rep.eps_star_converged
    for x in samples:
        dev = np.abs(np.array(rep.psi_values[x]) - f0(x)).max()
        assert dev <= 1e-6 * abs(x) ** 6


@pytest.mark.parametrize("space", [
    cross_2norm(), lp_cross(0.5), lp_cross(0.4, kappa=2.0 ** 1.5),
    power_space(cross_2norm(), 0.5), scaled_space(cross_2norm(), 3.0)],
    ids=["cross", "lp0.5", "lp0.4", "powered", "scaled"])
@pytest.mark.parametrize("n_rows", [1, 2, 7, 257])
def test_sup_step_block_equals_scalar_norm_loop(space, n_rows):
    rng = np.random.default_rng(n_rows)
    old = list(rng.uniform(-5.0, 5.0, (n_rows, 3)))
    new = list(rng.uniform(-5.0, 5.0, (n_rows, 3)) * rng.choice([1e-9, 1.0, 1e9], (n_rows, 1)))
    witnesses = [np.array([0.0, 1.0, 0.0]), np.array([0.0, 0.0, 1.0]), np.array([1.0, 1.0, 1.0])]
    loop = 0.0
    for o, n in zip(old, new):
        for y in witnesses:
            loop = max(loop, eval_norm(space, n - o, y))
    assert _sup_step(space, witnesses, old, new, "step 1") == loop
    assert _sup_step(None, None, old, new, "step 1") == max(
        float(np.abs(n - o).max()) for o, n in zip(old, new))


def test_sup_step_rejects_non_finite_and_mismatched_rows():
    ok = [np.ones(3)]
    for bad in ([np.array([np.inf, 0.0, 0.0])], [np.array([np.nan, 0.0, 0.0])]):
        for space in (cross_2norm(), None):
            with pytest.raises(ValueError, match="step 4: non-finite iterate"):
                _sup_step(space, WITNESSES, ok, bad, "step 4")
    with pytest.raises(ValueError, match="dimension mismatch"):
        _sup_step(cross_2norm(), WITNESSES, [np.ones(2)], [np.zeros(2)], "step 1")
    assert _sup_step(cross_2norm(), WITNESSES, [], [], "step 1") == 0.0


def test_iterate_term_path_overflow_names_the_step():
    # one branch with multiplier 3 * 100^2 on x^2; the constant grows by 3
    spec = IterationSpec([Branch(scale=100.0, coef=3.0)], cross_2norm())
    eps = ScalarErrorFn([(1.0, 2.0)])
    for phi in (VectorFunction(terms=[Term(coef=1.0, exponent=2.0, direction=E1)]),
                VectorFunction(terms=[], constant=np.array([1.0, 0.0, 0.0]))):
        with pytest.raises(ValueError, match=r"iteration step \d+: non-finite iterate"):
            iterate(spec, phi, eps, [1.0], WITNESSES, n_max=1000)


def test_iterate_generic_path_matches_term_path():
    # decaying sector: the orbit recursion is well-conditioned there, while
    # carrying the x^6 eigencomponent to convergence depth is not
    spec = radical_spec()
    phi_terms = VectorFunction(terms=[Term(coef=0.1, exponent=-3.0, mode="ABS", direction=E1)])
    phi_callable = lambda x: phi_terms(x)
    eps = ScalarErrorFn([(0.06, -3.0)])
    samples = [0.5, 1.0, 2.0]
    rt = iterate(spec, phi_terms, eps, samples, WITNESSES, tol=1e-8, n_max=60)
    rg = iterate(spec, phi_callable, eps, samples, WITNESSES, tol=1e-8, n_max=60)
    assert rt.converged and rg.converged
    for x in samples:
        a = np.array(rt.psi_values[x])
        b = np.array(rg.psi_values[x])
        assert np.abs(a - b).max() <= 1e-7
        assert np.abs(a).max() <= 1e-6  # contraction sends the perturbation to 0


def test_iterate_generic_path_single_branch():
    spec = IterationSpec([Branch(scale=2.0, coef=0.5, kappa_exp=1)], cross_2norm())
    phi = lambda x: np.array([x + 0.3, 0.0, 0.0])
    eps = ScalarErrorFn([(0.15, 0.0)])
    samples = [0.5, 1.0, -2.0]
    rep = iterate(spec, phi, eps, samples, WITNESSES, tol=1e-12, n_max=100)
    assert rep.converged
    assert 0.0 < rep.sup_residual <= 1e-12  # honest next-step residual, not 0
    for x in samples:
        # fixed point of 0.5 f(2x) seeded from x + 0.3 is the identity line
        assert np.abs(np.array(rep.psi_values[x]) - np.array([x, 0, 0])).max() <= 1e-10


def memo_orbit_values(spec, phi, x0, n_top):
    """Reference T^n phi(x0), n = 0..n_top, by memoized recursion over
    (level, exponent tuple) on the multiplicative orbit of x0:
    T^n phi(x0 * p_e) = sum_i coef_i T^(n-1) phi(x0 * p_e * scale_i)."""
    cache = {}

    def value(n, e):
        if (n, e) not in cache:
            if n == 0:
                p = x0
                for br, k in zip(spec.branches, e):
                    p *= br.scale ** k
                cache[n, e] = np.asarray(phi(p), dtype=float)
            else:
                cache[n, e] = sum(br.coef * value(n - 1, e[:i] + (e[i] + 1,) + e[i + 1:])
                                  for i, br in enumerate(spec.branches))
        return cache[n, e]

    zero = (0,) * len(spec.branches)
    return [value(n, zero) for n in range(n_top + 1)]


def orbit_budget(n_star, j):
    """phi calls per sample for psi = T^{n*} phi and its partner T^{n*+1} phi."""
    return sum(math.comb(n + j - 1, j - 1) for n in range(n_star + 2))


class CountingPhi:
    def __init__(self, fn):
        self.fn = fn
        self.calls = 0

    def __call__(self, x):
        self.calls += 1
        return self.fn(x)


ORACLE_SPECS = [
    [Branch(scale=-1.5, coef=0.7)],
    [Branch(scale=2.0, coef=0.5), Branch(scale=-0.5, coef=-0.3)],
    [Branch(scale=1.3, coef=0.4), Branch(scale=-0.7, coef=-0.6), Branch(scale=0.9, coef=0.0)],
    [Branch(scale=1.1, coef=0.5), Branch(scale=-1.2, coef=0.25),
     Branch(scale=0.8, coef=-0.35), Branch(scale=-0.6, coef=0.2)],
]


@pytest.mark.parametrize("branches", ORACLE_SPECS, ids=lambda b: f"j{len(b)}")
@pytest.mark.parametrize("n_max", [0, 1, 3, 8])
def test_iterate_generic_path_matches_memo_oracle(branches, n_max):
    spec = IterationSpec(branches, cross_2norm())
    phi = CountingPhi(lambda x: np.array([x + 0.3, x * x - 1.0, math.cos(x)]))
    samples = [0.5, -1.25, 2.0]
    # tol = 0 never converges: psi = T^n_max phi, partner T^(n_max+1) phi
    rep = iterate(spec, phi, ScalarErrorFn([(1.0, 0.0)]), samples, WITNESSES,
                  tol=0.0, n_max=n_max)
    assert not rep.converged and rep.iterations == n_max
    assert phi.calls <= len(samples) * orbit_budget(n_max, len(branches))
    sup_residual = 0.0
    for x in samples:
        ref = memo_orbit_values(spec, phi.fn, x, n_max + 1)
        psi = np.array(rep.psi_values[x])
        assert np.abs(psi - ref[n_max]).max() <= 1e-12 * np.abs(ref[n_max]).max()
        for y in WITNESSES:
            sup_residual = max(sup_residual,
                               eval_norm(spec.space, ref[n_max + 1] - ref[n_max], y))
    assert rep.sup_residual == pytest.approx(sup_residual, rel=1e-12)


@pytest.mark.parametrize("case", ["radical_j3_converged", "j4_to_n_max"])
def test_iterate_generic_path_phi_call_budget(case):
    if case == "radical_j3_converged":
        spec = radical_spec()
        terms = VectorFunction(terms=[Term(coef=0.1, exponent=-3.0, mode="ABS", direction=E1)])
        phi = CountingPhi(lambda x: terms(x))
        tol, n_max = 1e-8, 60
    else:
        spec = IterationSpec(ORACLE_SPECS[3], cross_2norm())
        phi = CountingPhi(lambda x: np.array([x, 1.0, 0.0]))
        tol, n_max = 0.0, 6
    samples = [0.5, 1.0, 2.0]
    rep = iterate(spec, phi, ScalarErrorFn([(0.06, -3.0)]), samples, WITNESSES,
                  tol=tol, n_max=n_max)
    assert rep.converged == (tol > 0)
    assert phi.calls <= len(samples) * orbit_budget(rep.iterations, len(spec.branches))


def test_iterate_generic_path_size_guard():
    assert math.comb(200 + 2, 2) == 20_301 <= MAX_ORBIT_TERMS
    spec = IterationSpec([Branch(scale=1.0 + 0.1 * i, coef=0.05) for i in range(10)],
                         cross_2norm())

    def phi(x):  # fails the test fast, instead of expanding the orbit
        raise AssertionError("phi called before the size guard")

    with pytest.raises(ValueError, match=r"10 branches at n_max = 200 .*MAX_ORBIT_TERMS"):
        iterate(spec, phi, ScalarErrorFn([(1.0, 0.0)]), [1.0], WITNESSES)
    # three branches at the default n_max = 200 stay under the cap and run
    terms = VectorFunction(terms=[Term(coef=0.1, exponent=-3.0, mode="ABS", direction=E1)])
    rep = iterate(radical_spec(), lambda x: terms(x), ScalarErrorFn([(0.06, -3.0)]), [1.0],
                  WITNESSES, tol=1e-8)
    assert rep.converged


def test_iterate_two_starts_agree():
    spec = radical_spec()
    tol = 1e-9
    base = [Term(coef=1.0, exponent=6.0, mode="ABS", direction=E1)]
    phi1 = VectorFunction(terms=base + [Term(coef=0.1, exponent=-3.0, mode="ABS", direction=E1)])
    phi2 = VectorFunction(terms=base + [Term(coef=-0.05, exponent=-3.0, mode="SIGNED", direction=E1)])
    eps = ScalarErrorFn([(0.1, -3.0)])
    samples = [0.5, 1.0, 2.0]
    r1 = iterate(spec, phi1, eps, samples, WITNESSES, tol=tol, n_max=80)
    r2 = iterate(spec, phi2, eps, samples, WITNESSES, tol=tol, n_max=80)
    assert r1.converged and r2.converged
    for x in samples:
        gap = np.abs(np.array(r1.psi_values[x]) - np.array(r2.psi_values[x])).max()
        assert gap <= 2 * tol


def test_induction_inequality_step_bounds():
    # |T^{n+1} phi - T^n phi, y| <= (Lambda^n eps)(x, y) * (1 + 1e-9), n <= 8
    spec = IterationSpec([Branch(scale=2.0, coef=0.5, kappa_exp=1)], cross_2norm())
    phi = VectorFunction(terms=[Term(coef=1.0, exponent=1.0, mode="SIGNED", direction=E1)],
                         constant=0.3 * E1)
    eps = ScalarErrorFn([(0.15, 0.0)])  # |T phi - phi, y| = 0.15 exactly on unit witnesses
    samples = [0.5, 1.0, -2.0]
    from qbanach.spaces import eval_norm

    def t_power(n, x):
        coef_lin, coef_const = 1.0, 0.3
        for _ in range(n):
            coef_lin, coef_const = coef_lin, coef_const * 0.5
        return coef_lin * x * E1 + coef_const * E1

    for n in range(9):
        img = eps
        for _ in range(n):
            img = img.lambda_image(spec)
        for x in samples:
            step = t_power(n + 1, x) - t_power(n, x)
            for y in WITNESSES:
                assert eval_norm(spec.space, step, y) <= img.eval(x) * (1 + 1e-9)


def test_uniqueness_condition_examples():
    spec = IterationSpec([Branch(scale=1.0, coef=0.5, kappa_exp=1)], cross_2norm())
    eps = ScalarErrorFn([(1.0, 0.0)])
    assert check_uniqueness_condition(spec, eps, 1.0, 1.0, M=1.0)
    # theta = 0.5: lhs = 1/(1-sqrt(1/2)) ~ 3.414 vs (M*2)^0.5
    assert not check_uniqueness_condition(spec, eps, 1.0, 0.5, M=1.0)
    assert not check_uniqueness_condition(spec, eps, 1.0, 0.5, M=3.0)
    assert check_uniqueness_condition(spec, eps, 1.0, 0.5, M=6.0)


def test_uniqueness_condition_zero_and_divergent():
    spec_ok = IterationSpec([Branch(scale=1.0, coef=0.5, kappa_exp=1)], cross_2norm())
    assert check_uniqueness_condition(spec_ok, ScalarErrorFn([(0.0, 0.0)]), 1.0, 0.5, M=1.0)
    spec_div = IterationSpec([Branch(scale=1.0, coef=1.0, kappa_exp=1)], cross_2norm())
    res = check_uniqueness_condition(spec_div, ScalarErrorFn([(1.0, 0.0)]), 1.0, 1.0, M=1.0)
    assert not res.satisfied
    assert res.divergent


def test_branch_validation():
    with pytest.raises(ValueError):
        Branch(scale=0.0, coef=1.0)
    with pytest.raises(ValueError):
        Branch(scale=1.0, coef=1.0, kappa_exp=3)
    with pytest.raises(ValueError):
        IterationSpec([], cross_2norm())


def test_weights_formula():
    from qbanach.spaces import lp_cross
    spec = IterationSpec(
        [Branch(scale=2.0, coef=2.0, kappa_exp=1), Branch(scale=-1.5, coef=-3.0, kappa_exp=2)],
        lp_cross(0.5),  # kappa = 2, beta = 1
    )
    assert spec.weights == (2 * 2.0, 4 * 3.0)


def test_load_sample_grid(tmp_path):
    path = tmp_path / "grid.csv"
    path.write_text("0.5\n1.0\n\n-2.25\n")
    assert load_sample_grid(path) == [0.5, 1.0, -2.25]
