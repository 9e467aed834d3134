import math

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st
from mpmath import mp, mpf

from qbanach.fixedpoint import (MAX_ORBIT_TERMS, Branch, IterationSpec, ScalarErrorFn,
                                apply_T, epsilon_star, iterate, load_sample_grid)
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


def numeric_Lambda(spec, delta, x):
    """(Lambda delta)(x) = sum_i L_i delta(scale_i x), evaluated pointwise."""
    return sum(Li * delta.eval(br.scale * x) for Li, br in zip(spec.weights, spec.branches))


def workdps(power):
    """30 digits beyond those that ``power`` needs to tell rho^power from 1."""
    return mp.workdps(30 + max(0, -math.floor(math.log10(power))))


def geometric_oracle(eps_value, q, theta_exp):
    """sum_n (q^n eps)^theta = eps^theta / (1 - q^theta), the one-term series."""
    with workdps(theta_exp):
        return mpf(eps_value) ** theta_exp / (1 - mpf(q) ** theta_exp)


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
        direct = numeric_Lambda(spec, delta, x)
        image = delta.lambda_image(spec)
        worst = max(worst, abs(image.eval(x) - direct) / max(abs(direct), 1e-30))
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


def test_epsilon_star_overflowing_term_is_inf():
    # c |x|^s = 1e300 * 1e20 overflows: the series is finite but not a float
    spec = IterationSpec([Branch(scale=0.5, coef=0.5)], cross_2norm())
    for terms in ([(1e300, 2.0)], [(1e300, 2.0), (1.0, 0.0)]):
        res = epsilon_star(spec, ScalarErrorFn(terms), 1e10, 0.5)
        assert (res.converged, res.lower, res.value) == (True, math.inf, math.inf)


def test_epsilon_star_divergence_reported():
    spec = IterationSpec([Branch(scale=1.0, coef=1.0, kappa_exp=1)], cross_2norm())
    res = epsilon_star(spec, ScalarErrorFn([(1.0, 0.0)]), 1.0, 1.0, n_max=64)
    assert not res.converged
    assert res.value == math.inf


def test_geometric_bound_values():
    # one term (c, 0) under one branch (scale 1, coef q): the bracket holds
    # the closed form; its width is tol plus 8 ulps per term (2,622 terms at
    # q = 0.9, theta = 0.1).  Unrounded, the upper end falls 4.8e-16 below
    # at (0.2998, 0.4244, 0.944).  At q = 1e-10, theta = 0.01 the unpowered
    # term q^n underflows to 0 at n = 33 while its power still counts.
    for eps_value, q, th in [(1.0, 0.5, 1.0), (2.0, 0.5, 0.5), (1.5, 0.0, 0.25),
                             (0.2423, 0.6441, 0.282), (0.2998, 0.4244, 0.944),
                             (3.0, 0.9, 0.1), (1.0, 1e-10, 0.01), (2.0, 0.5, 1e-300)]:
        spec = IterationSpec([Branch(scale=1.0, coef=q, kappa_exp=1)], cross_2norm())
        res = epsilon_star(spec, ScalarErrorFn([(eps_value, 0.0)]), 1.0, th, n_max=4096)
        exact = geometric_oracle(eps_value, q, th)
        assert res.converged
        assert res.lower <= exact <= res.value
        assert res.value == pytest.approx(float(exact), rel=1e-11)
    assert float(geometric_oracle(2.0, 0.5, 0.5)) == pytest.approx(4.82842712, abs=1e-7)


def test_geometric_bound_rejects_q_one():
    spec = IterationSpec([Branch(scale=1.0, coef=1.0, kappa_exp=1)], cross_2norm())
    for th in (0.5, 1.0):
        res = epsilon_star(spec, ScalarErrorFn([(1.0, 0.0)]), 1.0, th)
        assert (res.converged, res.lower, res.value, res.terms_used) == (False, math.inf,
                                                                         math.inf, 0)


def test_epsilon_star_divergent_probe():
    # eps = |x|^-1 + 1e-30 |x| under one branch (scale 2, coef 1): the |x|
    # term has rho = 2, so the series diverges however small its coefficient
    spec = IterationSpec([Branch(scale=2.0, coef=1.0)], cross_2norm())
    eps = ScalarErrorFn([(1.0, -1.0), (1e-30, 1.0)])
    for th in (0.5, 1.0):
        res = epsilon_star(spec, eps, 1.0, th)
        assert not res.converged
        assert res.value == math.inf


def mp_series(spec, eps, x, power):
    """sum_n ((Lambda^n eps)(x))^power by ``mp.nsum``, with the rates
    rho_k = sum_i kappa^e_i |coef_i|^beta |scale_i|^s_k built from the exact
    inputs."""
    with workdps(power):
        kappa, beta = mpf(spec.space.kappa), mpf(spec.space.beta)
        weights = [kappa ** br.kappa_exp * abs(mpf(br.coef)) ** beta for br in spec.branches]
        rhos = [sum(w * abs(mpf(br.scale)) ** mpf(s) for w, br in zip(weights, spec.branches))
                for _, s in eps.terms]
        amps = [mpf(c) * abs(mpf(x)) ** mpf(s) for c, s in eps.terms]
        return mp.nsum(lambda n: sum(a * r ** n for a, r in zip(amps, rhos)) ** mpf(power),
                       [0, mp.inf])


_signed = st.tuples(st.floats(0.25, 4.0), st.sampled_from([-1.0, 1.0])).map(lambda t: t[0] * t[1])


@st.composite
def power_form_cases(draw):
    """1-3 branches on CROSS_2NORM, eps with 1-3 power terms and the largest
    rate rho_max in [1e-300, 0.9] (the coefficients are rescaled to it, and
    every rate stays a normal float: the bracket takes the rates as
    computed), theta in [1e-30, 1] (a smaller theta makes the reference work
    at hundreds of digits; one-term cases down to 1e-300 are in the
    geometric test)."""
    branches = [(draw(_signed), draw(_signed) / 2) for _ in range(draw(st.integers(1, 3)))]
    eps = ScalarErrorFn([(draw(st.floats(0.01, 10.0)), draw(st.floats(-3.0, 3.0)))
                         for _ in range(draw(st.integers(1, 3)))])
    rho_max = draw(st.floats(1e-300, 0.9))
    rough = IterationSpec([Branch(scale=sc, coef=cf) for sc, cf in branches], cross_2norm())
    shrink = rho_max / max(eps.rates(rough))
    spec = IterationSpec([Branch(scale=sc, coef=cf * shrink) for sc, cf in branches],
                         cross_2norm())
    theta_exp = draw(st.floats(1e-30, 1.0))
    return spec, eps, draw(_signed), theta_exp


@settings(derandomize=True, max_examples=100, deadline=None)
@given(power_form_cases())
def test_epsilon_star_bracket_holds_mpmath_reference(case):
    spec, eps, x, theta_exp = case
    res = epsilon_star(spec, eps, x, theta_exp)
    assert res.converged
    assert res.lower <= mp_series(spec, eps, x, theta_exp) <= res.value


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


def test_sup_step_rejects_non_finite_and_mismatched_rows():
    ok = [np.ones(3)]
    for bad in ([np.array([np.inf, 0.0, 0.0])], [np.array([np.nan, 0.0, 0.0])]):
        with pytest.raises(ValueError, match="step 4: non-finite iterate"):
            _sup_step(cross_2norm(), WITNESSES, ok, bad, "step 4")
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
            iterate(spec, phi, eps, [1.0], WITNESSES, tol=1e-10, n_max=1000)


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
        iterate(spec, phi, ScalarErrorFn([(1.0, 0.0)]), [1.0], WITNESSES, tol=1e-10, n_max=200)
    # three branches at the CLI default n_max = 200 stay under the cap and run
    terms = VectorFunction(terms=[Term(coef=0.1, exponent=-3.0, mode="ABS", direction=E1)])
    rep = iterate(radical_spec(), lambda x: terms(x), ScalarErrorFn([(0.06, -3.0)]), [1.0],
                  WITNESSES, tol=1e-8, n_max=200)
    assert rep.converged


def test_callable_orbit_beyond_the_float_range_names_the_order():
    # T^n phi of phi = 1e-150 e1 is (1e10)^n phi, finite (about 1e160) at
    # n = 31, but the level-31 coefficients are not: the level builder names
    # the order.  Every step exceeds tol, so the orbit reaches that level.
    phi = lambda x: 1e-150 * E1
    with pytest.raises(ValueError, match=r"order n = 31: a coefficient is beyond the float range"):
        iterate(radical_spec(c=1e10, d=1.0), phi, ScalarErrorFn([(1.0, 0.0)]), [1.0],
                WITNESSES, tol=1e-300, n_max=40)


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
