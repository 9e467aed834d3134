import json

import numpy as np
import pytest

from qbanach.cli import _json_data, parse_config

from qbanach.radical import (DRAWS_PER_PAIR, EquationParams, InadmissiblePairError,
                             NoExactSolutionError, Term, VectorFunction, admissibility,
                             check_structure, make_solution, real_root,
                             residual, residual_rows, sample_admissible_pairs)

E1 = np.array([1.0, 0.0, 0.0])


def test_real_root_examples():
    assert real_root(8.0, 3) == pytest.approx(2.0, abs=1e-15)
    assert real_root(-7.0, 3) == pytest.approx(-1.912931183, abs=1e-9)
    assert real_root(0.0, 3) == 0.0


def test_real_root_round_trip():
    rng = np.random.default_rng(12)
    for n in (3, 5, 7):
        for _ in range(500):
            t = float(rng.uniform(-1000.0, 1000.0))
            assert real_root(t ** n, n) == pytest.approx(t, rel=1e-14, abs=1e-14)


def test_real_root_rejects_even_degree():
    with pytest.raises(ValueError):
        real_root(4.0, 2)


def test_equation_params_validation():
    with pytest.raises(ValueError):
        EquationParams(0.0, 1.0, 2.0, 2.0)
    with pytest.raises(ValueError):
        EquationParams(1.0, 1.0, 2.0, 2.0, root_n=4)
    eq = EquationParams(1, 1, 2, 2)
    assert eq.root_a == 1.0 and eq.root_n == 3


def test_residual_zero_for_exact_solution():
    eq = EquationParams(1, 1, 2, 2)
    f = make_solution(eq, 1.0, None, E1)
    rng = np.random.default_rng(3)
    checked = 0
    while checked < 10_000:
        x, y = rng.uniform(0.3, 3.0, 2) * rng.choice([-1.0, 1.0], 2)
        if not admissibility(eq, x, y)[0]:
            continue
        checked += 1
        scale = max(abs(x), abs(y),
                    abs(x ** 3 + y ** 3) ** 0.5, abs(x ** 3 - y ** 3) ** 0.5) ** 6
        assert np.abs(residual(eq, f, x, y)).max() <= 1e-9 * max(scale, 1.0)


def test_residual_constant_solution():
    eq = EquationParams(1.0, 1.0, 0.5, 1.5)  # c + d = 2
    w = np.array([0.3, -0.2, 1.0])
    f = make_solution(eq, 0.0, w, E1)
    assert np.abs(residual(eq, f, 1.3, 0.4)).max() <= 1e-14


def test_residual_signed_cubic_example():
    # raw-formula value at the excluded point x = y = 1: f(cbrt 2) + f(0) - 2 - 2
    eq = EquationParams(1, 1, 2, 2)
    f = VectorFunction(terms=[Term(coef=1.0, exponent=3.0, mode="SIGNED", direction=E1)])
    with pytest.raises(InadmissiblePairError):
        residual(eq, f, 1.0, 1.0)
    val = residual_rows(eq, f, [1.0], [1.0])[0]
    assert np.allclose(val, -2.0 * E1, atol=1e-12)


def test_residual_domain_errors_name_constraint():
    eq = EquationParams(1, 1, 2, 2)
    f = make_solution(eq, 1.0, None, E1)
    with pytest.raises(InadmissiblePairError, match="x = 0"):
        residual(eq, f, 0.0, 1.0)
    with pytest.raises(InadmissiblePairError, match="exclusion band"):
        residual(eq, f, 1.0, 1.0 + 1e-9)
    with pytest.raises(InadmissiblePairError, match="-root"):
        residual(eq, f, 1.0, -1.0)


def test_make_solution_accepts_matching_params():
    eq = EquationParams(2.0, 1.0, 8.0, 2.0)  # a^2 = 4 = c/2, b^2 = 1 = d/2
    f = make_solution(eq, 1.0, None, E1)
    rng = np.random.default_rng(5)
    for _ in range(200):
        x, y = rng.uniform(0.3, 2.0, 2)
        if not admissibility(eq, x, y)[0]:
            continue
        scale = max(abs(x), abs(y), abs(eq.a * x ** 3 + eq.b * y ** 3) ** 0.5,
                    abs(eq.a * x ** 3 - eq.b * y ** 3) ** 0.5) ** 6
        assert np.abs(residual(eq, f, x, y)).max() <= 1e-9 * max(scale, 1.0)


def test_make_solution_rejects_and_names_constraints():
    eq = EquationParams(1.0, 1.0, 1.0, 1.0)  # c + d = 2 but a^2 != c/2
    with pytest.raises(NoExactSolutionError) as err:
        make_solution(eq, 1.0, np.array([1.0, 0.0, 0.0]), E1)
    assert "a^2 = c/2" in str(err.value)
    # constant-only solution is fine for the same params
    f = make_solution(eq, 0.0, np.array([1.0, 0.0, 0.0]), E1)
    assert np.abs(residual(eq, f, 1.0, 0.5)).max() <= 1e-14


def test_make_solution_w_requires_cd_sum():
    eq = EquationParams(1, 1, 2, 2)  # c + d = 4
    with pytest.raises(NoExactSolutionError) as err:
        make_solution(eq, 1.0, np.array([0.1, 0.0, 0.0]), E1)
    assert "c + d = 2" in str(err.value)


def test_check_structure_solution_passes():
    eq = EquationParams(1, 1, 2, 2)
    f = make_solution(eq, 1.0, None, E1)
    rep = check_structure(eq, f, [0.5, 0.75, 1.0, 1.5, 2.0])
    assert rep.max_deviation() <= 1e-12
    assert "sextic_law" in rep.deviations


def test_check_structure_detects_quartic_contamination():
    eq = EquationParams(1, 1, 2, 2)
    f = VectorFunction(terms=[Term(coef=1.0, exponent=6.0, mode="ABS", direction=E1),
                              Term(coef=1.0, exponent=4.0, mode="ABS", direction=E1)])
    rep = check_structure(eq, f, [0.5, 1.0, 2.0])
    assert rep.deviations["sextic_law"] > 1e-3


def test_check_structure_evenness_exact_for_abs_terms():
    eq = EquationParams(1, 1, 2, 2)
    f = VectorFunction(terms=[Term(coef=0.7, exponent=6.0, mode="ABS", direction=E1),
                              Term(coef=0.1, exponent=-2.0, mode="ABS", direction=E1)])
    rep = check_structure(eq, f, [0.5, 1.0, 2.0])
    assert rep.deviations["evenness"] == 0.0


def test_check_structure_constant_solution_scaling_laws():
    eq = EquationParams(1.0, 1.0, 0.5, 1.5)
    w = np.array([0.4, 0.0, -0.1])
    f = make_solution(eq, 0.0, w, E1)
    rep = check_structure(eq, f, [0.5, 1.0, 2.0])
    # scaling laws act on the constant-stripped part, which is identically 0
    assert rep.max_deviation() <= 1e-15


def test_check_structure_validates_grid():
    eq = EquationParams(1, 1, 2, 2)
    f = make_solution(eq, 1.0, None, E1)
    with pytest.raises(ValueError):
        check_structure(eq, f, [])
    with pytest.raises(ValueError):
        check_structure(eq, f, [1.0, 0.0])


def test_proposition_correspondence_general_quadratic():
    # g(t) = f(root(t, 3)) satisfies g(ax+by) + g(ax-by) = c g(x) + d g(y)
    eq = EquationParams(2.0, 1.0, 8.0, 2.0)
    f = make_solution(eq, 1.0, None, E1)
    g = lambda t: f(real_root(t, 3)) if t != 0 else np.zeros(3)
    rng = np.random.default_rng(9)
    checked = 0
    for _ in range(10_000):
        x, y = rng.uniform(-3.0, 3.0, 2)
        if abs(x) < 1e-6 or abs(y) < 1e-6:
            continue
        lhs = g(eq.a * x + eq.b * y) + g(eq.a * x - eq.b * y)
        rhs = eq.c * g(x) + eq.d * g(y)
        scale = max(abs(eq.a * x) + abs(eq.b * y), 1.0) ** 2
        assert np.abs(lhs - rhs).max() <= 1e-9 * scale
        checked += 1
    assert checked > 9000


def test_quintic_root_generalization():
    # same machinery with x^5 in place of x^3; solutions are theta*x^10 + w
    eq = EquationParams(1.0, 1.0, 2.0, 2.0, root_n=5)
    f = make_solution(eq, 1.0, None, E1)
    assert f.terms[0].exponent == 10.0
    rng = np.random.default_rng(31)
    checked = 0
    while checked < 500:
        x, y = rng.uniform(0.3, 2.0, 2) * rng.choice([-1.0, 1.0], 2)
        if not admissibility(eq, x, y)[0]:
            continue
        checked += 1
        scale = max(abs(x), abs(y), abs(x ** 5 + y ** 5) ** 0.2,
                    abs(x ** 5 - y ** 5) ** 0.2) ** 10
        assert np.abs(residual(eq, f, x, y)).max() <= 1e-9 * max(scale, 1.0)
    rep = check_structure(eq, f, [0.5, 1.0, 1.5])
    assert "power_10_law" in rep.deviations
    assert rep.max_deviation() <= 1e-10


def test_vector_function_json_round_trip():
    f = VectorFunction(
        terms=[Term(coef=1.0, exponent=6.0, mode="ABS", direction=E1),
               Term(coef=-0.5, exponent=3.0, mode="SIGNED", direction=np.array([0.0, 1.0, 0.0]))],
        constant=np.array([0.0, 0.0, 2.0]),
    )
    # a fixed-point config's phi reads a report body's form back
    payload = {"space": {"family": "CROSS_2NORM"}, "branches": [{"scale": 2.0, "coef": 0.5}],
               "phi": _json_data(f), "error_terms": [], "samples": [1.0]}
    g = parse_config(json.dumps({"command": "FIXED_POINT", "payload": payload})).inputs["phi"]
    for x in (0.5, -1.5, 2.0):
        assert np.allclose(f(x), g(x))


def test_vector_function_rejects_mixed_dims():
    with pytest.raises(ValueError):
        VectorFunction(terms=[Term(coef=1.0, exponent=2.0, direction=np.array([1.0, 0.0]))],
                       constant=np.array([1.0, 0.0, 0.0]))


def test_sampler_draws_for_fewer_pairs_are_a_prefix():
    eq = EquationParams(1, 1, 2, 2)
    short = list(sample_admissible_pairs(eq, 0.5, 2.0, 5, np.random.default_rng(9)))
    long = list(sample_admissible_pairs(eq, 0.5, 2.0, 40, np.random.default_rng(9)))
    assert sum(ok for _, _, ok in short) == 5
    assert sum(ok for _, _, ok in long) == 40
    assert long[:len(short)] == short


def test_sampler_on_the_excluded_diagonal_stops_after_its_cap():
    # |x| = |y| = 1 and a = b: every draw lies on the excluded diagonal
    eq = EquationParams(1, 1, 2, 2)
    draws = list(sample_admissible_pairs(eq, 1.0, 1.0, 7, np.random.default_rng(0)))
    assert len(draws) == DRAWS_PER_PAIR * 7
    assert not any(ok for _, _, ok in draws)
    assert {abs(x) for x, _, _ in draws} == {1.0}
    assert list(sample_admissible_pairs(eq, 1.0, 1.0, 0, np.random.default_rng(0))) == []
