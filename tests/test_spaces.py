import numpy as np
import pytest

from qbanach.spaces import (SpaceDescriptor, check_axioms, cross_2norm, estimate_kappa,
                            eval_norm, lp_cross, power_space, scaled_space,
                            space_from_dict)


def test_unit_cross_product():
    s = cross_2norm()
    assert eval_norm(s, [1, 0, 0], [0, 1, 0]) == 1.0


def test_dependent_pair_vanishes():
    s = cross_2norm()
    assert eval_norm(s, [1, 0, 0], [2, 0, 0]) == 0.0


def test_powered_value():
    s = power_space(cross_2norm(), 0.5)
    # |x x y| = 4, then 4**0.5
    assert eval_norm(s, [2, 0, 0], [0, 2, 0]) == pytest.approx(2.0, abs=1e-14)


def test_powered_declared_modulus():
    base = lp_cross(0.5)  # kappa = 2
    s = power_space(base, 0.5)
    assert s.kappa == pytest.approx(np.sqrt(2.0), abs=1e-8)


def test_powered_identity_at_beta_one():
    base = cross_2norm()
    assert power_space(base, 1.0) is base


def test_powered_requires_quasi_2_norm_base():
    with pytest.raises(ValueError):
        power_space(power_space(cross_2norm(), 0.5), 0.5)
    with pytest.raises(ValueError):
        power_space(cross_2norm(), 1.5)


def test_dimension_mismatch_rejected():
    s = cross_2norm()
    with pytest.raises(ValueError):
        eval_norm(s, [1, 0], [0, 1, 0])


def test_non_finite_rejected():
    s = cross_2norm()
    with pytest.raises(ValueError):
        eval_norm(s, [1, 0, np.nan], [0, 1, 0])
    with pytest.raises(ValueError):
        eval_norm(s, [1, 0, 0], [0, np.inf, 0])


def test_beta_validation_message():
    with pytest.raises(ValueError, match=r"beta must lie in \(0,1\]"):
        SpaceDescriptor(family="CROSS_2NORM", beta=1.5)


def test_scaled_space():
    s = scaled_space(cross_2norm(), 3.0)
    assert eval_norm(s, [1, 0, 0], [0, 1, 0]) == pytest.approx(3.0)
    assert s.kappa == 1.0


def test_scaled_and_powered_dim_must_match_base():
    # a SCALED dim-2 space over the R^3 cross norm used to be accepted, and
    # check_axioms then sampled 3-vectors and reported 0 violations
    with pytest.raises(ValueError, match="SCALED dim 2 differs from its base's dim 3"):
        SpaceDescriptor("SCALED", dim=2, factor=2.0, base=cross_2norm())
    cross = cross_2norm().to_dict()
    with pytest.raises(ValueError, match="SCALED dim 4 differs"):
        space_from_dict({"family": "SCALED", "dim": 4, "factor": 2.0, "base": cross})
    with pytest.raises(ValueError, match="dim"):
        space_from_dict({"family": "POWERED", "dim": 2, "beta": 0.5, "base": cross})
    s = space_from_dict({"family": "SCALED", "dim": 3, "factor": 2.0, "base": cross})
    assert s == scaled_space(cross_2norm(), 2.0)


def test_space_json_round_trip():
    d = {"family": "LP_CROSS", "p": 0.5, "dim": 3, "beta": 1.0, "kappa": 2.0}
    s = space_from_dict(d)
    assert s.to_dict() == d
    s2 = power_space(cross_2norm(), 0.25)
    assert space_from_dict(s2.to_dict()) == s2


def test_check_axioms_clean_spaces():
    spaces = [
        cross_2norm(),
        power_space(cross_2norm(), 0.5),
        lp_cross(0.5),
        power_space(lp_cross(0.5), 0.5),   # declared modulus sqrt(2)
        scaled_space(lp_cross(0.5), 3.0),
    ]
    for space in spaces:
        rep = check_axioms(space, 2000, seed=11)
        assert rep.total_violations == 0, (space.family, rep.to_dict())
        assert rep.kappa_observed <= space.kappa * (1 + 1e-9)


def test_check_axioms_underdeclared_kappa():
    # true modulus of LP_CROSS(1/2) is 2; declaring 1 must surface B4 witnesses
    rep = check_axioms(lp_cross(0.5, kappa=1.0), 5000, seed=3)
    assert rep.b4.count > 0
    assert rep.b4.worst["ratio"] > 1.0


def test_check_axioms_deterministic():
    a = check_axioms(lp_cross(0.5), 1500, seed=9).to_dict()
    b = check_axioms(lp_cross(0.5), 1500, seed=9).to_dict()
    assert a == b


def test_b3_scaling_ratio_identity():
    s = power_space(cross_2norm(), 0.5)
    rng = np.random.default_rng(5)
    x = rng.uniform(-5, 5, 3)
    y = rng.uniform(-5, 5, 3)
    ratio = eval_norm(s, -3.0 * x, y) / eval_norm(s, x, y)
    assert ratio == pytest.approx(3.0 ** 0.5, abs=1e-12)


def test_symmetry_exact():
    rng = np.random.default_rng(2)
    for space in [cross_2norm(), lp_cross(0.5), power_space(cross_2norm(), 0.25)]:
        for _ in range(200):
            x = rng.uniform(-10, 10, 3)
            y = rng.uniform(-10, 10, 3)
            assert eval_norm(space, x, y) == eval_norm(space, y, x)


def test_powered_matches_base_power():
    base = lp_cross(0.5)
    s = power_space(base, 0.25)
    rng = np.random.default_rng(8)
    for _ in range(200):
        x = rng.uniform(-10, 10, 3)
        y = rng.uniform(-10, 10, 3)
        b = eval_norm(base, x, y)
        assert eval_norm(s, x, y) == pytest.approx(b ** 0.25, rel=1e-13)


def test_nonzero_vector_has_positive_norm_against_basis():
    # for nonzero x some basis witness keeps the pair independent
    basis = np.eye(3)
    rng = np.random.default_rng(4)
    for space in [cross_2norm(), lp_cross(0.5), power_space(cross_2norm(), 0.5)]:
        for _ in range(100):
            x = rng.uniform(-10, 10, 3)
            if np.abs(x).max() < 1e-9:
                continue
            assert max(eval_norm(space, x, e) for e in basis) > 0.0


def test_estimate_kappa_cross_is_one():
    est = estimate_kappa(cross_2norm(), 20_000, seed=1)
    assert 1 - 1e-9 <= est <= 1 + 1e-9


def test_estimate_kappa_lp_bounds():
    est = estimate_kappa(lp_cross(0.5), 20_000, seed=1)
    assert 1.5 <= est <= 2 + 1e-9


@pytest.mark.parametrize("p", [0.4, 0.5, 0.8])
def test_estimate_kappa_below_theoretical_bound(p):
    est = estimate_kappa(lp_cross(p), 10_000, seed=23)
    assert est <= 2.0 ** (1.0 / p - 1.0) + 1e-9


def test_estimate_kappa_nondecreasing_in_trials():
    space = lp_cross(0.5)
    e1 = estimate_kappa(space, 4000, seed=17)
    e2 = estimate_kappa(space, 8000, seed=17)
    assert e2 >= e1


def test_trials_validation():
    with pytest.raises(ValueError):
        check_axioms(cross_2norm(), 0, seed=0)
    with pytest.raises(ValueError):
        estimate_kappa(cross_2norm(), 0, seed=0)


def _np_cross_norm_rows(space, X, Y):
    """Reference kernel on np.cross (the formulas eval_norm_rows replaced)."""
    if space.family == "CROSS_2NORM":
        c = np.cross(X, Y)
        return np.sqrt((c * c).sum(axis=-1))
    if space.family == "LP_CROSS":
        c = np.abs(np.cross(X, Y))
        return (c ** space.p).sum(axis=-1) ** (1.0 / space.p)
    if space.family == "POWERED":
        return _np_cross_norm_rows(space.base, X, Y) ** space.beta
    return space.factor * _np_cross_norm_rows(space.base, X, Y)


def test_eval_norm_rows_bit_identical_to_np_cross_reference():
    from qbanach.spaces import eval_norm_rows
    rng = np.random.default_rng(2)
    n = 200_000
    X = rng.uniform(-10.0, 10.0, (n, 3))
    Y = rng.uniform(-10.0, 10.0, (n, 3))
    X[::7, 1] = 0.0
    Y[::11, 2] = -0.0
    Y[::13] = 2.0 * X[::13]
    X[::17] *= 1e-8
    spaces = [cross_2norm(), lp_cross(0.5), lp_cross(0.4), lp_cross(1.0),
              power_space(lp_cross(0.4), 0.3), scaled_space(lp_cross(0.5), 3.0)]
    for s in spaces:
        got = eval_norm_rows(s, X, Y)
        assert np.array_equal(got.view(np.int64), _np_cross_norm_rows(s, X, Y).view(np.int64))
        # few rows and a broadcast second argument, as the envelope search calls it
        for m in (1, 2, 5):
            Yb = np.broadcast_to(Y[m], (m, 3))
            assert np.array_equal(eval_norm_rows(s, X[:m], Yb).view(np.int64),
                                  _np_cross_norm_rows(s, X[:m], Yb).view(np.int64))


def test_eval_norm_rows_rejects_non_3_vectors():
    from qbanach.spaces import eval_norm_rows
    with pytest.raises(ValueError):
        eval_norm_rows(cross_2norm(), np.ones((2, 4)), np.ones((2, 4)))
