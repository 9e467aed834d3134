import dataclasses
import json
import math

import numpy as np
import pytest

from qbanach.envelope import check_p_triangle, envelope_norm, theta
from qbanach.spaces import cross_2norm, eval_norm, lp_cross, power_space


def test_theta_values():
    assert theta(1.0, 1.0) == pytest.approx(1.0, abs=1e-15)
    assert theta(1.0, 2.0) == pytest.approx(0.5, abs=1e-15)
    assert theta(0.5, 1.0) == pytest.approx(0.5, abs=1e-15)


def test_theta_range_and_errors():
    assert 0 < theta(0.3, 5.0) <= 0.3
    with pytest.raises(ValueError):
        theta(0.0, 1.0)
    with pytest.raises(ValueError):
        theta(1.2, 1.0)
    with pytest.raises(ValueError):
        theta(1.0, 0.5)


def test_envelope_equals_base_for_kappa_one():
    s = cross_2norm()
    rng = np.random.default_rng(0)
    for _ in range(50):
        x = rng.uniform(-3, 3, 3)
        z = rng.uniform(-3, 3, 3)
        res = envelope_norm(s, x, z, budget=24, seed=1)
        base = eval_norm(s, x, z)
        assert res.value == pytest.approx(base, rel=1e-9, abs=1e-12)


def test_envelope_never_exceeds_base():
    rng = np.random.default_rng(5)
    for space in [lp_cross(0.5), power_space(cross_2norm(), 0.5), lp_cross(0.5, kappa=1.0)]:
        for _ in range(40):
            x = rng.uniform(-3, 3, 3)
            z = rng.uniform(-3, 3, 3)
            res = envelope_norm(space, x, z, budget=32, seed=2)
            base = eval_norm(space, x, z)
            assert res.value <= base + 1e-12 * (1 + base)


def _certificate_checks(space, x, z, res):
    parts = np.asarray(res.certificate)
    assert parts.shape[0] <= 8
    gap = np.abs(parts.sum(axis=0) - x).max()
    assert gap <= 1e-9 * (1 + np.abs(x).max())
    r = res.p / space.beta
    vals = [eval_norm(space, prt, z) for prt in parts]
    recomputed = (sum(v ** r for v in vals)) ** (1 / r)
    assert res.value == pytest.approx(recomputed, rel=1e-12)


def test_certificate_invariants():
    rng = np.random.default_rng(7)
    for space in [cross_2norm(), lp_cross(0.5), lp_cross(0.5, kappa=1.0)]:
        for _ in range(30):
            x = rng.uniform(-2, 2, 3)
            z = rng.uniform(-2, 2, 3)
            res = envelope_norm(space, x, z, budget=48, seed=3)
            _certificate_checks(space, x, z, res)
            assert res.c2 == 1.0
            assert 0.0 < res.c1_observed <= 1.0 + 1e-12


def test_budget_monotonicity():
    space = lp_cross(0.5, kappa=1.0)
    x = np.array([1.0, 2.0, 3.0])
    z = np.array([0.0, 1.0, 0.0])
    values = [envelope_norm(space, x, z, budget=b, seed=5).value
              for b in (1, 2, 4, 8, 16, 32, 64, 128)]
    for lo, hi in zip(values[1:], values[:-1]):
        assert lo <= hi + 1e-12


def test_certificate_scaling_equivariance():
    space = lp_cross(0.5, kappa=1.0)
    x = np.array([1.0, -2.0, 0.5])
    z = np.array([1.0, 1.0, -1.0])
    v = envelope_norm(space, x, z, budget=64, seed=9).value
    for lam in (2.0, -3.0, 0.5, -0.25):
        vl = envelope_norm(space, lam * x, z, budget=64, seed=9).value
        assert vl <= abs(lam) ** space.beta * v + 1e-12


def test_search_beats_two_part_grid():
    """Exhaustive 2-part certificates on a 50x50 direction/ratio grid must not
    improve on the returned value (fixed x, z, seed)."""
    x = np.array([1.0, 2.0, 3.0])
    z = np.array([0.0, 1.0, 0.0])

    def brute(space):
        p = theta(space.beta, space.kappa)
        r = p / space.beta
        best = eval_norm(space, x, z)
        n = 50
        idx = np.arange(n)
        golden = (1 + 5 ** 0.5) / 2
        th = np.arccos(1 - 2 * (idx + 0.5) / n)
        ph = 2 * np.pi * idx / golden
        dirs = np.stack([np.sin(th) * np.cos(ph), np.sin(th) * np.sin(ph), np.cos(th)], axis=1)
        nx = np.linalg.norm(x)
        for d in dirs:
            for t in np.linspace(0.02, 1.5, n):
                x1 = t * nx * d
                v = (eval_norm(space, x1, z) ** r + eval_norm(space, x - x1, z) ** r) ** (1 / r)
                best = min(best, v)
        return best

    # correctly declared: the 1/2-triangle already holds, both sides sit at the base
    space = lp_cross(0.5)
    got = envelope_norm(space, x, z, budget=400, seed=3).value
    assert got <= brute(space) * (1 + 1e-9)
    assert got == pytest.approx(eval_norm(space, x, z), rel=1e-12)

    # under-declared modulus: splitting genuinely helps and the search must
    # still match or beat the grid
    space = lp_cross(0.5, kappa=1.0)
    got = envelope_norm(space, x, z, budget=400, seed=3).value
    assert got <= brute(space) * (1 + 1e-9)
    assert got < eval_norm(space, x, z)


def test_p_triangle_no_violations_for_kappa_one():
    for space in [cross_2norm(), power_space(cross_2norm(), 0.5)]:
        rep = check_p_triangle(space, 800, seed=13, budget=6)
        assert rep.violations == 0


def test_p_triangle_degenerate_tally():
    rep = check_p_triangle(cross_2norm(), 800, seed=13, budget=4)
    assert rep.degenerate > 0
    assert rep.degenerate + rep.violations <= rep.trials


def test_envelope_result_serializable():
    res = envelope_norm(lp_cross(0.5), [1, 2, 3], [0, 1, 0], budget=8, seed=0)
    d = json.loads(json.dumps(dataclasses.asdict(res)))
    assert isinstance(d["certificate"], list)
    assert d["c2"] == 1.0
    assert math.isfinite(d["value"])
