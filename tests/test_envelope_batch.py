"""The batched envelope search against recorded outputs and one-row searches.

``envelope_golden.json`` holds ``envelope_norm`` results (values and
certificates as ``float.hex``, signed zeros included) recorded from the
one-row search that the batched search replaced.  They must stay exact.
"""

import json
import os

import numpy as np
import pytest

from qbanach.envelope import (check_p_triangle, envelope_norm, envelope_norm_rows,
                              theta)
from qbanach.spaces import cross_2norm, lp_cross, sample_pairs, space_from_dict

with open(os.path.join(os.path.dirname(os.path.abspath(__file__)),
                       "envelope_golden.json")) as _fh:
    GOLDEN = json.load(_fh)["cases"]


def _hex_result(res):
    return {"value": res.value.hex(), "p": res.p.hex(), "theta": res.theta.hex(),
            "c1_observed": res.c1_observed.hex(), "c2": float(res.c2).hex(),
            "certificate": [[v.hex() for v in prt] for prt in res.certificate]}


@pytest.mark.parametrize("case", GOLDEN, ids=lambda c: f"{c['label']}-b{c['budget']}")
def test_envelope_norm_matches_recorded_output(case):
    space = space_from_dict(case["space"])
    x = [float.fromhex(v) for v in case["x"]]
    z = [float.fromhex(v) for v in case["z"]]
    got = _hex_result(envelope_norm(space, x, z, case["budget"], case["seed"]))
    assert got == {k: case[k] for k in got}


@pytest.mark.parametrize("budget", [1, 4, 12, 16, 17, 30])
def test_rows_equal_one_row_searches(budget):
    rng = np.random.default_rng(budget)
    X = rng.uniform(-3.0, 3.0, (20, 3))
    Z = rng.uniform(-3.0, 3.0, (20, 3))
    X[3, 1] = 0.0
    X[4] = 0.0
    Z[5] = 0.0
    seeds = [11 * i + budget for i in range(20)]
    for space in (lp_cross(0.5, kappa=1.0), lp_cross(0.4, kappa=1.5)):
        rows = envelope_norm_rows(space, X, Z, budget, seeds)
        assert len(rows) == 20
        for i, res in enumerate(rows):
            one = envelope_norm(space, X[i], Z[i], budget, seeds[i])
            assert _hex_result(res) == _hex_result(one)


def test_rows_rejects_bad_input():
    s = cross_2norm()
    with pytest.raises(ValueError):
        envelope_norm_rows(s, np.ones((2, 3)), np.ones((2, 3)), 0, [0, 1])
    with pytest.raises(ValueError):
        envelope_norm_rows(s, np.ones((2, 3)), np.ones((3, 3)), 4, [0, 1])
    with pytest.raises(ValueError):
        envelope_norm_rows(s, np.ones((2, 3)), np.ones((2, 3)), 4, [0])
    with pytest.raises(ValueError):
        envelope_norm_rows(s, [[1.0, np.inf, 0.0]], [[1.0, 0.0, 0.0]], 4, [0])
    assert envelope_norm_rows(s, np.zeros((0, 3)), np.zeros((0, 3)), 4, []) == []


def _p_triangle_one_by_one(space, trials, seed, budget):
    """check_p_triangle as three envelope_norm calls per trial."""
    rng = np.random.default_rng(seed)
    X, Y, _ = sample_pairs(rng, trials)
    Z = rng.uniform(-10.0, 10.0, (trials, space.dim))
    Z[rng.uniform(0.0, 1.0, trials) < 0.01] = 0.0
    r = theta(space.beta, space.kappa) / space.beta
    violations, degenerate, worst, worst_excess = 0, 0, None, 0.0
    for i in range(trials):
        if not np.any(Z[i]):
            degenerate += 1
            continue
        exy = envelope_norm(space, X[i] + Y[i], Z[i], budget, seed + 7919 * i).value
        ex = envelope_norm(space, X[i], Z[i], budget, seed + 7919 * i + 1).value
        ey = envelope_norm(space, Y[i], Z[i], budget, seed + 7919 * i + 2).value
        lhs, rhs = exy ** r, ex ** r + ey ** r
        if lhs > rhs * (1.0 + 1e-6):
            violations += 1
            if lhs - rhs > worst_excess:
                worst_excess = lhs - rhs
                worst = {"x": X[i].tolist(), "y": Y[i].tolist(), "z": Z[i].tolist(),
                         "lhs": lhs, "rhs": rhs}
    return violations, degenerate, worst


@pytest.mark.parametrize("budget", [12, 17])
@pytest.mark.parametrize("space", [lp_cross(0.5, kappa=1.0), lp_cross(0.3, kappa=1.2)],
                         ids=["r=1", "r=0.79"])
def test_p_triangle_equals_per_trial_searches(space, budget):
    # under-declared moduli, so violations (and a worst witness) occur
    rep = check_p_triangle(space, 150, seed=8, budget=budget)
    violations, degenerate, worst = _p_triangle_one_by_one(space, 150, 8, budget)
    assert rep.violations > 0
    assert (rep.violations, rep.degenerate, rep.worst) == (violations, degenerate, worst)
