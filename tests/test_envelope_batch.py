"""The batched envelope search against recorded outputs and one-row searches.

``envelope_golden.json`` holds ``envelope_norm`` results (values and
certificates as ``float.hex``, signed zeros included) recorded from the
one-row search that the batched search replaced.  They must stay exact.  The
cases recorded past the 16-candidate opening hold only their input: that
budget is now refused.  A case's ``seed`` seeded the removed random search
and is not read.
"""

import json
import os
import tracemalloc

import numpy as np
import pytest

from qbanach import cli, envelope
from qbanach.envelope import (MAX_BUDGET, check_p_triangle, envelope_norm, envelope_norm_rows,
                              theta)
from qbanach.spaces import cross_2norm, lp_cross, sample_pairs, space_from_dict

with open(os.path.join(os.path.dirname(os.path.abspath(__file__)),
                       "envelope_golden.json")) as _fh:
    GOLDEN = json.load(_fh)["cases"]


def _hex_result(res):
    return {"value": res.value.hex(), "p": res.p.hex(), "c1_observed": res.c1_observed.hex(),
            "certificate": [[v.hex() for v in prt] for prt in res.certificate]}


@pytest.mark.parametrize("case", GOLDEN, ids=lambda c: f"{c['label']}-b{c['budget']}")
def test_envelope_norm_matches_recorded_output(case):
    space = space_from_dict(case["space"])
    x = [float.fromhex(v) for v in case["x"]]
    z = [float.fromhex(v) for v in case["z"]]
    if case["budget"] > MAX_BUDGET:
        with pytest.raises(ValueError, match=r"^budget must lie in 1\.\.16$"):
            envelope_norm(space, x, z, case["budget"])
        return
    got = _hex_result(envelope_norm(space, x, z, case["budget"]))
    assert got == {k: case[k] for k in got}


@pytest.mark.parametrize("budget", [1, 4, 12, 16])
def test_rows_equal_one_row_searches(budget):
    rng = np.random.default_rng(budget)
    X = rng.uniform(-3.0, 3.0, (20, 3))
    Z = rng.uniform(-3.0, 3.0, (20, 3))
    X[3, 1] = 0.0
    X[4] = 0.0
    Z[5] = 0.0
    for space in (lp_cross(0.5, kappa=1.0), lp_cross(0.4, kappa=1.5)):
        rows = envelope_norm_rows(space, X, Z, budget)
        assert len(rows) == 20
        for i, res in enumerate(rows):
            one = envelope_norm(space, X[i], Z[i], budget)
            assert _hex_result(res) == _hex_result(one)


def test_rows_rejects_bad_input():
    s = cross_2norm()
    with pytest.raises(ValueError):
        envelope_norm_rows(s, np.ones((2, 3)), np.ones((2, 3)), 0)
    with pytest.raises(ValueError):
        envelope_norm_rows(s, np.ones((2, 3)), np.ones((3, 3)), 4)
    with pytest.raises(ValueError):
        envelope_norm_rows(s, [[1.0, np.inf, 0.0]], [[1.0, 0.0, 0.0]], 4)
    assert envelope_norm_rows(s, np.zeros((0, 3)), np.zeros((0, 3)), 4) == []


def test_rows_refuse_a_budget_past_the_opening():
    # the single term and 5 splits along each axis are all the candidates
    s = lp_cross(0.5, kappa=1.0)
    assert MAX_BUDGET == 16
    assert len(envelope_norm_rows(s, np.ones((2, 3)), np.eye(3)[:2], MAX_BUDGET)) == 2
    with pytest.raises(ValueError, match=r"^budget must lie in 1\.\.16$"):
        envelope_norm_rows(s, np.ones((2, 3)), np.eye(3)[:2], MAX_BUDGET + 1)


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
        exy = envelope_norm(space, X[i] + Y[i], Z[i], budget).value
        ex = envelope_norm(space, X[i], Z[i], budget).value
        ey = envelope_norm(space, Y[i], Z[i], budget).value
        lhs, rhs = exy ** r, ex ** r + ey ** r
        if lhs > rhs * (1.0 + 1e-6):
            violations += 1
            if lhs - rhs > worst_excess:
                worst_excess = lhs - rhs
                worst = {"x": X[i].tolist(), "y": Y[i].tolist(), "z": Z[i].tolist(),
                         "lhs": lhs, "rhs": rhs}
    return violations, degenerate, worst


@pytest.mark.parametrize("budget", [12])
@pytest.mark.parametrize("space", [lp_cross(0.5, kappa=1.0), lp_cross(0.3, kappa=1.2)],
                         ids=["r=1", "r=0.79"])
def test_p_triangle_equals_per_trial_searches(space, budget):
    # under-declared moduli, so violations (and a worst witness) occur
    rep = check_p_triangle(space, 150, seed=8, budget=budget)
    violations, degenerate, worst = _p_triangle_one_by_one(space, 150, 8, budget)
    assert rep.violations > 0
    assert (rep.violations, rep.degenerate, rep.worst) == (violations, degenerate, worst)


def _envelope_body(tmp_path, **payload):
    config = cli.parse_config(json.dumps({"command": "ENVELOPE", "seed": 4, "payload": {
        "space": {"family": "LP_CROSS", "p": 0.5}, **payload}}))
    assert cli.run(config, out_dir=str(tmp_path)) != 1
    return json.loads((tmp_path / "envelope_report.json").read_text())["report"]


@pytest.mark.parametrize("block", [7, 64])
def test_blocks_are_rows_of_one_draw(block, tmp_path, monkeypatch):
    # the trials and the certificate samples are drawn and searched block by
    # block; any block size gives the report of one whole draw
    space = lp_cross(0.5, kappa=1.0)
    rep = check_p_triangle(space, 150, seed=8, budget=12)
    body = _envelope_body(tmp_path, trials=150, certificate_samples=150, budget=12)
    for module in (envelope, cli):
        monkeypatch.setattr(module, "SEARCH_BLOCK", block)
    assert check_p_triangle(space, 150, seed=8, budget=12) == rep
    assert _envelope_body(tmp_path, trials=150, certificate_samples=150, budget=12) == body


def _peak(fn, *args, **kwargs):
    tracemalloc.start()
    try:
        fn(*args, **kwargs)
        return tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()


def test_p_triangle_memory_does_not_grow_with_trials():
    # one block of trials at a time: 10x the trials, about the same peak
    space = lp_cross(0.5, kappa=1.0)
    small, large = (_peak(check_p_triangle, space, n, seed=0, budget=1) for n in (2_000, 20_000))
    assert large <= 1.25 * small


def test_certificate_memory_does_not_grow_with_samples(tmp_path):
    # one block of samples at a time: 10x the samples, about the same peak
    small, large = (_peak(_envelope_body, tmp_path, trials=1, certificate_samples=n, budget=1)
                    for n in (2_000, 20_000))
    assert large <= 1.25 * small
