import dataclasses
import json
import tracemalloc

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from qbanach import spaces
from qbanach.cli import ConfigError, parse_config
from qbanach.spaces import (AxiomViolations, SpaceDescriptor, check_axioms, cross_2norm,
                            estimate_kappa, eval_norm, eval_norm_rows, lp_cross, power_space,
                            scaled_space, space_from_dict, theta)


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


def test_scaled_beta_is_its_base_beta():
    # C * base(x, y) is homogeneous of its base's degree: a beta of its own
    # (the schema's default 1.0 over a beta 0.5 base) fails B3 on most pairs
    base = power_space(cross_2norm(), 0.5)
    with pytest.raises(ValueError, match=r"SCALED beta = 1.0 must equal its base's beta = 0.5"):
        SpaceDescriptor("SCALED", beta=1.0, factor=3.0, base=base)
    doc = {"family": "SCALED", "factor": 3,
           "base": {"family": "POWERED", "beta": 0.5, "base": {"family": "CROSS_2NORM"}}}
    with pytest.raises(ConfigError, match=r"^payload\.space: SCALED beta = 1.0 must equal"):
        parse_config(json.dumps({"command": "CHECK_SPACE", "payload": {"space": doc}}))
    cfg = parse_config(json.dumps({"command": "CHECK_SPACE",
                                   "payload": {"space": {**doc, "beta": 0.5}}}))
    assert cfg.inputs["space"] == scaled_space(base, 3.0)
    assert check_axioms(cfg.inputs["space"], 2000, 0).total_violations == 0


def test_cross_norm_scales_rows_whose_squares_overflow():
    # a cross product component past ~1.3e154 squares to inf: those rows are
    # scaled by their largest component, and every other row keeps its bytes
    rng = np.random.default_rng(3)
    X, Y = rng.uniform(-1.0, 1.0, (2, 6, 3))
    huge = [1, 4]
    X[huge] *= 1e160
    got = eval_norm_rows(cross_2norm(), X, Y)
    small = np.ones(6, dtype=bool)
    small[huge] = False
    c0, c1, c2 = np.cross(X[small], Y[small]).T
    assert got[small].tolist() == np.sqrt(c0 * c0 + c1 * c1 + c2 * c2).tolist()
    scaled = 1e160 * np.linalg.norm(np.cross(X[huge] / 1e160, Y[huge]), axis=1)
    assert got[huge] == pytest.approx(scaled, rel=1e-15)
    assert eval_norm_rows(power_space(cross_2norm(), 0.5), X, Y)[huge] == pytest.approx(
        np.sqrt(scaled), rel=1e-15)
    # inf only when the length itself passes the float range
    big = np.array([[1.5e308, 1.5e308, 0.0]])
    assert eval_norm_rows(cross_2norm(), big, np.array([[0.0, 0.0, 1.0]])).tolist() == [np.inf]
    assert eval_norm_rows(cross_2norm(), big / 2, np.array([[0.0, 0.0, 1.0]])) == pytest.approx(
        1.5e308 / np.sqrt(2.0), rel=1e-15)


@pytest.mark.parametrize("space", [cross_2norm(), lp_cross(0.5)], ids=["CROSS_2NORM", "LP_CROSS"])
def test_a_cross_product_past_the_float_range_is_inf_without_a_warning(space):
    # 1e200 * 1e200 overflows inside the cross product; pytest's settings make
    # RuntimeWarning an error, so a warning fails this test
    assert eval_norm(space, [1e200, 0, 0], [0, 1e200, 0]) == np.inf


def test_every_space_is_on_R3_with_no_dim_field():
    # a dim other than 3 could only fail: SCALED dim 2 over the R^3 cross norm
    # was once accepted, and check_axioms then sampled 3-vectors
    with pytest.raises(TypeError, match="dim"):
        SpaceDescriptor("SCALED", dim=2, factor=2.0, base=cross_2norm())
    spaces = [cross_2norm(), lp_cross(0.5), power_space(cross_2norm(), 0.5),
              scaled_space(lp_cross(0.5), 2.0)]
    assert [s.dim for s in spaces] == [3] * 4
    assert "dim" not in {f.name for f in dataclasses.fields(SpaceDescriptor)}
    cross = {"family": "CROSS_2NORM", "beta": 1.0, "kappa": 1.0}
    s = space_from_dict({"family": "SCALED", "beta": 1.0, "kappa": 1.0, "factor": 2.0,
                         "base": cross})
    assert s == scaled_space(cross_2norm(), 2.0)


def test_space_json_round_trip():
    # a config's space section, as the report document records it, builds
    # the same space again
    for d, space in [({"family": "LP_CROSS", "p": 0.5, "kappa": 2.0}, lp_cross(0.5)),
                     ({"family": "POWERED", "beta": 0.25, "base": {"family": "CROSS_2NORM"}},
                      power_space(cross_2norm(), 0.25))]:
        cfg = parse_config(json.dumps({"command": "CHECK_SPACE", "payload": {"space": d}}))
        recorded = json.loads(json.dumps(cfg.payload["space"]))
        assert cfg.inputs["space"] == space_from_dict(recorded) == space


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
        assert rep.total_violations == 0, (space.family, rep)
        assert rep.kappa_observed <= space.kappa * (1 + 1e-9)


def test_check_axioms_underdeclared_kappa():
    # true modulus of LP_CROSS(1/2) is 2; declaring 1 must surface B4 witnesses
    rep = check_axioms(lp_cross(0.5, kappa=1.0), 5000, seed=3)
    assert rep.violations["B4"].count > 0
    assert rep.violations["B4"].worst["ratio"] > 1.0


def test_check_axioms_deterministic():
    assert check_axioms(lp_cross(0.5), 1500, seed=9) == check_axioms(lp_cross(0.5), 1500, seed=9)


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


# ---------------------------------------------------------------------------
# block-wise triple stages against the whole-array oracle
# ---------------------------------------------------------------------------

B = spaces._TRIPLE_BLOCK

# the four families, three of them under-declared so that B4 has witnesses
ORACLE_SPACES = [
    cross_2norm(),
    power_space(lp_cross(0.4, kappa=1.0), 0.5),
    lp_cross(0.5, kappa=1.0),
    scaled_space(lp_cross(0.4, kappa=1.5), 3.0),
]


def _oracle_sample_triples(rng, n, box=10.0):
    """The triple sampler as it was written before it drew in row blocks."""
    U = rng.uniform(0.0, 1.0, (n, 32))
    X = box * (2.0 * U[:, 0:3] - 1.0)
    Y = box * (2.0 * U[:, 3:6] - 1.0)
    Z = box * (2.0 * U[:, 6:9] - 1.0)
    mix = U[:, 9]
    near_dep = (mix >= 0.70) & (mix < 0.80)
    t = 4.0 * U[:, 10] - 2.0
    noise = 2.0 * U[:, 11:14] - 1.0
    Y[near_dep] = t[near_dep, None] * X[near_dep] + 1e-8 * noise[near_dep]
    near_par = (mix >= 0.80) & (mix < 0.90)
    s = 0.1 + 1.9 * U[:, 14]
    noise2 = 2.0 * U[:, 15:18] - 1.0
    Z[near_par] = s[near_par, None] * Y[near_par] + 1e-4 * noise2[near_par]
    frame = mix >= 0.90
    k = int(frame.sum())
    if k:
        perm = np.argsort(U[frame, 18:21], axis=1)
        amp = (0.5 + 9.5 * U[frame, 21:24]) * np.sign(U[frame, 24:27] - 0.5)
        fx = np.zeros((k, 3))
        fy = np.zeros((k, 3))
        fz = np.zeros((k, 3))
        rows = np.arange(k)
        fx[rows, perm[:, 0]] = amp[:, 0]
        fy[rows, perm[:, 1]] = amp[:, 1]
        fz[rows, perm[:, 2]] = amp[:, 2]
        wob = 2.0 * U[frame, 27:30].reshape(k, 3) - 1.0
        X[frame] = fx + 0.02 * np.abs(amp[:, 0:1]) * wob
        wob2 = 2.0 * np.stack([U[frame, 30], U[frame, 31], U[frame, 10]], axis=1) - 1.0
        Y[frame] = fy + 0.02 * np.abs(amp[:, 1:2]) * wob2
        wob3 = 2.0 * np.stack([U[frame, 11], U[frame, 12], U[frame, 13]], axis=1) - 1.0
        Z[frame] = fz + 0.02 * np.abs(amp[:, 2:3]) * wob3
    return X, Y, Z


def _oracle_sample_pairs(rng, n, box=10.0):
    U = rng.uniform(0.0, 1.0, (n, 12))
    X = box * (2.0 * U[:, 0:3] - 1.0)
    Y = box * (2.0 * U[:, 3:6] - 1.0)
    near = U[:, 6] >= 0.90
    t = 4.0 * U[:, 7] - 2.0
    noise = 2.0 * U[:, 8:11] - 1.0
    Y[near] = t[near, None] * X[near] + 1e-8 * noise[near]
    return X, Y, near


def _record_worst(slot: AxiomViolations, mask: np.ndarray, severity: np.ndarray, make_witness):
    idx = np.nonzero(mask)[0]
    slot.count += int(idx.size)
    if idx.size:
        w = idx[np.argmax(severity[idx])]
        slot.worst = make_witness(int(w))


def _oracle_check_axioms(space, trials, seed):
    """``check_axioms`` on whole arrays, as it was before the triple stage
    went block by block."""
    rng = np.random.default_rng(seed)
    report = spaces.AxiomReport()

    Xd, Yd, t = spaces._dependent_pairs(rng, trials)
    vals = eval_norm_rows(space, Xd, Yd)
    scale = (np.linalg.norm(Xd, axis=1) * np.linalg.norm(Yd, axis=1)) ** space.beta
    bad = vals > spaces.REL_TOL * (1.0 + scale)
    _record_worst(report.violations["B1"], bad, vals, lambda i: {
        "x": Xd[i].tolist(), "y": Yd[i].tolist(), "lambda": float(t[i]), "value": float(vals[i]),
    })

    X, Y, near = _oracle_sample_pairs(rng, trials)
    lam = rng.uniform(-10.0, 10.0, trials)
    lam[np.abs(lam) < 1e-3] = 1.0
    v_xy = eval_norm_rows(space, X, Y)
    v_yx = eval_norm_rows(space, Y, X)
    d_sym = np.abs(v_xy - v_yx)
    _record_worst(report.violations["B2"], d_sym > spaces.EXACT_TOL, d_sym, lambda i: {
        "x": X[i].tolist(), "y": Y[i].tolist(), "diff": float(d_sym[i]),
    })
    v_lam = eval_norm_rows(space, lam[:, None] * X, Y)
    expected = np.abs(lam) ** space.beta * v_xy
    d_hom = np.abs(v_lam - expected)
    bad3 = ~near & (d_hom > spaces.REL_TOL * (1.0 + v_xy))
    with np.errstate(divide="ignore", invalid="ignore"):
        ratio3 = np.where(v_xy > 0, v_lam / v_xy, 0.0)
    _record_worst(report.violations["B3"], bad3, d_hom, lambda i: {
        "x": X[i].tolist(), "y": Y[i].tolist(), "lambda": float(lam[i]),
        "measured_ratio": float(ratio3[i]), "expected_ratio": float(np.abs(lam[i]) ** space.beta),
        "error": float(d_hom[i]),
    })

    Xt, Yt, Zt = _oracle_sample_triples(rng, trials)
    ratio, valid = spaces._triangle_ratios(space, Xt, Yt, Zt)
    report.degenerate += int((~valid).sum())
    bad4 = valid & (ratio > space.kappa * (1.0 + spaces.REL_TOL))
    _record_worst(report.violations["B4"], bad4, ratio, lambda i: {
        "x": Xt[i].tolist(), "y": Yt[i].tolist(), "z": Zt[i].tolist(), "ratio": float(ratio[i]),
    })
    report.kappa_observed = float(ratio.max()) if valid.any() else 0.0
    return report


def _oracle_estimate_kappa(space, trials, seed):
    rng = np.random.default_rng(seed)
    ratio, valid = spaces._triangle_ratios(space, *_oracle_sample_triples(rng, trials))
    return float(ratio[valid].max()) if valid.any() else 0.0


def _assert_matches_oracle(space, trials, seed):
    got = check_axioms(space, trials, seed)
    assert got == _oracle_check_axioms(space, trials, seed)
    kappa = estimate_kappa(space, trials, seed)
    # repr tells -0.0 from 0.0; == on the reports above compares floats exactly
    assert repr(kappa) == repr(_oracle_estimate_kappa(space, trials, seed))
    return got


@pytest.mark.parametrize("trials", [1, B - 1, B, B + 1, 2 * B + 3])
@pytest.mark.parametrize("space", ORACLE_SPACES, ids=lambda s: s.family)
def test_block_stages_match_whole_array_oracle_at_block_edges(space, trials):
    got = _assert_matches_oracle(space, trials, seed=trials)
    if space.family != "CROSS_2NORM" and trials > B:
        # an under-declared space: the fold over blocks carried a witness
        assert got.violations["B4"].worst is not None


@settings(derandomize=True, max_examples=40, deadline=None, database=None)
@given(space=st.sampled_from(ORACLE_SPACES), trials=st.integers(1, 3 * B),
       seed=st.integers(0, 2 ** 32 - 1))
def test_block_stages_match_whole_array_oracle(space, trials, seed):
    _assert_matches_oracle(space, trials, seed)


def test_b4_worst_keeps_the_earliest_row_of_a_cross_block_tie(monkeypatch):
    # on LP_CROSS(1/2) declared kappa 1, (e1, e2, e3) has ratio 4/2 = 2, and
    # swapping y and z gives the same ratio bit for bit: a tie across blocks
    e1, e2, e3 = ([[1.0, 0.0, 0.0]], [[0.0, 1.0, 0.0]], [[0.0, 0.0, 1.0]])
    blocks = iter([(e1, e2, e3), (e1, e3, e2)])
    monkeypatch.setattr(spaces, "_TRIPLE_BLOCK", 1)
    monkeypatch.setattr(spaces, "sample_triples",
                        lambda rng, n: tuple(np.array(v) for v in next(blocks)))
    rep = check_axioms(lp_cross(0.5, kappa=1.0), 2, seed=0)
    assert rep.violations["B4"].count == 2
    assert rep.violations["B4"].worst == {"x": e1[0], "y": e2[0], "z": e3[0], "ratio": 2.0}
    assert rep.kappa_observed == 2.0


@pytest.mark.parametrize("sampler", [spaces.sample_triples, spaces.sample_pairs,
                                     spaces._dependent_pairs], ids=lambda f: f.__name__)
@pytest.mark.parametrize("a,b", [(0, 4), (1, 1), (7, 300), (1000, 33)])
def test_sampler_calls_concatenate_to_one_call(sampler, a, b):
    rng = np.random.default_rng(19)
    first, second = sampler(rng, a), sampler(rng, b)
    whole = sampler(np.random.default_rng(19), a + b)
    for u, v, w in zip(first, second, whole):
        assert np.array_equal(np.concatenate([u, v]).view(np.uint8), w.view(np.uint8))


@pytest.mark.parametrize("sampler,oracle", [(spaces.sample_triples, _oracle_sample_triples),
                                            (spaces.sample_pairs, _oracle_sample_pairs)],
                         ids=["sample_triples", "sample_pairs"])
@pytest.mark.parametrize("n", [0, 1, 9, 5000])
def test_sampler_matches_its_whole_array_oracle_bit_for_bit(sampler, oracle, n):
    for got, want in zip(sampler(np.random.default_rng(n), n), oracle(np.random.default_rng(n), n)):
        assert np.array_equal(got.view(np.uint8), want.view(np.uint8))


def _perturb_kernel(monkeypatch):
    """Patch into ``spaces`` and the oracle a kernel that adds 1 wherever x's
    first entry exceeds 5 (at each level of a POWERED or SCALED space): it is
    neither symmetric nor homogeneous, and one constant on those dependent
    pairs, so all of a space's B1 witnesses tie."""
    exact = spaces.eval_norm_rows

    def perturbed(space, X, Y):
        return exact(space, X, Y) + (np.asarray(X)[:, 0] > 5.0)

    monkeypatch.setattr(spaces, "eval_norm_rows", perturbed)
    monkeypatch.setitem(globals(), "eval_norm_rows", perturbed)


@pytest.mark.parametrize("trials", [1, B - 1, B, B + 1, 2 * B + 3])
@pytest.mark.parametrize("space", ORACLE_SPACES, ids=lambda s: s.family)
def test_b1_to_b3_folds_match_whole_array_oracle_on_a_broken_kernel(space, trials, monkeypatch):
    # on the real spaces B1-B3 count 0, so only a broken kernel reaches their folds
    _perturb_kernel(monkeypatch)
    got = _assert_matches_oracle(space, trials, seed=trials).violations
    if trials > 1:
        assert all(got[b].count > 0 for b in ("B1", "B2", "B3"))
    if trials > 2 * B:
        # the tie spans blocks: later blocks hold value-1 rows the fold must not take
        Xd = spaces._dependent_pairs(np.random.default_rng(trials), trials)[0]
        assert (Xd[:B, 0] > 5.0).any() and (Xd[B:, 0] > 5.0).any()


def _check_axioms_peak(trials):
    tracemalloc.start()
    try:
        check_axioms(lp_cross(0.5), trials, seed=0)
        return tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()


def test_check_axioms_memory_does_not_grow_with_trials():
    # every stage holds one row block: 20x the trials, about the same peak
    assert _check_axioms_peak(400_000) <= 1.25 * _check_axioms_peak(20_000)


def test_row_lengths_equal_linalg_norm_bit_for_bit():
    X, Y, Z = spaces.sample_triples(np.random.default_rng(6), 5000)
    subnormal = np.array([[5e-324, 0.0, -1e-310], [1e-320, -2e-315, 3e-309], [0.0, -0.0, 5e-324]])
    for A in (X, Y, Z, np.zeros((3, 3)), 1e-8 * X, 1e-310 * Y, subnormal):
        assert np.array_equal(spaces._row_lengths(A).view(np.int64),
                              np.linalg.norm(A, axis=1).view(np.int64))


@pytest.mark.parametrize("space", [SpaceDescriptor("LP_CROSS", p=5e-324),
                                   scaled_space(cross_2norm(), 1e308)],
                         ids=["LP_CROSS", "SCALED"])
def test_a_non_finite_norm_ends_the_run_naming_its_stage(space):
    # 1/p is inf, or the factor overflows: every comparison with an inf or a
    # NaN norm is false, so these ran clean with kappa 0.0
    pair = r"the norm of x = \[.+\], y = \[.+\] is inf, not finite"
    with pytest.raises(ValueError, match=f"^B2: {pair}$"):
        check_axioms(space, 50, seed=0)
    with pytest.raises(ValueError, match=f"^B4: {pair}$"):
        estimate_kappa(space, 50, seed=0)


def test_a_space_whose_theta_underflows_is_refused():
    # 2 kappa overflows to inf, so theta = beta * log 2 / log(2 kappa) is 0
    with pytest.raises(ValueError, match="theta = beta \\* log_\\(2 kappa\\) 2 underflows"):
        SpaceDescriptor("CROSS_2NORM", kappa=1.3e308)
    with pytest.raises(ValueError, match="underflows to 0 at beta = 5e-324, kappa = 1e\\+300"):
        theta(5e-324, 1e300)
    assert theta(1.0, 8e307) > 0.0
