"""Row forms of the per-pair work against their one-point oracles, bit for bit.

The residual check of Q_m, the bound loop and the consistency scan of
``hyperstab`` and the residual loop of ``solve`` run on row arrays, and the
residual-pair sampler draws its pairs in blocks of raw PCG64 words.  Powers
stay scalar pows per element, so every row form must equal the point-by-point
evaluation exactly; ``float.hex`` is compared, so signed zeros count and every
NaN equals every NaN.
"""

import importlib
import itertools
import math
import os

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from qbanach import cli, spaces
from qbanach.hyperstab import (ErrorComponent, ErrorModel, HyperstabConstants, theorem_bound,
                               theorem_bound_rows)
from qbanach.radical import (DRAWS_PER_PAIR, EquationParams, Term, VectorFunction,
                             admissibility, real_root, residual, residual_rows,
                             sample_admissible_pairs)
from qbanach.spaces import cross_2norm, eval_norm, lp_cross, power_space, scaled_space

_ROOT = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))
E1 = np.array([1.0, 0.0, 0.0])
WITNESSES = [np.array([0.0, 1.0, 0.0]), np.array([0.0, 0.0, 1.0]), np.array([1.0, 1.0, 1.0])]


def hexes(values):
    return [float(v).hex() for v in np.asarray(values, dtype=float).ravel()]


FUNCTIONS = {
    "abs_signed_constant": VectorFunction(
        terms=[Term(coef=1.25, exponent=6.0, mode="ABS", direction=[0.0, 0.6, 0.8]),
               Term(coef=0.1, exponent=-3.0, mode="SIGNED", direction=E1),
               Term(coef=-0.7, exponent=1.0 / 3.0, mode="SIGNED", direction=[1.0, -2.0, 0.5])],
        constant=[0.25, -0.5, 0.125]),
    "abs_only": VectorFunction(terms=[Term(coef=3.0, exponent=-2.5, mode="ABS",
                                           direction=[0.3, 0.0, -1.1])]),
    "no_terms": VectorFunction(terms=[], constant=[1.5, 0.0, -2.0]),
}


@pytest.mark.parametrize("name", list(FUNCTIONS))
def test_vector_function_rows_equal_point_calls(name):
    f = FUNCTIONS[name]
    rng = np.random.default_rng(5)
    xs = (rng.uniform(0.05, 4.0, 257) * rng.choice([-1.0, 1.0], 257)).tolist() + [-1.0, 1e-3]
    for n in (0, 1, 2, 7, len(xs)):
        got = f.rows(xs[:n])
        assert got.shape == (n, f.dim)
        assert hexes(got) == hexes([f(x) for x in xs[:n]])


def test_vector_function_rows_keep_the_undefined_at_zero_check():
    f = FUNCTIONS["abs_only"]
    with pytest.raises(ValueError, match="undefined at 0"):
        f.rows([1.0, 0.0])
    assert hexes(FUNCTIONS["no_terms"].rows([0.0])) == hexes(FUNCTIONS["no_terms"](0.0))


@pytest.mark.parametrize("eq", [EquationParams(1.0, 1.0, 2.0, 2.0),
                                EquationParams(0.6, 0.8, 0.72, 1.28),
                                EquationParams(2.0, -0.5, 8.0, 0.5, root_n=5)],
                         ids=["a=b", "w-allowed", "quintic"])
def test_residual_rows_equal_the_scalar_formula(eq):
    f = FUNCTIONS["abs_signed_constant"]
    draws = sample_admissible_pairs(eq, 0.5, 2.0, 300, np.random.default_rng(13))
    pairs = [(x, y) for x, y, ok in draws if ok]
    xs, ys = [x for x, _ in pairs], [y for _, y in pairs]
    res, scale = residual_rows(eq, f, xs, ys, scale=True)
    n = eq.root_n
    oracle_res, oracle_scale = [], []
    for x, y in pairs:
        t1 = real_root(eq.a * x ** n + eq.b * y ** n, n)
        t2 = real_root(eq.a * x ** n - eq.b * y ** n, n)
        q1, q2, qx, qy = f(t1), f(t2), f(x), f(y)
        oracle_res.append(q1 + q2 - eq.c * qx - eq.d * qy)
        oracle_scale.append(np.abs(q1).max() + np.abs(q2).max()
                            + abs(eq.c) * np.abs(qx).max() + abs(eq.d) * np.abs(qy).max())
    assert hexes(res) == hexes(oracle_res)
    assert hexes(scale) == hexes(oracle_scale)
    assert hexes(residual_rows(eq, f, xs, ys)) == hexes(res)
    assert hexes([residual(eq, f, x, y) for x, y in pairs]) == hexes(res)
    empty = residual_rows(eq, f, [], [], scale=True)
    assert empty[0].shape == (0, 3) and empty[1].shape == (0,)


AUX_SPACES = {
    "cross": cross_2norm(),
    "lp0.5": lp_cross(0.5),
    "powered0.5": power_space(cross_2norm(), 0.5),
    "scaled3": scaled_space(cross_2norm(), 3.0),
}


def _model(aux, g_matrix):
    y = [1.0, 1.0, 0.0]
    comps = [ErrorComponent(1.0, -1.0, y), ErrorComponent(0.5, 0.5, [0.0, 1.0, 2.0]),
             ErrorComponent(2.0e4, -2.0, y), ErrorComponent(3.0, 1.5, [1.0, -1.0, 1.0])]
    return ErrorModel(components=comps, aux_space=aux, g_matrix=g_matrix)


def _h_oracle(model, i, t, z):
    comp = model.components[i - 1]
    gz = np.asarray(z, dtype=float) if model.g_matrix is None else model.g_matrix @ z
    nrm = eval_norm(model.aux_space, t * comp.y, gz)
    if nrm == 0.0:
        return 0.0 if comp.p > 0 else math.inf
    return comp.c * nrm ** comp.p


@pytest.mark.parametrize("g_matrix", [None, [[1.0, 0.5, 0.0], [0.0, 1.0, 0.0], [0.0, 0.0, 2.0]]],
                         ids=["identity", "g_map"])
@pytest.mark.parametrize("aux", list(AUX_SPACES))
def test_error_model_rows_equal_per_pair_oracles(aux, g_matrix):
    model = _model(AUX_SPACES[aux], g_matrix)
    rng = np.random.default_rng(17)
    # t = 0 gives a zero norm: h = 0 at p > 0, +inf at p < 0, and inf * 0 = nan
    txs = [0.0] + (rng.uniform(0.1, 8.0, 40) * rng.choice([-1.0, 1.0], 40)).tolist()
    tys = [0.0] + rng.uniform(-8.0, 8.0, 40).tolist()
    for i in range(1, 5):
        got = model.h_rows(i, txs, WITNESSES)
        assert hexes(got) == hexes([[_h_oracle(model, i, t, z) for z in WITNESSES] for t in txs])
        assert hexes(got) == hexes([[model.h(i, t, z) for z in WITNESSES] for t in txs])
    gam = model.gamma_rows(txs, tys, WITNESSES)
    oracle = [[_h_oracle(model, 1, tx, z) * _h_oracle(model, 2, ty, z)
               + _h_oracle(model, 3, tx, z) + _h_oracle(model, 4, ty, z) for z in WITNESSES]
              for tx, ty in zip(txs, tys)]
    assert hexes(gam) == hexes(oracle)
    assert math.isnan(gam[0, 0])
    assert hexes(gam) == hexes([[model.gamma(tx, ty, z) for z in WITNESSES]
                                for tx, ty in zip(txs, tys)])
    assert hexes([[model.gamma(t, t, z) for z in WITNESSES] for t in txs]) == hexes(
        model.gamma_rows(txs, txs, WITNESSES))


@pytest.mark.parametrize("aux", list(AUX_SPACES))
def test_theorem_bound_rows_equal_the_scalar_bound(aux):
    model = _model(AUX_SPACES[aux], [[1.0, 0.5, 0.0], [0.0, 1.0, 0.0], [0.0, 0.0, 2.0]])
    cst = HyperstabConstants(m=2, u=1.0, v=1.0, w=1.0, A=0.3, B=0.2, C=0.1, P=0.3,
                             sigma=0.7, in_M0=True)
    xs = [0.5, -0.75, 1.0, 1.25, 2.0]
    for th, K in ((1.0, 1.0), (0.5, 2.5), (1.0 / 3.0, 0.75)):
        got = theorem_bound_rows(model, cst, th, K, xs, WITNESSES)
        oracle = [[K * cst.sigma ** th
                   * (_h_oracle(model, 1, x ** 3, z) * _h_oracle(model, 2, x ** 3, z)
                      + _h_oracle(model, 3, x ** 3, z) + _h_oracle(model, 4, x ** 3, z)) ** th
                   / (1.0 - cst.P ** th) for z in WITNESSES] for x in xs]
        assert hexes(got) == hexes(oracle)
        assert hexes(got) == hexes([[theorem_bound(model, cst, th, K, x, z) for z in WITNESSES]
                                    for x in xs])
    with pytest.raises(ValueError, match="P < 1"):
        theorem_bound_rows(model, HyperstabConstants(2, 1.0, 1.0, 1.0, 1.0, 0.0, 0.0, 1.0,
                                                     0.5, False), 1.0, 1.0, xs, WITNESSES)


def test_row_forms_keep_the_norm_checks():
    model = _model(cross_2norm(), None)
    with pytest.raises(ValueError, match="dimension mismatch"):
        model.h_rows(1, [1.0], [np.array([1.0, 0.0])])
    with pytest.raises(ValueError, match="must be finite"):
        model.h_rows(4, [math.inf], WITNESSES)  # y without zeros: no inf * 0
    with pytest.raises(ValueError, match="must be finite"):
        model.h_rows(1, [1.0], [np.array([np.nan, 0.0, 0.0])])


# The first 40 draws of sample_admissible_pairs(EquationParams(1, 1, 2, 2), 1.0,
# 1.000003, 100, default_rng(2024)): a range where half the draws fall in the
# exclusion band.  Recorded when each sign was drawn by rng.choice([-1.0, 1.0]).
STREAM_PIN = [
    ('-0x1.00002204053e6p+0', '-0x1.00000f9342519p+0', True),
    ('0x1.0000283d0acefp+0', '0x1.00000728a49abp+0', True),
    ('-0x1.000003f65eeb6p+0', '-0x1.0000121a03d16p+0', False),
    ('-0x1.0000088987031p+0', '0x1.00001f0b8119cp+0', True),
    ('-0x1.0000054de2574p+0', '0x1.0000003ba70a4p+0', False),
    ('-0x1.0000176903e77p+0', '0x1.0000283c8e974p+0', True),
    ('-0x1.00001e09ff655p+0', '-0x1.00000a62b896fp+0', True),
    ('0x1.0000164879ba1p+0', '-0x1.00002c09bef50p+0', True),
    ('-0x1.00000aba82f0cp+0', '-0x1.000028a075f08p+0', True),
    ('-0x1.00000d81dc63ap+0', '-0x1.000003914e09bp+0', False),
    ('0x1.00001783f091fp+0', '-0x1.00002cbdee526p+0', True),
    ('-0x1.00000e692ef11p+0', '0x1.000018861a2bcp+0', False),
    ('-0x1.0000178e61270p+0', '0x1.00002d3592320p+0', True),
    ('-0x1.000003fa5973bp+0', '-0x1.0000094cf6a00p+0', False),
    ('0x1.00002d92f48e9p+0', '0x1.000012b4ca1cfp+0', True),
    ('-0x1.000029f8ae721p+0', '-0x1.0000224f0bab3p+0', False),
    ('-0x1.00000b7e4651fp+0', '-0x1.000023096cc00p+0', True),
    ('0x1.000010f450993p+0', '-0x1.00000de22eb9bp+0', False),
    ('0x1.00000ca68a14dp+0', '0x1.000010cdb4642p+0', False),
    ('0x1.0000156bc929dp+0', '-0x1.0000196ceecbep+0', False),
    ('0x1.00001d76a8304p+0', '-0x1.0000144e5f8fbp+0', False),
    ('0x1.00002f829c4f0p+0', '-0x1.000010696dc5cp+0', True),
    ('-0x1.00001a1e61189p+0', '0x1.00000220f7e22p+0', True),
    ('0x1.00000c2491f36p+0', '-0x1.000000639c2dfp+0', False),
    ('-0x1.0000103632c8dp+0', '-0x1.00002b3e6092ep+0', True),
    ('-0x1.000000ada48d9p+0', '0x1.000016ffcd102p+0', True),
    ('0x1.00001da62c7a8p+0', '-0x1.0000285d29bebp+0', False),
    ('-0x1.0000131747e17p+0', '-0x1.00001c7a8cabep+0', False),
    ('-0x1.00000d1f4cfe7p+0', '-0x1.000006c920b56p+0', False),
    ('-0x1.00002360af014p+0', '-0x1.00000e118f0b7p+0', True),
    ('-0x1.00000aff9ddc0p+0', '-0x1.00001ba2fc48bp+0', False),
    ('0x1.000009e9c60d1p+0', '0x1.00000e1621e5ep+0', False),
    ('0x1.000030b8b079bp+0', '0x1.0000046d90218p+0', True),
    ('-0x1.00001f379f8e7p+0', '-0x1.000013033d980p+0', False),
    ('-0x1.00000a7222ca3p+0', '-0x1.00001edda93f1p+0', True),
    ('-0x1.00001970dd649p+0', '-0x1.00002e2406417p+0', True),
    ('-0x1.00000c6c5179ep+0', '-0x1.000006749ce8cp+0', False),
    ('-0x1.0000134db23bfp+0', '0x1.00000c0965aafp+0', False),
    ('0x1.00002a81f2cb8p+0', '0x1.00001fe5d8c82p+0', False),
    ('0x1.00002d8dcc114p+0', '0x1.000006fbdbeadp+0', True),
]


def test_pair_sampler_stream_is_pinned():
    eq = EquationParams(1.0, 1.0, 2.0, 2.0)
    draws = sample_admissible_pairs(eq, 1.0, 1.000003, 100, np.random.default_rng(2024))
    got = [(x.hex(), y.hex(), ok) for x, y, ok in itertools.islice(draws, 40)]
    assert got == [(float.fromhex(x).hex(), float.fromhex(y).hex(), ok)
                   for x, y, ok in STREAM_PIN]


def test_reference_hyperstab_makes_no_scalar_norm_calls(tmp_path, monkeypatch):
    # one eval_norm_rows call per sup-step (67 here), five per m in the bound
    # loop and five in the consistency scan: 87 in all; a per-point loop
    # would show up as scalar eval_norm calls or as hundreds of row calls
    calls = {"eval_norm": 0, "eval_norm_rows": 0}
    modules = [importlib.import_module("qbanach")] + [
        importlib.import_module(f"qbanach.{m}")
        for m in ("spaces", "envelope", "fixedpoint", "radical", "hyperstab", "cli")]
    for name in calls:
        original = getattr(spaces, name)

        def counted(*args, _original=original, _name=name, **kwargs):
            calls[_name] += 1
            return _original(*args, **kwargs)

        for module in modules:
            if getattr(module, name, None) is original:
                monkeypatch.setattr(module, name, counted)
    with open(os.path.join(_ROOT, "docs", "reference_hyperstab.json")) as fh:
        config = cli.parse_config(fh.read())
    assert cli.run(config, out_dir=str(tmp_path)) == 0
    assert calls["eval_norm"] == 0
    assert 0 < calls["eval_norm_rows"] <= 90


def _per_draw_pairs(eq, lo, hi, n, rng):
    """The pair sampler as four ``Generator`` calls per draw: the oracle of the
    block form's stream."""
    found = 0
    for _ in range(DRAWS_PER_PAIR * n):
        if found == n:
            return
        x = rng.uniform(lo, hi) * (-1.0, 1.0)[rng.integers(2)]
        y = rng.uniform(lo, hi) * (-1.0, 1.0)[rng.integers(2)]
        ok = admissibility(eq, x, y)[0]
        found += ok
        yield x, y, ok


def _draw_hexes(draws):
    out = []
    for x, y, ok in draws:
        assert type(x) is float and type(y) is float and type(ok) is bool
        out.append((x.hex(), y.hex(), ok))
    return out


def _assert_same_stream(eq, lo, hi, n, seed):
    got = _draw_hexes(sample_admissible_pairs(eq, lo, hi, n, np.random.default_rng(seed)))
    assert got == _draw_hexes(_per_draw_pairs(eq, lo, hi, n, np.random.default_rng(seed)))
    return got


# (1.0, 1.0000013) with a = b admits ~5 % of the draws, so n = 50 ends at
# the draw cap with a few admissible pairs; (1.0, 1.0) admits none
@pytest.mark.parametrize("lo, hi", [(0.5, 2.0), (1.0, 1.000003), (1.0, 1.0), (1e-3, 7.3),
                                    (1.0, 1.0000013)])
@pytest.mark.parametrize("eq", [EquationParams(1.0, 1.0, 2.0, 2.0),
                                EquationParams(2.0, -0.5, 8.0, 0.5, root_n=5)],
                         ids=["a=b", "quintic"])
def test_block_pair_sampler_equals_the_per_draw_loop(eq, lo, hi):
    for seed in (0, 7, 2024):
        for n in (0, 1, 7, 50, 400):
            draws = _assert_same_stream(eq, lo, hi, n, seed)
            found = sum(ok for _, _, ok in draws)
            assert found == n or len(draws) == DRAWS_PER_PAIR * n


def test_block_pair_sampler_stops_at_the_draw_cap_with_a_shortfall():
    capped = _assert_same_stream(EquationParams(1.0, 1.0, 2.0, 2.0), 1.0, 1.0000013, 50, 3)
    assert len(capped) == DRAWS_PER_PAIR * 50 and 0 < sum(ok for _, _, ok in capped) < 50


@given(seed=st.integers(0, 2 ** 32), lo=st.floats(1e-3, 10.0), width=st.floats(0.0, 10.0),
       n=st.integers(0, 50),
       a=st.floats(-4.0, 4.0).filter(lambda v: abs(v) > 1e-3),
       b=st.floats(-4.0, 4.0).filter(lambda v: abs(v) > 1e-3))
@settings(derandomize=True, max_examples=120, deadline=None, database=None)
def test_block_pair_sampler_equals_the_per_draw_loop_property(seed, lo, width, n, a, b):
    _assert_same_stream(EquationParams(a, b, 1.0, 1.0), lo, lo + width, n, seed)


def test_pair_sampler_refuses_generators_it_cannot_read_in_blocks():
    eq = EquationParams(1.0, 1.0, 2.0, 2.0)
    with pytest.raises(ValueError, match="PCG64"):
        next(sample_admissible_pairs(eq, 0.5, 2.0, 5, np.random.Generator(np.random.Philox(0))))
    rng = np.random.default_rng(1)
    rng.integers(2)  # leaves the high half of a word buffered
    with pytest.raises(ValueError, match="buffered 32-bit half"):
        next(sample_admissible_pairs(eq, 0.5, 2.0, 5, rng))
    with pytest.raises(ValueError, match="lo <= hi"):
        next(sample_admissible_pairs(eq, 2.0, 0.5, 5, np.random.default_rng(1)))


class _CountingPCG64(np.random.PCG64):
    calls = 0

    def random_raw(self, size=None, output=True):
        self.calls += 1
        return super().random_raw(size, output)


def test_pair_sampler_draws_400_pairs_in_at_most_two_blocks():
    bitgen = _CountingPCG64(11)
    draws = list(sample_admissible_pairs(EquationParams(1.0, 1.0, 2.0, 2.0), 0.5, 2.0, 400,
                                         np.random.Generator(bitgen)))
    assert sum(ok for _, _, ok in draws) == 400
    assert 1 <= bitgen.calls <= 2
