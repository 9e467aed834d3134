"""Concrete quasi-(2,beta)-normed spaces on R^3 with randomized axiom checking.

Three instantiable families are provided, all built on the cross product:

* ``CROSS_2NORM`` -- Euclidean length of ``x  x  y`` (the standard 2-norm on
  R^3; modulus of concavity 1, homogeneity exponent beta = 1).
* ``POWERED(base, beta)`` -- pointwise ``base(x, y) ** beta`` for a base
  space with beta = 1; declares modulus ``kappa_base ** beta``.
* ``LP_CROSS(p)`` -- the l^p length ``(sum |(x x y)_i|^p)^(1/p)`` of the
  cross product for ``0 < p <= 1``; declares modulus ``2**(1/p - 1)``.
* ``SCALED(base, C)`` -- pointwise ``C * base(x, y)``, same modulus.

Random sampling used by the checkers draws coordinates i.i.d. uniform on
[-10, 10] and mixes in structured configurations (exactly dependent pairs,
near-dependent pairs, near-parallel and axis-frame triples) so that the
degenerate branches of the axioms and the extremal quasi-triangle ratios are
actually exercised.  All sampling is deterministic given the seed, and the
first ``n`` samples of a run with more trials are a prefix of the longer run.

Memory: every stage of ``check_axioms`` (B1, B2/B3, B4 with
``kappa_observed``) and ``estimate_kappa`` holds O(block) rows, whatever the
trial count: the samples are drawn and evaluated ``_TRIPLE_BLOCK`` rows at a
time, and the blocks are the rows of one whole-array draw.  B3's homogeneity
factors follow all the pairs in the stream, so they come from a copy of the
generator advanced past the pairs (``PCG64.advance``).
"""

from __future__ import annotations

import copy
import math
from dataclasses import dataclass, field
from typing import Optional

import numpy as np

__all__ = [
    "SpaceDescriptor",
    "AxiomReport",
    "theta",
    "cross_2norm",
    "lp_cross",
    "power_space",
    "scaled_space",
    "eval_norm",
    "eval_norm_rows",
    "check_axioms",
    "estimate_kappa",
    "space_from_dict",
]

# Absolute tolerance for exact identities (symmetry), relative slack for
# inequalities.  f64 arithmetic over the bounded sample box keeps true
# identities far below these.
EXACT_TOL = 1e-12
REL_TOL = 1e-9

_FAMILIES = ("CROSS_2NORM", "POWERED", "LP_CROSS", "SCALED")


def _as_vector(x, dim: Optional[int] = None) -> np.ndarray:
    v = np.asarray(x, dtype=float)
    if v.ndim != 1:
        raise ValueError("vector must be one-dimensional")
    if dim is not None and v.shape[0] != dim:
        raise ValueError(f"dimension mismatch: expected {dim}, got {v.shape[0]}")
    if not np.all(np.isfinite(v)):
        raise ValueError("vector entries must be finite")
    return v


def theta(beta: float, kappa: float) -> float:
    """The exponent ``beta * log_{2 kappa} 2``; lies in (0, beta]."""
    if not (0.0 < beta <= 1.0):
        raise ValueError("beta must lie in (0,1]")
    if not (math.isfinite(kappa) and kappa >= 1.0):
        raise ValueError("kappa must be finite and >= 1")
    th = beta * math.log(2.0) / math.log(2.0 * kappa)
    if not th > 0.0:
        # 2 kappa overflows (kappa near 9e307), or beta is too small
        raise ValueError(f"theta = beta * log_(2 kappa) 2 underflows to 0 at "
                         f"beta = {beta!r}, kappa = {kappa!r}")
    return th


@dataclass(frozen=True)
class SpaceDescriptor:
    """A concrete quasi-(2,beta)-normed space.

    ``kappa`` is the *declared* modulus of concavity.  It defaults to the
    family's theoretical value but may be overridden (e.g. deliberately
    under-declared, to exercise the quasi-triangle checker).
    """

    family: str
    beta: float = 1.0
    kappa: float = 1.0
    p: Optional[float] = None            # LP_CROSS only
    factor: Optional[float] = None       # SCALED only
    base: Optional["SpaceDescriptor"] = None  # POWERED / SCALED

    def __post_init__(self):
        if self.family not in _FAMILIES:
            raise ValueError(f"unknown space family {self.family!r}")
        # beta in (0,1], a finite kappa >= 1 and a theta the envelope can use
        theta(self.beta, self.kappa)
        if self.family == "LP_CROSS":
            if self.p is None or not (0.0 < self.p <= 1.0):
                raise ValueError("LP_CROSS requires p in (0,1]")
        if self.family == "POWERED":
            if self.base is None:
                raise ValueError("POWERED requires a base space")
            if self.base.beta != 1.0:
                raise ValueError("POWERED base must be a quasi-2-norm (beta = 1)")
        if self.family == "SCALED":
            if self.base is None or self.factor is None or self.factor <= 0:
                raise ValueError("SCALED requires a base space and factor C > 0")

    @property
    def dim(self) -> int:
        """Every space is on R^3 (the cross product's), so vectors have 3 entries."""
        return 3


def space_from_dict(d: dict) -> SpaceDescriptor:
    """The space of a validated config section (``beta`` and ``kappa`` filled in)."""
    return SpaceDescriptor(
        family=d["family"],
        beta=float(d["beta"]),
        kappa=float(d["kappa"]),
        p=d.get("p"),
        factor=d.get("factor"),
        base=space_from_dict(d["base"]) if "base" in d else None,
    )


def cross_2norm() -> SpaceDescriptor:
    """The Euclidean cross-product 2-norm on R^3 (kappa = 1, beta = 1)."""
    return SpaceDescriptor(family="CROSS_2NORM", beta=1.0, kappa=1.0)


def lp_cross(p: float, kappa: Optional[float] = None) -> SpaceDescriptor:
    """l^p length of the cross product; theoretical modulus 2**(1/p - 1)."""
    if not (0.0 < p <= 1.0):
        raise ValueError("LP_CROSS requires p in (0,1]")
    declared = 2.0 ** (1.0 / p - 1.0) if kappa is None else kappa
    return SpaceDescriptor(family="LP_CROSS", beta=1.0, kappa=declared, p=p)


def power_space(base: SpaceDescriptor, beta: float) -> SpaceDescriptor:
    """Raise a quasi-2-norm (beta = 1) to the power ``beta``.

    The returned space evaluates to ``base(x, y)**beta`` and declares modulus
    ``base.kappa**beta``; ``beta = 1`` returns the base space unchanged.
    """
    if not (0.0 < beta <= 1.0):
        raise ValueError("beta must lie in (0,1]")
    if base.beta != 1.0:
        raise ValueError("base must be a quasi-2-norm (beta = 1)")
    if beta == 1.0:
        return base
    return SpaceDescriptor(family="POWERED", beta=beta, kappa=base.kappa ** beta, base=base)


def scaled_space(base: SpaceDescriptor, factor: float) -> SpaceDescriptor:
    """Pointwise multiple ``C * base(x, y)``; the modulus is unchanged."""
    return SpaceDescriptor(family="SCALED", beta=base.beta, kappa=base.kappa,
                           factor=factor, base=base)


def _cross_rows(X, Y):
    """Components of the row-wise 3-D cross product ``X x Y``.

    Written out component by component with the same products and
    differences as ``np.cross`` (so bit-identical to it), without its axis
    handling, which dominates the cost on arrays of a few rows.
    """
    X = np.asarray(X, dtype=float)
    Y = np.asarray(Y, dtype=float)
    if X.shape[-1] != 3 or Y.shape[-1] != 3:
        raise ValueError("the cross product is defined on R^3 (dim 3)")
    x0, x1, x2 = X[..., 0], X[..., 1], X[..., 2]
    y0, y1, y2 = Y[..., 0], Y[..., 1], Y[..., 2]
    return x1 * y2 - x2 * y1, x2 * y0 - x0 * y2, x0 * y1 - x1 * y0


def eval_norm_rows(space: SpaceDescriptor, X: np.ndarray, Y: np.ndarray) -> np.ndarray:
    """Vectorized norm evaluation over paired rows of (n, dim) arrays."""
    # component sums run left to right, as numpy's sum over a length-3 axis does
    if space.family == "CROSS_2NORM":
        c0, c1, c2 = _cross_rows(X, Y)
        return np.sqrt(c0 * c0 + c1 * c1 + c2 * c2)
    if space.family == "LP_CROSS":
        c0, c1, c2 = _cross_rows(X, Y)
        p = space.p
        return (np.abs(c0) ** p + np.abs(c1) ** p + np.abs(c2) ** p) ** (1.0 / p)
    if space.family == "POWERED":
        return eval_norm_rows(space.base, X, Y) ** space.beta
    if space.family == "SCALED":
        return space.factor * eval_norm_rows(space.base, X, Y)
    raise ValueError(f"unknown space family {space.family!r}")


def eval_norm(space: SpaceDescriptor, x, y) -> float:
    """The quasi-(2,beta)-norm of the pair (x, y)."""
    xv = _as_vector(x, space.dim)
    yv = _as_vector(y, space.dim)
    return float(eval_norm_rows(space, xv[None, :], yv[None, :])[0])


def _norm_table(space: SpaceDescriptor, X, witnesses) -> np.ndarray:
    """``|X[r], witnesses[j]|`` for every row r and witness j, as a (rows,
    witnesses) array from one ``eval_norm_rows`` call; both operands get
    ``eval_norm``'s dimension and finiteness checks."""
    X = np.asarray(X, dtype=float)
    W = np.asarray(witnesses, dtype=float)
    for A in (X, W):
        if A.ndim != 2 or A.shape[1] != space.dim:
            raise ValueError(f"dimension mismatch: expected {space.dim}, got {A.shape[-1]}")
        if not np.all(np.isfinite(A)):
            raise ValueError("vector entries must be finite")
    return eval_norm_rows(space, np.repeat(X, len(W), axis=0),
                          np.tile(W, (len(X), 1))).reshape(len(X), len(W))


# ---------------------------------------------------------------------------
# sampling
# ---------------------------------------------------------------------------

# Triple mixture proportions: 70% fully uniform, 10% near-dependent pair
# (y = t*x + 1e-8 noise), 10% near-parallel z (z = s*y + 1e-4 noise, triangle
# equality stress), 10% axis-frame (x, y, z near distinct signed coordinate
# axes; extremal quasi-triangle ratios for l^p cross norms).
_DRAWS_PER_TRIPLE = 32
_DRAWS_PER_PAIR = 12  # uniforms per row of sample_pairs


def sample_triples(rng: np.random.Generator, n: int, box: float = 10.0):
    """Draw ``n`` triples (x, y, z) from the documented mixture.

    One fixed-width row of uniforms is consumed per trial, so runs with more
    trials extend shorter runs sample-for-sample, and ``n`` rows drawn in
    several calls are the rows of one call.
    """
    U = rng.random((n, _DRAWS_PER_TRIPLE))
    XYZ = box * (2.0 * U[:, 0:9] - 1.0)
    X, Y, Z = XYZ[:, 0:3], XYZ[:, 3:6], XYZ[:, 6:9]
    mix = U[:, 9]

    # each structured component is computed on its own rows only
    near_dep = (mix >= 0.70) & (mix < 0.80)
    V = U[near_dep]
    Y[near_dep] = (4.0 * V[:, 10] - 2.0)[:, None] * X[near_dep] + 1e-8 * (2.0 * V[:, 11:14] - 1.0)

    near_par = (mix >= 0.80) & (mix < 0.90)
    V = U[near_par]
    Z[near_par] = (0.1 + 1.9 * V[:, 14])[:, None] * Y[near_par] + 1e-4 * (2.0 * V[:, 15:18] - 1.0)

    frame = mix >= 0.90
    V = U[frame]
    k = len(V)
    perm = np.argsort(V[:, 18:21], axis=1)
    amp = (0.5 + 9.5 * V[:, 21:24]) * np.sign(V[:, 24:27] - 0.5)
    fx = np.zeros((k, 3))
    fy = np.zeros((k, 3))
    fz = np.zeros((k, 3))
    rows = np.arange(k)
    fx[rows, perm[:, 0]] = amp[:, 0]
    fy[rows, perm[:, 1]] = amp[:, 1]
    fz[rows, perm[:, 2]] = amp[:, 2]
    X[frame] = fx + 0.02 * np.abs(amp[:, 0:1]) * (2.0 * V[:, 27:30] - 1.0)
    Y[frame] = fy + 0.02 * np.abs(amp[:, 1:2]) * (2.0 * V[:, [30, 31, 10]] - 1.0)
    Z[frame] = fz + 0.02 * np.abs(amp[:, 2:3]) * (2.0 * V[:, 11:14] - 1.0)
    return X, Y, Z


def sample_pairs(rng: np.random.Generator, n: int, box: float = 10.0):
    """Pairs: 90% uniform, 10% near-dependent (y = t*x + 1e-8 noise).

    Returns (X, Y, near) where ``near`` marks the near-dependent mixture.
    Like ``sample_triples``, one fixed-width row is consumed per pair.
    """
    U = rng.random((n, _DRAWS_PER_PAIR))
    X = box * (2.0 * U[:, 0:3] - 1.0)
    Y = box * (2.0 * U[:, 3:6] - 1.0)
    near = U[:, 6] >= 0.90
    V = U[near]
    Y[near] = (4.0 * V[:, 7] - 2.0)[:, None] * X[near] + 1e-8 * (2.0 * V[:, 8:11] - 1.0)
    return X, Y, near


def _dependent_pairs(rng: np.random.Generator, n: int, box: float = 10.0):
    """Exactly dependent pairs ``y = t*x`` with t a signed power of two.

    Power-of-two scalings are exact in binary floating point, so the cross
    product of such a pair vanishes identically and the degenerate branch of
    the norm is tested without rounding slack.
    """
    U = rng.random((n, 5))
    X = box * (2.0 * U[:, 0:3] - 1.0)
    expo = np.floor(7.0 * U[:, 3]) - 3.0  # -3 .. 3
    t = np.sign(U[:, 4] - 0.5) * (2.0 ** expo)
    Y = t[:, None] * X
    return X, Y, t


# ---------------------------------------------------------------------------
# axiom checking
# ---------------------------------------------------------------------------

@dataclass
class AxiomViolations:
    count: int = 0
    worst: Optional[dict] = None


@dataclass
class AxiomReport:
    """Result of a randomized run against the four norm axioms."""

    violations: dict = field(
        default_factory=lambda: {b: AxiomViolations() for b in ("B1", "B2", "B3", "B4")})
    kappa_observed: float = 0.0
    degenerate: int = 0

    @property
    def total_violations(self) -> int:
        return sum(v.count for v in self.violations.values())


# Rows per block of every sampled stage: samples are drawn and evaluated block
# by block, so ``check_axioms`` and ``estimate_kappa`` hold O(block) rows.
_TRIPLE_BLOCK = 8192


def _blocks(trials: int):
    """The row counts of consecutive blocks of ``trials`` rows."""
    for start in range(0, trials, _TRIPLE_BLOCK):
        yield min(_TRIPLE_BLOCK, trials - start)


def _row_lengths(A):
    """Euclidean lengths of the rows of an (n, 3) array, bit-identical to
    ``np.linalg.norm(A, axis=1)`` without its slow length-3 reduce."""
    a0, a1, a2 = A[:, 0], A[:, 1], A[:, 2]
    return np.sqrt(a0 * a0 + a1 * a1 + a2 * a2)


def _norms(stage: str, space: SpaceDescriptor, X, Y) -> np.ndarray:
    """``eval_norm_rows(space, X, Y)``, or a ValueError naming ``stage`` and
    the first pair whose norm is inf or NaN: every comparison with such a
    norm is false, so it would pass each axiom as clean."""
    with np.errstate(over="ignore", invalid="ignore"):
        vals = eval_norm_rows(space, X, Y)
    finite = np.isfinite(vals)
    if not finite.all():
        i = int(np.argmin(finite))
        raise ValueError(f"{stage}: the norm of x = {X[i].tolist()}, y = {Y[i].tolist()} "
                         f"is {vals[i]}, not finite")
    return vals


def _fold_worst(slot: AxiomViolations, bad: np.ndarray, severity: np.ndarray, key: str,
                make_witness):
    """Count a block's ``bad`` rows into ``slot``.  The block's most severe
    row replaces the worst witness so far (whose ``key`` holds its severity)
    only when strictly more severe, so the earliest row keeps a tie across
    blocks as ``np.argmax`` does within one."""
    idx = np.flatnonzero(bad)
    slot.count += int(idx.size)
    if idx.size:
        i = int(idx[np.argmax(severity[idx])])
        if slot.worst is None or severity[i] > slot.worst[key]:
            slot.worst = make_witness(i)


def _triangle_ratios(space: SpaceDescriptor, X, Y, Z):
    """Per-row ratios ``|x, y+z| / (|x, y| + |x, z|)`` (0 where the denominator
    is degenerate) and the mask of nondegenerate rows."""
    num = _norms("B4", space, X, Y + Z)
    den = _norms("B4", space, X, Y) + _norms("B4", space, X, Z)
    scale = (_row_lengths(X) * np.maximum(_row_lengths(Y), _row_lengths(Z))) ** space.beta
    valid = den > 1e-12 * (1.0 + scale)
    ratio = np.zeros_like(num)
    ratio[valid] = num[valid] / den[valid]
    return ratio, valid


def _triangle_blocks(space: SpaceDescriptor, rng: np.random.Generator, trials: int):
    """Yield ``(X, Y, Z, ratio, valid)`` for consecutive row blocks of
    ``trials`` triples; the blocks are the rows of one ``sample_triples`` call."""
    for n in _blocks(trials):
        X, Y, Z = sample_triples(rng, n)
        yield (X, Y, Z, *_triangle_ratios(space, X, Y, Z))


def check_axioms(space: SpaceDescriptor, trials: int, seed: int) -> AxiomReport:
    """Sample random configurations and count violations of axioms B1-B4.

    B1 is checked on exactly dependent pairs (norm below ``REL_TOL * scale``),
    B2 as exact symmetry (absolute ``EXACT_TOL``), B3 as beta-homogeneity with
    slack ``REL_TOL * (1 + |x,y|)``, and B4 against the *declared* kappa with
    relative slack ``REL_TOL``.  Deterministic given the seed.

    The stages draw from one generator in this order, each one row block at
    a time.  A norm that is not finite ends the run with a ValueError.
    """
    if trials < 1:
        raise ValueError("trials must be >= 1")
    rng = np.random.default_rng(seed)
    report = AxiomReport()
    _check_b1(space, rng, trials, report)
    _check_b2_b3(space, rng, trials, report)
    _check_b4(space, rng, trials, report)
    return report


def _check_b1(space: SpaceDescriptor, rng, trials: int, report: AxiomReport):
    """B1 on exactly dependent pairs."""
    for n in _blocks(trials):
        Xd, Yd, t = _dependent_pairs(rng, n)
        vals = _norms("B1", space, Xd, Yd)
        scale = (_row_lengths(Xd) * _row_lengths(Yd)) ** space.beta
        bad = vals > REL_TOL * (1.0 + scale)
        _fold_worst(report.violations["B1"], bad, vals, "value", lambda i: {
            "x": Xd[i].tolist(), "y": Yd[i].tolist(), "lambda": float(t[i]),
            "value": float(vals[i]),
        })


def _check_b2_b3(space: SpaceDescriptor, rng, trials: int, report: AxiomReport):
    """B2 and B3 on the pair mixture.

    The stream holds all the pairs, then all the factors ``lam``.  Each
    double of ``random`` and ``uniform`` takes one 64-bit word of PCG64, so
    ``lam`` is drawn block by block from a copy of ``rng`` advanced past the
    pairs' ``_DRAWS_PER_PAIR * trials`` words, and ``rng`` ends at the copy's
    final state, where B4's triples start.
    """
    lam_rng = copy.deepcopy(rng)
    lam_rng.bit_generator.advance(_DRAWS_PER_PAIR * trials)
    for n in _blocks(trials):
        X, Y, near = sample_pairs(rng, n)
        lam = lam_rng.uniform(-10.0, 10.0, n)
        lam[np.abs(lam) < 1e-3] = 1.0
        v_xy = _norms("B2", space, X, Y)
        d_sym = np.abs(v_xy - _norms("B2", space, Y, X))
        _fold_worst(report.violations["B2"], d_sym > EXACT_TOL, d_sym, "diff", lambda i: {
            "x": X[i].tolist(), "y": Y[i].tolist(), "diff": float(d_sym[i]),
        })

        # homogeneity is measured on the generic population: the near-dependent
        # mixture targets B1/B4 edge cases, and its cross products are rounding
        # noise, which the comparison would count as spurious at small beta
        v_lam = _norms("B3", space, lam[:, None] * X, Y)
        d_hom = np.abs(v_lam - np.abs(lam) ** space.beta * v_xy)
        bad3 = ~near & (d_hom > REL_TOL * (1.0 + v_xy))
        _fold_worst(report.violations["B3"], bad3, d_hom, "error", lambda i: {
            "x": X[i].tolist(), "y": Y[i].tolist(), "lambda": float(lam[i]),
            "measured_ratio": float(v_lam[i] / v_xy[i]) if v_xy[i] > 0 else 0.0,
            "expected_ratio": float(np.abs(lam[i]) ** space.beta), "error": float(d_hom[i]),
        })
    rng.bit_generator.state = lam_rng.bit_generator.state


def _check_b4(space: SpaceDescriptor, rng, trials: int, report: AxiomReport):
    """B4, ``kappa_observed`` and ``degenerate`` on the triple mixture."""
    for Xt, Yt, Zt, ratio, valid in _triangle_blocks(space, rng, trials):
        report.degenerate += int((~valid).sum())
        report.kappa_observed = max(report.kappa_observed, float(ratio.max()))
        bad = valid & (ratio > space.kappa * (1.0 + REL_TOL))
        _fold_worst(report.violations["B4"], bad, ratio, "ratio", lambda i: {
            "x": Xt[i].tolist(), "y": Yt[i].tolist(), "z": Zt[i].tolist(),
            "ratio": float(ratio[i]),
        })


def estimate_kappa(space: SpaceDescriptor, trials: int, seed: int) -> float:
    """Empirical lower bound on the modulus of concavity.

    Returns the supremum over sampled triples of
    ``|x, y+z| / (|x, y| + |x, z|)``; degenerate denominators are skipped.
    The true modulus can only be larger, never smaller.  A norm that is not
    finite raises a ValueError, as in ``check_axioms``' B4.
    """
    if trials < 1:
        raise ValueError("trials must be >= 1")
    rng = np.random.default_rng(seed)
    kappa = 0.0
    for *_, ratio, _ in _triangle_blocks(space, rng, trials):
        # degenerate rows hold ratio 0, so the block maximum is over valid rows
        block_max = float(ratio.max())
        if block_max > kappa:
            kappa = block_max
    return kappa
