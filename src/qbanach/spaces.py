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
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field
from typing import Optional

import numpy as np

__all__ = [
    "SpaceDescriptor",
    "AxiomReport",
    "cross_2norm",
    "lp_cross",
    "power_space",
    "scaled_space",
    "eval_norm",
    "eval_norm_rows",
    "check_axioms",
    "estimate_kappa",
    "is_dependent",
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


@dataclass(frozen=True)
class SpaceDescriptor:
    """A concrete quasi-(2,beta)-normed space.

    ``kappa`` is the *declared* modulus of concavity.  It defaults to the
    family's theoretical value but may be overridden (e.g. deliberately
    under-declared, to exercise the quasi-triangle checker).
    """

    family: str
    dim: int = 3
    beta: float = 1.0
    kappa: float = 1.0
    p: Optional[float] = None            # LP_CROSS only
    factor: Optional[float] = None       # SCALED only
    base: Optional["SpaceDescriptor"] = None  # POWERED / SCALED

    def __post_init__(self):
        if self.family not in _FAMILIES:
            raise ValueError(f"unknown space family {self.family!r}")
        if self.dim < 2:
            raise ValueError("dim must be >= 2")
        if not (0.0 < self.beta <= 1.0):
            raise ValueError("beta must lie in (0,1]")
        if not (math.isfinite(self.kappa) and self.kappa >= 1.0):
            raise ValueError("kappa must be finite and >= 1")
        if self.family in ("CROSS_2NORM", "POWERED", "LP_CROSS") and self.dim != 3:
            raise ValueError(f"{self.family} is defined on R^3 (dim 3)")
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
        # the samplers draw vectors of ``dim`` entries and the norm evaluates
        # them in the base space, so the two must agree
        if self.base is not None and self.base.dim != self.dim:
            raise ValueError(f"{self.family} dim {self.dim} differs from its base's "
                             f"dim {self.base.dim}")

    def to_dict(self) -> dict:
        d = {"family": self.family, "dim": self.dim, "beta": self.beta, "kappa": self.kappa}
        if self.family == "LP_CROSS":
            d["p"] = self.p
        if self.family == "SCALED":
            d["factor"] = self.factor
        if self.base is not None:
            d["base"] = self.base.to_dict()
        return d


def space_from_dict(d: dict) -> SpaceDescriptor:
    base = space_from_dict(d["base"]) if "base" in d and d["base"] is not None else None
    return SpaceDescriptor(
        family=d["family"],
        dim=int(d.get("dim", 3)),
        beta=float(d.get("beta", 1.0)),
        kappa=float(d.get("kappa", 1.0)),
        p=d.get("p"),
        factor=d.get("factor"),
        base=base,
    )


def cross_2norm() -> SpaceDescriptor:
    """The Euclidean cross-product 2-norm on R^3 (kappa = 1, beta = 1)."""
    return SpaceDescriptor(family="CROSS_2NORM", dim=3, beta=1.0, kappa=1.0)


def lp_cross(p: float, kappa: Optional[float] = None) -> SpaceDescriptor:
    """l^p length of the cross product; theoretical modulus 2**(1/p - 1)."""
    if not (0.0 < p <= 1.0):
        raise ValueError("LP_CROSS requires p in (0,1]")
    declared = 2.0 ** (1.0 / p - 1.0) if kappa is None else kappa
    return SpaceDescriptor(family="LP_CROSS", dim=3, beta=1.0, kappa=declared, p=p)


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
    return SpaceDescriptor(
        family="POWERED", dim=base.dim, beta=beta, kappa=base.kappa ** beta, base=base
    )


def scaled_space(base: SpaceDescriptor, factor: float) -> SpaceDescriptor:
    """Pointwise multiple ``C * base(x, y)``; the modulus is unchanged."""
    return SpaceDescriptor(
        family="SCALED", dim=base.dim, beta=base.beta, kappa=base.kappa,
        factor=factor, base=base,
    )


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


def is_dependent(x, y, tol: float = REL_TOL) -> bool:
    """Rank test for the pair: largest 2x2 minor against ``tol * scale``."""
    xv = _as_vector(x)
    yv = _as_vector(y, xv.shape[0])
    best = 0.0
    n = xv.shape[0]
    for i in range(n):
        for j in range(i + 1, n):
            best = max(best, abs(xv[i] * yv[j] - xv[j] * yv[i]))
    scale = np.abs(xv).max() * np.abs(yv).max()
    return best <= tol * scale


# ---------------------------------------------------------------------------
# sampling
# ---------------------------------------------------------------------------

# Triple mixture proportions: 70% fully uniform, 10% near-dependent pair
# (y = t*x + 1e-8 noise), 10% near-parallel z (z = s*y + 1e-4 noise, triangle
# equality stress), 10% axis-frame (x, y, z near distinct signed coordinate
# axes; extremal quasi-triangle ratios for l^p cross norms).
_DRAWS_PER_TRIPLE = 32


def sample_triples(rng: np.random.Generator, n: int, box: float = 10.0):
    """Draw ``n`` triples (x, y, z) from the documented mixture.

    One fixed-width row of uniforms is consumed per trial, so runs with more
    trials extend shorter runs sample-for-sample.
    """
    U = rng.uniform(0.0, 1.0, (n, _DRAWS_PER_TRIPLE))
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


def sample_pairs(rng: np.random.Generator, n: int, box: float = 10.0):
    """Pairs: 90% uniform, 10% near-dependent (y = t*x + 1e-8 noise).

    Returns (X, Y, near) where ``near`` marks the near-dependent mixture.
    """
    U = rng.uniform(0.0, 1.0, (n, 12))
    X = box * (2.0 * U[:, 0:3] - 1.0)
    Y = box * (2.0 * U[:, 3:6] - 1.0)
    near = U[:, 6] >= 0.90
    t = 4.0 * U[:, 7] - 2.0
    noise = 2.0 * U[:, 8:11] - 1.0
    Y[near] = t[near, None] * X[near] + 1e-8 * noise[near]
    return X, Y, near


def _dependent_pairs(rng: np.random.Generator, n: int, box: float = 10.0):
    """Exactly dependent pairs ``y = t*x`` with t a signed power of two.

    Power-of-two scalings are exact in binary floating point, so the cross
    product of such a pair vanishes identically and the degenerate branch of
    the norm is tested without rounding slack.
    """
    U = rng.uniform(0.0, 1.0, (n, 5))
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

    def to_dict(self) -> dict:
        return {"count": self.count, "worst": self.worst}


@dataclass
class AxiomReport:
    """Result of a randomized run against the four norm axioms."""

    trials: int
    b1: AxiomViolations = field(default_factory=AxiomViolations)
    b2: AxiomViolations = field(default_factory=AxiomViolations)
    b3: AxiomViolations = field(default_factory=AxiomViolations)
    b4: AxiomViolations = field(default_factory=AxiomViolations)
    kappa_observed: float = 0.0
    degenerate: int = 0

    @property
    def total_violations(self) -> int:
        return self.b1.count + self.b2.count + self.b3.count + self.b4.count

    def to_dict(self) -> dict:
        return {
            "trials": self.trials,
            "violations": {
                "B1": self.b1.to_dict(),
                "B2": self.b2.to_dict(),
                "B3": self.b3.to_dict(),
                "B4": self.b4.to_dict(),
            },
            "kappa_observed": self.kappa_observed,
            "degenerate": self.degenerate,
            "total_violations": self.total_violations,
        }


def _record_worst(slot: AxiomViolations, mask: np.ndarray, severity: np.ndarray, make_witness):
    idx = np.nonzero(mask)[0]
    slot.count += int(idx.size)
    if idx.size:
        w = idx[np.argmax(severity[idx])]
        slot.worst = make_witness(int(w))


def _triangle_ratios(space: SpaceDescriptor, X, Y, Z):
    """Per-row ratios ``|x, y+z| / (|x, y| + |x, z|)`` (0 where the denominator
    is degenerate) and the mask of nondegenerate rows."""
    num = eval_norm_rows(space, X, Y + Z)
    den = eval_norm_rows(space, X, Y) + eval_norm_rows(space, X, Z)
    scale = (np.linalg.norm(X, axis=1) *
             np.maximum(np.linalg.norm(Y, axis=1), np.linalg.norm(Z, axis=1))) ** space.beta
    valid = den > 1e-12 * (1.0 + scale)
    ratio = np.zeros_like(num)
    ratio[valid] = num[valid] / den[valid]
    return ratio, valid


def check_axioms(space: SpaceDescriptor, trials: int, seed: int) -> AxiomReport:
    """Sample random configurations and count violations of axioms B1-B4.

    B1 is checked on exactly dependent pairs (norm below ``REL_TOL * scale``),
    B2 as exact symmetry (absolute ``EXACT_TOL``), B3 as beta-homogeneity with
    slack ``REL_TOL * (1 + |x,y|)``, and B4 against the *declared* kappa with
    relative slack ``REL_TOL``.  Deterministic given the seed.
    """
    if trials < 1:
        raise ValueError("trials must be >= 1")
    rng = np.random.default_rng(seed)
    report = AxiomReport(trials=trials)

    # B1: exactly dependent pairs
    Xd, Yd, t = _dependent_pairs(rng, trials)
    vals = eval_norm_rows(space, Xd, Yd)
    scale = (np.linalg.norm(Xd, axis=1) * np.linalg.norm(Yd, axis=1)) ** space.beta
    bad = vals > REL_TOL * (1.0 + scale)
    _record_worst(report.b1, bad, vals, lambda i: {
        "x": Xd[i].tolist(), "y": Yd[i].tolist(), "lambda": float(t[i]), "value": float(vals[i]),
    })

    # B2 / B3 on the pair mixture
    X, Y, near = sample_pairs(rng, trials)
    lam = rng.uniform(-10.0, 10.0, trials)
    lam[np.abs(lam) < 1e-3] = 1.0
    v_xy = eval_norm_rows(space, X, Y)
    v_yx = eval_norm_rows(space, Y, X)
    d_sym = np.abs(v_xy - v_yx)
    bad2 = d_sym > EXACT_TOL
    _record_worst(report.b2, bad2, d_sym, lambda i: {
        "x": X[i].tolist(), "y": Y[i].tolist(), "diff": float(d_sym[i]),
    })

    # homogeneity is measured on the generic population: the near-dependent
    # mixture targets B1/B4 edge cases, and its cross products are rounding
    # noise, which the comparison would count as spurious at small beta
    v_lam = eval_norm_rows(space, lam[:, None] * X, Y)
    expected = np.abs(lam) ** space.beta * v_xy
    d_hom = np.abs(v_lam - expected)
    bad3 = ~near & (d_hom > REL_TOL * (1.0 + v_xy))
    with np.errstate(divide="ignore", invalid="ignore"):
        ratio3 = np.where(v_xy > 0, v_lam / v_xy, 0.0)
    _record_worst(report.b3, bad3, d_hom, lambda i: {
        "x": X[i].tolist(), "y": Y[i].tolist(), "lambda": float(lam[i]),
        "measured_ratio": float(ratio3[i]), "expected_ratio": float(np.abs(lam[i]) ** space.beta),
        "error": float(d_hom[i]),
    })

    # B4 on the triple mixture
    Xt, Yt, Zt = sample_triples(rng, trials)
    ratio, valid = _triangle_ratios(space, Xt, Yt, Zt)
    report.degenerate += int((~valid).sum())
    bad4 = valid & (ratio > space.kappa * (1.0 + REL_TOL))
    _record_worst(report.b4, bad4, ratio, lambda i: {
        "x": Xt[i].tolist(), "y": Yt[i].tolist(), "z": Zt[i].tolist(), "ratio": float(ratio[i]),
    })
    report.kappa_observed = float(ratio.max()) if valid.any() else 0.0
    return report


def estimate_kappa(space: SpaceDescriptor, trials: int, seed: int) -> float:
    """Empirical lower bound on the modulus of concavity.

    Returns the supremum over sampled triples of
    ``|x, y+z| / (|x, y| + |x, z|)``; degenerate denominators are skipped.
    The true modulus can only be larger, never smaller.
    """
    if trials < 1:
        raise ValueError("trials must be >= 1")
    rng = np.random.default_rng(seed)
    ratio, valid = _triangle_ratios(space, *sample_triples(rng, trials))
    return float(ratio[valid].max()) if valid.any() else 0.0
