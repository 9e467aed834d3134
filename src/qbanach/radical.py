"""The radical functional equation and its continuous solution family.

For nonzero reals a, b, c, d and an odd root degree n (default 3) the
equation reads

    f(root(a x^n + b y^n)) + f(root(a x^n - b y^n)) = c f(x) + d f(y)

on pairs with ``root(a) x != +- root(b) y`` (``root`` is the sign-preserving
real n-th root).  Continuous solutions have the form
``f(x) = theta * x^(2n) + w`` where ``a^2 = c/2``, ``b^2 = d/2`` and a nonzero
constant w additionally requires ``c + d = 2``.

Functions are represented as finite sums of signed-power terms times fixed
direction vectors plus an additive constant vector; that family is closed
under the scale-branch operators used by the fixed-point machinery.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field
from typing import Sequence

import numpy as np

__all__ = [
    "EquationParams",
    "Term",
    "VectorFunction",
    "NoExactSolutionError",
    "InadmissiblePairError",
    "real_root",
    "admissibility",
    "residual",
    "residual_rows",
    "make_solution",
    "check_structure",
    "StructureReport",
    "sample_admissible_pairs",
    "residual_check",
]

EXCLUSION_BAND = 1e-6  # relative half-width of the excluded diagonal
# draws per requested admissible pair before the pair sampler gives up: a
# range whose pairs all sit on the excluded diagonal (a one-point grid with
# a = b) would otherwise never end
DRAWS_PER_PAIR = 10


class NoExactSolutionError(ValueError):
    """Raised when the requested parameters admit no exact continuous solution."""

    def __init__(self, failed: list):
        self.failed = list(failed)
        super().__init__(
            "no exact solution: failed constraint(s) " + ", ".join(self.failed)
        )


class InadmissiblePairError(ValueError):
    """Raised for (x, y) pairs violating the equation's domain restrictions."""


def real_root(t: float, n: int = 3) -> float:
    """Sign-preserving real n-th root for odd n; real_root(t**n, n) == t."""
    if n % 2 == 0 or n < 1:
        raise ValueError("root degree must be a positive odd integer")
    return math.copysign(abs(t) ** (1.0 / n), t)


@dataclass(frozen=True)
class EquationParams:
    a: float
    b: float
    c: float
    d: float
    root_n: int = 3

    def __post_init__(self):
        if self.a * self.b * self.c * self.d == 0.0:
            raise ValueError("coefficients a, b, c, d must all be nonzero")
        if not all(math.isfinite(v) for v in (self.a, self.b, self.c, self.d)):
            raise ValueError("coefficients must be finite")
        if self.root_n < 3 or self.root_n % 2 == 0:
            raise ValueError("root_n must be an odd integer >= 3")

    @property
    def root_a(self) -> float:
        return real_root(self.a, self.root_n)

    @property
    def root_b(self) -> float:
        return real_root(self.b, self.root_n)


@dataclass(frozen=True)
class Term:
    """One signed-power term ``coef * m(x) * direction`` with
    ``m(x) = |x|^exponent`` (ABS) or ``sign(x) |x|^exponent`` (SIGNED)."""

    coef: float
    exponent: float
    mode: str = "ABS"
    direction: np.ndarray = field(default_factory=lambda: np.array([1.0]))

    def __post_init__(self):
        if self.mode not in ("ABS", "SIGNED"):
            raise ValueError("mode must be ABS or SIGNED")
        object.__setattr__(self, "direction", np.asarray(self.direction, dtype=float))
        if not np.all(np.isfinite(self.direction)):
            raise ValueError("direction entries must be finite")

    def scalar(self, x: float) -> float:
        mag = abs(x) ** self.exponent
        if self.mode == "SIGNED" and x < 0:
            mag = -mag
        return self.coef * mag


@dataclass
class VectorFunction:
    """Finite sum of signed-power terms times directions, plus a constant."""

    terms: list
    constant: np.ndarray = None

    def __post_init__(self):
        self.terms = list(self.terms)
        dims = {t.direction.shape[0] for t in self.terms}
        if self.constant is not None:
            self.constant = np.asarray(self.constant, dtype=float)
            dims.add(self.constant.shape[0])
        if len(dims) > 1:
            raise ValueError("all directions and the constant must share one dimension")
        dim = dims.pop() if dims else 1
        if self.constant is None:
            self.constant = np.zeros(dim)
        if not np.all(np.isfinite(self.constant)):
            raise ValueError("constant entries must be finite")

    @property
    def dim(self) -> int:
        return self.constant.shape[0]

    def __call__(self, x: float) -> np.ndarray:
        if x == 0.0 and any(t.exponent < 0 for t in self.terms):
            raise ValueError("function with negative exponents is undefined at 0")
        total = self.constant.copy()
        for t in self.terms:
            total += t.scalar(x) * t.direction
        return total

    def rows(self, xs) -> np.ndarray:
        """``[f(x) for x in xs]`` bit for bit as a (len(xs), dim) array: term
        magnitudes stay scalar pows (numpy's array ``**`` rounds differently)."""
        xs = [float(x) for x in xs]
        if 0.0 in xs and any(t.exponent < 0 for t in self.terms):
            raise ValueError("function with negative exponents is undefined at 0")
        total = np.tile(self.constant, (len(xs), 1))
        for t in self.terms:
            total += np.array([t.scalar(x) for x in xs])[:, None] * t.direction
        return total


def admissibility(eq: EquationParams, x: float, y: float):
    """Return (admissible, reason).  Pairs too close to the excluded diagonal
    ``root(a) x = +- root(b) y`` (within a relative band) are rejected, as are
    zero arguments."""
    if x == 0.0:
        return False, "x = 0 is excluded from the domain"
    if y == 0.0:
        return False, "y = 0 is excluded from the domain"
    near_plus, near_minus = _in_band(eq.root_a * x, eq.root_b * y)
    if near_plus:
        return False, "root(a)*x = root(b)*y within the exclusion band"
    if near_minus:
        return False, "root(a)*x = -root(b)*y within the exclusion band"
    return True, None


def _in_band(lx, ly):
    """``(lx = ly, lx = -ly)`` within the relative exclusion band: the one band
    rule, for floats and float64 arrays alike (its ``*``, ``abs``, maximum,
    ``+``, ``-`` and ``<`` round the same on both)."""
    band = EXCLUSION_BAND * np.maximum(abs(lx), abs(ly))
    return abs(lx - ly) < band, abs(lx + ly) < band


def _radical_args(eq: EquationParams, x: float, y: float):
    n = eq.root_n
    axn = eq.a * x ** n
    byn = eq.b * y ** n
    return real_root(axn + byn, n), real_root(axn - byn, n)


def residual(eq: EquationParams, f: VectorFunction, x: float, y: float) -> np.ndarray:
    """Equation residual LHS - RHS at an admissible pair; error otherwise
    (``residual_rows`` evaluates the raw formula at any pair)."""
    ok, reason = admissibility(eq, x, y)
    if not ok:
        raise InadmissiblePairError(reason)
    return residual_rows(eq, f, [x], [y])[0]


def residual_rows(eq: EquationParams, f: VectorFunction, xs, ys, scale: bool = False):
    """Residuals LHS - RHS of the pairs ``(xs[r], ys[r])`` as rows, from one
    ``f.rows`` call (no domain check; the radical arguments are scalar roots).

    ``scale=True`` also returns, per pair, ``|f(t1)| + |f(t2)| + |c| |f(x)| +
    |d| |f(y)|`` in the largest-component norm: the size of the terms that
    cancel, against which a residual is small or not.
    """
    n = len(xs)
    ts = [t for x, y in zip(xs, ys) for t in _radical_args(eq, x, y)]
    F = f.rows(ts + list(xs) + list(ys))
    f1, f2, fx, fy = F[0:2 * n:2], F[1:2 * n:2], F[2 * n:3 * n], F[3 * n:]
    res = f1 + f2 - eq.c * fx - eq.d * fy
    if not scale:
        return res
    m1, m2, mx, my = (np.abs(v).max(axis=1) for v in (f1, f2, fx, fy))
    return res, m1 + m2 + abs(eq.c) * mx + abs(eq.d) * my


def make_solution(eq: EquationParams, theta_coef: float, w, direction) -> VectorFunction:
    """Exact continuous solution ``theta * x^(2n) * direction + w``.

    Requires ``a^2 = c/2`` and ``b^2 = d/2`` whenever theta is nonzero, and
    ``c + d = 2`` whenever w is nonzero; violations raise NoExactSolutionError
    naming every failed constraint.
    """
    direction = np.asarray(direction, dtype=float)
    w = np.zeros_like(direction) if w is None else np.asarray(w, dtype=float)
    failed = []
    if theta_coef != 0.0:
        # a * a, not a ** 2: a square past the float range is inf, which
        # fails the constraint instead of raising OverflowError
        if not math.isclose(eq.a * eq.a, eq.c / 2.0, rel_tol=1e-12, abs_tol=0.0):
            failed.append("a^2 = c/2")
        if not math.isclose(eq.b * eq.b, eq.d / 2.0, rel_tol=1e-12, abs_tol=0.0):
            failed.append("b^2 = d/2")
    if np.any(w != 0.0) and not math.isclose(eq.c + eq.d, 2.0, rel_tol=1e-12, abs_tol=1e-12):
        failed.append("c + d = 2")
    if failed:
        raise NoExactSolutionError(failed)
    terms = []
    if theta_coef != 0.0:
        terms.append(Term(coef=theta_coef, exponent=2.0 * eq.root_n, mode="ABS",
                          direction=direction))
    return VectorFunction(terms=terms, constant=w)


@dataclass
class StructureReport:
    """Per-law maximum deviations of f against the structural identities.

    The scaling laws are checked on the constant-stripped part of f (the
    additive constant w is only consistent with them when w = 0); evenness is
    checked on f itself.  The power law ``f(x) = x^(2n) f(1)`` applies on the
    positive axis and only when ``c + d != 2``.
    """

    deviations: dict

    def max_deviation(self) -> float:
        return max(self.deviations.values()) if self.deviations else 0.0


def check_structure(eq: EquationParams, f, grid: Sequence[float]) -> StructureReport:
    """Check evenness, the (c/2), (d/2), (cd/4) scaling laws and the power law
    on the grid; deviations are reported, never raised."""
    grid = [float(g) for g in grid]
    if not grid or any(g == 0.0 for g in grid):
        raise ValueError("grid must be nonempty and avoid 0")

    w = f.constant if isinstance(f, VectorFunction) else np.zeros_like(np.asarray(f(grid[0])))
    def f0(x):
        return f(x) - w

    n = eq.root_n
    ra, rb = eq.root_a, eq.root_b
    rab = real_root(eq.a * eq.b, n)
    dev = {
        "evenness": 0.0,
        "scale_a": 0.0,
        "scale_b": 0.0,
        "scale_ab": 0.0,
    }
    power_key = "sextic_law" if n == 3 else f"power_{2 * n}_law"
    if not math.isclose(eq.c + eq.d, 2.0, rel_tol=0.0, abs_tol=1e-12):
        dev[power_key] = 0.0
        f0_one = f0(1.0)
    for x in grid:
        dev["evenness"] = max(dev["evenness"], float(np.abs(f(-x) - f(x)).max()))
        dev["scale_a"] = max(dev["scale_a"], float(np.abs(f0(ra * x) - (eq.c / 2.0) * f0(x)).max()))
        dev["scale_b"] = max(dev["scale_b"], float(np.abs(f0(rb * x) - (eq.d / 2.0) * f0(x)).max()))
        dev["scale_ab"] = max(dev["scale_ab"], float(np.abs(f0(rab * x) - (eq.c * eq.d / 4.0) * f0(x)).max()))
        if power_key in dev and x > 0:
            dev[power_key] = max(dev[power_key], float(np.abs(f0(x) - x ** (2 * n) * f0_one).max()))
    return StructureReport(deviations=dev)


def sample_admissible_pairs(eq: EquationParams, lo: float, hi: float, n: int,
                            rng: np.random.Generator):
    """Draw residual pairs: yield ``(x, y, admissible)`` for every draw.

    x and then y are each ``rng.uniform(lo, hi)`` times the sign
    ``(-1.0, 1.0)[rng.integers(2)]``, read in blocks of ``random_raw`` words:
    on a PCG64 with no buffered 32-bit half a draw takes three, x is ``lo +
    (hi - lo) (w0 >> 11) 2^-53`` with sign bit 31 of w1, y the same of w2 with
    bit 63 of w1 (range-2 Lemire draws never reject).  Other generators raise
    ``ValueError``.  The generator stops once ``n`` draws were admissible or
    after ``DRAWS_PER_PAIR * n`` draws, so the draws for n pairs are a prefix
    of the draws for more pairs from the same generator state; blocks
    overdraw, so the state afterwards is unspecified.
    """
    bitgen = rng.bit_generator
    if not isinstance(bitgen, np.random.PCG64) or bitgen.state["has_uint32"]:
        raise ValueError("the pair sampler needs a PCG64 with no buffered 32-bit half")
    lo, width = float(lo), float(hi) - float(lo)
    if not 0.0 <= width < math.inf:
        raise ValueError(f"the pair sampler needs finite lo <= hi, got {lo}, {hi}")
    found, left = 0, DRAWS_PER_PAIR * n
    while found < n and left:
        k = min(2 * (n - found) + 8, left)
        left -= k
        w = bitgen.random_raw(3 * k).reshape(k, 3)
        signs = np.where(w[:, 1:2] >> np.uint64([31, 63]) & 1, 1.0, -1.0)
        xs, ys = (signs * (lo + width * ((w[:, 0::2] >> 11) * 2.0 ** -53))).T
        near_plus, near_minus = _in_band(eq.root_a * xs, eq.root_b * ys)
        oks = (xs != 0.0) & (ys != 0.0) & ~near_plus & ~near_minus
        # Python floats out: a float64 x would round differently in x ** n
        for x, y, ok in zip(xs.tolist(), ys.tolist(), oks.tolist()):
            yield x, y, ok
            found += ok
            if found == n:
                return


def _sup(values) -> float:
    """``max(0.0, v1, v2, ...)``, folded as a loop of Python ``max`` calls."""
    return max([0.0, *np.asarray(values, dtype=float).ravel().tolist()])


def residual_check(eq: EquationParams, f: VectorFunction, lo: float, hi: float, n: int,
                   rng: np.random.Generator):
    """f's residuals on ``sample_admissible_pairs``' pairs, each over the terms
    that cancel (``residual_rows``' scale), so f and c f read alike.  Returns
    the body record, whose ``worst_pair`` is the first pair at the sup (None
    without one), every ``(x, y, admissible)`` draw and the residual rows."""
    draws = list(sample_admissible_pairs(eq, lo, hi, n, rng))
    pairs = [(x, y) for x, y, ok in draws if ok]
    res, scale = residual_rows(eq, f, [x for x, _ in pairs], [y for _, y in pairs], scale=True)
    scaled = np.abs(res).max(axis=1) / np.maximum(scale, 1e-300)
    record = {"sup_residual_scaled": _sup(scaled), "residual_pairs": len(pairs),
              "drawn_pairs": len(draws),
              "worst_pair": dict(zip("xy", pairs[int(np.argmax(scaled))])) if pairs else None}
    return record, draws, res
