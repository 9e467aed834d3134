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
from typing import Callable, Sequence

import numpy as np

__all__ = [
    "EquationParams",
    "Term",
    "VectorFunction",
    "NoExactSolutionError",
    "InadmissiblePairError",
    "real_root",
    "admissibility",
    "is_admissible",
    "residual",
    "residual_inhom",
    "make_solution",
    "check_structure",
    "StructureReport",
    "sample_admissible_pairs",
    "pair_shortfall",
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

    def to_dict(self) -> dict:
        return {"a": self.a, "b": self.b, "c": self.c, "d": self.d, "root_n": self.root_n}

    @staticmethod
    def from_dict(d: dict) -> "EquationParams":
        return EquationParams(a=float(d["a"]), b=float(d["b"]), c=float(d["c"]),
                              d=float(d["d"]), root_n=int(d.get("root_n", 3)))


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

    def to_dict(self) -> dict:
        return {
            "terms": [
                {"coef": t.coef, "exponent": t.exponent, "mode": t.mode,
                 "direction": t.direction.tolist()}
                for t in self.terms
            ],
            "constant": self.constant.tolist(),
        }

    @staticmethod
    def from_dict(d: dict) -> "VectorFunction":
        terms = [
            Term(coef=float(t["coef"]), exponent=float(t["exponent"]),
                 mode=t.get("mode", "ABS"), direction=t["direction"])
            for t in d.get("terms", [])
        ]
        return VectorFunction(terms=terms, constant=d.get("constant"))


def admissibility(eq: EquationParams, x: float, y: float):
    """Return (admissible, reason).  Pairs too close to the excluded diagonal
    ``root(a) x = +- root(b) y`` (within a relative band) are rejected, as are
    zero arguments."""
    if x == 0.0:
        return False, "x = 0 is excluded from the domain"
    if y == 0.0:
        return False, "y = 0 is excluded from the domain"
    lx = eq.root_a * x
    ly = eq.root_b * y
    band = EXCLUSION_BAND * max(abs(lx), abs(ly))
    if abs(lx - ly) < band:
        return False, "root(a)*x = root(b)*y within the exclusion band"
    if abs(lx + ly) < band:
        return False, "root(a)*x = -root(b)*y within the exclusion band"
    return True, None


def is_admissible(eq: EquationParams, x: float, y: float) -> bool:
    return admissibility(eq, x, y)[0]


def _radical_args(eq: EquationParams, x: float, y: float):
    n = eq.root_n
    axn = eq.a * x ** n
    byn = eq.b * y ** n
    return real_root(axn + byn, n), real_root(axn - byn, n)


def residual(eq: EquationParams, f, x: float, y: float,
             check_domain: bool = True) -> np.ndarray:
    """Equation residual LHS - RHS at an admissible pair; error otherwise.

    ``check_domain=False`` evaluates the raw formula anyway (the unrestricted
    equation is defined on all of R; the exclusion band only matters for the
    approximate/hyperstability setting).
    """
    if check_domain:
        ok, reason = admissibility(eq, x, y)
        if not ok:
            raise InadmissiblePairError(reason)
    t1, t2 = _radical_args(eq, x, y)
    return f(t1) + f(t2) - eq.c * f(x) - eq.d * f(y)


def residual_inhom(eq: EquationParams, f, F: Callable, x: float, y: float) -> np.ndarray:
    """Residual of the inhomogeneous equation: LHS - RHS - F(x, y)."""
    return residual(eq, f, x, y) - np.asarray(F(x, y), dtype=float)


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
        if not math.isclose(eq.a ** 2, eq.c / 2.0, rel_tol=1e-12, abs_tol=0.0):
            failed.append("a^2 = c/2")
        if not math.isclose(eq.b ** 2, eq.d / 2.0, rel_tol=1e-12, abs_tol=0.0):
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
    grid_size: int

    def max_deviation(self) -> float:
        return max(self.deviations.values()) if self.deviations else 0.0

    def passed(self, tol: float) -> bool:
        return self.max_deviation() <= tol

    def to_dict(self) -> dict:
        return {"deviations": self.deviations, "grid_size": self.grid_size}


def check_structure(eq: EquationParams, f, grid: Sequence[float], tol: float = 1e-10) -> StructureReport:
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
    return StructureReport(deviations=dev, grid_size=len(grid))


def sample_admissible_pairs(eq: EquationParams, lo: float, hi: float, n: int,
                            rng: np.random.Generator):
    """Draw residual pairs: yield ``(x, y, admissible)`` for every draw.

    x and then y are each ``uniform(lo, hi)`` times a random sign.  The
    generator stops once ``n`` draws were admissible or after
    ``DRAWS_PER_PAIR * n`` draws, so the draws for n pairs are a prefix of
    the draws for more pairs from the same generator state.
    """
    found = 0
    for _ in range(DRAWS_PER_PAIR * n):
        if found == n:
            return
        x = rng.uniform(lo, hi) * rng.choice([-1.0, 1.0])
        y = rng.uniform(lo, hi) * rng.choice([-1.0, 1.0])
        ok = admissibility(eq, x, y)[0]
        found += ok
        yield x, y, ok


def pair_shortfall(requested: int, admissible: int) -> dict:
    """``{"violations": [...]}`` for a residual check whose sampler stopped
    before ``requested`` admissible pairs, after all its ``DRAWS_PER_PAIR *
    requested`` draws (a residual over too few pairs proves nothing); ``{}``
    otherwise, so the key appears in a report only on a shortfall."""
    if admissible >= requested:
        return {}
    return {"violations": [{
        "name": "no admissible pairs" if admissible == 0 else "too few admissible pairs",
        "requested_pairs": requested, "admissible_pairs": admissible,
        "rejected_pairs": DRAWS_PER_PAIR * requested - admissible}]}
