"""Fixed-point iteration engine for scale-branch operators.

The operator acts on functions of one real variable with values in a
quasi-(2,beta)-normed space:

    (T f)(x) = sum_i coef_i * f(scale_i * x)

Each branch carries a Lipschitz weight ``L_i = kappa**e_i * |coef_i|**beta``
(``e_i`` in {1, 2}); the induced comparison operator on scalar error
functions is

    (Lambda delta)(x) = sum_i L_i * delta(scale_i * x).

Power-form error functions ``sum_j c_j |x|^{s_j}`` are closed under Lambda
(each term is rescaled by ``rho_s = sum_i L_i |scale_i|^s``), which gives a
closed form for the iterated error series.  The iteration itself runs either
through exact per-term multipliers (for functions given as signed-power term
sums) or, for any other callable, level by level over the multiplicative
orbit of the sample points: the branch scalings commute, so T^n expands into
C(n+j-1, j-1) multinomial terms for j branches, and N iterations take
O(N^j) time and hold O(N^(j-1)) values.
"""

from __future__ import annotations

import csv
import itertools
import math
from dataclasses import dataclass, field
from typing import Callable, Optional, Sequence

import numpy as np

from .envelope import theta
from .radical import VectorFunction
from .spaces import SpaceDescriptor, _as_vector, eval_norm

__all__ = [
    "Branch",
    "IterationSpec",
    "ScalarErrorFn",
    "EpsilonStarResult",
    "GeometricBound",
    "UniquenessCheck",
    "FixedPointReport",
    "apply_T",
    "apply_Lambda",
    "epsilon_star",
    "geometric_bound",
    "iterate",
    "check_uniqueness_condition",
    "load_sample_grid",
]

# Cap on the terms of the deepest level, C(n_max + j - 1, j - 1), that
# ``iterate`` expands for a callable phi with j branches; each term costs one
# phi call per sample.  The default n_max = 200 with 3 branches needs 20,301.
MAX_ORBIT_TERMS = 50_000


@dataclass(frozen=True)
class Branch:
    """One scale branch: self-map x -> scale*x, coefficient inside T, and the
    kappa exponent (1 or 2) entering its Lipschitz weight."""

    scale: float
    coef: float
    kappa_exp: int = 1

    def __post_init__(self):
        if self.scale == 0.0 or not math.isfinite(self.scale):
            raise ValueError("branch scale must be nonzero and finite")
        if self.kappa_exp not in (1, 2):
            raise ValueError("kappa_exp must be 1 or 2")


@dataclass(frozen=True)
class IterationSpec:
    """Branches plus the codomain space.

    ``power_hints`` optionally carries exact ``root_n``-th powers of the
    branch scales (e.g. u^3 = m^3/a for the radical substitution): per-term
    multipliers then exponentiate through those values instead of the
    irrational roots, which keeps exact eigen-multipliers exact in fp.
    """

    branches: tuple
    space: SpaceDescriptor
    power_hints: Optional[tuple] = None
    hint_root: int = 3

    def __init__(self, branches: Sequence[Branch], space: SpaceDescriptor,
                 power_hints: Optional[Sequence[float]] = None, hint_root: int = 3):
        if len(branches) < 1:
            raise ValueError("at least one branch required")
        if power_hints is not None and len(power_hints) != len(branches):
            raise ValueError("power_hints must match the branch count")
        object.__setattr__(self, "branches", tuple(branches))
        object.__setattr__(self, "space", space)
        object.__setattr__(self, "power_hints",
                           None if power_hints is None else tuple(power_hints))
        object.__setattr__(self, "hint_root", hint_root)

    @property
    def weights(self) -> tuple:
        """Lipschitz weights L_i = kappa**e_i * |coef_i|**beta."""
        k, b = self.space.kappa, self.space.beta
        return tuple(k ** br.kappa_exp * abs(br.coef) ** b for br in self.branches)

    @property
    def theta(self) -> float:
        return theta(self.space.beta, self.space.kappa)

    def to_dict(self) -> dict:
        return {
            "branches": [
                {"scale": br.scale, "coef": br.coef, "kappa_exp": br.kappa_exp}
                for br in self.branches
            ],
            "space": self.space.to_dict(),
        }


@dataclass
class ScalarErrorFn:
    """Error majorant ``eps(x, z) = (sum_j c_j |x|^{s_j}) * weight(z)``.

    ``weight`` is a fixed evaluable factor on the codomain (default constant
    1).  The power-term family is closed under the Lambda action.
    """

    terms: list  # list of (c, s) with c >= 0
    weight: Optional[Callable] = None

    def __post_init__(self):
        self.terms = [(float(c), float(s)) for c, s in self.terms]
        for c, _ in self.terms:
            if c < 0:
                raise ValueError("term coefficients must be nonnegative")

    def eval(self, x: float, z=None) -> float:
        total = sum(c * abs(x) ** s for c, s in self.terms)
        if self.weight is not None and z is not None:
            total *= self.weight(z)
        return total

    def lambda_image(self, spec: IterationSpec) -> "ScalarErrorFn":
        """Closed-form image under Lambda: term (c, s) -> (c * rho_s, s)."""
        L = spec.weights
        new_terms = []
        for c, s in self.terms:
            rho = sum(Li * abs(br.scale) ** s for Li, br in zip(L, spec.branches))
            new_terms.append((c * rho, s))
        return ScalarErrorFn(new_terms, weight=self.weight)


def _call_fn(f, x: float):
    if isinstance(f, VectorFunction):
        return f(x)
    return np.asarray(f(x), dtype=float)


def apply_T(spec: IterationSpec, f, x: float) -> np.ndarray:
    """(T f)(x) = sum_i coef_i * f(scale_i * x).  The domain excludes 0."""
    if x == 0.0:
        raise ValueError("x = 0 is outside the domain of the operator")
    total = None
    for br in spec.branches:
        contrib = br.coef * _call_fn(f, br.scale * x)
        total = contrib if total is None else total + contrib
    return total


def apply_Lambda(spec: IterationSpec, delta: ScalarErrorFn, x: float, z=None):
    """Numeric value of (Lambda delta)(x) plus the closed-form image."""
    if x == 0.0:
        raise ValueError("x = 0 is outside the domain of the operator")
    L = spec.weights
    value = sum(Li * delta.eval(br.scale * x, z) for Li, br in zip(L, spec.branches))
    return value, delta.lambda_image(spec)


@dataclass
class EpsilonStarResult:
    value: float
    converged: bool
    terms_used: int


def epsilon_star(spec: IterationSpec, eps: ScalarErrorFn, x: float, theta_exp: float,
                 tol: float = 1e-12, n_max: int = 512, z=None) -> EpsilonStarResult:
    """Sum of the theta-powered iterated error series at x.

    Uses the closed-form power-term recursion; stops when the current term
    falls below ``tol * partial_sum`` or after ``n_max`` terms.  A persistent
    term ratio >= 1 is reported as divergence, not raised.
    """
    if not (0.0 < theta_exp <= 1.0):
        raise ValueError("theta must lie in (0,1]")
    if n_max < 1:
        raise ValueError("n_max must be >= 1")
    current = eps
    total = 0.0
    prev_term = None
    rising = 0
    for n in range(n_max):
        term = current.eval(x, z) ** theta_exp
        total += term
        if term == 0.0:
            return EpsilonStarResult(total, True, n + 1)
        if total > 0 and term < tol * total:
            return EpsilonStarResult(total, True, n + 1)
        if prev_term is not None:
            if term >= prev_term:
                rising += 1
                if rising >= 8:
                    return EpsilonStarResult(math.inf, False, n + 1)
            else:
                rising = 0
        prev_term = term
        current = current.lambda_image(spec)
    # undecided after n_max terms: condition on the trailing ratio
    converged = prev_term is not None and total > 0 and prev_term < tol * total
    return EpsilonStarResult(total if converged else math.inf, converged, n_max)


@dataclass
class GeometricBound:
    """Closed-form bounds for the geometric case (Lambda eps = q eps).

    ``bound`` is the deviation bound ``eps^theta / (1 - q^theta)``;
    ``crude_bound`` is the uniqueness-side quantity ``eps^theta / (1-q)^theta``.
    Concavity of t^theta gives ``q^theta + (1-q)^theta >= 1`` for theta <= 1,
    so ``bound >= crude_bound`` with equality exactly at theta = 1 or q = 0:
    the theta-powered series needs the larger constant on the uniqueness side.
    """

    bound: float
    crude_bound: float

    def __post_init__(self):
        if self.bound < self.crude_bound * (1.0 - 1e-12):
            raise AssertionError("geometric bound fell below its theta=1 floor")


def geometric_bound(eps_value: float, q: float, theta_exp: float) -> GeometricBound:
    if not (0.0 <= q < 1.0):
        raise ValueError("q must lie in [0,1)")
    if not (0.0 < theta_exp <= 1.0):
        raise ValueError("theta must lie in (0,1]")
    num = eps_value ** theta_exp
    return GeometricBound(bound=num / (1.0 - q ** theta_exp),
                          crude_bound=num / (1.0 - q) ** theta_exp)


@dataclass
class UniquenessCheck:
    satisfied: bool
    divergent: bool
    lhs: float  # sum (Lambda^n eps)^theta
    rhs: float  # (M * sum Lambda^n eps)^theta

    def __bool__(self) -> bool:
        return self.satisfied


def _series_with_tail(spec: IterationSpec, eps: ScalarErrorFn, x: float,
                      power: float, n_max: int):
    """Partial sum of (Lambda^n eps)^power plus a certified geometric tail.

    Returns (lower, upper, divergent); the tail bound comes from the observed
    trailing term ratio when it is < 1.
    """
    current = eps
    total = 0.0
    prev = None
    ratio = None
    for _ in range(n_max):
        term = current.eval(x) ** power
        total += term
        if term == 0.0:
            return total, total, False
        if prev is not None and prev > 0:
            ratio = term / prev
        prev = term
        current = current.lambda_image(spec)
    if ratio is None:
        return total, total, False
    if ratio >= 1.0:
        return total, math.inf, True
    tail = prev * ratio / (1.0 - ratio)
    return total, total + tail, False


def check_uniqueness_condition(spec: IterationSpec, eps: ScalarErrorFn, x: float,
                               theta_exp: float, M: float, n_max: int = 256) -> UniquenessCheck:
    """Test ``sum (Lambda^n eps)^theta <= (M sum Lambda^n eps)^theta``.

    Both series are evaluated by partial sums with geometric tail
    certification; a divergent plain series yields ``satisfied = False`` with
    the divergent flag set.
    """
    if M <= 0:
        raise ValueError("M must be positive")
    lhs_lo, lhs_hi, lhs_div = _series_with_tail(spec, eps, x, theta_exp, n_max)
    plain_lo, plain_hi, plain_div = _series_with_tail(spec, eps, x, 1.0, n_max)
    if plain_div:
        return UniquenessCheck(False, True, lhs_hi, math.inf)
    if lhs_div:
        return UniquenessCheck(False, True, math.inf, (M * plain_hi) ** theta_exp)
    rhs = (M * plain_lo) ** theta_exp
    satisfied = lhs_hi <= rhs * (1.0 + 1e-12)
    return UniquenessCheck(satisfied, False, lhs_hi, rhs)


# ---------------------------------------------------------------------------
# iteration
# ---------------------------------------------------------------------------

@dataclass
class FixedPointReport:
    converged: bool
    iterations: int
    psi_values: dict          # sample x -> codomain vector (list)
    sup_residual: float       # sup over samples/witnesses of |T psi - psi, y|
    K_observed: float
    bound_entries: list = field(default_factory=list)
    theta: float = 1.0
    eps_star_converged: bool = True

    def to_dict(self) -> dict:
        return {
            "converged": self.converged,
            "iterations": self.iterations,
            "psi_values": {str(k): v for k, v in self.psi_values.items()},
            "sup_residual": self.sup_residual,
            "K_observed": self.K_observed,
            "bound_entries": self.bound_entries,
            "theta": self.theta,
            "eps_star_converged": self.eps_star_converged,
        }


def _term_multiplier(spec: IterationSpec, exponent: float, signed: bool) -> float:
    """Exact per-step factor of one signed-power term under T."""
    total = 0.0
    for idx, br in enumerate(spec.branches):
        if spec.power_hints is not None:
            pw = spec.power_hints[idx]
            factor = abs(pw) ** (exponent / spec.hint_root)
            negative = pw < 0
        else:
            factor = abs(br.scale) ** exponent
            negative = br.scale < 0
        if signed and negative:
            factor = -factor
        total += br.coef * factor
    return total


def _iterate_terms(spec: IterationSpec, phi: VectorFunction, sample_xs, witnesses,
                   tol: float, n_max: int):
    """Per-term geometric iteration for term-family functions.

    Every signed-power term is an eigenvector of T (multiplier ``rho_s``) and
    the additive constant is rescaled by ``sum coef_i`` each step, so the
    iterates stay in the family with exactly updated coefficients.
    """
    mults = [_term_multiplier(spec, t.exponent, t.mode == "SIGNED") for t in phi.terms]
    const_mult = sum(br.coef for br in spec.branches)
    coefs = [t.coef for t in phi.terms]
    const = phi.constant.copy()

    def eval_at(x, cs, cst):
        total = cst.copy()
        for (c, t) in zip(cs, phi.terms):
            mag = abs(x) ** t.exponent
            if t.mode == "SIGNED" and x < 0:
                mag = -mag
            total = total + c * mag * np.asarray(t.direction, dtype=float)
        return total

    streak = 0
    n_done = 0
    for n in range(1, n_max + 1):
        new_coefs = [c * m for c, m in zip(coefs, mults)]
        new_const = const * const_mult
        step = 0.0
        for x in sample_xs:
            delta = eval_at(x, new_coefs, new_const) - eval_at(x, coefs, const)
            for y in witnesses:
                step = max(step, eval_norm(spec.space, delta, y))
        coefs, const = new_coefs, new_const
        n_done = n
        streak = streak + 1 if step < tol else 0
        if streak >= 3:
            break
    converged = streak >= 3
    psi = VectorFunction(
        terms=[type(t)(coef=c, exponent=t.exponent, mode=t.mode, direction=t.direction)
               for c, t in zip(coefs, phi.terms)],
        constant=const,
    )
    return psi, n_done, converged


def _multinomial_terms(coefs: Sequence[float], n: int):
    """The terms of T^n for commuting scale branches with coefficients ``coefs``.

    Returns ``(E, coeffs)``: the rows of the integer array ``E`` are the
    tuples of ``len(coefs)`` nonnegative integers summing to ``n``, in
    lexicographic order, and ``coeffs[r] = multinomial(n; E[r]) *
    prod_i coefs[i]**E[r, i]`` (a list of floats).  The magnitude is ``exp``
    of a log-magnitude built from ``lgamma`` with the sign kept apart, so
    large orders do not overflow before the coefficient powers shrink them;
    a zero coefficient gives exact zeros on its branch.  ``exp`` is the scalar
    ``math.exp`` (numpy's vector exp may round differently).
    """
    j = len(coefs)
    count = math.comb(n + j - 1, j - 1)
    # stars and bars: ascending positions of j - 1 bars among n + j - 1 slots
    # give the exponent tuples in lexicographic order
    bars = np.fromiter(itertools.chain.from_iterable(
        itertools.combinations(range(n + j - 1), j - 1)), dtype=np.int64, count=count * (j - 1))
    edges = np.hstack([np.full((count, 1), -1), bars.reshape(count, j - 1),
                       np.full((count, 1), n + j - 1)])
    E = np.diff(edges, axis=1) - 1
    lg = np.array([math.lgamma(k + 1) for k in range(n + 1)])
    logmag = np.full(count, lg[n])
    for col in E.T:
        logmag -= lg[col]
    odd = np.zeros(count, dtype=np.int64)
    for col, c in zip(E.T, coefs):
        if c == 0.0:
            logmag[col > 0] = -math.inf
        else:
            logmag += col * math.log(abs(c))
        if c < 0.0:
            odd += col
    signs = (1 - 2 * (odd % 2)).tolist()
    return E, [sg * math.exp(v) for sg, v in zip(signs, logmag.tolist())]


def _orbit_level(spec: IterationSpec, phi, n: int, sample_xs) -> dict:
    """(T^n phi)(x) at every sample x, from phi on the level-n orbit points."""
    E, coeffs = _multinomial_terms([br.coef for br in spec.branches], n)
    products = np.prod(np.array([br.scale for br in spec.branches]) ** E, axis=1)
    weights = np.array(coeffs)[:, None]
    out = {}
    for x in sample_xs:
        terms = weights * np.array([_call_fn(phi, p) for p in (products * x).tolist()])
        out[x] = np.array([math.fsum(col) for col in terms.T.tolist()])
    return out


def _iterate_generic(spec: IterationSpec, phi, phi_at: dict, sample_xs, witnesses,
                     tol: float, n_max: int):
    """Level-by-level iteration on the multiplicative orbit of each sample.

    The branch scalings commute, so with j branches

        (T^n phi)(x) = sum_{|e| = n} multinomial(n; e) prod_i coef_i^e_i
                       * phi(x prod_i scale_i^e_i)

    over the C(n+j-1, j-1) exponent tuples e.  Each level's weights and
    scale products are built once and shared by the samples, phi is called
    once per orbit point, and every component is summed with ``math.fsum``
    (as ``ExpansionTable.apply`` does).  Only one level is held at a time:
    N iterations take O(N^j) time and O(N^(j-1)) memory.  ``phi_at`` holds
    phi at the samples (level 0).

    Returns psi = T^{n*} phi, its residual partner T^{n*+1} phi (level
    n*+1, whose points are the branch shifts of psi's orbit, each evaluated
    once), the iteration count n* and the convergence flag.
    """
    prev = phi_at
    streak = 0
    n_done = 0
    for n in range(1, n_max + 1):
        cur = _orbit_level(spec, phi, n, sample_xs)
        step = 0.0
        for x in sample_xs:
            delta = cur[x] - prev[x]
            for y in witnesses:
                step = max(step, eval_norm(spec.space, delta, y))
        prev = cur
        n_done = n
        streak = streak + 1 if step < tol else 0
        if streak >= 3:
            break
    return prev, _orbit_level(spec, phi, n_done + 1, sample_xs), n_done, streak >= 3


def iterate(spec: IterationSpec, phi, eps: ScalarErrorFn, sample_xs: Sequence[float],
            witnesses: Sequence, tol: float = 1e-10, n_max: int = 200) -> FixedPointReport:
    """Iterate T from phi on the samples and verify the error bound.

    Convergence requires three consecutive sup-steps (over samples and
    witnesses, measured in the space norm) below ``tol``.  The report records
    the fixed-point residual, the theta-powered deviation bound entries and
    the smallest constant K that satisfies them on the samples.  A callable
    phi (not a ``VectorFunction``) whose level ``n_max`` has more than
    ``MAX_ORBIT_TERMS`` terms is refused with ``ValueError`` before phi is
    called.
    """
    if any(x == 0.0 for x in sample_xs):
        raise ValueError("sample points must avoid 0")
    witnesses = [_as_vector(w, spec.space.dim) for w in witnesses]
    th = spec.theta
    generic = not isinstance(phi, VectorFunction)
    if generic:
        j = len(spec.branches)
        terms = math.comb(n_max + j - 1, j - 1)
        if terms > MAX_ORBIT_TERMS:
            raise ValueError(
                f"callable phi with {j} branches at n_max = {n_max} needs {terms} orbit "
                f"terms at its deepest level, over the cap MAX_ORBIT_TERMS = {MAX_ORBIT_TERMS}")
    phi_at = {x: _call_fn(phi, x) for x in sample_xs}

    if generic:
        psi_at, tpsi_at, iterations, converged = _iterate_generic(
            spec, phi, phi_at, sample_xs, witnesses, tol, n_max)
    else:
        psi, iterations, converged = _iterate_terms(spec, phi, sample_xs, witnesses, tol, n_max)
        psi_at = {x: psi(x) for x in sample_xs}
        tpsi_at = {x: apply_T(spec, psi, x) for x in sample_xs}

    sup_residual = 0.0
    for x in sample_xs:
        delta = tpsi_at[x] - psi_at[x]
        for y in witnesses:
            sup_residual = max(sup_residual, eval_norm(spec.space, delta, y))

    K_observed = 0.0
    bound_entries = []
    eps_star_ok = True
    for x in sample_xs:
        star = epsilon_star(spec, eps, x, th)
        eps_star_ok = eps_star_ok and star.converged
        for wi, y in enumerate(witnesses):
            dev = eval_norm(spec.space, phi_at[x] - psi_at[x], y) ** th
            weight = eps.weight(y) ** th if eps.weight is not None else 1.0
            star_xy = star.value * weight
            if star_xy > 0 and math.isfinite(star_xy):
                K_observed = max(K_observed, dev / star_xy)
            elif dev > 1e-12:
                K_observed = math.inf
            bound_entries.append({
                "x": float(x), "witness": wi, "deviation_pow_theta": dev,
                "eps_star": star_xy,
            })
    for entry in bound_entries:
        entry["bound"] = K_observed * entry["eps_star"]

    return FixedPointReport(
        converged=converged,
        iterations=iterations,
        psi_values={x: np.asarray(psi_at[x]).tolist() for x in sample_xs},
        sup_residual=sup_residual,
        K_observed=K_observed,
        bound_entries=bound_entries,
        theta=th,
        eps_star_converged=eps_star_ok,
    )


def load_sample_grid(path) -> list:
    """Read a sample grid from CSV, one real per line."""
    out = []
    with open(path, newline="") as fh:
        for row in csv.reader(fh):
            if not row or not row[0].strip():
                continue
            out.append(float(row[0]))
    return out
