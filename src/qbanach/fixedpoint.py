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
from dataclasses import dataclass, field, replace
from typing import Callable, Optional, Sequence

import numpy as np

from .envelope import theta
from .radical import VectorFunction
from .spaces import SpaceDescriptor, _as_vector, eval_norm, eval_norm_rows

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


def _sup_step(space: Optional[SpaceDescriptor], witnesses, old_rows, new_rows,
              where: str) -> float:
    """Sup over rows and witnesses of ``|new - old, y|`` from one norm call
    over the rows x witnesses block, or the largest absolute component when
    ``space`` is None.  A non-finite difference (a diverged iteration) raises
    ``ValueError`` naming ``where``."""
    delta = np.asarray(new_rows, dtype=float) - np.asarray(old_rows, dtype=float)
    if not np.all(np.isfinite(delta)):
        raise ValueError(f"{where}: non-finite iterate (the iteration diverges)")
    if space is None:
        return float(np.abs(delta).max(initial=0.0))
    if delta.size and delta.shape[1] != space.dim:
        raise ValueError(f"dimension mismatch: expected {space.dim}, got {delta.shape[1]}")
    if delta.size == 0 or not len(witnesses):
        return 0.0
    X = np.repeat(delta, len(witnesses), axis=0)
    Y = np.tile(np.asarray(witnesses, dtype=float), (len(delta), 1))
    return float(eval_norm_rows(space, X, Y).max())


def _converge(iterates, state, rows, space: Optional[SpaceDescriptor], witnesses,
              tol: float, n_max: int):
    """Advance ``iterates`` (a generator of ``(state, rows)``) until three
    consecutive sup-steps fall below ``tol``, or for ``n_max`` steps; returns
    the last state and rows, the step count and the flag.  numpy overflow
    warnings are off: ``_sup_step`` names the step of a diverged iterate."""
    streak = n = 0
    with np.errstate(over="ignore", invalid="ignore"):
        for n in range(1, n_max + 1):
            state, new_rows = next(iterates)
            step = _sup_step(space, witnesses, rows, new_rows, f"fixed-point iteration step {n}")
            rows = new_rows
            streak = streak + 1 if step < tol else 0
            if streak >= 3:
                break
    return state, rows, n, streak >= 3


def _term_iterates(spec: IterationSpec, phi: VectorFunction, sample_xs):
    """(T^n phi, its values at the samples), n = 1, 2, ..., for a term-family
    phi.  Every signed-power term is an eigenvector of T (multiplier
    ``rho_s``) and the additive constant is rescaled by ``sum coef_i`` each
    step, so the iterates stay in the family with exactly updated coefficients.
    """
    mults = [_term_multiplier(spec, t.exponent, t.mode == "SIGNED") for t in phi.terms]
    const_mult = sum(br.coef for br in spec.branches)
    psi = phi
    for n in itertools.count(1):
        constant = psi.constant * const_mult
        if not np.all(np.isfinite(constant)):
            raise ValueError(f"fixed-point iteration step {n}: non-finite iterate "
                             "(the iteration diverges)")
        psi = VectorFunction(terms=[replace(t, coef=t.coef * mu)
                                    for t, mu in zip(psi.terms, mults)], constant=constant)
        yield psi, [psi(x) for x in sample_xs]


def _multinomial_terms(branches: Sequence[Branch], n: int):
    """The terms of T^n for commuting scale branches.

    Returns ``(E, coeffs, scales)``: the rows of the integer array ``E`` are
    the tuples of ``len(branches)`` nonnegative integers summing to ``n``, in
    lexicographic order, ``coeffs[r] = multinomial(n; E[r]) *
    prod_i coef_i**E[r, i]`` and ``scales[r] = prod_i scale_i**E[r, i]``
    (float arrays).  The coefficient magnitude is ``exp`` of a log-magnitude
    built from ``lgamma`` with the sign kept apart, so large orders do not
    overflow before the coefficient powers shrink them; a zero coefficient
    gives exact zeros on its branch.  ``exp`` is the scalar ``math.exp``
    (numpy's vector exp may round differently).
    """
    j = len(branches)
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
    for col, br in zip(E.T, branches):
        if br.coef == 0.0:
            logmag[col > 0] = -math.inf
        else:
            logmag += col * math.log(abs(br.coef))
    odd = E @ np.array([br.coef < 0.0 for br in branches], dtype=np.int64)
    signs = (1 - 2 * (odd % 2)).tolist()
    coeffs = np.array([sg * math.exp(v) for sg, v in zip(signs, logmag.tolist())])
    scales = np.prod(np.array([br.scale for br in branches]) ** E, axis=1)
    return E, coeffs, scales


def _apply_terms(coeffs: np.ndarray, scales: np.ndarray, f, x: float) -> np.ndarray:
    """``sum_r coeffs[r] * f(scales[r] * x)``, each component summed with
    ``math.fsum``: one f call per term."""
    terms = coeffs[:, None] * np.array([_call_fn(f, p) for p in (scales * x).tolist()])
    return np.array([math.fsum(col) for col in terms.T.tolist()])


def _orbit_iterates(spec: IterationSpec, phi, sample_xs):
    """(n, T^n phi at the samples), n = 1, 2, ..., level by level on the
    multiplicative orbit of each sample.  The branch scalings commute, so
    with j branches

        (T^n phi)(x) = sum_{|e| = n} multinomial(n; e) prod_i coef_i^e_i
                       * phi(x prod_i scale_i^e_i)

    over the C(n+j-1, j-1) exponent tuples e, with one phi call per orbit
    point.  One level is held at a time: N levels take O(N^j) time and
    O(N^(j-1)) memory.
    """
    for n in itertools.count(1):
        _, coeffs, scales = _multinomial_terms(spec.branches, n)
        yield n, [_apply_terms(coeffs, scales, phi, x) for x in sample_xs]


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
    phi_rows = [_call_fn(phi, x) for x in sample_xs]
    iterates = (_orbit_iterates if generic else _term_iterates)(spec, phi, sample_xs)
    psi, psi_rows, iterations, converged = _converge(
        iterates, phi, phi_rows, spec.space, witnesses, tol, n_max)
    # the residual partner T psi: on the orbit it is the next level, whose
    # points are the branch shifts of psi's orbit, each evaluated once
    if generic:
        tpsi_rows = next(iterates)[1]
    else:
        tpsi_rows = [apply_T(spec, psi, x) for x in sample_xs]
    sup_residual = _sup_step(spec.space, witnesses, psi_rows, tpsi_rows,
                             "fixed-point residual T psi - psi")

    K_observed = 0.0
    bound_entries = []
    eps_star_ok = True
    for x, phi_x, psi_x in zip(sample_xs, phi_rows, psi_rows):
        star = epsilon_star(spec, eps, x, th)
        eps_star_ok = eps_star_ok and star.converged
        for wi, y in enumerate(witnesses):
            dev = eval_norm(spec.space, phi_x - psi_x, y) ** th
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
        psi_values={x: np.asarray(row).tolist() for x, row in zip(sample_xs, psi_rows)},
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
