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
from typing import Optional, Sequence

import numpy as np

from .envelope import theta
from .radical import VectorFunction
from .spaces import SpaceDescriptor, _as_vector, _norm_table

__all__ = [
    "Branch",
    "IterationSpec",
    "ScalarErrorFn",
    "EpsilonStarResult",
    "FixedPointReport",
    "apply_T",
    "epsilon_star",
    "iterate",
    "bound_table",
    "load_sample_grid",
]

# Cap on the terms of the deepest level, C(n_max + j - 1, j - 1), that
# ``iterate`` expands for a callable phi with j branches; each term costs one
# phi call per sample.  The CLI default n_max = 200 with 3 branches needs 20,301.
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
    irrational roots.  A multiplier that is 1 in exact arithmetic may still
    not be 1 in fp: for a, b, c, d = 0.6, 0.8, 0.72, 1.28 the sextic term's
    float sum is 1 + 5.8e-11 at m = 7 (0.72 is not 2 * 0.6^2 in binary).
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


@dataclass
class ScalarErrorFn:
    """Error majorant ``eps(x) = sum_j c_j |x|^{s_j}``; the power-term family
    is closed under the Lambda action."""

    terms: list  # list of (c, s) with c >= 0

    def __post_init__(self):
        self.terms = [(float(c), float(s)) for c, s in self.terms]
        for c, _ in self.terms:
            if c < 0:
                raise ValueError("term coefficients must be nonnegative")

    def eval(self, x: float) -> float:
        return sum(c * abs(x) ** s for c, s in self.terms)

    def rates(self, spec: IterationSpec) -> list:
        """``rho_s = sum_i L_i |scale_i|^s`` for each term (c, s)."""
        L = spec.weights
        return [sum(Li * abs(br.scale) ** s for Li, br in zip(L, spec.branches))
                for _, s in self.terms]

    def lambda_image(self, spec: IterationSpec) -> "ScalarErrorFn":
        """Closed-form image under Lambda: term (c, s) -> (c * rho_s, s)."""
        return ScalarErrorFn([(c * rho, s) for (c, s), rho in zip(self.terms, self.rates(spec))])


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


@dataclass
class EpsilonStarResult:
    """Bracket ``[lower, value]`` of a Lambda^n eps series.  ``converged``
    means the series is finite; ``value`` is then a certified upper bound
    even when ``terms_used`` reached ``n_max``, and both ends are inf when
    the series diverges."""

    lower: float
    value: float
    converged: bool
    terms_used: int


def _series_bracket(spec: IterationSpec, eps: ScalarErrorFn, x: float, power: float,
                    tol: float, n_max: int) -> EpsilonStarResult:
    """Bracket of ``sum_{n>=0} ((Lambda^n eps)(x))^power`` for 0 < power <= 1.

    With a_k = c_k |x|^{s_k}, Lambda^n eps(x) = sum_k a_k rho_k^n, so the
    series is finite iff rho_k < 1 for every term with c_k > 0.  t^power is
    subadditive, so after N terms the tail is at most
    sum_k a_k^power rho_k^(N power) / (1 - rho_k^power); terms are added
    until that bound is at most ``tol`` times the partial sum, or for
    ``n_max`` terms.  Both ends are rounded outward by 4N units of 2^-53,
    which covers the arithmetic of the series; the rates rho_k are taken as
    ``ScalarErrorFn.rates`` computes them.
    """
    live = [(c * abs(x) ** s, rho) for (c, s), rho in zip(eps.terms, eps.rates(spec)) if c > 0]
    if any(rho >= 1.0 for _, rho in live):
        return EpsilonStarResult(math.inf, math.inf, False, 0)
    # the powered terms u_k = (a_k rho_k^n)^power: a_k rho_k^n itself would
    # underflow while its power still counts (rho = 1e-10, power = 0.01)
    us = [a ** power for a, _ in live]
    steps = [rho ** power for _, rho in live]
    # 1 - rho^power, accurate when rho^power is close to 1
    gaps = [-math.expm1(power * math.log(rho)) if rho > 0 else 1.0 for _, rho in live]
    partial = 0.0
    for n in range(1, n_max + 1):
        # (sum_k u_k^(1/power))^power, scaled by the largest u_k; an
        # overflowed a_k makes every sum inf
        top = max(us, default=0.0)
        if 0.0 < top < math.inf:
            top *= sum((u / top) ** (1.0 / power) for u in us) ** power
        partial += top
        us = [u * q for u, q in zip(us, steps)]
        tail = sum(u / g for u, g in zip(us, gaps))
        if tail <= tol * partial:
            break
    slack = 4 * n * 2.0 ** -53
    return EpsilonStarResult(partial * (1.0 - slack), (partial + tail) * (1.0 + slack), True, n)


def epsilon_star(spec: IterationSpec, eps: ScalarErrorFn, x: float, theta_exp: float,
                 tol: float = 1e-12, n_max: int = 512) -> EpsilonStarResult:
    """The theta-powered error series ``sum_n ((Lambda^n eps)(x))^theta`` at x,
    as the certified bracket of ``_series_bracket``."""
    if not (0.0 < theta_exp <= 1.0):
        raise ValueError("theta must lie in (0,1]")
    if n_max < 1:
        raise ValueError("n_max must be >= 1")
    return _series_bracket(spec, eps, x, theta_exp, tol, n_max)


# ---------------------------------------------------------------------------
# iteration
# ---------------------------------------------------------------------------

@dataclass
class FixedPointReport:
    converged: bool
    iterations: int
    psi_values: dict          # sample x -> codomain vector (list)
    sup_residual: float       # sup over samples/witnesses of |T psi - psi, y|
    K_observed: Optional[float]
    bound_entries: list = field(default_factory=list)
    theta: float = 1.0
    eps_star_converged: bool = True
    # bound_table's; the violations list names them
    unbudgeted: list = field(default_factory=list, metadata={"body": False})


def bound_table(space: SpaceDescriptor, diffs, witnesses, theta_exp: float, rhs_unit,
                xs: Sequence[float]):
    """The bound ``|diffs[r], y_j|^theta <= K rhs_unit[r][j]`` over the samples
    ``xs`` and witnesses y_j: ``(K_observed, entries, unbudgeted)``, the
    entries ``{"x", "witness", "lhs_pow_theta", "rhs_unit_K"}`` sample-major,
    with the left sides from one ``_norm_table`` call (a scalar pow each).
    A non-finite right side (inf or NaN) bounds nothing and reads None (JSON
    null).  A right side not > 0 (NaN included) under a left side above 1e-12
    has no budget: such entries are listed as ``{"x", "witness"}`` and
    ``K_observed`` is None.  Otherwise it is the largest lhs / rhs over finite
    positive right sides, 0.0 without one.
    """
    lhs = [v ** theta_exp for v in _norm_table(space, diffs, witnesses).ravel().tolist()]
    rhs = np.asarray(rhs_unit, dtype=float).ravel().tolist()
    cells = [(float(x), j) for x in xs for j in range(len(witnesses))]
    entries = [{"x": x, "witness": j, "lhs_pow_theta": d,
                "rhs_unit_K": r if math.isfinite(r) else None}
               for (x, j), d, r in zip(cells, lhs, rhs)]
    unbudgeted = [{"x": x, "witness": j} for (x, j), d, r in zip(cells, lhs, rhs)
                  if not r > 0 and d > 1e-12]
    if unbudgeted:
        return None, entries, unbudgeted
    return max([0.0, *(d / r for d, r in zip(lhs, rhs) if 0 < r < math.inf)]), entries, []


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


def _sup_step(space: SpaceDescriptor, witnesses, old_rows, new_rows, where: str) -> float:
    """Sup over rows and witnesses of ``|new - old, y|`` from one norm call
    over the rows x witnesses block.  A non-finite difference or sup (a
    diverged iteration: a finite difference can still overflow the norm)
    raises ``ValueError`` naming ``where``, and so does an empty witness
    list (every step would read 0, so any iteration would look converged).
    Callers turn numpy's overflow warnings off around it."""
    delta = np.asarray(new_rows, dtype=float) - np.asarray(old_rows, dtype=float)
    if not np.all(np.isfinite(delta)):
        raise ValueError(f"{where}: non-finite iterate (the iteration diverges)")
    if not len(witnesses):
        raise ValueError(f"{where}: no witnesses to measure the step in the space norm")
    sup = float(_norm_table(space, delta, witnesses).max()) if delta.size else 0.0
    if not math.isfinite(sup):
        raise ValueError(f"{where}: non-finite iterate (the iteration diverges)")
    return sup


def _converge(iterates, state, rows, space: SpaceDescriptor, witnesses,
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
    (numpy's vector exp may round differently); a coefficient beyond the
    float range raises ``ValueError`` naming n.
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
    try:
        coeffs = np.array([sg * math.exp(v) for sg, v in zip(signs, logmag.tolist())])
    except OverflowError:
        raise ValueError(f"T^n at order n = {n}: a coefficient is beyond the float range") from None
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
            witnesses: Sequence, *, tol: float, n_max: int) -> FixedPointReport:
    """Iterate T from phi on the samples and verify the error bound.

    Convergence requires three consecutive sup-steps (over samples and
    witnesses, measured in the space norm) below ``tol``.  The report records
    the fixed-point residual and the ``bound_table`` of ``|phi(x) - psi(x),
    y|^theta`` against the upper end of ``epsilon_star`` at x, for every
    witness y.  A callable phi (not a ``VectorFunction``) whose level
    ``n_max`` has more than ``MAX_ORBIT_TERMS`` terms is refused with
    ``ValueError`` before phi is called, and so is an empty sample set.
    """
    if not len(sample_xs):
        raise ValueError("no sample points: iterate needs at least one")
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
    with np.errstate(over="ignore", invalid="ignore"):
        if generic:
            tpsi_rows = next(iterates)[1]
        else:
            tpsi_rows = [apply_T(spec, psi, x) for x in sample_xs]
        sup_residual = _sup_step(spec.space, witnesses, psi_rows, tpsi_rows,
                                 "fixed-point residual T psi - psi")

    stars = [epsilon_star(spec, eps, x, th) for x in sample_xs]
    K_observed, entries, unbudgeted = bound_table(
        spec.space, np.subtract(phi_rows, psi_rows), witnesses, th,
        [[star.value] * len(witnesses) for star in stars], sample_xs)

    return FixedPointReport(
        converged=converged,
        iterations=iterations,
        psi_values={x: np.asarray(row).tolist() for x, row in zip(sample_xs, psi_rows)},
        sup_residual=sup_residual,
        K_observed=K_observed,
        bound_entries=entries,
        theta=th,
        eps_star_converged=all(star.converged for star in stars),
        unbudgeted=unbudgeted,
    )


def load_sample_grid(path) -> list:
    """Read a sample grid from CSV, one real per line; a non-numeric row
    raises ``ValueError`` naming the file and the line."""
    out = []
    with open(path, newline="") as fh:
        reader = csv.reader(fh)
        for row in reader:
            if not row or not row[0].strip():
                continue
            try:
                out.append(float(row[0]))
            except ValueError:
                raise ValueError(f"{path}, line {reader.line_num}: "
                                 f"not a number: {row[0]!r}") from None
    return out
