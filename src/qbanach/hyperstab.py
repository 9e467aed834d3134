"""Hyperstability machinery for the radical equation.

For each index m >= 2 the substitution ``(x, y) -> (u_m x, v_m x)`` with

    u_m = m / root(a),  v_m = root((1 - m^n)/b),  w_m = root(2 m^n - 1)

(n odd, sign-preserving roots) turns an approximate solution of the radical
equation into an approximate fixed point of

    (T_m g)(x) = c g(u_m x) + d g(v_m x) - g(w_m x).

The error majorant has the four-factor form
``gamma(x, y, z) = h1(x^n, z) h2(y^n, z) + h3(x^n, z) + h4(y^n, z)`` with
power components ``h_i(t, z) = c_i |t, z|-weighted``; its scaling multipliers
``s_i(rho) = |rho|^(alpha p_i)`` (``ErrorModel.multiplier``) drive the
contraction constants A_m, B_m, C_m, P_m = max(A,B,C) and sigma_m.  Indices
with P_m < 1 form the feasible set M0; for those the iteration T_m^n f
converges to an exact solution Q_m and the quantitative deviation bound holds.

T_m^k expands into the (k+1)(k+2)/2-term multinomial table because the three
scalings commute (hard cap k <= 40).  ``fixedpoint`` is the one home of T^k:
the table holds the ``coeffs`` and ``scales`` arrays of its level builder on
``radical_iteration_spec``, ``apply`` is the evaluator of its callable-phi
orbit, and Q_m comes from its term path, which iterates exactly through
per-term multipliers.  This module supplies the spec and the
radical-specific checks.
The residual check of Q_m, the bound loop and the consistency scan run on
row arrays; each power stays a scalar pow (numpy's array ``**`` rounds
differently), so the row forms equal the one-point forms bit for bit.
The general solution theta x^(2n) + w is fixed by every T_m.  By the
multinomial theorem the T_m^k table's sum of coeff * scale^(2n) is q^k, with
q = c (u^n)^2 + d (v^n)^2 - (w^n)^2 the one-step sum, so this eigen-identity
needs one step, not the table.  It cancels catastrophically in floating
point, so q is evaluated in exact rational arithmetic from the exact n-th
powers: every float is an exact rational, so the check is free of rounding.
"""

from __future__ import annotations

import contextlib
import math
from dataclasses import dataclass, field
from typing import Optional, Sequence

import numpy as np

from .envelope import theta
from .fixedpoint import (Branch, IterationSpec, _apply_terms, _converge, _multinomial_terms,
                         _term_iterates, bound_table)
from .radical import (EquationParams, NoExactSolutionError, Term, VectorFunction, _sup,
                      admissibility, make_solution, real_root, residual_check, residual_rows)
from .spaces import SpaceDescriptor, _as_vector, _norm_table

__all__ = [
    "ErrorComponent",
    "ErrorModel",
    "HyperstabConstants",
    "ExpansionTable",
    "M0Result",
    "QmResult",
    "ExperimentConfig",
    "HyperstabReport",
    "sequences",
    "scale_powers",
    "constants",
    "find_M0",
    "expand_T_power",
    "radical_iteration_spec",
    "compute_Qm",
    "theorem_bound",
    "theorem_bound_rows",
    "run_experiment",
]

MAX_EXPANSION_ORDER = 40


def stage(name: str, fn, *args, **kwargs):
    """``fn(*args, **kwargs)``, whose failure names ``name``: a ``ValueError``,
    ``ArithmeticError`` (a numeric failure) or ``MemoryError`` is re-raised as
    ``ValueError("<name>: …")``, so nested stages read outermost first."""
    try:
        return fn(*args, **kwargs)
    except ValueError as exc:
        raise ValueError(f"{name}: {exc}") from exc
    except ArithmeticError as exc:
        raise ValueError(f"{name}: numeric failure ({type(exc).__name__}): {exc}") from exc
    except MemoryError as exc:
        raise ValueError(f"{name}: out of memory: {exc}") from exc


def sequences(a: float, b: float, m: int, root_n: int = 3):
    """The substitution sequences (u_m, v_m, w_m); m must be >= 2."""
    if m < 2:
        raise ValueError("m must be >= 2")
    if a == 0.0 or b == 0.0:
        raise ValueError("a and b must be nonzero")
    u = m / real_root(a, root_n)
    v = real_root((1.0 - float(m) ** root_n) / b, root_n)
    w = real_root(2.0 * float(m) ** root_n - 1.0, root_n)
    return u, v, w


def scale_powers(a: float, b: float, m: int, root_n: int = 3):
    """The n-th powers (u^n, v^n, w^n) computed without irrational roots."""
    mn = float(m) ** root_n
    return mn / a, (1.0 - mn) / b, 2.0 * mn - 1.0


@dataclass(frozen=True)
class ErrorComponent:
    """One power component ``h(t, z) = c * |t * y, g(z)|^p`` of the majorant."""

    c: float
    p: float
    y: np.ndarray

    def __post_init__(self):
        if self.c < 0:
            raise ValueError("component coefficient must be nonnegative")
        object.__setattr__(self, "y", np.asarray(self.y, dtype=float))


@dataclass
class ErrorModel:
    """Four-factor majorant ``gamma = h1 h2 + h3 + h4`` with power components.

    The auxiliary space carries the (2, alpha)-norm used inside the
    components, so ``alpha`` is its homogeneity exponent beta.  ``g_matrix``
    maps codomain witnesses into the auxiliary space (identity when None).
    """

    components: tuple  # h1..h4
    aux_space: SpaceDescriptor
    g_matrix: Optional[np.ndarray] = None

    def __post_init__(self):
        comps = tuple(self.components)
        if len(comps) != 4:
            raise ValueError("exactly four components h1..h4 required")
        self.components = comps
        if self.g_matrix is not None:
            matrix = None
            with contextlib.suppress(TypeError, ValueError):  # not an array of numbers
                matrix = np.asarray(self.g_matrix, dtype=float)
            if matrix is None or matrix.shape != (3, 3) or not np.isfinite(matrix).all():
                raise ValueError("g_matrix must be a 3x3 array of finite numbers")
            self.g_matrix = matrix

    @property
    def alpha(self) -> float:
        return self.aux_space.beta

    def multiplier(self, i: int, rho: float) -> float:
        """Scaling multiplier of component h_i, i in 1..4: ``|rho|^(alpha p_i)``."""
        if rho == 0.0:
            raise ValueError("rho must be nonzero")
        return abs(rho) ** (self.alpha * self.components[i - 1].p)

    def g(self, z) -> np.ndarray:
        zv = np.asarray(z, dtype=float)
        return zv if self.g_matrix is None else self.g_matrix @ zv

    def h_rows(self, i: int, ts, witnesses) -> np.ndarray:
        """Component values h_i(t, z), i in 1..4, for every t in ``ts`` (rows)
        and every witness z (columns), from one norm call; +inf on degenerate
        pairs with negative exponent, 0 on those with positive exponent."""
        comp = self.components[i - 1]
        nrm = _norm_table(self.aux_space, np.asarray(ts, dtype=float)[:, None] * comp.y,
                          [self.g(z) for z in witnesses])
        # a scalar pow per entry: numpy's array ** rounds differently
        vals = [comp.c * v ** comp.p if v != 0.0 else 0.0 if comp.p > 0 else math.inf
                for v in nrm.ravel().tolist()]
        return np.array(vals, dtype=float).reshape(nrm.shape)

    def gamma_rows(self, txs, tys, witnesses) -> np.ndarray:
        """The majorant at powered arguments tx = x^n, ty = y^n for every pair
        (rows) and every witness (columns)."""
        # inf * 0 -> nan and overflow -> inf silently, as in Python float arithmetic
        with np.errstate(over="ignore", invalid="ignore"):
            return (self.h_rows(1, txs, witnesses) * self.h_rows(2, tys, witnesses)
                    + self.h_rows(3, txs, witnesses) + self.h_rows(4, tys, witnesses))

    def h(self, i: int, t: float, z) -> float:
        return float(self.h_rows(i, [t], [z])[0, 0])

    def gamma(self, tx: float, ty: float, z) -> float:
        return float(self.gamma_rows([tx], [ty], [z])[0, 0])


@dataclass
class HyperstabConstants:
    """Per-index contraction data of the hyperstability theorem."""

    m: int
    u: float
    v: float
    w: float
    A: float
    B: float
    C: float
    P: float
    sigma: float
    in_M0: bool


def constants(eq: EquationParams, model: ErrorModel, space: SpaceDescriptor,
              m: int) -> HyperstabConstants:
    """Evaluate A_m, B_m, C_m, P_m and sigma_m for one index: sums over the
    branches of ``radical_iteration_spec``, each term its Lipschitz weight
    times the components' multipliers at its exact n-th power scale."""
    spec = radical_iteration_spec(eq, m, space)
    u, v, w = (br.scale for br in spec.branches)
    up, vp, _ = spec.power_hints
    s = model.multiplier
    weights = spec.weights

    def weighted(f):
        return sum(L * f(rho) for L, rho in zip(weights, spec.power_hints))

    A = weighted(lambda rho: s(1, rho) * s(2, rho))
    B = weighted(lambda rho: s(3, rho))
    C = weighted(lambda rho: s(4, rho))
    P = max(A, B, C)
    sigma = max(s(1, up) * s(2, vp), s(3, up), s(4, vp))
    return HyperstabConstants(m=m, u=u, v=v, w=w, A=A, B=B, C=C, P=P,
                              sigma=sigma, in_M0=P < 1.0)


@dataclass
class M0Result:
    members: list
    sigma_decreasing: bool
    limit_conditions: dict          # vanishing of s1*s2 / s3 / s4 at infinity
    constants: list = field(default_factory=list)  # HyperstabConstants, m = 2..m_max

    @property
    def min_member(self) -> Optional[int]:
        return self.members[0] if self.members else None


def find_M0(eq: EquationParams, model: ErrorModel, space: SpaceDescriptor,
            m_max: int) -> M0Result:
    """Scan m = 2..m_max for P_m < 1; also report the sigma trend and which of
    the three vanishing-at-infinity conditions hold for the power family.  A
    failure is a ``ValueError`` naming the m."""
    if m_max < 2:
        raise ValueError("m_max must be >= 2")
    all_c = [stage(f"find_M0 at m = {m}", constants, eq, model, space, m)
             for m in range(2, m_max + 1)]
    members = [c.m for c in all_c if c.in_M0]
    sigma_dec = False
    if members:
        sig_min = next(c.sigma for c in all_c if c.m == members[0])
        sigma_dec = all_c[-1].sigma < sig_min or len(members) == 1
    p1, p2, p3, p4 = (comp.p for comp in model.components)
    return M0Result(
        members=members,
        sigma_decreasing=sigma_dec,
        limit_conditions={"A": p1 + p2 < 0, "B": p3 < 0, "C": p4 < 0},
        constants=all_c,
    )


# ---------------------------------------------------------------------------
# multinomial expansion of T_m^n
# ---------------------------------------------------------------------------

@dataclass
class ExpansionTable:
    """Closed form of T_m^n: the rows (coeff, scale) over all i+j+k = n.

    ``coeffs = multinomial(n; i,j,k) c^i d^j (-1)^k`` and ``scales = u^i v^j
    w^k``, the arrays ``fixedpoint._multinomial_terms`` builds for every level
    of T^n.
    """

    eq: EquationParams
    m: int
    n: int
    coeffs: np.ndarray
    scales: np.ndarray

    def apply(self, f, x: float) -> np.ndarray:
        """Evaluate (T_m^n f)(x) = sum coeff * f(scale * x) for a callable f."""
        return _apply_terms(self.coeffs, self.scales, f, x)

    def sextic_identity_error(self) -> float:
        """|sum coeff * scale^(2r) - 1| in exact rational arithmetic, r = root_n.

        By the multinomial theorem the table sum is q^n, with q = c (u^r)^2 +
        d (v^r)^2 - (w^r)^2 the one-step sum.  Every float is an exact
        rational, so q comes from the exact r-th power values without
        rounding; a defect beyond the float range reads inf.
        """
        from fractions import Fraction
        a, b = Fraction(self.eq.a), Fraction(self.eq.b)
        mn = Fraction(self.m) ** self.eq.root_n
        up, vp, wp = mn / a, (1 - mn) / b, 2 * mn - 1
        q = Fraction(self.eq.c) * up * up + Fraction(self.eq.d) * vp * vp - wp * wp
        try:
            return abs(float(q ** self.n - 1))
        except OverflowError:
            return math.inf


def expand_T_power(eq: EquationParams, m: int, n: int) -> ExpansionTable:
    """Build the multinomial table for T_m^n; n = 0 yields the identity row."""
    if n < 0:
        raise ValueError("n must be >= 0")
    if n > MAX_EXPANSION_ORDER:
        raise ValueError(f"expansion order capped at {MAX_EXPANSION_ORDER} "
                         "(coefficient magnitudes overflow beyond that)")
    _, coeffs, scales = _multinomial_terms(radical_iteration_spec(eq, m, None).branches, n)
    return ExpansionTable(eq=eq, m=m, n=n, coeffs=coeffs, scales=scales)


def radical_iteration_spec(eq: EquationParams, m: int, space: Optional[SpaceDescriptor]):
    """The scale-branch spec of the substituted radical operator T_m, carrying
    exact n-th power hints so eigen-multipliers stay exact in fp."""
    u, v, w = sequences(eq.a, eq.b, m, eq.root_n)
    return IterationSpec(
        [Branch(scale=u, coef=eq.c, kappa_exp=1),
         Branch(scale=v, coef=eq.d, kappa_exp=2),
         Branch(scale=w, coef=-1.0, kappa_exp=2)],
        space,
        power_hints=scale_powers(eq.a, eq.b, m, eq.root_n),
        hint_root=eq.root_n,
    )


# ---------------------------------------------------------------------------
# Q_m computation
# ---------------------------------------------------------------------------

@dataclass
class QmResult:
    values: list              # Q_m on the grid (list of vectors)
    iterations: int
    converged: bool
    # residual_check's record of Q_m
    sup_residual_scaled: float
    residual_pairs: int
    drawn_pairs: int
    worst_pair: Optional[dict]


def compute_Qm(eq: EquationParams, f: VectorFunction, m: int, grid: Sequence[float], *,
               tol: float, n_max: int, space: SpaceDescriptor, witnesses: Sequence,
               residual_pairs: int, seed: int) -> QmResult:
    """Iterate T_m on a term-family function until the grid sup-step is small.

    Q_m comes from ``fixedpoint``'s term path on ``radical_iteration_spec``
    (signed-power terms are eigenvectors of T_m, so no expansion-table
    cancellation).  Convergence needs three consecutive sup-steps below
    ``tol`` in the space norm over the witnesses; an overflowing iterate
    raises ``ValueError`` naming the step.  Q_m's residuals are measured by
    ``residual_check`` on ``residual_pairs`` pairs drawn over the grid's range
    of |x|, which gives up after ``DRAWS_PER_PAIR`` draws per requested pair.
    """
    grid = [float(g) for g in grid]
    if not grid or any(g == 0.0 for g in grid):
        raise ValueError("grid must be nonempty and avoid 0")
    witnesses = [_as_vector(wv, f.dim) for wv in witnesses]
    Qm, qvals, iterations, converged = _converge(
        _term_iterates(radical_iteration_spec(eq, m, space), f, grid), f,
        [f(x) for x in grid], space, witnesses, tol, n_max)
    residuals, _, _ = residual_check(eq, Qm, min(map(abs, grid)), max(map(abs, grid)),
                                     residual_pairs, np.random.default_rng(seed))
    return QmResult(values=[v.tolist() for v in qvals], iterations=iterations,
                    converged=converged, **residuals)


def theorem_bound_rows(model: ErrorModel, consts: HyperstabConstants, theta_exp: float,
                       xs, witnesses, root_n: int = 3) -> np.ndarray:
    """Right-hand side of the deviation bound at K = 1 for every x (rows) and
    witness z (columns): ``sigma^theta [h1 h2 + h3 + h4](x^n, z)^theta /
    (1 - P^theta)``.  The theorem's K is measured against it, in
    ``bound_table``."""
    if consts.P >= 1.0:
        raise ValueError("bound requires P < 1 (index must lie in M0)")
    if not (0.0 < theta_exp <= 1.0):
        raise ValueError("theta must lie in (0,1]")
    ts = [x ** root_n for x in xs]
    br = model.gamma_rows(ts, ts, witnesses)
    head, den = consts.sigma ** theta_exp, 1.0 - consts.P ** theta_exp
    return np.array([head * b ** theta_exp / den for b in br.ravel().tolist()],
                    dtype=float).reshape(br.shape)


def theorem_bound(model: ErrorModel, consts: HyperstabConstants, theta_exp: float,
                  x: float, z, root_n: int = 3) -> float:
    """The unit-K deviation bound at one x and one witness z (see
    ``theorem_bound_rows``)."""
    return float(theorem_bound_rows(model, consts, theta_exp, [x], [z], root_n)[0, 0])


# ---------------------------------------------------------------------------
# end-to-end experiment
# ---------------------------------------------------------------------------

@dataclass
class ExperimentConfig:
    space: SpaceDescriptor
    equation: EquationParams
    model: ErrorModel
    solution: dict              # theta_coef, direction, optional w
    perturbation: dict          # eta, exponent, mode, optional direction
    grid: list
    m_values: list
    m_max: int
    witnesses: list
    qm_tol: float
    qm_n_max: int
    residual_pairs: int


@dataclass
class HyperstabReport:
    m0: M0Result
    theta: float
    per_m: list
    consistency: dict
    warnings: list
    # m -> bound_table's, which the violations list names; f0 on the grid
    unbudgeted: dict = field(default_factory=dict, metadata={"body": False})
    f0_values: list = field(default_factory=list, metadata={"body": False})

    @property
    def feasible(self) -> bool:
        return bool(self.m0.members)


def _consistency_scan(eq: EquationParams, f, model: ErrorModel, grid, witnesses,
                      space: SpaceDescriptor):
    """Probe residual/gamma just outside the excluded diagonal.

    A perturbed input's residual contains negative powers of ``a x^n - b y^n``
    and escapes every bounded majorant near the diagonal; the flag records
    whether that actually happened for the supplied f.  A nonzero residual
    over gamma = 0 is the ratio inf, written as None (JSON null)."""
    ra, rb = eq.root_a, eq.root_b
    n = eq.root_n
    pairs = [(x, y) for x in grid[:4] for delta in (3e-6, 1e-5, 1e-4, 1e-3)
             for y in (sign * (ra / rb) * x * (1.0 + delta) for sign in (1.0, -1.0))
             if admissibility(eq, x, y)[0]]
    xs, ys = [x for x, _ in pairs], [y for _, y in pairs]
    gam = model.gamma_rows([x ** n for x in xs], [y ** n for y in ys], witnesses).ravel().tolist()
    nrm = _norm_table(space, residual_rows(eq, f, xs, ys), witnesses).ravel().tolist()
    max_ratio = _sup([v / g if g else math.inf for v, g in zip(nrm, gam)
                      if v and not math.isnan(g)])
    return {"max_residual_gamma_ratio": max_ratio if max_ratio < math.inf else None,
            "exceeds_gamma": max_ratio > 1.0}


def run_experiment(config: ExperimentConfig, seed: int) -> HyperstabReport:
    """Full hyperstability pipeline: feasible set, Q_m recovery, residual and
    deviation-bound verification (``bound_table`` of ``|f - Q_m, z|^theta``
    against ``theorem_bound_rows``), and the near-diagonal consistency probe.
    Q_m's residual pairs at index m are drawn with seed ``seed + m``.  A
    failure in ``find_M0`` or at one checked index is a ``ValueError``
    naming the m."""
    warnings = []
    eq, sol, pert = config.equation, config.solution, config.perturbation
    space = config.space
    witnesses = [np.asarray(wv, dtype=float) for wv in config.witnesses]
    th = theta(space.beta, space.kappa)

    try:
        f0 = make_solution(eq, sol["theta_coef"], sol.get("w"), sol["direction"])
    except NoExactSolutionError as exc:
        f0 = VectorFunction(terms=[], constant=np.zeros(len(sol["direction"])))
        warnings.append(f"no exact solution; experiment will use projection f0 = 0 ({exc})")
    # the perturbation points along the solution unless it names a direction
    f = VectorFunction(
        terms=list(f0.terms) + ([Term(coef=pert["eta"], exponent=pert["exponent"],
                                      mode=pert["mode"],
                                      direction=pert.get("direction", sol["direction"]))]
                                if pert["eta"] != 0.0 else []),
        constant=f0.constant.copy(),
    )

    m0 = find_M0(eq, config.model, space, config.m_max)
    if not m0.members:
        return HyperstabReport(
            m0=m0, theta=th, per_m=[],
            consistency={}, warnings=warnings + ["M0 is empty; no iteration performed"],
        )

    selected = [m for m in config.m_values if m in m0.members]
    skipped = [m for m in config.m_values if m not in m0.members]
    if skipped:
        warnings.append(f"requested m outside M0 skipped: {skipped}")

    consts_by_m = {c.m: c for c in m0.constants}
    unbudgeted = {}
    grid = config.grid
    fv, f0v = f.rows(grid), f0.rows(grid)
    # relative to f0 where it is nontrivial, else to the input values
    denom = np.maximum(np.maximum(np.abs(f0v).max(axis=1), 1e-12 * np.abs(fv).max(axis=1)),
                       1e-300)

    def process(m: int) -> dict:
        cst = consts_by_m[m]
        qm = compute_Qm(eq, f, m, grid, tol=config.qm_tol, n_max=config.qm_n_max,
                        space=space, witnesses=witnesses,
                        residual_pairs=config.residual_pairs, seed=seed + m)
        qv = np.array(qm.values)
        sup_dev_rel = _sup(np.abs(qv - f0v).max(axis=1) / denom)
        sup_f_qm = _sup(np.abs(fv - qv).max(axis=1))
        K_obs, entries, unbudgeted[m] = bound_table(
            space, fv - qv, witnesses, th,
            theorem_bound_rows(config.model, cst, th, grid, witnesses, eq.root_n), grid)
        return {
            "m": m,
            "qm": qm,
            "sup_dev_from_f0_rel": sup_dev_rel,
            "sup_f_minus_Qm": sup_f_qm,
            "K_observed": K_obs,
            "bound_entries": entries,
        }

    per_m = [stage(f"Q_m for m = {m}", process, m) for m in selected]

    consistency = _consistency_scan(eq, f, config.model, config.grid, witnesses, space)
    return HyperstabReport(
        m0=m0, theta=th, per_m=per_m, consistency=consistency, warnings=warnings,
        unbudgeted=unbudgeted, f0_values=f0v.tolist(),
    )
