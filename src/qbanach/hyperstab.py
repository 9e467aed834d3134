"""Hyperstability machinery for the radical equation.

For each index m >= 2 the substitution ``(x, y) -> (u_m x, v_m x)`` with

    u_m = m / root(a),  v_m = root((1 - m^n)/b),  w_m = root(2 m^n - 1)

(n odd, sign-preserving roots) turns an approximate solution of the radical
equation into an approximate fixed point of

    (T_m g)(x) = c g(u_m x) + d g(v_m x) - g(w_m x).

The error majorant has the four-factor form
``gamma(x, y, z) = h1(x^n, z) h2(y^n, z) + h3(x^n, z) + h4(y^n, z)`` with
power components ``h_i(t, z) = c_i |t, z|-weighted``; its scaling multipliers
``s_i(rho) = |rho|^(alpha p_i)`` drive the contraction constants A_m, B_m,
C_m, P_m = max(A,B,C) and sigma_m.  Indices with P_m < 1 form the feasible
set M0; for those the iteration T_m^n f converges to an exact solution Q_m
and the quantitative deviation bound holds.

T_m^n expands into the (n+1)(n+2)/2-term multinomial table because the three
scalings commute (hard cap n <= 40).  ``fixedpoint`` is the one home of T^n:
the table is its level builder on ``radical_iteration_spec``, ``apply`` is the
evaluator of its callable-phi orbit, and Q_m comes from its term path, which
iterates exactly through per-term multipliers.  This module supplies the spec
and the radical-specific checks.
Identities that cancel catastrophically in floating point (the sextic
eigen-identity) are evaluated in exact rational arithmetic: every float is an
exact rational, so the check is free of rounding.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field
from fractions import Fraction
from typing import Optional, Sequence

import numpy as np

from .envelope import theta
from .fixedpoint import (Branch, IterationSpec, _apply_terms, _converge, _multinomial_terms,
                         _term_iterates, _term_multiplier)
from .radical import (EquationParams, NoExactSolutionError, Term, VectorFunction,
                      _radical_args, admissibility, make_solution, pair_shortfall,
                      real_root, residual, sample_admissible_pairs)
from .spaces import SpaceDescriptor, _as_vector, eval_norm, space_from_dict

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
    "s_multiplier",
    "s_multiplier_sampled",
    "constants",
    "find_M0",
    "expand_T_power",
    "radical_iteration_spec",
    "sextic_defect",
    "compute_Qm",
    "theorem_bound",
    "run_experiment",
]

MAX_EXPANSION_ORDER = 40


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

    def to_dict(self) -> dict:
        return {"c": self.c, "p": self.p, "y": self.y.tolist()}


@dataclass
class ErrorModel:
    """Four-factor majorant ``gamma = h1 h2 + h3 + h4`` with power components.

    The auxiliary space carries the (2, alpha)-norm used inside the
    components; ``alpha`` must equal its homogeneity exponent.  ``g_matrix``
    maps codomain witnesses into the auxiliary space (identity when None).
    """

    components: tuple  # h1..h4
    aux_space: SpaceDescriptor
    alpha: float = 1.0
    g_matrix: Optional[np.ndarray] = None

    def __post_init__(self):
        comps = tuple(self.components)
        if len(comps) != 4:
            raise ValueError("exactly four components h1..h4 required")
        self.components = comps
        if not (0.0 < self.alpha <= 1.0):
            raise ValueError("alpha must lie in (0,1]")
        if self.alpha != self.aux_space.beta:
            raise ValueError("alpha must equal the auxiliary space's beta")
        if self.g_matrix is not None:
            self.g_matrix = np.asarray(self.g_matrix, dtype=float)

    @property
    def feasibility_flags(self) -> dict:
        p = [comp.p for comp in self.components]
        return {"p1+p2<0": p[0] + p[1] < 0, "p3<0": p[2] < 0, "p4<0": p[3] < 0}

    def g(self, z) -> np.ndarray:
        zv = np.asarray(z, dtype=float)
        return zv if self.g_matrix is None else self.g_matrix @ zv

    def h(self, i: int, t: float, z) -> float:
        """Component value h_i(t, z), i in 1..4; +inf on degenerate pairs with
        negative exponent."""
        comp = self.components[i - 1]
        nrm = eval_norm(self.aux_space, t * comp.y, self.g(z))
        if nrm == 0.0:
            return 0.0 if comp.p > 0 else math.inf
        return comp.c * nrm ** comp.p

    def bracket(self, t: float, z) -> float:
        """h1(t,z) h2(t,z) + h3(t,z) + h4(t,z) (both arguments at the same t)."""
        return self.h(1, t, z) * self.h(2, t, z) + self.h(3, t, z) + self.h(4, t, z)

    def gamma(self, tx: float, ty: float, z) -> float:
        """The majorant at powered arguments tx = x^n, ty = y^n."""
        return self.h(1, tx, z) * self.h(2, ty, z) + self.h(3, tx, z) + self.h(4, ty, z)

    def to_dict(self) -> dict:
        return {
            "alpha": self.alpha,
            "components": [comp.to_dict() for comp in self.components],
            "aux_space": self.aux_space.to_dict(),
            "g_map": "IDENTITY" if self.g_matrix is None else {"matrix": self.g_matrix.tolist()},
        }

    @staticmethod
    def from_dict(d: dict, default_aux: Optional[SpaceDescriptor] = None) -> "ErrorModel":
        aux = space_from_dict(d["aux_space"]) if "aux_space" in d else default_aux
        comps = [ErrorComponent(c=float(c["c"]), p=float(c["p"]), y=c["y"])
                 for c in d["components"]]
        g = d.get("g_map", "IDENTITY")
        matrix = None if g == "IDENTITY" else np.asarray(g["matrix"], dtype=float)
        return ErrorModel(components=tuple(comps), aux_space=aux,
                          alpha=float(d.get("alpha", aux.beta)), g_matrix=matrix)


def s_multiplier(component: ErrorComponent, rho: float, alpha: float = 1.0) -> float:
    """Scaling multiplier of a power component: ``|rho|^(alpha p)``."""
    if rho == 0.0:
        raise ValueError("rho must be nonzero")
    return abs(rho) ** (alpha * component.p)


def s_multiplier_sampled(component: ErrorComponent, rho: float, model: ErrorModel,
                         trials: int = 64, seed: int = 0) -> float:
    """Sup of ``h(rho t, z)/h(t, z)`` over sampled (t, z); agrees with the
    closed form for the power family."""
    if rho == 0.0:
        raise ValueError("rho must be nonzero")
    rng = np.random.default_rng(seed)
    i = model.components.index(component) + 1
    best = 0.0
    for _ in range(trials):
        t = rng.uniform(0.1, 10.0) * rng.choice([-1.0, 1.0])
        z = rng.uniform(-3.0, 3.0, model.aux_space.dim)
        denom = model.h(i, t, z)
        if not math.isfinite(denom) or denom == 0.0:
            continue
        best = max(best, model.h(i, rho * t, z) / denom)
    return best


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

    def to_dict(self) -> dict:
        return {"m": self.m, "u": self.u, "v": self.v, "w": self.w,
                "A": self.A, "B": self.B, "C": self.C, "P": self.P,
                "sigma": self.sigma, "in_M0": self.in_M0}


def constants(eq: EquationParams, model: ErrorModel, space_kappa: float,
              space_beta: float, m: int) -> HyperstabConstants:
    """Evaluate A_m, B_m, C_m, P_m and sigma_m for one index."""
    if m < 2:
        raise ValueError("m must be >= 2")
    u, v, w = sequences(eq.a, eq.b, m, eq.root_n)
    up, vp, wp = scale_powers(eq.a, eq.b, m, eq.root_n)
    h1, h2, h3, h4 = model.components
    al = model.alpha
    k1 = space_kappa * abs(eq.c) ** space_beta
    k2 = space_kappa ** 2 * abs(eq.d) ** space_beta
    k3 = space_kappa ** 2

    def s12(rho):
        return s_multiplier(h1, rho, al) * s_multiplier(h2, rho, al)

    A = k1 * s12(up) + k2 * s12(vp) + k3 * s12(wp)
    B = k1 * s_multiplier(h3, up, al) + k2 * s_multiplier(h3, vp, al) + k3 * s_multiplier(h3, wp, al)
    C = k1 * s_multiplier(h4, up, al) + k2 * s_multiplier(h4, vp, al) + k3 * s_multiplier(h4, wp, al)
    P = max(A, B, C)
    sigma = max(s_multiplier(h1, up, al) * s_multiplier(h2, vp, al),
                s_multiplier(h3, up, al), s_multiplier(h4, vp, al))
    return HyperstabConstants(m=m, u=u, v=v, w=w, A=A, B=B, C=C, P=P,
                              sigma=sigma, in_M0=P < 1.0)


@dataclass
class M0Result:
    members: list
    min_member: Optional[int]
    sigma_decreasing: bool
    limit_conditions: dict          # vanishing of s1*s2 / s3 / s4 at infinity
    all_constants: list = field(default_factory=list)

    def to_dict(self) -> dict:
        return {
            "members": self.members,
            "min_member": self.min_member,
            "sigma_decreasing": self.sigma_decreasing,
            "limit_conditions": self.limit_conditions,
            "constants": [c.to_dict() for c in self.all_constants],
        }


def find_M0(eq: EquationParams, model: ErrorModel, kappa: float, beta: float,
            m_max: int) -> M0Result:
    """Scan m = 2..m_max for P_m < 1; also report the sigma trend and which of
    the three vanishing-at-infinity conditions hold for the power family."""
    if m_max < 2:
        raise ValueError("m_max must be >= 2")
    all_c = [constants(eq, model, kappa, beta, m) for m in range(2, m_max + 1)]
    members = [c.m for c in all_c if c.in_M0]
    min_member = members[0] if members else None
    sigma_dec = False
    if min_member is not None:
        sig_min = next(c.sigma for c in all_c if c.m == min_member)
        sigma_dec = all_c[-1].sigma < sig_min or len(members) == 1
    flags = model.feasibility_flags
    return M0Result(
        members=members,
        min_member=min_member,
        sigma_decreasing=sigma_dec,
        limit_conditions={
            "A": flags["p1+p2<0"],
            "B": flags["p3<0"],
            "C": flags["p4<0"],
        },
        all_constants=all_c,
    )


# ---------------------------------------------------------------------------
# multinomial expansion of T_m^n
# ---------------------------------------------------------------------------

@dataclass(frozen=True)
class ExpansionEntry:
    i: int
    j: int
    k: int
    coeff: float
    scale: float


@dataclass
class ExpansionTable:
    """Closed form of T_m^n: entries (coeff, scale) over all i+j+k = n.

    ``coeff = multinomial(n; i,j,k) c^i d^j (-1)^k`` and ``scale = u^i v^j
    w^k``, as ``fixedpoint._multinomial_terms`` builds every level of T^n.
    """

    eq: EquationParams
    m: int
    n: int
    entries: list

    @property
    def expected_count(self) -> int:
        return (self.n + 1) * (self.n + 2) // 2

    def apply(self, f, x: float) -> np.ndarray:
        """Evaluate (T_m^n f)(x) = sum coeff * f(scale * x) for a callable f."""
        return _apply_terms(np.array([e.coeff for e in self.entries]),
                            np.array([e.scale for e in self.entries]), f, x)

    def power_term_sum(self, exponent: float, signed: bool = False) -> float:
        """Image multiplier of one signed-power term under T_m^n.

        The one-step multiplier to the n-th power (multinomial theorem), taken
        through the exact n-th power values (|u|^s = |u^n|^(s/n)).
        """
        spec = radical_iteration_spec(self.eq, self.m, None)
        return _term_multiplier(spec, exponent, signed) ** self.n

    def sextic_identity_error(self) -> float:
        """|sum coeff * scale^(2n) - 1| in exact rational arithmetic.

        The float table sum cancels catastrophically for large m, n; every
        float is an exact rational, so the identity is evaluated without
        rounding (the power 2n needs only the exact n-th power values).
        """
        a, b = Fraction(self.eq.a), Fraction(self.eq.b)
        c, d = Fraction(self.eq.c), Fraction(self.eq.d)
        mn = Fraction(self.m) ** self.eq.root_n
        up, vp, wp = mn / a, (1 - mn) / b, 2 * mn - 1
        total = Fraction(0)
        for e in self.entries:
            coeff = Fraction(math.comb(self.n, e.i) * math.comb(self.n - e.i, e.j))
            coeff *= c ** e.i * d ** e.j * (-1) ** e.k
            total += coeff * up ** (2 * e.i) * vp ** (2 * e.j) * wp ** (2 * e.k)
        return abs(float(total - 1))


def expand_T_power(eq: EquationParams, m: int, n: int) -> ExpansionTable:
    """Build the multinomial table for T_m^n; n = 0 yields the identity entry."""
    if n < 0:
        raise ValueError("n must be >= 0")
    if n > MAX_EXPANSION_ORDER:
        raise ValueError(f"expansion order capped at {MAX_EXPANSION_ORDER} "
                         "(coefficient magnitudes overflow beyond that)")
    E, coeffs, scales = _multinomial_terms(radical_iteration_spec(eq, m, None).branches, n)
    entries = [ExpansionEntry(i=i, j=j, k=k, coeff=coeff, scale=scale)
               for (i, j, k), coeff, scale in zip(E.tolist(), coeffs.tolist(), scales.tolist())]
    return ExpansionTable(eq=eq, m=m, n=n, entries=entries)


def sextic_defect(eq: EquationParams, m: int) -> float:
    """|c u^(2n) + d v^(2n) - w^(2n) - 1| in exact rational arithmetic."""
    return expand_T_power(eq, m, 1).sextic_identity_error()


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
    m: int
    grid: list
    values: list              # Q_m on the grid (list of vectors)
    f0_values: Optional[list]
    iterations: int
    converged: bool
    sup_residual_scaled: float
    residual_pairs: int
    Qm: VectorFunction = None

    def to_dict(self) -> dict:
        return {
            "m": self.m, "grid": self.grid, "values": self.values,
            "f0_values": self.f0_values, "iterations": self.iterations,
            "converged": self.converged,
            "sup_residual_scaled": self.sup_residual_scaled,
            "residual_pairs": self.residual_pairs,
        }


def compute_Qm(eq: EquationParams, f: VectorFunction, m: int, grid: Sequence[float],
               tol: float = 1e-10, n_max: int = 60,
               space: Optional[SpaceDescriptor] = None,
               witnesses: Optional[Sequence] = None,
               residual_pairs: int = 1000, seed: int = 0,
               f0: Optional[VectorFunction] = None) -> QmResult:
    """Iterate T_m on a term-family function until the grid sup-step is small.

    Q_m comes from ``fixedpoint``'s term path on ``radical_iteration_spec``
    (signed-power terms are eigenvectors of T_m, so no expansion-table
    cancellation).  Convergence needs three consecutive sup-steps below
    ``tol`` in the space norm over the witnesses, or in the largest absolute
    component when ``space`` is None; an overflowing iterate raises
    ``ValueError`` naming the step.  The scaled residual of Q_m is taken over
    admissible pairs from ``sample_admissible_pairs``, which gives up after
    ``DRAWS_PER_PAIR`` draws per requested pair.
    """
    grid = [float(g) for g in grid]
    if not grid or any(g == 0.0 for g in grid):
        raise ValueError("grid must be nonempty and avoid 0")
    if witnesses is not None:
        witnesses = [_as_vector(wv, f.dim) for wv in witnesses]
    elif space is not None:
        raise ValueError("compute_Qm: a space needs witnesses to measure the sup-step "
                         "(witnesses is None)")
    Qm, qvals, iterations, converged = _converge(
        _term_iterates(radical_iteration_spec(eq, m, space), f, grid), f,
        [f(x) for x in grid], space, witnesses, tol, n_max)

    draws = sample_admissible_pairs(eq, min(map(abs, grid)), max(map(abs, grid)),
                                    residual_pairs, np.random.default_rng(seed))
    pairs = [(x, y) for x, y, ok in draws if ok]
    sup_res = 0.0
    for x, y in pairs:
        t1, t2 = _radical_args(eq, x, y)
        q1, q2, qx, qy = Qm(t1), Qm(t2), Qm(x), Qm(y)
        rv = q1 + q2 - eq.c * qx - eq.d * qy
        scale = (np.abs(q1).max() + np.abs(q2).max()
                 + abs(eq.c) * np.abs(qx).max() + abs(eq.d) * np.abs(qy).max())
        sup_res = max(sup_res, float(np.abs(rv).max()) / max(scale, 1e-300))

    f0_vals = None if f0 is None else [f0(x).tolist() for x in grid]
    return QmResult(
        m=m, grid=grid, values=[v.tolist() for v in qvals], f0_values=f0_vals,
        iterations=iterations, converged=converged,
        sup_residual_scaled=sup_res, residual_pairs=len(pairs), Qm=Qm,
    )


def theorem_bound(model: ErrorModel, consts: HyperstabConstants, theta_exp: float,
                  K: float, x: float, z, root_n: int = 3) -> float:
    """Right-hand side of the deviation bound:
    ``K sigma^theta [h1 h2 + h3 + h4](x^n, z)^theta / (1 - P^theta)``."""
    if consts.P >= 1.0:
        raise ValueError("bound requires P < 1 (index must lie in M0)")
    if not (0.0 < theta_exp <= 1.0):
        raise ValueError("theta must lie in (0,1]")
    br = model.bracket(x ** root_n, z)
    return K * consts.sigma ** theta_exp * br ** theta_exp / (1.0 - consts.P ** theta_exp)


# ---------------------------------------------------------------------------
# end-to-end experiment
# ---------------------------------------------------------------------------

@dataclass
class ExperimentConfig:
    space: SpaceDescriptor
    equation: EquationParams
    model: ErrorModel
    solution: dict              # theta_coef, w, direction
    perturbation: dict          # eta, exponent, mode, direction
    grid: list
    m_values: list
    m_max: int = 12
    witnesses: list = None
    qm_tol: float = 1e-10
    qm_n_max: int = 60
    residual_pairs: int = 1000
    seed: int = 0

    def __post_init__(self):
        if self.witnesses is None:
            self.witnesses = [[0.0, 1.0, 0.0], [0.0, 0.0, 1.0], [1.0, 1.0, 1.0]]

    def to_dict(self) -> dict:
        return {
            "space": self.space.to_dict(),
            "equation": self.equation.to_dict(),
            "error_model": self.model.to_dict(),
            "solution": self.solution,
            "perturbation": self.perturbation,
            "grid": list(self.grid),
            "m_values": list(self.m_values),
            "m_max": self.m_max,
            "witnesses": [list(map(float, w)) for w in self.witnesses],
            "tolerances": {"qm_tol": self.qm_tol, "qm_n_max": self.qm_n_max,
                           "residual_pairs": self.residual_pairs},
            "seed": self.seed,
        }

    @staticmethod
    def from_dict(d: dict) -> "ExperimentConfig":
        space = space_from_dict(d["space"])
        aux = space_from_dict(d["aux_space"]) if "aux_space" in d else space
        tol = d.get("tolerances", {})
        return ExperimentConfig(
            space=space,
            equation=EquationParams.from_dict(d["equation"]),
            model=ErrorModel.from_dict(d["error_model"], default_aux=aux),
            solution=d.get("solution", {"theta_coef": 1.0, "w": None, "direction": [1.0, 0.0, 0.0]}),
            perturbation=d.get("perturbation", {"eta": 0.0, "exponent": -3.0,
                                                "mode": "ABS", "direction": [1.0, 0.0, 0.0]}),
            grid=[float(g) for g in d["grid"]],
            m_values=[int(m) for m in d.get("m_values", [2, 3, 5])],
            m_max=int(d.get("m_max", 12)),
            witnesses=d.get("witnesses"),
            qm_tol=float(tol.get("qm_tol", 1e-10)),
            qm_n_max=int(tol.get("qm_n_max", 60)),
            residual_pairs=int(tol.get("residual_pairs", 1000)),
            seed=int(d.get("seed", 0)),
        )


@dataclass
class HyperstabReport:
    feasible: bool
    m0: M0Result
    theta: float
    per_m: list
    trend: list
    consistency: dict
    warnings: list
    config: dict

    def to_dict(self) -> dict:
        return {
            "feasible": self.feasible,
            "m0": self.m0.to_dict(),
            "theta": self.theta,
            "per_m": self.per_m,
            "trend": self.trend,
            "consistency": self.consistency,
            "warnings": self.warnings,
            "config": self.config,
        }


def _consistency_scan(eq: EquationParams, f, model: ErrorModel, grid, witnesses,
                      space: SpaceDescriptor):
    """Probe residual/gamma just outside the excluded diagonal.

    A perturbed input's residual contains negative powers of ``a x^n - b y^n``
    and escapes every bounded majorant near the diagonal; the flag records
    whether that actually happened for the supplied f.
    """
    ra, rb = eq.root_a, eq.root_b
    n = eq.root_n
    max_ratio = 0.0
    for x in grid[:4]:
        for delta in (3e-6, 1e-5, 1e-4, 1e-3):
            for sign in (1.0, -1.0):
                y = sign * (ra / rb) * x * (1.0 + delta)
                if not admissibility(eq, x, y)[0]:
                    continue
                rv = residual(eq, f, x, y)
                for z in witnesses:
                    g = model.gamma(x ** n, y ** n, z)
                    if not math.isfinite(g) or g == 0.0:
                        continue
                    max_ratio = max(max_ratio, eval_norm(space, rv, z) / g)
    return {"max_residual_gamma_ratio": max_ratio, "exceeds_gamma": max_ratio > 1.0}


def _solution_f0(eq: EquationParams, sol: dict):
    """f0 from a config's ``solution`` section and the run's warnings: f0 = 0
    and one naming the failed constraints when no exact solution exists."""
    direction = np.asarray(sol.get("direction", [1.0, 0.0, 0.0]), dtype=float)
    try:
        return make_solution(eq, float(sol.get("theta_coef", 1.0)), sol.get("w"), direction), []
    except NoExactSolutionError as exc:
        return (VectorFunction(terms=[], constant=np.zeros_like(direction)),
                [f"no exact solution; experiment will use projection f0 = 0 ({exc})"])


def run_experiment(config: ExperimentConfig) -> HyperstabReport:
    """Full hyperstability pipeline: feasible set, Q_m recovery, residual and
    deviation-bound verification, and the near-diagonal consistency probe."""
    warnings = []
    eq = config.equation
    space = config.space
    witnesses = [np.asarray(wv, dtype=float) for wv in config.witnesses]
    th = theta(space.beta, space.kappa)

    direction = np.asarray(config.solution.get("direction", [1.0, 0.0, 0.0]), dtype=float)
    f0, no_solution = _solution_f0(eq, config.solution)
    warnings += no_solution

    pert = config.perturbation
    eta = float(pert.get("eta", 0.0))
    f = VectorFunction(
        terms=list(f0.terms) + ([Term(coef=eta, exponent=float(pert["exponent"]),
                                      mode=pert.get("mode", "ABS"),
                                      direction=np.asarray(pert.get("direction", direction), dtype=float))]
                                if eta != 0.0 else []),
        constant=f0.constant.copy(),
    )

    m0 = find_M0(eq, config.model, space.kappa, space.beta, config.m_max)
    if not m0.members:
        return HyperstabReport(
            feasible=False, m0=m0, theta=th, per_m=[], trend=[],
            consistency={}, warnings=warnings + ["M0 is empty; no iteration performed"],
            config=config.to_dict(),
        )

    selected = [m for m in config.m_values if m in m0.members]
    skipped = [m for m in config.m_values if m not in m0.members]
    if skipped:
        warnings.append(f"requested m outside M0 skipped: {skipped}")

    consts_by_m = {c.m: c for c in m0.all_constants}

    def process(m: int) -> dict:
        cst = consts_by_m[m]
        try:
            qm = compute_Qm(eq, f, m, config.grid, tol=config.qm_tol, n_max=config.qm_n_max,
                            space=space, witnesses=witnesses,
                            residual_pairs=config.residual_pairs, seed=config.seed + m, f0=f0)
        except ValueError as exc:
            raise ValueError(f"Q_m for m = {m}: {exc}") from exc
        sup_dev_rel = 0.0
        sup_f_qm = 0.0
        K_obs = 0.0
        entries = []
        for x in config.grid:
            qv = qm.Qm(x)
            fv = f(x)
            f0v = f0(x)
            # relative to f0 where it is nontrivial, else to the input values
            denom = max(float(np.abs(f0v).max()), 1e-12 * float(np.abs(fv).max()), 1e-300)
            sup_dev_rel = max(sup_dev_rel, float(np.abs(qv - f0v).max()) / denom)
            sup_f_qm = max(sup_f_qm, float(np.abs(fv - qv).max()))
            for z in witnesses:
                dev_pow = eval_norm(space, fv - qv, z) ** th
                rhs_unit = theorem_bound(config.model, cst, th, 1.0, x, z, eq.root_n)
                if math.isfinite(rhs_unit) and rhs_unit > 0:
                    K_obs = max(K_obs, dev_pow / rhs_unit)
                entries.append({"x": float(x), "lhs_pow_theta": dev_pow, "rhs_unit_K": rhs_unit})
        for e in entries:
            e["bound"] = K_obs * e["rhs_unit_K"]
            e["satisfied"] = e["lhs_pow_theta"] <= e["bound"] * (1.0 + 1e-9) or e["rhs_unit_K"] == math.inf
        return {
            "m": m,
            "constants": cst.to_dict(),
            "qm": qm.to_dict(),
            "sup_dev_from_f0_rel": sup_dev_rel,
            "sup_f_minus_Qm": sup_f_qm,
            "K_observed": K_obs,
            "bound_entries": entries,
            "bound_satisfied": all(e["satisfied"] for e in entries),
            **pair_shortfall(config.residual_pairs, qm.residual_pairs),
        }

    per_m = [process(m) for m in selected]

    trend = [{"m": rec["m"], "sup_f_minus_Qm": rec["sup_f_minus_Qm"]} for rec in per_m]
    consistency = _consistency_scan(eq, f, config.model, config.grid, witnesses, space)
    return HyperstabReport(
        feasible=True, m0=m0, theta=th, per_m=per_m, trend=trend,
        consistency=consistency, warnings=warnings, config=config.to_dict(),
    )
