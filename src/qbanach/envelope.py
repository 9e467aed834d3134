"""Equivalent p-norm envelope of a quasi-(2,beta)-norm.

The envelope value at (x, z) is the infimum over finite decompositions
``x = sum_i x_i`` of ``(sum_i |x_i, z|^(p/beta))^(beta/p)`` with
``p = beta * log_{2 kappa} 2``.  The infimum is not computable exactly; this
module evaluates a fixed list of decompositions and returns the best as a
certified upper bound, together with the decomposition that achieves it.

The list is the single-term certificate, then the ``5 dim`` binary splits of
x along its coordinate frame (``MAX_BUDGET`` = 16 candidates in R^3); a
budget takes its prefix.  The search draws no random numbers, so a row's
result depends on nothing but the row, and it runs over many (x, z) rows at
once (:func:`envelope_norm_rows`; :func:`envelope_norm` is its one-row
case) at one array evaluation of the norm per candidate.  A larger budget
evaluates a longer prefix, so it can only improve the value; a certificate
has at most 2 parts.  Split directions are oriented towards x, so for x
without a zero coordinate the candidates of ``lam * x`` are the lam-scaled
candidates of ``x``: ``envelope(lam*x, z) <= |lam|^beta * envelope(x, z)``
up to rounding.
"""

from __future__ import annotations

import copy
from dataclasses import dataclass, field

import numpy as np

from .spaces import (_DRAWS_PER_PAIR, SpaceDescriptor, _as_vector, eval_norm_rows, sample_pairs,
                     theta)

__all__ = [
    "theta",
    "EnvelopeResult",
    "envelope_norm",
    "envelope_norm_rows",
    "PTriangleReport",
    "check_p_triangle",
]

_OPENING_T = (0.25, 0.5, 0.75, 1.0, 1.25)  # split sizes, in units of |x|
# the single term and the splits along each axis of R^3 (every space's)
MAX_BUDGET = 1 + len(_OPENING_T) * 3
# trials (check_p_triangle) or certificate samples (the CLI) drawn and
# searched at once, so that memory does not grow with their count
SEARCH_BLOCK = 256


@dataclass
class EnvelopeResult:
    value: float
    certificate: list  # list of parts (each a list of dim floats) summing to x
    p: float            # the exponent theta(beta, kappa)
    c1_observed: float  # value / base norm for this pair (lower-equivalence ratio)


def _as_rows(A, dim: int, name: str) -> np.ndarray:
    A = np.asarray(A, dtype=float)
    if A.ndim != 2 or A.shape[1] != dim:
        raise ValueError(f"{name} must be an (n, {dim}) array")
    if not np.all(np.isfinite(A)):
        raise ValueError("vector entries must be finite")
    return A


def envelope_norm_rows(space: SpaceDescriptor, X, Z, budget: int) -> list:
    """Envelope searches for many rows at once: one :class:`EnvelopeResult`
    per row ``(X[i], Z[i])``, from the first ``budget`` candidates.

    Each row's result is exactly what a search of that row alone returns.
    The candidates are evaluated for all rows together, one candidate at a
    time; ``budget`` must lie in 1..``MAX_BUDGET``.
    """
    if not 1 <= budget <= MAX_BUDGET:
        raise ValueError(f"budget must lie in 1..{MAX_BUDGET}")
    X = _as_rows(X, space.dim, "X")
    Z = _as_rows(Z, space.dim, "Z")
    n, dim = X.shape
    if Z.shape[0] != n:
        raise ValueError("X and Z must have the same number of rows")
    p = theta(space.beta, space.kappa)
    r = p / space.beta

    base = eval_norm_rows(space, X, Z)
    # the 1-D norm, row by row: a batched sqrt(sum of squares) rounds differently
    nx = np.array([np.linalg.norm(row) for row in X])
    sign = np.where(X < 0.0, -1.0, 1.0)  # frame oriented towards x; + on a zero coordinate
    ZZ = np.concatenate([Z, Z])
    best = base.copy()
    first = np.zeros_like(X)  # first part of the best split so far
    split = np.zeros(n, dtype=bool)
    for k in range(budget - 1):
        i, j = divmod(k, len(_OPENING_T))
        a = (_OPENING_T[j] * nx)[:, None] * (sign[:, i, None] * np.eye(dim)[i])
        vals = eval_norm_rows(space, np.concatenate([a, X - a]), ZZ)
        if r == 1.0:
            value = vals[:n] + vals[n:]
        else:
            # the root is taken with Python's scalar pow: numpy's array pow
            # rounds differently in a few percent of values
            s = vals ** r
            value = np.array([v ** (1.0 / r) for v in (s[:n] + s[n:]).tolist()])
        # strict <, candidate by candidate: the first minimum wins
        better = value < best
        best[better] = value[better]
        first[better] = a[better]
        split |= better

    return [EnvelopeResult(
        value=float(best[i]),
        certificate=[first[i].tolist(), (X[i] - first[i]).tolist()] if split[i]
        else [X[i].tolist()],
        p=p,
        c1_observed=float(best[i] / base[i]) if base[i] > 0 else 1.0,
    ) for i in range(n)]


def envelope_norm(space: SpaceDescriptor, x, z, budget: int) -> EnvelopeResult:
    """Search decompositions of x and return the best envelope upper bound.

    The first ``budget`` candidates are evaluated (the single-term
    certificate is always the first), so a larger budget can only lower the
    value.  This is the one-row case of :func:`envelope_norm_rows`.
    """
    xv = _as_vector(x, space.dim)
    zv = _as_vector(z, space.dim)
    return envelope_norm_rows(space, xv[None, :], zv[None, :], budget)[0]


@dataclass
class PTriangleReport:
    """Sampled check of the power triangle inequality for the envelope."""

    trials: int = field(metadata={"body": False})  # the payload states it
    violations: int
    degenerate: int
    worst: dict | None
    exponent: float


def check_p_triangle(space: SpaceDescriptor, trials: int, seed: int, *,
                     budget: int) -> PTriangleReport:
    """Sample (x, y, z) and test ``E(x+y,z)^r <= E(x,z)^r + E(y,z)^r``.

    ``r = theta(beta, kappa) / beta``; violations are counted beyond 1e-6
    relative slack.  About 1% of the z draws are degenerate (zero vector);
    those trials are tallied separately and skipped.  The left envelope is
    itself an upper bound of the true infimum, so a counted violation is
    genuine only if the left certificate is exact.

    The trials are drawn and searched ``SEARCH_BLOCK`` at a time, so memory
    does not grow with ``trials``.  The stream holds all the pairs, then all
    the z rows, then all the degeneracy draws, and each double takes one
    64-bit word of PCG64: z and the degeneracy draws come block by block from
    copies of the generator advanced past what precedes them.
    """
    if trials < 1:
        raise ValueError("trials must be >= 1")
    dim = space.dim
    rng = np.random.default_rng(seed)
    z_rng = copy.deepcopy(rng)
    z_rng.bit_generator.advance(_DRAWS_PER_PAIR * trials)
    degen_rng = copy.deepcopy(z_rng)
    degen_rng.bit_generator.advance(dim * trials)
    r = theta(space.beta, space.kappa) / space.beta
    report = PTriangleReport(trials=trials, violations=0, degenerate=0, worst=None, exponent=r)
    worst_excess = 0.0
    for lo in range(0, trials, SEARCH_BLOCK):
        n = min(SEARCH_BLOCK, trials - lo)
        X, Y, _ = sample_pairs(rng, n)
        Z = z_rng.uniform(-10.0, 10.0, (n, dim))
        Z[degen_rng.uniform(0.0, 1.0, n) < 0.01] = 0.0
        live = Z.any(axis=1)
        X, Y, Z = X[live], Y[live], Z[live]
        report.degenerate += n - len(Z)
        rows = np.stack([X + Y, X, Y], axis=1).reshape(-1, dim)
        values = [res.value for res in envelope_norm_rows(
            space, rows, np.repeat(Z, 3, axis=0), budget)]
        for i in range(len(Z)):
            exy, ex, ey = values[3 * i:3 * i + 3]
            lhs = exy ** r
            rhs = ex ** r + ey ** r
            if lhs > rhs * (1.0 + 1e-6):
                report.violations += 1
                if lhs - rhs > worst_excess:
                    worst_excess = lhs - rhs
                    report.worst = {
                        "x": X[i].tolist(), "y": Y[i].tolist(), "z": Z[i].tolist(),
                        "lhs": lhs, "rhs": rhs,
                    }
    return report
