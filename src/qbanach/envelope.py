"""Equivalent p-norm envelope of a quasi-(2,beta)-norm.

The envelope value at (x, z) is the infimum over finite decompositions
``x = sum_i x_i`` of ``(sum_i |x_i, z|^(p/beta))^(beta/p)`` with
``p = beta * log_{2 kappa} 2``.  The infimum is not computable exactly; this
module searches decompositions (bounded part count, randomized binary splits
plus local refinement) and returns a certified upper bound together with the
decomposition that achieves it.

The search runs over many (x, z, seed) rows at once
(:func:`envelope_norm_rows`; :func:`envelope_norm` is its one-row case).  The
first ``1 + 5 dim`` candidates -- the single-term certificate and binary
splits of x along its coordinate frame -- are deterministic and use no random
draws, so for budgets up to ``1 + 5 dim`` (the CLI default is 12) a whole
batch costs one array evaluation of the norm per candidate.  Larger budgets
continue each row with a random search driven by that row's own seed.

The candidate stream is deterministic given the seed and independent of the
budget, so enlarging the budget can only improve the value.  Split directions
are oriented relative to x, which makes the candidate list scale-equivariant:
the search for ``lam * x`` evaluates exactly the lam-scaled certificates of
``x``, hence ``envelope(lam*x, z) <= |lam|^beta * envelope(x, z)`` up to
rounding.
"""

from __future__ import annotations

from dataclasses import dataclass, field

import numpy as np

from .spaces import SpaceDescriptor, _as_vector, eval_norm_rows, sample_pairs, theta

__all__ = [
    "theta",
    "EnvelopeResult",
    "envelope_norm",
    "envelope_norm_rows",
    "PTriangleReport",
    "check_p_triangle",
]

MAX_PARTS = 8
_OPENING_T = (0.25, 0.5, 0.75, 1.0, 1.25)  # opening split sizes, in units of |x|
_TRIALS_PER_SEARCH = 256  # trials per batched search in check_p_triangle


@dataclass
class EnvelopeResult:
    value: float
    certificate: list  # list of parts (each a list of dim floats) summing to x
    p: float
    theta: float
    c1_observed: float  # value / base norm for this pair (lower-equivalence ratio)
    c2: float = 1.0     # single-term decomposition always admissible


def _combine(space: SpaceDescriptor, parts: np.ndarray, z: np.ndarray, r: float) -> float:
    """(sum |x_i, z|^r)^(1/r) for the stacked parts; r = p/beta."""
    vals = eval_norm_rows(space, parts, np.broadcast_to(z, parts.shape))
    if r == 1.0:
        return float(vals.sum())
    return float((vals ** r).sum() ** (1.0 / r))


def _oriented(d: np.ndarray, x: np.ndarray) -> np.ndarray:
    """Orient a unit direction relative to x so candidates scale with x."""
    s = float(d @ x)
    if s == 0.0:
        nz = np.nonzero(d)[0]
        s = d[nz[0]] if nz.size else 1.0
    return d if s > 0 else -d


def _split(part: np.ndarray, t: float, sigma: float, d: np.ndarray):
    """Split one part into two that sum to it; offset scales with the part."""
    off = sigma * np.linalg.norm(part) * _oriented(d, part)
    return part * t + off, part * (1.0 - t) - off


def _as_rows(A, dim: int, name: str) -> np.ndarray:
    A = np.asarray(A, dtype=float)
    if A.ndim != 2 or A.shape[1] != dim:
        raise ValueError(f"{name} must be an (n, {dim}) array")
    if not np.all(np.isfinite(A)):
        raise ValueError("vector entries must be finite")
    return A


def _adaptive(space: SpaceDescriptor, xv: np.ndarray, zv: np.ndarray, r: float, nx: float,
              best_parts: list, best_value: float, budget: int, rng):
    """Continue one row's search after the opening with random moves.

    ``rng`` is the row's fresh generator; every opening candidate drew (and
    ignored) the same numbers as a random candidate, so those draws are
    replayed first and candidate ``k`` sees the same stream at any budget.
    """
    dim = xv.shape[0]
    n_open = len(_OPENING_T) * dim
    for _ in range(n_open):
        rng.uniform(0.0, 1.0, 4)
        rng.standard_normal((2, dim))
    for k in range(n_open + 1, budget):
        u = rng.uniform(0.0, 1.0, 4)
        raw = rng.standard_normal((2, dim))
        if k % 4 == 1 or len(best_parts) == 1:
            # explore: fresh random split of x
            d = raw[0] / np.linalg.norm(raw[0])
            parts = list(_split(xv, 0.05 + 0.9 * u[0], 1.2 * u[1], d))
            if k % 8 == 5:
                d2 = raw[1] / np.linalg.norm(raw[1])
                a, b = _split(parts[0], 0.05 + 0.9 * u[2], 1.2 * u[3], d2)
                parts = [a, b, parts[1]]
        elif k % 4 == 3 and len(best_parts) < MAX_PARTS:
            # grow: split the dominant part of the current best
            parts = list(best_parts)
            vals = eval_norm_rows(space, np.array(parts),
                                  np.broadcast_to(zv, (len(parts), dim)))
            j = int(np.argmax(vals ** r))
            d = raw[0] / np.linalg.norm(raw[0])
            a, b = _split(parts[j], 0.05 + 0.9 * u[0], 0.8 * u[1], d)
            parts = parts[:j] + [a, b] + parts[j + 1:]
        else:
            # nudge: transfer a small annealed offset between two best parts
            parts = list(best_parts)
            i1 = int(u[0] * len(parts))
            i2 = int(u[1] * (len(parts) - 1))
            if i2 >= i1:
                i2 += 1
            d = _oriented(raw[0] / np.linalg.norm(raw[0]), xv)
            size = 0.6 * (0.9 ** (k / 16.0)) * u[2] * nx
            delta = size * d
            parts[i1] = parts[i1] + delta
            parts[i2] = parts[i2] - delta
        value = _combine(space, np.array(parts), zv, r)
        if value < best_value:
            best_value = value
            best_parts = parts
    return best_parts, best_value


def envelope_norm_rows(space: SpaceDescriptor, X, Z, budget: int, seeds) -> list:
    """Envelope searches for many rows at once: one :class:`EnvelopeResult`
    per row ``(X[i], Z[i])``, searched with seed ``seeds[i]``.

    Each row's result is exactly what a search of that row alone returns.
    The single-term certificate and the ``5 dim`` coordinate-frame opening
    splits are evaluated for all rows together, one candidate at a time;
    past ``1 + 5 dim`` candidates each row continues with its own seeded
    random search.
    """
    if budget < 1:
        raise ValueError("budget must be >= 1")
    X = _as_rows(X, space.dim, "X")
    Z = _as_rows(Z, space.dim, "Z")
    seeds = [int(s) for s in seeds]
    n, dim = X.shape
    if Z.shape[0] != n or len(seeds) != n:
        raise ValueError("X, Z and seeds must have the same number of rows")
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
    n_open = min(budget - 1, len(_OPENING_T) * dim)
    for k in range(n_open):
        i, j = divmod(k, len(_OPENING_T))
        a = (_OPENING_T[j] * nx)[:, None] * (sign[:, i, None] * np.eye(dim)[i])
        vals = eval_norm_rows(space, np.concatenate([a, X - a]), ZZ)
        if r == 1.0:
            value = vals[:n] + vals[n:]
        else:
            # the root is taken with Python's scalar pow, as _combine takes it:
            # numpy's array pow rounds differently in a few percent of values
            s = vals ** r
            value = np.array([v ** (1.0 / r) for v in (s[:n] + s[n:]).tolist()])
        # strict <, candidate by candidate: the first minimum wins
        better = value < best
        best[better] = value[better]
        first[better] = a[better]
        split |= better

    out = []
    for i in range(n):
        best_parts = [first[i], X[i] - first[i]] if split[i] else [X[i]]
        best_value = float(best[i])
        if budget > n_open + 1:
            best_parts, best_value = _adaptive(
                space, X[i], Z[i], r, float(nx[i]), best_parts, best_value, budget,
                np.random.default_rng(seeds[i]))
        b = float(base[i])
        out.append(EnvelopeResult(
            value=best_value,
            certificate=[prt.tolist() for prt in best_parts],
            p=p,
            theta=p,
            c1_observed=(best_value / b) if b > 0 else 1.0,
        ))
    return out


def envelope_norm(space: SpaceDescriptor, x, z, budget: int, seed: int) -> EnvelopeResult:
    """Search decompositions of x and return the best envelope upper bound.

    At most ``budget`` candidate decompositions are evaluated (the single-term
    certificate is always among them); part count never exceeds 8.  Candidate
    ``k`` consumes a fixed number of random draws and depends only on the
    candidates before it, so the first ``k`` evaluations are the same for
    every budget >= k.  This is the one-row case of :func:`envelope_norm_rows`.
    """
    xv = _as_vector(x, space.dim)
    zv = _as_vector(z, space.dim)
    return envelope_norm_rows(space, xv[None, :], zv[None, :], budget, [seed])[0]


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
    """
    if trials < 1:
        raise ValueError("trials must be >= 1")
    rng = np.random.default_rng(seed)
    X, Y, _ = sample_pairs(rng, trials)
    Z = rng.uniform(-10.0, 10.0, (trials, space.dim))
    degen = rng.uniform(0.0, 1.0, trials) < 0.01
    Z[degen] = 0.0

    r = theta(space.beta, space.kappa) / space.beta
    live = np.flatnonzero(Z.any(axis=1))
    values = []
    # the three envelopes of each trial, searched in blocks of trials so the
    # results held at once stay bounded
    for lo in range(0, live.size, _TRIALS_PER_SEARCH):
        block = live[lo:lo + _TRIALS_PER_SEARCH]
        rows = np.stack([X[block] + Y[block], X[block], Y[block]], axis=1).reshape(-1, space.dim)
        seeds = [seed + 7919 * i + j for i in block.tolist() for j in range(3)]
        values += [res.value for res in envelope_norm_rows(
            space, rows, np.repeat(Z[block], 3, axis=0), budget, seeds)]

    violations = 0
    worst = None
    worst_excess = 0.0
    for n, i in enumerate(live.tolist()):
        exy, ex, ey = values[3 * n:3 * n + 3]
        lhs = exy ** r
        rhs = ex ** r + ey ** r
        if lhs > rhs * (1.0 + 1e-6):
            violations += 1
            excess = lhs - rhs
            if excess > worst_excess:
                worst_excess = excess
                worst = {
                    "x": X[i].tolist(), "y": Y[i].tolist(), "z": Z[i].tolist(),
                    "lhs": lhs, "rhs": rhs,
                }
    return PTriangleReport(
        trials=trials, violations=violations, degenerate=trials - live.size,
        worst=worst, exponent=r,
    )
