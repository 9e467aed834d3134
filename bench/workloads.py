"""Workload definitions: the job pool of each workload, how a job runs, and
which result fields of a job are compared against the recorded references.

A workload is a fixed pool of jobs.  Each job has a stable key, a kind and
its inputs; the pool does not depend on the run seed.  The run seed only
chooses the order: jobs of each kind are shuffled by the seed and the kinds
are interleaved in a fixed cycle, so every run sees the same mix of kinds
(and so the same cost profile) while the concrete inputs differ by seed.

Why these workloads (sizes are fixed; see predictions.json for the layer ->
metric predictions):

* ``bulk_sampling``: ``check-space`` at 1e5 trials.  The vectorized norm
  kernel on ~1e5-row arrays plus the samplers; no envelope, fixed-point or
  hyperstability code.  A fix aimed at 1-8 row calls must not slow it.
* ``envelope_search``: ``envelope`` at budget 12, 200 trials, 50 certificate
  samples.  Thousands of ``eval_norm_rows`` calls on 1-8 rows each.
* ``experiment``: ``hyperstab`` jobs from the shipped reference experiment
  (CSV output) interleaved with ``solve`` jobs at 1000 residual pairs.
  Scalar ``eval_norm``, admissibility/residual loops, report writing.
* ``orbit``: library-level ``fixedpoint.iterate`` with a callable phi (the
  memoized orbit recursion, whose memory grows with iteration depth) plus an
  expansion-table sweep.  The CLI cannot reach this path.
"""

from __future__ import annotations

import json
import math
import os

import numpy as np

WORKLOADS = ("bulk_sampling", "envelope_search", "experiment", "orbit")

# Kinds of each workload, in the order one cycle runs them.
CYCLES = {
    "bulk_sampling": ("lp_0.4", "lp_0.5", "powered", "scaled"),
    "envelope_search": ("cross", "lp_0.5_kappa1"),
    # two hyperstab jobs per solve job keeps the median inside one job kind
    "experiment": ("hyperstab", "solve", "hyperstab"),
    "orbit": ("orbit",),
}

# Cycles in a workload's pool: more than one run at the parent commit gets
# through, so runs of different seeds see different inputs.  A run that gets
# through the whole pool starts it again.
POOL_CYCLES = {"bulk_sampling": 20, "envelope_search": 24, "experiment": 48, "orbit": 80}

CROSS = {"family": "CROSS_2NORM"}
SPACES = {
    "lp_0.4": {"family": "LP_CROSS", "p": 0.4, "kappa": 2.0 ** (1.0 / 0.4 - 1.0)},
    "lp_0.5": {"family": "LP_CROSS", "p": 0.5, "kappa": 2.0},
    "powered": {"family": "POWERED", "beta": 0.5, "kappa": 1.0, "base": CROSS},
    "scaled": {"family": "SCALED", "factor": 3.0, "base": CROSS},
    "cross": CROSS,
    # the CLI's default declared kappa (1): the p-triangle check then finds
    # upper-bound violations in ~10-17 % of trials and the job exits 2
    "lp_0.5_kappa1": {"family": "LP_CROSS", "p": 0.5},
}

CHECK_SPACE_TRIALS = 100_000
ENVELOPE_TRIALS = 200
ENVELOPE_CERTIFICATE_SAMPLES = 50
ENVELOPE_BUDGET = 12
SOLVE_RESIDUAL_PAIRS = 1000
HYPERSTAB_M_PER_JOB = 3
M0_RANGE = range(2, 13)

# orbit: 3 branches (T_2 of the radical equation a=b=1, c=d=2), tol 1e-8,
# n_max 40.  phi = coef |x|^-3 e1 sampled at one point x0 with
# coef * x0^-3 fixed, so every job follows the same 27-iteration trajectory
# up to scale: inputs vary with the seed, cost does not.
ORBIT_M = 2
ORBIT_TOL = 1e-8
ORBIT_N_MAX = 40
ORBIT_PHI_LEVEL = 0.8
ORBIT_EPS_RATIO = 0.6
ORBIT_SWEEP_N = 12
ORBIT_WITNESSES = ([0.0, 1.0, 0.0], [0.0, 0.0, 1.0])


def _pool_rng(workload: str, kind: str) -> np.random.Generator:
    # independent of the run seed: the pool is fixed, references are per key
    tag = sum((i + 1) * ord(ch) for i, ch in enumerate(f"{workload}/{kind}"))
    return np.random.default_rng(20070145 + tag)


def _solve_equation(rng):
    """Equation parameters that admit an exact solution (a^2 = c/2, b^2 = d/2);
    the (0.6, 0.8) pair also satisfies c + d = 2, so a constant w is allowed."""
    a, b = [(1.0, 1.0), (0.5, 1.0), (1.0, 2.0), (2.0, 0.5), (0.6, 0.8)][int(rng.integers(5))]
    eq = {"a": a, "b": b, "c": 2.0 * a * a, "d": 2.0 * b * b}
    w = rng.uniform(-1.0, 1.0, 3).round(6).tolist() if (a, b) == (0.6, 0.8) else None
    return eq, w


def _unit(rng):
    v = rng.standard_normal(3)
    return (v / np.linalg.norm(v)).round(12).tolist()


def pool(workload: str, root: str) -> list:
    """The fixed job pool of a workload: list of dicts with key, kind, spec.

    ``spec`` is a CLI config document (dict) for CLI jobs and a parameter
    dict for orbit jobs.
    """
    jobs = []
    cycle = CYCLES[workload]
    if "hyperstab" in cycle:
        with open(os.path.join(root, "docs", "reference_hyperstab.json")) as fh:
            reference = fh.read()
    for kind in dict.fromkeys(cycle):
        rng = _pool_rng(workload, kind)
        for i in range(POOL_CYCLES[workload] * cycle.count(kind)):
            seed = int(rng.integers(0, 2**31 - 1))
            if workload == "bulk_sampling":
                spec = {"command": "CHECK_SPACE", "seed": seed, "payload": {
                    "space": SPACES[kind], "trials": CHECK_SPACE_TRIALS}}
            elif workload == "envelope_search":
                spec = {"command": "ENVELOPE", "seed": seed, "payload": {
                    "space": SPACES[kind], "trials": ENVELOPE_TRIALS,
                    "certificate_samples": ENVELOPE_CERTIFICATE_SAMPLES,
                    "budget": ENVELOPE_BUDGET}}
            elif kind == "hyperstab":
                spec = json.loads(reference)
                ms = sorted(int(m) for m in rng.choice(list(M0_RANGE), HYPERSTAB_M_PER_JOB,
                                                       replace=False))
                spec["seed"] = seed
                spec["format"] = "csv"
                spec["payload"]["m_values"] = ms
            elif kind == "solve":
                eq, w = _solve_equation(rng)
                payload = {"equation": eq, "theta_coef": round(float(rng.uniform(0.5, 2.0)), 6),
                           "direction": _unit(rng), "residual_pairs": SOLVE_RESIDUAL_PAIRS}
                if w is not None:
                    payload["w"] = w
                spec = {"command": "SOLVE", "seed": seed, "payload": payload}
            else:
                x0 = round(float(rng.uniform(0.4, 0.8)), 6)
                spec = {"x0": x0, "coef": ORBIT_PHI_LEVEL * x0 ** 3,
                        "sweep_m": int(rng.choice(list(M0_RANGE)))}
            jobs.append({"key": f"{kind}/{i:02d}/{seed}", "kind": kind, "spec": spec})
    return jobs


def schedule(jobs: list, workload: str, seed: int) -> list:
    """Order the pool for one run: shuffle each kind by ``seed``, then
    interleave the kinds in the workload's fixed cycle."""
    rng = np.random.default_rng(seed)
    by_kind = {}
    for job in jobs:
        by_kind.setdefault(job["kind"], []).append(job)
    queues = {k: [v[i] for i in rng.permutation(len(v))] for k, v in by_kind.items()}
    cycle = CYCLES[workload]
    uses = {k: cycle.count(k) for k in by_kind}
    n_cycles = min(len(queues[k]) // uses[k] for k in queues)
    order, pos = [], {k: 0 for k in queues}
    for _ in range(n_cycles):
        for k in cycle:
            order.append(queues[k][pos[k]])
            pos[k] += 1
    return order


# ---------------------------------------------------------------------------
# running a job
# ---------------------------------------------------------------------------

def prepare(job: dict, cli):
    """Set-up work for one job: CLI configs are validated by ``parse_config``."""
    if job["kind"] == "orbit":
        return job["spec"]
    return cli.parse_config(json.dumps(job["spec"]))


def _orbit_problem(params: dict, qb):
    """The orbit job's operator, start function phi (term family) and error
    majorant."""
    eq = qb.radical.EquationParams(1.0, 1.0, 2.0, 2.0)
    spec = qb.hyperstab.radical_iteration_spec(eq, ORBIT_M, qb.spaces.cross_2norm())
    coef = params["coef"]
    phi = qb.radical.VectorFunction(
        terms=[qb.radical.Term(coef=coef, exponent=-3.0, mode="ABS", direction=[1.0, 0.0, 0.0])])
    eps = qb.fixedpoint.ScalarErrorFn([(ORBIT_EPS_RATIO * coef, -3.0)])
    return eq, spec, phi, eps


def run_orbit(params: dict, qb) -> dict:
    """One orbit job through the public API; returns the checked fields."""
    eq, spec, phi_terms, eps = _orbit_problem(params, qb)
    x0 = params["x0"]
    # a plain callable takes the generic (memoized orbit) path of iterate
    report = qb.fixedpoint.iterate(spec, lambda x: phi_terms(x), eps, [x0],
                                   list(ORBIT_WITNESSES), tol=ORBIT_TOL, n_max=ORBIT_N_MAX)
    sextic = qb.radical.VectorFunction(
        terms=[qb.radical.Term(coef=1.0, exponent=6.0, mode="ABS", direction=[1.0, 0.0, 0.0])])
    sextic_errors, applied = [], []
    for n in range(1, ORBIT_SWEEP_N + 1):
        table = qb.hyperstab.expand_T_power(eq, params["sweep_m"], n)
        sextic_errors.append(table.sextic_identity_error())
        applied.append(table.apply(sextic, x0).tolist())
    return {"converged": report.converged, "iterations": report.iterations,
            "psi": report.psi_values[x0], "sextic_errors": sextic_errors,
            "apply_n1": applied[0], "sextic_at_x0": sextic(x0).tolist(),
            "apply_finite": all(math.isfinite(v) for row in applied for v in row)}


def term_path_psi(params: dict, qb) -> list:
    """psi from the term-family path (exact per-term multipliers) for the
    same orbit inputs; the reference that the callable path must match."""
    _, spec, phi, eps = _orbit_problem(params, qb)
    rep = qb.fixedpoint.iterate(spec, phi, eps, [params["x0"]], list(ORBIT_WITNESSES),
                                tol=ORBIT_TOL, n_max=ORBIT_N_MAX)
    return rep.psi_values[params["x0"]]


# ---------------------------------------------------------------------------
# result fields
# ---------------------------------------------------------------------------

def report_bytes(out_dir: str) -> int:
    return sum(os.path.getsize(os.path.join(out_dir, f)) for f in os.listdir(out_dir))


def extract(command: str, out_dir: str) -> dict:
    """The checked fields of a CLI job, read back from its written report."""
    command = command.lower()
    with open(os.path.join(out_dir, f"{command}_report.json")) as fh:
        body = json.load(fh)["report"]
    if command == "check_space":
        ax = body["axioms"]
        fields = {f"{b}_count": ax["violations"][b]["count"] for b in ("B1", "B2", "B3", "B4")}
        fields.update(kappa_observed=ax["kappa_observed"], degenerate=ax["degenerate"],
                      kappa_estimate=body["kappa_estimate"])
        return fields
    if command == "envelope":
        return {"certificate_failures": body["certificate_failures"],
                "p_triangle_violations": body["p_triangle"]["violations"],
                "p_triangle_degenerate": body["p_triangle"]["degenerate"]}
    if command == "solve":
        return {"deviations": body["structure"]["deviations"],
                "residual_pairs": body["residual_pairs"]}
    return {"m0_members": body["m0"]["members"],
            "per_m": {str(r["m"]): {"qm_values": r["qm"]["values"],
                                    "iterations": r["qm"]["iterations"],
                                    "K_observed": r["K_observed"]}
                      for r in body["per_m"]}}
