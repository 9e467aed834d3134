"""Batch front-end: validated JSON configs in, machine-readable reports out.

One command per invocation::

    hyperstab <command> --config cfg.json [--seed N] [--out DIR] [--format json|csv]

Commands: check-space, envelope, fixed-point, solve, hyperstab.  Reports are
written atomically (temp file + rename); the JSON body is canonical (sorted
keys) so identical config + seed gives byte-identical output apart from the
``metadata`` block, which carries the timestamp.

Exit codes: 0 all checks passed, 2 the report's ``violations`` list is nonempty,
1 operational error (a numeric failure such as an overflow included).
"""

from __future__ import annotations

import csv
import datetime
import io
import json
import os
import sys
import tempfile
from dataclasses import dataclass, field, fields, is_dataclass

import numpy as np

from . import hyperstab as hs
from .envelope import check_p_triangle, envelope_norm_rows
from .fixedpoint import Branch, IterationSpec, ScalarErrorFn, iterate, load_sample_grid
# admissibility is not called here but stays bound: bench/tracer.py wraps it
# in every namespace, cli's included, and its test checks that binding
from .radical import (EquationParams, NoExactSolutionError, Term, VectorFunction,  # noqa: F401
                      admissibility, check_structure, make_solution, residual_check)
from .spaces import check_axioms, estimate_kappa, eval_norm_rows, space_from_dict

__all__ = ["RunConfig", "ConfigError", "parse_config", "run", "emit_csv", "main", "COMMANDS",
           "VIOLATIONS", "json_schema", "SCHEMAS"]

COMMANDS = ("CHECK_SPACE", "ENVELOPE", "FIXED_POINT", "SOLVE", "HYPERSTAB")
_CLI_NAMES = {
    "check-space": "CHECK_SPACE",
    "envelope": "ENVELOPE",
    "fixed-point": "FIXED_POINT",
    "solve": "SOLVE",
    "hyperstab": "HYPERSTAB",
}


class ConfigError(ValueError):
    """Config rejected: the message names the offending path and constraint."""


# ---------------------------------------------------------------------------
# schemas: JSON Schema (draft 2020-12), shipped as docs/*.schema.json
# ---------------------------------------------------------------------------

_NUM = {"type": "number"}
_VEC = {"type": "array", "items": _NUM, "minItems": 1}
# a vector paired in a space: every space is on R^3
_VEC3 = {"type": "array", "items": _NUM, "minItems": 3, "maxItems": 3}
# sample points and grids: the operators and the equation exclude x = 0
_POINTS = {"type": "array", "items": {"type": "number", "not": {"const": 0}}, "minItems": 1}
_SPACE_REF = {"$ref": "#/$defs/space"}

_SPACE = {
    "type": "object",
    "properties": {
        "family": {"type": "string", "enum": ["CROSS_2NORM", "POWERED", "LP_CROSS", "SCALED"],
                   "description": "all take beta and kappa; LP_CROSS also needs p, "
                                  "POWERED a base of beta 1, SCALED a base and a factor "
                                  "(its beta is its base's)"},
        "beta": {"type": "number", "exclusiveMinimum": 0.0, "maximum": 1.0,
                 "description": "beta must lie in (0,1]"},
        "kappa": {"type": "number", "minimum": 1.0},
        "p": {"type": "number", "exclusiveMinimum": 0.0, "maximum": 1.0,
              "description": "p must lie in (0,1]"},
        "factor": {"type": "number", "exclusiveMinimum": 0.0},
        "base": _SPACE_REF,
    },
    "required": ["family"],
    "additionalProperties": False,
    "default": {"beta": 1.0, "kappa": 1.0},
}
_DEFS = {"space": _SPACE}

_EQUATION = {
    "type": "object",
    "properties": {
        "a": _NUM, "b": _NUM, "c": _NUM, "d": _NUM,
        "root_n": {"type": "integer", "minimum": 3, "not": {"multipleOf": 2},
                   "description": "root_n must be an odd integer >= 3"},
    },
    "required": ["a", "b", "c", "d"],
    "additionalProperties": False,
    "default": {"root_n": 3},
}

_VECTOR_FUNCTION = {
    "type": "object",
    "properties": {
        "terms": {"type": "array", "items": {
            "type": "object",
            "properties": {
                "coef": _NUM,
                "exponent": _NUM,
                "mode": {"type": "string", "enum": ["ABS", "SIGNED"]},
                "direction": _VEC3,
            },
            "required": ["coef", "exponent", "direction"],
            "additionalProperties": False,
            "default": {"mode": "ABS"},
        }},
        "constant": _VEC3,
    },
    "required": [],
    "additionalProperties": False,
    "default": {"terms": [], "constant": [0.0, 0.0, 0.0]},
}

SCHEMAS = {
    "CHECK_SPACE": {
        "type": "object",
        "properties": {
            "space": _SPACE_REF,
            # memory is O(block) at any count, so time bounds it: 10^8 take ~2 min
            "trials": {"type": "integer", "minimum": 1, "maximum": 100_000_000},
        },
        "required": ["space"],
        "additionalProperties": False,
        "default": {"trials": 10_000},
    },
    "ENVELOPE": {
        "type": "object",
        "properties": {
            "space": _SPACE_REF,
            # O(trials) memory; at budget 12 a trial takes ~0.3 ms and a
            # certificate sample ~0.1 ms, at budget 40 ~11 ms and ~4 ms
            "trials": {"type": "integer", "minimum": 1, "maximum": 100_000},
            "certificate_samples": {"type": "integer", "minimum": 0, "maximum": 100_000},
            "budget": {"type": "integer", "minimum": 1, "maximum": 40},
        },
        "required": ["space"],
        "additionalProperties": False,
        "default": {"trials": 10_000, "certificate_samples": 1000, "budget": 12},
    },
    "FIXED_POINT": {
        "type": "object",
        "properties": {
            "space": _SPACE_REF,
            "branches": {"type": "array", "minItems": 1, "items": {
                "type": "object",
                "properties": {
                    "scale": _NUM, "coef": _NUM,
                    "kappa_exp": {"type": "integer", "minimum": 1, "maximum": 2},
                },
                "required": ["scale", "coef"],
                "additionalProperties": False,
                "default": {"kappa_exp": 1},
            }},
            "phi": _VECTOR_FUNCTION,
            "error_terms": {"type": "array", "items": {
                "type": "object",
                "properties": {"c": {"type": "number", "minimum": 0.0}, "s": _NUM},
                "required": ["c", "s"],
                "additionalProperties": False,
            }},
            "samples": _POINTS,
            "samples_csv": {"type": "string"},
            "witnesses": {"type": "array", "items": _VEC3, "minItems": 1},
            "tol": {"type": "number", "exclusiveMinimum": 0.0},
            # a step takes ~0.2 ms at 3 samples, in memory that does not grow
            "n_max": {"type": "integer", "minimum": 1, "maximum": 100_000},
        },
        "required": ["space", "branches", "phi", "error_terms"],
        "additionalProperties": False,
        "default": {"tol": 1e-10, "n_max": 200,
                    "witnesses": [[0.0, 1.0, 0.0], [0.0, 0.0, 1.0]]},
    },
    "SOLVE": {
        "type": "object",
        "properties": {
            "equation": _EQUATION,
            "theta_coef": _NUM,
            "w": _VEC,
            "direction": _VEC,
            "grid": _POINTS,
            "tol": {"type": "number", "exclusiveMinimum": 0.0},
            # ~25 us and ~0.6 KB a pair
            "residual_pairs": {"type": "integer", "minimum": 0, "maximum": 100_000},
        },
        "required": ["equation"],
        "additionalProperties": False,
        "default": {"theta_coef": 1.0, "direction": [1.0, 0.0, 0.0],
                    "grid": [0.5, 0.75, 1.0, 1.5, 2.0], "tol": 1e-10,
                    "residual_pairs": 1000},
    },
    "HYPERSTAB": {
        "type": "object",
        "properties": {
            "space": _SPACE_REF,
            "aux_space": _SPACE_REF,
            "equation": _EQUATION,
            "error_model": {
                "type": "object",
                "properties": {
                    "components": {"type": "array", "minItems": 4, "maxItems": 4, "items": {
                        "type": "object",
                        "properties": {"c": {"type": "number", "minimum": 0.0}, "p": _NUM,
                                       "y": _VEC3},
                        "required": ["c", "p", "y"],
                        "additionalProperties": False,
                    }},
                    "g_map": {"description": 'g maps a witness into the auxiliary space: '
                                             '"IDENTITY", or {"matrix": a 3x3 array of '
                                             'finite numbers}'},
                },
                "required": ["components"],
                "additionalProperties": False,
                "default": {"g_map": "IDENTITY"},
            },
            "solution": {
                "type": "object",
                "properties": {"theta_coef": _NUM, "w": _VEC3, "direction": _VEC3},
                "required": [],
                "additionalProperties": False,
                "default": {"theta_coef": 1.0, "direction": [1.0, 0.0, 0.0]},
            },
            "perturbation": {
                "type": "object",
                "properties": {
                    "eta": _NUM, "exponent": _NUM,
                    "mode": {"type": "string", "enum": ["ABS", "SIGNED"]},
                    "direction": _VEC3,
                },
                "required": [],
                "additionalProperties": False,
                "default": {"eta": 0.0, "exponent": -3.0, "mode": "ABS"},
            },
            "grid": _POINTS,
            # no m above m_max's bound can be in M0, and a repeat reruns its Q_m
            "m_values": {"type": "array", "uniqueItems": True,
                         "items": {"type": "integer", "minimum": 2, "maximum": 10_000}},
            # ~0.15 ms and ~1 KB of report and CSV an index
            "m_max": {"type": "integer", "minimum": 2, "maximum": 10_000},
            "witnesses": {"type": "array", "items": _VEC3, "minItems": 1},
            "tolerances": {
                "type": "object",
                "properties": {
                    "qm_tol": {"type": "number", "exclusiveMinimum": 0.0},
                    # per checked m: ~0.3 ms a step, ~25 us and ~0.6 KB a pair
                    "qm_n_max": {"type": "integer", "minimum": 1, "maximum": 100_000},
                    "residual_pairs": {"type": "integer", "minimum": 0, "maximum": 100_000},
                },
                "required": [],
                "additionalProperties": False,
                "default": {"qm_tol": 1e-10, "qm_n_max": 60, "residual_pairs": 1000},
            },
        },
        "required": ["space", "equation", "error_model", "grid"],
        "additionalProperties": False,
        "default": {"m_values": [2, 3, 5], "m_max": 12,
                    "witnesses": [[0.0, 1.0, 0.0], [0.0, 0.0, 1.0], [1.0, 1.0, 1.0]]},
    },
}

_TOP = {
    "type": "object",
    "properties": {
        "command": {"type": "string", "enum": list(COMMANDS)},
        "seed": {"type": "integer", "minimum": 0},
        "output": {"type": "string"},
        "format": {"type": "string", "enum": ["json", "csv"]},
        "payload": {},
    },
    "required": ["command", "payload"],
    "additionalProperties": False,
    "default": {"seed": 0, "format": "json"},
}


def _validate(node: dict, value, path: str):
    """Check ``value`` against a schema node; returns it with defaults filled in.

    The keywords read are the ones the schemas use: ``$ref`` (into
    ``$defs``), ``type``, ``properties``, ``required``,
    ``additionalProperties: false``, ``default``, ``items``,
    ``minItems``/``maxItems``, ``uniqueItems`` (on arrays of numbers),
    ``enum``, ``minimum``/``maximum``/``exclusiveMinimum`` and ``not:
    {multipleOf}`` or ``not: {const}``; a node without ``type`` (``{}``)
    takes any value.  An absent property takes its object's ``default``, or,
    when it is an object with no required keys, its own defaults, validated
    like a given value (so the result holds a copy, never the schema's own
    object).  A failed bound reports the node's ``description``, if it has
    one, after the path.
    """
    if "$ref" in node:
        node = _DEFS[node["$ref"].rpartition("/")[2]]
    kind = node.get("type")
    if kind is None:
        return value
    if kind == "object":
        if not isinstance(value, dict):
            raise ConfigError(f"{path}: expected an object")
        props = node["properties"]
        if node.get("additionalProperties") is False:
            for key in value:
                if key not in props:
                    raise ConfigError(f"unknown key at {path}.{key}")
        for key in node["required"]:
            if key not in value:
                raise ConfigError(f"{path}.{key}: required field missing")
        default = node.get("default", {})
        out = {}
        for key, sub in props.items():
            if key in value:
                out[key] = _validate(sub, value[key], f"{path}.{key}")
            elif key in default or sub.get("type") == "object" and not sub["required"]:
                out[key] = _validate(sub, default.get(key, {}), f"{path}.{key}")
        return out
    if kind == "array":
        if not isinstance(value, list):
            raise ConfigError(f"{path}: expected an array")
        if len(value) < node.get("minItems", 0):
            raise ConfigError(f"{path}: at least {node['minItems']} item(s) required")
        if "maxItems" in node and len(value) > node["maxItems"]:
            raise ConfigError(f"{path}: at most {node['maxItems']} item(s) allowed")
        out = [_validate(node["items"], v, f"{path}[{i}]") for i, v in enumerate(value)]
        if node.get("uniqueItems") and len(set(out)) < len(out):
            raise ConfigError(f"{path}: items must be unique")
        return out
    if kind == "string":
        if not isinstance(value, str):
            raise ConfigError(f"{path}: expected a string")
        enum = node.get("enum")
        if enum and value not in enum:
            raise ConfigError(f"{path}: must be one of {enum}")
        return value
    if kind == "integer":
        if not isinstance(value, int) or isinstance(value, bool):
            raise ConfigError(f"{path}: expected an integer")
        _check_bounds(node, value, path)
        return value
    if kind == "number":
        if not isinstance(value, (int, float)) or isinstance(value, bool):
            raise ConfigError(f"{path}: expected a number")
        # an int literal past the float range fails here too, not in float()
        if not abs(value) <= sys.float_info.max:
            raise ConfigError(f"{path}: must be finite")
        _check_bounds(node, float(value), path)
        return float(value)
    raise AssertionError(f"bad schema node {kind}")


def _check_bounds(node, value, path):
    neg = node.get("not", {})
    if "minimum" in node and value < node["minimum"]:
        bound = f"must be >= {node['minimum']}"
    elif "maximum" in node and value > node["maximum"]:
        bound = f"must be <= {node['maximum']}"
    elif "exclusiveMinimum" in node and value <= node["exclusiveMinimum"]:
        bound = f"must be > {node['exclusiveMinimum']}"
    elif "multipleOf" in neg and value % neg["multipleOf"] == 0:
        bound = f"must not be a multiple of {neg['multipleOf']}"
    elif "const" in neg and value == neg["const"]:
        bound = f"must not be {neg['const']}"
    else:
        return
    raise ConfigError(f"{path}: {node.get('description', bound)}")


def json_schema(command: str) -> dict:
    """A command's payload schema as shipped in ``docs/``: ``SCHEMAS[command]``
    under a header that holds the space schema its ``$ref``s point at."""
    return {"$schema": "https://json-schema.org/draft/2020-12/schema",
            "title": f"{command} payload", "$defs": _DEFS, **SCHEMAS[command]}


@dataclass
class RunConfig:
    command: str
    payload: dict
    seed: int = 0
    output: str | None = None
    format: str = "json"
    # the runner's inputs, built from the payload and never set apart from it;
    # they hold numpy arrays, whose == is elementwise, and the payload states them
    inputs: object = field(init=False, compare=False, repr=False)

    def __post_init__(self):
        self.inputs = _build_inputs(self.command, self.payload)


def parse_config(text, command: str | None = None) -> RunConfig:
    """Parse and validate a config document; defaults are filled in.

    The shape is checked against the command's schema, then the runner's
    inputs are built by the domain constructors; either refusal is a
    ``ConfigError`` naming the offending path, unknown keys included.
    ``command`` (from the CLI subcommand) may supply or must match the
    document's command field.
    """
    if isinstance(text, bytes):
        text = text.decode("utf-8")
    try:
        raw = json.loads(text)
    except json.JSONDecodeError as exc:
        raise ConfigError(f"config is not valid JSON: {exc}") from exc
    if command is not None and isinstance(raw, dict) and "command" not in raw:
        raw = {**raw, "command": command}
    top = _validate(_TOP, raw, "config")
    if command is not None and top["command"] != command:
        raise ConfigError(
            f"config.command: {top['command']} does not match CLI command {command}")
    payload = _validate(SCHEMAS[top["command"]], top["payload"], "payload")
    return RunConfig(command=top["command"], payload=payload, seed=top["seed"],
                     output=top.get("output"), format=top["format"])


def _at(path: str, make, *args, **kwargs):
    """``make(*args, **kwargs)``; its refusal (``ValueError``, or ``OSError``
    for a file) is re-raised as a ``ConfigError`` naming ``path``."""
    try:
        return make(*args, **kwargs)
    except (ValueError, OSError) as exc:
        raise ConfigError(f"{path}: {exc}") from None


def _build_inputs(command: str, p: dict):
    """The runner's inputs: the payload with each section built by the
    constructor that owns its meaning (a ``hyperstab`` experiment whole)."""
    built = dict(p)
    if "space" in p:
        built["space"] = _at("payload.space", space_from_dict, p["space"])
    if "equation" in p:
        built["equation"] = _at("payload.equation", EquationParams, **p["equation"])
    if command == "FIXED_POINT":
        if "samples" not in p and "samples_csv" not in p:
            raise ConfigError("payload.samples: either samples or samples_csv is required")
        # a samples_csv grid meets the rules of the samples list
        built["samples"] = p["samples"] if "samples" in p else _validate(
            SCHEMAS["FIXED_POINT"]["properties"]["samples"],
            _at("payload.samples_csv", load_sample_grid, p["samples_csv"]), "payload.samples_csv")
        branches = [_at(f"payload.branches[{i}]", Branch, **b)
                    for i, b in enumerate(p["branches"])]
        built.update(spec=IterationSpec(branches, built["space"]),
                     phi=VectorFunction([Term(**t) for t in p["phi"]["terms"]],
                                        p["phi"]["constant"]),
                     eps=ScalarErrorFn([(t["c"], t["s"]) for t in p["error_terms"]]))
    elif command == "SOLVE" and "w" in p and p["theta_coef"] != 0.0:
        # theta x^(2n) direction + w is one VectorFunction: one length
        _at("payload.w", VectorFunction, [Term(1.0, 0.0, direction=p["direction"])], p["w"])
    elif command == "HYPERSTAB":
        # the majorant's auxiliary space is the space itself unless the
        # payload names one; its beta is the model's alpha
        aux = (_at("payload.aux_space", space_from_dict, p["aux_space"]) if "aux_space" in p
               else built["space"])
        em, g = p["error_model"], p["error_model"]["g_map"]
        # ErrorModel owns what a matrix may be; anything else is handed on as one
        matrix = (None if g == "IDENTITY" else
                  g["matrix"] if isinstance(g, dict) and list(g) == ["matrix"] else g)
        model = _at("payload.error_model.g_map", hs.ErrorModel,
                    tuple(hs.ErrorComponent(**c) for c in em["components"]), aux, matrix)
        same = ("space", "equation", "solution", "perturbation", "grid", "m_values", "m_max",
                "witnesses")
        return hs.ExperimentConfig(model=model, **{k: built[k] for k in same},
                                   **p["tolerances"])
    return built


# ---------------------------------------------------------------------------
# command execution
# ---------------------------------------------------------------------------

VIOLATIONS = (  # every cause of exit 2; each runner returns (body, _violation records, CSV tables)
    "axiom violated", "no valid B4 triples",                                 # check-space
    "certificate failure", "p-triangle violated",                            # envelope
    "not converged", "divergent eps_star", "no error budget",                # fixed-point (+ hyperstab)
    "no exact solution", "structure law over tol", "residual over tol",      # solve
    "no admissible pairs", "too few admissible pairs",                       # solve, hyperstab
    "empty M0", "no index checked", "Q_m not converged")                     # hyperstab


def _violation(name: str, where=None, **detail) -> dict:
    """One record of ``run``'s violations; ``where`` None covers the whole run."""
    if name not in VIOLATIONS:
        raise ValueError(f"unregistered violation name {name!r}")
    return {"name": name, "where": where, **detail}


def _pair_shortfall(requested: int, admissible: int, drawn: int, where=None) -> list:
    """``[]``, or the record of a residual check that found fewer than
    ``requested`` admissible pairs in ``drawn`` draws."""
    if admissible >= requested:
        return []
    return [_violation("no admissible pairs" if admissible == 0 else "too few admissible pairs",
                       where, requested_pairs=requested, admissible_pairs=admissible,
                       rejected_pairs=drawn - admissible)]


def _no_budget(unbudgeted: list, where=None) -> list:
    """``[]``, or the record of the bound entries (``{"x", "witness"}``) whose
    deviation has no error budget, so that no finite K covers them."""
    return [_violation("no error budget", where, entries=unbudgeted)] if unbudgeted else []


def _run_check_space(inputs, seed):
    space, trials = inputs["space"], inputs["trials"]
    report = hs.stage("check_axioms", check_axioms, space, trials, seed)
    kest = hs.stage("estimate_kappa", estimate_kappa, space, trials, seed)
    violations = [_violation("axiom violated", b, count=v.count)
                  for b, v in report.violations.items() if v.count]
    if report.degenerate == trials:
        # B4 compared no triple: kappa_observed 0.0 and no B4 count mean nothing
        violations.append(_violation("no valid B4 triples", degenerate_triples=report.degenerate))
    return {"axioms": report, "kappa_estimate": kest}, violations, {}


def _run_envelope(inputs, seed):
    space = inputs["space"]
    budget = inputs["budget"]
    n_samples = inputs["certificate_samples"]
    rng = np.random.default_rng(seed)
    # same stream as drawing x, then z, sample by sample
    XZ = hs.stage("draw_samples", rng.uniform, -5.0, 5.0, (n_samples, 2, space.dim))
    X, Z = XZ[:, 0], XZ[:, 1]
    results = hs.stage("envelope_norm_rows", envelope_norm_rows, space, X, Z, budget,
                       [seed + i for i in range(n_samples)])
    cert_failures = 0
    worst_gap = 0.0
    for x, base, res in zip(X, eval_norm_rows(space, X, Z).tolist(), results):
        parts = np.asarray(res.certificate)
        gap = float(np.abs(parts.sum(axis=0) - x).max())
        worst_gap = max(worst_gap, gap)
        if gap > 1e-9 * (1.0 + np.abs(x).max()) or res.value > base + 1e-12 * (1.0 + base):
            cert_failures += 1
    tri = hs.stage("check_p_triangle", check_p_triangle, space, inputs["trials"], seed,
                   budget=budget)
    body = {"certificate_failures": cert_failures, "worst_sum_gap": worst_gap,
            "p_triangle": tri}
    violations = []
    if cert_failures:
        violations.append(_violation("certificate failure", count=cert_failures,
                                     worst_sum_gap=worst_gap))
    if tri.violations:
        violations.append(_violation("p-triangle violated", count=tri.violations))
    return body, violations, {}


def _run_fixed_point(inputs, seed):
    spec, eps = inputs["spec"], inputs["eps"]
    report = hs.stage("iterate", iterate, spec, inputs["phi"], eps, inputs["samples"],
                      inputs["witnesses"], tol=inputs["tol"], n_max=inputs["n_max"])
    violations = [] if report.converged else [
        _violation("not converged", iterations=report.iterations)]
    if not report.eps_star_converged:
        rho, s = max((rho, s) for (c, s), rho in zip(eps.terms, eps.rates(spec)) if c > 0)
        violations.append(_violation("divergent eps_star", rho=rho, exponent=s))
    violations += _no_budget(report.unbudgeted)
    return report, violations, {}


_GRID_ROWS = 1000  # sampled pairs listed in residual_grid.csv
_RESIDUAL_TOL = 1e-9  # residual over the terms that cancel; an exact solution reads ~1e-15


def _run_solve(inputs, seed):
    eq, grid = inputs["equation"], inputs["grid"]
    try:
        f = make_solution(eq, inputs["theta_coef"], inputs.get("w"), inputs["direction"])
    except NoExactSolutionError as exc:
        return {}, [_violation("no exact solution", failed_constraints=exc.failed)], {}
    tol = inputs["tol"]
    structure = hs.stage("check_structure", check_structure, eq, f, grid)
    wanted = inputs["residual_pairs"]
    lo, hi = min(map(abs, grid)), max(map(abs, grid))
    residuals, draws, res = hs.stage("residual_check", residual_check, eq, f, lo, hi,
                                     wanted, np.random.default_rng(seed))
    body = {"solution": f, "structure": structure, **residuals}
    # rows computed only when the CSV is written; one np.linalg.norm per row:
    # a batched norm rounds differently
    adm = iter(res)
    grid_rows = ([x, y, float(np.linalg.norm(next(adm))) if ok else "", ok]
                 for x, y, ok in draws[:_GRID_ROWS])
    tables = {"structure_laws": (["law", "max_deviation"], sorted(structure.deviations.items())),
              "residual_grid": (["x", "y", "residual_norm", "admissible"], grid_rows)}
    violations = [_violation("structure law over tol", law, deviation=dev, tol=tol)
                  for law, dev in sorted(structure.deviations.items()) if dev > tol]
    if residuals["sup_residual_scaled"] > _RESIDUAL_TOL:
        violations.append(_violation("residual over tol", tol=_RESIDUAL_TOL,
                                     sup_residual_scaled=residuals["sup_residual_scaled"]))
    return body, violations + _pair_shortfall(wanted, residuals["residual_pairs"],
                                              residuals["drawn_pairs"]), tables


def _run_hyperstab(cfg, seed):
    report = hs.stage("run_experiment", hs.run_experiment, cfg, seed)
    if not report.feasible:
        return report, [_violation("empty M0", m_max=cfg.m_max)], {}
    # no requested m lies in M0: no Q_m was computed and no bound checked
    violations = [] if report.per_m else [_violation(
        "no index checked", requested=cfg.m_values, m0_members=report.m0.members)]
    sweep = [_json_data(c) for c in report.m0.constants]
    tables = {"constants_sweep": (list(sweep[0]), [list(c.values()) for c in sweep])}
    for rec in report.per_m:
        where, qm = f"m={rec['m']}", rec["qm"]
        if not qm.converged:
            violations.append(_violation("Q_m not converged", where, iterations=qm.iterations))
        violations += _no_budget(report.unbudgeted[rec["m"]], where)
        violations += _pair_shortfall(cfg.residual_pairs, qm.residual_pairs, qm.drawn_pairs, where)
        # Q_m and f0 on the grid, with their largest componentwise gap
        dim = len(qm.values[0])
        header = (["x"] + [f"Qm_{i}" for i in range(dim)]
                  + [f"f0_{i}" for i in range(dim)] + ["abs_dev"])
        tables[f"qm_grid_m{rec['m']}"] = (header, [
            [x] + qv + fv + [max(abs(q - f0c) for q, f0c in zip(qv, fv))]
            for x, qv, fv in zip(cfg.grid, qm.values, report.f0_values)])
    return report, violations, tables


_RUNNERS = {
    "CHECK_SPACE": _run_check_space,
    "ENVELOPE": _run_envelope,
    "FIXED_POINT": _run_fixed_point,
    "SOLVE": _run_solve,
    "HYPERSTAB": _run_hyperstab,
}


def _atomic_write(path: str, data: str):
    directory = os.path.dirname(path) or "."
    os.makedirs(directory, exist_ok=True)
    fd, tmp = tempfile.mkstemp(dir=directory, suffix=".tmp")
    try:
        # newline="": the text is written as given (CSV rows end in CRLF)
        with os.fdopen(fd, "w", newline="") as fh:
            fh.write(data)
        os.replace(tmp, path)
    except BaseException:
        if os.path.exists(tmp):
            os.unlink(tmp)
        raise


def _fmt(value) -> str:
    if isinstance(value, float):
        return f"{value:.17g}"
    return str(value)


def emit_csv(sections: dict, out_dir: str) -> list:
    """Write one CSV per tabular section: header row, RFC 4180 quoting, reals
    at 17 significant digits.  Returns the written paths."""
    paths = []
    for name, (header, rows) in sections.items():
        text = io.StringIO()
        writer = csv.writer(text)
        writer.writerow(header)
        for row in rows:
            writer.writerow([_fmt(v) for v in row])
        paths.append(os.path.join(out_dir, f"{name}.csv"))
        _atomic_write(paths[-1], text.getvalue())
    return paths


def _json_data(value):
    """A report body's JSON data: a dataclass becomes its fields, less those
    marked ``field(metadata={"body": False})``, an ndarray its ``tolist()``,
    a mapping gets ``str`` keys (a float key reads as its repr), and lists
    and tuples are converted item by item."""
    # the common kinds first: is_dataclass is the slow test
    if isinstance(value, (float, int, str, type(None))):
        return value
    if isinstance(value, dict):
        return {str(k): _json_data(v) for k, v in value.items()}
    if isinstance(value, (list, tuple)):
        return [_json_data(v) for v in value]
    if isinstance(value, np.ndarray):
        return value.tolist()
    if is_dataclass(value):
        return {f.name: _json_data(getattr(value, f.name))
                for f in fields(value) if f.metadata.get("body", True)}
    return value


def run(config: RunConfig, out_dir: str | None = None) -> int:
    """Execute a validated config; write reports; return the exit code.

    A runner returns its body as records (dataclasses, dicts and lists of
    them), which ``_json_data`` turns into the report's JSON data."""
    out_dir = out_dir or config.output or "."
    name = config.command.lower().replace("_", "-")
    try:
        body, violations, tables = _RUNNERS[config.command](config.inputs, config.seed)
    except ValueError as exc:
        # a failed stage (hs.stage), e.g. an overflow, or a trial count whose
        # arrays cannot be allocated
        print(f"error: {name}: {exc}", file=sys.stderr)
        return 1
    body = _json_data(body)
    for w in body.get("warnings", []):
        print(f"warning: {w}", file=sys.stderr)
    document = {
        "command": config.command,
        "seed": config.seed,
        # the validated payload, defaults filled in: with command and seed it re-runs
        "payload": config.payload,
        "violations": violations,
        "report": body,
        "metadata": {
            "timestamp": datetime.datetime.now(datetime.timezone.utc).isoformat(),
        },
    }
    try:
        path = os.path.join(out_dir, f"{config.command.lower()}_report.json")
        # one line: json's C encoder serves only dumps without an indent; inf
        # and NaN are not JSON (RFC 8259), so a report writes a vacuous number as null
        _atomic_write(path, json.dumps(document, sort_keys=True, allow_nan=False) + "\n")
        if config.format == "csv":
            emit_csv(tables, out_dir)
    except OSError as exc:
        print(f"i/o error: {exc}", file=sys.stderr)
        return 1
    except ValueError as exc:
        print(f"error: {name}: non-finite number in the report: {exc}", file=sys.stderr)
        return 1
    return 2 if violations else 0


def main(argv=None) -> int:
    import argparse  # only the command line needs it: importing cli stays lean
    parser = argparse.ArgumentParser(
        prog="hyperstab",
        description="Quasi-(2,beta) space checks, envelope computation, "
                    "fixed-point iteration and hyperstability experiments.",
    )
    sub = parser.add_subparsers(dest="cli_command", required=True)
    for name in _CLI_NAMES:
        p = sub.add_parser(name)
        p.add_argument("--config", required=True, help="path to the JSON config")
        p.add_argument("--seed", type=int, default=None, help="override the config seed")
        p.add_argument("--out", default=None, help="output directory for reports")
        p.add_argument("--format", choices=["json", "csv"], default=None,
                       help="override the report format")
    args = parser.parse_args(argv)

    try:
        with open(args.config, "rb") as fh:
            text = fh.read()
        config = parse_config(text, command=_CLI_NAMES[args.cli_command])
        if args.seed is not None:
            config.seed = _validate(_TOP["properties"]["seed"], args.seed, "--seed")
    except (OSError, ConfigError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 1
    if args.format is not None:
        config.format = args.format
    code = run(config, out_dir=args.out)
    print(f"{config.command}: exit {code}")
    return code


if __name__ == "__main__":
    sys.exit(main())
