"""Batch front-end: validated JSON configs in, machine-readable reports out.

One command per invocation::

    hyperstab <command> --config cfg.json [--seed N] [--out DIR] [--format json|csv]

Commands: check-space, envelope, fixed-point, solve, hyperstab.  Reports are
written atomically (temp file + rename); the JSON body is canonical (sorted
keys) so identical config + seed gives byte-identical output apart from the
``metadata`` block, which carries the timestamp.

Exit codes: 0 all checks passed, 2 completed with violations, 1 operational
error (a numeric failure such as an overflow included).
"""

from __future__ import annotations

import argparse
import csv
import datetime
import io
import json
import math
import os
import sys
import tempfile
from dataclasses import dataclass, field

import numpy as np

from . import hyperstab as hs
from .envelope import check_p_triangle, envelope_norm_rows
from .fixedpoint import Branch, IterationSpec, ScalarErrorFn, iterate, load_sample_grid
# admissibility is not called here but stays bound: bench/tracer.py wraps it
# in every namespace, cli's included, and its test checks that binding
from .radical import (EquationParams, NoExactSolutionError, VectorFunction,  # noqa: F401
                      admissibility, check_structure, make_solution, pair_shortfall,
                      residual, sample_admissible_pairs)
from .spaces import check_axioms, estimate_kappa, eval_norm_rows, space_from_dict

__all__ = ["RunConfig", "ConfigError", "parse_config", "serialize_config",
           "run", "emit_csv", "main", "COMMANDS", "json_schema", "SCHEMAS"]

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
# schema definitions (source of truth for docs/*.schema.json)
# ---------------------------------------------------------------------------

_NUM = {"type": "number"}
_VEC = {"type": "array", "items": _NUM, "min_len": 1}

_SPACE = {
    "type": "object",
    "fields": {
        "family": {"type": "string", "choices": ["CROSS_2NORM", "POWERED", "LP_CROSS", "SCALED"]},
        "dim": {"type": "integer", "min": 2},
        "beta": {"type": "number", "exclusive_min": 0.0, "max": 1.0,
                 "msg": "beta must lie in (0,1]"},
        "kappa": {"type": "number", "min": 1.0},
        "p": {"type": "number", "exclusive_min": 0.0, "max": 1.0,
              "msg": "p must lie in (0,1]"},
        "factor": {"type": "number", "exclusive_min": 0.0},
        "base": {"type": "self"},
    },
    "required": ["family"],
    "defaults": {"dim": 3, "beta": 1.0, "kappa": 1.0},
}

_EQUATION = {
    "type": "object",
    "fields": {
        "a": _NUM, "b": _NUM, "c": _NUM, "d": _NUM,
        "root_n": {"type": "integer", "min": 3, "odd": True,
                   "msg": "root_n must be an odd integer >= 3"},
    },
    "required": ["a", "b", "c", "d"],
    "defaults": {"root_n": 3},
}

_VECTOR_FUNCTION = {
    "type": "object",
    "fields": {
        "terms": {"type": "array", "items": {
            "type": "object",
            "fields": {
                "coef": _NUM,
                "exponent": _NUM,
                "mode": {"type": "string", "choices": ["ABS", "SIGNED"]},
                "direction": _VEC,
            },
            "required": ["coef", "exponent", "direction"],
            "defaults": {"mode": "ABS"},
        }},
        "constant": _VEC,
    },
    "required": [],
    "defaults": {"terms": []},
}

SCHEMAS = {
    "CHECK_SPACE": {
        "type": "object",
        "fields": {
            "space": _SPACE,
            "trials": {"type": "integer", "min": 1},
        },
        "required": ["space"],
        "defaults": {"trials": 10_000},
    },
    "ENVELOPE": {
        "type": "object",
        "fields": {
            "space": _SPACE,
            "trials": {"type": "integer", "min": 1},
            "certificate_samples": {"type": "integer", "min": 0},
            "budget": {"type": "integer", "min": 1},
        },
        "required": ["space"],
        "defaults": {"trials": 10_000, "certificate_samples": 1000, "budget": 12},
    },
    "FIXED_POINT": {
        "type": "object",
        "fields": {
            "space": _SPACE,
            "branches": {"type": "array", "min_len": 1, "items": {
                "type": "object",
                "fields": {
                    "scale": _NUM, "coef": _NUM,
                    "kappa_exp": {"type": "integer", "min": 1, "max": 2},
                },
                "required": ["scale", "coef"],
                "defaults": {"kappa_exp": 1},
            }},
            "phi": _VECTOR_FUNCTION,
            "error_terms": {"type": "array", "items": {
                "type": "object",
                "fields": {"c": {"type": "number", "min": 0.0}, "s": _NUM},
                "required": ["c", "s"],
                "defaults": {},
            }},
            "samples": {"type": "array", "items": _NUM},
            "samples_csv": {"type": "string"},
            "witnesses": {"type": "array", "items": _VEC},
            "tol": {"type": "number", "exclusive_min": 0.0},
            "n_max": {"type": "integer", "min": 1},
        },
        "required": ["space", "branches", "phi", "error_terms"],
        "defaults": {"tol": 1e-10, "n_max": 200,
                     "witnesses": [[0.0, 1.0, 0.0], [0.0, 0.0, 1.0]]},
    },
    "SOLVE": {
        "type": "object",
        "fields": {
            "equation": _EQUATION,
            "theta_coef": _NUM,
            "w": _VEC,
            "direction": _VEC,
            "grid": {"type": "array", "items": _NUM, "min_len": 1},
            "tol": {"type": "number", "exclusive_min": 0.0},
            "residual_pairs": {"type": "integer", "min": 0},
        },
        "required": ["equation"],
        "defaults": {"theta_coef": 1.0, "direction": [1.0, 0.0, 0.0],
                     "grid": [0.5, 0.75, 1.0, 1.5, 2.0], "tol": 1e-10,
                     "residual_pairs": 1000},
    },
    "HYPERSTAB": {
        "type": "object",
        "fields": {
            "space": _SPACE,
            "aux_space": _SPACE,
            "equation": _EQUATION,
            "error_model": {
                "type": "object",
                "fields": {
                    "alpha": {"type": "number", "exclusive_min": 0.0, "max": 1.0,
                              "msg": "alpha must lie in (0,1]"},
                    "components": {"type": "array", "min_len": 4, "max_len": 4, "items": {
                        "type": "object",
                        "fields": {"c": {"type": "number", "min": 0.0}, "p": _NUM, "y": _VEC},
                        "required": ["c", "p", "y"],
                        "defaults": {},
                    }},
                    "g_map": {"type": "any"},
                },
                "required": ["components"],
                "defaults": {"alpha": 1.0, "g_map": "IDENTITY"},
            },
            "solution": {
                "type": "object",
                "fields": {"theta_coef": _NUM, "w": _VEC, "direction": _VEC},
                "required": [],
                "defaults": {"theta_coef": 1.0, "direction": [1.0, 0.0, 0.0]},
            },
            "perturbation": {
                "type": "object",
                "fields": {
                    "eta": _NUM, "exponent": _NUM,
                    "mode": {"type": "string", "choices": ["ABS", "SIGNED"]},
                    "direction": _VEC,
                },
                "required": [],
                "defaults": {"eta": 0.0, "exponent": -3.0, "mode": "ABS"},
            },
            "grid": {"type": "array", "items": _NUM, "min_len": 1},
            "m_values": {"type": "array", "items": {"type": "integer", "min": 2}},
            "m_max": {"type": "integer", "min": 2},
            "witnesses": {"type": "array", "items": _VEC},
            "tolerances": {
                "type": "object",
                "fields": {
                    "qm_tol": {"type": "number", "exclusive_min": 0.0},
                    "qm_n_max": {"type": "integer", "min": 1},
                    "residual_pairs": {"type": "integer", "min": 0},
                },
                "required": [],
                "defaults": {"qm_tol": 1e-10, "qm_n_max": 60, "residual_pairs": 1000},
            },
        },
        "required": ["space", "equation", "error_model", "grid"],
        "defaults": {"m_values": [2, 3, 5], "m_max": 12},
    },
}

_TOP = {
    "type": "object",
    "fields": {
        "command": {"type": "string", "choices": list(COMMANDS)},
        "seed": {"type": "integer", "min": 0},
        "output": {"type": "string"},
        "format": {"type": "string", "choices": ["json", "csv"]},
        "payload": {"type": "any"},
    },
    "required": ["command", "payload"],
    "defaults": {"seed": 0, "format": "json"},
}


def _validate(node: dict, value, path: str, enclosing=None):
    """Recursive schema check; returns the value with defaults filled in.

    ``self`` nodes re-validate against the nearest enclosing object schema
    (used for the recursive base-space field).
    """
    kind = node["type"]
    if kind == "self":
        return _validate(enclosing, value, path, enclosing)
    if kind == "any":
        return value
    if kind == "object":
        if not isinstance(value, dict):
            raise ConfigError(f"{path}: expected an object")
        fields = node["fields"]
        for key in value:
            if key not in fields:
                raise ConfigError(f"unknown key at {path}.{key}")
        for key in node.get("required", []):
            if key not in value:
                raise ConfigError(f"{path}.{key}: required field missing")
        out = {}
        for key, sub in fields.items():
            if key in value:
                out[key] = _validate(sub, value[key], f"{path}.{key}", node)
            elif key in node.get("defaults", {}):
                out[key] = node["defaults"][key]
        return out
    if kind == "array":
        if not isinstance(value, list):
            raise ConfigError(f"{path}: expected an array")
        if len(value) < node.get("min_len", 0):
            raise ConfigError(f"{path}: at least {node['min_len']} item(s) required")
        if "max_len" in node and len(value) > node["max_len"]:
            raise ConfigError(f"{path}: at most {node['max_len']} item(s) allowed")
        return [_validate(node["items"], v, f"{path}[{i}]", enclosing)
                for i, v in enumerate(value)]
    if kind == "string":
        if not isinstance(value, str):
            raise ConfigError(f"{path}: expected a string")
        choices = node.get("choices")
        if choices and value not in choices:
            raise ConfigError(f"{path}: must be one of {choices}")
        return value
    if kind == "integer":
        if not isinstance(value, int) or isinstance(value, bool):
            raise ConfigError(f"{path}: expected an integer")
        _check_bounds(node, value, path)
        return value
    if kind == "number":
        if not isinstance(value, (int, float)) or isinstance(value, bool):
            raise ConfigError(f"{path}: expected a number")
        if not math.isfinite(value):
            raise ConfigError(f"{path}: must be finite")
        _check_bounds(node, float(value), path)
        return float(value)
    raise AssertionError(f"bad schema node {kind}")


def _check_bounds(node, value, path):
    msg = node.get("msg")
    if "min" in node and value < node["min"]:
        raise ConfigError(msg or f"{path}: must be >= {node['min']}")
    if "max" in node and value > node["max"]:
        raise ConfigError(msg or f"{path}: must be <= {node['max']}")
    if "exclusive_min" in node and value <= node["exclusive_min"]:
        raise ConfigError(msg or f"{path}: must be > {node['exclusive_min']}")
    if node.get("odd") and int(value) % 2 == 0:
        raise ConfigError(msg or f"{path}: must be odd")


def json_schema(command: str) -> dict:
    """JSON-Schema rendering of a command's payload schema (shipped in docs/).

    The recursive space descriptor is emitted once under ``$defs/space`` so
    its self-reference resolves correctly when nested inside a payload.
    """

    def convert(node, in_space=False):
        if node is _SPACE and not in_space:
            return {"$ref": "#/$defs/space"}
        kind = node["type"]
        if kind == "self":
            return {"$ref": "#/$defs/space"}
        if kind == "any":
            return {}
        if kind == "object":
            return {
                "type": "object",
                "properties": {k: convert(v) for k, v in node["fields"].items()},
                "required": list(node.get("required", [])),
                "additionalProperties": False,
                **({"default": node["defaults"]} if node.get("defaults") else {}),
            }
        if kind == "array":
            out = {"type": "array", "items": convert(node["items"])}
            if "min_len" in node:
                out["minItems"] = node["min_len"]
            if "max_len" in node:
                out["maxItems"] = node["max_len"]
            return out
        if kind == "string":
            out = {"type": "string"}
            if node.get("choices"):
                out["enum"] = list(node["choices"])
            return out
        out = {"type": "integer" if kind == "integer" else "number"}
        if "min" in node:
            out["minimum"] = node["min"]
        if "max" in node:
            out["maximum"] = node["max"]
        if "exclusive_min" in node:
            out["exclusiveMinimum"] = node["exclusive_min"]
        if node.get("odd"):
            out["not"] = {"multipleOf": 2}
        return out

    return {
        "$schema": "https://json-schema.org/draft/2020-12/schema",
        "title": f"{command} payload",
        "$defs": {"space": convert(_SPACE, in_space=True)},
        **convert(SCHEMAS[command]),
    }


@dataclass
class RunConfig:
    command: str
    payload: dict
    seed: int = 0
    output: str | None = None
    format: str = "json"
    warnings: list = field(default_factory=list)

    def to_dict(self) -> dict:
        d = {"command": self.command, "seed": self.seed, "format": self.format,
             "payload": self.payload}
        if self.output is not None:
            d["output"] = self.output
        return d


def parse_config(text, command: str | None = None) -> RunConfig:
    """Parse and validate a config document; defaults are filled in.

    Unknown keys are rejected with the offending path.  ``command`` (from the
    CLI subcommand) may supply or must match the document's command field.
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

    warnings = []
    if top["command"] == "HYPERSTAB":
        # the run's own decision; other invalid parameters are left to the run
        try:
            _, warnings = hs._solution_f0(EquationParams.from_dict(payload["equation"]),
                                          payload.get("solution", {}))
        except ValueError:
            pass

    return RunConfig(command=top["command"], payload=payload, seed=top["seed"],
                     output=top.get("output"), format=top["format"], warnings=warnings)


def serialize_config(config: RunConfig) -> str:
    return json.dumps(config.to_dict(), sort_keys=True, indent=2) + "\n"


# ---------------------------------------------------------------------------
# command execution
# ---------------------------------------------------------------------------

def _run_check_space(payload, seed):
    space = space_from_dict(payload["space"])
    report = check_axioms(space, payload["trials"], seed)
    kest = estimate_kappa(space, payload["trials"], seed)
    body = {"axioms": report.to_dict(), "kappa_estimate": kest,
            "space": space.to_dict(), "trials": payload["trials"]}
    return body, 0 if report.total_violations == 0 else 2


def _run_envelope(payload, seed):
    space = space_from_dict(payload["space"])
    budget = payload["budget"]
    n_samples = payload["certificate_samples"]
    rng = np.random.default_rng(seed)
    # same stream as drawing x, then z, sample by sample
    XZ = rng.uniform(-5.0, 5.0, (n_samples, 2, space.dim))
    X, Z = XZ[:, 0], XZ[:, 1]
    results = envelope_norm_rows(space, X, Z, budget, [seed + i for i in range(n_samples)])
    cert_failures = 0
    worst_gap = 0.0
    for x, base, res in zip(X, eval_norm_rows(space, X, Z).tolist(), results):
        parts = np.asarray(res.certificate)
        gap = float(np.abs(parts.sum(axis=0) - x).max())
        worst_gap = max(worst_gap, gap)
        if gap > 1e-9 * (1.0 + np.abs(x).max()) or res.value > base + 1e-12 * (1.0 + base):
            cert_failures += 1
    tri = check_p_triangle(space, payload["trials"], seed, budget=budget)
    body = {"space": space.to_dict(), "certificate_samples": n_samples,
            "certificate_failures": cert_failures, "worst_sum_gap": worst_gap,
            "p_triangle": tri.to_dict()}
    return body, 0 if cert_failures == 0 and tri.violations == 0 else 2


def _run_fixed_point(payload, seed):
    space = space_from_dict(payload["space"])
    branches = [Branch(scale=b["scale"], coef=b["coef"], kappa_exp=b["kappa_exp"])
                for b in payload["branches"]]
    spec = IterationSpec(branches, space)
    phi = VectorFunction.from_dict(payload["phi"])
    eps = ScalarErrorFn([(t["c"], t["s"]) for t in payload["error_terms"]])
    if "samples" in payload:
        samples = payload["samples"]
    elif "samples_csv" in payload:
        samples = load_sample_grid(payload["samples_csv"])
    else:
        raise ConfigError("payload.samples: either samples or samples_csv is required")
    report = iterate(spec, phi, eps, samples, payload["witnesses"],
                     tol=payload["tol"], n_max=payload["n_max"])
    body = {"spec": spec.to_dict(), "report": report.to_dict()}
    return body, 0 if report.converged else 2


_GRID_ROWS = 1000  # sampled pairs listed in the solve report


def _run_solve(payload, seed):
    eq = EquationParams.from_dict(payload["equation"])
    try:
        f = make_solution(eq, payload["theta_coef"], payload.get("w"), payload["direction"])
    except NoExactSolutionError as exc:
        return {"equation": eq.to_dict(), "error": str(exc),
                "failed_constraints": exc.failed}, 2
    structure = check_structure(eq, f, payload["grid"], payload["tol"])
    wanted = payload["residual_pairs"]
    sup_res = 0.0
    used = 0
    grid_rows = []
    lo, hi = min(map(abs, payload["grid"])), max(map(abs, payload["grid"]))
    for x, y, ok in sample_admissible_pairs(eq, lo, hi, wanted, np.random.default_rng(seed)):
        row = {"x": x, "y": y, "residual_norm": None, "gamma": None, "admissible": ok}
        if ok:
            used += 1
            rv = residual(eq, f, x, y)
            row["residual_norm"] = float(np.linalg.norm(rv))
            scale = max(abs(x), abs(y)) ** (2 * eq.root_n)
            sup_res = max(sup_res, float(np.abs(rv).max()) / max(scale, 1e-300))
        if len(grid_rows) < _GRID_ROWS:
            grid_rows.append(row)
    body = {"equation": eq.to_dict(), "solution": f.to_dict(),
            "structure": structure.to_dict(), "sup_residual_scaled": sup_res,
            "residual_pairs": used, "residual_grid": grid_rows}
    shortfall = pair_shortfall(wanted, used)
    body.update(shortfall)
    ok = structure.passed(payload["tol"]) and sup_res <= 1e-9 and not shortfall
    return body, 0 if ok else 2


def _run_hyperstab(payload, seed):
    d = dict(payload)
    d.setdefault("aux_space", d["space"])
    d["seed"] = seed
    cfg = hs.ExperimentConfig.from_dict(d)
    report = hs.run_experiment(cfg)
    ok = report.feasible and all(
        rec["bound_satisfied"] and rec["qm"]["converged"] and "violations" not in rec
        for rec in report.per_m)
    return report.to_dict(), 0 if ok else 2


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


def _tabular_sections(command: str, body: dict) -> dict:
    sections = {}
    if command == "HYPERSTAB" and body.get("feasible"):
        header = ["m", "u", "v", "w", "A", "B", "C", "P", "sigma", "in_M0"]
        rows = [[c["m"], c["u"], c["v"], c["w"], c["A"], c["B"], c["C"],
                 c["P"], c["sigma"], c["in_M0"]] for c in body["m0"]["constants"]]
        sections["constants_sweep"] = (header, rows)
        for rec in body["per_m"]:
            qm = rec["qm"]
            dim = len(qm["values"][0]) if qm["values"] else 0
            header = (["x"] + [f"Qm_{i}" for i in range(dim)]
                      + [f"f0_{i}" for i in range(dim)] + ["abs_dev"])
            rows = []
            for x, qv, fv in zip(qm["grid"], qm["values"], qm["f0_values"] or qm["values"]):
                dev = max(abs(q - f0c) for q, f0c in zip(qv, fv)) if dim else 0.0
                rows.append([x] + list(qv) + list(fv) + [dev])
            sections[f"qm_grid_m{rec['m']}"] = (header, rows)
    elif command == "SOLVE" and "structure" in body:
        header = ["law", "max_deviation"]
        rows = sorted(body["structure"]["deviations"].items())
        sections["structure_laws"] = (header, rows)
        header = ["x", "y", "residual_norm", "gamma", "admissible"]
        rows = [[r["x"], r["y"],
                 "" if r["residual_norm"] is None else r["residual_norm"],
                 "" if r["gamma"] is None else r["gamma"], r["admissible"]]
                for r in body.get("residual_grid", [])]
        sections["residual_grid"] = (header, rows)
    return sections


def run(config: RunConfig, out_dir: str | None = None) -> int:
    """Execute a validated config; write reports; return the exit code."""
    out_dir = out_dir or config.output or "."
    try:
        body, code = _RUNNERS[config.command](config.payload, config.seed)
    except (ConfigError, ValueError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 1
    except ArithmeticError as exc:
        # overflow / division by zero in the numeric path: no report is written
        name = config.command.lower().replace("_", "-")
        print(f"error: {name}: numeric failure ({type(exc).__name__}): {exc}",
              file=sys.stderr)
        return 1
    except OSError as exc:
        print(f"i/o error: {exc}", file=sys.stderr)
        return 1
    document = {
        "command": config.command,
        "seed": config.seed,
        "warnings": config.warnings,
        "report": body,
        "metadata": {
            "timestamp": datetime.datetime.now(datetime.timezone.utc).isoformat(),
        },
    }
    try:
        path = os.path.join(out_dir, f"{config.command.lower()}_report.json")
        _atomic_write(path, json.dumps(document, sort_keys=True, indent=2) + "\n")
        if config.format == "csv":
            emit_csv(_tabular_sections(config.command, body), out_dir)
    except OSError as exc:
        print(f"i/o error: {exc}", file=sys.stderr)
        return 1
    return code


def main(argv=None) -> int:
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
    except (OSError, ConfigError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 1
    if args.seed is not None:
        config.seed = args.seed
    if args.format is not None:
        config.format = args.format
    for w in config.warnings:
        print(f"warning: {w}", file=sys.stderr)
    code = run(config, out_dir=args.out)
    print(f"{config.command}: exit {code}")
    return code


if __name__ == "__main__":
    sys.exit(main())
