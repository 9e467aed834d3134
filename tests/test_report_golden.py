"""Canonical report bodies against recorded ones, byte for byte.

``report_golden.json`` holds, for a few fixed configs, the exit code, the
canonical report document (everything but ``metadata``, dumped with sorted
keys as ``cli.run`` writes it) and the text of every CSV the run writes.  A
refactor must leave all of them byte-identical.

Re-record (only when a change of output is intended, and say so)::

    PYTHONPATH=src python tests/test_report_golden.py --record

List, per case, the key paths that the current program adds (+), removes
(-) or changes (~) against the recorded file, with list indices folded to
``[]``, a count per path and, beside a changed number, the largest relative
change under its path; this writes nothing::

    PYTHONPATH=src python tests/test_report_golden.py --diff
"""

import json
import math
import os
import sys
from collections import Counter

import pytest

from qbanach.cli import parse_config, run

_HERE = os.path.dirname(os.path.abspath(__file__))
GOLDEN_PATH = os.path.join(_HERE, "report_golden.json")
REFERENCE_PATH = os.path.join(os.path.dirname(_HERE), "docs", "reference_hyperstab.json")


def _fixed_point(label, space, samples):
    # two branches, one with a negative scale and kappa exponent 2; the ABS
    # and SIGNED terms shrink under T, the SIGNED one with a sign flip
    return label, {"command": "FIXED_POINT", "seed": 0, "payload": {
        "space": space,
        "branches": [{"scale": 2.0, "coef": 1.0},
                     {"scale": -3.0, "coef": 0.5, "kappa_exp": 2}],
        "phi": {"terms": [
            {"coef": 1.5, "exponent": -3.0, "mode": "ABS", "direction": [1.0, 0.0, 0.0]},
            {"coef": -0.75, "exponent": -1.0, "mode": "SIGNED", "direction": [0.0, 1.0, 2.0]}]},
        "error_terms": [{"c": 1.0, "s": -3.0}, {"c": 0.5, "s": -1.0}],
        "samples": samples,
        "witnesses": [[0.0, 1.0, 0.0], [0.0, 0.0, 1.0], [1.0, 1.0, 1.0]]}}


def golden_configs():
    """(label, config document) pairs, in recording order."""
    with open(REFERENCE_PATH) as fh:
        reference = json.load(fh)
    reference["format"] = "csv"
    cross = {"family": "CROSS_2NORM"}
    return [
        ("hyperstab_reference", reference),
        ("solve_constant_w", {"command": "SOLVE", "seed": 11, "payload": {
            "equation": {"a": 0.6, "b": 0.8, "c": 0.72, "d": 1.28},
            "theta_coef": 1.25, "w": [0.25, -0.5, 0.125], "direction": [0.0, 0.6, 0.8],
            "residual_pairs": 300}}),
        _fixed_point("fixed_point_cross", cross, [0.5, 1.0, -2.0]),
        _fixed_point("fixed_point_lp", {"family": "LP_CROSS", "p": 0.5, "kappa": 2.0},
                     [0.75, -1.5]),
        _fixed_point("fixed_point_powered", {"family": "POWERED", "beta": 0.5, "base": cross},
                     [-0.5, 1.25, 3.0]),
        ("hyperstab_lp_gmap_signed", _hyperstab_lp(reference)),
        # 20,000 trials: the B4 and kappa stages cross more than one row block
        _check_space("check_space_lp_underdeclared",
                     {"family": "LP_CROSS", "p": 0.5, "kappa": 1.0}, 5),
        _check_space("check_space_powered", {"family": "POWERED", "beta": 0.5, "base": cross}, 7),
    ]


def _check_space(label, space, seed):
    return label, {"command": "CHECK_SPACE", "seed": seed,
                   "payload": {"space": space, "trials": 20_000}}


def _hyperstab_lp(reference):
    # the reference experiment on LP_CROSS(0.5) with a CROSS_2NORM majorant
    # behind a non-identity g map, a constant w and a SIGNED perturbation
    config = json.loads(json.dumps(reference))
    payload = config["payload"]
    payload["space"] = {"family": "LP_CROSS", "p": 0.5, "kappa": 2.0}
    payload["aux_space"] = {"family": "CROSS_2NORM"}
    payload["error_model"]["g_map"] = {"matrix": [[1.0, 0.5, 0.0], [0.0, 1.0, 0.0],
                                                  [0.0, 0.0, 2.0]]}
    payload["equation"] = {"a": 0.6, "b": 0.8, "c": 0.72, "d": 1.28}
    payload["solution"]["w"] = [0.25, -0.5, 0.125]
    payload["perturbation"]["mode"] = "SIGNED"
    return config


def run_case(config: dict, out_dir: str) -> dict:
    """Exit code, canonical document and CSV texts of one run."""
    code = run(parse_config(json.dumps(config)), out_dir=out_dir)
    name = f"{config['command'].lower()}_report.json"
    with open(os.path.join(out_dir, name)) as fh:
        document = json.load(fh)
    del document["metadata"]
    csvs = {}
    for fname in sorted(os.listdir(out_dir)):
        if fname.endswith(".csv"):
            with open(os.path.join(out_dir, fname), newline="") as fh:
                csvs[fname] = fh.read()
    return {"exit_code": code, "document": document, "csv": csvs}


def _canonical(document: dict) -> str:
    return json.dumps(document, sort_keys=True, indent=2) + "\n"


def _load_golden():
    with open(GOLDEN_PATH) as fh:
        return {case["label"]: case for case in json.load(fh)["cases"]}


@pytest.mark.parametrize("label,config", golden_configs(), ids=lambda v: v if isinstance(v, str) else "")
def test_report_body_matches_golden(label, config, tmp_path):
    golden = _load_golden()[label]
    assert golden["config"] == config
    got = run_case(config, str(tmp_path))
    assert got["exit_code"] == golden["exit_code"]
    # floats round-trip through json exactly, so this compares the report text
    assert _canonical(got["document"]) == _canonical(golden["document"])
    assert got["csv"] == golden["csv"]
    # the document records its input: its command, seed and payload re-run it
    again = {key: got["document"][key] for key in ("command", "seed", "payload")}
    assert run_case(again, str(tmp_path / "again"))["document"] == got["document"]


def check_bound_table(K_observed, entries, named):
    """What the per-entry ``satisfied`` flags used to state, from the table
    alone: every entry with a finite positive ``rhs_unit_K`` holds at
    ``K_observed`` (relative slack 1e-9), ``K_observed`` is the largest such
    ratio (0.0 without one), and every entry without a budget is among
    ``named`` ({"x", "witness"} records), with ``K_observed`` None.  A null
    ``rhs_unit_K`` is an inf right side, which bounds nothing, or a NaN one,
    which has no budget: it is read as NaN where ``named`` lists the entry."""
    def rhs(e):
        if e["rhs_unit_K"] is not None:
            return e["rhs_unit_K"]
        return math.nan if {"x": e["x"], "witness": e["witness"]} in named else math.inf

    entries = [{**e, "rhs_unit_K": rhs(e)} for e in entries]
    ratios = [e["lhs_pow_theta"] / e["rhs_unit_K"] for e in entries
              if 0 < e["rhs_unit_K"] < math.inf]
    unbudgeted = [{"x": e["x"], "witness": e["witness"]} for e in entries
                  if not e["rhs_unit_K"] > 0 and e["lhs_pow_theta"] > 1e-12]
    assert all(u in named for u in unbudgeted)
    if unbudgeted:
        assert K_observed is None
        return
    assert K_observed == max(ratios, default=0.0)
    for e in entries:
        if 0 < e["rhs_unit_K"] < math.inf:
            assert e["lhs_pow_theta"] <= K_observed * e["rhs_unit_K"] * (1 + 1e-9)


_BOUND_CASES = ["hyperstab_reference", "fixed_point_cross", "fixed_point_lp",
                "fixed_point_powered", "hyperstab_lp_gmap_signed"]


@pytest.mark.parametrize("label", _BOUND_CASES)
def test_golden_bound_tables_hold_at_K_observed(label):
    case = _load_golden()[label]
    report, violations = case["document"]["report"], case["document"]["violations"]
    if label.startswith("fixed_point"):
        tables = [(None, report)]
    else:
        tables = [(f"m={rec['m']}", rec) for rec in report["per_m"]]
    assert tables and all(t["bound_entries"] for _, t in tables)
    for where, table in tables:
        named = [e for v in violations if v["name"] == "no error budget" and v["where"] == where
                 for e in v["entries"]]
        check_bound_table(table["K_observed"], table["bound_entries"], named)


def _leaves(node, path=()):
    """``{path: json text}`` of every leaf; an empty list or object is a leaf."""
    if isinstance(node, dict) and node:
        items = node.items()
    elif isinstance(node, list) and node:
        items = enumerate(node)
    else:
        return {path: json.dumps(node, sort_keys=True)}
    out = {}
    for key, value in items:
        out.update(_leaves(value, path + (key,)))
    return out


def _fold(path) -> str:
    return "".join("[]" if isinstance(k, int) else f".{k}" for k in path).lstrip(".")


def _relative_change(old: str, new: str):
    """``|new - old| / max(|old|, |new|)`` of two leaves (JSON texts) that are
    both numbers, else None."""
    x, y = json.loads(old), json.loads(new)
    if not all(isinstance(v, (int, float)) and not isinstance(v, bool) for v in (x, y)):
        return None
    return abs(y - x) / max(abs(x), abs(y)) if x != y else 0.0


def diff_paths(old, new) -> list:
    """``(mark, folded path, count, size)`` for the leaves that ``new`` adds
    (+), removes (-) or changes (~) against ``old``, sorted by mark and path.
    ``size`` is the largest relative change of the numbers changed under a
    ``~`` path, None where none of its changed leaves is a number pair."""
    a, b = _leaves(old), _leaves(new)
    marks, sizes = Counter(), {}
    for path in a.keys() | b.keys():
        mark = "-" if path not in b else "+" if path not in a else "~" if a[path] != b[path] else ""
        if mark:
            key = mark, _fold(path)
            marks[key] += 1
            size = _relative_change(a[path], b[path]) if mark == "~" else None
            if size is not None:
                sizes[key] = max(size, sizes.get(key, 0.0))
    return sorted((mark, path, n, sizes.get((mark, path))) for (mark, path), n in marks.items())


def test_diff_paths_folds_list_indices_and_counts():
    old = {"a": [{"x": 1, "y": 2}, {"x": 1, "y": 2}], "b": 1.0, "c": {},
           "e": [4.0, 10.0, -1.0], "s": "x"}
    new = {"a": [{"x": 1, "z": 2}, {"x": 3, "z": 2}], "b": 1, "c": {}, "d": [],
           "e": [5.0, 10.5, -1.0], "s": True}
    assert diff_paths(old, new) == [("+", "a[].z", 2, None), ("+", "d", 1, None),
                                    ("-", "a[].y", 2, None), ("~", "a[].x", 1, 2 / 3),
                                    ("~", "b", 1, 0.0), ("~", "e[]", 2, 0.2),
                                    ("~", "s", 1, None)]
    assert diff_paths(new, new) == []


def _run_all():
    import tempfile
    for label, config in golden_configs():
        with tempfile.TemporaryDirectory() as tmp:
            yield label, config, run_case(config, tmp)


def record():
    cases = [{"label": label, "config": config, **got} for label, config, got in _run_all()]
    with open(GOLDEN_PATH, "w") as fh:
        json.dump({"cases": cases}, fh, sort_keys=True, indent=1)
        fh.write("\n")


def diff():
    golden = _load_golden()
    for label, config, got in _run_all():
        old = golden.get(label, {})
        old = {k: old[k] for k in ("config", "exit_code", "document", "csv") if k in old}
        lines = diff_paths(old, {"config": config, **got})
        print(f"{label}:" + ("" if lines else " unchanged"))
        for mark, path, n, size in lines:
            print(f"  {mark} {path}  ({n})"
                  + ("" if size is None else f"  largest relative change {size:.3g}"))


if __name__ == "__main__":
    commands = {"--record": record, "--diff": diff}
    if len(sys.argv) != 2 or sys.argv[1] not in commands:
        sys.exit(__doc__)
    commands[sys.argv[1]]()
