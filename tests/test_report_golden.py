"""Canonical report bodies against recorded ones, byte for byte.

``report_golden.json`` holds, for a few fixed configs, the exit code, the
canonical report document (everything but ``metadata``, dumped with sorted
keys as ``cli.run`` writes it) and the text of every CSV the run writes.  A
refactor must leave all of them byte-identical.

Re-record (only when a change of output is intended, and say so)::

    PYTHONPATH=src python tests/test_report_golden.py --record
"""

import json
import os
import sys

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


def record():
    import tempfile
    cases = []
    for label, config in golden_configs():
        with tempfile.TemporaryDirectory() as tmp:
            cases.append({"label": label, "config": config, **run_case(config, tmp)})
    with open(GOLDEN_PATH, "w") as fh:
        json.dump({"cases": cases}, fh, sort_keys=True, indent=1)
        fh.write("\n")


if __name__ == "__main__":
    if sys.argv[1:] != ["--record"]:
        sys.exit(__doc__)
    record()
