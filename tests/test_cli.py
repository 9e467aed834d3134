import contextlib
import csv
import dataclasses
import io
import json
import math
import os
import re
import subprocess
import sys
import tempfile
import warnings

import numpy as np
import pytest
from hypothesis import HealthCheck, Phase, given, settings
from hypothesis import strategies as st

from qbanach import cli
from qbanach.cli import (COMMANDS, SCHEMAS, VIOLATIONS, ConfigError, RunConfig,
                         _pair_shortfall, emit_csv, json_schema, main, parse_config, run)
from qbanach.radical import EquationParams, sample_admissible_pairs
from test_report_golden import check_bound_table

# the reference experiment shipped with the package
_REFERENCE_PATH = os.path.join(os.path.dirname(os.path.dirname(os.path.abspath(__file__))),
                               "docs", "reference_hyperstab.json")
with open(_REFERENCE_PATH) as _fh:
    REFERENCE_HYPERSTAB_PAYLOAD = json.load(_fh)["payload"]


def make_config(command, payload, seed=0, **extra):
    return json.dumps({"command": command, "seed": seed, "payload": payload, **extra})


def test_parse_minimal_check_space_fills_defaults():
    cfg = parse_config(make_config("CHECK_SPACE", {"space": {"family": "CROSS_2NORM"}}))
    assert cfg.command == "CHECK_SPACE"
    assert cfg.payload["trials"] == 10_000
    assert cfg.payload["space"]["beta"] == 1.0
    assert cfg.format == "json"


def test_parse_rejects_bad_beta():
    doc = make_config("CHECK_SPACE", {"space": {"family": "CROSS_2NORM", "beta": 1.5}})
    with pytest.raises(ConfigError, match=r"beta must lie in \(0,1\]"):
        parse_config(doc)


def test_parse_rejects_unknown_key_with_path():
    doc = make_config("CHECK_SPACE", {"space": {"family": "CROSS_2NORM"}, "trails": 5})
    with pytest.raises(ConfigError, match=r"unknown key at payload\.trails"):
        parse_config(doc)
    doc2 = make_config("CHECK_SPACE", {"space": {"family": "CROSS_2NORM", "pee": 1}})
    with pytest.raises(ConfigError, match=r"unknown key at payload\.space\.pee"):
        parse_config(doc2)


def test_parse_rejects_command_mismatch_and_bad_json():
    doc = make_config("CHECK_SPACE", {"space": {"family": "CROSS_2NORM"}})
    with pytest.raises(ConfigError, match="does not match"):
        parse_config(doc, command="SOLVE")
    with pytest.raises(ConfigError, match="not valid JSON"):
        parse_config(b"{nope")


def test_config_round_trip():
    # the validated payload, defaults filled in, parses to the same config
    cfg = parse_config(make_config("HYPERSTAB", REFERENCE_HYPERSTAB_PAYLOAD, seed=3))
    assert parse_config(make_config("HYPERSTAB", cfg.payload, seed=3)) == cfg


def test_run_check_space_clean(tmp_path):
    cfg = parse_config(make_config(
        "CHECK_SPACE", {"space": {"family": "CROSS_2NORM"}, "trials": 2000}))
    code = run(cfg, out_dir=str(tmp_path))
    assert code == 0
    doc = json.loads((tmp_path / "check_space_report.json").read_text())
    assert all(v["count"] == 0 for v in doc["report"]["axioms"]["violations"].values())
    assert doc["violations"] == []
    assert "timestamp" in doc["metadata"]
    # the input is recorded once, in the document, and the body holds results only
    assert doc["payload"] == cfg.payload == {"space": {"family": "CROSS_2NORM", "beta": 1.0,
                                                       "kappa": 1.0}, "trials": 2000}
    assert set(doc["report"]) == {"axioms", "kappa_estimate"}


def test_run_check_space_underdeclared_kappa_exits_2(tmp_path):
    cfg = parse_config(make_config(
        "CHECK_SPACE",
        {"space": {"family": "LP_CROSS", "p": 0.5, "kappa": 1.0}, "trials": 3000}))
    code = run(cfg, out_dir=str(tmp_path))
    assert code == 2
    doc = json.loads((tmp_path / "check_space_report.json").read_text())
    b4 = doc["report"]["axioms"]["violations"]["B4"]["count"]
    assert b4 > 0
    assert doc["violations"] == [{"name": "axiom violated", "where": "B4", "count": b4}]


def test_run_check_space_without_valid_b4_triples_exits_2(tmp_path):
    # at factor 1e-14 every B4 denominator is below the degeneracy threshold,
    # so B4 compares nothing: kappa_observed 0.0 is no evidence
    cfg = parse_config(make_config("CHECK_SPACE", {
        "space": {"family": "SCALED", "factor": 1e-14, "base": {"family": "CROSS_2NORM"}},
        "trials": 200}))
    assert run(cfg, out_dir=str(tmp_path)) == 2
    doc = json.loads((tmp_path / "check_space_report.json").read_text())
    assert doc["report"]["axioms"]["degenerate"] == 200
    assert all(v["count"] == 0 for v in doc["report"]["axioms"]["violations"].values())
    assert doc["violations"] == [{"name": "no valid B4 triples", "where": None,
                                  "degenerate_triples": 200}]


# (command, path) of every count a config sets, with the largest value that a
# bench job or the default uses; _RUN_CAPS's caps are checked against it too
_COUNTS = {("CHECK_SPACE", "trials"): 100_000, ("ENVELOPE", "trials"): 10_000,
           ("ENVELOPE", "certificate_samples"): 1000, ("ENVELOPE", "budget"): 12,
           ("FIXED_POINT", "n_max"): 200, ("SOLVE", "residual_pairs"): 1000,
           ("HYPERSTAB", "m_max"): 12, ("HYPERSTAB", "tolerances.qm_n_max"): 60,
           ("HYPERSTAB", "tolerances.residual_pairs"): 1000}


def _integer_nodes(node, path):
    """(path, node) of every integer in a schema, list items as ``[]``; a
    space (``$ref``) holds none."""
    if node.get("type") == "integer":
        yield path, node
    for key, sub in node.get("properties", {}).items():
        yield from _integer_nodes(sub, f"{path}.{key}".lstrip("."))
    if "items" in node:
        yield from _integer_nodes(node["items"], f"{path}[]")


def test_every_count_a_config_sets_has_a_maximum():
    # a count sets how long a run takes or how much it holds, so the schema
    # bounds each; an exponent (root_n) bounds no loop, and an m_values item
    # is an index whose bound is m_max's
    unbounded = []
    for command in COMMANDS:
        for path, node in _integer_nodes(SCHEMAS[command], ""):
            if (command, path) in _COUNTS:
                used = max(_COUNTS[command, path],
                           _RUN_CAPS.get(path.rpartition(".")[2], {}).get("maximum", 0))
                assert node.get("maximum", -1) >= used, (command, path)
            elif "maximum" not in node:
                unbounded.append((command, path))
    assert sorted(unbounded) == [("HYPERSTAB", "equation.root_n"), ("SOLVE", "equation.root_n")]
    m_max = SCHEMAS["HYPERSTAB"]["properties"]["m_max"]["maximum"]
    assert SCHEMAS["HYPERSTAB"]["properties"]["m_values"]["items"]["maximum"] == m_max


def test_check_space_trials_past_the_bound_are_refused_at_parse(tmp_path, capsys):
    # every stage holds one row block, so memory no longer stops 10^15 trials:
    # they would run ~1.2e11 blocks; the schema bounds trials at 10^8
    payload = {"space": {"family": "CROSS_2NORM"}, "trials": 10 ** 15}
    assert _cli_main("CHECK_SPACE", payload, tmp_path) == 1
    assert capsys.readouterr().err == "error: payload.trials: must be <= 100000000\n"
    assert not (tmp_path / "check_space_report.json").exists()


@pytest.mark.parametrize("space", [
    {"family": "LP_CROSS", "p": 5e-324},
    {"family": "SCALED", "factor": 1e308, "base": {"family": "CROSS_2NORM"}},
], ids=["LP_CROSS", "SCALED"])
def test_check_space_with_non_finite_norms_exits_1_without_report(space, tmp_path, capsys):
    # 1/p is inf, or the factor overflows: these exited 0 with a clean report
    cfg = parse_config(make_config("CHECK_SPACE", {"space": space, "trials": 50}))
    with warnings.catch_warnings(record=True) as caught:
        warnings.simplefilter("always")
        code = run(cfg, out_dir=str(tmp_path))
    err = capsys.readouterr().err
    assert code == 1 and not caught
    assert re.fullmatch(r"error: check-space: check_axioms: B2: the norm of x = \[.+\], "
                        r"y = \[.+\] is inf, not finite\n", err)
    assert not (tmp_path / "check_space_report.json").exists()


def test_run_solve_and_csv(tmp_path):
    cfg = parse_config(make_config(
        "SOLVE", {"equation": {"a": 1.0, "b": 1.0, "c": 2.0, "d": 2.0}},
        format="csv"))
    code = run(cfg, out_dir=str(tmp_path))
    assert code == 0
    assert (tmp_path / "solve_report.json").exists()
    laws = (tmp_path / "structure_laws.csv").read_text().splitlines()
    assert laws[0] == "law,max_deviation"
    assert len(laws) > 1
    grid = (tmp_path / "residual_grid.csv").read_text().splitlines()
    assert grid[0] == "x,y,residual_norm,admissible"
    assert len(grid) > 100


def test_run_solve_reports_failed_constraints(tmp_path):
    # a^2 past the float range (a = 1e200) fails the constraint too: it
    # raised OverflowError and exited 1
    for a, c in [(1.0, 3.0), (1e200, 2.0)]:
        cfg = parse_config(make_config(
            "SOLVE", {"equation": {"a": a, "b": 1.0, "c": c, "d": 2.0}}))
        code = run(cfg, out_dir=str(tmp_path))
        assert code == 2
        doc = json.loads((tmp_path / "solve_report.json").read_text())
        assert doc["violations"] == [{"name": "no exact solution", "where": None,
                                      "failed_constraints": ["a^2 = c/2"]}]
        assert doc["report"] == {} and doc["payload"] == cfg.payload


def test_run_fixed_point(tmp_path):
    payload = {
        "space": {"family": "CROSS_2NORM"},
        "branches": [{"scale": 2.0, "coef": 0.5}],
        "phi": {"terms": [{"coef": 1.0, "exponent": 1.0, "mode": "SIGNED",
                           "direction": [1.0, 0.0, 0.0]}],
                "constant": [0.3, 0.0, 0.0]},
        "error_terms": [{"c": 0.15, "s": 0.0}],
        "samples": [0.5, 1.0, 2.0],
    }
    cfg = parse_config(make_config("FIXED_POINT", payload))
    code = run(cfg, out_dir=str(tmp_path))
    assert code == 0
    doc = json.loads((tmp_path / "fixed_point_report.json").read_text())
    assert doc["report"]["converged"]
    assert doc["report"]["K_observed"] <= 1 + 1e-6
    assert doc["violations"] == []
    assert doc["payload"] == cfg.payload and "spec" not in doc["report"]


def test_run_fixed_point_divergent_eps_star_exits_2(tmp_path):
    # eps = |x|^-1 + 1e-30 |x| under one branch (scale 2, coef 1): the |x|
    # term has rho = 2, so eps* diverges although the iteration converges
    payload = {
        "space": {"family": "CROSS_2NORM"},
        "branches": [{"scale": 2.0, "coef": 1.0}],
        "phi": {"terms": [{"coef": 1.0, "exponent": -1.0, "mode": "ABS",
                           "direction": [1.0, 0.0, 0.0]}]},
        "error_terms": [{"c": 1.0, "s": -1.0}, {"c": 1e-30, "s": 1.0}],
        "samples": [0.5, 1.0, 2.0],
    }
    assert run(parse_config(make_config("FIXED_POINT", payload)), out_dir=str(tmp_path)) == 2
    doc = json.loads((tmp_path / "fixed_point_report.json").read_text())
    assert doc["report"]["converged"]
    assert not doc["report"]["eps_star_converged"]
    assert doc["violations"] == [{"name": "divergent eps_star", "where": None,
                                  "rho": 2.0, "exponent": 1.0}]


@pytest.mark.parametrize("error_terms", [[], [{"c": 0.0, "s": 1.0}]])
def test_fixed_point_without_error_budget_exits_2_without_nan(error_terms, tmp_path):
    # eps = 0 leaves the deviations without a budget: no finite K exists, so
    # K_observed reads null (not inf, or a NaN that is not a JSON token), and
    # the run names every entry
    payload = {
        "space": {"family": "CROSS_2NORM"},
        "branches": [{"scale": 2.0, "coef": 0.5}],
        "phi": {"terms": [{"coef": 1.0, "exponent": -1.0, "mode": "ABS",
                           "direction": [1.0, 0.0, 0.0]}]},
        "error_terms": error_terms,
        "samples": [0.5, 1.0],
    }
    assert run(parse_config(make_config("FIXED_POINT", payload)), out_dir=str(tmp_path)) == 2
    text = (tmp_path / "fixed_point_report.json").read_text()
    assert "NaN" not in text
    doc = json.loads(text)
    report = doc["report"]
    assert report["K_observed"] is None
    assert all(e["rhs_unit_K"] == 0.0 and "bound" not in e for e in report["bound_entries"])
    assert doc["violations"] == [{
        "name": "no error budget", "where": None,
        "entries": [{"x": x, "witness": w} for x in (0.5, 1.0) for w in (0, 1)]}]


def test_hyperstab_without_error_budget_exits_2_with_null_K(tmp_path):
    # a zero error model: every right side is 0 and the deviations eta |x|^-3
    # are not, so no finite K covers any checked index
    payload = json.loads(json.dumps(REFERENCE_HYPERSTAB_PAYLOAD))
    for comp in payload["error_model"]["components"]:
        comp["c"] = 0.0
    cfg = parse_config(make_config("HYPERSTAB", payload, seed=7))
    assert run(cfg, out_dir=str(tmp_path)) == 2
    doc = json.loads((tmp_path / "hyperstab_report.json").read_text())
    per_m = doc["report"]["per_m"]
    assert [rec["m"] for rec in per_m] == [2, 3, 5]
    assert all(rec["K_observed"] is None for rec in per_m)
    every = [{"x": x, "witness": w} for x in payload["grid"] for w in range(3)]
    assert doc["violations"] == [{"name": "no error budget", "where": f"m={m}", "entries": every}
                                 for m in (2, 3, 5)]
    # every nonzero residual of the scan exceeds gamma = 0: the ratio is inf,
    # written as null
    assert doc["report"]["consistency"] == {"exceeds_gamma": True,
                                            "max_residual_gamma_ratio": None}


_ONE_BRANCH_FIXED_POINT = {
    "space": {"family": "CROSS_2NORM"},
    "branches": [{"scale": 2.0, "coef": 0.5}],
    "phi": {"terms": [], "constant": [0.4, 0.0, 0.0]},
    "error_terms": [{"c": 0.2, "s": 0.0}],
}


def test_run_fixed_point_with_csv_samples(tmp_path):
    csv_path = tmp_path / "samples.csv"
    csv_path.write_text("0.5\n1.0\n2.0\n")
    cfg = parse_config(make_config("FIXED_POINT", dict(_ONE_BRANCH_FIXED_POINT,
                                                       samples_csv=str(csv_path))))
    assert run(cfg, out_dir=str(tmp_path)) == 0
    doc = json.loads((tmp_path / "fixed_point_report.json").read_text())
    assert set(doc["report"]["psi_values"]) == {"0.5", "1.0", "2.0"}
    # the payload names the file, not the grid read from it
    assert doc["payload"]["samples_csv"] == str(csv_path) and "samples" not in doc["payload"]


def test_fixed_point_with_no_samples_is_refused(tmp_path):
    # an empty sample set was reported converged after 3 steps with K_observed 0
    with pytest.raises(ConfigError, match=r"payload\.samples: at least 1 item"):
        parse_config(make_config("FIXED_POINT", dict(_ONE_BRANCH_FIXED_POINT, samples=[])))
    # a samples_csv grid meets the rules of the samples list, at parse time
    for text, message in [("", "payload.samples_csv: at least 1 item(s) required"),
                          ("0.5\n0\n", "payload.samples_csv[1]: must not be 0"),
                          ("0.5\nnan\n", "payload.samples_csv[1]: must be finite")]:
        csv_path = tmp_path / "samples.csv"
        csv_path.write_text(text)
        with pytest.raises(ConfigError) as err:
            parse_config(make_config("FIXED_POINT", dict(_ONE_BRANCH_FIXED_POINT,
                                                          samples_csv=str(csv_path))))
        assert str(err.value) == message
    with pytest.raises(ConfigError, match=r"^payload\.samples: either samples or samples_csv"):
        parse_config(make_config("FIXED_POINT", _ONE_BRANCH_FIXED_POINT))


def test_fixed_point_csv_names_the_file_and_line_of_a_bad_row(tmp_path, capsys):
    csv_path = tmp_path / "samples.csv"
    csv_path.write_text("0.5\n\n1.0\nabc\n2.0\n")
    payload = dict(_ONE_BRANCH_FIXED_POINT, samples_csv=str(csv_path))
    assert _cli_main("FIXED_POINT", payload, tmp_path) == 1
    assert capsys.readouterr().err == (
        f"error: payload.samples_csv: {csv_path}, line 4: not a number: 'abc'\n")
    payload["samples_csv"] = str(tmp_path / "missing.csv")
    assert _cli_main("FIXED_POINT", payload, tmp_path) == 1
    assert capsys.readouterr().err.startswith(
        "error: payload.samples_csv: [Errno 2] No such file or directory")
    assert not list(tmp_path.glob("*_report.json"))


def test_run_envelope(tmp_path):
    cfg = parse_config(make_config(
        "ENVELOPE",
        {"space": {"family": "CROSS_2NORM"}, "trials": 200,
         "certificate_samples": 50, "budget": 6}))
    code = run(cfg, out_dir=str(tmp_path))
    assert code == 0
    doc = json.loads((tmp_path / "envelope_report.json").read_text())
    assert doc["report"]["certificate_failures"] == 0
    assert doc["report"]["p_triangle"]["violations"] == 0
    assert doc["payload"]["budget"] == 6 and doc["payload"] == cfg.payload
    assert set(doc["report"]) == {"certificate_failures", "worst_sum_gap", "p_triangle"}


def test_run_hyperstab_and_determinism(tmp_path):
    doc = make_config("HYPERSTAB", REFERENCE_HYPERSTAB_PAYLOAD, seed=11)
    out1, out2 = tmp_path / "r1", tmp_path / "r2"
    for out in (out1, out2):
        cfg = parse_config(doc)
        assert run(cfg, out_dir=str(out)) == 0
    d1 = json.loads((out1 / "hyperstab_report.json").read_text())
    d2 = json.loads((out2 / "hyperstab_report.json").read_text())
    d1.pop("metadata")
    d2.pop("metadata")
    b1 = json.dumps(d1, sort_keys=True)
    b2 = json.dumps(d2, sort_keys=True)
    assert b1 == b2
    assert d1["report"]["m0"]["members"]
    assert d1["violations"] == []
    assert d1["payload"] == cfg.payload and "config" not in d1["report"]


@pytest.mark.parametrize("m_values", [[], [13]])
def test_hyperstab_with_no_index_checked_exits_2_with_violation(m_values, tmp_path):
    # an empty m_values, or only indices outside M0, computes no Q_m
    payload = dict(REFERENCE_HYPERSTAB_PAYLOAD, m_values=m_values)
    assert run(parse_config(make_config("HYPERSTAB", payload)), out_dir=str(tmp_path)) == 2
    doc = json.loads((tmp_path / "hyperstab_report.json").read_text())
    report = doc["report"]
    assert report["per_m"] == []
    assert doc["violations"] == [{"name": "no index checked", "where": None,
                                  "requested": m_values, "m0_members": report["m0"]["members"]}]
    assert report["m0"]["members"]


def test_hyperstab_csv_sections(tmp_path):
    doc = make_config("HYPERSTAB", REFERENCE_HYPERSTAB_PAYLOAD, seed=11, format="csv")
    cfg = parse_config(doc)
    assert run(cfg, out_dir=str(tmp_path)) == 0
    sweep = (tmp_path / "constants_sweep.csv").read_text().splitlines()
    assert sweep[0] == "m,u,v,w,A,B,C,P,sigma,in_M0"
    assert len(sweep) == 12  # m = 2..12
    grid = (tmp_path / "qm_grid_m2.csv").read_text().splitlines()
    assert grid[0] == "x,Qm_0,Qm_1,Qm_2,f0_0,f0_1,f0_2,abs_dev"
    # 17 significant digits on reals
    first_x = grid[1].split(",")[0]
    assert first_x == "0.5"
    p2 = [r for r in sweep[1:] if r.startswith("2,")][0]
    assert "0.076510770975056" in p2


def test_emit_csv_empty_section(tmp_path):
    paths = emit_csv({"empty": (["a", "b"], [])}, str(tmp_path))
    assert (tmp_path / "empty.csv").read_bytes() == b"a,b\r\n"
    assert paths == [str(tmp_path / "empty.csv")]


def test_emit_csv_quoting(tmp_path):
    emit_csv({"q": (["name", "value"], [["with,comma", 1.0 / 3.0]])}, str(tmp_path))
    text = (tmp_path / "q.csv").read_text()
    assert '"with,comma"' in text
    assert "0.33333333333333331" in text


def test_main_subprocess_round(tmp_path):
    cfg_path = tmp_path / "cfg.json"
    cfg_path.write_text(json.dumps(
        {"payload": {"space": {"family": "CROSS_2NORM"}, "trials": 500}}))
    src = os.path.join(os.path.dirname(os.path.dirname(os.path.abspath(__file__))), "src")
    env = dict(os.environ)
    env["PYTHONPATH"] = src + os.pathsep + env.get("PYTHONPATH", "")
    proc = subprocess.run(
        [sys.executable, "-m", "qbanach.cli", "check-space",
         "--config", str(cfg_path), "--out", str(tmp_path), "--seed", "4"],
        capture_output=True, text=True, env=env,
    )
    assert proc.returncode == 0, proc.stderr
    assert "CHECK_SPACE: exit 0" in proc.stdout
    assert (tmp_path / "check_space_report.json").exists()


def test_main_reports_config_errors(tmp_path):
    cfg_path = tmp_path / "bad.json"
    cfg_path.write_text(json.dumps(
        {"payload": {"space": {"family": "CROSS_2NORM", "beta": 2.0}}}))
    code = main(["check-space", "--config", str(cfg_path), "--out", str(tmp_path)])
    assert code == 1


def _schema_path(cmd):
    return os.path.join(os.path.dirname(_REFERENCE_PATH), f"{cmd.lower()}.schema.json")


def write_schemas():
    """Rewrite ``docs/*.schema.json`` from ``cli.json_schema``."""
    for cmd in COMMANDS:
        with open(_schema_path(cmd), "w") as fh:
            fh.write(json.dumps(json_schema(cmd), sort_keys=True, indent=2) + "\n")


def test_docs_schemas_in_sync():
    for cmd in COMMANDS:
        with open(_schema_path(cmd)) as fh:
            shipped = json.load(fh)
        assert shipped == json_schema(cmd), (
            f"docs schema stale for {cmd}; regenerate the docs with "
            "`PYTHONPATH=src python tests/test_cli.py --write-schemas`")


def test_readme_exit_table_names_every_violation():
    # the README's exit-code table: one row per name, in its first column
    here = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))
    with open(os.path.join(here, "README.md")) as fh:
        lines = fh.read().splitlines()
    start = lines.index("| violation | command | `where` | trigger |") + 2
    names = []
    for line in lines[start:]:
        if not line.startswith("|"):
            break
        names.append(line.split("|")[1].strip().strip("`"))
    assert names == list(VIOLATIONS)


def test_pair_shortfall_names_the_vacuous_check():
    assert _pair_shortfall(5, 5, 6) == [] and _pair_shortfall(0, 0, 0) == []
    assert _pair_shortfall(7, 0, 70) == [{
        "name": "no admissible pairs", "where": None, "requested_pairs": 7,
        "admissible_pairs": 0, "rejected_pairs": 70}]
    (few,) = _pair_shortfall(7, 3, 70, "m=2")
    assert few["name"] == "too few admissible pairs" and few["rejected_pairs"] == 67
    assert few["where"] == "m=2"


def test_solve_with_no_admissible_pairs_stops_with_violation(tmp_path):
    # |x| = |y| = 1 and a = b: every pair lies on the excluded diagonal
    cfg = parse_config(make_config(
        "SOLVE", {"equation": {"a": 1.0, "b": 1.0, "c": 2.0, "d": 2.0}, "grid": [1.0]},
        format="csv"))
    code = run(cfg, out_dir=str(tmp_path))
    assert code == 2
    doc = json.loads((tmp_path / "solve_report.json").read_text())
    report = doc["report"]
    assert report["residual_pairs"] == 0
    assert report["drawn_pairs"] == 10 * cfg.payload["residual_pairs"]
    assert report["worst_pair"] is None
    (violation,) = doc["violations"]
    assert violation["name"] == "no admissible pairs"
    assert violation["admissible_pairs"] == 0
    assert violation["rejected_pairs"] == 10 * cfg.payload["residual_pairs"]
    # the CSV lists the first 1,000 draws, none of them with a residual
    grid = (tmp_path / "residual_grid.csv").read_text().splitlines()
    assert len(grid) == 1 + 1000
    assert all(row.endswith(",,False") for row in grid[1:])


def test_solve_with_all_pairs_admissible_has_no_violations(tmp_path):
    cfg = parse_config(make_config(
        "SOLVE", {"equation": {"a": 1.0, "b": 1.0, "c": 2.0, "d": 2.0},
                  "residual_pairs": 50}))
    assert run(cfg, out_dir=str(tmp_path)) == 0
    doc = json.loads((tmp_path / "solve_report.json").read_text())
    assert doc["report"]["residual_pairs"] == 50
    assert doc["violations"] == []


def test_solve_overflow_exits_1_without_traceback(tmp_path, capsys):
    # x^6 at x = 1e60 is past the float range; the message names the stage
    for grid in ([1.0, 1e120], [1e60]):
        cfg = parse_config(make_config(
            "SOLVE", {"equation": {"a": 1.0, "b": 1.0, "c": 2.0, "d": 2.0}, "grid": grid}))
        code = run(cfg, out_dir=str(tmp_path))
        err = capsys.readouterr().err
        assert code == 1
        assert err.startswith("error: solve: check_structure: numeric failure (OverflowError): ")
        assert "Traceback" not in err
        assert not (tmp_path / "solve_report.json").exists()


def test_hyperstab_overflow_names_the_stage_and_the_m(tmp_path, capsys):
    # s_3(u^3) = 8^(400) at m = 2 is past the float range
    payload = json.loads(json.dumps(REFERENCE_HYPERSTAB_PAYLOAD))
    payload["error_model"]["components"][2]["p"] = 400.0
    assert run(parse_config(make_config("HYPERSTAB", payload)), out_dir=str(tmp_path)) == 1
    assert capsys.readouterr().err.startswith(
        "error: hyperstab: run_experiment: find_M0 at m = 2: numeric failure (OverflowError): ")
    assert not (tmp_path / "hyperstab_report.json").exists()


def test_fixed_point_divergence_exits_1_without_report(tmp_path, capsys):
    # x^2 grows by 3 * 100^2 per step and overflows long before n_max
    cfg = parse_config(make_config("FIXED_POINT", {
        "space": {"family": "CROSS_2NORM"},
        "branches": [{"scale": 100.0, "coef": 3.0}],
        "phi": {"terms": [{"coef": 1.0, "exponent": 2.0, "direction": [1.0, 0.0, 0.0]}]},
        "error_terms": [{"c": 1.0, "s": 2.0}],
        "samples": [1.0], "n_max": 200}))
    code = run(cfg, out_dir=str(tmp_path))
    err = capsys.readouterr().err
    assert code == 1
    assert err.startswith("error: fixed-point: iterate: fixed-point iteration step ")
    assert "non-finite iterate" in err and "Traceback" not in err
    assert not (tmp_path / "fixed_point_report.json").exists()


# a norm scaled by 1e300: a growing step's norm passes the float range while
# the step itself is finite
_HUGE_NORM = {"family": "SCALED", "factor": 1e300, "base": {"family": "CROSS_2NORM"}}
_OVERFLOWING_STEP = {
    # mu ~ 5.7
    "FIXED_POINT": ({
        "space": _HUGE_NORM,
        "branches": [{"scale": 2.749827648810853, "coef": 0.5779106620175588}],
        "phi": {"terms": [{"coef": -1.4774197359106354, "exponent": 2.265268681983728,
                           "direction": [-0.663222, 0.748055, -0.023445]}]},
        "error_terms": [{"c": 1.7900121010826098, "s": 0.6795806045951184}],
        "samples": [-1.6890073521283469, 0.9738561351095316, 1.2256381132584782],
        "n_max": 400},
        "error: fixed-point: iterate: fixed-point iteration step 11: non-finite iterate"),
    # |x|^9 under T_2, measured in the huge norm; the majorant in CROSS_2NORM
    "HYPERSTAB": ({**REFERENCE_HYPERSTAB_PAYLOAD, "space": _HUGE_NORM,
                   "aux_space": {"family": "CROSS_2NORM"},
                   "perturbation": {**REFERENCE_HYPERSTAB_PAYLOAD["perturbation"], "exponent": 9.0}},
                  "error: hyperstab: run_experiment: Q_m for m = 2: fixed-point iteration step 2: "
                  "non-finite iterate"),
}


@pytest.mark.parametrize("command", sorted(_OVERFLOWING_STEP))
def test_a_finite_step_whose_norm_overflows_names_its_stage(command, tmp_path, capsys):
    # the step stays finite while its norm overflows: named as a diverged
    # iteration (exit 1, no report), with no numpy overflow warning on the way
    payload, message = _OVERFLOWING_STEP[command]
    assert run(parse_config(make_config(command, payload)), out_dir=str(tmp_path)) == 1
    assert capsys.readouterr().err.startswith(message)
    assert not list(tmp_path.glob("*_report.json"))


def test_a_contracting_iteration_of_huge_values_converges(tmp_path):
    # phi = 1e160 x e1 under a branch of multiplier 0.5: the cross products of
    # its iterates pass 1.3e154, whose squares overflow; the norm scales them,
    # so the run converges and is not named a diverged iteration
    payload = {"space": {"family": "CROSS_2NORM"}, "branches": [{"scale": 2.0, "coef": 0.25}],
               "phi": {"terms": [{"coef": 1e160, "exponent": 1.0, "mode": "SIGNED",
                                  "direction": [1.0, 0.0, 0.0]}]},
               "error_terms": [{"c": 1e160, "s": 1.0}], "samples": [0.5, 1.0, -2.0],
               "tol": 1e140}
    assert run(parse_config(make_config("FIXED_POINT", payload)), out_dir=str(tmp_path)) == 0
    report = json.loads((tmp_path / "fixed_point_report.json").read_text())["report"]
    assert report["converged"] and report["iterations"] == 70
    assert report["K_observed"] == pytest.approx(0.5, rel=1e-12)


def test_hyperstab_with_no_admissible_pairs_exits_2_with_violation(tmp_path):
    # a one-point grid with a = b: every residual pair is on the excluded diagonal
    payload = dict(REFERENCE_HYPERSTAB_PAYLOAD, grid=[1.0])
    cfg = parse_config(make_config("HYPERSTAB", payload, seed=7))
    assert run(cfg, out_dir=str(tmp_path)) == 2
    doc = json.loads((tmp_path / "hyperstab_report.json").read_text())
    requested = payload["tolerances"]["residual_pairs"]
    assert [rec["m"] for rec in doc["report"]["per_m"]] == [2, 3, 5]
    assert all(rec["qm"]["residual_pairs"] == 0 for rec in doc["report"]["per_m"])
    assert doc["violations"] == [{
        "name": "no admissible pairs", "where": f"m={m}", "requested_pairs": requested,
        "admissible_pairs": 0, "rejected_pairs": 10 * requested} for m in (2, 3, 5)]
    # with enough pairs the list is empty and the run is clean
    cfg = parse_config(make_config("HYPERSTAB", REFERENCE_HYPERSTAB_PAYLOAD, seed=7))
    assert run(cfg, out_dir=str(tmp_path)) == 0
    assert json.loads((tmp_path / "hyperstab_report.json").read_text())["violations"] == []


def test_solve_grid_rows_are_the_sampler_draws_in_order(tmp_path):
    # |x| and |y| within 2e-6 of each other: about half the draws fall in the
    # exclusion band, so the listed rows interleave both kinds
    eq = {"a": 1.0, "b": 1.0, "c": 2.0, "d": 2.0}
    cfg = parse_config(make_config(
        "SOLVE", {"equation": eq, "grid": [1.0, 1.000002], "residual_pairs": 20}, seed=3,
        format="csv"))
    assert run(cfg, out_dir=str(tmp_path)) == 0
    report = json.loads((tmp_path / "solve_report.json").read_text())["report"]
    draws = list(sample_admissible_pairs(EquationParams(**eq, root_n=3), 1.0, 1.000002, 20,
                                         np.random.default_rng(3)))
    with open(tmp_path / "residual_grid.csv", newline="") as fh:
        header, *rows = csv.reader(fh)
    assert header == ["x", "y", "residual_norm", "admissible"]
    # reals are written at 17 significant digits, so they read back exactly
    assert [(float(x), float(y), ok == "True") for x, y, _, ok in rows] == draws
    assert report["residual_pairs"] == 20 and report["drawn_pairs"] == len(rows)
    assert 20 < len(rows) < 200
    assert [norm != "" for _, _, norm, _ in rows] == [ok for _, _, ok in draws]
    worst = report["worst_pair"]
    assert (worst["x"], worst["y"], True) in draws


def test_hyperstab_warnings_come_from_the_run(tmp_path, capsys):
    # w != 0 needs c + d = 2, which the reference equation (c = d = 2) fails;
    # the run decides the warning, keeps it in the body and prints it to stderr
    payload = json.loads(json.dumps(REFERENCE_HYPERSTAB_PAYLOAD))
    payload["solution"]["w"] = [1.0, 0.0, 0.0]
    assert run(parse_config(make_config("HYPERSTAB", payload)), out_dir=str(tmp_path)) != 1
    doc = json.loads((tmp_path / "hyperstab_report.json").read_text())
    assert "warnings" not in doc
    (warning,) = doc["report"]["warnings"]
    assert "c + d = 2" in warning and "projection f0 = 0" in warning
    assert capsys.readouterr().err == f"warning: {warning}\n"


def test_run_prints_skipped_indices_as_a_warning(tmp_path, capsys):
    payload = json.loads(json.dumps(REFERENCE_HYPERSTAB_PAYLOAD))
    payload["m_values"] = [2, 13]  # M0 is 2..m_max = 12
    assert run(parse_config(make_config("HYPERSTAB", payload)), out_dir=str(tmp_path)) == 0
    assert capsys.readouterr().err == "warning: requested m outside M0 skipped: [13]\n"


def test_hyperstab_required_keys_only_take_the_schema_defaults(tmp_path):
    payload = {key: REFERENCE_HYPERSTAB_PAYLOAD[key]
               for key in ("space", "equation", "error_model", "grid")}
    assert run(parse_config(make_config("HYPERSTAB", payload)), out_dir=str(tmp_path)) == 0
    config = json.loads((tmp_path / "hyperstab_report.json").read_text())["payload"]
    schema = json_schema("HYPERSTAB")
    defaults = {**schema["default"], **{key: schema["properties"][key]["default"]
                                        for key in ("solution", "perturbation", "tolerances")}}
    assert sorted(defaults) == ["m_max", "m_values", "perturbation", "solution", "tolerances",
                                "witnesses"]
    assert {key: config[key] for key in defaults} == defaults


def test_hyperstab_error_model_alpha_is_an_unknown_key(tmp_path, capsys):
    # alpha is the auxiliary space's beta, so a config cannot set it, even to that beta
    payload = json.loads(json.dumps(REFERENCE_HYPERSTAB_PAYLOAD))
    for alpha in (0.5, 1.0):
        payload["error_model"]["alpha"] = alpha
        assert _cli_main("HYPERSTAB", payload, tmp_path) == 1
        assert capsys.readouterr().err == "error: unknown key at payload.error_model.alpha\n"
        assert not (tmp_path / "hyperstab_report.json").exists()


def test_hyperstab_nan_bound_side_is_a_no_error_budget_violation(tmp_path):
    # witness [1, 1, 0] is parallel to every y, so with p1 < 0 < p2 the majorant
    # there is h1 h2 = inf * 0 = NaN: a right side that bounds nothing
    payload = json.loads(json.dumps(REFERENCE_HYPERSTAB_PAYLOAD))
    payload["error_model"]["components"][1]["p"] = 0.5
    payload["witnesses"] = [[0.0, 1.0, 0.0], [1.0, 1.0, 0.0]]
    assert run(parse_config(make_config("HYPERSTAB", payload)), out_dir=str(tmp_path)) == 2
    doc = json.loads((tmp_path / "hyperstab_report.json").read_text())
    unbudgeted = {v["where"]: v["entries"] for v in doc["violations"]
                  if v["name"] == "no error budget"}
    assert {where: len(entries) for where, entries in unbudgeted.items()} == {"m=3": 6, "m=5": 6}
    for rec in doc["report"]["per_m"]:
        assert [e["rhs_unit_K"] for e in rec["bound_entries"] if e["witness"] == 1] == [None] * 6
        check_bound_table(rec["K_observed"], rec["bound_entries"], unbudgeted[f"m={rec['m']}"])


def test_hyperstab_diverging_Qm_names_the_index_without_numpy_warnings(tmp_path):
    payload = json.loads(json.dumps(REFERENCE_HYPERSTAB_PAYLOAD))
    payload["perturbation"]["exponent"] = 9.0
    payload["tolerances"]["qm_n_max"] = 400
    cfg_path = tmp_path / "cfg.json"
    cfg_path.write_text(make_config("HYPERSTAB", payload))
    src = os.path.join(os.path.dirname(os.path.dirname(os.path.abspath(__file__))), "src")
    env = dict(os.environ)
    env["PYTHONPATH"] = src + os.pathsep + env.get("PYTHONPATH", "")
    proc = subprocess.run(
        [sys.executable, "-m", "qbanach.cli", "hyperstab",
         "--config", str(cfg_path), "--out", str(tmp_path)],
        capture_output=True, text=True, env=env,
    )
    assert proc.returncode == 1
    # nothing (no numpy RuntimeWarning) before the error line
    # the difference of iterates itself overflows at step 96
    assert proc.stderr.startswith(
        "error: hyperstab: run_experiment: Q_m for m = 2: fixed-point iteration step 96: "
        "non-finite iterate"), proc.stderr
    assert not (tmp_path / "hyperstab_report.json").exists()


@pytest.mark.parametrize("command", ["HYPERSTAB", "FIXED_POINT"])
def test_empty_witness_list_is_rejected_with_its_path(command, tmp_path, capsys):
    # with witnesses this Q_m diverges at step 96; without them every sup-step
    # read 0 and each m was reported converged after 3 steps
    payload = json.loads(json.dumps(REFERENCE_HYPERSTAB_PAYLOAD))
    payload["perturbation"]["exponent"] = 9.0
    payload["tolerances"]["qm_n_max"] = 400
    if command == "FIXED_POINT":
        payload = {"space": {"family": "CROSS_2NORM"}, "branches": [{"scale": 2.0, "coef": 1.0}],
                   "phi": {"terms": [{"coef": 1.0, "exponent": 3.0, "direction": [1.0, 0.0, 0.0]}]},
                   "error_terms": [{"c": 1.0, "s": 3.0}], "samples": [1.0]}
    payload["witnesses"] = []
    cfg_path = tmp_path / "cfg.json"
    cfg_path.write_text(make_config(command, payload))
    code = main([command.lower().replace("_", "-"), "--config", str(cfg_path),
                 "--out", str(tmp_path)])
    assert code == 1
    assert "payload.witnesses: at least 1 item(s) required" in capsys.readouterr().err
    assert not list(tmp_path.glob("*_report.json"))


@pytest.mark.parametrize("theta", [1e-8, 1.0, 1e6, 1e10])
def test_solve_exact_solution_passes_at_every_theta(theta, tmp_path):
    # the residual is measured against the terms that cancel, so theta x^6
    # reads the same rounding at every theta; over max(|x|, |y|)^6 it read
    # 4.2e-9 at theta = 1e6 and exited 2
    cfg = parse_config(make_config(
        "SOLVE", {"equation": {"a": 1.0, "b": 1.0, "c": 2.0, "d": 2.0}, "theta_coef": theta},
        seed=3))
    assert run(cfg, out_dir=str(tmp_path)) == 0
    report = json.loads((tmp_path / "solve_report.json").read_text())["report"]
    assert report["residual_pairs"] == 1000
    assert 0.0 < report["sup_residual_scaled"] <= 1e-14


def test_solve_and_hyperstab_report_one_residual_record(tmp_path):
    # both bodies carry residual_check's record: the same four keys, and a
    # worst pair that is an admissible draw of the run's own sampler (both
    # grids span |x| in [0.5, 2])
    eq = {"a": 0.6, "b": 0.8, "c": 0.72, "d": 1.28}
    cfg = parse_config(make_config("SOLVE", {"equation": eq, "residual_pairs": 200}, seed=4))
    assert run(cfg, out_dir=str(tmp_path)) == 0
    solve = json.loads((tmp_path / "solve_report.json").read_text())["report"]
    cfg = parse_config(make_config("HYPERSTAB", REFERENCE_HYPERSTAB_PAYLOAD, seed=7))
    assert run(cfg, out_dir=str(tmp_path)) == 0
    per_m = json.loads((tmp_path / "hyperstab_report.json").read_text())["report"]["per_m"]
    assert [rec["m"] for rec in per_m] == [2, 3, 5]
    checks = [(solve, eq, 200, 4)] + [
        (rec["qm"], REFERENCE_HYPERSTAB_PAYLOAD["equation"], 400, 7 + rec["m"]) for rec in per_m]
    for record, equation, wanted, seed in checks:
        assert {"sup_residual_scaled", "residual_pairs", "drawn_pairs", "worst_pair"} <= set(record)
        draws = list(sample_admissible_pairs(EquationParams(**equation, root_n=3), 0.5, 2.0,
                                             wanted, np.random.default_rng(seed)))
        assert record["drawn_pairs"] == len(draws)
        assert record["residual_pairs"] == sum(ok for _, _, ok in draws) == wanted
        assert (record["worst_pair"]["x"], record["worst_pair"]["y"], True) in draws
        assert record["sup_residual_scaled"] <= 1e-11


def test_hyperstab_alpha_defaults_to_the_aux_beta(tmp_path):
    # the model's alpha is the auxiliary space's beta (here the space's own, 0.5)
    payload = json.loads(json.dumps(REFERENCE_HYPERSTAB_PAYLOAD))
    payload["space"] = {"family": "POWERED", "beta": 0.5, "base": {"family": "CROSS_2NORM"}}
    cfg = parse_config(make_config("HYPERSTAB", payload, seed=7))
    assert "alpha" not in cfg.payload["error_model"]
    assert cfg.inputs.model.alpha == 0.5
    assert run(cfg, out_dir=str(tmp_path)) == 0
    doc = json.loads((tmp_path / "hyperstab_report.json").read_text())
    assert "alpha" not in doc["payload"]["error_model"]
    assert [rec["m"] for rec in doc["report"]["per_m"]] == [2, 3, 5]


@pytest.mark.parametrize("value", [float("inf"), float("nan")])
def test_a_non_finite_report_number_exits_1_without_a_report(value, tmp_path, capsys,
                                                            monkeypatch):
    # inf and NaN are not JSON tokens: the run names its command and writes nothing
    monkeypatch.setitem(cli._RUNNERS, "SOLVE", lambda inputs, seed: ({"x": value}, [], {}))
    cfg = parse_config(make_config("SOLVE", {"equation": {"a": 1.0, "b": 1.0, "c": 2.0,
                                                          "d": 2.0}}))
    assert run(cfg, out_dir=str(tmp_path)) == 1
    err = capsys.readouterr().err
    assert err.startswith("error: solve: non-finite number in the report")
    assert "Traceback" not in err
    assert not (tmp_path / "solve_report.json").exists()


def _cli_main(command, payload, tmp_path, *flags):
    """``main``'s exit code on a config file holding ``payload``."""
    cfg_path = tmp_path / "cfg.json"
    cfg_path.write_text(make_config(command, payload))
    return main([command.lower().replace("_", "-"), "--config", str(cfg_path),
                 "--out", str(tmp_path), *flags])


def test_a_space_dim_is_an_unknown_key(tmp_path, capsys):
    # every space is on R^3: "dim" is no config key, not even at its old value 3
    payload = {"space": {"family": "POWERED", "beta": 0.5,
                         "base": {"family": "CROSS_2NORM", "dim": 3}}, "trials": 100}
    assert _cli_main("CHECK_SPACE", payload, tmp_path) == 1
    assert capsys.readouterr().err == "error: unknown key at payload.space.base.dim\n"
    payload = {"space": {"family": "CROSS_2NORM", "dim": 3}, "trials": 100}
    assert _cli_main("CHECK_SPACE", payload, tmp_path) == 1
    assert capsys.readouterr().err == "error: unknown key at payload.space.dim\n"
    assert not list(tmp_path.glob("*_report.json"))


_FIXED_POINT_PAYLOAD = {
    "space": {"family": "CROSS_2NORM"},
    "branches": [{"scale": 2.0, "coef": 0.5}],
    "phi": {"terms": [{"coef": 1.0, "exponent": 1.0, "direction": [1.0, 0.0, 0.0]}],
            "constant": [0.3, 0.0, 0.0]},
    "error_terms": [{"c": 0.15, "s": 0.0}],
    "samples": [0.5, 1.0, 2.0],
    "witnesses": [[0.0, 1.0, 0.0], [0.0, 0.0, 1.0]],
}


def _steps(path):
    """The keys and list indices of a validator path such as ``a.b[2].c``."""
    return [int(s[1:-1]) if s.startswith("[") else s
            for s in path.replace("[", ".[").split(".")]


@pytest.mark.parametrize("command,path,length", [
    ("HYPERSTAB", "solution.direction", 2),
    ("HYPERSTAB", "solution.w", 4),
    ("HYPERSTAB", "perturbation.direction", 2),
    ("HYPERSTAB", "error_model.components[2].y", 2),
    ("HYPERSTAB", "witnesses[1]", 2),
    ("FIXED_POINT", "phi.terms[0].direction", 2),
    ("FIXED_POINT", "phi.constant", 4),
    ("FIXED_POINT", "witnesses[0]", 2),
])
def test_a_space_vector_needs_3_entries(command, path, length):
    # a 2-long hyperstab direction used to pass parsing and end in "Q_m for
    # m = 2: dimension mismatch: expected 2, got 3", as if the witnesses were wrong
    payload = json.loads(json.dumps(
        REFERENCE_HYPERSTAB_PAYLOAD if command == "HYPERSTAB" else _FIXED_POINT_PAYLOAD))
    payload.setdefault("witnesses", [[0.0, 1.0, 0.0], [0.0, 0.0, 1.0]])
    *parents, last = _steps(path)
    node = payload
    for step in parents:
        node = node[step]
    node[last] = [1.0] * length
    with pytest.raises(ConfigError) as err:
        parse_config(make_config(command, payload))
    bound = "at least 3 item(s) required" if length < 3 else "at most 3 item(s) allowed"
    assert str(err.value) == f"payload.{path}: {bound}"


def test_solve_vectors_keep_any_length(tmp_path):
    # solve has no space: a 2-vector solution is an exact solution in R^2
    payload = {"equation": {"a": 0.6, "b": 0.8, "c": 0.72, "d": 1.28},
               "w": [0.25, -0.5], "direction": [0.6, 0.8], "residual_pairs": 50}
    assert run(parse_config(make_config("SOLVE", payload)), out_dir=str(tmp_path)) == 0


def test_seed_flag_is_checked_by_the_schema(tmp_path, capsys):
    # a negative --seed used to reach numpy: "error: expected non-negative integer"
    payload = {"space": {"family": "CROSS_2NORM"}, "trials": 100}
    assert _cli_main("CHECK_SPACE", payload, tmp_path, "--seed", "-1") == 1
    assert capsys.readouterr().err == "error: --seed: must be >= 0\n"
    assert not list(tmp_path.glob("*_report.json"))
    assert _cli_main("CHECK_SPACE", payload, tmp_path, "--seed", "5") == 0
    assert json.loads((tmp_path / "check_space_report.json").read_text())["seed"] == 5


def test_an_int_literal_past_the_float_range_is_refused_at_its_path(tmp_path, capsys):
    # json reads it as a Python int, which float() cannot convert
    text = make_config("SOLVE", {"equation": {"a": 1.0, "b": 1.0, "c": 2.0, "d": 2.0}})
    cfg_path = tmp_path / "cfg.json"
    cfg_path.write_text(text.replace('"a": 1.0', '"a": 1' + "0" * 400))
    assert main(["solve", "--config", str(cfg_path), "--out", str(tmp_path)]) == 1
    assert capsys.readouterr().err == "error: payload.equation.a: must be finite\n"


def test_a_parsed_default_is_a_copy_of_the_schema_default():
    payload = {key: REFERENCE_HYPERSTAB_PAYLOAD[key]
               for key in ("space", "equation", "error_model", "grid")}
    parse_config(make_config("HYPERSTAB", payload)).payload["m_values"].append(7)
    assert json_schema("HYPERSTAB")["default"]["m_values"] == [2, 3, 5]
    assert parse_config(make_config("HYPERSTAB", payload)).payload["m_values"] == [2, 3, 5]


@pytest.mark.parametrize("g_map", [5, "NOPE", {"matrix": [[1, 0], [0, 1]]},
                                   {"matrix": [[1, 0, 0], [0, 1, 0], [0, 0, None]]},
                                   {"matrix": [[1, 0, 0], [0, 1, 0], [0, 0, 1]], "extra": 1}])
def test_hyperstab_g_map_is_identity_or_a_3x3_matrix(g_map):
    # 5 and "NOPE" escaped cli.run as a TypeError; the 2x2 matrix exited 1
    # with numpy's matmul message
    payload = json.loads(json.dumps(REFERENCE_HYPERSTAB_PAYLOAD))
    payload["error_model"]["g_map"] = g_map
    with pytest.raises(ConfigError) as err:
        parse_config(make_config("HYPERSTAB", payload))
    assert str(err.value) == ("payload.error_model.g_map: "
                              "g_matrix must be a 3x3 array of finite numbers")
    payload["error_model"]["g_map"] = {"matrix": [[0, 1, 0], [0, 0, 1], [1, 0, 0]]}
    parse_config(make_config("HYPERSTAB", payload))


def test_solve_with_no_theta_term_takes_a_w_of_any_length(tmp_path):
    # only the theta x^(2n) term pairs w with the direction
    payload = {"equation": {"a": 1.0, "b": 1.0, "c": 1.0, "d": 1.0}, "theta_coef": 0.0,
               "w": [1.0, 0.0]}
    assert run(parse_config(make_config("SOLVE", payload)), out_dir=str(tmp_path)) == 0
    report = json.loads((tmp_path / "solve_report.json").read_text())["report"]
    assert report["solution"]["constant"] == [1.0, 0.0]


def test_run_config_inputs_follow_the_payload():
    cfg = parse_config(make_config("CHECK_SPACE", {"space": {"family": "CROSS_2NORM"}}))
    again = RunConfig(cfg.command, cfg.payload, cfg.seed)
    assert again == cfg and again.inputs["space"] == cfg.inputs["space"]
    other = dataclasses.replace(cfg, payload=dict(cfg.payload, trials=7))
    assert other.inputs["trials"] == 7


def test_envelope_counts_past_the_bound_are_refused_at_parse(tmp_path, capsys):
    # the p-triangle check holds O(trials) memory: 10^8 trials would take
    # ~20 GB and ~10 h; the draw of 10^15 certificate samples needs 48 PB
    for key, value, bound in [("trials", 10 ** 8, 100_000),
                              ("certificate_samples", 10 ** 15, 100_000), ("budget", 41, 40)]:
        payload = {"space": {"family": "CROSS_2NORM"}, key: value}
        assert _cli_main("ENVELOPE", payload, tmp_path) == 1
        assert capsys.readouterr().err == f"error: payload.{key}: must be <= {bound}\n"
        assert not (tmp_path / "envelope_report.json").exists()


@pytest.mark.parametrize("m_values,message", [
    ([2] * 20, "payload.m_values: items must be unique"),
    ([2, 3, 2], "payload.m_values: items must be unique"),
    ([10_001], "payload.m_values[0]: must be <= 10000"),
])
def test_hyperstab_m_values_repeats_and_indices_past_m_max_are_refused(m_values, message,
                                                                        tmp_path, capsys):
    # a repeated m reran its Q_m and wrote one more identical per_m record
    payload = dict(REFERENCE_HYPERSTAB_PAYLOAD, m_values=m_values)
    assert _cli_main("HYPERSTAB", payload, tmp_path) == 1
    assert capsys.readouterr().err == f"error: {message}\n"
    assert not (tmp_path / "hyperstab_report.json").exists()


def test_a_stage_out_of_memory_exits_1_without_report(tmp_path, capsys, monkeypatch):
    # a stage that runs out of memory exits 1 naming the stage; no count the
    # schema admits fails to allocate, so the search raises MemoryError here
    def search(*args):
        raise MemoryError("search rows")
    monkeypatch.setattr(cli, "envelope_norm_rows", search)
    cfg = parse_config(make_config("ENVELOPE", {"space": {"family": "CROSS_2NORM"}}))
    assert run(cfg, out_dir=str(tmp_path)) == 1
    assert capsys.readouterr().err == (
        "error: envelope: envelope_norm_rows: out of memory: search rows\n")
    assert not (tmp_path / "envelope_report.json").exists()


def test_fixed_point_with_an_empty_phi_runs(tmp_path):
    # the zero function: VectorFunction sized an empty phi as R^1, so the run
    # exited 1 with "dimension mismatch: expected 3, got 1"
    payload = dict(_FIXED_POINT_PAYLOAD, phi={"terms": []})
    assert run(parse_config(make_config("FIXED_POINT", payload)), out_dir=str(tmp_path)) == 0
    report = json.loads((tmp_path / "fixed_point_report.json").read_text())["report"]
    assert report["psi_values"] == {str(x): [0.0, 0.0, 0.0] for x in payload["samples"]}


_REFUSED = [
    ("CHECK_SPACE", {"space": {"family": "LP_CROSS"}},
     "payload.space: LP_CROSS requires p in (0,1]"),
    ("CHECK_SPACE", {"space": {"family": "POWERED", "beta": 0.5}},
     "payload.space: POWERED requires a base space"),
    ("ENVELOPE", {"space": {"family": "POWERED", "beta": 0.5,
                            "base": {"family": "CROSS_2NORM", "beta": 0.5}}},
     "payload.space: POWERED base must be a quasi-2-norm (beta = 1)"),
    ("ENVELOPE", {"space": {"family": "SCALED", "base": {"family": "CROSS_2NORM"}}},
     "payload.space: SCALED requires a base space and factor C > 0"),
    ("CHECK_SPACE", {"space": {"family": "CROSS_2NORM", "beta": 1.5}},
     "payload.space.beta: beta must lie in (0,1]"),
    ("FIXED_POINT", dict(_FIXED_POINT_PAYLOAD, branches=[{"scale": 2.0, "coef": 0.5},
                                                         {"scale": 0.0, "coef": 0.5}]),
     "payload.branches[1]: branch scale must be nonzero and finite"),
    ("FIXED_POINT", dict(_FIXED_POINT_PAYLOAD, samples=[0.5, -0.0]),
     "payload.samples[1]: must not be 0"),
    ("SOLVE", {"equation": {"a": 1.0, "b": 0.0, "c": 2.0, "d": 2.0}},
     "payload.equation: coefficients a, b, c, d must all be nonzero"),
    ("SOLVE", {"equation": {"a": 0.6, "b": 0.8, "c": 0.72, "d": 1.28}, "grid": [1.0, 0.0]},
     "payload.grid[1]: must not be 0"),
    ("SOLVE", {"equation": {"a": 0.6, "b": 0.8, "c": 0.72, "d": 1.28}, "w": [1.0, 0.0]},
     "payload.w: all directions and the constant must share one dimension"),
    ("HYPERSTAB", dict(REFERENCE_HYPERSTAB_PAYLOAD, aux_space={"family": "SCALED"}),
     "payload.aux_space: SCALED requires a base space and factor C > 0"),
    ("HYPERSTAB", dict(REFERENCE_HYPERSTAB_PAYLOAD, grid=[0.5, 0.0]),
     "payload.grid[1]: must not be 0"),
    # 2 kappa overflows, so theta is 0: envelope exited 1 on a ZeroDivisionError,
    # fixed-point on "theta must lie in (0,1]", hyperstab on an OverflowError,
    # and check-space, which never reads theta, exited 0
    *[(command, dict(payload, space={"family": "CROSS_2NORM", "kappa": 1.3e308}),
       "payload.space: theta = beta * log_(2 kappa) 2 underflows to 0 at beta = 1.0, "
       "kappa = 1.3e+308")
      for command, payload in [("CHECK_SPACE", {}), ("ENVELOPE", {}),
                               ("FIXED_POINT", _FIXED_POINT_PAYLOAD),
                               ("HYPERSTAB", REFERENCE_HYPERSTAB_PAYLOAD)]],
]


@pytest.mark.parametrize("command,payload,message", _REFUSED)
def test_parse_refuses_what_the_run_would_with_its_path(command, payload, message, tmp_path,
                                                         capsys):
    # each of these passed parsing and, but for check-space's theta case, exited
    # 1 from the run, most with no path
    assert _cli_main(command, payload, tmp_path) == 1
    assert capsys.readouterr().err == f"error: {message}\n"
    assert not list(tmp_path.glob("*_report.json"))


# ---------------------------------------------------------------------------
# configs generated from the JSON Schema itself
# ---------------------------------------------------------------------------

_DEFS = json_schema("CHECK_SPACE")["$defs"]


def _resolve(node):
    return _DEFS[node["$ref"].rpartition("/")[2]] if "$ref" in node else node


def _number_ints(node):
    """The integers a ``number`` node accepts, bounded so each is a float."""
    lo = (math.floor(node["exclusiveMinimum"]) + 1 if "exclusiveMinimum" in node
          else math.ceil(node.get("minimum", -1e6)))
    return st.integers(lo, math.floor(node.get("maximum", 1e6)))


def _space(depth=1, beta=True):
    """A space whose keys match its family (the schema's own draws are mostly
    refused by the constructors); ``beta=False`` leaves beta at its default 1,
    as a POWERED base needs."""
    props = _DEFS["space"]["properties"]
    optional = {k: _from_schema(props[k]) for k in (("beta", "kappa") if beta else ("kappa",))}
    kinds = [("CROSS_2NORM", {}), ("LP_CROSS", {"p": _from_schema(props["p"])})]
    if depth < 2:
        kinds += [("POWERED", {"base": _space(depth + 1, beta=False)}),
                  ("SCALED", {"base": _space(depth + 1), "factor": _from_schema(props["factor"])})]
    return st.one_of([st.fixed_dictionaries({"family": st.just(family), **required},
                                            optional=optional) for family, required in kinds])


def _from_schema(node, caps=None):
    """A strategy for the values that a schema node accepts, read off its JSON
    Schema keywords.  ``caps`` maps a property name to keywords that bound it
    further (e.g. ``{"trials": {"maximum": 200}}``); a capped property is
    always drawn, so that its default does not stand in for it."""
    if "$ref" in node:
        return _space()
    caps = caps or {}
    kind = node.get("type")
    if kind is None:  # {}, the g_map: any JSON value, or one of the two it takes
        return st.one_of(st.just("IDENTITY"),
                         st.fixed_dictionaries({"matrix": st.lists(st.lists(
                             _number_ints({}), min_size=3, max_size=3), min_size=3, max_size=3)}),
                         st.none(), st.booleans(), st.integers(), st.text(max_size=4))
    if kind == "object":
        props = {k: {**_resolve(v), **caps[k]} if k in caps else v
                 for k, v in node["properties"].items()}
        required = [k for k in props if k in node["required"] or k in caps]
        optional = {k: _from_schema(v, caps) for k, v in props.items() if k not in required}
        return st.fixed_dictionaries({k: _from_schema(props[k], caps) for k in required},
                                     optional=optional)
    if kind == "array":
        lo = node.get("minItems", 0)
        return st.lists(_from_schema(node["items"], caps), min_size=lo,
                        max_size=node.get("maxItems", lo + 2),
                        unique=node.get("uniqueItems", False))
    if kind == "string":
        return st.sampled_from(node["enum"]) if "enum" in node else st.text(max_size=8)
    if kind == "integer":
        ints = st.integers(node.get("minimum"), node.get("maximum"))
        return ints.filter(lambda v: v % node["not"]["multipleOf"]) if "not" in node else ints
    floats = st.floats(min_value=node.get("exclusiveMinimum", node.get("minimum")),
                       max_value=node.get("maximum"), exclude_min="exclusiveMinimum" in node,
                       allow_nan=False, allow_infinity=False)
    numbers = st.one_of(floats, _number_ints(node))
    return numbers.filter(lambda v: v != node["not"]["const"]) if "not" in node else numbers


def _config_doc(command, caps=None):
    """A config document: ``cli._TOP`` with the command fixed and the payload
    drawn from the command's schema."""
    top = {**cli._TOP, "properties": {**cli._TOP["properties"],
                                      "command": {"type": "string", "enum": [command]},
                                      "payload": json_schema(command)}}
    return _from_schema(top, caps)


def _objects(node, value, path):
    """(path, properties) of every object in ``value`` that ``node`` types as one."""
    node = _resolve(node)
    if node.get("type") == "object":
        yield path, node["properties"]
        for key, sub in node["properties"].items():
            if key in value:
                yield from _objects(sub, value[key], f"{path}.{key}")
    elif node.get("type") == "array":
        for i, item in enumerate(value):
            yield from _objects(node["items"], item, f"{path}[{i}]")


# a failure reports its document unshrunk: shrinking these nested documents
# takes minutes
_GENERATED = settings(derandomize=True, deadline=None, database=None, phases=[Phase.generate],
                      suppress_health_check=[HealthCheck.too_slow])


@pytest.mark.parametrize("command", COMMANDS)
@settings(_GENERATED, max_examples=20)
@given(data=st.data())
def test_generated_configs_round_trip_and_refuse_unknown_keys(command, data):
    doc = data.draw(_config_doc(command))
    try:
        config = parse_config(json.dumps(doc))
    except ConfigError as err:
        # the shape is the schema's, so only building the inputs refuses it
        assert str(err).startswith("payload.")
    else:
        assert parse_config(json.dumps({**doc, "payload": config.payload})) == config
    # one extra key at an object of the document names its path: the shape
    # is checked before anything is built
    objects = [("config", cli._TOP["properties"]),
               *_objects(SCHEMAS[command], doc["payload"], "payload")]
    path, props = data.draw(st.sampled_from(objects))
    key = data.draw(st.text("abcdefghijklmnopqrstuvwxyz_", min_size=1, max_size=6)
                    .filter(lambda k: k not in props))
    node = doc
    for step in _steps(path)[path.startswith("config"):]:
        node = node[step]
    node[key] = 0
    with pytest.raises(ConfigError) as err:
        parse_config(json.dumps(doc))
    assert str(err.value) == f"unknown key at {path}.{key}"


# sizes that keep one generated run within milliseconds
_RUN_CAPS = {"trials": {"maximum": 200}, "budget": {"maximum": 16},
             "certificate_samples": {"maximum": 20}, "m_max": {"maximum": 8},
             "residual_pairs": {"maximum": 50}, "grid": {"maxItems": 4},
             "samples": {"maxItems": 4}, "n_max": {"maximum": 50}, "qm_n_max": {"maximum": 50}}
# the stage a run names first when it fails (run_experiment's own name the m)
_STAGE = re.compile(r"(check_axioms|estimate_kappa|envelope_norm_rows|check_p_triangle|iterate"
                    r"|check_structure|residual_check|run_experiment"
                    r"|non-finite number in the report): ")


@pytest.mark.parametrize("command", COMMANDS)
@settings(_GENERATED, max_examples=10)
@given(data=st.data())
def test_generated_configs_run_to_a_report_or_a_named_stage(command, data):
    try:
        config = parse_config(json.dumps(data.draw(_config_doc(command, _RUN_CAPS))))
    except ConfigError:
        return
    stderr = io.StringIO()
    with tempfile.TemporaryDirectory() as tmp, contextlib.redirect_stderr(stderr), \
            warnings.catch_warnings():
        # numpy's overflow warnings stay warnings, as on the command line
        # (pyproject's pytest settings make them errors)
        warnings.simplefilter("ignore", RuntimeWarning)
        code = run(config, out_dir=tmp)  # no exception escapes
        reports = os.listdir(tmp)
        if code != 1:
            # the document records its input: command, seed and payload re-run it
            document = _report_document(tmp, command)
            assert document["payload"] == config.payload
            again = parse_config(json.dumps({k: document[k] for k in ("command", "seed",
                                                                      "payload")}))
            with tempfile.TemporaryDirectory() as tmp2:
                assert run(again, out_dir=tmp2) == code
                assert _report_document(tmp2, command) == document
    errors = [line for line in stderr.getvalue().splitlines() if line.startswith("error:")]
    name = command.lower().replace("_", "-")
    if code == 1:
        (line,) = errors
        assert line.startswith(f"error: {name}: ") and _STAGE.match(line, len(name) + 9), line
        assert not reports
    else:
        assert code in (0, 2) and not errors


def _report_document(out_dir, command):
    """The report document written to ``out_dir``, without its ``metadata``."""
    with open(os.path.join(out_dir, f"{command.lower()}_report.json")) as fh:
        document = json.load(fh)
    del document["metadata"]
    return document


if __name__ == "__main__":
    # PYTHONPATH=src python tests/test_cli.py --write-schemas
    if sys.argv[1:] != ["--write-schemas"]:
        sys.exit("usage: PYTHONPATH=src python tests/test_cli.py --write-schemas")
    write_schemas()
