import json
import os
import subprocess
import sys

import numpy as np
import pytest

from qbanach.cli import (COMMANDS, ConfigError, RunConfig, emit_csv, json_schema,
                         main, parse_config, run, serialize_config)
from qbanach.radical import EquationParams, sample_admissible_pairs

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


def test_parse_hyperstab_warns_without_exact_solution():
    payload = json.loads(json.dumps(REFERENCE_HYPERSTAB_PAYLOAD))
    payload["equation"]["c"] = 3.0  # a^2 != c/2
    cfg = parse_config(make_config("HYPERSTAB", payload))
    assert any("projection f0 = 0" in w for w in cfg.warnings)


def test_config_round_trip():
    cfg = parse_config(make_config("HYPERSTAB", REFERENCE_HYPERSTAB_PAYLOAD, seed=3))
    again = parse_config(serialize_config(cfg))
    assert again == cfg


def test_run_check_space_clean(tmp_path):
    cfg = parse_config(make_config(
        "CHECK_SPACE", {"space": {"family": "CROSS_2NORM"}, "trials": 2000}))
    code = run(cfg, out_dir=str(tmp_path))
    assert code == 0
    doc = json.loads((tmp_path / "check_space_report.json").read_text())
    assert doc["report"]["axioms"]["total_violations"] == 0
    assert "timestamp" in doc["metadata"]


def test_run_check_space_underdeclared_kappa_exits_2(tmp_path):
    cfg = parse_config(make_config(
        "CHECK_SPACE",
        {"space": {"family": "LP_CROSS", "p": 0.5, "kappa": 1.0}, "trials": 3000}))
    code = run(cfg, out_dir=str(tmp_path))
    assert code == 2
    doc = json.loads((tmp_path / "check_space_report.json").read_text())
    assert doc["report"]["axioms"]["violations"]["B4"]["count"] > 0


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
    assert grid[0] == "x,y,residual_norm,gamma,admissible"
    assert len(grid) > 100


def test_run_solve_reports_failed_constraints(tmp_path):
    cfg = parse_config(make_config(
        "SOLVE", {"equation": {"a": 1.0, "b": 1.0, "c": 3.0, "d": 2.0}}))
    code = run(cfg, out_dir=str(tmp_path))
    assert code == 2
    doc = json.loads((tmp_path / "solve_report.json").read_text())
    assert "a^2 = c/2" in doc["report"]["failed_constraints"]


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
    assert doc["report"]["report"]["converged"]
    assert doc["report"]["report"]["K_observed"] <= 1 + 1e-6


def test_run_fixed_point_with_csv_samples(tmp_path):
    csv_path = tmp_path / "samples.csv"
    csv_path.write_text("0.5\n1.0\n2.0\n")
    payload = {
        "space": {"family": "CROSS_2NORM"},
        "branches": [{"scale": 2.0, "coef": 0.5}],
        "phi": {"terms": [], "constant": [0.4, 0.0, 0.0]},
        "error_terms": [{"c": 0.2, "s": 0.0}],
        "samples_csv": str(csv_path),
    }
    cfg = parse_config(make_config("FIXED_POINT", payload))
    assert run(cfg, out_dir=str(tmp_path)) == 0
    doc = json.loads((tmp_path / "fixed_point_report.json").read_text())
    assert set(doc["report"]["report"]["psi_values"]) == {"0.5", "1.0", "2.0"}


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
    assert d1["report"]["feasible"]


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


def test_docs_schemas_in_sync():
    here = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))
    for cmd in COMMANDS:
        path = os.path.join(here, "docs", f"{cmd.lower()}.schema.json")
        with open(path) as fh:
            shipped = json.load(fh)
        assert shipped == json_schema(cmd), f"docs schema stale for {cmd}"


def test_solve_with_no_admissible_pairs_stops_with_violation(tmp_path):
    # |x| = |y| = 1 and a = b: every pair lies on the excluded diagonal
    cfg = parse_config(make_config(
        "SOLVE", {"equation": {"a": 1.0, "b": 1.0, "c": 2.0, "d": 2.0}, "grid": [1.0]}))
    code = run(cfg, out_dir=str(tmp_path))
    assert code == 2
    report = json.loads((tmp_path / "solve_report.json").read_text())["report"]
    assert report["residual_pairs"] == 0
    (violation,) = report["violations"]
    assert violation["name"] == "no admissible pairs"
    assert violation["admissible_pairs"] == 0
    assert violation["rejected_pairs"] == 10 * cfg.payload["residual_pairs"]
    assert len(report["residual_grid"]) == 1000


def test_solve_with_all_pairs_admissible_has_no_violations(tmp_path):
    cfg = parse_config(make_config(
        "SOLVE", {"equation": {"a": 1.0, "b": 1.0, "c": 2.0, "d": 2.0},
                  "residual_pairs": 50}))
    assert run(cfg, out_dir=str(tmp_path)) == 0
    report = json.loads((tmp_path / "solve_report.json").read_text())["report"]
    assert report["residual_pairs"] == 50
    assert "violations" not in report


def test_solve_overflow_exits_1_without_traceback(tmp_path, capsys):
    cfg = parse_config(make_config(
        "SOLVE", {"equation": {"a": 1.0, "b": 1.0, "c": 2.0, "d": 2.0},
                  "grid": [1.0, 1e120]}))
    code = run(cfg, out_dir=str(tmp_path))
    err = capsys.readouterr().err
    assert code == 1
    assert err.startswith("error: solve: ")
    assert "OverflowError" in err and "Traceback" not in err
    assert not (tmp_path / "solve_report.json").exists()


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
    assert err.startswith("error: fixed-point iteration step ")
    assert "non-finite iterate" in err and "Traceback" not in err
    assert not (tmp_path / "fixed_point_report.json").exists()


def test_hyperstab_with_no_admissible_pairs_exits_2_with_violation(tmp_path):
    # a one-point grid with a = b: every residual pair is on the excluded diagonal
    payload = dict(REFERENCE_HYPERSTAB_PAYLOAD, grid=[1.0])
    cfg = parse_config(make_config("HYPERSTAB", payload, seed=7))
    assert run(cfg, out_dir=str(tmp_path)) == 2
    report = json.loads((tmp_path / "hyperstab_report.json").read_text())["report"]
    requested = payload["tolerances"]["residual_pairs"]
    assert [rec["m"] for rec in report["per_m"]] == [2, 3, 5]
    for rec in report["per_m"]:
        assert rec["qm"]["residual_pairs"] == 0
        assert rec["violations"] == [{
            "name": "no admissible pairs", "requested_pairs": requested,
            "admissible_pairs": 0, "rejected_pairs": 10 * requested}]
    # with enough pairs the key is absent and the run is clean
    cfg = parse_config(make_config("HYPERSTAB", REFERENCE_HYPERSTAB_PAYLOAD, seed=7))
    assert run(cfg, out_dir=str(tmp_path)) == 0
    report = json.loads((tmp_path / "hyperstab_report.json").read_text())["report"]
    assert all("violations" not in rec for rec in report["per_m"])


def test_solve_grid_rows_are_the_sampler_draws_in_order(tmp_path):
    # |x| and |y| within 2e-6 of each other: about half the draws fall in the
    # exclusion band, so the listed rows interleave both kinds
    eq = {"a": 1.0, "b": 1.0, "c": 2.0, "d": 2.0}
    cfg = parse_config(make_config(
        "SOLVE", {"equation": eq, "grid": [1.0, 1.000002], "residual_pairs": 20}, seed=3))
    assert run(cfg, out_dir=str(tmp_path)) == 0
    report = json.loads((tmp_path / "solve_report.json").read_text())["report"]
    draws = list(sample_admissible_pairs(EquationParams.from_dict(eq), 1.0, 1.000002, 20,
                                         np.random.default_rng(3)))
    rows = [(r["x"], r["y"], r["admissible"]) for r in report["residual_grid"]]
    assert rows == draws
    assert report["residual_pairs"] == 20 and 20 < len(rows) < 200
    assert [r["residual_norm"] is not None for r in report["residual_grid"]] == \
        [ok for _, _, ok in draws]


def test_parse_hyperstab_warnings_agree_with_the_run(tmp_path):
    # w != 0 needs c + d = 2, which the reference equation (c = d = 2) fails;
    # the config's warnings come from the run's own make_solution decision
    payload = json.loads(json.dumps(REFERENCE_HYPERSTAB_PAYLOAD))
    payload["solution"]["w"] = [1.0, 0.0, 0.0]
    cfg = parse_config(make_config("HYPERSTAB", payload))
    assert any("c + d = 2" in w for w in cfg.warnings)
    assert run(cfg, out_dir=str(tmp_path)) != 1
    doc = json.loads((tmp_path / "hyperstab_report.json").read_text())
    assert doc["warnings"] == doc["report"]["warnings"] == cfg.warnings


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
    assert proc.stderr.startswith(
        "error: Q_m for m = 2: fixed-point iteration step 96: non-finite iterate"), proc.stderr
    assert not (tmp_path / "hyperstab_report.json").exists()
