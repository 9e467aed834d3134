"""The exit rule: a run exits 2 exactly when its top-level ``violations``
list is nonempty, and every record's name is one of ``cli.VIOLATIONS``.

``DRIVE_TO_FAIL`` holds one config per name that makes a run fail with it;
a name without one fails ``test_every_violation_can_be_driven``.
"""

import dataclasses
import json
import os

import pytest

from qbanach import cli
from qbanach.cli import VIOLATIONS, _violation, parse_config, run
from qbanach.radical import Term, VectorFunction

_HERE = os.path.dirname(os.path.abspath(__file__))
with open(os.path.join(os.path.dirname(_HERE), "docs", "reference_hyperstab.json")) as _fh:
    REFERENCE = json.load(_fh)["payload"]

CROSS = {"family": "CROSS_2NORM"}
LP_UNDERDECLARED = {"family": "LP_CROSS", "p": 0.5, "kappa": 1.0}
SHRINKING_PHI = {"terms": [{"coef": 1.0, "exponent": -1.0, "mode": "ABS",
                            "direction": [1.0, 0.0, 0.0]}]}


def _fixed_point(**changes):
    return "FIXED_POINT", {"space": CROSS, "branches": [{"scale": 2.0, "coef": 0.5}],
                           "phi": SHRINKING_PHI, "error_terms": [{"c": 1.0, "s": -1.0}],
                           "samples": [0.5, 1.0, 2.0], **changes}


def _solve(equation=(1.0, 1.0, 2.0, 2.0), **changes):
    return "SOLVE", {"equation": dict(zip("abcd", equation)), "residual_pairs": 50, **changes}


def _hyperstab(tolerances=None, component=None, **changes):
    payload = json.loads(json.dumps(REFERENCE))
    payload["tolerances"].update(tolerances or {})
    for comp in payload["error_model"]["components"]:
        comp.update(component or {})
    payload.update(changes)
    return "HYPERSTAB", payload


def _envelope(space):
    return "ENVELOPE", {"space": space, "trials": 200, "certificate_samples": 20, "budget": 6}


def _broken_certificates(monkeypatch):
    """No config reaches a certificate failure: every certificate sums to x
    by construction and never exceeds the norm.  So this fixture
    monkeypatches the envelope search to return each certificate doubled."""
    search = cli.envelope_norm_rows

    def doubled(*args, **kwargs):
        return [dataclasses.replace(r, certificate=[[2.0 * c for c in part]
                                                    for part in r.certificate])
                for r in search(*args, **kwargs)]

    monkeypatch.setattr(cli, "envelope_norm_rows", doubled)
    return _envelope(CROSS)


def _non_solution(monkeypatch):
    """No config reaches a residual over tol: solve checks the exact solution
    it builds itself, and its residual is rounding, ~1e-15 of the terms that
    cancel, whatever theta is.  So this fixture monkeypatches the solution to
    x^2 e1, which solves no radical equation."""
    monkeypatch.setattr(cli, "make_solution", lambda *args: VectorFunction(
        terms=[Term(coef=1.0, exponent=2.0, direction=[1.0, 0.0, 0.0])]))
    return _solve()


# name -> (command, payload), or a function of pytest's monkeypatch returning one
DRIVE_TO_FAIL = {
    "axiom violated": ("CHECK_SPACE", {"space": LP_UNDERDECLARED, "trials": 3000}),
    # at factor 1e-14 every B4 denominator is below the degeneracy threshold
    "no valid B4 triples": ("CHECK_SPACE", {"space": {"family": "SCALED", "factor": 1e-14,
                                                      "base": CROSS}, "trials": 200}),
    "certificate failure": _broken_certificates,
    "p-triangle violated": _envelope(LP_UNDERDECLARED),
    "not converged": _fixed_point(n_max=1),
    # the |x| term has rho = 2 under one branch of scale 2 and coef 1
    "divergent eps_star": _fixed_point(branches=[{"scale": 2.0, "coef": 1.0}],
                                       error_terms=[{"c": 1.0, "s": -1.0},
                                                    {"c": 1e-30, "s": 1.0}]),
    "no error budget": _fixed_point(error_terms=[]),
    "no exact solution": _solve((1.0, 1.0, 3.0, 2.0)),  # a^2 != c/2
    # decimal coefficients leave scaling-law deviations of ~1e-14
    "structure law over tol": _solve((0.6, 0.8, 0.72, 1.28), tol=1e-15),
    "residual over tol": _non_solution,
    # |x| = |y| = 1 and a = b: every pair lies on the excluded diagonal
    "no admissible pairs": _solve(grid=[1.0]),
    # |x|, |y| in [1, 1 + 1.2e-6]: ~3 % of the draws clear the 1e-6 band
    "too few admissible pairs": _solve(grid=[1.0, 1.0000012]),
    # positive exponents make every P_m exceed 1
    "empty M0": _hyperstab(component={"p": 1.0}),
    "no index checked": _hyperstab(m_values=[]),
    "Q_m not converged": _hyperstab(tolerances={"qm_n_max": 1}),
}


def _run(command, payload, tmp_path, seed=0):
    text = json.dumps({"command": command, "seed": seed, "payload": payload})
    code = run(parse_config(text), out_dir=str(tmp_path))
    with open(tmp_path / f"{command.lower()}_report.json") as fh:
        return code, json.load(fh)


@pytest.mark.parametrize("name", VIOLATIONS)
def test_every_violation_can_be_driven(name, tmp_path, monkeypatch):
    assert name in DRIVE_TO_FAIL, f"no drive-to-fail fixture for {name!r}"
    fixture = DRIVE_TO_FAIL[name]
    command, payload = fixture(monkeypatch) if callable(fixture) else fixture
    code, document = _run(command, payload, tmp_path)
    assert code == 2
    assert name in [v["name"] for v in document["violations"]]


def test_fixtures_name_only_registered_violations():
    assert set(DRIVE_TO_FAIL) == set(VIOLATIONS)
    assert len(set(VIOLATIONS)) == len(VIOLATIONS)


def test_a_record_outside_the_registry_raises():
    assert _violation("empty M0") == {"name": "empty M0", "where": None}
    assert _violation("not converged", iterations=3) == {
        "name": "not converged", "where": None, "iterations": 3}
    with pytest.raises(ValueError, match="unregistered violation name 'diverged'"):
        _violation("diverged")


CLEAN = {
    "CHECK_SPACE": {"space": CROSS, "trials": 2000},
    "ENVELOPE": _envelope(CROSS)[1],
    "FIXED_POINT": _fixed_point()[1],
    "SOLVE": _solve()[1],
    "HYPERSTAB": REFERENCE,
}


@pytest.mark.parametrize("command", cli.COMMANDS)
def test_a_clean_run_has_an_empty_violations_list(command, tmp_path):
    code, document = _run(command, CLEAN[command], tmp_path)
    assert code == 0
    assert document["violations"] == []


def test_golden_cases_exit_2_iff_they_name_a_violation():
    with open(os.path.join(_HERE, "report_golden.json")) as fh:
        cases = json.load(fh)["cases"]
    assert len(cases) == 8
    for case in cases:
        violations = case["document"]["violations"]
        assert (case["exit_code"] == 2) == bool(violations), case["label"]
        assert all(v["name"] in VIOLATIONS and "where" in v for v in violations)
    assert sorted(c["exit_code"] for c in cases) == [0] * 6 + [2] * 2


def test_no_report_body_carries_a_violations_list():
    # the per-B counts of check-space and the p-triangle count are numbers in
    # their own sections; a list of records lives only at the top level
    with open(os.path.join(_HERE, "report_golden.json")) as fh:
        cases = json.load(fh)["cases"]

    def lists(node):
        if isinstance(node, dict):
            for key, value in node.items():
                if key == "violations" and isinstance(value, list):
                    yield value
                yield from lists(value)
        elif isinstance(node, list):
            for item in node:
                yield from lists(item)

    for case in cases:
        assert not list(lists(case["document"]["report"])), case["label"]
