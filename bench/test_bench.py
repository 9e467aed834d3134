"""Tests of the benchmark itself: result checks catch perturbed references,
the tracer's self-time arithmetic and bindings, and the refusal to run
without the program."""

import copy
import json
import os
import shutil
import subprocess
import sys

import pytest

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
sys.path.insert(0, os.path.join(ROOT, "src"))
sys.path.insert(0, HERE)

import checks  # noqa: E402
import tracer  # noqa: E402
import workloads  # noqa: E402

import qbanach  # noqa: E402
from qbanach import cli  # noqa: E402


@pytest.fixture(scope="module")
def refs():
    with open(os.path.join(HERE, "references.json")) as fh:
        return json.load(fh)


def _first(workload, kind):
    return next(j for j in workloads.pool(workload, ROOT) if j["kind"] == kind)


def _run_cli_job(job, out_dir):
    code = cli.run(workloads.prepare(job, cli), str(out_dir))
    return code, workloads.extract(job["spec"]["command"], str(out_dir))


def test_solve_job_matches_reference_and_perturbations_are_caught(refs, tmp_path):
    job = _first("experiment", "solve")
    ref = refs["experiment"][job["key"]]
    code, fields = _run_cli_job(job, tmp_path)
    assert checks.check_cli(code, fields, ref) == []

    bad = copy.deepcopy(ref)
    bad["fields"]["residual_pairs"] += 1
    assert checks.check_cli(code, fields, bad)
    bad = copy.deepcopy(ref)
    bad["fields"]["deviations"]["scale_a"] += 1e-9  # beyond the 1e-10 floor
    assert checks.check_cli(code, fields, bad)
    bad = copy.deepcopy(ref)
    bad["exit"] = 2
    assert checks.check_cli(code, fields, bad)
    assert checks.check_cli(1, None, ref) == ["exit 1 (operational error)"]


def test_hyperstab_job_perturbations_are_caught(refs, tmp_path):
    job = _first("experiment", "hyperstab")
    ref = refs["experiment"][job["key"]]
    code, fields = _run_cli_job(job, tmp_path)
    assert checks.check_cli(code, fields, ref) == []

    m = next(iter(ref["fields"]["per_m"]))
    perturbations = [
        lambda f: f["m0_members"].pop(),
        lambda f: f["per_m"][m].__setitem__("iterations", f["per_m"][m]["iterations"] + 1),
        lambda f: f["per_m"][m].__setitem__("K_observed", f["per_m"][m]["K_observed"] * (1 + 1e-8)),
        lambda f: f["per_m"][m]["qm_values"][2].__setitem__(0, f["per_m"][m]["qm_values"][2][0] * (1 + 1e-8)),
    ]
    for perturb in perturbations:
        bad = copy.deepcopy(ref)
        perturb(bad["fields"])
        assert checks.check_cli(code, fields, bad), perturb


def test_check_space_count_and_real_perturbations_are_caught(refs):
    ref = next(iter(refs["bulk_sampling"].values()))
    fields = copy.deepcopy(ref["fields"])
    assert checks.check_cli(ref["exit"], fields, ref) == []
    fields["B4_count"] += 1
    assert checks.check_cli(ref["exit"], fields, ref)
    fields = copy.deepcopy(ref["fields"])
    fields["kappa_observed"] *= 1 + 1e-8
    assert checks.check_cli(ref["exit"], fields, ref)


def test_exit_2_passes_only_against_an_exit_2_reference(refs):
    ref = next(r for r in refs["envelope_search"].values() if r["exit"] == 2)
    assert checks.check_cli(2, ref["fields"], ref) == []
    assert checks.check_cli(0, ref["fields"], ref)
    fields = dict(ref["fields"], certificate_failures=1)
    assert checks.check_cli(2, fields, dict(ref, fields=fields))


def test_orbit_job_matches_reference_and_perturbations_are_caught(refs):
    job = _first("orbit", "orbit")
    ref = refs["orbit"][job["key"]]
    result = workloads.run_orbit(job["spec"], qbanach)
    assert checks.check_orbit(result, ref) == []

    bad = copy.deepcopy(ref)
    bad["psi_term"][0] += 1e-6
    assert checks.check_orbit(result, bad)
    bad = copy.deepcopy(ref)
    bad["iterations"] += 1
    assert checks.check_orbit(result, bad)
    broken = dict(result, sextic_errors=[0.0, 2.0 ** -60])
    assert checks.check_orbit(broken, ref)


def test_self_time_is_span_minus_child_coverage():
    tr = tracer.Tracer()
    tr.job = 0
    inner = tr._wrap("inner", lambda: sum(range(20000)), None)
    outer = tr._wrap("outer", lambda: [inner() for _ in range(3)], None)
    outer()
    st = tr.self_times(jobs=True)
    dur = [(e - s) * 1e-9 for s, e in zip(tr.start, tr.end)]
    assert len(dur) == 4 and list(tr.parent) == [-1, 0, 0, 0]
    assert st["inner"] == pytest.approx(sum(dur[1:]))
    assert st["outer"] == pytest.approx(dur[0] - sum(dur[1:]))
    assert tr.counters == {"outer.calls": 1, "inner.calls": 3}
    assert tr.self_times(jobs=False) == {"inner": 0.0, "outer": 0.0}


def test_install_wraps_every_binding_and_uninstall_restores():
    from qbanach import envelope, hyperstab, radical, spaces
    original = spaces.eval_norm_rows
    powered = spaces.power_space(spaces.cross_2norm(), 0.5)
    tr = tracer.Tracer()
    tr.install()
    try:
        assert spaces.eval_norm_rows is envelope.eval_norm_rows is not original
        assert radical.admissibility is hyperstab.admissibility is cli.admissibility
        assert qbanach.eval_norm is spaces.eval_norm
        spaces.eval_norm(powered, [1, 0, 0], [0, 1, 0])
    finally:
        tr.uninstall()
    assert spaces.eval_norm_rows is original and envelope.eval_norm_rows is original
    # POWERED recurses into its base: one outermost call, two spans under eval_norm
    assert tr.counters["spaces.eval_norm_rows.calls"] == 1
    assert tr.counters["spaces.eval_norm_rows.rows"] == 1
    assert [tr.names[i] for i in tr.name_id] == [
        "spaces.eval_norm", "spaces.eval_norm_rows", "spaces.eval_norm_rows"]
    assert list(tr.parent) == [-1, 0, 1]


def test_refuses_to_run_without_the_program(tmp_path):
    shutil.copy(os.path.join(ROOT, "BENCHMARK.json"), tmp_path)
    shutil.copytree(HERE, tmp_path / "bench",
                    ignore=shutil.ignore_patterns("__pycache__", ".pytest_cache"))
    proc = subprocess.run([sys.executable, "bench/run.py", "--workload", "orbit", "--seed", "1",
                           "--seconds", "1", "--trace", "0"],
                          cwd=tmp_path, capture_output=True, text=True, timeout=120)
    assert proc.returncode != 0
    assert '"correct"' not in proc.stdout
