"""The report fields the benchmark checks exist in the golden report bodies.

Every bench job reads its result fields back from the written report with
``bench/workloads.py``'s ``extract``, so a renamed or deleted body field
would fail every job of its command with a ``KeyError``; this test makes it
fail here instead.  It only reads ``bench/``.
"""

import importlib.util
import json
import os

import pytest

_ROOT = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))


def _workloads():
    spec = importlib.util.spec_from_file_location(
        "bench_workloads", os.path.join(_ROOT, "bench", "workloads.py"))
    workloads = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(workloads)
    return workloads


def _golden_cases():
    with open(os.path.join(_ROOT, "tests", "report_golden.json")) as fh:
        cases = json.load(fh)["cases"]
    return [c for c in cases if c["config"]["command"] in ("CHECK_SPACE", "SOLVE", "HYPERSTAB")]


@pytest.mark.parametrize("case", _golden_cases(), ids=lambda c: c["label"])
def test_bench_extract_reads_every_golden_body(case, tmp_path):
    command = case["config"]["command"]
    with open(tmp_path / f"{command.lower()}_report.json", "w") as fh:
        json.dump(case["document"], fh)
    fields = _workloads().extract(command, str(tmp_path))
    assert fields
