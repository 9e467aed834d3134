"""Result checks: a job's exit code and named result fields against the
references recorded from the program (references.json).

Rules:

* A job fails on exit 1, on an uncaught exception, or on any mismatch below.
  Exit 2 ("completed with violations") passes when the reference exit is 2.
* Counts, flags and index lists are compared exactly.
* Reals are compared within ``RTOL`` relative to the larger magnitude, plus
  an absolute floor per field.  The floor is 0 except for the solve
  structure deviations, which are rounding residues of exact identities:
  there the floor is the solve config's own pass tolerance (1e-10).
* Envelope jobs must have no certificate failures, whatever the reference.
* Orbit jobs: the callable-path psi must match the term-family path (the
  reference) to ``PSI_ATOL`` absolutely, every exact sextic identity error
  must be 0, ``ExpansionTable.apply`` at n = 1 must reproduce the sextic
  eigenfunction to ``APPLY_RTOL``, and the iteration count is exact.
"""

from __future__ import annotations

import math

RTOL = 1e-9
ABS_FLOOR = {"deviations": 1e-10}
PSI_ATOL = 1e-7
APPLY_RTOL = 1e-8


def _close(got: float, ref: float, floor: float) -> bool:
    if math.isnan(ref) or math.isinf(ref):
        return got == ref or (math.isnan(got) and math.isnan(ref))
    return abs(got - ref) <= RTOL * max(abs(got), abs(ref)) + floor


def field_mismatches(got, ref, path: str = "", floor: float = 0.0) -> list:
    """Paths at which ``got`` differs from ``ref`` under the rules above."""
    if isinstance(ref, dict):
        if not isinstance(got, dict) or set(got) != set(ref):
            return [f"{path}: keys {sorted(got) if isinstance(got, dict) else got!r} "
                    f"!= {sorted(ref)}"]
        out = []
        for k in ref:
            sub_floor = ABS_FLOOR.get(k, floor) if not path else floor
            out += field_mismatches(got[k], ref[k], f"{path}.{k}" if path else k, sub_floor)
        return out
    if isinstance(ref, list):
        if not isinstance(got, list) or len(got) != len(ref):
            return [f"{path}: {got!r} != {ref!r}"]
        out = []
        for i, (g, r) in enumerate(zip(got, ref)):
            out += field_mismatches(g, r, f"{path}[{i}]", floor)
        return out
    if isinstance(ref, float) and isinstance(got, (int, float)) and not isinstance(got, bool):
        return [] if _close(float(got), ref, floor) else [f"{path}: {got!r} != {ref!r}"]
    return [] if (type(got) is type(ref) and got == ref) else [f"{path}: {got!r} != {ref!r}"]


def check_cli(code: int, fields: dict | None, ref: dict) -> list:
    """Problems with one CLI job; an empty list means it passed."""
    if code == 1:
        return ["exit 1 (operational error)"]
    if code != ref["exit"]:
        return [f"exit {code} != reference exit {ref['exit']}"]
    problems = field_mismatches(fields, ref["fields"])
    if fields.get("certificate_failures", 0) != 0:
        problems.append(f"{fields['certificate_failures']} envelope certificate failures")
    return problems


def check_orbit(result: dict, ref: dict) -> list:
    """Problems with one orbit job; an empty list means it passed."""
    problems = []
    if result["converged"] != ref["converged"]:
        problems.append(f"converged {result['converged']} != {ref['converged']}")
    if result["iterations"] != ref["iterations"]:
        problems.append(f"iterations {result['iterations']} != {ref['iterations']}")
    if len(result["psi"]) != len(ref["psi_term"]) or any(
            not abs(a - b) <= PSI_ATOL for a, b in zip(result["psi"], ref["psi_term"])):
        problems.append(f"psi {result['psi']} != term path {ref['psi_term']} (atol {PSI_ATOL})")
    if any(e != 0.0 for e in result["sextic_errors"]):
        problems.append(f"sextic identity errors {result['sextic_errors']} are not all 0")
    want = result["sextic_at_x0"]
    if any(not abs(a - b) <= APPLY_RTOL * abs(b)
           for a, b in zip(result["apply_n1"], want)):
        problems.append(f"T_m f(x0) {result['apply_n1']} != f(x0) {want} (rtol {APPLY_RTOL})")
    if not result["apply_finite"]:
        problems.append("ExpansionTable.apply returned a non-finite value")
    return problems
