"""The bench tracer's counter hooks read attributes that the traced results have.

``bench/tracer.py`` reads counters off what a wrapped function returns
(``out.iterations``, ``out.residual_pairs``, ``out.trials``...), so a result
record that drops or renames a field would end a traced bench run with an
``AttributeError``.  This test installs the tracer, runs one small config of
each CLI command and checks every hooked counter; it only reads ``bench/``.
"""

import importlib.util
import json
import os

from qbanach import cli

_ROOT = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))

with open(os.path.join(_ROOT, "docs", "reference_hyperstab.json")) as _fh:
    _HYPERSTAB = json.load(_fh)["payload"]

CONFIGS = {
    "CHECK_SPACE": {"space": {"family": "CROSS_2NORM"}, "trials": 200},
    # kappa declared 1 under LP_CROSS(1/2)'s 2: the p-triangle check counts violations
    "ENVELOPE": {"space": {"family": "LP_CROSS", "p": 0.5, "kappa": 1.0}, "trials": 40,
                 "certificate_samples": 5, "budget": 4},
    "FIXED_POINT": {"space": {"family": "CROSS_2NORM"},
                    "branches": [{"scale": 2.0, "coef": 0.25}],
                    "phi": {"terms": [{"coef": 1.0, "exponent": 1.0,
                                       "direction": [1.0, 0.0, 0.0]}]},
                    "error_terms": [{"c": 1.0, "s": 1.0}], "samples": [0.5, 1.0]},
    "SOLVE": {"equation": {"a": 1.0, "b": 1.0, "c": 2.0, "d": 2.0}, "residual_pairs": 20},
    "HYPERSTAB": {**_HYPERSTAB, "m_values": [2], "m_max": 4,
                  "tolerances": {**_HYPERSTAB["tolerances"], "residual_pairs": 20}},
}

# the hooked functions that some CLI command calls (the CLI's envelope runs
# envelope_norm_rows, not the one-row envelope_norm)
CALLED = {"spaces.eval_norm_rows", "envelope.check_p_triangle", "fixedpoint.iterate",
          "radical.admissibility", "hyperstab.compute_Qm"}


def _tracer_module():
    spec = importlib.util.spec_from_file_location(
        "bench_tracer", os.path.join(_ROOT, "bench", "tracer.py"))
    tracer = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(tracer)
    return tracer


def test_every_hook_reads_a_positive_counter_off_its_function(tmp_path):
    t = _tracer_module().Tracer()
    t.install()
    try:
        for job, (command, payload) in enumerate(CONFIGS.items()):
            t.job = job
            config = cli.parse_config(json.dumps({"command": command, "payload": payload}))
            # a hook that raises would end the run here
            assert cli.run(config, out_dir=str(tmp_path)) in (0, 2), command
    finally:
        t.uninstall()
    called = {name for name in t._hooks() if t.counters.get(f"{name}.calls")}
    assert called == CALLED
    for name in called:
        counters = {k: v for k, v in t.counters.items()
                    if k.startswith(f"{name}.") and k != f"{name}.calls"}
        assert counters and all(v > 0 for v in counters.values()), (name, counters)
