"""README's code as written: the library example runs against the package."""

import contextlib
import io
import os
import re

_README = os.path.join(os.path.dirname(os.path.dirname(os.path.abspath(__file__))), "README.md")


def _python_block(section: str) -> str:
    """The first ```python block under README's ``## <section>`` heading."""
    with open(_README, encoding="utf-8") as fh:
        text = fh.read()
    body = text.split(f"\n## {section}\n", 1)[1].split("\n## ", 1)[0]
    return re.search(r"```python\n(.*?)```", body, re.S).group(1)


def test_readme_library_example_runs_as_written():
    out = io.StringIO()
    with contextlib.redirect_stdout(out):
        exec(compile(_python_block("Library example"), "README.md", "exec"), {})
    # min M0 and K_observed, then Q_m's convergence, iterations and residual
    (min_member, K_observed), (converged, _, _) = map(str.split, out.getvalue().splitlines())
    assert min_member == "2" and float(K_observed) <= 1.0
    assert converged == "True"
