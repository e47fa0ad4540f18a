"""The README's solver quick start runs and prints what it says it prints."""

import contextlib
import io
import re
from pathlib import Path

README = Path(__file__).resolve().parents[1] / "README.md"


def quick_start_snippet(heading):
    text = README.read_text(encoding="utf-8")
    section = text.split(f"## {heading}\n", 1)[1]
    return re.search(r"```python\n(.*?)```", section, re.DOTALL).group(1)


def test_solver_quick_start_prints_its_documented_output():
    out = io.StringIO()
    with contextlib.redirect_stdout(out):
        exec(quick_start_snippet("Quick start: the solver"), {})
    lines = out.getvalue().splitlines()
    value, converged = lines[0].split()
    assert f"{float(value):.6f}" == "0.596694"
    assert converged == "True"
    assert lines[-1] == "True ['sup_norm', 'kernel_spectral', 'plan_kl', 'kernel_frobenius']"
