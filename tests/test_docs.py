"""The README's quick starts run and print what they say they print."""

import contextlib
import io
import re
from pathlib import Path

README = Path(__file__).resolve().parents[1] / "README.md"


def quick_start_snippets(heading):
    text = README.read_text(encoding="utf-8")
    section = text.split(f"## {heading}\n", 1)[1].split("\n## ", 1)[0]
    return re.findall(r"```python\n(.*?)```", section, re.DOTALL)


def test_solver_quick_start_prints_its_documented_output():
    out = io.StringIO()
    with contextlib.redirect_stdout(out):
        (snippet,) = quick_start_snippets("Quick start: the solver")
        exec(snippet, {})
    lines = out.getvalue().splitlines()
    value, converged = lines[0].split()
    assert f"{float(value):.6f}" == "0.596694"
    assert converged == "True"
    assert lines[-1] == "True ['sup_norm', 'kernel_spectral', 'plan_kl', 'kernel_frobenius']"


def test_graph_quick_start_runs_every_route():
    first, second = quick_start_snippets("Quick start: from graph to distance")
    namespace = {}
    out = io.StringIO()
    with contextlib.redirect_stdout(out):
        exec(first, namespace)
        exec(second, namespace)
    assert float(out.getvalue()) > 0.0
    n, m = namespace["n"], namespace["m"]
    assert namespace["cost"].shape == (n, m)
    assert namespace["kernel_block"].shape == (n, m)
    assert set(namespace["kernel_block"].toarray().ravel()) <= {0.0, 1.0}
