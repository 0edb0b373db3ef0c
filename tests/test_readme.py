"""The README quick start runs as written and prints what it says."""

import ast
import contextlib
import io
import re
from pathlib import Path

import pytest

README = Path(__file__).resolve().parents[1] / "README.md"


def test_quick_start_snippet():
    text = README.read_text(encoding="utf-8")
    section = text.split("## Quick start", 1)[1]
    code = re.search(r"```python\n(.*?)```", section, re.S).group(1)
    out = io.StringIO()
    with contextlib.redirect_stdout(out):
        exec(compile(code, str(README), "exec"), {})
    peak_line, purity_line = out.getvalue().splitlines()
    tau, value = ast.literal_eval(peak_line)
    assert tau == pytest.approx(2.85e-08, rel=1e-9)
    assert round(value, 2) == 16.49
    assert round(float(purity_line), 1) == 128.2
