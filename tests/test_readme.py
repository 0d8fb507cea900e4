"""README.md's quick start runs as written."""

import contextlib
import io
import re
from pathlib import Path

README = Path(__file__).resolve().parent.parent / "README.md"


def test_quick_start_runs_and_sieves_the_mixture():
    """The python block under "## Quick start" runs, and its sieve loop
    prints the mixture's labels II, XI and ZZ in that order."""
    section = README.read_text().split("\n## Quick start\n", 1)[1].split("\n## ", 1)[0]
    code, = re.findall(r"^```python\n(.*?)^```", section, flags=re.M | re.S)
    out = io.StringIO()
    with contextlib.redirect_stdout(out):
        exec(compile(code, str(README), "exec"), {})
    lines = out.getvalue().splitlines()
    assert [line.split()[0] for line in lines[-3:]] == ["II", "XI", "ZZ"]
