"""The README's python examples run, and the quick start prints what its
comments say."""

import contextlib
import io
import re
from pathlib import Path

README = Path(__file__).resolve().parents[1] / "README.md"


def test_readme_python_blocks():
    text = README.read_text(encoding="utf-8")
    blocks = re.findall(r"```python\n(.*?)```", text, re.S)
    assert blocks
    namespace: dict = {}
    printed = []
    for block in blocks:
        out = io.StringIO()
        with contextlib.redirect_stdout(out):
            exec(compile(block, str(README), "exec"), namespace)
        printed.append(out.getvalue().splitlines())
    expected = re.findall(r"^print\(.*\)\s+# (.*)$", blocks[0], re.M)
    assert printed[0] == expected
