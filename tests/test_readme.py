"""The README's python examples run, the quick start prints what its
comments say, and every private name it cites exists."""

import contextlib
import importlib
import inspect
import io
import pkgutil
import re
from pathlib import Path

import socpcq

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


def test_readme_private_names_exist():
    # A private name the README cites in backticks, `_name` or `_name(...)`,
    # is defined in some module of the package or on a public class.
    text = README.read_text(encoding="utf-8")
    cited = set(re.findall(r"`(_[A-Za-z]\w*)[`(]", text))
    assert cited
    owners = [
        importlib.import_module(f"socpcq.{info.name}")
        for info in pkgutil.iter_modules(socpcq.__path__)
    ]
    public = [getattr(socpcq, name) for name in socpcq.__all__]
    owners += [obj for obj in public if inspect.isclass(obj)]
    missing = sorted(n for n in cited if not any(hasattr(o, n) for o in owners))
    assert not missing
