"""The README's python examples run, the quick start prints what its
comments say, and every private name it or the package's docstrings and
comments cite exists."""

import contextlib
import importlib
import inspect
import io
import pkgutil
import re
import tokenize
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


def _docs_and_comments(path: Path) -> str:
    """The comments and string literals, docstrings among them, of a
    python source file."""
    with path.open("rb") as f:
        tokens = tokenize.tokenize(f.readline)
        kept = (tokenize.COMMENT, tokenize.STRING)
        return "\n".join(tok.string for tok in tokens if tok.type in kept)


def test_readme_private_names_exist():
    # A private name the README, or a docstring or comment of the package,
    # cites in backticks, `_name`, ``_name`` or `_name(...)`, is defined in
    # some module of the package or on a public class; one cited as
    # module._name or Class._name, for a module or public class of the
    # package, is defined there.
    modules = {
        info.name: importlib.import_module(f"socpcq.{info.name}")
        for info in pkgutil.iter_modules(socpcq.__path__)
    }
    public = {name: getattr(socpcq, name) for name in socpcq.__all__}
    scopes = {**modules, **{k: v for k, v in public.items() if inspect.isclass(v)}}
    owners = list(scopes.values())
    sources = {"README.md": README.read_text(encoding="utf-8")}
    for path in sorted(Path(socpcq.__file__).parent.glob("*.py")):
        sources[path.name] = _docs_and_comments(path)
    missing = []
    for source, text in sources.items():
        cited = set(re.findall(r"`(_[A-Za-z]\w*)[`(]", text))
        if source == "README.md":
            assert cited
        missing += [
            f"{source}: {name}"
            for name in cited
            if not any(hasattr(owner, name) for owner in owners)
        ]
        for scope, name in re.findall(r"\b([A-Za-z_]\w*)\.(_[A-Za-z]\w*)", text):
            if scope in scopes and not hasattr(scopes[scope], name):
                missing.append(f"{source}: {scope}.{name}")
    assert not sorted(missing)
