"""The tests' exact ground truth shares no code with the package it checks.

``rational`` (the kernel) and ``exact_distance`` decide in ``Fraction``
from the standard library alone: an import of ``socpcq`` or numpy would let
a fault in the checked code reach its check.
"""

import ast
import pathlib
import sys

import pytest


def _imports(path):
    """The top-level names of the modules that the file imports; a relative
    import reads as '.'."""
    names = set()
    for node in ast.walk(ast.parse(path.read_text())):
        if isinstance(node, ast.Import):
            names.update(alias.name.split(".")[0] for alias in node.names)
        elif isinstance(node, ast.ImportFrom):
            names.add("." if node.level else node.module.split(".")[0])
    return names


@pytest.mark.parametrize(
    "module, kernel", [("rational", set()), ("exact_distance", {"rational"})]
)
def test_exact_ground_truth_imports_only_the_standard_library(module, kernel):
    path = pathlib.Path(__file__).with_name(f"{module}.py")
    assert _imports(path) - sys.stdlib_module_names == kernel
