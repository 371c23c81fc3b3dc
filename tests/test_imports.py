"""Every name a module of `akisub` or a test file imports is used in that file."""

import ast
from pathlib import Path

import pytest

import akisub

MODULES = sorted(Path(akisub.__file__).parent.glob("*.py")) \
    + sorted(Path(__file__).parent.glob("*.py"))


def unused_imports(source: str) -> list[str]:
    """Names bound by an `import` or `from ... import` in `source` and never
    referenced; `from __future__ import ...` binds nothing."""
    tree = ast.parse(source)
    bound = {}
    for node in ast.walk(tree):
        if isinstance(node, ast.Import):
            for alias in node.names:
                bound[alias.asname or alias.name.split(".")[0]] = node.lineno
        elif isinstance(node, ast.ImportFrom) and node.module != "__future__":
            for alias in node.names:
                bound[alias.asname or alias.name] = node.lineno
    used = {node.id for node in ast.walk(tree) if isinstance(node, ast.Name)}
    return [f"line {line}: {name}" for name, line in bound.items() if name not in used]


@pytest.mark.parametrize("path", MODULES, ids=lambda p: p.name)
def test_no_unused_imports(path):
    assert unused_imports(path.read_text()) == []


def test_checker_finds_unused_and_skips_future():
    source = ("from __future__ import annotations\n"
              "import json\nimport os.path\nfrom a import b as c, d\n"
              "print(os.path.sep, d)\n")
    assert unused_imports(source) == ["line 2: json", "line 4: c"]
