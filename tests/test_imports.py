"""Every name a module of `akisub` or a test file imports is used in that file, and
`features`, the data layer, imports no module of the model layer."""

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


# the model layer, which builds on the data layer in `features`
MODEL_LAYER = {"autodiff", "nn", "memnet", "baselines", "crossval"}


def imported_modules(source: str) -> set[str]:
    """The `akisub` modules that `source`, a module of the package, imports, at
    module level or inside a function."""
    found = set()
    for node in ast.walk(ast.parse(source)):
        if isinstance(node, ast.Import):
            found |= {alias.name.split(".")[1] for alias in node.names
                      if alias.name.startswith("akisub.")}
        elif isinstance(node, ast.ImportFrom):
            module = node.module or ""
            if not node.level:
                if module.split(".")[0] != "akisub":
                    continue
                module = module[len("akisub."):]
            if module:
                found.add(module.split(".")[0])
            else:  # `from . import x` or `from akisub import x`
                found |= {alias.name for alias in node.names}
    return found


def test_features_imports_no_model_module():
    source = (Path(akisub.__file__).parent / "features.py").read_text()
    assert "cohort" in imported_modules(source)
    assert imported_modules(source) & MODEL_LAYER == set()


def test_imported_modules_on_planted_source():
    source = ("import json\nimport akisub.nn\nfrom . import autodiff as ad\n"
              "from .cohort import IcuStay\nfrom akisub import stats\n"
              "from akisub.errors import ParseError\nfrom numpy import linalg\n"
              "def f():\n    from .memnet import PreparedStay\n")
    assert imported_modules(source) == {"nn", "autodiff", "cohort", "stats", "errors",
                                        "memnet"}


def test_memnet_still_exports_prepared_stay():
    from akisub import features, memnet
    assert memnet.PreparedStay is features.PreparedStay
