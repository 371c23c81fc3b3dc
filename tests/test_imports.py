"""Every name a module of `akisub` or a test file imports is used in that file, and
`features`, the data layer, imports no module of the model layer. Only the one
writer, `cohort.write_text`, opens a text file for writing, and every text file
the package opens is opened as UTF-8."""

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


def text_io_faults(source: str, writer: str | None = None) -> list[str]:
    """`line N: ...` for each text file access in `source` the package forbids: a
    text-mode `open` or `Path.open` for writing, a `Path.write_text` or a `json.dump`
    anywhere but in function `writer`, and a text-mode open or `read_text` that does
    not name `encoding="utf-8"`."""
    tree = ast.parse(source)
    inside = {id(node) for stmt in ast.walk(tree)
              if isinstance(stmt, ast.FunctionDef) and stmt.name == writer
              for node in ast.walk(stmt)}
    faults = []
    for node in ast.walk(tree):
        if not isinstance(node, ast.Call):
            continue
        func, where = node.func, node.lineno
        method = func.attr if isinstance(func, ast.Attribute) else None
        keywords = {kw.arg: kw.value for kw in node.keywords}
        encoding = keywords.get("encoding")
        utf8 = isinstance(encoding, ast.Constant) and encoding.value == "utf-8"
        if method == "write_text" or method == "dump" and getattr(func.value, "id", "") == "json":
            if id(node) not in inside:
                faults.append((where, f"{method} writes a text file outside the writer"))
        elif method == "read_text" and not utf8:
            faults.append((where, "read_text without encoding='utf-8'"))
        elif method == "open" or isinstance(func, ast.Name) and func.id == "open":
            at = 0 if method else 1  # path.open(mode) or open(file, mode)
            mode = keywords.get("mode", node.args[at] if len(node.args) > at else None)
            mode = "r" if mode is None else getattr(mode, "value", None)
            if not isinstance(mode, str):
                faults.append((where, "open with a mode that is not a literal"))
            elif "b" in mode:
                continue
            elif set(mode) & set("wax+") and id(node) not in inside:
                faults.append((where, "text file opened for writing outside the writer"))
            elif not utf8:
                faults.append((where, "text file opened without encoding='utf-8'"))
    return [f"line {line}: {fault}" for line, fault in sorted(faults)]


@pytest.mark.parametrize("path", sorted(Path(akisub.__file__).parent.glob("*.py")),
                         ids=lambda p: p.name)
def test_text_files_go_through_the_one_writer_as_utf8(path):
    writer = "write_text" if path.stem == "cohort" else None
    assert text_io_faults(path.read_text(encoding="utf-8"), writer) == []


def test_text_io_checker_on_planted_source():
    source = ("import json\n"
              "def write_text(path, chunks):\n"
              "    with open(path, 'w', encoding='utf-8') as fh:\n"
              "        fh.writelines(chunks)\n"
              "def other(path, p, obj, fh, mode):\n"
              "    open(path, 'w'), p.open(mode='a', encoding='utf-8'), open(path, 'r+')\n"
              "    p.write_text('x', encoding='utf-8'), json.dump(obj, fh)\n"
              "    open(path), p.open('r', encoding='latin-1'), p.read_text()\n"
              "    open(path, mode)\n"
              "    open(path, encoding='utf-8'), p.read_text(encoding='utf-8')\n"
              "    open(path, 'rb'), p.open('wb'), p.read_bytes(), write_text(path, [])\n")
    writes = ["line 6: text file opened for writing outside the writer"] * 3 + \
        ["line 7: dump writes a text file outside the writer",
         "line 7: write_text writes a text file outside the writer"]
    reads = ["line 8: read_text without encoding='utf-8'"] + \
        ["line 8: text file opened without encoding='utf-8'"] * 2 + \
        ["line 9: open with a mode that is not a literal"]
    assert text_io_faults(source, "write_text") == writes + reads
    assert text_io_faults(source) == \
        ["line 3: text file opened for writing outside the writer"] + writes + reads
    assert text_io_faults("def write_text(path):\n    open(path, 'w')\n", "write_text") == \
        ["line 2: text file opened without encoding='utf-8'"]
