"""Every top-level function and class of `akisub` is referenced by a module of
`akisub` or by a file of the benchmark under `bench/`; code that only tests call
belongs in `tests/oracles.py`, and each oracle there is used by a test module or
by another oracle. Every run-config setting is read by the program, no parameter
default restates one, and every default that is left has a caller that sets it."""

import ast
import dataclasses
import typing
from pathlib import Path

import akisub
from akisub.stages import RunConfig

SRC = Path(akisub.__file__).parent
BENCH = SRC.parents[1] / "bench"
TESTS = Path(__file__).parent
DEFINITIONS = (ast.FunctionDef, ast.AsyncFunctionDef, ast.ClassDef)
# production code that only the tracer's TARGETS reference; this list may only shrink
TRACER_ONLY = {"nn.lstm_cell", "features.impute_and_scale", "features.write_stay_tensors"}


def references(tree: ast.Module, own: str | None, package) -> set[tuple[str, str]]:
    """(module, name) pairs of `package` that `tree` references: names imported
    from a package module, `alias.attr` where `alias` is a package module, and,
    when `tree` is package module `own`, its own top-level names used outside
    their own definition."""
    aliases, found = {}, set()
    for node in ast.walk(tree):
        if isinstance(node, ast.ImportFrom):
            module = node.module or ""
            if not node.level:  # absolute: only `akisub` and its modules count
                if module.split(".")[0] != "akisub":
                    continue
                module = module[len("akisub."):]
            for alias in node.names:
                if module:
                    found.add((module, alias.name))
                else:  # `from . import x` or `from akisub import x`
                    aliases[alias.asname or alias.name] = alias.name
    for node in ast.walk(tree):
        if isinstance(node, ast.Attribute) and isinstance(node.value, ast.Name) \
                and aliases.get(node.value.id) in package:
            found.add((aliases[node.value.id], node.attr))
    if own is not None:
        for stmt in tree.body:
            defined = stmt.name if isinstance(stmt, DEFINITIONS) else None
            found |= {(own, node.id) for node in ast.walk(stmt)
                      if isinstance(node, ast.Name) and node.id != defined}
    return found


def unreferenced(package: dict[str, str], others: list[str], targets) -> list[str]:
    """`module.name` of each top-level function or class of `package` (module name
    to source) that no package module and no source in `others` references;
    `targets` holds (module, attribute path) pairs that count as references."""
    trees = {name: ast.parse(source) for name, source in package.items()}
    defined = {(name, stmt.name) for name, tree in trees.items()
               for stmt in tree.body if isinstance(stmt, DEFINITIONS)}
    used = {(module, path.split(".")[0]) for module, path in targets}
    for name, tree in trees.items():
        used |= references(tree, name, package)
    for source in others:
        used |= references(ast.parse(source), None, package)
    return sorted(f"{module}.{name}" for module, name in defined - used)


def tracer_targets(source: str) -> list[tuple[str, str]]:
    """(module, attribute path) of each entry of the tracer's TARGETS literal."""
    for stmt in ast.parse(source).body:
        if isinstance(stmt, ast.Assign) and [t.id for t in stmt.targets] == ["TARGETS"]:
            return [entry[:2] for entry in ast.literal_eval(stmt.value)]
    raise AssertionError("no TARGETS literal in the tracer")


def test_every_definition_is_referenced():
    package = {path.stem: path.read_text() for path in sorted(SRC.glob("*.py"))}
    others = [path.read_text() for path in sorted(BENCH.rglob("*.py"))]
    targets = tracer_targets((BENCH / "tracer.py").read_text())
    assert targets and unreferenced(package, others, targets) == []
    assert set(unreferenced(package, others, [])) == TRACER_ONLY


def test_checker_on_planted_source():
    package = {
        "a": ("def used(): pass\n"
              "def by_alias(): pass\n"
              "def traced(): pass\n"
              "def only_itself(): return only_itself()\n"
              "class Inner: pass\n"
              "def outer(x: Inner): return used\n"
              "def dead(): pass\n"),
        "b": ("from . import a as x\n"
              "from .a import outer\n"
              "def run(): return x.by_alias(), outer\n"),
    }
    others = ["from akisub import b\nimport akisub\nb.run()\nfrom numpy import dead\n"]
    assert unreferenced(package, others, [("a", "traced.attr")]) == \
        ["a.dead", "a.only_itself"]
    assert unreferenced(package, [], [("a", "traced")]) == ["a.dead", "a.only_itself", "b.run"]


def internal_only(package: dict[str, str], module: str, others: list[str]) -> list[str]:
    """Each public top-level function or class of package module `module` that no
    other package module and no source in `others` references."""
    defined = {stmt.name for stmt in ast.parse(package[module]).body
               if isinstance(stmt, DEFINITIONS) and not stmt.name.startswith("_")}
    used = set()
    for name, source in package.items():
        if name != module:
            used |= references(ast.parse(source), name, package)
    for source in others:
        used |= references(ast.parse(source), None, package)
    return sorted(defined - {name for owner, name in used if owner == module})


def test_every_autodiff_primitive_has_a_caller_outside_autodiff():
    """An op that only other ops call is a step of a primitive: it belongs inside it."""
    package = {path.stem: path.read_text() for path in sorted(SRC.glob("*.py"))}
    others = [path.read_text() for path in sorted(BENCH.rglob("*.py"))]
    assert internal_only(package, "autodiff", others) == []


def test_internal_only_checker_on_planted_source():
    package = {
        "a": ("def used(): pass\n"
              "def by_bench(): pass\n"
              "def step(): pass\n"
              "def _private(): pass\n"
              "class Node: pass\n"
              "def composed(): return step(), _private(), Node\n"),
        "b": "from .a import used, composed\n",
    }
    assert internal_only(package, "a", ["from akisub import a\na.by_bench()\n"]) == \
        ["Node", "step"]


def unused_oracles(oracles: str, tests: list[str]) -> list[str]:
    """Each top-level function or class of the oracle module source `oracles` that
    no other oracle uses and no source in `tests` imports from `oracles`."""
    tree = ast.parse(oracles)
    defined = {stmt.name for stmt in tree.body if isinstance(stmt, DEFINITIONS)}
    used = {name for module, name in references(tree, "oracles", {"oracles": oracles})
            if module == "oracles"}
    for source in tests:
        used |= {alias.name for node in ast.walk(ast.parse(source))
                 if isinstance(node, ast.ImportFrom) and node.module == "oracles"
                 for alias in node.names}
    return sorted(defined - used)


def test_every_oracle_is_used():
    tests = [path.read_text() for path in sorted(TESTS.glob("*.py"))
             if path.name != "oracles.py"]
    assert unused_oracles((TESTS / "oracles.py").read_text(), tests) == []


def test_oracle_checker_on_planted_source():
    oracles = ("def imported(): pass\n"
               "def helper(): pass\n"
               "def uses_helper(): return helper()\n"
               "def only_itself(): return only_itself()\n"
               "def dead(): pass\n")
    tests = ["from oracles import imported\n",
             "def test():\n    from oracles import uses_helper\n",
             "from akisub.a import dead\n"]
    assert unused_oracles(oracles, tests) == ["dead", "only_itself"]


def unread_fields(package: dict[str, str], classes: dict[tuple[str, str], list[str]]) -> list[str]:
    """`Class.field` of each field listed under (module, class) in `classes` that no
    module of `package` (module name to source) reads as an attribute outside the
    class's own body."""
    trees = {name: ast.parse(source) for name, source in package.items()}
    unread = []
    for (module, cls), fields in classes.items():
        own = next(stmt for stmt in trees[module].body
                   if isinstance(stmt, ast.ClassDef) and stmt.name == cls)
        inside = {id(node) for node in ast.walk(own)}
        read = {node.attr for tree in trees.values() for node in ast.walk(tree)
                if isinstance(node, ast.Attribute) and isinstance(node.ctx, ast.Load)
                and id(node) not in inside}
        unread += [f"{cls}.{name}" for name in fields if name not in read]
    return sorted(unread)


def test_every_config_setting_is_read():
    """A setting that no code reads changes nothing: it belongs out of the config."""
    sections = [hint for hint in typing.get_type_hints(RunConfig).values()
                if dataclasses.is_dataclass(hint)]
    classes = {(cls.__module__.rsplit(".", 1)[-1], cls.__name__):
               [f.name for f in dataclasses.fields(cls)] for cls in (RunConfig, *sections)}
    assert len(sections) == 4
    package = {path.stem: path.read_text() for path in sorted(SRC.glob("*.py"))}
    assert unread_fields(package, classes) == []


def test_config_checker_on_planted_source():
    package = {
        "a": ("class C:\n"
              "    used: int = 0\n"
              "    self_only: int = 0\n"
              "    stored: int = 0\n"
              "    def check(self): return self.self_only\n"),
        "b": "def f(c):\n    c.stored = 1\n    return c.used\n",
    }
    assert unread_fields(package, {("a", "C"): ["used", "self_only", "stored"]}) == \
        ["C.self_only", "C.stored"]


def parameter_defaults(package: dict[str, str]) -> list[tuple[str, str, str, int | None]]:
    """(module, callee, parameter, position) of each parameter default of a function
    or method of `package` (module name to source). `callee` is the name a call
    uses: the class for `__init__`, else the function's own name. `position` is the
    index of the positional argument that sets the parameter (`self` not counted),
    None for a keyword-only one."""
    found = []
    for module, source in package.items():
        tree = ast.parse(source)
        methods = {id(stmt): cls.name for cls in ast.walk(tree)
                   if isinstance(cls, ast.ClassDef) for stmt in cls.body}
        for node in ast.walk(tree):
            if not isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef)):
                continue
            owner = methods.get(id(node))
            callee = owner if node.name == "__init__" else node.name
            args = node.args.posonlyargs + node.args.args
            skip = 1 if owner is not None else 0
            first = len(args) - len(node.args.defaults)
            found += [(module, callee, arg.arg, i - skip)
                      for i, arg in enumerate(args) if i >= first]
            found += [(module, callee, arg.arg, None)
                      for arg, default in zip(node.args.kwonlyargs, node.args.kw_defaults)
                      if default is not None]
    return sorted(found, key=lambda d: d[:3])


def uncalled_defaults(package: dict[str, str], others: list[str],
                      exempt: set[str] = frozenset()) -> list[str]:
    """`module.callee(parameter)` of each parameter default of `package` that no call
    in a package module or in a source of `others` passes, by keyword or by
    position, to a callee of that name; a call with `*args` or `**kwargs` passes
    every parameter. `exempt` holds `module.callee` names left out."""
    calls = [node for source in [*package.values(), *others]
             for node in ast.walk(ast.parse(source)) if isinstance(node, ast.Call)]

    def passes(call, callee, parameter, position):
        func = call.func
        name = func.id if isinstance(func, ast.Name) else getattr(func, "attr", None)
        return name == callee and (
            any(kw.arg in (parameter, None) for kw in call.keywords)
            or any(isinstance(arg, ast.Starred) for arg in call.args)
            or (position is not None and len(call.args) > position))

    return [f"{module}.{callee}({parameter})"
            for module, callee, parameter, position in parameter_defaults(package)
            if f"{module}.{callee}" not in exempt
            and not any(passes(call, callee, parameter, position) for call in calls)]


def run_config_fields() -> set[str]:
    """Names of the fields of RunConfig and of its sections."""
    sections = [hint for hint in typing.get_type_hints(RunConfig).values()
                if dataclasses.is_dataclass(hint)]
    return {f.name for cls in (RunConfig, *sections) for f in dataclasses.fields(cls)}


def test_no_default_restates_a_config_setting():
    """A default on a parameter named after a setting is a second declaration of it:
    the config's value is the one a run uses, so its callers pass it."""
    package = {path.stem: path.read_text() for path in sorted(SRC.glob("*.py"))}
    fields = run_config_fields()
    assert {"seed", "perplexity", "max_note_len", "grid", "inner_folds"} <= fields
    assert [f"{module}.{callee}({parameter})"
            for module, callee, parameter, _ in parameter_defaults(package)
            if parameter in fields] == []


def test_every_default_is_passed_by_some_caller():
    """A default that no program call overrides is a constant in disguise; only the
    console-script entry point `cli.main` keeps one for its callers outside."""
    package = {path.stem: path.read_text() for path in sorted(SRC.glob("*.py"))}
    others = [path.read_text() for path in sorted(BENCH.rglob("*.py"))]
    assert uncalled_defaults(package, others, exempt={"cli.main"}) == []


def test_default_checkers_on_planted_source():
    package = {
        "a": ("def f(x, k=1, *, flag=False): pass\n"
              "def g(x, tol=0.4): pass\n"
              "def h(x, seed=0): pass\n"
              "class C:\n"
              "    def __init__(self, lr, eps=1e-8): pass\n"
              "    def step(self, n=1): pass\n"),
        "b": ("from .a import C, f, h\n"
              "def run(c, args):\n"
              "    f(1, 2)\n"
              "    C(0.1).step(3)\n"
              "    return h(*args), f(0, flag=True)\n"),
    }
    assert parameter_defaults(package) == [
        ("a", "C", "eps", 1), ("a", "f", "flag", None), ("a", "f", "k", 1),
        ("a", "g", "tol", 1), ("a", "h", "seed", 1), ("a", "step", "n", 0)]
    assert uncalled_defaults(package, []) == ["a.C(eps)", "a.g(tol)"]
    assert uncalled_defaults(package, ["C(0.1, 1e-7)\n"], exempt={"a.g"}) == []
