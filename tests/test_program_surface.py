"""The package holds only what runs: every public module-level function and
class in ``src/rstparse`` is read by something other than its own
definition and the tests.

A name counts as used when another module of the package reads it as
``module.name`` (the module bound by an import of it) or imports it with
``from .module import name``, when its own module names it outside its
definition, or when ``perfbench/`` or the acceptance tests read it, as
``module.name``, by an import or by name (``tracer.wrap(module, "name",
...)``).  An export from ``rstparse/__init__.py`` is not a use: it only
passes the name on.

Every public method and property of those classes is read too: some code
in ``src/`` or ``perfbench/``, or the acceptance tests, reads its name as an
attribute (``x.name``, or ``tracer.wrap(cls, "name", ...)``) outside its own
definition.  Code that only the other tests call belongs in their
reference, ``tests/conftest.py``.

Every exception class the package defines derives from exactly one of
``core.DataError`` and ``core.ConfigError``, and ``cli.main`` catches those
two bases and OSError, and nothing else but argparse's SystemExit: a new
error type is reported with its exit code without an edit to ``main``.
"""

import ast
import importlib
from collections import Counter
from pathlib import Path

from rstparse import cli, core

ROOT = Path(__file__).resolve().parent.parent
PACKAGE = ROOT / "src" / "rstparse"
BENCH = ROOT / "perfbench"
ACCEPTANCE = ROOT / "tests" / "test_acceptance.py"


def parse(paths):
    return {p: ast.parse(p.read_text(encoding="utf-8"), str(p)) for p in paths}


def public_defs(tree):
    return [node for node in tree.body
            if isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef,
                                 ast.ClassDef))
            and not node.name.startswith("_")]


def names_read_from(tree, module):
    """The names of rstparse's ``module`` that ``tree`` reads."""
    bound, names = set(), set()
    for node in ast.walk(tree):
        if not isinstance(node, ast.ImportFrom):
            continue
        relative = node.level == 1
        if node.module == (module if relative else f"rstparse.{module}"):
            names.update(alias.name for alias in node.names)
        elif node.module == (None if relative else "rstparse"):
            bound.update(alias.asname or alias.name for alias in node.names
                         if alias.name == module)
    for node in ast.walk(tree):
        if isinstance(node, ast.Attribute):
            if isinstance(node.value, ast.Name) and node.value.id in bound:
                names.add(node.attr)
        elif isinstance(node, ast.Call) and len(node.args) >= 2:
            target, name = node.args[:2]
            if (isinstance(target, ast.Name) and target.id in bound
                    and isinstance(name, ast.Constant)
                    and isinstance(name.value, str)):
                names.add(name.value)
    return names


def names_read_outside(tree, definition):
    """Bare names read in ``tree`` outside the statement ``definition``."""
    return {node.id for stmt in tree.body if stmt is not definition
            for node in ast.walk(stmt) if isinstance(node, ast.Name)}


def unused_names():
    package = parse(sorted(PACKAGE.glob("*.py")))
    readers = parse(sorted(BENCH.glob("*.py")) + [ACCEPTANCE])
    readers.update((p, t) for p, t in package.items()
                   if p.name != "__init__.py")
    unused = []
    for path, tree in package.items():
        module = path.stem
        read = set()
        for other, other_tree in readers.items():
            if other != path:
                read |= names_read_from(other_tree, module)
        for node in public_defs(tree):
            if (node.name not in read
                    and node.name not in names_read_outside(tree, node)):
                unused.append(f"{module}.{node.name}")
    return unused


def attributes_read(node):
    """How often each name is read as an attribute under ``node``: loads of
    ``x.name`` and string second arguments, as in ``wrap(cls, "name")``."""
    read = Counter()
    for sub in ast.walk(node):
        if isinstance(sub, ast.Attribute) and isinstance(sub.ctx, ast.Load):
            read[sub.attr] += 1
        elif (isinstance(sub, ast.Call) and len(sub.args) >= 2
              and isinstance(sub.args[1], ast.Constant)
              and isinstance(sub.args[1].value, str)):
            read[sub.args[1].value] += 1
    return read


def unused_methods():
    package = parse(sorted(PACKAGE.glob("*.py")))
    readers = list(package.values()) + list(
        parse(sorted(BENCH.glob("*.py")) + [ACCEPTANCE]).values())
    read = sum((attributes_read(tree) for tree in readers), Counter())
    unused = []
    for path, tree in package.items():
        for cls in public_defs(tree):
            if not isinstance(cls, ast.ClassDef):
                continue
            for node in cls.body:
                if (isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef))
                        and not node.name.startswith("_")
                        and read[node.name] <= attributes_read(node)[node.name]):
                    unused.append(f"{path.stem}.{cls.name}.{node.name}")
    return unused


def test_every_public_definition_is_used_outside_the_tests():
    assert unused_names() == []


def test_every_public_method_is_used_outside_the_tests():
    assert unused_methods() == []


def test_a_numpy_function_of_the_same_name_is_not_a_use():
    tree = ast.parse("import numpy as np\nfrom . import ops\n"
                     "y = np.tanh(x)\nz = ops.relu(x)\n")
    assert names_read_from(tree, "ops") == {"relu"}


def exception_classes():
    """Each exception class defined in a module of the package, by name."""
    found = {}
    for path in sorted(PACKAGE.glob("*.py")):
        name = "rstparse" if path.stem == "__init__" else f"rstparse.{path.stem}"
        module = importlib.import_module(name)
        found.update((obj.__name__, obj) for obj in vars(module).values()
                     if isinstance(obj, type) and issubclass(obj, BaseException)
                     and obj.__module__ == name)
    return found


def test_every_exception_class_derives_from_one_base():
    bases = (core.DataError, core.ConfigError)
    classes = exception_classes()
    assert {"CorpusError", "ModelError", "NonFiniteScore",
            "TrainingDiverged"} <= set(classes)
    stray = [name for name, cls in classes.items() if cls not in bases
             and sum(issubclass(cls, base) for base in bases) != 1]
    assert stray == []


def handlers_of(function):
    """Each ``try`` in ``function``: whether its body calls ``parse_args``,
    and the sorted exception names its handlers catch."""
    tries = []
    for node in ast.walk(function):
        if not isinstance(node, ast.Try):
            continue
        calls = {sub.func.attr for stmt in node.body for sub in ast.walk(stmt)
                 if isinstance(sub, ast.Call)
                 and isinstance(sub.func, ast.Attribute)}
        names = []
        for handler in node.handlers:
            kind = handler.type
            names += [ast.unparse(t) if t is not None else "<bare except>"
                      for t in (kind.elts if isinstance(kind, ast.Tuple)
                                else [kind])]
        tries.append(("parse_args" in calls, sorted(names)))
    return tries


def test_main_catches_only_the_two_bases_and_oserror():
    tree = ast.parse((PACKAGE / "cli.py").read_text(encoding="utf-8"))
    main = next(node for node in tree.body
                if isinstance(node, ast.FunctionDef) and node.name == "main")
    assert handlers_of(main) == [
        (True, ["SystemExit"]),
        (False, ["ConfigError", "DataError", "OSError"])]
    assert (cli.ConfigError, cli.DataError) == (core.ConfigError,
                                                core.DataError)
