"""Every module-level import in the package is read, and goes down a layer;
every name a module exports is bound.

A deletion can leave an import that nothing reads behind, or an __all__
entry that names nothing; this finds both by walking each module's syntax
tree, with the standard library only. A name counts as read when the module
loads it anywhere, or lists it in __all__ (a re-export). `from __future__`
imports are directives, not names.

The modules form layers (LAYERS), and a module imports only from modules
of lower layers, so the package has no import cycle.
"""

from __future__ import annotations

import ast
import subprocess
import sys
from pathlib import Path

PACKAGE = Path(__file__).resolve().parent.parent / "src" / "streamqc"


def unused_imports(source: str) -> list[str]:
    """The names a module's top-level imports bind that the module never reads."""
    tree = ast.parse(source)
    bound: dict[str, int] = {}
    exported: set[str] = set()
    for node in tree.body:
        if isinstance(node, ast.Import):
            for alias in node.names:
                bound[alias.asname or alias.name.partition(".")[0]] = node.lineno
        elif isinstance(node, ast.ImportFrom) and node.module != "__future__":
            for alias in node.names:
                bound[alias.asname or alias.name] = node.lineno
        elif isinstance(node, ast.Assign) and any(
                isinstance(t, ast.Name) and t.id == "__all__" for t in node.targets):
            exported.update(ast.literal_eval(node.value))
    read = {node.id for node in ast.walk(tree)
            if isinstance(node, ast.Name) and isinstance(node.ctx, ast.Load)}
    return [f"{lineno}: {name}" for name, lineno in sorted(bound.items(), key=lambda kv: kv[1])
            if name not in read and name not in exported]


def test_the_check_finds_an_unread_import():
    source = ("from __future__ import annotations\nimport os, os.path as osp\n"
              "from json import dumps, loads as parse\n__all__ = ['dumps']\n"
              "def f(x: osp.PathLike):\n    return parse(x)\n")
    assert unused_imports(source) == ["2: os"]


def test_every_module_level_import_is_read():
    modules = sorted(PACKAGE.glob("*.py"))
    assert modules
    unused = {path.name: found for path in modules
              if (found := unused_imports(path.read_text(encoding="utf-8")))}
    assert unused == {}


def unbound_exports(source: str) -> list[str]:
    """The names a module's __all__ lists that its top level does not bind
    (by an import, a def, a class or an assignment), each of which breaks
    `from module import *`."""
    tree = ast.parse(source)
    bound: set[str] = set()
    exported: list[str] = []
    for node in tree.body:
        if isinstance(node, (ast.Import, ast.ImportFrom)):
            bound.update(alias.asname or alias.name.partition(".")[0] for alias in node.names)
        elif isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef, ast.ClassDef)):
            bound.add(node.name)
        elif isinstance(node, (ast.Assign, ast.AnnAssign, ast.AugAssign)):
            targets = node.targets if isinstance(node, ast.Assign) else [node.target]
            bound.update(n.id for t in targets for n in ast.walk(t) if isinstance(n, ast.Name))
            if any(isinstance(t, ast.Name) and t.id == "__all__" for t in targets):
                exported += ast.literal_eval(node.value)
    return [name for name in exported if name not in bound]


def test_the_export_check_finds_a_name_nothing_binds():
    source = ("import os.path\nfrom json import dumps as encode\nA, (B, C) = 1, (2, 3)\n"
              "D: int = 4\ndef f():\n    G = 1\nclass H:\n    pass\n"
              "__all__ = ['os', 'encode', 'A', 'B', 'C', 'D', 'f', 'H', 'dumps', 'G']\n")
    assert unbound_exports(source) == ["dumps", "G"]


def test_every_exported_name_is_bound():
    modules = sorted(PACKAGE.glob("*.py"))
    unbound = {path.name: found for path in modules
               if (found := unbound_exports(path.read_text(encoding="utf-8")))}
    assert unbound == {}


# The package's modules, lowest layer first. A module of one layer imports
# from the package only modules of the layers before it.
LAYERS = [{"model"}, {"expression", "sketches", "windowing", "connectors"}, {"measures"},
          {"monitor"}, {"config"}, {"cli", "__init__"}, {"__main__"}]


def package_imports(source: str) -> list[str]:
    """The package modules a module's top-level imports name, in order:
    `from . import m`, `from .m import x` and `from streamqc.m import x`."""
    found = []
    for node in ast.parse(source).body:
        if isinstance(node, ast.ImportFrom):
            module = node.module or ""
            if node.level == 1 and not module:
                found += [alias.name for alias in node.names]
            elif node.level == 1 or module.startswith("streamqc."):
                found.append(module.rpartition(".")[2] if node.level == 0 else module)
        elif isinstance(node, ast.Import):
            found += [alias.name.partition(".")[2] or "__init__" for alias in node.names
                      if alias.name.partition(".")[0] == "streamqc"]
    return found


def layering_problems(imports: dict[str, list[str]]) -> list[str]:
    """Each import of a module (by name) that does not go to a lower layer."""
    layer = {name: n for n, names in enumerate(LAYERS) for name in names}
    return [f"{module} imports {target}" for module, targets in sorted(imports.items())
            for target in targets if layer.get(target, len(LAYERS)) >= layer.get(module, -1)]


def test_the_layering_check_finds_an_import_that_does_not_go_down():
    source = ("from __future__ import annotations\nimport json\nimport streamqc.cli\n"
              "from . import expression\nfrom .model import Value\n"
              "from streamqc.monitor import SuiteState\n")
    assert package_imports(source) == ["cli", "expression", "model", "monitor"]
    imports = {"measures": package_imports(source), "model": [], "unknown": ["model"]}
    assert layering_problems(imports) == ["measures imports cli", "measures imports monitor",
                                          "unknown imports model"]


def test_every_package_import_goes_to_a_lower_layer():
    modules = {path.stem: package_imports(path.read_text(encoding="utf-8"))
               for path in sorted(PACKAGE.glob("*.py"))}
    assert set(modules) == set().union(*LAYERS)
    assert layering_problems(modules) == []


def private_names_read(source: str) -> list[str]:
    """Each `_`-prefixed name a module takes from another package module:
    by `from .m import _x` (or `from streamqc.m import _x`), or by reading
    `m._x` of a module m it imported with `from . import m`. Dunder names
    are not private."""
    def private(name: str) -> bool:
        return name.startswith("_") and not (name.startswith("__") and name.endswith("__"))

    tree = ast.parse(source)
    modules: set[str] = set()
    found = []
    for node in ast.walk(tree):
        if isinstance(node, ast.ImportFrom) and (
                node.level == 1 or (node.module or "").partition(".")[0] == "streamqc"):
            if node.module in (None, "streamqc"):
                modules.update(alias.asname or alias.name for alias in node.names)
            else:
                found += [(node.lineno, alias.name) for alias in node.names if private(alias.name)]
    found += [(node.lineno, f"{node.value.id}.{node.attr}") for node in ast.walk(tree)
              if isinstance(node, ast.Attribute) and isinstance(node.value, ast.Name)
              and node.value.id in modules and private(node.attr)]
    return [f"{lineno}: {name}" for lineno, name in sorted(found)]


def test_the_private_name_check_finds_each_form():
    source = ("from . import expression, model as m\nfrom .measures import _Bad, Param\n"
              "from streamqc.config import _text\nimport json\n"
              "def f(x):\n    from .cli import _main\n"
              "    return expression._compile(m.__name__, json._default_decoder, x._y)\n")
    assert private_names_read(source) == ["2: _Bad", "3: _text", "6: _main",
                                          "7: expression._compile"]


def test_no_module_reads_another_modules_private_name():
    found = {path.name: names for path in sorted(PACKAGE.glob("*.py"))
             if (names := private_names_read(path.read_text(encoding="utf-8")))}
    assert found == {}


# The standard-library modules a run that opens no socket and logs nothing
# does without; connectors imports socket and logging where it uses them.
UNLOADED = ("socket", "selectors", "logging")


def test_importing_the_run_path_loads_no_socket_or_logging():
    """A fresh interpreter that imports the package, its config, sources
    and engine has not loaded socket, selectors or logging."""
    code = ("import sys, streamqc, streamqc.config, streamqc.connectors, streamqc.monitor; "
            f"print(' '.join(m for m in {UNLOADED!r} if m in sys.modules))")
    child = subprocess.run([sys.executable, "-c", code], capture_output=True, text=True,
                           timeout=60, check=True)
    assert child.stdout.split() == []
