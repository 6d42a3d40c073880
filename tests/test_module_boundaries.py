"""Each module of the package keeps its internals: no module imports or
reads a sibling module's _-prefixed name. Importing a module whose own
name starts with _ (such as _config) is allowed."""

import ast
from pathlib import Path

import fpxplain

PACKAGE = Path(fpxplain.__file__).resolve().parent


def _private(name: str) -> bool:
    return name.startswith("_") and not name.startswith("__")


def private_reads(package: Path) -> list[str]:
    """Every `from .m import _name` and every read of `m._name`, where m
    is a sibling module bound by `from . import m`, in the package's
    modules, as 'module: m._name'."""
    found = []
    for path in sorted(package.glob("*.py")):
        bound = {}  # local name -> sibling module
        nodes = list(ast.walk(ast.parse(path.read_text(), str(path))))
        for node in nodes:
            if not isinstance(node, ast.ImportFrom):
                continue
            # m of `from .m import` or `from fpxplain.m import`; "" for the package
            if node.level == 1:
                module = node.module or ""
            elif node.module == "fpxplain" or (node.module or "").startswith("fpxplain."):
                module = node.module[len("fpxplain."):]
            else:
                continue
            for alias in node.names:
                if not module:
                    bound[alias.asname or alias.name] = alias.name
                elif _private(alias.name):
                    found.append(f"{path.stem}: {module}.{alias.name}")
        for node in nodes:
            if isinstance(node, ast.Attribute) and isinstance(node.value, ast.Name) \
                    and node.value.id in bound and _private(node.attr):
                found.append(f"{path.stem}: {bound[node.value.id]}.{node.attr}")
    return found


def test_no_module_reads_another_modules_private_names():
    assert private_reads(PACKAGE) == []


def test_the_guard_sees_each_form(tmp_path):
    (tmp_path / "a.py").write_text(
        "from . import b, _config\n"
        "from .b import _hidden, shown\n"
        "from fpxplain.b import _absolute\n"
        "def f():\n"
        "    from .b import _inner\n"
        "    return b._cache.cache_clear(), b.shown, b.__name__, _config.cap()\n")
    (tmp_path / "b.py").write_text("from fpxplain import a as alias\nalias._x\n")
    assert private_reads(tmp_path) == [
        "a: b._hidden", "a: b._absolute", "a: b._inner", "a: b._cache", "b: a._x"]
