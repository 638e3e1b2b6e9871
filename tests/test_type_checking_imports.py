"""Every ``if TYPE_CHECKING:`` import in ``src/repro`` resolves.

Type-only imports never run, so a moved or renamed module behind one
goes unnoticed until a type checker or a reader follows it.  This test
parses each source file and imports what those blocks name.
"""

import ast
import importlib
import importlib.util
import pathlib

SRC = pathlib.Path(__file__).resolve().parents[1] / "src"


def _is_type_checking(test: ast.expr) -> bool:
    return (isinstance(test, ast.Name) and test.id == "TYPE_CHECKING"
            or isinstance(test, ast.Attribute)
            and test.attr == "TYPE_CHECKING")


def _type_checking_imports():
    """Yield ``(file, module, name)`` for each type-only import
    (``name`` is None for a plain ``import module``)."""
    for path in sorted((SRC / "repro").rglob("*.py")):
        package = ".".join(path.relative_to(SRC).parts[:-1])
        tree = ast.parse(path.read_text(), filename=str(path))
        for node in ast.walk(tree):
            if not (isinstance(node, ast.If)
                    and _is_type_checking(node.test)):
                continue
            for sub in (sub for stmt in node.body for sub in ast.walk(stmt)):
                if isinstance(sub, ast.ImportFrom):
                    module = importlib.util.resolve_name(
                        "." * sub.level + (sub.module or ""), package)
                    for alias in sub.names:
                        yield path, module, alias.name
                elif isinstance(sub, ast.Import):
                    for alias in sub.names:
                        yield path, alias.name, None


def _resolves(module: str, name: str | None) -> bool:
    try:
        imported = importlib.import_module(module)
    except ImportError:
        return False
    if name is None or hasattr(imported, name):
        return True
    try:                                     # a submodule not yet imported
        importlib.import_module(f"{module}.{name}")
    except ImportError:
        return False
    return True


def test_every_type_checking_import_resolves():
    found = list(_type_checking_imports())
    assert len(found) > 50, f"only {len(found)} type-only imports found"
    broken = [f"{path.relative_to(SRC)}: from {module} import {name}"
              if name else f"{path.relative_to(SRC)}: import {module}"
              for path, module, name in found
              if not _resolves(module, name)]
    assert not broken, "unresolvable TYPE_CHECKING imports:\n" + "\n".join(
        broken)
