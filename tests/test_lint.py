"""Static checks over the package source, using only the standard library.

Every module (except the package root, ``__main__`` and ``version``) declares
``__all__``, imports no name it never uses, and lists in ``__all__`` only
names it defines or imports.
"""
import ast
from pathlib import Path

import pytest

SRC = Path(__file__).resolve().parents[1] / "src" / "icefusion"
EXEMPT = {"__init__", "__main__", "version"}
MODULES = sorted(path.stem for path in SRC.glob("*.py") if path.stem not in EXEMPT)


def parse(module):
    return ast.parse((SRC / f"{module}.py").read_text(), filename=f"{module}.py")


def top_level(tree):
    """Module-level statements, including those nested in if/try/with blocks."""
    pending = list(tree.body)
    while pending:
        node = pending.pop()
        yield node
        if isinstance(node, (ast.If, ast.Try, ast.ExceptHandler, ast.With)):
            for field in ("body", "orelse", "handlers", "finalbody"):
                pending += getattr(node, field, [])


def declared_all(tree):
    """The module's ``__all__`` list, or None when it declares none."""
    for node in tree.body:
        if isinstance(node, ast.Assign) and [ast.unparse(t) for t in node.targets] == ["__all__"]:
            return ast.literal_eval(node.value)
    return None


def imported_names(tree):
    """Names bound at module level by imports, except ``from __future__``."""
    names = []
    for node in top_level(tree):
        if isinstance(node, ast.Import):
            names += [a.asname or a.name.split(".")[0] for a in node.names]
        elif isinstance(node, ast.ImportFrom) and node.module != "__future__":
            names += [a.asname or a.name for a in node.names]
    return names


def defined_names(tree):
    """Every name bound at module level: definitions, assignments and imports."""
    names = set(imported_names(tree))
    for node in top_level(tree):
        if isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef, ast.ClassDef)):
            names.add(node.name)
        elif isinstance(node, (ast.Assign, ast.AnnAssign)):
            targets = node.targets if isinstance(node, ast.Assign) else [node.target]
            for target in targets:
                names.update(n.id for n in ast.walk(target) if isinstance(n, ast.Name))
    return names


@pytest.mark.parametrize("module", MODULES)
def test_module_declares_all(module):
    assert declared_all(parse(module)) is not None, f"{module}.py has no __all__ list"


@pytest.mark.parametrize("module", MODULES)
def test_module_imports_only_names_it_uses(module):
    tree = parse(module)
    used = {n.id for n in ast.walk(tree) if isinstance(n, ast.Name)}
    used.update(declared_all(tree) or [])
    unused = [name for name in imported_names(tree) if name not in used]
    assert not unused, f"{module}.py imports names it never uses: {unused}"


@pytest.mark.parametrize("module", MODULES)
def test_module_all_names_are_defined(module):
    tree = parse(module)
    defined = defined_names(tree)
    undefined = [name for name in declared_all(tree) or [] if name not in defined]
    assert not undefined, f"{module}.py lists undefined names in __all__: {undefined}"
