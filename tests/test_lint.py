"""Static checks over the package source, using only the standard library.

Every module (except the package root, ``__main__`` and ``version``) declares
``__all__``, imports no name it never uses, and lists in ``__all__`` only
names it defines or imports.  No module holds a memo that can grow without
bound: every ``functools.lru_cache`` names an integer ``maxsize``, and
``functools.cache`` decorates only functions that take no arguments.  The
only runtime dependency is numpy: every module imports only the standard
library, numpy and the package itself, anywhere in its source, so nothing
the package runs loads scipy.  A module reaches
another's private names only through the pinned ``PRIVATE_ALLOWLIST``.  Only
the modules in ``TYPE_TEST_MODULES`` test a value with ``_is_int`` or
``_is_real``; every other argument check goes through ``_check_range`` and a
declared range.  Only ``storage._read_bytes`` reads a file and only
``storage._atomic_write_bytes`` writes one (``FILE_IO``).
"""
import ast
import sys
from pathlib import Path

import pytest

SRC = Path(__file__).resolve().parents[1] / "src" / "icefusion"
EXEMPT = {"__init__", "__main__", "version"}
MODULES = sorted(path.stem for path in SRC.glob("*.py") if path.stem not in EXEMPT)
ALL_MODULES = sorted(path.stem for path in SRC.glob("*.py"))
RUNTIME_PACKAGES = set(sys.stdlib_module_names) | {"numpy", SRC.name}
# Every private name one package module uses from another, as module.name.
PRIVATE_ALLOWLIST = {
    "errors._COUNT",
    "errors._RATE",
    "errors._SAMPLE_COUNT",
    "errors._SEED",
    "errors._check_range",
    "errors._is_int",
    "errors._is_real",
    "network._MIXING_ACTIVATIONS",
    "network._UPSAMPLE_MODES",
    "network._assemble",
    "ops._apply_keep",
    "ops._scale_shift",
    "storage._is_csv",
}
# The modules that may name errors._is_int or errors._is_real: their home, and
# storage's validators of JSON fields, which refuse with FormatError by field.
TYPE_TEST_MODULES = {"errors", "storage"}
TYPE_TESTS = {"_is_int", "_is_real"}
# Each call that reads or writes a file, by name, and the one function that may make it.
FILE_IO = {**dict.fromkeys(["read_bytes", "read_text", "open"], "storage._read_bytes"),
           **dict.fromkeys(["fdopen", "write_bytes", "write_text"], "storage._atomic_write_bytes")}


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


def foreign_imports(tree):
    """Lines importing a top-level package outside ``RUNTIME_PACKAGES``, anywhere in the module.

    Relative imports are the package's own.
    """
    found = []
    for node in ast.walk(tree):
        if isinstance(node, ast.Import):
            roots = [alias.name.split(".")[0] for alias in node.names]
        elif isinstance(node, ast.ImportFrom) and node.level == 0:
            roots = [node.module.split(".")[0]]
        else:
            continue
        found += [(node.lineno, root) for root in roots if root not in RUNTIME_PACKAGES]
    return [f"line {line}: {root}" for line, root in sorted(found)]


def memo_names(tree):
    """How the module spells functools' memos: {source text: "lru_cache" or "cache"}."""
    names = {}
    for node in ast.walk(tree):
        if isinstance(node, ast.Import):
            for alias in node.names:
                if alias.name == "functools":
                    module = alias.asname or alias.name
                    names.update({f"{module}.lru_cache": "lru_cache", f"{module}.cache": "cache"})
        elif isinstance(node, ast.ImportFrom) and node.module == "functools":
            names.update({a.asname or a.name: a.name for a in node.names
                          if a.name in ("lru_cache", "cache")})
    return names


def unbounded_memos(tree):
    """Lines that set up a memo with no integer size bound."""
    names = memo_names(tree)
    bounded, argument_free = set(), set()
    for node in ast.walk(tree):
        if isinstance(node, ast.Call) and names.get(ast.unparse(node.func)) == "lru_cache":
            sizes = [kw.value for kw in node.keywords if kw.arg == "maxsize"] + node.args[:1]
            if sizes and isinstance(sizes[0], ast.Constant) and type(sizes[0].value) is int:
                bounded.add(id(node.func))
        elif isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef)):
            a = node.args
            if not (a.posonlyargs or a.args or a.vararg or a.kwonlyargs or a.kwarg):
                argument_free.update(id(d) for d in node.decorator_list)
    unbounded = [
        node for node in ast.walk(tree)
        if isinstance(node, (ast.Name, ast.Attribute)) and ast.unparse(node) in names
        and id(node) not in (bounded if names[ast.unparse(node)] == "lru_cache"
                             else argument_free)
    ]
    return [f"line {node.lineno}: {ast.unparse(node)}"
            for node in sorted(unbounded, key=lambda node: node.lineno)]


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


@pytest.mark.parametrize("module", ALL_MODULES)
def test_module_memos_are_bounded(module):
    unbounded = unbounded_memos(parse(module))
    assert not unbounded, f"{module}.py sets up memos without a size bound: {unbounded}"


def test_unbounded_memos_are_caught():
    tree = ast.parse(
        "import functools\n"
        "from functools import cache, lru_cache as memo\n"
        "@functools.lru_cache(maxsize=8)\ndef a(x): pass\n"
        "@functools.cache\ndef b(): pass\n"
        "c = functools.lru_cache(maxsize=None)(a)\n"
        "@memo\ndef d(x): pass\n"
        "@memo(64)\ndef e(x): pass\n"
        "@cache\ndef f(x): pass\n"
        "g = functools.lru_cache(maxsize=size)(a)\n"
    )
    assert [line.split(":")[0] for line in unbounded_memos(tree)] == [
        "line 7", "line 8", "line 12", "line 14"]


@pytest.mark.parametrize("module", ALL_MODULES)
def test_module_imports_only_stdlib_numpy_and_scipy(module):
    foreign = foreign_imports(parse(module))
    assert not foreign, f"{module}.py imports packages outside the runtime dependencies: {foreign}"


def test_foreign_imports_are_caught():
    tree = ast.parse(
        "from __future__ import annotations\n"
        "import os.path, numpy as np\n"
        "from scipy.special import expit\n"
        "from . import ops\n"
        "from icefusion.errors import FormatError\n"
        "import pandas\n"
        "def f():\n    import matplotlib.pyplot as plt\n"
        "from sklearn import linear_model\n"
        "import json, yaml\n"
        "def g():\n    from scipy.ndimage import gaussian_filter\n"
        "if True:\n    import scipy\n"
        "class C:\n    import scipy.special\n"
    )
    assert foreign_imports(tree) == [
        "line 3: scipy", "line 6: pandas", "line 8: matplotlib", "line 9: sklearn",
        "line 10: yaml", "line 12: scipy", "line 14: scipy", "line 16: scipy"]


def is_private(name):
    return name.startswith("_") and not name.startswith("__")


def foreign_private_names(tree):
    """``module.name`` for each private name of another package module the module uses.

    Counts ``from .module import _name`` and ``module._name`` where ``module``
    came from ``from . import module``; the package is named relatively or in full.
    """
    def package_module(node):
        if node.level == 1 and node.module:
            return node.module
        if node.level == 0 and node.module and node.module.startswith(f"{SRC.name}."):
            return node.module.split(".", 1)[1]
        return None

    used, aliases = set(), {}
    for node in ast.walk(tree):
        if isinstance(node, ast.ImportFrom):
            module = package_module(node)
            if module:
                used.update(f"{module}.{a.name}" for a in node.names if is_private(a.name))
            elif node.level == 1 or node.module == SRC.name:
                aliases.update({a.asname or a.name: a.name for a in node.names})
    for node in ast.walk(tree):
        if (isinstance(node, ast.Attribute) and isinstance(node.value, ast.Name)
                and node.value.id in aliases and is_private(node.attr)):
            used.add(f"{aliases[node.value.id]}.{node.attr}")
    return used


@pytest.mark.parametrize("module", ALL_MODULES)
def test_module_uses_only_allowlisted_private_names(module):
    stray = sorted(foreign_private_names(parse(module)) - PRIVATE_ALLOWLIST)
    assert not stray, f"{module}.py uses private names of other modules: {stray}"


def test_private_allowlist_names_only_names_in_use():
    used = set().union(*(foreign_private_names(parse(module)) for module in ALL_MODULES))
    assert PRIVATE_ALLOWLIST <= used, sorted(PRIVATE_ALLOWLIST - used)


def test_foreign_private_names_are_caught():
    tree = ast.parse(
        "from . import ops, network as net\n"
        "from .errors import UsageError, _is_int, __version__\n"
        "from icefusion.storage import _atomic_write_bytes as write\n"
        "from icefusion import rng\n"
        "from numpy import _core\n"
        "def f(x):\n"
        "    return ops._mask_scale(x), net._value_count(x), rng._seed, ops.relu(x), x._y\n"
    )
    assert foreign_private_names(tree) == {
        "errors._is_int", "storage._atomic_write_bytes", "ops._mask_scale",
        "network._value_count", "rng._seed"}


def type_test_names(tree):
    """``_is_int``/``_is_real`` as the module names them: imported, called or read."""
    names = set()
    for node in ast.walk(tree):
        if isinstance(node, ast.ImportFrom):
            names.update(a.name for a in node.names)
        elif isinstance(node, ast.Name):
            names.add(node.id)
        elif isinstance(node, ast.Attribute):
            names.add(node.attr)
    return sorted(names & TYPE_TESTS)


@pytest.mark.parametrize("module", sorted(set(ALL_MODULES) - TYPE_TEST_MODULES))
def test_argument_ranges_are_checked_only_through_check_range(module):
    stray = type_test_names(parse(module))
    assert not stray, f"{module}.py checks a range by hand with {stray}; use errors._check_range"


def test_type_test_names_are_caught():
    tree = ast.parse(
        "from .errors import _is_int as whole, _check_range\n"
        "from . import errors\n"
        "def f(x):\n"
        "    return errors._is_real(x) or _is_int(x) or _check_range('x', x, SPEC)\n"
    )
    assert type_test_names(tree) == ["_is_int", "_is_real"]


def file_io_calls(tree):
    """``(function, name)`` for each ``FILE_IO`` call, by its innermost function (None at top level)."""
    found = []

    def visit(node, function):
        for child in ast.iter_child_nodes(node):
            if isinstance(child, (ast.FunctionDef, ast.AsyncFunctionDef)):
                visit(child, child.name)
                continue
            if isinstance(child, ast.Call):
                func = child.func
                name = func.attr if isinstance(func, ast.Attribute) else getattr(func, "id", None)
                if name in FILE_IO:
                    found.append((function, name))
            visit(child, function)

    visit(tree, None)
    return found


@pytest.mark.parametrize("module", ALL_MODULES)
def test_files_are_read_and_written_through_one_function_each(module):
    stray = [f"{function}: {name}" for function, name in file_io_calls(parse(module))
             if f"{module}.{function}" != FILE_IO[name]]
    assert not stray, f"{module}.py reads or writes files outside storage's two paths: {stray}"


def test_file_io_calls_are_caught():
    tree = ast.parse(
        "import os\n"
        "def _read_bytes(path):\n    return path.read_bytes()\n"
        "def f(path):\n    return open(path).read() + path.read_text()\n"
        "def g(fd, path):\n"
        "    def h():\n        path.write_text('x')\n"
        "    os.fdopen(fd, 'wb').write(path.with_suffix('.x').write_bytes(b''))\n"
        "data = path.open('rb')\n"
    )
    assert file_io_calls(tree) == [
        ("_read_bytes", "read_bytes"), ("f", "open"), ("f", "read_text"), ("h", "write_text"),
        ("g", "fdopen"), ("g", "write_bytes"), (None, "open")]
