"""Every public function or class of ``src/nfwave`` has a caller outside its definition.

A caller is a name in code: an identifier, an attribute, an imported name, or a
dotted attribute path written as a string (nfbench's hooks name their targets
that way). It may sit in any module of ``src/nfwave`` other than the package's
re-export list ``__init__.py``, in ``scripts/``, in ``tests/test_acceptance.py``
or in ``nfbench/spans.py`` and ``nfbench/worker.py``. Other tests do not count:
a name only the tests call is an oracle and belongs in ``tests/``.
"""

import ast
import re

from conftest import ROOT

PACKAGE = ROOT / "src" / "nfwave"
CALLERS = [
    *(p for p in sorted(PACKAGE.glob("*.py")) if p.name != "__init__.py"),
    *sorted((ROOT / "scripts").glob("*.py")),
    ROOT / "tests" / "test_acceptance.py",
    ROOT / "nfbench" / "spans.py",
    ROOT / "nfbench" / "worker.py",
]


def public_definitions(path):
    """Names of the module-level functions and classes of ``path`` that do not start with ``_``."""
    tree = ast.parse(path.read_text(encoding="utf-8"))
    kinds = (ast.FunctionDef, ast.AsyncFunctionDef, ast.ClassDef)
    return [node.name for node in tree.body if isinstance(node, kinds) and not node.name.startswith("_")]


def named(path):
    """Every name the code of ``path`` uses; a definition's own name is not a use."""
    names = set()
    for node in ast.walk(ast.parse(path.read_text(encoding="utf-8"))):
        if isinstance(node, ast.Name):
            names.add(node.id)
        elif isinstance(node, ast.Attribute):
            names.add(node.attr)
        elif isinstance(node, ast.alias):
            names.add(node.name.rpartition(".")[2])
        elif isinstance(node, ast.Constant) and isinstance(node.value, str):
            if re.fullmatch(r"[A-Za-z_]\w*(\.[A-Za-z_]\w*)*", node.value):
                names.update(node.value.split("."))
    return names


def uncalled(modules, callers):
    """``module:name`` of each public definition of ``modules`` that no file of ``callers`` names."""
    used = set().union(*(named(path) for path in callers))
    return [f"{path.name}:{name}" for path in modules for name in public_definitions(path) if name not in used]


def test_every_public_name_has_a_caller():
    assert uncalled(sorted(PACKAGE.glob("*.py")), CALLERS) == []


def test_an_uncalled_public_function_is_found(tmp_path):
    module = tmp_path / "extra.py"
    module.write_text('def orphan():\n    """Called by nobody."""\n\n\ndef _private():\n    pass\n')
    caller = tmp_path / "caller.py"
    caller.write_text('HOOK = ("layer", "extra", "Thing.method")\n')
    assert uncalled([module], [caller]) == ["extra.py:orphan"]
    caller.write_text('HOOK = ("layer", "extra", "orphan")\n')
    assert uncalled([module], [caller]) == []
