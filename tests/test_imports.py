"""No module under ``src/repro`` imports a name it never uses.

An unused import costs start-up time on every command that loads the
module and misleads a reader about what the module depends on.  The
check is syntactic: an imported name counts as used when it appears as
a ``Name`` node anywhere in the module, or inside a string annotation
(``"OrderedDict[str, dict]"``).  ``__init__.py`` files are exempt,
because their imports are the package's re-exports, and so are
``from __future__`` imports.
"""

import ast
import os
from typing import Iterator, List, Set, Tuple

import repro

SRC = os.path.dirname(repro.__file__)


def _modules() -> List[str]:
    return sorted(
        os.path.join(dirpath, name)
        for dirpath, _, names in os.walk(SRC)
        for name in names
        if name.endswith(".py") and name != "__init__.py"
    )


def _imported(tree: ast.AST) -> Iterator[Tuple[int, str]]:
    """``(line, bound name)`` for every name an import statement binds."""
    for node in ast.walk(tree):
        if isinstance(node, ast.Import):
            for alias in node.names:
                yield node.lineno, alias.asname or alias.name.split(".")[0]
        elif isinstance(node, ast.ImportFrom) and node.module != "__future__":
            for alias in node.names:
                if alias.name != "*":
                    yield node.lineno, alias.asname or alias.name


def _annotations(tree: ast.AST) -> Iterator[ast.AST]:
    for node in ast.walk(tree):
        if isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef)):
            if node.returns is not None:
                yield node.returns
        elif isinstance(node, ast.arg) and node.annotation is not None:
            yield node.annotation
        elif isinstance(node, ast.AnnAssign):
            yield node.annotation


def _used(tree: ast.AST) -> Set[str]:
    used = {node.id for node in ast.walk(tree) if isinstance(node, ast.Name)}
    for annotation in _annotations(tree):
        for node in ast.walk(annotation):
            if isinstance(node, ast.Constant) and isinstance(node.value, str):
                try:
                    parsed = ast.parse(node.value, mode="eval")
                except SyntaxError:
                    continue
                used |= {
                    name.id
                    for name in ast.walk(parsed)
                    if isinstance(name, ast.Name)
                }
    return used


def unused_imports(path: str) -> List[Tuple[int, str]]:
    """``(line, name)`` for each name ``path`` imports and never uses."""
    with open(path, encoding="utf-8") as handle:
        tree = ast.parse(handle.read(), filename=path)
    used = _used(tree)
    return [(line, name) for line, name in _imported(tree) if name not in used]


def test_no_module_imports_a_name_it_never_uses():
    found = [
        f"{os.path.relpath(path, SRC)}:{line}: {name}"
        for path in _modules()
        for line, name in unused_imports(path)
    ]
    assert found == [], f"{len(found)} unused import(s):\n" + "\n".join(found)


def test_the_scan_sees_names_and_string_annotations(tmp_path):
    module = tmp_path / "sample.py"
    module.write_text(
        "from __future__ import annotations\n"
        "import os.path\n"
        "from typing import Dict, List, Optional\n"
        "from collections import OrderedDict as OD\n"
        "def f(x: 'Optional[OD]') -> None:\n"
        "    return os.path.join(x)\n"
    )
    assert unused_imports(str(module)) == [(3, "Dict"), (3, "List")]
