"""The core layer does not import the api layer.

``repro.api`` lowers queries to plans and hands them to
``repro.core.batch.QueryBatch``; the core consumes those plans by
attribute and never imports back.  The one exception is the
``PrismSystem`` façade in ``core/system.py``, whose query methods build
plans and run them through the api executor.
"""

from __future__ import annotations

import ast
import pathlib

import repro

CORE = pathlib.Path(repro.__file__).parent / "core"
ALLOWED = {"system.py"}


def api_imports(path: pathlib.Path) -> list[str]:
    """Every import of ``repro.api`` in ``path``, function-local included."""
    found = []
    for node in ast.walk(ast.parse(path.read_text(encoding="utf-8"))):
        if isinstance(node, ast.Import):
            names = [alias.name for alias in node.names]
        elif isinstance(node, ast.ImportFrom) and node.module:
            names = [node.module] + [f"{node.module}.{alias.name}"
                                     for alias in node.names]
        else:
            continue
        found += [f"line {node.lineno}: {name}" for name in names
                  if name == "repro.api" or name.startswith("repro.api.")]
    return found


def test_core_modules_do_not_import_api():
    offenders = {
        name: imports
        for path in sorted(CORE.rglob("*.py"))
        if (name := path.relative_to(CORE).as_posix()) not in ALLOWED
        and (imports := api_imports(path))
    }
    assert not offenders, f"core modules importing repro.api: {offenders}"

