"""The paper-to-code map stays one-to-one for the server equations.

Each of Eq. 3/7 (PSI and its verification stream), Eq. 18 (PSU
masking) and Eq. 11 (Shamir aggregation) is written once in numpy — the
span builder whose docstring opens with the equation tag — and once in
C, the one exported ``repro_*_span`` kernel whose heading comment cites
it.  A second Python function claiming an equation, or a second C span
citing it, means the equation has been written out twice.
"""

from __future__ import annotations

import ast
import re
from pathlib import Path

import pytest

import repro

SRC = Path(repro.__file__).parent

#: tag -> (citation pattern, the numpy span builder that owns the tag)
EQUATIONS = {
    "Eq. 3/7": (r"Eq\. ?(?:3|7)\b", "numpy_psi_sweep"),
    "Eq. 18": (r"Eq\. ?18\b", "numpy_psu_sweep"),
    "Eq. 11": (r"Eq\. ?11\b", "numpy_agg_sweep"),
}


def _function_docstrings():
    for path in sorted(SRC.rglob("*.py")):
        tree = ast.parse(path.read_text(encoding="utf-8"))
        for node in ast.walk(tree):
            if isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef)):
                doc = ast.get_docstring(node)
                if doc:
                    yield path.relative_to(SRC).as_posix(), node.name, doc


def _c_span_headings():
    """(kernel name, heading comment) of every exported span kernel
    (a span returns nothing, or an int status)."""
    text = (SRC / "kernels" / "native.c").read_text(encoding="utf-8")
    pattern = r"/\*((?:(?!\*/).)*)\*/\s*(?:void|int)\s+(repro_\w+_span)\s*\("
    return [(m.group(2), m.group(1))
            for m in re.finditer(pattern, text, re.S)]


def test_every_exported_span_kernel_has_a_heading():
    names = [name for name, _ in _c_span_headings()]
    assert {"repro_psi_span", "repro_psu_span", "repro_agg_span"} <= set(names)


@pytest.mark.parametrize("tag", EQUATIONS)
def test_one_numpy_span_builder_per_equation(tag):
    pattern, builder = EQUATIONS[tag]
    owners = [(path, name) for path, name, doc in _function_docstrings()
              if re.match(pattern, doc)]
    assert owners == [("entities/server.py", builder)]
    assert next(doc for _, name, doc in _function_docstrings()
                if name == builder).startswith(tag)


@pytest.mark.parametrize("tag", EQUATIONS)
def test_one_c_span_kernel_per_equation(tag):
    pattern, _ = EQUATIONS[tag]
    citing = [name for name, heading in _c_span_headings()
              if re.search(pattern, heading)]
    assert len(citing) == 1, citing
