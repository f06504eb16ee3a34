"""The paper-to-code map stays one-to-one for the field equations.

Each server equation — Eq. 3/7 (PSI and its verification stream), Eq.
18 (PSU masking) and Eq. 11 (Shamir aggregation) — and each owner
equation — the §3.1 Shamir combine (dealing and Lagrange) and the Eq. 4
/ 8–10 product (PSI finalisation and verification) — is written once in
numpy — the span builder whose docstring opens with the equation tag —
and once in C, the one exported ``repro_*_span`` kernel whose heading
comment cites it.  A second Python function claiming an equation, or a
second C span citing it, means the equation has been written out twice.
"""

from __future__ import annotations

import ast
import re
from pathlib import Path

import pytest

import repro

SRC = Path(repro.__file__).parent

#: tag -> (citation pattern, module, the numpy span builder that owns it)
EQUATIONS = {
    "Eq. 3/7": (r"Eq\. ?(?:3|7)\b", "entities/server.py", "numpy_psi_sweep"),
    "Eq. 18": (r"Eq\. ?18\b", "entities/server.py", "numpy_psu_sweep"),
    "Eq. 11": (r"Eq\. ?11\b", "entities/server.py", "numpy_agg_sweep"),
    "§3.1": (r"§3\.1\b", "crypto/shamir.py", "numpy_combine_span"),
    "Eq. 4/8–10": (r"Eq\. ?(?:4|8)\b", "entities/owner.py",
                   "numpy_mul_mod_span"),
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
    assert {"repro_psi_span", "repro_psu_span", "repro_agg_span",
            "repro_combine_span", "repro_mul_mod_span"} <= set(names)


@pytest.mark.parametrize("tag", EQUATIONS)
def test_one_numpy_span_builder_per_equation(tag):
    pattern, module, builder = EQUATIONS[tag]
    owners = [(path, name) for path, name, doc in _function_docstrings()
              if re.match(pattern, doc)]
    assert owners == [(module, builder)]
    assert next(doc for _, name, doc in _function_docstrings()
                if name == builder).startswith(tag)


@pytest.mark.parametrize("tag", EQUATIONS)
def test_one_c_span_kernel_per_equation(tag):
    pattern = EQUATIONS[tag][0]
    citing = [name for name, heading in _c_span_headings()
              if re.search(pattern, heading)]
    assert len(citing) == 1, citing
