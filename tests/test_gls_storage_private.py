"""Only gls reads how a basis is stored.

A GradedSubspace keeps its canonical basis as a Coords whose entries are
sorted by row, then column.  Other modules may hand that Coords on whole
(`.basis`, to stack it), but the storage can change only if none of them
reads its entries or makes a basis dense again.  So this reads each library
module's syntax tree, gls.py left out: no module may read an attribute
named `rows` (a Coords' row indices) or `dense` (a Coords made dense), nor
import or read the dense helper _matrix.  Other modules go through
GradedSubspace's methods and the Coords producers.
"""

import ast
from pathlib import Path

import pytest

SRC = Path(__file__).resolve().parent.parent / "src" / "idfilt"
MODULES = sorted(p for p in SRC.glob("*.py") if p.name != "gls.py")
DENSE_HELPERS = {"_matrix"}


def storage_reads(tree):
    for node in ast.walk(tree):
        if isinstance(node, ast.Attribute) and isinstance(node.ctx, ast.Load):
            if node.attr in ("rows", "dense") or node.attr in DENSE_HELPERS:
                yield f"line {node.lineno}: .{node.attr}"
        elif isinstance(node, (ast.Import, ast.ImportFrom)):
            for alias in node.names:
                if alias.name.rsplit(".", 1)[-1] in DENSE_HELPERS:
                    yield f"line {node.lineno}: import {alias.name}"


@pytest.mark.parametrize("path", MODULES, ids=lambda p: p.name)
def test_basis_storage_stays_in_gls(path):
    tree = ast.parse(path.read_text(), filename=str(path))
    found = list(storage_reads(tree))
    assert not found, f"{path.name} reads gls's basis storage: {found}"
