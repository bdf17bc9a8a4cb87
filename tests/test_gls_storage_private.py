"""Only gls reads how a basis is stored.

A GradedSubspace keeps its canonical basis as one dense array today; a
sparser storage can replace it only if no other module reads that array or
builds dense vectors of its own.  So this reads each library module's
syntax tree, gls.py left out: no module may read an attribute named `rows`
(the basis array, or a Coords' row indices), nor import or read the dense
helpers poly_to_vec, vec_to_poly and _matrix.  Other modules go through
GradedSubspace's methods and the Coords producers.
"""

import ast
from pathlib import Path

import pytest

SRC = Path(__file__).resolve().parent.parent / "src" / "idfilt"
MODULES = sorted(p for p in SRC.glob("*.py") if p.name != "gls.py")
DENSE_HELPERS = {"poly_to_vec", "vec_to_poly", "_matrix"}


def storage_reads(tree):
    for node in ast.walk(tree):
        if isinstance(node, ast.Attribute) and isinstance(node.ctx, ast.Load):
            if node.attr == "rows" or node.attr in DENSE_HELPERS:
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
