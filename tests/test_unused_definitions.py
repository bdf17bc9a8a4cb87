"""Every function and class that a library module defines is named elsewhere.

No linter ships with the test environment, so this reads each module's
syntax tree for its definitions, nested ones and methods included, and
counts the whole-word occurrences of each name in the Python files of
src/idfilt, tests and perfbench, leaving out the lines of the definition
itself.  A name counted nowhere is dead code.  Dunder methods are left out,
since the language calls them.  A name in a string or a comment counts as a
use, so the check errs toward keeping code.
"""

import ast
import re
from collections import Counter
from pathlib import Path

import pytest

ROOT = Path(__file__).resolve().parent.parent
SRC = ROOT / "src" / "idfilt"
MODULES = sorted(SRC.glob("*.py"))
FILES = sorted({*SRC.rglob("*.py"), *(ROOT / "tests").rglob("*.py"),
                *(ROOT / "perfbench").rglob("*.py")})
WORD = re.compile(r"\w+")


def word_counts(text):
    return Counter(WORD.findall(text))


EVERYWHERE = sum((word_counts(p.read_text()) for p in FILES), Counter())


def definitions(tree):
    for node in ast.walk(tree):
        if isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef, ast.ClassDef)):
            if not (node.name.startswith("__") and node.name.endswith("__")):
                yield node


@pytest.mark.parametrize("path", MODULES, ids=lambda p: p.name)
def test_no_unused_definitions(path):
    text = path.read_text()
    lines = text.splitlines()
    unused = []
    for node in definitions(ast.parse(text, filename=str(path))):
        start = min([node.lineno] + [d.lineno for d in node.decorator_list])
        own = word_counts("\n".join(lines[start - 1:node.end_lineno]))
        if EVERYWHERE[node.name] == own[node.name]:
            unused.append(f"{node.name} (line {node.lineno})")
    assert not unused, f"{path.name} defines names used nowhere else: {unused}"
