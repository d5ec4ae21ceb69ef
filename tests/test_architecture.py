"""Module boundaries of the package, read from its source by an AST scan."""

import ast
from pathlib import Path

import pytest

SOURCES = Path(__file__).resolve().parent.parent / "src" / "prodgeo"


def _modules_naming(name: str) -> set[str]:
    """Modules of the package whose code names ``name``, as a variable,
    attribute or imported name."""
    found = set()
    for path in SOURCES.glob("*.py"):
        for node in ast.walk(ast.parse(path.read_text(), filename=str(path))):
            if ((isinstance(node, ast.Name) and node.id == name)
                    or (isinstance(node, ast.Attribute) and node.attr == name)
                    or (isinstance(node, ast.alias) and node.name == name)
                    or (isinstance(node, ast.FunctionDef) and node.name == name)):
                found.add(path.name)
    return found


@pytest.mark.parametrize("name, owners", [
    # the membership rule and the fibre norm live in core alone
    ("_scaled_norm", {"core.py"}),
    # the squared form remains only in the paper's matrices
    ("fibre_norm_sq", {"core.py", "isometries.py"}),
])
def test_name_used_only_by(name, owners):
    assert _modules_naming(name) == owners
