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


def _tree(module: str) -> ast.AST:
    path = SOURCES / module
    return ast.parse(path.read_text(), filename=str(path))


def _defining(name: str) -> set[str]:
    """Modules of the package that define a function ``name``."""
    return {path.name for path in SOURCES.glob("*.py")
            for node in ast.walk(_tree(path.name))
            if isinstance(node, ast.FunctionDef) and node.name == name}


@pytest.mark.parametrize("name", ["_to_origin", "apply_isometry"])
def test_only_the_paper_method_and_its_suite_move_points(name):
    """One normaliser: the paper's matrices, used by ``isometries`` and by
    the isometry-invariance suite (the package namespace re-exports the
    public ``apply_isometry``)."""
    assert "isometries.py" in _modules_naming(name)
    assert _modules_naming(name) - {"__init__.py"} <= {"isometries.py", "verification.py"}


@pytest.mark.parametrize("name", ["tangent_endpoints", "vertex_angle"])
def test_paper_frame_defined_only_in_isometries(name):
    assert _defining(name) == {"isometries.py"}


def test_triangles_import_nothing_from_isometries():
    """Triangles measure the caller's vertices and move none of them."""
    for node in ast.walk(_tree("triangles.py")):
        if isinstance(node, (ast.Import, ast.ImportFrom)):
            assert "isometries" not in ast.unparse(node)
    assert _modules_naming("_normalise") == set()


def _squares_of_names(node: ast.AST) -> int:
    """How many terms of a chain of + and - are ``a * a`` for one name a."""
    if isinstance(node, ast.BinOp) and isinstance(node.op, (ast.Add, ast.Sub)):
        return _squares_of_names(node.left) + _squares_of_names(node.right)
    return int(isinstance(node, ast.BinOp) and isinstance(node.op, ast.Mult)
               and isinstance(node.left, ast.Name) and isinstance(node.right, ast.Name)
               and node.left.id == node.right.id)


def test_metric_entries_defined_only_in_core():
    """One metric formula: ``core._metric_entries``, which ``_metric`` and
    the oracle's acceleration both call."""
    assert _defining("_metric_entries") == {"core.py"}
    assert "oracle.py" in _modules_naming("_metric_entries")


def test_oracle_writes_no_metric_and_solves_without_numpy_linalg():
    """Both metrics' entries are built on |p|^2 or Q = x^2 - y^2 - z^2, sums
    of three squares that only ``core`` writes; the acceleration solves its
    3x3 system by its own Cholesky factorisation."""
    tree = _tree("oracle.py")
    assert not any(_squares_of_names(node) >= 3 for node in ast.walk(tree))
    assert _squares_of_names(ast.parse("x * x - y * y - z * z").body[0].value) == 3
    assert not any(isinstance(node, ast.Attribute) and node.attr == "linalg"
                   for node in ast.walk(tree))
    assert not any(isinstance(node, (ast.Import, ast.ImportFrom))
                   and "linalg" in ast.unparse(node) for node in ast.walk(tree))
