"""Checks on the source of the package itself."""
import ast
import pathlib

SRC = pathlib.Path(__file__).resolve().parent.parent / "src" / "torbar"


def test_no_assert_statements():
    """Invariants raise StructuralError: `python -O` strips `assert`."""
    found = []
    for path in sorted(SRC.glob("*.py")):
        tree = ast.parse(path.read_text(), filename=str(path))
        found += [f"{path.name}:{node.lineno}" for node in ast.walk(tree)
                  if isinstance(node, ast.Assert)]
    assert not found, found
