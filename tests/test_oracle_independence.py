"""`tests/oracles.py` recomputes every value from first principles, so it
imports nothing from the package: an oracle that reused `Semigroup` would
agree with the code it is meant to check by construction."""

import ast
from pathlib import Path


def test_oracles_import_nothing_from_the_package():
    tree = ast.parse((Path(__file__).resolve().parent / "oracles.py").read_text())
    imported = []
    for node in ast.walk(tree):
        if isinstance(node, ast.Import):
            imported += [alias.name for alias in node.names]
        elif isinstance(node, ast.ImportFrom):
            imported.append("." * node.level + (node.module or ""))
    # the walk sees the standard-library imports the oracles do make
    assert "math" in imported, imported
    assert not [name for name in imported
                if name.startswith(".") or name.split(".")[0] in ("unicusp", "importlib")]
    # nor a dynamic import of the package
    names = {node.id for node in ast.walk(tree) if isinstance(node, ast.Name)}
    assert "__import__" not in names
    assert not [node.value for node in ast.walk(tree)
                if isinstance(node, ast.Constant) and isinstance(node.value, str)
                and "unicusp" in node.value]
