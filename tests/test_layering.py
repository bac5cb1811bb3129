"""The abstract layer stands alone: the modules that state the no-arbitrage
concepts on a vector lattice import nothing from the market side."""

import ast
from pathlib import Path

import pytest

import noarb

ABSTRACT = ("rationals", "errors", "lattice", "lp", "cones", "separation")


def noarb_modules_imported(module: str) -> set[str]:
    """The ``noarb`` modules named by the import statements of ``module``."""
    source = Path(noarb.__file__).parent / f"{module}.py"
    tree = ast.parse(source.read_text(encoding="utf-8"))
    named = set()
    for node in ast.walk(tree):
        if isinstance(node, ast.Import):
            named.update(alias.name for alias in node.names)
        elif isinstance(node, ast.ImportFrom):
            base = node.module
            if node.level:
                base = f"noarb.{base}" if base else "noarb"
            if base == "noarb":
                named.update(f"noarb.{alias.name}" for alias in node.names)
            else:
                named.add(base)
    return {name.split(".")[1] for name in named if name.startswith("noarb.")}


@pytest.mark.parametrize("module", ABSTRACT)
def test_abstract_module_imports_only_the_abstract_layer(module):
    assert noarb_modules_imported(module) <= set(ABSTRACT)


def test_the_import_reader_names_each_imported_module():
    assert noarb_modules_imported("separation") == {
        "lp", "cones", "errors", "lattice", "rationals"}
    assert noarb_modules_imported("concepts") == {"errors", "market", "separation"}


def test_separation_sums_integers():
    """``separation``'s checks sum the cone's and the LP outcome's integers,
    so it takes no ``rationals.dot``."""
    source = Path(noarb.__file__).parent / "separation.py"
    tree = ast.parse(source.read_text(encoding="utf-8"))
    names = {alias.name for node in ast.walk(tree) if isinstance(node, ast.ImportFrom)
             and node.module == "rationals" for alias in node.names}
    assert names and "dot" not in names
