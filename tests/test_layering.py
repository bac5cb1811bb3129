"""The abstract layer stands alone: the modules that state the no-arbitrage
concepts on a vector lattice import nothing from the market side."""

import ast
from pathlib import Path

import pytest

import noarb

ABSTRACT = ("rationals", "errors", "lattice", "lp", "cones", "separation")


def _tree(module: str) -> ast.Module:
    source = Path(noarb.__file__).parent / f"{module}.py"
    return ast.parse(source.read_text(encoding="utf-8"))


def noarb_modules_imported(module: str) -> set[str]:
    """The ``noarb`` modules named by the import statements of ``module``."""
    named = set()
    for node in ast.walk(_tree(module)):
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


def _defined(tree: ast.Module) -> set[str]:
    return {node.name for node in ast.walk(tree) if isinstance(node, ast.FunctionDef)}


def test_no_module_defines_or_imports_a_dot():
    """Every sum of rational products is one integer sum over one
    denominator, written where it is read: no module has a ``dot`` of its
    own or takes one from another."""
    modules = sorted(path.stem for path in Path(noarb.__file__).parent.glob("*.py"))
    assert "rationals" in modules
    for module in modules:
        tree = _tree(module)
        imported = {alias.name for node in ast.walk(tree)
                    if isinstance(node, (ast.Import, ast.ImportFrom)) for alias in node.names}
        assert not (_defined(tree) | imported) & {"dot", "_dot"}, module


def test_separation_sums_integers():
    """``separation`` checks its certificates with the integer cone checks
    of ``cones`` and defines none of its own: it imports ``capped`` and
    ``covers`` from ``cones``."""
    tree = _tree("separation")
    from_cones = {alias.name for node in ast.walk(tree) if isinstance(node, ast.ImportFrom)
                  and node.module == "cones" for alias in node.names}
    assert {"capped", "covers"} <= from_cones
    assert not _defined(tree) & {"capped", "covers", "_capped", "_covers", "_dominates"}
