"""The development tools stay in step with the code they name."""

import importlib.util
import sys
from pathlib import Path

import pytest

ROOT = Path(__file__).resolve().parent.parent


def _load(name: str):
    spec = importlib.util.spec_from_file_location(name, ROOT / "tools" / f"{name}.py")
    module = importlib.util.module_from_spec(spec)
    sys.modules[name] = module  # its dataclass looks its module up by name
    spec.loader.exec_module(module)
    return module


mutants = _load("mutants")


@pytest.mark.parametrize("target", list(mutants.TARGETS))
def test_each_mutation_target_names_a_function_with_mutants(target):
    """A renamed or rewritten target fails here, not only when the tool is
    run by hand; so does a test module that is gone."""
    assert mutants.mutants_of(ROOT, target)
    assert all((ROOT / tests).is_file() for tests in mutants.TARGETS[target])
