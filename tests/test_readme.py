import doctest
from pathlib import Path

README = Path(__file__).parent.parent / "README.md"


def test_readme_examples_run():
    """README's ``>>>`` examples are the library's API as it is."""
    result = doctest.testfile(str(README), module_relative=False)
    assert result.failed == 0
    assert result.attempted >= 10
