"""The package's sources and the scripts parse under the oldest Python that
pyproject.toml allows. This checks syntax only; it does not run the package
on that Python."""
import ast
import re
from pathlib import Path

import pytest

ROOT = Path(__file__).resolve().parents[1]


def _python_floor() -> tuple[int, int]:
    match = re.search(r'^requires-python = ">=(\d+)\.(\d+)"$', (ROOT / "pyproject.toml").read_text(), re.M)
    return int(match[1]), int(match[2])


SOURCES = sorted((ROOT / "src" / "norainbow").glob("*.py")) + sorted((ROOT / "scripts").glob("*.py"))


@pytest.mark.parametrize("path", SOURCES, ids=lambda p: p.name)
def test_sources_parse_at_the_python_floor(path):
    ast.parse(path.read_text(encoding="utf-8"), filename=str(path), feature_version=_python_floor())


def test_python_floor_check_rejects_newer_syntax():
    # except* is 3.11 syntax
    assert _python_floor() < (3, 11)
    with pytest.raises(SyntaxError):
        ast.parse("try:\n    pass\nexcept* ValueError:\n    pass\n", feature_version=_python_floor())
