"""The package source stays within the oldest Python that pyproject.toml allows."""

import ast
import re
from pathlib import Path

import pytest

ROOT = Path(__file__).resolve().parents[1]
SOURCES = sorted((ROOT / "src" / "riskboot").glob("*.py"))


def oldest_python():
    found = re.search(r'^requires-python = ">=(\d+)\.(\d+)"$',
                      (ROOT / "pyproject.toml").read_text(encoding="utf-8"), re.MULTILINE)
    return int(found[1]), int(found[2])


@pytest.mark.parametrize("path", SOURCES, ids=lambda path: path.name)
def test_source_parses_as_the_oldest_supported_python(path):
    """ast.parse rejects syntax newer than feature_version, such as
    except* or generic class parameters; runtime features (a regex
    construct, a new stdlib name) stay unchecked."""
    ast.parse(path.read_text(encoding="utf-8"), filename=str(path),
              feature_version=oldest_python())
