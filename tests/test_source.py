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


def imported_names(tree):
    """The names that the imports anywhere in tree bind, with the line of
    each: `import a.b` binds a, `import a as b` and `from m import a as b`
    bind b. A `from __future__` import changes how the module compiles,
    so it counts as used and is left out."""
    for node in ast.walk(tree):
        if isinstance(node, ast.Import):
            yield from ((alias.asname or alias.name.partition(".")[0], node.lineno)
                        for alias in node.names)
        elif isinstance(node, ast.ImportFrom) and node.module != "__future__":
            yield from ((alias.asname or alias.name, node.lineno) for alias in node.names)


@pytest.mark.parametrize("path", SOURCES, ids=lambda path: path.name)
def test_every_imported_name_is_used(path):
    """Each name a module imports is read somewhere in that module, so an
    import whose last use went is removed with it."""
    tree = ast.parse(path.read_text(encoding="utf-8"), filename=str(path))
    read = {node.id for node in ast.walk(tree)
            if isinstance(node, ast.Name) and isinstance(node.ctx, ast.Load)}
    assert [(name, line) for name, line in imported_names(tree) if name not in read] == []
