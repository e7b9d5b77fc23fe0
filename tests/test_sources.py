import ast
from pathlib import Path

import pytest

SOURCES = sorted((Path(__file__).parent.parent / "src" / "sepwit").glob("*.py"))


@pytest.mark.parametrize("path", SOURCES, ids=lambda path: path.name)
def test_sources_parse_as_python_3_10(path):
    # pyproject.toml declares requires-python >= 3.10; this rejects syntax
    # that only 3.11 or later parses (``except*``, for one) on any
    # interpreter that runs the suite.  It does not catch a call to a
    # library API that 3.10 lacks (tomllib, say): only running the suite
    # on 3.10 does.
    ast.parse(path.read_text(encoding="utf-8"), filename=str(path),
              feature_version=(3, 10))


def test_sources_are_found():
    assert len(SOURCES) > 5
