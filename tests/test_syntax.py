"""The declared Python floor: every source file parses as Python 3.10.

pyproject.toml declares requires-python >= 3.10, but a newer interpreter runs
newer syntax (`except*`, `type X = int`) without complaint. ast.parse with
feature_version=(3, 10) rejects such syntax on any interpreter, so the floor
holds where only a newer one is installed. It checks syntax only: a standard
library name that is new in 3.11 or later (tomllib, datetime.UTC,
typing.Self) parses fine and is not caught here. perfbench/ is only read.
"""

import ast
from pathlib import Path

import pytest

ROOT = Path(__file__).resolve().parent.parent
FILES = sorted(path for top in ("src", "tests", "perfbench") for path in (ROOT / top).rglob("*.py"))


@pytest.mark.parametrize("path", FILES, ids=lambda path: str(path.relative_to(ROOT)))
def test_source_parses_as_python_3_10(path):
    ast.parse(path.read_text(encoding="utf-8"), str(path), feature_version=(3, 10))
