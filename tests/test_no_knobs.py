"""The package reads no environment variable and imports no concurrency
module: what it computes is fixed by its arguments, and it runs on one
thread."""

import ast
from pathlib import Path

import pytest

import wasserlim

SOURCES = sorted(Path(wasserlim.__file__).parent.glob("*.py"))
CONCURRENCY = {"threading", "_thread", "multiprocessing", "concurrent"}
ENVIRONMENT = {"environ", "environb", "getenv", "getenvb"}


def knobs(source: str) -> list[str]:
    """Each environment read or concurrency import in ``source``, by line."""
    found = []
    for node in ast.walk(ast.parse(source)):
        if isinstance(node, ast.Import):
            names = [alias.name for alias in node.names]
        elif isinstance(node, ast.ImportFrom):
            names = [node.module or ""]
            if node.module == "os":
                names += [alias.name for alias in node.names]
        elif isinstance(node, ast.Attribute):
            names = [node.attr]
        else:
            continue
        if any(name.split(".")[0] in CONCURRENCY or name in ENVIRONMENT
               for name in names):
            found.append(f"line {node.lineno}: {ast.unparse(node)}")
    return found


def test_sources_are_found():
    assert {p.name for p in SOURCES} >= {"__init__.py", "transport.py", "cli.py"}


@pytest.mark.parametrize("path", SOURCES, ids=lambda p: p.name)
def test_no_environment_reads_or_concurrency(path):
    assert knobs(path.read_text(encoding="utf-8")) == []


@pytest.mark.parametrize("source", [
    "import os\nos.environ['WASSERLIM_THREADS']",
    "import os\nos.getenv('X')",
    "from os import environ",
    "import threading",
    "import multiprocessing.pool",
    "from concurrent.futures import ThreadPoolExecutor",
])
def test_the_scan_sees_planted_knobs(source):
    assert len(knobs(source)) == 1
