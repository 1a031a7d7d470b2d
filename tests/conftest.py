import sys
from contextlib import contextmanager
from pathlib import Path

import pytest

PROGRAMS = Path(__file__).parent / "programs"


@pytest.fixture(scope="session")
def load():
    """Return a loader for the example programs under tests/programs."""

    def _load(name: str) -> str:
        return (PROGRAMS / name).read_text(encoding="utf-8")

    return _load


@pytest.fixture(scope="session")
def program_path():
    def _path(name: str) -> str:
        return str(PROGRAMS / name)

    return _path


@pytest.fixture
def shallow_recursion():
    """A context manager that lowers Python's recursion limit to 100 frames
    above the depth it is entered at, for the length of its block, so a
    term walker that recurses once per nesting level fails there on a term
    nested a few hundred deep."""

    @contextmanager
    def lowered():
        depth, frame = 0, sys._getframe()
        while frame is not None:
            depth, frame = depth + 1, frame.f_back
        old = sys.getrecursionlimit()
        sys.setrecursionlimit(depth + 100)
        try:
            yield
        finally:
            sys.setrecursionlimit(old)

    return lowered
