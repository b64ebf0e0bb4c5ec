import os
from pathlib import Path

import pytest

from ghwkit.algebra import Field
from ghwkit.code import LinearCode
from ghwkit.constructions import tamo_barg

# pytest puts src/ on sys.path (pyproject.toml); the child interpreters some
# tests start need it on PYTHONPATH to import the same checkout.
_SRC = str(Path(__file__).resolve().parent.parent / "src")
os.environ["PYTHONPATH"] = os.pathsep.join(
    p for p in (_SRC, os.environ.get("PYTHONPATH")) if p)


@pytest.fixture(scope="session")
def gf2():
    return Field(2)


@pytest.fixture(scope="session")
def gf13():
    return Field(13)


@pytest.fixture(scope="session")
def pair_code(gf2):
    """The [4,2] binary code {0000, 1100, 0011, 1111}; self-dual."""
    return LinearCode(gf2, [[1, 1, 0, 0], [0, 0, 1, 1]])


@pytest.fixture(scope="session")
def repetition3(gf2):
    return LinearCode(gf2, [[1, 1, 1]])


@pytest.fixture(scope="session")
def lrc_12_6_3():
    return tamo_barg(13, 12, 6, 3)


@pytest.fixture(scope="session")
def lrc_12_5_3():
    return tamo_barg(13, 12, 5, 3)
