"""Shared test set-up: interpreters started by a test import the qsov under test.

pyproject.toml puts src/ on this process's sys.path; a child interpreter
(a test that checks what a cold import loads) reads PYTHONPATH instead.
The pytester plugin runs a small suite under this repository's pytest
settings in a child interpreter.  The suite_report fixture runs each named
suite once a session on the default grid, for every test that reads it.
"""

import functools
import os
from pathlib import Path

import pytest

import qsov
from qsov import suites

_SRC = str(Path(qsov.__file__).resolve().parent.parent)
os.environ["PYTHONPATH"] = os.pathsep.join(p for p in (_SRC, os.environ.get("PYTHONPATH")) if p)

pytest_plugins = ["pytester"]


@pytest.fixture(scope="session")
def suite_report():
    """suite_report(name) is suites.run_suite(name) on the default grid, run on first use."""
    return functools.cache(suites.run_suite)
