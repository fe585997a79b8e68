"""Shared test set-up: interpreters started by a test import the qsov under test.

pyproject.toml puts src/ on this process's sys.path; a child interpreter
(a test that checks what a cold import loads) reads PYTHONPATH instead.
The pytester plugin runs a small suite under this repository's pytest
settings in a child interpreter.
"""

import os
from pathlib import Path

import qsov

_SRC = str(Path(qsov.__file__).resolve().parent.parent)
os.environ["PYTHONPATH"] = os.pathsep.join(p for p in (_SRC, os.environ.get("PYTHONPATH")) if p)

pytest_plugins = ["pytester"]
