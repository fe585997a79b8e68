"""Separation-of-variables toolkit for two-variable symmetric Laurent polynomials.

Exact layer: q-Pochhammer calculus over rationals (q = s^2), the polynomial
family P_lam, the separating operator with its inverse, eigenbases and
transition matrices.  Numeric layer: unit-circle quadrature for the kernel
identities, fractional integration, and the classical trigonometric
two-particle model.  The numeric modules, numkernel and ruijsenaars, import
numpy; they load on first use (qsov.numkernel, from qsov import ruijsenaars),
so the exact layer and the command line start without numpy.
"""

import importlib

from . import exact, macdonald, qpoly, sov, suites
from .exact import (
    Laurent1,
    Laurent2,
    Pair,
    QContext,
    divide_exact,
    frac,
    qbinomial,
    qpochhammer,
    qshift,
    rational_str,
)

__all__ = [
    "Laurent1",
    "Laurent2",
    "Pair",
    "QContext",
    "divide_exact",
    "exact",
    "frac",
    "macdonald",
    "numkernel",
    "qbinomial",
    "qpochhammer",
    "qpoly",
    "qshift",
    "rational_str",
    "ruijsenaars",
    "sov",
    "suites",
]

__version__ = "0.1.0"

_NUMERIC_MODULES = ("numkernel", "ruijsenaars")


def __getattr__(name):
    if name in _NUMERIC_MODULES:
        return importlib.import_module(f".{name}", __name__)
    raise AttributeError(f"module {__name__!r} has no attribute {name!r}")
