"""Configuration of the numeric layer, importable without numpy.

The command line and the suites validate the numeric flags of every suite
with this class, so an exact run checks them without loading numpy.
numkernel re-exports it.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import ClassVar


def _finite_positive(value) -> bool:
    # NaN and inf would pass every err > tol check
    return 0 < value < math.inf


@dataclass(frozen=True)
class NumericConfig:
    quad_points: int = 2048
    prod_cutoff: float = 1e-16
    tol_tight: float = 1e-10
    tol_loose: float = 1e-6

    #: What each field accepts, and the test its value must pass.
    ACCEPTS: ClassVar[dict] = {
        "quad_points": ("at least 256", lambda value: value >= 256),
        "prod_cutoff": ("in (0, 1e-14]", lambda value: 0 < value <= 1e-14),
        "tol_tight": ("finite and positive", _finite_positive),
        "tol_loose": ("finite and positive", _finite_positive),
    }

    def __post_init__(self):
        for name, (accepted, ok) in self.ACCEPTS.items():
            value = getattr(self, name)
            if not ok(value):
                raise ValueError(f"{name} must be {accepted}, got {value!r}")
