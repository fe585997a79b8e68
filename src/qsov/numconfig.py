"""Configuration of the numeric layer, importable without numpy.

The command line and the suites validate the numeric flags of every suite
with this class, so an exact run checks them without loading numpy.
numkernel re-exports it.
"""

from __future__ import annotations

import math
from dataclasses import dataclass


@dataclass(frozen=True)
class NumericConfig:
    quad_points: int = 2048
    prod_cutoff: float = 1e-16
    tol_tight: float = 1e-10
    tol_loose: float = 1e-6

    def __post_init__(self):
        if self.quad_points < 256:
            raise ValueError("quad_points must be at least 256")
        if not (0 < self.prod_cutoff <= 1e-14):
            raise ValueError("prod_cutoff must lie in (0, 1e-14]")
        for tol in (self.tol_tight, self.tol_loose):
            # NaN and inf would pass every err > tol check
            if not (0 < tol < math.inf):
                raise ValueError("tolerances must be finite and positive")
