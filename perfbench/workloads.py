"""Workload definitions shared by sample.py and make_reference.py.

Each workload is sized so that one cold-process sample takes a few seconds on
a 2-core machine with the ``fractions`` backend, which leaves room for several
samples inside one timed run (see README.md for the measured sizes).
"""

from __future__ import annotations

import hashlib
import json
import random

EXACT_SUITES = ("qpoly", "macdonald", "sov", "transitions")
NUMERIC_SUITES = ("numkernel", "ruijsenaars")

#: ``qsov verify`` grid flags per size.
EXACT_GRID = {
    "full": ["--s", "1/2", "--g", "2", "--xi", "3/2", "--lmax", "3"],
    "toy": ["--s", "1/2", "--g", "1", "--xi", "3/2", "--lmax", "1"],
}
NUMERIC_GRID = {"full": [], "toy": ["--quad-points", "256"]}

#: (s, g, xi) contexts and label widths of ``separate-wide``.
WIDE_CONTEXTS = (("1/2", 1, "3/2"), ("3/5", 2, "1"))
WIDE_WIDTHS = {"full": (6, 8, 10, 12), "toy": (2, 4)}
#: The seed draws each context's offset l1 from this range; the context's
#: labels are then (l1, l1 + w).  One offset per context, not per label, keeps
#: the overlap of the labels' basis elements (and so the cached work) the
#: same for every seed: per-label offsets made the multiplication work vary by
#: up to 14 % between seeds.
WIDE_OFFSETS = (-3, 3)

#: (suites, grid flags per size, whether the sample seed goes to ``--seed``).
#: ``verify-numeric`` runs at the default seed, as ``qsov verify`` does without
#: flags: its random phase points made the cost of ``ruijsenaars`` vary by a
#: factor of three between seeds, and about one sample in a thousand drew a
#: point where the finite-difference canonicity check exceeds its tolerance
#: (``qsov verify ruijsenaars --seed 1645046173`` fails ``canonicity[14]``,
#: residual 3.1e-5 against 1e-5), a defect of that check, not of the timing.
VERIFY = {
    "verify-exact-grid": (EXACT_SUITES, EXACT_GRID, True),
    "verify-numeric": (NUMERIC_SUITES, NUMERIC_GRID, False),
}
WORKLOADS = ("verify-exact-grid", "separate-wide", "verify-numeric")
SIZES = ("full", "toy")


def verify_argv(workload: str, size: str, seed: int) -> list[tuple[str, list[str]]]:
    """(suite, argv for ``qsov.cli.main`` without ``--out``) for each suite."""
    suites, grid, seeded = VERIFY[workload]
    flags = grid[size] + (["--seed", str(seed)] if seeded else []) + ["--json"]
    return [(suite, ["verify", suite, *flags]) for suite in suites]


def wide_labels(size: str, seed: int) -> list[tuple[tuple, tuple[int, int]]]:
    """((s, g, xi), (l1, l2)) for every label of ``separate-wide``."""
    rng = random.Random(seed)
    out = []
    for ctx in WIDE_CONTEXTS:
        l1 = rng.randint(*WIDE_OFFSETS)
        out += [(ctx, (l1, l1 + w)) for w in WIDE_WIDTHS[size]]
    return out


def cases_digest(cases: list[dict]) -> str:
    """Digest of a report's ``(id, paper_eq, status)`` list, in report order.

    Residuals and timing fields are left out on purpose: later changes may
    alter float rounding or add timing fields without changing a verdict.
    """
    rows = [[c["id"], c["paper_eq"], c["status"]] for c in cases]
    return _sha256(rows)


def image_digest(c: str, f: dict[str, str]) -> str:
    """Digest of a separated image: the constant ``c`` and the coefficients of ``f``."""
    return _sha256([c, sorted(f.items(), key=lambda kv: int(kv[0]))])


def wide_key(ctx: tuple, lam: tuple[int, int]) -> str:
    s, g, xi = ctx
    return f"s={s},g={g},xi={xi};{lam[0]},{lam[1]}"


def _sha256(obj) -> str:
    return hashlib.sha256(json.dumps(obj, separators=(",", ":")).encode()).hexdigest()
