"""Rebuild ``reference.json``, the expected outputs every benchmark run checks.

    python3 perfbench/make_reference.py

For each verify suite and size it stores the digest of the report's
``(id, paper_eq, status)`` list, after checking that two seeds give the same
list and that every case passes.  For ``separate-wide`` it stores, for every
label any seed can draw at any size, the digest of the separated image's
``c`` and ``f`` coefficients, after checking both inverse round trips.  Exact
outputs must never change, so rebuild this file only when a change adds,
removes or renames cases on purpose, and say so in the change.
"""

from __future__ import annotations

import json
import sys
from pathlib import Path

import workloads as wl

HERE = Path(__file__).resolve().parent
sys.path.insert(0, str(HERE.parent / "src"))

from qsov import cli, macdonald, sov  # noqa: E402
from qsov.exact import Pair, QContext, frac, rational_str  # noqa: E402

SCRATCH = HERE.parent / ".perfbench_tmp"


def verify_reference(size: str) -> dict:
    out = {}
    for workload in ("verify-exact-grid", "verify-numeric"):
        digests = {}
        for seed in (0, 1):
            for suite, argv in wl.verify_argv(workload, size, seed):
                path = SCRATCH / f"reference-{suite}.json"
                if cli.main(argv + ["--out", str(path)]) != 0:
                    sys.exit(f"{suite} ({size}, seed {seed}) does not pass")
                cases = json.loads(path.read_text())["cases"]
                path.unlink()
                entry = {"cases": len(cases), "sha256": wl.cases_digest(cases)}
                if digests.setdefault(suite, entry) != entry:
                    sys.exit(f"{suite} ({size}): the case list depends on the seed")
        out.update(digests)
    return out


def separate_reference() -> dict:
    out = {}
    lo, hi = wl.WIDE_OFFSETS
    widths = sorted({w for ws in wl.WIDE_WIDTHS.values() for w in ws})
    for s, g, xi in wl.WIDE_CONTEXTS:
        ctx = QContext(s=frac(s), g=g, xi=frac(xi))
        for w in widths:
            for l1 in range(lo, hi + 1):
                lam = Pair(l1, l1 + w)
                P = macdonald.macdonald_poly(lam, ctx).poly
                image = sov.separate(lam, ctx)
                if sov.apply_M_inverse(image.poly, ctx) != P:
                    sys.exit(f"inverse round trip fails for {lam}")
                if sov.apply_M_inverse_qdiff(image.poly, ctx) != P:
                    sys.exit(f"difference-operator round trip fails for {lam}")
                f = {str(k): rational_str(v) for k, v in image.f.poly.c.items()}
                out[wl.wide_key((s, g, xi), (l1, l1 + w))] = wl.image_digest(rational_str(image.c), f)
                print(f"separate {ctx.label()} {lam}", file=sys.stderr)
    return out


def main() -> int:
    SCRATCH.mkdir(exist_ok=True)
    reference = {
        "verify": {size: verify_reference(size) for size in wl.SIZES},
        "separate": separate_reference(),
    }
    (HERE / "reference.json").write_text(json.dumps(reference, indent=1, sort_keys=True) + "\n")
    return 0


if __name__ == "__main__":
    sys.exit(main())
