"""Golden digests of the exact outputs.

The exact suites report only pass or fail, so a change that scales both
sides of an identity passes them.  This test pins the coefficients
themselves: one SHA-256 per object family, over a small fixed grid of
contexts and labels, stored in ``golden_exact.json`` next to this file.

A digest is taken over a canonical form: every object is a list of
(monomial, value) entries sorted by monomial, values written by
``rational_str``, so neither dict key order nor the coefficient type
enters it.

After a deliberate change of an exact output, regenerate the file with

    PYTHONPATH=src python tests/test_golden_exact.py --regen

and record the regeneration and its reason in CHANGES.md.
"""

import hashlib
import json
import random
import sys
from pathlib import Path

from qsov import macdonald, qpoly, sov, suites
from qsov.exact import QContext, frac, random_symmetric, rational_str

GOLDEN = Path(__file__).resolve().parent / "golden_exact.json"

#: The default context plus two off-grid ones with g = 3 and negative xi.
CONTEXTS = [
    QContext(s=frac(s), g=g, xi=frac(xi))
    for s, g, xi in (("1/2", 2, "3/2"), ("1/3", 3, "-5/7"), ("3/5", 3, "-2"))
]
LABELS = suites.default_pairs(lmax=2, wmax=4)
KINDS = ("pi", "rho", "Q", "R", "pit", "rhot", "Qt", "Rt")
CQ_NMAX = 6
#: Two fixed symmetric polynomials expanded in every basis, beside P_lam and its image.
RANDOM_SYMMETRIC = [random_symmetric(random.Random(seed), degree=4, terms=5) for seed in (1, 2)]


def _key(k):
    """A monomial or label as a sortable list of ints."""
    if isinstance(k, tuple):
        return list(k)
    return [k]


def _terms(coeffs: dict) -> list:
    """[[monomial..., value], ...] sorted by monomial."""
    return [_key(k) + [rational_str(v)] for k, v in sorted(coeffs.items(), key=lambda kv: _key(kv[0]))]


def families() -> dict:
    """Canonical form of every pinned family: name -> list of records."""
    out = {name: [] for name in (
        "basis", "apply_M", "apply_M_via_r", "apply_M_inverse", "apply_M_inverse_qdiff",
        "transition_closed", "transition_recurrence", "P_lam", "f_lam", "f_lam_alt",
        "normalization_c", "cq_sum", "expand_in_basis",
    )}
    maps = [(name, getattr(sov, name)) for name in (
        "apply_M", "apply_M_via_r", "apply_M_inverse", "apply_M_inverse_qdiff",
    )]
    for ctx in CONTEXTS:
        where = ctx.label()
        for n in range(CQ_NMAX + 1):
            out["cq_sum"].append([where, n, _terms(qpoly.cq_sum(n, ctx.t, ctx).c)])
        expanded = [(f"random[{i}]", p) for i, p in enumerate(RANDOM_SYMMETRIC)]
        for lam in LABELS:
            label = str(lam)
            for tag in sov.BASIS_TAGS:
                out["basis"].append([where, tag, label, _terms(sov.basis(tag, lam, ctx).c)])
            P = macdonald.macdonald_poly(lam, ctx).poly
            out["P_lam"].append([where, label, _terms(P.c)])
            for name, fn in maps:
                image = fn(P, ctx)
                out[name].append([where, label, _terms(image.c)])
                if name == "apply_M":
                    expanded += [(f"P_lam[{label}]", P), (f"apply_M[{label}]", image)]
            for method in ("closed", "recurrence"):
                for kind in KINDS:
                    row = sov.transition_row(kind, lam, ctx, method)
                    out[f"transition_{method}"].append([where, kind, label, _terms(row.c)])
            out["f_lam"].append([where, label, _terms(macdonald.separated_poly(lam, ctx).poly.c)])
            out["f_lam_alt"].append(
                [where, label, _terms(macdonald.separated_poly_alt(lam, ctx).poly.c)]
            )
            out["normalization_c"].append([where, label, rational_str(sov.normalization_c(lam, ctx))])
        for source, p in expanded:
            for tag in sov.BASIS_TAGS:
                exp = sov.expand_in_basis(p, tag, ctx)
                out["expand_in_basis"].append([where, tag, source, _terms(exp.c)])
    return out


def digests() -> dict:
    """name -> SHA-256 of the family's canonical JSON."""
    return {
        name: hashlib.sha256(json.dumps(records, separators=(",", ":")).encode()).hexdigest()
        for name, records in families().items()
    }


def test_exact_outputs_match_golden_digests():
    expected = json.loads(GOLDEN.read_text())
    got = digests()
    changed = sorted(name for name in expected.keys() | got.keys() if expected.get(name) != got.get(name))
    assert not changed, f"exact outputs changed for: {', '.join(changed)}"


if __name__ == "__main__":
    if sys.argv[1:] != ["--regen"]:
        sys.exit(f"usage: {sys.argv[0]} --regen")
    GOLDEN.write_text(json.dumps(digests(), indent=2, sort_keys=True) + "\n")
    print(f"wrote {GOLDEN}")
