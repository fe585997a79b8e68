"""One test per acceptance criterion, read from the suites' own reports.

Each suite runs once a session on the default grid (the suite_report
fixture).  A test asserts, for each paper_eq slug of its criterion, that
every case passed and that the slug has one case per grid point.  Exact
criteria admit no tolerance at all: polynomial identities are compared
coefficient-by-coefficient over rationals.  A numeric case raises above its
suite's default tolerance, and the tests hold the residuals to each
criterion's stated bound as well.  Inputs that a test checks but no suite
draws stay as direct checks.  Every test prints a single PASS line (run
pytest with -s to see them inline).
"""

import cmath
import math
import random
from collections import Counter

from qsov import numkernel as nk, ruijsenaars as rj, sov, suites
from qsov.exact import QContext, frac, random_symmetric

CTXS = suites.default_contexts()
GRID = len(CTXS) * len(suites.default_pairs())

#: Every paper_eq slug of the default-grid reports, by the suites that carry it.
CENSUS = {
    suites.EXACT_SUITES: (
        "recurrence-vs-sum", "generating-function", "one-variable-connection",
        "commuting-pair", "eigenvalue-equation", "separation-equation", "monomial-factorized-form",
        "dual-route-map", "inverse-difference-form", "involution-intertwining",
        "invariant-shift-operators", "factorization", "characteristic-equation", "tridiagonal-action",
        "transition-closed-vs-recurrence", "transition-reassembly", "mutual-inverse",
    ),
    ("numkernel",): (
        "circle-integral", "integral-symmetry", "quadrature-convergence", "kernel-eigenaction",
        "integral-vs-algebraic-map", "product-formula", "kernel-series", "orthogonality",
        "difference-equation", "fractional-power-action", "fractional-group-law",
        "fractional-negative-order", "classical-limit",
    ),
    ("ruijsenaars",): (
        "dilogarithm-identities", "characteristic-polynomial", "poisson-involutivity",
        "separation-variables", "canonical-brackets", "generating-function-derivatives",
        "gauge-conjugation", "chain-reduction", "hermitian-reality",
    ),
}


def _check(report, counts, tol=None):
    """Each slug in counts has that many cases in report, all passed, each residual below tol."""
    cases = [c for c in report["cases"] if c["paper_eq"] in counts]
    assert [c for c in cases if c["status"] != "pass"] == []
    assert Counter(c["paper_eq"] for c in cases) == counts
    if tol is not None:
        assert max(c["residual"] for c in cases) < tol


def _announce(name, report):
    print(f"PASS {name} ({report['suite']} suite, {report['elapsed_ms'] / 1000:.1f} s)")


def test_exact_factorization_grid(suite_report):
    report = suite_report("sov")
    _check(report, {"factorization": GRID})
    assert report["elapsed_ms"] < 60_000, f"sov suite took {report['elapsed_ms']} ms"
    _announce("exact factorization (full grid, zero tolerance)", report)


def test_exact_inversion_roundtrips(suite_report):
    report = suite_report("sov")
    _check(report, {"dual-route-map": len(CTXS), "inverse-difference-form": len(CTXS)})
    # 100 round trips and six contexts off the default grid, which no suite draws
    rng = random.Random(0)
    for count in range(100):
        ctx = CTXS[count % len(CTXS)]
        p = random_symmetric(rng, degree=6, terms=5)
        image = sov.apply_M(p, ctx)
        assert sov.apply_M_inverse(image, ctx) == p
        assert sov.apply_M(sov.apply_M_inverse(p, ctx), ctx) == p
    for g in (1, 2, 3):
        for s, xi in (("1/2", "3/2"), ("1/3", "2")):
            ctx = QContext(s=frac(s), g=g, xi=frac(xi))
            for _ in range(3):
                p = random_symmetric(rng, degree=4, terms=4)
                assert sov.apply_M_inverse_qdiff(p, ctx) == sov.apply_M_inverse(p, ctx)
    _announce("exact inversion (route pair, 100 round trips, difference-operator form)", report)


def test_eigenvalue_and_separation_equations(suite_report):
    report = suite_report("macdonald")
    _check(report, {"eigenvalue-equation": GRID, "separation-equation": GRID, "commuting-pair": len(CTXS)})
    _announce("eigenvalue equations + separation equation (full grid)", report)


def test_quantum_characteristic_equation_grid(suite_report):
    report = suite_report("sov")
    _check(report, {"characteristic-equation": GRID})
    _announce("quantum characteristic equation (full grid, j = 1, 2)", report)


def test_shift_operators_and_involutions(suite_report):
    report = suite_report("sov")
    _check(report, {"tridiagonal-action": GRID, "invariant-shift-operators": len(CTXS),
                    "involution-intertwining": len(CTXS)})
    _announce("tridiagonal action, shift operators and involutions", report)


def test_transition_matrices(suite_report):
    report = suite_report("transitions")
    _check(report, {"transition-closed-vs-recurrence": GRID, "transition-reassembly": GRID,
                    "mutual-inverse": GRID})
    _announce("transition matrices (closed vs recurrence, reassembly, inverses)", report)


def test_cross_constructions(suite_report):
    report = suite_report("qpoly")
    _check(report, {"recurrence-vs-sum": len(CTXS), "generating-function": len(CTXS),
                    "one-variable-connection": GRID})
    # a separation-equation case also compares the two closed forms of f_lam
    _check(suite_report("macdonald"), {"separation-equation": GRID, "monomial-factorized-form": GRID})
    _announce("cross constructions (recurrence, generating function, two forms)", report)


def test_circle_integral_identity(suite_report):
    report = suite_report("numkernel")
    _check(report, {"circle-integral": 2}, tol=1e-10)
    _check(report, {"integral-symmetry": 1, "quadrature-convergence": 1})
    # the suite draws its 25 weights from one seed at both q; the next 25
    # draws of that seed run at q = 0.4 here
    rng = random.Random(0)
    draws = [
        nk.AWParams(
            *(cmath.rect(rng.uniform(0.0, 0.6), rng.uniform(0.0, 2 * math.pi)) for _ in range(4))
        )
        for _ in range(50)
    ]
    assert nk.aw_integral_report(draws[25:], 0.4)["max_err"] < 1e-10
    assert report["elapsed_ms"] < 10_000, f"numkernel suite took {report['elapsed_ms']} ms"
    _announce("weighted circle integral (75 draws)", report)


def test_integral_operator_matches_algebra(suite_report):
    report = suite_report("numkernel")
    _check(report, {"integral-vs-algebraic-map": 2}, tol=1e-8)
    _check(report, {"kernel-eigenaction": 1})
    _announce("integral operator vs algebraic map", report)


def test_product_formula_and_kernel_series(suite_report):
    report = suite_report("numkernel")
    _check(report, {"product-formula": 6 * 5, "kernel-series": 1}, tol=1e-6)
    _check(report, {"classical-limit": 1})
    _announce("product formula + kernel series + classical limit", report)


def test_orthogonality_and_difference_equation(suite_report):
    report = suite_report("numkernel")
    _check(report, {"orthogonality": 15, "difference-equation": 5}, tol=1e-6)
    _announce("orthogonality + difference equation", report)


def test_fractional_operator(suite_report):
    report = suite_report("numkernel")
    _check(report, {"fractional-power-action": 5, "fractional-group-law": 3}, tol=1e-6)
    _check(report, {"fractional-negative-order": 3}, tol=1e-10)
    _announce("fractional operator (group law, power action, negative orders)", report)


def test_classical_model(suite_report):
    report = suite_report("ruijsenaars")
    _check(report, {"characteristic-polynomial": 20, "separation-variables": 20,
                    "gauge-conjugation": 5}, tol=1e-10)
    _check(report, {"chain-reduction": 5}, tol=1e-8)
    _check(report, {"canonical-brackets": 20, "generating-function-derivatives": 5}, tol=1e-5)
    _check(report, {"dilogarithm-identities": 1, "poisson-involutivity": 20, "hermitian-reality": 5})
    # the suite's brackets use the step h = 1e-5; its 20 phase points also hold at h = 1e-6
    for i in range(20):
        point = rj.random_phase_point(random.Random(i), 2)
        xi = (0.7, 1.3 + 0.2j)[i % 2]
        assert rj.canonicity_check(point.x, point.Tx, 0.5, xi, h=1e-6, tol=1e-5)["max"] < 1e-5
    assert report["elapsed_ms"] < 30_000, f"ruijsenaars suite took {report['elapsed_ms']} ms"
    _announce("classical model (20 phase points, all identities)", report)


def test_slug_census(suite_report):
    assert [len(slugs) for slugs in CENSUS.values()] == [17, 13, 9]
    for names, slugs in CENSUS.items():
        assert {c["paper_eq"] for n in names for c in suite_report(n)["cases"]} == set(slugs)
