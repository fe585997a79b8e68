"""One test per acceptance criterion, each at its stated tolerance.

Every test prints a single PASS line with its wall time (run pytest with -s
to see them inline).  Exact criteria admit no tolerance at all: polynomial
identities are compared coefficient-by-coefficient over rationals.
"""

import cmath
import math
import random
import time

from qsov import macdonald, numkernel as nk, qpoly, ruijsenaars as rj, sov, suites
from qsov.exact import QContext, frac, random_symmetric

CTXS = suites.default_contexts()
PAIRS = suites.default_pairs()


def _announce(name, t0):
    print(f"PASS {name} ({time.perf_counter() - t0:.1f} s)")


def test_exact_factorization_grid():
    t0 = time.perf_counter()
    for ctx in CTXS:
        for lam in PAIRS:
            sov.separate(lam, ctx)  # raises on any nonzero residual
    elapsed = time.perf_counter() - t0
    assert elapsed < 60.0, f"factorization grid took {elapsed:.1f} s"
    _announce("exact factorization (full grid, zero tolerance)", t0)


def test_exact_inversion_roundtrips():
    t0 = time.perf_counter()
    rng = random.Random(0)
    count = 0
    while count < 100:
        ctx = CTXS[count % len(CTXS)]
        p = random_symmetric(rng, degree=6, terms=5)
        image = sov.apply_M(p, ctx)
        assert sov.apply_M_inverse(image, ctx) == p
        assert sov.apply_M(sov.apply_M_inverse(p, ctx), ctx) == p
        count += 1
    for g in (1, 2, 3):
        for s, xi in (("1/2", "3/2"), ("1/3", "2")):
            ctx = QContext(s=frac(s), g=g, xi=frac(xi))
            for _ in range(3):
                p = random_symmetric(rng, degree=4, terms=4)
                assert sov.apply_M_inverse_qdiff(p, ctx) == sov.apply_M_inverse(p, ctx)
    _announce("exact inversion (100 round trips + difference-operator form)", t0)


def test_eigenvalue_and_separation_equations():
    t0 = time.perf_counter()
    for ctx in CTXS:
        for lam in PAIRS:
            macdonald.check_eigen(lam, ctx)
            f = macdonald.separated_poly(lam, ctx)
            residual = macdonald.separation_residual(
                f.poly, macdonald.spectrum(lam, ctx), ctx
            )
            assert not residual
    _announce("eigenvalue equations + separation equation (full grid)", t0)


def test_quantum_characteristic_equation_grid():
    t0 = time.perf_counter()
    for ctx in CTXS:
        for nu in PAIRS:
            sov.check_quantum_char_eq(nu, ctx)
    _announce("quantum characteristic equation (full grid, j = 1, 2)", t0)


def test_transition_matrices():
    t0 = time.perf_counter()
    for ctx in CTXS:
        for lam in PAIRS:
            suites.case_transitions(ctx, lam)
            suites.case_reassembly(ctx, lam)
            suites.case_mutual_inverse(ctx, lam)
    _announce("transition matrices (closed vs recurrence, reassembly, inverses)", t0)


def test_cross_constructions():
    t0 = time.perf_counter()
    for ctx in CTXS:
        for n in range(9):
            assert qpoly.cq_sum(n, ctx.t, ctx) == qpoly.cq_recurrence(n, ctx.t, ctx)
        qpoly.generating_function_check(6, ctx.t, ctx)
        for lam in PAIRS:
            assert (
                macdonald.separated_poly(lam, ctx).poly
                == macdonald.separated_poly_alt(lam, ctx).poly
            )
    _announce("cross constructions (recurrence, generating function, two forms)", t0)


def test_circle_integral_identity():
    t0 = time.perf_counter()
    rng = random.Random(0)
    worst = 0.0
    for q in (0.2, 0.4):
        for _ in range(25):
            params = nk.AWParams(
                *(
                    cmath.rect(rng.uniform(0.0, 0.6), rng.uniform(0.0, 2 * math.pi))
                    for _ in range(4)
                )
            )
            quad = nk.aw_integral(params, q)
            closed = nk.aw_closed_form(params, q)
            worst = max(worst, abs(quad - closed) / abs(closed))
    elapsed = time.perf_counter() - t0
    assert worst < 1e-10
    assert elapsed < 10.0, f"circle-integral batch took {elapsed:.1f} s"
    _announce(f"weighted circle integral (50 draws, worst rel err {worst:.1e})", t0)


def test_integral_operator_matches_algebra():
    t0 = time.perf_counter()
    worst = suites.case_mxi_vs_exact("1/2", 1, "3/2", nk.DEFAULT_CONFIG)
    worst = max(worst, suites.case_mxi_vs_exact("1/2", 2, "1", nk.DEFAULT_CONFIG))
    assert worst < 1e-8
    _announce(f"integral operator vs algebraic map (worst err {worst:.1e})", t0)


def test_product_formula_and_kernel_series():
    t0 = time.perf_counter()
    worst = 0.0
    for n in range(6):
        for theta, phi in ((0.7, 1.1), (0.5, 0.9), (1.2, 0.4), (0.3, 1.8), (2.2, 1.0)):
            worst = max(worst, nk.product_formula_check(n, theta, phi, 0.25, 0.5)["err"])
    assert worst < 1e-6
    series_err = nk.kernel_series_check(0.5, 0.9, 1.3, 0.25, 0.5, terms=40)["err"]
    assert series_err < 1e-6
    _announce(
        f"product formula (worst {worst:.1e}) + kernel series ({series_err:.1e})", t0
    )


def test_orthogonality_and_difference_equation():
    t0 = time.perf_counter()
    worst = 0.0
    for m in range(5):
        for n in range(m, 5):
            worst = max(worst, nk.orthogonality_check(m, n, 0.25, 0.5)["err"])
    for n in range(5):
        worst = max(worst, nk.qdiff_equation_check(n, 0.25, 0.5)["err"])
    assert worst < 1e-6
    _announce(f"orthogonality + difference equation (worst {worst:.1e})", t0)


def test_fractional_operator():
    t0 = time.perf_counter()
    r = cmath.exp(0.35j)
    y = cmath.exp(-1.1j)
    ys = [cmath.exp(0.7j), cmath.exp(-2.1j), cmath.exp(1.9j)]
    worst_loose = 0.0
    for alpha, beta in ((0.5, 0.5), (0.3, 0.7), (1.0, 1.0)):
        worst_loose = max(
            worst_loose, nk.group_property_report(alpha, beta, r, ys, 0.25)["err"]
        )
    for alpha, nu in ((0.5, 0.4), (0.3, 1.0), (1.0, 0.7)):
        worst_loose = max(
            worst_loose, nk.power_action_report(alpha, nu, r, y, 0.25)["err"]
        )
    assert worst_loose < 1e-6
    worst_tight = 0.0
    for g in (1, 2, 3):
        worst_tight = max(
            worst_tight, nk.neg_order_consistency_report(g, r, ys, 0.25)["err"]
        )
    assert worst_tight < 1e-10
    _announce(
        f"fractional operator (group/power {worst_loose:.1e}, "
        f"negative orders {worst_tight:.1e})",
        t0,
    )


def test_classical_model():
    t0 = time.perf_counter()
    rng = random.Random(0)
    t = 0.5
    xis = (0.7, 1.3 + 0.2j)
    for i in range(20):
        point = rj.random_phase_point(rng, 2)
        xi = xis[i % 2]
        for _ in range(3):
            u = cmath.rect(rng.uniform(0.3, 2.0), rng.uniform(0.0, 2 * math.pi))
            z = cmath.rect(rng.uniform(0.3, 2.0), rng.uniform(0.0, 2 * math.pi))
            assert rj.char_poly_residual(point.x, point.Tx, t, u, z) < 1e-10
        data = rj.separation_variables(point.x, point.Tx, t, xi, tol=1e-10)
        assert abs(data.y[0] * data.y[1] * xi ** 2 - t * point.x[0] * point.x[1]) < 1e-10
        rep = rj.canonicity_check(point.x, point.Tx, t, xi, h=1e-6, tol=1e-5)
        assert rep["max"] < 1e-5
        rj.richardson_report(point.x, point.Tx, t, xi)
        point3 = rj.random_phase_point(rng, 3)
        for _ in range(1):
            u = cmath.rect(rng.uniform(0.3, 2.0), rng.uniform(0.0, 2 * math.pi))
            z = cmath.rect(rng.uniform(0.3, 2.0), rng.uniform(0.0, 2 * math.pi))
            assert rj.char_poly_residual(point3.x, point3.Tx, t, u, z) < 1e-10
    for i in range(5):
        point = rj.random_phase_point(rng, 2)
        assert rj.generating_function_check(point.x, point.Tx, t, 0.7)["max"] < 1e-5
        point3 = rj.random_phase_point(rng, 3)
        ytld = (0.3 * cmath.exp(0.5j), 0.45 * cmath.exp(-1.1j))
        assert rj.gauge_ratio_report(point3.x, 0.25, t, ytld)["max"] < 1e-10
        assert rj.reduction_map_report(point3.x, (point3.Tx[0], point3.Tx[1]), t)["max"] < 1e-8
    elapsed = time.perf_counter() - t0
    assert elapsed < 30.0, f"classical batch took {elapsed:.1f} s"
    _announce("classical model (20 phase points, all identities)", t0)
