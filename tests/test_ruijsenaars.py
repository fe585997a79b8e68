import cmath
import math
import random
import subprocess
import sys

import pytest

from qsov import ruijsenaars as rj
from qsov import suites
from qsov.numkernel import DEFAULT_CONFIG
from qsov.errors import (
    CollisionError,
    DegenerateRoots,
    PoleError,
    ToleranceExceeded,
    TrendViolation,
)

T = 0.5
XI = 0.7


def test_phase_point_validation():
    with pytest.raises(ValueError):
        rj.PhasePoint(x=(1.5 + 0j,), Tx=(1.0,))
    with pytest.raises(ValueError):
        rj.PhasePoint(x=(1.0 + 0j,), Tx=(-1.0,))


def test_hamiltonians_trivial():
    point = rj.PhasePoint(x=(cmath.exp(0.4j), cmath.exp(-0.9j)), Tx=(1.0, 1.0))
    H = rj.hamiltonians(point.x, point.Tx, T)
    assert abs(H[1] - 1.0) < 1e-14


def test_hamiltonians_match_direct_formula():
    # oracle: the two-term expression v12 T1 + v21 T2 and the product T1 T2
    rng = random.Random(1)
    for _ in range(5):
        p = rj.random_phase_point(rng, 2)
        H = rj.hamiltonians(p.x, p.Tx, T)
        v12 = rj.v_factor(p.x[0], p.x[1], T)
        v21 = rj.v_factor(p.x[1], p.x[0], T)
        assert abs(H[0] - (v12 * p.Tx[0] + v21 * p.Tx[1])) < 1e-13
        assert abs(H[1] - p.Tx[0] * p.Tx[1]) < 1e-13


def test_hamiltonians_real_on_symmetric_configuration():
    rng = random.Random(2)
    for _ in range(5):
        p = rj.hermitian_phase_point(rng, 3)
        H = rj.hamiltonians(p.x, p.Tx, T)
        assert max(abs(h.imag) for h in H) < 1e-10


def test_collision_guard():
    with pytest.raises(CollisionError):
        rj.v_factor(1.0 + 0j, 1.0 + 0j, T)


def test_lax_pole_guard():
    p = rj.PhasePoint(x=(cmath.exp(0.4j), cmath.exp(-0.9j)), Tx=(1.0, 1.2))
    with pytest.raises(PoleError):
        rj.lax_matrix(p.x, p.Tx, T, 1.0)
    with pytest.raises(PoleError):
        rj.lax_matrix(p.x, p.Tx, T, T ** 2)


@pytest.mark.parametrize("n", (2, 3))
def test_characteristic_polynomial(n):
    rng = random.Random(7)
    for _ in range(5):
        p = rj.random_phase_point(rng, n)
        u = cmath.rect(rng.uniform(0.3, 2.0), rng.uniform(0, 2 * math.pi))
        z = cmath.rect(rng.uniform(0.3, 2.0), rng.uniform(0, 2 * math.pi))
        assert rj.char_poly_residual(p.x, p.Tx, T, u, z) < 1e-10


def test_e_matrix_diagonal_is_coordinate_free():
    rng = random.Random(3)
    p = rj.random_phase_point(rng, 2)
    u = 0.7 + 0.2j
    L = rj.lax_matrix(p.x, p.Tx, T, u)
    tn = T ** 2
    dcoef = (1 - T) * (tn - u) / (2 * T ** 1.5 * (1 - u))
    target = (tn + u) / (tn - u) - (T + 1) / (T - 1)
    for j in (0, 1):
        dj = dcoef * p.Tx[j] * rj.v_factor(p.x[j], p.x[1 - j], T)
        assert abs(L[j, j] / dj - target) < 1e-12


@pytest.mark.parametrize("xi", (0.7, 1.3 + 0.2j))
def test_separation_variables(xi):
    rng = random.Random(4)
    for _ in range(8):
        p = rj.random_phase_point(rng, 2)
        data = rj.separation_variables(p.x, p.Tx, T, xi, tol=1e-10)
        assert abs(data.y[0] * data.y[1] * xi ** 2 - T * p.x[0] * p.x[1]) < 1e-10
        for y in data.y:
            assert abs(rj.b_poly_value(p.x, p.Tx, T, xi, y)) < 1e-9


def test_a_function_identities():
    rng = random.Random(5)
    p = rj.random_phase_point(rng, 2)
    for _ in range(5):
        u = cmath.rect(rng.uniform(0.3, 2.0), rng.uniform(0, 2 * math.pi))
        assert rj.char_eq_a_residual(p.x, T, XI, u) < 1e-10
        assert rj.a_ratio_invariance_residual(p.x, T, XI, u) < 1e-12


def test_degenerate_roots_guard():
    with pytest.raises(DegenerateRoots):
        rj._solve_separation_quadratic(1.0, 2.0, 1.0)


def test_poisson_involutivity():
    rng = random.Random(6)
    for _ in range(5):
        p = rj.random_phase_point(rng, 2)
        assert rj.involutivity_residual(p.x, p.Tx, T) < 1e-6


def test_involutivity_takes_one_gradient(monkeypatch):
    rng = random.Random(16)
    points = [rj.random_phase_point(rng, 2) for _ in range(4)]
    H1f = lambda xv, Tv: rj.hamiltonians(xv, Tv, T)[0]  # noqa: E731
    H2f = lambda xv, Tv: rj.hamiltonians(xv, Tv, T)[1]  # noqa: E731
    refs = [abs(rj.poisson_bracket(H1f, H2f, p.x, p.Tx)) for p in points]
    calls = []
    hamiltonians = rj.hamiltonians

    def counting(*args):
        calls.append(args)
        return hamiltonians(*args)

    monkeypatch.setattr(rj, "hamiltonians", counting)
    for p, ref in zip(points, refs):
        calls.clear()
        assert rj.involutivity_residual(p.x, p.Tx, T) == ref
        # 4 stencil points for each of 2 momenta and 2 coordinates, one call each
        assert len(calls) == 16


def test_weyl_bracket_on_coordinates():
    # sanity of the finite-difference bracket on the defining pairs
    rng = random.Random(9)
    p = rj.random_phase_point(rng, 2)
    f = lambda x, Tx: Tx[0]  # noqa: E731
    g = lambda x, Tx: x[0]  # noqa: E731
    br = rj.poisson_bracket(f, g, p.x, p.Tx)
    assert abs(br - (-1j * p.Tx[0] * p.x[0])) < 1e-8
    g2 = lambda x, Tx: x[1]  # noqa: E731
    assert abs(rj.poisson_bracket(f, g2, p.x, p.Tx)) < 1e-8


def test_canonicity_and_richardson():
    rng = random.Random(10)
    for _ in range(3):
        p = rj.random_phase_point(rng, 2)
        rep = rj.canonicity_check(p.x, p.Tx, T, XI)
        assert rep["max"] < 1e-5
        assert rj.richardson_report(p.x, p.Tx, T, XI)["tested"]


def _canonicity_residuals_per_bracket(x, Tx, t, xi, h=1e-5):
    """Reference: each bracket from poisson_bracket on scalar component functions."""
    base = rj.separation_variables(x, Tx, t, xi)

    def component(idx):
        def fn(xv, Tv):
            data = rj.separation_variables(xv, Tv, t, xi, ref=base.y, check=False)
            return (*data.y, *data.Ty)[idx]

        return fn

    y1, y2, T1, T2 = (component(k) for k in range(4))
    residuals = {
        "y1_y2": abs(rj.poisson_bracket(y1, y2, x, Tx, h)),
        "Ty1_Ty2": abs(rj.poisson_bracket(T1, T2, x, Tx, h)),
        "Ty1_y2": abs(rj.poisson_bracket(T1, y2, x, Tx, h)),
        "Ty2_y1": abs(rj.poisson_bracket(T2, y1, x, Tx, h)),
    }
    for idx, (Tf, yf) in enumerate(((T1, y1), (T2, y2))):
        br = rj.poisson_bracket(Tf, yf, x, Tx, h)
        target = -1j * base.Ty[idx] * base.y[idx]
        residuals[f"Ty{idx + 1}_y{idx + 1}"] = abs(br - target) / max(abs(target), 1.0)
    return residuals


def test_canonicity_solves_each_stencil_point_once(monkeypatch):
    rng = random.Random(15)
    points = [rj.random_phase_point(rng, 2) for _ in range(3)]
    refs = [_canonicity_residuals_per_bracket(p.x, p.Tx, T, XI) for p in points]
    solves = []
    solve = rj.separation_variables

    def counting(*args, **kwargs):
        solves.append(args[:2])
        return solve(*args, **kwargs)

    monkeypatch.setattr(rj, "separation_variables", counting)
    for p, ref in zip(points, refs):
        solves.clear()
        rep = rj.canonicity_check(p.x, p.Tx, T, XI)
        # the base point, then 4 stencil points for each of 2 momenta and 2 coordinates
        assert len(solves) <= 17
        assert rep["residuals"] == ref
        assert list(rep["residuals"]) == list(ref)
        assert rep["max"] == max(ref.values())


def _suite_canonicity_points(seed=0):
    for name, _, _, args in suites._ruijsenaars_cases(DEFAULT_CONFIG, seed):
        if name.startswith("canonicity["):
            case_seed, t, xi_re, xi_im = args
            yield name, rj.random_phase_point(random.Random(case_seed), 2), t, complex(xi_re, xi_im)


def test_richardson_trend_is_tested_on_suite_points():
    # The trend is only checked where the coarse residual clears the floor.
    # At every canonicity point of the default suite it must, and halving
    # the step must show the stencil's fourth order (a factor near 16).
    for name, p, t, xi in _suite_canonicity_points():
        rep = rj.richardson_report(p.x, p.Tx, t, xi)
        assert rep["tested"], name
        assert 12.0 < rep["coarse"] / rep["fine"] < 20.0, (name, rep)


def test_richardson_catches_a_second_order_stencil(monkeypatch):
    def second_order(fn, x, Tx, h=1e-5):
        def diff(f):
            return (f(1) - f(-1)) / (2.0 * h)

        def scaled(v, j, k):
            out = list(v)
            out[j] = v[j] * math.exp(k * h)
            return out

        dP = [diff(lambda k: fn(x, scaled(Tx, j, k))) for j in range(len(x))]
        dX = [diff(lambda k: fn(scaled(x, j, k), Tx)) for j in range(len(x))]
        return dP, dX

    name, p, t, xi = next(_suite_canonicity_points())
    monkeypatch.setattr(rj, "log_gradient", second_order)
    with pytest.raises(TrendViolation):
        rj.richardson_report(p.x, p.Tx, t, xi)


def test_dilog_values():
    assert rj.dilog(0) == 0
    assert abs(rj.dilog(1) - math.pi ** 2 / 6) < 1e-12
    assert abs(rj.dilog(-1) + math.pi ** 2 / 12) < 1e-12
    z = 0.3
    assert abs(rj.dilog(z) + rj.dilog(-z) - rj.dilog(z * z) / 2) < 1e-12


def test_dilog_inversion_consistency():
    for z in (1.7 + 0.9j, -2.3 + 0.4j, 0.9 + 0.5j, -0.8 - 0.61j):
        lhs = rj.dilog(z) + rj.dilog(1 / z)
        rhs = -math.pi ** 2 / 6 - 0.5 * cmath.log(-z) ** 2
        assert abs(lhs - rhs) < 1e-12


def test_dilog_matches_mpmath_across_log_series_band():
    # On |z| = 1 no functional equation reaches |z| <= 0.75 for arg z in about
    # (0.76, 1.46); there dilog uses the log-series.  Points inside that band,
    # on both sides of it, and just inside the circle.
    mpmath = pytest.importorskip("mpmath")
    with mpmath.workdps(50):
        for r in (1.0, 0.999, 0.9, 0.78):
            for arg in (0.3, 0.7, 0.76, 0.8, 1.0, 1.1, 1.3, 1.46, 1.5, 2.0, 3.0):
                for sign in (1, -1):
                    z = cmath.rect(r, sign * arg)
                    ref = complex(mpmath.polylog(2, mpmath.mpc(z.real, z.imag)))
                    assert abs(rj.dilog(z) - ref) < 1e-14 * max(abs(ref), 1.0), z


def test_qsov_import_does_not_load_mpmath():
    code = "import sys, qsov.cli; assert 'mpmath' not in sys.modules"
    subprocess.run([sys.executable, "-c", code], check=True)


def test_canonicity_near_degenerate_separation_regression():
    # qsov verify ruijsenaars --seed 1645046173 drew this point as
    # canonicity[14]: the separation points nearly coincide, and the
    # second-order bracket stencil at h = 1e-6 left a residual of 3.1e-5.
    seed, i = 1645046173, 14
    assert suites.case_rj_canonicity(seed + i, 0.5, 0.7, 0.0) < 1e-5
    p = rj.random_phase_point(random.Random(seed + i), 2)
    data = rj.separation_variables(p.x, p.Tx, 0.5, 0.7)
    assert abs(data.y[0] - data.y[1]) < 0.12
    # Here all three coefficients of the separation quadratic are small, so
    # the points move fast although far apart; the old stencil left 1.9e-4.
    assert suites.case_rj_canonicity(43372, 0.5, 0.7, 0.0) < 1e-5
    # At both points a fixed coarse step of 1e-2 is far outside the
    # stencil's asymptotic regime (residual above 1); the step taken from
    # separation_scale is inside it.
    for rng_seed in (seed + i, 43372):
        p = rj.random_phase_point(random.Random(rng_seed), 2)
        assert rj.separation_scale(p.x, p.Tx, 0.5, 0.7) < 2e-2
        rep = rj.richardson_report(p.x, p.Tx, 0.5, 0.7)
        assert rep["tested"] and rep["coarse"] / rep["fine"] > 12.0


def test_generating_function_derivatives():
    rng = random.Random(11)
    for _ in range(4):
        p = rj.random_phase_point(rng, 2)
        rep = rj.generating_function_check(p.x, p.Tx, T, XI)
        assert rep["max"] < 1e-5
        assert rep["residuals"]["yp"] == 0.0


def test_gauge_conjugation_ratios():
    rng = random.Random(12)
    p = rj.random_phase_point(rng, 3)
    ytld = (0.3 * cmath.exp(0.5j), 0.45 * cmath.exp(-1.1j))
    rep = rj.gauge_ratio_report(p.x, 0.25, T, ytld)
    assert rep["max"] < 1e-10


def test_reduction_transport():
    rng = random.Random(13)
    for _ in range(4):
        p = rj.random_phase_point(rng, 3)
        rep = rj.reduction_map_report(p.x, (p.Tx[0], p.Tx[1]), T)
        assert rep["max"] < 1e-8


@pytest.mark.parametrize("name, case, args", [
    ("RJ_GENFUNC_TOL", suites.case_rj_genfunc, (0, 0.5, 0.7)),
    ("RJ_GAUGE_TOL", suites.case_rj_gauge, (0, 0.25, 0.5)),
    ("RJ_REDUCTION_TOL", suites.case_rj_reduction, (0, 0.5)),
])
def test_named_ruijsenaars_bounds_reach_their_checks(monkeypatch, name, case, args):
    assert case(*args) < getattr(suites, name)
    monkeypatch.setattr(suites, name, 1e-300)
    with pytest.raises(ToleranceExceeded):
        case(*args)


def test_separation_check_tolerance_guard():
    rng = random.Random(14)
    p = rj.random_phase_point(rng, 2)
    with pytest.raises(ToleranceExceeded):
        rj.separation_variables(p.x, p.Tx, T, XI, tol=1e-30)
