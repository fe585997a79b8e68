"""Classical trigonometric n-particle model: Lax matrices, separation data,
canonicity tests, and the dilogarithm generating function.

All computations are complex double precision.  Poisson brackets are taken
with multiplicative (Weyl-type) canonical pairs, so finite differences act
on the logarithms of the coordinates and momenta.
"""

from __future__ import annotations

import cmath
import math
from dataclasses import dataclass
from fractions import Fraction
from functools import lru_cache
from itertools import combinations

import numpy as np

from .errors import (
    CollisionError,
    DegenerateRoots,
    PoleError,
    ToleranceExceeded,
    TrendViolation,
)
from .numkernel import qprod_inf

_PI2_6 = math.pi ** 2 / 6.0


@dataclass(frozen=True)
class PhasePoint:
    """Unit-modulus coordinates with positive multiplicative momenta."""

    x: tuple
    Tx: tuple

    def __post_init__(self):
        if len(self.x) != len(self.Tx):
            raise ValueError("coordinate and momentum counts differ")
        for xv in self.x:
            if abs(abs(xv) - 1.0) > 1e-12:
                raise ValueError(f"|x| must be 1, got {xv}")
        for tv in self.Tx:
            if not tv > 0:
                raise ValueError("momenta must be positive")

    @property
    def n(self) -> int:
        return len(self.x)


@dataclass(frozen=True)
class SeparationData:
    y: tuple
    Ty: tuple


def v_factor(xj: complex, xk: complex, t: float) -> complex:
    st = math.sqrt(t)
    den = xj - xk
    if abs(den) < 1e-12 * max(abs(xj), abs(xk)):
        raise CollisionError(f"coordinates too close: {xj} vs {xk}")
    return (st * xj - xk / st) / den


def hamiltonians(x, Tx, t: float):
    """Subset-product integrals of motion H_1..H_n."""
    n = len(x)
    out = []
    for i in range(1, n + 1):
        total = 0.0 + 0.0j
        for subset in combinations(range(n), i):
            inside = set(subset)
            prod = 1.0 + 0.0j
            for j in subset:
                prod *= Tx[j]
                for k in range(n):
                    if k not in inside:
                        prod *= v_factor(x[j], x[k], t)
            total += prod
        out.append(total)
    return out


def lax_matrix(x, Tx, t: float, u: complex) -> np.ndarray:
    """Product form D(u) E(u) of the n-particle Lax matrix."""
    n = len(x)
    tn = t ** n
    if abs(u - 1.0) < 1e-12 or abs(u - tn) < 1e-12:
        raise PoleError(f"spectral parameter {u} sits on a pole")
    for j in range(n):
        for k in range(n):
            if j != k and abs(t * x[j] - x[k]) < 1e-12:
                raise PoleError("t x_j collides with x_k")
    dcoef = (1.0 - t) * (tn - u) / (2.0 * t ** ((n + 1) / 2.0) * (1.0 - u))
    L = np.empty((n, n), dtype=complex)
    for j in range(n):
        dj = dcoef * Tx[j]
        for i in range(n):
            if i != j:
                dj *= v_factor(x[j], x[i], t)
        for k in range(n):
            e_jk = (tn + u) / (tn - u) - (t * x[j] + x[k]) / (t * x[j] - x[k])
            L[j, k] = dj * e_jk
    return L


def char_poly_residual(x, Tx, t: float, u: complex, z: complex) -> float:
    """Relative residual of the characteristic-polynomial identity."""
    n = len(x)
    tn = t ** n
    L = lax_matrix(x, Tx, t, u)
    H = hamiltonians(x, Tx, t)
    lhs = (
        (-1.0) ** n
        * t ** (n * (n - 1) / 2.0)
        * (tn - u)
        * (1.0 - u) ** n
        * np.linalg.det(z * np.eye(n) - L)
    )
    rhs = 0.0 + 0.0j
    scale = 0.0
    for k in range(n + 1):
        hk = 1.0 if k == n else H[n - k - 1]
        term = (
            (-1.0) ** k
            * t ** ((n - 1) * k / 2.0)
            * (t ** k - u)
            * (1.0 - u) ** k
            * (tn - u) ** (n - k)
            * hk
            * z ** k
        )
        rhs += term
        scale = max(scale, abs(term))
    return abs(lhs - rhs) / max(scale, 1.0)


# ---------------------------------------------------------------------------
# Separation variables for the two-particle system
# ---------------------------------------------------------------------------

def a_funcs(x, t: float, xi: complex, u: complex):
    """Normalization-dependent eigenvalue functions a_1(u), a_2(u)."""
    out = []
    for j in (0, 1):
        other = x[1 - j]
        den = (1.0 - u) * (t * xi - x[j]) * (xi * u - t * other)
        if abs(den) < 1e-14:
            raise PoleError(f"a_{j + 1} pole at u={u}")
        out.append((t ** 2 - u) * (xi - x[j]) * (xi * u - other) / den)
    return out


def _solve_separation_quadratic(a, b, c):
    disc = b * b - 4.0 * a * c
    scale = abs(b * b) + abs(4.0 * a * c)
    if abs(disc) < 1e-12 * max(scale, 1e-30):
        raise DegenerateRoots(f"discriminant {disc} too small")
    root = cmath.sqrt(disc)
    if abs(a) < 1e-14 * max(abs(b), abs(c), 1.0):
        raise DegenerateRoots("leading coefficient vanished; a root escaped to infinity")
    return ((-b + root) / (2.0 * a), (-b - root) / (2.0 * a))


def separation_variables(x, Tx, t: float, xi: complex, ref=None, check: bool = True,
                         tol: float = 1e-9) -> SeparationData:
    """Solve T1 a1(u) = T2 a2(u) for the two separation points and momenta.

    The cleared equation is a quadratic in u whose coefficients are coded
    explicitly, which stays robust near coincident roots.  When ref is
    given, roots are ordered to follow it (used by finite differencing).
    """
    x1, x2 = x
    A1 = Tx[0] * (xi - x1) * (t * xi - x2)
    A2 = Tx[1] * (xi - x2) * (t * xi - x1)
    qa = xi ** 2 * (A1 - A2)
    qb = -xi * (A1 * (x2 + t * x1) - A2 * (x1 + t * x2))
    qc = t * x1 * x2 * (A1 - A2)
    y1, y2 = _solve_separation_quadratic(qa, qb, qc)
    if ref is not None:
        if abs(y1 - ref[0]) + abs(y2 - ref[1]) > abs(y2 - ref[0]) + abs(y1 - ref[1]):
            y1, y2 = y2, y1
    ys = (y1, y2)
    a_at = [a_funcs(x, t, xi, y) for y in ys]
    Ty = tuple(Tx[0] * a_at[i][0] for i in range(2))
    if check:
        for i in range(2):
            alt = Tx[1] * a_at[i][1]
            if abs(alt - Ty[i]) > tol * max(abs(Ty[i]), 1.0):
                raise ToleranceExceeded(f"eigenvalue branch mismatch at root {ys[i]}")
        constraint = abs(ys[0] * ys[1] * xi ** 2 - t * x1 * x2)
        if constraint > tol:
            raise ToleranceExceeded(f"product constraint residual {constraint}")
        H1, H2 = hamiltonians(x, Tx, t)
        for y, T in zip(ys, Ty):
            res = separation_equation_residual(y, T, H1, H2, t)
            if res > tol:
                raise ToleranceExceeded(f"separation equation residual {res} at {y}")
    return SeparationData(y=ys, Ty=Ty)


def separation_equation_residual(y: complex, Ty: complex, H1: complex, H2: complex,
                                 t: float) -> float:
    st = math.sqrt(t)
    val = t * (1.0 - y) * Ty ** 2 - st * (t - y) * H1 * Ty + (t ** 2 - y) * H2
    scale = max(abs(t * (1.0 - y) * Ty ** 2), abs(st * (t - y) * H1 * Ty), 1.0)
    return abs(val) / scale


def char_eq_a_residual(x, t: float, xi: complex, u: complex) -> float:
    """The quadratic relation satisfied identically by a_1, a_2."""
    a1, a2 = a_funcs(x, t, xi, u)
    st = math.sqrt(t)
    v12 = v_factor(x[0], x[1], t)
    v21 = v_factor(x[1], x[0], t)
    val = (
        t * (1.0 - u) * a1 * a2
        - st * (t - u) * (v12 * a2 + v21 * a1)
        + (t ** 2 - u)
    )
    return abs(val)


def a_ratio_invariance_residual(x, t: float, xi: complex, u: complex) -> float:
    """a1/a2 is invariant under u -> t x1 x2 / (u xi^2)."""
    a1, a2 = a_funcs(x, t, xi, u)
    u2 = t * x[0] * x[1] / (u * xi ** 2)
    b1, b2 = a_funcs(x, t, xi, u2)
    return abs(a1 / a2 - b1 / b2)


def normalization_row(x, t: float, xi: complex, u: complex, n_ambient: int = 2):
    """Row vector normalizing the eigenvector of the 2x2 system.

    n_ambient is the particle count of the Lax matrix the row pairs with: 2,
    or 3 for the 2x2 block of the three-particle chain coupled at xi = x3.
    """
    tn = t ** n_ambient
    return np.array(
        [
            (tn + u) / (tn - u) - (t * xi + x[j]) / (t * xi - x[j])
            for j in (0, 1)
        ],
        dtype=complex,
    )


def _b_terms(alpha, L) -> tuple:
    """alpha_0 (alpha L)_1 and alpha_1 (alpha L)_0, whose difference is b(u)."""
    aL = alpha @ L
    return alpha[0] * aL[1], alpha[1] * aL[0]


def b_poly_value(x, Tx, t: float, xi: complex, u: complex) -> complex:
    """Determinant whose zeros are the separation points."""
    first, second = _b_terms(normalization_row(x, t, xi, u), lax_matrix(x, Tx, t, u))
    return first - second


# ---------------------------------------------------------------------------
# Poisson brackets by central differences in logarithmic coordinates
# ---------------------------------------------------------------------------

def log_gradient(fn, x, Tx, h: float = 1e-5):
    """Partial derivatives of fn(x, Tx) in ln T_j and in ln x_j.

    Fourth-order central differences with multiplicative steps exp(+-h),
    exp(+-2h), so the truncation error is O(h^4).  Returns (dP, dX).  fn may
    return a numpy array of components; each entry of dP and dX is then the
    array of their partial derivatives.
    """
    def scaled(v, j, k):
        out = list(v)
        out[j] = v[j] * math.exp(k * h)
        return out

    def diff(f):
        return (8.0 * (f(1) - f(-1)) - (f(2) - f(-2))) / (12.0 * h)

    dP = [diff(lambda k: fn(x, scaled(Tx, j, k))) for j in range(len(x))]
    dX = [diff(lambda k: fn(scaled(x, j, k), Tx)) for j in range(len(x))]
    return dP, dX


def _component_gradients(fn, x, Tx, h: float) -> list:
    """log_gradient of a vector-valued fn, as one (dP, dX) pair per component.

    fn returns its components as Python complex numbers in an object array,
    so the stencil does the same complex arithmetic on each of them as on a
    scalar function, and evaluates fn once per stencil point for all of them.
    """
    dP, dX = log_gradient(fn, x, Tx, h)
    return list(zip(zip(*dP), zip(*dX)))


def _bracket(FP, FX, GP, GX) -> complex:
    """{F, G} from the log-gradients (dP, dX) of F and of G."""
    return -1j * sum(FP[j] * GX[j] - FX[j] * GP[j] for j in range(len(FP)))


def poisson_bracket(F, G, x, Tx, h: float = 1e-5) -> complex:
    """{F, G} for the bracket {T_j, x_k} = -i T_j x_k delta_jk.

    F, G are callables of (x, Tx), differentiated by log_gradient.
    """
    return _bracket(*log_gradient(F, x, Tx, h), *log_gradient(G, x, Tx, h))


def _separation_vector(t: float, xi: complex, ref: SeparationData):
    """(y1, y2, Ty1, Ty2) at (x, Tx), roots ordered to follow ref, from one solve."""
    def fn(x, Tx):
        data = separation_variables(x, Tx, t, xi, ref=ref.y, check=False)
        return np.array([*data.y, *data.Ty], dtype=object)

    return fn


def canonicity_check(x, Tx, t: float, xi: complex, h: float = 1e-5,
                      tol: float = 1e-5) -> dict:
    """All pairwise brackets of the separation data against the Weyl pattern.

    Where the separation quadratic is close to degenerate, the separation
    points move fast with the coordinates.  A second-order difference there
    needs a step so small that rounding takes over; poisson_bracket's
    fourth-order stencil keeps such points inside tol at h = 1e-5.
    The four components share one log_gradient, so each stencil point is
    solved once for all six brackets.
    """
    base = separation_variables(x, Tx, t, xi)
    y1, y2, T1, T2 = _component_gradients(_separation_vector(t, xi, base), x, Tx, h)
    residuals = {
        "y1_y2": abs(_bracket(*y1, *y2)),
        "Ty1_Ty2": abs(_bracket(*T1, *T2)),
        "Ty1_y2": abs(_bracket(*T1, *y2)),
        "Ty2_y1": abs(_bracket(*T2, *y1)),
    }
    for idx, (Tf, yf) in enumerate(((T1, y1), (T2, y2))):
        br = _bracket(*Tf, *yf)
        target = -1j * base.Ty[idx] * base.y[idx]
        residuals[f"Ty{idx + 1}_y{idx + 1}"] = abs(br - target) / max(abs(target), 1.0)
    worst = max(residuals.values())
    report = {"residuals": residuals, "max": worst, "tol": tol, "h": h}
    if worst > tol:
        raise ToleranceExceeded(f"canonical brackets fail: {report}")
    return report


def separation_scale(x, Tx, t: float, xi: complex) -> float:
    """Log-coordinate distance over which the two separation points could meet.

    |y1 - y2| over the largest partial derivative of y1 - y2 in ln T_j and
    ln x_j.  The separation data is analytic in a polydisk of about this
    radius, so a difference stencil is in its asymptotic regime only for
    steps well below it.  It is small where the separation quadratic is
    close to degenerate: a near-double root, or roots that move fast.
    """
    base = separation_variables(x, Tx, t, xi)

    def gap(xv, Tv):
        y = separation_variables(xv, Tv, t, xi, ref=base.y, check=False).y
        return y[0] - y[1]

    dP, dX = log_gradient(gap, x, Tx)
    slope = max(abs(d) for d in dP + dX)
    return abs(base.y[0] - base.y[1]) / slope if slope > 0.0 else math.inf


def richardson_report(x, Tx, t: float, xi: complex) -> dict:
    """Halving the step must cut the truncation-dominated residuals 8-fold.

    poisson_bracket's stencil is fourth order, so in its asymptotic regime
    a halving divides the residual by 16.  The coarse step is
    min(2e-2, 0.03 * separation_scale).  On random_phase_point draws the
    coarse residual then lies between 5e-9 and 0.5, far above the 1e-10 floor
    and rounding, and the step stays in that regime at nearly degenerate
    points.  The report's "tested" says whether the coarse residual cleared
    the floor.
    """
    h = min(2e-2, 0.03 * separation_scale(x, Tx, t, xi))

    def max_residual(step):
        return canonicity_check(x, Tx, t, xi, h=step, tol=math.inf)["max"]

    e0 = max_residual(h)
    e1 = max_residual(h / 2.0)
    report = {"coarse": e0, "fine": e1, "h": h, "tested": e0 > 1e-10}
    if report["tested"] and not (e1 <= e0 / 8.0):
        raise TrendViolation(f"step halving did not improve brackets: {report}")
    return report


def involutivity_residual(x, Tx, t: float) -> float:
    """|{H1, H2}| at step 1e-5, with H1 and H2 from one hamiltonians call per stencil point.

    Equal to abs(poisson_bracket) of the two scalar functions, bit for bit.
    """
    def h12(xv, Tv):
        return np.array(hamiltonians(xv, Tv, t)[:2], dtype=object)

    H1, H2 = _component_gradients(h12, x, Tx, 1e-5)
    return abs(_bracket(*H1, *H2))


# ---------------------------------------------------------------------------
# Dilogarithm and the generating function
# ---------------------------------------------------------------------------

def dilog(z: complex) -> complex:
    """Euler dilogarithm sum z^k/k^2, continued by the standard functional
    equations (inversion, reflection, Landen) away from the small disk."""
    z = complex(z)
    if z == 0:
        return 0.0 + 0.0j
    if z == 1:
        return complex(_PI2_6)
    if abs(z) <= 0.75:
        return _dilog_series(z)
    if abs(z) > 1.0:
        return -_PI2_6 - 0.5 * cmath.log(-z) ** 2 - dilog(1.0 / z)
    if abs(1.0 - z) <= 0.75:
        return _PI2_6 - cmath.log(z) * cmath.log(1.0 - z) - dilog(1.0 - z)
    w = z / (z - 1.0)
    if abs(w) <= 0.75:
        return -0.5 * cmath.log(1.0 - z) ** 2 - dilog(w)
    return _dilog_log_series(cmath.log(z))


def _dilog_series(z: complex, tol: float = 1e-17) -> complex:
    """sum z^k / k^2 for |z| <= 0.75 (at most about 100 terms)."""
    total = 0.0 + 0.0j
    term = z
    k = 1
    while True:
        total += term / k ** 2
        k += 1
        term *= z
        if abs(term) / k ** 2 < tol:
            return total


def _dilog_log_series(u: complex) -> complex:
    """Li2(exp(u)) by its expansion about z = 1, convergent for |u| < 2 pi.

    Li2(e^u) = pi^2/6 + u (1 - log(-u)) - u^2/4 + sum_m a_m u^(2m+1) with
    a_m = -B_2m / (2m (2m+1)!), which falls like (2 pi)^(-2m).  The 20 terms
    kept reach double precision for |u| < 2.3.  dilog sends here only the
    band 0.75 < |z| <= 1 that no functional equation maps into |z| <= 0.75,
    where |u| < 1.5.
    """
    u2 = u * u
    total = _PI2_6 + u * (1.0 - cmath.log(-u)) - 0.25 * u2
    power = u
    for a in _dilog_log_coefficients():
        power *= u2
        total += a * power
    return total


@lru_cache(maxsize=None)
def _dilog_log_coefficients() -> tuple:
    """a_m = -B_2m / (2m (2m+1)!) for m = 1..20, from exact Bernoulli numbers."""
    # Akiyama-Tanigawa: after step n, row[0] is the Bernoulli number B_n.
    bern = []
    row = []
    for n in range(41):
        row.append(Fraction(1, n + 1))
        for j in range(n, 0, -1):
            row[j - 1] = j * (row[j - 1] - row[j])
        bern.append(row[0])
    return tuple(
        float(-bern[2 * m] / (2 * m * math.factorial(2 * m + 1))) for m in range(1, 21)
    )


def dilog_quad(nu: complex, x: complex, y: complex) -> complex:
    """Four-argument combination entering the generating function."""
    return (
        dilog(nu * x * y)
        + dilog(nu * x / y)
        + dilog(nu * y / x)
        + dilog(nu / (x * y))
    )


def f_generating(y_minus: complex, x_minus: complex, x_plus: complex, t: float,
                 xi: complex) -> complex:
    """Reduced generating function of the separating canonical map."""
    st = math.sqrt(t)
    w = x_plus / (st * xi)
    return (
        1j
        * (
            dilog_quad(st, y_minus, x_minus)
            + dilog_quad(st, w, x_minus)
            - dilog_quad(t, w, y_minus)
        )
        - 1j * dilog(x_minus ** 2)
        - 1j * dilog(x_minus ** -2)
    )


def _branch_reduce(delta: complex):
    k = round(delta.real / (2.0 * math.pi))
    return delta - 2.0 * math.pi * k, k


def generating_function_check(x, Tx, t: float, xi: complex, h: float = 1e-5,
                               tol: float = 1e-5) -> dict:
    """Central-difference check of the four derivative equations.

    The logarithms fix branches only up to 2*pi shifts, so each residual is
    reduced modulo 2*pi on its real part and the integer offsets are
    recorded alongside the residuals.
    """
    data = separation_variables(x, Tx, t, xi)
    x1, x2 = x
    st = math.sqrt(t)
    x_plus = cmath.exp(0.5 * (cmath.log(x1) + cmath.log(x2)))
    x_minus = cmath.exp(0.5 * (cmath.log(x1) - cmath.log(x2)))
    y_plus = st * x_plus / xi  # the coupling constraint fixes this square root
    if abs(y_plus ** 2 - data.y[0] * data.y[1]) > 1e-8:
        raise ToleranceExceeded("square-root branch inconsistent with the constraint")
    y_minus = data.y[0] / y_plus
    Txp = Tx[0] * Tx[1]
    Txm = Tx[0] / Tx[1]
    Typ = data.Ty[0] * data.Ty[1]
    Tym = data.Ty[0] / data.Ty[1]

    def dlog(which):
        def f(ym=y_minus, xm=x_minus, xp=x_plus):
            return f_generating(ym, xm, xp, t, xi)

        up, dn = cmath.exp(h), cmath.exp(-h)
        if which == "xp":
            return (f(xp=x_plus * up) - f(xp=x_plus * dn)) / (2.0 * h)
        if which == "xm":
            return (f(xm=x_minus * up) - f(xm=x_minus * dn)) / (2.0 * h)
        return (f(ym=y_minus * up) - f(ym=y_minus * dn)) / (2.0 * h)

    checks = {
        "xp": (dlog("xp"), 1j * cmath.log(Txp / Typ)),
        "xm": (dlog("xm"), 1j * cmath.log(Txm)),
        "ym": (dlog("ym"), -1j * cmath.log(Tym)),
    }
    residuals = {}
    branches = {}
    for name, (lhs, rhs) in checks.items():
        reduced, k = _branch_reduce(lhs - rhs)
        residuals[name] = abs(reduced)
        branches[name] = k
    residuals["yp"] = 0.0  # the reduced function has no dependence left
    worst = max(residuals.values())
    report = {"residuals": residuals, "branches": branches, "max": worst, "tol": tol}
    if worst > tol:
        raise ToleranceExceeded(f"generating-function derivatives fail: {report}")
    return report


# ---------------------------------------------------------------------------
# Gauge functions and the reduction from the three-particle chain
# ---------------------------------------------------------------------------

def gauge_x(x, q: float, t: float) -> complex:
    x1, x2, x3 = x
    num = qprod_inf(t, q) * qprod_inf(t * x1 / x3, q) * qprod_inf(t * x2 / x3, q)
    den = qprod_inf(t ** 2, q) * qprod_inf(x1 / x3, q) * qprod_inf(x2 / x3, q)
    return num / den


def gauge_y(ytld, t: float, q: float) -> complex:
    y1, y2 = ytld
    num = qprod_inf(t ** 2, q) * qprod_inf(y1, q) * qprod_inf(y2, q)
    den = qprod_inf(t ** 3, q) * qprod_inf(y1 / t, q) * qprod_inf(y2 / t, q)
    return num / den


def gauge_ratio_report(x, q: float, t: float, ytld, tol: float = 1e-10) -> dict:
    """Telescoping of both gauge functions under a single q-shift."""
    worst = 0.0
    base_x = gauge_x(x, q, t)
    for j in (0, 1):
        shifted = list(x)
        shifted[j] = q * x[j]
        ratio = base_x / gauge_x(shifted, q, t)
        target = (1.0 - t * x[j] / x[2]) / (1.0 - x[j] / x[2])
        worst = max(worst, abs(ratio - target))
    base_y = gauge_y(ytld, t, q)
    for j in (0, 1):
        shifted = list(ytld)
        shifted[j] = q * ytld[j]
        ratio = base_y / gauge_y(shifted, t, q)
        target = (1.0 - ytld[j]) / (1.0 - ytld[j] / t)
        worst = max(worst, abs(ratio - target))
    report = {"max": worst, "tol": tol}
    if worst > tol:
        raise ToleranceExceeded(f"gauge conjugation ratios fail: {report}")
    return report


def reduction_map_report(x3amb, Ttld, t: float, tol: float = 1e-8) -> dict:
    """Transport of the two-particle separation data into the reduced chain.

    The two-particle system with coupling point x3 and rescaled momenta is
    solved directly; the mapped points t*y must be zeros of the reduced
    normalization determinant and the mapped momenta must match both
    eigenvalue branches there.
    """
    x1, x2, x3 = x3amb
    st = math.sqrt(t)
    Tx = [st * v_factor(x1, x3, t) * Ttld[0], st * v_factor(x2, x3, t) * Ttld[1]]
    data = separation_variables((x1, x2), Tx, t, xi=x3)
    worst = 0.0
    details = []
    for y, Ty in zip(data.y, data.Ty):
        ytld = t * y
        Tytld = Ty * (st - ytld / st) / (st * (1.0 - ytld))
        # rows 0 and 1 of the Lax matrix read only the first two momenta
        L = lax_matrix(x3amb, (*Ttld, 1.0), t, ytld)[:2, :2]
        alpha = normalization_row((x1, x2), t, x3, ytld, n_ambient=3)
        first, second = _b_terms(alpha, L)
        res_b = abs(first - second) / max(abs(first), abs(second), 1.0)
        v1 = L[0, 0] - (alpha[0] / alpha[1]) * L[0, 1]
        v2 = L[1, 1] - (alpha[1] / alpha[0]) * L[1, 0]
        res_T = max(abs(v1 - Tytld), abs(v2 - Tytld)) / max(abs(Tytld), 1.0)
        details.append({"b_residual": res_b, "momentum_residual": res_T})
        worst = max(worst, res_b, res_T)
    report = {"details": details, "max": worst, "tol": tol}
    if worst > tol:
        raise ToleranceExceeded(f"reduction map fails: {report}")
    return report


# ---------------------------------------------------------------------------
# Sampling helpers
# ---------------------------------------------------------------------------

def random_phase_point(rng, n: int = 2) -> PhasePoint:
    """Generic point with angular gaps above 0.25 and moderate momenta."""
    while True:
        angles = sorted(rng.uniform(-math.pi + 0.1, math.pi - 0.1) for _ in range(n))
        if all(b - a > 0.25 for a, b in zip(angles, angles[1:])):
            break
    x = tuple(cmath.exp(1j * a) for a in angles)
    Tx = tuple(rng.uniform(0.5, 2.0) for _ in range(n))
    return PhasePoint(x=x, Tx=Tx)


def hermitian_phase_point(rng, n: int = 3) -> PhasePoint:
    """Conjugation-symmetric configuration, on which the integrals are real."""
    if n != 3:
        raise ValueError("only 3-particle symmetric samples are provided")
    theta = rng.uniform(0.4, 2.5)
    T = rng.uniform(0.5, 2.0)
    T3 = rng.uniform(0.5, 2.0)
    return PhasePoint(
        x=(cmath.exp(1j * theta), cmath.exp(-1j * theta), 1.0 + 0.0j),
        Tx=(T, T, T3),
    )
