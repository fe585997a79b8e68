"""Unit-circle quadrature engine for the kernel identities.

Everything here is plain double precision.  Integrands are smooth and
periodic on |x| = 1, so the uniform trapezoid rule converges spectrally.
Kernel parameters are required to stay strictly inside the unit disk (the
undeformed contour); anything else raises ContourUnsupported.

Two routines evaluate q-products, each for one input form.  qprod_inf is
the product loop for a scalar, in plain complex arithmetic: the closed forms
and aw_weight, _weight_circle, psi_power and lambda_q at a point off the
node grid.  It stops once |a| q^K is below cfg.prod_cutoff.

qprod_nodes builds every weight and kernel on the node grid
x = unit_nodes(n), in the log domain.  It uses the expansion
log (a; q)_inf = -sum_{m >= 1} a^m / (m (1 - q^m)) for |a| < 1.  The
factors with |c q^k| > 1/2, which carry the zeros on the grid, are
multiplied in directly.  For the rest, with c' of modulus at most 1/2, the
series stops at the first M with |c'|^M <= cfg.prod_cutoff (1 - q): the
terms left out are then below the cutoff times 2 / (M + 1).  Rounding
grows as 1 / (1 - q): the moduli of the terms add up to at most
2 ln 2 / (1 - q) per pair, and an absolute error in the logarithm is a
relative error in the product.  The suites use q <= 0.4 on the grid.
Against the product loop, the relative error (scaled by the distance of
each factor from zero) is about 4e-15 at q = 0.3 and 3e-14 at q = 0.9.
The quadrature route and the closed forms thus share no product code.

A quadrature against an exact input reads its coefficients against the
kernel's DFT moments mean(kern x^-k), one FFT per kernel, since x^k on the
grid depends only on k mod n.  qprod_ratio takes stacked pairs, and its
scratch stays at _RATIO_BLOCK factors.
"""

from __future__ import annotations

import cmath
import math
from dataclasses import dataclass, replace
from functools import lru_cache
from itertools import product

import numpy as np
from numpy.lib.stride_tricks import sliding_window_view

from .errors import ContourUnsupported, ToleranceExceeded, TrendViolation
from .numconfig import NumericConfig

DEFAULT_CONFIG = NumericConfig()


@dataclass(frozen=True)
class AWParams:
    a: complex
    b: complex
    c: complex
    d: complex

    def __post_init__(self):
        if max(abs(self.a), abs(self.b), abs(self.c), abs(self.d)) >= 1.0:
            raise ContourUnsupported("weight parameters must lie inside the unit disk")

    def as_tuple(self):
        return (self.a, self.b, self.c, self.d)


def _trunc_order(a_max: float, q: float, cutoff: float) -> int:
    if a_max == 0.0:
        return 1
    if q <= 0 or q >= 1:
        raise ValueError("base must satisfy 0 < q < 1")
    k = int(math.ceil(math.log(cutoff / max(a_max, cutoff)) / math.log(q))) + 2
    return max(k, 1)


def qprod_inf(a, q: float, cfg: NumericConfig = DEFAULT_CONFIG) -> complex:
    """(a; q)_inf for a scalar a, truncated at |a| q^K < prod_cutoff.

    A plain complex loop; complex() refuses an array, whose node-grid
    products are qprod_nodes' work.
    """
    a = complex(a)
    K = _trunc_order(abs(a), q, cfg.prod_cutoff)
    out = 1.0 + 0.0j
    qk = 1.0
    for _ in range(K):
        out *= 1.0 - a * qk
        qk *= q
    return out


def qpoch_n(a, q: float, n: int):
    """Finite (a; q)_n, n >= 0: a complex for a scalar a, an array for an array a.

    One expression serves both, so a scalar runs plain complex arithmetic; (a; q)_0 is 1.
    """
    out = 1.0 + 0.0j
    for k in range(n):
        out = out * (1.0 - a * q ** k)
    return out


#: Factors per numpy block of qprod_ratio over all rows; bounds its scratch to a few kB.
_RATIO_BLOCK = 1024


def qprod_ratio(a, b, q: float, cfg: NumericConfig = DEFAULT_CONFIG) -> complex:
    """prod_i (a_i;q)_inf / (b_i;q)_inf for equal-length sequences (or scalars) a, b.

    A product of factor ratios, stable when the products overflow (large
    arguments, q near 1).  K comes from the largest modulus; each block of
    running powers q^k serves every pair, a row each, with _RATIO_BLOCK
    factors over all rows and at least one per row.  Ratios are multiplied
    row by row in order, so one real pair gives the factor-by-factor loop's
    result to the last bit.
    """
    a, b = np.reshape(a, (-1, 1)), np.reshape(b, (-1, 1))
    K = _trunc_order(float(max(abs(a).max(), abs(b).max())), q, cfg.prod_cutoff)
    width = max(1, _RATIO_BLOCK // len(a))
    steps = np.full(min(width, K), q)
    out = 1.0 + 0.0j
    qk = 1.0
    for start in range(0, K, width):
        steps[0] = qk
        qks = steps[:K - start].cumprod()
        den = 1.0 - b * qks
        if not den.all():
            raise ContourUnsupported("pole in product ratio")
        out = complex(((1.0 - a * qks) / den).prod(dtype=complex, initial=out))
        qk = qks[-1] * q
    return out


def lambda_ratio(nu: complex, r: complex, y1: complex, y2: complex, q: float,
                 cfg: NumericConfig = DEFAULT_CONFIG) -> complex:
    """Four-fold product ratio Lambda(nu; r, y1) / Lambda(nu; r, y2), as one qprod_ratio call."""
    a, b = ([nu * r * y, nu * r / y, nu * y / r, nu / (r * y)] for y in (y1, y2))
    return qprod_ratio(a, b, q, cfg)


def lambda_q(nu: complex, x, y, q: float, cfg: NumericConfig = DEFAULT_CONFIG):
    """Four-fold product (nu*x*y, nu*x/y, nu*y/x, nu/(x*y); q)_inf."""
    return (
        qprod_inf(nu * x * y, q, cfg)
        * qprod_inf(nu * x / y, q, cfg)
        * qprod_inf(nu * y / x, q, cfg)
        * qprod_inf(nu / (x * y), q, cfg)
    )


def b_q(a: float, b: float, q: float, cfg: NumericConfig = DEFAULT_CONFIG) -> complex:
    """Beta-type normalizer (1-q)(q, q^(a+b); q)_inf / ((q^a, q^b; q)_inf)."""
    return (
        (1.0 - q)
        * qprod_inf(q, q, cfg)
        * qprod_inf(q ** (a + b), q, cfg)
        / (qprod_inf(q ** a, q, cfg) * qprod_inf(q ** b, q, cfg))
    )


def gamma_q(x: float, q: float, cfg: NumericConfig = DEFAULT_CONFIG) -> complex:
    """q-gamma normalized so that b_q(a,b) = gamma_q(a) gamma_q(b) / gamma_q(a+b)."""
    return qprod_inf(q, q, cfg) * (1.0 - q) ** (1.0 - x) / qprod_inf(q ** x, q, cfg)


@lru_cache(maxsize=8)
def unit_nodes(n: int) -> np.ndarray:
    """The n-point node grid exp(2 pi i j / n), j < n, built once per n and read-only."""
    x = np.exp(2j * np.pi * np.arange(n) / n)
    x.flags.writeable = False
    return x


#: Factors 1 - c q^k of modulus above this are multiplied in directly by
#: qprod_nodes; the rest go through the logarithm's power series.
_HEAD_MODULUS = 0.5


def qprod_nodes(n: int, q: float, num=(), den=(), cfg: NumericConfig = DEFAULT_CONFIG):
    """prod (c x^p, c x^-p; q)_inf over num divided by the same over den, on x = unit_nodes(n).

    num and den are sequences of (c, p) with p a positive int.  The factors
    1 - c q^k x^(+-p) with |c q^k| > 1/2 are multiplied in directly, with
    x^p read from the grid by index and x^-p as its conjugate, so a zero on
    the grid (c = 1 at x^p = 1) is exactly zero.  With c' the first c q^k of modulus at most
    1/2, the rest of the pair is exp(-sum_m c'^m (x^(pm) + x^(-pm)) /
    (m (1 - q^m))), summed to the M of the module docstring for the
    largest |c'|.  Every term of every factor falls into bin pm mod n of
    one array, since x^k depends only on k mod n on the grid; one inverse
    FFT gives the whole logarithm at the n nodes, and one exp the product.
    Each pair is unchanged by x -> 1/x, which takes node j to node n - j,
    so the exp and the direct factors run on the nodes j <= n/2 and the
    rest is their mirror image.
    """
    if not (0 < q < 1):
        raise ValueError("base must satisfy 0 < q < 1")
    h = n // 2 + 1
    half = np.ones(h, dtype=complex)
    tails = []  # (c', p, sign) summed in the log
    for factors, sign in ((num, 1.0), (den, -1.0)):
        for c, p in factors:
            c = complex(c)
            if abs(c) > _HEAD_MODULUS:
                z = unit_nodes(n)[(p * np.arange(h)) % n]
                while abs(c) > _HEAD_MODULUS:
                    pair = (1.0 - c * z) * (1.0 - c * z.conj())
                    half = half * pair if sign > 0 else half / pair
                    c *= q
            if c:
                tails.append((c, p, sign))
    if tails:
        cs, ps, signs = (np.array(col) for col in zip(*tails))
        c_max = max(abs(c) for c, _, _ in tails)
        M = max(1, math.ceil(math.log(cfg.prod_cutoff * (1.0 - q)) / math.log(c_max)))
        m = np.arange(1, M + 1)
        powers = np.cumprod(np.broadcast_to(cs[:, None], (len(cs), M)), axis=1)
        terms = ((-signs[:, None] / (m * (1.0 - q ** m))) * powers).ravel()
        # bin the x^(pm) terms only: the x^(-pm) terms add the same sum read at node -j
        bins = ((ps[:, None] * m) % n).ravel()
        log_coeffs = np.bincount(bins, terms.real, n) + 1j * np.bincount(bins, terms.imag, n)
        logs = np.fft.ifft(log_coeffs, norm="forward")
        half = half * np.exp(logs[:h] + np.concatenate((logs[:1], logs[:n - h:-1])))
    return np.concatenate((half, half[n - h:0:-1]))


def aw_weight(x, params: AWParams, q: float, cfg: NumericConfig = DEFAULT_CONFIG) -> complex:
    """w(x; a, b, c, d): reflexive weight whose circle integral has a closed form."""
    num = qprod_inf(x ** 2, q, cfg) * qprod_inf(x ** -2, q, cfg)
    den = 1.0 + 0.0j
    for z in params.as_tuple():
        den = den * qprod_inf(z * x, q, cfg) * qprod_inf(z / x, q, cfg)
    return num / den


def aw_closed_form(params: AWParams, q: float, cfg: NumericConfig = DEFAULT_CONFIG) -> complex:
    a, b, c, d = params.as_tuple()
    num = 2.0 * qprod_inf(a * b * c * d, q, cfg)
    den = qprod_inf(q, q, cfg)
    for pair in (a * b, a * c, a * d, b * c, b * d, c * d):
        den = den * qprod_inf(pair, q, cfg)
    return complex(num / den)


def aw_weight_on_nodes(n: int, params: AWParams, q: float, cfg: NumericConfig = DEFAULT_CONFIG):
    """aw_weight on the node grid x = unit_nodes(n), as one qprod_nodes call."""
    return qprod_nodes(n, q, [(1.0, 2)], [(z, 1) for z in params.as_tuple()], cfg)


def aw_integral_report(params_seq, q: float, cfg: NumericConfig = DEFAULT_CONFIG) -> dict:
    """Circle integrals of several weights at one q, each checked against its closed form.

    Each weight is one qprod_nodes call; every closed form is evaluated
    once.  "values" and "errs" follow the order of params_seq.
    """
    if not (0 < q < 1):
        raise ContourUnsupported("base must satisfy 0 < q < 1")
    values = [complex(np.mean(aw_weight_on_nodes(cfg.quad_points, params, q, cfg)))
              for params in params_seq]
    errs = []
    for params, quad in zip(params_seq, values):
        closed = aw_closed_form(params, q, cfg)
        err = abs(quad - closed) / max(abs(closed), 1e-300)
        if err > cfg.tol_tight:
            raise ToleranceExceeded(
                f"circle integral {quad} vs closed form {closed} (rel err {err:.3e})"
            )
        errs.append(err)
    return {"values": values, "errs": errs, "max_err": max(errs, default=0.0),
            "tol": cfg.tol_tight}


def aw_convergence_report(params: AWParams, q: float, cfg: NumericConfig = DEFAULT_CONFIG) -> dict:
    """Error vs node count must improve at least 4x per doubling until roundoff."""
    closed = aw_closed_form(params, q, cfg)
    errors = []
    n = 8
    while n <= 256:
        quad = complex(np.mean(aw_weight_on_nodes(n, params, q, cfg)))
        errors.append(abs(quad - closed) / abs(closed))
        n *= 2
    ratios = []
    for e0, e1 in zip(errors, errors[1:]):
        if e0 < 1e-12:
            break
        ratios.append(e0 / max(e1, 1e-300))
    if len(ratios) < 2 or any(r < 4.0 for r in ratios):
        raise ToleranceExceeded(f"spectral convergence not observed: errors {errors}")
    return {"errors": errors, "ratios": ratios}


# ---------------------------------------------------------------------------
# The two-parameter kernel operator
# ---------------------------------------------------------------------------

def _check_disk(*values):
    """Raise unless every entry of every (scalar or array) value lies inside |z| < 1."""
    worst = max(float(np.max(np.abs(v))) for v in values)
    if worst >= 1.0:
        raise ContourUnsupported(
            f"kernel parameters of modulus up to {worst:.6g} leave the unit disk; "
            "deformation unsupported"
        )


def kern_mab(r: complex, y: complex, n: int, alpha: float, beta: float, q: float,
             cfg: NumericConfig = DEFAULT_CONFIG):
    """Kernel of the two-parameter integral operator at output point y, on x = unit_nodes(n).

    Its x-dependent factors are one qprod_nodes call.
    """
    qa = q ** (alpha / 2.0)
    qb = q ** (beta / 2.0)
    _check_disk(qa * y, qa / y, qb * r, qb / r)
    qq = qprod_inf(q, q, cfg)
    head = (
        (1.0 - q)
        * qq ** 2
        * lambda_q(q ** ((alpha + beta) / 2.0), r, y, q, cfg)
        / (2.0 * b_q(alpha, beta, q, cfg))
    )
    nodes = qprod_nodes(n, q, [(1.0, 2)], [(qa * y, 1), (qa / y, 1), (qb * r, 1), (qb / r, 1)], cfg)
    return head * nodes


def apply_Mab_numeric(fs, alpha: float, beta: float, r: complex, y: complex, q: float,
                      cfg: NumericConfig = DEFAULT_CONFIG) -> list:
    """Quadrature values of the two-parameter operator applied to reflexive inputs.

    fs is a sequence of callables on the node array.  The kernel does not
    depend on the input, so it is built once; the values come back in the
    order of fs.
    """
    x = unit_nodes(cfg.quad_points)
    kern = kern_mab(r, y, cfg.quad_points, alpha, beta, q, cfg)
    return [complex(np.mean(kern * f(x))) for f in fs]


def r_factor(j1: int, j2: int, k1: int, k2: int, alpha: float, beta: float,
             r: complex, y: complex, x, q: float):
    """Finite-product eigenpolynomial of the kernel operator, as a function of x."""
    qa = q ** (alpha / 2.0)
    qb = q ** (beta / 2.0)
    x = np.asarray(x, dtype=complex)
    out = qpoch_n(qa * y * x, q, j1) * qpoch_n(qa * y / x, q, j1)
    out = out * qpoch_n(qa / y * x, q, j2) * qpoch_n(qa / (y * x), q, j2)
    out = out * qpoch_n(qb * r * x, q, k1) * qpoch_n(qb * r / x, q, k1)
    out = out * qpoch_n(qb / r * x, q, k2) * qpoch_n(qb / (r * x), q, k2)
    return out


def r_factor_image(j1: int, j2: int, k1: int, k2: int, alpha: float, beta: float,
                   r: complex, y: complex, q: float) -> complex:
    """Closed form of the kernel operator acting on r_factor."""
    qab = q ** ((alpha + beta) / 2.0)
    head = (
        qpoch_n(q ** alpha, q, j1 + j2)
        * qpoch_n(q ** beta, q, k1 + k2)
        / qpoch_n(q ** (alpha + beta), q, j1 + j2 + k1 + k2)
    )
    return complex(
        head
        * qpoch_n(qab * r * y, q, j1 + k1)
        * qpoch_n(qab * r / y, q, j2 + k1)
        * qpoch_n(qab * y / r, q, j1 + k2)
        * qpoch_n(qab / (r * y), q, j2 + k2)
    )


def mab_eigenpoly_report(alpha: float, beta: float, r: complex, y: complex, q: float,
                         cfg: NumericConfig = DEFAULT_CONFIG) -> dict:
    """Operator vs closed form on all finite-product inputs of total degree <= 3."""
    degrees = [d for d in product(range(4), repeat=4) if sum(d) <= 3]  # (j1, j2, k1, k2)
    vals = apply_Mab_numeric(
        [lambda x, d=d: r_factor(*d, alpha, beta, r, y, x, q) for d in degrees],
        alpha, beta, r, y, q, cfg,
    )
    worst = 0.0
    for d, val in zip(degrees, vals):
        ref = r_factor_image(*d, alpha, beta, r, y, q)
        worst = max(worst, abs(val - ref) / max(abs(ref), 1.0))
    report = {"cases": len(degrees), "max_err": worst, "tol": cfg.tol_tight}
    if worst > cfg.tol_tight:
        raise ToleranceExceeded(f"kernel action mismatch: {report}")
    return report


def apply_M_xi_numeric(pols, g: int, q: float, xi: complex, y1: complex, y_plus: complex,
                       cfg: NumericConfig = DEFAULT_CONFIG) -> list:
    """Full separating map as a contour integral, applied to exact polynomials.

    The image is evaluated at (y1, y2) with y2 = y_plus**2 / y1: y_plus is a
    square root of y1*y2 chosen by the caller, and y_minus = y1 / y_plus.
    The argument of the input polynomial follows the kernel's substitution
    rule, so the x1*x2 scaling comes out automatically.
    The kernel is kern_mab with alpha = beta = g, output point y_minus and
    reference point y_plus / t, built once for the sequence pols, whose
    values come back in order.  At (scale x, scale / x) a term c x1^a x2^b
    is c scale^(a+b) x^(a-b), and its trapezoid sum against the kernel is
    c scale^(a+b) m[(b - a) mod n], with m[k] = mean(kern x^-k) the DFT
    moments: the node-array sum up to rounding, aliasing included.
    """
    n = cfg.quad_points
    t = q ** g
    kern = kern_mab(y_plus / t, y1 / y_plus, n, g, g, q, cfg)
    m = np.fft.fft(kern, norm="forward").tolist()
    scale = xi * y_plus / math.sqrt(t)
    return [complex(sum(float(c) * scale ** (a + b) * m[(b - a) % n] for (a, b), c in p.c.items()))
            for p in pols]


# ---------------------------------------------------------------------------
# q-ultraspherical checks: product formula, orthogonality, difference equation
# ---------------------------------------------------------------------------

def cq_numeric(n: int, beta: float, q: float, x):
    """C_n at the circle variable x: a scalar for a scalar x, an array for an array."""
    ratios = [1.0]
    pb, pq = 1.0, 1.0
    for k in range(1, n + 1):
        pb *= 1.0 - beta * q ** (k - 1)
        pq *= 1.0 - q ** k
        ratios.append(pb / pq)
    return sum(ratios[k] * ratios[n - k] * x ** (n - 2 * k) for k in range(n + 1))


@lru_cache(maxsize=16)
def _node_weight(build, *args):
    """build(*args), a node-grid weight built once per argument tuple and read-only.

    The checks that integrate against one weight for every degree share it;
    the cache holds the 16 most recently used.
    """
    weight = build(*args)
    weight.flags.writeable = False
    return weight


def _weight_circle(x, beta: float, q: float, cfg: NumericConfig):
    """w(.; beta) continued off the circle: (x^2, x^-2;q)inf / (b x^2, b x^-2;q)inf."""
    return (
        qprod_inf(x ** 2, q, cfg)
        * qprod_inf(x ** -2, q, cfg)
        / (qprod_inf(beta * x ** 2, q, cfg) * qprod_inf(beta * x ** -2, q, cfg))
    )


def _product_kernel(theta: float, phi: float, q: float, beta: float,
                    cfg: NumericConfig) -> tuple:
    """(params, head) of the closed product kernel at (theta, phi).

    The kernel is head * aw_weight(., params).
    """
    sb = math.sqrt(beta)
    params = AWParams(
        a=sb * cmath.exp(1j * (theta + phi)),
        b=sb * cmath.exp(-1j * (theta + phi)),
        c=sb * cmath.exp(1j * (theta - phi)),
        d=sb * cmath.exp(1j * (phi - theta)),
    )
    head = complex(
        qprod_inf(q, q, cfg)
        * qprod_inf(beta, q, cfg) ** 2
        * qprod_inf(beta * cmath.exp(2j * theta), q, cfg)
        * qprod_inf(beta * cmath.exp(-2j * theta), q, cfg)
        * qprod_inf(beta * cmath.exp(2j * phi), q, cfg)
        * qprod_inf(beta * cmath.exp(-2j * phi), q, cfg)
        / qprod_inf(beta ** 2, q, cfg)
    )
    return params, head


def product_formula_check(n: int, theta: float, phi: float, q: float, beta: float,
                          cfg: NumericConfig = DEFAULT_CONFIG) -> dict:
    """Both sides of the integral product formula, by circle quadrature.

    The closed kernel's expansion over the polynomial family is checked on
    its own by kernel_series_check.  The node-grid weight is built once per
    (theta, phi, q, beta, cfg) for every n.
    """
    if not (0 < beta < 1):
        raise ContourUnsupported("the product kernel needs 0 < beta < 1")
    params, head = _product_kernel(theta, phi, q, beta, cfg)
    x = unit_nodes(cfg.quad_points)
    weight = _node_weight(aw_weight_on_nodes, cfg.quad_points, params, q, cfg)
    integral = 0.5 * head * np.mean(weight * cq_numeric(n, beta, q, x))
    lhs = cq_numeric(n, beta, q, cmath.exp(1j * theta)) * cq_numeric(
        n, beta, q, cmath.exp(1j * phi)
    )
    rhs = (
        complex(qpoch_n(beta ** 2, q, n) / qpoch_n(q, q, n))
        * beta ** (-n / 2.0)
        * integral
    )
    err = abs(lhs - rhs) / max(abs(lhs), 1.0)
    report = {"n": n, "theta": theta, "phi": phi, "err": err, "tol": cfg.tol_loose}
    if err > cfg.tol_loose:
        raise ToleranceExceeded(f"product formula mismatch: {report}")
    return report


def kernel_series_check(theta: float, phi: float, psi: float, q: float, beta: float,
                        cfg: NumericConfig = DEFAULT_CONFIG) -> dict:
    """Closed product kernel vs the first 40 terms of its expansion over the polynomial family.

    Both sides are compared with the common 1/(2 pi sqrt(1-z^2)) factor
    stripped, which keeps the comparison finite at the interval endpoints.
    """
    params, head_closed = _product_kernel(theta, phi, q, beta, cfg)
    closed = head_closed * aw_weight(cmath.exp(1j * psi), params, q, cfg)
    head_series = complex(
        qprod_inf(q, q, cfg)
        * qprod_inf(beta ** 2, q, cfg)
        / qprod_inf(beta, q, cfg) ** 2
        * qprod_inf(cmath.exp(2j * psi), q, cfg)
        * qprod_inf(cmath.exp(-2j * psi), q, cfg)
        / (
            qprod_inf(beta * cmath.exp(2j * psi), q, cfg)
            * qprod_inf(beta * cmath.exp(-2j * psi), q, cfg)
        )
    )
    terms = 40
    acc = 0.0 + 0.0j
    for m in range(terms):
        term = (
            beta ** (m / 2.0)
            * (1.0 - beta * q ** m)
            * complex(qpoch_n(q, q, m) / qpoch_n(beta ** 2, q, m)) ** 2
            * cq_numeric(m, beta, q, cmath.exp(1j * theta))
            * cq_numeric(m, beta, q, cmath.exp(1j * phi))
            * cq_numeric(m, beta, q, cmath.exp(1j * psi))
        )
        acc += term
    series = head_series * acc
    err = abs(closed - series) / max(abs(closed), 1.0)
    report = {"terms": terms, "err": err, "tol": cfg.tol_loose}
    if err > cfg.tol_loose:
        raise ToleranceExceeded(f"kernel series mismatch: {report}")
    return report


def orthogonality_check(m: int, n: int, q: float, beta: float,
                        cfg: NumericConfig = DEFAULT_CONFIG) -> dict:
    """Weighted circle average of C_m C_n against the closed norm.

    On the node grid the weight _weight_circle is one qprod_nodes call,
    built once per (q, beta, cfg) for every (m, n).
    """
    x = unit_nodes(cfg.quad_points)
    weight = _node_weight(qprod_nodes, cfg.quad_points, q, ((1.0, 2),), ((beta, 2),), cfg)
    vals = cq_numeric(m, beta, q, x) * cq_numeric(n, beta, q, x) * weight
    lhs = 0.5 * complex(np.mean(vals))
    if m != n:
        rhs = 0.0
    else:
        rhs = complex(
            qprod_inf(beta, q, cfg)
            * qprod_inf(beta * q, q, cfg)
            / (qprod_inf(beta ** 2, q, cfg) * qprod_inf(q, q, cfg))
            * qpoch_n(beta ** 2, q, n)
            / qpoch_n(q, q, n)
            * (1.0 - beta)
            / (1.0 - beta * q ** n)
        )
    err = abs(lhs - rhs)
    report = {"m": m, "n": n, "err": err, "tol": cfg.tol_loose}
    if err > cfg.tol_loose:
        raise ToleranceExceeded(f"orthogonality mismatch: {report}")
    return report


def qdiff_equation_check(n: int, q: float, beta: float,
                         cfg: NumericConfig = DEFAULT_CONFIG) -> dict:
    """Residual of the second-order divided-difference equation at the angles 0.3, 0.8, 1.4.

    Sturm-Liouville form: (1-q)^2 D_q[ rho(x; beta*q) D_q y ] + lam_n rho(x; beta) y = 0
    where rho is the orthogonality density including the 1/sqrt(1-arg^2)
    factor (continued off the circle) and the inner weight carries beta*q,
    i.e. every four-parameter weight argument shifted by sqrt(q).  The
    eigenvalue is lam_n = 4 q^(1-n) (1-q^n)(1-beta^2 q^n).
    """
    sq = math.sqrt(q)

    def dq(func):
        def out(x):
            step = (sq - 1.0 / sq) * (x - 1.0 / x) / 2.0
            return (func(sq * x) - func(x / sq)) / step

        return out

    def density(bpar):
        def rho(x):
            # 1/sqrt(1-arg^2) continued as 2i/(x - 1/x)
            return _weight_circle(x, bpar, q, cfg) * 2j / (x - 1.0 / x)

        return rho

    y = lambda x: cq_numeric(n, beta, q, x)  # noqa: E731
    rho_in = density(q * beta)
    rho_out = density(beta)
    inner = dq(y)
    mid = lambda x: rho_in(x) * inner(x)  # noqa: E731
    outer = dq(mid)
    lam_n = 4.0 * q ** (-n + 1) * (1.0 - q ** n) * (1.0 - beta ** 2 * q ** n)
    worst = 0.0
    for th in (0.3, 0.8, 1.4):
        x = cmath.exp(1j * th)
        res = (1.0 - q) ** 2 * outer(x) + lam_n * rho_out(x) * y(x)
        worst = max(worst, abs(res))
    report = {"n": n, "err": worst, "tol": cfg.tol_loose}
    if worst > cfg.tol_loose:
        raise ToleranceExceeded(f"difference equation residual: {report}")
    return report


# ---------------------------------------------------------------------------
# Fractional integration operator
# ---------------------------------------------------------------------------

def psi_power(nu: float, r: complex, x, q: float, cfg: NumericConfig = DEFAULT_CONFIG) -> complex:
    """Analog of the power function attached to the reference point r."""
    num = lambda_q(math.sqrt(q), r, x, q, cfg)
    den = gamma_q(nu + 1.0, q, cfg) * lambda_q(q ** ((nu + 1.0) / 2.0), r, x, q, cfg)
    return num / den


def kern_I(alpha: float, r: complex, y: complex, n: int, q: float,
           cfg: NumericConfig = DEFAULT_CONFIG):
    """Kernel of the order-alpha operator at output point y, on x = unit_nodes(n).

    Its x-dependent factors are one qprod_nodes call.
    """
    qa = q ** (alpha / 2.0)
    sq = math.sqrt(q)
    _check_disk(qa * y, qa / y, sq * r, sq / r)
    qq = qprod_inf(q, q, cfg)
    head = (1.0 - q) * qq ** 2 * lambda_q(sq, r, y, q, cfg) / (2.0 * gamma_q(alpha, q, cfg))
    nodes = qprod_nodes(n, q, [(1.0, 2)], [(qa * y, 1), (qa / y, 1), (sq * r, 1), (sq / r, 1)], cfg)
    return head * nodes


def apply_I_fractional(f, alpha: float, r: complex, y: complex, q: float,
            cfg: NumericConfig = DEFAULT_CONFIG) -> complex:
    """Fractional integration operator: integral branch for alpha > 0,
    finite-difference branch for nonpositive integer alpha.

    f is called on the node grid unit_nodes(cfg.quad_points) or at scalar points.
    """
    if alpha > 0:
        n = cfg.quad_points
        return complex(np.mean(kern_I(alpha, r, y, n, q, cfg) * f(unit_nodes(n))))
    if alpha == 0:
        return complex(f(y))
    if float(alpha).is_integer():
        return apply_I_neg(f, int(-alpha), r, y, q, cfg)
    raise ContourUnsupported("negative non-integer order needs contour deformation")


def _qbinom_f(n: int, k: int, q: float) -> float:
    num = den1 = den2 = 1.0
    for i in range(1, n + 1):
        num *= 1.0 - q ** i
    for i in range(1, k + 1):
        den1 *= 1.0 - q ** i
    for i in range(1, n - k + 1):
        den2 *= 1.0 - q ** i
    return num / (den1 * den2)


def apply_I_neg(f, g: int, r: complex, y: complex, q: float,
                cfg: NumericConfig = DEFAULT_CONFIG) -> complex:
    """Order -g branch as the explicit g-step difference operator."""
    sq = math.sqrt(q)
    total = 0.0 + 0.0j
    for k in range(g + 1):
        shift = q ** (k - g / 2.0) * y
        poch = complex(qpoch_n(q ** (-k) * y ** -2, q, g + 1))
        zeta = (
            (-1.0) ** k
            * q ** (-k * (k - 1) / 2.0)
            * _qbinom_f(g, k, q)
            * y ** (-2 * k)
            * (1.0 - q ** (g - 2 * k) * y ** -2)
            / ((1.0 - q) ** g * poch)
            * lambda_ratio(sq, r, y, shift, q, cfg)
        )
        total += zeta * complex(f(shift))
    return total


def apply_I_minus1(f, r: complex, y: complex, q: float,
                   cfg: NumericConfig = DEFAULT_CONFIG) -> complex:
    """First-order difference form of the order -1 operator."""
    sq = math.sqrt(q)
    up = complex(f(sq * y)) * lambda_ratio(sq, r, y, sq * y, q, cfg)
    dn = complex(f(y / sq)) * lambda_ratio(sq, r, y, y / sq, q, cfg)
    return (up - y ** 2 * dn) / ((1.0 - q) * (1.0 - y ** 2))


def iterate_I_minus1(f, times: int, r: complex, q: float,
                     cfg: NumericConfig = DEFAULT_CONFIG):
    """Callable computing the times-fold composition of the order -1 operator at a scalar y."""
    if times == 0:
        return f

    inner = iterate_I_minus1(f, times - 1, r, q, cfg)

    def out(y):
        return apply_I_minus1(inner, r, complex(y), q, cfg)

    return out


def power_action_report(alpha: float, nu: float, r: complex, y: complex, q: float,
                        cfg: NumericConfig = DEFAULT_CONFIG) -> dict:
    """The operator shifts the power-function order by alpha.

    On the node grid the input psi_power(nu, r, .) is one qprod_nodes call.
    """
    sq, qn = math.sqrt(q), q ** ((nu + 1.0) / 2.0)

    def f(x):
        if np.ndim(x) == 0:
            return psi_power(nu, r, x, q, cfg)
        ratio = qprod_nodes(len(x), q, [(sq * r, 1), (sq / r, 1)], [(qn * r, 1), (qn / r, 1)], cfg)
        return ratio / gamma_q(nu + 1.0, q, cfg)

    val = apply_I_fractional(f, alpha, r, y, q, cfg)
    ref = psi_power(nu + alpha, r, y, q, cfg)
    err = abs(val - ref) / max(abs(ref), 1.0)
    report = {"alpha": alpha, "nu": nu, "err": err, "tol": cfg.tol_loose}
    if err > cfg.tol_loose:
        raise ToleranceExceeded(f"power action mismatch: {report}")
    return report


def fractional_on_nodes(alpha: float, r: complex, fvals, q: float,
                        cfg: NumericConfig = DEFAULT_CONFIG) -> np.ndarray:
    """I^alpha of f at the n unit-circle nodes, with the same n nodes as quadrature.

    fvals holds f at those nodes.  The result is the n x n kernel matrix
    kern_I(alpha, r, y_i, x_j) times fvals, divided by n.  With
    w = exp(2 pi i / n), y = w^i and x = w^j, the four arguments of
    lambda_q(q^(alpha/2), y, x) are q^(alpha/2) w^(+-(i+j)) and
    q^(alpha/2) w^(+-(j-i)), so that factor is F[(i+j) mod n] F[(j-i) mod n]
    with F[k] = (q^(alpha/2) w^k, q^(alpha/2) w^-k; q)_inf.  This holds only
    on the node grid, where products and quotients of nodes are nodes again;
    kern_I remains the kernel at a general y.  Every other factor depends on
    i alone or on j alone, and lambda_q(sqrt(q), r, .) is the same function on
    both sides.  1/F, that output factor and the node-side weight are one
    qprod_nodes call each.  With G = 1/F twice over, row i of the matrix is
    G[i:i+n] G[n-i:2n-i]: two views of G, contracted by one einsum in a
    fixed order, so the n x n matrix is never formed.
    """
    n = len(fvals)
    qa = q ** (alpha / 2.0)
    sq = math.sqrt(q)
    _check_disk(qa, sq * r, sq / r)
    r_side = [(sq * r, 1), (sq / r, 1)]
    inv_f = qprod_nodes(n, q, den=[(qa, 1)], cfg=cfg)
    lam_r = qprod_nodes(n, q, r_side, cfg=cfg)
    weighted = qprod_nodes(n, q, [(1.0, 2)], r_side, cfg) * fvals
    head = (1.0 - q) * qprod_inf(q, q, cfg) ** 2 / (2.0 * gamma_q(alpha, q, cfg) * n)
    rows = sliding_window_view(np.concatenate((inv_f, inv_f)), n)
    return head * lam_r * np.einsum("ij,ij,j->i", rows[:n], rows[n:0:-1], weighted)


def group_property_report(alpha: float, beta: float, r: complex, ys, q: float,
                          cfg: NumericConfig = DEFAULT_CONFIG) -> dict:
    """Composition of two positive orders equals the single combined order.

    The input is f(x) = 1 + (x + 1/x)/2.  The inner application I^beta f
    is evaluated on n_inner = 512 quadrature nodes themselves
    (fractional_on_nodes), where its kernel factors as F[i+j] F[j-i] and
    costs three qprod_nodes calls.  The outer application at each y in ys,
    off the grid, uses kern_I on the same nodes, and so does the direct
    I^(alpha+beta) f it is compared with.
    """
    f = lambda x: 1.0 + 0.5 * (x + 1.0 / x)  # noqa: E731
    n_inner = 512
    nodes = unit_nodes(n_inner)
    inner_vals = fractional_on_nodes(beta, r, f(nodes), q, cfg)
    worst = 0.0
    small = replace(cfg, quad_points=n_inner)
    for y in ys:
        outer = complex(
            np.mean(kern_I(alpha, r, complex(y), n_inner, q, small) * inner_vals)
        )
        direct = apply_I_fractional(f, alpha + beta, r, complex(y), q, small)
        worst = max(worst, abs(outer - direct) / max(abs(direct), 1.0))
    report = {"alpha": alpha, "beta": beta, "err": worst, "tol": cfg.tol_loose}
    if worst > cfg.tol_loose:
        raise ToleranceExceeded(f"group law mismatch: {report}")
    return report


def neg_order_consistency_report(g: int, r: complex, ys, q: float,
                                 cfg: NumericConfig = DEFAULT_CONFIG) -> dict:
    """Order -g difference form equals the g-fold iterate of the order -1 form."""
    f = lambda x: 1.0 + 0.3 * (x + 1.0 / x) + 0.1 * (x ** 2 + x ** -2)  # noqa: E731
    iterated = iterate_I_minus1(f, g, r, q, cfg)
    worst = 0.0
    for y in ys:
        direct = apply_I_neg(f, g, r, complex(y), q, cfg)
        comp = complex(iterated(complex(y)))
        worst = max(worst, abs(direct - comp) / max(abs(comp), 1.0))
    report = {"g": g, "err": worst, "tol": cfg.tol_tight}
    if worst > cfg.tol_tight:
        raise ToleranceExceeded(f"negative-order composition mismatch: {report}")
    return report


# ---------------------------------------------------------------------------
# Classical limits
# ---------------------------------------------------------------------------

def gegenbauer_numeric(n: int, lam: float, theta: float) -> complex:
    out = 0.0 + 0.0j
    for k in range(n + 1):
        ck = _pochhammer_f(lam, k) / math.factorial(k)
        cnk = _pochhammer_f(lam, n - k) / math.factorial(n - k)
        out += ck * cnk * cmath.exp(1j * (n - 2 * k) * theta)
    return out


def _pochhammer_f(a: float, k: int) -> float:
    out = 1.0
    for i in range(k):
        out *= a + i
    return out


def assert_decreasing(errors, label: str):
    for e0, e1 in zip(errors, errors[1:]):
        if not (e1 < e0):
            raise TrendViolation(f"{label}: errors {errors} fail to decrease")


def classical_limit_checks(cfg: NumericConfig = DEFAULT_CONFIG) -> dict:
    """Both degenerations: the polynomials and the first-order operator."""
    theta = math.acos(0.4)
    n, lam = 3, 2.0  # lam = 1 is exact at every q, so use lam = 2 for a real trend
    target = gegenbauer_numeric(n, lam, theta)
    poly_errors = []
    for eps in (1e-2, 1e-3):
        q = 1.0 - eps
        val = cq_numeric(n, q ** lam, q, cmath.exp(1j * theta))
        poly_errors.append(abs(val - target))
    assert_decreasing(poly_errors, "polynomial limit")

    y = 0.5 + 0.0j
    r = 0.3 + 0.0j
    f = lambda x: x ** 2  # noqa: E731
    target_op = -y ** 2 / (1.0 - y ** 2) * (2.0 * y)
    op_errors = []
    for eps in (1e-2, 1e-3):
        q = 1.0 - eps
        val = apply_I_minus1(f, r, y, q, cfg)
        op_errors.append(abs(val - target_op))
    assert_decreasing(op_errors, "operator limit")
    return {"poly_errors": poly_errors, "op_errors": op_errors}
