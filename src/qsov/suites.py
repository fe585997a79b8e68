"""Named verification suites behind the command-line front end.

Each suite is a flat list of independent cases; a case runs a pure check
function and records pass/fail with a residual or a witness message.  Case
functions live at module level with picklable arguments so a worker pool
can execute them.  The numeric case functions import numkernel or ruijsenaars
when they run, so the exact suites never load numpy.
"""

from __future__ import annotations

import cmath
import math
import random
import time

from . import macdonald, qpoly, sov
from .exact import (
    Laurent2,
    Pair,
    QContext,
    _ratio,
    frac,
    pairs_under,
    random_symmetric,
    tables,
)
from .numconfig import NumericConfig

SUITE_NAMES = ("qpoly", "macdonald", "sov", "transitions", "numkernel", "ruijsenaars")

DEFAULT_S = ("1/2", "1/3", "3/5")
DEFAULT_G = (1, 2, 3)
DEFAULT_XI = ("1", "2", "3/2")
DEFAULT_LMAX = 6


def default_contexts(s_values=DEFAULT_S, g_values=DEFAULT_G, xi_values=DEFAULT_XI):
    return [
        QContext(s=frac(s), g=g, xi=frac(xi))
        for s in s_values
        for g in g_values
        for xi in xi_values
    ]


def default_pairs(lmax: int = DEFAULT_LMAX, wmax: int = 6):
    return [
        Pair(a, b)
        for a in range(-lmax, lmax + 1)
        for b in range(a, min(lmax, a + wmax) + 1)
    ]


# ---------------------------------------------------------------------------
# Exact case functions
# ---------------------------------------------------------------------------

def case_cq_cross(ctx: QContext):
    for n in range(9):
        a = qpoly.cq_sum(n, ctx.t, ctx)
        b = qpoly.cq_recurrence(n, ctx.t, ctx)
        if a != b:
            raise AssertionError(f"recurrence mismatch at n={n}")
        if not a.is_reflexive():
            raise AssertionError(f"not reflexive at n={n}")
        if a.coeff(n) != qpoly.leading_coefficient(n, ctx.t, ctx):
            raise AssertionError(f"leading coefficient wrong at n={n}")
        collapse = qpoly.cq_sum(n, ctx.q, ctx)
        if any(v != 1 for v in collapse.c.values()):
            raise AssertionError(f"all-ones specialization fails at n={n}")


def case_genfunc(ctx: QContext):
    qpoly.generating_function_check(6, ctx.t, ctx)


def case_onevar_connection(ctx: QContext, lam: Pair):
    rebuilt = qpoly.cq_to_onevariable(lam, ctx)
    direct = macdonald.separated_poly(lam, ctx).poly
    if rebuilt != direct:
        raise AssertionError(f"one-variable connection fails for lam={lam}")


def case_eigen(ctx: QContext, lam: Pair):
    macdonald.check_eigen(lam, ctx)


def case_commutation(ctx: QContext, seed: int):
    rng = random.Random(seed)
    p = random_symmetric(rng, degree=4, terms=4)
    ab = macdonald.apply_H1(macdonald.apply_H2(p, ctx), ctx)
    ba = macdonald.apply_H2(macdonald.apply_H1(p, ctx), ctx)
    if ab != ba:
        raise AssertionError("H1 and H2 do not commute on a random input")


def case_separated(ctx: QContext, lam: Pair):
    f = macdonald.separated_poly(lam, ctx)
    alt = macdonald.separated_poly_alt(lam, ctx)
    if f.poly != alt.poly:
        raise AssertionError(f"two closed forms differ for lam={lam}")
    macdonald.check_separation_equation(f, macdonald.spectrum(lam, ctx), ctx)
    if macdonald.separation_solution_dim(lam, ctx) != 1:
        raise AssertionError(f"solution space not one-dimensional for lam={lam}")
    chi = f.poly
    if chi.coeff(lam.l1) != 1 or chi.coeff(lam.l2) != ctx.t ** (-lam.width):
        raise AssertionError(f"endpoint coefficients wrong for lam={lam}")


def case_factorized_form(ctx: QContext, lam: Pair):
    P = macdonald.macdonald_poly(lam, ctx).poly
    shifted = macdonald.macdonald_poly(Pair(lam.l1 + 1, lam.l2 + 1), ctx).poly
    if shifted != P * Laurent2.term(1, 1):
        raise AssertionError(f"translation covariance fails for lam={lam}")
    if lam.total % 2 == 0:
        w = lam.width
        c = qpoly.cq_sum(w, ctx.t, ctx)
        tab = tables(ctx)
        scale = _ratio((tab.ipoch_q[w],), (tab.ipoch_t[w],))
        half, e = lam.total // 2, w // 2
        build = Laurent2({(half + e - k, half - e + k): c.coeff(w - 2 * k) * scale for k in range(w + 1)})
        if build != P:
            raise AssertionError(f"product-shape rebuild fails for lam={lam}")


def case_factorize(ctx: QContext, lam: Pair):
    sov.separate(lam, ctx)


def case_m_routes(ctx: QContext, seed: int):
    rng = random.Random(seed)
    p = random_symmetric(rng, degree=6, terms=5)
    image = sov.apply_M(p, ctx)
    if image != sov.apply_M_via_r(p, ctx):
        raise AssertionError("p-route and r-route disagree")
    if sov.apply_M_inverse(image, ctx) != p:
        raise AssertionError("left inverse fails")
    if sov.apply_M(sov.apply_M_inverse(p, ctx), ctx) != p:
        raise AssertionError("right inverse fails")


def case_m_qdiff(ctx: QContext, seed: int):
    rng = random.Random(seed)
    p = random_symmetric(rng, degree=4, terms=4)
    if sov.apply_M_inverse_qdiff(p, ctx) != sov.apply_M_inverse(p, ctx):
        raise AssertionError("difference-operator inverse disagrees")


def case_char_eq(ctx: QContext, nu: Pair):
    sov.check_quantum_char_eq(nu, ctx)


def case_jacobian(ctx: QContext, nu: Pair):
    for j in (1, 2):
        sov.check_jacobian_action(nu, j, ctx)
    sov.check_rt_shift_relations(nu, ctx)


def case_involutions(ctx: QContext, seed: int):
    rng = random.Random(seed)
    nu = Pair(rng.randint(-4, 2), rng.randint(3, 6))
    lhs = sov.involution_U(sov.basis("p", nu, ctx), ctx)
    rhs = sov.basis("r", nu.bar(), ctx) * (ctx.t ** (2 * nu.l1) * ctx.xi ** (4 * nu.l1))
    if lhs != rhs:
        raise AssertionError("input-side involution fails on the p basis")
    lhs = sov.involution_V(sov.basis("pt", nu, ctx), ctx)
    if lhs != sov.basis("rt", nu.bar(), ctx) * ctx.t ** (4 * nu.l1):
        raise AssertionError("output-side involution fails on the tilded p basis")
    lam = Pair(rng.randint(-3, 0), rng.randint(0, 3))
    lhs = sov.involution_U(macdonald.macdonald_poly(lam, ctx).poly, ctx)
    rhs = macdonald.macdonald_poly(lam.bar(), ctx).poly * (
        ctx.t ** lam.total * ctx.xi ** (2 * lam.total)
    )
    if lhs != rhs:
        raise AssertionError("involution action on P fails")
    p = random_symmetric(rng, degree=3, terms=3)
    if sov.apply_M(sov.involution_U(p, ctx), ctx) != sov.involution_V(
        sov.apply_M(p, ctx), ctx
    ):
        raise AssertionError("the map does not intertwine the involutions")


def case_shift_operators(ctx: QContext, seed: int):
    rng = random.Random(seed)
    nu = Pair(rng.randint(-4, 1), rng.randint(1, 5))
    for tag in sov.BASIS_TAGS:
        b = sov.basis(tag, nu, ctx)
        for j, e in ((1, nu.l1), (2, nu.l2)):
            if sov.apply_shift(b, j, tag, ctx) != b * ctx.q ** (e if tag in ("p", "pt") else -e):
                raise AssertionError(f"shift eigenvalue on the {tag} basis fails, j={j}")
    p = random_symmetric(rng, degree=3, terms=3)
    for j in (1, 2):
        if sov.apply_M(sov.apply_shift(p, j, "p", ctx), ctx) != sov.apply_shift(
            sov.apply_M(p, ctx), j, "pt", ctx
        ):
            raise AssertionError(f"intertwining fails for the forward pair, j={j}")
        if sov.apply_M(sov.apply_shift(p, j, "r", ctx), ctx) != sov.apply_shift(
            sov.apply_M(p, ctx), j, "rt", ctx
        ):
            raise AssertionError(f"intertwining fails for the backward pair, j={j}")
        if sov.apply_M_identified(sov.apply_shift(p, j, "p", ctx), ctx) != sov.apply_shift(
            sov.apply_M_identified(p, ctx), j, "p", ctx
        ):
            raise AssertionError(f"identified map does not commute with N_{j}")
    if sov.apply_shift(sov.apply_shift(p, 2, "p", ctx), 1, "p", ctx) != sov.apply_shift(
        sov.apply_shift(p, 1, "p", ctx), 2, "p", ctx
    ):
        raise AssertionError("forward shifts do not commute")
    if sov.apply_shift(sov.apply_shift(p, 2, "r", ctx), 1, "r", ctx) != sov.apply_shift(
        sov.apply_shift(p, 1, "r", ctx), 2, "r", ctx
    ):
        raise AssertionError("backward shifts do not commute")


def case_transitions(ctx: QContext, lam: Pair):
    for kind in ("rho", "pi", "Q", "R", "rhot", "pit", "Qt", "Rt"):
        closed = sov.transition_row(kind, lam, ctx, "closed")
        rec = sov.transition_row(kind, lam, ctx, "recurrence")
        if closed != rec:
            raise AssertionError(f"row construction mismatch: kind={kind}, lam={lam}")
    rho = sov.transition_row("rho", lam, ctx)
    if rho.coeff(lam.l1, lam.l2) != sov.rho_diagonal(lam, ctx):
        raise AssertionError(f"diagonal initial condition (rho) wrong for {lam}")
    Rrow = sov.transition_row("R", lam, ctx)
    if Rrow.coeff(lam.l1, lam.l2) != sov.R_diagonal(lam, ctx):
        raise AssertionError(f"diagonal initial condition (R) wrong for {lam}")


def case_reassembly(ctx: QContext, lam: Pair):
    P = macdonald.macdonald_poly(lam, ctx).poly

    def combine(kind, element):
        return sov.transition_row(kind, lam, ctx).combine(lambda k: element(Pair(*k)))

    for kind, tag in (("rho", "r"), ("pi", "p")):
        if sov.reassemble(sov.transition_row(kind, lam, ctx), tag, ctx) != P:
            raise AssertionError(f"reassembly of P fails via {kind} for {lam}")
    for kind, tag in (("Q", "p"), ("R", "r")):
        if combine(kind, lambda nu: macdonald.macdonald_poly(nu, ctx).poly) != sov.basis(tag, lam, ctx):
            raise AssertionError(f"reassembly of the {tag} basis fails for {lam}")
    images = {}

    def f_image(nu):
        if nu not in images:
            images[nu] = sov.f_tensor(macdonald.separated_poly(nu, ctx)) * sov.normalization_c(nu, ctx)
        return images[nu]

    F = f_image(lam)
    for kind, tag in (("pit", "pt"), ("rhot", "rt")):
        if sov.reassemble(sov.transition_row(kind, lam, ctx), tag, ctx) != F:
            raise AssertionError(f"factorized-image expansion fails via {kind} for {lam}")
    for kind, tag in (("Qt", "pt"), ("Rt", "rt")):
        if combine(kind, f_image) != sov.basis(tag, lam, ctx):
            raise AssertionError(f"dual factorized expansion fails via {kind} for {lam}")


def case_mutual_inverse(ctx: QContext, lam: Pair):
    unit = Laurent2.term(lam.l1, lam.l2)
    for first, second in (("R", "rho"), ("rho", "R"), ("Q", "pi"), ("pi", "Q")):
        # sum over nu of first[lam][nu] * (row nu of second), one sum reduced once: a row
        # holds only labels inside its own, so nu runs inside lam and the sum's mu inside nu
        total = sov.transition_row(first, lam, ctx).combine(
            lambda k: sov.transition_row(second, Pair(*k), ctx)
        )
        if total != unit:
            mu = next(mu for mu in pairs_under(lam) if total.coeff(mu.l1, mu.l2) != unit.coeff(mu.l1, mu.l2))
            raise AssertionError(f"inverse identity {first}*{second} fails at mu={mu}, lam={lam}")


# ---------------------------------------------------------------------------
# Numeric case functions
# ---------------------------------------------------------------------------

def case_aw_draws(q: float, draws: int, seed: int, cfg: NumericConfig):
    from . import numkernel as nk
    rng = random.Random(seed)
    params = [
        nk.AWParams(
            *(
                cmath.rect(rng.uniform(0.0, 0.6), rng.uniform(0.0, 2 * math.pi))
                for _ in range(4)
            )
        )
        for _ in range(draws)
    ]
    return nk.aw_integral_report(params, q, cfg)["max_err"]


def case_aw_symmetry(cfg: NumericConfig):
    from . import numkernel as nk
    base = nk.AWParams(0.3, -0.2, 0.1j, 0.4)
    perm = nk.AWParams(0.4, 0.1j, -0.2, 0.3)
    v1, v2 = nk.aw_integral_report([base, perm], 0.25, cfg)["values"]
    err = abs(v1 - v2)
    if err > cfg.tol_tight:
        raise AssertionError(f"permutation symmetry broken: {err}")
    return err


def case_aw_convergence(cfg: NumericConfig):
    from . import numkernel as nk
    rep = nk.aw_convergence_report(nk.AWParams(0.3, -0.2, 0.1j, 0.4), 0.25, cfg)
    return min(rep["ratios"])


def case_actmr(cfg: NumericConfig):
    from . import numkernel as nk
    rep = nk.mab_eigenpoly_report(
        0.7, 1.1, cmath.exp(0.4j), cmath.exp(-0.9j), 0.25, cfg
    )
    return rep["max_err"]


def case_mxi_vs_exact(s: str, g: int, xi: str, cfg: NumericConfig):
    from . import numkernel as nk
    ctx = QContext(s=frac(s), g=g, xi=frac(xi))
    qf, tf, xif = float(ctx.q), float(ctx.t), float(ctx.xi)
    angle_pairs = [
        (0.3, 0.55), (0.8, -0.4), (1.2, 0.9), (-0.7, 0.25), (2.0, 1.1),
        (0.45, -1.3), (1.7, -0.2), (-1.1, -2.0), (0.05, 0.95), (2.4, -0.6),
    ]
    nus = (Pair(0, 0), Pair(0, 1), Pair(-1, 1), Pair(0, 2))
    inputs = [sov.basis("p", nu, ctx) for nu in nus]
    images = [(sov.basis("pt", nu, ctx), float(sov.mu_p(nu, ctx))) for nu in nus]
    worst = 0.0
    for th1, th2 in angle_pairs:
        y1 = tf * cmath.exp(-2j * th1)
        y2 = tf * cmath.exp(-2j * th2)
        yp = tf * cmath.exp(-1j * (th1 + th2))
        vals = nk.apply_M_xi_numeric(inputs, g, qf, xif, y1, yp, cfg)
        for val, (image, mu) in zip(vals, images):
            ref = complex(image.evaluate(y1, y2)) * mu
            worst = max(worst, abs(val - ref) / max(abs(ref), 1.0))
    if worst > cfg.tol_tight:
        raise AssertionError(f"integral operator disagrees with the algebraic map: {worst}")
    return worst


def case_product_formula(n: int, theta: float, phi: float, cfg: NumericConfig):
    from . import numkernel as nk
    return nk.product_formula_check(n, theta, phi, 0.25, 0.5, cfg)["err"]


def case_kernel_series(cfg: NumericConfig):
    from . import numkernel as nk
    return nk.kernel_series_check(0.5, 0.9, 1.3, 0.25, 0.5, cfg)["err"]


def case_orthogonality(m: int, n: int, cfg: NumericConfig):
    from . import numkernel as nk
    return nk.orthogonality_check(m, n, 0.25, 0.5, cfg)["err"]


def case_qdiff(n: int, cfg: NumericConfig):
    from . import numkernel as nk
    return nk.qdiff_equation_check(n, 0.25, 0.5, cfg)["err"]


def case_I_power(alpha: float, nu: float, cfg: NumericConfig):
    from . import numkernel as nk
    return nk.power_action_report(
        alpha, nu, cmath.exp(0.35j), cmath.exp(-1.1j), 0.25, cfg
    )["err"]


def case_I_group(alpha: float, beta: float, cfg: NumericConfig):
    from . import numkernel as nk
    ys = [cmath.exp(0.7j), cmath.exp(-2.1j), cmath.exp(1.9j)]
    return nk.group_property_report(alpha, beta, cmath.exp(0.35j), ys, 0.25, cfg)["err"]


def case_I_neg(g: int, cfg: NumericConfig):
    from . import numkernel as nk
    ys = [cmath.exp(0.7j), cmath.exp(-2.1j), cmath.exp(1.9j)]
    return nk.neg_order_consistency_report(g, cmath.exp(0.35j), ys, 0.25, cfg)["err"]


def case_classical(cfg: NumericConfig):
    from . import numkernel as nk
    rep = nk.classical_limit_checks(cfg)
    return max(rep["poly_errors"][-1], 0.0)


# ---------------------------------------------------------------------------
# Classical-model case functions
# ---------------------------------------------------------------------------

# The hermitian and characteristic-polynomial cases compare against
# tol_tight and the involutivity case against tol_loose.  The bounds below
# stay fixed: each is set by its check's own method, not by the run's
# tolerances.
#: Root-finding and residual bound of the separation variables.
RJ_SEPARATION_TOL = 1e-10
#: Fourth-order finite-difference brackets at step 1e-5.
RJ_CANONICITY_TOL = 1e-5
#: Dilogarithm functional equations, evaluated to rounding error.
RJ_DILOG_TOL = 1e-12
#: Central differences at step 1e-5 of the generating function.
RJ_GENFUNC_TOL = 1e-5
#: Telescoping ratios of the gauge functions, evaluated to rounding error.
RJ_GAUGE_TOL = 1e-10
#: Reduced-chain determinant and momenta at root-found separation variables.
RJ_REDUCTION_TOL = 1e-8


def case_rj_hermitian(seed: int, t: float, cfg: NumericConfig):
    from . import ruijsenaars as rj
    rng = random.Random(seed)
    point = rj.hermitian_phase_point(rng, 3)
    H = rj.hamiltonians(point.x, point.Tx, t)
    worst = max(abs(h.imag) for h in H)
    if worst > cfg.tol_tight:
        raise AssertionError(f"integrals not real on a symmetric configuration: {worst}")
    return worst


def case_rj_charpoly(seed: int, t: float, cfg: NumericConfig):
    from . import ruijsenaars as rj
    rng = random.Random(seed)
    worst = 0.0
    for n in (2, 3):
        point = rj.random_phase_point(rng, n)
        for _ in range(5):
            u = cmath.rect(rng.uniform(0.3, 2.0), rng.uniform(0.0, 2 * math.pi))
            z = cmath.rect(rng.uniform(0.3, 2.0), rng.uniform(0.0, 2 * math.pi))
            worst = max(worst, rj.char_poly_residual(point.x, point.Tx, t, u, z))
    if worst > cfg.tol_tight:
        raise AssertionError(f"characteristic polynomial residual {worst}")
    return worst


def case_rj_separation(seed: int, t: float, xi_re: float, xi_im: float):
    from . import ruijsenaars as rj
    rng = random.Random(seed)
    xi = complex(xi_re, xi_im)
    point = rj.random_phase_point(rng, 2)
    data = rj.separation_variables(point.x, point.Tx, t, xi, tol=RJ_SEPARATION_TOL)
    worst = abs(data.y[0] * data.y[1] * xi ** 2 - t * point.x[0] * point.x[1])
    for y in data.y:
        bval = rj.b_poly_value(point.x, point.Tx, t, xi, y)
        worst = max(worst, abs(bval))
    for _ in range(5):
        u = cmath.rect(rng.uniform(0.3, 2.0), rng.uniform(0.0, 2 * math.pi))
        worst = max(worst, rj.char_eq_a_residual(point.x, t, xi, u))
        worst = max(worst, rj.a_ratio_invariance_residual(point.x, t, xi, u))
    if worst > RJ_SEPARATION_TOL:
        raise AssertionError(f"separation residual {worst}")
    return worst


def case_rj_involutivity(seed: int, t: float, cfg: NumericConfig):
    from . import ruijsenaars as rj
    rng = random.Random(seed)
    point = rj.random_phase_point(rng, 2)
    res = rj.involutivity_residual(point.x, point.Tx, t)
    if res > cfg.tol_loose:
        raise AssertionError(f"integrals fail to commute: {res}")
    return res


def case_rj_canonicity(seed: int, t: float, xi_re: float, xi_im: float):
    from . import ruijsenaars as rj
    rng = random.Random(seed)
    point = rj.random_phase_point(rng, 2)
    xi = complex(xi_re, xi_im)
    rep = rj.canonicity_check(point.x, point.Tx, t, xi, tol=RJ_CANONICITY_TOL)
    rj.richardson_report(point.x, point.Tx, t, xi)
    return rep["max"]


def case_rj_genfunc(seed: int, t: float, xi_re: float):
    from . import ruijsenaars as rj
    rng = random.Random(seed)
    point = rj.random_phase_point(rng, 2)
    rep = rj.generating_function_check(point.x, point.Tx, t, complex(xi_re),
                                       tol=RJ_GENFUNC_TOL)
    return rep["max"]


def case_rj_gauge(seed: int, q: float, t: float):
    from . import ruijsenaars as rj
    rng = random.Random(seed)
    point = rj.random_phase_point(rng, 3)
    ytld = (0.3 * cmath.exp(0.5j), 0.45 * cmath.exp(-1.1j))
    return rj.gauge_ratio_report(point.x, q, t, ytld, tol=RJ_GAUGE_TOL)["max"]


def case_rj_reduction(seed: int, t: float):
    from . import ruijsenaars as rj
    rng = random.Random(seed)
    point = rj.random_phase_point(rng, 3)
    return rj.reduction_map_report(
        point.x, (point.Tx[0], point.Tx[1]), t, tol=RJ_REDUCTION_TOL
    )["max"]


def case_rj_dilog():
    from . import ruijsenaars as rj
    worst = abs(rj.dilog(1.0) - math.pi ** 2 / 6.0)
    worst = max(worst, abs(rj.dilog(-1.0) + math.pi ** 2 / 12.0))
    z = 0.3
    worst = max(worst, abs(rj.dilog(z) + rj.dilog(-z) - rj.dilog(z * z) / 2.0))
    for zz in (1.7 + 0.9j, -2.3 + 0.4j, 0.9 + 0.5j, -0.8 - 0.61j):
        lhs = rj.dilog(zz) + rj.dilog(1.0 / zz)
        rhs = -math.pi ** 2 / 6.0 - 0.5 * cmath.log(-zz) ** 2
        worst = max(worst, abs(lhs - rhs))
    if worst > RJ_DILOG_TOL:
        raise AssertionError(f"dilogarithm self-checks fail: {worst}")
    return worst


# ---------------------------------------------------------------------------
# Suite builders
# ---------------------------------------------------------------------------

def _ctx_cases(ctxs, pairs, seed):
    """(suite name -> list of case descriptors) for the exact suites."""
    qp, md, sv, tr = [], [], [], []
    for ci, ctx in enumerate(ctxs):
        tag = ctx.label()
        qp.append((f"cq-cross[{tag}]", "recurrence-vs-sum", case_cq_cross, (ctx,)))
        qp.append((f"genfunc[{tag}]", "generating-function", case_genfunc, (ctx,)))
        md.append((f"commute[{tag}]", "commuting-pair", case_commutation, (ctx, seed + ci)))
        sv.append((f"m-routes[{tag}]", "dual-route-map", case_m_routes, (ctx, seed + ci)))
        sv.append((f"m-qdiff[{tag}]", "inverse-difference-form", case_m_qdiff, (ctx, seed + ci)))
        sv.append((f"involutions[{tag}]", "involution-intertwining", case_involutions, (ctx, seed + ci)))
        sv.append((f"shift-ops[{tag}]", "invariant-shift-operators", case_shift_operators, (ctx, seed + ci)))
        for lam in pairs:
            qp.append((f"onevar[{tag};{lam}]", "one-variable-connection", case_onevar_connection, (ctx, lam)))
            md.append((f"eigen[{tag};{lam}]", "eigenvalue-equation", case_eigen, (ctx, lam)))
            md.append((f"separated[{tag};{lam}]", "separation-equation", case_separated, (ctx, lam)))
            md.append((f"shape[{tag};{lam}]", "monomial-factorized-form", case_factorized_form, (ctx, lam)))
            sv.append((f"factorize[{tag};{lam}]", "factorization", case_factorize, (ctx, lam)))
            sv.append((f"char-eq[{tag};{lam}]", "characteristic-equation", case_char_eq, (ctx, lam)))
            sv.append((f"jacobian[{tag};{lam}]", "tridiagonal-action", case_jacobian, (ctx, lam)))
            tr.append((f"rows[{tag};{lam}]", "transition-closed-vs-recurrence", case_transitions, (ctx, lam)))
            tr.append((f"reassemble[{tag};{lam}]", "transition-reassembly", case_reassembly, (ctx, lam)))
            tr.append((f"inverse-pair[{tag};{lam}]", "mutual-inverse", case_mutual_inverse, (ctx, lam)))
    return {"qpoly": qp, "macdonald": md, "sov": sv, "transitions": tr}


def _numeric_cases(cfg: NumericConfig, seed: int):
    # the case functions import numkernel when they run; importing it here
    # lets the workers of a fork pool inherit it rather than compile it again
    from . import numkernel  # noqa: F401

    cases = []
    for q in (0.2, 0.4):
        cases.append((f"aw-integral[q={q}]", "circle-integral", case_aw_draws, (q, 25, seed, cfg)))
    cases.append(("aw-symmetry", "integral-symmetry", case_aw_symmetry, (cfg,)))
    cases.append(("aw-convergence", "quadrature-convergence", case_aw_convergence, (cfg,)))
    cases.append(("kernel-eigenaction", "kernel-eigenaction", case_actmr, (cfg,)))
    cases.append(("map-vs-integral[g=1]", "integral-vs-algebraic-map", case_mxi_vs_exact, ("1/2", 1, "3/2", cfg)))
    cases.append(("map-vs-integral[g=2]", "integral-vs-algebraic-map", case_mxi_vs_exact, ("1/2", 2, "1", cfg)))
    samples = [(0.7, 1.1), (0.5, 0.9), (1.2, 0.4), (0.3, 1.8), (2.2, 1.0)]
    for n in range(6):
        for theta, phi in samples:
            cases.append((f"product[n={n};({theta},{phi})]", "product-formula",
                          case_product_formula, (n, theta, phi, cfg)))
    cases.append(("kernel-series", "kernel-series", case_kernel_series, (cfg,)))
    for m in range(5):
        for n in range(m, 5):
            cases.append((f"orthogonality[{m},{n}]", "orthogonality", case_orthogonality, (m, n, cfg)))
    for n in range(5):
        cases.append((f"difference-eq[n={n}]", "difference-equation", case_qdiff, (n, cfg)))
    for alpha, nu in ((0.5, 0.4), (0.3, 1.0), (1.0, 0.7), (-1.0, 2.5), (-2.0, 2.5)):
        cases.append((f"power-action[a={alpha},nu={nu}]", "fractional-power-action",
                      case_I_power, (alpha, nu, cfg)))
    for alpha, beta in ((0.5, 0.5), (0.3, 0.7), (1.0, 1.0)):
        cases.append((f"group-law[{alpha},{beta}]", "fractional-group-law",
                      case_I_group, (alpha, beta, cfg)))
    for g in (1, 2, 3):
        cases.append((f"negative-order[g={g}]", "fractional-negative-order", case_I_neg, (g, cfg)))
    cases.append(("classical-limit", "classical-limit", case_classical, (cfg,)))
    return cases


def _ruijsenaars_cases(cfg: NumericConfig, seed: int):
    from . import ruijsenaars  # noqa: F401 - inherited by the workers, as in _numeric_cases

    t = 0.5
    cases = [("dilog", "dilogarithm-identities", case_rj_dilog, ())]
    xis = ((0.7, 0.0), (1.3, 0.2))
    for i in range(20):
        cases.append((f"charpoly[{i}]", "characteristic-polynomial", case_rj_charpoly, (seed + i, t, cfg)))
        cases.append((f"involutivity[{i}]", "poisson-involutivity", case_rj_involutivity, (seed + i, t, cfg)))
        xi_re, xi_im = xis[i % 2]
        cases.append((f"separation[{i}]", "separation-variables", case_rj_separation,
                      (seed + i, t, xi_re, xi_im)))
        cases.append((f"canonicity[{i}]", "canonical-brackets", case_rj_canonicity,
                      (seed + i, t, xi_re, xi_im)))
    for i in range(5):
        cases.append((f"genfunc[{i}]", "generating-function-derivatives", case_rj_genfunc,
                      (seed + i, t, 0.7)))
        cases.append((f"gauge[{i}]", "gauge-conjugation", case_rj_gauge, (seed + i, 0.25, t)))
        cases.append((f"reduction[{i}]", "chain-reduction", case_rj_reduction, (seed + i, t)))
        cases.append((f"hermitian[{i}]", "hermitian-reality", case_rj_hermitian, (seed + i, t, cfg)))
    return cases


def _run_one(descriptor):
    case_id, slug, fn, args = descriptor
    try:
        residual = fn(*args)
    except Exception as exc:  # noqa: BLE001 - every failure becomes a case record
        return {
            "id": case_id,
            "paper_eq": slug,
            "status": "fail",
            "witness": f"{type(exc).__name__}: {exc}",
        }
    out = {"id": case_id, "paper_eq": slug, "status": "pass"}
    if isinstance(residual, float):
        out["residual"] = residual
    return out


def run_suite(name: str, *, s_values=DEFAULT_S, g_values=DEFAULT_G, xi_values=DEFAULT_XI,
              lmax: int = DEFAULT_LMAX, quad_points: int = NumericConfig.quad_points,
              tol_tight: float = NumericConfig.tol_tight, tol_loose: float = NumericConfig.tol_loose,
              seed: int = 0, workers: int = 1) -> dict:
    """Run one named suite (or 'all') over the requested grid."""
    start = time.perf_counter()
    cfg = NumericConfig(
        quad_points=quad_points, tol_tight=tol_tight, tol_loose=tol_loose
    )
    grid: dict = {"seed": seed}
    if name in ("qpoly", "macdonald", "sov", "transitions", "all"):
        grid.update(
            s=list(s_values), g=list(g_values), xi=list(xi_values), lmax=lmax
        )
    if name in ("numkernel", "all"):
        grid.update(quad_points=quad_points, tol_tight=tol_tight, tol_loose=tol_loose)
    elif name == "ruijsenaars":
        grid.update(tol_tight=tol_tight, tol_loose=tol_loose)
    names = SUITE_NAMES if name == "all" else (name,)
    exact_needed = any(n in ("qpoly", "macdonald", "sov", "transitions") for n in names)
    exact = (
        _ctx_cases(default_contexts(s_values, g_values, xi_values), default_pairs(lmax), seed)
        if exact_needed
        else {}
    )
    cases = []
    for n in names:
        if n in exact:
            cases.extend(exact[n])
        elif n == "numkernel":
            cases.extend(_numeric_cases(cfg, seed))
        elif n == "ruijsenaars":
            cases.extend(_ruijsenaars_cases(cfg, seed))
        else:
            raise ValueError(f"unknown suite {n!r}")
    if not cases:
        raise ValueError(f"suite {name!r} has no case on this grid")
    if workers > 1:
        from multiprocessing import get_context

        with get_context("fork").Pool(workers) as pool:
            results = pool.map(_run_one, cases, chunksize=16)
    else:
        results = [_run_one(c) for c in cases]
    status = "pass" if all(r["status"] == "pass" for r in results) else "fail"
    elapsed_ms = int(round(1000 * (time.perf_counter() - start)))
    return {
        "suite": name,
        "grid": grid,
        "cases": results,
        "status": status,
        "elapsed_ms": elapsed_ms,
    }
