"""Two-variable symmetric orthogonal Laurent polynomials P_lam and friends.

P_lam is built from its triangular expansion in the monomial symmetric
basis; H1 and H2 are the commuting q-difference operators it diagonalizes.
The separated one-variable polynomials f_lam solve a three-term q-difference
equation whose spectral parameters are the H-eigenvalues.
"""

from __future__ import annotations

from dataclasses import dataclass
from functools import partial

from .errors import IdentityViolation, NotPolynomial
from .exact import (
    Laurent1,
    Laurent2,
    ONE,
    Pair,
    QContext,
    ZERO,
    _ratio,
    divide_exact,
    mirror_quotient,
    tables,
)


@dataclass(frozen=True)
class Spectrum:
    """Joint eigenvalues (h1, h2) attached to a label lam."""

    h1: object
    h2: object


def spectrum(lam: Pair, ctx: QContext) -> Spectrum:
    tab, g = tables(ctx), ctx.g
    h1 = tab.spow(-g) * tab.qpow(lam.l1) + tab.spow(g) * tab.qpow(lam.l2)
    h2 = tab.qpow(lam.total)
    return Spectrum(h1=h1, h2=h2)


@dataclass(frozen=True)
class MacdonaldPoly:
    label: Pair
    poly: Laurent2


@dataclass(frozen=True)
class SeparatedPoly:
    label: Pair
    poly: Laurent1


def u_coeff(lam: Pair, nu: Pair, ctx: QContext):
    """Expansion coefficient of m_nu in P_lam (nu inside lam, same total)."""
    tab = tables(ctx)
    pq, pt = tab.ipoch_q, tab.ipoch_t
    w, a, b = lam.width, nu.l1 - lam.l1, lam.l2 - nu.l1
    return _ratio((pq[w], pt[a], pt[b]), (pt[w], pq[a], pq[b]))


def macdonald_poly(lam: Pair, ctx: QContext) -> MacdonaldPoly:
    """P_lam as the triangular monomial-basis expansion (unit leading term).

    The coefficient of m_nu sits at (nu1, nu2) and at (nu2, nu1).  Stored
    per lam in the context's tables and shared.
    """
    cache = tables(ctx).macdonald
    mp = cache.get(lam)
    if mp is None:
        total = lam.total
        coeffs = {}
        for nu1 in range(lam.l1, total // 2 + 1):
            nu = Pair(nu1, total - nu1)
            coeffs[nu] = coeffs[nu.l2, nu.l1] = u_coeff(lam, nu, ctx)
        mp = cache[lam] = MacdonaldPoly(label=lam, poly=Laurent2(coeffs))
    return mp


def apply_H1(p: Laurent2, ctx: QContext) -> Laurent2:
    """First Hamiltonian: v12 T_{q,x1} + v21 T_{q,x2} with exact clearing.

    The rational coefficients share the denominator x1 - x2, and for a
    symmetric p the T_{q,x2} term is the mirror of the T_{q,x1} term: H1 p is
    the mirror quotient of c = s^g x1 - s^-g x2.  An asymmetric p raises
    ValueError.
    """
    st = ctx.sqrt_t
    return mirror_quotient(Laurent2({(1, 0): st, (0, 1): -ONE / st}), p, 2, ctx)


def apply_H2(p: Laurent2, ctx: QContext) -> Laurent2:
    """Second Hamiltonian: simultaneous q-shift of both variables."""
    q_table = partial(tables(ctx).spow_table, 2)
    return p.subs_powers(q_table, q_table)


def check_eigen(lam: Pair, ctx: QContext) -> bool:
    """H_j P_lam = h_j P_lam, exactly."""
    P = macdonald_poly(lam, ctx).poly
    spec = spectrum(lam, ctx)
    if apply_H1(P, ctx) != P * spec.h1:
        raise IdentityViolation(f"H1 eigenvalue fails for lam={lam}")
    if apply_H2(P, ctx) != P * spec.h2:
        raise IdentityViolation(f"H2 eigenvalue fails for lam={lam}")
    return True


# ---------------------------------------------------------------------------
# Separated polynomials
# ---------------------------------------------------------------------------

def separated_poly(lam: Pair, ctx: QContext) -> SeparatedPoly:
    """f_lam(y) = sum_{k=l1}^{l2} chi_k y^k = y^l1 phi_width(y) with the explicit chi ratios.

    phi_width depends on the label only through its width; it is built once
    per width and stored in the context's tables.
    """
    cache = tables(ctx).separated
    phi = cache.get(lam.width)
    if phi is None:
        phi = cache[lam.width] = _separated_factor(lam.width, ctx)
    return SeparatedPoly(label=lam, poly=phi.shifted(lam.l1))


def _separated_factor(n: int, ctx: QContext) -> Laurent1:
    """phi_n(y) = sum_{j=0}^{n} chi_j y^j, chi_0 = 1, chi_j / chi_(j-1) = base num_j / den_j.

    In powers of s, with t = s^(2g): base = q t^-2, num_j = (1 - t q^(j-1))
    (1 - q^(j-1-n)) and den_j = (1 - q^j)(1 - t^-1 q^(j-n)).  The denominator
    never vanishes: 1 - q^j has j >= 1, and 1 - t^-1 q^(j-n) = 1 - q^(j-n-g)
    has j - n - g <= -g < 0, while q^m = 1 only for m = 0 because 0 < q < 1.
    """
    tab = tables(ctx)
    spow, qpow, g = tab.spow, tab.qpow, ctx.g
    base = spow(2 - 4 * g)
    coeffs = {}
    chi = ONE
    coeffs[0] = chi
    for j in range(1, n + 1):
        num = (ONE - spow(2 * (g + j - 1))) * (ONE - qpow(j - 1 - n))
        den = (ONE - qpow(j)) * (ONE - spow(2 * (j - n - g)))
        chi = chi * base * num / den
        if chi != 0:
            coeffs[j] = chi
    return Laurent1(coeffs)


def separated_poly_alt(lam: Pair, ctx: QContext) -> SeparatedPoly:
    """f_lam through the transformed series with the (y;q)_{1-2g} prefactor.

    The series ratio (t^{-1}q;q)_j / (t^{-1}q^{1-n};q)_j degenerates at the
    integer point t = q^g: numerator and denominator each develop a single
    vanishing factor (the same one, 1 - t^{-1}q^g), which cancels in the
    limit.  Matching zero factors are therefore dropped pairwise before
    taking the ratio.

    Since q^m = 1 only for m = 0, the numerator factor 1 - b q^i vanishes
    only at i = g-1 and the denominator factor 1 - c q^i only at i = n+g-1,
    so a denominator zero always has its numerator partner; the terms with
    only the numerator zero vanish.  (a;q)_j first vanishes at j = n+2g,
    past the last term.  The series is divided by prod_{k<2g} (1 - q^-k y)
    as a polynomial in x1 alone.
    """
    q, t = ctx.q, ctx.t
    g = ctx.g
    n = lam.width
    a = (ONE / t ** 2) * q ** (1 - n)  # terminates the series
    b = (ONE / t) * q
    c = (ONE / t) * q ** (1 - n)
    series = {}
    qq = poch_a = num = den = ONE  # num, den: the nonzero factors of (b;q)_j, (c;q)_j
    zeros = 0  # zero factors of (b;q)_j less those of (c;q)_j
    for j in range(n + 2 * g):
        if j > 0:
            poch_a *= ONE - a * q ** (j - 1)
            qq *= ONE - q ** j
            fb, fc = ONE - b * q ** (j - 1), ONE - c * q ** (j - 1)
            if fb:
                num *= fb
            else:
                zeros += 1
            if fc:
                den *= fc
            else:
                zeros -= 1
        if zeros > 0:
            continue  # an unmatched numerator zero: the term vanishes
        series[j, 0] = poch_a * num / (den * qq)
    denom = Laurent2.one()
    for k in range(1, 2 * g):
        denom = denom * (Laurent2.one() - Laurent2.term(1, 0, q ** -k))
    try:
        quotient = divide_exact(Laurent2(series), denom)
    except Exception as exc:
        raise NotPolynomial(f"series/(y;q)_(1-2g) not polynomial for lam={lam}") from exc
    shifted = Laurent1({e + lam.l1: v for (e, _), v in quotient.c.items()})
    return SeparatedPoly(label=lam, poly=shifted)


def check_separation_equation(f: SeparatedPoly, spec: Spectrum, ctx: QContext) -> bool:
    """t(1-qy) f(q^2 y) - sqrt(t)(t-qy) h1 f(qy) + (t^2-qy) h2 f(y) == 0."""
    residual = separation_residual(f.poly, spec, ctx)
    if residual:
        raise IdentityViolation(f"separation equation residual {residual!r}")
    return True


def separation_residual(fp: Laurent1, spec: Spectrum, ctx: QContext) -> Laurent1:
    q, t = ctx.q, ctx.t
    st = ctx.sqrt_t
    y = Laurent1.term(1)
    f2 = fp.subs_scale(q ** 2)
    f1 = fp.subs_scale(q)
    term1 = (Laurent1.one() - y * q) * f2 * t
    term2 = (Laurent1.term(0, t) - y * q) * f1 * (st * spec.h1)
    term3 = (Laurent1.term(0, t ** 2) - y * q) * fp * spec.h2
    return term1 - term2 + term3


def separation_solution_dim(lam: Pair, ctx: QContext) -> int:
    """Dimension of Laurent solutions of the separation equation on [l1, l2].

    Writes the equation as a linear system on the coefficient window and
    rank-reduces it with exact elimination; the separated polynomial is the
    unique solution up to scale exactly when the dimension is 1.
    """
    q, t = ctx.q, ctx.t
    spec = spectrum(lam, ctx)
    idx = {k: i for i, k in enumerate(range(lam.l1, lam.l2 + 1))}
    ncols = len(idx)
    rows = []
    st = ctx.sqrt_t
    for m in range(lam.l1 - 1, lam.l2 + 2):
        row = [ZERO] * ncols
        #   c_m [t q^{2m} - t^{3/2} h1 q^m + t^2 h2]
        # + c_{m-1} [-t q^{2m-1} + t^{1/2} h1 q^m - h2 q]
        if m in idx:
            row[idx[m]] = t * q ** (2 * m) - t * st * spec.h1 * q ** m + t ** 2 * spec.h2
        if m - 1 in idx:
            row[idx[m - 1]] = (
                -t * q ** (2 * m - 1) + st * spec.h1 * q ** m - spec.h2 * q
            )
        if any(v != 0 for v in row):
            rows.append(row)
    rank = _exact_rank(rows, ncols)
    return ncols - rank


def _exact_rank(rows: list, ncols: int) -> int:
    rank = 0
    rows = [list(r) for r in rows]
    for col in range(ncols):
        pivot = None
        for i in range(rank, len(rows)):
            if rows[i][col] != 0:
                pivot = i
                break
        if pivot is None:
            continue
        rows[rank], rows[pivot] = rows[pivot], rows[rank]
        pr = rows[rank]
        for i in range(len(rows)):
            if i != rank and rows[i][col] != 0:
                factor = rows[i][col] / pr[col]
                rows[i] = [a - factor * b for a, b in zip(rows[i], pr)]
        rank += 1
    return rank
