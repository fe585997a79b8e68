"""The separating operator, its eigenbases, inverse, and transition matrices.

The operator acts diagonally on two families of product bases (p and r on
the input side, their tilded partners on the output side), which makes it
exactly computable on any symmetric Laurent polynomial: expand, scale each
coefficient by the diagonal multiplier, reassemble on the other side.  The
inverse comes either from inverting the diagonal action or, for integer g,
from an order-g difference operator with rational coefficients, one product
per diagonal a - b >= 0 of the shifted input plus its mirror.

An expansion in a basis and a transition row are both Laurent2 vectors whose
exponents are the labels nu: the expansion of P_lam in the r basis is the
rho row of lam.
"""

from __future__ import annotations

from dataclasses import dataclass
from functools import lru_cache

from . import macdonald
from .errors import IdentityViolation
from .exact import (
    Laurent1,
    Laurent2,
    ONE,
    Pair,
    QContext,
    _ratio,
    _times,
    divide_exact,
    frac,
    mirror_diagonal_sum,
    mirror_quotient,
    pairs_under,
    qshift,
    tables,
)

BASIS_TAGS = ("p", "r", "pt", "rt")


@dataclass(frozen=True)
class SeparatingImage:
    """Image of P_lam under the separating map, with its verified factorization."""

    lam: Pair
    poly: Laurent2
    c: object
    f: macdonald.SeparatedPoly


def _linear(c, e1: int, e2: int) -> Laurent2:
    """1 - c x1^e1 x2^e2."""
    return Laurent2({(0, 0): ONE, (e1, e2): -c})


def _basis_param(tag: str, ctx: QContext):
    """(forward, a) defining basis(tag, .), the only place the four bases are fixed.

    A forward basis is anchored at x1^nu1 x2^nu1 with factors (1 - a q^k x_j);
    a backward one at x1^nu2 x2^nu2 with factors (1 - a q^k / x_j).
    """
    if tag == "p":
        return True, ONE / ctx.xi
    if tag == "pt":
        return True, ONE
    if tag == "r":
        return False, ctx.t * ctx.xi
    if tag == "rt":
        return False, tables(ctx).tpow(2)
    raise ValueError(f"unknown basis tag {tag!r}")


def _factor_table(tag: str, ctx: QContext) -> list:
    """[factor(0), factor(1), ...] for (tag, ctx), grown by _factor; entries are never mutated."""
    factors = tables(ctx).factors
    table = factors.get(tag)
    if table is None:
        table = factors[tag] = [Laurent2.one()]
    return table


def _factor(tag: str, width: int, ctx: QContext) -> Laurent2:
    """prod_{k<width} (1 - a q^k x1^e)(1 - a q^k x2^e), e = +1 forward, -1 backward.

    The product depends on the label only through its width.  It is the
    tensor square A(x1) A(x2) of A(y) = prod_{k<width} (1 - a q^k y^e), and
    the context's tables keep each A beside its square (factors1 beside
    factors): each new width multiplies the previous A by the one linear
    factor of k = width - 1.
    """
    table = _factor_table(tag, ctx)
    if len(table) <= width:
        tab = tables(ctx)
        ones = tab.factors1.setdefault(tag, [Laurent1.one()])
        forward, a = _basis_param(tag, ctx)
        e = 1 if forward else -1
        for k in range(len(table) - 1, width):
            ones.append(ones[k] * Laurent1({0: ONE, e: -a * tab.qpow(k)}))
            table.append(ones[k + 1].tensor_square())
    return table[width]


@lru_cache(maxsize=None)
def basis(tag: str, nu: Pair, ctx: QContext) -> Laurent2:
    """Basis element: the per-width factor of tag shifted by x1^anchor x2^anchor.

    The anchor is nu1 for the forward bases (p, pt) and nu2 for the backward
    ones (r, rt); the factor is shared by every label of the same width, and
    the result shares its coefficient objects.  Results are cached and
    shared.
    """
    forward, _ = _basis_param(tag, ctx)
    anchor = nu.l1 if forward else nu.l2
    return _factor(tag, nu.width, ctx).shifted(anchor, anchor)


def expand_in_basis(p: Laurent2, tag: str, ctx: QContext) -> Laurent2:
    """Unique finite expansion of a symmetric polynomial in the tagged basis.

    The result holds the coefficient of basis(tag, nu) at exponent nu, in
    the order Laurent2.expand peels the labels off: the basis is triangular,
    basis(tag, nu) having its monomials in the box [nu1, nu2]^2.
    """
    return p.expand(lambda k: basis(tag, Pair(*k), ctx))


def reassemble(vec: Laurent2, tag: str, ctx: QContext) -> Laurent2:
    """sum of vec's entry at nu times basis(tag, nu): the inverse of expand_in_basis.

    Every basis element is symmetric, so this is vec.combine_symmetric.
    """
    return vec.combine_symmetric(lambda k: basis(tag, Pair(*k), ctx))


# ---------------------------------------------------------------------------
# Diagonal action and the separating map
# ---------------------------------------------------------------------------

def _multiplier(e: int, m: int, ctx: QContext):
    """t^-e xi^(2e) (t;q)_m / (t^2;q)_m, stored per (e, m) in the context's tables."""
    tab = tables(ctx)
    value = tab.multipliers.get((e, m))
    if value is None:
        up = (tab.ipow(-2 * ctx.g * e), tab.xipow(2 * e), tab.ipoch_t[m])
        value = tab.multipliers[(e, m)] = _ratio(up, (tab.ipoch_tt[m],))
    return value


def mu_p(nu: Pair, ctx: QContext):
    """Eigen-multiplier on the p side."""
    return _multiplier(nu.l1, nu.width, ctx)


def mu_r(nu: Pair, ctx: QContext):
    """Eigen-multiplier on the r side."""
    return _multiplier(nu.l2, nu.width, ctx)


def _mu_scaled(vec: Laurent2, side: str, ctx: QContext, inverse: bool = False) -> Laurent2:
    """The diagonal action: vec's entry at nu times mu_p(nu) (side "p") or mu_r(nu) ("r").

    With inverse, the entry is divided by the multiplier instead.
    """
    e = 0 if side == "p" else 1  # mu_p reads nu1, mu_r reads nu2

    def scale(k):
        mu = _multiplier(k[e], k[1] - k[0], ctx)
        return k, (ONE / mu if inverse else mu)

    return vec.map_terms(scale)


def apply_M(p: Laurent2, ctx: QContext) -> Laurent2:
    """Separating map, computed through the p basis."""
    return reassemble(_mu_scaled(expand_in_basis(p, "p", ctx), "p", ctx), "pt", ctx)


def apply_M_via_r(p: Laurent2, ctx: QContext) -> Laurent2:
    """Same map, computed through the r basis (dual-route consistency)."""
    return reassemble(_mu_scaled(expand_in_basis(p, "r", ctx), "r", ctx), "rt", ctx)


def apply_M_inverse(p: Laurent2, ctx: QContext) -> Laurent2:
    """Inverse map through the tilded p basis."""
    return reassemble(_mu_scaled(expand_in_basis(p, "pt", ctx), "p", ctx, inverse=True), "p", ctx)


def apply_M_inverse_qdiff(p: Laurent2, ctx: QContext) -> Laurent2:
    """Inverse map as the order-g difference operator sum_k n_k S_k p / denom.

    S_k: x1 -> q^k x1/xi, x2 -> t q^-k x2/xi is S_0 with the term at (a, b)
    scaled by q^(k(a-b)), so the sum is one product N_d p0_d per diagonal
    a - b = d of p0 = S_0 p, with the row N_d = sum_k q^(kd) n_k.  For a
    symmetric p the diagonals d < 0 are the mirror of those d > 0
    (exact.mirror_diagonal_sum; _qdiff_operator checks the identity), and the
    sum divides exactly.  An asymmetric p raises ValueError.
    """
    if not p.is_symmetric():
        raise ValueError("the difference-operator inverse acts on symmetric polynomials")
    denom, coeffs, rows = _qdiff_operator(ctx)
    qpow, xi_inv = tables(ctx).qpow, ONE / ctx.xi

    def row(d):
        if d not in rows:
            rows[d] = Laurent1({k: qpow(k * d) for k in range(len(coeffs))}).combine(coeffs.__getitem__)
        return rows[d]

    p0 = p.subs_scale(xi_inv, xi_inv * ctx.t)
    return divide_exact(mirror_diagonal_sum(row, p0, 2 * ctx.g + 1), denom)


def _qdiff_numerator(k: int, ctx: QContext) -> Laurent2:
    """n_k, the coefficient of S_k over the common denominator."""
    tab = tables(ctx)
    g = ctx.g
    qpow, pq = tab.qpow, tab.ipoch_q
    xi_inv, t_xi = ONE / ctx.xi, ctx.t * ctx.xi
    # (-1)^k s^(-k(k-1)) times the Gaussian binomial [g over k]_q from the (q; q)_n array
    coef = _ratio((((-1) ** k, 1), tab.ipow(-k * (k - 1)), pq[g]), (pq[k], pq[g - k]))
    nk = Laurent2.term(-k, k, coef) * _linear(qpow(g - 2 * k), -1, 1)
    for i in range(k):
        nk = nk * _linear(xi_inv * qpow(i), 1, 0) * _linear(t_xi * qpow(i), 0, -1)
    for i in range(g - k):
        nk = nk * _linear(xi_inv * qpow(i), 0, 1) * _linear(t_xi * qpow(i), -1, 0)
    for j in [*range(-g, -k), *range(g - k + 1, g + 1)]:
        nk = nk * _linear(qpow(j), -1, 1)
    return nk


def _qdiff_operator(ctx: QContext) -> tuple:
    """(denom, [n_0, ..., n_g], {d: N_d}): the input-independent part of apply_M_inverse_qdiff.

    Built once per context and kept in its tables; apply_M_inverse_qdiff adds
    each row N_d as it meets d.  The build checks with zero tolerance the
    mirror identities swap(n_k) = -(x1/x2)^(2g+1) n_(g-k), for every k, and
    swap(denom) = -(x1/x2)^(2g+1) denom.
    """
    tab = tables(ctx)
    if tab.qdiff is not None:
        return tab.qdiff
    g = ctx.g
    denom = Laurent2({(0, 0): frac(*tab.ipoch_t[g])})
    for j in range(-g, g + 1):
        denom = denom * _linear(tab.qpow(j), -1, 1)
    coeffs = [_qdiff_numerator(k, ctx) for k in range(g + 1)]
    m = 2 * g + 1
    names = ["denom"] + [f"n_{k}" for k in range(g + 1)]
    for name, f, mirror in zip(names, [denom] + coeffs, [denom] + coeffs[::-1]):
        if f.swap() != -mirror.shifted(m, -m):
            raise IdentityViolation(f"mirror identity of the difference operator fails for {name}")
    tab.qdiff = (denom, coeffs, {})
    return tab.qdiff


def normalization_c(lam: Pair, ctx: QContext):
    """Scale factor in front of the factorized image of P_lam: (t xi)^width mu_p(lam)."""
    return (ctx.t * ctx.xi) ** lam.width * mu_p(lam, ctx)


def f_tensor(f: macdonald.SeparatedPoly) -> Laurent2:
    """f(y1) * f(y2) as a symmetric two-variable polynomial."""
    return f.poly.tensor_square()


def separate(lam: Pair, ctx: QContext) -> SeparatingImage:
    """Apply the separating map to P_lam and verify the factorized form."""
    P = macdonald.macdonald_poly(lam, ctx).poly
    image = apply_M(P, ctx)
    c = normalization_c(lam, ctx)
    f = macdonald.separated_poly(lam, ctx)
    expected = f_tensor(f) * c
    if image != expected:
        raise IdentityViolation(
            f"factorization fails for lam={lam}: residual {(image - expected)!r}"
        )
    return SeparatingImage(lam=lam, poly=image, c=c, f=f)


# ---------------------------------------------------------------------------
# Quantum characteristic equation and the Jacobian action
# ---------------------------------------------------------------------------

def jacobian_coeffs(nu: Pair, j: int, ctx: QContext):
    """(a, b, c) with H_j r_nu = a r_nu + b r_(nu1+1,nu2) + c r_(nu1,nu2-1)."""
    tab = tables(ctx)
    spow, qpow, xi, g = tab.spow, tab.qpow, ctx.xi, ctx.g
    m = nu.width
    if j == 1:
        a = macdonald.spectrum(nu, ctx).h1
        b = -spow(-g) * qpow(nu.l1) * (ONE - qpow(m))
        c = spow(5 * g) * xi ** 2 * qpow(-nu.l1 + 2 * nu.l2 - 2) * (ONE - qpow(m))
    elif j == 2:
        a = macdonald.spectrum(nu, ctx).h2
        b = -a * (ONE - qpow(m))
        c = tab.tpow(2) * xi ** 2 * qpow(2 * nu.l2 - 2) * (ONE - qpow(m))
    else:
        raise ValueError("j must be 1 or 2")
    return a, b, c


def check_jacobian_action(nu: Pair, j: int, ctx: QContext) -> bool:
    """H_j acts tridiagonally on the r basis with the explicit coefficients."""
    r = basis("r", nu, ctx)
    lhs = macdonald.apply_H1(r, ctx) if j == 1 else macdonald.apply_H2(r, ctx)
    a, b, c = jacobian_coeffs(nu, j, ctx)
    rhs = r * a
    if b != 0:
        rhs = rhs + basis("r", Pair(nu.l1 + 1, nu.l2), ctx) * b
    if c != 0:
        rhs = rhs + basis("r", Pair(nu.l1, nu.l2 - 1), ctx) * c
    if lhs != rhs:
        raise IdentityViolation(f"tridiagonal action fails for nu={nu}, j={j}")
    return True


def check_rt_shift_relations(nu: Pair, ctx: QContext) -> bool:
    """Cleared forms of the shift identities used to contract everything onto r~_nu."""
    tab = tables(ctx)
    m = nu.width
    rt = basis("rt", nu, ctx)
    c = tab.qpow(m - 1) * tab.tpow(2)
    factor = _linear(c, -1, 0) * _linear(c, 0, -1)
    if m >= 1:
        up = basis("rt", Pair(nu.l1 + 1, nu.l2), ctx)
        if up * factor != rt:
            raise IdentityViolation(f"first shift relation fails for nu={nu}")
        down = basis("rt", Pair(nu.l1, nu.l2 - 1), ctx)
        if down * Laurent2.term(1, 1) * factor != rt:
            raise IdentityViolation(f"second shift relation fails for nu={nu}")
    for jdx in range(2):
        lhs = qshift(rt, jdx, 2, ctx)
        e = (-1, 0) if jdx == 0 else (0, -1)
        fac_j = _linear(c, *e)
        fac_r = _linear(tab.tpow(2) / ctx.q, *e)
        if lhs * fac_j != rt * fac_r * tab.qpow(nu.l2):
            raise IdentityViolation(f"q-shift relation fails for nu={nu}, j={jdx + 1}")
    return True


def check_quantum_char_eq(nu: Pair, ctx: QContext) -> bool:
    """The three-term operator identity annihilates r_nu in y_1 and in y_2, exactly.

    Both identities read the same images M r_nu, M H1 r_nu and M H2 r_nu.
    """
    spow, g = tables(ctx).spow, ctx.g
    r = basis("r", nu, ctx)
    m_r = apply_M_via_r(r, ctx)
    m_h1 = apply_M_via_r(macdonald.apply_H1(r, ctx), ctx)
    m_h2 = apply_M_via_r(macdonald.apply_H2(r, ctx), ctx)
    for jdx, ej in enumerate(((1, 0), (0, 1))):
        # q / t = s^(2-2g), q / t^2 = s^(2-4g) and t^(1/2) = s^g
        term1 = _linear(ctx.q, *ej) * qshift(m_r, jdx, 4, ctx)
        term2 = _linear(spow(2 - 2 * g), *ej) * qshift(m_h1, jdx, 2, ctx) * spow(g)
        term3 = _linear(spow(2 - 4 * g), *ej) * m_h2 * ctx.t
        residual = term1 - term2 + term3
        if residual:
            raise IdentityViolation(
                f"characteristic equation residual for nu={nu}, j={jdx + 1}: {residual!r}"
            )
    return True


# ---------------------------------------------------------------------------
# Transition matrices: closed forms and recurrences
# ---------------------------------------------------------------------------

def _closed_entry(base: str, lam: Pair, nu: Pair, ctx: QContext):
    """Product formula for the (lam, nu) entry of the rho, pi, R or Q matrix.

    rho and pi share one Pochhammer magnitude, R and Q another; each kind
    adds its own power of t*xi or xi and its own power of q^(1/2).  With
    t = s^(2g), (t xi)^k is s^(2gk) xi^k, so the entry is a signed product of
    the context's integer tables, reduced once into one scalar.
    """
    tab = tables(ctx)
    pq = tab.ipoch_q
    m = nu.width
    if base in ("rho", "pi"):
        pt = tab.ipoch_t
        num = (pt[nu.l2 - lam.l1], pt[lam.l2 - nu.l1], pq[lam.width])
        den = (pq[lam.l2 - nu.l2], pq[nu.l1 - lam.l1], pt[m], pt[lam.width], pq[m])
    else:
        ptq = tab.ipoch_tq
        num = (ptq[lam.width], ptq[m], pq[lam.width])
        den = (pq[lam.l2 - nu.l2], pq[nu.l1 - lam.l1], ptq[nu.l2 - lam.l1], ptq[lam.l2 - nu.l1], pq[m])
    squares = nu.l1 ** 2 + nu.l2 ** 2
    g2 = 2 * ctx.g
    if base == "rho":
        k = lam.total - 2 * nu.l2  # (t xi)^k
        expo = m * (2 * lam.l1 + 1 - nu.total) + g2 * k
    elif base == "pi":
        k = lam.total - 2 * nu.l1  # xi^k
        expo = m * (nu.total - 2 * lam.l2 + 1)
    elif base == "R":
        k = 2 * lam.l2 - nu.total  # (t xi)^k
        expo = 2 * lam.l2 ** 2 - 2 * (nu.total + 1) * lam.l2 + nu.total + squares + g2 * k
    else:
        k = 2 * lam.l1 - nu.total  # xi^k
        expo = 2 * lam.l1 ** 2 - 2 * (nu.total - 1) * lam.l1 - nu.total + squares
    return _ratio((((-1) ** m, 1), tab.ipow(expo), tab.xipow(k)) + num, den)


def rho_diagonal(lam: Pair, ctx: QContext):
    m = lam.width
    return (-ONE) ** m * tables(ctx).spow(-m * (m - 1)) * (ctx.t * ctx.xi) ** (-m)


def R_diagonal(lam: Pair, ctx: QContext):
    m = lam.width
    return (-ONE) ** m * tables(ctx).spow(m * (m - 1)) * (ctx.t * ctx.xi) ** m


def _ladder_primitives(ctx: QContext) -> tuple:
    """(one_minus, ipow, 2g, t^2 xi^2): what both ladders read, the last as an int pair."""
    tab = tables(ctx)
    (tn, td), (xn, xd) = tab.ipow(4 * ctx.g), tab.xipow(2)
    return tab.one_minus, tab.ipow, 2 * ctx.g, (tn * xn, td * xd)


def _rho_row_recurrence(lam: Pair, ctx: QContext) -> dict:
    """Row of rho coefficients grown from the diagonal seed by the two ladder moves.

    A move divides the entry it starts from by a ladder coefficient, a ratio
    of 1 - s^e and s^e int pairs; the quotient is one scalar per entry.
    """
    one_minus, ipow, g2, t2_xi2 = _ladder_primitives(ctx)

    def step_down_nu2(nu: Pair):
        # coefficient in rho^(nu1, nu2+1) = C_b(nu) * rho^nu, as (numerator, denominator) factors
        m = nu.width
        return (
            ((-1, 1), one_minus(2 * (lam.l2 - nu.l2)), one_minus(g2 + 2 * (nu.l2 - lam.l1))),
            (ipow(2 * (nu.l2 - lam.l1)), t2_xi2, one_minus(2 * m + 2), one_minus(g2 + 2 * m)),
        )

    def step_up_nu1(nu: Pair):
        # coefficient in rho^(nu1-1, nu2) = C_a(nu) * rho^nu, as (numerator, denominator) factors
        m = nu.width
        return (
            ((-1, 1), one_minus(2 * (nu.l1 - lam.l1)), one_minus(g2 + 2 * (lam.l2 - nu.l1))),
            (ipow(2 * (nu.l1 - lam.l1 - 1)), one_minus(2 * m + 2), one_minus(g2 + 2 * m)),
        )

    def divided(value, step):
        top, bottom = step
        return frac(*_times(value.numerator, value.denominator, bottom, top))

    row = {lam: rho_diagonal(lam, ctx)}
    for m2 in range(lam.l2, lam.l1, -1):
        nu = Pair(lam.l1, m2 - 1)
        row[nu] = divided(row[Pair(lam.l1, m2)], step_down_nu2(nu))
    for m2 in range(lam.l1, lam.l2 + 1):
        for m1 in range(lam.l1, m2):
            nu = Pair(m1 + 1, m2)
            row[nu] = divided(row[Pair(m1, m2)], step_up_nu1(nu))
    return row


def _R_row_recurrence(lam: Pair, ctx: QContext) -> dict:
    """Row of R coefficients: for each nu, ladder the row label from nu up to lam.

    The ladder's product stays one unreduced int pair until its entry is made.
    """
    one_minus, ipow, g2, t2_xi2 = _ladder_primitives(ctx)

    def grow_l2(mu: Pair, nu: Pair):
        # coefficient in R_(mu1, mu2-1) = D_b(mu) * R_mu, as (numerator, denominator) factors
        w = mu.width
        return (
            (one_minus(2 * (mu.l2 - nu.l2)), one_minus(g2 + 2 * (mu.l2 - nu.l1))),
            (ipow(2 * (2 * mu.l2 - nu.total - 2)), t2_xi2, one_minus(2 * w), one_minus(g2 + 2 * w)),
        )

    def grow_l1(mu: Pair, nu: Pair):
        # coefficient in R_(mu1+1, mu2) = D_a(mu) * R_mu, as (numerator, denominator) factors
        w = mu.width
        return (
            (one_minus(2 * (nu.l1 - mu.l1)), one_minus(g2 + 2 * (nu.l2 - mu.l1))),
            (one_minus(2 * w), one_minus(g2 + 2 * w)),
        )

    seeds = {}  # width -> R_diagonal as a pair
    row = {}
    for nu in pairs_under(lam):
        if nu.width not in seeds:
            diag = R_diagonal(nu, ctx)
            seeds[nu.width] = (diag.numerator, diag.denominator)
        n, d = seeds[nu.width]
        for m2 in range(nu.l2 + 1, lam.l2 + 1):
            top, bottom = grow_l2(Pair(nu.l1, m2), nu)
            n, d = _times(n, d, bottom, top)
        for m1 in range(nu.l1 - 1, lam.l1 - 1, -1):
            top, bottom = grow_l1(Pair(m1, lam.l2), nu)
            n, d = _times(n, d, bottom, top)
        row[nu] = frac(n, d)
    return row


def transition_row(kind: str, lam: Pair, ctx: QContext, method: str = "closed") -> Laurent2:
    """Row of a transition matrix over {nu inside lam}, zero entries dropped.

    The row is a Laurent2 whose exponent nu carries the nu entry (in
    pairs_under order for the closed route): the row the context's
    tables store, shared with every caller.

    kind is one of pi, rho, Q, R or the tilded variants pit, rhot, Qt, Rt;
    method 'closed' uses the product formulas, 'recurrence' builds the row
    from the diagonal initial condition.  Each (kind, lam, method) row is
    built once and stored in the context's tables, so the two routes never
    read each other's rows; kind and method are checked only when a row is
    built.  pi and Q rows by recurrence come from the rho and R rows of the
    reflected label through the involution; a tilded row scales the
    untilded row of its route by mu_p(nu), mu_r(nu) (through _mu_scaled),
    1/mu_p(lam) or 1/mu_r(lam).
    """
    rows = tables(ctx).rows
    key = (kind, lam, method)
    row = rows.get(key)
    if row is not None:
        return row
    base = kind[:-1] if kind.endswith("t") else kind
    if base not in ("pi", "rho", "Q", "R"):
        raise ValueError(f"unknown transition kind {kind!r}")
    if method not in ("closed", "recurrence"):
        raise ValueError("method must be 'closed' or 'recurrence'")
    if base != kind:
        row = transition_row(base, lam, ctx, method)
        if base in ("pi", "rho"):
            row = _mu_scaled(row, "p" if base == "pi" else "r", ctx)
        else:
            row = row * (ONE / (mu_p(lam, ctx) if base == "Q" else mu_r(lam, ctx)))
    elif method == "closed":
        row = Laurent2({nu: _closed_entry(base, lam, nu, ctx) for nu in pairs_under(lam)})
    elif base == "rho":
        row = Laurent2(_rho_row_recurrence(lam, ctx))
    elif base == "R":
        row = Laurent2(_R_row_recurrence(lam, ctx))
    else:
        # the involution: the entry at nu of the reflected row moves to nu.bar() = (-nu2, -nu1)
        bar = transition_row("rho" if base == "pi" else "R", lam.bar(), ctx, method)
        scale = ctx.t * ctx.xi ** 2
        if base == "pi":
            row = bar.map_terms(lambda k: ((-k[1], -k[0]), scale ** (lam.total + 2 * k[1])))
        else:
            row = bar.map_terms(lambda k: ((-k[1], -k[0]), scale ** (2 * lam.l1 + k[0] + k[1])))
    rows[key] = row
    return row


# ---------------------------------------------------------------------------
# Involutions and invariant difference operators
# ---------------------------------------------------------------------------

def involution_U(p: Laurent2, ctx: QContext) -> Laurent2:
    """x_j -> t xi^2 / x_j in both variables."""
    return p.subs_invert_scale(ctx.t * ctx.xi ** 2)


def involution_V(p: Laurent2, ctx: QContext) -> Laurent2:
    """y_j -> t^2 / y_j in both variables."""
    return p.subs_invert_scale(tables(ctx).tpow(2))


def apply_shift(p: Laurent2, j: int, tag: str, ctx: QContext) -> Laurent2:
    """First-order q-shift operator diagonal on basis(tag, .) in variable j.

    Its eigenvalue on basis(tag, nu) is q^nu_j for the forward bases (p, pt)
    and q^-nu_j for the backward ones (r, rt).  It is the mirror quotient of
    one coefficient c per j, shifting by q forward and by q^-1 backward; p
    must be symmetric (ValueError otherwise).
    """
    forward, a = _basis_param(tag, ctx)
    b = a if forward else ONE / a
    if j == 1:
        c = Laurent2({(0, 1): -ONE, (1, 1): b})
    elif j == 2:
        c = Laurent2({(0, 0): -ONE / b, (1, 0): ONE})
    else:
        raise ValueError("j must be 1 or 2")
    return mirror_quotient(c, p, 2 if forward else -2, ctx)


def apply_M_identified(p: Laurent2, ctx: QContext) -> Laurent2:
    """The map followed by the identification y_j = x_j / xi of both spaces."""
    out = apply_M(p, ctx)
    return out.subs_scale(ONE / ctx.xi, ONE / ctx.xi)
