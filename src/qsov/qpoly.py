"""Continuous q-ultraspherical polynomials in the unit-circle variable w.

C_n is kept as a Laurent polynomial in w = e^{i*theta} (so the classical
argument is (w + 1/w)/2), which keeps every coefficient rational.  Two
independent constructions are provided: the explicit terminating sum and
the three-term recurrence; the generating-function check multiplies the two
q-binomial series and compares coefficients order by order with the
recurrence.
"""

from __future__ import annotations

from .errors import IdentityViolation
from .exact import Laurent1, Laurent2, ONE, QContext, _ratio, as_rational, qpochhammer, tables


def cq_sum(n: int, beta, ctx: QContext) -> Laurent1:
    """C_n(.; beta | q) via the explicit sum over w^(n-2k)."""
    if n < 0:
        raise ValueError("degree must be nonnegative")
    beta = as_rational(beta)
    q = ctx.q
    ratios = _series_ratios(n, beta, q)
    return Laurent1({n - 2 * k: ratios[k] * ratios[n - k] for k in range(n + 1)})


def _series_ratios(n: int, beta, q) -> list:
    """r_k = (beta;q)_k / (q;q)_k for k = 0..n."""
    ratios = [ONE]
    num = ONE
    den = ONE
    for k in range(1, n + 1):
        num *= ONE - beta * q ** (k - 1)
        den *= ONE - q ** k
        ratios.append(num / den)
    return ratios


def cq_recurrence(n: int, beta, ctx: QContext) -> Laurent1:
    """C_n built from the three-term recurrence with 2*arg = w + 1/w."""
    if n < 0:
        raise ValueError("degree must be nonnegative")
    beta = as_rational(beta)
    q = ctx.q
    c_prev = Laurent1.one()
    if n == 0:
        return c_prev
    two_xi = Laurent1({1: ONE, -1: ONE})
    c_cur = two_xi * ((ONE - beta) / (ONE - q))
    for m in range(1, n):
        # 2(1 - beta q^m) xi C_m = (1 - q^{m+1}) C_{m+1} + (1 - beta^2 q^{m-1}) C_{m-1}
        lhs = two_xi * c_cur * (ONE - beta * q ** m)
        c_next = (lhs - c_prev * (ONE - beta ** 2 * q ** (m - 1))) * (
            ONE / (ONE - q ** (m + 1))
        )
        c_prev, c_cur = c_cur, c_next
    return c_cur


def generating_function_check(N: int, beta, ctx: QContext) -> bool:
    """Coefficient of z^n in the two-sided q-binomial product equals C_n, n <= N.

    Expands (beta*w*z;q)_inf/(w*z;q)_inf and its w -> 1/w partner as power
    series in z with coefficients (beta;q)_n/(q;q)_n * w^{+-n}, truncated at
    z^N, multiplies them as Laurent2 polynomials in (w, z), and compares each
    z-order against cq_recurrence, which reads none of those coefficients.
    """
    if N < 0:
        raise ValueError("order must be nonnegative")
    beta = as_rational(beta)
    ratios = _series_ratios(N, beta, ctx.q)
    forward = Laurent2({(j, j): r for j, r in enumerate(ratios)})
    backward = Laurent2({(-k, k): r for k, r in enumerate(ratios)})
    product = forward * backward
    for n in range(N + 1):
        order = Laurent1({w: c for (w, m), c in product.c.items() if m == n})
        direct = cq_recurrence(n, beta, ctx)
        if order != direct:
            raise IdentityViolation(
                f"generating function mismatch at order {n}: {order - direct!r}"
            )
    return True


def leading_coefficient(n: int, beta, ctx: QContext):
    """Coefficient of w^n in C_n: (beta;q)_n/(q;q)_n."""
    return qpochhammer(beta, ctx.q, n) / qpochhammer(ctx.q, ctx.q, n)


def cq_to_onevariable(lam, ctx: QContext) -> Laurent1:
    """Rebuild the separated one-variable polynomial from C_{l2-l1}.

    Substitutes w^2 = t/y into y^(|lam|/2) t^(-width/2) (q;q)_w/(t;q)_w * C_width,
    which collapses to sum_k c_k t^(-k) y^(l1+k) with c_k the C-coefficients.
    """
    n = lam.width
    tab = tables(ctx)
    c = cq_sum(n, ctx.t, ctx)
    scale = _ratio((tab.ipoch_q[n],), (tab.ipoch_t[n],))
    return Laurent1({lam.l1 + k: scale * c.coeff(n - 2 * k) * tab.tpow(-k) for k in range(n + 1)})
