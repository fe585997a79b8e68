import random
import time
from math import gcd

import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from qsov import exact, macdonald, sov, suites
from qsov.errors import IdentityViolation, NonTerminating
from qsov.exact import (
    Laurent2,
    Pair,
    QContext,
    frac,
    qpochhammer,
    random_rational,
    random_symmetric,
    tables,
)

CTX = QContext(s=frac(1, 2), g=1, xi=frac(3, 2))
CTX2 = QContext(s=frac(1, 3), g=2, xi=frac(2))
CTXS = [CTX, CTX2]


def test_basis_elements():
    xi_inv = 1 / CTX.xi
    assert sov.basis("p", Pair(2, 2), CTX) == Laurent2.term(2, 2)
    p01 = sov.basis("p", Pair(0, 1), CTX)
    expect = Laurent2(
        {(0, 0): 1, (1, 0): -xi_inv, (0, 1): -xi_inv, (1, 1): xi_inv ** 2}
    )
    assert p01 == expect
    rt01 = sov.basis("rt", Pair(0, 1), CTX)
    t2 = CTX.t ** 2
    expect = Laurent2({(1, 1): 1, (0, 1): -t2, (1, 0): -t2, (0, 0): t2 ** 2})
    assert rt01 == expect
    for tag in sov.BASIS_TAGS:
        assert sov.basis(tag, Pair(-1, 2), CTX).is_symmetric()
    with pytest.raises(ValueError):
        sov.basis("q", Pair(0, 1), CTX)
    with pytest.raises(ValueError):
        sov.apply_shift(Laurent2.one(), 1, "q", CTX)


def test_expand_round_trip():
    rng = random.Random(2)
    for tag in sov.BASIS_TAGS:
        assert sov.expand_in_basis(Laurent2.one(), tag, CTX) == Laurent2({Pair(0, 0): 1})
        for _ in range(4):
            nu = Pair(rng.randint(-3, 1), rng.randint(1, 4))
            exp = sov.expand_in_basis(sov.basis(tag, nu, CTX), tag, CTX)
            assert exp == Laurent2({nu: 1})
        p = random_symmetric(rng, degree=4, terms=4)
        exp = sov.expand_in_basis(p, tag, CTX)
        assert sov.reassemble(exp, tag, CTX) == p


def test_expand_rejects_asymmetric():
    # the one symmetry check is the pass of Laurent2.expand that builds its half
    for terms in ({(0, 1): 1}, {(1, 0): 1}, {(0, 1): 1, (1, 0): 2}):
        with pytest.raises(NonTerminating, match="not symmetric"):
            sov.expand_in_basis(Laurent2(terms), "p", CTX)


@pytest.mark.parametrize("terms", [{(0, 1): 1}, {(0, 1): 1, (1, 0): 2}, {(2, -1): 1, (0, 0): 1}])
def test_first_order_operators_reject_an_asymmetric_polynomial(terms):
    # A - swap(A) divides exactly for any p: only the symmetry check stops a wrong quotient
    p = Laurent2(terms)
    with pytest.raises(ValueError, match="symmetric"):
        macdonald.apply_H1(p, CTX)
    for tag in sov.BASIS_TAGS:
        for j in (1, 2):
            with pytest.raises(ValueError, match="symmetric"):
                sov.apply_shift(p, j, tag, CTX)


def test_expansion_matches_transition_row():
    lam = Pair(0, 1)
    P = macdonald.macdonald_poly(lam, CTX).poly
    assert sov.expand_in_basis(P, "r", CTX) == sov.transition_row("rho", lam, CTX)


def test_map_on_constants_and_monomials():
    assert sov.apply_M(Laurent2.one(), CTX) == Laurent2.one()
    for k in range(-2, 3):
        image = sov.apply_M(Laurent2.term(k, k), CTX)
        assert image == Laurent2.term(k, k, (CTX.xi ** 2 / CTX.t) ** k)


def test_map_diagonal_on_bases():
    for nu in (Pair(0, 1), Pair(-1, 2)):
        assert sov.apply_M(sov.basis("p", nu, CTX), CTX) == sov.basis(
            "pt", nu, CTX
        ) * sov.mu_p(nu, CTX)
        assert sov.apply_M_via_r(sov.basis("r", nu, CTX), CTX) == sov.basis(
            "rt", nu, CTX
        ) * sov.mu_r(nu, CTX)


def test_map_factorizes_small_label():
    # oracle: hand expansion of the l=(0,1) image gives
    # xi/(1+t) * (t + (y1+y2) + y1 y2 / t)
    t, xi = CTX.t, CTX.xi
    image = sov.apply_M(macdonald.macdonald_poly(Pair(0, 1), CTX).poly, CTX)
    head = xi / (1 + t)
    expect = Laurent2(
        {(0, 0): head * t, (1, 0): head, (0, 1): head, (1, 1): head / t}
    )
    assert image == expect
    assert image == sov.f_tensor(
        macdonald.separated_poly(Pair(0, 1), CTX)
    ) * sov.normalization_c(Pair(0, 1), CTX)


@pytest.mark.parametrize("ctx", CTXS)
def test_dual_route_and_inverse(ctx):
    rng = random.Random(4)
    for _ in range(6):
        p = random_symmetric(rng, degree=5, terms=5)
        image = sov.apply_M(p, ctx)
        assert image == sov.apply_M_via_r(p, ctx)
        assert sov.apply_M_inverse(image, ctx) == p
        assert sov.apply_M(sov.apply_M_inverse(p, ctx), ctx) == p


def test_inverse_integral_representation():
    lam = Pair(0, 2)
    F = sov.f_tensor(macdonald.separated_poly(lam, CTX)) * sov.normalization_c(lam, CTX)
    assert sov.apply_M_inverse(F, CTX) == macdonald.macdonald_poly(lam, CTX).poly


@pytest.mark.parametrize("g", [1, 2, 3])
def test_difference_operator_inverse(g):
    ctx = QContext(s=frac(1, 2), g=g, xi=frac(3, 2))
    assert sov.apply_M_inverse_qdiff(Laurent2.one(), ctx) == Laurent2.one()
    rng = random.Random(g)
    for _ in range(4):
        p = random_symmetric(rng, degree=4, terms=4)
        assert sov.apply_M_inverse_qdiff(p, ctx) == sov.apply_M_inverse(p, ctx)


def test_difference_inverse_rebuilds_polynomial():
    lam = Pair(0, 1)
    F = sov.f_tensor(macdonald.separated_poly(lam, CTX)) * sov.normalization_c(lam, CTX)
    assert sov.apply_M_inverse_qdiff(F, CTX) == macdonald.macdonald_poly(lam, CTX).poly


def test_normalization_values():
    assert sov.normalization_c(Pair(0, 0), CTX) == 1
    # oracle: t^(l2-2l1) xi^(l1+l2) (t;q)_1/(t^2;q)_1 = t xi (1-t)/(1-t^2)
    t, xi = CTX.t, CTX.xi
    assert sov.normalization_c(Pair(0, 1), CTX) == t * xi * (1 - t) / (1 - t ** 2)
    assert sov.normalization_c(Pair(1, 1), CTX) == xi ** 2 / t


@pytest.mark.parametrize("ctx", CTXS)
def test_factorization_small_grid(ctx):
    for lam in (Pair(0, 0), Pair(0, 1), Pair(1, 1), Pair(-1, 2), Pair(0, 3), Pair(-2, -1)):
        sov.separate(lam, ctx)


@pytest.mark.parametrize("ctx", CTXS)
def test_quantum_characteristic_equation(ctx):
    for nu in (Pair(0, 0), Pair(0, 3), Pair(-1, 2)):
        assert sov.check_quantum_char_eq(nu, ctx)


@pytest.mark.parametrize("jdx", [0, 1])
def test_char_eq_checks_each_variable(monkeypatch, jdx):
    # perturb the shifted images in one variable only: that variable's identity must fail
    real = sov.qshift

    def perturbed(p, j, s_steps, ctx):
        out = real(p, j, s_steps, ctx)
        return out + Laurent2.term(0, 0) if j == jdx else out

    monkeypatch.setattr(sov, "qshift", perturbed)
    with pytest.raises(IdentityViolation, match=f"j={jdx + 1}:"):
        sov.check_quantum_char_eq(Pair(-1, 2), CTX)


def test_char_eq_case_builds_each_image_once(monkeypatch):
    sov.basis.cache_clear()
    exact.clear_tables()
    calls = []
    real = sov.apply_M_via_r

    def counted(p, ctx):
        calls.append(p)
        return real(p, ctx)

    monkeypatch.setattr(sov, "apply_M_via_r", counted)
    for nu in (Pair(0, 0), Pair(-1, 2), Pair(0, 3)):
        calls.clear()
        suites.case_char_eq(CTX, nu)
        # M r_nu, M H1 r_nu and M H2 r_nu, shared by the identities in y_1 and y_2
        assert len(calls) == 3, nu


@pytest.mark.parametrize("ctx", CTXS)
def test_jacobian_action_and_shifts(ctx):
    for nu in (Pair(0, 0), Pair(0, 2), Pair(-2, 1), Pair(1, 4)):
        for j in (1, 2):
            assert sov.check_jacobian_action(nu, j, ctx)
        assert sov.check_rt_shift_relations(nu, ctx)


def test_involution_examples():
    assert sov.involution_U(Laurent2.one(), CTX) == Laurent2.one()
    for nu in (Pair(0, 0), Pair(-1, 2), Pair(1, 3)):
        lhs = sov.involution_U(sov.basis("p", nu, CTX), CTX)
        scale = CTX.t ** (2 * nu.l1) * CTX.xi ** (4 * nu.l1)
        assert lhs == sov.basis("r", nu.bar(), CTX) * scale
        lhs = sov.involution_V(sov.basis("pt", nu, CTX), CTX)
        assert lhs == sov.basis("rt", nu.bar(), CTX) * CTX.t ** (4 * nu.l1)


def test_involution_on_macdonald_and_intertwining():
    rng = random.Random(8)
    for lam in (Pair(0, 2), Pair(-1, 1)):
        lhs = sov.involution_U(macdonald.macdonald_poly(lam, CTX).poly, CTX)
        scale = CTX.t ** lam.total * CTX.xi ** (2 * lam.total)
        assert lhs == macdonald.macdonald_poly(lam.bar(), CTX).poly * scale
    for _ in range(4):
        p = random_symmetric(rng, degree=3, terms=3)
        assert sov.apply_M(sov.involution_U(p, CTX), CTX) == sov.involution_V(
            sov.apply_M(p, CTX), CTX
        )


@pytest.mark.parametrize("ctx", CTXS)
def test_shift_operator_eigenvalues(ctx):
    for nu in (Pair(0, 0), Pair(0, 3), Pair(-1, 2)):
        pb = sov.basis("p", nu, ctx)
        rb = sov.basis("r", nu, ctx)
        ptb = sov.basis("pt", nu, ctx)
        rtb = sov.basis("rt", nu, ctx)
        for j, e in ((1, nu.l1), (2, nu.l2)):
            assert sov.apply_shift(pb, j, "p", ctx) == pb * ctx.q ** e
            assert sov.apply_shift(rb, j, "r", ctx) == rb * ctx.q ** (-e)
            assert sov.apply_shift(ptb, j, "pt", ctx) == ptb * ctx.q ** e
            assert sov.apply_shift(rtb, j, "rt", ctx) == rtb * ctx.q ** (-e)


def test_shift_operator_intertwining_and_commutation():
    rng = random.Random(12)
    for _ in range(3):
        p = random_symmetric(rng, degree=3, terms=3)
        for j in (1, 2):
            assert sov.apply_M(sov.apply_shift(p, j, "p", CTX), CTX) == sov.apply_shift(
                sov.apply_M(p, CTX), j, "pt", CTX
            )
            assert sov.apply_M(sov.apply_shift(p, j, "r", CTX), CTX) == sov.apply_shift(
                sov.apply_M(p, CTX), j, "rt", CTX
            )
            assert sov.apply_M_identified(
                sov.apply_shift(p, j, "p", CTX), CTX
            ) == sov.apply_shift(sov.apply_M_identified(p, CTX), j, "p", CTX)
        assert sov.apply_shift(sov.apply_shift(p, 2, "p", CTX), 1, "p", CTX) == sov.apply_shift(
            sov.apply_shift(p, 1, "p", CTX), 2, "p", CTX
        )
        assert sov.apply_shift(sov.apply_shift(p, 2, "r", CTX), 1, "r", CTX) == sov.apply_shift(
            sov.apply_shift(p, 1, "r", CTX), 2, "r", CTX
        )


def test_separating_image_fields():
    lam = Pair(-2, 3)
    image = sov.separate(lam, CTX)
    assert image.lam == lam
    assert image.c == sov.normalization_c(lam, CTX)
    assert image.poly == sov.f_tensor(image.f) * image.c
    assert image.poly.is_symmetric()


@st.composite
def off_grid_contexts(draw):
    """s = a/b with b <= 13, g <= 5, xi negative or not an integer: off the suites' grid."""
    den = draw(st.integers(2, 13))
    s = frac(draw(st.integers(1, den - 1)), den)
    xi = draw(
        st.builds(frac, st.integers(-9, 9).filter(bool), st.integers(1, 7)).filter(
            lambda v: v < 0 or v.denominator > 1
        )
    )
    return QContext(s=s, g=draw(st.integers(1, 5)), xi=xi)


#: Contexts where a sign or inversion slip hides: xi = -1, t xi^2 = 1 (xi = s^-g),
#: xi = 1/t, xi = q, and s close to 1.
SPOT_CONTEXTS = [
    QContext(s=frac(1, 2), g=2, xi=frac(-1)),
    QContext(s=frac(2, 3), g=2, xi=frac(9, 4)),
    QContext(s=frac(1, 3), g=1, xi=frac(9)),
    QContext(s=frac(3, 5), g=3, xi=frac(9, 25)),
    QContext(s=frac(99, 100), g=2, xi=frac(-7, 3)),
]


def _spot_examples(**extra):
    """Decorate a hypothesis test with one explicit example per spot context."""
    def decorate(test):
        for ctx in reversed(SPOT_CONTEXTS):
            test = example(ctx=ctx, **extra)(test)
        return test
    return decorate


def test_spot_contexts_are_the_named_ones():
    xi_m1, t_xi2, inv_t, xi_q, near_1 = SPOT_CONTEXTS
    assert xi_m1.xi == -1
    assert t_xi2.t * t_xi2.xi ** 2 == 1
    assert inv_t.xi == 1 / inv_t.t
    assert xi_q.xi == xi_q.q
    assert near_1.s == frac(99, 100)


def _int_pair_value(pair):
    """The rational of an int pair, after checking both are ints and the denominator is positive."""
    n, d = pair
    assert type(n) is int and type(d) is int and d > 0
    return frac(n, d)


@settings(max_examples=100, deadline=None)
@given(ctx=off_grid_contexts())
@_spot_examples()
def test_context_tables_match_direct_formulas(ctx):
    tab = tables(ctx)
    bases = {
        "q": (tab.ipoch_q, ctx.q),
        "t": (tab.ipoch_t, ctx.t),
        "tq": (tab.ipoch_tq, ctx.t * ctx.q),
        "tt": (tab.ipoch_tt, ctx.t ** 2),
    }
    # one array per base: at g = 1, t is q and t q is t^2
    assert (tab.ipoch_t is tab.ipoch_q) == (tab.ipoch_tt is tab.ipoch_tq) == (ctx.g == 1)
    # growth in an order that skips ahead and comes back
    for name, (arr, a) in bases.items():
        for n in (0, 8, 3, 1, 7, 2, 4, 6, 5):
            assert _int_pair_value(arr[n]) == qpochhammer(a, ctx.q, n), (name, n)
        with pytest.raises(ValueError):
            arr[-1]
    for m in (0, 8, -8, 3, -1, 1, -5, 7, 2, -2, -7, 4, -3, 6, -6, 5, -4):
        assert tab.spow(m) == ctx.s ** m, m
        assert tab.qpow(m) == ctx.q ** m and tab.tpow(m) == ctx.t ** m, m
        assert _int_pair_value(tab.ipow(m)) == ctx.s ** m, m
        assert _int_pair_value(tab.one_minus(m)) == 1 - ctx.s ** m, m
        assert _int_pair_value(tab.xipow(m)) == ctx.xi ** m, m
    assert tables(QContext(s=ctx.s, g=ctx.g, xi=ctx.xi)) is tab


labels = st.builds(
    lambda l1, width: Pair(l1, l1 + width), st.integers(-5, 2), st.integers(0, 3)
)


@settings(max_examples=100, deadline=None)
@given(ctx=off_grid_contexts(), nu=labels)
@_spot_examples(nu=Pair(-1, 2))
def test_basis_table_properties(ctx, nu):
    for tag in sov.BASIS_TAGS:
        b = sov.basis(tag, nu, ctx)
        for j, e in ((1, nu.l1), (2, nu.l2)):
            eigenvalue = ctx.q ** (e if tag in ("p", "pt") else -e)
            assert sov.apply_shift(b, j, tag, ctx) == b * eigenvalue
    for kind in ("rho", "pi", "Q", "R", "rhot", "pit", "Qt", "Rt"):
        closed = sov.transition_row(kind, nu, ctx, "closed")
        assert closed == sov.transition_row(kind, nu, ctx, "recurrence")


@settings(max_examples=100, deadline=None)
@given(ctx=off_grid_contexts(), nu=labels)
@_spot_examples(nu=Pair(-1, 2))
def test_char_eq_and_jacobian_action_off_grid(ctx, nu):
    assert sov.check_quantum_char_eq(nu, ctx)
    for j in (1, 2):
        assert sov.check_jacobian_action(nu, j, ctx)
    assert sov.check_rt_shift_relations(nu, ctx)


@settings(max_examples=100, deadline=None)
@given(ctx=off_grid_contexts(), lam=labels)
@_spot_examples(lam=Pair(-1, 2))
def test_factorization_and_inverses_off_grid(ctx, lam):
    P = macdonald.macdonald_poly(lam, ctx).poly
    image = sov.separate(lam, ctx)
    assert sov.apply_M_inverse(image.poly, ctx) == P
    assert sov.apply_M_inverse_qdiff(image.poly, ctx) == P


def _direct_basis(tag, nu, ctx):
    """Reference: the anchor monomial times all 2*width linear factors, multiplied out."""
    forward, a = sov._basis_param(tag, ctx)
    e = 1 if forward else -1
    anchor = nu.l1 if forward else nu.l2
    out = Laurent2.term(anchor, anchor)
    for k in range(nu.width):
        c = a * ctx.q ** k
        out = out * sov._linear(c, e, 0) * sov._linear(c, 0, e)
    return out


def _same_terms(p, ref):
    """Equal coefficients in the same key order, so derived outputs stay bit-for-bit."""
    return list(p.c.items()) == list(ref.c.items())


wide_labels = st.builds(
    lambda l1, width: Pair(l1, l1 + width), st.integers(-5, 2), st.integers(0, 6)
)


@settings(max_examples=100, deadline=None)
@given(ctx=off_grid_contexts(), nu=wide_labels)
@_spot_examples(nu=Pair(-2, 4))
def test_basis_is_shifted_width_factor(ctx, nu):
    for tag in sov.BASIS_TAGS:
        assert _same_terms(sov.basis(tag, nu, ctx), _direct_basis(tag, nu, ctx))


@settings(max_examples=100, deadline=None)
@given(ctx=off_grid_contexts(), nu=wide_labels)
@_spot_examples(nu=Pair(-2, 4))
def test_every_basis_element_is_symmetric(ctx, nu):
    """The premise of expanding and reassembling on the a <= b half."""
    for tag in sov.BASIS_TAGS:
        assert sov.basis(tag, nu, ctx).is_symmetric(), tag


@st.composite
def label_vectors(draw):
    """A label vector: nonzero rationals at some labels inside a drawn label."""
    lam = draw(wide_labels)
    entries = draw(st.dictionaries(
        st.sampled_from(exact.pairs_under(lam)),
        st.builds(frac, st.integers(-9, 9).filter(bool), st.integers(1, 9)),
        max_size=6,
    ))
    return Laurent2(entries)


@settings(max_examples=50, deadline=None)
@given(ctx=off_grid_contexts(), vec=label_vectors())
@_spot_examples(vec=Laurent2({Pair(-2, 4): frac(3, 7), Pair(0, 0): -1, Pair(1, 3): frac(5, 2)}))
def test_combine_symmetric_matches_combine_on_symmetric_families(ctx, vec):
    # (shifted family for combine_symmetric, the same elements as polynomials for combine)
    families = [
        (sov._anchored(tag, ctx), lambda k, tag=tag: sov.basis(tag, Pair(*k), ctx))
        for tag in sov.BASIS_TAGS
    ]

    def macdonald_family(k):
        return macdonald.macdonald_poly(Pair(*k), ctx).poly

    families.append((lambda k: (macdonald_family(k), 0), macdonald_family))
    for shifted, element in families:
        out = vec.combine_symmetric(shifted)
        assert out == vec.combine(element)
        assert out._d > 0 and 0 not in out._n.values() and gcd(out._d, *out._n.values()) == 1
        # each term (a, b) with a < b is followed by its mirror
        keys = list(out.c)
        for n, (a, b) in enumerate(keys):
            if a < b:
                assert keys[n + 1] == (b, a)


@pytest.mark.parametrize("terms", [
    {(1, 0): 1},  # only the mirror half
    {(0, 1): 1, (1, 0): 2},  # mirror terms that differ
    {(0, 1): 1, (2, 0): 1},  # as many terms below the diagonal as above, none a mirror
    {(0, 1): 1, (1, 0): 1, (3, 2): 1},  # a symmetric pair and one stray term below
])
def test_expand_rejects_an_asymmetric_polynomial_in_its_first_pass(terms):
    calls = []
    shifted = sov._anchored("p", CTX)

    def element(k):
        calls.append(k)
        return shifted(k)

    with pytest.raises(NonTerminating):
        Laurent2(terms).expand(element)
    assert calls == []


@settings(max_examples=100, deadline=None)
@given(ctx=off_grid_contexts(), lam=wide_labels)
@_spot_examples(lam=Pair(-2, 4))
def test_pochhammer_ratios_match_qpochhammer_off_grid(ctx, lam):
    """u_coeff and the multipliers, products of the int arrays, against qpochhammer formulas."""
    q, t, w = ctx.q, ctx.t, lam.width

    def poch(a, n):
        return qpochhammer(a, q, n)

    for nu1 in range(lam.l1, lam.total // 2 + 1):
        nu = Pair(nu1, lam.total - nu1)
        a, b = nu.l1 - lam.l1, lam.l2 - nu.l1
        expected = poch(q, w) / poch(t, w) * poch(t, a) / poch(q, a) * poch(t, b) / poch(q, b)
        assert macdonald.u_coeff(lam, nu, ctx) == expected, nu
    for e in range(lam.l1, lam.l2 + 1):
        for m in range(w + 1):
            expected = t ** -e * ctx.xi ** (2 * e) * poch(t, m) / poch(t ** 2, m)
            assert sov._multiplier(e, m, ctx) == expected, (e, m)


def test_basis_cold_cache_any_order():
    sov.basis.cache_clear()
    exact.clear_tables()
    ctx3 = QContext(s=frac(3, 5), g=3, xi=frac(-5, 7))
    # wide before narrow, contexts interleaved, widths skipped and revisited
    order = [
        (CTX, Pair(-2, 7)), (CTX2, Pair(0, 1)), (CTX, Pair(1, 3)), (ctx3, Pair(-4, 4)),
        (CTX2, Pair(-3, 5)), (CTX, Pair(0, 0)), (ctx3, Pair(2, 3)), (CTX, Pair(-6, 4)),
        (CTX2, Pair(1, 2)), (ctx3, Pair(-1, 7)),
    ]
    for ctx, nu in order:
        for tag in sov.BASIS_TAGS:
            assert _same_terms(sov.basis(tag, nu, ctx), _direct_basis(tag, nu, ctx))
    assert len(sov._factor_table("p", CTX)) == 11
    assert len(sov._factor_table("rt", CTX2)) == 9


def _inclusion_maximal_pick(p):
    """Reference pivot: scan every support pair for one that contains it."""
    pairs = {Pair(min(a, b), max(a, b)) for a, b in p.c}
    maximal = [m for m in pairs if not any(o != m and o.contains(m) for o in pairs)]
    return max(maximal, key=lambda nu: (nu.l2, nu.l1))


def _peel_reference(p, tag, ctx):
    """The expansion as a Fraction peel: rescan the support for the pivot, then subtract.

    Returns the expansion, labels in pick order, and the remainder before each pick.
    """
    coeffs = {}
    remainders = []
    work = p
    while work:
        remainders.append(work)
        top, neg_lo = max((b, -a) if a <= b else (a, -b) for a, b in work.c)
        pick = Pair(-neg_lo, top)
        element = sov.basis(tag, pick, ctx)
        c = work.coeff(*pick) / element.coeff(*pick)
        coeffs[pick] = coeffs.get(pick, 0) + c
        work = work - element * c
    return Laurent2(coeffs), remainders


@settings(max_examples=60, deadline=None)
@given(ctx=off_grid_contexts(), lam=labels, seed=st.integers(0, 2 ** 16))
@_spot_examples(lam=Pair(-1, 2), seed=17)
def test_expansion_matches_fraction_peel(ctx, lam, seed):
    rng = random.Random(seed)
    inputs = [
        random_symmetric(rng, degree=rng.randint(0, 7), terms=rng.randint(1, 8)),
        macdonald.macdonald_poly(lam, ctx).poly,
    ]
    for tag in sov.BASIS_TAGS:
        combo = sov.basis(tag, Pair(-2, 3), ctx) + sov.basis(tag, Pair(0, 4), ctx) * 3
        for p in inputs + [combo]:
            terms = list(p.c.items())
            ref, remainders = _peel_reference(p, tag, ctx)
            elements = {nu: list(sov.basis(tag, nu, ctx).c.items()) for nu in ref.c}
            exp = sov.expand_in_basis(p, tag, ctx)
            assert exp == ref
            assert list(exp.c) == list(ref.c)
            assert list(exp.c) == [_inclusion_maximal_pick(r) for r in remainders]
            assert list(p.c.items()) == terms
            for nu, element_terms in elements.items():
                assert list(sov.basis(tag, nu, ctx).c.items()) == element_terms, (tag, nu)


@pytest.mark.parametrize("corrupt", ["outside", "no_label"])
def test_expansion_stops_on_a_corrupted_element(monkeypatch, corrupt):
    nu = Pair(0, 2)
    p = sov.basis("p", Pair(-1, 3), CTX) + sov.basis("p", nu, CTX)
    real_anchored = sov._anchored

    def corrupted_family(tag, ctx):
        shifted = real_anchored(tag, ctx)

        def corrupted(label):
            if label != nu:
                return shifted(label)
            element = sov.basis(tag, nu, ctx)
            if corrupt == "outside":
                # symmetric, so only the box check tells it from a genuine element
                return element + Laurent2.term(nu.l2 + 1, nu.l2 + 1), 0
            return element - Laurent2.term(*nu, element.coeff(*nu)), 0

        return corrupted

    monkeypatch.setattr(sov, "_anchored", corrupted_family)
    with pytest.raises(NonTerminating):
        sov.expand_in_basis(p, "p", CTX)


def test_expansion_of_a_sparse_wide_polynomial_is_cheap(monkeypatch):
    n = 10 ** 4
    p = Laurent2({(0, 0): 1, (n, n): 1})
    calls = []
    real_anchored = sov._anchored

    def counted_family(tag, ctx):
        shifted = real_anchored(tag, ctx)

        def counted(label):
            calls.append(label)
            return shifted(label)

        return counted

    monkeypatch.setattr(sov, "_anchored", counted_family)
    for tag in sov.BASIS_TAGS:
        calls.clear()
        start = time.perf_counter()
        exp = sov.expand_in_basis(p, tag, CTX)
        assert time.perf_counter() - start < 1.0
        assert calls == [Pair(n, n), Pair(0, 0)]
        assert sov.reassemble(exp, tag, CTX) == p


widest_labels = st.builds(
    lambda l1, width: Pair(l1, l1 + width), st.integers(-5, 2), st.integers(0, 12)
)


@settings(max_examples=30, deadline=None)
@given(ctx=off_grid_contexts(), lam=widest_labels, seed=st.integers(0, 2 ** 16))
@_spot_examples(lam=Pair(-3, 9), seed=5)
def test_shifted_elements_match_the_cached_basis(ctx, lam, seed):
    """Each width factor read at its anchor gives what the per-label elements give, in order."""
    rng = random.Random(seed)
    labels = exact.pairs_under(lam)
    vec = Laurent2({nu: random_rational(rng) for nu in rng.sample(labels, min(6, len(labels)))})
    inputs = [
        random_symmetric(rng, degree=rng.randint(0, 6), terms=rng.randint(1, 6)),
        macdonald.macdonald_poly(lam, ctx).poly,
    ]
    for tag in sov.BASIS_TAGS:
        shifted = sov._anchored(tag, ctx)

        def cached(k, tag=tag):
            return sov.basis(tag, Pair(*k), ctx)

        out = vec.combine_symmetric(shifted)
        assert out == vec.combine(cached)
        assert _same_terms(out, vec.combine_symmetric(lambda k: (cached(k), 0)))
        for p in inputs:
            exp = p.expand(shifted)
            assert _same_terms(exp, p.expand(lambda k: (cached(k), 0)))
            assert exp.combine_symmetric(shifted) == p


def test_maps_make_no_basis_call(monkeypatch):
    """The maps read the width factors: sov.basis is neither called nor filled."""
    rng = random.Random(30)
    real_basis = sov.basis
    real_basis.cache_clear()
    calls = []

    def spy(tag, nu, ctx):
        calls.append((tag, nu))
        return real_basis(tag, nu, ctx)

    monkeypatch.setattr(sov, "basis", spy)
    for ctx in CTXS:
        lam = Pair(-2, 3)
        p = random_symmetric(rng, degree=4, terms=5)
        image = sov.separate(lam, ctx).poly
        vec = sov.expand_in_basis(p, "r", ctx)
        maps = [
            lambda: sov.apply_M(p, ctx),
            lambda: sov.apply_M_via_r(p, ctx),
            lambda: sov.apply_M_inverse(image, ctx),
            lambda: sov.reassemble(vec, "rt", ctx),
        ]
        for run in maps:
            run()
    assert calls == []
    assert real_basis.cache_info().currsize == 0


def test_reassembly_rejects_a_label_with_l1_above_l2():
    with pytest.raises(ValueError):
        sov.reassemble(Laurent2.term(2, 1), "p", CTX)


@pytest.mark.parametrize("ctx", CTXS)
def test_maps_leave_cached_bases_untouched(ctx):
    labels = [Pair(a, b) for a in range(-6, 7) for b in range(a, 7)]
    before = {
        (tag, nu): list(sov.basis(tag, nu, ctx).c.items())
        for tag in sov.BASIS_TAGS for nu in labels
    }
    factors = {
        tag: [list(f.c.items()) for f in sov._factor_table(tag, ctx)] for tag in sov.BASIS_TAGS
    }

    def assert_untouched():
        for (tag, nu), terms in before.items():
            assert list(sov.basis(tag, nu, ctx).c.items()) == terms, (tag, nu)
        for tag, table in factors.items():
            grown = sov._factor_table(tag, ctx)[: len(table)]
            assert [list(f.c.items()) for f in grown] == table, tag

    rng = random.Random(21)
    for _ in range(4):
        p = random_symmetric(rng, degree=5, terms=5)
        image = sov.apply_M(p, ctx)
        assert_untouched()
        assert sov.apply_M_inverse(image, ctx) == p
        assert_untouched()
        assert sov.apply_M_via_r(p, ctx) == image
        assert_untouched()


def _two_product_H1(p, ctx):
    """Reference H1: v12 T_{q,x1} p + v21 T_{q,x2} p over x1 - x2, both products formed."""
    st_, sti = ctx.sqrt_t, 1 / ctx.sqrt_t
    num = (
        Laurent2({(1, 0): st_, (0, 1): -sti}) * p.subs_scale(ctx.q, 1)
        - Laurent2({(0, 1): st_, (1, 0): -sti}) * p.subs_scale(1, ctx.q)
    )
    return exact.divide_exact(num, Laurent2({(1, 0): 1, (0, 1): -1}))


def _two_product_shift(p, j, tag, ctx):
    """Reference shift operator: c1 T_{x1} p + c2 T_{x2} p over x1 - x2, both products formed."""
    forward, a = sov._basis_param(tag, ctx)
    b = a if forward else 1 / a
    if j == 1:
        c1 = Laurent2({(0, 1): -1, (1, 1): b})
        c2 = Laurent2({(1, 0): 1, (1, 1): -b})
    else:
        c1 = Laurent2({(0, 0): -1 / b, (1, 0): 1})
        c2 = Laurent2({(0, 0): 1 / b, (0, 1): -1})
    f = ctx.q if forward else 1 / ctx.q
    num = c1 * p.subs_scale(f, 1) + c2 * p.subs_scale(1, f)
    return exact.divide_exact(num, Laurent2({(1, 0): 1, (0, 1): -1}))


@settings(max_examples=50, deadline=None)
@given(ctx=off_grid_contexts(), lam=labels, seed=st.integers(0, 2 ** 16))
@example(ctx=QContext(s=frac(2, 7), g=4, xi=frac(-5, 3)), lam=Pair(-2, 1), seed=3)
@_spot_examples(lam=Pair(-1, 2), seed=17)
def test_first_order_operators_match_the_two_product_formula(ctx, lam, seed):
    inputs = [
        random_symmetric(random.Random(seed), degree=5, terms=5),
        macdonald.macdonald_poly(lam, ctx).poly,
        sov.basis("r", lam, ctx),
    ]
    for p in inputs:
        assert macdonald.apply_H1(p, ctx) == _two_product_H1(p, ctx)
        for tag in sov.BASIS_TAGS:
            for j in (1, 2):
                assert sov.apply_shift(p, j, tag, ctx) == _two_product_shift(p, j, tag, ctx), (tag, j)


def _g_plus_one_products(p, ctx):
    """Reference difference-operator inverse: sum_k n_k S_k p over denom, all g + 1 products formed."""
    denom, coeffs, _ = sov._qdiff_operator(ctx)
    xi_inv = 1 / ctx.xi
    accum = Laurent2()
    for k, nk in enumerate(coeffs):
        accum = accum + nk * p.subs_scale(xi_inv * ctx.q ** k, xi_inv * ctx.t * ctx.q ** -k)
    return exact.divide_exact(accum, denom)


wider_labels = st.builds(
    lambda l1, width: Pair(l1, l1 + width), st.integers(-6, 3), st.integers(0, 12)
)


@settings(max_examples=40, deadline=None)
@given(ctx=off_grid_contexts(), lam=wider_labels, seed=st.integers(0, 2 ** 16))
@example(ctx=QContext(s=frac(2, 7), g=5, xi=frac(-5, 3)), lam=Pair(-6, 6), seed=3)
@example(ctx=QContext(s=frac(3, 5), g=2, xi=frac(1)), lam=Pair(-3, 9), seed=1)
@_spot_examples(lam=Pair(-2, 4), seed=17)
def test_difference_inverse_matches_the_g_plus_one_products(ctx, lam, seed):
    rng = random.Random(seed)
    inputs = [
        Laurent2(),
        Laurent2.one(),
        random_symmetric(rng, degree=6, terms=6),
        sov.apply_M(random_symmetric(rng, degree=3, terms=4), ctx),
        sov.separate(lam, ctx).poly,
    ]
    for p in inputs:
        got = sov.apply_M_inverse_qdiff(p, ctx)
        assert got == _g_plus_one_products(p, ctx)
        assert list(got.c) == list(_g_plus_one_products(p, ctx).c)
    assert sov.apply_M_inverse_qdiff(inputs[-1], ctx) == macdonald.macdonald_poly(lam, ctx).poly


@pytest.mark.parametrize("terms", [{(0, 1): 1}, {(0, 1): 1, (1, 0): 2}, {(2, -1): 1, (0, 0): 1}])
def test_difference_inverse_rejects_an_asymmetric_polynomial(terms):
    # the mirror would read only the diagonals a - b >= 0 and return a wrong inverse
    for ctx in CTXS:
        with pytest.raises(ValueError, match="symmetric"):
            sov.apply_M_inverse_qdiff(Laurent2(terms), ctx)


@pytest.mark.parametrize("k, corrupt", [(0, "scaled"), (0, "shifted"), (1, "shifted")])
def test_difference_operator_build_checks_the_mirror_identity(monkeypatch, k, corrupt):
    # at g = 2, n_0 mirrors n_2 and n_1 mirrors itself (so a scaled n_1 still
    # satisfies the identity; the exact division rejects that one)
    ctx = QContext(s=frac(2, 7), g=2, xi=frac(-5, 3))
    monkeypatch.setattr(tables(ctx), "qdiff", None)
    real = sov._qdiff_numerator

    def corrupted(j, ctx):
        nk = real(j, ctx)
        if j != k:
            return nk
        return nk * 2 if corrupt == "scaled" else nk.shifted(1, 0)

    monkeypatch.setattr(sov, "_qdiff_numerator", corrupted)
    with pytest.raises(IdentityViolation, match=f"n_{k}"):
        sov.apply_M_inverse_qdiff(Laurent2.one(), ctx)
    assert tables(ctx).qdiff is None
