import random

import pytest

from qsov import macdonald, qpoly, sov, suites
from qsov.errors import IdentityViolation
from qsov.exact import Laurent2, Pair, QContext, frac, qpochhammer, random_symmetric

CTX = QContext(s=frac(1, 2), g=1, xi=frac(1))
CTX2 = QContext(s=frac(1, 3), g=2, xi=frac(3, 2))


def test_macdonald_poly_basics():
    assert macdonald.macdonald_poly(Pair(0, 0), CTX).poly == Laurent2.one()
    assert macdonald.macdonald_poly(Pair(3, 3), CTX).poly == Laurent2.term(3, 3)
    assert macdonald.u_coeff(Pair(0, 2), Pair(0, 2), CTX2) == 1
    # oracle: expand the coefficient ratio directly
    q, t = CTX2.q, CTX2.t
    assert macdonald.u_coeff(Pair(0, 2), Pair(1, 1), CTX2) == (1 + q) * (1 - t) / (
        1 - q * t
    )


def test_translation_covariance():
    for lam in (Pair(0, 2), Pair(-2, 1)):
        shifted = macdonald.macdonald_poly(Pair(lam.l1 + 1, lam.l2 + 1), CTX2).poly
        base = macdonald.macdonald_poly(lam, CTX2).poly
        assert shifted == base * Laurent2.term(1, 1)


def test_h1_on_constant():
    out = macdonald.apply_H1(Laurent2.one(), CTX2)
    assert out == Laurent2({(0, 0): CTX2.s ** CTX2.g + CTX2.s ** -CTX2.g})


def test_h2_examples():
    p = Laurent2({(1, 0): 1, (0, 1): 1})
    assert macdonald.apply_H2(p, CTX) == p * CTX.q
    inv = Laurent2.term(-1, -1)
    assert macdonald.apply_H2(inv, CTX) == inv * CTX.q ** -2


@pytest.mark.parametrize("ctx", [CTX, CTX2])
def test_eigen_small_grid(ctx):
    for lam in (Pair(0, 0), Pair(0, 1), Pair(-1, 2), Pair(-3, -1), Pair(0, 4), Pair(2, 5)):
        macdonald.check_eigen(lam, ctx)


def test_operators_commute():
    rng = random.Random(1)
    for _ in range(6):
        p = random_symmetric(rng, degree=5, terms=5)
        ab = macdonald.apply_H1(macdonald.apply_H2(p, CTX2), CTX2)
        ba = macdonald.apply_H2(macdonald.apply_H1(p, CTX2), CTX2)
        assert ab == ba


def test_separated_poly_values():
    assert dict(macdonald.separated_poly(Pair(2, 2), CTX).poly.c) == {2: 1}
    f = macdonald.separated_poly(Pair(0, 1), CTX)
    assert dict(f.poly.c) == {0: frac(1), 1: 1 / CTX.t}
    for lam in (Pair(0, 3), Pair(-2, 1)):
        f = macdonald.separated_poly(lam, CTX2)
        assert sorted(f.poly.c) == list(range(lam.l1, lam.l2 + 1))
        assert f.poly.coeff(lam.l1) == 1
        assert f.poly.coeff(lam.l2) == CTX2.t ** (-lam.width)


@pytest.mark.parametrize("ctx", [CTX, CTX2])
def test_separated_poly_alt_agrees(ctx):
    for lam in (Pair(0, 0), Pair(0, 1), Pair(0, 2), Pair(-1, 2), Pair(-2, 1), Pair(2, 5)):
        a = macdonald.separated_poly(lam, ctx)
        b = macdonald.separated_poly_alt(lam, ctx)
        assert a.poly == b.poly


@pytest.mark.parametrize("ctx", [CTX, CTX2])
def test_separation_equation(ctx):
    for lam in (Pair(0, 0), Pair(0, 3), Pair(-2, 1), Pair(1, 4)):
        f = macdonald.separated_poly(lam, ctx)
        assert macdonald.check_separation_equation(f, macdonald.spectrum(lam, ctx), ctx)


def test_separation_equation_detects_wrong_spectrum():
    lam = Pair(0, 3)
    f = macdonald.separated_poly(lam, CTX)
    bad = macdonald.Spectrum(h1=frac(1), h2=frac(1, 7))
    with pytest.raises(IdentityViolation):
        macdonald.check_separation_equation(f, bad, CTX)


@pytest.mark.parametrize("ctx", [CTX, CTX2])
def test_solution_space_is_a_line(ctx):
    for lam in (Pair(0, 1), Pair(0, 4), Pair(-2, 2)):
        assert macdonald.separation_solution_dim(lam, ctx) == 1


def test_even_total_product_shape():
    # oracle: rebuild P from the one-variable family in the +- variables
    for ctx in (CTX, CTX2):
        for lam in (Pair(0, 2), Pair(-1, 1), Pair(1, 3), Pair(-2, 2)):
            assert lam.total % 2 == 0
            w = lam.width
            c = qpoly.cq_sum(w, ctx.t, ctx)
            scale = qpochhammer(ctx.q, ctx.q, w) / qpochhammer(ctx.t, ctx.q, w)
            half = lam.total // 2
            build = Laurent2()
            for k in range(w + 1):
                e = (w - 2 * k) // 2
                build = build + Laurent2.term(
                    half + e, half - e, c.coeff(w - 2 * k) * scale
                )
            assert build == macdonald.macdonald_poly(lam, ctx).poly


def test_cached_polys_survive_their_callers():
    labels = [Pair(a, b) for a in range(-3, 3) for b in range(a, 3)]
    for ctx in (CTX, CTX2):
        cached = {lam: macdonald.macdonald_poly(lam, ctx) for lam in labels}
        before = {lam: list(mp.poly.c.items()) for lam, mp in cached.items()}

        def assert_untouched():
            for lam, mp in cached.items():
                assert macdonald.macdonald_poly(lam, ctx) is mp, lam
                assert list(mp.poly.c.items()) == before[lam], lam

        for lam in (Pair(-1, 2), Pair(0, 2), Pair(-2, 1)):
            suites.case_reassembly(ctx, lam)
            assert_untouched()
            suites.case_mutual_inverse(ctx, lam)
            assert_untouched()
            macdonald.check_eigen(lam, ctx)
            assert_untouched()
            sov.separate(lam, ctx)
            assert_untouched()
