import pytest

from qsov import macdonald, qpoly
from qsov.errors import IdentityViolation
from qsov.exact import Laurent1, Pair, QContext, frac, qpochhammer

CTXS = [
    QContext(s=frac(1, 2), g=1, xi=frac(1)),
    QContext(s=frac(1, 3), g=2, xi=frac(2)),
    QContext(s=frac(3, 5), g=3, xi=frac(3, 2)),
]


def test_cq_sum_low_degrees():
    ctx = CTXS[0]
    assert qpoly.cq_sum(0, ctx.t, ctx) == Laurent1.one()
    # oracle: the two-term sum gives (1-beta)/(1-q) (w + 1/w)
    c = (1 - ctx.t) / (1 - ctx.q)
    assert qpoly.cq_sum(1, ctx.t, ctx) == Laurent1({1: c, -1: c})


def test_collapse_at_beta_q():
    for ctx in CTXS:
        for n in range(9):
            poly = qpoly.cq_sum(n, ctx.q, ctx)
            assert list(poly.c.values()) == [1] * (n + 1)


@pytest.mark.parametrize("ctx", CTXS)
def test_recurrence_matches_sum(ctx):
    for n in range(9):
        assert qpoly.cq_sum(n, ctx.t, ctx) == qpoly.cq_recurrence(n, ctx.t, ctx)


@pytest.mark.parametrize("ctx", CTXS)
def test_reflexive_and_leading(ctx):
    for n in range(9):
        poly = qpoly.cq_sum(n, ctx.t, ctx)
        assert poly.is_reflexive()
        expect = qpochhammer(ctx.t, ctx.q, n) / qpochhammer(ctx.q, ctx.q, n)
        assert poly.coeff(n) == expect


@pytest.mark.parametrize("ctx", CTXS)
def test_generating_function(ctx):
    assert qpoly.generating_function_check(6, ctx.t, ctx)


def test_generating_function_trivial_order():
    ctx = CTXS[0]
    assert qpoly.generating_function_check(0, ctx.t, ctx)


def test_generating_function_catches_a_corrupted_series(monkeypatch):
    # doubling r_2 changes both q-binomial series; cq_sum reads them too, so
    # only a comparison with the recurrence can see it
    ctx = CTXS[1]
    ratios = qpoly._series_ratios

    def corrupted(n, beta, q):
        out = ratios(n, beta, q)
        if n >= 2:
            out[2] *= 2
        return out

    monkeypatch.setattr(qpoly, "_series_ratios", corrupted)
    with pytest.raises(IdentityViolation, match="at order 2"):
        qpoly.generating_function_check(6, ctx.t, ctx)


def test_identity_violation_surfaces():
    # a wrong spectral pair must be caught by the equation checker
    ctx = CTXS[0]
    lam = Pair(0, 2)
    f = macdonald.separated_poly(lam, ctx)
    spec = macdonald.spectrum(lam, ctx)
    wrong = macdonald.Spectrum(h1=spec.h2, h2=spec.h1)
    with pytest.raises(IdentityViolation):
        macdonald.check_separation_equation(f, wrong, ctx)


@pytest.mark.parametrize("ctx", CTXS)
def test_connection_to_separated(ctx):
    for lam in (Pair(0, 2), Pair(-1, 3), Pair(1, 4), Pair(-3, -1)):
        rebuilt = qpoly.cq_to_onevariable(lam, ctx)
        assert rebuilt == macdonald.separated_poly(lam, ctx).poly
