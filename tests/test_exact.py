import pickle
import random
from math import gcd

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from qsov import exact
from qsov.errors import NotDivisible, PoleError
from qsov.exact import (
    Laurent1,
    Laurent2,
    Pair,
    QContext,
    ZERO,
    divide_exact,
    frac,
    pairs_under,
    qbinomial,
    qpochhammer,
    qshift,
    random_rational,
    random_symmetric,
    rational_str,
)


def test_qpochhammer_examples():
    assert qpochhammer(frac(1, 2), frac(1, 4), 0) == 1
    # oracle: (1 - 1/4)(1 - 1/4 * 1/4) = (3/4)(15/16)
    assert qpochhammer(frac(1, 4), frac(1, 4), 2) == frac(45, 64)
    # oracle: 1 / (1 - (1/2)(1/4)^-1) = 1 / (1 - 2)
    assert qpochhammer(frac(1, 2), frac(1, 4), -1) == -1


def test_qpochhammer_splitting():
    rng = random.Random(3)
    for _ in range(40):
        a = random_rational(rng)
        q = frac(rng.randint(1, 4), rng.randint(5, 9))
        m = rng.randint(-4, 4)
        n = rng.randint(-4, 4)
        try:
            lhs = qpochhammer(a, q, m + n)
            rhs = qpochhammer(a, q, m) * qpochhammer(a * q ** m, q, n)
        except PoleError:
            continue
        assert lhs == rhs


def test_qpochhammer_pole():
    q = frac(1, 3)
    with pytest.raises(PoleError):
        qpochhammer(q, q, -1)


def test_qbinomial_examples():
    q = frac(1, 4)
    assert qbinomial(2, 1, q) == 1 + q
    assert qbinomial(3, 0, q) == 1
    assert qbinomial(1, 2, q) == 0
    assert qbinomial(4, -1, q) == 0


def test_qbinomial_pascal():
    # oracle: the q-Pascal rule [n,k] = [n-1,k-1] + q^k [n-1,k]
    q = frac(2, 7)
    for n in range(1, 7):
        for k in range(n + 1):
            assert qbinomial(n, k, q) == qbinomial(n - 1, k - 1, q) + q ** k * qbinomial(
                n - 1, k, q
            )


def test_qshift_examples():
    ctx = QContext(s=frac(1, 2), g=1, xi=frac(1))
    one = Laurent2.one()
    assert qshift(one, 0, 5, ctx) == one
    p = Laurent2({(1, 0): 1, (0, 1): 1})
    shifted = qshift(p, 0, 2, ctx)
    assert shifted == Laurent2({(1, 0): ctx.q, (0, 1): 1})
    inv = Laurent2.term(-1, -1)
    both = qshift(qshift(inv, 0, 2, ctx), 1, 2, ctx)
    assert both == Laurent2.term(-1, -1, ctx.q ** -2)


def test_qshift_is_ring_hom():
    ctx = QContext(s=frac(1, 3), g=2, xi=frac(2))
    rng = random.Random(5)
    for _ in range(10):
        p = random_symmetric(rng, degree=3, terms=3)
        r = random_symmetric(rng, degree=3, terms=3)
        assert qshift(p * r, 0, 1, ctx) == qshift(p, 0, 1, ctx) * qshift(r, 0, 1, ctx)


def test_divide_exact_examples():
    x1sq_minus = Laurent2({(2, 0): 1, (0, 2): -1})
    diff = Laurent2({(1, 0): 1, (0, 1): -1})
    assert divide_exact(x1sq_minus, diff) == Laurent2({(1, 0): 1, (0, 1): 1})
    assert divide_exact(Laurent2.term(1, 1), Laurent2.term(1, 0)) == Laurent2.term(0, 1)


def test_divide_exact_roundtrip():
    rng = random.Random(9)
    for _ in range(15):
        p = random_symmetric(rng, degree=3, terms=4)
        d = random_symmetric(rng, degree=2, terms=2)
        if not d:
            continue
        assert divide_exact(p * d, d) == p


def test_divide_exact_rejects():
    num = Laurent2({(1, 0): 1, (0, 1): 1})
    den = Laurent2({(1, 0): 1, (0, 1): -1})
    with pytest.raises(NotDivisible):
        divide_exact(num, den)
    d1 = Laurent2({(0, 0): 1, (1, 0): -1})
    with pytest.raises(NotDivisible):
        divide_exact(Laurent2.one() + Laurent2.term(1, 0), d1)
    # the divisor's leading numerator -3 does not divide the remainder's
    d3 = Laurent2({(0, 0): frac(2, 5), (1, 0): frac(-3, 5)})
    with pytest.raises(NotDivisible):
        divide_exact(Laurent2.one() + Laurent2.term(1, 0), d3)


_rationals = st.builds(frac, st.integers(-6, 6), st.integers(1, 6))
_onevar = st.dictionaries(st.integers(-4, 4), _rationals, max_size=5)


def _embed(p: Laurent1) -> Laurent2:
    """p(x1) as a two-variable polynomial: exponent k goes to (k, 0)."""
    return Laurent2({(k, 0): v for k, v in p.c.items()})


@settings(max_examples=100, deadline=None)
@given(_onevar, _onevar, _rationals, st.integers(0, 3))
def test_laurent1_agrees_with_laurent2_on_one_variable(da, db, s, n):
    a, b = Laurent1(da), Laurent1(db)
    A, B = Laurent2({(k, 0): v for k, v in da.items()}), Laurent2({(k, 0): v for k, v in db.items()})
    assert _embed(a) == A and all(type(k) is int for k in a.c)
    assert _embed(a + b) == A + B
    assert _embed(a - b) == A - B
    assert _embed(a * b) == A * B
    assert _embed(a ** n) == A ** n
    assert _embed(a * s) == A * s and _embed(s * a) == s * A
    assert _embed(a + s) == A + s and _embed(a - s) == A - s and _embed(s - a) == s - A
    assert _embed(-a) == -A
    if s:
        assert _embed(a.subs_scale(s)) == A.subs_scale(s, frac(7, 3))
    assert all(a.coeff(k) == A.coeff(k, 0) for k in range(-5, 6))
    assert repr(a) == repr(A).replace("*x2^0", "").replace("x1^", "y^")
    assert not a == A and a != A
    assert (a * 0) == 0 and (A * 0) == 0
    assert Laurent1.term(0, s) == s and Laurent2.term(0, 0, s) == s
    for p in (a, A):
        with pytest.raises(TypeError):
            hash(p)


_twovar = st.dictionaries(st.tuples(st.integers(-3, 3), st.integers(-3, 3)), _rationals, max_size=6)
_nonzero = _rationals.filter(bool)


def _assert_canonical(p):
    """Integer numerators over one positive denominator, nothing left to cancel."""
    assert type(p._d) is int and p._d > 0
    assert all(type(v) is int and v != 0 for v in p._n.values())
    assert gcd(p._d, *p._n.values()) == 1
    assert all(type(v) is type(ZERO) for v in p.c.values())


def _nonzero_terms(d):
    return {k: v for k, v in d.items() if v != 0}


def _ref_add(a, b, sign=1):
    out = dict(a)
    for k, v in b.items():
        out[k] = out.get(k, 0) + sign * v
    return _nonzero_terms(out)


def _ref_mul(a, b, add):
    out = {}
    for k1, v1 in a.items():
        for k2, v2 in b.items():
            k = add(k1, k2)
            out[k] = out.get(k, 0) + v1 * v2
    return _nonzero_terms(out)


def _ref_scale(a, s):
    return _nonzero_terms({k: v * s for k, v in a.items()})


def _add1(k1, k2):
    return k1 + k2


def _add2(k1, k2):
    return (k1[0] + k2[0], k1[1] + k2[1])


def _check_ring(cls, da, db, s, n, add, one_key):
    """+, -, *, scalar *, **, map_terms and combine against dict references; no operand changes."""
    a, b = cls(da), cls(db)
    ra, rb = _nonzero_terms(da), _nonzero_terms(db)
    power = {one_key: frac(1)}
    for _ in range(n):
        power = _ref_mul(power, ra, add)
    factor = frac(-5, 3)
    # s * a - 3/2 * b, as the image of a two-term weight vector
    other_key = 1 if cls is Laurent1 else (0, 1)
    weights = cls({one_key: s, other_key: frac(-3, 2)})
    elements = {one_key: a, other_key: b}
    checks = [
        (lambda: a, ra),
        (lambda: a + b, _ref_add(ra, rb)),
        (lambda: a - b, _ref_add(ra, rb, -1)),
        (lambda: -a, _ref_scale(ra, -1)),
        (lambda: a * b, _ref_mul(ra, rb, add)),
        (lambda: a * s, _ref_scale(ra, s)),
        (lambda: s * a, _ref_scale(ra, s)),
        (lambda: a + s, _ref_add(ra, {one_key: s})),
        (lambda: s - a, _ref_add({one_key: s}, ra, -1)),
        (lambda: a ** n, power),
        (lambda: a + b * s, _ref_add(ra, _ref_scale(rb, s))),
        (lambda: a.map_terms(lambda k: (add(k, k), factor)), {add(k, k): v * factor for k, v in ra.items()}),
        (lambda: weights.combine(elements.__getitem__), _ref_add(_ref_scale(ra, s), _ref_scale(rb, frac(-3, 2)))),
    ]
    if ra:  # the combination of no terms is the zero Laurent2 whatever cls is
        # sending the monomial of exponent k to b times that monomial gives a * b
        checks.append((lambda: a.combine(lambda k: cls({add(k, kb): v for kb, v in db.items()})), _ref_mul(ra, rb, add)))
    for op, ref in checks:
        p = op()
        assert a == cls(da) and b == cls(db), "an operation changed one of its operands"
        _assert_canonical(p)
        assert type(p) is cls and dict(p.c) == ref and p == cls(ref)
    assert (a == b) == (ra == rb)


@settings(max_examples=100, deadline=None)
@given(_onevar, _onevar, _rationals, st.integers(0, 3), _nonzero)
def test_laurent1_integer_form_matches_fraction_reference(da, db, s, n, f):
    _check_ring(Laurent1, da, db, s, n, _add1, 0)
    a = Laurent1(da)
    scaled = a.subs_scale(f)
    _assert_canonical(scaled)
    assert dict(scaled.c) == {k: v * f ** k for k, v in _nonzero_terms(da).items()}


@settings(max_examples=100, deadline=None)
@given(_twovar, _twovar, _rationals, st.integers(0, 2), _nonzero, _nonzero, st.integers(-3, 3))
def test_laurent2_integer_form_matches_fraction_reference(da, db, s, n, f1, f2, d):
    _check_ring(Laurent2, da, db, s, n, _add2, (0, 0))
    a, b = Laurent2(da), Laurent2(db)
    ra = _nonzero_terms(da)
    derived = [
        (a.subs_scale(f1, f2), {(i, j): v * f1 ** i * f2 ** j for (i, j), v in ra.items()}),
        (a.subs_invert_scale(f1), {(-i, -j): v * f1 ** (i + j) for (i, j), v in ra.items()}),
        (a.shifted(d, -d), {(i + d, j - d): v for (i, j), v in ra.items()}),
    ]
    if b:
        derived.append((divide_exact(a * b, b), ra))
    for p, ref in derived:
        _assert_canonical(p)
        assert dict(p.c) == ref


def test_laurent_symmetry_and_eval():
    p = Laurent2({(0, 2): frac(1, 3), (2, 0): frac(1, 3), (1, 1): 2})
    assert p.is_symmetric()
    assert not Laurent2({(0, 1): 1}).is_symmetric()
    val = p.evaluate(2.0, 1.0)
    assert abs(val - (1 / 3 + 4 / 3 + 4.0)) < 1e-12


def test_laurent_evaluate_on_node_array():
    p = Laurent2({(0, 2): frac(1, 3), (2, 0): frac(1, 3), (-1, 3): frac(-5, 7), (1, -2): 2})
    z = np.exp(2j * np.pi * np.arange(64) / 64)
    u, v = 0.8 * z, 1.3 / z
    vals = p.evaluate(u, v)
    assert vals.shape == z.shape
    for k in range(len(z)):
        scalar = p.evaluate(complex(u[k]), complex(v[k]))
        assert abs(vals[k] - scalar) <= 1e-14 * max(abs(scalar), 1.0)


def test_pair_is_its_exponent_tuple():
    lam = Pair(-1, 2)
    assert lam == (-1, 2) and hash(lam) == hash((-1, 2))
    assert isinstance(lam, tuple) and (lam.l1, lam.l2) == (-1, 2)
    assert str(lam) == "-1,2" and f"{lam}" == "-1,2" and f"[{lam}]" == "[-1,2]"
    for protocol in (pickle.DEFAULT_PROTOCOL, 2):
        back = pickle.loads(pickle.dumps(lam, protocol=protocol))
        assert type(back) is Pair and back == lam and back.width == 3
    for bad in ((1.0, 2), (0, "2"), (None, 1)):
        with pytest.raises(TypeError, match="Pair components must be integers"):
            Pair(*bad)
    with pytest.raises(ValueError, match=r"Pair requires l1 <= l2, got \(2,0\)"):
        Pair(2, 0)
    with pytest.raises(ValueError, match="label pair 'l1,l2' expected"):
        Pair.parse("1;2")
    for a, b in ((-1, 2), (0, 0), (3, 5)):
        assert Laurent2({Pair(a, b): frac(-7, 3)}).coeff(a, b) == frac(-7, 3)


def test_pair_basics():
    lam = Pair(-1, 2)
    assert lam.total == 1
    assert lam.width == 3
    assert lam.bar() == Pair(-2, 1)
    assert Pair.parse("0,2") == Pair(0, 2)
    with pytest.raises(ValueError):
        Pair(2, 0)
    assert len(pairs_under(Pair(0, 6))) == 28
    assert Pair(0, 3).contains(Pair(1, 2))
    assert not Pair(0, 3).contains(Pair(1, 4))


def test_context_validation():
    with pytest.raises(ValueError):
        QContext(s=frac(3, 2), g=1, xi=frac(1))
    with pytest.raises(ValueError):
        QContext(s=frac(1, 2), g=0, xi=frac(1))
    with pytest.raises(ValueError):
        QContext(s=frac(1, 2), g=1, xi=frac(0))
    ctx = QContext(s=frac(1, 2), g=2, xi=frac(3, 2))
    assert ctx.q == frac(1, 4)
    assert ctx.t == frac(1, 16)
    assert exact.tables(ctx).spow(3) == frac(1, 8)
    assert exact.tables(ctx).spow(ctx.g) == frac(1, 4)


def test_rational_str():
    assert rational_str(frac(1, 2)) == "1/2"
    assert rational_str(frac(4, 2)) == "2"
    assert rational_str(frac(-3, 4)) == "-3/4"


def test_context_constants_and_pickle_carry_no_table():
    ctx = QContext(s=frac(2, 3), g=3, xi=frac(-5, 7))
    assert (ctx.q, ctx.t, ctx.sqrt_t) == (frac(4, 9), frac(2, 3) ** 6, frac(8, 27))
    assert hash(ctx) == hash((ctx.s, ctx.g, ctx.xi))
    blob = pickle.dumps(ctx)
    tab = exact.tables(ctx)
    assert frac(*tab.ipoch_t[5]) == qpochhammer(ctx.t, ctx.q, 5) and tab.spow(-9) == frac(3, 2) ** 9
    tab.rows["marker"] = {}
    assert pickle.dumps(ctx) == blob
    back = pickle.loads(blob)
    assert back == ctx and hash(back) == hash(ctx) and (back.q, back.t) == (ctx.q, ctx.t)
    assert not any(isinstance(v, exact.ContextTables) for v in vars(back).values())
    assert exact.tables(back) is tab
    exact.clear_tables()
    assert exact.tables(ctx) is not tab
