"""Exact rational arithmetic, sparse Laurent polynomials, q-Pochhammer calculus.

Everything downstream is parametrized by the square root s of the base q,
so q = s**2 and t = s**(2*g) with integer g >= 1.  Every half-integer power
of q or t that shows up in the operator formulas is then an honest rational
number and all identities can be checked with zero tolerance.

A Laurent polynomial (Laurent1, Laurent2) stores its coefficients as
Python-int numerators over one common denominator: its primitive part times
a rational content (Knuth, TAOCP vol. 2, 4.6.1).  The invariant, restored
once per result, is: the denominator is a positive int, no numerator is
zero, and gcd(denominator, *numerators) == 1.  The form is canonical, so two
polynomials are equal exactly when numerators and denominator agree.  Ring
operations, substitutions, shifts, evaluation, exact division and the
triangular solve Laurent2.expand work on the integers and build no per-term
scalar; only this module knows the storage.  Work on symmetric polynomials
(invariant under x1 <-> x2) reads the half a <= b of each: Laurent2.expand
and its inverse Laurent2.combine_symmetric, which mirrors the half it sums,
and Laurent1.tensor_square, which forms each mirror pair's product once.
The first-order q-difference operators form one product too: mirror_quotient
divides that product less its mirror (Laurent2.swap) by x1 - x2, and the
order-g one a product per diagonal a - b >= 0 plus its mirror (mirror_diagonal_sum).
Readers elsewhere see the read-only {exponent: scalar} mapping p.c, and coeff
returns the scalar type frac (fractions.Fraction, or gmpy2.mpq when gmpy2 is
installed).  A polynomial is never changed once built: every operation
returns a new one, so a shared polynomial is safe to hand out.
"""

from __future__ import annotations

from collections.abc import Mapping
from dataclasses import dataclass, field
from functools import partial
from heapq import heapify, heappop, heappush
from itertools import compress, starmap
from math import gcd, lcm
from operator import itemgetter, le

from .errors import NonTerminating, NotDivisible, PoleError

try:
    from gmpy2 import mpq as _rational
except ImportError:  # gmpy2 is the optional "fast" extra
    from fractions import Fraction as _rational

#: Constructor for the exact scalar type: ``frac(2, 3)`` or ``frac("2/3")``.
frac = _rational

ZERO = frac(0)
ONE = frac(1)


def is_rational(v) -> bool:
    return isinstance(v, (int, type(ZERO)))


def as_rational(v):
    """Coerce ints/strings to the scalar type; reject floats."""
    if isinstance(v, type(ZERO)):
        return v
    if isinstance(v, (int, str)):
        return frac(v)
    raise TypeError(f"exact scalar expected, got {type(v).__name__}")


def rational_str(v) -> str:
    """Serialize a rational as 'num' or 'num/den'."""
    v = as_rational(v)
    n, d = v.numerator, v.denominator
    return str(n) if d == 1 else f"{n}/{d}"


# ---------------------------------------------------------------------------
# Integer pairs indexing polynomials, bases and matrix rows
# ---------------------------------------------------------------------------

class Pair(tuple):
    """Ordered integer pair (l1 <= l2), stored as the tuple (l1, l2).

    A label is then the exponent of its entry in a label-indexed vector:
    Laurent2({nu: c}) holds c at nu, and a pair equals and hashes as the
    plain tuple (l1, l2).
    """

    __slots__ = ()

    def __new__(cls, l1: int, l2: int):
        if not (isinstance(l1, int) and isinstance(l2, int)):
            raise TypeError("Pair components must be integers")
        if l1 > l2:
            raise ValueError(f"Pair requires l1 <= l2, got ({l1},{l2})")
        return tuple.__new__(cls, (l1, l2))

    l1 = property(itemgetter(0))
    l2 = property(itemgetter(1))

    def __reduce__(self):
        return (Pair, tuple(self))

    @property
    def total(self) -> int:
        return self[0] + self[1]

    @property
    def width(self) -> int:
        return self[1] - self[0]

    def bar(self) -> "Pair":
        return Pair(-self[1], -self[0])

    def contains(self, other: "Pair") -> bool:
        """True when other's interval sits inside self's interval."""
        return self[0] <= other[0] <= other[1] <= self[1]

    def __str__(self):
        return f"{self[0]},{self[1]}"

    @staticmethod
    def parse(text: str) -> "Pair":
        try:
            a, b = (int(p) for p in text.split(","))
        except ValueError:
            raise ValueError(f"label pair 'l1,l2' expected, got {text!r}") from None
        return Pair(a, b)


def pairs_under(lam: Pair) -> list[Pair]:
    """All pairs nu with lam.l1 <= nu.l1 <= nu.l2 <= lam.l2, deterministic order."""
    return [
        Pair(a, b)
        for a in range(lam.l1, lam.l2 + 1)
        for b in range(a, lam.l2 + 1)
    ]


# ---------------------------------------------------------------------------
# Parameter context
# ---------------------------------------------------------------------------

@dataclass(frozen=True)
class QContext:
    """Run parameters: s (so q = s^2), integer g >= 1 (so t = s^(2g)), and xi.

    s must lie in (0, 1) so that 0 < q, t < 1; xi must be nonzero.  g is kept
    integral so that the inverse separating operator is a genuine difference
    operator and every half power of t stays rational.  q, t, sqrt_t and the
    hash are computed once, in __post_init__; equality compares (s, g, xi)
    only, as ints, and a pickle carries those three alone.  Everything else
    memoized for the context lives in tables(ctx), never on the context.
    """

    s: object
    g: int
    xi: object
    q: object = field(init=False, repr=False, compare=False)
    t: object = field(init=False, repr=False, compare=False)
    sqrt_t: object = field(init=False, repr=False, compare=False)

    def __post_init__(self):
        object.__setattr__(self, "s", as_rational(self.s))
        object.__setattr__(self, "xi", as_rational(self.xi))
        if not isinstance(self.g, int) or self.g < 1:
            raise ValueError("g must be a positive integer")
        if not (ZERO < self.s < ONE):
            raise ValueError("s must satisfy 0 < s < 1")
        if self.xi == 0:
            raise ValueError("xi must be nonzero")
        s, g, xi = self.s, self.g, self.xi
        object.__setattr__(self, "q", s ** 2)
        object.__setattr__(self, "t", s ** (2 * g))
        object.__setattr__(self, "sqrt_t", s ** g)
        object.__setattr__(self, "_key", (s.numerator, s.denominator, g, xi.numerator, xi.denominator))
        object.__setattr__(self, "_hash", hash((s, g, xi)))

    def __eq__(self, other):
        if not isinstance(other, QContext):
            return NotImplemented
        return self._key == other._key

    def __hash__(self):
        return self._hash

    def __reduce__(self):
        return (QContext, (self.s, self.g, self.xi))

    def label(self) -> str:
        return f"s={rational_str(self.s)},g={self.g},xi={rational_str(self.xi)}"


# ---------------------------------------------------------------------------
# q-Pochhammer calculus
# ---------------------------------------------------------------------------

def qpochhammer(a, qbase, n: int):
    """(a; q)_n with the reciprocal convention for negative n.

    n >= 0: prod_{k=0}^{n-1} (1 - a q^k);
    n <  0: 1 / prod_{k=1}^{|n|} (1 - a q^{-k}).
    """
    a = as_rational(a)
    qbase = as_rational(qbase)
    if n >= 0:
        prod = ONE
        for k in range(n):
            prod *= ONE - a * qbase ** k
        return prod
    prod = ONE
    for k in range(1, -n + 1):
        factor = ONE - a * qbase ** (-k)
        if factor == 0:
            raise PoleError(f"(a;q)_{n} pole: a*q^-{k} = 1 for a={a}, q={qbase}")
        prod *= factor
    return ONE / prod


def qbinomial(n: int, k: int, qbase):
    """Gaussian binomial [n over k]_q; zero outside 0 <= k <= n."""
    if k < 0 or k > n:
        return ZERO
    qbase = as_rational(qbase)
    num = qpochhammer(qbase, qbase, n)
    den = qpochhammer(qbase, qbase, k) * qpochhammer(qbase, qbase, n - k)
    return num / den


# ---------------------------------------------------------------------------
# Per-context tables
# ---------------------------------------------------------------------------

class _IntPochArray:
    """(s^e; q)_n of one base s^e (e > 0) for every n >= 0, as an int pair.

    arr[n] is (N, D), the product of the pairs one_minus(e + 2k) for k < n,
    unreduced, so N / D equals qpochhammer(s^e, q, n); one factor per new
    entry.  Readers multiply entries as pairs and reduce once, with _ratio.
    """

    __slots__ = ("e", "_one_minus", "_up")

    def __init__(self, e: int, one_minus):
        self.e = e
        self._one_minus = one_minus
        self._up = [(1, 1)]  # _up[n] = (s^e; q)_n

    def __getitem__(self, n: int) -> tuple:
        if n < 0:
            raise ValueError(f"integer Pochhammer arrays hold n >= 0 only, got {n}")
        if n >= len(self._up):
            self._extend(n)
        return self._up[n]

    def _extend(self, n: int) -> None:
        """Grow the array up to index n."""
        up, e = self._up, self.e
        for k in range(len(up) - 1, n):
            fn, fd = self._one_minus(e + 2 * k)
            pn, pd = up[k]
            up.append((pn * fn, pd * fd))


def _times(n, d, up, down) -> tuple:
    """(n / d) * prod(up) / prod(down) for int pairs up and down, as one unreduced int pair."""
    for x, y in up:
        n, d = n * x, d * y
    for x, y in down:
        n, d = n * y, d * x
    return n, d


def _ratio(up, down):
    """prod(up) / prod(down) for int pairs up and down, as one scalar reduced once."""
    return frac(*_times(1, 1, up, down))


class ContextTables:
    """What the exact layer memoizes for one context, indexed by int where it can be.

    With s = a/b in lowest terms, ipow(e) is s^e as the int pair (a^e, b^e)
    (swapped for e < 0), the one table of powers of s: spow(m) is s^m for
    any int m as a scalar, and qpow(k), tpow(k) are q^k and t^k from it.
    one_minus(e) is 1 - s^e as an int pair and xipow(k) is xi^k as one.
    ipoch_q, ipoch_t, ipoch_tq and ipoch_tt are the _IntPochArray arrays of
    q, t, t q and t^2, one array per base (at g = 1, t is q and t q is t^2).
    Every int pair has a positive denominator and is not reduced.

    The dicts are filled by the modules named: factors (sov: per-width basis
    factors by tag), factors1 (sov: by tag, the one-variable products whose
    tensor squares the factors are), multipliers (sov: (exponent, width) ->
    eigen-multiplier), rows (sov: (kind, lam, route) -> transition row),
    macdonald (macdonald: lam -> P_lam) and separated (macdonald: width ->
    phi_width); qdiff (sov) holds the input-independent part of the
    difference-operator inverse, rows by diagonal included, once it is built.
    Entries are never mutated once stored.
    """

    def __init__(self, ctx: QContext):
        self.ctx = ctx
        self._ab = _ints(ctx.s)
        self._ipowers = [(1, 1)]  # _ipowers[m] = (a^m, b^m)
        self._xi = _ints(ctx.xi)
        g = ctx.g
        exps = (2, 2 * g, 2 * g + 2, 4 * g)
        arrays = {e: _IntPochArray(e, self.one_minus) for e in exps}
        self.ipoch_q, self.ipoch_t, self.ipoch_tq, self.ipoch_tt = (arrays[e] for e in exps)
        self.factors = {}
        self.factors1 = {}
        self.multipliers = {}
        self.rows = {}
        self.macdonald = {}
        self.separated = {}
        self.qdiff = None

    def spow(self, m: int):
        """s^m for any int m, read from the ipow table."""
        return frac(*self.ipow(m))

    def qpow(self, k: int):
        """q^k for any int k."""
        return self.spow(2 * k)

    def tpow(self, k: int):
        """t^k for any int k."""
        return self.spow(2 * self.ctx.g * k)

    def ipow(self, e: int) -> tuple:
        """s^e as an int pair for any int e."""
        m = -e if e < 0 else e
        if m >= len(self._ipowers):
            self._extend_ipow(m)
        x, y = self._ipowers[m]
        return (x, y) if e >= 0 else (y, x)

    def _extend_ipow(self, m: int) -> None:
        """Grow the (a^m, b^m) list up to index m."""
        powers, (a, b) = self._ipowers, self._ab
        while len(powers) <= m:
            x, y = powers[-1]
            powers.append((x * a, y * b))

    def spow_table(self, k: int, lo: int, hi: int) -> tuple:
        """_power_table(s^k, lo, hi), its powers of s read from the ipow table."""
        A, B = max(0, -k * lo, -k * hi), max(0, k * lo, k * hi)
        self.ipow(A + B)  # grows the table to index A + B
        powers = self._ipowers
        m = [powers[A + k * e][0] * powers[B - k * e][1] for e in range(lo, hi + 1)]
        return m, powers[A][0] * powers[B][1]

    def one_minus(self, e: int) -> tuple:
        """1 - s^e as an int pair for any int e; (0, 1) at e = 0."""
        x, y = self.ipow(e)
        return y - x, y

    def xipow(self, k: int) -> tuple:
        """xi^k as an int pair for any int k."""
        n, d = self._xi
        if k < 0:
            n, d, k = d, n, -k
        n, d = n ** k, d ** k
        return (n, d) if d > 0 else (-n, -d)


_TABLES: dict = {}


def tables(ctx: QContext) -> ContextTables:
    """The ContextTables shared by ctx and every context equal to it."""
    tab = _TABLES.get(ctx)
    if tab is None:
        tab = _TABLES[ctx] = ContextTables(ctx)
    return tab


def clear_tables() -> None:
    """Drop every context's tables; each is rebuilt, cold, on its next use."""
    _TABLES.clear()


# ---------------------------------------------------------------------------
# Sparse Laurent polynomials (one and two variables)
# ---------------------------------------------------------------------------

def _coerce_other(other):
    if is_rational(other):
        return as_rational(other)
    return None


def _ints(v) -> tuple:
    """(numerator, denominator) of an exact scalar as Python ints; the denominator is positive."""
    return int(v.numerator), int(v.denominator)


def _reduced(nums: dict, den: int) -> tuple:
    """(nums, den) divided by gcd(den, *nums): the canonical form of nums/den."""
    g = gcd(den, *nums.values())
    if g == 1:
        return nums, den
    return {k: v // g for k, v in nums.items()}, den // g


def _power_table(f, lo: int, hi: int) -> tuple:
    """([m_lo, ..., m_hi], D): integers with f**e == m_e / D for lo <= e <= hi, D > 0.

    f = n/d is a nonzero rational; D = n^A d^B with A = max(0, -lo) and
    B = max(0, hi), so m_e = n^(e+A) d^(B-e) has only nonnegative powers.
    """
    n, d = _ints(f)
    A, B = max(0, -lo), max(0, hi)
    m = [n ** (e + A) * d ** (B - e) for e in range(lo, hi + 1)]
    D = n ** A * d ** B
    if D < 0:
        return [-x for x in m], -D
    return m, D


def _add_multiple(out: dict, terms, m: int) -> None:
    """out += m * terms on a numerator dict (m != 0), deleting entries that reach zero.

    terms is an iterable of (exponent, numerator) pairs, such as nums.items().
    """
    get = out.get
    for k, v in terms:
        w = get(k, 0) + m * v
        if w:
            out[k] = w
        else:
            del out[k]


def _add_products(out: dict, left, right: list) -> None:
    """out += left * right on two-variable numerator dicts, given as (exponent, numerator) pairs."""
    get = out.get
    for (a1, b1), v1 in left:
        for (a2, b2), v2 in right:
            k = (a1 + a2, b1 + b2)
            w = get(k, 0) + v1 * v2
            if w:
                out[k] = w
            else:
                del out[k]


def _upper_half(nums: dict):
    """The terms (a, b) with a <= b of a two-variable numerator dict, in term order, lazily."""
    return compress(nums.items(), starmap(le, nums))


class _Coeffs(Mapping):
    """Read-only {exponent: scalar} view of a polynomial's coefficients, in term order."""

    __slots__ = ("_p",)

    def __init__(self, p):
        self._p = p

    def __getitem__(self, k):
        return frac(self._p._n[k], self._p._d)

    def __iter__(self):
        return iter(self._p._n)

    def __len__(self):
        return len(self._p._n)

    def __repr__(self):
        return repr(dict(self.items()))


class _Laurent:
    """Sparse Laurent polynomial over the rationals: the exponent-blind operations.

    _n maps an exponent to its nonzero int numerator and _d is the common
    denominator, in the canonical form the module docstring states (the zero
    polynomial is {} over 1).  c is the read-only {exponent: scalar} view.

    A subclass fixes the exponent's shape (an int, or an (e1, e2) pair): it
    sets _UNIT, the constant monomial's exponent, and supplies _key, term,
    coeff, the product of two polynomials, subs_scale and _mono.
    """

    __slots__ = ("_n", "_d")

    def __init__(self, coeffs=None):
        vals = {}
        if coeffs:
            for k, v in coeffs.items():
                v = as_rational(v)
                if v != 0:
                    vals[self._key(k)] = _ints(v)
        den = lcm(*(d for _, d in vals.values()))
        self._n, self._d = _reduced({k: n * (den // d) for k, (n, d) in vals.items()}, den)

    @classmethod
    def _wrap(cls, nums: dict, den: int):
        """Polynomial owning nums over den, which must already be canonical."""
        res = cls.__new__(cls)
        res._n = nums
        res._d = den
        return res

    @classmethod
    def _make(cls, nums: dict, den: int):
        """Polynomial owning nums over den > 0 (no zero numerator), reduced to canonical form."""
        return cls._wrap(*_reduced(nums, den))

    @classmethod
    def one(cls):
        return cls._wrap({cls._UNIT: 1}, 1)

    @property
    def c(self) -> Mapping:
        return _Coeffs(self)

    def __bool__(self):
        return bool(self._n)

    def __eq__(self, other):
        if is_rational(other):
            other = type(self)({self._UNIT: other})
        return isinstance(other, type(self)) and self._d == other._d and self._n == other._n

    def __hash__(self):
        raise TypeError(f"{type(self).__name__} is unhashable")

    def _plus(self, other, sign: int):
        """self + sign * other for a polynomial or scalar other and sign = +-1, reduced once."""
        s = _coerce_other(other)
        if s is not None:
            other = type(self)({self._UNIT: s})
        den = lcm(self._d, other._d)
        f = den // self._d
        out = {k: v * f for k, v in self._n.items()} if f != 1 else dict(self._n)
        _add_multiple(out, other._n.items(), sign * (den // other._d))
        return self._make(out, den)

    def __add__(self, other):
        return self._plus(other, 1)

    __radd__ = __add__

    def __neg__(self):
        return self._wrap({k: -v for k, v in self._n.items()}, self._d)

    def __sub__(self, other):
        return self._plus(other, -1)

    def __rsub__(self, other):
        return (-self)._plus(other, 1)

    def _scaled(self, s):
        """self * s for an exact scalar s: the scalar branch of __mul__."""
        if s == 0:
            return type(self)()
        sn, sd = _ints(s)
        return self._make({k: v * sn for k, v in self._n.items()}, self._d * sd)

    def __pow__(self, n: int):
        if n < 0:
            raise ValueError("negative powers of polynomials are not defined")
        res = self.one()
        base = self
        while n:
            if n & 1:
                res = res * base
            base = base * base
            n >>= 1
        return res

    def combine(self, element):
        """sum(self[k] * element(k) for every exponent k of self), reduced once.

        The linear map that sends the monomial of exponent k to the
        polynomial element(k); the elements share one class.  self's int
        numerators are the weights over one common denominator, so no scalar
        is built.  The image of the zero polynomial is the zero Laurent2.
        Laurent2.combine_symmetric is the same map for symmetric elements.
        """
        cls, nums, den = self._weighted_sum(element, dict.items)
        return cls._make(nums, den)

    def _weighted_sum(self, element, terms) -> tuple:
        """(cls, nums, den): sum(self[k] * element(k)) as int numerators over den, unreduced.

        Only the terms terms(element(k)._n) of each element are summed; cls
        is the elements' class.
        """
        if not self._n:
            return Laurent2, {}, 1
        elements = [(v, element(k)) for k, v in self._n.items()]
        den = lcm(*(p._d for _, p in elements))
        out = {}
        for v, p in elements:
            _add_multiple(out, terms(p._n), v * (den // p._d))
        return type(elements[0][1]), out, self._d * den

    def map_terms(self, fn):
        """Move and rescale every term: c at exponent k becomes c * f at k2, (k2, f) = fn(k).

        f is a nonzero exact scalar and fn sends distinct exponents to
        distinct ones; the result keeps the term order and is reduced once.
        """
        moved = [(k2, v, *_ints(f)) for k, v in self._n.items() for k2, f in (fn(k),)]
        den = lcm(*(fden for _, _, _, fden in moved))
        nums = {k2: v * fnum * (den // fden) for k2, v, fnum, fden in moved}
        return self._make(nums, self._d * den)

    def __repr__(self):
        if not self._n:
            return "0"
        return " + ".join(f"{rational_str(v)}*{self._mono(k)}" for k, v in sorted(self.c.items()))


class Laurent1(_Laurent):
    """Sparse Laurent polynomial in one variable y; exponents are ints."""

    __slots__ = ()
    _UNIT = 0
    _key = staticmethod(int)

    @classmethod
    def term(cls, exponent: int, coeff=ONE) -> "Laurent1":
        return cls({exponent: coeff})

    def coeff(self, k: int):
        v = self._n.get(k)
        return ZERO if v is None else frac(v, self._d)

    def __mul__(self, other):
        s = _coerce_other(other)
        if s is not None:
            return self._scaled(s)
        out = {}
        get = out.get
        right = list(other._n.items())
        for k1, v1 in self._n.items():
            for k2, v2 in right:
                k = k1 + k2
                w = get(k, 0) + v1 * v2
                if w:
                    out[k] = w
                else:
                    del out[k]
        return self._make(out, self._d * other._d)

    __rmul__ = __mul__

    def subs_scale(self, factor) -> "Laurent1":
        """Substitute y -> factor*y (factor a nonzero rational)."""
        if not self._n:
            return type(self)()
        lo = min(self._n)
        m, D = _power_table(as_rational(factor), lo, max(self._n))
        return self._make({k: v * m[k - lo] for k, v in self._n.items()}, self._d * D)

    def shifted(self, d: int) -> "Laurent1":
        """y^d * self: moves every exponent and keeps the numerators."""
        return self._wrap({k + d: v for k, v in self._n.items()}, self._d)

    def tensor_square(self) -> "Laurent2":
        """self(x1) * self(x2) as a symmetric two-variable polynomial.

        Each product of two numerators is formed once and serves both
        mirror terms.  Term order: for each exponent j of self in turn,
        (i, j) for every i before j, then (j, i) for every i up to j.  The
        form is canonical as it stands: a prime dividing d is coprime to some
        numerator n_i, so it does not divide n_i^2.
        """
        items = list(self._n.items())
        out = {}
        for n, (j, vj) in enumerate(items):
            row = [(i, vi * vj) for i, vi in items[:n]]
            for i, v in row:
                out[i, j] = v
            for i, v in row:
                out[j, i] = v
            out[j, j] = vj * vj
        return Laurent2._wrap(out, self._d * self._d)

    def is_reflexive(self) -> bool:
        n = self._n
        return all(n.get(-k) == v for k, v in n.items())

    @staticmethod
    def _mono(k) -> str:
        return f"y^{k}"


class Laurent2(_Laurent):
    """Sparse Laurent polynomial in two variables x1, x2; exponents are (e1, e2).

    Used both for plain bivariate Laurent polynomials and, via the symmetry
    predicate, for the symmetric subspace the operators act on.
    """

    __slots__ = ()
    _UNIT = (0, 0)

    @staticmethod
    def _key(k) -> tuple:
        return (int(k[0]), int(k[1]))

    @classmethod
    def term(cls, e1: int, e2: int, coeff=ONE) -> "Laurent2":
        return cls({(e1, e2): coeff})

    def coeff(self, e1: int, e2: int):
        v = self._n.get((e1, e2))
        return ZERO if v is None else frac(v, self._d)

    # Bound in Laurent2 itself so that layer tracers, which wrap only own methods, see it.
    __add__ = __radd__ = _Laurent.__add__

    def __mul__(self, other):
        s = _coerce_other(other)
        if s is not None:
            return self._scaled(s)
        out = {}
        _add_products(out, self._n.items(), list(other._n.items()))
        return self._make(out, self._d * other._d)

    __rmul__ = __mul__

    def subs_scale(self, f1, f2) -> "Laurent2":
        """Substitute x1 -> f1*x1, x2 -> f2*x2 (nonzero rationals); a factor 1 leaves x_j alone."""
        powers = (None if f == ONE else partial(_power_table, as_rational(f)) for f in (f1, f2))
        return self.subs_powers(*powers)

    def subs_powers(self, table1, table2) -> "Laurent2":
        """subs_scale with each factor f as table(lo, hi) = (m, D), f^e = m[e - lo] / D, or None for 1."""
        nums, den = self._n, self._d
        for j, table in enumerate((table1, table2)):
            if table is not None and nums:
                lo = min(k[j] for k in nums)
                m, D = table(lo, max(k[j] for k in nums))
                nums, den = {k: v * m[k[j] - lo] for k, v in nums.items()}, den * D
        return self if nums is self._n else self._make(nums, den)

    def subs_invert_scale(self, cnum) -> "Laurent2":
        """Substitute x_j -> cnum / x_j in both variables."""
        if not self._n:
            return type(self)()
        lo = min(a + b for a, b in self._n)
        m, D = _power_table(as_rational(cnum), lo, max(a + b for a, b in self._n))
        nums = {(-a, -b): v * m[a + b - lo] for (a, b), v in self._n.items()}
        return self._make(nums, self._d * D)

    def shifted(self, d1: int, d2: int) -> "Laurent2":
        """x1^d1 x2^d2 * self: moves every exponent and keeps the numerators."""
        return self._wrap({(a + d1, b + d2): v for (a, b), v in self._n.items()}, self._d)

    def swap(self) -> "Laurent2":
        """The mirror x1 <-> x2: the term at (a, b) moves to (b, a), numerators kept."""
        return self._wrap({(b, a): v for (a, b), v in self._n.items()}, self._d)

    def is_symmetric(self) -> bool:
        n = self._n
        return all(n.get((b, a)) == v for (a, b), v in n.items())

    def combine_symmetric(self, element):
        """combine for a family of symmetric elements: the inverse of expand.

        Sums the terms (a, b) with a <= b of each element(k), through the
        same accumulation as combine, then mirrors the sum: each term with
        a < b is also written at (b, a), right after it.  So each product of
        a weight and a numerator is formed once per mirror pair.
        """
        cls, half, den = self._weighted_sum(element, _upper_half)
        half, den = _reduced(half, den)
        out = {}
        for m, v in half.items():
            out[m] = v
            a, b = m
            if a != b:
                out[b, a] = v
        return cls._wrap(out, den)

    def expand(self, element) -> "Laurent2":
        """The label vector v with v.combine(element) == self: the inverse of combine.

        self is symmetric, and element is a triangular family: for every
        label k = (lo, top), lo <= top, element(k) is a symmetric polynomial
        with a nonzero coefficient at k and every monomial in the box
        [lo, top]^2.  Each step peels off the pivot, the label with the
        largest top and then the smallest lo among the remainder's monomials
        (a, b), a <= b, taken from a heap of (-top, lo) keys with lazy
        deletion.  v holds the labels in that order, which falls strictly
        because an element adds monomials inside its box only, so the loop
        ends.

        Everything is symmetric, so the remainder keeps only its half a <= b
        and each step reads only the element's terms with a <= b; the pass
        that builds the half checks that self is symmetric.  The remainder
        is an int numerator dict W over one denominator D and each step is
        fraction-free (Bareiss): with w = W[k], E the element's numerators
        over ed, el = E[k] and g = gcd(w, el), W becomes (el/g) W - (w/g) E
        and D becomes D el/g.  Each entry of W changes on its own, so the
        half gives the labels, values and order of the full remainder.  The
        entry at k is the unreduced int pair (w ed/g, D el/g) with the old
        D; v is built with one lcm and reduced once.  Raises NonTerminating
        when self is not symmetric, when an element leaves its box or misses
        its label, or when the remainder is not zero once no label is left.
        """
        work, den, get = {}, self._d, self._n.get
        for m, v in self._n.items():
            a, b = m
            if a < b and get((b, a)) != v:
                raise NonTerminating(f"the polynomial to expand is not symmetric at {m}")
            if a <= b:
                work[m] = v
        # each term with a < b has its mirror, so a count match leaves no other term with a > b
        if 2 * len(work) - sum(a == b for a, b in work) != len(self._n):
            raise NonTerminating("the polynomial to expand is not symmetric")
        heap = [(-b, a) for a, b in work]
        heapify(heap)
        entries = []  # (label, numerator, denominator), unreduced
        while heap:
            neg_top, lo = heappop(heap)
            top = -neg_top
            k = (lo, top)
            w = work.get(k)
            if w is None:
                continue
            e = element(k)
            el = e._n.get(k)
            if el is None:
                raise NonTerminating(f"element {k} has no term at its label")
            g = gcd(w, el)
            f, h = el // g, w // g
            entries.append((k, h * e._d, den * f))
            if f != 1:
                work = {m: f * v for m, v in work.items()}
                den *= f
            get = work.get
            for m, v in e._n.items():
                a, b = m
                if a > b:
                    continue
                if a < lo or b > top:
                    raise NonTerminating(f"element {k} has a term at {m}, outside its box")
                x = get(m)
                if x is None:
                    work[m] = -h * v
                    heappush(heap, (-b, a))
                else:
                    x -= h * v
                    if x:
                        work[m] = x
                    else:
                        del work[m]
        if work:
            raise NonTerminating("triangular expansion left a nonzero remainder")
        common = lcm(*(d for _, _, d in entries))
        return self._make({k: n * (common // d) for k, n, d in entries}, common)

    def evaluate(self, z1: complex, z2: complex) -> complex:
        # n / d is the correctly rounded float of the coefficient, as float(Fraction) is.
        d = self._d
        return sum(v / d * z1 ** a * z2 ** b for (a, b), v in self._n.items())

    @staticmethod
    def _mono(k) -> str:
        return f"x1^{k[0]}*x2^{k[1]}"


def qshift(p, j: int, s_steps: int, ctx: QContext):
    """Shift variable j of p by a power of s: x_j -> s^s_steps * x_j.

    s_steps = 2 is the plain q-shift T_{q,x_j}; s_steps = 1 shifts by q^(1/2);
    negative counts give inverse shifts.  Exactness is preserved.
    """
    table = partial(tables(ctx).spow_table, s_steps)
    if j == 0:
        return p.subs_powers(table, None)
    if j == 1:
        return p.subs_powers(None, table)
    raise ValueError("variable index must be 0 or 1")


_X1_MINUS_X2 = Laurent2({(1, 0): ONE, (0, 1): -ONE})


def mirror_quotient(c: Laurent2, p: Laurent2, s_steps: int, ctx: QContext) -> Laurent2:
    """(c T_1 - swap(c) T_2) p / (x1 - x2), T_j: x_j -> s^s_steps x_j, for a symmetric p.

    The T_2 product is then the mirror of A = c T_1 p: the quotient is
    (A - A.swap()) / (x1 - x2), one product.  An antisymmetric numerator always
    divides exactly, so an asymmetric p raises ValueError, not a wrong quotient.
    """
    if not p.is_symmetric():
        raise ValueError("the first-order operators act on symmetric polynomials")
    a = c * qshift(p, 0, s_steps, ctx)
    return divide_exact(a - a.swap(), _X1_MINUS_X2)


def mirror_diagonal_sum(row, p: Laurent2, m: int) -> Laurent2:
    """T + U - (x2/x1)^m swap(U): the products of p's diagonals d >= 0, mirrored.

    p_d is the part of p on the diagonal a - b = d, T = row(0) p_0 and
    U = sum_{d > 0} row(d) p_d; the terms with a < b are not read.  When the
    term of -d is -(x2/x1)^m swap(row(d) p_d), as in sov.apply_M_inverse_qdiff,
    this is sum_d row(d) p_d over every d.  The products run on the int
    numerators over one common denominator, and the result is reduced once.
    """
    diagonals = {}
    for k, v in p._n.items():
        if k[0] >= k[1]:
            diagonals.setdefault(k[0] - k[1], []).append((k, v))
    rows = {d: row(d) for d in diagonals}
    den = lcm(*(r._d for r in rows.values()))
    out, upper = {}, {}  # T, U
    for d, terms in diagonals.items():
        f = den // rows[d]._d
        _add_products(upper if d else out, terms, [(k, w * f) for k, w in rows[d]._n.items()])
    _add_multiple(out, upper.items(), 1)
    _add_multiple(out, (((b - m, a + m), v) for (a, b), v in upper.items()), -1)
    return Laurent2._make(out, p._d * den)


# ---------------------------------------------------------------------------
# Exact division
# ---------------------------------------------------------------------------

def divide_exact(num: Laurent2, den: Laurent2) -> Laurent2:
    """Exact quotient num/den in the two-variable Laurent ring.

    Divides the integer primitive parts (numerators over their gcd) and
    restores the rational content at the end.  By Gauss's lemma a quotient
    of primitive parts that exists over the rationals has integer
    coefficients, so each step's division by den's leading numerator is
    exact or the division is inexact.  Repeatedly cancels the lex-leading
    term; any step that would push the quotient outside its a-priori
    exponent box means the division is inexact.  Each step removes the
    remainder's lex-leading exponent k and adds only exponents below it
    (den's own leading exponent is lex-largest), so the quotient exponents
    fall strictly: the loop ends within the finite box.
    """
    if not den:
        raise ZeroDivisionError("division by the zero polynomial")
    if not num:
        return Laurent2()
    nkeys = list(num._n)
    dkeys = list(den._n)
    lo = (
        min(k[0] for k in nkeys) - min(k[0] for k in dkeys),
        min(k[1] for k in nkeys) - min(k[1] for k in dkeys),
    )
    hi = (
        max(k[0] for k in nkeys) - max(k[0] for k in dkeys),
        max(k[1] for k in nkeys) - max(k[1] for k in dkeys),
    )
    if hi[0] < lo[0] or hi[1] < lo[1]:
        raise NotDivisible("quotient support is empty")
    ncont = gcd(*num._n.values())
    dcont = gcd(*den._n.values())
    dterms = [(k, v // dcont) for k, v in den._n.items()]
    dlead = max(dkeys)
    dcoef = den._n[dlead] // dcont
    rem = {k: v // ncont for k, v in num._n.items()}
    quot = {}
    while rem:
        k = max(rem)
        e = (k[0] - dlead[0], k[1] - dlead[1])
        if not (lo[0] <= e[0] <= hi[0] and lo[1] <= e[1] <= hi[1]):
            raise NotDivisible("remainder exponent outside quotient range")
        qc, r = divmod(rem[k], dcoef)
        if r:
            raise NotDivisible("primitive quotient has a non-integer coefficient")
        quot[e] = qc
        for dk, dv in dterms:
            kk = (dk[0] + e[0], dk[1] + e[1])
            w = rem.get(kk, 0) - qc * dv
            if w:
                rem[kk] = w
            else:
                del rem[kk]
    # num/den = (ncont/num._d) / (dcont/den._d) * quot
    scale = ncont * den._d
    return Laurent2._make({e: v * scale for e, v in quot.items()}, dcont * num._d)


# ---------------------------------------------------------------------------
# Random generators for property-style tests and suites
# ---------------------------------------------------------------------------

def random_rational(rng) -> object:
    """Small nonzero rational n/d with |n|, d in 1..6, suitable as a generic coefficient."""
    num = rng.randint(1, 6) * rng.choice((-1, 1))
    den = rng.randint(1, 6)
    return frac(num, den)


def random_symmetric(rng, degree=6, terms=5) -> Laurent2:
    """Random symmetric Laurent polynomial with exponents in [-degree, degree]."""
    p = Laurent2()
    for _ in range(terms):
        a = rng.randint(-degree, degree)
        b = rng.randint(a, degree)
        v = random_rational(rng)
        p = p + Laurent2({(a, b): v, (b, a): v} if a != b else {(a, b): v})
    return p

