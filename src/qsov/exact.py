"""Exact rational arithmetic, sparse Laurent polynomials, q-Pochhammer calculus.

Everything downstream is parametrized by the square root s of the base q,
so q = s**2 and t = s**(2*g) with integer g >= 1.  Every half-integer power
of q or t that shows up in the operator formulas is then an honest rational
number and all identities can be checked with zero tolerance.
"""

from __future__ import annotations

from dataclasses import dataclass

from .errors import NotDivisible, PoleError

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

@dataclass(frozen=True)
class Pair:
    """Ordered integer pair (l1 <= l2)."""

    l1: int
    l2: int

    def __post_init__(self):
        if not (isinstance(self.l1, int) and isinstance(self.l2, int)):
            raise TypeError("Pair components must be integers")
        if self.l1 > self.l2:
            raise ValueError(f"Pair requires l1 <= l2, got ({self.l1},{self.l2})")

    @property
    def total(self) -> int:
        return self.l1 + self.l2

    @property
    def width(self) -> int:
        return self.l2 - self.l1

    def bar(self) -> "Pair":
        return Pair(-self.l2, -self.l1)

    def contains(self, other: "Pair") -> bool:
        """True when other's interval sits inside self's interval."""
        return self.l1 <= other.l1 <= other.l2 <= self.l2

    def __str__(self):
        return f"{self.l1},{self.l2}"

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
    operator and every half power of t stays rational.
    """

    s: object
    g: int
    xi: object

    def __post_init__(self):
        object.__setattr__(self, "s", as_rational(self.s))
        object.__setattr__(self, "xi", as_rational(self.xi))
        if not isinstance(self.g, int) or self.g < 1:
            raise ValueError("g must be a positive integer")
        if not (ZERO < self.s < ONE):
            raise ValueError("s must satisfy 0 < s < 1")
        if self.xi == 0:
            raise ValueError("xi must be nonzero")

    @property
    def q(self):
        return self.s ** 2

    @property
    def t(self):
        return self.s ** (2 * self.g)

    @property
    def sqrt_t(self):
        return self.s ** self.g

    def qh(self, m: int):
        """q^(m/2) = s^m for any integer m."""
        return self.s ** m

    def th(self, m: int):
        """t^(m/2) = s^(g*m) for any integer m."""
        return self.s ** (self.g * m)

    def poch(self, a, n: int):
        """(a; q)_n in this context."""
        return qpochhammer(a, self.q, n)

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
# Sparse Laurent polynomials (one and two variables)
# ---------------------------------------------------------------------------

def _coerce_other(other):
    if is_rational(other):
        return as_rational(other)
    return None


class _Laurent:
    """Sparse Laurent polynomial over exact scalars: the exponent-blind operations.

    c maps an exponent to its nonzero coefficient.  A subclass fixes the
    exponent's shape (an int, or an (e1, e2) pair): it sets _UNIT, the
    constant monomial's exponent, and supplies _key, term, coeff, the
    product of two polynomials, subs_scale, evaluate and _mono.
    """

    __slots__ = ("c",)

    def __init__(self, coeffs=None):
        self.c = {}
        if coeffs:
            for k, v in coeffs.items():
                v = as_rational(v)
                if v != 0:
                    self.c[self._key(k)] = v

    @classmethod
    def _wrap(cls, coeffs: dict):
        """Polynomial owning coeffs, which must hold normalized keys and no zero value."""
        res = cls.__new__(cls)
        res.c = coeffs
        return res

    @classmethod
    def zero(cls):
        return cls()

    @classmethod
    def one(cls):
        return cls({cls._UNIT: ONE})

    def __bool__(self):
        return bool(self.c)

    def __eq__(self, other):
        if is_rational(other):
            other = type(self)({self._UNIT: other})
        return isinstance(other, type(self)) and self.c == other.c

    def __hash__(self):
        raise TypeError(f"{type(self).__name__} is unhashable")

    def __add__(self, other):
        s = _coerce_other(other)
        if s is not None:
            other = type(self)({self._UNIT: s})
        out = dict(self.c)
        for k, v in other.c.items():
            w = out.get(k, ZERO) + v
            if w == 0:
                out.pop(k, None)
            else:
                out[k] = w
        return self._wrap(out)

    __radd__ = __add__

    def __neg__(self):
        return self._wrap({k: -v for k, v in self.c.items()})

    def __sub__(self, other):
        return self + (-other)

    def __rsub__(self, other):
        return (-self) + other

    def _scaled(self, s):
        """self * s for an exact scalar s: the scalar branch of __mul__."""
        if s == 0:
            return type(self)()
        return self._wrap({k: v * s for k, v in self.c.items()})

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

    def support(self):
        return sorted(self.c)

    def __repr__(self):
        if not self.c:
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
        return self.c.get(k, ZERO)

    def __mul__(self, other):
        s = _coerce_other(other)
        if s is not None:
            return self._scaled(s)
        out = {}
        for k1, v1 in self.c.items():
            for k2, v2 in other.c.items():
                k = k1 + k2
                w = out.get(k, ZERO) + v1 * v2
                if w == 0:
                    out.pop(k, None)
                else:
                    out[k] = w
        return self._wrap(out)

    __rmul__ = __mul__

    def subs_scale(self, factor) -> "Laurent1":
        """Substitute y -> factor*y (factor a nonzero rational)."""
        factor = as_rational(factor)
        return self._wrap({k: v * factor ** k for k, v in self.c.items()})

    def is_reflexive(self) -> bool:
        return all(self.c.get(-k, ZERO) == v for k, v in self.c.items())

    def evaluate(self, z: complex) -> complex:
        return sum(float(v) * z ** k for k, v in self.c.items())

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
        return self.c.get((e1, e2), ZERO)

    # Bound in Laurent2 itself so that layer tracers, which wrap only own methods, see it.
    __add__ = __radd__ = _Laurent.__add__

    def __mul__(self, other):
        s = _coerce_other(other)
        if s is not None:
            return self._scaled(s)
        out = {}
        for (a1, b1), v1 in self.c.items():
            for (a2, b2), v2 in other.c.items():
                k = (a1 + a2, b1 + b2)
                w = out.get(k, ZERO) + v1 * v2
                if w == 0:
                    out.pop(k, None)
                else:
                    out[k] = w
        return self._wrap(out)

    __rmul__ = __mul__

    def subs_scale(self, f1, f2) -> "Laurent2":
        """Substitute x1 -> f1*x1, x2 -> f2*x2 (nonzero rationals)."""
        f1 = as_rational(f1)
        f2 = as_rational(f2)
        return self._wrap({(a, b): v * f1 ** a * f2 ** b for (a, b), v in self.c.items()})

    def subs_invert_scale(self, cnum) -> "Laurent2":
        """Substitute x_j -> cnum / x_j in both variables."""
        cnum = as_rational(cnum)
        return self._wrap({(-a, -b): v * cnum ** (a + b) for (a, b), v in self.c.items()})

    def shifted(self, d1: int, d2: int) -> "Laurent2":
        """x1^d1 x2^d2 * self: moves every exponent and shares the coefficient objects."""
        return self._wrap({(a + d1, b + d2): v for (a, b), v in self.c.items()})

    def is_symmetric(self) -> bool:
        return all(self.c.get((b, a), ZERO) == v for (a, b), v in self.c.items())

    def evaluate(self, z1: complex, z2: complex) -> complex:
        return sum(float(v) * z1 ** a * z2 ** b for (a, b), v in self.c.items())

    @staticmethod
    def _mono(k) -> str:
        return f"x1^{k[0]}*x2^{k[1]}"


def qshift(p, j: int, s_steps: int, ctx: QContext):
    """Shift variable j of p by a power of s: x_j -> s^s_steps * x_j.

    s_steps = 2 is the plain q-shift T_{q,x_j}; s_steps = 1 shifts by q^(1/2);
    negative counts give inverse shifts.  Exactness is preserved.
    """
    factor = ctx.s ** s_steps
    if j == 0:
        return p.subs_scale(factor, ONE)
    if j == 1:
        return p.subs_scale(ONE, factor)
    raise ValueError("variable index must be 0 or 1")


# ---------------------------------------------------------------------------
# Exact division
# ---------------------------------------------------------------------------

def divide_exact(num: Laurent2, den: Laurent2) -> Laurent2:
    """Exact quotient num/den in the two-variable Laurent ring.

    Repeatedly cancels the lex-leading term; any step that would push the
    quotient outside its a-priori exponent box means the division is inexact.
    Each step removes the remainder's lex-leading exponent k and adds only
    exponents below it (den's own leading exponent is lex-largest), so the
    quotient exponents fall strictly: the loop ends within the finite box.
    """
    if not den:
        raise ZeroDivisionError("division by the zero polynomial")
    if not num:
        return Laurent2()
    nkeys = list(num.c)
    dkeys = list(den.c)
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
    dlead = max(den.c)
    dcoef = den.c[dlead]
    rem = dict(num.c)
    quot = {}
    while rem:
        k = max(rem)
        e = (k[0] - dlead[0], k[1] - dlead[1])
        if not (lo[0] <= e[0] <= hi[0] and lo[1] <= e[1] <= hi[1]):
            raise NotDivisible("remainder exponent outside quotient range")
        qc = rem[k] / dcoef
        quot[e] = qc
        for dk, dv in den.c.items():
            kk = (dk[0] + e[0], dk[1] + e[1])
            w = rem.get(kk, ZERO) - qc * dv
            if w == 0:
                rem.pop(kk, None)
            else:
                rem[kk] = w
    return Laurent2._wrap(quot)


# ---------------------------------------------------------------------------
# Random generators for property-style tests and suites
# ---------------------------------------------------------------------------

def random_rational(rng, max_num=6) -> object:
    """Small nonzero rational, suitable as a generic coefficient."""
    num = rng.randint(1, max_num) * rng.choice((-1, 1))
    den = rng.randint(1, max_num)
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

