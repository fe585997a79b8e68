"""Exact rational arithmetic, sparse Laurent polynomials, q-Pochhammer calculus.

Everything downstream is parametrized by the square root s of the base q,
so q = s**2 and t = s**(2*g) with integer g >= 1.  Every half-integer power
of q or t that shows up in the operator formulas is then an honest rational
number and all identities can be checked with zero tolerance.
"""

from __future__ import annotations

from dataclasses import dataclass

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

    def shifted(self, d1: int, d2: int) -> "Pair":
        return Pair(self.l1 + d1, self.l2 + d2)

    def contains(self, other: "Pair") -> bool:
        """True when other's interval sits inside self's interval."""
        return self.l1 <= other.l1 <= other.l2 <= self.l2

    def __iter__(self):
        return iter((self.l1, self.l2))

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


class Laurent1:
    """Sparse Laurent polynomial in one variable over exact scalars."""

    __slots__ = ("c",)

    def __init__(self, coeffs=None):
        self.c = {}
        if coeffs:
            for k, v in coeffs.items():
                v = as_rational(v)
                if v != 0:
                    self.c[k] = v

    @classmethod
    def term(cls, exponent: int, coeff=ONE) -> "Laurent1":
        return cls({exponent: coeff})

    @classmethod
    def zero(cls) -> "Laurent1":
        return cls()

    @classmethod
    def one(cls) -> "Laurent1":
        return cls({0: ONE})

    def __bool__(self):
        return bool(self.c)

    def __eq__(self, other):
        if is_rational(other):
            other = Laurent1({0: other})
        return isinstance(other, Laurent1) and self.c == other.c

    def __hash__(self):
        raise TypeError("Laurent1 is unhashable")

    def __add__(self, other):
        s = _coerce_other(other)
        if s is not None:
            other = Laurent1({0: s})
        out = dict(self.c)
        for k, v in other.c.items():
            w = out.get(k, ZERO) + v
            if w == 0:
                out.pop(k, None)
            else:
                out[k] = w
        res = Laurent1()
        res.c = out
        return res

    __radd__ = __add__

    def __neg__(self):
        res = Laurent1()
        res.c = {k: -v for k, v in self.c.items()}
        return res

    def __sub__(self, other):
        s = _coerce_other(other)
        if s is not None:
            other = Laurent1({0: s})
        return self + (-other)

    def __rsub__(self, other):
        return (-self) + other

    def __mul__(self, other):
        s = _coerce_other(other)
        if s is not None:
            if s == 0:
                return Laurent1()
            res = Laurent1()
            res.c = {k: v * s for k, v in self.c.items()}
            return res
        out = {}
        for k1, v1 in self.c.items():
            for k2, v2 in other.c.items():
                k = k1 + k2
                w = out.get(k, ZERO) + v1 * v2
                if w == 0:
                    out.pop(k, None)
                else:
                    out[k] = w
        res = Laurent1()
        res.c = out
        return res

    __rmul__ = __mul__

    def __pow__(self, n: int):
        if n < 0:
            raise ValueError("negative powers of polynomials are not defined")
        res = Laurent1.one()
        base = self
        while n:
            if n & 1:
                res = res * base
            base = base * base
            n >>= 1
        return res

    def coeff(self, k: int):
        return self.c.get(k, ZERO)

    def support(self):
        return sorted(self.c)

    def min_exp(self) -> int:
        return min(self.c)

    def max_exp(self) -> int:
        return max(self.c)

    def subs_scale(self, factor) -> "Laurent1":
        """Substitute y -> factor*y (factor a nonzero rational)."""
        factor = as_rational(factor)
        res = Laurent1()
        res.c = {k: v * factor ** k for k, v in self.c.items()}
        return res

    def is_reflexive(self) -> bool:
        return all(self.c.get(-k, ZERO) == v for k, v in self.c.items())

    def evaluate(self, z: complex) -> complex:
        return sum(float(v) * z ** k for k, v in self.c.items())

    def __repr__(self):
        if not self.c:
            return "0"
        parts = [f"{rational_str(v)}*y^{k}" for k, v in sorted(self.c.items())]
        return " + ".join(parts)


class Laurent2:
    """Sparse Laurent polynomial in two variables over exact scalars.

    Used both for plain bivariate Laurent polynomials and, via the symmetry
    predicate, for the symmetric subspace the operators act on.
    """

    __slots__ = ("c",)

    def __init__(self, coeffs=None):
        self.c = {}
        if coeffs:
            for k, v in coeffs.items():
                v = as_rational(v)
                if v != 0:
                    self.c[(int(k[0]), int(k[1]))] = v

    @classmethod
    def term(cls, e1: int, e2: int, coeff=ONE) -> "Laurent2":
        return cls({(e1, e2): coeff})

    @classmethod
    def zero(cls) -> "Laurent2":
        return cls()

    @classmethod
    def one(cls) -> "Laurent2":
        return cls({(0, 0): ONE})

    def __bool__(self):
        return bool(self.c)

    def __eq__(self, other):
        if is_rational(other):
            other = Laurent2({(0, 0): other})
        return isinstance(other, Laurent2) and self.c == other.c

    def __hash__(self):
        raise TypeError("Laurent2 is unhashable")

    def __add__(self, other):
        s = _coerce_other(other)
        if s is not None:
            other = Laurent2({(0, 0): s})
        out = dict(self.c)
        for k, v in other.c.items():
            w = out.get(k, ZERO) + v
            if w == 0:
                out.pop(k, None)
            else:
                out[k] = w
        res = Laurent2()
        res.c = out
        return res

    __radd__ = __add__

    def __neg__(self):
        res = Laurent2()
        res.c = {k: -v for k, v in self.c.items()}
        return res

    def __sub__(self, other):
        s = _coerce_other(other)
        if s is not None:
            other = Laurent2({(0, 0): s})
        return self + (-other)

    def __rsub__(self, other):
        return (-self) + other

    def __mul__(self, other):
        s = _coerce_other(other)
        if s is not None:
            if s == 0:
                return Laurent2()
            res = Laurent2()
            res.c = {k: v * s for k, v in self.c.items()}
            return res
        out = {}
        for (a1, b1), v1 in self.c.items():
            for (a2, b2), v2 in other.c.items():
                k = (a1 + a2, b1 + b2)
                w = out.get(k, ZERO) + v1 * v2
                if w == 0:
                    out.pop(k, None)
                else:
                    out[k] = w
        res = Laurent2()
        res.c = out
        return res

    __rmul__ = __mul__

    def __pow__(self, n: int):
        if n < 0:
            raise ValueError("negative powers of polynomials are not defined")
        res = Laurent2.one()
        base = self
        while n:
            if n & 1:
                res = res * base
            base = base * base
            n >>= 1
        return res

    def coeff(self, e1: int, e2: int):
        return self.c.get((e1, e2), ZERO)

    def subs_scale(self, f1, f2) -> "Laurent2":
        """Substitute x1 -> f1*x1, x2 -> f2*x2 (nonzero rationals)."""
        f1 = as_rational(f1)
        f2 = as_rational(f2)
        res = Laurent2()
        res.c = {(a, b): v * f1 ** a * f2 ** b for (a, b), v in self.c.items()}
        return res

    def subs_invert_scale(self, cnum) -> "Laurent2":
        """Substitute x_j -> cnum / x_j in both variables."""
        cnum = as_rational(cnum)
        res = Laurent2()
        res.c = {(-a, -b): v * cnum ** (a + b) for (a, b), v in self.c.items()}
        return res

    def shifted(self, d1: int, d2: int) -> "Laurent2":
        """x1^d1 x2^d2 * self: moves every exponent and shares the coefficient objects."""
        res = Laurent2()
        res.c = {(a + d1, b + d2): v for (a, b), v in self.c.items()}
        return res

    def swap(self) -> "Laurent2":
        res = Laurent2()
        res.c = {(b, a): v for (a, b), v in self.c.items()}
        return res

    def is_symmetric(self) -> bool:
        return all(self.c.get((b, a), ZERO) == v for (a, b), v in self.c.items())

    def support(self):
        return sorted(self.c)

    def evaluate(self, z1: complex, z2: complex) -> complex:
        return sum(float(v) * z1 ** a * z2 ** b for (a, b), v in self.c.items())

    def __repr__(self):
        if not self.c:
            return "0"
        parts = [
            f"{rational_str(v)}*x1^{a}*x2^{b}" for (a, b), v in sorted(self.c.items())
        ]
        return " + ".join(parts)


def qshift(p, j: int, s_steps: int, ctx: QContext):
    """Shift variable j of p by a power of s: x_j -> s^s_steps * x_j.

    s_steps = 2 is the plain q-shift T_{q,x_j}; s_steps = 1 shifts by q^(1/2);
    negative counts give inverse shifts.  Exactness is preserved.
    """
    factor = ctx.s ** s_steps
    if isinstance(p, Laurent1):
        return p.subs_scale(factor)
    if j == 0:
        return p.subs_scale(factor, ONE)
    if j == 1:
        return p.subs_scale(ONE, factor)
    raise ValueError("variable index must be 0 or 1")


# ---------------------------------------------------------------------------
# Exact division
# ---------------------------------------------------------------------------

def divide_exact1(num: Laurent1, den: Laurent1) -> Laurent1:
    """Exact quotient num/den in the one-variable Laurent ring."""
    if not den:
        raise ZeroDivisionError("division by the zero polynomial")
    if not num:
        return Laurent1()
    lo = num.min_exp() - den.min_exp()
    hi = num.max_exp() - den.max_exp()
    if hi < lo:
        raise NotDivisible("quotient support is empty")
    dlead = den.max_exp()
    dcoef = den.c[dlead]
    rem = dict(num.c)
    quot = {}
    for _ in range(hi - lo + 2):
        if not rem:
            res = Laurent1()
            res.c = quot
            return res
        k = max(rem)
        e = k - dlead
        if e < lo or e > hi:
            raise NotDivisible("remainder exponent outside quotient range")
        qc = rem[k] / dcoef
        quot[e] = qc
        for dk, dv in den.c.items():
            kk = dk + e
            w = rem.get(kk, ZERO) - qc * dv
            if w == 0:
                rem.pop(kk, None)
            else:
                rem[kk] = w
    if rem:
        raise NotDivisible("nonzero remainder")
    res = Laurent1()
    res.c = quot
    return res


def divide_exact(num: Laurent2, den: Laurent2) -> Laurent2:
    """Exact quotient num/den in the two-variable Laurent ring.

    Repeatedly cancels the lex-leading term; any step that would push the
    quotient outside its a-priori exponent box means the division is inexact.
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
    cap = (hi[0] - lo[0] + 1) * (hi[1] - lo[1] + 1) + 1
    for _ in range(cap):
        if not rem:
            res = Laurent2()
            res.c = quot
            return res
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
    raise NonTerminating("division iteration cap exceeded")


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

