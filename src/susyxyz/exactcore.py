"""Exact arithmetic substrate: big rationals, dense univariate polynomials,
and normalized rational functions.

Every symbolic computation in this package reduces to arithmetic in Q[x] or
Q(x).  Polynomials are dense tuples of ``Fraction`` coefficients in ascending
degree; rational functions are kept fully cancelled with a monic denominator,
so equality of values is equality of representations.

Scalars are ``fractions.Fraction`` (exported as ``ExactRational``): the
stdlib type already guarantees the reduced-form invariants (coprime
numerator/denominator, positive denominator) this package relies on.

The inner loops run on integers: an operand is read as an integer
coefficient list over one common denominator, and four kernels act on such
lists.

- Products use Kronecker substitution: each list is packed into one big
  integer at a digit width above the largest possible product coefficient,
  one bigint multiply forms the whole product, and the signed digits are
  read back.
- Exact division is integer long division by the primitive part of the
  divisor.  By Gauss's lemma the quotient of a divisible pair is integral,
  so an inexact step proves a nonzero remainder.
- The gcd is the heuristic GCD (GCDHEU) of Char, Geddes and Gonnet: the
  integer gcd of the values at a large point, expanded back in that base.
  Exact trial division of both inputs certifies the candidate.
- The primitive pseudo-remainder sequence is the fallback when the
  heuristic finds no certified candidate at any of its evaluation points.

Results are converted back to reduced ``Fraction`` coefficients, so the
canonical form and the JSON wire format do not depend on the kernels.
"""

from __future__ import annotations

from dataclasses import dataclass
from fractions import Fraction
from math import gcd as _int_gcd
from math import isqrt

ExactRational = Fraction

__all__ = [
    "ExactRational",
    "DivisionByZeroPoly",
    "NonzeroRemainder",
    "IdenticallySingular",
    "Poly",
    "RatFunc",
    "variable",
    "poly_divmod",
    "poly_exact_div",
    "poly_gcd",
    "ratfunc_simplify",
    "ratfunc_compose",
    "homogeneous_powers",
    "poly_to_json",
    "poly_from_json",
    "ratfunc_to_json",
    "ratfunc_from_json",
]


class DivisionByZeroPoly(ZeroDivisionError):
    """Division by the zero polynomial."""


class NonzeroRemainder(ArithmeticError):
    """An exact polynomial division left a remainder.

    Raised when a divisibility that the caller's algorithm guarantees (for
    instance every solve step of the tau recursion) fails to hold; callers
    treat it as a hard verification failure, never as a recoverable state.
    """


class IdenticallySingular(ArithmeticError):
    """A composition produced an identically vanishing denominator."""


def _coerce(x) -> Fraction:
    if isinstance(x, Fraction):
        return x
    if isinstance(x, int):
        return Fraction(x)
    if isinstance(x, str):
        return Fraction(x)
    raise TypeError(f"cannot use {type(x).__name__} as an exact coefficient")


@dataclass(frozen=True)
class Poly:
    """Dense univariate polynomial over Q.

    ``coeffs[k]`` is the coefficient of ``var**k``.  The tuple carries no
    trailing zeros; the zero polynomial is the empty tuple.  Instances are
    immutable and hashable, hence safe to share and to memoize.
    """

    coeffs: tuple[Fraction, ...]
    var: str = "z"

    def __post_init__(self):
        cs = [_coerce(c) for c in self.coeffs]
        while cs and cs[-1] == 0:
            cs.pop()
        object.__setattr__(self, "coeffs", tuple(cs))

    # -- inspection ---------------------------------------------------

    @property
    def degree(self) -> int:
        """Degree; the zero polynomial has degree -1."""
        return len(self.coeffs) - 1

    def is_zero(self) -> bool:
        return not self.coeffs

    @property
    def leading(self) -> Fraction:
        if not self.coeffs:
            raise DivisionByZeroPoly("zero polynomial has no leading coefficient")
        return self.coeffs[-1]

    def __bool__(self) -> bool:
        return bool(self.coeffs)

    def __str__(self) -> str:
        if not self.coeffs:
            return "0"
        parts = []
        for k in range(len(self.coeffs) - 1, -1, -1):
            c = self.coeffs[k]
            if c == 0:
                continue
            mono = "" if k == 0 else (self.var if k == 1 else f"{self.var}^{k}")
            if k == 0:
                body = str(abs(c))
            elif abs(c) == 1:
                body = mono
            else:
                body = f"{abs(c)}*{mono}"
            parts.append(("-" if c < 0 else "+", body))
        out = ("-" if parts[0][0] == "-" else "") + parts[0][1]
        for sign, body in parts[1:]:
            out += f" {sign} {body}"
        return out

    # -- construction helpers -----------------------------------------

    @staticmethod
    def constant(c, var: str = "z") -> "Poly":
        return Poly((_coerce(c),), var)

    def _check_var(self, other: "Poly"):
        if self.var != other.var:
            raise ValueError(f"variable mismatch: {self.var!r} vs {other.var!r}")

    # -- ring operations ----------------------------------------------

    def __add__(self, other):
        if isinstance(other, (int, Fraction)):
            other = Poly.constant(other, self.var)
        if not isinstance(other, Poly):
            return NotImplemented
        self._check_var(other)
        a, b = self.coeffs, other.coeffs
        if len(a) < len(b):
            a, b = b, a
        out = list(a)
        for i, c in enumerate(b):
            out[i] += c
        return Poly(tuple(out), self.var)

    __radd__ = __add__

    def __neg__(self):
        return Poly(tuple(-c for c in self.coeffs), self.var)

    def __sub__(self, other):
        if isinstance(other, (int, Fraction)):
            other = Poly.constant(other, self.var)
        if not isinstance(other, Poly):
            return NotImplemented
        return self + (-other)

    def __rsub__(self, other):
        return (-self) + other

    def __mul__(self, other):
        if isinstance(other, (int, Fraction)):
            c = _coerce(other)
            if c == 0:
                return Poly((), self.var)
            return Poly(tuple(c * a for a in self.coeffs), self.var)
        if not isinstance(other, Poly):
            return NotImplemented
        self._check_var(other)
        if not self.coeffs or not other.coeffs:
            return Poly((), self.var)
        a, da = _int_parts(self)
        b, db = _int_parts(other)
        return _poly_from_ints(_kronecker_mul(a, b), 1, da * db, self.var)

    __rmul__ = __mul__

    def __pow__(self, n: int):
        if n < 0:
            raise ValueError("negative polynomial power")
        out = Poly.constant(1, self.var)
        base = self
        while n:
            if n & 1:
                out = out * base
            n >>= 1
            if n:
                base = base * base
        return out

    def derivative(self) -> "Poly":
        return Poly(tuple(k * c for k, c in enumerate(self.coeffs) if k > 0), self.var)

    def monic(self) -> "Poly":
        if not self.coeffs:
            raise DivisionByZeroPoly("cannot normalize the zero polynomial")
        lc = self.coeffs[-1]
        if lc == 1:
            return self
        return Poly(tuple(c / lc for c in self.coeffs), self.var)

    def evaluate(self, x):
        """Horner evaluation; works for any value supporting + and *."""
        acc = None
        for c in reversed(self.coeffs):
            acc = c if acc is None else acc * x + c
        if acc is None:
            return Fraction(0) if isinstance(x, (int, Fraction)) else 0 * x
        return acc


def variable(var: str = "z") -> Poly:
    """The polynomial ``var`` itself."""
    return Poly((Fraction(0), Fraction(1)), var)


def poly_divmod(a: Poly, b: Poly) -> tuple[Poly, Poly]:
    """Quotient and remainder in Q[x], deg(remainder) < deg(b)."""
    a._check_var(b)
    if b.is_zero():
        raise DivisionByZeroPoly("polynomial division by zero")
    if a.degree < b.degree:
        return Poly((), a.var), a
    rem = list(a.coeffs)
    db = b.degree
    lb = b.leading
    q = [Fraction(0)] * (a.degree - db + 1)
    for k in range(a.degree - db, -1, -1):
        c = rem[db + k] / lb
        q[k] = c
        if c != 0:
            for i, bc in enumerate(b.coeffs):
                rem[i + k] -= c * bc
    return Poly(tuple(q), a.var), Poly(tuple(rem[:db]), a.var)


def poly_exact_div(a: Poly, b: Poly) -> Poly:
    """Exact quotient a/b; raises NonzeroRemainder if b does not divide a."""
    a._check_var(b)
    if b.is_zero():
        raise DivisionByZeroPoly("polynomial division by zero")
    if a.is_zero():
        return a
    ai, da = _int_parts(a)
    bi, db = _int_parts(b)
    cb = _int_gcd(*bi)
    q = _int_exact_quotient(ai, [c // cb for c in bi])
    if q is None:
        _, r = poly_divmod(a, b)
        raise NonzeroRemainder(f"({a}) is not divisible by ({b}); remainder {r}")
    # a/b = (ai/da) / ((cb/db) * pp(bi)) = q * db / (da * cb)
    return _poly_from_ints(q, db, da * cb, a.var)


# -- integer kernels -----------------------------------------------------
#
# A polynomial over Q enters the kernels as (ints, den) with p == ints/den,
# den the lcm of the coefficient denominators.  Integer arithmetic skips the
# gcd that every Fraction operation spends on normalizing its result; a
# Fraction is formed once per result coefficient.

def _int_parts(p: Poly) -> tuple[list[int], int]:
    """Integer coefficients over their common denominator: p == ints/den."""
    den = 1
    for c in p.coeffs:
        if den % c.denominator:
            den = den // _int_gcd(den, c.denominator) * c.denominator
    if den == 1:
        return [c.numerator for c in p.coeffs], 1
    return [c.numerator * (den // c.denominator) for c in p.coeffs], den


_ZERO = Fraction(0)


def _poly_from_ints(ints: list[int], num: int, den: int, var: str) -> Poly:
    """The polynomial with coefficients ints[k] * num / den; zero
    coefficients share one Fraction (polynomials in zeta^2 are half zeros)."""
    if den == 1:
        return Poly(tuple(Fraction(c * num) if c else _ZERO for c in ints), var)
    return Poly(tuple(Fraction(c * num, den) if c else _ZERO for c in ints), var)


def _kronecker_offset(count: int, width: int) -> int:
    """Sum of 2**(8*width-1) * 2**(8*width*k) over k < count: the bias
    that makes every signed digit of that width non-negative."""
    return int.from_bytes((bytes(width - 1) + b"\x80") * count, "little")


def _kronecker_mul(a: list[int], b: list[int]) -> list[int]:
    """Product of two nonzero integer coefficient lists.

    Both lists are packed into one integer at a digit width of ``width``
    bytes; every product coefficient is bounded by max|a| * max|b| *
    min(len), which stays below half a digit, so the digits of the integer
    product are the coefficients in signed form.
    """
    bound = max(map(abs, a)) * max(map(abs, b)) * min(len(a), len(b))
    width = (bound.bit_length() + 8) // 8  # 2**(8*width-1) > bound
    half = 1 << (8 * width - 1)

    def pack(ints: list[int]) -> int:
        raw = b"".join((c + half).to_bytes(width, "little") for c in ints)
        return int.from_bytes(raw, "little") - _kronecker_offset(len(ints), width)

    n = len(a) + len(b) - 1
    raw = (pack(a) * pack(b) + _kronecker_offset(n, width)).to_bytes(n * width, "little")
    return [
        int.from_bytes(raw[i : i + width], "little") - half
        for i in range(0, n * width, width)
    ]


def _int_exact_quotient(a: list[int], b: list[int]) -> list[int] | None:
    """Quotient a/b of nonzero integer lists, b primitive; None when b does
    not divide a.

    With b primitive, b | a in Q[x] implies the quotient lies in Z[x]
    (Gauss's lemma), so a step whose leading division by lead(b) is not
    exact, or a nonzero low remainder, proves that b does not divide a.
    """
    db = len(b) - 1
    if len(a) <= db:
        return None
    lb = b[-1]
    r = list(a)
    q = [0] * (len(a) - db)
    for k in range(len(q) - 1, -1, -1):
        c, rem = divmod(r[k + db], lb)
        if rem:
            return None
        if c:
            q[k] = c
            r[k : k + db] = [x - c * y for x, y in zip(r[k : k + db], b)]
    if any(r[:db]):
        return None
    return q


def _int_primitive(ints: list[int]) -> list[int]:
    """A nonzero integer list divided by its content, leading coefficient
    made positive."""
    g = _int_gcd(*ints)
    return [c // g for c in ints] if ints[-1] > 0 else [c // -g for c in ints]


# Heuristic gcd.  For primitive A, B in Z[x] and an integer
# xi >= 2 * min(|A|_inf, |B|_inf) + 2, let h be the polynomial whose
# coefficients are the symmetric xi-adic digits of gcd(A(xi), B(xi)).  If
# pp(h) divides both A and B, then pp(h) is gcd(A, B) (Char, Geddes and
# Gonnet, 1989).  A spurious integer factor of the values only makes the
# trial division fail, and then a larger xi is tried.

_HEU_GCD_POINTS = 6


def _int_eval(ints: list[int], x: int) -> int:
    acc = 0
    for c in reversed(ints):
        acc = acc * x + c
    return acc


def _symmetric_digits(h: int, xi: int) -> list[int]:
    """Digits of h in base xi, each in (-xi/2, xi/2], lowest first."""
    digits = []
    while h:
        d = h % xi
        if d > xi // 2:
            d -= xi
        digits.append(d)
        h = (h - d) // xi
    return digits


def _heuristic_gcd(a: list[int], b: list[int]):
    """(gcd, a/gcd, b/gcd) of primitive integer lists, or None when no
    evaluation point yields a candidate that divides both."""
    xi = 2 * min(max(map(abs, a)), max(map(abs, b))) + 2
    for _ in range(_HEU_GCD_POINTS):
        va, vb = _int_eval(a, xi), _int_eval(b, xi)
        if va and vb:
            g = _int_primitive(_symmetric_digits(_int_gcd(va, vb), xi))
            qa = _int_exact_quotient(a, g)
            if qa is not None:
                qb = _int_exact_quotient(b, g)
                if qb is not None:
                    return g, qa, qb
        xi = xi * 73794 * isqrt(isqrt(xi)) // 27011
    return None


# Fallback: the primitive pseudo-remainder sequence over Z.  Stripping the
# integer content at every step keeps the intermediate coefficients near
# the subresultant bound.

def _int_prem(a: list[int], b: list[int]) -> list[int]:
    """Pseudo-remainder of integer coefficient lists, up to an associate."""
    db = len(b) - 1
    lb = b[-1]
    r = list(a)
    while len(r) - 1 >= db:
        lr = r[-1]
        k = len(r) - 1 - db
        r = [lb * c for c in r[:-1]]
        for j in range(db):
            r[j + k] -= lr * b[j]
        while r and r[-1] == 0:
            r.pop()
        if not r:
            break
    return r


def _prs_gcd(a: list[int], b: list[int]) -> list[int]:
    """gcd of primitive integer lists, up to sign."""
    if len(a) < len(b):
        a, b = b, a
    while True:
        r = _int_prem(a, b)
        if not r:
            return b
        a, b = b, _int_primitive(r)


def _int_gcd_cofactors(a: list[int], b: list[int]):
    """(gcd, a/gcd, b/gcd) of nonzero primitive integer lists."""
    # The power of x is split off first: x**k evaluates to xi**k, whose
    # gcd with the other value collects every power of a prime of xi that
    # divides it, and such spurious factors can defeat every point.
    ka = next(i for i, c in enumerate(a) if c)
    kb = next(i for i, c in enumerate(b) if c)
    k = min(ka, kb)
    a, b = a[ka:], b[kb:]
    if len(a) == 1 or len(b) == 1:
        g, qa, qb = [1], a, b
    else:
        found = _heuristic_gcd(a, b)
        if found is None:
            g = _prs_gcd(a, b)
            found = g, _int_exact_quotient(a, g), _int_exact_quotient(b, g)
        g, qa, qb = found
    return [0] * k + g, [0] * (ka - k) + qa, [0] * (kb - k) + qb


def poly_gcd(a: Poly, b: Poly) -> Poly:
    """Monic gcd of a and b."""
    a._check_var(b)
    if a.is_zero():
        return b.monic() if not b.is_zero() else b
    if b.is_zero():
        return a.monic()
    g, _, _ = _int_gcd_cofactors(
        _int_primitive(_int_parts(a)[0]), _int_primitive(_int_parts(b)[0])
    )
    return _poly_from_ints(g, 1, g[-1], a.var)


@dataclass(frozen=True)
class RatFunc:
    """Rational function num/den over Q, fully cancelled, den monic.

    Construct through :func:`ratfunc_simplify` (or the arithmetic
    operators); the raw constructor trusts its inputs.
    """

    num: Poly
    den: Poly

    @property
    def var(self) -> str:
        return self.num.var

    def is_zero(self) -> bool:
        return self.num.is_zero()

    def __str__(self) -> str:
        if self.den.degree == 0 and self.den.coeffs[0] == 1:
            return str(self.num)
        return f"({self.num})/({self.den})"

    @staticmethod
    def from_poly(p: Poly) -> "RatFunc":
        return RatFunc(p, Poly.constant(1, p.var))

    @staticmethod
    def constant(c, var: str) -> "RatFunc":
        return RatFunc(Poly.constant(c, var), Poly.constant(1, var))

    def _lift(self, other) -> "RatFunc":
        if isinstance(other, RatFunc):
            return other
        if isinstance(other, Poly):
            return RatFunc.from_poly(other)
        if isinstance(other, (int, Fraction)):
            return RatFunc.constant(other, self.var)
        return NotImplemented

    def __add__(self, other):
        o = self._lift(other)
        if o is NotImplemented:
            return o
        return ratfunc_simplify(self.num * o.den + o.num * self.den, self.den * o.den)

    __radd__ = __add__

    def __neg__(self):
        return RatFunc(-self.num, self.den)

    def __sub__(self, other):
        o = self._lift(other)
        if o is NotImplemented:
            return o
        return self + (-o)

    def __rsub__(self, other):
        return (-self) + other

    def __mul__(self, other):
        o = self._lift(other)
        if o is NotImplemented:
            return o
        return ratfunc_simplify(self.num * o.num, self.den * o.den)

    __rmul__ = __mul__

    def __truediv__(self, other):
        o = self._lift(other)
        if o is NotImplemented:
            return o
        if o.num.is_zero():
            raise DivisionByZeroPoly("division by the zero rational function")
        return ratfunc_simplify(self.num * o.den, self.den * o.num)

    def __rtruediv__(self, other):
        o = self._lift(other)
        return o / self

    def __pow__(self, n: int):
        if n < 0:
            return RatFunc.constant(1, self.var) / self ** (-n)
        out = RatFunc.constant(1, self.var)
        base = self
        while n:
            if n & 1:
                out = out * base
            n >>= 1
            if n:
                base = base * base
        return out

    def derivative(self) -> "RatFunc":
        return ratfunc_simplify(
            self.num.derivative() * self.den - self.num * self.den.derivative(),
            self.den * self.den,
        )

    def evaluate(self, x):
        """Value at x (Fraction, float or complex); ZeroDivisionError at a pole."""
        d = self.den.evaluate(x)
        if d == 0:
            raise ZeroDivisionError(f"pole of rational function at {x}")
        return self.num.evaluate(x) / d


def ratfunc_simplify(num: Poly, den: Poly) -> RatFunc:
    """Cancel gcd(num, den) and scale the denominator monic."""
    num._check_var(den)
    if den.is_zero():
        raise DivisionByZeroPoly("rational function with zero denominator")
    if num.is_zero():
        return RatFunc(Poly((), num.var), Poly.constant(1, num.var))
    ni, dn = _int_parts(num)
    di, dd = _int_parts(den)
    cn, cd = _int_gcd(*ni), _int_gcd(*di)
    g, nq, dq = _int_gcd_cofactors([c // cn for c in ni], [c // cd for c in di])
    if len(g) == 1 and den.leading == 1:
        return RatFunc(num, den)
    # num/den = (cn/dn) nq / ((cd/dd) dq), scaled so that dq becomes monic
    lc = dq[-1]
    return RatFunc(
        _poly_from_ints(nq, cn * dd, dn * cd * lc, num.var),
        _poly_from_ints(dq, 1, lc, num.var),
    )


def homogeneous_powers(num: Poly, den: Poly, d: int) -> list[Poly]:
    """num^k * den^(d-k) for k = 0..d.

    Substituting x = num/den into sum_k c_k x^k, k <= d, and clearing the
    denominator den^d gives sum_k c_k times these polynomials.
    """
    pw_n = [Poly.constant(1, num.var)]
    pw_d = [Poly.constant(1, num.var)]
    for _ in range(d):
        pw_n.append(pw_n[-1] * num)
        pw_d.append(pw_d[-1] * den)
    return [pw_n[k] * pw_d[d - k] for k in range(d + 1)]


def ratfunc_compose(f: RatFunc, g: RatFunc) -> RatFunc:
    """Composition f(g(y)) as a fully simplified rational function of y.

    f lives in some variable x, g in a variable y; the result is in y.
    Raises IdenticallySingular when the denominator of f vanishes
    identically on the image of g.
    """
    basis = homogeneous_powers(g.num, g.den, max(f.num.degree, f.den.degree, 0))

    def clear(p: Poly) -> Poly:
        # p(g) * g.den^dmax as a polynomial in y
        out = Poly((), g.var)
        for k, c in enumerate(p.coeffs):
            if c != 0:
                out = out + c * basis[k]
        return out

    an = clear(f.num)
    ad = clear(f.den)
    if ad.is_zero():
        raise IdenticallySingular(
            "denominator of the outer function vanishes identically on the image"
        )
    return ratfunc_simplify(an, ad)


# -- JSON wire format ---------------------------------------------------
#
# Coefficients as exact fraction strings ("3/4"), ascending degree.

def poly_to_json(p: Poly) -> dict:
    return {"variable": p.var, "coefficients": [str(c) for c in p.coeffs]}


def poly_from_json(obj: dict) -> Poly:
    return Poly(tuple(Fraction(s) for s in obj["coefficients"]), obj["variable"])


def ratfunc_to_json(f: RatFunc) -> dict:
    return {
        "variable": f.var,
        "num": [str(c) for c in f.num.coeffs],
        "den": [str(c) for c in f.den.coeffs],
    }


def ratfunc_from_json(obj: dict) -> RatFunc:
    var = obj["variable"]
    num = Poly(tuple(Fraction(s) for s in obj["num"]), var)
    den = Poly(tuple(Fraction(s) for s in obj["den"]), var)
    return ratfunc_simplify(num, den)
