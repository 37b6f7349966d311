"""Exact arithmetic substrate: big rationals, dense univariate polynomials,
and normalized rational functions.

Every symbolic computation in this package reduces to arithmetic in Q[x] or
Q(x).  Rational functions are kept fully cancelled with a monic denominator,
so equality of values is equality of representations.

Scalars are ``fractions.Fraction`` (exported as ``ExactRational``): the
stdlib type already guarantees the reduced-form invariants (coprime
numerator/denominator, positive denominator) this package relies on.

A polynomial is held in integer form: ``ints``, its integer coefficients in
ascending degree without trailing zeros, over one denominator ``den >= 1``
with gcd(den, *ints) == 1; the zero polynomial is ``((), 1)``.  The form is
canonical, so equality and hashing of (ints, den, var) are equality of
polynomials.  Every operation computes on integers and normalises its
result once, with one gcd; no ``Fraction`` is formed per coefficient.
``Poly.coeffs``, the reduced ``Fraction`` coefficients that printing, the
JSON wire format and callers read, is built on first access and kept.
Evaluation at an ``int`` or ``Fraction`` runs on the integers; at any other
point it is Horner over ``coeffs``.

One packing kernel serves the product and the gcd.  A coefficient list
packed at a width of w bytes is one big integer, its value at
xi = 2**(8w); a big integer unpacked at that width gives back its signed
base-xi digits.  Four kernels act on integer lists:

- Products use Kronecker substitution: both lists are packed at a width
  above the largest possible product coefficient, one bigint multiply forms
  the whole product, and the unpack reads its coefficients.
- Exact division is integer long division by the primitive part of the
  divisor.  By Gauss's lemma the quotient of a divisible pair is integral,
  so an inexact step proves a nonzero remainder.
- The gcd is the heuristic GCD (GCDHEU) of Char, Geddes and Gonnet: the
  integer gcd of the values at xi, expanded back in base xi.  The values
  are packs and the expansion is an unpack.  Exact trial division of both
  inputs certifies the candidate.
- The primitive pseudo-remainder sequence is the fallback when the
  heuristic finds no certified candidate at any of its evaluation points.
"""

from __future__ import annotations

from dataclasses import dataclass
from fractions import Fraction
from math import gcd as _int_gcd
from math import lcm

ExactRational = Fraction

__all__ = [
    "ExactRational",
    "DivisionByZeroPoly",
    "NonzeroRemainder",
    "IdenticallySingular",
    "Poly",
    "RatFunc",
    "variable",
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


_ZERO = Fraction(0)
_set = object.__setattr__


class Poly:
    """Dense univariate polynomial over Q.

    The value is sum_k ints[k] / den * var**k, in the canonical integer form
    of the module docstring.  ``Poly(coeffs, var)`` takes ``Fraction``,
    ``int`` or ``str`` coefficients in ascending degree; ``coeffs[k]`` is
    the reduced ``Fraction`` coefficient of ``var**k``, with no trailing
    zeros (the zero polynomial has the empty tuple).  Instances are
    immutable and hashable, hence safe to share and to memoize.
    """

    __slots__ = ("ints", "den", "var", "_coeffs")

    def __init__(self, coeffs, var: str = "z"):
        cs = [_coerce(c) for c in coeffs]
        while cs and not cs[-1]:
            cs.pop()
        # over the lcm of reduced denominators the integers share no factor
        # with it, so the form is canonical as built
        den = lcm(*(c.denominator for c in cs))
        _init(self, tuple(c.numerator * (den // c.denominator) for c in cs), den, var,
              tuple(cs))

    @staticmethod
    def from_ints(ints, den: int = 1, var: str = "z") -> "Poly":
        """The polynomial sum_k ints[k] / den * var**k, for den >= 1."""
        return _canon(list(ints), den, var)

    def __setattr__(self, name, value):
        raise AttributeError(f"cannot assign to field {name!r}")

    def __delattr__(self, name):
        raise AttributeError(f"cannot delete field {name!r}")

    def __eq__(self, other):
        if other.__class__ is not Poly:
            return NotImplemented
        return self.ints == other.ints and self.den == other.den and self.var == other.var

    def __hash__(self):
        return hash((self.ints, self.den, self.var))

    def __repr__(self) -> str:
        return f"Poly(coeffs={self.coeffs!r}, var={self.var!r})"

    # -- inspection ---------------------------------------------------

    @property
    def coeffs(self) -> tuple[Fraction, ...]:
        cs = self._coeffs
        if cs is None:
            d = self.den
            cs = tuple(Fraction(c, d) if c else _ZERO for c in self.ints)
            _set(self, "_coeffs", cs)
        return cs

    @property
    def degree(self) -> int:
        """Degree; the zero polynomial has degree -1."""
        return len(self.ints) - 1

    def is_zero(self) -> bool:
        return not self.ints

    @property
    def leading(self) -> Fraction:
        if not self.ints:
            raise DivisionByZeroPoly("zero polynomial has no leading coefficient")
        return Fraction(self.ints[-1], self.den)

    def __bool__(self) -> bool:
        return bool(self.ints)

    def __str__(self) -> str:
        if not self.ints:
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
        c = _coerce(c)
        return _new((c.numerator,), c.denominator, var) if c else _new((), 1, var)

    def _check_var(self, other: "Poly"):
        if self.var != other.var:
            raise ValueError(f"variable mismatch: {self.var!r} vs {other.var!r}")

    # -- ring operations ----------------------------------------------

    def _combine(self, other, sign: int):
        """self + sign * other."""
        if isinstance(other, (int, Fraction)):
            other = Poly.constant(other, self.var)
        if not isinstance(other, Poly):
            return NotImplemented
        self._check_var(other)
        a, da, b, db = self.ints, self.den, other.ints, other.den
        if da == db:
            den = da
        else:
            g = _int_gcd(da, db)
            sa, sb = db // g, da // g
            den = da * sa
            a = [c * sa for c in a] if sa != 1 else a
            b = [c * sb for c in b] if sb != 1 else b
        if sign < 0:
            b = [-c for c in b]
        if len(a) < len(b):
            a, b = b, a
        out = [x + y for x, y in zip(a, b)]
        out += a[len(b):]
        return _canon(out, den, self.var)

    def __add__(self, other):
        return self._combine(other, 1)

    __radd__ = __add__

    def __neg__(self):
        return _new(tuple(-c for c in self.ints), self.den, self.var)

    def __sub__(self, other):
        return self._combine(other, -1)

    def __rsub__(self, other):
        return (-self) + other

    def __mul__(self, other):
        if isinstance(other, (int, Fraction)):
            if not other or not self.ints:
                return _new((), 1, self.var)
            return _scaled(self.ints, other.numerator, self.den * other.denominator, self.var)
        if not isinstance(other, Poly):
            return NotImplemented
        self._check_var(other)
        if not self.ints or not other.ints:
            return _new((), 1, self.var)
        return _canon(_kronecker_mul(self.ints, other.ints), self.den * other.den, self.var)

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
        ints = self.ints
        return _canon([k * ints[k] for k in range(1, len(ints))], self.den, self.var)

    def monic(self) -> "Poly":
        if not self.ints:
            raise DivisionByZeroPoly("cannot normalize the zero polynomial")
        if self.ints[-1] == self.den:
            return self
        return _scaled(self.ints, 1, self.ints[-1], self.var)

    def evaluate(self, x):
        """Horner evaluation; works for any value supporting + and *.

        At an ``int`` or ``Fraction`` x = p/q the sum runs on integers,
        sum_k ints[k] p^k q^(d-k), and one ``Fraction`` is formed at the
        end.  Any other x runs Horner over the ``Fraction`` coefficients.
        """
        if isinstance(x, (int, Fraction)):
            ints = self.ints
            if not ints:
                return Fraction(0)
            p, q = x.numerator, x.denominator
            acc = ints[-1]
            qk = 1
            for c in reversed(ints[:-1]):
                qk *= q
                acc = acc * p + c * qk
            return Fraction(acc, self.den * qk)
        acc = None
        for c in reversed(self.coeffs):
            acc = c if acc is None else acc * x + c
        if acc is None:
            return 0 * x
        return acc


def _init(p: Poly, ints: tuple, den: int, var: str, coeffs=None):
    _set(p, "ints", ints)
    _set(p, "den", den)
    _set(p, "var", var)
    _set(p, "_coeffs", coeffs)


def _new(ints: tuple, den: int, var: str) -> Poly:
    """A Poly from an integer form that is already canonical."""
    p = object.__new__(Poly)
    _init(p, ints, den, var)
    return p


def _canon(ints: list[int], den: int, var: str) -> Poly:
    """The polynomial sum_k ints[k] / den * var**k, den >= 1, normalised."""
    while ints and not ints[-1]:
        ints.pop()
    if not ints:
        return _new((), 1, var)
    if den != 1:
        g = _int_gcd(den, *ints)
        if g != 1:
            ints = [c // g for c in ints]
            den //= g
    return _new(tuple(ints), den, var)


def _scaled(ints, num: int, den: int, var: str) -> Poly:
    """The polynomial ints * num / den, normalised; ints has a nonzero last
    entry, num and den are nonzero."""
    if den < 0:
        num, den = -num, -den
    g = _int_gcd(num, den)
    if g != 1:
        num //= g
        den //= g
    if den != 1:
        g = _int_gcd(den, *ints)
        if g != 1:
            ints = [c // g for c in ints]
            den //= g
    if num != 1:
        ints = [c * num for c in ints]
    return _new(tuple(ints), den, var)


def variable(var: str = "z") -> Poly:
    """The polynomial ``var`` itself."""
    return _new((0, 1), 1, var)


def poly_exact_div(a: Poly, b: Poly) -> Poly:
    """Exact quotient a/b; raises NonzeroRemainder if b does not divide a."""
    a._check_var(b)
    if b.is_zero():
        raise DivisionByZeroPoly("polynomial division by zero")
    if a.is_zero():
        return a
    cb = _int_gcd(*b.ints)
    q = _int_exact_quotient(a.ints, [c // cb for c in b.ints])
    if q is None:
        raise NonzeroRemainder(f"({a}) is not divisible by ({b})")
    # a/b = (a.ints/a.den) / ((cb/b.den) * pp(b.ints)) = q * b.den / (a.den * cb)
    return _scaled(q, b.den, a.den * cb, a.var)


# -- integer kernels -----------------------------------------------------
#
# The packing kernel.  At a width of w bytes, a list whose entries lie in
# [-2**(8w-1), 2**(8w-1)) is the big integer sum_k c_k xi**k, xi = 2**(8w):
# biasing every entry by 2**(8w-1) makes it one unsigned byte string, and
# subtracting the bias of all digits at once restores the signed sum.

def _kronecker_offset(count: int, width: int) -> int:
    """Sum of 2**(8*width-1) * 2**(8*width*k) over k < count: the bias
    that makes every signed digit of that width non-negative."""
    return int.from_bytes((bytes(width - 1) + b"\x80") * count, "little")


def _pack(ints, width: int) -> int:
    """The value at xi = 2**(8*width) of a list whose entries are below
    2**(8*width-1) in absolute value."""
    half = 1 << (8 * width - 1)
    raw = b"".join((c + half).to_bytes(width, "little") for c in ints)
    return int.from_bytes(raw, "little") - _kronecker_offset(len(ints), width)


def _unpack(v: int, width: int) -> list[int]:
    """The base-2**(8*width) digits of v, each in [-2**(8*width-1),
    2**(8*width-1)), lowest first, without trailing zeros."""
    # |v| < xi**n / 4 keeps v + offset inside n unsigned digits
    n = (abs(v).bit_length() + 8 * width + 1) // (8 * width)
    half = 1 << (8 * width - 1)
    raw = (v + _kronecker_offset(n, width)).to_bytes(n * width, "little")
    digits = [
        int.from_bytes(raw[i : i + width], "little") - half
        for i in range(0, n * width, width)
    ]
    while digits and not digits[-1]:
        digits.pop()
    return digits


def _kronecker_mul(a, b) -> list[int]:
    """Product of two nonzero integer coefficient lists.

    Every product coefficient is bounded by max|a| * max|b| * min(len),
    which the width keeps below half a digit, so the digits of the packed
    product are the coefficients.
    """
    bound = max(map(abs, a)) * max(map(abs, b)) * min(len(a), len(b))
    width = bound.bit_length() // 8 + 1  # 2**(8*width-1) > bound
    return _unpack(_pack(a, width) * _pack(b, width), width)


def _int_exact_quotient(a, b) -> list[int] | None:
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


def _int_primitive(ints) -> list[int]:
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
#
# Here xi = 2**(8w): A(xi) is the pack of A and the digits are the unpack
# of the integer gcd.  Packing needs 2**(8w-1) above the larger max-norm,
# which also gives xi >= 2 * (larger norm) + 2 >= 2 * (smaller norm) + 2.

_HEU_GCD_POINTS = 6


def _heuristic_gcd(a: list[int], b: list[int]):
    """(gcd, a/gcd, b/gcd) of primitive integer lists, or None when no
    evaluation point yields a candidate that divides both."""
    width = max(max(map(abs, a)), max(map(abs, b))).bit_length() // 8 + 1
    for _ in range(_HEU_GCD_POINTS):
        # both values are nonzero: xi exceeds the Cauchy bound of the roots
        h = _int_gcd(_pack(a, width), _pack(b, width))
        g = _int_primitive(_unpack(h, width))
        if len(g) == 1:  # a constant candidate divides both: the gcd is 1
            return g, a, b
        qa = _int_exact_quotient(a, g)
        if qa is not None:
            qb = _int_exact_quotient(b, g)
            if qb is not None:
                return g, qa, qb
        width += width // 4 + 1
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
    g, _, _ = _int_gcd_cofactors(_int_primitive(a.ints), _int_primitive(b.ints))
    return _scaled(g, 1, g[-1], a.var)


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
        if self.den.ints == (1,) and self.den.den == 1:
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
        if o is NotImplemented:
            return o
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
        return RatFunc(num, _new((1,), 1, num.var))
    cn, cd = _int_gcd(*num.ints), _int_gcd(*den.ints)
    g, nq, dq = _int_gcd_cofactors(
        [c // cn for c in num.ints], [c // cd for c in den.ints]
    )
    if len(g) == 1 and den.ints[-1] == den.den:
        return RatFunc(num, den)
    # num/den = (cn/num.den) nq / ((cd/den.den) dq), scaled so that dq becomes monic
    lc = dq[-1]
    return RatFunc(
        _scaled(nq, cn * den.den, num.den * cd * lc, num.var),
        _scaled(dq, 1, lc, num.var),
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
        # p(g) * g.den^dmax as a polynomial in y, over the lcm of the
        # denominators of the basis entries it uses
        den = lcm(*(basis[k].den for k, c in enumerate(p.ints) if c))
        out = [0] * max(len(b.ints) for b in basis)
        for k, c in enumerate(p.ints):
            if c:
                b = basis[k].ints
                m = c * (den // basis[k].den)
                out[: len(b)] = [x + m * y for x, y in zip(out, b)]
        return Poly.from_ints(out, den * p.den, g.var)

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
