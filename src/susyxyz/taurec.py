"""Tau-function polynomial families s_n(z) and sbar_n(z).

Both families obey the same Toda-type bilinear recursion

    8(2n+1)^2 s_{n+1} s_{n-1}
        + 2 z(z-1)(9z-1)^2 (s_n'' s_n - s_n'^2)
        + 2 (3z-1)^2 (9z-1) s_n s_n'
        - (4(3n+1)(3n+2) + c(n)(9z-1)) s_n^2  =  0,

with c(n) = n(5n+3) for the plain family (seeds s_0 = s_1 = 1) and
c(n) = (n-1)(5n+4) for the barred family (seeds sbar_0 = 1, sbar_1 = 3).
The recursion holds for every integer n, so entries at negative index are
obtained by solving the same relation for the lower index.  That each solve
is an exact polynomial division is itself part of what this module
verifies: a nonzero remainder anywhere is a fatal failure.

Every term besides the first is quadratic in s_n and its derivatives, so on
the integer form s_n = S/D the recursion's right-hand side is an integer
polynomial expression in S, S', S'' over D^2.  Each solve step evaluates it
as one packed evaluation (`poly_expression`), and each recursion residual
is one more, over all three integer forms; a zero residual is never
unpacked.
"""

from __future__ import annotations

from fractions import Fraction

from .exactcore import Poly, poly_exact_div, poly_expression

__all__ = [
    "TauTable",
    "default_table",
]

_ONE = Poly((Fraction(1),), "z")
_Z = Poly((Fraction(0), Fraction(1)), "z")
_A = 2 * _Z * (_Z - 1) * (9 * _Z - 1) ** 2       # multiplies s''s - s'^2
_B = 2 * (3 * _Z - 1) ** 2 * (9 * _Z - 1)        # multiplies s s'


def _coef(n: int, barred: bool) -> Poly:
    c = (n - 1) * (5 * n + 4) if barred else n * (5 * n + 3)
    return Poly.constant(4 * (3 * n + 1) * (3 * n + 2) - c, "z") + c * 9 * _Z


def _p(s, d1, d2, c, a, b):
    """c s^2 - a (s'' s - s'^2) - b s s', quadratic in s and its derivatives."""
    return s * (c * s - b * d1) - a * (d2 * s - d1 * d1)


def _middle(sn: Poly, n: int, barred: bool) -> tuple:
    """The operands of `_p` at s_n = S/D: S, S', S'' and the coefficients."""
    d1 = Poly.from_ints(sn.ints, 1, sn.var).derivative()
    return sn, d1, d1.derivative(), _coef(n, barred), _A, _B


def _solve_product(sn: Poly, n: int, barred: bool) -> Poly:
    """8(2n+1)^2 s_{n+1} s_{n-1} = _p(S)/D^2, from the middle entry s_n = S/D."""
    return poly_expression(_p, *_middle(sn, n, barred), den=sn.den**2)


class TauTable:
    """Memoized map n -> (s_n, sbar_n), populated contiguously outward from 0.

    Construction is single-writer; once a range is populated, reads are
    pure lookups and safe to share.
    """

    def __init__(self):
        self._s = {0: _ONE, 1: _ONE}
        self._sbar = {0: _ONE, 1: Poly.constant(3, "z")}
        self._lo = 0
        self._hi = 1

    def ensure(self, n: int):
        while self._hi < n:
            m = self._hi  # solve at index m for m+1
            for store, barred in ((self._s, False), (self._sbar, True)):
                num = _solve_product(store[m], m, barred)
                store[m + 1] = poly_exact_div(num, 8 * (2 * m + 1) ** 2 * store[m - 1])
            self._hi += 1
        while self._lo > n:
            m = self._lo  # solve at index m for m-1
            for store, barred in ((self._s, False), (self._sbar, True)):
                num = _solve_product(store[m], m, barred)
                store[m - 1] = poly_exact_div(num, 8 * (2 * m + 1) ** 2 * store[m + 1])
            self._lo -= 1

    def s(self, n: int) -> Poly:
        self.ensure(n)
        return self._s[n]

    def sbar(self, n: int) -> Poly:
        self.ensure(n)
        return self._sbar[n]

    def recursion_residual(self, n: int, barred: bool = False) -> Poly:
        """Substitute the stored triple (n-1, n, n+1) into the recursion, as
        one packed evaluation over the integer forms s_k = S_k/D_k."""
        store = self._sbar if barred else self._s
        self.ensure(n - 1)
        self.ensure(n + 1)
        hi, mid, lo = store[n + 1], store[n], store[n - 1]
        k, e = 8 * (2 * n + 1) ** 2 * mid.den**2, hi.den * lo.den
        return poly_expression(
            lambda u, v, *m: k * u * v - e * _p(*m),
            hi, lo, *_middle(mid, n, barred), den=e * mid.den**2,
        )

    def xxz_check(self, n_max: int) -> dict:
        """Exact check of sbar_n(1/9) = 3^n s_n(1/9) on [-n_max-1, n_max+1],
        together with the table invariant s_n(1/9) != 0."""
        z0 = Fraction(1, 9)
        rows = []
        ok = True
        for n in range(-n_max - 1, n_max + 2):
            sval = self.s(n).evaluate(z0)
            lhs = self.sbar(n).evaluate(z0)
            rhs = Fraction(3) ** n * sval
            good = lhs == rhs and sval != 0
            ok = ok and good
            rows.append({"n": n, "lhs": str(lhs), "rhs": str(rhs), "ok": good})
        return {"ok": ok, "checks": rows}

    def zero_structure_check(self, n_max: int) -> dict:
        """s_n(0) != 0 for all n; sbar_n(0) != 0 for n >= 0; and for n > 0
        sbar_{-n-1} is divisible by z^n."""
        self.ensure(-n_max - 1)
        self.ensure(n_max + 1)
        rows = []
        ok = True
        for n in range(self._lo, self._hi + 1):
            checks = {"s_nonzero_at_0": self._s[n].evaluate(Fraction(0)) != 0}
            if n >= 0:
                checks["sbar_nonzero_at_0"] = self._sbar[n].evaluate(Fraction(0)) != 0
            if n <= -2:
                k = -n - 1  # sbar_n must be divisible by z^k
                checks["sbar_z_power_divisible"] = all(
                    c == 0 for c in self._sbar[n].coeffs[:k]
                )
            good = all(checks.values())
            ok = ok and good
            rows.append({"n": n, **checks})
        return {"ok": ok, "checks": rows}

    def check(self, n_max: int) -> dict:
        """The recursion residuals on [-n_max, n_max], the XXZ specialization
        and the zero structure, as one report."""
        if n_max < 0:
            raise ValueError(f"n_max must be >= 0, got {n_max}")
        self.ensure(-n_max - 1)
        self.ensure(n_max + 1)
        residuals_ok = all(
            self.recursion_residual(n, barred).is_zero()
            for n in range(-n_max, n_max + 1)
            for barred in (False, True)
        )
        xxz = self.xxz_check(n_max)
        zeros = self.zero_structure_check(n_max)
        return {
            "recursion_residuals_zero": residuals_ok,
            "xxz_specialization": xxz,
            "zero_structure": zeros,
            "ok": residuals_ok and xxz["ok"] and zeros["ok"],
        }

    def dump(self, n_min: int, n_max: int) -> list[dict]:
        from .exactcore import poly_to_json

        self.ensure(n_min)
        self.ensure(n_max)
        return [
            {"n": n, "s": poly_to_json(self._s[n]), "sbar": poly_to_json(self._sbar[n])}
            for n in range(n_min, n_max + 1)
        ]


_DEFAULT = TauTable()


def default_table() -> TauTable:
    return _DEFAULT
