"""Correlation quantity f_n, the correlation triple, and the infinite-lattice
limit, assembled exactly from the tau table.

f_n is built in the zeta variable from

    f_n = (zeta^2+3)(zeta^2-3)/(zeta^2-1)^2
          - 2 zeta^2 (zeta^2+3) / ((2n+1)^2 (zeta^2-1)^2)
            * sbar_n(1/zeta^2) sbar_{-n-1}(1/zeta^2)
              / (s_n(1/zeta^2) s_{-n-1}(1/zeta^2)),

and reduced to a rational function of the symmetric invariant
Z = zeta^2 (zeta^2-9)^2 / (zeta^2-1)^2 by one exact triangular solve with
a final structural verification, so the solve cannot affect correctness.
"""

from __future__ import annotations

import functools
from dataclasses import dataclass
from fractions import Fraction

from .exactcore import (
    Poly,
    RatFunc,
    homogeneous_powers,
    ratfunc_compose,
    ratfunc_simplify,
    ratfunc_to_json,
    variable,
)
from .taurec import default_table

__all__ = [
    "PoleEncountered",
    "ReconstructionFailed",
    "CorrelationTriple",
    "FnRational",
    "Z_OF_ZETA",
    "GAMMA_OF_ZETA",
    "DELTA_OF_ZETA",
    "f_zeta",
    "f_in_Z",
    "REFERENCE_F_IN_Z",
    "fn_table_matches",
    "fn_pair",
    "correlations",
    "correlation_report",
    "sum_rule_residual",
    "symmetry_residual",
    "f_infinity",
    "figure_rows",
]


class PoleEncountered(ArithmeticError):
    """An exact evaluation hit a vanishing denominator."""


class ReconstructionFailed(ArithmeticError):
    """No rational function of Z of the expected degree matches f_n."""


_ZETA = variable("zeta")
_Z2 = _ZETA * _ZETA

#: the normalized discriminant Z as a function of zeta
Z_OF_ZETA = ratfunc_simplify((_Z2) * (_Z2 - 9) ** 2, (_Z2 - 1) ** 2)

#: the two nontrivial solutions of Z(zeta') = Z(zeta)
GAMMA_OF_ZETA = ratfunc_simplify(_ZETA + 3, _ZETA - 1)
DELTA_OF_ZETA = ratfunc_simplify(_ZETA - 3, _ZETA + 1)


@dataclass(frozen=True)
class CorrelationTriple:
    """Nearest-neighbour correlators (exact rationals for exact input)."""

    cx: Fraction
    cy: Fraction
    cz: Fraction


@dataclass(frozen=True)
class FnRational:
    """f_n in both variables, with the composition identity verified."""

    n: int
    in_zeta: RatFunc
    in_Z: RatFunc


def _at_inv_zeta_sq(p: Poly) -> RatFunc:
    """p(1/zeta^2) as a rational function of zeta."""
    d = max(p.degree, 0)
    num = [0] * (2 * d + 1)
    for k, c in enumerate(p.ints):
        num[2 * (d - k)] = c
    return ratfunc_simplify(
        Poly.from_ints(num, p.den, "zeta"), Poly.from_ints([0] * (2 * d) + [1], 1, "zeta")
    )


@functools.cache
def f_zeta(n: int) -> RatFunc:
    """f_n as a fully simplified rational function of zeta, from the
    default tau table."""
    table = default_table()
    L2 = (2 * n + 1) ** 2
    first = ratfunc_simplify((_Z2 + 3) * (_Z2 - 3), (_Z2 - 1) ** 2)
    pref = ratfunc_simplify(2 * _Z2 * (_Z2 + 3), L2 * (_Z2 - 1) ** 2)
    ratio = (_at_inv_zeta_sq(table.sbar(n)) * _at_inv_zeta_sq(table.sbar(-n - 1))) / (
        _at_inv_zeta_sq(table.s(n)) * _at_inv_zeta_sq(table.s(-n - 1))
    )
    return first - pref * ratio


# -- reduction of f_n to a rational function of Z ----------------------

def _coordinates(h: Poly, basis: list[Poly]) -> list[Fraction] | None:
    """c with h == sum_k c[k] basis[k], for a basis of strictly increasing
    degrees; None when h lies outside its span."""
    coeffs = [Fraction(0)] * len(basis)
    k = len(basis) - 1
    while not h.is_zero():
        while k >= 0 and basis[k].degree > h.degree:
            k -= 1
        if k < 0 or basis[k].degree != h.degree:
            return None
        coeffs[k] = h.leading / basis[k].leading
        h = h - coeffs[k] * basis[k]
    return coeffs


@functools.cache
def f_in_Z(n: int) -> RatFunc:
    """f_n as a rational function of Z, verified exactly against f_zeta(n).

    With Z = N/D (deg N = 6, deg D = 4) and f_n = P(Z)/Q(Z) in lowest terms
    with max(deg P, deg Q) = d, the zeta form of f_n is, up to one common
    constant, sum_k p_k N^k D^(d-k) over sum_k q_k N^k D^(d-k), and its
    degree is 6d.  The basis N^k D^(d-k) has the distinct degrees 4d + 2k,
    so one triangular solve reads p_k and q_k off the zeta numerator and
    denominator at d = ceil(deg_zeta(f_n) / 6).  Composing the candidate
    with Z(zeta) and comparing with f_zeta(n) structurally is the
    correctness certificate.
    """
    fz = f_zeta(n)
    d = -(-max(fz.num.degree, fz.den.degree) // 6)
    basis = homogeneous_powers(Z_OF_ZETA.num, Z_OF_ZETA.den, d)
    num = _coordinates(fz.num, basis)
    den = _coordinates(fz.den, basis)
    if num is not None and den is not None:
        cand = ratfunc_simplify(Poly(tuple(num), "Z"), Poly(tuple(den), "Z"))
        if ratfunc_compose(cand, Z_OF_ZETA) == fz:
            return cand
    raise ReconstructionFailed(
        f"no rational function of Z with degrees <= {d} matches f_{n}"
    )


#: the paper's table of f_n in the Z variable: (numerator, denominator)
#: coefficients in ascending order, as ratfunc_to_json writes them
REFERENCE_F_IN_Z = {
    0: ([], ["1"]),
    1: (["1"], ["1"]),
    2: (["27", "1"], ["25", "1"]),
    3: (["648", "51", "1"], ["588", "49", "1"]),
    4: (["14520", "1807", "74", "1"], ["13068", "1701", "72", "1"]),
    5: (
        ["8281845", "1748643", "145744", "6012", "123", "1"],
        ["7422987", "1615471", "137940", "5808", "121", "1"],
    ),
}


def fn_table_matches() -> bool:
    """Whether f_in_Z reproduces every entry of REFERENCE_F_IN_Z exactly."""
    return all(
        ratfunc_to_json(f_in_Z(n)) == {"variable": "Z", "num": num, "den": den}
        for n, (num, den) in REFERENCE_F_IN_Z.items()
    )


def fn_pair(n: int) -> FnRational:
    """Both representations of f_n, with the defining invariants checked."""
    fz = f_zeta(n)
    fZ = f_in_Z(n)
    if ratfunc_compose(fZ, Z_OF_ZETA) != fz:
        raise ReconstructionFailed(f"composition identity fails for n={n}")
    return FnRational(n=n, in_zeta=fz, in_Z=fZ)


def correlations(n: int, zeta: Fraction) -> CorrelationTriple:
    """Exact correlation triple at anisotropy parameter zeta."""
    zeta = Fraction(zeta)
    try:
        f = f_zeta(n).evaluate(zeta)
    except ZeroDivisionError as exc:
        raise PoleEncountered(f"f_{n} has a pole at zeta={zeta}") from exc
    s = zeta * zeta + 3
    return CorrelationTriple(
        cx=1 - (1 - zeta) ** 2 * f / s,
        cy=1 - (1 + zeta) ** 2 * f / s,
        cz=1 - 4 * f / s,
    )


def correlation_report(n: int, zeta: Fraction) -> tuple[dict, bool]:
    """The exact correlation triple at zeta with its energy sum-rule
    residual, and whether that residual is exactly zero."""
    zeta = Fraction(zeta)
    tri = correlations(n, zeta)
    res = sum_rule_residual(tri, zeta)
    return ({"n": n, "zeta": zeta, "cx": tri.cx, "cy": tri.cy, "cz": tri.cz,
             "sum_rule_residual": res}, res == 0)


def sum_rule_residual(triple: CorrelationTriple, zeta: Fraction) -> Fraction:
    """Energy sum rule: (1+z)cx + (1-z)cy + (z^2-1)/2 cz - (z^2+3)/2."""
    zeta = Fraction(zeta)
    return (
        (1 + zeta) * triple.cx
        + (1 - zeta) * triple.cy
        + (zeta * zeta - 1) / 2 * triple.cz
        - (zeta * zeta + 3) / 2
    )


def symmetry_residual(n: int) -> Poly:
    """Numerator of f_n(zeta) - f_n((zeta+3)/(zeta-1)); must be zero."""
    fz = f_zeta(n)
    diff = fz - ratfunc_compose(fz, GAMMA_OF_ZETA)
    return diff.num


def f_infinity(zeta):
    """Infinite-lattice limit of f_n, evaluated piecewise by regime.

    Accepts Fraction (exact result) or float.  The three regime formulas
    agree at the boundary points, so the function is continuous.
    """
    z2 = zeta * zeta
    if zeta <= -3 or zeta >= 3:
        return (z2 + 3) * (z2 - 3) / (z2 - 1) ** 2
    if zeta <= 0:
        return -(z2 + 3) * (z2 + 6 * zeta - 3) / (8 * (zeta - 1) ** 2)
    return -(z2 + 3) * (z2 - 6 * zeta - 3) / (8 * (zeta + 1) ** 2)


def figure_rows(ns: list[int], zmin: float, zmax: float, steps: int) -> list[list[float]]:
    """Rows (zeta, f_n1, ..., f_nk, f_inf) sampling the plotted curves."""
    fns = [f_zeta(n) for n in ns]
    rows = []
    for i in range(steps):
        zeta = zmin + (zmax - zmin) * i / (steps - 1) if steps > 1 else zmin
        row = [zeta]
        for f in fns:
            try:
                row.append(float(f.evaluate(zeta)))
            except ZeroDivisionError:
                row.append(float("nan"))
        row.append(float(f_infinity(zeta)))
        rows.append(row)
    return rows
