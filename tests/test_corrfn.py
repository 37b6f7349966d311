"""f_n assembly, its Z-variable form, correlation triples and the limit curve."""

from fractions import Fraction

import pytest

from susyxyz.corrfn import (
    GAMMA_OF_ZETA,
    Z_OF_ZETA,
    correlations,
    f_in_Z,
    f_infinity,
    f_zeta,
    figure_rows,
    fn_pair,
    sum_rule_residual,
    symmetry_residual,
)
from susyxyz.exactcore import RatFunc, ratfunc_compose, ratfunc_simplify, variable

ZVAR = variable("Z")


def _printed_table() -> dict[int, RatFunc]:
    Z = ZVAR
    one = RatFunc.constant(1, "Z")
    return {
        0: RatFunc.constant(0, "Z"),
        1: one,
        2: ratfunc_simplify(Z + 27, Z + 25),
        3: ratfunc_simplify((Z + 24) * (Z + 27), (Z + 21) * (Z + 28)),
        4: ratfunc_simplify(
            Z**3 + 74 * Z**2 + 1807 * Z + 14520,
            Z**3 + 72 * Z**2 + 1701 * Z + 13068,
        ),
        5: ratfunc_simplify(
            (Z + 27) * (Z**4 + 96 * Z**3 + 3420 * Z**2 + 53404 * Z + 306735),
            (Z**2 + 44 * Z + 429) * (Z**3 + 77 * Z**2 + 1991 * Z + 17303),
        ),
    }


def test_f0_and_f1():
    assert f_zeta(0).is_zero()
    f1 = f_zeta(1)
    assert f1 == RatFunc.constant(1, "zeta")


def test_f2_matches_composition():
    expected = ratfunc_compose(_printed_table()[2], Z_OF_ZETA)
    assert f_zeta(2) == expected


@pytest.mark.parametrize("n", range(6))
def test_f_in_Z_matches_printed_table(n):
    assert f_in_Z(n) == _printed_table()[n]


@pytest.mark.parametrize("n", range(10))
def test_fn_pair_invariants(n):
    pair = fn_pair(n)
    # evenness in zeta
    minus = RatFunc.from_poly(-variable("zeta"))
    even = ratfunc_compose(pair.in_zeta, minus)
    assert even == pair.in_zeta


def test_f_in_Z_failure_names_the_degree(monkeypatch):
    from susyxyz import corrfn

    # zeta^7 is odd, so no rational function of Z matches it; ceil(7/6) = 2
    zeta = variable("zeta")
    corrfn.f_in_Z.cache_clear()
    monkeypatch.setattr(corrfn, "f_zeta", lambda n: RatFunc.from_poly(zeta**7))
    with pytest.raises(corrfn.ReconstructionFailed, match="degrees <= 2 matches f_3"):
        f_in_Z(3)


@pytest.mark.parametrize("n", range(6))
def test_symmetry_residual_zero(n):
    assert symmetry_residual(n).is_zero()


def test_delta_symmetry_too():
    from susyxyz.corrfn import DELTA_OF_ZETA

    for n in (2, 3):
        f = f_zeta(n)
        assert (f - ratfunc_compose(f, DELTA_OF_ZETA)).is_zero()


@pytest.mark.parametrize("n", range(6))
def test_stroganov_values_at_zeta_zero(n):
    L = 2 * n + 1
    tri = correlations(n, Fraction(0))
    assert tri.cx == Fraction(5, 8) + Fraction(3, 8 * L * L)
    assert tri.cy == Fraction(5, 8) + Fraction(3, 8 * L * L)
    assert tri.cz == Fraction(-1, 2) + Fraction(3, 2 * L * L)


def test_triple_at_L3_xxz():
    tri = correlations(1, Fraction(0))
    assert (tri.cx, tri.cy, tri.cz) == (Fraction(2, 3), Fraction(2, 3), Fraction(-1, 3))


def test_cz_for_n1_general_zeta():
    # f_1 = 1 so C^z = (zeta^2-1)/(zeta^2+3)
    for z in (Fraction(1, 2), Fraction(5, 2), Fraction(-7, 3)):
        tri = correlations(1, z)
        assert tri.cz == (z * z - 1) / (z * z + 3)


@pytest.mark.parametrize("n", range(6))
def test_sum_rule(n):
    for z in (Fraction(0), Fraction(1, 2), Fraction(-2, 5), Fraction(5, 2), Fraction(1)):
        tri = correlations(n, z)
        assert sum_rule_residual(tri, z) == 0


def test_triple_finite_at_zeta_one():
    tri = correlations(2, Fraction(1))
    assert sum_rule_residual(tri, Fraction(1)) == 0


def test_large_zeta_correction_vanishes():
    # f_n minus the infinite-lattice term tends to 0 at large zeta for n >= 1
    zeta = variable("zeta")
    first = ratfunc_simplify((zeta**2 + 3) * (zeta**2 - 3), (zeta**2 - 1) ** 2)
    for n in range(1, 6):
        diff = f_zeta(n) - first
        assert diff.num.degree < diff.den.degree
    # and not for n = 0
    diff0 = f_zeta(0) - first
    assert diff0.num.degree >= diff0.den.degree


def test_f_infinity_values_and_continuity():
    assert f_infinity(Fraction(0)) == Fraction(9, 8)
    assert f_infinity(Fraction(3)) == Fraction(9, 8)
    # branch formulas agree exactly at the seams
    def outer(z):
        return (z * z + 3) * (z * z - 3) / (z * z - 1) ** 2

    def middle(z):
        return -(z * z + 3) * (z * z + 6 * z - 3) / (8 * (z - 1) ** 2)

    def inner(z):
        return -(z * z + 3) * (z * z - 6 * z - 3) / (8 * (z + 1) ** 2)

    three = Fraction(3)
    assert outer(three) == inner(three)
    assert outer(-three) == middle(-three)
    assert middle(Fraction(0)) == inner(Fraction(0))
    # limit at infinity is 1
    assert abs(f_infinity(1e9) - 1.0) < 1e-8


def test_convergence_trend_toward_limit():
    # deviation from the limit curve shrinks with n on each regime
    for z in (Fraction(1, 2), Fraction(-3, 2), Fraction(4), Fraction(-5)):
        devs = [abs(f_zeta(n).evaluate(z) - f_infinity(z)) for n in range(1, 6)]
        assert all(a >= b for a, b in zip(devs, devs[1:]))


def test_figure_rows_shape():
    rows = figure_rows([1, 2, 3, 4, 5], -6.0, 6.0, 25)
    assert len(rows) == 25 and all(len(r) == 7 for r in rows)
    assert rows[0][0] == -6.0 and rows[-1][0] == 6.0
