"""Tau-polynomial recursion: seeds, hand-derived entries, and integrity checks."""

import time
from fractions import Fraction

import pytest

from susyxyz.exactcore import Poly
from susyxyz.taurec import TauTable


def P(*coeffs):
    return Poly(tuple(Fraction(c) for c in coeffs), "z")


def test_seeds():
    t = TauTable()
    assert t.s(0) == P(1) and t.s(1) == P(1)
    assert t.sbar(0) == P(1) and t.sbar(1) == P(3)


def test_hand_derived_small_entries():
    t = TauTable()
    # forward step at n=1: derivative terms vanish, 72 s_2 = 72 + 72 z
    assert t.s(2) == P(1, 1)
    # backward step at n=0: 8 s_1 s_{-1} - 8 s_0^2 = 0
    assert t.s(-1) == P(1)
    # barred forward step at n=1: 72 sbar_2 = 80 * 9
    assert t.sbar(2) == P(10)
    # barred backward step at n=0: 24 sbar_{-1} = 8 - 4(9z - 1)
    assert t.sbar(-1) == P(Fraction(1, 2), Fraction(-3, 2))


def test_recursion_residuals_zero():
    t = TauTable()
    t.ensure(-6)
    t.ensure(6)
    for n in range(-5, 6):
        assert t.recursion_residual(n, barred=False).is_zero()
        assert t.recursion_residual(n, barred=True).is_zero()


def test_forward_backward_consistency():
    # recompute an interior entry from the opposite direction
    t = TauTable()
    t.ensure(-4)
    t.ensure(4)
    from susyxyz.taurec import _solve_product
    from susyxyz.exactcore import poly_exact_div

    for n in range(-3, 3):
        # solve the relation at n for the UPPER index using stored lower one
        num = _solve_product(t.s(n), n, False)
        upper = poly_exact_div(num, 8 * (2 * n + 1) ** 2 * t.s(n - 1))
        assert upper == t.s(n + 1)
        num = _solve_product(t.sbar(n), n, True)
        upper = poly_exact_div(num, 8 * (2 * n + 1) ** 2 * t.sbar(n - 1))
        assert upper == t.sbar(n + 1)


def test_xxz_specialization():
    t = TauTable()
    rep = t.xxz_check(4)
    assert rep["ok"]
    # spot values from the hand-derived polynomials
    assert t.sbar(2).evaluate(Fraction(1, 9)) == 10
    assert 9 * t.s(2).evaluate(Fraction(1, 9)) == 10
    assert t.sbar(-1).evaluate(Fraction(1, 9)) == Fraction(1, 3)
    assert Fraction(1, 3) * t.s(-1).evaluate(Fraction(1, 9)) == Fraction(1, 3)


def test_zero_structure():
    t = TauTable()
    rep = t.zero_structure_check(4)
    assert rep["ok"]
    # case n=1 of the divisibility: sbar_{-2} has vanishing constant term
    assert t.sbar(-2).coeffs[0] == 0
    assert t.s(2).evaluate(Fraction(0)) == 1
    assert t.sbar(0).evaluate(Fraction(0)) == 1


def test_check_refuses_an_empty_range():
    # at n_max < 0 no residual and no XXZ value would be checked
    with pytest.raises(ValueError, match="n_max must be >= 0"):
        TauTable().check(-3)
    assert TauTable().check(0)["ok"] is True


def test_full_default_range_within_budget():
    t0 = time.monotonic()
    t = TauTable()
    t.ensure(-9)
    t.ensure(9)
    elapsed = time.monotonic() - t0
    for n in range(-8, 9):
        assert t.recursion_residual(n, barred=False).is_zero()
        assert t.recursion_residual(n, barred=True).is_zero()
    assert elapsed < 10.0


def test_rational_coefficients_allowed():
    # no integrality normalization is imposed
    t = TauTable()
    assert any(c.denominator > 1 for c in t.sbar(-1).coeffs)


def ref_solve_product(sn, n, barred):
    """The recursion's right-hand side as seven Poly products."""
    from susyxyz.taurec import _A, _B, _coef

    d1 = sn.derivative()
    d2 = d1.derivative()
    return _coef(n, barred) * sn * sn - _A * (d2 * sn - d1 * d1) - _B * sn * d1


def test_packed_solve_product_matches_seven_products():
    from susyxyz.taurec import _solve_product, default_table

    t = default_table()
    for n in range(-16, 17):
        for sn, barred in ((t.s(n), False), (t.sbar(n), True)):
            assert _solve_product(sn, n, barred) == ref_solve_product(sn, n, barred)
    # entries with rational coefficients, as in the default table
    assert any(t.sbar(n).den > 1 for n in range(-16, 17))
    for sn in (P(Fraction(1, 2), Fraction(-3, 2)), P(Fraction(-5, 6), 0, Fraction(7, 4), 1)):
        for n in (-3, 0, 4):
            assert _solve_product(sn, n, True) == ref_solve_product(sn, n, True)


def test_perturbed_entry_gives_the_reference_residuals():
    t = TauTable()
    t.ensure(-9)
    t.ensure(9)
    cs = list(t.s(7).coeffs)
    cs[1] += 1
    t._s[7] = Poly(cs, "z")
    for n in (6, 7, 8):
        got = t.recursion_residual(n)
        ref = 8 * (2 * n + 1) ** 2 * t.s(n + 1) * t.s(n - 1) - ref_solve_product(t.s(n), n, False)
        assert not got.is_zero() and got == ref
    assert t.recursion_residual(5).is_zero() and t.recursion_residual(9).is_zero()
    assert t.recursion_residual(7, barred=True).is_zero()
    rep = t.check(8)
    assert rep["recursion_residuals_zero"] is False and rep["ok"] is False
