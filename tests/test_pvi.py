"""Painleve VI orbit: seed data, Hamiltonian, transformation, bridge identities."""

from fractions import Fraction

import pytest

from susyxyz.exactcore import RatFunc
from susyxyz.pvi import (
    PVIParams,
    _H,
    factorization_check,
    fpqp_residual,
    hamilton_residuals,
    hamiltonian,
    iterate_T,
    pvi_ode_residual,
    seed,
)


def test_seed_values_at_s2():
    pt = seed()
    assert pt.q.evaluate(Fraction(2)) == Fraction(8, 5)
    assert pt.p.evaluate(Fraction(2)) == Fraction(-5, 8)
    assert pt.t.evaluate(Fraction(2)) == Fraction(128, 125)
    assert pt.q.evaluate(Fraction(1)) == 1
    assert pt.t.evaluate(Fraction(1)) == 1


def test_parameter_constraint():
    prm = seed().params
    assert prm.a0 + prm.a1 + 2 * prm.a2 + prm.a3 + prm.a4 == 1
    with pytest.raises(ValueError):
        PVIParams(1, 1, 1, 1, 1)


def test_parameter_shift_rule():
    for n in range(4):
        prm = iterate_T(n).params
        assert (prm.a0, prm.a1, prm.a2, prm.a3, prm.a4) == (
            -n, 0, Fraction(1, 2) + n, -n, 0
        )


def test_hamiltonian_evaluation_against_direct_display():
    # H as a rational function of s, checked at s=2 against scalar arithmetic
    pt = seed()
    H = hamiltonian(pt)
    s2 = Fraction(2)
    q, p, t = pt.q.evaluate(s2), pt.p.evaluate(s2), pt.t.evaluate(s2)
    prm = pt.params
    direct = (
        q * (q - 1) * (q - t) * p * p
        - ((prm.a0 - 1) * q * (q - 1) + prm.a3 * q * (q - t) + prm.a4 * (q - 1) * (q - t)) * p
        + prm.a2 * (prm.a1 + prm.a2) * (q - t)
    )
    assert H.evaluate(s2) == direct


def test_hamiltonian_coefficient_degenerations():
    # with a1 = a3 = a4 = 0 and a0 = 1 only the kinetic and a2-terms remain
    prm = PVIParams(1, 0, 0, 0, 0)
    q, p, t = Fraction(3), Fraction(2), Fraction(5)
    assert _H(q, p, t, prm) == q * (q - 1) * (q - t) * p * p
    # seed parameters: the constant term is (q - t)/4
    prm = seed().params
    assert _H(q, Fraction(0), t, prm) == (q - t) / 4


@pytest.mark.parametrize("n", range(6))
def test_hamilton_residuals_vanish(n):
    r1, r2 = hamilton_residuals(iterate_T(n))
    assert r1.is_zero() and r2.is_zero()


@pytest.mark.parametrize("n", range(6))
def test_hamiltonian_bridge_residual_vanishes(n):
    assert fpqp_residual(n).is_zero()


def test_factorization_grid():
    rep = factorization_check(range(6))
    assert rep["ok"] and all(rep["per_n"].values())


def test_factorization_grid_rejects_mutated_parameters(monkeypatch):
    import susyxyz.pvi as pvi

    half = Fraction(1, 2)
    # a0 and a3 moved by one in opposite directions: the constraint still holds
    monkeypatch.setattr(pvi, "_shifted_hamiltonian_params",
                        lambda n: PVIParams(3 * half - n, 0, half + n, -3 * half - n, 0))
    rep = factorization_check(range(6))
    assert rep["ok"] is False and not any(rep["per_n"].values())


def test_factorization_spot_values():
    half = Fraction(1, 2)
    for n in (0, 1, 3):
        prm = PVIParams(half - n, 0, half + n, -half - n, 0)
        for q, p, t in [(Fraction(0), Fraction(0), Fraction(0)),
                        (Fraction(1), Fraction(1), Fraction(0)),
                        (Fraction(2), Fraction(-3), Fraction(7))]:
            lhs = _H(q, p, t, prm) + Fraction((2 * n + 1) ** 2, 4) * t
            rhs = (p * (q - 1) + n + half) * (p * (q - t) + n + half) * q
            assert lhs == rhs


@pytest.mark.parametrize("n", range(3))
def test_second_order_ode_residual(n):
    assert pvi_ode_residual(iterate_T(n)).is_zero()


def test_transform_preserves_constraint():
    for n in range(5):
        prm = iterate_T(n).params
        assert prm.a0 + prm.a1 + 2 * prm.a2 + prm.a3 + prm.a4 == 1


def test_empty_ranges_are_refused():
    # a verdict over no n would pass while checking nothing
    from susyxyz.pvi import pvi_verify

    with pytest.raises(ValueError, match="n_max must be >= 0"):
        pvi_verify(-1)
    with pytest.raises(ValueError, match="at least one n"):
        factorization_check(range(0))
    assert pvi_verify(0)["ok"] and factorization_check([2])["per_n"] == {2: True}


def test_zero_momentum_reconstruction_raises_singular_transform():
    # a4 / q with q = 0 reaches the reciprocal of the zero rational function
    from susyxyz.pvi import T_OF_S, SingularTransform, _reconstruct_p

    with pytest.raises(SingularTransform):
        _reconstruct_p(RatFunc.constant(0, "s"), T_OF_S, iterate_T(1).params)
