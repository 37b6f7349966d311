"""Acceptance gate: every criterion at its stated tolerance, one line each.

Run with `pytest -s tests/test_acceptance.py` to see the PASS/FAIL lines.
"""

import time
from fractions import Fraction

import numpy as np

from susyxyz.corrfn import (
    correlations,
    f_in_Z,
    f_infinity,
    f_zeta,
    symmetry_residual,
)
from susyxyz.exactcore import Poly, RatFunc, ratfunc_simplify, variable
from susyxyz.taurec import TauTable


def _report(k: int, name: str, ok: bool):
    print(f"ACCEPTANCE {k:2d} {name}: {'PASS' if ok else 'FAIL'}")
    assert ok, f"criterion {k} ({name}) failed"


def test_criterion_1_tau_recursion_integrity():
    t0 = time.monotonic()
    table = TauTable()
    table.ensure(-9)
    table.ensure(9)  # any division failure raises NonzeroRemainder
    elapsed = time.monotonic() - t0
    residuals_ok = all(
        table.recursion_residual(n, barred).is_zero()
        for n in range(-8, 9)
        for barred in (False, True)
    )
    P = lambda *cs: Poly(tuple(Fraction(c) for c in cs), "z")
    entries_ok = (
        table.s(2) == P(1, 1)
        and table.s(-1) == P(1)
        and table.sbar(2) == P(10)
        and table.sbar(-1) == P(Fraction(1, 2), Fraction(-3, 2))
    )
    _report(1, "tau-recursion integrity", residuals_ok and entries_ok and elapsed < 10.0)


def test_criterion_2_paper_table_match():
    Z = variable("Z")
    expected = {
        0: RatFunc.constant(0, "Z"),
        1: RatFunc.constant(1, "Z"),
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
    ok = all(f_in_Z(n) == expected[n] for n in range(6))
    _report(2, "printed f_n table match (structural)", ok)


def test_criterion_3_symmetry():
    ok = all(symmetry_residual(n).is_zero() for n in range(6))
    _report(3, "zeta -> (zeta+3)/(zeta-1) symmetry", ok)


def test_criterion_4_oracle_equivalence():
    from susyxyz import edoracle
    from susyxyz.edoracle import DEFAULT_ZETA_GRID, ed_verify

    stated = (edoracle.F_TOL, edoracle.ENERGY_TOL) == (1e-7, 1e-10)
    t0 = time.monotonic()
    rep = ed_verify(Ls=(3, 5, 7, 9, 11), zetas=DEFAULT_ZETA_GRID)
    elapsed = time.monotonic() - t0
    complete = all("skipped" not in s for s in rep["samples"])
    _report(4, "diagonalization oracle equivalence (L <= 11)",
            stated and rep["ok"] and complete and elapsed < 300.0)


def test_criterion_5_xxz_specialization():
    ok = True
    for n in range(6):
        L = 2 * n + 1
        tri = correlations(n, Fraction(0))
        ok = ok and tri.cx == Fraction(5, 8) + Fraction(3, 8 * L * L)
        ok = ok and tri.cy == Fraction(5, 8) + Fraction(3, 8 * L * L)
        ok = ok and tri.cz == Fraction(-1, 2) + Fraction(3, 2 * L * L)
    _report(5, "XXZ specialization (exact)", ok)


def test_criterion_6_painleve_bridge():
    from susyxyz.pvi import factorization_check, fpqp_residual, hamilton_residuals, iterate_T

    t0 = time.monotonic()
    ok = True
    for n in range(10):
        r1, r2 = hamilton_residuals(iterate_T(n))
        ok = ok and r1.is_zero() and r2.is_zero() and fpqp_residual(n).is_zero()
    ok = ok and factorization_check(range(10))["ok"]
    elapsed = time.monotonic() - t0
    _report(6, "Painleve Hamiltonian bridge (exact, n <= 9)", ok and elapsed < 120.0)


def test_criterion_7_identity_suite():
    from susyxyz.thetanum import IDENTITY_SAMPLES, LEMMA_RESIDUALS, identity_suite

    t0 = time.monotonic()
    ok = IDENTITY_SAMPLES == 20
    for tau in (0.5j, 1j, 2j):
        res = identity_suite(tau, seed=20)
        for name, value in res.items():
            ok = ok and value < (1e-10 if name in LEMMA_RESIDUALS else 1e-11)
    elapsed = time.monotonic() - t0
    _report(7, "theta identity suite (3 nomes, 20 samples)", ok and elapsed < 30.0)


def test_criterion_8_infinite_lattice_limit():
    from susyxyz.thetanum import baxter_f_infinity

    ok = all(baxter_f_infinity(tau)["diff"] < 1e-9 for tau in (0.6j, 1j, 1.5j, 2.5j))

    def outer(z):
        return (z * z + 3) * (z * z - 3) / (z * z - 1) ** 2

    def middle(z):
        return -(z * z + 3) * (z * z + 6 * z - 3) / (8 * (z - 1) ** 2)

    def inner(z):
        return -(z * z + 3) * (z * z - 6 * z - 3) / (8 * (z + 1) ** 2)

    three, zero = Fraction(3), Fraction(0)
    ok = ok and outer(three) == inner(three) == f_infinity(three)
    ok = ok and outer(-three) == middle(-three) == f_infinity(-three)
    ok = ok and middle(zero) == inner(zero) == f_infinity(zero)
    _report(8, "infinite-lattice limit (series vs closed form)", ok)


def test_criterion_9_transfer_matrix_eigenvalue():
    from susyxyz.edoracle import transfer_checks

    ok = True
    for tau in (0.5j, 1j):
        for L in (3, 5, 7):
            rep = transfer_checks(L, tau)
            ok = ok and len(rep["eigenvalue_residuals"]) == 5
            ok = ok and rep["max_eigenvalue_residual"] < 1e-8
            ok = ok and rep["commutator_residual"] < 1e-9
    _report(9, "transfer-matrix eigenvalue at the supersymmetric point", ok)


def test_criterion_10_q_pipeline():
    from susyxyz.qsolver import (
        ddt_check,
        f_from_q,
        qfc_check,
        solve_q,
        wronskian_checks,
    )
    from susyxyz.thetanum import modular_values

    t0 = time.monotonic()
    ok = True
    for tau in (0.5j, 1j, 2j):
        zeta = modular_values(tau).zeta.real
        for n in range(13):
            qc = solve_q(n, tau)
            ok = ok and qc.nullspace_gap >= 1e6
            w = wronskian_checks(qc)
            ok = ok and w["max_relation_residual"] < 1e-7
            d = ddt_check(qc)
            ok = ok and d["residual"] < 1e-7 and d["beta_closed_residual"] < 1e-7
            ok = ok and qfc_check(qc)["residual"] < 1e-7
            fq = f_from_q(qc)
            fe = float(f_zeta(n).evaluate(zeta))
            ok = ok and abs(fq - fe) < 1e-6
    elapsed = time.monotonic() - t0
    _report(10, "Q-eigenvalue pipeline (n <= 12 at tau = 0.5i, i, 2i)", ok and elapsed < 120.0)
