"""Q-eigenvalue solver and its verification chain."""

import cmath

import numpy as np
import pytest

from susyxyz.corrfn import f_zeta
from susyxyz.qsolver import (
    QCoefficients,
    _ladder_bank,
    _wronskian_constant,
    alternant,
    ddt_check,
    f_from_q,
    functional_equation_residual,
    q_eval,
    qfc_check,
    solve_q,
    wronskian_checks,
)
from susyxyz.thetanum import PI, ThetaContext, modular_values, theta

TAU = 1j


@pytest.fixture(scope="module")
def solved():
    return {n: solve_q(n, TAU) for n in range(4)}


def test_nullspace_gap(solved):
    for n in range(4):
        assert solved[n].nullspace_gap >= 1e6


def test_functional_equation_at_fresh_points(solved):
    fresh = np.linspace(0.17, PI - 0.13, 50)
    for n in range(4):
        assert functional_equation_residual(solved[n], fresh) < 1e-10


def test_evenness_off_grid(solved):
    rng = np.random.default_rng(5)
    for n in range(4):
        qc = solved[n]
        for u in rng.uniform(-2.5, 2.5, 6):
            a, b = q_eval(qc, u), q_eval(qc, -u)
            assert abs(a - b) <= 1e-11 * max(abs(a), 1.0)


def test_quasi_periodicity_of_solution(solved):
    # q(u + pi tau) = exp(-iL(u + pi tau/2)) q(u), an independent ladder check
    for n in (0, 1, 2):
        qc = solved[n]
        L = qc.L
        for u in (0.4, 1.9):
            lhs = q_eval(qc, u + PI * TAU)
            rhs = cmath.exp(-1j * L * (u + PI * TAU / 2)) * q_eval(qc, u)
            assert abs(lhs - rhs) <= 1e-10 * max(abs(lhs), abs(rhs))


def test_q_nonzero_at_half_period(solved):
    for n in range(4):
        qc = solved[n]
        val = q_eval(qc, PI * TAU / 2)
        assert abs(val) > 1e-6 * np.abs(qc.free).max()


def test_wronskian_relation(solved):
    for n in range(4):
        rep = wronskian_checks(solved[n])
        assert rep["max_relation_residual"] < 1e-8
        assert rep["third_point_instance_residual"] < 1e-8
        assert rep["antisymmetry_at_equal_args"] < 1e-13


def test_alternant_antisymmetry(solved):
    qc = solved[2]
    a = alternant(qc, 0.8, 1.7)
    b = alternant(qc, 1.7, 0.8)
    assert abs(a + b) < 1e-13 * abs(a)


def test_ddt_relation(solved):
    for n in range(4):
        rep = ddt_check(solved[n])
        assert rep["residual"] < 1e-7
        assert rep["beta_closed_residual"] < 1e-7
        assert rep["fit_variation"] < 1e-8


def test_qfc_relation(solved):
    for n in range(3):
        rep = qfc_check(solved[n])
        assert rep["residual"] < 1e-7


def test_qfc_scale_invariance(solved):
    qc = solved[1]
    scaled = QCoefficients(
        n=qc.n, tau=qc.tau, free=10 * qc.free, base=10 * qc.base,
        nullspace_gap=qc.nullspace_gap, singular_values=qc.singular_values,
        bank=qc.bank,
    )
    r1 = qfc_check(qc)["residual"]
    r2 = qfc_check(scaled)["residual"]
    assert abs(r1 - r2) < 1e-12
    assert abs(f_from_q(qc) - f_from_q(scaled)) < 1e-12


def test_singular_value_isolation(solved):
    # smallest singular value isolated below; the rest well-conditioned
    for n in (1, 2, 3):
        s = solved[n].singular_values
        assert s[-1] / s[-2] <= 1e-6
        assert s[-2] / s[0] >= 1e-3


def test_f_from_q_matches_exact_pipeline(solved):
    zeta = modular_values(TAU).zeta.real
    for n in (0, 1, 2):
        fq = f_from_q(solved[n])
        fe = float(f_zeta(n).evaluate(zeta))
        assert abs(fq.imag) < 1e-8
        assert abs(fq.real - fe) < 1e-6


def test_f_from_q_other_tau():
    tau = 0.8j
    zeta = modular_values(tau).zeta.real
    for n in (1, 2):
        fq = f_from_q(solve_q(n, tau))
        fe = float(f_zeta(n).evaluate(zeta))
        assert abs(fq - fe) < 1e-6


def test_residual_stable_under_refinement(solved):
    # doubling the sampling and deepening the ladder truncation leaves the
    # ddt residual within a factor 10 (convergence audit)
    base = ddt_check(solved[2])["residual"]
    fine = ddt_check(solve_q(2, TAU, n_samples=96))["residual"]
    assert fine < 10 * max(base, 1e-15)
    deep = ddt_check(solve_q(2, TAU, multiplier_cut=1e-60))["residual"]
    assert deep < 10 * max(base, 1e-15)


# -- bit-identity of the batched evaluations against per-point references --

def _bits(a):
    # exact IEEE bits, so that 0.0 and -0.0 differ
    return np.asarray(a, dtype=complex).tobytes()


def _q_eval_reference(qc, u, order=0):
    # one argument at a time, one np.sum per basis function
    total = 0j
    for ck, (js, ws) in zip(qc.free, qc.bank):
        if order == 0:
            basis = np.cos(js * u)
        elif order == 1:
            basis = -js * np.sin(js * u)
        else:
            basis = -(js**2) * np.cos(js * u)
        total += ck * np.sum(ws * basis)
    return complex(total)


def _solve_q_reference(n, tau):
    # per sample point and shift, as solve_q assembled A row by row
    L = 2 * n + 1
    ctx = ThetaContext(tau)
    bank = _ladder_bank(n, tau)
    M = max(4 * L, 48)
    A = np.zeros((M, n + 1), dtype=complex)
    for s, u in enumerate(np.linspace(0.1, PI - 0.1, M)):
        scale = 0.0
        for shift in (0.0, 2 * PI / 3, -2 * PI / 3):
            phi = theta(1, u + shift, ctx) ** L
            for k in range(n + 1):
                js, ws = bank[k]
                term = phi * np.sum(ws * np.cos(js * (u + shift)))
                A[s, k] += term
                scale = max(scale, abs(term))
        A[s] /= max(scale, 1e-300)
    _, sing, vh = np.linalg.svd(A, full_matrices=False)
    return np.conj(vh[-1]), sing


def _fe_residual_reference(qc, us):
    ctx = ThetaContext(qc.tau)
    worst = 0.0
    for u in us:
        terms = [
            theta(1, u + shift, ctx) ** qc.L * _q_eval_reference(qc, u + shift)
            for shift in (0.0, 2 * PI / 3, -2 * PI / 3)
        ]
        scale = max(abs(t) for t in terms)
        if scale > 0:
            worst = max(worst, abs(sum(terms)) / scale)
    return worst


def _wronskian_residual_reference(qc, n_samples=20):
    ctx = ThetaContext(qc.tau)
    W = _wronskian_constant(qc)
    worst = 0.0
    for u in np.linspace(0.07, PI - 0.07, n_samples):
        lhs = W * theta(1, u, ctx) ** qc.L
        t1 = _q_eval_reference(qc, u - PI / 3) * _q_eval_reference(qc, u - 2 * PI / 3)
        t2 = (_q_eval_reference(qc, u - PI / 3 + PI)
              * _q_eval_reference(qc, u - 2 * PI / 3 + PI))
        worst = max(worst, abs(lhs - (t1 - t2)) / max(abs(lhs), abs(t1), abs(t2)))
    return worst


BIT_CASES = [(0, 1j), (2, 1j), (3, 0.7j), (6, 0.55j)]


@pytest.mark.parametrize("n,tau", BIT_CASES)
def test_q_eval_array_matches_scalar_bitwise(n, tau):
    qc = solve_q(n, tau)
    real = np.linspace(-3.0, 6.5, 41)
    for us in (real, real + PI * tau, real + PI * tau / 2):
        for order in range(3):
            got = q_eval(qc, us, order)
            assert got.shape == us.shape
            for u, g in zip(us, got):
                scalar = q_eval(qc, u, order)
                assert type(scalar) is complex
                assert _bits(g) == _bits(scalar) == _bits(_q_eval_reference(qc, u, order))


@pytest.mark.parametrize("n,tau", BIT_CASES)
def test_solve_q_fe_and_wronskian_match_per_point_references(n, tau):
    qc = solve_q(n, tau)
    free, sing = _solve_q_reference(n, tau)
    assert _bits(qc.free) == _bits(free)
    assert qc.singular_values.tobytes() == sing.tobytes()
    fresh = np.linspace(0.17, PI - 0.13, 50)
    assert functional_equation_residual(qc, fresh) == _fe_residual_reference(qc, fresh)
    assert functional_equation_residual(qc, list(fresh)) == _fe_residual_reference(qc, fresh)
    got = wronskian_checks(qc)["max_relation_residual"]
    assert got == _wronskian_residual_reference(qc)
