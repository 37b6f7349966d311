"""Q-eigenvalue solver and its verification chain."""

import cmath
import dataclasses
import decimal

import numpy as np
import pytest

from susyxyz.corrfn import f_zeta
from susyxyz import qsolver
from susyxyz.qsolver import (
    FE_BOUND,
    GAP_THRESHOLD,
    UNIT_ROUNDOFF,
    _ladder_bank,
    _wronskian_constant,
    alternant,
    ddt_check,
    f_from_q,
    functional_equation_residual,
    q_eval,
    qfc_check,
    qsolve_report,
    solve_q,
    wronskian_checks,
)
from susyxyz.thetanum import PI, ThetaContext, expansion_E, modular_values, theta

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
    scaled = dataclasses.replace(qc, free=10 * qc.free)
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


def _ladder_exponent(j, k, L):
    # 2e of frequency j in the basis function of free index k: j = k + mL
    # sits at e = L m^2 / 2 + mk, j = mL - k at L m^2 / 2 - mk
    if (j - k) % L == 0:
        m = (j - k) // L
        return L * m * m + 2 * m * k
    m = (j + k) // L
    return L * m * m - 2 * m * k


@pytest.mark.parametrize("n,tau", [(0, 1j), (3, 0.7j), (6, 0.55j), (4, 0.3 + 1j)])
def test_bank_weights_are_ladder_powers_bitwise(n, tau):
    L = 2 * n + 1
    for k, (js, ws, two_es) in enumerate(_ladder_bank(n, tau)):
        for j, w, two_e in zip(js.tolist(), ws.tolist(), two_es.tolist()):
            assert two_e == _ladder_exponent(j, k, L)
            fac = 1.0 if j == 0 else 2.0
            assert _bits(w) == _bits(fac * cmath.exp(1j * PI * tau * (two_e / 2)))


def test_extended_frequencies_carry_the_bank_exponents():
    qc = solve_q(6, 0.55j)
    assert qc.route == "extended"
    bank = [(j, k, two_e) for k, (js, _, two_es) in enumerate(qc.bank)
            for j, two_e in zip(js.tolist(), two_es.tolist())]
    assert [(f, k, two_e) for f, k, two_e, _ in qc.extended.freqs] == bank
    for f, k, two_e, fac in qc.extended.freqs:
        assert two_e == _ladder_exponent(f, k, qc.L) and fac == (1 if f == 0 else 2)


def test_residual_stable_under_refinement(solved, monkeypatch):
    # doubling the sampling and deepening the ladder truncation leaves the
    # ddt residual within a factor 10 (convergence audit)
    base = ddt_check(solved[2])["residual"]
    with monkeypatch.context() as patch:
        patch.setattr(qsolver, "SOLVE_ROWS_MIN", 96)
        fine = ddt_check(solve_q(2, TAU))["residual"]
    assert fine < 10 * max(base, 1e-15)
    with monkeypatch.context() as patch:
        patch.setattr(qsolver, "MULTIPLIER_CUT", 1e-60)
        deep = ddt_check(solve_q(2, TAU))["residual"]
    assert deep < 10 * max(base, 1e-15)


# -- bit-identity of the batched evaluations against per-point references --

def _bits(a):
    # exact IEEE bits, so that 0.0 and -0.0 differ
    return np.asarray(a, dtype=complex).tobytes()


def _q_eval_reference(qc, u, order=0):
    # one argument at a time, one np.sum per basis function
    total = 0j
    for ck, (js, ws, _) in zip(qc.free, qc.bank):
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
                js, ws, _ = bank[k]
                term = phi * np.sum(ws * np.cos(js * (u + shift)))
                A[s, k] += term
                scale = max(scale, abs(term))
        A[s] /= max(scale, 1e-300)
    _, sing, vh = np.linalg.svd(A, full_matrices=False)
    return np.conj(vh[-1]), sing


# -- the extended route against an independent 60-digit decimal reference --

D60 = decimal.Context(prec=60)
PI_D = D60.create_decimal(
    "3.14159265358979323846264338327950288419716939937510582097494459230781640628620899863"
)


def _dec_cos_sin(x):
    """cos and sin of a Decimal by its Taylor series after reduction by 2 pi."""
    two_pi = 2 * PI_D
    with decimal.localcontext(D60):
        x = x - two_pi * (x / two_pi).to_integral_value()
        c = s = decimal.Decimal(0)
        term, k = decimal.Decimal(1), 0
        while abs(term) > decimal.Decimal("1e-70"):
            if k % 2 == 0:
                c += term if k % 4 == 0 else -term
            else:
                s += term if k % 4 == 1 else -term
            k += 1
            term = term * x / k
        return c, s


def _dec_weights(qc):
    """Per bank frequency f: (f, k, fac * p^e) in decimal, with p = exp(-pi t)
    and e the exponent the quasi-periodicity ladder gives f."""
    L = qc.L
    t = decimal.Decimal(complex(qc.tau).imag)
    out = []
    for k, (js, _, _) in enumerate(qc.bank):
        for f in js.tolist():
            if (f - k) % L == 0:
                m = (f - k) // L
                e = decimal.Decimal(2 * m * k + L * m * m) / 2
            else:
                m = (f + k) // L
                e = decimal.Decimal(-2 * m * k + L * m * m) / 2
            out.append((f, k, (1 if f == 0 else 2) * D60.exp(-PI_D * t * e)))
    return out


def _dec_q(weights, coefficients, x, order=0):
    """q^(order) at a real or complex point from real decimal coefficients,
    as (real part, imaginary part)."""
    x = complex(x)
    a, b = decimal.Decimal(x.real), decimal.Decimal(x.imag)
    re = im = decimal.Decimal(0)
    with decimal.localcontext(D60):
        for f, k, w in weights:
            c, s = _dec_cos_sin(f * a)
            ch = (D60.exp(f * b) + D60.exp(-f * b)) / 2
            sh = (D60.exp(f * b) - D60.exp(-f * b)) / 2
            y = coefficients[k] * w
            if order == 0:              # cos(f x) = c ch - i s sh
                re += y * c * ch
                im -= y * s * sh
            elif order == 1:            # -f sin(f x) = -f (s ch + i c sh)
                re -= y * f * s * ch
                im -= y * f * c * sh
            else:                       # -f^2 cos(f x)
                re -= y * f * f * c * ch
                im += y * f * f * s * sh
    return re, im


def _extended_coefficients(qc):
    ext = qc.extended
    return [decimal.Decimal(v) / (1 << ext.bits) for v in ext.V]


def _q_eval_extended_reference(qc, u, order=0):
    # the routed cell's extended coefficients summed in 60-digit decimal,
    # rounded once
    re, im = _dec_q(_dec_weights(qc), _extended_coefficients(qc), u, order)
    return qc.extended.phase * complex(float(re), float(im))


def _theta1_decimal(t, x):
    with decimal.localcontext(D60):
        total = decimal.Decimal(0)
        for k in range(40):
            a = D60.exp(-PI_D * t * (k + decimal.Decimal("0.5")) ** 2)
            total += 2 * (-1) ** k * a * _dec_cos_sin((2 * k + 1) * x)[1]
        return total


def _reference_null_vector(qc):
    """The real null vector of the functional equation on qc's ladder bank,
    solved independently at 60 digits: theta1 and the cosines in decimal,
    n + 1 rows at exact shifts by 2 pi/3, the largest component of qc's
    coefficients fixed to 1, the rest by Gaussian elimination."""
    n, L = qc.n, qc.L
    t = decimal.Decimal(complex(qc.tau).imag)
    weights = _dec_weights(qc)
    pivot = int(np.argmax(np.abs(qc.free)))
    rows = []
    with decimal.localcontext(D60):
        for i in range(n):
            u = decimal.Decimal("0.2") + decimal.Decimal("2.7") * i / n
            row = [decimal.Decimal(0)] * (n + 1)
            for shift in (0, 2 * PI_D / 3, -2 * PI_D / 3):
                x = u + shift
                phi = _theta1_decimal(t, x) ** L
                for f, k, w in weights:
                    row[k] += phi * w * _dec_cos_sin(f * x)[0]
            rows.append(row)
        others = [k for k in range(n + 1) if k != pivot]
        A = [[row[k] for k in others] + [-row[pivot]] for row in rows]
        for c in range(n):
            r = max(range(c, n), key=lambda i: abs(A[i][c]))
            A[c], A[r] = A[r], A[c]
            for i in range(c + 1, n):
                factor = A[i][c] / A[c][c]
                A[i] = [x - factor * y for x, y in zip(A[i], A[c])]
        sol = [decimal.Decimal(0)] * n
        for c in reversed(range(n)):
            sol[c] = (A[c][n] - sum(A[c][j] * sol[j] for j in range(c + 1, n))) / A[c][c]
    vector = [decimal.Decimal(1)] * (n + 1)
    for k, v in zip(others, sol):
        vector[k] = v
    return vector


def test_routed_cell_matches_decimal_reference_to_25_digits():
    qc = solve_q(8, 0.5093j)
    assert qc.route == "extended"
    weights = _dec_weights(qc)
    ours, ref = _extended_coefficients(qc), _reference_null_vector(qc)
    points = (0.3, 1.2, 2.0, 2.7)
    with decimal.localcontext(D60):
        q_ours = [_dec_q(weights, ours, x)[0] for x in points]
        q_ref = [_dec_q(weights, ref, x)[0] for x in points]
        # both normalized at the largest value: 25 digits of that scale
        top = max(range(len(points)), key=lambda i: abs(q_ref[i]))
        for a, b in zip(q_ours, q_ref):
            assert abs(a / q_ours[top] - b / q_ref[top]) <= decimal.Decimal("1e-25")


def test_double_width_precision_fails_the_functional_equation(monkeypatch):
    # the extended precision is load-bearing: the same kernel at the 53 bits
    # of a double leaves the cell's coefficients outside the
    # functional-equation bound (it passes from about 60 bits on)
    fresh = np.linspace(0.17, PI - 0.13, 50)
    assert functional_equation_residual(solve_q(8, 0.5093j), fresh) < FE_BOUND
    monkeypatch.setattr(qsolver, "_precision_bits", lambda qc: 53)
    assert functional_equation_residual(solve_q(8, 0.5093j), fresh) >= FE_BOUND


def _cell_bits(n, tau):
    qc = solve_q(n, tau)
    ext = qc.extended
    return (_bits(qc.free), functional_equation_residual(qc, np.linspace(0.17, PI - 0.13, 50)),
            _bits(q_eval(qc, np.linspace(-3.0, 6.5, 41) + PI * tau / 2, 1)),
            _bits(qfc_check(qc)["lhs"]), ddt_check(qc)["beta_closed_residual"],
            ext.bits, ext.nome.bits, ext.nome.w)


@pytest.mark.parametrize("before", [
    dict(n=8, tau=0.5j), dict(n=12, tau=0.5j), dict(n=5, tau=0.5j, cut=1e-60),
    dict(n=5, tau=0.6j),
])
def test_routed_cell_does_not_depend_on_earlier_cells(monkeypatch, before):
    # a routed cell's tables and nome values are built at its own precision
    # and guard, so a cell run first, at the same nome with more terms or a
    # deeper ladder or at another nome, leaves its precision and every bit
    # of its results as in a fresh process
    qsolver._trig_table.cache_clear()
    qsolver._nome.cache_clear()
    fresh = _cell_bits(5, 0.5j)
    qsolver._trig_table.cache_clear()
    qsolver._nome.cache_clear()
    with monkeypatch.context() as patch:
        patch.setattr(qsolver, "MULTIPLIER_CUT", before.get("cut", qsolver.MULTIPLIER_CUT))
        assert solve_q(before["n"], before["tau"]).route == "extended"
    assert _cell_bits(5, 0.5j) == fresh


def _qfc_reference(qc):
    n, tau, L = qc.n, qc.tau, qc.L
    ctx = ThetaContext(tau)
    c32 = ctx.scaled(1.5)
    E = expansion_E(n, ctx)
    th, th1, th2 = (theta(1, PI / 3, ctx, r) for r in range(3))
    phi = th**L
    phi1 = L * th ** (L - 1) * th1
    phi2 = L * (L - 1) * th ** (L - 2) * th1**2 + L * th ** (L - 1) * th2
    q = _q_eval_reference
    q_third = q(qc, PI / 3)
    qphi2 = q(qc, PI / 3, 2) * phi + 2 * q(qc, PI / 3, 1) * phi1 + q_third * phi2
    lhs = (
        (2 * n + 3) * q(qc, 0.0, 2) * q_third
        + (2 * n - 1) * q(qc, 0.0) * qphi2 / phi
        + 2 * (2 * n + 1) * E * q(qc, 0.0) * q_third
    )
    alt = (theta(3, 0.0, c32) * theta(4, PI / 2, c32) * q(qc, 0.0) * q(qc, PI / 3 + PI)
           - theta(4, 0.0, c32) * theta(3, PI / 2, c32) * q(qc, PI) * q(qc, PI / 3))
    rhs = 3j * q(qc, PI + PI * tau / 2, 1) / q(qc, PI * tau / 2) * alt
    return lhs, rhs


@pytest.mark.parametrize("t", [0.5, 1.0, 2.0])
def test_qsolve_passes_every_check_at_n_12(t):
    rep = qsolve_report(12, 1j * t)
    assert rep["ok"] is True and rep["route"] == "extended"
    assert rep["cancellation"] > 0


@pytest.mark.parametrize("bound, n, tau", [
    ("GAP_THRESHOLD", 2, 1j), ("FE_BOUND", 2, 1j), ("WRONSKIAN_BOUND", 2, 1j),
    ("DDT_BOUND", 2, 1j), ("DDT_BETA_BOUND", 2, 1j), ("QFC_BOUND", 2, 1j),
    ("QFC_BOUND", 3, 0.7j), ("BRIDGE_BOUND", 2, 1j),
])
def test_qsolve_report_reads_each_bound(monkeypatch, bound, n, tau):
    # (3, 0.7i) takes the extended route, whose qfc is formed apart
    assert qsolve_report(n, tau)["ok"] is True
    # no residual is below 0 and no gap reaches infinity, so the verdict
    # turns if and only if it reads the bound
    monkeypatch.setattr(qsolver, bound, np.inf if bound == "GAP_THRESHOLD" else 0.0)
    assert qsolve_report(n, tau)["ok"] is False


def test_qsolve_reports_an_unisolated_null_space():
    rep = qsolve_report(14, 0.5j)
    assert rep["ok"] is False
    assert rep["nullspace_gap"] < rep["gap_threshold"] == GAP_THRESHOLD


def _reference_q(qc):
    return _q_eval_extended_reference if qc.route == "extended" else _q_eval_reference


def _fe_residual_reference(qc, us):
    ctx = ThetaContext(qc.tau)
    q = _reference_q(qc)
    worst = 0.0
    for u in us:
        terms = [
            theta(1, u + shift, ctx) ** qc.L * q(qc, u + shift)
            for shift in (0.0, 2 * PI / 3, -2 * PI / 3)
        ]
        scale = max(abs(t) for t in terms)
        if scale > 0:
            worst = max(worst, abs(sum(terms)) / scale)
    return worst


def _wronskian_residual_reference(qc, n_samples=20):
    ctx = ThetaContext(qc.tau)
    q = _reference_q(qc)
    W = _wronskian_constant(qc)
    worst = 0.0
    for u in np.linspace(0.07, PI - 0.07, n_samples):
        lhs = W * theta(1, u, ctx) ** qc.L
        t1 = q(qc, u - PI / 3) * q(qc, u - 2 * PI / 3)
        t2 = q(qc, u - PI / 3 + PI) * q(qc, u - 2 * PI / 3 + PI)
        worst = max(worst, abs(lhs - (t1 - t2)) / max(abs(lhs), abs(t1), abs(t2)))
    return worst


#: (3, 0.7j) and (6, 0.55j) take the extended route: their values are
#: compared with the extended reference, the others' with the double
#: per-point reference
BIT_CASES = [(0, 1j), (2, 1j), (3, 0.7j), (6, 0.55j)]


@pytest.mark.parametrize("n,tau", BIT_CASES)
def test_q_eval_array_matches_scalar_bitwise(n, tau):
    qc = solve_q(n, tau)
    assert qc.route == ("double" if tau == 1j else "extended")
    reference = _reference_q(qc)
    real = np.linspace(-3.0, 6.5, 41)
    for us in (real, real + PI * tau, real + PI * tau / 2):
        for order in range(3):
            got = q_eval(qc, us, order)
            assert got.shape == us.shape
            for u, g in zip(us, got):
                scalar = q_eval(qc, u, order)
                assert type(scalar) is complex
                assert _bits(g) == _bits(scalar) == _bits(reference(qc, u, order))


@pytest.mark.parametrize("n,tau", BIT_CASES)
def test_solve_q_fe_and_wronskian_match_per_point_references(n, tau):
    qc = solve_q(n, tau)
    free, sing = _solve_q_reference(n, tau)
    if qc.route == "extended":
        vector = _reference_null_vector(qc)
        free = qc.extended.phase * np.array([float(v) for v in vector])
    assert _bits(qc.free) == _bits(free)
    assert qc.singular_values.tobytes() == sing.tobytes()
    fresh = np.linspace(0.17, PI - 0.13, 50)
    assert functional_equation_residual(qc, fresh) == _fe_residual_reference(qc, fresh)
    assert functional_equation_residual(qc, list(fresh)) == _fe_residual_reference(qc, fresh)
    got = wronskian_checks(qc)["max_relation_residual"]
    assert got == _wronskian_residual_reference(qc)
